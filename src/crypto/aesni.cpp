// AES-NI backend. This is the only translation unit compiled with -maes
// (see CMakeLists.txt); everything else stays portable and reaches this code
// through the runtime dispatch in aes128.cpp.
#include "crypto/aesni_impl.h"

#ifndef ARM2GC_NO_AESNI

#include <emmintrin.h>
#include <wmmintrin.h>

namespace arm2gc::crypto::detail {

namespace {

// Block is a standard-layout 16-byte struct whose in-memory bytes are exactly
// the cipher byte string (see Block::to_bytes), so unaligned vector loads and
// stores round-trip it directly.
inline __m128i load_block(const Block* b) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
}

inline void store_block(Block* b, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(b), v);
}

inline void load_round_keys(const std::uint8_t* round_key_bytes, __m128i rk[11]) {
  for (int r = 0; r < 11; ++r) {
    rk[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_key_bytes + 16 * r));
  }
}

/// Encrypts N states in place, all N in flight through every round.
template <int N>
inline void encrypt_states(const __m128i rk[11], __m128i (&s)[N]) {
  for (int j = 0; j < N; ++j) s[j] = _mm_xor_si128(s[j], rk[0]);
  for (int r = 1; r < 10; ++r) {
    for (int j = 0; j < N; ++j) s[j] = _mm_aesenc_si128(s[j], rk[r]);
  }
  for (int j = 0; j < N; ++j) s[j] = _mm_aesenclast_si128(s[j], rk[10]);
}

/// Block::gf_double in a vector register: shift each 32-bit lane left by
/// one, carry each lane's top bit into the next lane, and fold the top
/// lane's carry back in as the reduction constant 0x87.
inline __m128i gf_double(__m128i x) {
  const __m128i carry = _mm_and_si128(_mm_srai_epi32(x, 31), _mm_set_epi32(0x87, 1, 1, 1));
  return _mm_xor_si128(_mm_slli_epi32(x, 1),
                       _mm_shuffle_epi32(carry, _MM_SHUFFLE(2, 1, 0, 3)));
}

/// All-ones iff bit 0 (the point-and-permute bit) of x is set.
inline __m128i lsb_mask(__m128i x) {
  return _mm_shuffle_epi32(_mm_srai_epi32(_mm_slli_epi32(x, 31), 31), _MM_SHUFFLE(0, 0, 0, 0));
}

/// All-ones iff `bit` is set.
inline __m128i bit_mask(std::uint32_t bit) {
  return _mm_set1_epi64x(-static_cast<long long>(bit & 1u));
}

/// The hash tweak as a Block (block_from_u64).
inline __m128i tweak_block(std::uint64_t t) {
  return _mm_cvtsi64_si128(static_cast<long long>(t));
}

/// Garbles G independent half-gates: 4G hashes in flight.
template <int G>
inline void garble_group(const __m128i rk[11], __m128i r, __m128i dr, Block* labels,
                         const HalfGateJob* jobs, std::uint64_t tweak, Block* rows) {
  __m128i a[G];
  __m128i b[G];
  __m128i key[4 * G];
  __m128i h[4 * G];
  for (int g = 0; g < G; ++g) {
    const std::uint32_t pol = jobs[g].polarity;
    a[g] = _mm_xor_si128(load_block(labels + jobs[g].a), _mm_and_si128(r, bit_mask(pol)));
    b[g] = _mm_xor_si128(load_block(labels + jobs[g].b), _mm_and_si128(r, bit_mask(pol >> 1)));
    const __m128i ka = _mm_xor_si128(gf_double(a[g]), tweak_block(tweak + 2 * g));
    const __m128i kb = _mm_xor_si128(gf_double(b[g]), tweak_block(tweak + 2 * g + 1));
    key[4 * g] = ka;
    key[4 * g + 1] = _mm_xor_si128(ka, dr);
    key[4 * g + 2] = kb;
    key[4 * g + 3] = _mm_xor_si128(kb, dr);
  }
  for (int j = 0; j < 4 * G; ++j) h[j] = key[j];
  encrypt_states(rk, h);
  for (int g = 0; g < G; ++g) {
    const __m128i ha0 = _mm_xor_si128(h[4 * g], key[4 * g]);
    const __m128i ha1 = _mm_xor_si128(h[4 * g + 1], key[4 * g + 1]);
    const __m128i hb0 = _mm_xor_si128(h[4 * g + 2], key[4 * g + 2]);
    const __m128i hb1 = _mm_xor_si128(h[4 * g + 3], key[4 * g + 3]);
    const __m128i pa = lsb_mask(a[g]);
    const __m128i pb = lsb_mask(b[g]);
    const __m128i tg = _mm_xor_si128(_mm_xor_si128(ha0, ha1), _mm_and_si128(r, pb));
    const __m128i wg = _mm_xor_si128(ha0, _mm_and_si128(tg, pa));
    const __m128i hb = _mm_xor_si128(hb0, hb1);
    const __m128i we = _mm_xor_si128(hb0, _mm_and_si128(hb, pb));
    const __m128i gamma = _mm_and_si128(r, bit_mask(jobs[g].polarity >> 2));
    store_block(rows + 2 * g, tg);
    store_block(rows + 2 * g + 1, _mm_xor_si128(hb, a[g]));
    store_block(labels + jobs[g].out, _mm_xor_si128(_mm_xor_si128(wg, we), gamma));
  }
}

/// Evaluates G independent half-gates: 2G hashes in flight.
template <int G>
inline void eval_group(const __m128i rk[11], Block* labels, const HalfGateJob* jobs,
                       std::uint64_t tweak, const Block* rows) {
  __m128i a[G];
  __m128i b[G];
  __m128i key[2 * G];
  __m128i h[2 * G];
  for (int g = 0; g < G; ++g) {
    a[g] = load_block(labels + jobs[g].a);
    b[g] = load_block(labels + jobs[g].b);
    key[2 * g] = _mm_xor_si128(gf_double(a[g]), tweak_block(tweak + 2 * g));
    key[2 * g + 1] = _mm_xor_si128(gf_double(b[g]), tweak_block(tweak + 2 * g + 1));
  }
  for (int j = 0; j < 2 * G; ++j) h[j] = key[j];
  encrypt_states(rk, h);
  for (int g = 0; g < G; ++g) {
    const __m128i tg = load_block(rows + 2 * g);
    const __m128i te = load_block(rows + 2 * g + 1);
    const __m128i wg = _mm_xor_si128(_mm_xor_si128(h[2 * g], key[2 * g]),
                                     _mm_and_si128(tg, lsb_mask(a[g])));
    const __m128i we = _mm_xor_si128(_mm_xor_si128(h[2 * g + 1], key[2 * g + 1]),
                                     _mm_and_si128(_mm_xor_si128(te, a[g]), lsb_mask(b[g])));
    store_block(labels + jobs[g].out, _mm_xor_si128(wg, we));
  }
}

}  // namespace

bool aesni_compiled_in() { return true; }

void aesni_encrypt_batch(const std::uint8_t* round_key_bytes, Block* io, std::size_t n) {
  __m128i rk[11];
  load_round_keys(round_key_bytes, rk);

  // AESENC has multi-cycle latency but single-cycle throughput on every
  // AES-NI core, so keeping 8 independent blocks in flight hides the latency
  // entirely; the fixed-bound inner loops fully unroll at -O2.
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i s[8];
    for (int j = 0; j < 8; ++j) s[j] = load_block(io + i + j);
    encrypt_states(rk, s);
    for (int j = 0; j < 8; ++j) store_block(io + i + j, s[j]);
  }
  if (i + 4 <= n) {
    __m128i s[4];
    for (int j = 0; j < 4; ++j) s[j] = load_block(io + i + j);
    encrypt_states(rk, s);
    for (int j = 0; j < 4; ++j) store_block(io + i + j, s[j]);
    i += 4;
  }
  for (; i < n; ++i) {
    __m128i s[1] = {load_block(io + i)};
    encrypt_states(rk, s);
    store_block(io + i, s[0]);
  }
}

void aesni_garble_half_gates(const std::uint8_t* round_key_bytes, Block r, Block* labels,
                             const HalfGateJob* jobs, std::size_t n, std::uint64_t tweak,
                             Block* rows) {
  __m128i rk[11];
  load_round_keys(round_key_bytes, rk);
  const __m128i rv = load_block(&r);
  const __m128i dr = gf_double(rv);
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    garble_group<2>(rk, rv, dr, labels, jobs + k, tweak + 2 * k, rows + 2 * k);
  }
  if (k < n) garble_group<1>(rk, rv, dr, labels, jobs + k, tweak + 2 * k, rows + 2 * k);
}

void aesni_eval_half_gates(const std::uint8_t* round_key_bytes, Block* labels,
                           const HalfGateJob* jobs, std::size_t n, std::uint64_t tweak,
                           const Block* rows) {
  __m128i rk[11];
  load_round_keys(round_key_bytes, rk);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) eval_group<4>(rk, labels, jobs + k, tweak + 2 * k, rows + 2 * k);
  if (k + 2 <= n) {
    eval_group<2>(rk, labels, jobs + k, tweak + 2 * k, rows + 2 * k);
    k += 2;
  }
  if (k < n) eval_group<1>(rk, labels, jobs + k, tweak + 2 * k, rows + 2 * k);
}

}  // namespace arm2gc::crypto::detail

#else  // ARM2GC_NO_AESNI

namespace arm2gc::crypto::detail {

bool aesni_compiled_in() { return false; }

void aesni_encrypt_batch(const std::uint8_t*, Block*, std::size_t) {}

void aesni_garble_half_gates(const std::uint8_t*, Block, Block*, const HalfGateJob*, std::size_t,
                             std::uint64_t, Block*) {}

void aesni_eval_half_gates(const std::uint8_t*, Block*, const HalfGateJob*, std::size_t,
                           std::uint64_t, const Block*) {}

}  // namespace arm2gc::crypto::detail

#endif  // ARM2GC_NO_AESNI
