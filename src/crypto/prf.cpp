#include "crypto/prf.h"

#include "crypto/aesni_impl.h"

namespace arm2gc::crypto {

namespace {
// Fixed public permutation key; any constant works (it is public by design).
constexpr Block kFixedKey{0x1032547698badcfeULL, 0xefcdab8967452301ULL};

Block maybe(Block b, bool take) { return take ? b : Block{}; }
}  // namespace

PiHash::PiHash() : pi_(kFixedKey) {}

PiHash::PiHash(Aes128::Backend backend) : pi_(kFixedKey, backend) {}

Block PiHash::operator()(Block label, std::uint64_t tweak) const {
  const Block k = label.gf_double() ^ block_from_u64(tweak);
  return pi_.encrypt(k) ^ k;
}

void PiHash::hash2(const Block in[2], const std::uint64_t tweak[2], Block out[2]) const {
  Block k[2];
  Block c[2];
  for (int i = 0; i < 2; ++i) c[i] = k[i] = in[i].gf_double() ^ block_from_u64(tweak[i]);
  pi_.encrypt_batch(c, 2);
  for (int i = 0; i < 2; ++i) out[i] = c[i] ^ k[i];
}

void PiHash::hash4(const Block in[4], const std::uint64_t tweak[4], Block out[4]) const {
  Block k[4];
  Block c[4];
  for (int i = 0; i < 4; ++i) c[i] = k[i] = in[i].gf_double() ^ block_from_u64(tweak[i]);
  pi_.encrypt_batch(c, 4);
  for (int i = 0; i < 4; ++i) out[i] = c[i] ^ k[i];
}

// The Block paths below are the reference the AES-NI kernels in aesni.cpp
// must match bit for bit (tests/crypto_test.cpp checks both backends).
void PiHash::garble_half_gates(Block r, Block* labels, const HalfGateJob* jobs, std::size_t n,
                               std::uint64_t tweak, Block* rows) const {
  if (pi_.uses_aesni()) {
    detail::aesni_garble_half_gates(pi_.round_key_bytes_.data(), r, labels, jobs, n, tweak, rows);
    return;
  }
  const Block dr = r.gf_double();  // doubling is linear: 2(x ^ r) = 2x ^ 2r
  for (std::size_t k = 0; k < n; ++k, tweak += 2, rows += 2) {
    const HalfGateJob& job = jobs[k];
    // Fold the polarities into the false labels; garble a plain AND.
    const Block a = labels[job.a] ^ maybe(r, (job.polarity & 1u) != 0);
    const Block b = labels[job.b] ^ maybe(r, (job.polarity & 2u) != 0);
    const Block ka = a.gf_double() ^ block_from_u64(tweak);
    const Block kb = b.gf_double() ^ block_from_u64(tweak + 1);
    const Block key[4] = {ka, ka ^ dr, kb, kb ^ dr};
    Block h[4] = {key[0], key[1], key[2], key[3]};
    pi_.encrypt_batch(h, 4);
    for (int i = 0; i < 4; ++i) h[i] ^= key[i];
    // Generator half (a's hashes) and evaluator half (b's hashes).
    const Block tg = h[0] ^ h[1] ^ maybe(r, b.lsb());
    const Block wg = h[0] ^ maybe(tg, a.lsb());
    const Block hb = h[2] ^ h[3];
    const Block we = h[2] ^ maybe(hb, b.lsb());
    rows[0] = tg;
    rows[1] = hb ^ a;
    labels[job.out] = wg ^ we ^ maybe(r, (job.polarity & 4u) != 0);
  }
}

void PiHash::eval_half_gates(Block* labels, const HalfGateJob* jobs, std::size_t n,
                             std::uint64_t tweak, const Block* rows) const {
  if (pi_.uses_aesni()) {
    detail::aesni_eval_half_gates(pi_.round_key_bytes_.data(), labels, jobs, n, tweak, rows);
    return;
  }
  for (std::size_t k = 0; k < n; ++k, tweak += 2, rows += 2) {
    const HalfGateJob& job = jobs[k];
    const Block a = labels[job.a];
    const Block b = labels[job.b];
    const Block key[2] = {a.gf_double() ^ block_from_u64(tweak),
                          b.gf_double() ^ block_from_u64(tweak + 1)};
    Block h[2] = {key[0], key[1]};
    pi_.encrypt_batch(h, 2);
    const Block wg = h[0] ^ key[0] ^ maybe(rows[0], a.lsb());
    const Block we = h[1] ^ key[1] ^ maybe(rows[1] ^ a, b.lsb());
    labels[job.out] = wg ^ we;
  }
}

}  // namespace arm2gc::crypto
