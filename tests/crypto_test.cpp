#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/block.h"
#include "crypto/prf.h"
#include "crypto/rng.h"

namespace {

using arm2gc::crypto::Aes128;
using arm2gc::crypto::Block;
using arm2gc::crypto::block_from_u64;
using arm2gc::crypto::CtrRng;
using arm2gc::crypto::GarbleHash;

Block block_from_hex_bytes(const std::uint8_t (&bytes)[16]) { return Block::from_bytes(bytes); }

TEST(Block, XorAndEquality) {
  const Block a{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  const Block b{0x1111111111111111ULL, 0x2222222222222222ULL};
  const Block c = a ^ b;
  EXPECT_EQ(c ^ b, a);
  EXPECT_EQ(c ^ a, b);
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(Block{}.is_zero());
  EXPECT_FALSE(a.is_zero());
}

TEST(Block, LsbIsBitZero) {
  EXPECT_FALSE((Block{0, 0}).lsb());
  EXPECT_TRUE((Block{1, 0}).lsb());
  EXPECT_FALSE((Block{2, 0}).lsb());
  EXPECT_TRUE((Block{3, 0}).lsb());
}

TEST(Block, GfDoubleReduction) {
  // Doubling the top bit wraps to the reduction polynomial 0x87.
  const Block top{0, 0x8000000000000000ULL};
  EXPECT_EQ(top.gf_double(), (Block{0x87, 0}));
  // Doubling without the top bit set is a plain shift.
  const Block one{1, 0};
  EXPECT_EQ(one.gf_double(), (Block{2, 0}));
  const Block carry{0x8000000000000000ULL, 0};
  EXPECT_EQ(carry.gf_double(), (Block{0, 1}));
}

TEST(Block, BytesRoundTrip) {
  const Block a{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  std::uint8_t bytes[16];
  a.to_bytes(bytes);
  EXPECT_EQ(Block::from_bytes(bytes), a);
}

TEST(Block, HexFormatsMsbFirst) {
  const Block a{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(a.hex(), "fedcba98765432100123456789abcdef");
}

TEST(Aes128, Fips197Vector) {
  // FIPS-197 Appendix C.1.
  const std::uint8_t key_bytes[16] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                                      0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  const std::uint8_t pt_bytes[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                                     0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  const std::uint8_t ct_bytes[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                                     0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  const Aes128 aes(block_from_hex_bytes(key_bytes));
  EXPECT_EQ(aes.encrypt(block_from_hex_bytes(pt_bytes)), block_from_hex_bytes(ct_bytes));
}

TEST(Aes128, DistinctPlaintextsDistinctCiphertexts) {
  const Aes128 aes(block_from_u64(42));
  EXPECT_FALSE(aes.encrypt(block_from_u64(0)) == aes.encrypt(block_from_u64(1)));
}

// --- AES backend cross-checks (portable vs AES-NI, scalar vs batched) --------

TEST(Aes128, Fips197VectorOnEveryBackend) {
  // FIPS-197 Appendix C.1, asserted against each backend explicitly so a
  // broken AES-NI path cannot hide behind runtime dispatch.
  const std::uint8_t key_bytes[16] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                                      0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  const std::uint8_t pt_bytes[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                                     0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  const std::uint8_t ct_bytes[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                                     0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  const Block key = Block::from_bytes(key_bytes);
  const Block pt = Block::from_bytes(pt_bytes);
  const Block ct = Block::from_bytes(ct_bytes);

  const Aes128 portable(key, Aes128::Backend::Portable);
  EXPECT_FALSE(portable.uses_aesni());
  EXPECT_EQ(portable.encrypt(pt), ct);

  const Aes128 ni(key, Aes128::Backend::AesNi);
  EXPECT_EQ(ni.uses_aesni(), Aes128::aesni_available());
  EXPECT_EQ(ni.encrypt(pt), ct);

  const Aes128 dispatched(key);  // Backend::Auto
  EXPECT_EQ(dispatched.uses_aesni(), Aes128::aesni_available());
  EXPECT_EQ(dispatched.encrypt(pt), ct);
}

TEST(Aes128, AesNiMatchesPortableRandomized) {
  CtrRng rng(block_from_u64(0xbacc));
  for (int k = 0; k < 32; ++k) {
    const Block key = rng.next_block();
    const Aes128 portable(key, Aes128::Backend::Portable);
    const Aes128 ni(key, Aes128::Backend::AesNi);
    for (int i = 0; i < 16; ++i) {
      const Block pt = rng.next_block();
      EXPECT_EQ(ni.encrypt(pt), portable.encrypt(pt));
    }
  }
}

TEST(Aes128, BatchMatchesScalarAtEveryWidth) {
  // Widths straddle the 8-wide and 4-wide pipeline groups plus the tail loop.
  CtrRng rng(block_from_u64(0xb47c8));
  const Block key = rng.next_block();
  for (const Aes128::Backend backend : {Aes128::Backend::Portable, Aes128::Backend::AesNi}) {
    const Aes128 aes(key, backend);
    for (std::size_t n = 0; n <= 21; ++n) {
      std::vector<Block> batch(n);
      std::vector<Block> expect(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch[i] = rng.next_block();
        expect[i] = aes.encrypt(batch[i]);
      }
      aes.encrypt_batch(batch.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(batch[i], expect[i]) << "backend=" << static_cast<int>(backend)
                                       << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(PiHash, BatchedHashesMatchScalarForAllTweaks) {
  using arm2gc::crypto::PiHash;
  CtrRng rng(block_from_u64(0x9a5b));
  // Edge tweaks plus random ones; every pair/quad mixes them.
  const std::uint64_t tweaks[] = {0,
                                  1,
                                  2,
                                  0xffffffffffffffffULL,
                                  0x8000000000000000ULL,
                                  rng.next_u64(),
                                  rng.next_u64(),
                                  rng.next_u64()};
  for (const auto backend : {Aes128::Backend::Portable, Aes128::Backend::AesNi}) {
    const PiHash h(backend);
    for (int iter = 0; iter < 64; ++iter) {
      Block in4[4];
      std::uint64_t tw4[4];
      for (int i = 0; i < 4; ++i) {
        in4[i] = rng.next_block();
        tw4[i] = tweaks[rng.next_below(8)];
      }
      Block out4[4];
      h.hash4(in4, tw4, out4);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(out4[i], h(in4[i], tw4[i]));

      Block out2[2];
      h.hash2(in4, tw4, out2);
      EXPECT_EQ(out2[0], h(in4[0], tw4[0]));
      EXPECT_EQ(out2[1], h(in4[1], tw4[1]));

      // In-place batched hashing (out aliases in) must also match.
      Block alias[4] = {in4[0], in4[1], in4[2], in4[3]};
      h.hash4(alias, tw4, alias);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(alias[i], out4[i]);
    }
  }
}

TEST(PiHash, BackendsProduceIdenticalHashes) {
  using arm2gc::crypto::PiHash;
  const PiHash portable(Aes128::Backend::Portable);
  const PiHash ni(Aes128::Backend::AesNi);
  CtrRng rng(block_from_u64(0x715a));
  for (int i = 0; i < 256; ++i) {
    const Block x = rng.next_block();
    const std::uint64_t t = rng.next_u64();
    EXPECT_EQ(portable(x, t), ni(x, t));
  }
}

/// Textbook half-gates over scalar pi-hash calls: the independent
/// reference the fused kernels are checked against.
struct HalfGateRef {
  Block tg, te, out;
};
HalfGateRef garble_ref(const arm2gc::crypto::PiHash& h, Block r, Block a0, Block b0,
                       std::uint32_t pol, std::uint64_t j0) {
  const Block zero{};
  const Block a = a0 ^ ((pol & 1u) != 0 ? r : zero);
  const Block b = b0 ^ ((pol & 2u) != 0 ? r : zero);
  const Block ha0 = h(a, j0);
  const Block hb0 = h(b, j0 + 1);
  HalfGateRef g;
  g.tg = ha0 ^ h(a ^ r, j0) ^ (b.lsb() ? r : zero);
  g.te = hb0 ^ h(b ^ r, j0 + 1) ^ a;
  const Block wg = ha0 ^ (a.lsb() ? g.tg : zero);
  const Block we = hb0 ^ (b.lsb() ? g.te ^ a : zero);
  g.out = wg ^ we ^ ((pol & 4u) != 0 ? r : zero);
  return g;
}

/// The fused half-gates kernels, at every width across the 2-gate garble
/// and 4-gate eval groups and their tails, on both backends: each batch
/// equals the textbook reference gate by gate and equals the same gates
/// run one at a time, for all 8 polarity combinations, with random labels
/// (scattered over the label array) and random tweaks.
TEST(PiHash, FusedHalfGatesMatchPerGateAtEveryWidth) {
  using arm2gc::crypto::HalfGateJob;
  using arm2gc::crypto::PiHash;
  CtrRng rng(block_from_u64(0xf05ed));
  for (const auto backend : {Aes128::Backend::Portable, Aes128::Backend::AesNi}) {
    const PiHash h(backend);
    for (std::size_t n = 1; n <= 16; ++n) {
      for (int iter = 0; iter < 4; ++iter) {
        Block r = rng.next_block();
        r.lo |= 1u;
        // Wires: inputs at 3k, 3k+1 and outputs at 3k+2 of a shuffled
        // layout, so jobs read and write non-adjacent labels.
        std::vector<Block> labels(3 * n + 1);
        for (Block& l : labels) l = rng.next_block();
        std::vector<HalfGateJob> jobs(n);
        for (std::size_t k = 0; k < n; ++k) {
          const auto base = static_cast<std::uint32_t>(3 * (n - 1 - k));
          const auto pol = static_cast<std::uint32_t>((k + static_cast<std::size_t>(iter)) % 8);
          jobs[k] = HalfGateJob{base + 1, base, base + 2, pol};
        }
        const std::uint64_t tweak = iter == 0 ? ~std::uint64_t{0} - 5 : rng.next_u64();

        std::vector<Block> g_labels = labels;
        std::vector<Block> rows(2 * n);
        h.garble_half_gates(r, g_labels.data(), jobs.data(), n, tweak, rows.data());
        std::vector<Block> one_labels = labels;
        std::vector<Block> one_rows(2 * n);
        for (std::size_t k = 0; k < n; ++k) {
          h.garble_half_gates(r, one_labels.data(), &jobs[k], 1, tweak + 2 * k,
                              one_rows.data() + 2 * k);
        }
        EXPECT_EQ(g_labels, one_labels) << "n=" << n;
        EXPECT_EQ(rows, one_rows) << "n=" << n;
        for (std::size_t k = 0; k < n; ++k) {
          const HalfGateJob& job = jobs[k];
          const HalfGateRef ref =
              garble_ref(h, r, labels[job.a], labels[job.b], job.polarity, tweak + 2 * k);
          EXPECT_EQ(rows[2 * k], ref.tg) << "n=" << n << " k=" << k;
          EXPECT_EQ(rows[2 * k + 1], ref.te) << "n=" << n << " k=" << k;
          EXPECT_EQ(g_labels[job.out], ref.out) << "n=" << n << " k=" << k;
        }

        // Evaluate on random active labels: batched == one at a time ==
        // the reference, and the garbled semantics hold (AND core).
        std::vector<Block> active = g_labels;
        std::vector<std::uint8_t> va(n);
        std::vector<std::uint8_t> vb(n);
        for (std::size_t k = 0; k < n; ++k) {
          va[k] = static_cast<std::uint8_t>(rng.next_below(2));
          vb[k] = static_cast<std::uint8_t>(rng.next_below(2));
          if (va[k] != 0) active[jobs[k].a] ^= r;
          if (vb[k] != 0) active[jobs[k].b] ^= r;
        }
        std::vector<Block> e_labels = active;
        h.eval_half_gates(e_labels.data(), jobs.data(), n, tweak, rows.data());
        std::vector<Block> e_one = active;
        for (std::size_t k = 0; k < n; ++k) {
          h.eval_half_gates(e_one.data(), &jobs[k], 1, tweak + 2 * k, rows.data() + 2 * k);
        }
        EXPECT_EQ(e_labels, e_one) << "n=" << n;
        for (std::size_t k = 0; k < n; ++k) {
          const HalfGateJob& job = jobs[k];
          const Block a = active[job.a];
          const Block b = active[job.b];
          const Block zero{};
          const Block ref = h(a, tweak + 2 * k) ^ (a.lsb() ? rows[2 * k] : zero) ^
                            h(b, tweak + 2 * k + 1) ^ (b.lsb() ? rows[2 * k + 1] ^ a : zero);
          EXPECT_EQ(e_labels[job.out], ref) << "n=" << n << " k=" << k;
          const bool alpha = (job.polarity & 1u) != 0;
          const bool beta = (job.polarity & 2u) != 0;
          const bool gamma = (job.polarity & 4u) != 0;
          const bool v = gamma != ((va[k] != alpha) && (vb[k] != beta));
          EXPECT_EQ(e_labels[job.out], v ? g_labels[job.out] ^ r : g_labels[job.out])
              << "n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(GarbleHash, DeterministicAndTweakSensitive) {
  const GarbleHash h1;
  const GarbleHash h2;
  const Block x{0xdeadbeef, 0xcafebabe};
  EXPECT_EQ(h1(x, 7), h2(x, 7));
  EXPECT_FALSE(h1(x, 7) == h1(x, 8));
  EXPECT_FALSE(h1(x, 7) == h1(x ^ Block{1, 0}, 7));
}

TEST(CtrRng, DeterministicPerSeed) {
  CtrRng a(block_from_u64(1));
  CtrRng b(block_from_u64(1));
  CtrRng c(block_from_u64(2));
  const Block x = a.next_block();
  EXPECT_EQ(x, b.next_block());
  EXPECT_FALSE(x == c.next_block());
  EXPECT_FALSE(a.next_block() == x);  // counter advances
}

TEST(CtrRng, NextBelowInRange) {
  CtrRng rng(block_from_u64(3));
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

}  // namespace
