#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/block.h"
#include "crypto/rng.h"
#include "gc/garble.h"
#include "gc/golden_digest.h"
#include "gc/otext.h"
#include "gc/transport.h"
#include "netlist/gate.h"

namespace {

using arm2gc::crypto::Block;
using arm2gc::crypto::block_from_u64;
using namespace arm2gc::gc;
using arm2gc::netlist::tt_and_core;
using arm2gc::netlist::tt_eval;
using arm2gc::netlist::tt_is_affine;
using arm2gc::netlist::TruthTable;

TEST(Garbler, PointAndPermuteOffset) {
  const Garbler g(block_from_u64(7));
  EXPECT_TRUE(g.R().lsb());
  EXPECT_FALSE(g.R().is_zero());
}

struct SchemeCase {
  Scheme scheme;
  int tt;
};

class GarbleAllGates : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GarbleAllGates, GarbleEvalMatchesTruthTable) {
  const Scheme scheme = static_cast<Scheme>(std::get<0>(GetParam()));
  const auto tt = static_cast<TruthTable>(std::get<1>(GetParam()));
  if (tt_is_affine(tt)) return;  // affine gates are free, never garbled

  Garbler garbler(block_from_u64(99), scheme);
  Evaluator evaluator(scheme);
  const Block r = garbler.R();
  const Block a0 = garbler.fresh_label();
  const Block b0 = garbler.fresh_label();

  GarbledTable table;
  const Block w0 = garbler.garble(a0, b0, tt_and_core(tt), table);
  EXPECT_EQ(table.count, blocks_per_gate(scheme));

  for (const bool va : {false, true}) {
    for (const bool vb : {false, true}) {
      Evaluator ev(scheme);  // fresh tweak sequence per evaluation
      const Block wa = va ? (a0 ^ r) : a0;
      const Block wb = vb ? (b0 ^ r) : b0;
      const Block w = ev.eval(wa, wb, table);
      const bool expect = tt_eval(tt, va, vb);
      EXPECT_EQ(w, expect ? (w0 ^ r) : w0)
          << "tt=" << static_cast<int>(tt) << " va=" << va << " vb=" << vb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemesAllGates, GarbleAllGates,
                         ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Range(0, 16)));

TEST(Garble, ChainedGatesStayConsistent) {
  // Garble a small DAG: d = (a & b) ^ c ; e = d | a  (the XOR is free).
  Garbler g(block_from_u64(5));
  Evaluator ev;
  const Block r = g.R();
  const Block a0 = g.fresh_label();
  const Block b0 = g.fresh_label();
  const Block c0 = g.fresh_label();

  GarbledTable t1;
  const Block and0 = g.garble(a0, b0, tt_and_core(arm2gc::netlist::kTtAnd), t1);
  const Block d0 = and0 ^ c0;  // free-XOR
  GarbledTable t2;
  const Block e0 = g.garble(d0, a0, tt_and_core(arm2gc::netlist::kTtOr), t2);

  for (int bits = 0; bits < 8; ++bits) {
    const bool va = bits & 1;
    const bool vb = bits & 2;
    const bool vc = bits & 4;
    Evaluator e;
    const Block wa = va ? a0 ^ r : a0;
    const Block wb = vb ? b0 ^ r : b0;
    const Block wc = vc ? c0 ^ r : c0;
    const Block wand = e.eval(wa, wb, t1);
    const Block wd = wand ^ wc;
    const Block we = e.eval(wd, wa, t2);
    const bool expect = ((va && vb) != vc) || va;
    EXPECT_EQ(we, expect ? e0 ^ r : e0) << bits;
  }
}

TEST(Transport, AccountsTrafficClassesBothDirections) {
  InMemoryDuplex duplex;
  Transport& alice = duplex.garbler_end();
  Transport& bob = duplex.evaluator_end();
  alice.send(block_from_u64(1), Traffic::GarbledTable);
  alice.send(block_from_u64(2), Traffic::GarbledTable);
  alice.send(block_from_u64(3), Traffic::InputLabel);
  alice.account(Traffic::Ot, 16);
  bob.send(block_from_u64(4), Traffic::OutputDecode);
  EXPECT_EQ(duplex.stats().garbled_table_bytes, 32u);
  EXPECT_EQ(duplex.stats().input_label_bytes, 16u);
  EXPECT_EQ(duplex.stats().ot_bytes, 16u);
  EXPECT_EQ(duplex.stats().output_bytes, 16u);
  EXPECT_EQ(duplex.stats().total(), 80u);
  EXPECT_EQ(bob.recv(), block_from_u64(1));
  EXPECT_EQ(bob.recv(), block_from_u64(2));
  EXPECT_EQ(bob.recv(), block_from_u64(3));
  EXPECT_EQ(alice.recv(), block_from_u64(4));
  EXPECT_THROW(bob.recv(), std::runtime_error);
  EXPECT_THROW(alice.recv(), std::runtime_error);
}

TEST(Ot, IdealBackendDeliversChosenLabelsAndAccountsFramedBytes) {
  InMemoryDuplex duplex;
  const Block seed = block_from_u64(123);
  auto sender = make_ot_sender(OtBackend::Ideal, duplex.garbler_end(), seed, nullptr);
  auto receiver = make_ot_receiver(OtBackend::Ideal, duplex.evaluator_end(), seed, nullptr);
  const Block x0 = block_from_u64(10);
  const Block x1 = block_from_u64(11);
  Block got0{}, got1{};
  receiver->enqueue(false, &got0);
  receiver->enqueue(true, &got1);
  receiver->request();
  sender->enqueue(x0, x1);
  sender->enqueue(x0, x1);
  sender->flush();
  receiver->finish();
  EXPECT_EQ(got0, x0);
  EXPECT_EQ(got1, x1);
  // The ideal stand-in ships the pair: exactly 32 framed bytes per choice
  // (the constant the accounting used to assume, now an actual frame size).
  EXPECT_EQ(duplex.stats().ot_bytes, 2u * 32u);
  EXPECT_EQ(sender->stats().choices, 2u);
  EXPECT_EQ(receiver->stats().batches, 1u);
}

// Pins the exact garbled-table bytes produced by the pre-AES-NI seed
// implementation (captured with tools/golden_capture.cpp at the portable,
// one-hash-at-a-time revision). Any backend or batching change that alters a
// single ciphertext bit fails here, on every machine and either AES backend.
// The digest computation is shared with the capture tool (gc/golden_digest.h).
TEST(Garble, GoldenTableDigestsStableAcrossBackends) {
  struct GoldenCase {
    Scheme scheme;
    const char* digest;
  };
  const GoldenCase cases[] = {
      {Scheme::HalfGates, "9dbcdbc3bf700c2b83007da5d07655ad"},
      {Scheme::Grr3, "7b828da9d4a0bbcea0995baf5f340f31"},
      {Scheme::Classic4, "1f0ef1f72151a3fd21be9e71edf3597e"},
  };
  for (const GoldenCase& c : cases) {
    EXPECT_EQ(golden_table_digest(c.scheme), c.digest)
        << "scheme=" << static_cast<int>(c.scheme);
  }
}

/// The session slice loop's batched path against the per-gate API: a batch
/// of n independent gates through Garbler::garble_half_gates /
/// Evaluator::eval_half_gates equals n garble_at / eval_at calls at the same
/// tweaks, for every width up to kGateBatch and all 8 polarity combinations
/// (runtime-dispatched backend; crypto_test covers both backends).
TEST(Garble, BatchedHalfGatesMatchGarbleAtAtEveryWidth) {
  Garbler g(block_from_u64(0xba7c4));
  const Evaluator ev;
  const Block r = g.R();
  arm2gc::crypto::CtrRng rng(block_from_u64(0x5eed));
  for (std::size_t n = 1; n <= kGateBatch; ++n) {
    for (std::uint32_t pol0 = 0; pol0 < 8; ++pol0) {
      std::vector<Block> labels(3 * n);
      for (Block& l : labels) l = rng.next_block();
      std::vector<arm2gc::crypto::HalfGateJob> jobs(n);
      for (std::size_t k = 0; k < n; ++k) {
        const auto w = static_cast<std::uint32_t>(3 * k);
        jobs[k] = {w, w + 1, w + 2, static_cast<std::uint32_t>((pol0 + k) % 8)};
      }
      const std::uint64_t tweak = rng.next_u64();
      std::vector<Block> out = labels;
      std::vector<Block> rows(2 * n);
      g.garble_half_gates(out.data(), jobs.data(), n, tweak, rows.data());

      std::vector<Block> active = out;
      for (std::size_t k = 0; k < n; ++k) {
        const auto& job = jobs[k];
        const arm2gc::netlist::AndCore core{(job.polarity & 1u) != 0, (job.polarity & 2u) != 0,
                                            (job.polarity & 4u) != 0};
        EXPECT_EQ(polarity_bits(core), job.polarity);
        GarbledTable t;
        const Block w0 = g.garble_at(labels[job.a], labels[job.b], core, tweak + 2 * k, Block{}, t);
        ASSERT_EQ(t.count, 2);
        EXPECT_EQ(out[job.out], w0) << "n=" << n << " k=" << k;
        EXPECT_EQ(rows[2 * k], t.rows[0]) << "n=" << n << " k=" << k;
        EXPECT_EQ(rows[2 * k + 1], t.rows[1]) << "n=" << n << " k=" << k;
        if (rng.next_below(2) != 0) active[job.a] ^= r;
        if (rng.next_below(2) != 0) active[job.b] ^= r;
      }
      std::vector<Block> evald = active;
      ev.eval_half_gates(evald.data(), jobs.data(), n, tweak, rows.data());
      for (std::size_t k = 0; k < n; ++k) {
        const auto& job = jobs[k];
        GarbledTable t;
        t.rows[0] = rows[2 * k];
        t.rows[1] = rows[2 * k + 1];
        t.count = 2;
        EXPECT_EQ(evald[job.out], ev.eval_at(active[job.a], active[job.b], t, tweak + 2 * k))
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Garble, DistinctSeedsDistinctLabels) {
  Garbler g1(block_from_u64(1));
  Garbler g2(block_from_u64(2));
  EXPECT_FALSE(g1.R() == g2.R());
  EXPECT_FALSE(g1.fresh_label() == g2.fresh_label());
}

}  // namespace
