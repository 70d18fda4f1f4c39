// Differential OT harness: the IKNP extension backend must be a perfect
// drop-in for the ideal-functionality stand-in. Pinned here:
//   - the 128xN bit transpose (SSE vs portable vs naive, ragged N included);
//   - endpoint-level correctness: received labels equal x0 ^ b*R for every
//     index, over both the lock-step in-memory duplex and a two-thread
//     socket pair, across multiple batches of one warm state pair;
//   - full-driver equivalence: SkipGate + Conventional runs produce
//     bit-identical results and golden garbled-table digests under either
//     backend (fuzzed circuits; A2G_OT_FUZZ_ITERS deepens the sweep in CI);
//   - CommStats OT bytes equal the transport's actual framed byte count
//     (the PR-3-era constant-accounting assumption, now a regression);
//   - transcript privacy: the sender's received transcript is independent
//     of the receiver's choices up to the one-time-pad structure;
//   - a mismatched base-OT pairing is detected, not silently wrong.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "arm/arm2gc.h"
#include "arm/assembler.h"
#include "builder/circuit_builder.h"
#include "builder/stdlib.h"
#include "core/skipgate.h"
#include "crypto/rng.h"
#include "crypto/transpose.h"
#include "gc/garble.h"
#include "gc/otext.h"
#include "gc/transport.h"
#include "test_util.h"

namespace {

using namespace arm2gc;
using crypto::Block;
using crypto::block_from_u64;
using a2gtest::to_bits;

int fuzz_iters(int dflt) {
  if (const char* env = std::getenv("A2G_OT_FUZZ_ITERS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return dflt;
}

// --- 128xN bit transpose --------------------------------------------------------

bool naive_bit(const std::vector<std::uint8_t>& rows, std::size_t stride, std::size_t r,
               std::size_t c) {
  return (rows[r * stride + c / 8] >> (c % 8)) & 1u;
}

TEST(Transpose, SseAndPortableMatchNaiveOnRaggedWidths) {
  crypto::CtrRng rng(block_from_u64(808));
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{8}, std::size_t{13},
                              std::size_t{64}, std::size_t{100}, std::size_t{128},
                              std::size_t{129}, std::size_t{257}, std::size_t{1000}}) {
    const std::size_t stride = (n + 7) / 8;
    std::vector<std::uint8_t> rows(128 * stride);
    for (auto& b : rows) b = static_cast<std::uint8_t>(rng.next_u64());

    std::vector<Block> fast(n), portable(n);
    crypto::transpose_128xn(rows.data(), stride, n, fast.data());
    crypto::transpose_128xn_portable(rows.data(), stride, n, portable.data());
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_TRUE(fast[c] == portable[c]) << "n=" << n << " col=" << c;
      for (std::size_t r = 0; r < 128; ++r) {
        const bool bit = r < 64 ? ((fast[c].lo >> r) & 1u) != 0
                                : ((fast[c].hi >> (r - 64)) & 1u) != 0;
        ASSERT_EQ(bit, naive_bit(rows, stride, r, c)) << "n=" << n << " r=" << r << " c=" << c;
      }
    }
  }
}

TEST(Transpose, RoundTripThroughDoubleTranspose) {
  // Transposing 128x128 twice must be the identity.
  crypto::CtrRng rng(block_from_u64(909));
  std::vector<std::uint8_t> rows(128 * 16);
  for (auto& b : rows) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<Block> once(128), twice(128);
  crypto::transpose_128xn(rows.data(), 16, 128, once.data());
  std::vector<std::uint8_t> once_bytes(128 * 16);
  for (std::size_t i = 0; i < 128; ++i) once[i].to_bytes(once_bytes.data() + 16 * i);
  crypto::transpose_128xn(once_bytes.data(), 16, 128, twice.data());
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_TRUE(twice[i] == Block::from_bytes(rows.data() + 16 * i)) << i;
  }
}

// --- endpoint-level IKNP --------------------------------------------------------

/// Runs `batches` lock-step batches of random choices through one endpoint
/// pair over an in-memory duplex and checks every delivered label.
void run_iknp_batches(const std::vector<std::size_t>& batch_sizes, std::uint64_t seed_lo) {
  gc::InMemoryDuplex duplex;
  const Block seed = block_from_u64(seed_lo);
  auto sender = gc::make_ot_sender(gc::OtBackend::Iknp, duplex.garbler_end(), seed, nullptr);
  auto receiver =
      gc::make_ot_receiver(gc::OtBackend::Iknp, duplex.evaluator_end(), seed, nullptr);

  gc::Garbler g(block_from_u64(seed_lo * 31 + 7));
  crypto::CtrRng rng(block_from_u64(seed_lo * 131 + 1));
  for (const std::size_t m : batch_sizes) {
    std::vector<Block> x0(m);
    std::vector<bool> choice(m);
    std::vector<Block> got(m);
    for (std::size_t j = 0; j < m; ++j) {
      x0[j] = g.fresh_label();
      choice[j] = rng.next_bool();
      receiver->enqueue(choice[j], &got[j]);
    }
    receiver->request();
    for (std::size_t j = 0; j < m; ++j) sender->enqueue(x0[j], x0[j] ^ g.R());
    sender->flush();
    receiver->finish();
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_TRUE(got[j] == (choice[j] ? x0[j] ^ g.R() : x0[j]))
          << "m=" << m << " j=" << j;
    }
  }
  EXPECT_EQ(sender->stats().base_ots, gc::kOtKappa);
  EXPECT_EQ(receiver->stats().base_ots, gc::kOtKappa);
  EXPECT_EQ(sender->stats().batches, batch_sizes.size());
}

TEST(OtExt, IknpDeliversChosenLabelsAcrossBatches) {
  run_iknp_batches({1}, 1);
  run_iknp_batches({7, 1, 128}, 2);
  run_iknp_batches({160, 3, 300, 8}, 3);
}

TEST(OtExt, IknpOverSocketPair) {
  a2gtest::SocketPair pair;
  const Block seed = block_from_u64(42);
  gc::Garbler g(block_from_u64(4242));
  const Block r = g.R();
  constexpr std::size_t kM = 200;
  std::vector<Block> x0(kM);
  for (auto& b : x0) b = g.fresh_label();

  std::thread sender_thread([&] {
    auto sender = gc::make_ot_sender(gc::OtBackend::Iknp, pair.garbler->end(), seed, nullptr);
    for (std::size_t j = 0; j < kM; ++j) sender->enqueue(x0[j], x0[j] ^ r);
    sender->flush();
    for (std::size_t j = 0; j < kM; ++j) sender->enqueue(x0[j] ^ r, x0[j]);
    sender->flush();
    pair.garbler->flush();  // no later recv pushes the last ciphertexts out
  });

  auto receiver =
      gc::make_ot_receiver(gc::OtBackend::Iknp, pair.evaluator->end(), seed, nullptr);
  crypto::CtrRng rng(block_from_u64(777));
  for (int batch = 0; batch < 2; ++batch) {
    std::vector<bool> choice(kM);
    std::vector<Block> got(kM);
    for (std::size_t j = 0; j < kM; ++j) {
      choice[j] = rng.next_bool();
      receiver->enqueue(choice[j], &got[j]);
    }
    receiver->request();
    receiver->finish();
    for (std::size_t j = 0; j < kM; ++j) {
      const Block lo = batch == 0 ? x0[j] : x0[j] ^ r;
      const Block hi = batch == 0 ? x0[j] ^ r : x0[j];
      EXPECT_TRUE(got[j] == (choice[j] ? hi : lo)) << "batch=" << batch << " j=" << j;
    }
  }
  sender_thread.join();
}

// --- framed-byte accounting -----------------------------------------------------

/// Exact IKNP wire cost: base phase (sid + kappa seed pairs) once, then per
/// batch one header, one check block, 8*ceil(m/8) column blocks and 2m
/// ciphertexts.
std::uint64_t iknp_bytes(const std::vector<std::size_t>& batch_sizes) {
  std::uint64_t total = 16 * (1 + 2 * gc::kOtKappa);
  for (const std::size_t m : batch_sizes) {
    total += 16 * (2 + 8 * ((m + 7) / 8) + 2 * m);
  }
  return total;
}

/// Exact Precomp wire cost for one cold endpoint pair (no maintain calls):
/// replays the deterministic emergency-refill rule — whenever a batch finds
/// fewer than m pooled OTs, both sides refill max(target, m) through the
/// inner IKNP pair (base phase folded into the first refill) — then prices
/// each online batch at one correction frame plus 2m masked pads. Returns
/// {total framed bytes, online-only bytes}.
std::pair<std::uint64_t, std::uint64_t> precomp_bytes(const std::vector<std::size_t>& batch_sizes,
                                                      std::size_t target) {
  std::uint64_t total = 0;
  std::uint64_t online = 0;
  std::size_t avail = 0;
  bool based = false;
  for (const std::size_t m : batch_sizes) {
    if (avail < m) {
      const std::size_t n = target > m ? target : m;
      if (!based) total += 16 * (1 + 2 * gc::kOtKappa);
      based = true;
      total += 16 * (2 + 8 * ((n + 7) / 8) + 2 * n);
      avail += n;
    }
    const std::size_t extra = m > 64 ? (m - 64 + 127) / 128 : 0;
    const std::uint64_t frame = 16 * (1 + extra + 2 * m);
    total += frame;
    online += frame;
    avail -= m;
  }
  return {total, online};
}

TEST(OtExt, CommStatsPrecompBytesMatchActualFramedBytes) {
  // Same regression as the IKNP pin below, for the precomputed backend: the
  // transport's framed accounting must equal the closed-form wire cost, and
  // the endpoints' online_bytes stat must carve out exactly the
  // derandomization exchanges (the refill traffic is the offline remainder).
  for (const auto& [sizes, target] :
       {std::pair<std::vector<std::size_t>, std::size_t>{{1}, 1024},
        {{5, 160}, 64},                // second batch outgrows the pool
        {{1, 1, 1}, 1},                // every batch pays an emergency refill
        {{64, 65, 200}, 32}}) {        // correction bits past the header block
    gc::InMemoryDuplex duplex;
    const Block seed = block_from_u64(99);
    auto sender = gc::make_ot_sender(gc::OtBackend::Precomp, duplex.garbler_end(), seed,
                                     nullptr, nullptr, target);
    auto receiver = gc::make_ot_receiver(gc::OtBackend::Precomp, duplex.evaluator_end(), seed,
                                         nullptr, nullptr, target);
    std::vector<Block> got;
    for (const std::size_t m : sizes) {
      got.assign(m, Block{});
      for (std::size_t j = 0; j < m; ++j) receiver->enqueue((j & 1) != 0, &got[j]);
      receiver->request();
      for (std::size_t j = 0; j < m; ++j) {
        sender->enqueue(block_from_u64(j), block_from_u64(j + 1));
      }
      sender->flush();
      receiver->finish();
    }
    const auto [total, online] = precomp_bytes(sizes, target);
    EXPECT_EQ(duplex.stats().ot_bytes, total) << "target " << target;
    EXPECT_EQ(duplex.stats().total(), duplex.stats().ot_bytes);  // OT-only exchange
    // Either side's online_bytes is the full-duplex online cost (frames one
    // way, masked pads the other), so the two counters agree exactly.
    EXPECT_EQ(sender->stats().online_bytes, online) << "target " << target;
    EXPECT_EQ(receiver->stats().online_bytes, online) << "target " << target;
  }
}

TEST(OtExt, CommStatsOtBytesMatchActualFramedBytes) {
  for (const auto& sizes : {std::vector<std::size_t>{1}, std::vector<std::size_t>{5, 160}}) {
    gc::InMemoryDuplex duplex;
    const Block seed = block_from_u64(99);
    auto sender = gc::make_ot_sender(gc::OtBackend::Iknp, duplex.garbler_end(), seed, nullptr);
    auto receiver =
        gc::make_ot_receiver(gc::OtBackend::Iknp, duplex.evaluator_end(), seed, nullptr);
    std::vector<Block> got;
    for (const std::size_t m : sizes) {
      got.assign(m, Block{});
      for (std::size_t j = 0; j < m; ++j) receiver->enqueue((j & 1) != 0, &got[j]);
      receiver->request();
      for (std::size_t j = 0; j < m; ++j) {
        sender->enqueue(block_from_u64(j), block_from_u64(j + 1));
      }
      sender->flush();
      receiver->finish();
    }
    // Every OT byte is a real framed block: the duplex's accounting (16 bytes
    // per block sent, either direction) must equal the protocol's exact wire
    // formula — nothing is priced by constant.
    EXPECT_EQ(duplex.stats().ot_bytes, iknp_bytes(sizes));
    EXPECT_EQ(duplex.stats().total(), duplex.stats().ot_bytes);  // OT-only exchange
  }
}

netlist::Netlist make_serial_adder() {
  builder::CircuitBuilder cb;
  const auto carry = cb.make_dff(netlist::Dff::Init::Zero);
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0, /*streamed=*/true);
  const builder::Wire b = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const auto fa = builder::full_adder(cb, a, b, cb.dff_out(carry));
  cb.set_dff_d(carry, fa.carry);
  cb.output(fa.sum, "sum");
  cb.set_outputs_every_cycle(true);
  return cb.take();
}

TEST(OtExt, DriverOtBytesAreTrueFramedBytes) {
  const netlist::Netlist nl = make_serial_adder();
  core::StreamProvider streams;
  streams.alice = [](std::uint64_t c) { return netlist::BitVec{(c & 1) != 0}; };
  streams.bob = [](std::uint64_t c) { return netlist::BitVec{(c & 2) != 0}; };
  core::RunOptions opts;
  opts.fixed_cycles = 8;

  const core::RunResult ideal = core::SkipGateDriver(nl, opts).run({}, {}, {}, &streams);
  // Ideal stand-in: the label pair travels — 32 bytes per choice, framed.
  EXPECT_EQ(ideal.stats.comm.ot_bytes, 32u * ideal.stats.ot_choices);
  EXPECT_EQ(ideal.stats.ot_choices, 8u);

  core::RunOptions iknp = opts;
  iknp.exec.ot_backend = gc::OtBackend::Iknp;
  const core::RunResult real = core::SkipGateDriver(nl, iknp).run({}, {}, {}, &streams);
  // One streamed Bob bit per cycle: the 8 cycles form one OT window, a
  // single m=8 batch, plus the base phase.
  EXPECT_EQ(real.stats.comm.ot_bytes, iknp_bytes({8}));
  EXPECT_EQ(real.stats.ot_batches, 1u);
  EXPECT_EQ(real.stats.ot_base_ots, gc::kOtKappa);
}

// --- full-driver differential: Ideal vs IKNP ------------------------------------

/// Everything except OT traffic must be bit-identical across backends: the
/// labels, tables and outputs cannot depend on how Bob's labels traveled.
void expect_same_protocol(const core::RunResult& x, const core::RunResult& y) {
  EXPECT_EQ(x.sampled_outputs, y.sampled_outputs);
  EXPECT_EQ(x.final_outputs, y.final_outputs);
  EXPECT_EQ(x.final_cycle, y.final_cycle);
  EXPECT_EQ(x.stats.cycles, y.stats.cycles);
  EXPECT_EQ(x.stats.garbled_non_xor, y.stats.garbled_non_xor);
  EXPECT_EQ(x.stats.skipped_non_xor, y.stats.skipped_non_xor);
  EXPECT_EQ(x.stats.non_xor_slots, y.stats.non_xor_slots);
  EXPECT_TRUE(x.stats.table_digest == y.stats.table_digest);
  EXPECT_EQ(x.stats.comm.garbled_table_bytes, y.stats.comm.garbled_table_bytes);
  EXPECT_EQ(x.stats.comm.input_label_bytes, y.stats.comm.input_label_bytes);
  EXPECT_EQ(x.stats.comm.output_bytes, y.stats.comm.output_bytes);
  EXPECT_EQ(x.stats.ot_choices, y.stats.ot_choices);
}

/// Random sequential netlist with Bob-owned fixed inputs, dff inits and
/// streamed bits, so both the reset batch and the per-cycle batches carry
/// real choices.
netlist::Netlist random_ot_netlist(crypto::CtrRng& rng) {
  netlist::Netlist nl;
  constexpr std::uint32_t kInPerParty = 3;
  for (std::uint32_t i = 0; i < kInPerParty; ++i) {
    nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, false, i, ""});
    nl.inputs.push_back(netlist::Input{netlist::Owner::Bob, false, i, ""});
    nl.inputs.push_back(netlist::Input{netlist::Owner::Public, false, i, ""});
  }
  nl.inputs.push_back(netlist::Input{netlist::Owner::Bob, true, 0, ""});
  nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, true, 0, ""});
  for (std::uint32_t i = 0; i < 3; ++i) {
    netlist::Dff d;
    switch (rng.next_below(3)) {
      case 0: d.init = netlist::Dff::Init::Zero; break;
      case 1:
        d.init = netlist::Dff::Init::AliceBit;
        d.init_index = i;
        break;
      default:
        d.init = netlist::Dff::Init::BobBit;
        d.init_index = i;
        break;
    }
    nl.dffs.push_back(d);
  }
  const int num_gates = 25 + static_cast<int>(rng.next_below(25));
  for (int g = 0; g < num_gates; ++g) {
    const auto limit = static_cast<std::uint32_t>(2 + nl.inputs.size() + nl.dffs.size() +
                                                  static_cast<std::size_t>(g));
    nl.gates.push_back(netlist::Gate{static_cast<netlist::WireId>(rng.next_below(limit)),
                                     static_cast<netlist::WireId>(rng.next_below(limit)),
                                     static_cast<netlist::TruthTable>(rng.next_below(16))});
  }
  const auto nw = static_cast<std::uint32_t>(nl.num_wires());
  for (auto& d : nl.dffs) {
    d.d = static_cast<netlist::WireId>(rng.next_below(nw));
    d.d_invert = rng.next_bool();
  }
  for (int o = 0; o < 5; ++o) {
    nl.outputs.push_back(netlist::OutputPort{static_cast<netlist::WireId>(rng.next_below(nw)),
                                             rng.next_bool(), ""});
  }
  nl.outputs_every_cycle = true;
  return nl;
}

TEST(OtExt, BackendsBitIdenticalAcrossModesAndCompositions) {
  const int iters = fuzz_iters(6);
  crypto::CtrRng rng(block_from_u64(612));
  for (int seed = 0; seed < iters; ++seed) {
    const netlist::Netlist nl = random_ot_netlist(rng);
    const netlist::BitVec a = to_bits(rng.next_u64(), 3);
    const netlist::BitVec b = to_bits(rng.next_u64(), 3);
    const netlist::BitVec p = to_bits(rng.next_u64(), 3);
    const std::uint64_t aw = rng.next_u64();
    const std::uint64_t bw = rng.next_u64();
    core::StreamProvider streams;
    streams.alice = [aw](std::uint64_t c) { return netlist::BitVec{((aw >> c) & 1u) != 0}; };
    streams.bob = [bw](std::uint64_t c) { return netlist::BitVec{((bw >> c) & 1u) != 0}; };

    for (const core::Mode mode : {core::Mode::SkipGate, core::Mode::Conventional}) {
      for (const a2gtest::Composition c : a2gtest::kCompositions) {
        core::RunOptions ideal;
        ideal.mode = mode;
        ideal.fixed_cycles = 7;
        core::RunOptions iknp = ideal;
        iknp.exec.ot_backend = gc::OtBackend::Iknp;

        const core::RunResult ri = a2gtest::run_composed(c, nl, ideal, a, b, p, &streams);
        const core::RunResult rk = a2gtest::run_composed(c, nl, iknp, a, b, p, &streams);
        expect_same_protocol(ri, rk);
        EXPECT_EQ(rk.stats.ot_base_ots, rk.stats.ot_choices > 0 ? gc::kOtKappa : 0u)
            << "seed " << seed;
      }
    }
  }
}

TEST(OtExt, GoldenTableDigestStableAcrossBackends) {
  // Pins the exact garbled-table byte stream of a fixed serial-adder run:
  // any change to label generation, garbling order or the OT rewiring that
  // shifts a single table bit fails here — under either backend, since the
  // OT path must not touch the label stream at all.
  const netlist::Netlist nl = make_serial_adder();
  core::StreamProvider streams;
  streams.alice = [](std::uint64_t c) { return netlist::BitVec{((0xDEADBEEFu >> c) & 1u) != 0}; };
  streams.bob = [](std::uint64_t c) { return netlist::BitVec{((0x12345679u >> c) & 1u) != 0}; };
  core::RunOptions opts;
  opts.fixed_cycles = 32;
  core::RunOptions iknp = opts;
  iknp.exec.ot_backend = gc::OtBackend::Iknp;
  core::RunOptions precomp = opts;
  precomp.exec.ot_backend = gc::OtBackend::Precomp;
  const core::RunResult ri = core::SkipGateDriver(nl, opts).run({}, {}, {}, &streams);
  const core::RunResult rk = core::SkipGateDriver(nl, iknp).run({}, {}, {}, &streams);
  const core::RunResult rp = core::SkipGateDriver(nl, precomp).run({}, {}, {}, &streams);
  EXPECT_TRUE(ri.stats.table_digest == rk.stats.table_digest);
  EXPECT_TRUE(ri.stats.table_digest == rp.stats.table_digest);
  EXPECT_EQ(ri.stats.table_digest.hex(), "92477f01bb42fa1f82f25714ba48d798");
}

TEST(OtExt, ArmRunsIdenticalAndSessionAmortizesBaseOts) {
  const auto prog = arm::assemble(
      "ldr r4, [r0]\n"
      "ldr r5, [r1]\n"
      "add r4, r4, r5\n"
      "str r4, [r2]\n"
      "swi 0\n");
  arm::MemoryConfig cfg;
  cfg.imem_words = 16;
  cfg.alice_words = cfg.bob_words = cfg.out_words = 1;
  cfg.ram_words = 16;
  const arm::Arm2Gc machine(cfg, prog);

  core::ExecOptions ideal;
  core::ExecOptions iknp;
  iknp.ot_backend = gc::OtBackend::Iknp;
  const std::vector<std::uint32_t> alice = {41};
  const std::vector<std::uint32_t> bob = {59};
  const arm::Arm2GcResult ri =
      machine.run(alice, bob, 1u << 20, gc::Scheme::HalfGates, ideal);
  const arm::Arm2GcResult rk =
      machine.run(alice, bob, 1u << 20, gc::Scheme::HalfGates, iknp);
  EXPECT_EQ(ri.outputs[0], 100u);
  EXPECT_EQ(rk.outputs, ri.outputs);
  EXPECT_EQ(rk.cycles, ri.cycles);
  EXPECT_EQ(rk.stats.garbled_non_xor, ri.stats.garbled_non_xor);
  EXPECT_TRUE(rk.stats.table_digest == ri.stats.table_digest);
  // All of Bob's 32 input bits ride one reset batch.
  EXPECT_EQ(rk.stats.ot_batches, 1u);
  EXPECT_EQ(rk.stats.ot_choices, 32u);
  EXPECT_EQ(rk.stats.ot_base_ots, gc::kOtKappa);

  // Warm session: the base phase runs once and amortizes across runs.
  arm::Arm2Gc::Session session(machine, iknp);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const arm::Arm2GcResult r = session.run(std::vector<std::uint32_t>{10 + i},
                                            std::vector<std::uint32_t>{5 * i});
    EXPECT_EQ(r.outputs[0], 10 + i + 5 * i);
    EXPECT_EQ(r.stats.ot_base_ots, i == 0 ? gc::kOtKappa : 0u) << "run " << i;
    EXPECT_EQ(r.stats.ot_choices, 32u);
  }

  // Same warm amortization with the parties on two threads over a socket
  // pair: the sender state lives with the garbler endpoint, the receiver
  // state with the evaluator's.
  core::WarmState::Options w;
  w.ot_backend = gc::OtBackend::Iknp;
  core::WarmState gwarm(core::Role::Garbler, w);
  core::WarmState ewarm(core::Role::Evaluator, w);
  for (std::uint32_t i = 0; i < 2; ++i) {
    const a2gtest::SocketRun s =
        a2gtest::arm_socket_run(machine, {20 + i}, {3 * i}, iknp, &gwarm, &ewarm);
    EXPECT_EQ(machine.decode_output_bits(s.garbler.final_outputs)[0], 20 + i + 3 * i);
    EXPECT_EQ(s.garbler.stats.ot_base_ots, i == 0 ? gc::kOtKappa : 0u) << "socket run " << i;
  }
}

// --- transcript privacy ---------------------------------------------------------

/// Pass-through transport that records every sent block (the peer's
/// received transcript) without touching the accounting.
class RecordingTransport final : public gc::Transport {
 public:
  explicit RecordingTransport(gc::Transport& inner) : inner_(&inner) {}

  void send(const Block* blocks, std::size_t n, gc::Traffic t) override {
    sent_.insert(sent_.end(), blocks, blocks + n);
    frames_.push_back(n);
    inner_->send(blocks, n, t);
  }
  void recv(Block* out, std::size_t n) override { inner_->recv(out, n); }
  void account(gc::Traffic t, std::uint64_t bytes) override { inner_->account(t, bytes); }

  [[nodiscard]] std::vector<std::uint8_t> sent_bytes() const {
    std::vector<std::uint8_t> out(sent_.size() * 16);
    for (std::size_t i = 0; i < sent_.size(); ++i) sent_[i].to_bytes(out.data() + 16 * i);
    return out;
  }

  std::vector<Block> sent_;
  std::vector<std::size_t> frames_;

 private:
  gc::Transport* inner_;
};

/// One receiver request over a recording transport with a fixed-seed state;
/// returns (transcript bytes, frame sizes).
std::pair<std::vector<std::uint8_t>, std::vector<std::size_t>> capture_request(
    const std::vector<bool>& r) {
  gc::InMemoryDuplex duplex;
  RecordingTransport tap(duplex.evaluator_end());
  gc::IknpReceiverState state(block_from_u64(1337));  // identical seed per capture
  auto receiver = gc::make_ot_receiver(gc::OtBackend::Iknp, tap, Block{}, &state);
  std::vector<Block> sink(r.size());
  for (std::size_t j = 0; j < r.size(); ++j) receiver->enqueue(r[j], &sink[j]);
  receiver->request();
  return {tap.sent_bytes(), tap.frames_};
}

TEST(OtExt, SenderReceivedTranscriptIndependentOfChoices) {
  // Fixed seeds isolate the choice bits' contribution: two captures with
  // different choice vectors must differ *exactly* by the masked-column
  // structure u ^ u' == (r ^ r') replicated per column — every byte the
  // choices touch is one-time-padded by the per-column PRG expansion, and
  // nothing outside the column region depends on the choices at all.
  constexpr std::size_t kM = 43;
  crypto::CtrRng rng(block_from_u64(31415));
  std::vector<bool> r0(kM), r1(kM);
  for (std::size_t j = 0; j < kM; ++j) {
    r0[j] = rng.next_bool();
    r1[j] = rng.next_bool();
  }

  const auto [t0, f0] = capture_request(r0);
  const auto [t1, f1] = capture_request(r1);
  ASSERT_EQ(t0.size(), t1.size());
  ASSERT_EQ(f0, f1);
  // Frames: [header][base sid+pairs][check][columns].
  ASSERT_EQ(f0.size(), 4u);
  ASSERT_EQ(f0[0], 1u);
  ASSERT_EQ(f0[1], 1 + 2 * gc::kOtKappa);

  const std::size_t stride = (kM + 7) / 8;
  std::vector<std::uint8_t> rdiff(stride, 0);
  for (std::size_t j = 0; j < kM; ++j) {
    if (r0[j] != r1[j]) rdiff[j / 8] |= static_cast<std::uint8_t>(1u << (j % 8));
  }

  const std::size_t col_off = (f0[0] + f0[1] + f0[2]) * 16;
  for (std::size_t i = 0; i < t0.size(); ++i) {
    if (i < col_off || i >= col_off + gc::kOtKappa * stride) {
      // Base phase and check block: byte-identical regardless of choices.
      EXPECT_EQ(t0[i], t1[i]) << "byte " << i;
    } else {
      const std::size_t b = (i - col_off) % stride;
      EXPECT_EQ(t0[i] ^ t1[i], rdiff[b]) << "byte " << i;
    }
  }
}

// --- negative: mismatched pairings ----------------------------------------------

TEST(OtExt, MismatchedBaseStateDetectedNotSilentlyWrong) {
  const Block seed_a = block_from_u64(1);
  const Block seed_b = block_from_u64(2);

  // Warm up two independent pairings.
  gc::IknpSenderState s1(seed_a);
  gc::IknpReceiverState r1(seed_a);
  gc::IknpReceiverState r2(seed_b);
  {
    gc::InMemoryDuplex d;
    auto snd = gc::make_ot_sender(gc::OtBackend::Iknp, d.garbler_end(), seed_a, &s1);
    auto rcv = gc::make_ot_receiver(gc::OtBackend::Iknp, d.evaluator_end(), seed_a, &r1);
    Block out{};
    rcv->enqueue(true, &out);
    rcv->request();
    snd->enqueue(block_from_u64(7), block_from_u64(8));
    snd->flush();
    rcv->finish();
    EXPECT_TRUE(out == block_from_u64(8));
  }
  {
    gc::InMemoryDuplex d;
    auto snd2 = gc::make_ot_sender(gc::OtBackend::Iknp, d.garbler_end(), seed_b, nullptr);
    auto rcv2 = gc::make_ot_receiver(gc::OtBackend::Iknp, d.evaluator_end(), seed_b, &r2);
    Block out{};
    rcv2->enqueue(false, &out);
    rcv2->request();
    snd2->enqueue(block_from_u64(7), block_from_u64(8));
    snd2->flush();
    rcv2->finish();
  }

  // Cross-pair the warm sender with the other pairing's warm receiver: the
  // base session ids disagree, so the batch check must throw — silently
  // delivering a wrong label is the failure mode this pins out.
  {
    gc::InMemoryDuplex d;
    auto snd = gc::make_ot_sender(gc::OtBackend::Iknp, d.garbler_end(), seed_a, &s1);
    auto rcv = gc::make_ot_receiver(gc::OtBackend::Iknp, d.evaluator_end(), seed_b, &r2);
    Block out{};
    rcv->enqueue(true, &out);
    rcv->request();
    snd->enqueue(block_from_u64(7), block_from_u64(8));
    EXPECT_THROW(snd->flush(), std::runtime_error);
  }

  // A warm sender against a *fresh* receiver: the batch header announces a
  // base phase the sender already ran — detected at the header, before any
  // layout-dependent read.
  {
    gc::InMemoryDuplex d;
    auto snd = gc::make_ot_sender(gc::OtBackend::Iknp, d.garbler_end(), seed_a, &s1);
    auto rcv = gc::make_ot_receiver(gc::OtBackend::Iknp, d.evaluator_end(), seed_a, nullptr);
    Block out{};
    rcv->enqueue(true, &out);
    rcv->request();
    snd->enqueue(block_from_u64(7), block_from_u64(8));
    EXPECT_THROW(snd->flush(), std::runtime_error);
  }

  // The reverse — a warm *receiver* against a fresh sender — must also fail
  // loudly at the header. Without it, the fresh sender would block waiting
  // for a base frame the warm receiver never sends (a deadlock under the
  // blocking socket, an underrun under the in-memory duplex; both wrong).
  {
    gc::InMemoryDuplex d;
    auto snd = gc::make_ot_sender(gc::OtBackend::Iknp, d.garbler_end(), seed_a, nullptr);
    auto rcv = gc::make_ot_receiver(gc::OtBackend::Iknp, d.evaluator_end(), seed_a, &r1);
    Block out{};
    rcv->enqueue(true, &out);
    rcv->request();
    snd->enqueue(block_from_u64(7), block_from_u64(8));
    EXPECT_THROW(snd->flush(), std::runtime_error);
  }
}

TEST(OtExt, HalfCompletedBatchDetectedOnNextRun) {
  // The subtle abort window: a request() whose flush() never happens (the
  // peer threw first, or the run was torn down mid-cycle) advances the
  // receiver's column streams but neither side's batch ordinal. Both warm
  // states then agree on every counter, yet their PRG positions differ —
  // the check block binds the stream position exactly so the next run
  // throws instead of hashing desynced columns into garbage labels.
  const Block seed = block_from_u64(5);
  gc::IknpSenderState s(seed);
  gc::IknpReceiverState r(seed);
  {
    gc::InMemoryDuplex d;
    auto snd = gc::make_ot_sender(gc::OtBackend::Iknp, d.garbler_end(), seed, &s);
    auto rcv = gc::make_ot_receiver(gc::OtBackend::Iknp, d.evaluator_end(), seed, &r);
    Block out{};
    rcv->enqueue(true, &out);
    rcv->request();
    snd->enqueue(block_from_u64(7), block_from_u64(8));
    snd->flush();
    rcv->finish();
    EXPECT_TRUE(out == block_from_u64(8));
  }
  {
    // Aborted run: the request goes out, the sender never consumes it.
    gc::InMemoryDuplex d;
    auto rcv = gc::make_ot_receiver(gc::OtBackend::Iknp, d.evaluator_end(), seed, &r);
    Block out{};
    rcv->enqueue(false, &out);
    rcv->request();
  }
  {
    gc::InMemoryDuplex d;
    auto snd = gc::make_ot_sender(gc::OtBackend::Iknp, d.garbler_end(), seed, &s);
    auto rcv = gc::make_ot_receiver(gc::OtBackend::Iknp, d.evaluator_end(), seed, &r);
    Block out{};
    rcv->enqueue(true, &out);
    rcv->request();
    snd->enqueue(block_from_u64(7), block_from_u64(8));
    EXPECT_THROW(snd->flush(), std::runtime_error);
  }
}

}  // namespace
