// Party-endpoint API tests: the single-role endpoints over a blocking
// socket must be a perfect stand-in for the in-process driver. Pinned here:
//   - two endpoints in two threads over a stream socket pair == in-process
//     InMemoryDuplex bit-for-bit (outputs, table digest, garbled_non_xor,
//     per-class comm bytes) on fuzzed sequential netlists and on the ARM
//     Hamming-160 program;
//   - the evaluator's received-table digest equals the garbler's sent-table
//     digest (the cross-process content certificate);
//   - party-private seeds: endpoints seeded with *different* private
//     randomness still agree on outputs and on each other's digest (only
//     the label stream, and hence the digest value, moves);
//   - warm-state negative paths: a one-sided OT reset (desynced warm
//     extension state) fails loudly on the OT header/check — never a hang or
//     a wrong label — in both compositions, and endpoint abort
//     resets warm OT state so the *next* run recovers without rebuilding
//     the session (base OTs simply rerun);
//   - the windowed streamed-OT / deferred-decode schedule: table digests and
//     a halt-driven run's bytes equal the per-cycle lock-step schedule's, the
//     output frame at the deadlock guard's 64 KiB boundary runs over a
//     socket pair, and Precomp refills drain a held decode first.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arm/arm2gc.h"
#include "builder/circuit_builder.h"
#include "builder/stdlib.h"
#include "circuits/tg_circuits.h"
#include "core/party.h"
#include "core/skipgate.h"
#include "crypto/rng.h"
#include "gc/transport.h"
#include "programs/programs.h"
#include "test_util.h"

namespace {

using namespace arm2gc;
using crypto::Block;
using crypto::block_from_u64;
using a2gtest::to_bits;

/// Random sequential netlist with inputs/dffs of every ownership class, so
/// reset OT batches, streamed batches and direct labels all carry traffic.
netlist::Netlist random_party_netlist(crypto::CtrRng& rng) {
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

void expect_matches_reference(const a2gtest::SocketRun& s, const core::RunResult& ref) {
  // Garbler side reproduces the in-process run bit for bit.
  EXPECT_EQ(s.garbler.sampled_outputs, ref.sampled_outputs);
  EXPECT_EQ(s.garbler.final_outputs, ref.final_outputs);
  EXPECT_EQ(s.garbler.final_cycle, ref.final_cycle);
  EXPECT_EQ(s.garbler.stats.cycles, ref.stats.cycles);
  EXPECT_EQ(s.garbler.stats.garbled_non_xor, ref.stats.garbled_non_xor);
  EXPECT_EQ(s.garbler.stats.skipped_non_xor, ref.stats.skipped_non_xor);
  EXPECT_EQ(s.garbler.stats.non_xor_slots, ref.stats.non_xor_slots);
  EXPECT_TRUE(s.garbler.stats.table_digest == ref.stats.table_digest);
  EXPECT_EQ(s.garbler.stats.ot_choices, ref.stats.ot_choices);
  EXPECT_EQ(s.garbler.stats.ot_batches, ref.stats.ot_batches);
  // Both parties agree on shape and content.
  EXPECT_EQ(s.evaluator.final_cycle, s.garbler.final_cycle);
  EXPECT_EQ(s.evaluator.stats.garbled_non_xor, s.garbler.stats.garbled_non_xor);
  EXPECT_TRUE(s.evaluator.stats.table_digest == s.garbler.stats.table_digest);
  // Every byte either party sent is accounted identically to the in-memory
  // duplex of the same run.
  EXPECT_EQ(s.garbler.stats.comm.garbled_table_bytes, ref.stats.comm.garbled_table_bytes);
  EXPECT_EQ(s.garbler.stats.comm.input_label_bytes, ref.stats.comm.input_label_bytes);
  EXPECT_EQ(s.garbler.stats.comm.ot_bytes, ref.stats.comm.ot_bytes);
  EXPECT_EQ(s.garbler.stats.comm.output_bytes, ref.stats.comm.output_bytes);
  EXPECT_EQ(s.garbler.stats.comm.total(), ref.stats.comm.total());
}

TEST(PartyEndpoints, SocketMatchesInMemoryOnFuzzedNetlists) {
  crypto::CtrRng rng(block_from_u64(4242));
  for (int seed = 0; seed < 4; ++seed) {
    const netlist::Netlist nl = random_party_netlist(rng);
    const netlist::BitVec a = to_bits(rng.next_u64(), 3);
    const netlist::BitVec b = to_bits(rng.next_u64(), 3);
    const netlist::BitVec p = to_bits(rng.next_u64(), 3);
    const std::uint64_t aw = rng.next_u64();
    const std::uint64_t bw = rng.next_u64();
    core::StreamProvider streams;
    streams.alice = [aw](std::uint64_t c) { return netlist::BitVec{((aw >> c) & 1u) != 0}; };
    streams.bob = [bw](std::uint64_t c) { return netlist::BitVec{((bw >> c) & 1u) != 0}; };

    for (const core::Mode mode : {core::Mode::SkipGate, core::Mode::Conventional}) {
      for (const gc::OtBackend ot :
           {gc::OtBackend::Ideal, gc::OtBackend::Iknp, gc::OtBackend::Precomp}) {
        core::RunOptions opts;
        opts.mode = mode;
        opts.fixed_cycles = 6;
        opts.exec.ot_backend = ot;
        const core::RunResult ref = core::SkipGateDriver(nl, opts).run(a, b, p, &streams);
        expect_matches_reference(a2gtest::socket_run(nl, opts, a, b, p, &streams), ref);
      }
    }
  }
}

TEST(PartyEndpoints, SocketMatchesInMemoryArmHamming160) {
  const programs::Program prog = programs::hamming(5);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  const std::vector<std::uint32_t> a = {0x0001F00Du, 2, 3, 4, 5};
  const std::vector<std::uint32_t> b = {6, 7, 8, 0xFF00FF00u, 10};

  core::ExecOptions exec;
  exec.ot_backend = gc::OtBackend::Iknp;
  const arm::Arm2GcResult ref = machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, exec);
  const arm::Arm2GcResult iss = machine.run_reference(a, b);
  ASSERT_EQ(ref.outputs, iss.outputs);

  const a2gtest::SocketRun s = a2gtest::arm_socket_run(machine, a, b, exec);
  EXPECT_EQ(machine.decode_output_bits(s.garbler.final_outputs), ref.outputs);
  EXPECT_EQ(s.garbler.stats.cycles, ref.cycles);
  EXPECT_EQ(s.evaluator.stats.cycles, ref.cycles);
  EXPECT_EQ(s.garbler.stats.garbled_non_xor, ref.stats.garbled_non_xor);
  EXPECT_TRUE(s.garbler.stats.table_digest == ref.stats.table_digest);
  EXPECT_TRUE(s.evaluator.stats.table_digest == ref.stats.table_digest);
  EXPECT_TRUE(s.evaluator.final_outputs.empty());  // Bob does not learn the result
  EXPECT_EQ(s.garbler.stats.comm.garbled_table_bytes, ref.stats.comm.garbled_table_bytes);
  EXPECT_EQ(s.garbler.stats.comm.input_label_bytes, ref.stats.comm.input_label_bytes);
  EXPECT_EQ(s.garbler.stats.comm.ot_bytes, ref.stats.comm.ot_bytes);
  EXPECT_EQ(s.garbler.stats.comm.output_bytes, ref.stats.comm.output_bytes);
}

/// Arm2Gc::run and Arm2Gc::party_options keep a positional gc::Scheme slot
/// for existing callers only: half-gates is the one scheme the endpoints
/// garble, so any other value throws before a run starts.
TEST(PartyEndpoints, ArmApiRejectsEveryNonHalfGatesScheme) {
  const programs::Program prog = programs::hamming(1);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  const std::vector<std::uint32_t> a = {0x0001F00Du};
  const std::vector<std::uint32_t> b = {0xFF00FF00u};
  // GRR3, classic 4-row, and a value no enumerator names.
  for (const int v : {1, 2, 3}) {
    const auto s = static_cast<gc::Scheme>(v);
    EXPECT_THROW((void)machine.run(a, b, 1u << 20, s), std::invalid_argument);
    EXPECT_THROW((void)machine.party_options(core::Role::Garbler, 1u << 20, s),
                 std::invalid_argument);
    EXPECT_THROW((void)machine.party_options(core::Role::Evaluator, 1u << 20, s),
                 std::invalid_argument);
  }
  const arm::Arm2GcResult r = machine.run(a, b, 1u << 20, gc::Scheme::HalfGates);
  EXPECT_EQ(r.outputs, machine.run_reference(a, b).outputs);
  EXPECT_EQ(machine.party_options(core::Role::Garbler, 1u << 20, gc::Scheme::HalfGates).halt_wire,
            machine.cpu().halt_wire);
}

TEST(PartyEndpoints, PrivatePerPartySeedsStillAgree) {
  // Each party seeding its own randomness moves the label stream (and hence
  // the digest *value*) but nothing observable: outputs stay correct and the
  // two parties' digests stay equal — the deployment configuration of
  // tools/arm2gc_party.
  crypto::CtrRng rng(block_from_u64(5151));
  const netlist::Netlist nl = random_party_netlist(rng);
  const netlist::BitVec a = to_bits(rng.next_u64(), 3);
  const netlist::BitVec b = to_bits(rng.next_u64(), 3);
  const netlist::BitVec p = to_bits(rng.next_u64(), 3);
  core::StreamProvider streams;
  streams.alice = [](std::uint64_t c) { return netlist::BitVec{(c & 1) != 0}; };
  streams.bob = [](std::uint64_t c) { return netlist::BitVec{(c & 2) != 0}; };

  core::RunOptions opts;
  opts.fixed_cycles = 6;
  opts.exec.ot_backend = gc::OtBackend::Iknp;
  const core::RunResult ref = core::SkipGateDriver(nl, opts).run(a, b, p, &streams);
  const a2gtest::SocketRun s =
      a2gtest::socket_run(nl, opts, a, b, p, &streams, nullptr, nullptr,
                          block_from_u64(0xA11CE5EED), block_from_u64(0xB0B5EED));
  EXPECT_EQ(s.garbler.sampled_outputs, ref.sampled_outputs);
  EXPECT_EQ(s.garbler.stats.garbled_non_xor, ref.stats.garbled_non_xor);
  EXPECT_TRUE(s.garbler.stats.table_digest == s.evaluator.stats.table_digest);
  // Fresh garbler randomness => a different (but internally consistent)
  // table stream.
  EXPECT_FALSE(s.garbler.stats.table_digest == ref.stats.table_digest);
  // Non-label traffic volumes are seed-independent.
  EXPECT_EQ(s.garbler.stats.comm.total(), ref.stats.comm.total());
}

TEST(PartyEndpoints, EvaluatorDigestMatchesGarblerOverSocketPair) {
  builder::CircuitBuilder cb;
  const builder::Bus x = cb.input_bus(netlist::Owner::Alice, 8, 0);
  const builder::Bus y = cb.input_bus(netlist::Owner::Bob, 8, 0);
  cb.output_bus(builder::mul_lower(cb, x, y, 8));
  const netlist::Netlist nl = cb.take();

  core::RunOptions opts;
  opts.fixed_cycles = 1;
  const a2gtest::SocketRun s = a2gtest::socket_run(nl, opts, to_bits(13, 8), to_bits(11, 8));
  EXPECT_EQ(a2gtest::from_bits(s.garbler.final_outputs, 0, 8), (13u * 11u) & 0xFFu);
  EXPECT_GT(s.garbler.stats.garbled_non_xor, 0u);
  EXPECT_TRUE(s.evaluator.stats.table_digest == s.garbler.stats.table_digest);
}

// --- warm-state negative paths ---------------------------------------------------

netlist::Netlist two_party_adder() {
  builder::CircuitBuilder cb;
  const builder::Bus x = cb.input_bus(netlist::Owner::Alice, 4, 0);
  const builder::Bus y = cb.input_bus(netlist::Owner::Bob, 4, 0);
  cb.output_bus(builder::add(cb, x, y));
  return cb.take();
}

core::WarmState::Options iknp_warm_options() {
  core::WarmState::Options w;
  w.ot_backend = gc::OtBackend::Iknp;
  return w;
}

/// One-sided OT desync (here: an explicit one-sided reset, the same state a
/// run aborted between the receiver's request and the sender's flush leaves
/// behind) must fail on the OT header/check block — a loud runtime_error,
/// not a hang and never a mis-delivered label — in both compositions.
/// Endpoint abort then resets *both* sides, so the run after the failure
/// recovers with a fresh base phase.
TEST(PartyWarmState, OneSidedOtDesyncFailsLoudThenRecovers) {
  const netlist::Netlist nl = two_party_adder();
  for (const a2gtest::Composition c : a2gtest::kCompositions) {
    core::WarmState gwarm(core::Role::Garbler, iknp_warm_options());
    core::WarmState ewarm(core::Role::Evaluator, iknp_warm_options());
    core::RunOptions opts;
    opts.fixed_cycles = 1;
    opts.exec.ot_backend = gc::OtBackend::Iknp;
    opts.exec.garbler_warm = &gwarm;
    opts.exec.evaluator_warm = &ewarm;

    const core::RunResult warmup =
        a2gtest::run_composed(c, nl, opts, to_bits(3, 4), to_bits(5, 4));
    EXPECT_EQ(a2gtest::from_bits(warmup.final_outputs, 0, 4), 8u);
    EXPECT_EQ(warmup.stats.ot_base_ots, gc::kOtKappa);

    // Desync: only the garbler's extension state drops back to the base
    // phase; the evaluator's still rides the old streams.
    gwarm.reset_ot();
    try {
      (void)a2gtest::run_composed(c, nl, opts, to_bits(1, 4), to_bits(2, 4));
      FAIL() << "desynced warm OT state must not produce a result";
    } catch (const gc::TransportClosed&) {
      FAIL() << "desync surfaced as a transport teardown, not the OT check";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("otext"), std::string::npos) << e.what();
    }

    // The failed run's endpoint abort reset both warm states: the next run
    // re-bases (base OTs run again) and succeeds — recovery without
    // rebuilding caches or session.
    const core::RunResult recovered =
        a2gtest::run_composed(c, nl, opts, to_bits(6, 4), to_bits(7, 4));
    EXPECT_EQ(a2gtest::from_bits(recovered.final_outputs, 0, 4), 13u);
    EXPECT_EQ(recovered.stats.ot_base_ots, gc::kOtKappa);
  }
}

/// A run that throws mid-protocol *between* the evaluator's OT request and
/// the garbler's matching flush leaves the two extension streams desynced;
/// the endpoints' abort path resets both, so the next run over the same
/// warm pair recovers (and provably re-bases).
TEST(PartyWarmState, AbortBetweenRequestAndFlushRecovers) {
  const netlist::Netlist nl = two_party_adder();
  core::WarmState gwarm(core::Role::Garbler, iknp_warm_options());
  core::WarmState ewarm(core::Role::Evaluator, iknp_warm_options());
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = gc::OtBackend::Iknp;
  opts.exec.garbler_warm = &gwarm;
  opts.exec.evaluator_warm = &ewarm;

  const core::RunResult first =
      core::SkipGateDriver(nl, opts).run(to_bits(2, 4), to_bits(3, 4));
  EXPECT_EQ(first.stats.ot_base_ots, gc::kOtKappa);

  // Alice's bits come up short: the garbler throws inside reset(), after
  // the evaluator's ot_reset request already advanced the receiver streams.
  EXPECT_THROW(
      (void)core::SkipGateDriver(nl, opts).run(to_bits(1, 2), to_bits(3, 4)),
      std::out_of_range);

  const core::RunResult recovered =
      core::SkipGateDriver(nl, opts).run(to_bits(9, 4), to_bits(4, 4));
  EXPECT_EQ(a2gtest::from_bits(recovered.final_outputs, 0, 4), 13u);
  EXPECT_EQ(recovered.stats.ot_base_ots, gc::kOtKappa);  // fresh base: reset worked
}

core::WarmState::Options precomp_warm_options(std::size_t pool) {
  core::WarmState::Options w;
  w.ot_backend = gc::OtBackend::Precomp;
  w.ot_pool = pool;
  return w;
}

/// The precomputed backend adds a second desync surface on top of the IKNP
/// streams: the two random-OT pools must agree on consumption and refill
/// schedule. A one-sided pool reset (the state a one-sided crash leaves)
/// makes one party refill where the other derandomizes, so the very first
/// OT frame of the next run is read against the wrong layout — a loud
/// runtime_error on an OT header, never a silent wrong label, in both
/// compositions. The failed run's abort resets both sides, and recovery
/// re-bases from scratch.
TEST(PartyWarmState, PrecompOneSidedPoolResetFailsLoudThenRecovers) {
  const netlist::Netlist nl = two_party_adder();
  for (const a2gtest::Composition c : a2gtest::kCompositions) {
    core::WarmState gwarm(core::Role::Garbler, precomp_warm_options(8));
    core::WarmState ewarm(core::Role::Evaluator, precomp_warm_options(8));
    core::RunOptions opts;
    opts.fixed_cycles = 1;
    opts.exec.ot_backend = gc::OtBackend::Precomp;
    opts.exec.ot_pool = 8;
    opts.exec.garbler_warm = &gwarm;
    opts.exec.evaluator_warm = &ewarm;

    const core::RunResult warmup =
        a2gtest::run_composed(c, nl, opts, to_bits(3, 4), to_bits(5, 4));
    EXPECT_EQ(a2gtest::from_bits(warmup.final_outputs, 0, 4), 8u);
    EXPECT_EQ(warmup.stats.ot_base_ots, gc::kOtKappa);
    // 4 of the 8 banked OTs consumed: a half-drained pool survives runs.
    EXPECT_EQ(gwarm.ot_pool_available(), 4u);
    EXPECT_EQ(ewarm.ot_pool_available(), 4u);

    // One-sided drop: the garbler's pool (and inner IKNP state) restart
    // from scratch while the evaluator still rides the old pool.
    gwarm.reset_ot();
    try {
      (void)a2gtest::run_composed(c, nl, opts, to_bits(1, 4), to_bits(2, 4));
      FAIL() << "desynced warm OT pools must not produce a result";
    } catch (const gc::TransportClosed&) {
      FAIL() << "desync surfaced as a transport teardown, not the OT check";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("ot"), std::string::npos) << e.what();
    }

    const core::RunResult recovered =
        a2gtest::run_composed(c, nl, opts, to_bits(6, 4), to_bits(7, 4));
    EXPECT_EQ(a2gtest::from_bits(recovered.final_outputs, 0, 4), 13u);
    EXPECT_EQ(recovered.stats.ot_base_ots, gc::kOtKappa);

    // The mirror-image drop — evaluator refills, garbler derandomizes —
    // must fail just as loudly (the sender reads an IKNP base frame where
    // it expects a derand header, or vice versa).
    ewarm.reset_ot();
    try {
      (void)a2gtest::run_composed(c, nl, opts, to_bits(2, 4), to_bits(2, 4));
      FAIL() << "desynced warm OT pools must not produce a result";
    } catch (const gc::TransportClosed&) {
      FAIL() << "desync surfaced as a transport teardown, not the OT check";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("ot"), std::string::npos) << e.what();
    }
    const core::RunResult again =
        a2gtest::run_composed(c, nl, opts, to_bits(6, 4), to_bits(7, 4));
    EXPECT_EQ(a2gtest::from_bits(again.final_outputs, 0, 4), 13u);
    EXPECT_EQ(again.stats.ot_base_ots, gc::kOtKappa);
  }
}

/// A mid-protocol throw with a half-consumed pool (the garbler dies inside
/// reset() after the evaluator's request consumed pool entries) must leave
/// warm state the next run can use: abort drops both pools and the inner
/// extension streams, so the retry re-bases cleanly instead of
/// derandomizing against a half-advanced pool.
TEST(PartyWarmState, PrecompAbortWithHalfConsumedPoolRecovers) {
  const netlist::Netlist nl = two_party_adder();
  core::WarmState gwarm(core::Role::Garbler, precomp_warm_options(8));
  core::WarmState ewarm(core::Role::Evaluator, precomp_warm_options(8));
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = gc::OtBackend::Precomp;
  opts.exec.ot_pool = 8;
  opts.exec.garbler_warm = &gwarm;
  opts.exec.evaluator_warm = &ewarm;

  const core::RunResult first =
      core::SkipGateDriver(nl, opts).run(to_bits(2, 4), to_bits(3, 4));
  EXPECT_EQ(first.stats.ot_base_ots, gc::kOtKappa);
  EXPECT_EQ(gwarm.ot_pool_available(), 4u);

  // Alice's bits come up short: the garbler throws inside reset(), after
  // the evaluator's ot_reset request already drew on its pool.
  EXPECT_THROW(
      (void)core::SkipGateDriver(nl, opts).run(to_bits(1, 2), to_bits(3, 4)),
      std::out_of_range);

  const core::RunResult recovered =
      core::SkipGateDriver(nl, opts).run(to_bits(9, 4), to_bits(4, 4));
  EXPECT_EQ(a2gtest::from_bits(recovered.final_outputs, 0, 4), 13u);
  EXPECT_EQ(recovered.stats.ot_base_ots, gc::kOtKappa);  // fresh base: reset worked
}

/// The pool refill schedule is a deterministic function of the pool target,
/// so a WarmState banked at one size can never be driven at another: the
/// endpoint rejects the pairing at construction instead of desyncing the
/// peer mid-run.
TEST(PartyWarmState, PrecompWarmPoolSizeMismatchRejected) {
  const netlist::Netlist nl = two_party_adder();
  core::WarmState gwarm(core::Role::Garbler, precomp_warm_options(8));
  core::WarmState ewarm(core::Role::Evaluator, precomp_warm_options(8));
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = gc::OtBackend::Precomp;
  opts.exec.ot_pool = 16;  // != the warm states' 8
  opts.exec.garbler_warm = &gwarm;
  opts.exec.evaluator_warm = &ewarm;
  EXPECT_THROW((void)core::SkipGateDriver(nl, opts).run(to_bits(2, 4), to_bits(3, 4)),
               std::invalid_argument);
}

// --- fault injection (a2gtest::FaultyDuplex) -------------------------------------

/// Outcome of one fault-injected two-thread endpoint run.
struct FaultRun {
  bool garbler_closed = false;    ///< garbler surfaced gc::TransportClosed
  bool evaluator_closed = false;  ///< evaluator surfaced gc::TransportClosed
  std::string garbler_other;     ///< non-TransportClosed failure text (empty = none)
  std::string evaluator_other;
};

/// Garbler on a worker thread, evaluator on this one, over the faulty pair;
/// endpoint run() handles its own abort (warm OT reset) before rethrowing.
FaultRun faulty_run(const netlist::Netlist& nl, const core::RunOptions& opts,
                    a2gtest::FaultyDuplex& duplex, core::WarmState* gwarm,
                    core::WarmState* ewarm, const netlist::BitVec& a,
                    const netlist::BitVec& b) {
  FaultRun out;
  std::thread garbler_thread([&] {
    try {
      core::GarblerEndpoint endpoint(nl, core::party_options(core::Role::Garbler, opts),
                                     duplex.garbler_end(), gwarm);
      (void)endpoint.run(a);
    } catch (const gc::TransportClosed&) {
      out.garbler_closed = true;
    } catch (const std::exception& e) {
      out.garbler_other = e.what();
    }
  });
  try {
    core::EvaluatorEndpoint endpoint(nl, core::party_options(core::Role::Evaluator, opts),
                                     duplex.evaluator_end(), ewarm);
    (void)endpoint.run(b);
  } catch (const gc::TransportClosed&) {
    out.evaluator_closed = true;
  } catch (const std::exception& e) {
    out.evaluator_other = e.what();
  }
  garbler_thread.join();
  return out;
}

/// Short reads, partial writes and mid-frame closes at assorted byte offsets
/// (a peer dying mid-protocol) must surface as gc::TransportClosed on BOTH
/// endpoints — never a hang, never a wrong result — and a subsequent run on
/// the same WarmState pair must be byte-identical to an undisturbed warm
/// run: outputs, table digest, per-class comm, and a fresh base-OT phase
/// (the abort path re-based the extension state).
TEST(PartyFaultInjection, MidStreamCloseSurfacesTransportClosedAndWarmRecovers) {
  const netlist::Netlist nl = two_party_adder();
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = gc::OtBackend::Iknp;

  // The undisturbed reference (cold warm states; endpoint runs are
  // deterministic, so every later cold-equivalent run must reproduce it).
  core::WarmState gref(core::Role::Garbler, iknp_warm_options());
  core::WarmState eref(core::Role::Evaluator, iknp_warm_options());
  opts.exec.garbler_warm = &gref;
  opts.exec.evaluator_warm = &eref;
  const core::RunResult ref = core::SkipGateDriver(nl, opts).run(to_bits(9, 4), to_bits(6, 4));
  EXPECT_EQ(a2gtest::from_bits(ref.final_outputs, 0, 4), 15u);

  struct Case {
    bool on_garbler;   ///< which side trips
    bool on_send;      ///< partial write (else short read)
    std::uint64_t at;  ///< trip point in blocks (odd values land mid-frame)
  };
  // Trip points sit inside the actual per-direction traffic: the garbler
  // sends only ~18 blocks here (tables + labels; the big IKNP matrix flows
  // evaluator -> garbler), so garbler-send and evaluator-recv trips must
  // stay below that, while trips on the other direction can land inside
  // the 257-block extension matrix.
  const Case cases[] = {
      {true, true, 1},   {true, true, 9},   {true, false, 3},  {true, false, 33},
      {false, true, 1},  {false, true, 13}, {false, false, 7}, {false, false, 13},
  };
  for (const Case& c : cases) {
    core::WarmState gwarm(core::Role::Garbler, iknp_warm_options());
    core::WarmState ewarm(core::Role::Evaluator, iknp_warm_options());
    opts.exec.garbler_warm = &gwarm;
    opts.exec.evaluator_warm = &ewarm;

    a2gtest::FaultyDuplex faulty;
    if (c.on_garbler && c.on_send) faulty.fail_garbler_send_after(c.at);
    if (c.on_garbler && !c.on_send) faulty.fail_garbler_recv_after(c.at);
    if (!c.on_garbler && c.on_send) faulty.fail_evaluator_send_after(c.at);
    if (!c.on_garbler && !c.on_send) faulty.fail_evaluator_recv_after(c.at);

    const FaultRun r =
        faulty_run(nl, opts, faulty, &gwarm, &ewarm, to_bits(9, 4), to_bits(6, 4));
    EXPECT_TRUE(r.garbler_closed) << "garbler: " << r.garbler_other;
    EXPECT_TRUE(r.evaluator_closed) << "evaluator: " << r.evaluator_other;

    // Recovery on the same warm pair over a fresh transport: byte-identical
    // to the reference, and provably re-based.
    const core::RunResult rec =
        core::SkipGateDriver(nl, opts).run(to_bits(9, 4), to_bits(6, 4));
    EXPECT_EQ(rec.final_outputs, ref.final_outputs);
    EXPECT_TRUE(rec.stats.table_digest == ref.stats.table_digest);
    EXPECT_EQ(rec.stats.garbled_non_xor, ref.stats.garbled_non_xor);
    EXPECT_EQ(rec.stats.comm.garbled_table_bytes, ref.stats.comm.garbled_table_bytes);
    EXPECT_EQ(rec.stats.comm.input_label_bytes, ref.stats.comm.input_label_bytes);
    EXPECT_EQ(rec.stats.comm.ot_bytes, ref.stats.comm.ot_bytes);
    EXPECT_EQ(rec.stats.comm.output_bytes, ref.stats.comm.output_bytes);
    EXPECT_EQ(rec.stats.ot_base_ots, gc::kOtKappa);
  }
}

/// Same teardown discipline under the precomputed-OT backend, where a dying
/// peer can leave a half-consumed random-OT pool behind: the release path is
/// the abort path, so the next run on the same warm pair re-banks and is
/// byte-identical to an undisturbed one.
TEST(PartyFaultInjection, PrecompMidStreamCloseRecoversByteIdentical) {
  const netlist::Netlist nl = two_party_adder();
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = gc::OtBackend::Precomp;
  opts.exec.ot_pool = 8;

  core::WarmState gref(core::Role::Garbler, precomp_warm_options(8));
  core::WarmState eref(core::Role::Evaluator, precomp_warm_options(8));
  opts.exec.garbler_warm = &gref;
  opts.exec.evaluator_warm = &eref;
  const core::RunResult ref = core::SkipGateDriver(nl, opts).run(to_bits(3, 4), to_bits(4, 4));

  core::WarmState gwarm(core::Role::Garbler, precomp_warm_options(8));
  core::WarmState ewarm(core::Role::Evaluator, precomp_warm_options(8));
  opts.exec.garbler_warm = &gwarm;
  opts.exec.evaluator_warm = &ewarm;
  // First trip lands inside the cold base/extension phase (the evaluator's
  // big matrix); the recovery run then re-banks the pool, so the second
  // faulty run is warm — the evaluator sends only a handful of small frames
  // there, and its trip must sit inside that short stream.
  for (const std::uint64_t at : {5ull, 3ull}) {
    a2gtest::FaultyDuplex faulty;
    faulty.fail_evaluator_send_after(at);  // the receiver-first OT frames die
    const FaultRun r =
        faulty_run(nl, opts, faulty, &gwarm, &ewarm, to_bits(3, 4), to_bits(4, 4));
    EXPECT_TRUE(r.garbler_closed) << "garbler: " << r.garbler_other;
    EXPECT_TRUE(r.evaluator_closed) << "evaluator: " << r.evaluator_other;

    const core::RunResult rec =
        core::SkipGateDriver(nl, opts).run(to_bits(3, 4), to_bits(4, 4));
    EXPECT_EQ(rec.final_outputs, ref.final_outputs);
    EXPECT_TRUE(rec.stats.table_digest == ref.stats.table_digest);
    EXPECT_EQ(rec.stats.comm.ot_bytes, ref.stats.comm.ot_bytes);
    EXPECT_EQ(rec.stats.ot_base_ots, gc::kOtKappa);
  }
}

/// Session-level recovery: an ARM run that throws mid-protocol
/// (max_cycles exhausted) aborts both endpoints; the session's next run
/// re-bases and computes correctly — no session rebuild.
TEST(PartyWarmState, ArmSessionRecoversAfterMidProtocolThrow) {
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

  core::ExecOptions exec;
  exec.ot_backend = gc::OtBackend::Iknp;
  arm::Arm2Gc::Session session(machine, exec);

  const arm::Arm2GcResult ok = session.run(std::vector<std::uint32_t>{40},
                                           std::vector<std::uint32_t>{2});
  EXPECT_EQ(ok.outputs[0], 42u);
  EXPECT_EQ(ok.stats.ot_base_ots, gc::kOtKappa);

  EXPECT_THROW((void)session.run(std::vector<std::uint32_t>{1},
                                 std::vector<std::uint32_t>{2}, /*max_cycles=*/2),
               std::runtime_error);

  const arm::Arm2GcResult recovered = session.run(std::vector<std::uint32_t>{30},
                                                  std::vector<std::uint32_t>{12});
  EXPECT_EQ(recovered.outputs[0], 42u);
  EXPECT_EQ(recovered.stats.ot_base_ots, gc::kOtKappa);  // re-based after abort
  EXPECT_EQ(recovered.cycles, ok.cycles);
}

// --- windowed streamed OT and deferred decode --------------------------------------

/// The TinyGarble 4x4 matrix product: 64 cycles, 32 streamed Bob bits and a
/// sampled output frame every cycle.
circuits::TgInstance matmult4() {
  std::vector<std::uint32_t> a(16);
  std::vector<std::uint32_t> b(16);
  std::iota(a.begin(), a.end(), 1u);
  std::iota(b.begin(), b.end(), 100u);
  return circuits::tg_matmult(4, a, b);
}

/// Windowing moves only when Bob's streamed OTs run and when the garbler
/// decodes; the labels, and so every garbled table, stay those of the
/// per-cycle schedule. The digest is pinned to that schedule's value under
/// every OT backend and both compositions.
TEST(PartySchedule, MatmultTableDigestIsTheLockStepSchedules) {
  const circuits::TgInstance inst = matmult4();
  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      std::uint32_t acc = 0;
      for (std::size_t k = 0; k < 4; ++k) acc += (4 * i + k + 1) * (100 + 4 * k + j);
      expected.push_back(acc);
    }
  }
  for (const gc::OtBackend ot :
       {gc::OtBackend::Ideal, gc::OtBackend::Iknp, gc::OtBackend::Precomp}) {
    for (const a2gtest::Composition c : a2gtest::kCompositions) {
      core::RunOptions opts;
      opts.fixed_cycles = inst.cycles;
      opts.exec.ot_backend = ot;
      const core::RunResult r =
          a2gtest::run_composed(c, inst.nl, opts, inst.alice, inst.bob, inst.pub, &inst.streams);
      EXPECT_EQ(r.stats.table_digest.hex(), "89a6fcf45d58861e7b92e1250613b398");
      EXPECT_EQ(r.stats.garbled_non_xor, 65040u);
      EXPECT_EQ(r.sampled_outputs.size(), inst.cycles);
      EXPECT_EQ(inst.decode(r.sampled_outputs), expected);
      // 64 cycles x 32 streamed Bob choices fit one window: one batch.
      EXPECT_EQ(r.stats.ot_batches, 1u);
    }
  }
}

/// Every non-affine AND-core polarity, once each.
constexpr netlist::TruthTable kPolarityTables[] = {
    netlist::kTtAnd,       netlist::kTtNand,     netlist::kTtOr,
    netlist::kTtNor,       netlist::kTtAndANotB, netlist::kTtNotAAndB,
    netlist::kTtOrANotB,   netlist::kTtOrNotAB};

/// A netlist shaped to walk every batching path of the session slice loop
/// (core/slice_loop.h): an XOR reads a pending AND (deferred), an AND reads
/// that deferred XOR (flush, replay, new batch), a public-select MUX whose
/// final XOR cancels to a PassSrc of a still-pending AND (deferred under
/// SkipGate), more independent ANDs sharing inputs than one batch holds, and
/// every AND-core polarity.
netlist::Netlist batching_netlist() {
  builder::CircuitBuilder cb;
  const builder::Bus a = cb.input_bus(netlist::Owner::Alice, 4, 0);
  const builder::Bus b = cb.input_bus(netlist::Owner::Bob, 4, 0);
  const builder::Wire p = cb.input(netlist::Owner::Public, 0);
  const builder::Wire t = cb.and_(a[0], b[0]);
  const builder::Wire f = cb.and_(a[1], b[1]);
  const builder::Wire o = cb.or_(a[0], b[1]);
  const builder::Wire x = cb.xor_(t, a[2]);
  const builder::Wire y = cb.and_(x, b[2]);
  const builder::Wire t2 = cb.and_(a[3], b[3]);
  const builder::Wire f2 = cb.nand_(b[3], a[2]);
  const builder::Wire r = cb.mux(p, t2, f2);
  const builder::Wire z = cb.and_(r, x);
  builder::Wire acc = cb.xor_(cb.xor_(f, o), cb.xor_(y, z));
  for (std::uint32_t k = 0; k < 12; ++k) {
    acc = cb.xor_(acc, cb.gate(kPolarityTables[k % 8], a[k % 4], b[(k + k / 4) % 4]));
  }
  cb.output(t, "t");
  cb.output(x, "x");
  cb.output(r, "r");
  cb.output(acc, "acc");
  return cb.take();
}

/// The batched slice loop reorders when gates are garbled, never what is
/// garbled: outputs are right and the table digest equals the per-gate
/// loop's (pinned from the revision before batching), under SkipGate and
/// Conventional, lock-step and over a socket pair.
TEST(PartyBatching, DeferredGatesKeepThePerGateDigest) {
  const netlist::Netlist nl = batching_netlist();
  struct Pin {
    core::Mode mode;
    const char* digest;
    std::uint64_t garbled;
  };
  const Pin pins[] = {{core::Mode::SkipGate, "3e4fb204754590b52cbecc7571be088f", 16},
                      {core::Mode::Conventional, "cd705655431b838f14d8dd3ab3b1a955", 18}};
  for (const std::uint64_t av : {0x5u, 0xbu, 0xfu}) {
    for (const std::uint64_t bv : {0x3u, 0xeu}) {
      const netlist::BitVec a = to_bits(av, 4);
      const netlist::BitVec b = to_bits(bv, 4);
      const bool t = a[0] && b[0];
      const bool x = t != a[2];
      const bool r = a[3] && b[3];  // public select 1 picks t2
      bool acc = ((a[1] && b[1]) != (a[0] || b[1])) != ((x && b[2]) != (r && x));
      for (std::size_t k = 0; k < 12; ++k) {
        acc = acc != netlist::tt_eval(kPolarityTables[k % 8], a[k % 4], b[(k + k / 4) % 4]);
      }
      for (const Pin& pin : pins) {
        for (const a2gtest::Composition c : a2gtest::kCompositions) {
          core::RunOptions opts;
          opts.mode = pin.mode;
          opts.fixed_cycles = 1;
          const core::RunResult res = a2gtest::run_composed(c, nl, opts, a, b, to_bits(1, 1));
          EXPECT_EQ(res.final_outputs, (netlist::BitVec{t, x, r, acc}))
              << "a=" << av << " b=" << bv;
          if (av == 0x5u && bv == 0x3u) {
            EXPECT_EQ(res.stats.table_digest.hex(), pin.digest);
            EXPECT_EQ(res.stats.garbled_non_xor, pin.garbled);
          }
        }
      }
    }
  }
}

/// Serial adder over an Alice bit and two Bob bits per cycle, with a public
/// 4-bit counter whose value 11 drives the halt wire (output 0).
netlist::Netlist halting_stream_adder() {
  builder::CircuitBuilder cb;
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0, /*streamed=*/true);
  const builder::Wire b0 = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const builder::Wire b1 = cb.input(netlist::Owner::Bob, 1, /*streamed=*/true);
  const auto cnt = cb.make_dff_bus(4);
  const auto carry = cb.make_dff(netlist::Dff::Init::Zero);
  const builder::Bus cur = cb.dff_out_bus(cnt);
  cb.set_dff_d_bus(cnt, builder::inc(cb, cur));
  const auto fa = builder::full_adder(cb, a, cb.xor_(b0, b1), cb.dff_out(carry));
  cb.set_dff_d(carry, fa.carry);
  cb.output(cb.and_(cb.and_(cur[0], cur[1]),
                    cb.and_(builder::CircuitBuilder::not_(cur[2]), cur[3])),
            "halt");
  cb.output(fa.sum, "sum");
  cb.set_outputs_every_cycle(true);
  return cb.take();
}

bool alice_bit(std::uint64_t cycle) { return ((0xB5u >> (cycle % 8)) & 1u) != 0; }
bool bob_bit0(std::uint64_t cycle) { return (cycle & 1) != 0; }
bool bob_bit1(std::uint64_t cycle) { return (cycle & 4) != 0; }

/// A run that may stop on its halt wire is certain of no cycle ahead, so it
/// opens a one-cycle OT window every cycle: its byte stream, per traffic
/// class, and its stream-provider calls are those of the per-cycle
/// schedule (pinned values).
TEST(PartySchedule, HaltDrivenStreamedRunKeepsPerCycleBytes) {
  const netlist::Netlist nl = halting_stream_adder();
  struct Pin {
    gc::OtBackend ot;
    std::uint64_t ot_bytes;
  };
  for (const Pin pin : {Pin{gc::OtBackend::Ideal, 768}, Pin{gc::OtBackend::Iknp, 6800},
                        Pin{gc::OtBackend::Precomp, 54256}}) {
    for (const a2gtest::Composition c : a2gtest::kCompositions) {
      std::vector<std::uint64_t> bob_calls;
      core::StreamProvider streams;
      streams.alice = [](std::uint64_t cy) { return netlist::BitVec{alice_bit(cy)}; };
      streams.bob = [&bob_calls](std::uint64_t cy) {
        bob_calls.push_back(cy);
        return netlist::BitVec{bob_bit0(cy), bob_bit1(cy)};
      };
      core::RunOptions opts;
      opts.halt_wire = nl.outputs[0].wire;
      opts.max_cycles = 64;
      opts.exec.ot_backend = pin.ot;
      const core::RunResult r = a2gtest::run_composed(c, nl, opts, {}, {}, {}, &streams);
      EXPECT_EQ(r.final_cycle, 11u);
      EXPECT_EQ(r.stats.comm.garbled_table_bytes, 352u);
      EXPECT_EQ(r.stats.comm.input_label_bytes, 192u);
      EXPECT_EQ(r.stats.comm.ot_bytes, pin.ot_bytes);
      EXPECT_EQ(r.stats.comm.output_bytes, 192u);
      EXPECT_EQ(r.stats.ot_batches, 12u);
      EXPECT_EQ(r.stats.table_digest.hex(), "26248b9ceea3aa9ec0f124efe03a659b");
      std::vector<std::uint64_t> per_cycle(12);
      std::iota(per_cycle.begin(), per_cycle.end(), 0u);
      EXPECT_EQ(bob_calls, per_cycle);
      // Sum bits: a + (b0 ^ b1) + carry, LSB first, every cycle.
      unsigned carry = 0;
      for (std::uint64_t cy = 0; cy <= 11; ++cy) {
        const unsigned t = (alice_bit(cy) ? 1 : 0) + (bob_bit0(cy) != bob_bit1(cy) ? 1 : 0) + carry;
        EXPECT_EQ(r.sampled_outputs[cy][1], (t & 1u) != 0) << cy;
        carry = t >> 1;
      }
    }
  }
}

/// `width` streamed Alice and Bob bits per cycle; the first `outputs` of the
/// pairwise products a_i & b_j (row-major) are sampled every cycle, all
/// secret — each costs the evaluator one 16-byte label per cycle.
netlist::Netlist stream_products(std::uint32_t width, std::size_t outputs) {
  builder::CircuitBuilder cb;
  const builder::Bus a = cb.input_bus(netlist::Owner::Alice, width, 0, /*streamed=*/true);
  const builder::Bus b = cb.input_bus(netlist::Owner::Bob, width, 0, /*streamed=*/true);
  for (std::size_t k = 0; k < outputs; ++k) cb.output(cb.and_(a[k / width], b[k % width]));
  cb.set_outputs_every_cycle(true);
  return cb.take();
}

std::uint64_t stream_word(std::uint64_t seed, std::uint64_t cycle) {
  return (seed ^ (cycle * 0x9E3779B97F4A7C15ull)) * 0xD1B54A32D192ED03ull;
}

core::StreamProvider stream_products_inputs(std::uint32_t width) {
  core::StreamProvider s;
  s.alice = [width](std::uint64_t c) { return to_bits(stream_word(1, c), width); };
  s.bob = [width](std::uint64_t c) { return to_bits(stream_word(2, c), width); };
  return s;
}

void expect_stream_products(const core::RunResult& r, std::uint32_t width, std::size_t outputs,
                            std::uint64_t cycles) {
  ASSERT_EQ(r.sampled_outputs.size(), cycles);
  for (std::uint64_t c = 0; c < cycles; ++c) {
    const netlist::BitVec a = to_bits(stream_word(1, c), width);
    const netlist::BitVec b = to_bits(stream_word(2, c), width);
    ASSERT_EQ(r.sampled_outputs[c].size(), outputs);
    for (std::size_t k = 0; k < outputs; ++k) {
      ASSERT_EQ(r.sampled_outputs[c][k], a[k / width] && b[k % width]) << c << "," << k;
    }
  }
}

/// The deferred decode leaves one output frame unread while the garbler
/// sends the next cycle's tables; that is deadlock-free only while the frame
/// fits gc::kFlushBytes. 4096 outputs (exactly 64 KiB) still defer, 4097
/// decode in-cycle; both must finish over a socket pair and match the
/// lock-step run.
TEST(PartySchedule, OutputFrameAtTheFlushBoundaryRunsOverASocketPair) {
  constexpr std::uint64_t kCycles = 5;
  for (const std::size_t outputs : {std::size_t{4096}, std::size_t{4097}}) {
    const std::uint32_t width = outputs == 4096 ? 64 : 65;
    const netlist::Netlist nl = stream_products(width, outputs);
    const core::StreamProvider streams = stream_products_inputs(width);
    core::RunOptions opts;
    opts.fixed_cycles = kCycles;
    opts.exec.ot_backend = gc::OtBackend::Iknp;
    const core::RunResult ref = core::SkipGateDriver(nl, opts).run({}, {}, {}, &streams);
    expect_stream_products(ref, width, outputs, kCycles);
    const a2gtest::SocketRun s = a2gtest::socket_run(nl, opts, {}, {}, {}, &streams);
    expect_matches_reference(s, ref);
    EXPECT_EQ(s.garbler.stats.comm.output_bytes, 16u * outputs * kCycles);
  }
}

/// Precomp with a pool far below a window's demand: every refill slot that
/// fires finds the previous cycle's output frame held, and must decode it
/// before reading the refill request behind it on the wire.
TEST(PartySchedule, PrecompRefillDrainsAHeldDecode) {
  constexpr std::uint32_t kWidth = 64;
  constexpr std::uint64_t kCycles = 130;  // OT windows open at 0, 64 and 128
  const netlist::Netlist nl = stream_products(kWidth, kWidth + 1);
  const core::StreamProvider streams = stream_products_inputs(kWidth);
  core::RunOptions opts;
  opts.fixed_cycles = kCycles;
  opts.exec.ot_backend = gc::OtBackend::Precomp;
  opts.exec.ot_pool = 100;
  const core::RunResult ref = core::SkipGateDriver(nl, opts).run({}, {}, {}, &streams);
  expect_stream_products(ref, kWidth, kWidth + 1, kCycles);
  EXPECT_EQ(ref.stats.ot_batches, 3u);

  // The garbler hook by hook over a socket pair, counting refill slots that
  // read while a decode is held (every non-final cycle is sampled and held,
  // so each reading slot has one) and checking that sample reads exactly
  // when no earlier reading hook has drained the held frame.
  a2gtest::SocketPair pair;
  core::RunResult g;
  std::exception_ptr garbler_error;
  std::uint64_t reading_refills = 0;
  std::uint64_t reading_begins = 0;
  std::thread garbler_thread([&] {
    try {
      core::GarblerEndpoint ep(nl, core::party_options(core::Role::Garbler, opts),
                               pair.garbler->end());
      ep.start({}, {}, &streams);
      bool drained = true;  // nothing is held before cycle 0
      for (std::uint64_t cycle = 0;; ++cycle) {
        if (ep.begin_reads(cycle)) {
          ++reading_begins;
          drained = true;
        }
        ep.begin(cycle);
        const bool is_final = ep.work(cycle);
        EXPECT_EQ(ep.sample_reads(), !drained || is_final) << cycle;
        ep.sample();
        drained = false;
        if (is_final) break;
        ep.latch();
        if (ep.ot_refill_reads()) {
          ++reading_refills;
          drained = true;
        }
        ep.ot_refill();
      }
      g = ep.finish();
    } catch (...) {
      garbler_error = std::current_exception();
      pair.garbler->close();
    }
  });
  core::RunResult e;
  try {
    core::EvaluatorEndpoint ep(nl, core::party_options(core::Role::Evaluator, opts),
                               pair.evaluator->end());
    e = ep.run({}, {}, &streams);
  } catch (...) {
    pair.evaluator->close();
    garbler_thread.join();
    throw;
  }
  garbler_thread.join();
  if (garbler_error) std::rethrow_exception(garbler_error);
  EXPECT_EQ(reading_begins, 3u);
  EXPECT_GT(reading_refills, 0u);
  EXPECT_EQ(g.sampled_outputs, ref.sampled_outputs);
  EXPECT_TRUE(g.stats.table_digest == ref.stats.table_digest);
  EXPECT_TRUE(e.stats.table_digest == ref.stats.table_digest);
}

}  // namespace
