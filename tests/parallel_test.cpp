// Differential tests for multicore garbling/evaluation: threads=N must be
// *observationally identical* to threads=1 — same outputs, same golden table
// digests on both party sides, same garbled_non_xor, same planner counters
// and same per-class comm bytes — on fuzzed sequential netlists (lock-step
// and two-thread socket-pair compositions, both OT backends) and on the ARM
// Hamming-160 program. The ordered transport writer/reader makes the framed
// byte stream byte-identical, so every digest and byte count is pinned, not
// just the decoded outputs. Wall-clock-only fields (ot_wall_ns,
// transport_high_water_blocks) are the sole exclusions.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "arm/arm2gc.h"
#include "builder/circuit_builder.h"
#include "core/plan.h"
#include "core/party.h"
#include "core/skipgate.h"
#include "crypto/rng.h"
#include "netlist/netlist.h"
#include "programs/programs.h"
#include "test_util.h"

namespace {

using namespace arm2gc;
using crypto::block_from_u64;
using a2gtest::to_bits;

/// Random sequential netlist with every ownership class bound (mirrors
/// party_test's generator) so OT batches, direct labels and garbled tables
/// all carry traffic through the parallel paths.
netlist::Netlist random_netlist(crypto::CtrRng& rng) {
  netlist::Netlist nl;
  for (std::uint32_t i = 0; i < 3; ++i) {
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
  // Enough gates that a small cone_target_gates slices the netlist into
  // several interdependent cones — the schedule the pool actually runs.
  const int num_gates = 120 + static_cast<int>(rng.next_below(80));
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

/// Everything but wall-clock must match the serial reference exactly.
void expect_identical(const core::RunResult& par, const core::RunResult& ref,
                      std::size_t threads) {
  EXPECT_EQ(par.sampled_outputs, ref.sampled_outputs);
  EXPECT_EQ(par.final_outputs, ref.final_outputs);
  EXPECT_EQ(par.final_cycle, ref.final_cycle);
  EXPECT_EQ(par.stats.threads, threads);
  EXPECT_EQ(ref.stats.threads, 1u);
  EXPECT_EQ(par.stats.cycles, ref.stats.cycles);
  EXPECT_EQ(par.stats.garbled_non_xor, ref.stats.garbled_non_xor);
  EXPECT_EQ(par.stats.skipped_non_xor, ref.stats.skipped_non_xor);
  EXPECT_EQ(par.stats.non_xor_slots, ref.stats.non_xor_slots);
  EXPECT_EQ(par.stats.plan_cache_hits, ref.stats.plan_cache_hits);
  EXPECT_EQ(par.stats.plan_cache_misses, ref.stats.plan_cache_misses);
  EXPECT_EQ(par.stats.cone_hits, ref.stats.cone_hits);
  EXPECT_EQ(par.stats.cone_misses, ref.stats.cone_misses);
  EXPECT_EQ(par.stats.live_gates, ref.stats.live_gates);
  EXPECT_EQ(par.stats.ot_choices, ref.stats.ot_choices);
  EXPECT_EQ(par.stats.ot_batches, ref.stats.ot_batches);
  EXPECT_EQ(par.stats.ot_base_ots, ref.stats.ot_base_ots);
  EXPECT_TRUE(par.stats.table_digest == ref.stats.table_digest);
  EXPECT_EQ(par.stats.comm.garbled_table_bytes, ref.stats.comm.garbled_table_bytes);
  EXPECT_EQ(par.stats.comm.input_label_bytes, ref.stats.comm.input_label_bytes);
  EXPECT_EQ(par.stats.comm.ot_bytes, ref.stats.comm.ot_bytes);
  EXPECT_EQ(par.stats.comm.output_bytes, ref.stats.comm.output_bytes);
  EXPECT_EQ(par.stats.comm.total(), ref.stats.comm.total());
}

/// Seed count override for deeper CI sweeps (mirrors A2G_PLAN_FUZZ_SEEDS).
int fuzz_seeds() {
  if (const char* env = std::getenv("A2G_PAR_FUZZ_SEEDS")) return std::atoi(env);
  return 4;
}

TEST(ParallelExec, FuzzedNetlistsMatchSerialAcrossCompositionsAndBackends) {
  crypto::CtrRng rng(block_from_u64(0x7172));
  const int seeds = fuzz_seeds();
  for (int seed = 0; seed < seeds; ++seed) {
    const netlist::Netlist nl = random_netlist(rng);
    const netlist::BitVec a = to_bits(rng.next_u64(), 3);
    const netlist::BitVec b = to_bits(rng.next_u64(), 3);
    const netlist::BitVec p = to_bits(rng.next_u64(), 3);
    const std::uint64_t aw = rng.next_u64();
    const std::uint64_t bw = rng.next_u64();
    core::StreamProvider streams;
    streams.alice = [aw](std::uint64_t c) { return netlist::BitVec{((aw >> c) & 1u) != 0}; };
    streams.bob = [bw](std::uint64_t c) { return netlist::BitVec{((bw >> c) & 1u) != 0}; };

    for (const a2gtest::Composition c : a2gtest::kCompositions) {
      for (const gc::OtBackend ot : {gc::OtBackend::Ideal, gc::OtBackend::Iknp}) {
        core::RunOptions opts;
        opts.fixed_cycles = 8;
        opts.exec.ot_backend = ot;
        opts.exec.cone_target_gates = 24;  // force a multi-cone layout
        const core::RunResult ref = a2gtest::run_composed(c, nl, opts, a, b, p, &streams);
        for (const std::size_t threads : {2u, 4u}) {
          opts.exec.threads = threads;
          const core::RunResult par = a2gtest::run_composed(c, nl, opts, a, b, p, &streams);
          expect_identical(par, ref, threads);
        }
        opts.exec.threads = 1;
      }
    }
  }
}

TEST(ParallelExec, PassChainAcrossConeSlicesMatchesSerial) {
  // A garbled AND's output travels a public-select mux chain whose hops are
  // spread over later cone slices by filler gates. The sessions run only
  // the last hop, copying the AND's label from a slice that the slice DAG
  // orders before it only through the (now empty) slices in between.
  builder::CircuitBuilder cb;
  constexpr std::uint32_t kHops = 4;
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0);
  const builder::Wire b = cb.input(netlist::Owner::Bob, 0);
  std::vector<builder::Wire> sel;
  std::vector<builder::Wire> other;
  for (std::uint32_t i = 0; i < kHops; ++i) {
    sel.push_back(cb.input(netlist::Owner::Public, i, /*streamed=*/true));
    other.push_back(cb.input(i % 2 == 0 ? netlist::Owner::Alice : netlist::Owner::Bob, i + 1));
  }
  const builder::Wire src = cb.and_(a, b);
  builder::Wire m = src;
  builder::Wire filler = b;
  for (std::uint32_t i = 0; i < kHops; ++i) {
    for (int f = 0; f < 6; ++f) filler = cb.and_(cb.xor_(filler, other[i]), a);
    m = cb.mux(sel[i], m, other[i]);
  }
  cb.output(cb.and_(m, filler), "y");
  cb.output(filler, "filler");
  cb.set_outputs_every_cycle(true);
  const netlist::Netlist nl = cb.take();

  // With every select high the last hop is the only one executed, and it
  // reads the AND two or more slices upstream.
  core::PlannerOptions popts;
  popts.cone_target_gates = 4;  // force a multi-cone layout
  core::Planner planner(nl, popts);
  planner.reset({});
  planner.begin_cycle(to_bits(0xF, kHops));
  planner.forward();
  const core::CyclePlan plan = planner.finish(true);
  const std::size_t last_hop = m.id - nl.first_gate_wire();
  std::size_t hop_slice = 0;
  std::size_t src_slice = 0;
  std::size_t hop_items = 0;
  for (std::size_t si = 0; si < plan.num_slices; ++si) {
    const core::PlanSlice& sl = plan.slices[si];
    if (src.id - nl.first_gate_wire() >= sl.first_gate) src_slice = si;
    for (std::uint32_t k = 0; k < sl.work_count; ++k) {
      if (sl.first_gate + sl.work[k] != last_hop) continue;
      EXPECT_EQ(sl.work_src[k], src.id);
      hop_slice = si;
      ++hop_items;
    }
  }
  ASSERT_EQ(hop_items, 1u);
  ASSERT_GE(hop_slice, src_slice + 2);

  core::StreamProvider streams;
  streams.pub = [](std::uint64_t c) { return to_bits(c % 3 == 0 ? 0xF : 0xF ^ (c & 3), kHops); };
  for (const a2gtest::Composition c : a2gtest::kCompositions) {
    core::RunOptions opts;
    opts.fixed_cycles = 6;
    opts.exec.cone_target_gates = popts.cone_target_gates;
    const core::RunResult ref = a2gtest::run_composed(c, nl, opts, to_bits(0b10110, kHops + 1),
                                                      to_bits(0b01101, kHops + 1), {}, &streams);
    for (const std::size_t threads : {2u, 4u}) {
      opts.exec.threads = threads;
      const core::RunResult par = a2gtest::run_composed(
          c, nl, opts, to_bits(0b10110, kHops + 1), to_bits(0b01101, kHops + 1), {}, &streams);
      expect_identical(par, ref, threads);
    }
  }
}

TEST(ParallelExec, ConventionalModeMatchesSerial) {
  // Conventional mode garbles every slice in full (no work lists): the
  // prepass/tweak-preassignment path with maximal table traffic.
  crypto::CtrRng rng(block_from_u64(0x7173));
  const netlist::Netlist nl = random_netlist(rng);
  const netlist::BitVec a = to_bits(rng.next_u64(), 3);
  const netlist::BitVec b = to_bits(rng.next_u64(), 3);
  const netlist::BitVec p = to_bits(rng.next_u64(), 3);
  core::StreamProvider streams;
  streams.alice = [](std::uint64_t c) { return netlist::BitVec{(c & 1) != 0}; };
  streams.bob = [](std::uint64_t c) { return netlist::BitVec{(c & 2) != 0}; };

  core::RunOptions opts;
  opts.mode = core::Mode::Conventional;
  opts.fixed_cycles = 4;
  opts.exec.cone_target_gates = 24;
  const core::RunResult ref = core::SkipGateDriver(nl, opts).run(a, b, p, &streams);
  opts.exec.threads = 4;
  const core::RunResult par = core::SkipGateDriver(nl, opts).run(a, b, p, &streams);
  expect_identical(par, ref, 4);
}

TEST(ParallelExec, WarmSessionSharesPoolAcrossRunsAndMatchesSerial) {
  // WarmState owns the pool: two runs of one warm session reuse the parked
  // workers, and both runs stay identical to a serial warm session run for
  // run (including the second run's cache-hit-dominated plans).
  const programs::Program prog = programs::sum(1);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  const std::vector<std::uint32_t> a = {123456u};
  const std::vector<std::uint32_t> b = {654321u};

  core::ExecOptions serial_exec;
  arm::Arm2Gc::Session serial_session(machine, serial_exec);
  core::ExecOptions par_exec;
  par_exec.threads = 2;
  arm::Arm2Gc::Session par_session(machine, par_exec);

  for (int run = 0; run < 2; ++run) {
    const arm::Arm2GcResult ref = serial_session.run(a, b);
    const arm::Arm2GcResult par = par_session.run(a, b);
    EXPECT_EQ(par.outputs, ref.outputs) << "run " << run;
    EXPECT_EQ(par.cycles, ref.cycles);
    EXPECT_EQ(par.stats.garbled_non_xor, ref.stats.garbled_non_xor);
    EXPECT_EQ(par.stats.plan_cache_hits, ref.stats.plan_cache_hits);
    EXPECT_EQ(par.stats.cone_hits, ref.stats.cone_hits);
    EXPECT_EQ(par.stats.cone_misses, ref.stats.cone_misses);
    EXPECT_TRUE(par.stats.table_digest == ref.stats.table_digest);
    EXPECT_EQ(par.stats.comm.total(), ref.stats.comm.total());
    EXPECT_EQ(par.stats.threads, 2u);
  }
}

TEST(ParallelExec, ArmHamming160MatchesSerial) {
  // The paper's flagship benchmark end to end: threads=4 over a socket pair
  // (each party planning and garbling/evaluating on its own pool) with real
  // IKNP OT must reproduce the serial run bit for bit — outputs, digest on
  // both sides, garbled_non_xor and every comm byte.
  const programs::Program prog = programs::hamming(5);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  const std::vector<std::uint32_t> a = {0x0001F00Du, 2, 3, 4, 5};
  const std::vector<std::uint32_t> b = {6, 7, 8, 0xFF00FF00u, 10};

  core::ExecOptions exec;
  exec.ot_backend = gc::OtBackend::Iknp;
  const a2gtest::SocketRun serial = a2gtest::arm_socket_run(machine, a, b, exec);
  exec.threads = 4;
  const a2gtest::SocketRun parallel = a2gtest::arm_socket_run(machine, a, b, exec);
  const core::RunResult& ref = serial.garbler;
  const core::RunResult& par = parallel.garbler;

  EXPECT_EQ(machine.decode_output_bits(par.final_outputs),
            machine.decode_output_bits(ref.final_outputs));
  EXPECT_EQ(par.stats.cycles, ref.stats.cycles);
  EXPECT_EQ(par.stats.garbled_non_xor, ref.stats.garbled_non_xor);
  EXPECT_EQ(par.stats.skipped_non_xor, ref.stats.skipped_non_xor);
  EXPECT_EQ(par.stats.plan_cache_hits, ref.stats.plan_cache_hits);
  EXPECT_EQ(par.stats.cone_hits, ref.stats.cone_hits);
  EXPECT_TRUE(par.stats.table_digest == ref.stats.table_digest);
  EXPECT_TRUE(parallel.evaluator.stats.table_digest == ref.stats.table_digest);
  EXPECT_EQ(parallel.evaluator.stats.threads, 4u);
  EXPECT_EQ(par.stats.comm.garbled_table_bytes, ref.stats.comm.garbled_table_bytes);
  EXPECT_EQ(par.stats.comm.input_label_bytes, ref.stats.comm.input_label_bytes);
  EXPECT_EQ(par.stats.comm.ot_bytes, ref.stats.comm.ot_bytes);
  EXPECT_EQ(par.stats.comm.output_bytes, ref.stats.comm.output_bytes);
  EXPECT_EQ(par.stats.threads, 4u);
}

TEST(ParallelExec, ThreadsZeroResolvesToHardwareConcurrency) {
  const programs::Program prog = programs::sum(1);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  core::ExecOptions exec;
  exec.threads = 0;  // auto
  const arm::Arm2GcResult r =
      machine.run(std::vector<std::uint32_t>{40}, std::vector<std::uint32_t>{2}, 1u << 20,
                  gc::Scheme::HalfGates, exec);
  EXPECT_EQ(r.outputs[0], 42u);
  EXPECT_GE(r.stats.threads, 1u);
}

}  // namespace
