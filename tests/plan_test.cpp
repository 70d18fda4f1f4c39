// Plan determinism: SkipGate's bookkeeping is a deterministic public
// computation, so (a) two independent planners — one per party — must
// produce byte-identical CyclePlans from public data alone, and (b) a plan
// served from the cycle cache must be byte-identical to a freshly classified
// one. Both properties are exercised over randomized sequential netlists and
// through the full driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <map>

#include "arm/arm2gc.h"
#include "arm/assembler.h"
#include "builder/circuit_builder.h"
#include "builder/stdlib.h"
#include "core/plan.h"
#include "core/skipgate.h"
#include "crypto/rng.h"
#include "netlist/simulator.h"
#include "programs/programs.h"
#include "test_util.h"

namespace {

using namespace arm2gc;
using core::CyclePlan;
using core::Mode;
using core::Planner;
using core::PlannerOptions;
using a2gtest::to_bits;

void expect_plans_equal(const CyclePlan& x, const CyclePlan& y) {
  ASSERT_EQ(x.num_gates, y.num_gates);
  ASSERT_EQ(x.num_wires, y.num_wires);
  ASSERT_EQ(x.num_slices, y.num_slices);
  EXPECT_EQ(x.emitted, y.emitted);
  EXPECT_EQ(x.is_final, y.is_final);
  EXPECT_EQ(x.sample, y.sample);
  EXPECT_EQ(0, std::memcmp(x.wire_bits, y.wire_bits, x.num_wires));
  // The latch list decides which flip-flop labels both sessions carry over.
  ASSERT_EQ(x.num_secret_dffs, y.num_secret_dffs);
  if (x.num_secret_dffs > 0) {
    EXPECT_EQ(0, std::memcmp(x.secret_dffs, y.secret_dffs,
                             x.num_secret_dffs * sizeof(std::uint32_t)));
  }
  // The touched-gate records fix every gate's action (a gate not listed is
  // Public) and every pass gate's collapsed source.
  ASSERT_EQ(x.records.count, y.records.count);
  if (x.records.count > 0) {
    const std::size_t n = x.records.count;
    EXPECT_EQ(0, std::memcmp(x.records.gate, y.records.gate, n * sizeof(std::uint32_t)));
    EXPECT_EQ(0, std::memcmp(x.records.act, y.records.act, n));
    EXPECT_EQ(0, std::memcmp(x.records.src, y.records.src, n * sizeof(netlist::WireId)));
  }
  for (std::size_t si = 0; si < x.num_slices; ++si) {
    const core::PlanSlice& a = x.slices[si];
    const core::PlanSlice& b = y.slices[si];
    ASSERT_EQ(a.first_gate, b.first_gate);
    ASSERT_EQ(a.count, b.count);
    EXPECT_EQ(x.emit_base[si + 1], y.emit_base[si + 1]);
    // The work list, its actions and its collapsed pass sources are what the
    // sessions actually execute; diverging lists would desynchronize the
    // transport stream even with identical emitted-table counts.
    ASSERT_EQ(a.work_count, b.work_count);
    if (a.work_count > 0) {
      ASSERT_NE(a.work, nullptr);
      ASSERT_NE(b.work, nullptr);
      EXPECT_EQ(0, std::memcmp(a.work, b.work, a.work_count * sizeof(std::uint32_t)));
      EXPECT_EQ(0, std::memcmp(a.work_act, b.work_act, a.work_count));
      EXPECT_EQ(0, std::memcmp(a.work_src, b.work_src, a.work_count * sizeof(netlist::WireId)));
    }
  }
}

/// Index of global gate `gate`'s record in `plan`, or records.count when the
/// gate is not touched (Public).
std::size_t record_of(const CyclePlan& plan, std::size_t gate) {
  const core::PlanRecords& r = plan.records;
  const std::uint32_t* end = r.gate + r.count;
  const std::uint32_t* it = std::lower_bound(r.gate, end, gate);
  return it != end && *it == gate ? static_cast<std::size_t>(it - r.gate) : r.count;
}

/// Random sequential netlist: mixed-owner inputs, randomly initialized
/// flip-flops with random feedback, random 2-input gates and outputs.
/// `streamed_pub` adds that many per-cycle public inputs (bit indexes
/// 0..streamed_pub-1 of the pub stream) so entry states vary cycle to cycle.
netlist::Netlist random_seq_netlist(crypto::CtrRng& rng, std::uint32_t streamed_pub = 0) {
  netlist::Netlist nl;
  constexpr std::uint32_t kInPerParty = 3;
  for (std::uint32_t i = 0; i < kInPerParty; ++i) {
    nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, false, i, ""});
    nl.inputs.push_back(netlist::Input{netlist::Owner::Bob, false, i, ""});
    nl.inputs.push_back(netlist::Input{netlist::Owner::Public, false, i, ""});
  }
  for (std::uint32_t i = 0; i < streamed_pub; ++i) {
    nl.inputs.push_back(netlist::Input{netlist::Owner::Public, true, i, ""});
  }
  constexpr std::uint32_t kDffs = 4;
  for (std::uint32_t i = 0; i < kDffs; ++i) {
    netlist::Dff d;
    switch (rng.next_below(4)) {
      case 0: d.init = netlist::Dff::Init::Zero; break;
      case 1: d.init = netlist::Dff::Init::One; break;
      case 2:
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
  const int num_gates = 30 + static_cast<int>(rng.next_below(30));
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
  for (int o = 0; o < 6; ++o) {
    nl.outputs.push_back(netlist::OutputPort{static_cast<netlist::WireId>(rng.next_below(nw)),
                                             rng.next_bool(), ""});
  }
  nl.outputs_every_cycle = rng.next_bool();
  return nl;
}

/// Flip-flop shuffle register: every cycle each flip-flop latches, under a
/// streamed public selector bit, a copy (possibly inverted) of one of two
/// sources — another flip-flop, a streamed or fixed secret input, or a
/// garbled mix. So fingerprint classes merge (two flip-flops copy one
/// source), split (a copied streamed input is re-drawn) and hand their
/// representative on (the lowest member moves away) from cycle to cycle.
netlist::Netlist copy_swap_netlist(crypto::CtrRng& rng, std::uint32_t streamed_pub) {
  builder::CircuitBuilder cb;
  builder::Bus sel;
  for (std::uint32_t i = 0; i < streamed_pub; ++i) {
    sel.push_back(cb.input(netlist::Owner::Public, i, /*streamed=*/true));
  }
  std::vector<builder::Wire> src = {
      cb.input(netlist::Owner::Alice, 0, /*streamed=*/true),
      cb.input(netlist::Owner::Bob, 0, /*streamed=*/true),
      cb.input(netlist::Owner::Alice, 0),
      cb.input(netlist::Owner::Bob, 0),
  };
  constexpr std::uint32_t kDffs = 6;
  std::vector<builder::CircuitBuilder::DffHandle> dffs;
  for (std::uint32_t i = 0; i < kDffs; ++i) {
    constexpr netlist::Dff::Init kInits[] = {netlist::Dff::Init::Zero, netlist::Dff::Init::One,
                                             netlist::Dff::Init::AliceBit,
                                             netlist::Dff::Init::BobBit};
    dffs.push_back(cb.make_dff(kInits[rng.next_below(4)], i));
    src.push_back(cb.dff_out(dffs.back()));
  }
  src.push_back(cb.and_(src[0], src[4]));
  const auto pick = [&] {
    const builder::Wire w = src[rng.next_below(static_cast<std::uint32_t>(src.size()))];
    return rng.next_bool() ? builder::CircuitBuilder::not_(w) : w;
  };
  for (const auto h : dffs) {
    const builder::Wire s = sel[rng.next_below(streamed_pub)];
    cb.set_dff_d(h, cb.mux(s, pick(), pick()));
  }
  cb.output(cb.dff_out(dffs[0]), "q0");
  cb.output(cb.xor_(cb.dff_out(dffs[1]), cb.dff_out(dffs[2])), "q12");
  cb.set_outputs_every_cycle(rng.next_bool());
  return cb.take();
}

/// The planner's incrementally kept entry signature (per-root terms and
/// their hash) equals the same signature recomputed from scratch. Returns
/// the number of secret roots whose class representative is another root.
std::size_t expect_signature_kept(const Planner& p, int seed, std::uint64_t cycle) {
  std::vector<std::uint32_t> terms;
  const std::uint64_t hash = p.signature_from_scratch(terms);
  EXPECT_EQ(p.signature_terms(), terms) << "seed " << seed << " cycle " << cycle;
  EXPECT_EQ(p.signature_hash(), hash) << "seed " << seed << " cycle " << cycle;
  std::size_t shared = 0;
  for (std::size_t w = 0; w < terms.size(); ++w) {
    if ((terms[w] & 1) == 0 && (terms[w] >> 2) != w) ++shared;
  }
  return shared;
}

class RandomPlans : public ::testing::TestWithParam<int> {};

TEST_P(RandomPlans, PartiesAndCacheAgree) {
  crypto::CtrRng rng(crypto::block_from_u64(static_cast<std::uint64_t>(GetParam()) * 104729 + 7));
  const netlist::Netlist nl = random_seq_netlist(rng);
  const netlist::BitVec pub = to_bits(rng.next_u64(), 4);

  for (const Mode mode : {Mode::SkipGate, Mode::Conventional}) {
    PlannerOptions cached;
    cached.mode = mode;
    PlannerOptions fresh = cached;
    fresh.cache = false;

    // "Garbler-side" and "evaluator-side" planners (independent instances fed
    // identical public data) plus an uncached reference.
    Planner pg(nl, cached);
    Planner pe(nl, cached);
    Planner pf(nl, fresh);
    pg.reset(pub);
    pe.reset(pub);
    pf.reset(pub);

    constexpr std::uint64_t kCycles = 12;
    for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
      pg.begin_cycle({});
      pe.begin_cycle({});
      pf.begin_cycle({});
      pg.forward();
      pe.forward();
      pf.forward();
      const bool is_final = cycle + 1 == kCycles;
      const CyclePlan a = pg.finish(is_final);
      const CyclePlan b = pe.finish(is_final);
      const CyclePlan c = pf.finish(is_final);
      expect_plans_equal(a, b);
      expect_plans_equal(a, c);
      if (!is_final) {
        pg.latch(a);
        pe.latch(b);
        pf.latch(c);
      }
    }
    EXPECT_EQ(pg.cache_hits() + pg.cache_misses(), kCycles);
    EXPECT_EQ(pg.cache_hits(), pe.cache_hits());
    EXPECT_EQ(pf.cache_hits(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlans, ::testing::Range(0, 25));

TEST(PlanCache, CounterStatesHitAfterSecondLap) {
  // 2-bit public counter: 4 distinct entry states, revisited cyclically.
  // The transient cache admits a state on its second sighting, so lap one
  // marks, lap two classifies into the cache, lap three onwards hits.
  builder::CircuitBuilder cb;
  const auto cnt = cb.make_dff_bus(2);
  cb.set_dff_d_bus(cnt, builder::inc(cb, cb.dff_out_bus(cnt)));
  cb.output_bus(cb.dff_out_bus(cnt), "q");
  cb.set_outputs_every_cycle(true);
  const netlist::Netlist nl = cb.take();

  Planner planner(nl, PlannerOptions{});
  planner.reset({});
  for (int cycle = 0; cycle < 10; ++cycle) {
    planner.begin_cycle({});
    planner.forward();
    const CyclePlan plan = planner.finish(/*is_final=*/cycle == 9);
    if (cycle != 9) planner.latch(plan);
  }
  EXPECT_EQ(planner.cache_misses(), 8u);
  EXPECT_EQ(planner.cache_hits(), 2u);
}

TEST(PlanCache, DriverResultsIdenticalWithAndWithoutCache) {
  crypto::CtrRng rng(crypto::block_from_u64(424242));
  for (int seed = 0; seed < 6; ++seed) {
    const netlist::Netlist nl = random_seq_netlist(rng);
    const netlist::BitVec a = to_bits(rng.next_u64(), 4);
    const netlist::BitVec b = to_bits(rng.next_u64(), 4);
    const netlist::BitVec p = to_bits(rng.next_u64(), 4);
    for (const Mode mode : {Mode::SkipGate, Mode::Conventional}) {
      core::RunOptions on;
      on.mode = mode;
      on.fixed_cycles = 9;
      core::RunOptions off = on;
      off.exec.plan_cache = false;

      const core::RunResult r_on = core::SkipGateDriver(nl, on).run(a, b, p);
      const core::RunResult r_off = core::SkipGateDriver(nl, off).run(a, b, p);
      EXPECT_EQ(r_on.sampled_outputs, r_off.sampled_outputs);
      EXPECT_EQ(r_on.final_outputs, r_off.final_outputs);
      EXPECT_EQ(r_on.final_cycle, r_off.final_cycle);
      EXPECT_EQ(r_on.stats.garbled_non_xor, r_off.stats.garbled_non_xor);
      EXPECT_EQ(r_on.stats.comm.total(), r_off.stats.comm.total());
      EXPECT_EQ(r_off.stats.plan_cache_hits, 0u);
    }
  }
}

TEST(PlanCache, SerialAdderHitsEveryRepeatedCycle) {
  builder::CircuitBuilder cb;
  const auto carry = cb.make_dff(netlist::Dff::Init::Zero);
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0, /*streamed=*/true);
  const builder::Wire b = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const auto fa = builder::full_adder(cb, a, b, cb.dff_out(carry));
  cb.set_dff_d(carry, fa.carry);
  cb.output(fa.sum, "sum");
  cb.set_outputs_every_cycle(true);
  const netlist::Netlist nl = cb.take();

  core::StreamProvider streams;
  streams.alice = [](std::uint64_t c) { return netlist::BitVec{(c & 1) != 0}; };
  streams.bob = [](std::uint64_t c) { return netlist::BitVec{(c & 2) != 0}; };
  core::RunOptions opts;
  opts.fixed_cycles = 32;
  const core::RunResult r = core::SkipGateDriver(nl, opts).run({}, {}, {}, &streams);
  // Cycle 0 enters with a public zero carry; every later cycle enters with a
  // fresh secret carry — the same equivalence-class signature. That state is
  // marked on cycle 1, admitted on cycle 2, and served from the cache for
  // the remaining 29 cycles (the final cycle's distinct backward variant
  // shares the cached forward pass).
  EXPECT_EQ(r.stats.plan_cache_misses, 3u);
  EXPECT_EQ(r.stats.plan_cache_hits, 29u);
  EXPECT_EQ(r.stats.garbled_non_xor, 31u);  // unchanged by caching
}

TEST(PlanCache, SharedCacheWarmAcrossRuns) {
  // Cross-run reuse: the signature trajectory depends only on the netlist
  // and public inputs, so a second run with different *secret* inputs over a
  // shared cache hits on every cycle — and still computes correct results.
  crypto::CtrRng rng(crypto::block_from_u64(99991));
  const netlist::Netlist nl = random_seq_netlist(rng);
  const netlist::BitVec p = to_bits(rng.next_u64(), 4);
  // Role-scoped warm state (first-sight cache admission: built for reuse).
  core::WarmState warm(core::Role::Garbler);

  core::RunOptions opts;
  opts.fixed_cycles = 8;
  opts.exec.garbler_warm = &warm;

  netlist::BitVec first_outputs;
  for (int run = 0; run < 3; ++run) {
    const netlist::BitVec a = to_bits(rng.next_u64(), 4);
    const netlist::BitVec b = to_bits(rng.next_u64(), 4);
    const core::RunResult r = core::SkipGateDriver(nl, opts).run(a, b, p);

    core::RunOptions fresh = opts;
    fresh.exec.garbler_warm = nullptr;
    fresh.exec.plan_cache = false;
    const core::RunResult expect = core::SkipGateDriver(nl, fresh).run(a, b, p);
    EXPECT_EQ(r.sampled_outputs, expect.sampled_outputs);
    EXPECT_EQ(r.stats.garbled_non_xor, expect.stats.garbled_non_xor);
    if (run > 0) {
      EXPECT_EQ(r.stats.plan_cache_misses, 0u);
      EXPECT_EQ(r.stats.plan_cache_hits, 8u);
    }
  }
  EXPECT_GT(warm.plan_cache().entries(), 0u);
}

TEST(PlanCache, ArmSessionWarmsAcrossExecutions) {
  // The serving scenario end to end: one garbled ARM machine, one session,
  // repeated executions on fresh private inputs. Every run after the first
  // is fully served from the warm per-party caches, and results stay exact.
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

  arm::Arm2Gc::Session session(machine);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const arm::Arm2GcResult r =
        session.run(std::vector<std::uint32_t>{100 + i}, std::vector<std::uint32_t>{7 * i});
    EXPECT_EQ(r.outputs[0], 100 + i + 7 * i);
    if (i > 0) {
      EXPECT_EQ(r.stats.plan_cache_misses, 0u);
      EXPECT_EQ(r.stats.plan_cache_hits, r.cycles);
    }
  }

  // The same warm reuse with the parties on two threads over a socket pair,
  // each planning on its own from its own role's warm caches.
  core::WarmState gwarm(core::Role::Garbler);
  core::WarmState ewarm(core::Role::Evaluator);
  for (std::uint32_t i = 0; i < 2; ++i) {
    const a2gtest::SocketRun s =
        a2gtest::arm_socket_run(machine, {5 + i}, {9}, {}, &gwarm, &ewarm);
    EXPECT_EQ(machine.decode_output_bits(s.garbler.final_outputs)[0], 14 + i);
    EXPECT_TRUE(s.evaluator.stats.table_digest == s.garbler.stats.table_digest);
    if (i > 0) {
      EXPECT_EQ(s.garbler.stats.plan_cache_misses, 0u);
      EXPECT_EQ(s.evaluator.stats.plan_cache_misses, 0u);
    }
  }
}

TEST(PlanCache, WarmSessionCorrectUnderAdversarialEvictionBudgets) {
  // Eviction *inside* a warm Arm2Gc::Session. A 1-byte budget clamps the
  // plan cache to its 4-entry capacity floor, far below what one ARM run
  // classifies, so every run churns the LRU and later runs re-enter states
  // whose entries were evicted. Results must stay exact across >= 3 runs
  // (serving a stale entry after eviction would corrupt outputs or the
  // garbled count/digest), hit ratios must stay sane, and the cache must
  // stay at its bound.
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

  // Full-budget reference for the protocol-shape invariants.
  const arm::Arm2GcResult ref =
      machine.run(std::vector<std::uint32_t>{100}, std::vector<std::uint32_t>{0});

  core::WarmState::Options tiny;
  tiny.plan_cache_budget_bytes = 1;  // capacity floor: 4 entries
  core::WarmState gwarm(core::Role::Garbler, tiny);
  core::WarmState ewarm(core::Role::Evaluator, tiny);
  core::ExecOptions exec;
  exec.garbler_warm = &gwarm;
  exec.evaluator_warm = &ewarm;
  arm::Arm2Gc::Session session(machine, exec);

  std::vector<double> hit_ratios;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const arm::Arm2GcResult r =
        session.run(std::vector<std::uint32_t>{100 + i}, std::vector<std::uint32_t>{7 * i});
    EXPECT_EQ(r.outputs[0], 100 + i + 7 * i) << "run " << i;
    EXPECT_EQ(r.cycles, ref.cycles) << "run " << i;
    EXPECT_EQ(r.stats.garbled_non_xor, ref.stats.garbled_non_xor) << "run " << i;
    EXPECT_EQ(r.stats.comm.total(), ref.stats.comm.total()) << "run " << i;
    // Sane ratios: bounded by [0,1), since the run's distinct states exceed
    // the 4-entry cache — a 100% hit rate would indicate aliasing.
    const double hr = r.stats.plan_cache_hit_ratio();
    EXPECT_GE(hr, 0.0);
    EXPECT_LT(hr, 1.0) << "run " << i;
    hit_ratios.push_back(hr);
    EXPECT_LE(gwarm.plan_cache().entries(), gwarm.plan_cache().capacity());
  }
  // Monotone-sane trajectory: warm runs never do worse than the cold first
  // run, and the deterministic churn reaches a steady state (the repeating
  // trajectory leaves the same LRU composition after every run).
  for (std::size_t i = 1; i < hit_ratios.size(); ++i) {
    EXPECT_GE(hit_ratios[i], hit_ratios[0]) << "run " << i;
  }
  EXPECT_DOUBLE_EQ(hit_ratios[2], hit_ratios[1]);
  EXPECT_DOUBLE_EQ(hit_ratios[3], hit_ratios[2]);
  EXPECT_EQ(gwarm.plan_cache().capacity(), 4u);
  EXPECT_GT(gwarm.plan_cache().evictions(), 0u);
}

TEST(PlanCache, XorRelationAmongRootsDoesNotAliasStates) {
  // Regression: two entry states can have identical public values, flips and
  // fingerprint *equality classes* while differing in XOR-linear structure —
  // d3 holding exactly fp(d1)^fp(d2) versus an independent secret. A cache
  // keyed on equality classes alone replays the relation-state plan (which
  // collapses AND(d1^d2, d3) as category iii) in the independent state,
  // silently corrupting results. The signature must encode the XOR relation.
  //
  // d1, d2 hold party secrets; d3.d = MUX(pub_sel, d1^d2, fresh Bob stream).
  // The output AND(d1^d2, d3) collapses only in the relation state.
  builder::CircuitBuilder cb;
  const auto d1 = cb.make_dff(netlist::Dff::Init::AliceBit, 0);
  const auto d2 = cb.make_dff(netlist::Dff::Init::BobBit, 0);
  const auto d3 = cb.make_dff(netlist::Dff::Init::BobBit, 1);
  const builder::Wire sel = cb.input(netlist::Owner::Public, 0, /*streamed=*/true);
  const builder::Wire fresh = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const builder::Wire x = cb.xor_(cb.dff_out(d1), cb.dff_out(d2));
  cb.set_dff_d(d1, cb.dff_out(d1));
  cb.set_dff_d(d2, cb.dff_out(d2));
  cb.set_dff_d(d3, cb.mux(sel, x, fresh));
  cb.output(cb.and_(x, cb.dff_out(d3)), "y");
  cb.set_outputs_every_cycle(true);
  const netlist::WireId xw = x.id;
  const netlist::WireId d3w = cb.dff_out(d3).id;
  netlist::Netlist nl = cb.take();
  // Also cover the affine ignore-one-input case: a raw tt="b" gate whose
  // category-iii collapse (PassA when fp(x)==fp(d3)) silently passes the
  // wrong wire after drift unless the hit verifier re-checks it. Appended at
  // netlist level — the builder would fold the trivial table away.
  nl.gates.push_back(netlist::Gate{xw, d3w, netlist::kTtB});
  nl.outputs.push_back(netlist::OutputPort{
      nl.gate_wire(nl.gates.size() - 1), false, "d3_through_b"});

  // sel = 1,1,1,0,1: cycles 2 and 3 enter the relation state (sel=1) — the
  // second sighting admits its plan — and cycle 4 latches an independent d3
  // yet re-enters with sel=1 on cycle... (the hazard cycle is the one whose
  // entry is (independent d3, same publics)). Walk several sel/input
  // patterns and compare against the uncached driver on every cycle.
  const std::vector<bool> sel_stream = {true, true, true, false, true, true, false, true};
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    crypto::CtrRng rng(crypto::block_from_u64(seed * 7 + 3));
    const netlist::BitVec alice = {rng.next_bool()};
    const netlist::BitVec bob = {rng.next_bool(), rng.next_bool()};
    core::StreamProvider streams;
    streams.pub = [&](std::uint64_t c) { return netlist::BitVec{sel_stream[c]}; };
    streams.bob = [&, seed](std::uint64_t c) {
      return netlist::BitVec{((seed >> (c % 3)) & 1) != 0};
    };
    core::RunOptions cached;
    cached.fixed_cycles = sel_stream.size();
    core::RunOptions uncached = cached;
    uncached.exec.plan_cache = false;
    const core::RunResult rc =
        core::SkipGateDriver(nl, cached).run(alice, bob, {}, &streams);
    const core::RunResult ru =
        core::SkipGateDriver(nl, uncached).run(alice, bob, {}, &streams);
    EXPECT_EQ(rc.sampled_outputs, ru.sampled_outputs) << "seed " << seed;
    EXPECT_EQ(rc.stats.garbled_non_xor, ru.stats.garbled_non_xor) << "seed " << seed;
  }

  // Non-vacuity: the cached planner must serve whole-entry hits AND reject
  // a drifted one (the independent-d3 state re-entering the relation
  // state's signature) — otherwise the comparison above never reached the
  // compiled verify program. The planner consumes public data only, so this
  // replays the driver's cache trajectory over the same select stream.
  Planner planner(nl, PlannerOptions{});
  planner.reset({});
  for (std::size_t c = 0; c < sel_stream.size(); ++c) {
    planner.begin_cycle(netlist::BitVec{sel_stream[c]});
    planner.forward();
    const bool is_final = c + 1 == sel_stream.size();
    const CyclePlan plan = planner.finish(is_final);
    if (!is_final) planner.latch(plan);
  }
  EXPECT_GT(planner.cache_hits(), 0u);
  EXPECT_GT(planner.verify_rejects(), 0u);
}

/// Drift in both directions for each decision kind the compiled verify
/// program checks: AND(x, d3) cached as category iv hit with equal input
/// fingerprints and cached as category iii hit with distinct ones; the XOR
/// d4 ^ (x ^ d5) cached as PassSrc hit with no matching candidate and cached
/// as FreeXor hit with one. d3/d4 latch either x = d1^d2 or a fresh Bob bit
/// on their own public select, so XOR relations among roots appear and
/// vanish under unchanged signatures: each drifting comparison is a kept
/// relation over three or more roots. d6 latches z = d4 ^ d5, a free XOR no
/// hit computes, so a hit latches d6 from its compiled latch form, while d9
/// latches the root d4 itself. AND(d6, d9 ^ d5) collapses every cycle after
/// the first — exactly when d6 carries the fingerprint z had — so a wrongly
/// latched d6 shows in the next cycle's plan. The planner's kept signature
/// must equal a from-scratch one on every cycle, the cycles after a
/// rejected hit included.
TEST(PlanCache, XorDriftRejectedInEveryDecisionKind) {
  builder::CircuitBuilder cb;
  const auto d1 = cb.make_dff(netlist::Dff::Init::AliceBit, 0);
  const auto d2 = cb.make_dff(netlist::Dff::Init::BobBit, 0);
  const auto d3 = cb.make_dff(netlist::Dff::Init::BobBit, 1);
  const auto d4 = cb.make_dff(netlist::Dff::Init::BobBit, 2);
  const auto d5 = cb.make_dff(netlist::Dff::Init::AliceBit, 1);
  const auto d6 = cb.make_dff(netlist::Dff::Init::BobBit, 3);
  const auto d9 = cb.make_dff(netlist::Dff::Init::AliceBit, 2);
  const builder::Wire s0 = cb.input(netlist::Owner::Public, 0, /*streamed=*/true);
  const builder::Wire s1 = cb.input(netlist::Owner::Public, 1, /*streamed=*/true);
  const builder::Wire f0 = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const builder::Wire f1 = cb.input(netlist::Owner::Bob, 1, /*streamed=*/true);
  const builder::Wire x = cb.xor_(cb.dff_out(d1), cb.dff_out(d2));
  for (const auto d : {d1, d2, d5}) cb.set_dff_d(d, cb.dff_out(d));
  cb.set_dff_d(d3, cb.mux(s0, x, f0));
  cb.set_dff_d(d4, cb.mux(s1, x, f1));
  cb.output(cb.and_(x, cb.dff_out(d3)), "x_and_d3");
  // d4 ^ (x ^ d5) cancels to d5 exactly when d4 carries x.
  cb.output(cb.xor_(cb.dff_out(d4), cb.xor_(x, cb.dff_out(d5))), "y");
  cb.set_dff_d(d6, cb.xor_(cb.dff_out(d4), cb.dff_out(d5)));
  cb.set_dff_d(d9, cb.dff_out(d4));
  cb.output(cb.and_(cb.dff_out(d6), cb.xor_(cb.dff_out(d9), cb.dff_out(d5))), "d6_and_d9x");
  cb.set_outputs_every_cycle(true);
  const netlist::Netlist nl = cb.take();

  // (s0, s1) per cycle. d3 (d4) enters a cycle carrying x iff s0 (s1) was
  // set the cycle before. Second-sighting admission caches whichever state
  // re-enters a signature second; the streams then re-enter each cached
  // signature in both states.
  const std::vector<std::vector<std::pair<bool, bool>>> scenarios = {
      {{false, false}, {true, false}, {false, false}, {true, false}, {false, false},
       {true, false}, {true, false}, {false, false}, {false, false}},
      {{false, false}, {false, true}, {false, false}, {false, true}, {false, true},
       {false, true}, {false, false}, {false, false}, {false, true}, {false, true}},
  };
  for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
    const auto& st = scenarios[sc];
    const auto pub = [&](std::uint64_t c) { return netlist::BitVec{st[c].first, st[c].second}; };

    // Plan level: the cached planner equals a from-scratch one every cycle
    // and actually rejected a drifted hit.
    PlannerOptions fresh;
    fresh.cache = false;
    Planner pc(nl, PlannerOptions{});
    Planner pf(nl, fresh);
    pc.reset({});
    pf.reset({});
    std::uint64_t checked_after_reject = 0;
    for (std::size_t c = 0; c < st.size(); ++c) {
      pc.begin_cycle(pub(c));
      pf.begin_cycle(pub(c));
      expect_signature_kept(pc, static_cast<int>(sc), c);
      if (pc.verify_rejects() > 0) ++checked_after_reject;
      pc.forward();
      pf.forward();
      const bool is_final = c + 1 == st.size();
      const CyclePlan a = pc.finish(is_final);
      const CyclePlan b = pf.finish(is_final);
      expect_plans_equal(a, b);
      if (!is_final) {
        pc.latch(a);
        pf.latch(b);
      }
    }
    EXPECT_GT(pc.cache_hits(), 0u) << "scenario " << sc;
    EXPECT_GT(pc.verify_rejects(), 0u) << "scenario " << sc;
    EXPECT_GT(checked_after_reject, 0u) << "scenario " << sc;
    EXPECT_GT(pc.relation_checks(), 0u) << "scenario " << sc;

    // Protocol level: cached and uncached runs agree on every sampled
    // output and garbled-gate count.
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      core::StreamProvider streams;
      streams.pub = pub;
      streams.bob = [seed](std::uint64_t c) {
        return netlist::BitVec{((seed >> (c % 2)) & 1) != 0, ((seed + c) & 1) != 0};
      };
      const netlist::BitVec alice = {(seed & 1) != 0, (seed & 2) != 0, (seed & 2) == 0};
      const netlist::BitVec bob = {(seed & 2) == 0, (seed & 1) == 0, true, (seed & 1) != 0};
      core::RunOptions cached;
      cached.fixed_cycles = st.size();
      core::RunOptions uncached = cached;
      uncached.exec.plan_cache = false;
      const core::RunResult rc = core::SkipGateDriver(nl, cached).run(alice, bob, {}, &streams);
      const core::RunResult ru = core::SkipGateDriver(nl, uncached).run(alice, bob, {}, &streams);
      EXPECT_EQ(rc.sampled_outputs, ru.sampled_outputs) << "scenario " << sc << " seed " << seed;
      EXPECT_EQ(rc.stats.garbled_non_xor, ru.stats.garbled_non_xor)
          << "scenario " << sc << " seed " << seed;
    }
  }
}

/// The only decision that drifts is AND(x, d3) — category iii when d3
/// carries x = d1^d2, category iv when it holds a fresh Bob bit — and the
/// free XOR w = d5 ^ d1 comes after it in gate order. w feeds flip-flop d7,
/// so the cycle after a rejection latches w's fingerprint from the fallback
/// classification. A rejected hit must leave the planner exactly where a
/// from-scratch planner is.
TEST(PlanCache, DriftInACheckAfterLaterWritesRejects) {
  builder::CircuitBuilder cb;
  const auto d1 = cb.make_dff(netlist::Dff::Init::AliceBit, 0);
  const auto d2 = cb.make_dff(netlist::Dff::Init::BobBit, 0);
  const auto d3 = cb.make_dff(netlist::Dff::Init::BobBit, 1);
  const auto d5 = cb.make_dff(netlist::Dff::Init::AliceBit, 1);
  const auto d7 = cb.make_dff(netlist::Dff::Init::BobBit, 2);
  const builder::Wire s0 = cb.input(netlist::Owner::Public, 0, /*streamed=*/true);
  const builder::Wire f0 = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const builder::Wire x = cb.xor_(cb.dff_out(d1), cb.dff_out(d2));
  cb.set_dff_d(d3, cb.mux(s0, x, f0));
  cb.output(cb.and_(x, cb.dff_out(d3)), "x_and_d3");
  const builder::Wire w = cb.xor_(cb.dff_out(d5), cb.dff_out(d1));
  for (const auto d : {d1, d2, d5}) cb.set_dff_d(d, cb.dff_out(d));
  cb.set_dff_d(d7, w);
  cb.output(cb.and_(cb.dff_out(d7), cb.dff_out(d2)), "d7_and_d2");
  cb.set_outputs_every_cycle(true);
  const netlist::Netlist nl = cb.take();

  // d3 enters a cycle carrying x iff s0 was set the cycle before. With
  // second-sighting admission, s0 = 0 caches the x state (cycle 2) and
  // s0 = 1 the fresh state (cycle 3); cycles 6 and 8 re-enter those
  // signatures in the other state.
  const std::vector<bool> s0s = {false, true, false, true, false, true, true, false, false, true,
                                 false, false};
  PlannerOptions fresh;
  fresh.cache = false;
  Planner pc(nl, PlannerOptions{});
  Planner pf(nl, fresh);
  pc.reset({});
  pf.reset({});
  std::uint64_t cycles_after_reject = 0;
  for (std::size_t c = 0; c < s0s.size(); ++c) {
    pc.begin_cycle(netlist::BitVec{s0s[c]});
    pf.begin_cycle(netlist::BitVec{s0s[c]});
    expect_signature_kept(pc, 0, c);
    if (pc.verify_rejects() > 0) ++cycles_after_reject;
    pc.forward();
    pf.forward();
    const bool is_final = c + 1 == s0s.size();
    const CyclePlan a = pc.finish(is_final);
    const CyclePlan b = pf.finish(is_final);
    expect_plans_equal(a, b);
    if (!is_final) {
      pc.latch(a);
      pf.latch(b);
    }
  }
  EXPECT_GT(pc.cache_hits(), 0u);
  EXPECT_GT(pc.verify_rejects(), 0u);
  EXPECT_GT(cycles_after_reject, 0u);

  // Protocol level: every sampled output and garbled-gate count equals an
  // uncached run's.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    core::StreamProvider streams;
    streams.pub = [&](std::uint64_t c) { return netlist::BitVec{s0s[c]}; };
    streams.bob = [seed](std::uint64_t c) { return netlist::BitVec{((seed + c) & 1) != 0}; };
    const netlist::BitVec alice = {(seed & 1) != 0, (seed & 2) != 0};
    const netlist::BitVec bob = {(seed & 2) == 0, (seed & 1) == 0, true};
    core::RunOptions cached;
    cached.fixed_cycles = s0s.size();
    core::RunOptions uncached = cached;
    uncached.exec.plan_cache = false;
    const core::RunResult rc = core::SkipGateDriver(nl, cached).run(alice, bob, {}, &streams);
    const core::RunResult ru = core::SkipGateDriver(nl, uncached).run(alice, bob, {}, &streams);
    EXPECT_EQ(rc.sampled_outputs, ru.sampled_outputs) << "seed " << seed;
    EXPECT_EQ(rc.stats.garbled_non_xor, ru.stats.garbled_non_xor) << "seed " << seed;
  }
}

/// Replays `pubs` through `pc` and an uncached planner side by side: every
/// cycle's plans must be byte-equal and pc's kept signature must equal a
/// from-scratch one. `before_forward(c)` sees pc after begin_cycle(c).
template <typename Fn>
void replay_against_fresh(const netlist::Netlist& nl, const std::vector<netlist::BitVec>& pubs,
                          Planner& pc, Fn&& before_forward) {
  PlannerOptions fresh;
  fresh.cache = false;
  Planner pf(nl, fresh);
  pc.reset({});
  pf.reset({});
  for (std::size_t c = 0; c < pubs.size(); ++c) {
    pc.begin_cycle(pubs[c]);
    pf.begin_cycle(pubs[c]);
    expect_signature_kept(pc, 0, c);
    before_forward(c);
    pc.forward();
    pf.forward();
    const bool is_final = c + 1 == pubs.size();
    const CyclePlan a = pc.finish(is_final);
    const CyclePlan b = pf.finish(is_final);
    expect_plans_equal(a, b);
    if (!is_final) {
      pc.latch(a);
      pf.latch(b);
    }
  }
}

/// Cached and uncached driver runs over `pubs` agree on every sampled output
/// and garbled-gate count, for a few private input patterns (`alice_bits`
/// and `bob_bits` fixed bits, `bob_stream` streamed Bob bits per cycle).
void expect_driver_matches_uncached(const netlist::Netlist& nl,
                                    const std::vector<netlist::BitVec>& pubs,
                                    std::size_t alice_bits, std::size_t bob_bits,
                                    std::size_t bob_stream) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    core::StreamProvider streams;
    streams.pub = [&](std::uint64_t c) { return pubs[c]; };
    streams.bob = [seed, bob_stream](std::uint64_t c) {
      return to_bits((seed * 5 + c * 3) ^ (c >> 1), bob_stream);
    };
    const netlist::BitVec alice = to_bits(seed * 3 + 1, alice_bits);
    const netlist::BitVec bob = to_bits(seed ^ 5, bob_bits);
    core::RunOptions cached;
    cached.fixed_cycles = pubs.size();
    core::RunOptions uncached = cached;
    uncached.exec.plan_cache = false;
    const core::RunResult rc = core::SkipGateDriver(nl, cached).run(alice, bob, {}, &streams);
    const core::RunResult ru = core::SkipGateDriver(nl, uncached).run(alice, bob, {}, &streams);
    EXPECT_EQ(rc.sampled_outputs, ru.sampled_outputs) << "seed " << seed;
    EXPECT_EQ(rc.stats.garbled_non_xor, ru.stats.garbled_non_xor) << "seed " << seed;
  }
}

/// A garbled term that cancels between the two sides of a comparison:
/// u = g ^ d1 against v = g ^ d2, with g = AND(a, b) garbled every cycle.
/// What remains is d1 against d2, which the signature decides — d2 latches
/// d1 or a fresh Bob bit on a public select, and the two states have
/// different signatures (d2's class representative is d1 or d2). So AND(u, v)
/// collapses exactly in the equal state, both states are served from the
/// cache, and no hit is ever rejected: a stale plan could only come from
/// deciding the comparison wrong. AND(d1 ^ d3, d4) adds a relation over three
/// roots, which every hit checks.
TEST(PlanCache, DerivedTermCancellingBetweenSidesIsDecidedBySignature) {
  builder::CircuitBuilder cb;
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0);
  const builder::Wire b = cb.input(netlist::Owner::Bob, 0);
  const auto d1 = cb.make_dff(netlist::Dff::Init::AliceBit, 1);
  const auto d2 = cb.make_dff(netlist::Dff::Init::BobBit, 1);
  const auto d3 = cb.make_dff(netlist::Dff::Init::AliceBit, 2);
  const auto d4 = cb.make_dff(netlist::Dff::Init::BobBit, 2);
  const builder::Wire s0 = cb.input(netlist::Owner::Public, 0, /*streamed=*/true);
  const builder::Wire f0 = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const builder::Wire g = cb.and_(a, b);
  const builder::Wire u = cb.xor_(g, cb.dff_out(d1));
  const builder::Wire v = cb.xor_(g, cb.dff_out(d2));
  for (const auto d : {d1, d3, d4}) cb.set_dff_d(d, cb.dff_out(d));
  cb.set_dff_d(d2, cb.mux(s0, cb.dff_out(d1), f0));
  cb.output(cb.and_(u, v), "u_and_v");
  cb.output(cb.and_(cb.xor_(cb.dff_out(d1), cb.dff_out(d3)), cb.dff_out(d4)), "x_and_d4");
  cb.set_outputs_every_cycle(true);
  const netlist::WireId d1w = cb.dff_out(d1).id;
  const netlist::WireId d2w = cb.dff_out(d2).id;
  const netlist::Netlist nl = cb.take();

  // The entry state is (s0 of the previous cycle, s0): every pair recurs.
  const std::vector<bool> s0s = {false, false, true, true, false, true, false, false,
                                 true,  true,  false, true, false, false, true, true};
  std::vector<netlist::BitVec> pubs;
  for (const bool s : s0s) pubs.push_back(netlist::BitVec{s});
  Planner pc(nl, PlannerOptions{});
  std::array<std::uint64_t, 2> hits{};  // by state: [1] = d2 in d1's class
  bool equal_state = false;
  std::uint64_t hits_before = 0;
  replay_against_fresh(nl, pubs, pc, [&](std::size_t c) {
    if (c > 0) hits[equal_state ? 1 : 0] += pc.cache_hits() - hits_before;
    hits_before = pc.cache_hits();
    const std::uint32_t term = pc.signature_terms()[d2w];
    equal_state = (term & 1) == 0 && (term >> 2) == d1w;
  });
  hits[equal_state ? 1 : 0] += pc.cache_hits() - hits_before;
  EXPECT_GT(hits[0], 0u);
  EXPECT_GT(hits[1], 0u);
  EXPECT_EQ(pc.verify_rejects(), 0u);
  EXPECT_GT(pc.relation_checks(), 0u);
  expect_driver_matches_uncached(nl, pubs, 3, 3, 1);
}

/// A relation over four roots that drifts under an unchanged signature: d4
/// latches d1 ^ d2 ^ d3 or a fresh Bob bit on a public select, and
/// AND(d1 ^ d2, d3 ^ d4) collapses (category iii) exactly when it carries
/// the XOR. Neither side has a derived term and each has two roots, so the
/// comparison is the kept relation {d1, d2, d3, d4}; the cache must reject
/// the drifted hits.
TEST(PlanCache, FourRootRelationDriftRejects) {
  builder::CircuitBuilder cb;
  const auto d1 = cb.make_dff(netlist::Dff::Init::AliceBit, 0);
  const auto d2 = cb.make_dff(netlist::Dff::Init::BobBit, 0);
  const auto d3 = cb.make_dff(netlist::Dff::Init::AliceBit, 1);
  const auto d4 = cb.make_dff(netlist::Dff::Init::BobBit, 1);
  const builder::Wire s0 = cb.input(netlist::Owner::Public, 0, /*streamed=*/true);
  const builder::Wire f0 = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const builder::Wire x = cb.xor_(cb.dff_out(d1), cb.dff_out(d2));
  for (const auto d : {d1, d2, d3}) cb.set_dff_d(d, cb.dff_out(d));
  cb.set_dff_d(d4, cb.mux(s0, cb.xor_(x, cb.dff_out(d3)), f0));
  cb.output(cb.and_(x, cb.xor_(cb.dff_out(d3), cb.dff_out(d4))), "x_and_d3d4");
  cb.set_outputs_every_cycle(true);
  const netlist::Netlist nl = cb.take();

  // d4 enters a cycle carrying the XOR iff s0 was set the cycle before; the
  // signature sees only this cycle's s0, so each cached signature is
  // re-entered in both states.
  const std::vector<bool> s0s = {false, true, false, true, false, true, true, false, false,
                                 true,  true, false};
  std::vector<netlist::BitVec> pubs;
  for (const bool s : s0s) pubs.push_back(netlist::BitVec{s});
  Planner pc(nl, PlannerOptions{});
  std::uint64_t cycles_after_reject = 0;
  replay_against_fresh(nl, pubs, pc, [&](std::size_t) {
    if (pc.verify_rejects() > 0) ++cycles_after_reject;
  });
  EXPECT_GT(pc.cache_hits(), 0u);
  EXPECT_GT(pc.verify_rejects(), 0u);
  EXPECT_GT(cycles_after_reject, 0u);
  EXPECT_GT(pc.relation_checks(), 0u);
  expect_driver_matches_uncached(nl, pubs, 2, 2, 1);
}

}  // namespace

namespace arm2gc::core {

/// Reaches into a PlanCache to corrupt a cached entry by hand.
struct PlanCacheTestPeer {
  static void set_action(PlanCache& cache, std::size_t gate, PlanAct act) {
    ASSERT_EQ(cache.entries(), 1u);
    PlanCache::Entry& e = cache.lru_.front();
    const auto it = std::find(e.touch.begin(), e.touch.end(), gate);
    ASSERT_NE(it, e.touch.end());
    e.touch_act[static_cast<std::size_t>(it - e.touch.begin())] = static_cast<std::uint8_t>(act);
    e.program = {};
  }

  /// Heap an entry's vectors hold (capacity bytes), summed over every cached
  /// entry, and how many touch lists or record arrays carry growth slack.
  struct Footprint {
    std::size_t bytes = 0;
    std::size_t records = 0;
    std::size_t inexact = 0;
  };
  static Footprint footprint(const PlanCache& cache) {
    Footprint f;
    const auto cap = [](const auto& v) { return v.capacity() * sizeof(*v.data()); };
    const auto slack = [](const auto& v) { return v.capacity() != v.size() ? 1u : 0u; };
    for (const PlanCache::Entry& e : cache.lru_) {
      f.bytes += cap(e.sig) + cap(e.next_diff) + cap(e.wire_bits) + cap(e.touch) +
                 cap(e.touch_act) + cap(e.touch_src) + cap(e.touch_off) + cap(e.program.code) +
                 cap(e.latch_dffs) + cap(e.latch_src);
      for (const PlanCache::Backward& b : e.backward) {
        f.bytes += cap(b.work) + cap(b.work_act) + cap(b.work_src) + cap(b.slices) +
                   cap(b.emit_base);
      }
      f.records += e.touch.size();
      f.inexact += slack(e.touch) + slack(e.touch_act) + slack(e.touch_src);
    }
    return f;
  }
};

}  // namespace arm2gc::core

namespace {

/// An entry whose cached action contradicts a comparison the compiler can
/// decide — AND(a, b) of two distinct secret inputs is category iv by the
/// signature alone, so a cached PassA (the equal outcome) contradicts it —
/// or matches neither outcome of its decision (a cached FreeXor for an AND)
/// must compile to a program that never verifies: every hit on it is
/// rejected and served by reclassification, so every plan still equals an
/// uncached planner's.
TEST(PlanCache, ContradictedDecisionNeverVerifies) {
  builder::CircuitBuilder cb;
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0);
  const builder::Wire b = cb.input(netlist::Owner::Bob, 0);
  cb.output(cb.and_(a, b), "y");
  cb.set_outputs_every_cycle(true);
  const netlist::Netlist nl = cb.take();
  ASSERT_EQ(nl.gates.size(), 1u);

  for (const core::PlanAct corrupt : {core::PlanAct::PassA, core::PlanAct::FreeXor}) {
    core::PlanCache cache;  // first-sight admission: cycle 0 inserts
    PlannerOptions opts;
    opts.shared_cache = &cache;
    Planner pc(nl, opts);
    const std::vector<netlist::BitVec> pubs(6);
    replay_against_fresh(nl, pubs, pc, [&](std::size_t c) {
      if (c == 1) core::PlanCacheTestPeer::set_action(cache, 0, corrupt);
    });
    EXPECT_EQ(pc.cache_hits(), 0u);
    EXPECT_EQ(pc.verify_rejects(), pubs.size() - 1);
    EXPECT_EQ(pc.relation_checks(), 0u);
  }
}

/// Flip-flops whose D-inputs change kind from cycle to cycle: t toggles
/// between a public constant and a secret input on a public streamed
/// select; h holds its own secret value unless a public enable loads a
/// fresh one (the hold the latch list leaves out); k always holds while f
/// feeds back its own output inverted (same source, changed parity — not a
/// hold); and s1 -> s2 is a chain whose D-input is another flip-flop's
/// output, latched inverted (the two-pass latch order).
netlist::Netlist toggle_netlist() {
  builder::CircuitBuilder cb;
  const builder::Wire sel = cb.input(netlist::Owner::Public, 0, /*streamed=*/true);
  const builder::Wire en = cb.input(netlist::Owner::Public, 1, /*streamed=*/true);
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0, /*streamed=*/true);
  const builder::Wire b = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const auto t = cb.make_dff(netlist::Dff::Init::Zero);
  const auto h = cb.make_dff(netlist::Dff::Init::BobBit, 0);
  const auto k = cb.make_dff(netlist::Dff::Init::AliceBit, 1);
  const auto f = cb.make_dff(netlist::Dff::Init::BobBit, 1);
  const auto s1 = cb.make_dff(netlist::Dff::Init::AliceBit, 0);
  const auto s2 = cb.make_dff(netlist::Dff::Init::One);
  cb.set_dff_d(t, cb.mux(sel, a, cb.constant(true)));
  cb.set_dff_d(h, cb.mux(en, cb.xor_(a, b), cb.dff_out(h)));
  cb.set_dff_d(k, cb.dff_out(k));
  cb.set_dff_d(f, builder::CircuitBuilder::not_(cb.dff_out(f)));
  cb.set_dff_d(s1, cb.xor_(cb.dff_out(t), cb.dff_out(h)));
  cb.set_dff_d(s2, builder::CircuitBuilder::not_(cb.dff_out(s1)));
  cb.output(cb.and_(cb.dff_out(t), b), "tb");
  cb.output(cb.and_(cb.dff_out(h), cb.dff_out(s2)), "hs");
  cb.output(cb.and_(cb.dff_out(k), cb.dff_out(s1)), "ks");
  cb.output(cb.dff_out(s2), "s2");
  cb.output(cb.and_(cb.dff_out(f), cb.dff_out(t)), "ft");
  cb.set_outputs_every_cycle(true);
  return cb.take();
}

/// Warm runs (one WarmState pair across three runs: whole-entry hits,
/// compiled verification) and uncached runs of `nl` over the public streams
/// `pubs`, in both modes and compositions, must agree bit for bit — outputs,
/// table digest, garbled and live gate counts — and match the cleartext
/// simulation. Private bits vary per run: fixed Alice/Bob bits 0-1 and one
/// streamed bit each.
void expect_warm_runs_match_uncached(const netlist::Netlist& nl,
                                     const std::vector<netlist::BitVec>& pubs) {
  for (const Mode mode : {Mode::SkipGate, Mode::Conventional}) {
    for (const a2gtest::Composition c : a2gtest::kCompositions) {
      core::WarmState gwarm(core::Role::Garbler);
      core::WarmState ewarm(core::Role::Evaluator);
      core::RunOptions warm;
      warm.mode = mode;
      warm.fixed_cycles = pubs.size();
      warm.exec.garbler_warm = &gwarm;
      warm.exec.evaluator_warm = &ewarm;
      core::RunOptions cold;
      cold.mode = mode;
      cold.fixed_cycles = pubs.size();
      cold.exec.plan_cache = false;

      for (std::uint64_t run = 0; run < 3; ++run) {
        const netlist::BitVec alice = {(run & 1) != 0, (run & 2) == 0};
        const netlist::BitVec bob = {(run & 1) == 0, (run & 2) != 0};
        core::StreamProvider streams;
        streams.pub = [&](std::uint64_t cy) { return pubs[cy]; };
        streams.alice = [run](std::uint64_t cy) {
          return netlist::BitVec{(((run + 1) * 0x5b >> cy) & 1) != 0};
        };
        streams.bob = [run](std::uint64_t cy) {
          return netlist::BitVec{(((run + 3) * 0x6d >> cy) & 1) != 0};
        };
        const core::RunResult rw = a2gtest::run_composed(c, nl, warm, alice, bob, {}, &streams);
        const core::RunResult rc = a2gtest::run_composed(c, nl, cold, alice, bob, {}, &streams);
        EXPECT_EQ(rw.sampled_outputs, rc.sampled_outputs) << "run " << run;
        EXPECT_TRUE(rw.stats.table_digest == rc.stats.table_digest) << "run " << run;
        EXPECT_EQ(rw.stats.garbled_non_xor, rc.stats.garbled_non_xor) << "run " << run;
        EXPECT_EQ(rw.stats.live_gates, rc.stats.live_gates) << "run " << run;
        if (run > 0) {
          EXPECT_GT(rw.stats.plan_cache_hits, 0u) << "run " << run;
        }

        netlist::Simulator sim(nl);
        sim.reset(alice, bob);
        ASSERT_EQ(rw.sampled_outputs.size(), pubs.size());
        for (std::uint64_t cy = 0; cy < pubs.size(); ++cy) {
          sim.step(streams.alice(cy), streams.bob(cy), streams.pub(cy));
          EXPECT_EQ(rw.sampled_outputs[cy], sim.read_outputs()) << "run " << run << " cycle " << cy;
        }
      }
    }
  }
}

/// The latch lists (CyclePlan::secret_dffs) drive which flip-flop labels
/// both sessions carry across cycles. Warm runs in both compositions and
/// modes must match the uncached reference bit for bit and the cleartext
/// simulation.
TEST(PlanCache, FlipFlopToggleWarmRunsMatchUncached) {
  const std::vector<bool> sel = {true, false, true, false, true, true, false, false, true, false};
  const std::vector<bool> en = {false, false, true, false, false, false, true, false, false, true};
  std::vector<netlist::BitVec> pubs;
  for (std::size_t cy = 0; cy < sel.size(); ++cy) pubs.push_back({sel[cy], en[cy]});
  expect_warm_runs_match_uncached(toggle_netlist(), pubs);
}

/// Global gate index -> collapsed source of every work item of `plan`.
std::map<std::size_t, netlist::WireId> work_items(const CyclePlan& plan) {
  std::map<std::size_t, netlist::WireId> items;
  for (std::size_t si = 0; si < plan.num_slices; ++si) {
    const core::PlanSlice& sl = plan.slices[si];
    for (std::uint32_t k = 0; k < sl.work_count; ++k) {
      items[sl.work[k]] = sl.work_src[k];
    }
  }
  return items;
}

/// Runs a planner over `pubs` (uncached, or with its own cache) and hands
/// each cycle's plan to `check(cycle, plan)`.
template <typename Fn>
void for_each_plan(const netlist::Netlist& nl, const std::vector<netlist::BitVec>& pubs,
                   bool cache, Fn&& check) {
  PlannerOptions opts;
  opts.cache = cache;
  Planner p(nl, opts);
  p.reset({});
  for (std::size_t c = 0; c < pubs.size(); ++c) {
    p.begin_cycle(pubs[c]);
    p.forward();
    const bool is_final = c + 1 == pubs.size();
    const CyclePlan plan = p.finish(is_final);
    check(c, plan);
    if (!is_final) p.latch(plan);
  }
  if (cache) {
    EXPECT_GT(p.cache_hits(), 0u);
  }
}

/// A public-select mux chain of three hops from secret `a` into AND(., b):
/// with every select high each hop is an XOR-cancellation pass (PassSrc) of
/// the previous one, so the sessions execute only the last hop — copying
/// a's label directly — and the AND.
TEST(LiveSet, PublicSelectMuxChainCollapsesToItsSource) {
  builder::CircuitBuilder cb;
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0);
  const builder::Wire b = cb.input(netlist::Owner::Bob, 0);
  const builder::Wire x0 = cb.input(netlist::Owner::Alice, 1);
  const builder::Wire x1 = cb.input(netlist::Owner::Bob, 1);
  const builder::Wire x2 = cb.input(netlist::Owner::Alice, 0, /*streamed=*/true);
  const std::array<builder::Wire, 3> xs = {x0, x1, x2};
  // Every input before the first gate: take() keeps the wire ids then.
  std::array<builder::Wire, 3> sel{};
  for (std::uint32_t i = 0; i < 3; ++i) {
    sel[i] = cb.input(netlist::Owner::Public, i, /*streamed=*/true);
  }
  builder::Wire m = a;
  std::vector<builder::Wire> hops;
  for (std::uint32_t i = 0; i < 3; ++i) {
    m = cb.mux(sel[i], m, xs[i]);
    hops.push_back(m);
  }
  const builder::Wire y = cb.and_(m, b);
  cb.output(y, "y");
  cb.set_outputs_every_cycle(true);
  const netlist::Netlist nl = cb.take();
  const netlist::WireId first_gate = nl.first_gate_wire();
  for (const builder::Wire h : hops) ASSERT_GE(h.id, first_gate);

  const std::vector<netlist::BitVec> all_high(4, netlist::BitVec{true, true, true});
  for (const bool cache : {false, true}) {
    for_each_plan(nl, all_high, cache, [&](std::size_t c, const CyclePlan& plan) {
      // Each hop's record names the chain's source, so no hop reads another.
      for (const builder::Wire h : hops) {
        const std::size_t t = record_of(plan, h.id - first_gate);
        ASSERT_LT(t, plan.records.count);
        ASSERT_EQ(static_cast<core::PlanAct>(plan.records.act[t]), core::PlanAct::PassSrc);
        EXPECT_EQ(plan.records.src[t], a.id);
      }
      const std::map<std::size_t, netlist::WireId> items = work_items(plan);
      const std::map<std::size_t, netlist::WireId> expect = {
          {hops.back().id - first_gate, a.id}, {y.id - first_gate, y.id}};
      EXPECT_EQ(items, expect) << "cache " << cache << " cycle " << c;
      EXPECT_EQ(plan.emitted, 1u);
    });
  }

  // Mixed selects pass x0/x1 part of the way; every combination recurs.
  std::vector<netlist::BitVec> pubs;
  for (std::uint64_t cy = 0; cy < 12; ++cy) pubs.push_back(to_bits((cy * 5) % 8, 3));
  expect_warm_runs_match_uncached(nl, pubs);
}

/// A secret register with a public enable: while the enable is low its
/// D-input passes its own output through (a hold), so the register leaves
/// the latch list and its D cone — the mux hop and the garbled AND it would
/// load — leaves the work list. When the enable goes high it latches.
TEST(LiveSet, HeldRegisterKeepsItsDConeOffTheWorkList) {
  builder::CircuitBuilder cb;
  const builder::Wire en = cb.input(netlist::Owner::Public, 0, /*streamed=*/true);
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0, /*streamed=*/true);
  const builder::Wire b = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const builder::Wire c = cb.input(netlist::Owner::Alice, 0);
  const auto h = cb.make_dff(netlist::Dff::Init::BobBit, 0);
  const builder::Wire load = cb.and_(a, b);
  const builder::Wire d = cb.mux(en, load, cb.dff_out(h));
  cb.set_dff_d(h, d);
  const builder::Wire y = cb.and_(cb.dff_out(h), c);
  cb.output(y, "y");
  cb.set_outputs_every_cycle(true);
  const netlist::Netlist nl = cb.take();
  const netlist::WireId first_gate = nl.first_gate_wire();
  ASSERT_GE(d.id, first_gate);
  ASSERT_GE(load.id, first_gate);

  const std::vector<bool> ens = {false, false, true, false, true, true, false, false};
  std::vector<netlist::BitVec> pubs;
  for (const bool e : ens) pubs.push_back(netlist::BitVec{e});
  for (const bool cache : {false, true}) {
    for_each_plan(nl, pubs, cache, [&](std::size_t cy, const CyclePlan& plan) {
      const std::map<std::size_t, netlist::WireId> items = work_items(plan);
      const bool latches = ens[cy] && !plan.is_final;
      EXPECT_EQ(plan.num_secret_dffs, latches ? 1u : 0u) << "cycle " << cy;
      EXPECT_EQ(items.count(d.id - first_gate), latches ? 1u : 0u) << "cycle " << cy;
      EXPECT_EQ(items.count(load.id - first_gate), latches ? 1u : 0u) << "cycle " << cy;
      EXPECT_EQ(items.count(y.id - first_gate), 1u) << "cycle " << cy;
      EXPECT_EQ(plan.emitted, latches ? 2u : 1u) << "cycle " << cy;
    });
  }
  expect_warm_runs_match_uncached(nl, pubs);
}

/// A garbled AND's output travels a public-select mux chain whose hops are
/// spread over later cone slices by filler gates. With every select high the
/// sessions run only the last hop, which copies the AND's label from two or
/// more slices upstream, past the slices in between. Runs in both
/// compositions must match the lock-step reference and the cleartext
/// simulation.
TEST(LiveSet, PassChainAcrossConeSlicesReadsItsSourceUpstream) {
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

  PlannerOptions popts;
  popts.cone_target_gates = 4;  // force a multi-cone layout
  Planner planner(nl, popts);
  planner.reset({});
  planner.begin_cycle(to_bits(0xF, kHops));
  planner.forward();
  const CyclePlan plan = planner.finish(true);
  const std::size_t last_hop = m.id - nl.first_gate_wire();
  std::size_t hop_slice = 0;
  std::size_t src_slice = 0;
  std::size_t hop_items = 0;
  for (std::size_t si = 0; si < plan.num_slices; ++si) {
    const core::PlanSlice& sl = plan.slices[si];
    if (src.id - nl.first_gate_wire() >= sl.first_gate) src_slice = si;
    for (std::uint32_t k = 0; k < sl.work_count; ++k) {
      if (sl.work[k] != last_hop) continue;
      EXPECT_EQ(sl.work_src[k], src.id);
      hop_slice = si;
      ++hop_items;
    }
  }
  ASSERT_EQ(hop_items, 1u);
  ASSERT_GE(hop_slice, src_slice + 2);

  core::StreamProvider streams;
  streams.pub = [](std::uint64_t c) { return to_bits(c % 3 == 0 ? 0xF : 0xF ^ (c & 3), kHops); };
  const netlist::BitVec alice = to_bits(0b10110, kHops + 1);
  const netlist::BitVec bob = to_bits(0b01101, kHops + 1);
  core::RunOptions opts;
  opts.fixed_cycles = 6;
  opts.exec.cone_target_gates = popts.cone_target_gates;
  const core::RunResult ref = core::SkipGateDriver(nl, opts).run(alice, bob, {}, &streams);
  netlist::Simulator sim(nl);
  sim.reset(alice, bob);
  ASSERT_EQ(ref.sampled_outputs.size(), *opts.fixed_cycles);
  for (std::uint64_t cy = 0; cy < *opts.fixed_cycles; ++cy) {
    sim.step({}, {}, streams.pub(cy));
    EXPECT_EQ(ref.sampled_outputs[cy], sim.read_outputs()) << "cycle " << cy;
  }
  for (const a2gtest::Composition c : a2gtest::kCompositions) {
    const core::RunResult r = a2gtest::run_composed(c, nl, opts, alice, bob, {}, &streams);
    EXPECT_EQ(r.sampled_outputs, ref.sampled_outputs);
    EXPECT_TRUE(r.stats.table_digest == ref.stats.table_digest);
    EXPECT_EQ(r.stats.garbled_non_xor, ref.stats.garbled_non_xor);
    EXPECT_EQ(r.stats.live_gates, ref.stats.live_gates);
    EXPECT_EQ(r.stats.comm.total(), ref.stats.comm.total());
  }
}

TEST(PlanCache, RejectsReuseAcrossNetlists) {
  crypto::CtrRng rng(crypto::block_from_u64(31337));
  const netlist::Netlist nl1 = random_seq_netlist(rng);
  netlist::Netlist nl2 = nl1;
  nl2.gates.push_back(netlist::Gate{netlist::kConst0, netlist::kConst1, netlist::kTtAnd});
  core::PlanCache cache;
  PlannerOptions opts;
  opts.shared_cache = &cache;
  Planner p1(nl1, opts);
  EXPECT_THROW(Planner p2(nl2, opts), std::invalid_argument);
}

TEST(PlanCache, RejectsReuseAcrossLayouts) {
  // The cache owns the cone layout its entries are indexed by: a planner
  // cutting the same netlist into other segments must not read them, in
  // either direction (coarser entries would be misread, finer ones read out
  // of range). A target that yields the same cuts is the same layout.
  crypto::CtrRng rng(crypto::block_from_u64(27183));
  const netlist::Netlist nl = random_seq_netlist(rng);
  PlannerOptions coarse;
  PlannerOptions fine = coarse;
  fine.cone_target_gates = 4;
  PlannerOptions whole = coarse;
  whole.cone_target_gates = 0;  // one segment, as the default target here

  core::PlanCache coarse_cache;
  coarse.shared_cache = fine.shared_cache = whole.shared_cache = &coarse_cache;
  Planner p1(nl, coarse);
  EXPECT_THROW(Planner p2(nl, fine), std::invalid_argument);
  EXPECT_NO_THROW(Planner p3(nl, whole));

  core::PlanCache fine_cache;
  coarse.shared_cache = fine.shared_cache = &fine_cache;
  Planner p4(nl, fine);
  ASSERT_GT(p4.layout().segments.size(), 1u);
  EXPECT_THROW(Planner p5(nl, coarse), std::invalid_argument);
}

// --- selector-driven entry states -------------------------------------------

/// Builds a netlist whose entry state is controlled by a `width`-bit
/// streamed public selector mixed with party secrets, so each selector
/// value is a distinct entry state with a non-trivial plan.
netlist::Netlist selector_netlist(std::uint32_t width) {
  builder::CircuitBuilder cb;
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0);
  const builder::Wire b = cb.input(netlist::Owner::Bob, 0);
  builder::Bus sel;
  for (std::uint32_t i = 0; i < width; ++i) {
    sel.push_back(cb.input(netlist::Owner::Public, i, /*streamed=*/true));
  }
  builder::Wire acc = cb.and_(a, b);
  for (const builder::Wire s : sel) acc = cb.and_(cb.xor_(acc, s), cb.or_(a, s));
  cb.output(acc, "y");
  cb.set_outputs_every_cycle(true);
  return cb.take();
}

TEST(PlanCache, LruEvictionBoundsEntries) {
  // A 1-byte budget clamps to the 4-entry capacity floor. Drive the 8
  // distinct selector states once each: the cache holds only the last 4
  // (evicting the first 4), so revisiting recent states hits and revisiting
  // the oldest one misses and re-evicts.
  const netlist::Netlist nl = selector_netlist(3);
  core::PlanCache cache(1);  // first-sight admission, capacity floor of 4
  PlannerOptions opts;
  opts.shared_cache = &cache;
  Planner planner(nl, opts);
  planner.reset({});

  const auto drive = [&](std::uint64_t v) {
    planner.begin_cycle(to_bits(v, 3));
    planner.forward();
    (void)planner.finish(/*is_final=*/false);
  };
  for (std::uint64_t v = 0; v < 8; ++v) drive(v);
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_EQ(cache.entries(), 4u);
  EXPECT_EQ(cache.evictions(), 4u);
  EXPECT_EQ(planner.cache_hits(), 0u);

  for (const std::uint64_t v : {7u, 6u, 5u, 4u}) drive(v);  // the retained four
  EXPECT_EQ(planner.cache_hits(), 4u);
  drive(0);  // evicted on state 4's insertion
  EXPECT_EQ(planner.cache_hits(), 4u);
  EXPECT_EQ(cache.entries(), 4u);
  EXPECT_EQ(cache.evictions(), 5u);
}

TEST(PlanCache, SuccessorLinksUnderEvictionServeExactPlans) {
  // Successor links over the 4-entry capacity floor: a cyclic trajectory of
  // 8 selector states (a 4-state loop twice, then 4 more states) replayed
  // warm by successive planners on one cache. The loop's second lap walks
  // links; the other states evict the loop's entries, so links recorded
  // before an eviction go stale and must never be followed. Every cycle's
  // plan must be byte-equal to an uncached planner's.
  const netlist::Netlist nl = selector_netlist(3);
  const std::vector<std::uint64_t> trajectory = {0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7};
  core::PlanCache cache(1);
  PlannerOptions warm;
  warm.shared_cache = &cache;
  PlannerOptions fresh;
  fresh.cache = false;
  std::uint64_t hits = 0;
  std::uint64_t link_hits = 0;
  for (int run = 0; run < 4; ++run) {
    Planner pw(nl, warm);
    Planner pr(nl, fresh);
    pw.reset({});
    pr.reset({});
    for (int lap = 0; lap < 3; ++lap) {
      for (const std::uint64_t v : trajectory) {
        pw.begin_cycle(to_bits(v, 3));
        pr.begin_cycle(to_bits(v, 3));
        pw.forward();
        pr.forward();
        const CyclePlan a = pw.finish(/*is_final=*/false);
        const CyclePlan c = pr.finish(/*is_final=*/false);
        expect_plans_equal(a, c);
        pw.latch(a);
        pr.latch(c);
      }
    }
    EXPECT_LE(pw.link_hits(), pw.cache_hits()) << "run " << run;
    hits += pw.cache_hits();
    link_hits += pw.link_hits();
  }
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(link_hits, 0u);
  EXPECT_GT(hits, link_hits);  // a stale or missing link falls back to the lookup
}

TEST(WarmState, IsRoleScoped) {
  const netlist::Netlist nl = selector_netlist(3);
  core::WarmState gwarm(core::Role::Garbler);

  // One WarmState cannot serve both parties: it would alias the per-party
  // caches (and race across threads). A state has one role, so whichever
  // endpoint does not hold that role rejects it.
  core::RunOptions shared;
  shared.fixed_cycles = 1;
  shared.exec.garbler_warm = &gwarm;
  shared.exec.evaluator_warm = &gwarm;
  EXPECT_THROW(core::SkipGateDriver(nl, shared).run({false}, {false}), std::invalid_argument);

  // A wrong-role WarmState is rejected by the endpoint in both compositions.
  core::RunOptions swapped;
  swapped.fixed_cycles = 1;
  swapped.exec.evaluator_warm = &gwarm;  // garbler-role state, evaluator slot
  EXPECT_THROW(core::SkipGateDriver(nl, swapped).run({false}, {false}), std::invalid_argument);
  core::StreamProvider streams;
  streams.pub = [](std::uint64_t) { return netlist::BitVec(3, false); };
  EXPECT_THROW(a2gtest::socket_run(nl, swapped, {false}, {false}, {}, &streams, nullptr, &gwarm),
               std::invalid_argument);
}

/// Differential fuzz (both party sides): randomized sequential netlists
/// driven through randomized public-input sequences; the cached, segmented
/// planners' plans must be byte-equal to an uncached planner's on every
/// cycle. Each netlist then replays its trajectory twice over one shared
/// PlanCache (the second pass serves whole-entry hits through programs
/// compiled in the first), so the compiled hit path is covered in both
/// modes. Every cycle, the cached planners' kept entry signatures must
/// equal a from-scratch recompute; each seed also runs a flip-flop copy/swap
/// register with streamed secret inputs (copy_swap_netlist), whose
/// fingerprint classes merge and split. Every wire a plan marks public must
/// also carry its plan value in a cleartext netlist::Simulator run under two
/// independent secret-input draws: an oracle outside the planner.
/// A2G_PLAN_FUZZ_SEEDS scales the sweep (CI runs deeper passes).
TEST(PlanDifferentialFuzz, CachedPlansByteEqualFromScratchEveryCycle) {
  int seeds = 12;
  if (const char* env = std::getenv("A2G_PLAN_FUZZ_SEEDS")) seeds = std::atoi(env);
  constexpr std::uint64_t kCycles = 20;
  constexpr std::uint32_t kStreamedPub = 3;
  // Whole-entry hits over the sweep, per mode.
  std::uint64_t warm_hits[2] = {0, 0};
  std::uint64_t shared_class_roots = 0;  // copy/swap netlists, SkipGate

  for (int seed = 0; seed < seeds; ++seed) {
    crypto::CtrRng rng(crypto::block_from_u64(static_cast<std::uint64_t>(seed) * 65537 + 11));
    const netlist::Netlist nl_random = random_seq_netlist(rng, kStreamedPub);
    const netlist::BitVec pub = to_bits(rng.next_u64(), 4);
    std::vector<netlist::BitVec> pub_streams;
    for (std::uint64_t c = 0; c < kCycles; ++c) {
      pub_streams.push_back(to_bits(rng.next_u64(), kStreamedPub));
    }
    const netlist::Netlist nl_copy = copy_swap_netlist(rng, kStreamedPub);

    for (const netlist::Netlist* nlp : {&nl_random, &nl_copy}) {
      const netlist::Netlist& nl = *nlp;
      for (const Mode mode : {Mode::SkipGate, Mode::Conventional}) {
        PlannerOptions inc;
        inc.mode = mode;
        inc.cone_target_gates = 4;  // force several segments on small netlists
        PlannerOptions fresh = inc;
        fresh.cache = false;

        // Garbler-side and evaluator-side cached planners (independent
        // instances fed identical public data) plus a from-scratch reference.
        Planner pg(nl, inc);
        Planner pe(nl, inc);
        Planner pf(nl, fresh);
        pg.reset(pub);
        pe.reset(pub);
        pf.reset(pub);
        // Two cleartext runs on independent secret inputs (own stream, so
        // the netlists and public data above stay as they were).
        crypto::CtrRng draw(crypto::block_from_u64(static_cast<std::uint64_t>(seed) * 92821 + 3));
        std::array<netlist::Simulator, 2> sims = {netlist::Simulator(nl), netlist::Simulator(nl)};
        for (netlist::Simulator& sim : sims) {
          sim.reset(to_bits(draw.next_u64(), 8), to_bits(draw.next_u64(), 8), pub);
        }

        for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
          const netlist::BitVec& sp = pub_streams[cycle];
          pg.begin_cycle(sp);
          pe.begin_cycle(sp);
          pf.begin_cycle(sp);
          const std::size_t shared = expect_signature_kept(pg, seed, cycle);
          expect_signature_kept(pe, seed, cycle);
          if (nlp == &nl_copy && mode == Mode::SkipGate) shared_class_roots += shared;
          pg.forward();
          pe.forward();
          pf.forward();
          const bool is_final = cycle + 1 == kCycles;
          const CyclePlan a = pg.finish(is_final);
          const CyclePlan b = pe.finish(is_final);
          const CyclePlan c = pf.finish(is_final);
          expect_plans_equal(a, b);
          expect_plans_equal(a, c);
          for (netlist::Simulator& sim : sims) {
            sim.step(to_bits(draw.next_u64(), 8), to_bits(draw.next_u64(), 8), sp);
            for (netlist::WireId w = 0; w < a.num_wires; ++w) {
              if (a.wire_public(w)) {
                ASSERT_EQ(a.wire_value(w), sim.wire(w))
                    << "seed " << seed << " cycle " << cycle << " wire " << w;
              }
            }
          }
          if (!is_final) {
            pg.latch(a);
            pe.latch(b);
            pf.latch(c);
          }
        }
        ASSERT_GT(pg.layout().segments.size(), 1u) << "seed " << seed;

        core::PlanCache shared_cache;
        for (int pass = 0; pass < 2; ++pass) {
          PlannerOptions warm = inc;
          warm.shared_cache = &shared_cache;
          Planner pw(nl, warm);
          Planner pr(nl, fresh);
          pw.reset(pub);
          pr.reset(pub);
          for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
            pw.begin_cycle(pub_streams[cycle]);
            pr.begin_cycle(pub_streams[cycle]);
            expect_signature_kept(pw, seed, cycle);
            pw.forward();
            pr.forward();
            const bool is_final = cycle + 1 == kCycles;
            const CyclePlan a = pw.finish(is_final);
            const CyclePlan c = pr.finish(is_final);
            expect_plans_equal(a, c);
            if (!is_final) {
              pw.latch(a);
              pr.latch(c);
            }
          }
          warm_hits[mode == Mode::SkipGate ? 0 : 1] += pw.cache_hits();
        }
      }
    }
  }
  for (int m = 0; m < 2; ++m) {
    EXPECT_GT(warm_hits[m], 0u) << "mode " << m << ": no whole-entry hits";
  }
  EXPECT_GT(shared_class_roots, 0u) << "no copy/swap flip-flop ever shared a class";
}

/// A cached cycle keeps its touched-gate records, not per-gate arrays: over
/// the 97 entries of a warm Hamming-160 run on the ARM core (~7,000 of
/// 42,611 gates touched per cycle), every vector an entry owns sums to at
/// most 160 KiB on average, and the touch list and records carry no growth
/// slack.
TEST(PlanCache, SparseEntryFootprint) {
  const programs::Program prog = programs::hamming(5);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  const core::PartyOptions po = machine.party_options(core::Role::Garbler);
  core::PlanCache cache;
  PlannerOptions opts;
  opts.mode = po.mode;
  opts.seed = po.protocol_seed;
  opts.shared_cache = &cache;
  opts.cone_target_gates = po.cone_target_gates;
  Planner planner(machine.cpu().nl, opts);
  // Run 1 classifies and inserts every entry; run 2 compiles each on its
  // first hit.
  for (int run = 0; run < 2; ++run) {
    planner.reset({});
    for (;;) {
      planner.begin_cycle({});
      planner.forward();
      const bool is_final = planner.wire_value(*po.halt_wire);
      const CyclePlan plan = planner.finish(is_final);
      if (is_final) break;
      planner.latch(plan);
    }
  }
  ASSERT_EQ(cache.entries(), 97u);
  EXPECT_EQ(planner.cache_hits(), 97u);
  const core::PlanCacheTestPeer::Footprint f = core::PlanCacheTestPeer::footprint(cache);
  EXPECT_GT(f.records, 97u * 1000);
  EXPECT_LE(f.bytes / cache.entries(), std::size_t{160} << 10);
  EXPECT_EQ(f.inexact, 0u);
}

TEST(PlanCache, WarmHammingRunWalksItsEntryChain) {
  // Hamming-160 on the ARM core (5 words per party): a Session's second run
  // is served entirely from the warm plan cache, and only the first cycle
  // after reset() looks its entry up by hash — every later cycle follows
  // the previous entry's successor link.
  const programs::Program prog = programs::hamming(5);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  const std::vector<std::uint32_t> a = {1, 2, 3, 4, 5};
  const std::vector<std::uint32_t> b = {0xFFFFFFFFu, 0, 0x0F0F0F0Fu, 7, 0x80000000u};
  arm::Arm2Gc::Session session(machine);
  const arm::Arm2GcResult first = session.run(a, b);
  const arm::Arm2GcResult second = session.run(b, a);
  EXPECT_EQ(second.outputs, machine.run_reference(b, a).outputs);
  EXPECT_EQ(first.cycles, 97u);
  EXPECT_EQ(second.cycles, 97u);
  EXPECT_EQ(second.stats.plan_cache_hits, 97u);
  EXPECT_EQ(second.stats.plan_cache_misses, 0u);
  EXPECT_EQ(second.stats.plan_link_hits, 96u);
  // The live set: gates producing a label someone reads. Pass chains
  // collapse to their source and flip-flops holding their value leave it,
  // so a warm cycle executes a few dozen of the ARM core's gates.
  EXPECT_EQ(second.stats.live_gates, 3451u);  // ~36 per cycle
  EXPECT_EQ(first.stats.live_gates, second.stats.live_gates);
}

/// FNV-1a over `n` bytes, continuing from `h`.
std::uint64_t fnv_bytes(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Folds everything a CyclePlan fixes into `h`: the wire bits, the touched
/// records, every slice's work lists, the emitted-table prefix and the
/// secret latch list.
std::uint64_t plan_digest(std::uint64_t h, const CyclePlan& p) {
  const auto word = [&](std::uint64_t x) { h = fnv_bytes(h, &x, sizeof(x)); };
  word(p.num_wires);
  word(p.num_slices);
  word(p.emitted);
  word(static_cast<std::uint64_t>(p.is_final) | static_cast<std::uint64_t>(p.sample) << 1);
  h = fnv_bytes(h, p.wire_bits, p.num_wires);
  word(p.records.count);
  h = fnv_bytes(h, p.records.gate, p.records.count * sizeof(std::uint32_t));
  h = fnv_bytes(h, p.records.act, p.records.count);
  h = fnv_bytes(h, p.records.src, p.records.count * sizeof(netlist::WireId));
  for (std::size_t si = 0; si < p.num_slices; ++si) {
    const core::PlanSlice& s = p.slices[si];
    word(static_cast<std::uint64_t>(s.first_gate) << 32 | s.count);
    word(s.work_count);
    h = fnv_bytes(h, s.work, s.work_count * sizeof(std::uint32_t));
    h = fnv_bytes(h, s.work_act, s.work_count);
    h = fnv_bytes(h, s.work_src, s.work_count * sizeof(netlist::WireId));
  }
  h = fnv_bytes(h, p.emit_base, (p.num_slices + 1) * sizeof(std::uint64_t));
  word(p.num_secret_dffs);
  return fnv_bytes(h, p.secret_dffs, p.num_secret_dffs * sizeof(std::uint32_t));
}

/// Digest of every CyclePlan of a fresh planner's run of Hamming-160 on the
/// ARM core (5 words per party): to the halt under SkipGate, or for
/// `conventional_cycles` cycles in Conventional mode. Returns the digest and
/// sets `cycles`.
std::uint64_t hamming_plan_digest(Mode mode, std::uint64_t conventional_cycles,
                                  std::uint64_t& cycles) {
  const programs::Program prog = programs::hamming(5);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  const core::PartyOptions po = machine.party_options(core::Role::Garbler);
  PlannerOptions opts;
  opts.mode = mode;
  opts.seed = po.protocol_seed;
  opts.cone_target_gates = po.cone_target_gates;
  Planner planner(machine.cpu().nl, opts);
  planner.reset({});
  std::uint64_t h = 1469598103934665603ull;
  for (cycles = 1;; ++cycles) {
    planner.begin_cycle({});
    planner.forward();
    const bool is_final = mode == Mode::SkipGate ? planner.wire_value(*po.halt_wire)
                                                 : cycles == conventional_cycles;
    const CyclePlan plan = planner.finish(is_final);
    h = plan_digest(h, plan);
    if (is_final) return h;
    planner.latch(plan);
  }
}

/// Pins every cycle's CyclePlan of a cold run, so a classifier rewrite that
/// changes any decision shows up even where cached and from-scratch plans
/// would still agree with each other (both come from the same classifier).
/// The Conventional run touches every gate: no gate may take a public fast
/// path there.
TEST(PlanDigest, ColdHammingRunPlansArePinned) {
  std::uint64_t cycles = 0;
  EXPECT_EQ(hamming_plan_digest(Mode::SkipGate, 0, cycles), 0xde4aa9cd9e26435ull);
  EXPECT_EQ(cycles, 97u);
  EXPECT_EQ(hamming_plan_digest(Mode::Conventional, 97, cycles), 0x7992f006b615c7d3ull);
  EXPECT_EQ(cycles, 97u);
}

}  // namespace
