#include "layers.h"

#include <stdexcept>

#include "gc/garble.h"
#include "gc/transport.h"
#include "netlist/gate.h"

namespace perfbench {

using arm2gc::core::EvaluatorEndpoint;
using arm2gc::core::GarblerEndpoint;
using arm2gc::core::PartyOptions;
using arm2gc::core::RunResult;
using arm2gc::core::RunStats;
using arm2gc::core::StreamProvider;
using arm2gc::core::WarmState;
using arm2gc::netlist::BitVec;

RunResult run_lockstep_timed(const arm2gc::netlist::Netlist& nl, const PartyOptions& opts,
                             WarmState* garbler_warm, WarmState* evaluator_warm,
                             const BitVec& alice_bits, const BitVec& bob_bits,
                             const BitVec& pub_bits, const StreamProvider* streams, Ledger& l,
                             RunStats& eval_stats) {
  arm2gc::gc::InMemoryDuplex duplex;
  TimedTransport gtx(duplex.garbler_end());
  TimedTransport etx(duplex.evaluator_end());
  GarblerEndpoint garbler(nl, opts, gtx, garbler_warm);
  EvaluatorEndpoint evaluator(nl, opts, etx, evaluator_warm, garbler);
  std::uint64_t cycles = 0;
  try {
    timed(l, "hook.start_ms", [&] {
      evaluator.start_request(bob_bits, pub_bits, streams);
      garbler.start(alice_bits, pub_bits, streams);
      evaluator.start_finish();
    });
    for (std::uint64_t cycle = 0;; ++cycle) {
      ++cycles;
      timed(l, "hook.begin_ms", [&] {
        evaluator.begin_request(cycle);
        garbler.begin(cycle);
        evaluator.begin_finish();
      });
      bool final_g = false;
      bool final_e = false;
      timed(l, "hook.garbler_work_ms", [&] { final_g = garbler.work(cycle); });
      timed(l, "hook.evaluator_work_ms", [&] { final_e = evaluator.work(cycle); });
      timed(l, "hook.sample_latch_ms", [&] {
        evaluator.sample();
        garbler.sample();
      });
      if (final_g != final_e) throw std::logic_error("endpoints disagree on the final cycle");
      if (final_g) break;
      timed(l, "hook.sample_latch_ms", [&] {
        garbler.latch();
        evaluator.latch();
      });
      timed(l, "hook.ot_refill_ms", [&] {
        evaluator.ot_refill_request();
        garbler.ot_refill();
        evaluator.ot_refill_finish();
      });
    }
  } catch (...) {
    garbler.abort();
    evaluator.abort();
    throw;
  }
  RunResult result;
  timed(l, "hook.finish_ms", [&] {
    result = garbler.finish();
    eval_stats = evaluator.finish().stats;
  });
  result.stats.ot_wall_ns += eval_stats.ot_wall_ns;
  result.stats.ot_offline_wall_ns += eval_stats.ot_offline_wall_ns;
  result.stats.comm = duplex.stats();
  l.add("cycles", static_cast<double>(cycles));
  l.add("transport.send_calls", static_cast<double>(gtx.send_calls + etx.send_calls));
  l.add("transport.send_ms", gtx.send_ms + etx.send_ms);
  l.add("transport.recv_wait_ms", gtx.recv_ms + etx.recv_ms);
  return result;
}

RunResult run_garbler_timed(GarblerEndpoint& g, const BitVec& alice_bits, const BitVec& pub_bits,
                            const StreamProvider* streams, Ledger& l) {
  try {
    timed(l, "hook.start_ms", [&] { g.start(alice_bits, pub_bits, streams); });
    std::uint64_t cycles = 0;
    for (std::uint64_t cycle = 0;; ++cycle) {
      ++cycles;
      timed(l, "hook.begin_ms", [&] { g.begin(cycle); });
      bool is_final = false;
      timed(l, "hook.garbler_work_ms", [&] { is_final = g.work(cycle); });
      timed(l, "hook.sample_latch_ms", [&] { g.sample(); });
      if (is_final) break;
      timed(l, "hook.sample_latch_ms", [&] { g.latch(); });
      timed(l, "hook.ot_refill_ms", [&] { g.ot_refill(); });
    }
    l.add("cycles", static_cast<double>(cycles));
    RunResult r;
    timed(l, "hook.finish_ms", [&] { r = g.finish(); });
    return r;
  } catch (...) {
    g.abort();
    throw;
  }
}

RunResult run_evaluator_timed(EvaluatorEndpoint& e, const BitVec& bob_bits,
                              const BitVec& pub_bits, const StreamProvider* streams, Ledger& l) {
  try {
    timed(l, "hook.start_ms", [&] {
      e.start_request(bob_bits, pub_bits, streams);
      e.start_finish();
    });
    for (std::uint64_t cycle = 0;; ++cycle) {
      timed(l, "hook.begin_ms", [&] {
        e.begin_request(cycle);
        e.begin_finish();
      });
      bool is_final = false;
      timed(l, "hook.evaluator_work_ms", [&] { is_final = e.work(cycle); });
      timed(l, "hook.sample_latch_ms", [&] { e.sample(); });
      if (is_final) break;
      timed(l, "hook.sample_latch_ms", [&] { e.latch(); });
      timed(l, "hook.ot_refill_ms", [&] {
        e.ot_refill_request();
        e.ot_refill_finish();
      });
    }
    RunResult r;
    timed(l, "hook.finish_ms", [&] { r = e.finish(); });
    return r;
  } catch (...) {
    e.abort();
    throw;
  }
}

void replay_plan(arm2gc::core::Planner& planner, const BitVec& pub_bits,
                 const StreamProvider* streams, std::optional<arm2gc::netlist::WireId> halt_wire,
                 std::optional<std::uint64_t> fixed_cycles, Ledger& l) {
  constexpr std::uint64_t kMaxCycles = 1u << 20;
  planner.reset(pub_bits);
  for (std::uint64_t cycle = 0;; ++cycle) {
    if (cycle == kMaxCycles) throw std::runtime_error("plan replay: no halt");
    BitVec sp;
    if (streams != nullptr && streams->pub) sp = streams->pub(cycle);
    planner.begin_cycle(sp);
    timed(l, "plan.forward_ms", [&] { planner.forward(); });
    const bool is_final = fixed_cycles ? cycle + 1 == *fixed_cycles
                                       : planner.wire_value(*halt_wire);
    arm2gc::core::CyclePlan plan;
    timed(l, "plan.finish_ms", [&] { plan = planner.finish(is_final); });
    if (is_final) break;
    planner.latch(plan);
  }
}

double garble_gates_per_s() {
  arm2gc::gc::Garbler g(arm2gc::crypto::Block{0x1234, 0x5678});
  const arm2gc::netlist::AndCore core = arm2gc::netlist::tt_and_core(arm2gc::netlist::kTtAnd);
  arm2gc::gc::GarbledTable table;
  arm2gc::crypto::Block a = g.fresh_label();
  arm2gc::crypto::Block b = g.fresh_label();
  constexpr std::size_t kBatch = 1u << 18;
  std::vector<double> rates;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const arm2gc::crypto::Block out = g.garble(a, b, core, table);
      a = b;
      b = out ^ table.rows[0];
    }
    rates.push_back(static_cast<double>(kBatch) / (ms_since(t0) / 1e3));
  }
  // Keep the chained labels observable so the loop cannot be elided.
  if (a == b) rates.push_back(0);
  return median(rates);
}

}  // namespace perfbench
