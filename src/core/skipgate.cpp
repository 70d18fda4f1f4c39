#include "core/skipgate.h"

#include <stdexcept>

namespace arm2gc::core {

using netlist::BitVec;
using netlist::Netlist;

/// Lock-step schedule: both endpoints interleaved on one thread over the
/// non-blocking in-memory duplex, in exactly the cross-party order the
/// endpoint contract specifies (core/party.h). The evaluator runs in
/// plan-following mode — one address space is one trust domain, and both
/// parties' planners provably derive identical plans (plan_test), so
/// planning once is pure wall-clock savings with identical results; the
/// driver reports the garbler's counters (which match a two-process run)
/// plus the evaluator's OT wall time (the lock-step run spends both
/// parties' time on one thread).
RunResult SkipGateDriver::run(const BitVec& alice_bits, const BitVec& bob_bits,
                              const BitVec& pub_bits, const StreamProvider* streams) {
  gc::InMemoryDuplex duplex;
  GarblerEndpoint garbler(nl_, party_options(Role::Garbler, opts_), duplex.garbler_end(),
                          opts_.exec.garbler_warm);
  EvaluatorEndpoint evaluator(nl_, party_options(Role::Evaluator, opts_), duplex.evaluator_end(),
                              opts_.exec.evaluator_warm, garbler);
  try {
    evaluator.start_request(bob_bits, pub_bits, streams);
    garbler.start(alice_bits, pub_bits, streams);
    evaluator.start_finish();
    for (std::uint64_t cycle = 0;; ++cycle) {
      evaluator.begin_request(cycle);
      garbler.begin(cycle);
      evaluator.begin_finish();
      const bool final_g = garbler.work(cycle);
      const bool final_e = evaluator.work(cycle);
      evaluator.sample();
      garbler.sample();
      if (final_g != final_e) {
        // Unreachable with intact planners: termination is a deterministic
        // public decision both sides compute identically.
        throw std::logic_error("skipgate: endpoints disagree on the final cycle");
      }
      if (final_g) break;
      garbler.latch();
      evaluator.latch();
      // OT maintenance slot (receiver-first, like the binding phases): lets
      // the Precomp backend top up its random-OT pool between cycles. No-ops
      // under Ideal/Iknp, but the slot stays in the schedule unconditionally
      // so every backend sees the same cross-party ordering.
      evaluator.ot_refill_request();
      garbler.ot_refill();
      evaluator.ot_refill_finish();
    }
  } catch (...) {
    garbler.abort();
    evaluator.abort();
    throw;
  }
  RunResult result = garbler.finish();
  const RunStats eval_stats = evaluator.finish().stats;
  result.stats.ot_wall_ns += eval_stats.ot_wall_ns;
  result.stats.ot_offline_wall_ns += eval_stats.ot_offline_wall_ns;
  result.stats.comm = duplex.stats();
  result.stats.transport_high_water_blocks = duplex.high_water_blocks();
  return result;
}

PartyOptions party_options(Role role, const RunOptions& opts) {
  (void)role;  // the expansion is role-symmetric; the role picks the endpoint
  PartyOptions p;
  p.mode = opts.mode;
  p.fixed_cycles = opts.fixed_cycles;
  p.halt_wire = opts.halt_wire;
  p.max_cycles = opts.max_cycles;
  p.protocol_seed = opts.seed;
  p.private_seed = opts.seed;  // in-process determinism convention
  p.plan_cache = opts.exec.plan_cache;
  p.plan_cache_budget_bytes = opts.exec.plan_cache_budget_bytes;
  p.cone_memo = opts.exec.cone_memo;
  p.cone_memo_budget_bytes = opts.exec.cone_memo_budget_bytes;
  p.cone_target_gates = opts.exec.cone_target_gates;
  p.ot_backend = opts.exec.ot_backend;
  p.ot_pool = opts.exec.ot_pool;
  p.threads = opts.exec.threads;
  return p;
}

SkipGateDriver::SkipGateDriver(const Netlist& nl, RunOptions opts) : nl_(nl), opts_(opts) {}

}  // namespace arm2gc::core
