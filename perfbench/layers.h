// Per-layer probes. Each one drives a layer through its public API and
// records where the time goes, without touching the library's internals:
//
//   core.party  hook-timed compositions of GarblerEndpoint/EvaluatorEndpoint
//               (the lock-step schedule of SkipGateDriver, or one role per
//               thread over a blocking transport)
//   core.plan   a Planner replay of a run's public schedule
//   gc.garble   a half-gates kernel loop on gc::Garbler
#pragma once

#include <cstdint>
#include <optional>

#include "core/party.h"
#include "core/plan.h"
#include "harness.h"

namespace perfbench {

/// Lock-step composition in exactly SkipGateDriver's order (in-memory
/// duplex, plan-following evaluator), with every hook timed into `l` under
/// the hook.* names and both transport ends wrapped in TimedTransport
/// (transport.* names). Returns the garbler's result; `eval_stats` receives
/// the evaluator's. stats.comm and the OT wall times are filled the way the
/// driver fills them.
arm2gc::core::RunResult run_lockstep_timed(const arm2gc::netlist::Netlist& nl,
                                           const arm2gc::core::PartyOptions& opts,
                                           arm2gc::core::WarmState* garbler_warm,
                                           arm2gc::core::WarmState* evaluator_warm,
                                           const arm2gc::netlist::BitVec& alice_bits,
                                           const arm2gc::netlist::BitVec& bob_bits,
                                           const arm2gc::netlist::BitVec& pub_bits,
                                           const arm2gc::core::StreamProvider* streams, Ledger& l,
                                           arm2gc::core::RunStats& eval_stats);

/// One role's run over a blocking transport, hook by hook in the order
/// GarblerEndpoint::run / EvaluatorEndpoint::run use. Hook times include any
/// wait for the peer.
arm2gc::core::RunResult run_garbler_timed(arm2gc::core::GarblerEndpoint& g,
                                          const arm2gc::netlist::BitVec& alice_bits,
                                          const arm2gc::netlist::BitVec& pub_bits,
                                          const arm2gc::core::StreamProvider* streams, Ledger& l);
arm2gc::core::RunResult run_evaluator_timed(arm2gc::core::EvaluatorEndpoint& e,
                                            const arm2gc::netlist::BitVec& bob_bits,
                                            const arm2gc::netlist::BitVec& pub_bits,
                                            const arm2gc::core::StreamProvider* streams,
                                            Ledger& l);

/// Replays one run's planning on a Planner with the given options: reset,
/// then per cycle begin_cycle/forward/finish/latch, deciding the final cycle
/// from `halt_wire` or `fixed_cycles` as the endpoints do. Adds
/// plan.forward_ms / plan.finish_ms / plan.cycles to `l`; the caller reads
/// the hit counters off the planner.
void replay_plan(arm2gc::core::Planner& planner, const arm2gc::netlist::BitVec& pub_bits,
                 const arm2gc::core::StreamProvider* streams,
                 std::optional<arm2gc::netlist::WireId> halt_wire,
                 std::optional<std::uint64_t> fixed_cycles, Ledger& l);

/// Half-gates garbling rate of gc::Garbler in a tight kernel loop (AND
/// gates, chained labels), median of several timed batches.
[[nodiscard]] double garble_gates_per_s();

}  // namespace perfbench
