// In-process two-party driver (paper §3): a thin composition of the two
// single-role endpoints (core/party.h) over the lock-step in-memory duplex.
// The endpoints own all protocol state; this layer only interleaves their
// hooks on one thread in the shared cycle schedule:
//
//   GarblerEndpoint    (core/party.h)  Alice: planner + labels + OT sends
//   EvaluatorEndpoint  (core/party.h)  Bob: planner + eval + OT choices
//
// This is exactly the paper's sequential schedule. Running the two endpoints
// on separate threads or processes needs no driver at all: each side calls
// run() over its end of a gc::SocketDuplex (gc/transport_socket.h), the path
// tools/arm2gc_party and the garbler service take. Both compositions produce
// bit-identical results, digests and byte counts.
#pragma once

#include <cstdint>

#include "core/party.h"
#include "gc/transport.h"
#include "netlist/netlist.h"

namespace arm2gc::core {

/// Execution tuning that never changes results — only how they are computed.
struct ExecOptions {
  /// Reuse classification across cycles with identical public entry state.
  /// false disables all plan reuse (the from-scratch baseline for
  /// differential tests).
  bool plan_cache = true;
  std::size_t plan_cache_budget_bytes = 64u << 20;
  std::size_t cone_memo_budget_bytes = 32u << 20;  ///< frozen for perfbench: never read
  /// Segmentation granularity (gates per cone, approximate; 0 = whole
  /// netlist as one cone). Public; both parties derive the same layout.
  std::size_t cone_target_gates = 512;
  /// Optional externally owned per-role warm state (plan cache + IKNP
  /// extension state) persisting across runs — Arm2Gc::Session supplies
  /// these. Role-scoped by construction: a Role::Garbler WarmState for the
  /// garbler slot, Role::Evaluator for the evaluator slot (endpoints reject
  /// a mismatch), so the two parties can never share mutable state.
  WarmState* garbler_warm = nullptr;
  WarmState* evaluator_warm = nullptr;
  /// OT backend for Bob's input labels: the ideal-functionality stand-in or
  /// real IKNP extension (gc/otext.h). Outputs, garbled tables and every
  /// non-OT byte count are bit-identical across backends; only OT traffic
  /// and timing differ.
  gc::OtBackend ot_backend = gc::OtBackend::Ideal;
  /// Precomp random-OT pool target per refill (gc/otpre.h). Public: the
  /// refill schedule is a deterministic function of it, so both parties must
  /// use the same value. Ignored by the other backends.
  std::size_t ot_pool = gc::kDefaultOtPoolBatch;
  /// Frozen slot for existing callers (copied into PartyOptions::threads):
  /// each party runs serially, so 1 is the only accepted value and any
  /// other throws std::invalid_argument when an endpoint is constructed.
  std::size_t threads = 1;
};

struct RunOptions {
  Mode mode = Mode::SkipGate;
  /// Run exactly this many cycles (sequential circuits with a known schedule).
  std::optional<std::uint64_t> fixed_cycles;
  /// Public wire that announces termination (the processor's halt signal);
  /// the cycle where it becomes 1 is the final cycle. Must be public.
  std::optional<netlist::WireId> halt_wire;
  /// Safety bound when running halt-driven.
  std::uint64_t max_cycles = 1u << 20;
  /// Protocol seed; the in-process driver also uses it as both parties'
  /// private seed, which keeps runs byte-reproducible (a two-process
  /// deployment seeds each party privately via PartyOptions instead).
  crypto::Block seed = kDefaultProtocolSeed;
  ExecOptions exec;
};

/// Expands a driver-style RunOptions into one role's PartyOptions (the
/// in-process determinism convention: private_seed == protocol seed).
[[nodiscard]] PartyOptions party_options(Role role, const RunOptions& opts);

/// Two-party sequential garbling driver: constructs both endpoints over an
/// in-memory duplex and runs the shared schedule lock-step on the calling
/// thread.
class SkipGateDriver {
 public:
  SkipGateDriver(const netlist::Netlist& nl, RunOptions opts);

  /// Executes the protocol. `alice_bits`/`bob_bits`/`pub_bits` bind fixed
  /// inputs and flip-flop initial values (shared index space per owner).
  RunResult run(const netlist::BitVec& alice_bits, const netlist::BitVec& bob_bits,
                const netlist::BitVec& pub_bits = {}, const StreamProvider* streams = nullptr);

 private:
  const netlist::Netlist& nl_;
  RunOptions opts_;
};

}  // namespace arm2gc::core
