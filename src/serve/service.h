// GarblerService: one garbler, many concurrent evaluator clients — the
// "millions of users" deployment shape of the paper's framework, built from
// the pieces the earlier PRs left in place. Each connection is a resumable
// state machine over core::GarblerEndpoint's stepwise schedule hooks (the
// same hooks the in-process lock-step driver interleaves), driven by a
// readiness loop over non-blocking SocketDuplexes instead of a thread per
// connection:
//
//   - The per-phase recv points of the garbler schedule are predictable
//     from public data (backend, netlist shape, plan, OT window, pool fill
//     level), so the machine runs hooks greedily and parks the connection
//     on readability only where the endpoint's read predicates
//     (GarblerEndpoint::begin_reads and friends) say the client's frames
//     are coming. The predicates are exact: a park where no read follows
//     would wait for bytes the client never sends until the recv deadline,
//     and a missed one blocks the shard in the hook's bounded inline
//     poll().
//   - Backpressure: a connection whose send queue exceeds the soft limit
//     stops being read or advanced (parked on writability) until the
//     kernel drains it; the transport's hard cap bounds the queue
//     absolutely. Nothing ever buffers unboundedly.
//   - WarmStates are pooled per (program, OT backend, pool size): a repeat
//     client hits warm plan caches. The OT half is re-based on every
//     release — warm extension streams are pairing-specific, and a fresh
//     client against an advanced stream would desync — which is
//     also exactly the abort path, so a mid-protocol disconnect returns
//     the WarmState to the pool in the same known-good shape as a clean
//     finish. A pooled WarmState can never be poisoned by a dying client.
//
// `shards` event-loop threads each own a private poll() loop (serve/poller.h)
// and a disjoint set of connections (handed over once at accept), so no
// connection state is ever shared across threads; the cross-thread surface
// is the warm pool (mutex) and the stats (atomics).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/party.h"
#include "netlist/netlist.h"

namespace arm2gc::serve {

/// One servable program: a netlist plus the garbler's inputs and the
/// protocol contract. The netlist, streams and name are caller-owned and
/// must outlive the service. `opts` carries the schedule (fixed_cycles /
/// halt_wire / max_cycles), the public seed and the service's private seed;
/// the OT backend is per-client (adopted from each hello).
struct ProgramSpec {
  std::string name;
  const netlist::Netlist* nl = nullptr;
  core::PartyOptions opts;
  netlist::BitVec alice_bits;
  netlist::BitVec pub_bits;
  const core::StreamProvider* streams = nullptr;  ///< alice/pub halves only
};

struct ServiceOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;     ///< 0 = ephemeral; port() reports the bound one
  std::size_t max_clients = 64;
  std::size_t shards = 1;     ///< event-loop threads
  std::size_t warm_pool = 4;  ///< WarmStates retained per program/backend key
  /// Park a connection (stop reading/advancing) beyond this many queued
  /// send bytes; the hard limit is enforced inside the transport.
  std::size_t send_soft_limit = 1u << 20;
  std::size_t send_hard_limit = 8u << 20;
  /// Inline-wait deadline for a stalled peer; expiry tears the run down.
  int recv_timeout_ms = 30'000;
  /// Live telemetry: bind a plain-HTTP /metrics listener (Prometheus text
  /// exposition of the obs registry) served from shard 0's event loop.
  /// -1 = disabled; 0 = ephemeral (GarblerService::metrics_port() reports
  /// the bound port). The page renders whatever the obs registry holds —
  /// under ARM2GC_OBS=OFF it degrades to a comment line plus the service
  /// counters published at render time.
  int metrics_port = -1;
  std::string metrics_host = "127.0.0.1";
  /// Shard 0 republishes ServiceStats into the obs registry every this-many
  /// milliseconds; 0 = only when a /metrics page is rendered.
  int stats_interval_ms = 0;
};

/// Monotonic service counters (all totals since start()).
struct ServiceStats {
  std::uint64_t accepted = 0;        ///< connections accepted
  std::uint64_t hello_rejected = 0;  ///< closed at the door (busy/unknown/...)
  std::uint64_t runs_ok = 0;
  std::uint64_t runs_failed = 0;  ///< disconnects + protocol failures
  std::uint64_t warm_hits = 0;    ///< runs served from a pooled WarmState
  std::uint64_t warm_misses = 0;  ///< runs that built a fresh WarmState
  std::uint64_t gates_garbled = 0;  ///< sum of garbled_non_xor over runs_ok
  std::uint64_t cycles_run = 0;     ///< sum of cycles over runs_ok
  /// Max send-queue depth any connection ever reached (bytes).
  std::uint64_t send_queue_high_water = 0;
  std::uint64_t active = 0;  ///< connections open right now
};

class GarblerService {
 public:
  /// Binds the listener (so port() is valid immediately); start() spawns
  /// the shard threads. Throws std::invalid_argument on an empty program
  /// set or a spec without a netlist.
  GarblerService(std::vector<ProgramSpec> programs, const ServiceOptions& opts);
  ~GarblerService();  ///< stop()s if still running
  GarblerService(const GarblerService&) = delete;
  GarblerService& operator=(const GarblerService&) = delete;

  void start();
  /// Stops accepting, aborts in-flight runs, joins the shards. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const;
  /// Bound /metrics port, 0 when telemetry is disabled.
  [[nodiscard]] std::uint16_t metrics_port() const;
  [[nodiscard]] ServiceStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace arm2gc::serve
