// Evaluator-side client of a GarblerService: one blocking connection, one
// protocol run. The bytes between hello and wrap-up are exactly the
// evaluator endpoint's normal protocol stream, so a served run is
// byte-identical (outputs, table digest, comm accounting) to a
// tools/arm2gc_party two-process run under the same options — the
// differential tests pin it. Unlike the bare protocol, the service's
// wrap-up hands the decoded output bits back, so Bob learns the result
// here (the serving deployment's contract; the bare two-party protocol
// leaves that choice to the application).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/party.h"
#include "netlist/netlist.h"
#include "serve/wire.h"

namespace arm2gc::serve {

/// Thrown when the service turns the hello down (busy, unknown program,
/// option mismatch, ...) — a protocol outcome, distinct from transport
/// failures (gc::TransportClosed) and run failures (std::runtime_error).
class ServiceRejected : public std::runtime_error {
 public:
  explicit ServiceRejected(HelloStatus status)
      : std::runtime_error(std::string("serve: service rejected hello: ") +
                           hello_status_name(status)),
        status_(status) {}
  [[nodiscard]] HelloStatus status() const { return status_; }

 private:
  HelloStatus status_;
};

struct ClientOptions {
  std::string program;
  gc::OtBackend ot_backend = gc::OtBackend::Ideal;
  std::size_t ot_pool = gc::kDefaultOtPoolBatch;
  /// Cycle schedule; must match the service's registered spec (the hello
  /// cross-checks fixed_cycles/max_cycles, and halt_wire divergence is
  /// caught by the digest check).
  std::optional<std::uint64_t> fixed_cycles;
  std::optional<netlist::WireId> halt_wire;
  std::uint64_t max_cycles = 1u << 20;
  crypto::Block protocol_seed = core::kDefaultProtocolSeed;
  /// This client's own randomness; defaults to the protocol seed (which
  /// keeps served runs byte-identical to the in-process reference).
  std::optional<crypto::Block> private_seed;
  std::size_t cone_target_gates = 512;
  int connect_timeout_ms = 10'000;
  /// Inline-wait deadline while the service garbles; <= 0 waits forever.
  int recv_timeout_ms = 60'000;
};

struct ClientResult {
  netlist::BitVec outputs;  ///< final outputs, decoded by the service
  std::uint64_t cycles = 0;
  std::uint64_t final_cycle = 0;
  std::uint64_t garbled_non_xor = 0;
  crypto::Block table_digest{};  ///< cross-checked against the service's
  gc::CommStats service_sent;    ///< the service's accounted sent bytes
  gc::CommStats client_sent;     ///< this side's accounted sent bytes
  core::RunStats stats;          ///< evaluator-side run stats

  /// Both directions together — equals the in-process duplex total of an
  /// identical run.
  [[nodiscard]] gc::CommStats comm_total() const {
    gc::CommStats c = client_sent;
    c.garbled_table_bytes += service_sent.garbled_table_bytes;
    c.input_label_bytes += service_sent.input_label_bytes;
    c.ot_bytes += service_sent.ot_bytes;
    c.output_bytes += service_sent.output_bytes;
    return c;
  }
};

/// Connects, runs one served execution of `copts.program`, verifies the
/// wrap-up cross-check and returns the decoded result. `nl` must be the
/// same netlist the service registered under that name; `warm` (optional)
/// is a Role::Evaluator WarmState for repeat runs. Throws ServiceRejected,
/// gc::TransportClosed or std::runtime_error.
[[nodiscard]] ClientResult run_client(const std::string& host, std::uint16_t port,
                                      const netlist::Netlist& nl, const ClientOptions& copts,
                                      const netlist::BitVec& bob_bits,
                                      const netlist::BitVec& pub_bits = {},
                                      const core::StreamProvider* streams = nullptr,
                                      core::WarmState* warm = nullptr);

}  // namespace arm2gc::serve
