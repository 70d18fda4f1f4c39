// Wire framing of the garbler service's out-of-protocol exchanges. The
// protocol proper (everything between hello and wrap-up) is byte-identical
// to a tools/arm2gc_party two-process run of the same options — the service
// adds exactly one request/reply pair in front (program + option selection)
// and reuses arm2gc_party's wrap-up shape behind (summary cross-check, with
// the served outputs travelling as packed netlist bits instead of ARM
// words, since the service is a netlist-level component).
//
// Frames are fixed-layout structs moved with SocketDuplex::send_control /
// recv_control (unaccounted control bytes, exactly like the party tool's
// WireSummary), under the same same-architecture assumption that tool
// already established for deployments.
#pragma once

#include <cstdint>

namespace arm2gc::serve {

inline constexpr std::uint64_t kHelloMagic = 0x61326763'73657276ull;    // "a2gcserv"
inline constexpr std::uint64_t kSummaryMagic = 0x61326763'73756d6dull;  // "a2gcsumm"
inline constexpr std::uint32_t kWireVersion = 1;
/// Program names longer than this are rejected before any allocation.
inline constexpr std::uint32_t kMaxProgramName = 256;

/// Service verdict on a hello; anything but Ok is followed by the service
/// closing the connection.
enum class HelloStatus : std::uint32_t {
  Ok = 0,
  BadMagic = 1,        ///< not a service client (or a desynced stream)
  BadVersion = 2,      ///< client/service wire versions differ
  UnknownProgram = 3,  ///< no ProgramSpec registered under that name
  Busy = 4,            ///< max_clients connections already active
  OptionMismatch = 5,  ///< schedule/seed fields disagree with the spec
};

[[nodiscard]] constexpr const char* hello_status_name(HelloStatus s) {
  switch (s) {
    case HelloStatus::Ok: return "ok";
    case HelloStatus::BadMagic: return "bad-magic";
    case HelloStatus::BadVersion: return "bad-version";
    case HelloStatus::UnknownProgram: return "unknown-program";
    case HelloStatus::Busy: return "busy";
    case HelloStatus::OptionMismatch: return "option-mismatch";
  }
  return "?";
}

/// Client -> service, first bytes on the connection; `name_len` bytes of
/// program name follow the struct. The protocol fields the two endpoints
/// must agree on all travel here: the service adopts OT choices per client
/// (so one service instance serves every backend) but insists the cycle
/// schedule and public seed match the registered spec — a silent mismatch
/// there would desync the planners mid-protocol instead of failing loudly
/// at the door. `reserved0` is the byte a garbling-scheme choice used to
/// occupy: the endpoints garble half-gates only, so it must be 0, and a
/// peer that still asks for another scheme is answered OptionMismatch
/// instead of running one it did not ask for.
struct HelloRequest {
  std::uint64_t magic = kHelloMagic;
  std::uint32_t version = kWireVersion;
  std::uint32_t name_len = 0;
  std::uint8_t reserved0 = 0;   ///< must be 0
  std::uint8_t ot_backend = 0;  ///< gc::OtBackend
  std::uint8_t reserved[6] = {};
  std::uint64_t ot_pool = 0;
  std::uint64_t fixed_cycles = 0;  ///< 0 = halt-driven under max_cycles
  std::uint64_t max_cycles = 0;
  std::uint8_t protocol_seed[16] = {};
};

/// Service -> client reply; on Ok the protocol proper starts immediately.
struct HelloReply {
  std::uint64_t magic = kHelloMagic;
  std::uint32_t status = 0;  ///< HelloStatus
  std::uint32_t reserved = 0;
};

/// Wrap-up summary, service first (plus `out_bits` packed output bits,
/// little-endian within each byte), then the client's mirror with
/// out_bits = 0. Cross-checking cycles/garbled_non_xor/table_digest is the
/// end-to-end correctness certificate, exactly as in arm2gc_party.
struct RunSummary {
  std::uint64_t magic = kSummaryMagic;
  std::uint64_t cycles = 0;
  std::uint64_t final_cycle = 0;
  std::uint64_t garbled_non_xor = 0;
  std::uint8_t table_digest[16] = {};
  std::uint64_t comm[4] = {};  ///< sent bytes: table, input label, ot, output
  std::uint64_t out_bits = 0;
};

static_assert(sizeof(HelloRequest) == 64, "fixed wire layout");
static_assert(sizeof(HelloReply) == 16, "fixed wire layout");
static_assert(sizeof(RunSummary) == 88, "fixed wire layout");

}  // namespace arm2gc::serve
