// Single-role party binary: runs ONE endpoint of the garbled-ARM protocol —
// garbler (Alice) or evaluator (Bob) — over a TCP socket, proving true
// two-process execution of the engine. Each process holds only its role's
// secret state and seeds its own randomness locally (pass
// `--private-seed os` for fresh OS entropy; the default deterministic seed
// reproduces the in-process driver's labels byte for byte, which is what CI
// pins against `--role local`).
//
//   # terminal 1 (Alice): listen, supply her input words
//   arm2gc_party --role garbler --listen 127.0.0.1:7431
//                --program hamming160 --input 1,2,3,4,5
//   # terminal 2 (Bob): connect, supply his input words
//   arm2gc_party --role evaluator --connect 127.0.0.1:7431
//                --program hamming160 --input 6,7,8,9,10
//   # reference: the in-process driver on one machine
//   arm2gc_party --role local --program hamming160
//                --alice 1,2,3,4,5 --bob 6,7,8,9,10
//
// After the protocol the two processes exchange an out-of-band summary
// (outputs, table digest, per-class sent bytes — unaccounted control bytes,
// not protocol traffic) so both print identical `outputs=`, `table_digest=`
// and `comm ...` lines; those lines also match `--role local` byte for byte
// when the seeds match. The digest cross-check (garbler's sent-table digest
// vs the evaluator's received-table digest) fails the run loudly on any
// table corruption in transit.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "arm/arm2gc.h"
#include "arm/assembler.h"
#include "obs/trace.h"
#include "gc/transport_socket.h"
#include "programs/programs.h"

using namespace arm2gc;

namespace {

struct Args {
  std::string role;
  std::string listen;
  std::string connect;
  std::string program;
  std::vector<std::uint32_t> input;  ///< this party's words (two-process roles)
  std::vector<std::uint32_t> alice;  ///< local-role inputs
  std::vector<std::uint32_t> bob;
  std::uint64_t max_cycles = 1u << 20;
  gc::OtBackend ot = gc::OtBackend::Iknp;
  std::size_t ot_pool = gc::kDefaultOtPoolBatch;
  crypto::Block seed = core::kDefaultProtocolSeed;
  std::optional<crypto::Block> private_seed;
  arm::MemoryConfig cfg;  ///< used for --program <file.s> only
  std::string trace_path;  ///< chrome://tracing JSON output
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "arm2gc_party: %s\n", msg);
  std::fprintf(stderr,
               "usage: arm2gc_party --role garbler|evaluator|local\n"
               "  [--listen host:port | --connect host:port]   (two-process roles)\n"
               "  --program <builtin|file.s>    builtins: sum32 compare32 mult32 hamming160\n"
               "  --input w,w,...               this party's private words\n"
               "  --alice w,... --bob w,...     local-role inputs\n"
               "  [--max-cycles N]              garbling is half-gates + free XOR\n"
               "  [--ot ideal|iknp|precomp]     precomp banks random OTs off the online\n"
               "                                path and derandomizes online choices\n"
               "  [--ot-pool N]                 precomp refill target in random OTs\n"
               "                                (public; must match the peer)\n"
               "  [--seed <32 hex>]             public protocol seed (must match peer)\n"
               "  [--private-seed <32 hex>|os]  this party's own randomness\n"
               "  [--alice-words N --bob-words N --out-words N --imem-words N --ram-words N]\n"
               "  [--trace <path>]              chrome://tracing span export\n");
  std::exit(2);
}

std::vector<std::uint32_t> parse_words(const std::string& s) {
  std::vector<std::uint32_t> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    out.push_back(static_cast<std::uint32_t>(std::stoul(item, nullptr, 0)));
  }
  return out;
}

/// Parses the 32-hex-digit form Block::hex() prints (most significant byte
/// first), so seeds and digests round-trip through the command line.
crypto::Block parse_block(const std::string& s) {
  if (s.size() != 32) usage("seed must be 32 hex digits");
  std::uint8_t bytes[16];
  for (int i = 0; i < 16; ++i) {
    bytes[15 - i] =
        static_cast<std::uint8_t>(std::stoul(s.substr(2 * static_cast<std::size_t>(i), 2),
                                             nullptr, 16));
  }
  return crypto::Block::from_bytes(bytes);
}

crypto::Block os_entropy_block() {
  std::random_device rd;
  std::uint8_t bytes[16];
  for (int i = 0; i < 16; i += 4) {
    const std::uint32_t v = rd();
    std::memcpy(bytes + i, &v, 4);
  }
  return crypto::Block::from_bytes(bytes);
}

std::pair<std::string, std::uint16_t> parse_hostport(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos) usage("expected host:port");
  return {s.substr(0, colon),
          static_cast<std::uint16_t>(std::stoul(s.substr(colon + 1), nullptr, 10))};
}

Args parse_args(int argc, char** argv) {
  Args a;
  auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage("missing flag value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--role") {
      a.role = next(i);
    } else if (f == "--listen") {
      a.listen = next(i);
    } else if (f == "--connect") {
      a.connect = next(i);
    } else if (f == "--program") {
      a.program = next(i);
    } else if (f == "--input") {
      a.input = parse_words(next(i));
    } else if (f == "--alice") {
      a.alice = parse_words(next(i));
    } else if (f == "--bob") {
      a.bob = parse_words(next(i));
    } else if (f == "--max-cycles") {
      a.max_cycles = std::stoull(next(i), nullptr, 0);
    } else if (f == "--ot") {
      const std::string v = next(i);
      if (v == "ideal") {
        a.ot = gc::OtBackend::Ideal;
      } else if (v == "iknp") {
        a.ot = gc::OtBackend::Iknp;
      } else if (v == "precomp") {
        a.ot = gc::OtBackend::Precomp;
      } else {
        usage("unknown OT backend");
      }
    } else if (f == "--ot-pool") {
      a.ot_pool = std::stoull(next(i), nullptr, 0);
      if (a.ot_pool == 0) usage("--ot-pool must be nonzero");
    } else if (f == "--seed") {
      a.seed = parse_block(next(i));
    } else if (f == "--private-seed") {
      const std::string v = next(i);
      a.private_seed = v == "os" ? os_entropy_block() : parse_block(v);
    } else if (f == "--alice-words") {
      a.cfg.alice_words = std::stoull(next(i), nullptr, 0);
    } else if (f == "--bob-words") {
      a.cfg.bob_words = std::stoull(next(i), nullptr, 0);
    } else if (f == "--out-words") {
      a.cfg.out_words = std::stoull(next(i), nullptr, 0);
    } else if (f == "--imem-words") {
      a.cfg.imem_words = std::stoull(next(i), nullptr, 0);
    } else if (f == "--ram-words") {
      a.cfg.ram_words = std::stoull(next(i), nullptr, 0);
    } else if (f == "--trace") {
      a.trace_path = next(i);
    } else {
      usage(("unknown flag " + f).c_str());
    }
  }
  if (a.role != "garbler" && a.role != "evaluator" && a.role != "local") {
    usage("--role must be garbler, evaluator or local");
  }
  if (a.program.empty()) usage("--program is required");
  return a;
}

programs::Program load_program(const Args& a) {
  if (a.program == "sum32") return programs::sum(1);
  if (a.program == "compare32") return programs::compare(1);
  if (a.program == "mult32") return programs::mult32();
  if (a.program == "hamming160") return programs::hamming(5);
  std::ifstream in(a.program);
  if (!in) usage(("cannot open program file " + a.program).c_str());
  std::stringstream src;
  src << in.rdbuf();
  programs::Program p;
  p.name = a.program;
  p.source = src.str();
  p.words = arm::assemble(p.source);
  p.cfg = a.cfg;
  return p;
}

/// The role-independent result lines both processes (and --role local) must
/// print identically.
void print_summary(const std::string& program, std::uint64_t cycles,
                   std::uint64_t garbled_non_xor, std::uint64_t live_gates,
                   const std::vector<std::uint32_t>& outputs, const crypto::Block& digest,
                   const gc::CommStats& comm) {
  std::printf("program=%s cycles=%llu garbled_non_xor=%llu live_gates=%llu\n", program.c_str(),
              static_cast<unsigned long long>(cycles),
              static_cast<unsigned long long>(garbled_non_xor),
              static_cast<unsigned long long>(live_gates));
  std::printf("outputs=");
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    std::printf("%s%08x", i == 0 ? "" : " ", outputs[i]);
  }
  std::printf("\n");
  std::printf("table_digest=%s\n", digest.hex().c_str());
  std::printf("comm garbled_table=%llu input_label=%llu ot=%llu output=%llu total=%llu\n",
              static_cast<unsigned long long>(comm.garbled_table_bytes),
              static_cast<unsigned long long>(comm.input_label_bytes),
              static_cast<unsigned long long>(comm.ot_bytes),
              static_cast<unsigned long long>(comm.output_bytes),
              static_cast<unsigned long long>(comm.total()));
}

/// Fixed-layout out-of-band summary each party sends after the protocol.
struct WireSummary {
  std::uint64_t magic = 0x61326763'70617274ull;  // "a2gcpart"
  std::uint64_t cycles = 0;
  std::uint64_t garbled_non_xor = 0;
  std::uint8_t digest[16] = {};
  std::uint64_t comm[4] = {};  ///< sent bytes: table, input label, ot, output
  std::uint64_t out_count = 0;
};

void send_summary(gc::SocketDuplex& sock, const arm::Arm2GcResult& r,
                  const gc::CommStats& sent, const std::vector<std::uint32_t>& outputs) {
  WireSummary w;
  w.cycles = r.cycles;
  w.garbled_non_xor = r.stats.garbled_non_xor;
  r.stats.table_digest.to_bytes(w.digest);
  w.comm[0] = sent.garbled_table_bytes;
  w.comm[1] = sent.input_label_bytes;
  w.comm[2] = sent.ot_bytes;
  w.comm[3] = sent.output_bytes;
  w.out_count = outputs.size();
  sock.send_control(&w, sizeof w);
  if (!outputs.empty()) {
    sock.send_control(outputs.data(), outputs.size() * sizeof(std::uint32_t));
  }
}

/// `max_out` is the output-memory size this party derives from the public
/// program; the peer's out_count is rejected above it before allocating.
WireSummary recv_summary(gc::SocketDuplex& sock, std::vector<std::uint32_t>& outputs,
                         std::size_t max_out) {
  WireSummary w;
  sock.recv_control(&w, sizeof w);
  if (w.magic != WireSummary{}.magic) {
    throw std::runtime_error("arm2gc_party: malformed wrap-up summary (desynced stream?)");
  }
  if (w.out_count > max_out) {
    throw std::runtime_error("arm2gc_party: peer wrap-up claims more output words than "
                             "the program's output memory holds");
  }
  outputs.resize(w.out_count);
  if (w.out_count != 0) {
    sock.recv_control(outputs.data(), outputs.size() * sizeof(std::uint32_t));
  }
  return w;
}

int run_local(const Args& a, const programs::Program& prog) {
  // The in-process driver is the deterministic reference: it always runs
  // under the built-in protocol seed (both parties, one address space).
  // Rejecting the seed flags here beats silently producing digests that a
  // custom-seeded two-process run can never match.
  if (!(a.seed == core::kDefaultProtocolSeed) || a.private_seed.has_value()) {
    usage("--seed/--private-seed apply to the two-process roles only; "
          "--role local always uses the built-in deterministic seed");
  }
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  core::ExecOptions exec;
  exec.ot_backend = a.ot;
  exec.ot_pool = a.ot_pool;
  const arm::Arm2GcResult r =
      machine.run(a.alice, a.bob, a.max_cycles, gc::Scheme::HalfGates, exec);
  std::printf("role=local\n");
  print_summary(prog.name, r.cycles, r.stats.garbled_non_xor, r.stats.live_gates, r.outputs,
                r.stats.table_digest, r.stats.comm);
  return 0;
}

int run_party(const Args& a, const programs::Program& prog) {
  const bool is_garbler = a.role == "garbler";
  if (a.listen.empty() == a.connect.empty()) {
    usage("two-process roles need exactly one of --listen / --connect");
  }

  std::unique_ptr<gc::SocketDuplex> sock;
  if (!a.listen.empty()) {
    const auto [host, port] = parse_hostport(a.listen);
    gc::SocketListener listener(host, port);
    std::fprintf(stderr, "[%s] listening on %s:%u\n", a.role.c_str(), host.c_str(),
                 listener.port());
    sock = listener.accept();
  } else {
    const auto [host, port] = parse_hostport(a.connect);
    sock = gc::SocketDuplex::connect(host, port);
  }
  std::fprintf(stderr, "[%s] connected\n", a.role.c_str());

  const arm::Arm2Gc machine(prog.cfg, prog.words);
  core::ExecOptions exec;
  exec.ot_backend = a.ot;
  exec.ot_pool = a.ot_pool;
  core::PartyOptions opts =
      machine.party_options(is_garbler ? core::Role::Garbler : core::Role::Evaluator,
                            a.max_cycles, gc::Scheme::HalfGates, exec);
  opts.protocol_seed = a.seed;
  // This process's own randomness: never shipped, never shared. The default
  // (protocol seed) keeps runs byte-identical to the in-process driver.
  opts.private_seed = a.private_seed.value_or(a.seed);

  const arm::Arm2GcResult r = is_garbler
                                  ? machine.run_garbler(a.input, sock->end(), opts)
                                  : machine.run_evaluator(a.input, sock->end(), opts);
  const gc::CommStats own_sent = sock->sent();

  // Out-of-band wrap-up: garbler sends first (summary + decoded outputs),
  // then reads the evaluator's summary; the evaluator mirrors it.
  std::vector<std::uint32_t> outputs = r.outputs;
  WireSummary peer;
  std::vector<std::uint32_t> peer_outputs;
  if (is_garbler) {
    send_summary(*sock, r, own_sent, outputs);
    peer = recv_summary(*sock, peer_outputs, prog.cfg.out_words);
  } else {
    peer = recv_summary(*sock, peer_outputs, prog.cfg.out_words);
    send_summary(*sock, r, own_sent, outputs);
    outputs = peer_outputs;  // Bob learns the result from Alice's wrap-up
  }

  if (peer.cycles != r.cycles || peer.garbled_non_xor != r.stats.garbled_non_xor) {
    std::fprintf(stderr, "[%s] FAIL: parties disagree on the protocol shape\n",
                 a.role.c_str());
    return 1;
  }
  // The garbler digests the tables it sent, the evaluator the tables it
  // received: equality certifies table content end to end.
  if (!(crypto::Block::from_bytes(peer.digest) == r.stats.table_digest)) {
    std::fprintf(stderr, "[%s] FAIL: garbled-table digest mismatch across parties\n",
                 a.role.c_str());
    return 1;
  }

  gc::CommStats comm = own_sent;
  comm.garbled_table_bytes += peer.comm[0];
  comm.input_label_bytes += peer.comm[1];
  comm.ot_bytes += peer.comm[2];
  comm.output_bytes += peer.comm[3];

  std::printf("role=%s\n", a.role.c_str());
  print_summary(prog.name, r.cycles, r.stats.garbled_non_xor, r.stats.live_gates, outputs,
                r.stats.table_digest, comm);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const programs::Program prog = load_program(a);
    if (!a.trace_path.empty()) obs::Tracer::instance().enable();
    const int rc = a.role == "local" ? run_local(a, prog) : run_party(a, prog);
    if (!a.trace_path.empty() &&
        !obs::Tracer::instance().export_to_file(a.trace_path)) {
      std::fprintf(stderr, "arm2gc_party: cannot write trace %s\n",
                   a.trace_path.c_str());
      return 1;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "arm2gc_party: %s\n", e.what());
    return 1;
  }
}
