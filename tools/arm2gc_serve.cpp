// Multi-session garbler service + evaluator client for ARM programs: one
// long-lived garbler process (Alice) serves many concurrent evaluator
// connections (Bob) over TCP, multiplexed on an event loop instead of a
// thread per connection — the serving deployment of the framework.
//
//   # serve: register programs (each with Alice's input words) and listen
//   arm2gc_serve --mode serve --listen 127.0.0.1:7432
//                --program hamming160 --input 1,2,3,4,5
//                [--max-clients 64] [--shards 2] [--warm-pool 4]
//   # client: one or more runs, Bob's input words
//   arm2gc_serve --mode client --connect 127.0.0.1:7432
//                --program hamming160 --input 6,7,8,9,10 --ot iknp
//
// The client prints the same `program=` / `outputs=` / `table_digest=` /
// `comm` summary lines as tools/arm2gc_party, and under the default seeds a
// served run is byte-identical to `arm2gc_party --role local` — which is
// exactly what CI diffs.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arm/arm2gc.h"
#include "bench_util.h"
#include "obs/trace.h"
#include "programs/programs.h"
#include "serve/client.h"
#include "serve/service.h"

using namespace arm2gc;

namespace {

std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct ProgramArg {
  std::string name;
  std::vector<std::uint32_t> input;  ///< Alice's words (serve mode)
};

struct Args {
  std::string mode;
  std::string listen;
  std::string connect;
  std::vector<ProgramArg> programs;  ///< serve: many; client: exactly one
  std::uint64_t max_cycles = 1u << 20;
  gc::OtBackend ot = gc::OtBackend::Iknp;
  std::size_t ot_pool = gc::kDefaultOtPoolBatch;
  std::size_t max_clients = 64;
  std::size_t shards = 1;
  std::size_t warm_pool = 4;
  std::uint64_t exit_after_runs = 0;  ///< serve: exit once this many runs finished
  std::size_t runs = 1;               ///< client: sequential runs on one warm state
  int metrics_port = -1;              ///< serve: /metrics listener (-1 = off)
  std::string metrics_host = "127.0.0.1";
  int stats_interval_ms = 0;          ///< serve: periodic obs snapshot cadence
  std::string trace_path;             ///< chrome://tracing JSON output
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "arm2gc_serve: %s\n", msg);
  std::fprintf(stderr,
               "usage: arm2gc_serve --mode serve|client\n"
               "  serve:  --listen host:port\n"
               "          --program <builtin> --input w,w,...   (repeatable pairs;\n"
               "                  builtins: sum32 compare32 mult32 hamming160)\n"
               "          [--max-clients N] [--shards N]\n"
               "          [--warm-pool N] [--exit-after-runs N]\n"
               "          [--metrics-port N] [--metrics-host H] [--stats-interval-ms N]\n"
               "  client: --connect host:port --program <builtin> --input w,w,...\n"
               "          [--ot ideal|iknp|precomp] [--ot-pool N] [--runs N]\n"
               "  common: [--max-cycles N] [--json <path>] [--trace <path>]\n"
               "  garbling is always half-gates + free XOR\n");
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
    if (f == "--mode") {
      a.mode = next(i);
    } else if (f == "--listen") {
      a.listen = next(i);
    } else if (f == "--connect") {
      a.connect = next(i);
    } else if (f == "--program") {
      a.programs.push_back(ProgramArg{next(i), {}});
    } else if (f == "--input") {
      if (a.programs.empty()) usage("--input must follow a --program");
      a.programs.back().input = parse_words(next(i));
    } else if (f == "--max-cycles") {
      a.max_cycles = std::stoull(next(i), nullptr, 0);
    } else if (f == "--max-clients") {
      a.max_clients = std::stoull(next(i), nullptr, 0);
    } else if (f == "--shards") {
      a.shards = std::stoull(next(i), nullptr, 0);
    } else if (f == "--warm-pool") {
      a.warm_pool = std::stoull(next(i), nullptr, 0);
    } else if (f == "--exit-after-runs") {
      a.exit_after_runs = std::stoull(next(i), nullptr, 0);
    } else if (f == "--metrics-port") {
      a.metrics_port = static_cast<int>(std::stoul(next(i), nullptr, 0));
    } else if (f == "--metrics-host") {
      a.metrics_host = next(i);
    } else if (f == "--stats-interval-ms") {
      a.stats_interval_ms = static_cast<int>(std::stoul(next(i), nullptr, 0));
    } else if (f == "--json") {
      benchutil::json().set_path(next(i));
    } else if (f == "--trace") {
      a.trace_path = next(i);
    } else if (f == "--runs") {
      a.runs = std::stoull(next(i), nullptr, 0);
      if (a.runs == 0) usage("--runs must be nonzero");
    } else if (f == "--ot-pool") {
      a.ot_pool = std::stoull(next(i), nullptr, 0);
      if (a.ot_pool == 0) usage("--ot-pool must be nonzero");
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
    } else {
      usage(("unknown flag " + f).c_str());
    }
  }
  if (a.mode != "serve" && a.mode != "client") usage("--mode must be serve or client");
  if (a.programs.empty()) usage("--program is required");
  return a;
}

programs::Program load_program(const std::string& name) {
  if (name == "sum32") return programs::sum(1);
  if (name == "compare32") return programs::compare(1);
  if (name == "mult32") return programs::mult32();
  if (name == "hamming160") return programs::hamming(5);
  usage(("unknown builtin program " + name).c_str());
}

/// One registered machine: the Arm2Gc instance must outlive the service
/// (ProgramSpec borrows its netlist).
struct Registered {
  std::unique_ptr<arm::Arm2Gc> machine;
  serve::ProgramSpec spec;
};

int run_serve(const Args& a) {
  if (a.listen.empty()) usage("serve mode needs --listen");
  const auto [host, port] = parse_hostport(a.listen);

  std::vector<Registered> registered;
  std::vector<serve::ProgramSpec> specs;
  for (const ProgramArg& pa : a.programs) {
    const programs::Program prog = load_program(pa.name);
    Registered r;
    r.machine = std::make_unique<arm::Arm2Gc>(prog.cfg, prog.words);
    r.spec.name = pa.name;
    r.spec.nl = &r.machine->cpu().nl;
    r.spec.opts = r.machine->party_options(core::Role::Garbler, a.max_cycles);
    r.spec.alice_bits = r.machine->alice_input_bits(pa.input);
    registered.push_back(std::move(r));
    specs.push_back(registered.back().spec);
  }

  serve::ServiceOptions so;
  so.host = host;
  so.port = port;
  so.max_clients = a.max_clients;
  so.shards = a.shards;
  so.warm_pool = a.warm_pool;
  so.metrics_port = a.metrics_port;
  so.metrics_host = a.metrics_host;
  so.stats_interval_ms = a.stats_interval_ms;
  serve::GarblerService service(std::move(specs), so);
  service.start();
  std::fprintf(stderr, "[serve] listening on %s:%u (%zu programs, %zu shards)\n",
               host.c_str(), service.port(), a.programs.size(), so.shards);
  if (service.metrics_port() != 0) {
    std::fprintf(stderr, "[serve] metrics on http://%s:%u/metrics\n",
                 so.metrics_host.c_str(), service.metrics_port());
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop == 0) {
    if (a.exit_after_runs != 0) {
      const serve::ServiceStats st = service.stats();
      if (st.runs_ok + st.runs_failed >= a.exit_after_runs) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  service.stop();

  const serve::ServiceStats st = service.stats();
  std::printf("serve accepted=%llu runs_ok=%llu runs_failed=%llu rejected=%llu\n",
              static_cast<unsigned long long>(st.accepted),
              static_cast<unsigned long long>(st.runs_ok),
              static_cast<unsigned long long>(st.runs_failed),
              static_cast<unsigned long long>(st.hello_rejected));
  std::printf("serve warm_hits=%llu warm_misses=%llu gates=%llu cycles=%llu high_water=%llu\n",
              static_cast<unsigned long long>(st.warm_hits),
              static_cast<unsigned long long>(st.warm_misses),
              static_cast<unsigned long long>(st.gates_garbled),
              static_cast<unsigned long long>(st.cycles_run),
              static_cast<unsigned long long>(st.send_queue_high_water));
  benchutil::json_service_stats("serve", st);
  if (benchutil::finish() != 0) return 1;
  return st.runs_failed == 0 ? 0 : 1;
}

int run_client(const Args& a) {
  if (a.connect.empty()) usage("client mode needs --connect");
  if (a.programs.size() != 1) usage("client mode takes exactly one --program");
  const auto [host, port] = parse_hostport(a.connect);
  const ProgramArg& pa = a.programs.front();
  const programs::Program prog = load_program(pa.name);
  const arm::Arm2Gc machine(prog.cfg, prog.words);

  serve::ClientOptions co;
  co.program = pa.name;
  co.ot_backend = a.ot;
  co.ot_pool = a.ot_pool;
  co.halt_wire = machine.cpu().halt_wire;
  co.max_cycles = a.max_cycles;

  // One warm state across --runs: repeat runs ride the warm plan caches on
  // both sides, the serving scenario.
  core::WarmState::Options wopts;
  wopts.ot_backend = a.ot;
  wopts.ot_pool = a.ot_pool;
  wopts.seed = co.protocol_seed;
  core::WarmState warm(core::Role::Evaluator, wopts);
  const netlist::BitVec bob = machine.bob_input_bits(pa.input);

  serve::ClientResult res;
  for (std::size_t r = 0; r < a.runs; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    res = serve::run_client(host, port, machine.cpu().nl, co, bob, {}, nullptr, &warm);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::fprintf(stderr, "[client] run %zu/%zu: %.1f ms\n", r + 1, a.runs, ms);
  }

  const std::vector<std::uint32_t> outputs = machine.decode_output_bits(res.outputs);
  const gc::CommStats comm = res.comm_total();
  std::printf("role=client\n");
  std::printf("program=%s cycles=%llu garbled_non_xor=%llu live_gates=%llu\n", prog.name.c_str(),
              static_cast<unsigned long long>(res.cycles),
              static_cast<unsigned long long>(res.garbled_non_xor),
              static_cast<unsigned long long>(res.stats.live_gates));
  std::printf("outputs=");
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    std::printf("%s%08x", i == 0 ? "" : " ", outputs[i]);
  }
  std::printf("\n");
  std::printf("table_digest=%s\n", res.table_digest.hex().c_str());
  std::printf("comm garbled_table=%llu input_label=%llu ot=%llu output=%llu total=%llu\n",
              static_cast<unsigned long long>(comm.garbled_table_bytes),
              static_cast<unsigned long long>(comm.input_label_bytes),
              static_cast<unsigned long long>(comm.ot_bytes),
              static_cast<unsigned long long>(comm.output_bytes),
              static_cast<unsigned long long>(comm.total()));
  if (benchutil::json().enabled()) {
    benchutil::json().add("client.program", pa.name);
    benchutil::json().add("client.runs", static_cast<std::uint64_t>(a.runs));
    benchutil::json().add("client.cycles", res.cycles);
    benchutil::json().add("client.table_digest", res.table_digest.hex());
    benchutil::json_stats("client", res.stats);
  }
  return benchutil::finish();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (!a.trace_path.empty()) obs::Tracer::instance().enable();
    const int rc = a.mode == "serve" ? run_serve(a) : run_client(a);
    if (!a.trace_path.empty() &&
        !obs::Tracer::instance().export_to_file(a.trace_path)) {
      std::fprintf(stderr, "arm2gc_serve: cannot write trace %s\n",
                   a.trace_path.c_str());
      return 1;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "arm2gc_serve: %s\n", e.what());
    return 1;
  }
}
