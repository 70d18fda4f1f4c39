// End-to-end benchmark of the garbled ARM processor and its deployments.
//
//   a2g_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   a2g_perfbench --selftest
//
// Prints a host record line, then, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Fatal errors (bad arguments, a deployment that cannot be set up) exit
// non-zero without a result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
int selftest();
}

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "a2g_perfbench: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: a2g_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n"
               "       a2g_perfbench --selftest\n"
               "workloads:");
  for (const std::string& n : perfbench::workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--selftest") return perfbench::selftest();
    if (i + 1 >= argc) usage("missing value for " + f);
    const std::string v = argv[++i];
    try {
      if (f == "--workload") {
        opts.workload = v;
        have_workload = true;
      } else if (f == "--seed") {
        opts.seed = std::stoull(v);
      } else if (f == "--seconds") {
        opts.seconds = std::stod(v);
      } else if (f == "--trace") {
        opts.trace = std::stoi(v) != 0;
      } else {
        usage("unknown flag " + f);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + f + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opts.seconds > 0)) usage("--seconds must be positive");

  std::printf("host %s\n", perfbench::host_record_json().c_str());
  std::fflush(stdout);
  perfbench::Report rep;
  try {
    rep = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "a2g_perfbench: %s: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& e : rep.errors) {
    std::fprintf(stderr, "a2g_perfbench: %s: run failed: %s\n", opts.workload.c_str(), e.c_str());
  }

  std::string metrics;
  for (const auto& [name, vu] : rep.metrics) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
               json_escape(vu.second) + "\"}";
  }
  const bool correct = rep.attempted > 0 && rep.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), metrics.c_str());
  return 0;
}
