// Shared table-printing and JSON-recording helpers for the
// paper-reproduction benchmarks.
//
// Every bench binary accepts `--json <path>`: rows record their key metrics
// into a flat JSON object which is written on exit, so the BENCH_*.json
// files in the repo can be regenerated reproducibly instead of hand-edited:
//
//   ./bench_table1 --json BENCH_table1.json
//
// Rows are deterministic counts only (gates, bytes, choices, ratios of
// counts), so a regenerated file is byte-identical to the committed one and
// CI diffs them. Wall-clock belongs to perfbench/.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/skipgate.h"
#include "serve/service.h"

namespace benchutil {

/// Flat key -> value JSON recorder (insertion-ordered). Values are
/// pre-rendered; keys are escaped minimally (quotes and backslashes).
class JsonWriter {
 public:
  void set_path(std::string path) { path_ = std::move(path); }
  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  void add(const std::string& key, std::uint64_t v) { kv_.emplace_back(key, std::to_string(v)); }
  void add(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    kv_.emplace_back(key, buf);
  }
  void add(const std::string& key, const std::string& v) {
    // Built by append instead of a leading-literal operator+ chain to
    // sidestep the GCC 12 -Wrestrict false positive (PR 105329), as num()
    // below does.
    std::string quoted;
    quoted.reserve(v.size() + 2);
    quoted.push_back('"');
    quoted.append(escape(v));
    quoted.push_back('"');
    kv_.emplace_back(key, std::move(quoted));
  }

  /// Writes `{ "key": value, ... }`; returns false (and complains) on I/O
  /// failure. A no-op success when --json was not given.
  [[nodiscard]] bool write() const {
    if (path_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < kv_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", escape(kv_[i].first).c_str(), kv_[i].second.c_str(),
                   i + 1 < kv_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\n[json written to %s]\n", path_.c_str());
    return true;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::vector<std::pair<std::string, std::string>> kv_;
};

inline JsonWriter& json() {
  static JsonWriter w;
  return w;
}

/// Parses common bench flags (currently `--json <path>`).
inline void parse_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") json().set_path(argv[i + 1]);
  }
}

/// End-of-main hook: flushes the JSON file (if requested) and converts an
/// I/O failure into a nonzero exit code.
inline int finish() { return json().write() ? 0 : 1; }

/// Records the uniform per-row protocol stats under `prefix.*`.
inline void json_stats(const std::string& prefix, const arm2gc::core::RunStats& s) {
  if (!json().enabled()) return;
  json().add(prefix + ".garbled_non_xor", s.garbled_non_xor);
  json().add(prefix + ".skip_ratio", s.skip_ratio());
  json().add(prefix + ".plan_cache_hit_ratio", s.plan_cache_hit_ratio());
  json().add(prefix + ".comm_bytes", s.comm.total());
  json().add(prefix + ".ot_online_bytes", s.ot_online_bytes);
}

/// Records service-side counters under `prefix.*` (`arm2gc_serve --json`).
inline void json_service_stats(const std::string& prefix,
                               const arm2gc::serve::ServiceStats& s) {
  if (!json().enabled()) return;
  json().add(prefix + ".accepted", s.accepted);
  json().add(prefix + ".hello_rejected", s.hello_rejected);
  json().add(prefix + ".runs_ok", s.runs_ok);
  json().add(prefix + ".runs_failed", s.runs_failed);
  json().add(prefix + ".warm_hits", s.warm_hits);
  json().add(prefix + ".warm_misses", s.warm_misses);
  json().add(prefix + ".gates_garbled", s.gates_garbled);
  json().add(prefix + ".cycles_run", s.cycles_run);
  json().add(prefix + ".send_queue_high_water", s.send_queue_high_water);
}

inline void header(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

inline void row4(const std::string& name, const std::string& c1, const std::string& c2,
                 const std::string& c3, const std::string& c4) {
  std::printf("%-22s %16s %16s %16s %12s\n", name.c_str(), c1.c_str(), c2.c_str(), c3.c_str(),
              c4.c_str());
}

inline std::string num(std::uint64_t v) {
  // Built left-to-right (instead of insert-from-the-right) to sidestep the
  // GCC 12 -Wrestrict false positive on std::string::insert (PR 105329).
  const std::string digits = std::to_string(v);
  std::string s;
  s.reserve(digits.size() + digits.size() / 3);
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (digits.size() - i) % 3 == 0) s.push_back(',');
    s.push_back(digits[i]);
  }
  return s;
}

inline std::string pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f%%", v);
  return buf;
}

inline std::string ratio_k(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0fx", v);
  return buf;
}

/// Percent improvement of `with` over `without` (garbled non-XOR counts).
inline std::string improv_pct(std::uint64_t without, std::uint64_t with) {
  return pct(without == 0 ? 0.0
                          : 100.0 * (static_cast<double>(without) - static_cast<double>(with)) /
                                static_cast<double>(without));
}

/// Improvement ratio "Nx" of `with` over `without` (guards division by zero).
inline std::string improv_ratio(std::uint64_t without, std::uint64_t with) {
  return ratio_k(static_cast<double>(without) /
                 static_cast<double>(with == 0 ? std::uint64_t{1} : with));
}

/// Uniform per-row protocol-stats suffix: SkipGate elision ratio, plan cache
/// hit rate and online OT bytes, straight from RunStats (no per-bench hand
/// computation).
inline std::string stats_brief(const arm2gc::core::RunStats& s) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "skip %6.2f%%  cache %5.1f%%  otB %s", 100.0 * s.skip_ratio(),
                100.0 * s.plan_cache_hit_ratio(), num(s.ot_online_bytes).c_str());
  return buf;
}

}  // namespace benchutil
