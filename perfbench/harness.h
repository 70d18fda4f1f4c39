// Shared plumbing of the end-to-end benchmark: clocks, resource snapshots,
// order statistics, the per-layer metric ledger and the timing transport
// decorator. Everything here measures the library from outside, through its
// public headers; nothing is compiled into the library itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gc/transport.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Process-wide resource counters (getrusage(RUSAGE_SELF)).
struct Usage {
  double user_ms = 0;
  double sys_ms = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary

  [[nodiscard]] double cpu_ms() const { return user_ms + sys_ms; }
  static Usage now();
  Usage operator-(const Usage& o) const;
};

/// CPU time thread `t` has used so far, in ms (0 if the clock is unavailable).
[[nodiscard]] double thread_cpu_ms(std::thread& t);
/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// A set of CPU ids (empty = no restriction).
using CpuSet = std::vector<int>;
/// The CPUs this process may run on, split into two halves (both empty when
/// fewer than two are available).
[[nodiscard]] std::pair<CpuSet, CpuSet> split_cpus();
/// Restricts the calling thread (and threads it creates later) to `cpus`;
/// no-op for an empty set.
void pin_current_thread(const CpuSet& cpus);

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Deterministic input generator (splitmix64): the same --seed yields the
/// same private inputs in every process.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ULL + 0x243F6A8885A308D3ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::vector<std::uint32_t> words(std::size_t n) {
    std::vector<std::uint32_t> w(n);
    for (auto& x : w) x = static_cast<std::uint32_t>(next());
    return w;
  }

 private:
  std::uint64_t s_;
};

/// Per-layer ledger: named accumulators, reported per run or as-is.
class Ledger {
 public:
  void add(const std::string& name, double v) { sums_[name] += v; }
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, double>& all() const { return sums_; }

 private:
  std::map<std::string, double> sums_;
};

/// gc::Transport decorator that counts send calls and times the time spent
/// inside send() and recv() of the wrapped endpoint. recv time is the wait
/// for the peer's bytes plus the copy; on the non-blocking in-memory duplex
/// it is copy time only.
class TimedTransport final : public arm2gc::gc::Transport {
 public:
  explicit TimedTransport(arm2gc::gc::Transport& inner) : inner_(inner) {}

  void send(const arm2gc::crypto::Block* blocks, std::size_t n, arm2gc::gc::Traffic t) override;
  void recv(arm2gc::crypto::Block* out, std::size_t n) override;
  void account(arm2gc::gc::Traffic t, std::uint64_t bytes) override { inner_.account(t, bytes); }
  void flush() override;

  std::uint64_t send_calls = 0;
  double send_ms = 0;
  double recv_ms = 0;

 private:
  arm2gc::gc::Transport& inner_;
};

/// Adds `elapsed ms of fn()` to ledger entry `name`.
void timed(Ledger& l, const char* name, const std::function<void()>& fn);

/// Host record: printed with every result so numbers from different hosts
/// are never compared.
[[nodiscard]] std::string host_record_json();

/// Everything one measured run of a workload produced.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;  ///< name -> (value, unit)

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
};

}  // namespace perfbench
