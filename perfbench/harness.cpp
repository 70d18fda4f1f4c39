#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "crypto/aes128.h"

#ifndef A2G_BENCH_COMPILER
#define A2G_BENCH_COMPILER "unknown"
#endif
#ifndef A2G_BENCH_BUILD_TYPE
#define A2G_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {
double tv_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
}
}  // namespace

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_ms = tv_ms(ru.ru_utime);
  u.sys_ms = tv_ms(ru.ru_stime);
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

Usage Usage::operator-(const Usage& o) const {
  Usage d;
  d.user_ms = user_ms - o.user_ms;
  d.sys_ms = sys_ms - o.sys_ms;
  d.minor_faults = minor_faults - o.minor_faults;
  d.ctx_switches = ctx_switches - o.ctx_switches;
  return d;
}

double thread_cpu_ms(std::thread& t) {
  clockid_t cid{};
  timespec ts{};
  if (pthread_getcpuclockid(t.native_handle(), &cid) != 0 || clock_gettime(cid, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::pair<CpuSet, CpuSet> split_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return {};
  CpuSet all;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) all.push_back(c);
  }
  if (all.size() < 2) return {};
  const auto mid = all.begin() + static_cast<std::ptrdiff_t>(all.size() / 2);
  return {CpuSet(all.begin(), mid), CpuSet(mid, all.end())};
}

void pin_current_thread(const CpuSet& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the sample at or below it.
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Ledger::get(const std::string& name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

void TimedTransport::send(const arm2gc::crypto::Block* blocks, std::size_t n,
                          arm2gc::gc::Traffic t) {
  const auto t0 = Clock::now();
  inner_.send(blocks, n, t);
  send_ms += ms_since(t0);
  ++send_calls;
}

void TimedTransport::recv(arm2gc::crypto::Block* out, std::size_t n) {
  const auto t0 = Clock::now();
  inner_.recv(out, n);
  recv_ms += ms_since(t0);
}

void TimedTransport::flush() {
  const auto t0 = Clock::now();
  inner_.flush();
  send_ms += ms_since(t0);
}

void timed(Ledger& l, const char* name, const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  l.add(name, ms_since(t0));
}

std::string host_record_json() {
  // aesni is the backend that actually runs: CPU support, compiled in, and
  // not disabled through ARM2GC_DISABLE_AESNI.
  std::ostringstream s;
  s << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"aesni\": " << (arm2gc::crypto::Aes128::aesni_available() ? "true" : "false")
    << ", \"compiler\": \"" << A2G_BENCH_COMPILER << "\""
    << ", \"build_type\": \"" << A2G_BENCH_BUILD_TYPE << "\""
    << ", \"arm2gc_obs\": " << ARM2GC_OBS << "}";
  return s.str();
}

}  // namespace perfbench
