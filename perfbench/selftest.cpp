// The benchmark's own test (`a2g_perfbench --selftest`): for every workload,
// one run's exact counts must equal the in-process SkipGateDriver totals for
// the same instance and OT backend, and the garbled-table count must equal
// the pinned figure. This is what makes comm_bytes_per_run and
// garbled_non_xor_per_run comparable across the in-process, TCP and served
// deployments (a socket endpoint's own RunStats.comm reads 0).
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {

int selftest() {
  // Hamming-160 garbles 315 tables in 97 cycles; the 8x8 TinyGarble matrix
  // product 522,304 in 512 cycles.
  const std::map<std::string, std::uint64_t> garbled = {{"hamming160_warm", 315},
                                                        {"hamming160_cold", 315},
                                                        {"tgmatmult8_tcp", 522304},
                                                        {"hamming160_served", 315}};
  int failures = 0;
  for (const std::string& name : workload_names()) {
    try {
      const CountPin p = pin_counts(name);
      const bool ok = p.workload_comm == p.driver_comm &&
                      p.workload_garbled == p.driver_garbled &&
                      p.workload_garbled == garbled.at(name);
      std::printf("%-18s %s  comm %llu (driver %llu)  garbled %llu (driver %llu, pinned %llu)\n",
                  name.c_str(), ok ? "ok  " : "FAIL",
                  static_cast<unsigned long long>(p.workload_comm),
                  static_cast<unsigned long long>(p.driver_comm),
                  static_cast<unsigned long long>(p.workload_garbled),
                  static_cast<unsigned long long>(p.driver_garbled),
                  static_cast<unsigned long long>(garbled.at(name)));
      if (!ok) ++failures;
    } catch (const std::exception& e) {
      std::printf("%-18s FAIL  %s\n", name.c_str(), e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
