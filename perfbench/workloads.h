// The benchmark's four workloads and the measurement loop that runs them.
//
//   hamming160_warm    ARM Hamming-160 through one Arm2Gc::Session (warm)
//   hamming160_cold    the same program, a fresh Session every run
//   tgmatmult8_tcp     8x8 TinyGarble matrix product, garbler and evaluator
//                      endpoints, one thread each, over loopback TCP
//   hamming160_served  one GarblerService, three closed-loop clients
//
// Every run gets fresh private inputs from the --seed stream and is checked
// against a plaintext reference; exact protocol counts are checked against
// the in-process SkipGateDriver totals for the same instance and OT backend.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload for opts.seconds and returns its metrics: the
/// end-to-end set when opts.trace is false, the per-layer set otherwise.
/// Throws std::invalid_argument on an unknown workload name.
[[nodiscard]] Report run_workload(const Options& opts);

/// Exact per-run totals of the in-process SkipGateDriver for a workload's
/// instance and OT backend, and what the workload's own deployment produced
/// for one run — the benchmark's self-test compares the two.
struct CountPin {
  std::uint64_t driver_comm = 0;
  std::uint64_t driver_garbled = 0;
  std::uint64_t workload_comm = 0;
  std::uint64_t workload_garbled = 0;
};
[[nodiscard]] CountPin pin_counts(const std::string& workload);

}  // namespace perfbench
