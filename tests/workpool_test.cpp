// WorkPool unit tests: DAG-ordered execution, the ordered feed/drain I/O
// contract (ascending feed, ascending-completion drain, both on the calling
// thread), exception propagation with cancellation, serial/pooled schedule
// equivalence, and a contention stress run. These are the properties the
// parallel garbling/evaluation sessions and the planner's parallel
// classification are built on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/workpool.h"

namespace {

using arm2gc::core::WorkPool;

/// Builds the dependency CSR from an adjacency list (deps[i] = tasks i
/// depends on; every edge must point at an earlier task, as in a CyclePlan).
struct DepGraph {
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> edges;

  explicit DepGraph(const std::vector<std::vector<std::uint32_t>>& deps) {
    offsets.push_back(0);
    for (const auto& d : deps) {
      edges.insert(edges.end(), d.begin(), d.end());
      offsets.push_back(static_cast<std::uint32_t>(edges.size()));
    }
  }
};

TEST(WorkPool, ResolveThreads) {
  EXPECT_EQ(WorkPool::resolve_threads(1), 1u);
  EXPECT_EQ(WorkPool::resolve_threads(7), 7u);
  EXPECT_GE(WorkPool::resolve_threads(0), 1u);  // 0 = hardware concurrency
}

TEST(WorkPool, RunSerialIsAscendingFeedFnDrain) {
  std::vector<int> trace;
  WorkPool::run_serial(
      3, [&](std::size_t i) { trace.push_back(static_cast<int>(10 + i)); },
      [&](std::size_t i) { trace.push_back(static_cast<int>(i)); },
      [&](std::size_t i) { trace.push_back(static_cast<int>(20 + i)); });
  EXPECT_EQ(trace, (std::vector<int>{0, 10, 20, 1, 11, 21, 2, 12, 22}));
}

TEST(WorkPool, ExecutesEveryTaskExactlyOnce) {
  WorkPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, nullptr, nullptr, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkPool, RespectsDependencyOrder) {
  // A diamond ladder: every task depends on the previous two, so any
  // execution order the pool picks must still see both deps completed.
  constexpr std::size_t kTasks = 400;
  std::vector<std::vector<std::uint32_t>> deps(kTasks);
  for (std::uint32_t i = 1; i < kTasks; ++i) {
    deps[i].push_back(i - 1);
    if (i >= 2) deps[i].push_back(i - 2);
  }
  const DepGraph g(deps);
  WorkPool pool(4);
  std::vector<std::atomic<std::uint8_t>> done(kTasks);
  std::atomic<bool> violated{false};
  pool.run(kTasks, g.offsets.data(), g.edges.data(), [&](std::size_t i) {
    if (i >= 1 && !done[i - 1].load()) violated = true;
    if (i >= 2 && !done[i - 2].load()) violated = true;
    done[i].store(1);
  });
  EXPECT_FALSE(violated.load());
}

TEST(WorkPool, FeedGatesTasksAndDrainRunsInAscendingOrderOnCaller) {
  constexpr std::size_t kTasks = 200;
  WorkPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<std::uint8_t>> fed(kTasks);
  std::vector<std::size_t> fed_order;
  std::vector<std::size_t> drained_order;
  std::atomic<bool> ran_unfed{false};
  pool.run(
      kTasks, nullptr, nullptr,
      [&](std::size_t i) {
        if (!fed[i].load()) ran_unfed = true;  // feed is a dependency
      },
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        fed[i].store(1);
        fed_order.push_back(i);
      },
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        drained_order.push_back(i);
      });
  EXPECT_FALSE(ran_unfed.load());
  ASSERT_EQ(fed_order.size(), kTasks);
  ASSERT_EQ(drained_order.size(), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(fed_order[i], i);
    EXPECT_EQ(drained_order[i], i);  // ordered writer: ascending completion
  }
}

TEST(WorkPool, PooledMatchesSerialOnASlicePipeline) {
  // The session shape in miniature: each task transforms its input cell,
  // reading its dependencies' outputs; drain folds a running digest in task
  // order. Pooled and serial schedules must produce identical results.
  constexpr std::size_t kTasks = 300;
  std::vector<std::vector<std::uint32_t>> deps(kTasks);
  for (std::uint32_t i = 0; i < kTasks; ++i) {
    if (i >= 3) deps[i].push_back(i - 3);
    if (i >= 7) deps[i].push_back(i - 7);
  }
  const DepGraph g(deps);

  auto run_once = [&](WorkPool* pool) {
    std::vector<std::uint64_t> cell(kTasks, 0);
    std::uint64_t digest = 0;
    const auto fn = [&](std::size_t i) {
      std::uint64_t v = 0x9E3779B97F4A7C15ull * (i + 1);
      if (i >= 3) v ^= cell[i - 3];
      if (i >= 7) v ^= cell[i - 7] << 1;
      cell[i] = v;
    };
    const auto drain = [&](std::size_t i) { digest = digest * 31 + cell[i]; };
    WorkPool::execute(pool, kTasks, g.offsets.data(), g.edges.data(), fn, {}, drain);
    return digest;
  };

  const std::uint64_t serial = run_once(nullptr);
  WorkPool pool(4);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(run_once(&pool), serial) << "round " << round;
  }
}

TEST(WorkPool, WorkerExceptionCancelsAndRethrows) {
  WorkPool pool(3);
  constexpr std::size_t kTasks = 500;
  std::atomic<int> started{0};
  EXPECT_THROW(pool.run(kTasks, nullptr, nullptr,
                        [&](std::size_t i) {
                          started.fetch_add(1);
                          if (i == 10) throw std::runtime_error("boom");
                          // Tasks take real time, so on a loaded host the
                          // workers cannot drain all of them before the
                          // cancellation lands.
                          std::this_thread::sleep_for(std::chrono::microseconds(50));
                        }),
               std::runtime_error);
  // Cancellation keeps the tail from starting (in-flight tasks may finish).
  EXPECT_LT(started.load(), static_cast<int>(kTasks));
  // The pool must stay usable after a cancelled run.
  std::atomic<int> ok{0};
  pool.run(8, nullptr, nullptr, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(WorkPool, FeedAndDrainExceptionsPropagate) {
  WorkPool pool(2);
  EXPECT_THROW(pool.run(4, nullptr, nullptr, [](std::size_t) {},
                        [](std::size_t i) {
                          if (i == 2) throw std::logic_error("feed");
                        }),
               std::logic_error);
  EXPECT_THROW(pool.run(4, nullptr, nullptr, [](std::size_t) {}, {},
                        [](std::size_t i) {
                          if (i == 1) throw std::out_of_range("drain");
                        }),
               std::out_of_range);
}

TEST(WorkPool, RejectsForwardDependencyEdges) {
  WorkPool pool(2);
  const std::uint32_t offsets[] = {0, 1, 1};
  const std::uint32_t edges[] = {1};  // task 0 depends on the later task 1
  EXPECT_THROW(pool.run(2, offsets, edges, [](std::size_t) {}), std::invalid_argument);
}

TEST(WorkPool, StressManySmallRuns) {
  // Session-shaped load: many short runs (one per cycle) on a persistent
  // pool, alternating edgeless and chained DAGs. Exercises worker parking
  // and re-dispatch; run under TSan in CI.
  WorkPool pool(4);
  std::vector<std::vector<std::uint32_t>> deps(64);
  for (std::uint32_t i = 1; i < 64; ++i) deps[i].push_back(i - 1);
  const DepGraph chain(deps);
  std::uint64_t total = 0;
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::uint64_t> sum{0};
    const auto fn = [&](std::size_t i) { sum.fetch_add(i + 1); };
    if (round % 2 == 0) {
      pool.run(64, nullptr, nullptr, fn);
    } else {
      pool.run(64, chain.offsets.data(), chain.edges.data(), fn);
    }
    total += sum.load();
  }
  EXPECT_EQ(total, 200ull * (64ull * 65ull / 2));
}

}  // namespace
