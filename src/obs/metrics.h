// Observability: process-wide metrics registry — named counters, gauges and
// fixed-bucket latency histograms with percentile readout. This is the
// measurement layer every ROADMAP item now blocks on (shard-scaling curves,
// stitch-floor headroom, cold-vs-marginal query costs): write-cheap enough
// to live on the per-cycle party hot path, readable as a Prometheus text
// page from the serving layer (serve/ renders it; obs itself has no sockets).
//
// Design constraints, in order:
//   - Writes are lock-free and sharded: every instrument is an array of
//     cache-line-isolated atomic cells indexed by a per-thread ordinal, so
//     serve shards and party threads never contend on a counter line. Reads (snapshot,
//     percentiles, rendering) sum the shards — they are the cold path.
//   - Instrumentation never changes results: nothing here touches the
//     protocol, transports, sessions or any RNG. The planner-purity lint
//     rule still EXCLUDES obs from core/plan.* — the public-values-only
//     planning argument stays free of wall-clock state; slice execution is
//     traced from the sessions' slice loops.
//   - Compiled out entirely under -DARM2GC_OBS=OFF: the A2G_* macros expand
//     to nothing and the classes become empty inline stubs, so a disabled
//     build carries zero instructions and zero statics. When compiled in
//     but unsampled, a call site costs one static-init guard load plus one
//     relaxed fetch_add (measured <2% wall on the warm Hamming-160 path,
//     recorded in ROADMAP.md).
//
// Call-site idiom (the macros below package it):
//   static obs::Counter& c = obs::Registry::instance().counter("ot.refills");
//   c.add();
// Metric names are dot-separated lowercase ("serve.phase.work_ns"); the
// Prometheus renderer maps them to arm2gc_serve_phase_work_ns.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

// CMake defines ARM2GC_OBS=0 for a disabled build; standalone header
// compilation (header_selfcheck) and defaulted builds get the enabled shape.
#ifndef ARM2GC_OBS
#define ARM2GC_OBS 1
#endif

namespace arm2gc::obs {

/// Monotonic nanoseconds (steady clock) for duration instruments. Tracing
/// has its own injectable clock (trace.h); metrics always use the real one —
/// they never feed back into protocol decisions.
[[nodiscard]] std::uint64_t now_ns() noexcept;

#if ARM2GC_OBS

/// Write-side sharding width. Threads map to cells by a process-wide ordinal
/// (modulo), so up to kMetricShards writers proceed with zero line sharing.
inline constexpr std::size_t kMetricShards = 16;

/// This thread's metric shard (a small dense ordinal, assigned once per
/// thread, wrapped modulo kMetricShards).
[[nodiscard]] std::size_t shard_index() noexcept;

/// Monotonic counter. add() is a relaxed fetch_add on a thread-sharded
/// cache line; value() sums the shards (cold path, monotone but not a
/// consistent cross-shard snapshot — fine for telemetry).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    cells_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() noexcept {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kMetricShards> cells_{};
};

/// Point-in-time signed value (queue depth, active connections). set() is a
/// plain store: gauges are owned by one logical writer at a time.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram for latency-like values (nanoseconds by
/// convention). Buckets are powers of two: bucket 0 holds exactly {0},
/// bucket i (1 <= i < kBuckets-1) holds [2^(i-1), 2^i), the last bucket is
/// the overflow. Recording is one relaxed fetch_add on a sharded row;
/// percentile readout uses the nearest-rank definition over the summed
/// buckets, interpolated linearly inside the landing bucket (obs_test pins
/// it against a sorted-vector oracle at bucket resolution).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v == 0) return 0;
    const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
    return w < kBuckets - 1 ? w : kBuckets - 1;
  }
  /// Inclusive lower edge of a bucket.
  [[nodiscard]] static constexpr std::uint64_t bucket_lo(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  /// Exclusive upper edge (saturated for the overflow bucket).
  [[nodiscard]] static constexpr std::uint64_t bucket_hi(std::size_t b) noexcept {
    return b + 1 >= kBuckets ? ~std::uint64_t{0} : std::uint64_t{1} << b;
  }

  void record(std::uint64_t v) noexcept {
    Shard& s = shards_[shard_index()];
    s.bucket[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  [[nodiscard]] Snapshot snapshot() const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return snapshot().count; }

  /// Nearest-rank percentile, linearly interpolated within the landing
  /// bucket; p in [0, 1]. 0 when empty.
  [[nodiscard]] double percentile(double p) const noexcept;

  /// The [lo, hi] value range of the bucket the p-th value landed in — the
  /// resolution limit of any estimate this histogram can give.
  struct Bounds {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };
  [[nodiscard]] Bounds percentile_bounds(double p) const noexcept;

  void reset() noexcept {
    for (Shard& s : shards_) {
      for (auto& b : s.bucket) b.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> bucket{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Name -> instrument registry. Registration (first lookup of a name) takes
/// a mutex and is the cold path; the returned references are stable for the
/// process lifetime, so call sites cache them in function-local statics (the
/// A2G_* macros do). The singleton is deliberately leaked: instruments stay
/// valid inside static destructors.
class Registry {
 public:
  [[nodiscard]] static Registry& instance();

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Renders every instrument in Prometheus text exposition format
  /// (text/plain; version=0.0.4): # TYPE headers, arm2gc_-prefixed
  /// sanitized names, histograms as cumulative le-labelled buckets with
  /// _sum/_count. Appends to `out`.
  void render_prometheus(std::string& out) const;

  /// Zeroes every registered instrument (names and handles stay valid).
  /// Test isolation only — never called by library code.
  void reset_values();

  /// Maps a dot-separated metric name to its Prometheus identifier
  /// ("serve.phase.work_ns" -> "arm2gc_serve_phase_work_ns").
  [[nodiscard]] static std::string prometheus_name(std::string_view name);

 private:
  Registry() = default;

  mutable std::mutex mu_;  ///< guards the maps, never the cells
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// RAII duration sampler: records construction-to-destruction nanoseconds
/// into a histogram. Use via A2G_HIST_TIMER so the clock reads vanish in a
/// disabled build.
class ScopedHistTimer {
 public:
  explicit ScopedHistTimer(Histogram& h) noexcept : h_(h), t0_(now_ns()) {}
  ~ScopedHistTimer() { h_.record(now_ns() - t0_); }
  ScopedHistTimer(const ScopedHistTimer&) = delete;
  ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;

 private:
  Histogram& h_;
  std::uint64_t t0_;
};

// Hot-path macros: resolve the handle once (function-local static), then a
// single relaxed atomic op per hit. Compiled to nothing under
// -DARM2GC_OBS=OFF (arguments are NOT evaluated there — keep them
// side-effect free).
#define A2G_OBS_CONCAT2(a, b) a##b
#define A2G_OBS_CONCAT(a, b) A2G_OBS_CONCAT2(a, b)
#define A2G_COUNT_N(name, n)                                         \
  do {                                                               \
    static ::arm2gc::obs::Counter& A2G_OBS_CONCAT(a2g_obs_, __LINE__) = \
        ::arm2gc::obs::Registry::instance().counter(name);           \
    A2G_OBS_CONCAT(a2g_obs_, __LINE__).add(n);                       \
  } while (0)
#define A2G_COUNT(name) A2G_COUNT_N(name, 1)
#define A2G_GAUGE_SET(name, v)                                       \
  do {                                                               \
    static ::arm2gc::obs::Gauge& A2G_OBS_CONCAT(a2g_obs_, __LINE__) =   \
        ::arm2gc::obs::Registry::instance().gauge(name);             \
    A2G_OBS_CONCAT(a2g_obs_, __LINE__).set(v);                       \
  } while (0)
#define A2G_HIST_N(name, v)                                          \
  do {                                                               \
    static ::arm2gc::obs::Histogram& A2G_OBS_CONCAT(a2g_obs_, __LINE__) = \
        ::arm2gc::obs::Registry::instance().histogram(name);         \
    A2G_OBS_CONCAT(a2g_obs_, __LINE__).record(v);                    \
  } while (0)
// Times the rest of the enclosing scope into histogram `name`.
#define A2G_HIST_TIMER(name)                                              \
  static ::arm2gc::obs::Histogram& A2G_OBS_CONCAT(a2g_obs_ht_, __LINE__) = \
      ::arm2gc::obs::Registry::instance().histogram(name);                \
  ::arm2gc::obs::ScopedHistTimer A2G_OBS_CONCAT(a2g_obs_tt_, __LINE__)(   \
      A2G_OBS_CONCAT(a2g_obs_ht_, __LINE__))

#else  // !ARM2GC_OBS — every instrument is an empty inline stub.

class Counter {
 public:
  void add(std::uint64_t = 1) noexcept {}
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class Gauge {
 public:
  void set(std::int64_t) noexcept {}
  void add(std::int64_t) noexcept {}
  [[nodiscard]] std::int64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;
  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t) noexcept { return 0; }
  [[nodiscard]] static constexpr std::uint64_t bucket_lo(std::size_t) noexcept { return 0; }
  [[nodiscard]] static constexpr std::uint64_t bucket_hi(std::size_t) noexcept { return 0; }
  void record(std::uint64_t) noexcept {}
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  [[nodiscard]] Snapshot snapshot() const noexcept { return {}; }
  [[nodiscard]] std::uint64_t count() const noexcept { return 0; }
  [[nodiscard]] double percentile(double) const noexcept { return 0.0; }
  struct Bounds {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };
  [[nodiscard]] Bounds percentile_bounds(double) const noexcept { return {}; }
  void reset() noexcept {}
};

class Registry {
 public:
  [[nodiscard]] static Registry& instance() {
    static Registry r;
    return r;
  }
  [[nodiscard]] Counter& counter(std::string_view) { return counter_; }
  [[nodiscard]] Gauge& gauge(std::string_view) { return gauge_; }
  [[nodiscard]] Histogram& histogram(std::string_view) { return histogram_; }
  void render_prometheus(std::string& out) const {
    out += "# arm2gc observability compiled out (ARM2GC_OBS=OFF)\n";
  }
  void reset_values() {}
  [[nodiscard]] static std::string prometheus_name(std::string_view name) {
    return std::string(name);
  }

 private:
  Counter counter_;
  Gauge gauge_;
  Histogram histogram_;
};

#define A2G_COUNT_N(name, n) \
  do {                       \
  } while (0)
#define A2G_COUNT(name) \
  do {                  \
  } while (0)
#define A2G_GAUGE_SET(name, v) \
  do {                         \
  } while (0)
#define A2G_HIST_N(name, v) \
  do {                      \
  } while (0)
#define A2G_HIST_TIMER(name) \
  do {                       \
  } while (0)

class ScopedHistTimer {
 public:
  explicit ScopedHistTimer(Histogram&) noexcept {}
  ScopedHistTimer(const ScopedHistTimer&) = delete;
  ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;
};

#endif  // ARM2GC_OBS

}  // namespace arm2gc::obs
