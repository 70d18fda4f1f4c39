// Tests for the observability subsystem (src/obs/): histogram percentile
// math pinned against a sorted-vector oracle, trace-JSON well-formedness,
// registry and tracer concurrency from plain threads (serve shards and the
// two socket-run party threads share them), Prometheus text rendering, and
// the differential pin that turning observability on leaves every protocol
// byte identical. Placeholder sections are extended below as integration
// lands.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "builder/circuit_builder.h"
#include "builder/stdlib.h"
#include "core/skipgate.h"
#include "gc/transport_socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/service.h"
#include "test_util.h"

namespace {

using namespace arm2gc;
using a2gtest::to_bits;
using arm2gc::obs::Histogram;
using arm2gc::obs::Registry;
using arm2gc::obs::Tracer;

#if ARM2GC_OBS

// ---------------------------------------------------------------------------
// Histogram: bucket mapping and percentile bounds vs a sorted-vector oracle.
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketEdges) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  // Every finite bucket's edges agree with bucket_of at both ends.
  for (std::size_t b = 1; b + 1 < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b) - 1), b);
  }
  // Overflow bucket captures everything at and beyond its lower edge.
  EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(Histogram::kBuckets - 1)),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), Histogram::kBuckets - 1);
}

// Nearest-rank oracle on the raw samples; the histogram can only answer at
// bucket resolution, so the pin is: the oracle's exact answer lies inside
// percentile_bounds(p), and percentile(p) lies inside the same bucket.
void check_against_oracle(const std::vector<std::uint64_t>& samples) {
  Histogram h;
  std::uint64_t sum = 0;
  for (std::uint64_t v : samples) {
    h.record(v);
    sum += v;
  }
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  const Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, samples.size());
  EXPECT_EQ(snap.sum, sum);

  for (double p : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(p * static_cast<double>(sorted.size()))));
    const std::uint64_t exact = sorted[rank - 1];
    const Histogram::Bounds bounds = h.percentile_bounds(p);
    EXPECT_LE(bounds.lo, exact) << "p=" << p;
    EXPECT_GE(bounds.hi, exact) << "p=" << p;
    const double est = h.percentile(p);
    EXPECT_GE(est, static_cast<double>(bounds.lo)) << "p=" << p;
    EXPECT_LE(est, static_cast<double>(bounds.hi) + 1.0) << "p=" << p;
  }
}

TEST(ObsHistogram, PercentilesMatchSortedOracleUniform) {
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> samples(10000);
  for (auto& v : samples) v = rng() % 2'000'000;  // ~2ms span in ns
  check_against_oracle(samples);
}

TEST(ObsHistogram, PercentilesMatchSortedOracleHeavyTail) {
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> samples;
  samples.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform: exercises many buckets, including zeros and huge values.
    const unsigned shift = static_cast<unsigned>(rng() % 50);
    samples.push_back(rng() >> (63 - (shift % 63)));
  }
  samples[0] = 0;
  samples[1] = ~std::uint64_t{0};
  check_against_oracle(samples);
}

TEST(ObsHistogram, EmptyAndSingleton) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile_bounds(0.99).hi, 0u);
  h.record(1000);
  const Histogram::Bounds b = h.percentile_bounds(0.5);
  EXPECT_LE(b.lo, 1000u);
  EXPECT_GE(b.hi, 1000u);
  EXPECT_EQ(h.count(), 1u);
}

/// Runs tasks 0..n-1 spread round-robin over kHammerThreads plain threads.
constexpr std::size_t kHammerThreads = 4;
template <typename Fn>
void hammer(std::size_t n, Fn&& task) {
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kHammerThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += kHammerThreads) task(i);
    });
  }
  for (std::thread& th : threads) th.join();
}

// ---------------------------------------------------------------------------
// Registry: concurrency from plain threads — counters lose no increments and
// histograms lose no samples when hammered from several threads at once.
// ---------------------------------------------------------------------------

TEST(ObsRegistry, ConcurrentFromPlainThreads) {
  arm2gc::obs::Counter& c =
      Registry::instance().counter("obs_test.threads.increments");
  Histogram& h = Registry::instance().histogram("obs_test.threads.values");
  const std::uint64_t c0 = c.value();
  const std::uint64_t h0 = h.count();

  constexpr std::size_t kTasks = 256;
  constexpr std::uint64_t kPerTask = 1000;
  hammer(kTasks, [&](std::size_t task) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) {
      c.add();
      h.record(task * kPerTask + i);
    }
  });

  EXPECT_EQ(c.value() - c0, kTasks * kPerTask);
  EXPECT_EQ(h.count() - h0, kTasks * kPerTask);
}

// ---------------------------------------------------------------------------
// Prometheus text rendering.
// ---------------------------------------------------------------------------

TEST(ObsRegistry, PrometheusNameSanitization) {
  EXPECT_EQ(Registry::prometheus_name("serve.phase.work_ns"),
            "arm2gc_serve_phase_work_ns");
  EXPECT_EQ(Registry::prometheus_name("arm2gc_already_prefixed"),
            "arm2gc_already_prefixed");
  EXPECT_EQ(Registry::prometheus_name("weird-name!x"), "arm2gc_weird_name_x");
}

TEST(ObsRegistry, PrometheusRenderShape) {
  Registry& reg = Registry::instance();
  reg.counter("obs_test.render.count").add(42);
  reg.gauge("obs_test.render.gauge").set(-7);
  Histogram& h = reg.histogram("obs_test.render.lat_ns");
  h.reset();
  h.record(100);
  h.record(3000);

  std::string out;
  reg.render_prometheus(out);
  EXPECT_NE(out.find("# TYPE arm2gc_obs_test_render_count counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE arm2gc_obs_test_render_gauge gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("arm2gc_obs_test_render_gauge -7\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE arm2gc_obs_test_render_lat_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(out.find("arm2gc_obs_test_render_lat_ns_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("arm2gc_obs_test_render_lat_ns_sum 3100\n"),
            std::string::npos);
  EXPECT_NE(out.find("arm2gc_obs_test_render_lat_ns_count 2\n"),
            std::string::npos);
  // le buckets are cumulative and non-decreasing.
  std::size_t pos = 0;
  std::uint64_t prev = 0;
  const std::string needle = "arm2gc_obs_test_render_lat_ns_bucket{le=\"";
  while ((pos = out.find(needle, pos)) != std::string::npos) {
    const std::size_t sp = out.find("} ", pos);
    ASSERT_NE(sp, std::string::npos);
    const std::uint64_t cum = std::stoull(out.substr(sp + 2));
    EXPECT_GE(cum, prev);
    prev = cum;
    pos = sp;
  }
  EXPECT_EQ(prev, 2u);
}

// ---------------------------------------------------------------------------
// Tracer: deterministic clock injection + chrome://tracing JSON schema.
// ---------------------------------------------------------------------------

std::uint64_t fake_clock() {
  static std::atomic<std::uint64_t> t{0};
  return t.fetch_add(1500, std::memory_order_relaxed);  // 1.5us per tick
}

// Minimal JSON checker for the exact subset the exporter emits: object ->
// "traceEvents" -> array of flat objects with string/number values.
bool skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r'))
    ++i;
  return i < s.size();
}

bool parse_string(const std::string& s, std::size_t& i, std::string* out) {
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\') {
      ++i;
      if (i >= s.size()) return false;
    }
    if (out != nullptr) out->push_back(s[i]);
    ++i;
  }
  if (i >= s.size()) return false;
  ++i;  // closing quote
  return true;
}

bool parse_number(const std::string& s, std::size_t& i) {
  const std::size_t start = i;
  while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) != 0 ||
                          s[i] == '.' || s[i] == '-'))
    ++i;
  return i > start;
}

// Parses one {"key":value,...} object of string/number values; returns the
// set of keys seen via `keys`.
bool parse_flat_object(const std::string& s, std::size_t& i,
                       std::vector<std::string>* keys) {
  if (!skip_ws(s, i) || s[i] != '{') return false;
  ++i;
  if (!skip_ws(s, i)) return false;
  if (s[i] == '}') {
    ++i;
    return true;
  }
  for (;;) {
    std::string key;
    if (!skip_ws(s, i) || !parse_string(s, i, &key)) return false;
    if (keys != nullptr) keys->push_back(key);
    if (!skip_ws(s, i) || s[i] != ':') return false;
    ++i;
    if (!skip_ws(s, i)) return false;
    if (s[i] == '"') {
      if (!parse_string(s, i, nullptr)) return false;
    } else if (!parse_number(s, i)) {
      return false;
    }
    if (!skip_ws(s, i)) return false;
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] == '}') {
      ++i;
      return true;
    }
    return false;
  }
}

// Validates the whole chrome-trace document and counts events.
bool validate_trace_json(const std::string& s, std::size_t* num_events) {
  std::size_t i = 0;
  if (!skip_ws(s, i) || s[i] != '{') return false;
  ++i;
  std::string key;
  if (!skip_ws(s, i) || !parse_string(s, i, &key) || key != "traceEvents")
    return false;
  if (!skip_ws(s, i) || s[i] != ':') return false;
  ++i;
  if (!skip_ws(s, i) || s[i] != '[') return false;
  ++i;
  std::size_t n = 0;
  if (!skip_ws(s, i)) return false;
  if (s[i] != ']') {
    for (;;) {
      std::vector<std::string> keys;
      if (!parse_flat_object(s, i, &keys)) return false;
      // Required chrome-trace complete-event fields.
      for (const char* req : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
        if (std::find(keys.begin(), keys.end(), req) == keys.end())
          return false;
      }
      ++n;
      if (!skip_ws(s, i)) return false;
      if (s[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    if (s[i] != ']') return false;
  }
  ++i;
  if (!skip_ws(s, i) || s[i] != '}') return false;
  ++i;
  if (num_events != nullptr) *num_events = n;
  return true;
}

TEST(ObsTrace, SpanRecordingWithInjectedClock) {
  Tracer& t = Tracer::instance();
  t.clear();
  t.enable(&fake_clock);
  {
    arm2gc::obs::Span outer("outer", "test");
    arm2gc::obs::Span inner("inner \"quoted\"\n", "test");
  }
  t.disable();
  EXPECT_EQ(t.event_count(), 2u);

  const std::string json = t.export_json();
  std::size_t n = 0;
  ASSERT_TRUE(validate_trace_json(json, &n)) << json;
  EXPECT_EQ(n, 2u);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  // The quoted/newline name must have been escaped.
  EXPECT_NE(json.find("inner \\\"quoted\\\"\\n"), std::string::npos);

  t.clear();
  EXPECT_EQ(t.event_count(), 0u);
  std::size_t n_empty = 1;
  ASSERT_TRUE(validate_trace_json(t.export_json(), &n_empty));
  EXPECT_EQ(n_empty, 0u);
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  Tracer& t = Tracer::instance();
  t.clear();
  ASSERT_FALSE(t.enabled());
  {
    A2G_SPAN("never", "test");
  }
  EXPECT_EQ(t.event_count(), 0u);
}

TEST(ObsTrace, ConcurrentSpansFromPlainThreads) {
  Tracer& t = Tracer::instance();
  t.clear();
  t.enable(nullptr);  // steady clock
  constexpr std::size_t kTasks = 64;
  hammer(kTasks, [&](std::size_t) { A2G_SPAN("task", "obs_test"); });
  t.disable();
  EXPECT_EQ(t.event_count(), kTasks);
  std::size_t n = 0;
  ASSERT_TRUE(validate_trace_json(t.export_json(), &n));
  EXPECT_EQ(n, kTasks);
  t.clear();
}

#endif  // ARM2GC_OBS

// The exporter must write a valid (possibly empty) document in both build
// shapes, so `--trace` never produces a file chrome://tracing rejects.
TEST(ObsTrace, ExportAlwaysValidJson) {
  const std::string json = Tracer::instance().export_json();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("]}"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Differential pin: observability must never move a protocol byte. Compiled
// in BOTH build shapes — the hard-coded golden digest below is checked under
// ARM2GC_OBS=ON and =OFF alike, so compile-time obs can't shift bytes either;
// within one binary, a fully-active tracer+registry run must match a quiet
// run field for field.
// ---------------------------------------------------------------------------

// Golden table digest of the run below (Iknp, pool 16, a=77, b=200).
// The same constant is asserted by the ARM2GC_OBS=OFF build.
constexpr const char* kObsAdderGoldenDigest =
    "9758814fd798f4a5c6198debe0f6f232";

netlist::Netlist obs_adder_netlist() {
  builder::CircuitBuilder cb;
  const builder::Bus x = cb.input_bus(netlist::Owner::Alice, 8, 0);
  const builder::Bus y = cb.input_bus(netlist::Owner::Bob, 8, 0);
  cb.output_bus(builder::add(cb, x, y));
  return cb.take();
}

core::RunResult obs_adder_run(const netlist::Netlist& nl) {
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = gc::OtBackend::Iknp;
  opts.exec.ot_pool = 16;
  return core::SkipGateDriver(nl, opts).run(to_bits(77, 8), to_bits(200, 8));
}

TEST(ObsDifferential, ProtocolBytesIdenticalWithObsActive) {
  const netlist::Netlist nl = obs_adder_netlist();
  Tracer& t = Tracer::instance();
  t.disable();
  t.clear();

  const core::RunResult quiet = obs_adder_run(nl);

  t.enable();  // spans record; registry histograms/counters always record
  const core::RunResult traced = obs_adder_run(nl);
  t.disable();

  EXPECT_EQ(traced.final_outputs, quiet.final_outputs);
  EXPECT_TRUE(traced.stats.table_digest == quiet.stats.table_digest);
  EXPECT_EQ(traced.stats.garbled_non_xor, quiet.stats.garbled_non_xor);
  EXPECT_EQ(traced.stats.comm.total(), quiet.stats.comm.total());
  EXPECT_EQ(traced.stats.ot_online_bytes, quiet.stats.ot_online_bytes);
  EXPECT_EQ(traced.stats.cycles, quiet.stats.cycles);

  // Cross-build golden pin (77 + 200 = 277 -> 0x15 in 8 bits, and the exact
  // table bytes that produced it).
  EXPECT_EQ(quiet.final_outputs, to_bits(277 & 0xff, 8));
  EXPECT_EQ(quiet.stats.table_digest.hex(), kObsAdderGoldenDigest);
  t.clear();
}

// ---------------------------------------------------------------------------
// Live /metrics endpoint: a GarblerService with telemetry bound must serve
// Prometheus text while running, reflect completed runs in its counters, and
// reject unknown paths/methods. Compiled in both shapes — under OFF the page
// degrades to the compiled-out comment but must still be valid HTTP.
// ---------------------------------------------------------------------------

std::string http_request(std::uint16_t port, const std::string& request) {
  const std::unique_ptr<gc::SocketDuplex> sock =
      gc::SocketDuplex::connect("127.0.0.1", port);
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(sock->fd(), request.data() + off,
                             request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return {};
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(sock->fd(), buf, sizeof buf, 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  return resp;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path +
                                " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                "Connection: close\r\n\r\n");
}

TEST(ObsService, LiveMetricsScrape) {
  const netlist::Netlist nl = obs_adder_netlist();
  serve::ProgramSpec spec;
  spec.name = "adder8";
  spec.nl = &nl;
  spec.opts.fixed_cycles = 1;
  spec.alice_bits = to_bits(77, 8);

  serve::ServiceOptions so;
  so.metrics_port = 0;  // ephemeral
  so.stats_interval_ms = 5;
  serve::GarblerService service({spec}, so);
  service.start();
  ASSERT_NE(service.metrics_port(), 0);

  // The endpoint is live before/between runs, not just after a summary.
  const std::string idle = http_get(service.metrics_port(), "/metrics");
  EXPECT_EQ(idle.find("HTTP/1.1 200 OK\r\n"), 0u) << idle;
  EXPECT_NE(idle.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);

  serve::ClientOptions co;
  co.program = "adder8";
  co.fixed_cycles = 1;
  const serve::ClientResult res = serve::run_client(
      "127.0.0.1", service.port(), nl, co, to_bits(200, 8));
  EXPECT_EQ(res.outputs, to_bits(277 & 0xff, 8));

  const std::string page = http_get(service.metrics_port(), "/metrics");
  EXPECT_EQ(page.find("HTTP/1.1 200 OK\r\n"), 0u) << page;
#if ARM2GC_OBS
  EXPECT_NE(page.find("arm2gc_serve_runs_ok 1\n"), std::string::npos) << page;
  EXPECT_NE(page.find("arm2gc_serve_accepted 1\n"), std::string::npos);
  // Phase dwell histograms observed the run.
  EXPECT_NE(page.find("arm2gc_serve_phase_work_ns_count"), std::string::npos);
#else
  EXPECT_NE(page.find("compiled out"), std::string::npos) << page;
#endif

  EXPECT_EQ(http_get(service.metrics_port(), "/nope")
                .find("HTTP/1.1 404 Not Found\r\n"),
            0u);
  EXPECT_EQ(http_request(service.metrics_port(),
                         "POST /metrics HTTP/1.1\r\nHost: x\r\n"
                         "Connection: close\r\n\r\n")
                .find("HTTP/1.1 405 Method Not Allowed\r\n"),
            0u);

  service.stop();
}

}  // namespace
