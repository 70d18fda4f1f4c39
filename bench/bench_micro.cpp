// Microbenchmarks (google-benchmark): garbling primitives and protocol
// throughput. These are our own instrumentation, not a paper table: the
// paper's metric is communication, but local compute must stay linear
// (SkipGate's complexity argument, §3.4).
//
// The AES benchmarks are parameterized by backend (0 = portable tables,
// 1 = AES-NI) and by batching (scalar vs hash4/encrypt_batch), so one run
// shows the full speedup ladder recorded in BENCH_micro.json. AES-NI rows
// silently measure the portable fallback on CPUs without the extension —
// check the reported labels.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "arm/arm2gc.h"
#include "builder/circuit_builder.h"
#include "builder/stdlib.h"
#include "core/skipgate.h"
#include "core/workpool.h"
#include "crypto/aes128.h"
#include "crypto/prf.h"
#include "crypto/rng.h"
#include "crypto/transpose.h"
#include "gc/garble.h"
#include "gc/otext.h"
#include "gc/otpre.h"
#include "gc/transport.h"
#include "programs/programs.h"

using namespace arm2gc;

namespace {

crypto::Aes128::Backend backend_arg(const benchmark::State& state) {
  return state.range(0) == 0 ? crypto::Aes128::Backend::Portable
                             : crypto::Aes128::Backend::AesNi;
}

void set_backend_label(benchmark::State& state, bool uses_aesni) {
  state.SetLabel(uses_aesni ? "aesni" : "portable");
}

void set_scheme_label(benchmark::State& state, gc::Scheme scheme) {
  switch (scheme) {
    case gc::Scheme::HalfGates: state.SetLabel("halfgates"); break;
    case gc::Scheme::Grr3: state.SetLabel("grr3"); break;
    case gc::Scheme::Classic4: state.SetLabel("classic4"); break;
  }
}

}  // namespace

static void BM_Aes128Encrypt(benchmark::State& state) {
  const crypto::Aes128 aes(crypto::block_from_u64(1), backend_arg(state));
  crypto::Block x = crypto::block_from_u64(2);
  for (auto _ : state) {
    x = aes.encrypt(x);
    benchmark::DoNotOptimize(x);
  }
  set_backend_label(state, aes.uses_aesni());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Aes128Encrypt)->Arg(0)->Arg(1);

static void BM_Aes128EncryptBatch8(benchmark::State& state) {
  const crypto::Aes128 aes(crypto::block_from_u64(1), backend_arg(state));
  crypto::Block x[8];
  for (int i = 0; i < 8; ++i) x[i] = crypto::block_from_u64(static_cast<std::uint64_t>(i));
  for (auto _ : state) {
    aes.encrypt_batch(x, 8);
    benchmark::DoNotOptimize(x[7]);
  }
  set_backend_label(state, aes.uses_aesni());
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_Aes128EncryptBatch8)->Arg(0)->Arg(1);

static void BM_PiHash(benchmark::State& state) {
  const crypto::PiHash h(backend_arg(state));
  crypto::Block x = crypto::block_from_u64(3);
  std::uint64_t t = 0;
  for (auto _ : state) {
    x = h(x, t++);
    benchmark::DoNotOptimize(x);
  }
  set_backend_label(state, h.uses_aesni());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PiHash)->Arg(0)->Arg(1);

static void BM_PiHash4(benchmark::State& state) {
  const crypto::PiHash h(backend_arg(state));
  crypto::Block x[4];
  for (int i = 0; i < 4; ++i) x[i] = crypto::block_from_u64(static_cast<std::uint64_t>(i + 4));
  std::uint64_t t = 0;
  std::uint64_t tw[4];
  for (auto _ : state) {
    for (int i = 0; i < 4; ++i) tw[i] = t++;
    h.hash4(x, tw, x);
    benchmark::DoNotOptimize(x[3]);
  }
  set_backend_label(state, h.uses_aesni());
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_PiHash4)->Arg(0)->Arg(1);

/// Garbled AND gates per second, per scheme (runtime-dispatched backend).
static void BM_Garble(benchmark::State& state) {
  const auto scheme = static_cast<gc::Scheme>(state.range(0));
  gc::Garbler g(crypto::block_from_u64(4), scheme);
  const crypto::Block a0 = g.fresh_label();
  const crypto::Block b0 = g.fresh_label();
  const netlist::AndCore core = netlist::tt_and_core(netlist::kTtAnd);
  for (auto _ : state) {
    gc::GarbledTable t;
    benchmark::DoNotOptimize(g.garble(a0, b0, core, t));
  }
  set_scheme_label(state, scheme);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Garble)->Arg(0)->Arg(1)->Arg(2);

/// Evaluated AND gates per second, per scheme.
static void BM_Eval(benchmark::State& state) {
  const auto scheme = static_cast<gc::Scheme>(state.range(0));
  gc::Garbler g(crypto::block_from_u64(5), scheme);
  const crypto::Block a0 = g.fresh_label();
  const crypto::Block b0 = g.fresh_label();
  gc::GarbledTable t;
  const crypto::Block w0 = g.garble(a0, b0, netlist::tt_and_core(netlist::kTtAnd), t);
  benchmark::DoNotOptimize(w0);
  // One long-lived evaluator: past the first iteration the tweak sequence no
  // longer matches the table, but the per-gate hash work — what this bench
  // measures — is identical, and rebuilding an evaluator per iteration would
  // measure the AES key schedule instead.
  gc::Evaluator ev(scheme);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.eval(a0, b0, t));
  }
  set_scheme_label(state, scheme);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Eval)->Arg(0)->Arg(1)->Arg(2);

/// The parallel sessions' hot loop in isolation: independent cone slices
/// garbled via the stateless garble_at against preassigned tweak ranges on a
/// WorkPool, the ordered drain folding each slice's tables into a digest in
/// slice order (the ordered-transport-writer stand-in). arg0 = worker
/// threads (1 = the serial path). Pure garbling compute — no transport,
/// planner or OT — so the scaling here upper-bounds the session speedup.
static void BM_ParallelGarbleCones(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSlices = 64;
  constexpr std::size_t kGates = 64;
  gc::Garbler g(crypto::block_from_u64(31));
  const netlist::AndCore core = netlist::tt_and_core(netlist::kTtAnd);
  std::vector<crypto::Block> a0(kSlices), b0(kSlices);
  for (std::size_t i = 0; i < kSlices; ++i) {
    a0[i] = g.fresh_label();
    b0[i] = g.fresh_label();
  }
  std::vector<std::vector<gc::GarbledTable>> stage(kSlices,
                                                   std::vector<gc::GarbledTable>(kGates));
  std::unique_ptr<core::WorkPool> pool;
  if (threads > 1) pool = std::make_unique<core::WorkPool>(threads);
  crypto::Block digest = crypto::block_from_u64(0);
  for (auto _ : state) {
    const std::uint64_t tweak0 = g.tweak_cursor();
    const auto fn = [&](std::size_t si) {
      crypto::Block a = a0[si];
      crypto::Block b = b0[si];
      for (std::size_t k = 0; k < kGates; ++k) {
        const std::uint64_t tweak = tweak0 + 2 * (si * kGates + k);
        const crypto::Block w = g.garble_at(a, b, core, tweak, crypto::Block{}, stage[si][k]);
        b = a;
        a = w;  // chain within the slice; slices stay independent
      }
    };
    const auto drain = [&](std::size_t si) {
      for (const auto& t : stage[si]) {
        for (std::uint8_t r = 0; r < t.count; ++r) digest = digest ^ t.rows[r];
      }
    };
    core::WorkPool::execute(pool.get(), kSlices, nullptr, nullptr, fn, {}, drain);
    g.advance(kSlices * kGates);
    benchmark::DoNotOptimize(digest);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSlices * kGates));
}
BENCHMARK(BM_ParallelGarbleCones)->Arg(1)->Arg(2)->Arg(4);

/// 128xN bit-transpose throughput (the IKNP column->row pivot).
/// arg0: 0 = portable kernel, 1 = dispatched (SSE2 when compiled in).
static void BM_Transpose128xN(benchmark::State& state) {
  constexpr std::size_t kN = 4096;
  const std::size_t stride = kN / 8;
  std::vector<std::uint8_t> rows(128 * stride);
  crypto::CtrRng rng(crypto::block_from_u64(17));
  for (auto& b : rows) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<crypto::Block> out(kN);
  const bool fast = state.range(0) != 0;
  for (auto _ : state) {
    if (fast) {
      crypto::transpose_128xn(rows.data(), stride, kN, out.data());
    } else {
      crypto::transpose_128xn_portable(rows.data(), stride, kN, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(fast ? (crypto::transpose_uses_sse() ? "sse2" : "portable-dispatch")
                      : "portable");
  // One item = one 128-bit output row (i.e. one OT's worth of matrix work).
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kN));
}
BENCHMARK(BM_Transpose128xN)->Arg(0)->Arg(1);

/// OT throughput through the batched endpoints over an in-memory duplex,
/// base OTs amortized across the run (warm endpoints, as in a session).
/// arg0: backend (0 = ideal stand-in, 1 = IKNP), arg1: batch size.
static void BM_OtExtension(benchmark::State& state) {
  const auto backend = state.range(0) == 0 ? gc::OtBackend::Ideal : gc::OtBackend::Iknp;
  const auto m = static_cast<std::size_t>(state.range(1));
  gc::InMemoryDuplex duplex;
  const crypto::Block seed = crypto::block_from_u64(23);
  auto sender = gc::make_ot_sender(backend, duplex.garbler_end(), seed, nullptr);
  auto receiver = gc::make_ot_receiver(backend, duplex.evaluator_end(), seed, nullptr);
  gc::Garbler g(crypto::block_from_u64(29));
  std::vector<crypto::Block> x0(m), got(m);
  for (auto& b : x0) b = g.fresh_label();
  std::uint64_t pattern = 0x5DEECE66D;
  for (auto _ : state) {
    for (std::size_t j = 0; j < m; ++j) {
      receiver->enqueue(((pattern >> (j % 61)) & 1u) != 0, &got[j]);
    }
    receiver->request();
    for (std::size_t j = 0; j < m; ++j) sender->enqueue(x0[j], x0[j] ^ g.R());
    sender->flush();
    receiver->finish();
    benchmark::DoNotOptimize(got.data());
    pattern = pattern * 6364136223846793005ull + 1442695040888963407ull;
  }
  state.SetLabel(backend == gc::OtBackend::Ideal ? "ideal" : "iknp");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
  state.counters["bytes_per_ot"] = benchmark::Counter(
      static_cast<double>(duplex.stats().ot_bytes) /
      static_cast<double>(sender->stats().choices ? sender->stats().choices : 1));
}
BENCHMARK(BM_OtExtension)
    ->Args({0, 160})
    ->Args({1, 160})
    ->Args({0, 4096})
    ->Args({1, 4096})
    ->Args({1, 1});

/// Online cost of the precomputed backend (gc/otpre.h): pure
/// derandomization against a banked random-OT pool. Refills run outside the
/// timed region (paused, as the maintenance schedule runs them during
/// evaluator idle time), so this measures exactly the per-batch critical
/// path that BM_OtExtension pays in full. arg0: batch size.
static void BM_OtDerandomize(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  gc::InMemoryDuplex duplex;
  const crypto::Block seed = crypto::block_from_u64(23);
  gc::RandomOtPoolSender spool(seed, 1u << 15);
  gc::RandomOtPoolReceiver rpool(seed, 1u << 15);
  auto sender =
      gc::make_ot_sender(gc::OtBackend::Precomp, duplex.garbler_end(), seed, nullptr, &spool);
  auto receiver =
      gc::make_ot_receiver(gc::OtBackend::Precomp, duplex.evaluator_end(), seed, nullptr, &rpool);
  gc::Garbler g(crypto::block_from_u64(29));
  std::vector<crypto::Block> x0(m), got(m);
  for (auto& b : x0) b = g.fresh_label();
  std::uint64_t pattern = 0x5DEECE66D;
  for (auto _ : state) {
    if (spool.available() < m || spool.available() < spool.low_water()) {
      state.PauseTiming();
      receiver->maintain_request();
      sender->maintain();
      receiver->maintain_finish();
      state.ResumeTiming();
    }
    for (std::size_t j = 0; j < m; ++j) {
      receiver->enqueue(((pattern >> (j % 61)) & 1u) != 0, &got[j]);
    }
    receiver->request();
    for (std::size_t j = 0; j < m; ++j) sender->enqueue(x0[j], x0[j] ^ g.R());
    sender->flush();
    receiver->finish();
    benchmark::DoNotOptimize(got.data());
    pattern = pattern * 6364136223846793005ull + 1442695040888963407ull;
  }
  state.SetLabel("precomp");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
  state.counters["online_bytes_per_ot"] = benchmark::Counter(
      static_cast<double>(sender->stats().online_bytes) /
      static_cast<double>(sender->stats().choices ? sender->stats().choices : 1));
}
BENCHMARK(BM_OtDerandomize)->Arg(1)->Arg(8)->Arg(160)->Arg(4096);

/// End-to-end protocol throughput on a 32x32 multiplier, per mode.
static void BM_ProtocolMul32(benchmark::State& state) {
  builder::CircuitBuilder cb;
  const builder::Bus a = cb.input_bus(netlist::Owner::Alice, 32, 0);
  const builder::Bus b = cb.input_bus(netlist::Owner::Bob, 32, 0);
  cb.output_bus(builder::mul_lower(cb, a, b, 32));
  const netlist::Netlist nl = cb.take();
  netlist::BitVec av(32, true), bv(32, false);
  core::RunOptions opts;
  opts.mode = state.range(0) == 0 ? core::Mode::SkipGate : core::Mode::Conventional;
  opts.fixed_cycles = 1;
  for (auto _ : state) {
    core::SkipGateDriver driver(nl, opts);
    benchmark::DoNotOptimize(driver.run(av, bv));
  }
  state.SetLabel(state.range(0) == 0 ? "skipgate" : "conventional");
}
BENCHMARK(BM_ProtocolMul32)->Arg(0)->Arg(1);

namespace {

/// Full ARM2GC protocol run (SkipGate, halt-driven), parameterized by plan
/// cache (arg0) and cone memoization (arg1) — the per-cycle plan cache skips
/// classification on revisited public control states, and the cone memo
/// re-classifies only unseen cones on cache-missed cycles.
/// Labels: "cache=0/1 cone=0/1".
void protocol_arm(benchmark::State& state, const programs::Program& prog,
                  std::vector<std::uint32_t> a, std::vector<std::uint32_t> b) {
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  core::ExecOptions exec;
  exec.plan_cache = state.range(0) != 0;
  exec.cone_memo = state.range(1) != 0;
  std::uint64_t cycles = 0;
  double hit_ratio = 0.0;
  double cone_ratio = 0.0;
  for (auto _ : state) {
    const arm::Arm2GcResult r = machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, exec);
    benchmark::DoNotOptimize(r.outputs.data());
    cycles = r.cycles;
    hit_ratio = r.stats.plan_cache_hit_ratio();
    cone_ratio = r.stats.cone_hit_ratio();
  }
  state.SetLabel(std::string("cache=") + (state.range(0) ? "1" : "0") +
                 " cone=" + (state.range(1) ? "1" : "0"));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cycles));
  state.counters["cycles"] = static_cast<double>(cycles);
  state.counters["cache_hit_ratio"] = hit_ratio;
  state.counters["cone_hit_ratio"] = cone_ratio;
}

}  // namespace

static void BM_ProtocolArmSum32(benchmark::State& state) {
  protocol_arm(state, programs::sum(1), {0xDEADBEEFu}, {0x12345679u});
}
BENCHMARK(BM_ProtocolArmSum32)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

static void BM_ProtocolArmHamming160(benchmark::State& state) {
  protocol_arm(state, programs::hamming(5), {1, 2, 3, 4, 5}, {6, 7, 8, 9, 10});
}
BENCHMARK(BM_ProtocolArmHamming160)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

/// OT-phase cost of a full ARM2GC run (Hamming-160, cold): wall time spent
/// inside OT batches and true framed OT bytes, per backend, with the
/// online/offline split (identical to comm.ot_bytes except under precomp,
/// where the pool refills move off the online path).
/// arg0: 0 = ideal stand-in, 1 = IKNP extension, 2 = precomputed pool.
static void BM_ProtocolArmHamming160OtPhase(benchmark::State& state) {
  const programs::Program prog = programs::hamming(5);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  core::ExecOptions exec;
  exec.ot_backend = state.range(0) == 0   ? gc::OtBackend::Ideal
                    : state.range(0) == 1 ? gc::OtBackend::Iknp
                                          : gc::OtBackend::Precomp;
  const std::vector<std::uint32_t> a = {1, 2, 3, 4, 5};
  const std::vector<std::uint32_t> b = {6, 7, 8, 9, 10};
  std::uint64_t ot_ns = 0;
  std::uint64_t ot_offline_ns = 0;
  std::uint64_t ot_bytes = 0;
  std::uint64_t online_bytes = 0;
  std::uint64_t choices = 0;
  for (auto _ : state) {
    const arm::Arm2GcResult r = machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, exec);
    benchmark::DoNotOptimize(r.outputs.data());
    ot_ns = r.stats.ot_wall_ns;
    ot_offline_ns = r.stats.ot_offline_wall_ns;
    ot_bytes = r.stats.comm.ot_bytes;
    online_bytes = r.stats.ot_online_bytes;
    choices = r.stats.ot_choices;
  }
  state.SetLabel(state.range(0) == 0   ? "ot=ideal"
                 : state.range(0) == 1 ? "ot=iknp"
                                       : "ot=precomp");
  state.counters["ot_ms"] = static_cast<double>(ot_ns) * 1e-6;
  state.counters["ot_offline_ms"] = static_cast<double>(ot_offline_ns) * 1e-6;
  state.counters["ot_bytes"] = static_cast<double>(ot_bytes);
  state.counters["ot_online_bytes"] = static_cast<double>(online_bytes);
  state.counters["ot_choices"] = static_cast<double>(choices);
}
BENCHMARK(BM_ProtocolArmHamming160OtPhase)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// The serving scenario: one Arm2Gc::Session executes the same public
/// program on fresh private inputs every iteration, so the per-party plan
/// caches stay warm and every run after the first skips classification.
static void BM_ProtocolArmSessionHamming160(benchmark::State& state) {
  const programs::Program prog = programs::hamming(5);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  arm::Arm2Gc::Session session(machine);
  std::vector<std::uint32_t> a = {1, 2, 3, 4, 5};
  const std::vector<std::uint32_t> b = {6, 7, 8, 9, 10};
  double hit_ratio = 0.0;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    a[0]++;  // fresh private input each run; the public trajectory repeats
    const arm::Arm2GcResult r = session.run(a, b);
    benchmark::DoNotOptimize(r.outputs.data());
    hit_ratio = r.stats.plan_cache_hit_ratio();
    cycles = r.cycles;
  }
  state.SetLabel("session");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cycles));
  state.counters["cache_hit_ratio"] = hit_ratio;
}
BENCHMARK(BM_ProtocolArmSessionHamming160)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
