// Microbenchmarks (google-benchmark): the cryptographic kernels under the
// protocol — AES, the garbling hash, garble/eval per scheme (one gate per
// call, and half-gates batches through the fused kernel), the IKNP
// transpose and OT batches — plus the warm planner cycle (BM_WarmPlanHit).
// They are per-kernel rooflines, not a paper table: end-to-end protocol
// wall time is measured by perfbench/.
//
// The AES benchmarks are parameterized by backend (0 = portable tables,
// 1 = AES-NI) and by batching (scalar vs hash4/encrypt_batch), so one run
// shows the full speedup ladder recorded in BENCH_micro.json. AES-NI rows
// silently measure the portable fallback on CPUs without the extension —
// check the reported labels.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "arm/arm2gc.h"
#include "core/plan.h"
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

/// Independent gates at the session batch width (gc::kGateBatch) for the
/// fused half-gates kernels: the label array holds 2 inputs per gate and the
/// outputs land beside them, as in a session slice batch.
std::vector<crypto::HalfGateJob> independent_jobs() {
  std::vector<crypto::HalfGateJob> jobs(gc::kGateBatch);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const auto w = static_cast<std::uint32_t>(3 * k);
    jobs[k] = crypto::HalfGateJob{w, w + 1, w + 2, static_cast<std::uint32_t>(k % 8)};
  }
  return jobs;
}

/// Half-gates garbled gates per second through the fused batch kernel
/// (runtime-dispatched backend), kGateBatch independent gates per call —
/// the roofline beside BM_Garble's one gate per call.
static void BM_GarbleBatch(benchmark::State& state) {
  const gc::Garbler g(crypto::block_from_u64(6));
  const std::vector<crypto::HalfGateJob> jobs = independent_jobs();
  std::vector<crypto::Block> labels(3 * jobs.size());
  crypto::CtrRng rng(crypto::block_from_u64(7));
  for (crypto::Block& l : labels) l = rng.next_block();
  std::vector<crypto::Block> rows(2 * jobs.size());
  std::uint64_t tweak = 0;
  for (auto _ : state) {
    g.garble_half_gates(labels.data(), jobs.data(), jobs.size(), tweak, rows.data());
    tweak += 2 * jobs.size();
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetLabel("halfgates");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_GarbleBatch);

/// Half-gates evaluated gates per second through the fused batch kernel,
/// kGateBatch independent gates per call (rows are not re-garbled per
/// iteration: the hash work, what this bench measures, is the same).
static void BM_EvalBatch(benchmark::State& state) {
  const gc::Garbler g(crypto::block_from_u64(8));
  const gc::Evaluator ev;
  const std::vector<crypto::HalfGateJob> jobs = independent_jobs();
  std::vector<crypto::Block> labels(3 * jobs.size());
  crypto::CtrRng rng(crypto::block_from_u64(9));
  for (crypto::Block& l : labels) l = rng.next_block();
  std::vector<crypto::Block> rows(2 * jobs.size());
  g.garble_half_gates(labels.data(), jobs.data(), jobs.size(), 0, rows.data());
  std::uint64_t tweak = 0;
  for (auto _ : state) {
    ev.eval_half_gates(labels.data(), jobs.data(), jobs.size(), tweak, rows.data());
    tweak += 2 * jobs.size();
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetLabel("halfgates");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_EvalBatch);

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

/// Warm planner cycles: a Hamming-160 (5 words per party) planner replay
/// over a primed PlanCache, as a warm Session's planner runs it — every
/// cycle a whole-entry hit (its successor-link check, then the compiled
/// symbolic program's ~68 kept root relations), then finish() and latch()
/// (which derives the few garbled fingerprints its latch forms read). Two
/// untimed replays prime the cache (cold plans) and compile every entry;
/// items = planner cycles, so the rate reads as warm planner cycles per
/// second.
static void BM_WarmPlanHit(benchmark::State& state) {
  const programs::Program prog = programs::hamming(5);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  const core::PartyOptions po = machine.party_options(core::Role::Garbler);
  core::PlanCache cache;
  core::PlannerOptions opts;
  opts.mode = po.mode;
  opts.seed = po.protocol_seed;
  opts.shared_cache = &cache;
  opts.cone_target_gates = po.cone_target_gates;
  core::Planner planner(machine.cpu().nl, opts);
  const auto replay = [&] {
    std::int64_t cycles = 0;
    planner.reset({});
    for (;;) {
      planner.begin_cycle({});
      planner.forward();
      ++cycles;
      const bool is_final = planner.wire_value(*po.halt_wire);
      const core::CyclePlan plan = planner.finish(is_final);
      benchmark::DoNotOptimize(plan.slices);
      if (is_final) return cycles;
      planner.latch(plan);
    }
  };
  replay();
  replay();
  const std::uint64_t hits0 = planner.cache_hits();
  std::int64_t cycles = 0;
  for (auto _ : state) cycles += replay();
  state.SetItemsProcessed(cycles);
  state.counters["hit_ratio"] = benchmark::Counter(
      static_cast<double>(planner.cache_hits() - hits0) / static_cast<double>(cycles ? cycles : 1));
}
BENCHMARK(BM_WarmPlanHit);

BENCHMARK_MAIN();
