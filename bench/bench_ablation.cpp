// Ablation studies for the design choices DESIGN.md calls out:
//  1. garbling scheme (classic 4-row vs GRR3 vs half-gates) — communication
//     per non-XOR gate under the same SkipGate plan;
//  2. the deferred-flag / conditional-execution machinery — cost of a
//     predicated ARM instruction vs a branch-free HDL mux;
//  3. Hamming circuit structure (bit-serial counter vs popcount tree);
//  4. SkipGate planner overhead (local compute traded for communication).
#include <chrono>
#include <exception>
#include <thread>
#include <vector>

#include "arm/arm2gc.h"
#include "bench_util.h"
#include "circuits/tg_circuits.h"
#include "crypto/rng.h"
#include "gc/transport_socket.h"
#include "programs/programs.h"

using namespace arm2gc;
using benchutil::num;

namespace {

/// Best-of-n wall-clock milliseconds of a callable.
template <typename Fn>
double best_wall_ms(int n, Fn&& fn) {
  double best = 1e18;
  for (int i = 0; i < n; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::parse_args(argc, argv);
  crypto::CtrRng rng(crypto::block_from_u64(606));

  benchutil::header("Ablation 1: garbling scheme vs communication (Mult 32 instance)");
  {
    const circuits::TgInstance inst = circuits::tg_mult32(0xCAFEBABE, 0x31415926);
    for (const auto scheme : {gc::Scheme::Classic4, gc::Scheme::Grr3, gc::Scheme::HalfGates}) {
      const circuits::TgRun r = circuits::run_instance(inst, core::Mode::SkipGate, scheme);
      const char* name = scheme == gc::Scheme::Classic4
                             ? "classic 4-row"
                             : (scheme == gc::Scheme::Grr3 ? "GRR3 (3-row)" : "half-gates");
      std::printf("%-14s garbled non-XOR %8s   table bytes %10s\n", name,
                  num(r.stats.garbled_non_xor).c_str(),
                  num(r.stats.comm.garbled_table_bytes).c_str());
    }
  }

  benchutil::header("Ablation 2: predicated execution cost on the garbled ARM");
  {
    // max(a,b) with conditional move vs arithmetic selection.
    const auto cmov = arm::assemble(
        "ldr r4, [r0]\nldr r5, [r1]\ncmp r4, r5\nmovlo r4, r5\nstr r4, [r2]\nswi 0\n");
    const auto arith = arm::assemble(
        "ldr r4, [r0]\nldr r5, [r1]\nsubs r6, r4, r5\nsbc r7, r7, r7\nand r6, r6, r7\n"
        "sub r4, r4, r6\nstr r4, [r2]\nswi 0\n");
    arm::MemoryConfig cfg;
    cfg.imem_words = 16;
    cfg.alice_words = cfg.bob_words = cfg.out_words = 1;
    cfg.ram_words = 16;
    for (const auto& [name, prog] : {std::pair{"cmp+movlo", cmov}, {"mask arithmetic", arith}}) {
      const arm::Arm2Gc machine(cfg, prog);
      const auto r = machine.run(std::vector<std::uint32_t>{77}, std::vector<std::uint32_t>{99});
      std::printf("%-16s out=%u garbled non-XOR %6s\n", name, r.outputs[0],
                  num(r.stats.garbled_non_xor).c_str());
    }
  }

  benchutil::header("Ablation 3: Hamming circuit structure (160-bit)");
  {
    netlist::BitVec a(160), b(160);
    for (std::size_t i = 0; i < 160; ++i) {
      a[i] = rng.next_bool();
      b[i] = rng.next_bool();
    }
    const auto serial = circuits::run_instance(circuits::tg_hamming(160, a, b),
                                               core::Mode::SkipGate);
    const auto tree = circuits::run_instance(circuits::tg_hamming_tree(160, a, b),
                                             core::Mode::SkipGate);
    std::printf("bit-serial counter (TinyGarble layout): %s\n",
                num(serial.stats.garbled_non_xor).c_str());
    std::printf("popcount tree (combinational):          %s\n",
                num(tree.stats.garbled_non_xor).c_str());
  }

  benchutil::header("Ablation 4: SkipGate local-compute overhead (Hamming 160 on ARM)");
  {
    const programs::Program p = programs::hamming(5);
    std::vector<std::uint32_t> a(5), b(5);
    for (auto& w : a) w = static_cast<std::uint32_t>(rng.next_u64());
    for (auto& w : b) w = static_cast<std::uint32_t>(rng.next_u64());
    const arm::Arm2Gc machine(p.cfg, p.words);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = machine.run(a, b);
    const auto dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const std::uint64_t wo = machine.conventional_non_xor(r.cycles);
    std::printf("cycles %s, planner+garble wall time %.3fs  (%s)\n", num(r.cycles).c_str(), dt,
                benchutil::stats_brief(r.stats).c_str());
    std::printf("communication: %s garbled tables (vs %s conventional) -> %s bytes total\n",
                num(r.stats.garbled_non_xor).c_str(), num(wo).c_str(),
                num(r.stats.comm.total()).c_str());
    std::printf("local gate-slots visited: %s (linear in circuit size x cycles, §3.4)\n",
                num(r.stats.non_xor_slots).c_str());
  }

  benchutil::header("Ablation 5: cone-granular planning & party composition (wall-clock)");
  {
    // Cold single runs (transient caches) with cone memoization off/on, and
    // warm sessions run lock-step in one thread vs as two endpoints over a
    // TCP socket. Wall-clock is the figure of merit here.
    const programs::Program p = programs::hamming(5);
    std::vector<std::uint32_t> a(5), b(5);
    for (auto& w : a) w = static_cast<std::uint32_t>(rng.next_u64());
    for (auto& w : b) w = static_cast<std::uint32_t>(rng.next_u64());
    const arm::Arm2Gc machine(p.cfg, p.words);

    core::ExecOptions cone_off;
    cone_off.cone_memo = false;
    core::ExecOptions cone_on;
    double hit_ratio = 0.0;
    const double cold_off = best_wall_ms(3, [&] { (void)machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, cone_off); });
    const double cold_on = best_wall_ms(3, [&] {
      hit_ratio = machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, cone_on)
                      .stats.cone_hit_ratio();
    });
    std::printf("cold run, cone memo off: %7.2f ms\n", cold_off);
    std::printf("cold run, cone memo on:  %7.2f ms  (cone hit ratio %.1f%%)\n", cold_on,
                100.0 * hit_ratio);

    arm::Arm2Gc::Session lockstep(machine);
    (void)lockstep.run(a, b);  // warm the caches before timing
    const double warm_lock = best_wall_ms(5, [&] { (void)lockstep.run(a, b); });
    std::printf("warm session, lock-step in-memory: %7.2f ms\n", warm_lock);

    // Socket transport on localhost: the two party endpoints over a real TCP
    // connection (two threads in one process; the exact code path of
    // tools/arm2gc_party, including connection setup per run). The delta to
    // lock-step is garbler/evaluator overlap minus the kernel socket cost
    // and the evaluator's own planning.
    core::WarmState socket_gwarm(core::Role::Garbler);
    core::WarmState socket_ewarm(core::Role::Evaluator);
    auto socket_once = [&] {
      gc::SocketListener listener("127.0.0.1", 0);
      const std::uint16_t port = listener.port();
      std::exception_ptr garbler_error;
      std::thread garbler_thread([&] {
        try {
          auto sock = gc::SocketDuplex::connect("127.0.0.1", port);
          (void)machine.run_garbler(a, sock->end(),
                                    machine.party_options(core::Role::Garbler), &socket_gwarm);
        } catch (...) {
          garbler_error = std::current_exception();
        }
      });
      try {
        auto sock = listener.accept();
        (void)machine.run_evaluator(b, sock->end(),
                                    machine.party_options(core::Role::Evaluator),
                                    &socket_ewarm);
      } catch (...) {
        garbler_thread.join();  // a joinable thread at unwind would terminate
        throw;
      }
      garbler_thread.join();
      if (garbler_error) std::rethrow_exception(garbler_error);
    };
    socket_once();  // warm the caches and base state before timing
    const double warm_socket = best_wall_ms(5, socket_once);
    std::printf("warm session, TCP socket loopback: %7.2f ms (wall; two endpoints; "
                "hw_concurrency=%u)\n",
                warm_socket, std::thread::hardware_concurrency());

    if (benchutil::json().enabled()) {
      benchutil::json().add("hamming160.cold_ms_cone_off", cold_off);
      benchutil::json().add("hamming160.cold_ms_cone_on", cold_on);
      benchutil::json().add("hamming160.cold_cone_hit_ratio", hit_ratio);
      benchutil::json().add("hamming160.warm_session_ms_lockstep", warm_lock);
      benchutil::json().add("hamming160.warm_session_ms_socket_loopback_wall", warm_socket);
      benchutil::json().add("hardware_concurrency",
                            static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    }
  }

  benchutil::header("Ablation 6: OT backend (ideal stand-in vs IKNP extension, Hamming 160)");
  {
    // The OT phase of a full garbled-ARM run: Bob's 160 input bits ride one
    // reset batch. Ideal ships the label pair (32 B/choice); IKNP pays the
    // kappa-bit column plus two hashed ciphertexts per choice and a one-time
    // base phase that a warm session amortizes away. Everything but the OT
    // traffic is bit-identical across backends (pinned in tests/ot_test.cpp).
    const programs::Program p = programs::hamming(5);
    std::vector<std::uint32_t> a(5), b(5);
    for (auto& w : a) w = static_cast<std::uint32_t>(rng.next_u64());
    for (auto& w : b) w = static_cast<std::uint32_t>(rng.next_u64());
    const arm::Arm2Gc machine(p.cfg, p.words);

    for (const auto backend : {gc::OtBackend::Ideal, gc::OtBackend::Iknp}) {
      core::ExecOptions exec;
      exec.ot_backend = backend;
      arm::Arm2GcResult last;
      const double cold_ms = best_wall_ms(3, [&] { last = machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, exec); });
      const char* name = backend == gc::OtBackend::Ideal ? "ideal" : "iknp";
      std::printf("%-6s cold run %7.2f ms   ot phase %6.3f ms   ot bytes %9s  (%s choices, %s base OTs)\n",
                  name, cold_ms, static_cast<double>(last.stats.ot_wall_ns) * 1e-6,
                  num(last.stats.comm.ot_bytes).c_str(), num(last.stats.ot_choices).c_str(),
                  num(last.stats.ot_base_ots).c_str());
      if (benchutil::json().enabled()) {
        const std::string pre = std::string("hamming160.ot_") + name;
        benchutil::json().add(pre + "_cold_ms", cold_ms);
        benchutil::json().add(pre + "_phase_ms", static_cast<double>(last.stats.ot_wall_ns) * 1e-6);
        benchutil::json().add(pre + "_bytes", last.stats.comm.ot_bytes);
      }
    }

    // Warm IKNP session: base OTs run once, then every run rides extension.
    core::ExecOptions iknp;
    iknp.ot_backend = gc::OtBackend::Iknp;
    arm::Arm2Gc::Session session(machine, iknp);
    arm::Arm2GcResult first = session.run(a, b);
    arm::Arm2GcResult warm;
    const double warm_ms = best_wall_ms(5, [&] { warm = session.run(a, b); });
    std::printf("iknp   warm session %7.2f ms   ot phase %6.3f ms   (base OTs first run %s, then %s)\n",
                warm_ms, static_cast<double>(warm.stats.ot_wall_ns) * 1e-6,
                num(first.stats.ot_base_ots).c_str(), num(warm.stats.ot_base_ots).c_str());
    if (benchutil::json().enabled()) {
      benchutil::json().add("hamming160.ot_iknp_warm_session_ms", warm_ms);
      benchutil::json().add("hamming160.ot_iknp_warm_phase_ms",
                            static_cast<double>(warm.stats.ot_wall_ns) * 1e-6);
      benchutil::json().add("hamming160.ot_iknp_warm_base_ots", warm.stats.ot_base_ots);
    }
  }

  benchutil::header("Ablation 7: multicore garbling/evaluation (worker pool, Hamming 160)");
  {
    // Warm lock-step sessions at 1/2/4 worker threads: each party shards its
    // per-cone slices across the pool while the ordered writer keeps the
    // byte stream — and so the table digest and every comm counter —
    // identical to the serial schedule (pinned by tests/parallel_test.cpp;
    // spot-checked again here). The speedup is wall-clock only with enough
    // cores: on a 1-vCPU host the threads>1 rows serialize and the committed
    // JSON flags them as such — the CI bench artifact (>= 2 vCPUs) is the
    // canonical scaling number.
    const programs::Program p = programs::hamming(5);
    std::vector<std::uint32_t> a(5), b(5);
    for (auto& w : a) w = static_cast<std::uint32_t>(rng.next_u64());
    for (auto& w : b) w = static_cast<std::uint32_t>(rng.next_u64());
    const arm::Arm2Gc machine(p.cfg, p.words);

    crypto::Block serial_digest{};
    double serial_ms = 0.0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      core::ExecOptions exec;
      exec.threads = threads;
      arm::Arm2Gc::Session session(machine, exec);
      arm::Arm2GcResult r = session.run(a, b);  // warm the caches before timing
      const double ms = best_wall_ms(5, [&] { r = session.run(a, b); });
      if (threads == 1) {
        serial_digest = r.stats.table_digest;
        serial_ms = ms;
      } else if (r.stats.table_digest != serial_digest) {
        std::fprintf(stderr, "FATAL: threads=%zu digest diverges from serial\n", threads);
        return 1;
      }
      std::printf("warm session, threads=%zu: %7.2f ms  (x%.2f vs serial; %s)\n", threads, ms,
                  serial_ms / ms, benchutil::stats_brief(r.stats).c_str());
      if (benchutil::json().enabled()) {
        char key[64];
        std::snprintf(key, sizeof key, "hamming160.warm_session_ms_threads_%zu", threads);
        benchutil::json().add(key, ms);
        if (threads == 4) benchutil::json().add("hamming160.threads_4_speedup", serial_ms / ms);
      }
    }
    if (benchutil::json().enabled()) {
      // Provenance for readers of the committed JSON: which rows are real
      // wall-clock parallelism on the recording host.
      benchutil::json().add(
          "multicore_note",
          std::string("threads>1 and socket-loopback rows need that many cores to win on "
                      "wall-clock; with hardware_concurrency recorded above below that, they "
                      "serialize locally (showing as per-party CPU reduction only). The CI "
                      "bench-ablation-json artifact (multi-vCPU runner) is the canonical "
                      "multi-core record, including the warm Hamming-160 threads=4 speedup."));
    }
  }
  benchutil::header("Ablation 8: precomputed OT (online-path bytes and wall, Hamming 160)");
  {
    // The online/offline OT split across all three backends: ideal and IKNP
    // pay every OT byte on the critical path; the precomputed pool banks
    // random OTs through bulk IKNP refills (offline) and serves the online
    // choices as derandomization frames — ~34 B/choice amortized against
    // IKNP's ~192 B floor at streaming batch sizes, with outputs and table
    // digests pinned bit-identical in tests/otpre_test.cpp.
    const programs::Program p = programs::hamming(5);
    std::vector<std::uint32_t> a(5), b(5);
    for (auto& w : a) w = static_cast<std::uint32_t>(rng.next_u64());
    for (auto& w : b) w = static_cast<std::uint32_t>(rng.next_u64());
    const arm::Arm2Gc machine(p.cfg, p.words);

    for (const auto backend :
         {gc::OtBackend::Ideal, gc::OtBackend::Iknp, gc::OtBackend::Precomp}) {
      core::ExecOptions exec;
      exec.ot_backend = backend;
      arm::Arm2GcResult last;
      const double cold_ms = best_wall_ms(
          3, [&] { last = machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, exec); });
      const char* name = backend == gc::OtBackend::Ideal
                             ? "ideal"
                             : (backend == gc::OtBackend::Iknp ? "iknp" : "precomp");
      std::printf(
          "%-8s cold %7.2f ms   online ot %6.3f ms / %9s B   offline ot %6.3f ms / %9s B\n",
          name, cold_ms, static_cast<double>(last.stats.ot_wall_ns) * 1e-6,
          num(last.stats.ot_online_bytes).c_str(),
          static_cast<double>(last.stats.ot_offline_wall_ns) * 1e-6,
          num(last.stats.comm.ot_bytes - last.stats.ot_online_bytes).c_str());
      if (benchutil::json().enabled()) {
        const std::string pre = std::string("hamming160.ot_") + name;
        benchutil::json().add(pre + "_online_bytes", last.stats.ot_online_bytes);
        benchutil::json().add(pre + "_online_ms",
                              static_cast<double>(last.stats.ot_wall_ns) * 1e-6);
        benchutil::json().add(pre + "_offline_bytes",
                              last.stats.comm.ot_bytes - last.stats.ot_online_bytes);
        benchutil::json().add(pre + "_offline_ms",
                              static_cast<double>(last.stats.ot_offline_wall_ns) * 1e-6);
      }
    }

    // Warm precomp session: the base phase and the bulk refill are first-run
    // costs; later runs derandomize from the banked pool and pay zero
    // offline wall (until the maintenance schedule tops the pool up again).
    core::ExecOptions pre;
    pre.ot_backend = gc::OtBackend::Precomp;
    arm::Arm2Gc::Session session(machine, pre);
    arm::Arm2GcResult first = session.run(a, b);
    arm::Arm2GcResult warm;
    const double warm_ms = best_wall_ms(5, [&] { warm = session.run(a, b); });
    std::printf(
        "precomp  warm session %7.2f ms   online ot %6.3f ms / %9s B   (offline first run "
        "%6.3f ms, then %6.3f ms)\n",
        warm_ms, static_cast<double>(warm.stats.ot_wall_ns) * 1e-6,
        num(warm.stats.ot_online_bytes).c_str(),
        static_cast<double>(first.stats.ot_offline_wall_ns) * 1e-6,
        static_cast<double>(warm.stats.ot_offline_wall_ns) * 1e-6);
    if (benchutil::json().enabled()) {
      benchutil::json().add("hamming160.ot_precomp_warm_session_ms", warm_ms);
      benchutil::json().add("hamming160.ot_precomp_warm_online_ms",
                            static_cast<double>(warm.stats.ot_wall_ns) * 1e-6);
      benchutil::json().add("hamming160.ot_precomp_warm_online_bytes",
                            warm.stats.ot_online_bytes);
      benchutil::json().add("hamming160.ot_precomp_warm_offline_ms",
                            static_cast<double>(warm.stats.ot_offline_wall_ns) * 1e-6);
    }
  }

  return benchutil::finish();
}
