// Ablation studies for the paper's design choices, in deterministic counts
// (garbled gates, bytes, OT choices); `--json` writes BENCH_ablation.json,
// which CI regenerates and diffs byte-for-byte:
//  1. garbling scheme (classic 4-row vs GRR3 vs half-gates) — communication
//     per non-XOR gate under the same SkipGate plan, as a cost model: the
//     endpoints garble half-gates only, and a scheme's table bytes are the
//     half-gates run's garbled gates x 16 B x gc::blocks_per_gate(scheme);
//  2. the deferred-flag / conditional-execution machinery — cost of a
//     predicated ARM instruction vs a branch-free HDL mux;
//  3. Hamming circuit structure (bit-serial counter vs popcount tree);
//  4. SkipGate's local work (gate slots visited) traded for communication;
//  5. OT backend bytes (ideal stand-in vs IKNP extension);
//  6. precomputed OT: online vs offline bytes per backend.
// Wall-clock and thread scaling are measured by perfbench/, not here.
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "arm/arm2gc.h"
#include "bench_util.h"
#include "circuits/tg_circuits.h"
#include "crypto/rng.h"
#include "programs/programs.h"

using namespace arm2gc;
using benchutil::num;

int main(int argc, char** argv) {
  benchutil::parse_args(argc, argv);
  crypto::CtrRng rng(crypto::block_from_u64(606));

  benchutil::header("Ablation 1: garbling scheme vs communication (Mult 32 instance)");
  {
    const circuits::TgRun r =
        circuits::run_instance(circuits::tg_mult32(0xCAFEBABE, 0x31415926), core::Mode::SkipGate);
    const auto table_bytes = [&](gc::Scheme s) -> std::uint64_t {
      return r.stats.garbled_non_xor * 16 * gc::blocks_per_gate(s);
    };
    if (r.stats.comm.garbled_table_bytes != table_bytes(gc::Scheme::HalfGates)) {
      std::fprintf(stderr, "ablation 1: half-gates table bytes do not match the cost model\n");
      return 1;
    }
    for (const auto& [scheme, name, key] :
         {std::tuple{gc::Scheme::Classic4, "classic 4-row", "classic4"},
          {gc::Scheme::Grr3, "GRR3 (3-row)", "grr3"},
          {gc::Scheme::HalfGates, "half-gates", "halfgates"}}) {
      const std::uint64_t bytes = table_bytes(scheme);
      std::printf("%-14s garbled non-XOR %8s   table bytes %10s\n", name,
                  num(r.stats.garbled_non_xor).c_str(), num(bytes).c_str());
      if (benchutil::json().enabled()) {
        benchutil::json().add(std::string("mult32.table_bytes_") + key, bytes);
      }
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

  benchutil::header("Ablation 4: SkipGate local work vs communication (Hamming 160 on ARM)");
  {
    const programs::Program p = programs::hamming(5);
    std::vector<std::uint32_t> a(5), b(5);
    for (auto& w : a) w = static_cast<std::uint32_t>(rng.next_u64());
    for (auto& w : b) w = static_cast<std::uint32_t>(rng.next_u64());
    const arm::Arm2Gc machine(p.cfg, p.words);
    const auto r = machine.run(a, b);
    const std::uint64_t wo = machine.conventional_non_xor(r.cycles);
    std::printf("cycles %s  (%s)\n", num(r.cycles).c_str(),
                benchutil::stats_brief(r.stats).c_str());
    std::printf("communication: %s garbled tables (vs %s conventional) -> %s bytes total\n",
                num(r.stats.garbled_non_xor).c_str(), num(wo).c_str(),
                num(r.stats.comm.total()).c_str());
    std::printf("local gate-slots visited: %s (linear in circuit size x cycles, §3.4)\n",
                num(r.stats.non_xor_slots).c_str());
  }

  benchutil::header("Ablation 5: OT backend (ideal stand-in vs IKNP extension, Hamming 160)");
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
      const arm::Arm2GcResult r = machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, exec);
      const char* name = backend == gc::OtBackend::Ideal ? "ideal" : "iknp";
      std::printf("%-6s cold run   ot bytes %9s  (%s choices, %s base OTs)\n", name,
                  num(r.stats.comm.ot_bytes).c_str(), num(r.stats.ot_choices).c_str(),
                  num(r.stats.ot_base_ots).c_str());
      if (benchutil::json().enabled()) {
        benchutil::json().add(std::string("hamming160.ot_") + name + "_bytes",
                              r.stats.comm.ot_bytes);
      }
    }

    // Warm IKNP session: base OTs run once, then every run rides extension.
    core::ExecOptions iknp;
    iknp.ot_backend = gc::OtBackend::Iknp;
    arm::Arm2Gc::Session session(machine, iknp);
    const arm::Arm2GcResult first = session.run(a, b);
    const arm::Arm2GcResult warm = session.run(a, b);
    std::printf("iknp   warm session   base OTs first run %s, then %s\n",
                num(first.stats.ot_base_ots).c_str(), num(warm.stats.ot_base_ots).c_str());
    if (benchutil::json().enabled()) {
      benchutil::json().add("hamming160.ot_iknp_warm_base_ots", warm.stats.ot_base_ots);
    }
  }

  benchutil::header("Ablation 6: precomputed OT (online vs offline bytes, Hamming 160)");
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
      const arm::Arm2GcResult r = machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, exec);
      const char* name = backend == gc::OtBackend::Ideal
                             ? "ideal"
                             : (backend == gc::OtBackend::Iknp ? "iknp" : "precomp");
      const std::uint64_t offline = r.stats.comm.ot_bytes - r.stats.ot_online_bytes;
      std::printf("%-8s cold   online ot %9s B   offline ot %9s B\n", name,
                  num(r.stats.ot_online_bytes).c_str(), num(offline).c_str());
      if (benchutil::json().enabled()) {
        const std::string pre = std::string("hamming160.ot_") + name;
        benchutil::json().add(pre + "_online_bytes", r.stats.ot_online_bytes);
        benchutil::json().add(pre + "_offline_bytes", offline);
      }
    }

    // Warm precomp session: the base phase and the bulk refill are first-run
    // costs; later runs derandomize from the banked pool.
    core::ExecOptions pre;
    pre.ot_backend = gc::OtBackend::Precomp;
    arm::Arm2Gc::Session session(machine, pre);
    (void)session.run(a, b);
    const arm::Arm2GcResult warm = session.run(a, b);
    std::printf("precomp  warm session   online ot %9s B\n",
                num(warm.stats.ot_online_bytes).c_str());
    if (benchutil::json().enabled()) {
      benchutil::json().add("hamming160.ot_precomp_warm_online_bytes",
                            warm.stats.ot_online_bytes);
    }
  }

  return benchutil::finish();
}
