// ARM2GC public API (paper §4): run an ARM binary as a garbled processor.
//
// This is the `gc_main` equivalent of the paper's framework: the program is
// public, Alice's and Bob's private inputs live in dedicated memories, and
// the result is read back from the output memory:
//
//   reset ABI:  r0 = &alice_mem, r1 = &bob_mem, r2 = &out_mem,
//               sp = top of RAM, pc = 0; swi halts.
//
// Usage:
//   Arm2Gc machine(cfg, arm::assemble(source));
//   auto result = machine.run(alice_words, bob_words);
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arm/cpu_netlist.h"
#include "arm/cpu_sim.h"
#include "core/skipgate.h"

namespace arm2gc::arm {

struct Arm2GcResult {
  std::vector<std::uint32_t> outputs;  ///< the output memory after the run
  std::uint64_t cycles = 0;            ///< executed cycles including the halt cycle
  core::RunStats stats;
};

class Arm2Gc {
 public:
  /// Builds the garbled processor for a fixed public program. Netlist
  /// construction happens once; runs reuse it.
  Arm2Gc(MemoryConfig cfg, std::vector<std::uint32_t> program);

  /// Executes the two-party protocol (SkipGate mode, halt-driven) through
  /// the in-process lock-step driver. `exec` selects plan-cache, OT and
  /// thread tuning; results are identical across all tunings, only
  /// wall-clock and memory differ. The endpoints garble half-gates only:
  /// `scheme` is a frozen positional slot kept for existing callers that
  /// pass gc::Scheme::HalfGates, and any other value throws
  /// std::invalid_argument. Once those callers stop passing it, the
  /// parameter goes (here and in party_options).
  [[nodiscard]] Arm2GcResult run(std::span<const std::uint32_t> alice,
                                 std::span<const std::uint32_t> bob,
                                 std::uint64_t max_cycles = 1u << 20,
                                 gc::Scheme scheme = gc::Scheme::HalfGates,
                                 const core::ExecOptions& exec = {}) const;

  /// Executes with conventional GC (every gate garbled) for exactly
  /// `cycles` cycles — the "w/o SkipGate" baseline. Expensive; use small
  /// programs or prefer conventional_non_xor().
  [[nodiscard]] Arm2GcResult run_conventional(std::span<const std::uint32_t> alice,
                                              std::span<const std::uint32_t> bob,
                                              std::uint64_t cycles,
                                              const core::ExecOptions& exec = {}) const;

  /// Exact non-XOR cost of a conventional garbling of `cycles` cycles
  /// (gate count is cycle-invariant: cycles x non-free gates).
  [[nodiscard]] std::uint64_t conventional_non_xor(std::uint64_t cycles) const;

  /// Reference execution on the ISS (for expected outputs / cycle counts).
  [[nodiscard]] Arm2GcResult run_reference(std::span<const std::uint32_t> alice,
                                           std::span<const std::uint32_t> bob,
                                           std::uint64_t max_cycles = 1u << 20) const;

  /// Expands driver-style tuning into one role's endpoint options for this
  /// machine (SkipGate mode, halt-driven on the CPU's halt wire). Adjust
  /// private_seed on the result before a real two-process deployment.
  /// `scheme` is the same frozen slot as run()'s: anything but
  /// gc::Scheme::HalfGates throws std::invalid_argument.
  [[nodiscard]] core::PartyOptions party_options(core::Role role,
                                                 std::uint64_t max_cycles = 1u << 20,
                                                 gc::Scheme scheme = gc::Scheme::HalfGates,
                                                 const core::ExecOptions& exec = {}) const;

  /// Single-role runs over an external transport (e.g. a TCP socket to a
  /// remote peer): the garbler-service / evaluator-client API behind
  /// tools/arm2gc_party. `opts` must agree with the peer's on everything
  /// public (see core::PartyOptions). run_garbler decodes the output memory;
  /// run_evaluator leaves `outputs` empty (Bob contributes labels and
  /// choices, he does not learn the result in this protocol) but reports the
  /// same cycle count, stats and received-table digest.
  [[nodiscard]] Arm2GcResult run_garbler(std::span<const std::uint32_t> alice,
                                         gc::Transport& tx, const core::PartyOptions& opts,
                                         core::WarmState* warm = nullptr) const;
  [[nodiscard]] Arm2GcResult run_evaluator(std::span<const std::uint32_t> bob,
                                           gc::Transport& tx, const core::PartyOptions& opts,
                                           core::WarmState* warm = nullptr) const;

  /// Long-lived execution session: keeps per-party plan caches warm across
  /// runs of the same machine. The public signature trajectory of a run
  /// depends only on the program (secret inputs contribute value-independent
  /// fingerprint classes), so every run after the first skips classification
  /// entirely — the serving scenario: one public program, many executions on
  /// fresh private inputs. Under the IKNP OT backend the session also keeps
  /// the per-role extension states warm, so the kappa base OTs run once and
  /// amortize across every later run (mirroring the plan-cache warm path);
  /// a run that throws mid-protocol resets the warm OT state on both
  /// endpoints (core::WarmState::reset_ot), so the next run re-bases and
  /// succeeds instead of tripping the OT check block — recovery without
  /// rebuilding the session. Not thread-safe; use one Session per worker.
  class Session {
   public:
    /// `exec` seeds budget/backend tuning; `plan_cache` is forced on, and
    /// the session's own per-role WarmState (plan cache and, for the Iknp
    /// backend, OT extension state) fills each warm slot the caller left
    /// null (caller-supplied ones are used as given).
    explicit Session(const Arm2Gc& machine, core::ExecOptions exec = {});

    [[nodiscard]] Arm2GcResult run(std::span<const std::uint32_t> alice,
                                   std::span<const std::uint32_t> bob,
                                   std::uint64_t max_cycles = 1u << 20);

    [[nodiscard]] core::WarmState& garbler_warm() { return garbler_warm_; }
    [[nodiscard]] core::WarmState& evaluator_warm() { return evaluator_warm_; }

   private:
    const Arm2Gc* machine_;
    core::ExecOptions exec_;
    core::WarmState garbler_warm_;
    core::WarmState evaluator_warm_;
  };

  [[nodiscard]] const CpuNetlist& cpu() const { return cpu_; }
  [[nodiscard]] const std::vector<std::uint32_t>& program() const { return program_; }

  /// Bit-level views of this machine's memories, for deployments that drive
  /// netlist-level endpoints directly (the garbler service and its clients
  /// speak netlists, not ARM memories): input words packed little-endian
  /// into the input-bit order run_garbler/run_evaluator use, and the inverse
  /// for a RunResult's final outputs (output port 0 is the halt flag; the
  /// output memory follows word-major).
  [[nodiscard]] netlist::BitVec alice_input_bits(std::span<const std::uint32_t> words) const;
  [[nodiscard]] netlist::BitVec bob_input_bits(std::span<const std::uint32_t> words) const;
  [[nodiscard]] std::vector<std::uint32_t> decode_output_bits(
      const netlist::BitVec& final_outputs) const;

 private:
  [[nodiscard]] netlist::BitVec words_to_bits(std::span<const std::uint32_t> words,
                                              std::size_t mem_words, const char* who) const;

  MemoryConfig cfg_;
  std::vector<std::uint32_t> program_;
  CpuNetlist cpu_;
};

}  // namespace arm2gc::arm
