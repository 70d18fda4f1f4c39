// Garbling schemes. Half-gates (Zahur, Rosulek, Evans — EUROCRYPT'15: free
// XOR, 2 ciphertexts per non-XOR gate) is the only scheme the protocol
// endpoints run. Classic four-row and GRR3 (row-reduction, Naor-Pinkas-
// Sumner) stay here as kernels only: the reference for the round-trip and
// golden-digest tests, the per-scheme microbenchmarks, and the cost model
// of the garbling-scheme ablation. All three share the fixed-key pi-hash.
//
// Any non-affine 2-input gate is garbled at AND cost through its AND-core
// decomposition  f(a,b) = gamma ^ ((a^alpha) & (b^beta)) : the garbler offsets
// the false input labels by alpha*R / beta*R and the false output label by
// gamma*R; the evaluator is oblivious to the polarities.
//
// Half-gates runs through the fused batch kernels of crypto::PiHash
// (garble_half_gates / eval_half_gates): the party sessions hand them up to
// kGateBatch independent gates at once, straight over their label arrays,
// and the per-gate entry points below are the same kernels at width 1.
// GRR3 and classic garble per gate. Tables travel as flat row arrays
// (blocks_per_gate rows per gate); GarbledTable is the per-gate view.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/block.h"
#include "crypto/prf.h"
#include "crypto/rng.h"
#include "netlist/gate.h"

namespace arm2gc::gc {

using crypto::Block;

enum class Scheme : std::uint8_t { HalfGates, Grr3, Classic4 };

/// Ciphertexts for one garbled gate. Half-gates uses 2; GRR3 uses 3;
/// classic uses 4. `count` says how many are meaningful.
struct GarbledTable {
  std::array<Block, 4> rows{};
  std::uint8_t count = 0;
};

/// Gates per fused half-gates batch in the party sessions' slice loop: a
/// compile-time constant, not an option. A full batch is four 8-block AES
/// groups when garbling and two when evaluating.
inline constexpr std::size_t kGateBatch = 8;

/// HalfGateJob::polarity bits of an AND core (bit 0 alpha, 1 beta, 2 gamma).
[[nodiscard]] constexpr std::uint32_t polarity_bits(netlist::AndCore core) {
  return static_cast<std::uint32_t>(core.alpha) | static_cast<std::uint32_t>(core.beta) << 1 |
         static_cast<std::uint32_t>(core.gamma) << 2;
}

/// polarity_bits(tt_and_core(tt)) for every truth table, so the slice loop
/// reads a gate's polarities with one load.
inline constexpr std::array<std::uint32_t, 16> kPolarityOfTable = [] {
  std::array<std::uint32_t, 16> p{};
  for (std::size_t tt = 0; tt < p.size(); ++tt) {
    p[tt] = polarity_bits(netlist::tt_and_core(static_cast<netlist::TruthTable>(tt)));
  }
  return p;
}();

/// Number of ciphertext blocks per non-XOR gate under a scheme.
[[nodiscard]] constexpr std::size_t blocks_per_gate(Scheme s) {
  switch (s) {
    case Scheme::HalfGates: return 2;
    case Scheme::Grr3: return 3;
    case Scheme::Classic4: return 4;
  }
  return 2;
}

/// Garbler-side state: the global free-XOR offset R (lsb forced to 1 for
/// point-and-permute) and the label generator.
class Garbler {
 public:
  explicit Garbler(Block seed, Scheme scheme = Scheme::HalfGates);

  [[nodiscard]] Block R() const { return r_; }

  /// Fresh false label for a new wire (input or GRR-independent output).
  Block fresh_label();

  /// Garbles one non-affine gate. `a0`, `b0` are the inputs' false labels;
  /// `core` comes from netlist::tt_and_core. Returns the output false label
  /// and fills `table`. Consumes two hash tweaks (kept in lock-step with the
  /// evaluator via the shared gate counter).
  Block garble(Block a0, Block b0, netlist::AndCore core, GarbledTable& table);

  /// Stateless garbling at an explicit tweak (uses `tweak` and `tweak + 1`):
  /// bit-identical to garble() fed the same tweaks, but const, so
  /// independent cones garble concurrently against preassigned tweak
  /// ranges. `classic_fresh` supplies the fresh output label Classic4 needs
  /// (ignored by the row-reduced schemes). The caller advances the shared
  /// cursors once per cycle via advance().
  Block garble_at(Block a0, Block b0, netlist::AndCore core, std::uint64_t tweak,
                  Block classic_fresh, GarbledTable& table) const;

  /// garble_at writing its blocks_per_gate(scheme()) rows to `rows`, with
  /// the polarities as polarity_bits.
  Block garble_rows(Block a0, Block b0, std::uint32_t polarity, std::uint64_t tweak,
                    Block classic_fresh, Block* rows) const;

  /// Garbles `n` independent half-gates over the false-label array `labels`
  /// (see crypto::PiHash::garble_half_gates): gate k uses tweaks
  /// `tweak + 2k`, `tweak + 2k + 1` and rows[2k], rows[2k + 1] — exactly what
  /// n garble_at calls would. HalfGates scheme only.
  void garble_half_gates(Block* labels, const crypto::HalfGateJob* jobs, std::size_t n,
                         std::uint64_t tweak, Block* rows) const {
    hash_.garble_half_gates(r_, labels, jobs, n, tweak, rows);
  }

  /// Advances the gate counter and tweak cursor past `gates` garbled gates
  /// (2 tweaks each) handled out-of-band through garble_at().
  void advance(std::uint64_t gates) {
    gate_counter_ += gates;
    tweak_ += 2 * gates;
  }

  /// The next tweak garble() would consume — the base the per-cone tweak
  /// ranges of a cycle are laid out from.
  [[nodiscard]] std::uint64_t tweak_cursor() const { return tweak_; }

  [[nodiscard]] std::uint64_t gates_garbled() const { return gate_counter_; }

 private:
  Block classic(Block a0, Block b0, std::uint64_t j0, Block w0_fresh, Block* rows,
                bool grr3) const;

  crypto::PiHash hash_;
  crypto::CtrRng rng_;
  Block r_;
  Scheme scheme_;
  std::uint64_t gate_counter_ = 0;
  std::uint64_t tweak_ = 0;
};

/// Evaluator-side state; mirrors the garbler's tweak sequence.
class Evaluator {
 public:
  explicit Evaluator(Scheme scheme = Scheme::HalfGates) : scheme_(scheme) {}

  /// Evaluates one garbled gate given the active input labels.
  Block eval(Block a, Block b, const GarbledTable& table);

  /// Stateless evaluation at an explicit tweak (uses `tweak` and `tweak + 1`)
  /// — the evaluator-side mirror of Garbler::garble_at, for cones evaluated
  /// concurrently against preassigned tweak ranges.
  Block eval_at(Block a, Block b, const GarbledTable& table, std::uint64_t tweak) const;

  /// eval_at reading the gate's rows from `rows`.
  Block eval_rows(Block a, Block b, const Block* rows, std::uint64_t tweak) const;

  /// Evaluates `n` independent half-gates over the active-label array
  /// `labels`, the mirror of Garbler::garble_half_gates. HalfGates only.
  void eval_half_gates(Block* labels, const crypto::HalfGateJob* jobs, std::size_t n,
                       std::uint64_t tweak, const Block* rows) const {
    hash_.eval_half_gates(labels, jobs, n, tweak, rows);
  }

  /// Advances the gate counter and tweak cursor past `gates` gates handled
  /// out-of-band through eval_at().
  void advance(std::uint64_t gates) {
    gate_counter_ += gates;
    tweak_ += 2 * gates;
  }

  /// The next tweak eval() would consume.
  [[nodiscard]] std::uint64_t tweak_cursor() const { return tweak_; }

  [[nodiscard]] std::uint64_t gates_evaluated() const { return gate_counter_; }

 private:
  Block eval_classic(Block a, Block b, std::uint64_t j0, const Block* rows, bool grr3) const;

  crypto::PiHash hash_;
  Scheme scheme_;
  std::uint64_t gate_counter_ = 0;
  std::uint64_t tweak_ = 0;
};

}  // namespace arm2gc::gc
