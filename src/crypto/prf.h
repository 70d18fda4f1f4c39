// Fixed-key garbling hash H(X, tweak) built from AES-128, following the
// pi-hash of Bellare et al. (S&P'13): H(X,t) = pi(K) xor K with K = 2X xor t,
// where pi is AES under a fixed public key. This is the hash used by
// JustGarble/TinyGarble-style engines and by the half-gates construction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/aes128.h"
#include "crypto/block.h"

namespace arm2gc::crypto {

/// One gate of a fused half-gates batch (Zahur, Rosulek, Evans —
/// EUROCRYPT'15): its two input wires and its output wire as indices into the
/// caller's label array, and its AND-core polarities (netlist::AndCore:
/// bit 0 alpha, bit 1 beta, bit 2 gamma; the evaluator ignores them).
struct HalfGateJob {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t out = 0;
  std::uint32_t polarity = 0;
};

/// Correlation-robust hash for garbling. Stateless and thread-compatible; the
/// fixed AES key is baked in at construction.
///
/// The batched entry points (`hash2`, `hash4`) hash independent
/// (label, tweak) pairs through one pipelined pass over the AES backend and
/// are bit-identical to the corresponding scalar calls — half-gates garbling
/// does 4 independent hashes per gate and evaluation does 2, so these are the
/// protocol's natural batch widths.
///
/// The fused half-gates kernels (`garble_half_gates`, `eval_half_gates`)
/// run a whole batch of independent gates — label loads, polarity masks,
/// the hash's doubling and tweak, AES and the half-gates combine — in one
/// pass (vector registers under AES-NI, a Block reference path otherwise;
/// both are bit-identical).
class PiHash {
 public:
  PiHash();

  /// Selects the AES backend explicitly (cross-checks and benchmarks);
  /// the default constructor uses runtime dispatch.
  explicit PiHash(Aes128::Backend backend);

  /// H(label, tweak): tweak must be unique per (gate, row-half) use.
  [[nodiscard]] Block operator()(Block label, std::uint64_t tweak) const;

  /// Hashes 2 independent (label, tweak) pairs. `out` may alias `in`.
  void hash2(const Block in[2], const std::uint64_t tweak[2], Block out[2]) const;

  /// Hashes 4 independent (label, tweak) pairs. `out` may alias `in`.
  void hash4(const Block in[4], const std::uint64_t tweak[4], Block out[4]) const;

  /// Garbles `n` independent half-gates over `labels` (false labels; `r` is
  /// the free-XOR offset). Gate k hashes at tweaks `tweak + 2k` and
  /// `tweak + 2k + 1`, writes its generator and evaluator rows to
  /// rows[2k] and rows[2k + 1], and its output false label to
  /// labels[jobs[k].out]. No job may read another job's output wire.
  void garble_half_gates(Block r, Block* labels, const HalfGateJob* jobs, std::size_t n,
                         std::uint64_t tweak, Block* rows) const;

  /// Evaluates `n` independent half-gates over the active `labels`, the
  /// mirror of garble_half_gates: gate k reads rows[2k], rows[2k + 1] at
  /// tweaks `tweak + 2k`, `tweak + 2k + 1` and writes labels[jobs[k].out].
  void eval_half_gates(Block* labels, const HalfGateJob* jobs, std::size_t n,
                       std::uint64_t tweak, const Block* rows) const;

  /// True iff the underlying cipher dispatches to AES-NI.
  [[nodiscard]] bool uses_aesni() const { return pi_.uses_aesni(); }

 private:
  Aes128 pi_;
};

/// Historical name from the seed implementation.
using GarbleHash = PiHash;

}  // namespace arm2gc::crypto
