// Garbler-side (Alice) session: owns the label generator, the free-XOR
// offset R and every garbler label; consumes the public CyclePlan and talks
// to the evaluator only through a gc::Transport. It never sees Bob's inputs
// (Bob's labels go out through the batched OT endpoint — ideal stand-in or
// real IKNP extension, per gc::OtBackend) and never reads from the planner's
// fingerprint state — the plan is the entire shared contract.
//
// OT schedule: Bob-owned bits bind by enqueueing the (x0, x0^R) pair; the
// whole phase's batch runs at the flush point at the end of reset() /
// begin_cycle(), after the evaluator's request() for the same phase (the
// driver's ot_* hooks order this; see core/skipgate.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/plan.h"
#include "crypto/block.h"
#include "gc/garble.h"
#include "gc/otext.h"
#include "gc/transport.h"
#include "netlist/netlist.h"

namespace arm2gc::core {

class WorkPool;

class GarblerSession {
 public:
  /// `ot_backend` selects the OT endpoint; `warm_ot` (optional, IKNP only)
  /// carries base-OT state across runs of one pairing, `warm_ot_pool` is its
  /// Precomp counterpart (the random-OT pool, which embeds its own base
  /// state) and `ot_pool` sizes a fresh Precomp pool when no warm one is
  /// handed in. `pool` (optional) garbles independent cone slices on its
  /// workers, staging each cone's tables and draining them in slice order
  /// through a single ordered writer — the framed byte stream, table digests
  /// and comm accounting are byte-identical to the serial path.
  GarblerSession(const netlist::Netlist& nl, Mode mode, gc::Scheme scheme, crypto::Block seed,
                 gc::Transport& tx, gc::OtBackend ot_backend = gc::OtBackend::Ideal,
                 gc::IknpSenderState* warm_ot = nullptr, WorkPool* pool = nullptr,
                 gc::RandomOtPoolSender* warm_ot_pool = nullptr,
                 std::size_t ot_pool = gc::kDefaultOtPoolBatch);

  /// Binds labels for constants (Conventional mode), fixed inputs and
  /// flip-flop initial values; sends the evaluator's labels (directly for
  /// Alice-known bits, batched through OT for Bob's bits).
  void reset(const netlist::BitVec& alice_bits, const netlist::BitVec& pub_bits);

  /// Installs root labels for a cycle and binds streamed inputs (flip-flop
  /// outputs are installed by reset() and latch()).
  void begin_cycle(const netlist::BitVec& alice_stream, const netlist::BitVec& pub_stream);

  /// Runs the garbler label pass over the plan, sending garbled tables.
  void garble_cycle(const CyclePlan& plan);

  /// Receives Bob's output labels and decodes this cycle's sampled outputs.
  [[nodiscard]] netlist::BitVec decode_outputs(const CyclePlan& plan);

  /// Carries flip-flop labels into the next cycle: computes and installs
  /// the labels of the plan's secret_dffs (the only ones that change).
  void latch(const CyclePlan& plan);

  /// OT maintenance between cycles (the schedule's ot_refill slot): lets the
  /// Precomp backend top up its random-OT pool off the critical path.
  void ot_maintain() { ot_->maintain(); }

  /// OT-phase counters of this session's sender endpoint.
  [[nodiscard]] const gc::OtPhaseStats& ot_stats() const { return ot_->stats(); }

  /// Running gf_double-mix digest of every garbled-table block sent (same
  /// construction as gc/golden_digest.h): pins table *content*, not just
  /// byte counts, across transports and OT backends.
  [[nodiscard]] crypto::Block table_digest() const { return table_digest_; }

 private:
  void bind_secret(netlist::Owner owner, bool v, crypto::Block& la);
  [[nodiscard]] bool known_bit(netlist::Owner owner, std::uint32_t idx,
                               const netlist::BitVec& alice, const netlist::BitVec& pub,
                               const char* what) const;

  const netlist::Netlist& nl_;
  Mode mode_;
  gc::Garbler garbler_;
  gc::Transport* tx_;
  std::unique_ptr<gc::OtSender> ot_;
  WorkPool* pool_;

  std::vector<crypto::Block> la_;
  std::vector<crypto::Block> fixed_la_;
  std::vector<crypto::Block> dff_la_;
  crypto::Block const_la_[2];
  crypto::Block table_digest_{};
  /// Per-slice staging buffers for pooled garbling (drained in slice order
  /// by the transport writer) and the per-slice emitted-table prefix sums
  /// that preassign each cone's tweak range.
  std::vector<std::vector<gc::GarbledTable>> stage_;
  std::vector<std::uint64_t> emit_base_;
  /// Per-cycle domain for Classic4 derived output labels (advanced every
  /// garble_cycle, never reset): labels are functions of (epoch, gate), so
  /// worker order cannot perturb them.
  std::uint64_t cycle_epoch_ = 0;
};

}  // namespace arm2gc::core
