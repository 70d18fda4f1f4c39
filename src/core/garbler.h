// Garbler-side (Alice) session: owns the label generator, the free-XOR
// offset R and every garbler label; consumes the public CyclePlan and talks
// to the evaluator only through a gc::Transport. It never sees Bob's inputs
// (Bob's labels go out through the batched OT endpoint — ideal stand-in or
// real IKNP extension, per gc::OtBackend) and never reads from the planner's
// fingerprint state — the plan is the entire shared contract.
//
// OT schedule: Bob-owned bits bind by enqueueing the (x0, x0^R) pair; the
// whole phase's batch runs at the flush point at the end of reset() / a
// window-opening begin_cycle(), after the evaluator's request() for the same
// phase (the endpoint hooks order this; see core/party.h). Streamed inputs
// bind per OT window: the cycle that opens a window draws every label of
// the window's cycles up front (cycle-major, inputs ascending — the order a
// per-cycle draw would take, so labels and tables do not depend on the
// window size) and runs one OT batch for all of Bob's; each cycle then
// transfers only its own Alice/public labels.
//
// Garbling: garble_cycle walks each cone slice through the shared slice loop
// (core/slice_loop.h), which hands batches of independent garbled gates to
// the fused half-gates kernel straight over the label array.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/plan.h"
#include "core/slice_loop.h"
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
  /// workers. Either way each slice's tables are staged as one flat row
  /// frame and sent as one frame, in slice order, by a single ordered
  /// writer — the byte stream, table digests and comm accounting are
  /// byte-identical to a per-table send.
  GarblerSession(const netlist::Netlist& nl, Mode mode, crypto::Block seed, gc::Transport& tx,
                 gc::OtBackend ot_backend = gc::OtBackend::Ideal,
                 gc::IknpSenderState* warm_ot = nullptr, WorkPool* pool = nullptr,
                 gc::RandomOtPoolSender* warm_ot_pool = nullptr,
                 std::size_t ot_pool = gc::kDefaultOtPoolBatch);

  /// Binds labels for constants (Conventional mode), fixed inputs and
  /// flip-flop initial values; sends the evaluator's labels (directly for
  /// Alice-known bits, batched through OT for Bob's bits).
  void reset(const netlist::BitVec& alice_bits, const netlist::BitVec& pub_bits);

  /// Installs root labels for a cycle and binds streamed inputs (flip-flop
  /// outputs are installed by reset() and latch()). `window` > 0 opens an
  /// OT window of that many cycles: their streamed labels are drawn here
  /// and Bob's run through one OT batch; 0 continues the open window.
  void begin_cycle(const netlist::BitVec& alice_stream, const netlist::BitVec& pub_stream,
                   std::uint64_t window);

  /// Runs the garbler label pass over the plan, sending each slice's
  /// garbled tables as one frame.
  void garble_cycle(const CyclePlan& plan);

  /// Receives Bob's output labels and decodes this cycle's sampled outputs.
  [[nodiscard]] netlist::BitVec decode_outputs(const CyclePlan& plan);

  /// Deferred decode: hold_outputs() snapshots this cycle's output false
  /// labels and public bits (one cycle at most may be held); decode_held()
  /// later receives Bob's labels for it and decodes. The evaluator's frame
  /// is the same either way — only when the garbler reads it moves.
  void hold_outputs(const CyclePlan& plan);
  [[nodiscard]] netlist::BitVec decode_held();
  [[nodiscard]] bool holds_outputs() const { return holding_; }
  /// Secret outputs of the held cycle: the labels decode_held() will read.
  [[nodiscard]] std::size_t held_labels() const { return held_labels_; }

  /// Carries flip-flop labels into the next cycle: computes and installs
  /// the labels of the plan's secret_dffs (the only ones that change).
  void latch(const CyclePlan& plan);

  /// OT maintenance between cycles (the schedule's ot_refill slot): lets the
  /// Precomp backend top up its random-OT pool off the critical path.
  void ot_maintain() { ot_->maintain(); }
  /// True when the next ot_maintain() reads a refill request.
  [[nodiscard]] bool ot_maintain_due() const { return ot_->maintain_due(); }

  /// OT-phase counters of this session's sender endpoint.
  [[nodiscard]] const gc::OtPhaseStats& ot_stats() const { return ot_->stats(); }

  /// Running gf_double-mix digest of every garbled-table block sent (same
  /// construction as gc/golden_digest.h): pins table *content*, not just
  /// byte counts, across transports and OT backends.
  [[nodiscard]] crypto::Block table_digest() const { return table_digest_; }

  /// Gates the label passes executed so far (RunStats::live_gates).
  [[nodiscard]] std::uint64_t live_gates() const { return live_gates_; }

 private:
  /// A secret source bit binds in two steps, which streamed inputs run at
  /// different times: Draw makes the label pair (and queues Bob's into the
  /// OT batch), Transfer sends the label of a bit Alice knows.
  enum class BindStep : std::uint8_t { Draw, Transfer, Both };
  void bind_secret(netlist::Owner owner, bool v, crypto::Block& la,
                   BindStep step = BindStep::Both);
  [[nodiscard]] bool binds_streamed(const netlist::Input& in) const;
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
  /// The open OT window's streamed labels, cycle-major (binds_streamed
  /// inputs ascending per cycle), and the next cycle's offset into it.
  std::vector<crypto::Block> win_la_;
  std::size_t win_pos_ = 0;
  /// The held cycle of a deferred decode: per output, its false label
  /// (secret) or its value (public).
  struct HeldOutput {
    crypto::Block false_label;
    bool is_public;
    bool value;
  };
  std::vector<HeldOutput> held_;
  std::size_t held_labels_ = 0;
  bool holding_ = false;
  crypto::Block table_digest_{};
  std::uint64_t live_gates_ = 0;
  /// Per-slice row frames and batching state (core/slice_loop.h; drained
  /// in slice order by the transport writer).
  std::vector<SliceStage> stage_;
};

}  // namespace arm2gc::core
