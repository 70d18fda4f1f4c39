// Evaluator-side (Bob) session: owns Bob's active labels and the evaluation
// state; consumes the public CyclePlan and the garbler's frames through a
// gc::Transport. It never sees Alice's inputs or any label pair — its OT
// choices are the only secrets it contributes.
//
// OT schedule: each binding phase is split in two. ot_reset()/ot_begin()
// queue the phase's Bob choice bits and emit the receiver-side OT message
// (the IKNP column matrix; a no-op frame-wise for the ideal backend) —
// these run *before* the garbler's matching phase so the extension's
// receiver-first round trip works under the lock-step schedule. The regular
// reset()/begin_cycle() then consume the garbler's direct labels in stream
// order and complete the OT batch, filling every queued destination.
// Streamed Bob bits run one batch per OT window (see core/garbler.h): the
// window-opening ot_begin() queues every cycle of the window into a window
// buffer, and each begin_cycle() installs its own cycle's slice of it.
//
// Evaluation: eval_cycle walks each cone slice through the shared slice loop
// (core/slice_loop.h), the same batching as the garbler's, so batches of
// independent gates run through the fused half-gates kernel.
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

class EvaluatorSession {
 public:
  /// `seed` feeds only the OT receiver's randomness (domain-separated); the
  /// evaluator holds no label-generating state. `warm_ot` (optional, IKNP
  /// only) carries base-OT state across runs of one pairing. `pool`
  /// (optional) evaluates independent cone slices on its workers once their
  /// frames arrive. Either way each slice's table frame is pulled off the
  /// transport with one receive, in slice order on the calling thread (the
  /// read mirror of the garbler's ordered writer), so the consumed byte
  /// stream and received-table digest are byte-identical to the serial path.
  EvaluatorSession(const netlist::Netlist& nl, Mode mode, crypto::Block seed, gc::Transport& tx,
                   gc::OtBackend ot_backend = gc::OtBackend::Ideal,
                   gc::IknpReceiverState* warm_ot = nullptr, WorkPool* pool = nullptr,
                   gc::RandomOtPoolReceiver* warm_ot_pool = nullptr,
                   std::size_t ot_pool = gc::kDefaultOtPoolBatch);

  /// Queues OT choices for Bob's fixed inputs and flip-flop initial values
  /// and emits the receiver-side OT request. Must run before the garbler's
  /// reset() in a lock-step schedule.
  void ot_reset(const netlist::BitVec& bob_bits);

  /// Receives labels for constants (Conventional mode), fixed inputs and
  /// flip-flop initial values; completes the reset OT batch.
  void reset();

  /// Opens an OT window: queues OT choices for the streamed Bob bits of
  /// each of the window's cycles (one BitVec per cycle, in cycle order) and
  /// emits the receiver-side OT request. Must run before the garbler's
  /// window-opening begin_cycle().
  void ot_begin(const std::vector<netlist::BitVec>& bob_window);

  /// Installs root labels for a cycle, receives streamed-input labels and,
  /// when `window_start`, completes the window's OT batch (Bob's choices
  /// were consumed by ot_begin). Flip-flop outputs are installed by reset()
  /// and latch().
  void begin_cycle(bool window_start);

  /// Runs the evaluator label pass over the plan, consuming each slice's
  /// garbled tables as one frame.
  void eval_cycle(const CyclePlan& plan);

  /// Sends this cycle's secret output labels for decoding.
  void send_outputs(const CyclePlan& plan);

  /// Carries flip-flop labels into the next cycle: copies and installs the
  /// labels of the plan's secret_dffs (the only ones that change).
  void latch(const CyclePlan& plan);

  /// OT maintenance between cycles (receiver-first halves of the schedule's
  /// ot_refill slot): Precomp pool top-up, no-ops otherwise.
  void ot_maintain_request() { ot_->maintain_request(); }
  void ot_maintain_finish() { ot_->maintain_finish(); }

  /// OT-phase counters of this session's receiver endpoint.
  [[nodiscard]] const gc::OtPhaseStats& ot_stats() const { return ot_->stats(); }

  /// Running gf_double-mix digest of every garbled-table block *received*
  /// (the mirror of GarblerSession::table_digest over the same byte stream):
  /// on a correct run the two sides' digests are equal, which lets two
  /// separate processes assert table-content agreement without shipping the
  /// tables twice.
  [[nodiscard]] crypto::Block table_digest() const { return table_digest_; }

  /// Gates the label passes executed so far (RunStats::live_gates).
  [[nodiscard]] std::uint64_t live_gates() const { return live_gates_; }

 private:
  [[nodiscard]] bool bob_bit(std::uint32_t idx, const netlist::BitVec& bob,
                             const char* what) const;
  // The binding filters, shared by the OT-request halves and the label
  // halves (and mirroring the garbler's walk): the OT queue is filled by
  // one loop and drained against frames produced by another, so membership
  // must be decided in exactly one place.
  [[nodiscard]] bool binds_fixed(const netlist::Input& in) const;
  [[nodiscard]] bool binds_streamed(const netlist::Input& in) const;

  const netlist::Netlist& nl_;
  Mode mode_;
  gc::Evaluator eval_;
  gc::Transport* tx_;
  std::unique_ptr<gc::OtReceiver> ot_;
  WorkPool* pool_;

  /// Per-slice row frames (filled by the ordered transport reader, consumed
  /// by the slice's worker) with their batching state (core/slice_loop.h).
  std::vector<SliceStage> stage_;

  std::vector<crypto::Block> lb_;
  std::vector<std::uint8_t> lb_valid_;
  std::vector<crypto::Block> fixed_lb_;
  std::vector<crypto::Block> dff_lb_;
  std::vector<std::uint8_t> dff_lb_valid_;
  crypto::Block const_lb_[2];
  /// The open OT window's streamed Bob labels, cycle-major (Bob's streamed
  /// inputs ascending per cycle), and the next cycle's offset into it.
  std::vector<crypto::Block> win_lb_;
  std::size_t win_pos_ = 0;
  crypto::Block table_digest_{};
  std::uint64_t live_gates_ = 0;
};

}  // namespace arm2gc::core
