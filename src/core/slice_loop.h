// The one slice loop both party sessions run over a cone slice's work list.
// It batches garbled gates for the fused half-gates kernels
// (gc::Garbler::garble_half_gates / gc::Evaluator::eval_half_gates) and
// runs every other gate in place through the session's own per-gate body.
//
// Rules, in work-list order:
//   - a Garble gate (every one on a work list emits its table) joins the
//     open batch, after flushing it first if the batch is full or one of the
//     gate's inputs is still pending;
//   - a free gate that reads a pending wire is deferred (its output becomes
//     pending too); after each flush the deferred gates replay in order;
//   - every other gate runs at once.
// A pass gate (PassA/PassB/PassSrc) reaches apply() with its label source
// in `g.a`: the collapsed chain source its work item names
// (PlanSlice::work_src).
// Pending wires are outputs of the open batch and of deferred gates, so they
// all sit at or above the first batched gate's wire: only those wires are
// looked up, and with no batch open a free gate pays one compare. Gate k of
// a slice in emission order is still the k-th table of the slice, so tweaks
// and rows keep their serial positions and the byte stream is unchanged.
// Each session keeps one SliceStage and reuses it slice after slice.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/plan.h"
#include "crypto/prf.h"
#include "gc/garble.h"
#include "netlist/netlist.h"

namespace arm2gc::core {

/// Rows per emitted table in a slice frame: the sessions garble half-gates
/// only.
inline constexpr std::size_t kRowsPerGate = gc::blocks_per_gate(gc::Scheme::HalfGates);

/// One gate as the slice loop runs it: output wire, action, and the gate
/// with a pass gate's label source moved into g.a.
struct SliceItem {
  netlist::WireId w;
  PlanAct act;
  netlist::Gate g;
};

/// The current slice's staging: its garbled-table rows as one flat frame,
/// and the loop's batching state (reused across slices and cycles).
struct SliceStage {
  std::vector<crypto::Block> rows;
  std::array<crypto::HalfGateJob, gc::kGateBatch> jobs{};
  /// Per slice-relative wire offset from the first batched gate: nonzero
  /// while pending. All-zero between flushes.
  std::vector<std::uint8_t> pending;
  /// The deferred free gates, in order.
  std::vector<SliceItem> deferred;
};

/// Gates a cycle's slice walks execute: the summed work lists (every gate in
/// Conventional mode; RunStats::live_gates).
inline std::uint64_t live_gate_count(const CyclePlan& plan) {
  std::uint64_t n = 0;
  for (std::size_t si = 0; si < plan.num_slices; ++si) n += plan.slices[si].work_count;
  return n;
}

/// Walks slice `sl`'s work list. `apply(act, w, g)` runs a non-batched gate
/// (action act, output wire w, gate g — a pass gate's label source in g.a):
/// every action except Garble. `flush(jobs, n, k0)` garbles or evaluates n
/// independent batched gates whose first is the slice's k0-th emitted table.
template <class Apply, class Flush>
void walk_slice(const netlist::Netlist& nl, const PlanSlice& sl, SliceStage& st, Apply&& apply,
                Flush&& flush) {
  using netlist::WireId;
  constexpr WireId kNoBatch = std::numeric_limits<WireId>::max();
  const WireId first_gate = nl.first_gate_wire();
  const netlist::Gate* gates = nl.gates.data();
  std::uint8_t* pending = st.pending.data();  // sized when a batch first opens
  WireId pend_lo = kNoBatch;
  std::size_t batched = 0;
  std::uint64_t emitted = 0;

  const auto is_pending = [&](WireId x) { return x >= pend_lo && pending[x - pend_lo] != 0; };
  // Work item k; a pass gate's g.a is the only operand its paths read.
  const auto item = [&](std::uint32_t k) {
    const std::uint32_t i = sl.work[k];
    SliceItem it{first_gate + i, sl.action(k), gates[i]};
    switch (it.act) {
      case PlanAct::PassA:
      case PlanAct::PassB:
      case PlanAct::PassSrc:
        it.g.a = sl.work_src[k];
        break;
      default:
        break;
    }
    return it;
  };
  // Pending bits are cleared before flush() runs, so a flush that throws
  // (the evaluator's missing-label check) leaves them all-zero for the
  // session's next run; a stale deferred list is dropped on entry.
  const auto flush_batch = [&] {
    for (std::size_t k = 0; k < batched; ++k) pending[st.jobs[k].out - pend_lo] = 0;
    for (const SliceItem& d : st.deferred) pending[d.w - pend_lo] = 0;
    flush(st.jobs.data(), batched, emitted);
    emitted += batched;
    batched = 0;
    for (const SliceItem& d : st.deferred) apply(d.act, d.w, d.g);
    st.deferred.clear();
    pend_lo = kNoBatch;
  };
  st.deferred.clear();

  for (std::uint32_t k = 0; k < sl.work_count; ++k) {
    const SliceItem it = item(k);
    const auto& [w, act, g] = it;
    if (act == PlanAct::Garble) {
      if (batched == gc::kGateBatch || is_pending(g.a) || is_pending(g.b)) flush_batch();
      if (batched == 0) {
        if (st.pending.size() < sl.count) {
          st.pending.resize(sl.count);
          pending = st.pending.data();
        }
        pend_lo = w;
      }
      st.jobs[batched++] = crypto::HalfGateJob{g.a, g.b, w, gc::kPolarityOfTable[g.tt & 15u]};
      pending[w - pend_lo] = 1;
      continue;
    }
    if (pend_lo != kNoBatch) {
      bool reads = false;
      switch (act) {
        case PlanAct::PassA:
        case PlanAct::PassB:
        case PlanAct::PassSrc:
          reads = is_pending(g.a);
          break;
        case PlanAct::FreeXor: reads = is_pending(g.a) || is_pending(g.b); break;
        default: break;  // reads no gate output (constants at most)
      }
      if (reads) {
        st.deferred.push_back(it);
        pending[w - pend_lo] = 1;
        continue;
      }
    }
    apply(act, w, g);
  }
  if (batched != 0) flush_batch();
}

}  // namespace arm2gc::core
