// The one slice loop both party sessions run over a cone slice's live gates.
// It batches emitted garbled gates for the fused half-gates kernels
// (gc::Garbler::garble_half_gates / gc::Evaluator::eval_half_gates) and
// runs every other gate in place through the session's own per-gate body.
//
// Rules, in work-list order:
//   - an emitted Garble gate joins the open batch, after flushing it first
//     if the batch is full or one of the gate's inputs is still pending;
//   - a free gate that reads a pending wire is deferred (its output becomes
//     pending too); after each flush the deferred gates replay in order;
//   - every other gate runs at once.
// A pass gate (PassA/PassB/PassSrc) reaches apply() with its label source
// in `g.a`: under SkipGate the collapsed chain source its work item names
// (PlanSlice::work_src), in Conventional mode its operand.
// Pending wires are outputs of the open batch and of deferred gates, so they
// all sit at or above the first batched gate's wire: only those wires are
// looked up, and with no batch open a free gate pays one compare. Gate k of
// a slice in emission order is still the k-th table of the slice, so tweaks
// and rows keep their serial positions and the byte stream is unchanged.
// The batching state is per slice, so pooled slices never share it.
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

/// One gate as the slice loop runs it: slice-relative index j, action, and
/// the gate with a pass gate's label source moved into g.a.
struct SliceItem {
  std::uint32_t j;
  PlanAct act;
  netlist::Gate g;
};

/// One slice's staging: its garbled-table rows as one flat frame, and the
/// loop's batching state (reused across cycles).
struct SliceStage {
  std::vector<crypto::Block> rows;
  std::array<crypto::HalfGateJob, gc::kGateBatch> jobs{};
  /// Per slice-relative wire offset from the first batched gate: nonzero
  /// while pending. All-zero between flushes.
  std::vector<std::uint8_t> pending;
  /// The deferred free gates, in order.
  std::vector<SliceItem> deferred;
};

/// Gates a cycle's slice walks execute: every gate in Conventional mode,
/// the summed work lists under SkipGate (RunStats::live_gates).
inline std::uint64_t live_gate_count(const CyclePlan& plan, bool conventional) {
  if (conventional) return plan.num_gates;
  std::uint64_t n = 0;
  for (std::size_t si = 0; si < plan.num_slices; ++si) n += plan.slices[si].work_count;
  return n;
}

/// Walks slice `sl` (every gate in Conventional mode, its work list under
/// SkipGate). `apply(j, w, g)` runs the non-batched gate j (slice-relative;
/// output wire w, gate g — a pass gate's label source in g.a): every action
/// except an emitted Garble. `flush(jobs, n, k0)` garbles or evaluates n
/// independent batched gates whose first is the slice's k0-th emitted table.
template <class Apply, class Flush>
void walk_slice(const netlist::Netlist& nl, const PlanSlice& sl, bool conventional,
                SliceStage& st, Apply&& apply, Flush&& flush) {
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
    const std::uint32_t j = conventional ? k : sl.work[k];
    SliceItem it{j, sl.action(j), gates[sl.first_gate + j]};
    switch (it.act) {
      case PlanAct::PassA:
      case PlanAct::PassSrc:
        if (!conventional) it.g.a = sl.work_src[k];
        break;
      case PlanAct::PassB:
        it.g.a = conventional ? it.g.b : sl.work_src[k];
        break;
      default:
        break;
    }
    return it;
  };
  const auto wire_of = [&](std::uint32_t j) { return first_gate + sl.first_gate + j; };
  // Pending bits are cleared before flush() runs, so a flush that throws
  // (the evaluator's missing-label check) leaves them all-zero for the
  // session's next run; a stale deferred list is dropped on entry.
  const auto flush_batch = [&] {
    for (std::size_t k = 0; k < batched; ++k) pending[st.jobs[k].out - pend_lo] = 0;
    for (const SliceItem& d : st.deferred) pending[wire_of(d.j) - pend_lo] = 0;
    flush(st.jobs.data(), batched, emitted);
    emitted += batched;
    batched = 0;
    for (const SliceItem& d : st.deferred) apply(d.j, wire_of(d.j), d.g);
    st.deferred.clear();
    pend_lo = kNoBatch;
  };
  st.deferred.clear();

  const std::uint32_t n = conventional ? sl.count : sl.work_count;
  for (std::uint32_t k = 0; k < n; ++k) {
    const SliceItem it = item(k);
    const auto& [j, act, g] = it;
    const WireId w = wire_of(j);
    if (act == PlanAct::Garble && sl.emit[j] != 0) {
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
    apply(j, w, g);
  }
  if (batched != 0) flush_batch();
}

}  // namespace arm2gc::core
