#include "core/evaluator.h"

#include <stdexcept>
#include <string>

#include "core/slice_loop.h"
#include "obs/trace.h"

namespace arm2gc::core {

namespace {
using crypto::Block;
using netlist::Dff;
using netlist::Gate;
using netlist::Owner;
using netlist::WireId;
}  // namespace

EvaluatorSession::EvaluatorSession(const netlist::Netlist& nl, Mode mode, Block seed,
                                   gc::Transport& tx, gc::OtBackend ot_backend,
                                   gc::IknpReceiverState* warm_ot,
                                   gc::RandomOtPoolReceiver* warm_ot_pool, std::size_t ot_pool)
    : nl_(nl),
      mode_(mode),
      tx_(&tx),
      ot_(gc::make_ot_receiver(ot_backend, tx, seed, warm_ot, warm_ot_pool, ot_pool)) {
  lb_.resize(nl_.num_wires());
  lb_valid_.assign(nl_.num_wires(), 0);
  // Sized here as well as in ot_reset() so a reset() without its ot_reset()
  // half (a contract violation) reads zeros instead of writing out of
  // bounds.
  fixed_lb_.assign(nl_.inputs.size(), Block{});
  dff_lb_.assign(nl_.dffs.size(), Block{});
  dff_lb_valid_.assign(nl_.dffs.size(), 1);
  const_lb_[0] = const_lb_[1] = Block{};
}

bool EvaluatorSession::bob_bit(std::uint32_t idx, const netlist::BitVec& bob,
                               const char* what) const {
  if (idx >= bob.size()) {
    throw std::out_of_range(std::string("skipgate: missing ") + what + " bit " +
                            std::to_string(idx));
  }
  return bob[idx];
}

/// A non-streamed input binds a label unless SkipGate keeps it public.
bool EvaluatorSession::binds_fixed(const netlist::Input& in) const {
  if (in.streamed) return false;
  return !(in.owner == Owner::Public && mode_ == Mode::SkipGate);
}

/// A streamed input binds a label each cycle unless SkipGate keeps it public.
bool EvaluatorSession::binds_streamed(const netlist::Input& in) const {
  if (!in.streamed) return false;
  return !(in.owner == Owner::Public && mode_ == Mode::SkipGate);
}

// The two reset halves walk the same binding order as the garbler's reset:
// fixed inputs ascending, then flip-flops ascending. The OT queue sees
// exactly the Bob-owned bindings (same subsequence on both sides); the
// direct-label stream sees exactly the rest.
void EvaluatorSession::ot_reset(const netlist::BitVec& bob_bits) {
  fixed_lb_.assign(nl_.inputs.size(), Block{});
  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    if (!binds_fixed(in)) continue;
    if (in.owner == Owner::Bob) {
      ot_->enqueue(bob_bit(in.bit_index, bob_bits, "fixed input"), &fixed_lb_[i]);
    }
  }

  dff_lb_.assign(nl_.dffs.size(), Block{});
  dff_lb_valid_.assign(nl_.dffs.size(), 1);
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    if (d.init == Dff::Init::BobBit) {
      ot_->enqueue(bob_bit(d.init_index, bob_bits, "Bob dff init"), &dff_lb_[i]);
    }
  }
  ot_->request();
}

void EvaluatorSession::reset() {
  const bool skipgate = mode_ == Mode::SkipGate;

  if (!skipgate) {
    const_lb_[0] = tx_->recv();
    const_lb_[1] = tx_->recv();
  }

  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    if (!binds_fixed(in)) continue;
    if (in.owner != Owner::Bob) fixed_lb_[i] = tx_->recv();
  }

  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    switch (d.init) {
      case Dff::Init::Zero:
      case Dff::Init::One:
        if (!skipgate) dff_lb_[i] = tx_->recv();
        break;
      case Dff::Init::AliceBit:
        dff_lb_[i] = tx_->recv();
        break;
      case Dff::Init::BobBit:
        break;  // queued in ot_reset; filled by finish() below
    }
  }
  ot_->finish();
  // Flip-flop outputs start from their initial labels; from here on latch()
  // installs the ones that change.
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const WireId w = nl_.dff_wire(i);
    lb_[w] = dff_lb_[i];
    lb_valid_[w] = dff_lb_valid_[i];
  }
}

void EvaluatorSession::ot_begin(const std::vector<netlist::BitVec>& bob_window) {
  std::size_t per_cycle = 0;
  for (const netlist::Input& in : nl_.inputs) {
    per_cycle += binds_streamed(in) && in.owner == Owner::Bob ? 1 : 0;
  }
  // Sized before any enqueue: the OT queue holds pointers into it until
  // the batch's finish().
  win_lb_.assign(bob_window.size() * per_cycle, Block{});
  std::size_t k = 0;
  for (const netlist::BitVec& bob_stream : bob_window) {
    for (const netlist::Input& in : nl_.inputs) {
      if (binds_streamed(in) && in.owner == Owner::Bob) {
        ot_->enqueue(bob_bit(in.bit_index, bob_stream, "streamed input"), &win_lb_[k++]);
      }
    }
  }
  win_pos_ = 0;
  ot_->request();
}

void EvaluatorSession::begin_cycle(bool window_start) {
  lb_[netlist::kConst0] = const_lb_[0];
  lb_[netlist::kConst1] = const_lb_[1];
  lb_valid_[netlist::kConst0] = 1;
  lb_valid_[netlist::kConst1] = 1;

  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    const WireId w = nl_.input_wire(i);
    if (!in.streamed) {
      lb_[w] = fixed_lb_[i];
      lb_valid_[w] = 1;
      continue;
    }
    if (!binds_streamed(in)) continue;  // public wire, no label
    lb_valid_[w] = 1;
    if (in.owner != Owner::Bob) lb_[w] = tx_->recv();  // Bob's land below
  }
  if (window_start) ot_->finish();
  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    if (binds_streamed(in) && in.owner == Owner::Bob) lb_[nl_.input_wire(i)] = win_lb_[win_pos_++];
  }
}

void EvaluatorSession::eval_cycle(const CyclePlan& plan) {
  live_gates_ += live_gate_count(plan);

  // The plan's per-slice emitted-table prefix, shared with the garbler:
  // slice si's frame is received (and folded into the digest) right before
  // its walk, which evaluates against the tweak range starting at
  // tweak0 + 2*emit_base[si].
  const std::uint64_t* emit_base = plan.emit_base;
  const std::uint64_t tweak0 = eval_.tweak_cursor();
  for (std::size_t si = 0; si < plan.num_slices; ++si) {
    const PlanSlice& sl = plan.slices[si];
    // An empty work list emits no table, so the slice has no frame either.
    if (sl.work_count == 0) continue;
    A2G_SPAN("eval.slice", "slice");
    const std::size_t blocks =
        static_cast<std::size_t>(emit_base[si + 1] - emit_base[si]) * kRowsPerGate;
    if (blocks != 0) {
      std::vector<Block>& rows = stage_.rows;
      if (rows.size() < blocks) rows.resize(blocks);
      tx_->recv(rows.data(), blocks);
      for (std::size_t t = 0; t < blocks; ++t) table_digest_ = table_digest_.gf_double() ^ rows[t];
    }
    const std::uint64_t tweak = tweak0 + 2 * emit_base[si];
    // Skipped gates (SkipGate work lists) keep stale labels, which is sound:
    // a live gate's inputs are always live-produced (or roots) by the
    // backward sweep's needed-closure, and every label-validity consumer
    // (outputs, latched flip-flops) checks publicness first.
    const auto apply = [&](PlanAct act, WireId w, const Gate& g) {
      switch (act) {
        case PlanAct::Public:  // never on a work list
        case PlanAct::Garble:  // batched: evaluated in flush()
          break;
        case PlanAct::PassA:
        case PlanAct::PassB:
        case PlanAct::PassSrc:
          // g.a is the label source (core/slice_loop.h). Free-XOR: inverting
          // a wire does not change the evaluator's label.
          lb_[w] = lb_[g.a];
          lb_valid_[w] = lb_valid_[g.a];
          break;
        case PlanAct::PassC0:
          lb_[w] = lb_[netlist::kConst0];
          lb_valid_[w] = lb_valid_[netlist::kConst0];
          break;
        case PlanAct::PassC1:
          lb_[w] = lb_[netlist::kConst1];
          lb_valid_[w] = lb_valid_[netlist::kConst1];
          break;
        case PlanAct::FreeXor:
          lb_[w] = lb_[g.a] ^ lb_[g.b];
          lb_valid_[w] = lb_valid_[g.a] & lb_valid_[g.b];
          break;
      }
    };
    const auto flush = [&](const crypto::HalfGateJob* jobs, std::size_t n, std::uint64_t k0) {
      // Batched gates read no pending wire, so their inputs' validity is final.
      for (std::size_t k = 0; k < n; ++k) {
        if (!lb_valid_[jobs[k].a] || !lb_valid_[jobs[k].b]) {
          throw std::logic_error("skipgate: evaluator missing label for a needed gate");
        }
        lb_valid_[jobs[k].out] = 1;
      }
      eval_.eval_half_gates(lb_.data(), jobs, n, tweak + 2 * k0,
                            stage_.rows.data() + k0 * kRowsPerGate);
    };
    walk_slice(nl_, sl, stage_, apply, flush);
  }
  eval_.advance(emit_base[plan.num_slices]);
}

void EvaluatorSession::send_outputs(const CyclePlan& plan) {
  for (const netlist::OutputPort& o : nl_.outputs) {
    if (plan.wire_public(o.wire)) continue;
    if (!lb_valid_[o.wire]) {
      throw std::logic_error("skipgate: evaluator has no label for an output wire");
    }
    tx_->send(lb_[o.wire], gc::Traffic::OutputDecode);
  }
}

void EvaluatorSession::latch(const CyclePlan& plan) {
  // Only the plan's secret_dffs change label (see GarblerSession::latch);
  // two passes so a D-input that is another flip-flop's output is read
  // before it is overwritten.
  const std::uint32_t* dffs = plan.secret_dffs;
  for (std::size_t k = 0; k < plan.num_secret_dffs; ++k) {
    const WireId dw = nl_.dffs[dffs[k]].d;
    dff_lb_[dffs[k]] = lb_[dw];
    dff_lb_valid_[dffs[k]] = lb_valid_[dw];
  }
  for (std::size_t k = 0; k < plan.num_secret_dffs; ++k) {
    const WireId w = nl_.dff_wire(dffs[k]);
    lb_[w] = dff_lb_[dffs[k]];
    lb_valid_[w] = dff_lb_valid_[dffs[k]];
  }
}

}  // namespace arm2gc::core
