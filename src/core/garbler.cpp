#include "core/garbler.h"

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

constexpr Block kZeroBlock{};
Block maybe(Block b, bool take) { return take ? b : kZeroBlock; }
}  // namespace

GarblerSession::GarblerSession(const netlist::Netlist& nl, Mode mode, Block seed,
                               gc::Transport& tx, gc::OtBackend ot_backend,
                               gc::IknpSenderState* warm_ot,
                               gc::RandomOtPoolSender* warm_ot_pool, std::size_t ot_pool)
    : nl_(nl),
      mode_(mode),
      garbler_(seed),
      tx_(&tx),
      ot_(gc::make_ot_sender(ot_backend, tx, seed, warm_ot, warm_ot_pool, ot_pool)) {
  la_.resize(nl_.num_wires());
  const_la_[0] = const_la_[1] = Block{};
}

/// Binds one secret source bit owned by `owner`: creates the label pair
/// (Draw) and transfers Bob's label (Transfer: directly for bits Alice
/// knows; Bob's own bits were queued into the OT batch at Draw — the value
/// `v` is ignored for them, the receiver chooses at the phase's flush).
void GarblerSession::bind_secret(Owner owner, bool v, Block& la, BindStep step) {
  if (step != BindStep::Transfer) {
    la = garbler_.fresh_label();
    if (owner == Owner::Bob) ot_->enqueue(la, la ^ garbler_.R());
  }
  if (step != BindStep::Draw && owner != Owner::Bob) {
    tx_->send(la ^ maybe(garbler_.R(), v), gc::Traffic::InputLabel);
  }
}

/// A streamed input binds a label each cycle unless SkipGate keeps it public.
bool GarblerSession::binds_streamed(const netlist::Input& in) const {
  return in.streamed && !(in.owner == Owner::Public && mode_ == Mode::SkipGate);
}

bool GarblerSession::known_bit(Owner owner, std::uint32_t idx, const netlist::BitVec& alice,
                               const netlist::BitVec& pub, const char* what) const {
  if (owner == Owner::Bob) return false;  // transferred by OT; value unused
  const netlist::BitVec& v = owner == Owner::Alice ? alice : pub;
  if (idx >= v.size()) {
    throw std::out_of_range(std::string("skipgate: missing ") + what + " bit " +
                            std::to_string(idx));
  }
  return v[idx];
}

void GarblerSession::reset(const netlist::BitVec& alice_bits, const netlist::BitVec& pub_bits) {
  const bool skipgate = mode_ == Mode::SkipGate;

  // Conventional GC treats even constants as secret wires whose (known)
  // value selects the transferred label.
  if (!skipgate) {
    bind_secret(Owner::Public, false, const_la_[0]);
    bind_secret(Owner::Public, true, const_la_[1]);
  }

  fixed_la_.assign(nl_.inputs.size(), Block{});
  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    if (in.streamed) continue;
    if (in.owner == Owner::Public && skipgate) continue;  // public wire, no label
    const bool v = known_bit(in.owner, in.bit_index, alice_bits, pub_bits, "fixed input");
    bind_secret(in.owner, v, fixed_la_[i]);
  }

  dff_la_.assign(nl_.dffs.size(), Block{});
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    switch (d.init) {
      case Dff::Init::Zero:
      case Dff::Init::One:
        if (!skipgate) bind_secret(Owner::Public, d.init == Dff::Init::One, dff_la_[i]);
        break;
      case Dff::Init::AliceBit: {
        const bool v =
            known_bit(Owner::Alice, d.init_index, alice_bits, pub_bits, "Alice dff init");
        bind_secret(Owner::Alice, v, dff_la_[i]);
        break;
      }
      case Dff::Init::BobBit:
        bind_secret(Owner::Bob, false, dff_la_[i]);
        break;
    }
  }
  ot_->flush();  // one batch for every Bob-owned fixed bit and dff init
  // Flip-flop outputs start from their initial labels; from here on latch()
  // installs the ones that change.
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) la_[nl_.dff_wire(i)] = dff_la_[i];
}

void GarblerSession::begin_cycle(const netlist::BitVec& alice_stream,
                                 const netlist::BitVec& pub_stream, std::uint64_t window) {
  la_[netlist::kConst0] = const_la_[0];
  la_[netlist::kConst1] = const_la_[1];

  if (window > 0) {
    // Draw the whole window in the order per-cycle draws would take.
    std::size_t per_cycle = 0;
    for (const netlist::Input& in : nl_.inputs) per_cycle += binds_streamed(in) ? 1 : 0;
    win_la_.resize(static_cast<std::size_t>(window) * per_cycle);
    std::size_t k = 0;
    for (std::uint64_t c = 0; c < window; ++c) {
      for (const netlist::Input& in : nl_.inputs) {
        if (binds_streamed(in)) bind_secret(in.owner, false, win_la_[k++], BindStep::Draw);
      }
    }
    win_pos_ = 0;
  }

  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    const WireId w = nl_.input_wire(i);
    if (!in.streamed) {
      la_[w] = fixed_la_[i];
      continue;
    }
    if (!binds_streamed(in)) continue;
    la_[w] = win_la_[win_pos_++];
    const bool v = known_bit(in.owner, in.bit_index, alice_stream, pub_stream, "streamed input");
    bind_secret(in.owner, v, la_[w], BindStep::Transfer);
  }
  if (window > 0) ot_->flush();  // the window's streamed Bob bits, as one batch
}

void GarblerSession::garble_cycle(const CyclePlan& plan) {
  const Block r = garbler_.R();
  const bool conventional = mode_ == Mode::Conventional;
  live_gates_ += live_gate_count(plan, conventional);

  // Slice si garbles against the tweak range starting at
  // tweak0 + 2*emit_base[si] (the plan's per-slice emitted-table prefix)
  // and its tables go onto the transport as one frame right after its walk.
  const std::uint64_t* emit_base = plan.emit_base;
  const std::uint64_t tweak0 = garbler_.tweak_cursor();
  for (std::size_t si = 0; si < plan.num_slices; ++si) {
    const PlanSlice& sl = plan.slices[si];
    // An empty work list emits no table, so the slice has no frame either.
    if (!conventional && sl.work_count == 0) continue;
    A2G_SPAN("garble.slice", "slice");
    const std::size_t blocks =
        static_cast<std::size_t>(emit_base[si + 1] - emit_base[si]) * kRowsPerGate;
    if (stage_.rows.size() < blocks) stage_.rows.resize(blocks);
    const std::uint64_t tweak = tweak0 + 2 * emit_base[si];
    const auto apply = [&](std::uint32_t j, WireId w, const Gate& g) {
      switch (sl.action(j)) {
        case PlanAct::Public:
        case PlanAct::Garble:  // dead garbled gate: never built nor sent
          break;
        case PlanAct::PassA:
        case PlanAct::PassB:
        case PlanAct::PassSrc:
          // g.a is the label source (core/slice_loop.h): the per-hop
          // parities of a collapsed chain telescope to flip(w) ^ flip(src).
          la_[w] = la_[g.a] ^ maybe(r, plan.wire_flip(w) != plan.wire_flip(g.a));
          break;
        case PlanAct::PassC0:
          la_[w] = la_[netlist::kConst0];
          break;
        case PlanAct::PassC1:
          la_[w] = la_[netlist::kConst1];
          break;
        case PlanAct::FreeXor:
          la_[w] = la_[g.a] ^ la_[g.b] ^
                   maybe(r, (plan.wire_flip(w) != plan.wire_flip(g.a)) != plan.wire_flip(g.b));
          break;
      }
    };
    const auto flush = [&](const crypto::HalfGateJob* jobs, std::size_t n, std::uint64_t k0) {
      garbler_.garble_half_gates(la_.data(), jobs, n, tweak + 2 * k0,
                                 stage_.rows.data() + k0 * kRowsPerGate);
    };
    walk_slice(nl_, sl, conventional, stage_, apply, flush);
    if (blocks == 0) continue;
    const Block* rows = stage_.rows.data();
    tx_->send(rows, blocks, gc::Traffic::GarbledTable);
    for (std::size_t t = 0; t < blocks; ++t) table_digest_ = table_digest_.gf_double() ^ rows[t];
  }
  garbler_.advance(emit_base[plan.num_slices]);
}

netlist::BitVec GarblerSession::decode_outputs(const CyclePlan& plan) {
  hold_outputs(plan);
  return decode_held();
}

void GarblerSession::hold_outputs(const CyclePlan& plan) {
  if (holding_) throw std::logic_error("skipgate: a held output decode was never drained");
  held_.resize(nl_.outputs.size());
  held_labels_ = 0;
  for (std::size_t k = 0; k < nl_.outputs.size(); ++k) {
    const WireId w = nl_.outputs[k].wire;
    HeldOutput& h = held_[k];
    h.is_public = plan.wire_public(w);
    h.value = h.is_public && plan.wire_value(w);
    h.false_label = h.is_public ? Block{} : la_[w];
    held_labels_ += h.is_public ? 0 : 1;
  }
  holding_ = true;
}

netlist::BitVec GarblerSession::decode_held() {
  if (!holding_) throw std::logic_error("skipgate: no held output decode");
  netlist::BitVec out;
  out.reserve(nl_.outputs.size());
  const Block r = garbler_.R();
  for (std::size_t k = 0; k < nl_.outputs.size(); ++k) {
    const HeldOutput& h = held_[k];
    bool bit = h.value;
    if (!h.is_public) {
      // Bob sends his output label; Alice decodes it against her pair.
      const Block xb = tx_->recv();
      if (xb == h.false_label) {
        bit = false;
      } else if (xb == (h.false_label ^ r)) {
        bit = true;
      } else {
        throw std::runtime_error("skipgate: output label does not decode");
      }
    }
    out.push_back(bit != nl_.outputs[k].invert);
  }
  holding_ = false;
  held_labels_ = 0;
  return out;
}

void GarblerSession::latch(const CyclePlan& plan) {
  // Only the plan's secret_dffs change label; every other flip-flop keeps
  // its label or turns public. Two passes: a D-input may be another
  // flip-flop's output, so all next labels are read before any is installed.
  const Block r = garbler_.R();
  const std::uint32_t* dffs = plan.secret_dffs;
  for (std::size_t k = 0; k < plan.num_secret_dffs; ++k) {
    const Dff& d = nl_.dffs[dffs[k]];
    dff_la_[dffs[k]] = la_[d.d] ^ maybe(r, d.d_invert);
  }
  for (std::size_t k = 0; k < plan.num_secret_dffs; ++k) {
    la_[nl_.dff_wire(dffs[k])] = dff_la_[dffs[k]];
  }
}

}  // namespace arm2gc::core
