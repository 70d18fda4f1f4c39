#include "gc/garble.h"

#include <stdexcept>

namespace arm2gc::gc {

namespace {
constexpr Block kZero{};

Block maybe(Block b, bool take) { return take ? b : kZero; }
}  // namespace

Garbler::Garbler(Block seed, Scheme scheme) : rng_(seed), scheme_(scheme) {
  r_ = rng_.next_block();
  r_.lo |= 1u;  // point-and-permute: lsb(R) = 1 so the two labels differ in lsb
}

Block Garbler::fresh_label() { return rng_.next_block(); }

Block Garbler::garble(Block a0, Block b0, netlist::AndCore core, GarbledTable& table) {
  const std::uint64_t j0 = tweak_;
  tweak_ += 2;
  ++gate_counter_;
  const Block fresh = scheme_ == Scheme::Classic4 ? fresh_label() : kZero;
  return garble_at(a0, b0, core, j0, fresh, table);
}

Block Garbler::garble_at(Block a0, Block b0, netlist::AndCore core, std::uint64_t tweak,
                         Block classic_fresh, GarbledTable& table) const {
  table.count = static_cast<std::uint8_t>(blocks_per_gate(scheme_));
  return garble_rows(a0, b0, polarity_bits(core), tweak, classic_fresh, table.rows.data());
}

Block Garbler::garble_rows(Block a0, Block b0, std::uint32_t polarity, std::uint64_t tweak,
                           Block classic_fresh, Block* rows) const {
  if (scheme_ == Scheme::HalfGates) {
    // The fused kernel at width 1 over a local three-label array.
    Block labels[3] = {a0, b0, Block{}};
    const crypto::HalfGateJob job{0, 1, 2, polarity};
    hash_.garble_half_gates(r_, labels, &job, 1, tweak, rows);
    return labels[2];
  }
  // Fold the gate's polarity into the labels: garble a plain AND over the
  // polarity-adjusted false labels, flip the output for gamma.
  const Block ea0 = a0 ^ maybe(r_, (polarity & 1u) != 0);
  const Block eb0 = b0 ^ maybe(r_, (polarity & 2u) != 0);
  Block out0;
  switch (scheme_) {
    case Scheme::Grr3: out0 = classic(ea0, eb0, tweak, kZero, rows, /*grr3=*/true); break;
    case Scheme::Classic4:
      out0 = classic(ea0, eb0, tweak, classic_fresh, rows, /*grr3=*/false);
      break;
    default: throw std::logic_error("garbler: unknown scheme");
  }
  return out0 ^ maybe(r_, (polarity & 4u) != 0);
}

Block Garbler::classic(Block a0, Block b0, std::uint64_t j0, Block w0_fresh, Block* rows,
                       bool grr3) const {
  const bool pa = a0.lsb();
  const bool pb = b0.lsb();
  const std::uint64_t j1 = j0 + 1;

  const Block in[4] = {a0, a0 ^ r_, b0, b0 ^ r_};
  const std::uint64_t tw[4] = {j0, j0, j1, j1};
  Block h[4];
  hash_.hash4(in, tw, h);
  const Block ha[2] = {h[0], h[1]};
  const Block hb[2] = {h[2], h[3]};

  Block w0;
  if (grr3) {
    // Row (sa,sb)=(0,0) is defined to decrypt to all-zero: the output label
    // for value (pa & pb) equals H(a_pa) ^ H(b_pb).
    const Block pad00 = ha[pa ? 1 : 0] ^ hb[pb ? 1 : 0];
    const bool v00 = pa && pb;
    w0 = pad00 ^ maybe(r_, v00);
  } else {
    w0 = w0_fresh;
  }

  for (int va = 0; va < 2; ++va) {
    for (int vb = 0; vb < 2; ++vb) {
      const int sa = static_cast<int>(pa) ^ va;
      const int sb = static_cast<int>(pb) ^ vb;
      const int slot = (sa << 1) | sb;
      const bool out_val = (va != 0) && (vb != 0);
      const Block ct = ha[va] ^ hb[vb] ^ w0 ^ maybe(r_, out_val);
      if (grr3) {
        if (slot == 0) continue;  // implicit all-zero row
        rows[slot - 1] = ct;
      } else {
        rows[slot] = ct;
      }
    }
  }
  return w0;
}

Block Evaluator::eval(Block a, Block b, const GarbledTable& table) {
  const std::uint64_t j0 = tweak_;
  tweak_ += 2;
  ++gate_counter_;
  return eval_at(a, b, table, j0);
}

Block Evaluator::eval_at(Block a, Block b, const GarbledTable& table, std::uint64_t tweak) const {
  return eval_rows(a, b, table.rows.data(), tweak);
}

Block Evaluator::eval_rows(Block a, Block b, const Block* rows, std::uint64_t tweak) const {
  switch (scheme_) {
    case Scheme::HalfGates: {
      Block labels[3] = {a, b, Block{}};
      const crypto::HalfGateJob job{0, 1, 2, 0};
      hash_.eval_half_gates(labels, &job, 1, tweak, rows);
      return labels[2];
    }
    case Scheme::Grr3: return eval_classic(a, b, tweak, rows, /*grr3=*/true);
    case Scheme::Classic4: return eval_classic(a, b, tweak, rows, /*grr3=*/false);
    default: throw std::logic_error("evaluator: unknown scheme");
  }
}

Block Evaluator::eval_classic(Block a, Block b, std::uint64_t j0, const Block* rows,
                              bool grr3) const {
  const std::uint64_t j1 = j0 + 1;
  const int slot = (static_cast<int>(a.lsb()) << 1) | static_cast<int>(b.lsb());
  const Block in[2] = {a, b};
  const std::uint64_t tw[2] = {j0, j1};
  Block h[2];
  hash_.hash2(in, tw, h);
  const Block pad = h[0] ^ h[1];
  if (grr3) {
    if (slot == 0) return pad;
    return pad ^ rows[slot - 1];
  }
  return pad ^ rows[slot];
}

}  // namespace arm2gc::gc
