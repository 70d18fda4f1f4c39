#include "core/plan.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>
#include <string>

namespace arm2gc::core {

namespace {

using crypto::Block;
using netlist::Dff;
using netlist::Gate;
using netlist::Netlist;
using netlist::Owner;
using netlist::WireId;

constexpr WireId kNoWire = 0xffffffffu;

WireState pub_state(bool v) {
  WireState s;
  s.is_pub = true;
  s.val = v;
  return s;
}

std::uint8_t pack_bits(const WireState& s) {
  return static_cast<std::uint8_t>((s.is_pub ? 1u : 0u) | (s.val ? 2u : 0u) |
                                   (s.flip ? 4u : 0u));
}

/// One root's contribution to the entry signature's hash: a splitmix64
/// finalizer over (position, term), a bijection, so the position-mixed sum
/// over roots changes in O(1) when one root's term does.
std::uint64_t sig_mix(WireId pos, std::uint32_t term) {
  std::uint64_t x = static_cast<std::uint64_t>(pos) << 32 | term;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

constexpr std::uint32_t pub_term(const WireState& s) { return 1u | (s.val ? 2u : 0u); }
constexpr std::uint32_t secret_term(WireId rep, bool flip) { return rep << 2 | (flip ? 2u : 0u); }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::uint64_t fnv1a64_step(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  h *= 1099511628211ull;
  return h;
}

/// Content hash of everything a cached plan depends on besides the entry
/// state: the mode and the netlist structure (names excluded — they cannot
/// affect classification).
std::uint64_t netlist_content_key(const Netlist& nl, Mode mode) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a64_step(h, static_cast<std::uint64_t>(mode));
  h = fnv1a64_step(h, nl.outputs_every_cycle ? 1 : 0);
  for (const netlist::Input& in : nl.inputs) {
    h = fnv1a64_step(h, static_cast<std::uint64_t>(in.owner) | (in.streamed ? 4u : 0u) |
                            (static_cast<std::uint64_t>(in.bit_index) << 3));
  }
  for (const Dff& d : nl.dffs) {
    h = fnv1a64_step(h, static_cast<std::uint64_t>(d.init) | (d.d_invert ? 4u : 0u) |
                            (static_cast<std::uint64_t>(d.init_index) << 3) |
                            (static_cast<std::uint64_t>(d.d) << 32));
  }
  // Gates dominate and the key is recomputed by every planner: four
  // interleaved lanes keep the multiply chains independent.
  std::array<std::uint64_t, 4> lane = {h, h ^ 1, h ^ 2, h ^ 3};
  for (std::size_t i = 0; i < nl.gates.size(); ++i) {
    const Gate& g = nl.gates[i];
    std::uint64_t& l = lane[i & 3];
    l = fnv1a64_step(l, static_cast<std::uint64_t>(g.a) | (static_cast<std::uint64_t>(g.b) << 32));
    l = fnv1a64_step(l, static_cast<std::uint64_t>(g.tt));
  }
  for (const std::uint64_t l : lane) h = fnv1a64_step(h, l);
  for (const netlist::OutputPort& o : nl.outputs) {
    h = fnv1a64_step(h, static_cast<std::uint64_t>(o.wire) | (o.invert ? 1ull << 32 : 0));
  }
  return h;
}

/// Folds a unary residual function of a surviving secret input into a plan
/// action (constant output, wire, or inverter — paper Figures 1 and 2).
void classify_unary(netlist::UnaryTable u, const WireState& in, bool pass_is_a, PlanAct& act,
                    WireState& out) {
  if (netlist::unary_is_const(u)) {
    act = PlanAct::Public;
    out = pub_state(u == netlist::kUnOne);
    return;
  }
  act = pass_is_a ? PlanAct::PassA : PlanAct::PassB;
  out = in;
  if (u == netlist::kUnNot) out.flip = !out.flip;
}

/// The decision table for a gate whose inputs are both secret (every gate in
/// Conventional mode) — the only gates whose action can depend on a
/// fingerprint comparison. `equal` is fp(a) == fp(b) (category iii; never
/// set in Conventional mode). XOR/XNOR of distinct fingerprints yields
/// FreeXor; the caller's cancellation peephole may refine it to PassSrc.
/// Classification and the hit-program compiler both decide through this one
/// function.
PlanAct pair_action(netlist::TruthTable tt, bool flips_differ, bool equal, bool skipgate) {
  if (equal) {
    return netlist::unary_is_const(netlist::tt_restrict_diag(tt, flips_differ)) ? PlanAct::Public
                                                                                 : PlanAct::PassA;
  }
  if (!netlist::tt_is_affine(tt)) return PlanAct::Garble;  // category iv
  if (tt == netlist::kTtZero || tt == netlist::kTtOne) {
    if (skipgate) return PlanAct::Public;
    return tt == netlist::kTtOne ? PlanAct::PassC1 : PlanAct::PassC0;
  }
  if (netlist::tt_ignores_a(tt)) return PlanAct::PassB;  // non-const unary of b
  if (netlist::tt_ignores_b(tt)) return PlanAct::PassA;  // non-const unary of a
  return PlanAct::FreeXor;
}

/// The collapsed source of wire w, read from the dense per-gate sources
/// `srcs`: a root is its own; a gate output's entry is its producer's. A pass
/// gate's output fingerprint and label are exactly its chain source's, so
/// nothing downstream reads the hops in between.
WireId source_in(const WireId* srcs, WireId first_gate, WireId w) {
  return w < first_gate ? w : srcs[w - first_gate];
}

/// The collapsed source gate i (output wire w) records for action `act`:
/// a pass gate's chain source — through its operand, or through the
/// XOR-cancellation candidate `pass_src` a PassSrc copies — and its own
/// output wire otherwise. Operands precede their gate, so their sources in
/// `srcs` are final.
WireId collapse(const Gate& g, WireId w, PlanAct act, WireId pass_src, const WireId* srcs,
                WireId first_gate) {
  switch (act) {
    case PlanAct::PassA: return source_in(srcs, first_gate, g.a);
    case PlanAct::PassB: return source_in(srcs, first_gate, g.b);
    case PlanAct::PassSrc: return source_in(srcs, first_gate, pass_src);
    case PlanAct::PassC0: return netlist::kConst0;
    case PlanAct::PassC1: return netlist::kConst1;
    default: return w;
  }
}

/// XOR-cancellation candidates of a free XOR of wires (wa, wb): for each
/// side whose collapsed source is a FreeXor gate, that gate's secret
/// operands, in order. The XOR carries exactly a candidate's label iff the
/// candidate's fingerprint equals the result's; the first such candidate
/// wins. `acts` and `srcs` are the dense per-gate actions and sources;
/// `is_pub` reads the entry's wire bits.
template <typename IsPubFn>
std::size_t cancel_candidates(const Netlist& nl, const std::uint8_t* acts, const WireId* srcs,
                              IsPubFn&& is_pub, WireId wa, WireId wb,
                              std::array<WireId, 4>& out) {
  const WireId first_gate = nl.first_gate_wire();
  std::size_t n = 0;
  for (const WireId side : {wa, wb}) {
    const WireId r = source_in(srcs, first_gate, side);
    if (r < first_gate) continue;
    const std::size_t gi = r - first_gate;
    if (static_cast<PlanAct>(acts[gi]) != PlanAct::FreeXor) continue;
    const Gate& g2 = nl.gates[gi];
    if (!is_pub(g2.a)) out[n++] = g2.a;
    if (!is_pub(g2.b)) out[n++] = g2.b;
  }
  return n;
}

/// The XOR-cancellation peephole's decision: the first candidate carrying
/// `out_fp`, or kNoWire. Classification decides through it; the hit compiler
/// replays it from the same candidate list.
template <typename IsPubFn>
WireId find_cancellation(const Netlist& nl, const std::uint8_t* acts, const WireId* srcs,
                         const std::vector<WireState>& st, IsPubFn&& is_pub, WireId wa,
                         WireId wb, const Block& out_fp) {
  std::array<WireId, 4> cand{};
  const std::size_t n = cancel_candidates(nl, acts, srcs, is_pub, wa, wb, cand);
  for (std::size_t j = 0; j < n; ++j) {
    if (st[cand[j]].fp == out_fp) return cand[j];
  }
  return kNoWire;
}

// Hit program (PlanCache::Entry::program): symbolic verification. On a hit
// every fingerprint of the cycle is a fixed XOR of root fingerprints and of
// this cycle's derived fingerprints AES(gate, epoch) — the entry's actions
// fix which ones. So each wire has a *form*: an ascending list of terms, a
// term < first_gate naming a root's class representative (read from the
// entry's signature) and a term >= first_gate naming a garbled gate's
// output wire. Every comparison a hit must repeat (a cached FreeXor's
// operands differ, category iii/iv, each XOR-cancellation candidate) asks
// whether the XOR of two forms is zero, and the compiler fixes its outcome
// whenever it can:
//   - a derived term survives: nonzero. Derived plaintexts carry the top
//     bit and this cycle's fresh epoch, so under the one keyed permutation
//     they are independent of every root fingerprint, which came from the
//     counter stream or an earlier epoch (a collision is a 2^-128 event, as
//     for any fingerprint comparison).
//   - nothing survives: zero.
//   - one or two roots survive: nonzero. Root fingerprints are nonzero
//     (fresh AES outputs, or latched from a cycle whose every FreeXor
//     decision was checked), and two class representatives differ by the
//     definition of the signature's classes, which a hit matches exactly.
// Only a relation over three or more roots and no derived term is unknown:
// the XOR-linear structure the signature cannot see. Those are kept. A fixed
// outcome that contradicts the cached action makes the entry never verify.
// The stream, in part order (HitProgram::end):
//   relations  n | expect_zero << 31, then n root wires: the roots' XOR
//              must be zero (expect_zero) or nonzero
//   latch      per secret latch source (Entry::latch_src order): r, d, then
//              r root wires and d indices into the derive part — the
//              source's fingerprint is the XOR of all of them
//   derive     the distinct garbled gates the latch forms read, derived in
//              one pipelined AES pass
constexpr std::uint32_t kExpectZero = 1u << 31;

/// Appends the symmetric difference of the ascending term lists a[0, na)
/// and b[0, nb) to `out`, ascending: the form of the XOR of two forms.
void xor_forms(const std::uint32_t* a, std::size_t na, const std::uint32_t* b, std::size_t nb,
               std::vector<std::uint32_t>& out) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      out.push_back(a[i++]);
    } else if (b[j] < a[i]) {
      out.push_back(b[j++]);
    } else {
      ++i;
      ++j;
    }
  }
  out.insert(out.end(), a + i, a + na);
  out.insert(out.end(), b + j, b + nb);
}

enum class Outcome : std::uint8_t { Zero, Nonzero, Kept };

/// Whether the XOR of forms a[0, na) and b[0, nb) is zero (see the program
/// format above). Derived terms sort above every root, so the highest term
/// the forms do not share decides most comparisons without a merge; only a
/// roots-only remainder is merged, into `rel`, which holds a Kept relation.
Outcome decide(const std::uint32_t* a, std::size_t na, const std::uint32_t* b, std::size_t nb,
               WireId first_gate, std::vector<std::uint32_t>& rel) {
  while (na != 0 && nb != 0 && a[na - 1] == b[nb - 1]) {
    --na;
    --nb;
  }
  if (na == 0 && nb == 0) return Outcome::Zero;
  const std::uint32_t top = std::max(na != 0 ? a[na - 1] : 0u, nb != 0 ? b[nb - 1] : 0u);
  if (top >= first_gate) return Outcome::Nonzero;
  rel.clear();
  xor_forms(a, na, b, nb, rel);
  return rel.size() <= 2 ? Outcome::Nonzero : Outcome::Kept;
}

}  // namespace

// ---------------------------------------------------------------------------
// PlanLayout: one-time cone segmentation
// ---------------------------------------------------------------------------

PlanLayout PlanLayout::build(const Netlist& nl, std::size_t target_gates,
                             std::uint64_t netlist_key) {
  PlanLayout layout;
  const std::size_t ng = nl.gates.size();
  const WireId first_gate = nl.first_gate_wire();
  std::size_t target = target_gates;
  if (target == 0 || target > ng) target = std::max<std::size_t>(ng, 1);

  // Fanout frontier profile: cross[c] counts the wires produced before gate
  // c that are still consumed at or after it. Wires feeding flip-flop
  // D-inputs or output ports stay live to the end of the cycle.
  std::vector<std::uint32_t> last(ng, 0);
  std::vector<std::uint8_t> used(ng, 0);
  for (std::size_t j = 0; j < ng; ++j) {
    for (const WireId w : {nl.gates[j].a, nl.gates[j].b}) {
      if (w >= first_gate) {
        last[w - first_gate] = static_cast<std::uint32_t>(j);
        used[w - first_gate] = 1;
      }
    }
  }
  for (const Dff& d : nl.dffs) {
    if (d.d >= first_gate) {
      last[d.d - first_gate] = static_cast<std::uint32_t>(ng);
      used[d.d - first_gate] = 1;
    }
  }
  for (const netlist::OutputPort& o : nl.outputs) {
    if (o.wire >= first_gate) {
      last[o.wire - first_gate] = static_cast<std::uint32_t>(ng);
      used[o.wire - first_gate] = 1;
    }
  }
  std::vector<std::int64_t> diff(ng + 2, 0);
  for (std::size_t i = 0; i < ng; ++i) {
    if (used[i] != 0 && last[i] > i) {
      diff[i + 1] += 1;
      diff[last[i] + 1] -= 1;
    }
  }
  std::vector<std::uint64_t> cross(ng + 1, 0);
  std::int64_t acc = 0;
  for (std::size_t c = 0; c <= ng; ++c) {
    acc += diff[c];
    cross[c] = static_cast<std::uint64_t>(acc);
  }

  // Cut selection: near every multiple of the target size, pick the position
  // in a +/- target/4 window that the fewest wires cross (ties: earliest).
  // Deterministic, so both parties derive the identical layout.
  std::vector<std::size_t> ends;
  std::size_t pos = 0;
  while (ng - pos > target + target / 2) {
    const std::size_t ideal = pos + target;
    std::size_t lo = std::max(pos + std::max<std::size_t>(target / 2, 1), ideal - target / 4);
    std::size_t hi = std::min(ng - 1, ideal + target / 4);
    if (lo > hi) lo = hi;
    std::size_t best = lo;
    for (std::size_t c = lo + 1; c <= hi; ++c) {
      if (cross[c] < cross[best]) best = c;
    }
    ends.push_back(best);
    pos = best;
  }
  if (ng > 0) ends.push_back(ng);

  std::size_t seg_start = 0;
  for (const std::size_t end : ends) {
    layout.segments.push_back(PlanSegment{static_cast<std::uint32_t>(seg_start),
                                          static_cast<std::uint32_t>(end - seg_start)});
    seg_start = end;
  }

  std::uint64_t h = fnv1a64_step(netlist_key, layout.segments.size());
  for (const PlanSegment& s : layout.segments) {
    h = fnv1a64_step(h, static_cast<std::uint64_t>(s.first_gate) |
                            (static_cast<std::uint64_t>(s.count) << 32));
  }
  layout.key = h;
  return layout;
}

// ---------------------------------------------------------------------------
// PlanCache: whole-netlist plans, LRU-bounded
// ---------------------------------------------------------------------------

PlanCache::PlanCache(std::size_t budget_bytes, bool insert_on_first_sight)
    : budget_bytes_(budget_bytes), insert_first_(insert_on_first_sight) {}
PlanCache::~PlanCache() = default;

void PlanCache::ensure_sized(const Netlist& nl, std::uint64_t netlist_key,
                             std::size_t target_gates) {
  if (capacity_ != 0) {
    if (netlist_key_ != netlist_key) {
      throw std::invalid_argument("plan cache reused across different netlists");
    }
    // Entries are indexed by segment: a target that cuts differently would
    // read their per-segment offsets out of range.
    if (target_gates != target_gates_ &&
        PlanLayout::build(nl, target_gates, netlist_key).key != layout_.key) {
      throw std::invalid_argument("plan cache reused across different cone layouts");
    }
    return;
  }
  // Validated once per binding: a later planner's netlist carries the same
  // content key, which covers every field validate() checks.
  nl.validate();
  netlist_key_ = netlist_key;
  target_gates_ = target_gates;
  layout_ = PlanLayout::build(nl, target_gates, netlist_key);
  non_free_ = nl.count_non_free();
  const std::size_t num_wires = nl.num_wires();
  const std::size_t num_gates = nl.gates.size();
  const std::size_t roots = nl.first_gate_wire();
  const std::size_t nseg = layout_.segments.size();
  // Per-entry footprint: signature + packed wire bits + touched-gate records
  // (9 B each: gate, action, source) charged at every gate — a Conventional
  // entry touches every gate, and its slices read the records directly —
  // plus two slice tables with their emitted-table prefixes and the
  // per-segment touch offsets. On SkipGate workloads the records charge also
  // covers the live work lists, the compiled hit program and the latch list
  // (Hamming-160: ~7.0k records, ~36 work items per variant and ~0.6k
  // program words, ~70 kB against 383 kB).
  const std::size_t entry_bytes =
      4 * roots + num_wires + 9 * num_gates +
      nseg * (2 * sizeof(PlanSlice) + 2 * sizeof(std::uint64_t) + sizeof(std::uint32_t)) + 256;
  capacity_ = std::clamp<std::size_t>(budget_bytes_ / std::max<std::size_t>(entry_bytes, 1), 4,
                                      65536);
  if (!insert_first_) {
    seen_max_ = next_pow2(8 * capacity_);
    seen_.resize(std::min<std::size_t>(seen_max_, 64));
  }
}

/// Whether a missed signature should be materialized as a cache entry now.
/// First-sight caches always admit; second-sighting caches admit once the
/// hash has been seen before (hash collisions merely admit early — lookups
/// always compare full signatures).
bool PlanCache::admit(std::uint64_t hash) {
  if (insert_first_) return true;
  const std::uint64_t key = hash != 0 ? hash : 1;
  const auto slot = [&](std::uint64_t k) {
    const std::size_t mask = seen_.size() - 1;
    std::size_t i = static_cast<std::size_t>(k) & mask;
    while (seen_[i] != 0 && seen_[i] != k) i = (i + 1) & mask;
    return i;
  };
  if (seen_[slot(key)] == key) return true;
  // Mark the first sighting. Tracking (and admitting) stops once
  // seen_max_ / 2 hashes are held, so probe chains stay short and memory
  // stays bounded; below that the table doubles whenever it would pass half
  // full, so a run over few states allocates little.
  if (seen_count_ >= seen_max_ / 2) return false;
  if (2 * (seen_count_ + 1) > seen_.size()) {
    std::vector<std::uint64_t> old(seen_.size() * 2, 0);
    old.swap(seen_);
    for (const std::uint64_t k : old) {
      if (k != 0) seen_[slot(k)] = k;
    }
  }
  seen_[slot(key)] = key;
  ++seen_count_;
  return false;
}

PlanCache::Entry* PlanCache::find(std::uint64_t hash, const std::vector<std::uint32_t>& sig) {
  const auto it = map_.find(hash);
  if (it == map_.end()) return nullptr;
  for (const LruList::iterator li : it->second) {
    if (li->sig == sig) {
      lru_.splice(lru_.begin(), lru_, li);
      return &*li;
    }
  }
  return nullptr;
}

PlanCache::Entry* PlanCache::insert(std::uint64_t hash, const std::vector<std::uint32_t>& sig) {
  if (!admit(hash)) return nullptr;
  if (lru_.size() >= capacity_) {
    const Entry& victim = lru_.back();
    const auto vit = map_.find(victim.hash);
    for (auto i = vit->second.begin(); i != vit->second.end(); ++i) {
      if (&**i == &victim) {
        vit->second.erase(i);
        break;
      }
    }
    if (vit->second.empty()) map_.erase(vit);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.emplace_front();
  Entry& e = lru_.front();
  e.hash = hash;
  e.sig = sig;
  e.self = lru_.begin();
  map_[hash].push_back(lru_.begin());
  return &e;
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

Planner::Planner(const Netlist& nl, const PlannerOptions& opts)
    : nl_(nl),
      opts_(opts),
      fp_gen_(opts.seed ^ Block{0xf1f2f3f4f5f6f7f8ULL, 0x0102030405060708ULL}) {
  const std::uint64_t netlist_key = netlist_content_key(nl_, opts_.mode);
  if (opts_.cache) {
    if (opts_.shared_cache != nullptr) {
      cache_ = opts_.shared_cache;
    } else {
      // Transient per-run cache: second-sighting admission, so cycles whose
      // state never recurs cost a signature probe, not an entry copy.
      owned_cache_ = std::make_unique<PlanCache>(opts_.cache_budget_bytes,
                                                 /*insert_on_first_sight=*/false);
      cache_ = owned_cache_.get();
    }
    // The cache builds the layout on first use; a warm cache lends it.
    cache_->ensure_sized(nl_, netlist_key, opts_.cone_target_gates);
    layout_ = &cache_->layout_;
    non_free_per_cycle_ = cache_->non_free_;
  } else {
    nl_.validate();
    owned_layout_ = std::make_unique<PlanLayout>(
        PlanLayout::build(nl_, opts_.cone_target_gates, netlist_key));
    layout_ = owned_layout_.get();
    non_free_per_cycle_ = nl_.count_non_free();
  }
  const std::size_t roots = nl_.first_gate_wire();
  st_.resize(nl_.num_wires());
  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    if (nl_.inputs[i].streamed) streamed_.push_back(static_cast<std::uint32_t>(i));
  }
  terms_.assign(roots, 0);
  rep_table_.resize(std::max<std::size_t>(16, next_pow2(2 * roots + 1)));
  rep_next_.assign(roots, kNoWire);
}

Block Planner::fresh_fp() {
  if (fp_pos_ == kFpBatch) {
    for (std::size_t i = 0; i < kFpBatch; ++i) {
      fp_buf_[i] = crypto::block_from_u64(fp_ctr_++);
    }
    fp_gen_.encrypt_batch(fp_buf_.data(), kFpBatch);
    fp_pos_ = 0;
  }
  return fp_buf_[fp_pos_++];
}

Block Planner::derived_plaintext(std::size_t gate) const {
  // Top plaintext bit set: disjoint from the root stream's {counter, 0}
  // plaintexts, so derived and root fingerprints never collide and are
  // jointly pseudorandom under the one keyed permutation.
  return Block{static_cast<std::uint64_t>(gate), (1ull << 63) | fp_epoch_};
}

Block Planner::derived_fp(std::size_t gate) const {
  return fp_gen_.encrypt(derived_plaintext(gate));
}

void Planner::bind_secret_fp(WireState& s) {
  s.is_pub = false;
  s.val = false;
  s.flip = false;
  s.fp = fresh_fp();
}

void Planner::reset(const netlist::BitVec& pub_bits) {
  const auto pub_bit = [&](std::uint32_t idx, const char* what) {
    if (idx >= pub_bits.size()) {
      throw std::out_of_range(std::string("skipgate: missing ") + what + " bit " +
                              std::to_string(idx));
    }
    return pub_bits[idx];
  };

  // Constants. Conventional GC treats even constants as secret wires; the
  // planner tracks them with fingerprints like any other secret.
  if (opts_.mode == Mode::SkipGate) {
    st_[netlist::kConst0] = pub_state(false);
    st_[netlist::kConst1] = pub_state(true);
  } else {
    bind_secret_fp(st_[netlist::kConst0]);
    bind_secret_fp(st_[netlist::kConst1]);
  }

  // Fixed primary inputs: public ones carry their value (SkipGate mode);
  // secret ones carry a fresh fingerprint. Values of secret inputs never
  // reach the planner — it consumes public data only. Constants and fixed
  // inputs keep these states for the whole run.
  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    if (in.streamed) continue;
    WireState& s = st_[nl_.input_wire(i)];
    if (in.owner == Owner::Public && opts_.mode == Mode::SkipGate) {
      s = pub_state(pub_bit(in.bit_index, "fixed input"));
    } else {
      bind_secret_fp(s);
    }
  }

  // Flip-flop initial values, installed on the flip-flop output wires here;
  // from then on latch() installs the ones whose state changes.
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    const bool const_init = d.init == Dff::Init::Zero || d.init == Dff::Init::One;
    WireState& s = st_[nl_.dff_wire(i)];
    if (const_init && opts_.mode == Mode::SkipGate) {
      s = pub_state(d.init == Dff::Init::One);
    } else {
      bind_secret_fp(s);
    }
  }

  // Streamed inputs still hold the previous run's states; the rebuilt
  // signature covers them as they are, and begin_cycle() rewrites them
  // incrementally like any other root.
  rebuild_terms();
  dirty_.clear();
  cur_ = nullptr;
  prev_ = nullptr;
}

void Planner::begin_cycle(const netlist::BitVec& pub_stream) {
  for (const std::uint32_t i : streamed_) {
    const netlist::Input& in = nl_.inputs[i];
    WireState s;
    if (in.owner == Owner::Public && opts_.mode == Mode::SkipGate) {
      if (in.bit_index >= pub_stream.size()) {
        throw std::out_of_range("skipgate: missing streamed input bit " +
                                std::to_string(in.bit_index));
      }
      s = pub_state(pub_stream[in.bit_index]);
    } else {
      bind_secret_fp(s);
    }
    set_root(nl_.input_wire(i), s);
  }
}

// ---------------------------------------------------------------------------
// Kept entry signature. Invariant (after reset()): terms_, terms_hash_ and
// the fingerprint classes describe st_[0 .. first_gate), so every root write
// goes through set_root().
// ---------------------------------------------------------------------------

void Planner::set_term(WireId w, std::uint32_t term) {
  terms_hash_ += sig_mix(w, term) - sig_mix(w, terms_[w]);
  terms_[w] = term;
  dirty_.push_back(w);
}

std::size_t Planner::rep_slot(const Block& fp) const {
  const std::size_t mask = rep_table_.size() - 1;
  std::size_t i = std::hash<Block>{}(fp)&mask;
  while (rep_table_[i].epoch == rep_epoch_ && !(rep_table_[i].fp == fp)) i = (i + 1) & mask;
  return i;
}

void Planner::rep_erase(std::size_t slot) {
  // Backward-shift deletion: pull later probe-chain members into the hole
  // unless their home slot lies cyclically in (hole, j].
  const std::size_t mask = rep_table_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t j = (hole + 1) & mask; rep_table_[j].epoch == rep_epoch_; j = (j + 1) & mask) {
    const std::size_t home = std::hash<Block>{}(rep_table_[j].fp) & mask;
    const bool stays = hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
    if (stays) continue;
    rep_table_[hole] = rep_table_[j];
    hole = j;
  }
  rep_table_[hole].epoch = 0;
}

void Planner::rep_remove(WireId w, const Block& fp) {
  const std::size_t i = rep_slot(fp);
  RepSlot& slot = rep_table_[i];
  if (slot.head != w) {
    WireId p = slot.head;
    while (rep_next_[p] != w) p = rep_next_[p];
    rep_next_[p] = rep_next_[w];
    return;
  }
  const WireId head = rep_next_[w];
  if (head == kNoWire) {
    rep_erase(i);
    return;
  }
  // The representative left: the next member represents the class now.
  slot.head = head;
  for (WireId m = head; m != kNoWire; m = rep_next_[m]) {
    set_term(m, secret_term(head, st_[m].flip));
  }
}

void Planner::rep_insert(WireId w, const WireState& s) {
  RepSlot& slot = rep_table_[rep_slot(s.fp)];
  if (slot.epoch != rep_epoch_) {
    slot = RepSlot{s.fp, w, rep_epoch_};
    rep_next_[w] = kNoWire;
    set_term(w, secret_term(w, s.flip));
    return;
  }
  if (w < slot.head) {
    // A new representative: every member's term names it.
    rep_next_[w] = slot.head;
    for (WireId m = slot.head; m != kNoWire; m = rep_next_[m]) {
      set_term(m, secret_term(w, st_[m].flip));
    }
    slot.head = w;
    set_term(w, secret_term(w, s.flip));
    return;
  }
  WireId p = slot.head;
  while (rep_next_[p] != kNoWire && rep_next_[p] < w) p = rep_next_[p];
  rep_next_[w] = rep_next_[p];
  rep_next_[p] = w;
  set_term(w, secret_term(slot.head, s.flip));
}

void Planner::set_root(WireId w, const WireState& s) {
  WireState& cur = st_[w];
  if (!cur.is_pub) rep_remove(w, cur.fp);
  if (s.is_pub) {
    set_term(w, pub_term(s));
  } else {
    rep_insert(w, s);
  }
  cur = s;
}

void Planner::rebuild_terms() {
  // Descending sweep: prepending keeps every class chain ascending and
  // leaves its lowest member at the head. Then each class's head names it in
  // its members' terms.
  const WireId roots = nl_.first_gate_wire();
  ++rep_epoch_;
  for (WireId w = roots; w-- > 0;) {
    const WireState& s = st_[w];
    if (s.is_pub) continue;
    RepSlot& slot = rep_table_[rep_slot(s.fp)];
    if (slot.epoch != rep_epoch_) {
      slot = RepSlot{s.fp, w, rep_epoch_};
      rep_next_[w] = kNoWire;
    } else {
      rep_next_[w] = slot.head;
      slot.head = w;
    }
  }
  terms_hash_ = 0;
  for (WireId w = 0; w < roots; ++w) {
    const WireState& s = st_[w];
    const std::uint32_t head = s.is_pub ? w : rep_table_[rep_slot(s.fp)].head;
    terms_[w] = s.is_pub ? pub_term(s) : secret_term(head, s.flip);
    terms_hash_ += sig_mix(w, terms_[w]);
  }
}

std::uint64_t Planner::signature_from_scratch(std::vector<std::uint32_t>& terms) const {
  const WireId roots = nl_.first_gate_wire();
  std::unordered_map<Block, WireId> lowest;
  std::uint64_t hash = 0;
  terms.assign(roots, 0);
  for (WireId w = 0; w < roots; ++w) {
    const WireState& s = st_[w];
    terms[w] = s.is_pub ? pub_term(s)
                        : secret_term(lowest.try_emplace(s.fp, w).first->second, s.flip);
    hash += sig_mix(w, terms[w]);
  }
  return hash;
}

void Planner::forward() {
  // Every cycle gets a fresh derived-fingerprint epoch no matter which path
  // serves it (hit, miss, fallback), so category-iv fingerprints are pure
  // functions of (epoch, gate) — identical across planner variants.
  ++fp_epoch_;
  hit_ = false;
  if (cache_ == nullptr) {
    dirty_.clear();
    ++cache_misses_;
    build_plan(scratch_);
    return;
  }
  // The previous entry and its successor link are trusted only while no
  // eviction has happened since they were recorded. The kept signature
  // equalled prev->sig at the last forward(), and every term written since
  // is on the dirty list; prev->sig and the successor's differ only on the
  // link's diff list. So the successor's signature equals the kept one iff
  // it does on those two lists — an exact test that reads no other term.
  const std::uint64_t stamp = cache_->evictions();
  Entry* const prev = prev_stamp_ == stamp ? prev_ : nullptr;
  prev_ = nullptr;
  const auto same_on = [&](const std::vector<std::uint32_t>& sig,
                           const std::vector<std::uint32_t>& positions) {
    for (const std::uint32_t w : positions) {
      if (terms_[w] != sig[w]) return false;
    }
    return true;
  };
  const bool linked = prev != nullptr && prev->next != nullptr && prev->next_stamp == stamp &&
                      prev->next->hash == terms_hash_ && same_on(prev->next->sig, dirty_) &&
                      same_on(prev->next->sig, prev->next_diff);
  dirty_.clear();
  Entry* e = nullptr;
  if (linked) {
    e = prev->next;
    cache_->touch(*e);
  } else {
    e = cache_->find(terms_hash_, terms_);
  }
  if (e != nullptr) {
    cur_bits_ = e->wire_bits.data();
    if (!verify_entry(*e)) {
      // Signature matched but the XOR-linear fingerprint structure drifted:
      // reclassify this cycle uncached. The entry keeps serving states that
      // do match it.
      ++cache_misses_;
      ++verify_rejects_;
      build_plan(scratch_);
      return;
    }
    ++cache_hits_;
    if (linked) ++link_hits_;
    hit_ = true;
    cur_ = e;
  } else {
    ++cache_misses_;
    e = cache_->insert(terms_hash_, terms_);
    build_plan(e != nullptr ? *e : scratch_);
    if (e == nullptr) return;
  }
  // An insert that evicted invalidates every link, the one it would write
  // included. A link that still holds keeps its diff list: no eviction since
  // it was written, so its successor is the same entry.
  if (prev != nullptr && cache_->evictions() == stamp &&
      (prev->next != e || prev->next_stamp != stamp)) {
    prev->next = e;
    prev->next_stamp = stamp;
    prev->next_diff.clear();
    for (std::uint32_t w = 0; w < prev->sig.size(); ++w) {
      if (prev->sig[w] != e->sig[w]) prev->next_diff.push_back(w);
    }
    prev->next_diff.shrink_to_fit();  // exact: entries are long-lived
  }
  prev_ = e;
  prev_stamp_ = cache_->evictions();
}

void Planner::size_dense() {
  // Sized on first use: a planner served only by compiled hits never needs it.
  const std::size_t ng = nl_.gates.size();
  if (act_.size() == ng) return;
  act_.resize(ng);
  src_.resize(ng);
}

void Planner::build_plan(Entry& e) {
  const std::size_t nseg = layout_->segments.size();
  e.wire_bits.resize(nl_.num_wires());
  e.touch_off.assign(nseg + 1, 0);
  e.program.code.clear();
  e.program.compiled = false;
  e.latch_ready = false;
  e.backward[0].filled = false;
  e.backward[1].filled = false;
  cur_ = &e;
  cur_bits_ = e.wire_bits.data();
  size_dense();
  touch_.clear();

  const WireId first_gate = nl_.first_gate_wire();
  for (WireId w = 0; w < first_gate; ++w) e.wire_bits[w] = pack_bits(st_[w]);

  for (std::size_t si = 0; si < nseg; ++si) {
    e.touch_off[si] = static_cast<std::uint32_t>(touch_.size());
    classify_segment(e, layout_->segments[si]);
  }
  e.touch_off[nseg] = static_cast<std::uint32_t>(touch_.size());
  store_records(e);
}

void Planner::store_records(Entry& e) {
  // A fresh cache entry's vectors are empty, so each is sized exactly.
  e.touch.assign(touch_.begin(), touch_.end());
  e.touch_act.resize(touch_.size());
  e.touch_src.resize(touch_.size());
  for (std::size_t t = 0; t < touch_.size(); ++t) {
    e.touch_act[t] = act_[touch_[t]];
    e.touch_src[t] = src_[touch_[t]];
  }
}

void Planner::classify_segment(Entry& e, const PlanSegment& seg) {
  const WireId first_gate = nl_.first_gate_wire();
  const bool skipgate = opts_.mode == Mode::SkipGate;
  const auto wire_pub = [&](WireId w) { return (e.wire_bits[w] & 1) != 0; };
  const auto state_of = [&](WireId w) {
    const std::uint8_t b = e.wire_bits[w];
    WireState s;
    s.is_pub = (b & 1) != 0;
    s.val = (b & 2) != 0;
    s.flip = (b & 4) != 0;
    s.fp = st_[w].fp;
    return s;
  };
  const std::size_t gend = seg.first_gate + seg.count;

  for (std::size_t i = seg.first_gate; i < gend; ++i) {
    const Gate g = nl_.gates[i];
    const WireState a = state_of(g.a);
    const WireState b = state_of(g.b);
    WireState out;
    PlanAct act;
    WireId src = 0;

    if (skipgate && a.is_pub && b.is_pub) {  // category i
      act = PlanAct::Public;
      out = pub_state(netlist::tt_eval(g.tt, a.val, b.val));
    } else if (skipgate && a.is_pub) {  // category ii
      classify_unary(netlist::tt_restrict_a(g.tt, a.val), b, /*pass_is_a=*/false, act, out);
    } else if (skipgate && b.is_pub) {  // category ii
      classify_unary(netlist::tt_restrict_b(g.tt, b.val), a, /*pass_is_a=*/true, act, out);
    } else {  // both inputs secret (every gate in Conventional mode)
      const bool fd = a.flip != b.flip;
      act = pair_action(g.tt, fd, skipgate && a.fp == b.fp, skipgate);
      switch (act) {
        case PlanAct::Public:
          // A constant category-iii collapse or a constant table: either
          // way the value is the diagonal restriction's constant.
          out = pub_state(netlist::tt_restrict_diag(g.tt, fd) == netlist::kUnOne);
          break;
        case PlanAct::PassA:
          // Category iii, or a table that ignores b: the diagonal
          // restriction is the unary function of a in both cases.
          out = a;
          if (netlist::tt_restrict_diag(g.tt, fd) == netlist::kUnNot) out.flip = !out.flip;
          break;
        case PlanAct::PassB:
          out = b;
          if (netlist::tt_restrict_a(g.tt, false) == netlist::kUnNot) out.flip = !out.flip;
          break;
        case PlanAct::PassC0:
        case PlanAct::PassC1:
          // Conventional mode: even a constant stays a secret-typed wire.
          out = state_of(act == PlanAct::PassC1 ? netlist::kConst1 : netlist::kConst0);
          break;
        case PlanAct::FreeXor: {  // XOR / XNOR of two live secrets
          out.is_pub = false;
          out.fp = a.fp ^ b.fp;
          out.flip = fd != (g.tt == netlist::kTtXnor);
          // XOR-cancellation peephole: the 1-AND multiplexer f ^ (s & (t^f))
          // with a public select degenerates to f ^ (t ^ f) == t. Detecting
          // that the result carries exactly an existing wire's label (the
          // paper's "the MUX acts as a wire") releases the unselected side's
          // label from the needed-cone, so its producing gates are skipped.
          if (skipgate) {
            const WireId cancel = find_cancellation(nl_, act_.data(), src_.data(), st_, wire_pub,
                                                    g.a, g.b, out.fp);
            if (cancel != kNoWire) {
              act = PlanAct::PassSrc;
              src = cancel;
            }
          }
          break;
        }
        default:  // PlanAct::Garble: category iv
          out.is_pub = false;
          out.fp = derived_fp(i);
          out.flip = false;
          break;
      }
    }
    const WireId w = first_gate + static_cast<WireId>(i);
    st_[w].fp = out.fp;
    act_[i] = static_cast<std::uint8_t>(act);
    src_[i] = collapse(g, w, act, src, src_.data(), first_gate);
    e.wire_bits[w] = pack_bits(out);
    // The touch list drives the hit compiler and the backward sweep: every
    // non-Public action plus every fingerprint-dependent Public collapse
    // (two secret inputs, category iii / constant-affine).
    if (act != PlanAct::Public || (!a.is_pub && !b.is_pub)) {
      touch_.push_back(static_cast<std::uint32_t>(i));
    }
  }
}

bool Planner::verify_entry(Entry& e) {
  PlanCache::HitProgram& h = e.program;
  if (!h.compiled) compile_entry(e);
  if (h.never) return false;
  // Each kept relation XORs its roots' live fingerprints. No early exit: a
  // failed relation only decides the result.
  const std::uint32_t* p = h.code.data();
  const std::uint32_t* const end = p + h.end[PlanCache::kRelations];
  bool bad = false;
  while (p != end) {
    const std::uint32_t n = *p & ~kExpectZero;
    const bool expect_zero = (*p & kExpectZero) != 0;
    Block x = st_[p[1]].fp;
    for (std::uint32_t j = 1; j < n; ++j) x ^= st_[p[1 + j]].fp;
    bad |= x.is_zero() != expect_zero;
    p += 1 + n;
    ++relation_checks_;
  }
  return !bad;
}

void Planner::compile_entry(Entry& e) {
  // The latch part needs the latch list, which is otherwise built with the
  // entry's first CyclePlan.
  if (!e.latch_ready) build_latch_list(e);
  const bool skipgate = opts_.mode == Mode::SkipGate;
  const WireId first_gate = nl_.first_gate_wire();
  // Operand lookups (sources, the actions of cancellation sides) go through
  // the dense scratch: expand the entry's records into it. Every wire read
  // below is secret, so its producer is one of the records.
  size_dense();
  for (std::size_t t = 0; t < e.touch.size(); ++t) {
    act_[e.touch[t]] = e.touch_act[t];
    src_[e.touch[t]] = e.touch_src[t];
  }
  const std::uint8_t* acts = act_.data();
  const WireId* srcs = src_.data();
  const auto wire_pub = [&](WireId w) { return (e.wire_bits[w] & 1) != 0; };
  const auto wire_flip = [&](WireId w) { return (e.wire_bits[w] & 4) != 0; };
  const auto source = [&](WireId w) { return source_in(srcs, first_gate, w); };

  // Every FreeXor output stores its form in the arena, in gate order; a
  // bitset over wire ids marks them, and a wire's rank in it indexes
  // form_off_. Every other fingerprint source has a one-term form: a root
  // its class representative, a garbled gate its own wire.
  const std::size_t words = (nl_.num_wires() + 63) / 64;
  form_bits_.assign(words, 0);
  for (std::size_t t = 0; t < e.touch.size(); ++t) {
    if (static_cast<PlanAct>(e.touch_act[t]) != PlanAct::FreeXor) continue;
    const WireId w = first_gate + e.touch[t];
    form_bits_[w >> 6] |= std::uint64_t{1} << (w & 63);
  }
  form_rank_.resize(words + 1);
  form_rank_[0] = 0;
  for (std::size_t k = 0; k < words; ++k) {
    form_rank_[k + 1] = form_rank_[k] + static_cast<std::uint32_t>(std::popcount(form_bits_[k]));
  }
  form_terms_.clear();
  form_off_.assign(1, 0);
  struct Form {
    const std::uint32_t* terms;
    std::size_t n;
  };
  // `leaf` holds a one-term form. Operands precede their gate, so every
  // stored form a gate reads is complete.
  const auto form = [&](WireId w, std::uint32_t& leaf) -> Form {
    const std::uint64_t bits = w >= first_gate ? form_bits_[w >> 6] : 0;
    if ((bits >> (w & 63) & 1) == 0) {
      leaf = w < first_gate ? e.sig[w] >> 2 : w;
      return {&leaf, 1};
    }
    const std::uint32_t r =
        form_rank_[w >> 6] +
        static_cast<std::uint32_t>(std::popcount(bits & ((std::uint64_t{1} << (w & 63)) - 1)));
    return {form_terms_.data() + form_off_[r], form_off_[r + 1] - form_off_[r]};
  };

  // Staged stream: the kept relations, then the latch part.
  std::vector<std::uint32_t>& code = stage_;
  code.clear();
  bool never = false;
  const auto expect = [&](Outcome got, bool zero) {
    if (got != Outcome::Kept) {
      never |= (got == Outcome::Zero) != zero;
      return;
    }
    code.push_back(static_cast<std::uint32_t>(rel_.size()) | (zero ? kExpectZero : 0u));
    code.insert(code.end(), rel_.begin(), rel_.end());
  };
  const auto decide_with = [&](const std::vector<std::uint32_t>& x, WireId w) {
    std::uint32_t leaf = 0;
    const Form f = form(source(w), leaf);
    return decide(x.data(), x.size(), f.terms, f.n, first_gate, rel_);
  };

  for (std::size_t t = 0; t < e.touch.size(); ++t) {
    const Gate g = nl_.gates[e.touch[t]];
    const PlanAct act = static_cast<PlanAct>(e.touch_act[t]);
    const bool decision = skipgate && !wire_pub(g.a) && !wire_pub(g.b);
    if (act != PlanAct::FreeXor && !decision) continue;  // Conventional: no decision
    // The cached action is one of the decision table's two outcomes; its
    // comparisons must still select it. The equal outcomes (Public, PassA)
    // carry no fresh fingerprint, so one that is also the unequal outcome
    // leaves nothing to check.
    const bool fd = wire_flip(g.a) != wire_flip(g.b);
    const PlanAct eq = pair_action(g.tt, fd, /*equal=*/true, skipgate);
    const PlanAct ne = pair_action(g.tt, fd, /*equal=*/false, skipgate);
    if (decision && act == eq && ne == eq) continue;
    std::uint32_t la = 0;
    std::uint32_t lb = 0;
    const Form fa = form(source(g.a), la);
    const Form fb = form(source(g.b), lb);
    // x_ = the form of fp(a) ^ fp(b).
    x_.clear();
    if (act == PlanAct::FreeXor || act == PlanAct::PassSrc) {
      xor_forms(fa.terms, fa.n, fb.terms, fb.n, x_);
    }
    if (!decision) {
      // Conventional mode makes no decision.
    } else if (act == eq) {
      expect(decide(fa.terms, fa.n, fb.terms, fb.n, first_gate, rel_), true);
    } else if (ne == PlanAct::FreeXor && (act == PlanAct::FreeXor || act == PlanAct::PassSrc)) {
      // The operands differ, and the XOR-cancellation peephole's choice
      // holds: no candidate carries a FreeXor's output; the first candidate
      // carrying a PassSrc's is the first whose source is the recorded one
      // (an earlier candidate with that source would carry the same
      // fingerprint and have been chosen instead).
      expect(decide(x_.data(), x_.size(), nullptr, 0, first_gate, rel_), false);
      std::array<WireId, 4> cand{};
      const std::size_t n = cancel_candidates(nl_, acts, srcs, wire_pub, g.a, g.b, cand);
      std::size_t k = n;
      if (act == PlanAct::PassSrc) {
        k = 0;
        while (k < n && source(cand[k]) != e.touch_src[t]) ++k;
        if (k < n) expect(decide_with(x_, cand[k]), true);
        never |= k == n;
      }
      for (std::size_t j = 0; j < k; ++j) expect(decide_with(x_, cand[j]), false);
    } else if (act == ne) {
      expect(decide(fa.terms, fa.n, fb.terms, fb.n, first_gate, rel_), false);
    } else {
      // An action matching neither outcome cannot come out of
      // classification.
      never = true;
    }
    // Last: the append may move the arena that fa and fb point into.
    if (act == PlanAct::FreeXor) {
      form_terms_.insert(form_terms_.end(), x_.begin(), x_.end());
      form_off_.push_back(static_cast<std::uint32_t>(form_terms_.size()));
    }
  }
  const auto rel_end = static_cast<std::uint32_t>(code.size());

  // Latch part: each secret latch source's form, its garbled gates listed
  // once in the derive part (ascending) and named by index.
  std::vector<std::uint32_t>& derived = x_;
  derived.clear();
  for (std::uint32_t k = 0; k < e.latch_secret; ++k) {
    std::uint32_t leaf = 0;
    const Form f = form(e.latch_src[k], leaf);
    for (std::size_t j = 0; j < f.n; ++j) {
      if (f.terms[j] >= first_gate) derived.push_back(f.terms[j]);
    }
  }
  std::sort(derived.begin(), derived.end());
  derived.erase(std::unique(derived.begin(), derived.end()), derived.end());
  for (std::uint32_t k = 0; k < e.latch_secret; ++k) {
    std::uint32_t leaf = 0;
    const Form f = form(e.latch_src[k], leaf);
    const auto roots = static_cast<std::uint32_t>(
        std::lower_bound(f.terms, f.terms + f.n, first_gate) - f.terms);
    code.insert(code.end(), {roots, static_cast<std::uint32_t>(f.n) - roots});
    code.insert(code.end(), f.terms, f.terms + roots);
    for (std::size_t j = roots; j < f.n; ++j) {
      code.push_back(static_cast<std::uint32_t>(
          std::lower_bound(derived.begin(), derived.end(), f.terms[j]) - derived.begin()));
    }
  }
  const auto latch_end = static_cast<std::uint32_t>(code.size());
  for (const std::uint32_t w : derived) code.push_back(w - first_gate);

  PlanCache::HitProgram& h = e.program;
  h.code.assign(code.begin(), code.end());
  h.code.shrink_to_fit();  // exact: entries are long-lived
  h.end = {rel_end, latch_end, static_cast<std::uint32_t>(code.size())};
  h.never = never;
  h.compiled = true;
}

bool Planner::wire_public(WireId w) const { return (cur_->wire_bits[w] & 1) != 0; }
bool Planner::wire_value(WireId w) const { return (cur_->wire_bits[w] & 2) != 0; }

CyclePlan Planner::finish(bool is_final) {
  PlanCache::Backward& b = cur_->backward[is_final ? 1 : 0];
  if (!cur_->latch_ready) build_latch_list(*cur_);
  if (!b.filled) backward_fill(*cur_, b, is_final);

  CyclePlan plan;
  plan.slices = b.slices.data();
  plan.num_slices = b.slices.size();
  plan.wire_bits = cur_->wire_bits.data();
  plan.num_gates = nl_.gates.size();
  plan.num_wires = nl_.num_wires();
  plan.emitted = b.emit_base.back();
  plan.emit_base = b.emit_base.data();
  plan.secret_dffs = cur_->latch_dffs.data();
  plan.num_secret_dffs = cur_->latch_secret;
  plan.records = {cur_->touch.data(), cur_->touch_act.data(), cur_->touch_src.data(),
                  cur_->touch.size()};
  plan.is_final = is_final;
  plan.sample = nl_.outputs_every_cycle || is_final;
  return plan;
}

void Planner::backward_fill(const Entry& e, PlanCache::Backward& b, bool is_final) {
  const std::size_t nseg = layout_->segments.size();
  const WireId first_gate = nl_.first_gate_wire();
  const auto garbles = [&](std::uint32_t t) {
    return static_cast<PlanAct>(e.touch_act[t]) == PlanAct::Garble;
  };
  b.slices.assign(nseg, PlanSlice{});
  b.emit_base.assign(nseg + 1, 0);
  b.filled = true;

  if (opts_.mode == Mode::Conventional) {
    // Conventional GC runs every gate and garbles every non-affine one
    // unconditionally. Every gate is touched, so each slice's work list is
    // its run of the entry's records.
    for (std::size_t si = 0; si < nseg; ++si) {
      const PlanSegment& seg = layout_->segments[si];
      const std::uint32_t t0 = e.touch_off[si];
      PlanSlice& slice = b.slices[si];
      slice.work = e.touch.data() + t0;
      slice.work_act = e.touch_act.data() + t0;
      slice.work_src = e.touch_src.data() + t0;
      slice.work_count = e.touch_off[si + 1] - t0;
      slice.first_gate = seg.first_gate;
      slice.count = seg.count;
      std::uint64_t emitted = 0;
      for (std::uint32_t t = t0; t < e.touch_off[si + 1]; ++t) emitted += garbles(t) ? 1 : 0;
      b.emit_base[si + 1] = b.emit_base[si] + emitted;
    }
    return;
  }

  needed_.assign(nl_.num_wires(), 0);
  const bool sample = nl_.outputs_every_cycle || is_final;
  if (sample) {
    for (const netlist::OutputPort& o : nl_.outputs) {
      if ((e.wire_bits[o.wire] & 1) == 0) needed_[o.wire] = 1;
    }
  }
  if (!is_final) {
    // Labels entering flip-flops must survive into the next cycle
    // (paper: "copy flip flops labels") — but only where the latch copies
    // one: the latch list's secret D-inputs. Every other secret flip-flop
    // holds its own label, so its D cone is dead. On the final cycle all
    // are dead, which is how e.g. the last carry of a serial adder gets
    // skipped.
    for (std::uint32_t k = 0; k < e.latch_secret; ++k) {
      needed_[nl_.dffs[e.latch_dffs[k]].d] = 1;
    }
  }

  // Only touched gates can be needed: untouched gates are Public (no label),
  // and `needed` is only ever set on secret wires. Sweep the records in
  // reverse gate order. A needed pass gate copies its chain's source label
  // (PlanSlice::work_src), so only that source becomes needed, never the
  // hops in between; a needed garbled gate emits its table.
  std::size_t live = 0;
  for (std::size_t t = e.touch.size(); t-- > 0;) {
    const std::size_t i = e.touch[t];
    if (!needed_[first_gate + i]) continue;
    ++live;
    const Gate g = nl_.gates[i];
    switch (static_cast<PlanAct>(e.touch_act[t])) {
      case PlanAct::Public:
      case PlanAct::PassC0:  // Conventional only: never swept
      case PlanAct::PassC1:
        break;
      case PlanAct::PassA:
      case PlanAct::PassB:
      case PlanAct::PassSrc:
        needed_[e.touch_src[t]] = 1;
        break;
      case PlanAct::FreeXor:
        needed_[g.a] = 1;
        needed_[g.b] = 1;
        break;
      case PlanAct::Garble:
        if ((e.wire_bits[g.a] & 1) == 0) needed_[g.a] = 1;
        if ((e.wire_bits[g.b] & 1) == 0) needed_[g.b] = 1;
        break;
    }
  }

  // The slice table: per slice its work list (the needed subset of its
  // touch sublist, copied from the records) and its emitted-table count,
  // prefix-summed into emit_base. The lists are sized exactly up front.
  b.work.resize(live);
  b.work_act.resize(live);
  b.work_src.resize(live);
  std::size_t k = 0;
  for (std::size_t si = 0; si < nseg; ++si) {
    const PlanSegment& seg = layout_->segments[si];
    PlanSlice& slice = b.slices[si];
    slice.work = b.work.data() + k;
    slice.work_act = b.work_act.data() + k;
    slice.work_src = b.work_src.data() + k;
    slice.first_gate = seg.first_gate;
    slice.count = seg.count;
    const std::size_t begin = k;
    std::uint64_t emitted = 0;
    for (std::uint32_t t = e.touch_off[si]; t < e.touch_off[si + 1]; ++t) {
      if (needed_[first_gate + e.touch[t]] == 0) continue;
      b.work[k] = e.touch[t];
      b.work_act[k] = e.touch_act[t];
      b.work_src[k] = e.touch_src[t];
      emitted += garbles(t) ? 1 : 0;
      ++k;
    }
    slice.work_count = static_cast<std::uint32_t>(k - begin);
    b.emit_base[si + 1] = b.emit_base[si] + emitted;
  }
}

void Planner::build_latch_list(Entry& e) {
  const std::uint8_t* bits = e.wire_bits.data();
  const WireId first_gate = nl_.first_gate_wire();
  // A secret D-input's collapsed source: a root is its own; a gate output's
  // producer is touched (it is secret), so its record holds it.
  const auto source = [&](WireId w) {
    if (w < first_gate) return w;
    const auto it = std::lower_bound(e.touch.begin(), e.touch.end(), w - first_gate);
    return e.touch_src[static_cast<std::size_t>(it - e.touch.begin())];
  };
  e.latch_dffs.clear();
  e.latch_src.clear();
  // Secret D-inputs first. One that resolves to the flip-flop's own output
  // with unchanged parity latches exactly the state it already has: same
  // fingerprint, same flip, and — in both sessions — the same label.
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    if ((bits[d.d] & 1) != 0) continue;
    const WireId q = nl_.dff_wire(i);
    const WireId src = source(d.d);
    const bool flip = ((bits[d.d] & 4) != 0) != d.d_invert;
    if (src == q && flip == ((bits[q] & 4) != 0)) continue;
    e.latch_dffs.push_back(static_cast<std::uint32_t>(i));
    e.latch_src.push_back(src);
  }
  e.latch_secret = static_cast<std::uint32_t>(e.latch_dffs.size());
  // Public D-inputs whose value differs from the flip-flop's current public
  // value (or that make a secret flip-flop public).
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    if ((bits[d.d] & 1) == 0) continue;
    const std::uint8_t q = bits[nl_.dff_wire(i)];
    const bool v = ((bits[d.d] & 2) != 0) != d.d_invert;
    if ((q & 1) != 0 && ((q & 2) != 0) == v) continue;
    e.latch_dffs.push_back(static_cast<std::uint32_t>(i));
  }
  // Exact: entries are long-lived.
  e.latch_dffs.shrink_to_fit();
  e.latch_src.shrink_to_fit();
  e.latch_ready = true;
}

void Planner::latch(const CyclePlan& plan) {
  // Only the entry's latch list changes state. Two passes: a D-input may be
  // another flip-flop's output, so every next state is computed before any
  // is installed. Secret D-inputs latch the fingerprint of their resolved
  // source. A verified hit computes no gate fingerprint: each secret source
  // is the XOR its compiled latch form names — root fingerprints plus the
  // derive part's garbled gates, derived in one AES pass.
  const Entry& e = *cur_;
  const PlanCache::HitProgram& h = e.program;
  const std::uint32_t* form = nullptr;
  if (hit_) {
    form = h.code.data() + h.end[PlanCache::kRelations];
    const std::uint32_t* gates = h.code.data() + h.end[PlanCache::kLatch];
    latch_derived_.resize(h.end[PlanCache::kDerive] - h.end[PlanCache::kLatch]);
    for (std::size_t j = 0; j < latch_derived_.size(); ++j) {
      latch_derived_[j] = derived_plaintext(gates[j]);
    }
    fp_gen_.encrypt_batch(latch_derived_.data(), latch_derived_.size());
  }
  latch_next_.resize(e.latch_dffs.size());
  for (std::size_t k = 0; k < e.latch_dffs.size(); ++k) {
    const Dff& d = nl_.dffs[e.latch_dffs[k]];
    WireState& s = latch_next_[k];
    if (k < e.latch_secret) {
      s.is_pub = false;
      s.val = false;
      s.flip = plan.wire_flip(d.d) != d.d_invert;
      if (!hit_) {
        s.fp = st_[e.latch_src[k]].fp;
        continue;
      }
      const std::uint32_t roots = form[0];
      const std::uint32_t derived = form[1];
      form += 2;
      s.fp = Block{};
      for (const std::uint32_t* end = form + roots; form != end; ++form) s.fp ^= st_[*form].fp;
      for (const std::uint32_t* end = form + derived; form != end; ++form) {
        s.fp ^= latch_derived_[*form];
      }
    } else {
      s = pub_state(plan.wire_value(d.d) != d.d_invert);
    }
  }
  for (std::size_t k = 0; k < e.latch_dffs.size(); ++k) {
    set_root(nl_.dff_wire(e.latch_dffs[k]), latch_next_[k]);
  }
}

}  // namespace arm2gc::core
