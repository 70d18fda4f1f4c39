// The SkipGate planner (paper §3): a deterministic classification pass over
// *public data only* that both parties run independently and that fully
// determines what the garbler and the evaluator do in a cycle.
//
//   Forward pass   classify every gate (categories i-iv) using public wire
//                  values and secret-wire fingerprints; a fingerprint is a
//                  deterministic public alias for the XOR-combination of base
//                  labels a wire carries, so "fingerprints equal (+flip)" is
//                  exactly the paper's "identical or inverted labels" test
//                  (§3.3) without touching any key material. A gate that
//                  yields a public value from a public operand (category
//                  i, constant category ii — most of a processor's gates)
//                  reads its operands' packed bits and writes its output's;
//                  only secret wires have a fingerprint.
//   Backward pass  from the sampled outputs and the D-inputs of the
//                  flip-flops whose label changes at the latch, sweep
//                  "needed" backwards; a category-iv gate is emitted iff its
//                  output is needed. A needed pass gate (a category-ii/iii
//                  collapse to a wire) reads its pass chain's source
//                  directly, so the hops between them stay dead. This reaches
//                  the same fixpoint as the paper's recursive label_fanout
//                  reduction and makes Alice's table list and Bob's
//                  expectations agree by construction.
//
// The result of the two passes is an explicit `CyclePlan`. Because the plan
// is a pure function of the cycle's *entry state* — the public values, flip
// parities and fingerprint-equivalence classes of the root wires (constants,
// inputs, flip-flops) — plans are cached under a canonical signature of that
// state (PlanCache). The signature is one positional term per root (public:
// its value; secret: the lowest root index carrying an equal fingerprint, plus
// its flip) under a position-mixed additive hash, and the planner keeps both
// up to date incrementally: only the roots a cycle rewrites (its latch list
// and streamed inputs) and their classes' representatives change. The garbled
// ARM core re-enters the same public control state on every loop iteration
// (fetch/decode is public — the paper's whole point), so repeated cycles skip
// classification entirely: a hit runs the entry's compiled verify program
// instead — only the root XOR relations the signature cannot see, a few dozen
// short XORs of root fingerprints — and the entry's latch list
// confines flip-flop bookkeeping (planner and both party sessions) to the
// flip-flops whose state changes. A warm run of one program walks the same
// chain of entries every time, so each entry links to the entry that followed
// it: a warm cycle checks its predecessor's successor on the signature terms
// that changed before it falls back to the hash lookup.
//
// Classification runs over a fixed *cone layout*: the netlist is cut once
// into topologically-contiguous segments (fanin cones rooted at
// constants/inputs/DFFs, cut where the fewest wires cross a frontier), and
// the CyclePlan is a composition of per-segment slices, each slice's tables
// travelling as one frame. A whole-netlist cache miss (or a hit whose
// verification fails) classifies the cycle from scratch, one forward pass
// over the segments in order. The layout belongs to the PlanCache whose
// entries it indexes, so planners sharing a cache build it once.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/block.h"
#include "netlist/netlist.h"

namespace arm2gc::core {

/// SkipGate = the paper's protocol; Conventional = classic sequential GC that
/// treats every wire (including constants, public inputs and known initial
/// values) as secret — the "w/o SkipGate" baseline of Tables 1 and 4.
enum class Mode : std::uint8_t { SkipGate, Conventional };

// PassC0/PassC1 cover degenerate constant-table gates in Conventional mode,
// where even a constant must stay a (secret-typed) wire: the gate forwards
// the global constant wire's label. PassSrc forwards an arbitrary earlier
// wire recorded in the plan (XOR-cancellation peephole).
enum class PlanAct : std::uint8_t {
  Public,
  PassA,
  PassB,
  FreeXor,
  Garble,
  PassC0,
  PassC1,
  PassSrc,
};

/// One contiguous run of `count` gates starting at gate index `first_gate`,
/// with the work list the party sessions execute for it. Slice storage is
/// owned by the Planner (cache entry or scratch) and stays valid until the
/// next forward().
struct PlanSlice {
  /// Global gate indices of the slice's live gates, ascending. Under
  /// SkipGate, gates not listed need no label work and none of their outputs
  /// is read by a listed gate; in Conventional mode every gate is listed.
  const std::uint32_t* work = nullptr;
  /// Parallel to `work`: each item's PlanAct. A Garble item always emits
  /// its table (a garbled gate nobody reads is not on the list).
  const std::uint8_t* work_act = nullptr;
  /// Parallel to `work`: a PassA/PassB/PassSrc item's collapsed source — the
  /// first wire up its pass chain that is not itself a pass gate (a root,
  /// a free XOR or a garbled gate). The item copies that wire's label, so
  /// the chain's intermediate hops need none. Other items name their own
  /// output wire.
  const netlist::WireId* work_src = nullptr;
  std::uint32_t work_count = 0;
  std::uint32_t first_gate = 0;  ///< global gate index of slice start
  std::uint32_t count = 0;

  [[nodiscard]] PlanAct action(std::size_t k) const { return static_cast<PlanAct>(work_act[k]); }
};

/// A cycle's touched-gate records, parallel and ascending by gate: every gate
/// the planner visits (non-Public actions plus Public collapses of two secret
/// inputs), its action and its collapsed source (PlanSlice::work_src's rule).
/// Every gate not listed is Public. A read-only view of the plan for tests
/// and tools; the party sessions execute the slices' work lists only.
struct PlanRecords {
  const std::uint32_t* gate = nullptr;
  const std::uint8_t* act = nullptr;
  const netlist::WireId* src = nullptr;
  std::size_t count = 0;
};

/// One cycle's complete public plan, shared verbatim by both party sessions:
/// a composition of per-cone slices (in gate order, covering every gate
/// exactly once) plus the packed per-wire public/value/flip bits. All storage
/// is owned by the Planner and stays valid until the next forward() call.
struct CyclePlan {
  const PlanSlice* slices = nullptr;
  std::size_t num_slices = 0;
  const std::uint8_t* wire_bits = nullptr;  ///< bit0 pub, bit1 val, bit2 flip
  std::size_t num_gates = 0;
  std::size_t num_wires = 0;
  std::uint64_t emitted = 0;  ///< number of garbled tables this cycle
  /// Per-slice prefix of emitted tables (num_slices + 1 entries): slice si
  /// carries the cycle's tables emit_base[si] .. emit_base[si + 1], which
  /// preassigns both sessions' tweak range and table frame for the slice.
  const std::uint64_t* emit_base = nullptr;
  /// Flip-flops whose latched label changes at this cycle's latch: those
  /// with a secret D-input, minus those whose D-input passes their own
  /// output through with unchanged parity (an enable-gated register
  /// holding its value). Ascending. The party sessions copy labels for
  /// exactly these; every other flip-flop either keeps its label or turns
  /// public (no label is read).
  const std::uint32_t* secret_dffs = nullptr;
  std::size_t num_secret_dffs = 0;
  PlanRecords records;  ///< not read by the party sessions
  bool is_final = false;
  bool sample = false;  ///< outputs are decoded this cycle

  [[nodiscard]] bool wire_public(netlist::WireId w) const { return (wire_bits[w] & 1) != 0; }
  [[nodiscard]] bool wire_value(netlist::WireId w) const { return (wire_bits[w] & 2) != 0; }
  [[nodiscard]] bool wire_flip(netlist::WireId w) const { return (wire_bits[w] & 4) != 0; }
};

/// One fanin-cone segment of the netlist: the contiguous gate range
/// [first_gate, first_gate+count).
struct PlanSegment {
  std::uint32_t first_gate = 0;
  std::uint32_t count = 0;
};

/// Deterministic one-time partition of a netlist's gates into segments. Both
/// parties compute it independently from public data, so it is part of the
/// shared plan contract: it fixes the slices, and so each slice's table
/// frame. Its key binds a PlanCache to one segmentation. Cuts are placed
/// near multiples of `target_gates` at fanout frontiers — positions the
/// fewest live wires cross.
struct PlanLayout {
  std::vector<PlanSegment> segments;
  std::uint64_t key = 0;  ///< netlist key + cut positions

  static PlanLayout build(const netlist::Netlist& nl, std::size_t target_gates,
                          std::uint64_t netlist_key);
};

class Planner;

/// Reusable per-party store of classified cycle plans, keyed by the entry
/// state signature: one term per root wire — public: `1 | val << 1`; secret:
/// `rep << 2 | flip << 1`, where rep is the lowest root index carrying an
/// equal fingerprint — hashed as a position-mixed 64-bit sum so the planner
/// can keep it incrementally. The signature is deliberately coarse — it
/// cannot see XOR-linear relations *among* root fingerprints — so every hit
/// is re-verified against the current fingerprints before being served and
/// silently reclassified on drift, so caching can never change results.
///
/// Verification is symbolic. An entry is compiled on its first hit: every
/// fingerprint of a hit cycle is a fixed XOR (its *form*) of root
/// fingerprints and of the cycle's derived fingerprints AES(gate, epoch) for
/// its garbled gates, so each fingerprint comparison the cached decisions
/// rest on (category iii/iv, a free XOR's distinct operands, each
/// XOR-cancellation candidate) asks whether the XOR of two forms is zero. The
/// compiler fixes that outcome from three facts. (1) Derived plaintexts carry
/// the top bit and a fresh epoch, so under the one keyed permutation a
/// derived fingerprint is independent of every root's history: a form with a
/// derived term is nonzero. (2) Root fingerprints are nonzero: fresh AES
/// outputs, or latched from a cycle whose every free XOR was checked to have
/// distinct operands: a form of one root is nonzero. (3) Two roots have equal
/// fingerprints exactly when the signature puts them in one class, and a hit
/// matches the signature exactly: forms reduce roots to their class
/// representatives, and a form of two representatives is nonzero, an empty
/// one zero. Only a relation over three or more representatives and no
/// derived term is left — the structure the signature cannot see, arising
/// when a flip-flop latched the XOR of others — and a hit checks just those
/// (Hamming-160 on the ARM core: ~68 of ~5,460 comparisons per entry, ~3.2
/// roots each; tg_matmult: none). A fixed outcome that contradicts the
/// cached action compiles to an entry that never verifies. After a hit,
/// latch() computes each secret latch source from its form.
///
/// The signature trajectory of a run depends only on the netlist and the
/// *public* inputs, so handing the same PlanCache to
/// successive runs of one machine on fresh private inputs (the
/// traffic-serving scenario) skips classification wherever the public
/// trajectory repeats; each entry links to the entry served after it, so a
/// repeated trajectory is walked link by link instead of looked up.
///
/// The cache owns the cone layout its entries are indexed by (every entry's
/// per-segment offsets follow it): the first planner builds it, with the
/// per-cycle non-free gate count, and later planners borrow it. A planner
/// over a different netlist, mode or segmentation is rejected.
///
/// An entry is sparse: its signature, the packed wire bits, and one record
/// per touched gate (gate, action, collapsed source — see PlanRecords),
/// written at exact size; its backward variants hold the live work lists and
/// slice tables. A gate that is not touched is Public, so nothing per gate
/// beyond the wire bits is stored (Hamming-160 on the ARM core: ~7,000 of
/// 42,611 gates touched, ~140 KiB per entry). Capacity is bounded: once full,
/// inserting a new state evicts the least-recently-used entry, so long
/// multi-program sessions cannot grow memory without limit. Not thread-safe;
/// use one instance per party (a role-scoped core::WarmState enforces this).
class PlanCache {
 public:
  /// Capacity is derived from the per-entry footprint against this budget
  /// (at least 4 entries) on first use.
  ///
  /// `insert_on_first_sight` controls when a classified plan is copied into
  /// the cache: true (cross-run caches — reuse is known to come) stores every
  /// new state immediately; false (transient per-run caches) stores a state
  /// only on its second sighting, so runs over non-recurring states pay a
  /// cheap signature probe instead of a multi-hundred-kB entry copy.
  explicit PlanCache(std::size_t budget_bytes = 64u << 20, bool insert_on_first_sight = true);
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  [[nodiscard]] std::size_t entries() const { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  friend class Planner;
  friend struct PlanCacheTestPeer;  ///< tests: hand-corrupts a cached entry

  struct Backward {
    /// Live work items, concatenated per segment (PlanSlice::work,
    /// work_act, work_src). Empty in Conventional mode, where every gate is
    /// touched and the slices read the entry's records directly.
    std::vector<std::uint32_t> work;
    std::vector<std::uint8_t> work_act;
    std::vector<netlist::WireId> work_src;
    /// The CyclePlan's slice table and per-slice emitted-table prefix
    /// (CyclePlan::emit_base), built with the rest of the variant.
    std::vector<PlanSlice> slices;
    std::vector<std::uint64_t> emit_base;
    bool filled = false;
  };

  /// Parts of a compiled hit program, in stream order (format in plan.cpp).
  enum HitPart : std::uint8_t { kRelations, kLatch, kDerive, kHitParts };

  /// Whole-entry symbolic hit program (Planner::compile_entry): one u32
  /// stream of kept root relations and latch forms, compiled on the entry's
  /// first hit and sized exactly.
  struct HitProgram {
    std::vector<std::uint32_t> code;
    std::array<std::uint32_t, kHitParts> end{};  ///< end offset in code of each part
    bool compiled = false;
    bool never = false;  ///< a fixed outcome contradicts a cached action
  };

  /// Forward + backward results for one entry-state equivalence class. The
  /// touched-gate records (touch, touch_act, touch_src; PlanRecords) list
  /// ascending every gate the hit compiler and the backward sweep must
  /// visit: non-Public actions plus Public collapses of two secret inputs
  /// (category iii) — on SkipGate workloads a small fraction of the netlist,
  /// in Conventional mode every gate. A cached entry writes each vector once,
  /// at its exact size (next_diff whenever its link changes).
  struct Entry {
    std::uint64_t hash = 0;
    std::vector<std::uint32_t> sig;  ///< per-root signature terms
    /// Successor link: the entry served on the cycle after this one, valid
    /// only while next_stamp equals the cache's eviction count (any
    /// eviction may have freed it, so a stale link is never followed).
    Entry* next = nullptr;
    std::uint64_t next_stamp = 0;
    /// Root positions where sig and next->sig differ (written with the link).
    std::vector<std::uint32_t> next_diff;
    std::list<Entry>::iterator self{};  ///< this entry's LRU position
    std::vector<std::uint8_t> wire_bits;
    std::vector<std::uint32_t> touch;
    std::vector<std::uint8_t> touch_act;
    std::vector<netlist::WireId> touch_src;
    std::vector<std::uint32_t> touch_off;  ///< per-segment offsets into touch
    HitProgram program;
    /// Latch list: flip-flops whose state changes at this cycle's latch —
    /// the first latch_secret have a secret D-input (the CyclePlan's
    /// secret_dffs; latch_src holds the wire whose fingerprint each one
    /// latches, and the program's latch part its form), the rest latch
    /// a public value that differs from their current one. Built with the
    /// first CyclePlan served from the entry, or by the hit compiler.
    std::vector<std::uint32_t> latch_dffs;
    std::vector<netlist::WireId> latch_src;
    std::uint32_t latch_secret = 0;
    bool latch_ready = false;
    std::array<Backward, 2> backward;  ///< indexed by is_final
  };
  using LruList = std::list<Entry>;

  /// Binds the cache to a netlist (content key) and segmentation on first
  /// use: validates the netlist, builds the layout and sizes the cache.
  /// Later calls only check the binding; a different netlist or layout
  /// throws std::invalid_argument.
  void ensure_sized(const netlist::Netlist& nl, std::uint64_t netlist_key,
                    std::size_t target_gates);
  [[nodiscard]] bool admit(std::uint64_t hash);
  /// Lookup by hash + full signature; a hit is touched (moved to LRU front).
  [[nodiscard]] Entry* find(std::uint64_t hash, const std::vector<std::uint32_t>& sig);
  /// Moves an entry reached through a successor link to the LRU front, as
  /// find() would have.
  void touch(Entry& e) { lru_.splice(lru_.begin(), lru_, e.self); }
  /// Inserts a fresh entry for the signature (admission policy permitting),
  /// evicting the least-recently-used entry when at capacity. Returns null
  /// when the admission policy declines (classify uncached instead).
  [[nodiscard]] Entry* insert(std::uint64_t hash, const std::vector<std::uint32_t>& sig);

  std::size_t budget_bytes_;
  bool insert_first_;
  std::size_t capacity_ = 0;
  std::uint64_t evictions_ = 0;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::vector<LruList::iterator>> map_;
  /// Content hash of (mode, netlist structure) and segmentation target this
  /// cache is bound to, and the layout built from them (layout_.key is the
  /// binding: a target yielding the same cuts is accepted).
  std::uint64_t netlist_key_ = 0;
  std::size_t target_gates_ = 0;
  PlanLayout layout_;
  std::size_t non_free_ = 0;  ///< netlist non-free gate count
  /// Signature hashes seen once (second-sighting admission policy).
  std::vector<std::uint64_t> seen_;
  std::size_t seen_count_ = 0;
  std::size_t seen_max_ = 0;  ///< slots seen_ may grow to (8 x capacity)
};

/// Frozen for perfbench: an empty type nothing reads (a plan cache miss
/// classifies the cycle from scratch; there is no per-cone reuse).
class ConeMemo {
 public:
  explicit ConeMemo(std::size_t /*budget_bytes*/ = 0) {}
};

class WorkPool;

struct PlannerOptions {
  Mode mode = Mode::SkipGate;
  crypto::Block seed{};  ///< fingerprint stream seed (public; must match peer)
  /// Frozen slot for existing callers: always null and never read — the
  /// planner classifies on its calling thread (core/workpool.h).
  WorkPool* pool = nullptr;
  bool cache = true;
  /// Budget for the planner-owned cache when no shared cache is supplied.
  std::size_t cache_budget_bytes = 64u << 20;
  /// Optional externally owned cache, reusable across runs (same netlist).
  PlanCache* shared_cache = nullptr;
  bool cone_memo = true;                           ///< frozen for perfbench: never read
  std::size_t cone_memo_budget_bytes = 32u << 20;  ///< frozen for perfbench: never read
  ConeMemo* shared_cone_memo = nullptr;            ///< frozen for perfbench: never read
  /// Segmentation granularity (gates per cone, approximate). Both parties
  /// must agree (folded into the layout key). 0 = one segment per netlist.
  std::size_t cone_target_gates = 512;
};

/// Deterministic public bookkeeping both parties run independently. Consumes
/// only public inputs; secret wires are tracked as (flip, fingerprint).
class Planner {
 public:
  Planner(const netlist::Netlist& nl, const PlannerOptions& opts);

  /// Binds root-wire planner state: constants, fixed inputs, flip-flop
  /// initial values. Draws one fingerprint per secret-bound bit, in binding
  /// order (the peer's planner consumes the identical sequence).
  void reset(const netlist::BitVec& pub_bits);

  /// Installs the cycle's streamed-input states; draws fresh fingerprints for
  /// streamed secret inputs. `pub_stream` carries this cycle's public
  /// streamed bits. Constants and fixed inputs are installed by reset(),
  /// flip-flop outputs by reset() and latch().
  void begin_cycle(const netlist::BitVec& pub_stream);

  /// Classifies the cycle (forward pass), via the plan cache when the entry
  /// signature matches a previous cycle and from scratch otherwise.
  /// Publicness/values of every wire are queryable afterwards (e.g. for the
  /// halt-wire check).
  void forward();

  [[nodiscard]] bool wire_public(netlist::WireId w) const;
  [[nodiscard]] bool wire_value(netlist::WireId w) const;

  /// Completes the plan for this cycle (backward needed/emit sweep, filled
  /// once per entry and is_final variant). Valid until the next forward().
  [[nodiscard]] CyclePlan finish(bool is_final);

  /// Latches flip-flop planner state through the current plan (the one the
  /// last finish() returned): only the entry's latch list changes state, and
  /// secret D-inputs latch the fingerprint of their pass-resolved source
  /// (after a verified hit, the XOR its compiled latch form names).
  void latch(const CyclePlan& plan);

  [[nodiscard]] std::size_t non_free_per_cycle() const { return non_free_per_cycle_; }
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const { return cache_misses_; }
  /// Whole-netlist cache hits whose verification failed (fingerprint drift
  /// the signature cannot see) and fell back to reclassification; counted
  /// in cache_misses() too.
  [[nodiscard]] std::uint64_t verify_rejects() const { return verify_rejects_; }
  /// Root XOR relations checked by hit verification, summed over every hit
  /// verified or rejected: the comparisons whose outcome neither the
  /// signature nor the entry fixes.
  [[nodiscard]] std::uint64_t relation_checks() const { return relation_checks_; }
  /// Frozen for perfbench: there is no cone memo, so both read 0.
  [[nodiscard]] std::uint64_t cone_hits() const { return 0; }
  [[nodiscard]] std::uint64_t cone_misses() const { return 0; }
  /// Cache hits reached through the previous entry's successor link rather
  /// than the hash lookup (a subset of cache_hits()).
  [[nodiscard]] std::uint64_t link_hits() const { return link_hits_; }
  [[nodiscard]] const PlanLayout& layout() const { return *layout_; }

  /// Test hooks: the incrementally kept entry signature (valid after
  /// begin_cycle()), and the same signature recomputed from the root states
  /// from scratch, returning its hash.
  [[nodiscard]] const std::vector<std::uint32_t>& signature_terms() const { return terms_; }
  [[nodiscard]] std::uint64_t signature_hash() const { return terms_hash_; }
  std::uint64_t signature_from_scratch(std::vector<std::uint32_t>& terms) const;

 private:
  using Entry = PlanCache::Entry;

  crypto::Block fresh_fp();
  /// Fingerprint of a category-iv gate output: a pure function of the
  /// cycle's fp epoch and the gate index, so the value does not depend on
  /// classification order, and a hit's latch() can re-derive exactly the
  /// fingerprints a classification of the same cycle would have produced.
  /// Disjoint from the root fingerprint stream by construction (top
  /// plaintext bit).
  [[nodiscard]] crypto::Block derived_fp(std::size_t gate) const;
  [[nodiscard]] crypto::Block derived_plaintext(std::size_t gate) const;
  /// reset(): makes root w secret with a fresh fingerprint (the signature is
  /// rebuilt afterwards).
  void bind_secret_root(netlist::WireId w);
  /// Installs a root wire's packed bits (CyclePlan::wire_bits) and, when
  /// secret, its fingerprint, keeping the entry signature (terms_,
  /// terms_hash_ and the fingerprint classes) in step.
  void set_root(netlist::WireId w, std::uint8_t bits, const crypto::Block& fp);
  /// Rebuilds the kept entry signature from the root states.
  void rebuild_terms();
  /// Writes one signature term, listing its position as dirty.
  void set_term(netlist::WireId w, std::uint32_t term);
  /// rep_table_ slot holding `fp`, or the empty slot where it would go.
  [[nodiscard]] std::size_t rep_slot(const crypto::Block& fp) const;
  /// Empties a rep_table_ slot (linear-probing backward-shift deletion).
  void rep_erase(std::size_t slot);
  /// Removes secret root w (fingerprint fp) from its class / adds it.
  void rep_remove(netlist::WireId w, const crypto::Block& fp);
  void rep_insert(netlist::WireId w, bool flip, const crypto::Block& fp);
  /// Forward-classifies the cycle into `e`, which becomes the current entry:
  /// classify_segment over the segments in order, into the dense per-gate
  /// scratch; e receives its touched records.
  void build_plan(Entry& e);
  /// Copies the touched gates' records out of the dense scratch into e.
  void store_records(Entry& e);
  /// Sizes the dense per-gate scratch (below) on first use.
  void size_dense();
  /// Fresh forward classification of one segment's gates into e's wire bits
  /// and, for touched gates, the fingerprints and the dense scratch; touched
  /// gate indices are appended to touch_. A gate that yields a public value
  /// from a public operand (category i, constant category ii) writes its
  /// output's bits and nothing else.
  void classify_segment(Entry& e, const PlanSegment& seg);
  /// Hit path: compiles the entry on its first hit, then checks its kept
  /// root relations against the live root fingerprints. Returns false on
  /// drift; the caller reclassifies. Failure is side-effect free: it writes
  /// nothing but the relation counter.
  [[nodiscard]] bool verify_entry(Entry& e);
  /// Compiles `e` into its symbolic hit program (format in plan.cpp): expands
  /// its records into the dense scratch, walks them once, giving every free
  /// XOR output its form (operands read through their collapsed sources),
  /// and for each comparison a cached decision rests on either fixes the
  /// outcome — contradicting the cached action makes the entry never
  /// verify — or keeps it as a root relation. Then the secret latch
  /// sources' forms.
  void compile_entry(Entry& e);
  /// Fills e's latch list (see Entry::latch_dffs) from its wire bits and the
  /// collapsed sources in the dense scratch, which must hold e's records.
  void build_latch_list(Entry& e);
  /// Backward sweep for one variant over e's records; reads e's latch list
  /// (build it first).
  void backward_fill(const Entry& e, PlanCache::Backward& b, bool is_final);

  const netlist::Netlist& nl_;
  PlannerOptions opts_;
  /// The cone layout: the plan cache's (shared across planners of one
  /// cache) or, without a cache, owned_layout_.
  const PlanLayout* layout_ = nullptr;
  std::unique_ptr<PlanLayout> owned_layout_;
  /// Streamed inputs (indices into nl_.inputs): the only roots begin_cycle()
  /// rewrites — constants and fixed inputs are installed once by reset().
  std::vector<std::uint32_t> streamed_;

  // Root fingerprints are AES-CTR outputs consumed in strict counter order
  // (binding happens serially in reset()/begin_cycle()), generated a
  // pipelined batch at a time (same sequence as scalar calls). Category-iv
  // gate fingerprints do NOT come from this stream: they are derived per
  // (epoch, gate) — see derived_fp() — so classification order cannot
  // perturb them.
  static constexpr std::size_t kFpBatch = 8;
  crypto::Aes128 fp_gen_;
  std::uint64_t fp_ctr_ = 0;
  std::array<crypto::Block, kFpBatch> fp_buf_{};
  std::size_t fp_pos_ = kFpBatch;
  /// Derived-fingerprint epoch: incremented at the top of every forward()
  /// (hit or miss alike), never reset, so each cycle's category-iv
  /// fingerprints are globally fresh while being order-independent within
  /// the cycle. Both parties advance it identically (one forward per cycle).
  std::uint64_t fp_epoch_ = 0;

  // Per-wire cycle state. Packed public/value/flip bits of every wire live in
  // the current entry's wire_bits; root_bits_ holds the roots' own, the
  // entry state that reset(), begin_cycle() and latch() install. fp_ holds
  // fingerprints, one 16-byte block per wire, meaningful for secret wires
  // only: it is written and read for secret wires alone (a public wire's
  // slot keeps whatever it last held). A verified whole-entry hit writes no
  // gate-range fingerprint: its only reader, latch(), computes the latched
  // ones from the program's latch forms.
  std::vector<crypto::Block> fp_;
  std::vector<std::uint8_t> root_bits_;
  bool hit_ = false;  ///< the current cycle was served by a verified hit
  std::vector<crypto::Block> latch_derived_;  ///< latch(): a hit's derive part
  std::vector<crypto::Block> latch_fp_;  ///< latch() staging, per secret latch-list entry
  std::vector<std::uint32_t> latch_pub_;  ///< build_latch_list(): public-D entries
  std::vector<std::uint8_t> needed_;   ///< backward-sweep scratch, sized on first use
  /// Dense per-gate scratch, reused every cycle: build_plan classifies the
  /// touched gates into it (action, collapsed source) and copies their
  /// records out; compile_entry expands a cached entry's records back into
  /// it. Only the current touch list's gates are written or meaningful —
  /// every secret wire's producer is among them, and lookups only ever name
  /// secret wires.
  std::vector<std::uint8_t> act_;
  std::vector<netlist::WireId> src_;
  std::vector<std::uint32_t> touch_;  ///< the touch list build_plan collects
  std::size_t non_free_per_cycle_ = 0;

  // Plan cache: canonical entry-state signature -> Entry. Collisions on the
  // 64-bit hash fall back to full-signature comparison. Either externally
  // owned (shared across runs) or planner-owned.
  PlanCache* cache_ = nullptr;
  std::unique_ptr<PlanCache> owned_cache_;
  Entry scratch_;
  Entry* cur_ = nullptr;
  /// The cache entry served on the previous cycle (null after reset() or a
  /// cycle served from scratch_) and the cache's eviction count then: its
  /// successor link is tried first, and it is linked to this cycle's entry.
  Entry* prev_ = nullptr;
  std::uint64_t prev_stamp_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t verify_rejects_ = 0;
  std::uint64_t relation_checks_ = 0;
  std::uint64_t link_hits_ = 0;
  /// compile_entry scratch, reused across compiles: the free XOR forms
  /// (ascending terms, form_off_ indexed by a wire's rank in the form_bits_
  /// bitset over wire ids, form_rank_ its per-word prefix), the staged
  /// program, the XOR of the current gate's operand forms and a kept
  /// relation. On the ARM core each stays under glibc's 128 kB mmap
  /// threshold.
  std::vector<std::uint32_t> form_terms_;
  std::vector<std::uint32_t> form_off_;
  std::vector<std::uint64_t> form_bits_;
  std::vector<std::uint32_t> form_rank_;
  std::vector<std::uint32_t> stage_;
  std::vector<std::uint32_t> x_;
  std::vector<std::uint32_t> rel_;

  // Kept entry signature (the plan cache's key): one term per root, their
  // position-mixed sum, and the secret roots' fingerprint classes — an
  // open-addressing table fp -> lowest member (the class representative),
  // members chained in ascending order through rep_next_. Slots are
  // epoch-stamped so a rebuild never clears the table.
  std::vector<std::uint32_t> terms_;
  std::uint64_t terms_hash_ = 0;
  /// Root positions set_term() wrote since the last forward() or reset()
  /// (a position written twice is listed twice).
  std::vector<netlist::WireId> dirty_;
  struct RepSlot {
    crypto::Block fp{};
    std::uint32_t head = 0;
    std::uint64_t epoch = 0;
  };
  std::vector<RepSlot> rep_table_;
  std::vector<netlist::WireId> rep_next_;
  std::uint64_t rep_epoch_ = 1;  ///< slots of any other epoch are empty
};

}  // namespace arm2gc::core
