#include "core/party.h"

#include <algorithm>
#include <stdexcept>

#include "core/evaluator.h"
#include "core/garbler.h"
#include "core/workpool.h"
#include "gc/otpre.h"
#include "gc/transport_socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace arm2gc::core {

namespace {

using netlist::BitVec;

PlannerOptions make_planner_opts(const PartyOptions& o, PlanCache* shared, ConeMemo* cones,
                                 WorkPool* pool) {
  PlannerOptions p;
  p.mode = o.mode;
  p.seed = o.protocol_seed;
  p.cache = o.plan_cache;
  p.cache_budget_bytes = o.plan_cache_budget_bytes;
  p.shared_cache = shared;
  // plan_cache == false is the from-scratch baseline: no reuse of any kind.
  p.cone_memo = o.plan_cache && o.cone_memo;
  p.cone_memo_budget_bytes = o.cone_memo_budget_bytes;
  p.shared_cone_memo = cones;
  p.cone_target_gates = o.cone_target_gates;
  p.pool = pool;
  return p;
}

/// Resolves PartyOptions::threads into the endpoint's worker pool: null when
/// serial, the WarmState's persistent pool on a warm run, a freshly owned
/// pool (stored into `owned`) otherwise. Used in member-initializer position
/// after warm_/owned_pool_ are set.
WorkPool* resolve_pool(const PartyOptions& opts, WarmState* warm,
                       std::unique_ptr<WorkPool>& owned) {
  const std::size_t n = WorkPool::resolve_threads(opts.threads);
  if (n <= 1) return nullptr;
  if (warm != nullptr) return warm->pool(n);
  owned = std::make_unique<WorkPool>(n);
  return owned.get();
}

/// Validates the option/warm-state combination for one endpoint and passes
/// the warm pointer through (used in member-initializer position).
WarmState* checked_warm(const netlist::Netlist& nl, const PartyOptions& opts, bool halt_driven,
                        std::uint64_t cycle_count, WarmState* warm, Role role) {
  if (opts.halt_wire && *opts.halt_wire >= nl.num_wires()) {
    throw std::invalid_argument("party: halt wire out of range");
  }
  if (halt_driven && opts.mode == Mode::Conventional) {
    throw std::invalid_argument(
        "party: conventional mode cannot observe the halt wire; provide fixed_cycles");
  }
  if (cycle_count == 0) throw std::invalid_argument("party: zero cycles requested");
  if (warm != nullptr && warm->role() != role) {
    throw std::invalid_argument(std::string("party: ") + role_name(role) +
                                " endpoint handed a " + role_name(warm->role()) +
                                "-role WarmState");
  }
  if (warm != nullptr && warm->ot_backend() != opts.ot_backend) {
    // An Ideal-built WarmState holds no extension state: handing it to an
    // Iknp endpoint would silently redo the base OTs every run (and the
    // reverse would silently drop warm state), so mismatches fail loudly.
    throw std::invalid_argument("party: WarmState OT backend differs from PartyOptions");
  }
  if (warm != nullptr && opts.ot_backend == gc::OtBackend::Precomp &&
      warm->ot_pool() != opts.ot_pool) {
    // The refill schedule is a deterministic function of the pool target;
    // running a pool built for one target under another would desync it
    // from the peer mid-protocol instead of at construction.
    throw std::invalid_argument("party: WarmState OT pool size differs from PartyOptions");
  }
  return warm;
}

/// The per-cycle termination decision, computed from public data only. Both
/// parties run it against their own planner; determinism keeps them agreed.
bool planner_decide_final(const Planner& planner, const PartyOptions& opts, bool halt_driven,
                          std::uint64_t cycle, std::uint64_t cc) {
  bool is_final = !halt_driven && cycle + 1 == cc;
  if (opts.halt_wire && opts.mode == Mode::SkipGate) {
    if (!planner.wire_public(*opts.halt_wire)) {
      throw std::runtime_error(
          "skipgate: halt signal became secret (secret program counter); "
          "run with fixed_cycles instead");
    }
    if (planner.wire_value(*opts.halt_wire)) is_final = true;
  }
  if (halt_driven && !is_final && cycle + 1 == cc) {
    throw std::runtime_error("skipgate: max_cycles reached without halt");
  }
  return is_final;
}

/// Whether the start phase's OT batch has choices: Bob's fixed input bits
/// and flip-flop initial values.
bool has_bob_fixed_bits(const netlist::Netlist& nl) {
  for (const netlist::Input& in : nl.inputs) {
    if (!in.streamed && in.owner == netlist::Owner::Bob) return true;
  }
  for (const netlist::Dff& d : nl.dffs) {
    if (d.init == netlist::Dff::Init::BobBit) return true;
  }
  return false;
}

/// Streamed Bob choices per cycle: the OT window's unit.
std::size_t count_bob_stream_bits(const netlist::Netlist& nl) {
  std::size_t n = 0;
  for (const netlist::Input& in : nl.inputs) {
    n += in.streamed && in.owner == netlist::Owner::Bob ? 1 : 0;
  }
  return n;
}

/// Cycles of the OT window that opens at `cycle`: as many as fit
/// kOtWindowChoices streamed Bob choices, but only cycles the run is certain
/// to execute — a run that can stop on its halt wire opens one per cycle.
std::uint64_t ot_window_cycles(const PartyOptions& opts, std::size_t bob_stream_bits,
                               std::uint64_t cycle, std::uint64_t cc) {
  if (bob_stream_bits == 0 || (opts.halt_wire && opts.mode == Mode::SkipGate)) return 1;
  const std::uint64_t fit = kOtWindowChoices / bob_stream_bits;
  return std::max<std::uint64_t>(1, std::min(fit, cc - cycle));
}

}  // namespace

// ---------------------------------------------------------------------------
// WarmState
// ---------------------------------------------------------------------------

WarmState::WarmState(Role role) : WarmState(role, Options{}) {}

WarmState::WarmState(Role role, const Options& opts)
    : role_(role),
      opts_(opts),
      plan_cache_(opts.plan_cache_budget_bytes),
      cone_memo_(opts.cone_memo_budget_bytes) {
  if (opts_.ot_backend == gc::OtBackend::Iknp) {
    if (role_ == Role::Garbler) {
      ot_sender_ = std::make_unique<gc::IknpSenderState>(opts_.seed);
    } else {
      ot_receiver_ = std::make_unique<gc::IknpReceiverState>(opts_.seed);
    }
  } else if (opts_.ot_backend == gc::OtBackend::Precomp) {
    // The pool embeds its own IKNP state, so one handle carries both the
    // banked random OTs and the warm base-OT state across runs.
    if (role_ == Role::Garbler) {
      otpre_sender_ = std::make_unique<gc::RandomOtPoolSender>(opts_.seed, opts_.ot_pool);
    } else {
      otpre_receiver_ = std::make_unique<gc::RandomOtPoolReceiver>(opts_.seed, opts_.ot_pool);
    }
  }
}

WarmState::~WarmState() = default;

std::size_t WarmState::ot_pool_available() const {
  if (otpre_sender_ != nullptr) return otpre_sender_->available();
  if (otpre_receiver_ != nullptr) return otpre_receiver_->available();
  return 0;
}

WorkPool* WarmState::pool(std::size_t threads) {
  if (pool_ == nullptr || pool_->threads() != threads) {
    pool_ = std::make_unique<WorkPool>(threads);
  }
  return pool_.get();
}

void WarmState::reset_ot() {
  // Re-derive from the same private seed: both parties resetting after a
  // shared abort re-base consistently (and deterministically for tests); a
  // one-sided reset is detected by the next batch's header/check block.
  if (ot_sender_ != nullptr) ot_sender_ = std::make_unique<gc::IknpSenderState>(opts_.seed);
  if (ot_receiver_ != nullptr) {
    ot_receiver_ = std::make_unique<gc::IknpReceiverState>(opts_.seed);
  }
  // Precomp: drop banked (possibly half-consumed) random OTs along with the
  // embedded base state — the next run starts from an empty pool and
  // re-bases inside its first refill.
  if (otpre_sender_ != nullptr) {
    otpre_sender_ = std::make_unique<gc::RandomOtPoolSender>(opts_.seed, opts_.ot_pool);
  }
  if (otpre_receiver_ != nullptr) {
    otpre_receiver_ = std::make_unique<gc::RandomOtPoolReceiver>(opts_.seed, opts_.ot_pool);
  }
}

// ---------------------------------------------------------------------------
// GarblerEndpoint
// ---------------------------------------------------------------------------

GarblerEndpoint::GarblerEndpoint(const netlist::Netlist& nl, const PartyOptions& opts,
                                 gc::Transport& tx, WarmState* warm)
    : nl_(nl),
      opts_(opts),
      halt_driven_(opts.halt_wire.has_value() && !opts.fixed_cycles.has_value()),
      cycle_count_(opts.fixed_cycles ? *opts.fixed_cycles : opts.max_cycles),
      warm_(checked_warm(nl, opts, halt_driven_, cycle_count_, warm, Role::Garbler)),
      tx_(&tx),
      pool_(resolve_pool(opts, warm_, owned_pool_)),
      planner_(nl, make_planner_opts(opts, warm ? &warm->plan_cache_ : nullptr,
                                     warm ? &warm->cone_memo_ : nullptr, pool_)),
      session_(std::make_unique<GarblerSession>(nl, opts.mode, opts.own_seed(), tx,
                                                opts.ot_backend,
                                                warm ? warm->ot_sender_.get() : nullptr, pool_,
                                                warm ? warm->otpre_sender_.get() : nullptr,
                                                opts.ot_pool)),
      bob_fixed_(has_bob_fixed_bits(nl)),
      bob_stream_bits_(count_bob_stream_bits(nl)),
      defer_decode_(16 * nl.outputs.size() <= gc::kFlushBytes) {}

GarblerEndpoint::~GarblerEndpoint() = default;

bool GarblerEndpoint::start_reads() const {
  return bob_fixed_ && opts_.ot_backend != gc::OtBackend::Ideal;
}

bool GarblerEndpoint::begin_reads(std::uint64_t cycle) const {
  return cycle == window_end_ && bob_stream_bits_ > 0 &&
         opts_.ot_backend != gc::OtBackend::Ideal;
}

bool GarblerEndpoint::sample_reads() const {
  if (!plan_.sample) return false;
  if (session_->held_labels() > 0) return true;
  if (defer_decode_ && !plan_.is_final) return false;
  for (const netlist::OutputPort& o : nl_.outputs) {
    if (!plan_.wire_public(o.wire)) return true;
  }
  return false;
}

bool GarblerEndpoint::ot_refill_reads() const { return session_->ot_maintain_due(); }

void GarblerEndpoint::drain_decode() {
  if (session_->holds_outputs()) result_.sampled_outputs.push_back(session_->decode_held());
}

bool GarblerEndpoint::decide_final(std::uint64_t cycle) const {
  return planner_decide_final(planner_, opts_, halt_driven_, cycle, cycle_count_);
}

void GarblerEndpoint::start(const netlist::BitVec& alice_bits, const netlist::BitVec& pub_bits,
                            const StreamProvider* streams) {
  streams_ = streams;
  alice_bits_ = alice_bits;
  pub_bits_ = pub_bits;
  planner_.reset(pub_bits_);
  session_->reset(alice_bits_, pub_bits_);
}

void GarblerEndpoint::begin(std::uint64_t cycle) {
  std::uint64_t window = 0;
  if (cycle == window_end_) {
    if (begin_reads(cycle)) drain_decode();
    window = ot_window_cycles(opts_, bob_stream_bits_, cycle, cycle_count_);
    window_end_ = cycle + window;
  }
  BitVec sp;
  if (streams_ != nullptr && streams_->pub) sp = streams_->pub(cycle);
  planner_.begin_cycle(sp);
  BitVec sa;
  if (streams_ != nullptr && streams_->alice) sa = streams_->alice(cycle);
  session_->begin_cycle(sa, sp, window);
}

bool GarblerEndpoint::work(std::uint64_t cycle) {
  A2G_SPAN("garbler.work", "party");
  A2G_HIST_TIMER("party.garbler.work_ns");
  bool is_final;
  {
    A2G_SPAN("garbler.plan", "party");
    planner_.forward();
    is_final = decide_final(cycle);
    plan_ = planner_.finish(is_final);
  }
  {
    A2G_SPAN("garbler.garble", "party");
    session_->garble_cycle(plan_);
  }
  stats_.cycles++;
  stats_.non_xor_slots += planner_.non_free_per_cycle();
  stats_.garbled_non_xor += plan_.emitted;
  if (is_final) result_.final_cycle = cycle;
  return is_final;
}

void GarblerEndpoint::sample() {
  if (!plan_.sample) return;
  drain_decode();
  if (defer_decode_ && !plan_.is_final) {
    session_->hold_outputs(plan_);
  } else {
    result_.sampled_outputs.push_back(session_->decode_outputs(plan_));
  }
}

void GarblerEndpoint::latch() {
  planner_.latch(plan_);
  session_->latch(plan_);
}

void GarblerEndpoint::ot_refill() {
  A2G_SPAN("garbler.ot_refill", "party");
  if (ot_refill_reads()) drain_decode();
  session_->ot_maintain();
}

RunResult GarblerEndpoint::finish() {
  drain_decode();
  // The protocol is over; a buffering transport may still hold our last
  // sends (e.g. final tables the peer has yet to evaluate) and no own-recv
  // will come along to flush them implicitly.
  tx_->flush();
  stats_.threads = pool_ != nullptr ? pool_->threads() : 1;
  stats_.skipped_non_xor = stats_.non_xor_slots - stats_.garbled_non_xor;
  stats_.plan_cache_hits = planner_.cache_hits();
  stats_.plan_cache_misses = planner_.cache_misses();
  stats_.plan_link_hits = planner_.link_hits();
  stats_.cone_hits = planner_.cone_hits();
  stats_.cone_misses = planner_.cone_misses();
  // The sender side is the authoritative OT ledger (counts are identical on
  // the receiver side by construction).
  const gc::OtPhaseStats& o = session_->ot_stats();
  stats_.ot_choices += o.choices;
  stats_.ot_batches += o.batches;
  stats_.ot_base_ots += o.base_ots;
  stats_.ot_wall_ns += o.wall_ns;
  stats_.ot_offline_wall_ns += o.offline_wall_ns;
  stats_.ot_online_bytes += o.online_bytes;
  stats_.table_digest = session_->table_digest();
  stats_.live_gates = session_->live_gates();
  result_.stats = stats_;
  if (!result_.sampled_outputs.empty()) result_.final_outputs = result_.sampled_outputs.back();
  return std::move(result_);
}

void GarblerEndpoint::abort() noexcept {
  if (warm_ != nullptr) warm_->reset_ot();
}

RunResult GarblerEndpoint::run(const netlist::BitVec& alice_bits, const netlist::BitVec& pub_bits,
                               const StreamProvider* streams) {
  try {
    start(alice_bits, pub_bits, streams);
    for (std::uint64_t cycle = 0;; ++cycle) {
      begin(cycle);
      const bool is_final = work(cycle);
      sample();
      if (is_final) break;
      latch();
      ot_refill();
    }
    // finish() can still fail (its flush may find the peer gone), and a
    // failed flush desyncs warm OT state like any other abort.
    return finish();
  } catch (...) {
    abort();
    throw;
  }
}

// ---------------------------------------------------------------------------
// EvaluatorEndpoint
// ---------------------------------------------------------------------------

EvaluatorEndpoint::EvaluatorEndpoint(const netlist::Netlist& nl, const PartyOptions& opts,
                                     gc::Transport& tx, WarmState* warm)
    : nl_(nl),
      opts_(opts),
      halt_driven_(opts.halt_wire.has_value() && !opts.fixed_cycles.has_value()),
      cycle_count_(opts.fixed_cycles ? *opts.fixed_cycles : opts.max_cycles),
      warm_(checked_warm(nl, opts, halt_driven_, cycle_count_, warm, Role::Evaluator)),
      tx_(&tx),
      pool_(resolve_pool(opts, warm_, owned_pool_)),
      planner_(std::make_unique<Planner>(
          nl, make_planner_opts(opts, warm ? &warm->plan_cache_ : nullptr,
                                warm ? &warm->cone_memo_ : nullptr, pool_))),
      session_(std::make_unique<EvaluatorSession>(nl, opts.mode, opts.own_seed(), tx,
                                                  opts.ot_backend,
                                                  warm ? warm->ot_receiver_.get() : nullptr,
                                                  pool_,
                                                  warm ? warm->otpre_receiver_.get() : nullptr,
                                                  opts.ot_pool)),
      bob_stream_bits_(count_bob_stream_bits(nl)) {}

EvaluatorEndpoint::EvaluatorEndpoint(const netlist::Netlist& nl, const PartyOptions& opts,
                                     gc::Transport& tx, WarmState* warm,
                                     const GarblerEndpoint& leader)
    : nl_(nl),
      opts_(opts),
      halt_driven_(opts.halt_wire.has_value() && !opts.fixed_cycles.has_value()),
      cycle_count_(opts.fixed_cycles ? *opts.fixed_cycles : opts.max_cycles),
      warm_(checked_warm(nl, opts, halt_driven_, cycle_count_, warm, Role::Evaluator)),
      tx_(&tx),
      leader_(&leader),
      pool_(resolve_pool(opts, warm_, owned_pool_)),
      session_(std::make_unique<EvaluatorSession>(nl, opts.mode, opts.own_seed(), tx,
                                                  opts.ot_backend,
                                                  warm ? warm->ot_receiver_.get() : nullptr,
                                                  pool_,
                                                  warm ? warm->otpre_receiver_.get() : nullptr,
                                                  opts.ot_pool)),
      bob_stream_bits_(count_bob_stream_bits(nl)) {
  if (&leader.nl_ != &nl) {
    throw std::invalid_argument("party: plan-following evaluator bound to a different netlist");
  }
}

EvaluatorEndpoint::~EvaluatorEndpoint() = default;

bool EvaluatorEndpoint::decide_final(std::uint64_t cycle) const {
  return planner_decide_final(*planner_, opts_, halt_driven_, cycle, cycle_count_);
}

void EvaluatorEndpoint::start_request(const netlist::BitVec& bob_bits,
                                      const netlist::BitVec& pub_bits,
                                      const StreamProvider* streams) {
  streams_ = streams;
  bob_bits_ = bob_bits;
  pub_bits_ = pub_bits;
  if (planner_ != nullptr) planner_->reset(pub_bits_);
  session_->ot_reset(bob_bits_);
}

void EvaluatorEndpoint::start_finish() { session_->reset(); }

void EvaluatorEndpoint::begin_request(std::uint64_t cycle) {
  if (planner_ != nullptr) {
    BitVec sp;
    if (streams_ != nullptr && streams_->pub) sp = streams_->pub(cycle);
    planner_->begin_cycle(sp);
  }
  window_start_ = cycle == window_end_;
  if (!window_start_) return;
  const std::uint64_t window = ot_window_cycles(opts_, bob_stream_bits_, cycle, cycle_count_);
  window_end_ = cycle + window;
  // The choice bits are copied into the OT queue synchronously; nothing here
  // outlives the call.
  std::vector<BitVec> sb(static_cast<std::size_t>(window));
  if (streams_ != nullptr && streams_->bob) {
    for (std::uint64_t k = 0; k < window; ++k) sb[k] = streams_->bob(cycle + k);
  }
  session_->ot_begin(sb);
}

void EvaluatorEndpoint::begin_finish() { session_->begin_cycle(window_start_); }

bool EvaluatorEndpoint::work(std::uint64_t cycle) {
  A2G_SPAN("evaluator.work", "party");
  A2G_HIST_TIMER("party.evaluator.work_ns");
  bool is_final;
  std::size_t non_free;
  if (leader_ != nullptr) {
    // Plan-following mode: adopt the co-located leader's plan for this cycle
    // (it aliases the leader's planner storage and is consumed before the
    // leader's next work()). The leader already made the termination
    // decision and its safety checks.
    plan_ = leader_->plan();
    is_final = plan_.is_final;
    non_free = leader_->planner_.non_free_per_cycle();
  } else {
    planner_->forward();
    is_final = decide_final(cycle);
    plan_ = planner_->finish(is_final);
    non_free = planner_->non_free_per_cycle();
  }
  {
    A2G_SPAN("evaluator.eval", "party");
    session_->eval_cycle(plan_);
  }
  stats_.cycles++;
  stats_.non_xor_slots += non_free;
  stats_.garbled_non_xor += plan_.emitted;
  if (is_final) result_.final_cycle = cycle;
  return is_final;
}

void EvaluatorEndpoint::sample() {
  if (plan_.sample) session_->send_outputs(plan_);
}

void EvaluatorEndpoint::latch() {
  if (planner_ != nullptr) planner_->latch(plan_);
  session_->latch(plan_);
}

void EvaluatorEndpoint::ot_refill_request() {
  A2G_SPAN("evaluator.ot_refill_request", "party");
  session_->ot_maintain_request();
}

void EvaluatorEndpoint::ot_refill_finish() {
  A2G_SPAN("evaluator.ot_refill_finish", "party");
  session_->ot_maintain_finish();
}

RunResult EvaluatorEndpoint::finish() {
  // The final cycle's output labels are the evaluator's last sends; flush
  // them or a buffering transport leaves the garbler's decode waiting.
  tx_->flush();
  stats_.threads = pool_ != nullptr ? pool_->threads() : 1;
  stats_.skipped_non_xor = stats_.non_xor_slots - stats_.garbled_non_xor;
  if (planner_ != nullptr) {
    stats_.plan_cache_hits = planner_->cache_hits();
    stats_.plan_cache_misses = planner_->cache_misses();
    stats_.plan_link_hits = planner_->link_hits();
    stats_.cone_hits = planner_->cone_hits();
    stats_.cone_misses = planner_->cone_misses();
  }
  const gc::OtPhaseStats& o = session_->ot_stats();
  stats_.ot_choices += o.choices;
  stats_.ot_batches += o.batches;
  stats_.ot_base_ots += o.base_ots;
  stats_.ot_wall_ns += o.wall_ns;
  stats_.ot_offline_wall_ns += o.offline_wall_ns;
  stats_.ot_online_bytes += o.online_bytes;
  stats_.table_digest = session_->table_digest();
  stats_.live_gates = session_->live_gates();
  result_.stats = stats_;
  return std::move(result_);
}

void EvaluatorEndpoint::abort() noexcept {
  if (warm_ != nullptr) warm_->reset_ot();
}

RunResult EvaluatorEndpoint::run(const netlist::BitVec& bob_bits, const netlist::BitVec& pub_bits,
                                 const StreamProvider* streams) {
  try {
    start_request(bob_bits, pub_bits, streams);
    start_finish();
    for (std::uint64_t cycle = 0;; ++cycle) {
      begin_request(cycle);
      begin_finish();
      const bool is_final = work(cycle);
      sample();
      if (is_final) break;
      latch();
      ot_refill_request();
      ot_refill_finish();
    }
    return finish();  // the final flush can fail too; see GarblerEndpoint::run
  } catch (...) {
    abort();
    throw;
  }
}

}  // namespace arm2gc::core
