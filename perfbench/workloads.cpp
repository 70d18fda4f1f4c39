#include "workloads.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "arm/arm2gc.h"
#include "circuits/tg_circuits.h"
#include "core/party.h"
#include "core/plan.h"
#include "core/skipgate.h"
#include "core/workpool.h"
#include "gc/transport_socket.h"
#include "layers.h"
#include "programs/programs.h"
#include "serve/client.h"
#include "serve/service.h"

namespace perfbench {

namespace {

namespace arm = arm2gc::arm;
namespace circuits = arm2gc::circuits;
namespace core = arm2gc::core;
namespace gc = arm2gc::gc;
namespace serve = arm2gc::serve;
using arm2gc::netlist::BitVec;

/// Set-up is repeated this many times per process; setup_s is the median.
constexpr std::size_t kSetups = 9;
constexpr std::size_t kHammingWords = 5;  // Hamming-160: 5 words per party
constexpr std::size_t kMatN = 8;

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

bool same_comm(const gc::CommStats& a, const gc::CommStats& b) {
  return a.garbled_table_bytes == b.garbled_table_bytes &&
         a.input_label_bytes == b.input_label_bytes && a.ot_bytes == b.ot_bytes &&
         a.output_bytes == b.output_bytes;
}

/// The exact counts every run must reproduce: garbled tables, per-class comm
/// bytes and the garbled-table digest of the in-process SkipGateDriver run
/// of the same instance, OT backend and warmness.
void check_counts(const core::RunStats& got, const core::RunStats& ref) {
  check(got.garbled_non_xor == ref.garbled_non_xor,
        "garbled_non_xor " + std::to_string(got.garbled_non_xor) + " != driver " +
            std::to_string(ref.garbled_non_xor));
  check(same_comm(got.comm, ref.comm), "comm bytes " + std::to_string(got.comm.total()) +
                                           " != driver " + std::to_string(ref.comm.total()));
  check(got.table_digest == ref.table_digest, "table digest differs from the driver's");
}

/// One measured protocol run.
struct RunSample {
  double wall_ms = 0;
  double cpu_ms = 0;        ///< process CPU over the run (all threads)
  core::RunStats stats;     ///< comm covers both directions
  Usage usage;              ///< process resource delta over the run
};

/// Planner options exactly as an endpoint derives them from PartyOptions.
core::PlannerOptions planner_options(const core::PartyOptions& o, core::PlanCache* cache,
                                     core::ConeMemo* memo, core::WorkPool* pool) {
  core::PlannerOptions p;
  p.mode = o.mode;
  p.seed = o.protocol_seed;
  p.cache = o.plan_cache;
  p.cache_budget_bytes = o.plan_cache_budget_bytes;
  p.shared_cache = cache;
  p.cone_memo = o.plan_cache && o.cone_memo;
  p.cone_memo_budget_bytes = o.cone_memo_budget_bytes;
  p.shared_cone_memo = memo;
  p.cone_target_gates = o.cone_target_gates;
  p.pool = pool;
  return p;
}

/// Constructs a Planner (plan.setup_ms) and replays one run's planning.
void replay_once(const arm2gc::netlist::Netlist& nl, const core::PartyOptions& po,
                 core::PlanCache* cache, core::ConeMemo* memo, core::WorkPool* pool,
                 const BitVec& pub, const core::StreamProvider* streams, Ledger& l) {
  std::optional<core::Planner> planner;
  timed(l, "plan.setup_ms", [&] { planner.emplace(nl, planner_options(po, cache, memo, pool)); });
  replay_plan(*planner, pub, streams, po.halt_wire, po.fixed_cycles, l);
  l.add("plan.cache_hits", static_cast<double>(planner->cache_hits()));
  l.add("plan.cache_misses", static_cast<double>(planner->cache_misses()));
  l.add("plan.cone_hits", static_cast<double>(planner->cone_hits()));
  l.add("plan.cone_misses", static_cast<double>(planner->cone_misses()));
  l.add("plan.runs", 1);
}

/// Accumulates one traced run's OT and comm ledger.
void add_run_stats(Ledger& l, const core::RunStats& s) {
  l.add("ot.choices", static_cast<double>(s.ot_choices));
  l.add("ot.base_ots", static_cast<double>(s.ot_base_ots));
  l.add("ot.online_bytes", static_cast<double>(s.ot_online_bytes));
  l.add("ot.ms", static_cast<double>(s.ot_wall_ns) / 1e6);
  l.add("ot.offline_ms", static_cast<double>(s.ot_offline_wall_ns) / 1e6);
  l.add("comm.table_bytes", static_cast<double>(s.comm.garbled_table_bytes));
  l.add("comm.ot_bytes", static_cast<double>(s.comm.ot_bytes));
  l.add("comm.label_bytes", static_cast<double>(s.comm.input_label_bytes));
  l.add("comm.output_bytes", static_cast<double>(s.comm.output_bytes));
  l.add("garbled", static_cast<double>(s.garbled_non_xor));
}

const char* const kHookNames[] = {"hook.start_ms",       "hook.begin_ms",
                                  "hook.garbler_work_ms", "hook.evaluator_work_ms",
                                  "hook.sample_latch_ms", "hook.ot_refill_ms",
                                  "hook.finish_ms"};

double hooks_total(const Ledger& l) {
  double t = 0;
  for (const char* n : kHookNames) t += l.get(n);
  return t;
}

// ---------------------------------------------------------------------------
// Workload interface
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Threads the workload keeps busy (the cpu_util denominator).
  [[nodiscard]] virtual std::size_t threads() const = 0;
  /// Builds a fresh deployment (tearing down the previous one) and primes it
  /// with one run. Timed as set-up.
  virtual void setup(InputRng& rng) = 0;
  /// In-process SkipGateDriver totals the workload's runs must reproduce.
  [[nodiscard]] virtual core::RunStats driver_reference() = 0;
  /// One plain run on fresh inputs (the path the hook-timed run mirrors);
  /// throws on any mismatch. The served workload's client path is measured
  /// separately (measure_served); its plain run is the in-process replay.
  virtual RunSample run(InputRng& rng, const core::RunStats& ref) = 0;
  /// One run with its layers timed into `l` (hook.*, transport.*, and the
  /// "attributed_ms" share of its wall time the hooks account for).
  virtual RunSample run_traced(InputRng& rng, const core::RunStats& ref, Ledger& l) = 0;
  /// Replays one run's planning in the workload's cache state (plan.*).
  virtual void replay_plan_once(Ledger& l) = 0;
};

// ---------------------------------------------------------------------------
// ARM Hamming-160 (shared by the warm, cold and served workloads)
// ---------------------------------------------------------------------------

struct ArmInputs {
  std::vector<std::uint32_t> alice;
  std::vector<std::uint32_t> bob;
  std::vector<std::uint32_t> expected;  ///< ISS reference output memory
};

class HammingBase : public Workload {
 public:
  HammingBase() {
    exec_.ot_backend = gc::OtBackend::Iknp;
    exec_.threads = 1;
  }
  [[nodiscard]] std::size_t threads() const override { return 1; }

  /// WarmState options as Arm2Gc::Session builds them for this tuning.
  [[nodiscard]] core::WarmState::Options warm_options() const {
    core::WarmState::Options w;
    w.plan_cache_budget_bytes = exec_.plan_cache_budget_bytes;
    w.cone_memo_budget_bytes = exec_.cone_memo_budget_bytes;
    w.ot_backend = exec_.ot_backend;
    w.ot_pool = exec_.ot_pool;
    w.seed = core::kDefaultProtocolSeed;
    return w;
  }

 protected:
  void build_machine() {
    const arm2gc::programs::Program prog = arm2gc::programs::hamming(kHammingWords);
    machine_ = std::make_unique<arm::Arm2Gc>(prog.cfg, prog.words);
  }

  ArmInputs draw(InputRng& rng) const {
    ArmInputs in;
    in.alice = rng.words(kHammingWords);
    in.bob = rng.words(kHammingWords);
    in.expected = machine_->run_reference(in.alice, in.bob).outputs;
    return in;
  }

  [[nodiscard]] core::PartyOptions party_opts() const {
    core::ExecOptions e = exec_;
    e.plan_cache = true;  // as Arm2Gc::Session forces it
    return machine_->party_options(core::Role::Garbler, 1u << 20, gc::Scheme::HalfGates, e);
  }

  /// Timed run on `session`, or on a fresh Session built and dropped inside
  /// the timed region when it is null.
  RunSample session_run(arm::Arm2Gc::Session* session, const ArmInputs& in,
                        const core::RunStats& ref) {
    RunSample s;
    const Usage u0 = Usage::now();
    const auto t0 = Clock::now();
    arm::Arm2GcResult r;
    if (session != nullptr) {
      r = session->run(in.alice, in.bob);
    } else {
      arm::Arm2Gc::Session fresh(*machine_, exec_);
      r = fresh.run(in.alice, in.bob);
    }
    s.wall_ms = ms_since(t0);
    s.usage = Usage::now() - u0;
    s.cpu_ms = s.usage.cpu_ms();
    check(r.outputs == in.expected, "outputs differ from the ISS reference");
    check_counts(r.stats, ref);
    s.stats = r.stats;
    return s;
  }

  /// Timed hook-by-hook lock-step run over the given warm pair (null = cold:
  /// fresh pair built inside the timed region, as a fresh Session does).
  RunSample lockstep_run(core::WarmState* gw, core::WarmState* ew, const ArmInputs& in,
                         const core::RunStats& ref, Ledger& l) {
    RunSample s;
    const Usage u0 = Usage::now();
    const auto t0 = Clock::now();
    std::unique_ptr<core::WarmState> fresh_g;
    std::unique_ptr<core::WarmState> fresh_e;
    if (gw == nullptr) {
      fresh_g = std::make_unique<core::WarmState>(core::Role::Garbler, warm_options());
      fresh_e = std::make_unique<core::WarmState>(core::Role::Evaluator, warm_options());
      gw = fresh_g.get();
      ew = fresh_e.get();
    }
    Ledger hooks;
    core::RunStats eval_stats;
    const core::RunResult r = run_lockstep_timed(
        machine_->cpu().nl, party_opts(), gw, ew, machine_->alice_input_bits(in.alice),
        machine_->bob_input_bits(in.bob), {}, nullptr, hooks, eval_stats);
    fresh_g.reset();
    fresh_e.reset();
    s.wall_ms = ms_since(t0);
    s.usage = Usage::now() - u0;
    s.cpu_ms = s.usage.cpu_ms();
    check(machine_->decode_output_bits(r.final_outputs) == in.expected,
          "outputs differ from the ISS reference");
    check(r.stats.table_digest == eval_stats.table_digest,
          "garbler sent-table digest != evaluator received-table digest");
    check_counts(r.stats, ref);
    for (const auto& [k, v] : hooks.all()) l.add(k, v);
    l.add("attributed_ms", hooks_total(hooks));
    s.stats = r.stats;
    return s;
  }

  /// Planner replay against caches that persist across replays (primed by
  /// one replay first), as a warm WarmState's do.
  void replay_warm(Ledger& l) {
    if (!cache_) {
      cache_ = std::make_unique<core::PlanCache>(exec_.plan_cache_budget_bytes);
      memo_ = std::make_unique<core::ConeMemo>(exec_.cone_memo_budget_bytes);
      Ledger scratch;
      replay_once(machine_->cpu().nl, party_opts(), cache_.get(), memo_.get(), nullptr, {},
                  nullptr, scratch);
    }
    replay_once(machine_->cpu().nl, party_opts(), cache_.get(), memo_.get(), nullptr, {}, nullptr,
                l);
  }

  core::ExecOptions exec_;
  std::unique_ptr<arm::Arm2Gc> machine_;
  std::unique_ptr<core::PlanCache> cache_;
  std::unique_ptr<core::ConeMemo> memo_;
};

/// hamming160_warm: one long-lived Session, fresh private inputs every run.
class HammingWarm final : public HammingBase {
 public:
  void setup(InputRng& rng) override {
    session_.reset();
    machine_.reset();
    build_machine();
    session_ = std::make_unique<arm::Arm2Gc::Session>(*machine_, exec_);
    const ArmInputs in = draw(rng);
    (void)session_->run(in.alice, in.bob);  // priming run: cold plans, base OTs
  }

  core::RunStats driver_reference() override {
    // A Session's second run: warm plans and warm OT extension state.
    InputRng rng(0);
    arm::Arm2Gc::Session s(*machine_, exec_);
    const ArmInputs in = draw(rng);
    (void)s.run(in.alice, in.bob);
    return s.run(in.alice, in.bob).stats;
  }

  RunSample run(InputRng& rng, const core::RunStats& ref) override {
    return session_run(session_.get(), draw(rng), ref);
  }

  RunSample run_traced(InputRng& rng, const core::RunStats& ref, Ledger& l) override {
    if (!traced_g_) {
      traced_g_ = std::make_unique<core::WarmState>(core::Role::Garbler, warm_options());
      traced_e_ = std::make_unique<core::WarmState>(core::Role::Evaluator, warm_options());
      // Priming run (cold plans, base OTs), as the Session's own in setup().
      Ledger scratch;
      core::RunStats eval_stats;
      const ArmInputs in = draw(rng);
      (void)run_lockstep_timed(machine_->cpu().nl, party_opts(), traced_g_.get(),
                               traced_e_.get(), machine_->alice_input_bits(in.alice),
                               machine_->bob_input_bits(in.bob), {}, nullptr, scratch,
                               eval_stats);
    }
    return lockstep_run(traced_g_.get(), traced_e_.get(), draw(rng), ref, l);
  }

  void replay_plan_once(Ledger& l) override { replay_warm(l); }

 private:
  std::unique_ptr<arm::Arm2Gc::Session> session_;
  std::unique_ptr<core::WarmState> traced_g_;
  std::unique_ptr<core::WarmState> traced_e_;
};

/// hamming160_cold: a fresh Session (no warm state) for every run.
class HammingCold final : public HammingBase {
 public:
  void setup(InputRng& rng) override {
    machine_.reset();
    build_machine();
    const ArmInputs in = draw(rng);
    arm::Arm2Gc::Session s(*machine_, exec_);
    (void)s.run(in.alice, in.bob);  // priming run
  }

  core::RunStats driver_reference() override {
    InputRng rng(0);
    arm::Arm2Gc::Session s(*machine_, exec_);
    const ArmInputs in = draw(rng);
    return s.run(in.alice, in.bob).stats;
  }

  RunSample run(InputRng& rng, const core::RunStats& ref) override {
    return session_run(nullptr, draw(rng), ref);
  }

  RunSample run_traced(InputRng& rng, const core::RunStats& ref, Ledger& l) override {
    return lockstep_run(nullptr, nullptr, draw(rng), ref, l);
  }

  void replay_plan_once(Ledger& l) override {
    core::PlanCache cache(exec_.plan_cache_budget_bytes);
    core::ConeMemo memo(exec_.cone_memo_budget_bytes);
    replay_once(machine_->cpu().nl, party_opts(), &cache, &memo, nullptr, {}, nullptr, l);
  }
};

// ---------------------------------------------------------------------------
// tgmatmult8_tcp
// ---------------------------------------------------------------------------

struct MatInputs {
  circuits::TgInstance inst;
  std::vector<std::uint64_t> expected;  ///< plain C++ product, row-major, mod 2^32
};

class MatmultTcp final : public Workload {
 public:
  // One thread per party, each pinned to two CPUs. With a 2-worker pool per
  // party (3 threads on 2 CPUs) one busy CPU raised p90 by ~10 % on a 4-vCPU
  // KVM host, and the process-to-process spread of p90 followed host load;
  // a single-threaded party moves to its other CPU and did not change.
  static constexpr std::size_t kPartyThreads = 1;

  MatmultTcp() {
    opts_.ot_backend = gc::OtBackend::Iknp;
    opts_.threads = kPartyThreads;
  }
  [[nodiscard]] std::size_t threads() const override { return 2 * kPartyThreads; }

  void setup(InputRng& rng) override {
    listener_.reset();
    listener_ = std::make_unique<gc::SocketListener>("127.0.0.1", 0);
    const MatInputs in = draw(rng);
    opts_.fixed_cycles = in.inst.cycles;
    (void)tcp_run(in, nullptr);  // priming run
  }

  core::RunStats driver_reference() override {
    InputRng rng(0);
    const MatInputs in = draw(rng);
    core::RunOptions ro;
    ro.fixed_cycles = in.inst.cycles;
    ro.exec.ot_backend = opts_.ot_backend;
    core::SkipGateDriver driver(in.inst.nl, ro);
    return driver.run(in.inst.alice, in.inst.bob, in.inst.pub, &in.inst.streams).stats;
  }

  RunSample run(InputRng& rng, const core::RunStats& ref) override {
    const MatInputs in = draw(rng);
    RunSample s = tcp_run(in, nullptr);
    check_counts(s.stats, ref);
    return s;
  }

  RunSample run_traced(InputRng& rng, const core::RunStats& ref, Ledger& l) override {
    const MatInputs in = draw(rng);
    RunSample s = tcp_run(in, &l);
    check_counts(s.stats, ref);
    return s;
  }

  void replay_plan_once(Ledger& l) override {
    // The garbler endpoint's planner of one cold TCP run: no shared caches,
    // serial classification as on a single-threaded party.
    InputRng rng(0);
    const MatInputs in = draw(rng);
    replay_once(in.inst.nl, opts_, nullptr, nullptr, nullptr, in.inst.pub, &in.inst.streams, l);
  }

 private:
  static MatInputs draw(InputRng& rng) {
    const std::vector<std::uint32_t> a = rng.words(kMatN * kMatN);
    const std::vector<std::uint32_t> b = rng.words(kMatN * kMatN);
    MatInputs in{circuits::tg_matmult(kMatN, a, b), {}};
    for (std::size_t i = 0; i < kMatN; ++i) {
      for (std::size_t j = 0; j < kMatN; ++j) {
        std::uint32_t acc = 0;
        for (std::size_t k = 0; k < kMatN; ++k) acc += a[i * kMatN + k] * b[k * kMatN + j];
        in.expected.push_back(acc);
      }
    }
    return in;
  }

  /// One run: connect, then each party's endpoint on its own thread,
  /// pinned to its half of the process's CPUs, as two parties on separate
  /// cores would run. With `l` set, both
  /// roles run hook by hook over TimedTransport decorators.
  RunSample tcp_run(const MatInputs& in, Ledger* l) {
    RunSample s;
    const Usage u0 = Usage::now();
    const auto t0 = Clock::now();
    // connect() completes from the listen backlog, so accepting afterwards on
    // the same thread cannot block.
    std::unique_ptr<gc::SocketDuplex> esock =
        gc::SocketDuplex::connect("127.0.0.1", listener_->port());
    std::unique_ptr<gc::SocketDuplex> gsock = listener_->accept();
    const circuits::TgInstance& inst = in.inst;
    core::RunResult gres;
    core::RunResult eres;
    std::exception_ptr gerr;
    std::exception_ptr eerr;
    Ledger gl;
    Ledger el;
    std::thread garbler([&] {
      pin_current_thread(cpus_.first);
      try {
        if (l != nullptr) {
          TimedTransport tx(gsock->end());
          core::GarblerEndpoint g(inst.nl, opts_, tx);
          gres = run_garbler_timed(g, inst.alice, inst.pub, &inst.streams, gl);
          add_transport(gl, tx);
        } else {
          core::GarblerEndpoint g(inst.nl, opts_, gsock->end());
          gres = g.run(inst.alice, inst.pub, &inst.streams);
        }
      } catch (...) {
        gerr = std::current_exception();
        gsock->close();
      }
    });
    std::thread evaluator([&] {
      pin_current_thread(cpus_.second);
      try {
        if (l != nullptr) {
          TimedTransport tx(esock->end());
          core::EvaluatorEndpoint e(inst.nl, opts_, tx);
          eres = run_evaluator_timed(e, inst.bob, inst.pub, &inst.streams, el);
          add_transport(el, tx);
        } else {
          core::EvaluatorEndpoint e(inst.nl, opts_, esock->end());
          eres = e.run(inst.bob, inst.pub, &inst.streams);
        }
      } catch (...) {
        eerr = std::current_exception();
        esock->close();
      }
    });
    garbler.join();
    evaluator.join();
    s.wall_ms = ms_since(t0);
    s.usage = Usage::now() - u0;
    s.cpu_ms = s.usage.cpu_ms();
    // The first real error wins over the peer's teardown echo.
    if (gerr && !eerr) std::rethrow_exception(gerr);
    if (eerr && !gerr) std::rethrow_exception(eerr);
    if (gerr && eerr) {
      try {
        std::rethrow_exception(gerr);
      } catch (const gc::TransportClosed&) {
        std::rethrow_exception(eerr);
      }
    }
    check(inst.decode(gres.sampled_outputs) == in.expected,
          "matrix product differs from the plaintext reference");
    check(gres.stats.table_digest == eres.stats.table_digest,
          "garbler sent-table digest != evaluator received-table digest");
    s.stats = gres.stats;
    // A socket endpoint's own RunStats.comm reads 0: the per-end sent()
    // ledgers of both sockets together are the run's traffic.
    s.stats.comm = gsock->sent();
    s.stats.comm += esock->sent();
    s.stats.ot_wall_ns += eres.stats.ot_wall_ns;
    s.stats.ot_offline_wall_ns += eres.stats.ot_offline_wall_ns;
    if (l != nullptr) {
      for (const auto& [k, v] : gl.all()) l->add(k, v);
      for (const auto& [k, v] : el.all()) {
        if (k != "cycles") l->add(k, v);
      }
      // The garbler's schedule spans the protocol (its hooks include every
      // wait on the evaluator), so it is the attributed share of the run.
      l->add("attributed_ms", hooks_total(gl));
    }
    return s;
  }

  static void add_transport(Ledger& l, const TimedTransport& tx) {
    l.add("transport.send_calls", static_cast<double>(tx.send_calls));
    l.add("transport.send_ms", tx.send_ms);
    l.add("transport.recv_wait_ms", tx.recv_ms);
  }

  core::PartyOptions opts_;
  std::pair<CpuSet, CpuSet> cpus_ = split_cpus();
  std::unique_ptr<gc::SocketListener> listener_;
};

// ---------------------------------------------------------------------------
// hamming160_served
// ---------------------------------------------------------------------------

class HammingServed final : public HammingBase {
 public:
  static constexpr std::size_t kClients = 3;
  static constexpr const char* kProgram = "hamming160";

  [[nodiscard]] std::size_t threads() const override { return kClients + 1; }

  void setup(InputRng& rng) override {
    service_.reset();
    machine_.reset();
    build_machine();
    alice_ = rng.words(kHammingWords);
    serve::ProgramSpec spec;
    spec.name = kProgram;
    spec.nl = &machine_->cpu().nl;
    spec.opts = machine_->party_options(core::Role::Garbler);
    spec.alice_bits = machine_->alice_input_bits(alice_);
    serve::ServiceOptions so;
    so.shards = 1;
    so.max_clients = 4 * kClients + 8;
    so.warm_pool = 2 * kClients;
    service_ = std::make_unique<serve::GarblerService>(std::vector<serve::ProgramSpec>{spec}, so);
    service_->start();
    copts_.program = kProgram;
    copts_.ot_backend = exec_.ot_backend;
    copts_.halt_wire = machine_->cpu().halt_wire;
    core::WarmState warm(core::Role::Evaluator, warm_options());
    (void)serve::run_client("127.0.0.1", service_->port(), machine_->cpu().nl, copts_,
                            machine_->bob_input_bits(rng.words(kHammingWords)), {}, nullptr,
                            &warm);  // priming run
  }

  core::RunStats driver_reference() override {
    // Every served run re-bases its OT extension (both the service's pooled
    // WarmState and the client's), so the in-process reference is a cold-OT
    // driver run; plan caching never changes counts.
    InputRng rng(0);
    return machine_->run(alice_, rng.words(kHammingWords), 1u << 20, gc::Scheme::HalfGates, exec_)
        .stats;
  }

  /// One client run with fresh private inputs for the evaluator (the
  /// garbler's inputs are part of the registered program).
  RunSample run_client(InputRng& rng, core::WarmState& warm, const core::RunStats& ref) {
    const std::vector<std::uint32_t> bob = rng.words(kHammingWords);
    const std::vector<std::uint32_t> expected = machine_->run_reference(alice_, bob).outputs;
    RunSample s;
    const auto t0 = Clock::now();
    const serve::ClientResult res =
        serve::run_client("127.0.0.1", service_->port(), machine_->cpu().nl, copts_,
                          machine_->bob_input_bits(bob), {}, nullptr, &warm);
    s.wall_ms = ms_since(t0);
    check(machine_->decode_output_bits(res.outputs) == expected,
          "outputs differ from the ISS reference");
    check(res.table_digest == res.stats.table_digest,
          "service sent-table digest != client received-table digest");
    s.stats = res.stats;
    s.stats.garbled_non_xor = res.garbled_non_xor;
    s.stats.comm = res.comm_total();
    check_counts(s.stats, ref);
    return s;
  }

  /// The lock-step replay of the served configuration that stands in for
  /// the service's internal garbler schedule: warm plans on both sides, OT
  /// state re-based before every run, as the service and client do.
  RunSample run(InputRng& rng, const core::RunStats& ref) override {
    prepare_replay();
    const ArmInputs in = replay_inputs(rng);
    RunSample s;
    const Usage u0 = Usage::now();
    const auto t0 = Clock::now();
    core::ExecOptions e = exec_;
    e.garbler_warm = replay_g_.get();
    e.evaluator_warm = replay_e_.get();
    const arm::Arm2GcResult r = machine_->run(in.alice, in.bob, 1u << 20, gc::Scheme::HalfGates, e);
    s.wall_ms = ms_since(t0);
    s.usage = Usage::now() - u0;
    s.cpu_ms = s.usage.cpu_ms();
    check(r.outputs == in.expected, "outputs differ from the ISS reference");
    check_counts(r.stats, ref);
    s.stats = r.stats;
    return s;
  }

  RunSample run_traced(InputRng& rng, const core::RunStats& ref, Ledger& l) override {
    prepare_replay();
    return lockstep_run(replay_g_.get(), replay_e_.get(), replay_inputs(rng), ref, l);
  }

  void replay_plan_once(Ledger& l) override { replay_warm(l); }

  [[nodiscard]] serve::ServiceStats service_stats() const { return service_->stats(); }
  void stop() { service_->stop(); }

 private:
  void prepare_replay() {
    if (!replay_g_) {
      replay_g_ = std::make_unique<core::WarmState>(core::Role::Garbler, warm_options());
      replay_e_ = std::make_unique<core::WarmState>(core::Role::Evaluator, warm_options());
    }
    replay_g_->reset_ot();
    replay_e_->reset_ot();
  }

  ArmInputs replay_inputs(InputRng& rng) const {
    ArmInputs in;
    in.alice = alice_;
    in.bob = rng.words(kHammingWords);
    in.expected = machine_->run_reference(in.alice, in.bob).outputs;
    return in;
  }

  std::vector<std::uint32_t> alice_;
  serve::ClientOptions copts_;
  std::unique_ptr<serve::GarblerService> service_;
  std::unique_ptr<core::WarmState> replay_g_;
  std::unique_ptr<core::WarmState> replay_e_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "hamming160_warm") return std::make_unique<HammingWarm>();
  if (name == "hamming160_cold") return std::make_unique<HammingCold>();
  if (name == "tgmatmult8_tcp") return std::make_unique<MatmultTcp>();
  if (name == "hamming160_served") return std::make_unique<HammingServed>();
  throw std::invalid_argument("unknown workload: " + name);
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Aggregates of a set of measured runs.
struct Window {
  std::vector<double> lat_ms;
  double wall_ms = 0;  ///< summed run wall time
  double cpu_ms = 0;   ///< summed process CPU over the runs
  std::uint64_t comm = 0;
  std::uint64_t garbled = 0;
  Usage usage;
  Ledger stats;  ///< OT and comm ledger (add_run_stats)

  void add(const RunSample& s) {
    lat_ms.push_back(s.wall_ms);
    wall_ms += s.wall_ms;
    cpu_ms += s.cpu_ms;
    comm += s.stats.comm.total();
    garbled += s.stats.garbled_non_xor;
    usage.user_ms += s.usage.user_ms;
    usage.sys_ms += s.usage.sys_ms;
    usage.minor_faults += s.usage.minor_faults;
    usage.ctx_switches += s.usage.ctx_switches;
    add_run_stats(stats, s.stats);
  }
  [[nodiscard]] double runs() const {
    return std::max(1.0, static_cast<double>(lat_ms.size()));
  }
};

/// Counts one attempted run and records a failure instead of throwing.
void attempt(Report& rep, const std::function<void()>& fn) {
  ++rep.attempted;
  try {
    fn();
  } catch (const std::exception& e) {
    rep.fail(e.what());
  }
}

/// Times one set-up of `w`, in seconds.
double time_setup(Workload& w, InputRng& rng) {
  const auto t0 = Clock::now();
  w.setup(rng);
  return ms_since(t0) / 1e3;
}

/// Times the set-up of a throwaway instance of the workload. The set-up
/// samples are spread over the run this way because host contention comes
/// in phases of seconds: back-to-back set-ups would all land in one phase.
double time_spare_setup(const std::string& name, InputRng& rng) {
  const std::unique_ptr<Workload> spare = make_workload(name);
  return time_setup(*spare, rng);
}

/// The end-to-end set.
void emit_end_to_end(Report& rep, const Window& win, const std::vector<double>& setups) {
  // The fast decile is the end-to-end latency. On a shared 4-vCPU KVM host,
  // contention from other tenants comes in phases of seconds that slow every
  // run by 30-60 %, so per-run times are bimodal and the share of slow runs
  // in a process decides where p50, p90, the mean, throughput and CPU per
  // run land. Over ten processes their quartile spreads reached 0.18-0.25
  // on one workload or another; p10 sits in the fast mode in every process
  // that is not contended throughout (spread 0.04-0.09). The other figures
  // are reported per layer (emit_load).
  rep.metric("latency_p10_ms", quantile(win.lat_ms, 0.1), "ms");
  rep.metric("setup_s", median(setups), "s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  rep.metric("comm_bytes_per_run", static_cast<double>(win.comm) / win.runs(), "B");
  rep.metric("garbled_non_xor_per_run", static_cast<double>(win.garbled) / win.runs(), "count");
  rep.metric("success_rate",
             rep.attempted == 0 ? 0.0
                                : static_cast<double>(rep.attempted - rep.failed) /
                                      static_cast<double>(rep.attempted),
             "ratio");
}

/// The untraced load figures of the traced run: latency quantiles of the
/// plain runs, and throughput and CPU per run, which come in already
/// normalised because the single-client and served loops count them
/// differently.
void emit_load(Report& rep, const Window& plain, double runs_per_s, double cpu_ms_per_run) {
  rep.metric("latency_p50_ms", median(plain.lat_ms), "ms");
  rep.metric("latency_p90_ms", quantile(plain.lat_ms, 0.9), "ms");
  rep.metric("runs_per_s", runs_per_s, "1/s");
  rep.metric("cpu_ms_per_run", cpu_ms_per_run, "ms");
}

/// Alternates plain and traced runs for `seconds`, so both see the same
/// host conditions; the traced runs fill `hooks` (hook.*, transport.*,
/// attributed_ms).
struct Alternation {
  Window plain;
  Window traced;
  Ledger hooks;
};
Alternation alternate(Report& rep, Workload& w, InputRng& rng, const core::RunStats& ref,
                      double seconds) {
  Alternation a;
  const auto t0 = Clock::now();
  while (ms_since(t0) < seconds * 1e3) {
    attempt(rep, [&] { a.plain.add(w.run(rng, ref)); });
    attempt(rep, [&] {
      Ledger one;
      const RunSample s = w.run_traced(rng, ref, one);
      for (const auto& [k, v] : one.all()) a.hooks.add(k, v);
      a.traced.add(s);
    });
  }
  return a;
}

/// Replays planning for about `seconds` (at least three runs).
Ledger plan_replays(Workload& w, double seconds) {
  Ledger plan;
  const auto t0 = Clock::now();
  for (int i = 0; i < 3 || ms_since(t0) < seconds * 1e3; ++i) w.replay_plan_once(plan);
  return plan;
}

/// Per-layer figures. `a` holds the hook-timed runs and their plain
/// counterparts; `work` is the window whose OT/comm ledger, resource usage
/// and latency describe the workload itself (the traced runs, except for
/// the served workload).
void emit_layers(Report& rep, const Alternation& a, const Ledger& plan, const Window& work,
                 double cpu_util, double unattributed_ms) {
  const double plan_runs = std::max(1.0, plan.get("plan.runs"));
  auto ratio = [](double hit, double miss) { return hit + miss == 0 ? 0.0 : hit / (hit + miss); };
  rep.metric("plan.setup_ms", plan.get("plan.setup_ms") / plan_runs, "ms");
  rep.metric("plan.forward_ms", plan.get("plan.forward_ms") / plan_runs, "ms");
  rep.metric("plan.finish_ms", plan.get("plan.finish_ms") / plan_runs, "ms");
  rep.metric("plan.cache_hit_ratio",
             ratio(plan.get("plan.cache_hits"), plan.get("plan.cache_misses")), "ratio");
  rep.metric("plan.cone_hit_ratio",
             ratio(plan.get("plan.cone_hits"), plan.get("plan.cone_misses")), "ratio");

  const double n = a.traced.runs();
  const Ledger& h = a.hooks;
  double per_cycle = 0;
  for (const char* name : kHookNames) {
    rep.metric(name, h.get(name) / n, "ms");
    if (std::string(name) != "hook.start_ms" && std::string(name) != "hook.finish_ms") {
      per_cycle += h.get(name);
    }
  }
  const double cycles = h.get("cycles");
  rep.metric("cycles", cycles / n, "count");
  rep.metric("schedule_us_per_cycle", cycles == 0 ? 0.0 : 1e3 * per_cycle / cycles, "us");

  const double rate = garble_gates_per_s();
  const double p50_s = median(work.lat_ms) / 1e3;
  rep.metric("garble.gates_per_s", rate, "1/s");
  rep.metric("garble.roofline_share",
             p50_s <= 0 ? 0.0 : (work.stats.get("garbled") / work.runs() / rate) / p50_s,
             "ratio");

  const double m = work.runs();
  rep.metric("ot.choices", work.stats.get("ot.choices") / m, "count");
  rep.metric("ot.base_ots", work.stats.get("ot.base_ots") / m, "count");
  rep.metric("ot.online_bytes", work.stats.get("ot.online_bytes") / m, "B");
  rep.metric("ot.ms", work.stats.get("ot.ms") / m, "ms");
  rep.metric("ot.offline_ms", work.stats.get("ot.offline_ms") / m, "ms");

  rep.metric("transport.send_calls", h.get("transport.send_calls") / n, "count");
  rep.metric("transport.send_ms", h.get("transport.send_ms") / n, "ms");
  rep.metric("transport.recv_wait_ms", h.get("transport.recv_wait_ms") / n, "ms");
  rep.metric("comm.table_bytes", work.stats.get("comm.table_bytes") / m, "B");
  rep.metric("comm.ot_bytes", work.stats.get("comm.ot_bytes") / m, "B");
  rep.metric("comm.label_bytes", work.stats.get("comm.label_bytes") / m, "B");
  rep.metric("comm.output_bytes", work.stats.get("comm.output_bytes") / m, "B");

  rep.metric("cpu_util", cpu_util, "ratio");
  rep.metric("proc.minor_faults", static_cast<double>(work.usage.minor_faults) / m, "count");
  rep.metric("proc.sys_ms", work.usage.sys_ms / m, "ms");
  rep.metric("proc.ctx_switches", static_cast<double>(work.usage.ctx_switches) / m, "count");

  const double plain_p50 = median(a.plain.lat_ms);
  rep.metric("unattributed_ms", unattributed_ms, "ms");
  rep.metric("trace_overhead_pct",
             plain_p50 <= 0 ? 0.0 : 100.0 * (median(a.traced.lat_ms) - plain_p50) / plain_p50,
             "%");
}

/// Single-client closed loop (warm, cold, TCP).
Report measure_closed_loop(Workload& w, const Options& o) {
  Report rep;
  InputRng rng(o.seed);
  std::vector<double> setups{time_setup(w, rng)};
  const core::RunStats ref = w.driver_reference();

  // Warm-up (5 % of the run): lets allocator, page cache and CPU caches settle.
  const auto warm0 = Clock::now();
  while (ms_since(warm0) < o.seconds * 50) attempt(rep, [&] { (void)w.run(rng, ref); });

  if (!o.trace) {
    Window win;
    const double window_ms = o.seconds * 1e3;
    const auto t0 = Clock::now();
    while (ms_since(t0) < window_ms) {
      // The remaining set-up samples, evenly spaced over the window.
      const double due = window_ms * static_cast<double>(setups.size() - 1) / (kSetups - 1);
      if (setups.size() < kSetups && ms_since(t0) >= due) {
        setups.push_back(time_spare_setup(o.workload, rng));
      } else {
        attempt(rep, [&] { win.add(w.run(rng, ref)); });
      }
    }
    emit_end_to_end(rep, win, setups);
    return rep;
  }

  const Alternation a = alternate(rep, w, rng, ref, o.seconds * 0.8);
  const Ledger plan = plan_replays(w, o.seconds * 0.1);
  const double cpu_util =
      a.traced.cpu_ms / (a.traced.wall_ms * static_cast<double>(w.threads()));
  const double unattributed = (a.traced.wall_ms - a.hooks.get("attributed_ms")) / a.traced.runs();
  emit_layers(rep, a, plan, a.traced, cpu_util, unattributed);
  // One client: runs per second of protocol time.
  emit_load(rep, a.plain, a.plain.runs() / (a.plain.wall_ms / 1e3),
            a.plain.cpu_ms / a.plain.runs());
  // The serve layer is not on this workload's path.
  rep.metric("serve.shard_cpu_ms", 0, "ms");
  rep.metric("serve.client_cpu_ms", 0, "ms");
  rep.metric("serve.warm_hit_ratio", 0, "ratio");
  rep.metric("serve.send_queue_high_water_bytes", 0, "B");
  rep.metric("serve.runs_failed", 0, "count");
  return rep;
}

/// hamming160_served: kClients closed-loop client threads against one
/// service shard, measured over a window that opens after a warm-up.
/// Throughput counts completions inside the window; latency covers every
/// run started inside it.
Report measure_served(HammingServed& w, const Options& o) {
  Report rep;
  InputRng rng(o.seed);
  // Set-up samples come in two groups, before and after the client window
  // (a spare service cannot be started beside the measured one).
  std::vector<double> setups;
  while (!o.trace && setups.size() < kSetups / 2) {
    setups.push_back(time_spare_setup(o.workload, rng));
  }
  setups.push_back(time_setup(w, rng));
  const core::RunStats ref = w.driver_reference();

  struct ClientRun {
    Clock::time_point start;
    Clock::time_point end;
    RunSample sample;
  };
  const double window_s = o.trace ? o.seconds * 0.5 : o.seconds;
  const auto window0 = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(o.seconds * 0.1));
  const auto window1 = window0 + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(window_s));
  std::mutex mu;  // guards rep
  std::vector<std::vector<ClientRun>> runs(HammingServed::kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < HammingServed::kClients; ++c) {
    clients.emplace_back([&, c] {
      InputRng crng(o.seed * 1000003ULL + c + 1);
      core::WarmState warm(core::Role::Evaluator, w.warm_options());
      while (Clock::now() < window1) {
        ClientRun r;
        r.start = Clock::now();
        std::string error;
        try {
          r.sample = w.run_client(crng, warm, ref);
        } catch (const std::exception& e) {
          error = e.what();
        }
        r.end = Clock::now();
        const std::lock_guard<std::mutex> lock(mu);
        ++rep.attempted;
        if (error.empty()) {
          runs[c].push_back(r);
        } else {
          rep.fail(error);
        }
      }
    });
  }
  std::this_thread::sleep_until(window0);
  const Usage u0 = Usage::now();
  const serve::ServiceStats s0 = w.service_stats();
  double client_cpu0 = 0;
  for (std::thread& t : clients) client_cpu0 += thread_cpu_ms(t);
  std::this_thread::sleep_until(window1);
  const Usage u1 = Usage::now();
  const serve::ServiceStats s1 = w.service_stats();
  double client_cpu1 = 0;
  for (std::thread& t : clients) client_cpu1 += thread_cpu_ms(t);
  for (std::thread& t : clients) t.join();

  Window win;
  double completed = 0;
  for (const auto& per_client : runs) {
    for (const ClientRun& r : per_client) {
      if (r.start >= window0 && r.start < window1) win.add(r.sample);
      if (r.end >= window0 && r.end <= window1) completed += 1;
    }
  }
  completed = std::max(1.0, completed);
  const double proc_cpu = (u1 - u0).cpu_ms();
  if (!o.trace) {
    w.stop();
    while (setups.size() < kSetups) setups.push_back(time_spare_setup(o.workload, rng));
    emit_end_to_end(rep, win, setups);
    return rep;
  }

  // Traced: the window above gives the serve layer and the client-side OT
  // and comm ledger; the service's own garbler schedule is internal to its
  // shard loop, so the hook breakdown comes from the lock-step replay of
  // the served configuration (HammingServed::run / run_traced).
  const serve::ServiceStats s_end = w.service_stats();
  w.stop();
  const Alternation a = alternate(rep, w, rng, ref, o.seconds * 0.3);
  const Ledger plan = plan_replays(w, o.seconds * 0.1);
  win.usage = u1 - u0;
  // Serving's share beyond the lock-step schedule of the same run.
  const double unattributed = median(win.lat_ms) - hooks_total(a.hooks) / a.traced.runs();
  emit_layers(rep, a, plan, win, proc_cpu / (window_s * 1e3 * static_cast<double>(w.threads())),
              unattributed);
  emit_load(rep, win, completed / window_s, proc_cpu / completed);
  // Per completed run; the usage figures above are per started run.
  const double client_cpu = client_cpu1 - client_cpu0;
  const std::uint64_t hits = s1.warm_hits - s0.warm_hits;
  const std::uint64_t misses = s1.warm_misses - s0.warm_misses;
  rep.metric("serve.shard_cpu_ms", (proc_cpu - client_cpu) / completed, "ms");
  rep.metric("serve.client_cpu_ms", client_cpu / completed, "ms");
  rep.metric("serve.warm_hit_ratio",
             hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) / static_cast<double>(hits + misses),
             "ratio");
  rep.metric("serve.send_queue_high_water_bytes",
             static_cast<double>(s_end.send_queue_high_water), "B");
  rep.metric("serve.runs_failed", static_cast<double>(s_end.runs_failed), "count");
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"hamming160_warm", "hamming160_cold",
                                                 "tgmatmult8_tcp", "hamming160_served"};
  return names;
}

Report run_workload(const Options& opts) {
  std::unique_ptr<Workload> w = make_workload(opts.workload);
  if (auto* served = dynamic_cast<HammingServed*>(w.get())) return measure_served(*served, opts);
  return measure_closed_loop(*w, opts);
}

CountPin pin_counts(const std::string& workload) {
  std::unique_ptr<Workload> w = make_workload(workload);
  InputRng rng(7);
  w->setup(rng);
  const core::RunStats ref = w->driver_reference();
  CountPin p;
  p.driver_comm = ref.comm.total();
  p.driver_garbled = ref.garbled_non_xor;
  RunSample s;
  if (auto* served = dynamic_cast<HammingServed*>(w.get())) {
    core::WarmState warm(core::Role::Evaluator, served->warm_options());
    s = served->run_client(rng, warm, ref);
    served->stop();
  } else {
    s = w->run(rng, ref);
  }
  p.workload_comm = s.stats.comm.total();
  p.workload_garbled = s.stats.garbled_non_xor;
  return p;
}

}  // namespace perfbench
