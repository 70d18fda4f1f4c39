#include "serve/service.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "crypto/block.h"
#include "gc/transport.h"
#include "gc/transport_socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/poller.h"
#include "serve/wire.h"

namespace arm2gc::serve {

namespace {

/// Protocol cycles a connection may run before yielding the shard back to
/// its ready queue (fairness slice).
constexpr std::uint64_t kSliceCycles = 8;

/// A /metrics request larger than this is not a scrape; drop it.
constexpr std::size_t kMaxHttpHeader = 8192;

std::string warm_key_of(const std::string& program, gc::OtBackend ot, std::size_t pool) {
  return program + "|" + std::to_string(static_cast<unsigned>(ot)) + "|" +
         std::to_string(pool);
}

/// Packs a BitVec little-endian within each byte (the RunSummary outputs
/// encoding).
std::vector<std::uint8_t> pack_bits(const netlist::BitVec& bits) {
  std::vector<std::uint8_t> out((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) out[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Impl: warm pool, per-connection state machine, shards
// ---------------------------------------------------------------------------

struct GarblerService::Impl {
  /// WarmStates pooled per (program, OT backend, pool size). release()
  /// re-bases the OT half before pooling: warm extension streams are
  /// pairing-specific, so handing one to a *different* client would desync
  /// mid-protocol; the plan caches and cone memos — the expensive part —
  /// persist. Re-basing is also the endpoint abort path, which is why a
  /// mid-protocol disconnect returns the state in exactly the same shape as
  /// a clean finish: a pooled WarmState cannot be poisoned by a dying
  /// client.
  class WarmPool {
   public:
    explicit WarmPool(std::size_t cap) : cap_(cap) {}

    std::unique_ptr<core::WarmState> acquire(const std::string& key,
                                             const core::WarmState::Options& wopts,
                                             bool& hit) {
      // Checkout latency covers both shapes: pool hit (lock + pop) and miss
      // (full WarmState construction) — the cold-vs-marginal split the
      // reusable-garbling cost model needs.
      A2G_HIST_TIMER("serve.warm_checkout_ns");
      {
        const std::lock_guard<std::mutex> lock(mu_);
        auto it = pools_.find(key);
        if (it != pools_.end() && !it->second.empty()) {
          std::unique_ptr<core::WarmState> ws = std::move(it->second.back());
          it->second.pop_back();
          hit = true;
          return ws;
        }
      }
      hit = false;
      return std::make_unique<core::WarmState>(core::Role::Garbler, wopts);
    }

    void release(const std::string& key, std::unique_ptr<core::WarmState> ws) {
      if (ws == nullptr || cap_ == 0) return;
      ws->reset_ot();
      const std::lock_guard<std::mutex> lock(mu_);
      auto& v = pools_[key];
      if (v.size() < cap_) v.push_back(std::move(ws));
    }

   private:
    std::mutex mu_;
    std::map<std::string, std::vector<std::unique_ptr<core::WarmState>>> pools_;
    std::size_t cap_;
  };

  enum class Phase : std::uint8_t {
    Hello,
    Start,
    Begin,
    Work,
    Sample,
    Latch,
    Refill,
    Finish,
    WrapUp,
    Drain,
  };

  /// What a connection is waiting for after an advance() pass.
  enum class Waiting : std::uint8_t { Read, Write, Ready, Done };

  /// One client connection: a resumable state machine at schedule-hook
  /// granularity. advance() runs hooks until it either needs bytes the
  /// client has not sent (park on read), has queued more than the soft
  /// send limit (park on write — backpressure), exhausts its fairness
  /// slice, or completes. A hook that recvs without a park cannot
  /// deadlock: the transport falls back to an inline poll() bounded by the
  /// recv deadline. The park predicates come from the endpoint and are
  /// exact, because a park with no read behind it waits out that deadline.
  struct Conn {
    std::unique_ptr<gc::SocketDuplex> sock;
    const ProgramSpec* spec = nullptr;
    core::PartyOptions popts;
    std::string warm_key;
    std::unique_ptr<core::WarmState> warm;
    bool warm_hit = false;
    std::unique_ptr<core::GarblerEndpoint> ep;
    Phase phase = Phase::Hello;
    std::uint64_t cycle = 0;
    std::uint64_t slice = 0;
    bool is_final = false;
    bool readable_hint = false;  ///< poller saw POLLIN since the last park
    core::RunResult result;
    /// When the current phase was entered (dwell = time to the next enter(),
    /// parked waits included — that is the point: dwell attributes p99 to
    /// where connections actually sit).
    std::uint64_t phase_enter_ns = obs::now_ns();

    [[nodiscard]] bool input_hint() const {
      return sock->buffered_in() > 0 || readable_hint;
    }

    [[nodiscard]] static const char* phase_label(Phase p) {
      static constexpr const char* kNames[] = {
          "serve.hello", "serve.start",  "serve.begin",  "serve.work",
          "serve.sample", "serve.latch", "serve.refill", "serve.finish",
          "serve.wrapup", "serve.drain"};
      return kNames[static_cast<std::size_t>(p)];
    }

#if ARM2GC_OBS
    [[nodiscard]] static obs::Histogram& phase_dwell_hist(Phase p) {
      static obs::Histogram* const kHists[] = {
          &obs::Registry::instance().histogram("serve.phase.hello_ns"),
          &obs::Registry::instance().histogram("serve.phase.start_ns"),
          &obs::Registry::instance().histogram("serve.phase.begin_ns"),
          &obs::Registry::instance().histogram("serve.phase.work_ns"),
          &obs::Registry::instance().histogram("serve.phase.sample_ns"),
          &obs::Registry::instance().histogram("serve.phase.latch_ns"),
          &obs::Registry::instance().histogram("serve.phase.refill_ns"),
          &obs::Registry::instance().histogram("serve.phase.finish_ns"),
          &obs::Registry::instance().histogram("serve.phase.wrapup_ns"),
          &obs::Registry::instance().histogram("serve.phase.drain_ns")};
      return *kHists[static_cast<std::size_t>(p)];
    }
#endif

    /// Phase transition: records the outgoing phase's dwell (histogram
    /// always, trace span when tracing is on), then switches.
    void enter(Phase next) {
#if ARM2GC_OBS
      const std::uint64_t now = obs::now_ns();
      phase_dwell_hist(phase).record(now - phase_enter_ns);
      obs::Tracer& tracer = obs::Tracer::instance();
      if (tracer.enabled()) {
        tracer.record(phase_label(phase), "serve", phase_enter_ns,
                      now - phase_enter_ns);
      }
      phase_enter_ns = now;
#endif
      phase = next;
    }

    HelloStatus read_hello(Impl& impl) {
      HelloRequest h{};
      sock->recv_control(&h, sizeof h);
      if (h.magic != kHelloMagic) return HelloStatus::BadMagic;
      if (h.version != kWireVersion) return HelloStatus::BadVersion;
      if (h.name_len == 0 || h.name_len > kMaxProgramName) {
        return HelloStatus::UnknownProgram;
      }
      std::string name(h.name_len, '\0');
      sock->recv_control(name.data(), name.size());
      spec = impl.find_program(name);
      if (spec == nullptr) return HelloStatus::UnknownProgram;
      if (h.reserved0 != 0 || h.ot_backend > static_cast<std::uint8_t>(gc::OtBackend::Precomp)) {
        return HelloStatus::OptionMismatch;
      }
      // The cycle schedule and the public seed are part of the registered
      // contract: a divergence would desync the planners mid-protocol, so
      // it fails loudly at the door instead.
      const crypto::Block seed = crypto::Block::from_bytes(h.protocol_seed);
      if (h.fixed_cycles != spec->opts.fixed_cycles.value_or(0) ||
          h.max_cycles != spec->opts.max_cycles || !(seed == spec->opts.protocol_seed)) {
        return HelloStatus::OptionMismatch;
      }
      popts = spec->opts;
      popts.ot_backend = static_cast<gc::OtBackend>(h.ot_backend);
      popts.ot_pool = static_cast<std::size_t>(h.ot_pool);
      return HelloStatus::Ok;
    }

    void send_summary() {
      const gc::CommStats sent = sock->sent();
      RunSummary s;
      s.cycles = result.stats.cycles;
      s.final_cycle = result.final_cycle;
      s.garbled_non_xor = result.stats.garbled_non_xor;
      result.stats.table_digest.to_bytes(s.table_digest);
      s.comm[0] = sent.garbled_table_bytes;
      s.comm[1] = sent.input_label_bytes;
      s.comm[2] = sent.ot_bytes;
      s.comm[3] = sent.output_bytes;
      s.out_bits = result.final_outputs.size();
      sock->send_control(&s, sizeof s);
      const std::vector<std::uint8_t> packed = pack_bits(result.final_outputs);
      if (!packed.empty()) sock->send_control(packed.data(), packed.size());
    }

    void check_client_summary() {
      RunSummary c{};
      sock->recv_control(&c, sizeof c);
      if (c.magic != kSummaryMagic) {
        throw std::runtime_error("serve: malformed client wrap-up (desynced stream?)");
      }
      if (c.cycles != result.stats.cycles ||
          c.garbled_non_xor != result.stats.garbled_non_xor) {
        throw std::runtime_error("serve: parties disagree on the protocol shape");
      }
      if (!(crypto::Block::from_bytes(c.table_digest) == result.stats.table_digest)) {
        throw std::runtime_error("serve: garbled-table digest mismatch across parties");
      }
    }

    Waiting advance(Impl& impl) {
      for (;;) {
        // Backpressure gate: drain what the kernel will take; past the soft
        // limit this connection is neither read nor advanced until the
        // queue empties.
        if (!sock->try_flush() && sock->pending_out() > impl.opts.send_soft_limit) {
          return Waiting::Write;
        }
        switch (phase) {
          case Phase::Hello: {
            if (!input_hint()) return Waiting::Read;
            readable_hint = false;
            const HelloStatus status = read_hello(impl);
            HelloReply reply;
            reply.status = static_cast<std::uint32_t>(status);
            sock->send_control(&reply, sizeof reply);
            if (status != HelloStatus::Ok) {
              impl.hello_rejected.fetch_add(1, std::memory_order_relaxed);
              return Waiting::Done;
            }
            warm_key = warm_key_of(spec->name, popts.ot_backend, popts.ot_pool);
            core::WarmState::Options wopts;
            wopts.plan_cache_budget_bytes = popts.plan_cache_budget_bytes;
            wopts.cone_memo_budget_bytes = popts.cone_memo_budget_bytes;
            wopts.ot_backend = popts.ot_backend;
            wopts.ot_pool = popts.ot_pool;
            wopts.seed = popts.own_seed();
            warm = impl.warm.acquire(warm_key, wopts, warm_hit);
            (warm_hit ? impl.warm_hits : impl.warm_misses)
                .fetch_add(1, std::memory_order_relaxed);
            ep = std::make_unique<core::GarblerEndpoint>(*spec->nl, popts, sock->end(),
                                                         warm.get());
            enter(Phase::Start);
            break;
          }
          case Phase::Start: {
            // The start-phase OT batch (fixed Bob bits) opens with
            // receiver-first frames under the extension backends; Ideal
            // recvs nothing.
            const bool parks = ep->start_reads();
            if (parks && !input_hint()) return Waiting::Read;
            if (parks) readable_hint = false;
            ep->start(spec->alice_bits, spec->pub_bits, spec->streams);
            cycle = 0;
            enter(Phase::Begin);
            break;
          }
          case Phase::Begin: {
            // Only a cycle that opens an OT window reads (the receiver-first
            // frames of its streamed Bob batch).
            const bool parks = ep->begin_reads(cycle);
            if (parks && !input_hint()) return Waiting::Read;
            if (parks) readable_hint = false;
            ep->begin(cycle);
            enter(Phase::Work);
            break;
          }
          case Phase::Work: {
            is_final = ep->work(cycle);
            enter(Phase::Sample);
            break;
          }
          case Phase::Sample: {
            // Decoding sampled outputs reads the client's output labels —
            // a previous cycle's held ones, or this cycle's when it decodes
            // at once.
            const bool parks = ep->sample_reads();
            if (parks && !input_hint()) return Waiting::Read;
            if (parks) readable_hint = false;
            ep->sample();
            enter(is_final ? Phase::Finish : Phase::Latch);
            break;
          }
          case Phase::Latch: {
            ep->latch();
            enter(Phase::Refill);
            break;
          }
          case Phase::Refill: {
            // Precomp refills exchange receiver-first frames exactly when
            // the pool is below low water; both sides track the same fill
            // level, so our own pool predicts the client's behavior.
            const bool parks = ep->ot_refill_reads();
            if (parks && !input_hint()) return Waiting::Read;
            if (parks) readable_hint = false;
            ep->ot_refill();
            ++cycle;
            enter(Phase::Begin);
            if (++slice >= kSliceCycles) {
              slice = 0;
              return Waiting::Ready;
            }
            break;
          }
          case Phase::Finish: {
            result = ep->finish();
            send_summary();
            enter(Phase::WrapUp);
            break;
          }
          case Phase::WrapUp: {
            if (!input_hint()) return Waiting::Read;
            readable_hint = false;
            check_client_summary();
            impl.runs_ok.fetch_add(1, std::memory_order_relaxed);
            impl.gates_garbled.fetch_add(result.stats.garbled_non_xor,
                                         std::memory_order_relaxed);
            impl.cycles_run.fetch_add(result.stats.cycles, std::memory_order_relaxed);
            // The run is over: drop the endpoint (it borrows the WarmState)
            // and return the warm plan caches to the pool for the next
            // client.
            ep.reset();
            impl.warm.release(warm_key, std::move(warm));
            enter(Phase::Drain);
            break;
          }
          case Phase::Drain: {
            if (!sock->try_flush()) return Waiting::Write;
            return Waiting::Done;
          }
        }
      }
    }
  };

  /// One /metrics scrape in flight: a minimal non-blocking HTTP/1.1
  /// request/response cycle on shard 0's poller. The SocketDuplex is used
  /// purely as an fd owner — HTTP bytes go through raw recv/send and never
  /// touch the framed transport.
  struct HttpConn {
    std::unique_ptr<gc::SocketDuplex> sock;
    std::string in;
    std::string out;
    std::size_t off = 0;
    std::uint64_t opened_ns = obs::now_ns();
  };

  /// One event-loop thread: a private poller, a disjoint connection set
  /// (handed over once at accept through the inbox), a ready queue for
  /// connections mid-slice. Shard 0 additionally owns the listener and,
  /// when telemetry is enabled, the /metrics listener + scrape connections
  /// and the periodic stats snapshot.
  struct Shard {
    Impl* impl;
    std::size_t index;
    Poller poller;
    int wake_r = -1;
    int wake_w = -1;
    std::mutex inbox_mu;
    std::vector<std::unique_ptr<gc::SocketDuplex>> inbox;
    std::map<int, std::unique_ptr<Conn>> conns;
    std::deque<int> ready;
    std::vector<Poller::Event> events;
    std::map<int, std::unique_ptr<HttpConn>> http;  ///< shard 0 only
    std::uint64_t last_publish_ns = 0;
    obs::Gauge* ready_depth_gauge = nullptr;  ///< per-shard ready-queue depth

    Shard(Impl* i, std::size_t idx) : impl(i), index(idx) {
      int pipefd[2];
      if (::pipe(pipefd) != 0) {
        throw std::runtime_error("serve: pipe() failed");
      }
      wake_r = pipefd[0];
      wake_w = pipefd[1];
      // The drain loop reads until empty; a blocking read end would hang it.
      (void)::fcntl(wake_r, F_SETFL, ::fcntl(wake_r, F_GETFL, 0) | O_NONBLOCK);
      poller.add(wake_r, /*want_read=*/true, /*want_write=*/false);
      if (index == 0) {
        impl->listener->set_nonblocking(true);
        poller.add(impl->listener->fd(), /*want_read=*/true, /*want_write=*/false);
        if (impl->metrics_listener != nullptr) {
          impl->metrics_listener->set_nonblocking(true);
          poller.add(impl->metrics_listener->fd(), /*want_read=*/true,
                     /*want_write=*/false);
        }
      }
      ready_depth_gauge = &obs::Registry::instance().gauge(
          "serve.shard" + std::to_string(index) + ".ready_depth");
    }

    ~Shard() {
      if (wake_r >= 0) ::close(wake_r);
      if (wake_w >= 0) ::close(wake_w);
    }

    void wake() {
      const char b = 1;
      for (;;) {
        const ssize_t n = ::write(wake_w, &b, 1);
        if (n >= 0 || errno != EINTR) break;
      }
    }

    void enqueue(std::unique_ptr<gc::SocketDuplex> sock) {
      {
        const std::lock_guard<std::mutex> lock(inbox_mu);
        inbox.push_back(std::move(sock));
      }
      wake();
    }

    void adopt_inbox() {
      std::vector<std::unique_ptr<gc::SocketDuplex>> pending;
      {
        const std::lock_guard<std::mutex> lock(inbox_mu);
        pending.swap(inbox);
      }
      for (auto& sock : pending) {
        sock->set_nonblocking(true);
        sock->set_send_limit(impl->opts.send_hard_limit);
        sock->set_recv_timeout_ms(impl->opts.recv_timeout_ms);
        const int fd = sock->fd();
        auto conn = std::make_unique<Conn>();
        conn->sock = std::move(sock);
        poller.add(fd, /*want_read=*/true, /*want_write=*/false);
        conns.emplace(fd, std::move(conn));
      }
    }

    /// The protocol run itself is over: the result exists and the summary
    /// went out. WrapUp/Drain only wait for the client's cross-check frame
    /// and the final flush — losing the connection there is not a failed run.
    static bool run_finished(const Conn& c) {
      return c.phase == Phase::WrapUp || c.phase == Phase::Drain;
    }

    void teardown(int fd, bool failed) {
      auto it = conns.find(fd);
      if (it == conns.end()) return;
      Conn& c = *it->second;
      if (failed) {
        impl->runs_failed.fetch_add(1, std::memory_order_relaxed);
        if (c.ep != nullptr) c.ep->abort();
      } else if (c.phase == Phase::WrapUp) {
        // Finished run torn down before the client's cross-check arrived
        // (client vanished or the service is stopping): still a success.
        // Drain-phase connections were already counted when WrapUp ran.
        impl->runs_ok.fetch_add(1, std::memory_order_relaxed);
        impl->gates_garbled.fetch_add(c.result.stats.garbled_non_xor,
                                      std::memory_order_relaxed);
        impl->cycles_run.fetch_add(c.result.stats.cycles, std::memory_order_relaxed);
      }
      c.ep.reset();
      impl->warm.release(c.warm_key, std::move(c.warm));
      impl->fold_high_water(c.sock->send_high_water());
      poller.del(fd);
      conns.erase(it);  // closes the socket fd
      impl->active.fetch_sub(1, std::memory_order_relaxed);
    }

    void drive(int fd) {
      auto it = conns.find(fd);
      if (it == conns.end()) return;
      Conn& c = *it->second;
      Waiting w;
      try {
        w = c.advance(*impl);
      } catch (const gc::TransportClosed&) {
        // Client went away: a failure only if the run was still in flight;
        // abort the endpoint, re-base + return the WarmState either way.
        teardown(fd, /*failed=*/!run_finished(c));
        return;
      } catch (const std::exception&) {
        // Protocol failures, including a failed wrap-up cross-check.
        teardown(fd, /*failed=*/true);
        return;
      }
      switch (w) {
        case Waiting::Read:
          poller.mod(fd, /*want_read=*/true, /*want_write=*/c.sock->pending_out() > 0);
          break;
        case Waiting::Write:
          // Backpressure: deliberately NOT reading this connection.
          poller.mod(fd, /*want_read=*/false, /*want_write=*/true);
          break;
        case Waiting::Ready:
          poller.mod(fd, /*want_read=*/false, /*want_write=*/false);
          ready.push_back(fd);
          break;
        case Waiting::Done:
          teardown(fd, /*failed=*/false);
          break;
      }
    }

    void accept_pending() {
      for (;;) {
        std::unique_ptr<gc::SocketDuplex> sock = impl->listener->try_accept();
        if (sock == nullptr) return;
        impl->accepted.fetch_add(1, std::memory_order_relaxed);
        if (impl->active.load(std::memory_order_relaxed) >= impl->opts.max_clients) {
          // Reject at the door: the client reads Busy + EOF right after
          // sending its hello. The hello is never parsed, but it must be
          // drained from the socket before the close — closing with unread
          // inbound data turns the FIN into a RST, which can destroy the
          // reply before the client reads it. Bounded: one small frame.
          impl->hello_rejected.fetch_add(1, std::memory_order_relaxed);
          HelloReply reply;
          reply.status = static_cast<std::uint32_t>(HelloStatus::Busy);
          try {
            sock->send_control(&reply, sizeof reply);
          } catch (const gc::TransportClosed&) {
          }
          std::uint8_t discard[sizeof(HelloRequest)];
          std::size_t drained = 0;
          while (drained < sizeof discard) {
            struct pollfd p = {sock->fd(), POLLIN, 0};
            if (::poll(&p, 1, 200) <= 0) break;
            const ssize_t n =
                ::recv(sock->fd(), discard, sizeof discard - drained, 0);
            if (n <= 0) break;
            drained += static_cast<std::size_t>(n);
          }
          continue;  // sock destructor closes the fd
        }
        impl->active.fetch_add(1, std::memory_order_relaxed);
        const std::size_t target =
            impl->next_shard.fetch_add(1, std::memory_order_relaxed) %
            impl->shards.size();
        if (target == index) {
          const std::lock_guard<std::mutex> lock(inbox_mu);
          inbox.push_back(std::move(sock));
        } else {
          impl->shards[target]->enqueue(std::move(sock));
        }
      }
    }

    void accept_metrics() {
      for (;;) {
        std::unique_ptr<gc::SocketDuplex> sock = impl->metrics_listener->try_accept();
        if (sock == nullptr) return;
        sock->set_nonblocking(true);
        const int fd = sock->fd();
        auto hc = std::make_unique<HttpConn>();
        hc->sock = std::move(sock);
        poller.add(fd, /*want_read=*/true, /*want_write=*/false);
        http.emplace(fd, std::move(hc));
      }
    }

    void close_http(int fd) {
      auto it = http.find(fd);
      if (it == http.end()) return;
      poller.del(fd);
      http.erase(it);  // closes the socket fd
    }

    void drive_http(int fd) {
      auto it = http.find(fd);
      if (it == http.end()) return;
      HttpConn& hc = *it->second;
      if (hc.out.empty()) {
        char buf[1024];
        for (;;) {
          const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
          if (n > 0) {
            hc.in.append(buf, static_cast<std::size_t>(n));
            if (hc.in.size() > kMaxHttpHeader) {
              close_http(fd);
              return;
            }
            continue;
          }
          if (n == 0) {  // peer closed before a full request
            close_http(fd);
            return;
          }
          if (errno == EINTR) continue;
          break;  // EAGAIN: header may still be incomplete
        }
        if (hc.in.find("\r\n\r\n") == std::string::npos) return;  // need more
        hc.out = impl->render_http_response(hc.in);
        poller.mod(fd, /*want_read=*/false, /*want_write=*/true);
      }
      while (hc.off < hc.out.size()) {
        const ssize_t n = ::send(fd, hc.out.data() + hc.off,
                                 hc.out.size() - hc.off, MSG_NOSIGNAL);
        if (n > 0) {
          hc.off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        close_http(fd);
        return;
      }
      close_http(fd);  // Connection: close — one scrape per connection
    }

    /// Drops scrape connections that never completed; the protocol recv
    /// deadline doubles as the HTTP idle deadline.
    void sweep_http(std::uint64_t now_ns) {
      if (impl->opts.recv_timeout_ms <= 0) return;
      const std::uint64_t limit =
          static_cast<std::uint64_t>(impl->opts.recv_timeout_ms) * 1'000'000ull;
      std::vector<int> stale;
      for (const auto& [fd, hc] : http) {
        if (now_ns - hc->opened_ns > limit) stale.push_back(fd);
      }
      for (int fd : stale) close_http(fd);
    }

    void drain_wake_pipe() {
      char buf[64];
      for (;;) {
        const ssize_t n = ::read(wake_r, buf, sizeof buf);
        if (n > 0) continue;
        if (n < 0 && errno == EINTR) continue;
        break;  // EAGAIN: drained
      }
    }

    void run() {
      while (!impl->stopping.load(std::memory_order_acquire)) {
        ready_depth_gauge->set(static_cast<std::int64_t>(ready.size()));
        int timeout = ready.empty() ? -1 : 0;
        if (index == 0 && timeout < 0) {
          // Telemetry duties need a bounded sleep: the periodic snapshot,
          // and sweeping scrape connections that never completed.
          if (impl->opts.stats_interval_ms > 0) {
            timeout = impl->opts.stats_interval_ms;
          } else if (!http.empty()) {
            timeout = 1000;
          }
        }
        poller.wait(events, timeout);
        for (const Poller::Event& e : events) {
          if (e.fd == wake_r) {
            drain_wake_pipe();
            continue;
          }
          if (index == 0 && e.fd == impl->listener->fd()) {
            accept_pending();
            continue;
          }
          if (index == 0 && impl->metrics_listener != nullptr &&
              e.fd == impl->metrics_listener->fd()) {
            accept_metrics();
            continue;
          }
          if (http.find(e.fd) != http.end()) {
            drive_http(e.fd);
            continue;
          }
          auto it = conns.find(e.fd);
          if (it == conns.end()) continue;
          if (e.readable || e.error) it->second->readable_hint = true;
          drive(e.fd);
        }
        if (index == 0) {
          const std::uint64_t now = obs::now_ns();
          if (impl->opts.stats_interval_ms > 0 &&
              now - last_publish_ns >= static_cast<std::uint64_t>(
                                           impl->opts.stats_interval_ms) *
                                           1'000'000ull) {
            impl->publish_stats();
            last_publish_ns = now;
          }
          if (!http.empty()) sweep_http(now);
        }
        adopt_inbox();
        // One pass over the ready queue: each entry gets one more slice.
        const std::size_t n = ready.size();
        for (std::size_t i = 0; i < n; ++i) {
          const int fd = ready.front();
          ready.pop_front();
          drive(fd);
        }
      }
      // Shutdown: abort every in-flight run and return the warm states;
      // runs that already finished their protocol count as successes.
      while (!conns.empty()) {
        const auto& [fd, conn] = *conns.begin();
        teardown(fd, /*failed=*/!run_finished(*conn));
      }
    }
  };

  std::vector<ProgramSpec> programs;
  ServiceOptions opts;
  std::unique_ptr<gc::SocketListener> listener;
  std::unique_ptr<gc::SocketListener> metrics_listener;  ///< null = disabled
  WarmPool warm;

  std::atomic<bool> stopping{false};
  bool running = false;
  std::mutex lifecycle_mu;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> hello_rejected{0};
  std::atomic<std::uint64_t> runs_ok{0};
  std::atomic<std::uint64_t> runs_failed{0};
  std::atomic<std::uint64_t> warm_hits{0};
  std::atomic<std::uint64_t> warm_misses{0};
  std::atomic<std::uint64_t> gates_garbled{0};
  std::atomic<std::uint64_t> cycles_run{0};
  std::atomic<std::uint64_t> send_queue_high_water{0};
  std::atomic<std::uint64_t> active{0};
  std::atomic<std::size_t> next_shard{0};

  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::thread> threads;

  Impl(std::vector<ProgramSpec> progs, const ServiceOptions& o)
      : programs(std::move(progs)), opts(o), warm(o.warm_pool) {
    if (programs.empty()) throw std::invalid_argument("serve: no programs registered");
    for (const ProgramSpec& p : programs) {
      if (p.nl == nullptr) throw std::invalid_argument("serve: program without a netlist");
      if (p.name.empty() || p.name.size() > kMaxProgramName) {
        throw std::invalid_argument("serve: bad program name");
      }
    }
    if (opts.shards == 0) opts.shards = 1;
    listener = std::make_unique<gc::SocketListener>(opts.host, opts.port);
    if (opts.metrics_port >= 0) {
      metrics_listener = std::make_unique<gc::SocketListener>(
          opts.metrics_host, static_cast<std::uint16_t>(opts.metrics_port));
    }
  }

  [[nodiscard]] const ProgramSpec* find_program(const std::string& name) const {
    for (const ProgramSpec& p : programs) {
      if (p.name == name) return &p;
    }
    return nullptr;
  }

  /// Publishes the ServiceStats atomics into the obs registry as gauges, so
  /// a /metrics scrape sees service-level counters next to the histograms.
  void publish_stats() {
    A2G_GAUGE_SET("serve.accepted",
                  static_cast<std::int64_t>(accepted.load(std::memory_order_relaxed)));
    A2G_GAUGE_SET("serve.hello_rejected",
                  static_cast<std::int64_t>(hello_rejected.load(std::memory_order_relaxed)));
    A2G_GAUGE_SET("serve.runs_ok",
                  static_cast<std::int64_t>(runs_ok.load(std::memory_order_relaxed)));
    A2G_GAUGE_SET("serve.runs_failed",
                  static_cast<std::int64_t>(runs_failed.load(std::memory_order_relaxed)));
    A2G_GAUGE_SET("serve.warm_hits",
                  static_cast<std::int64_t>(warm_hits.load(std::memory_order_relaxed)));
    A2G_GAUGE_SET("serve.warm_misses",
                  static_cast<std::int64_t>(warm_misses.load(std::memory_order_relaxed)));
    A2G_GAUGE_SET("serve.gates_garbled",
                  static_cast<std::int64_t>(gates_garbled.load(std::memory_order_relaxed)));
    A2G_GAUGE_SET("serve.cycles_run",
                  static_cast<std::int64_t>(cycles_run.load(std::memory_order_relaxed)));
    A2G_GAUGE_SET("serve.send_queue_high_water",
                  static_cast<std::int64_t>(
                      send_queue_high_water.load(std::memory_order_relaxed)));
    A2G_GAUGE_SET("serve.active",
                  static_cast<std::int64_t>(active.load(std::memory_order_relaxed)));
  }

  /// Builds the full HTTP/1.1 response for one scrape request. Only
  /// `GET /metrics` serves the registry; anything else is a terse error.
  [[nodiscard]] std::string render_http_response(const std::string& req) {
    std::string method;
    std::string path;
    const std::size_t sp1 = req.find(' ');
    if (sp1 != std::string::npos) {
      method = req.substr(0, sp1);
      const std::size_t sp2 = req.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) path = req.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::size_t q = path.find('?');
      if (q != std::string::npos) path.resize(q);
    }
    std::string body;
    const char* status = "200 OK";
    if (method != "GET") {
      status = "405 Method Not Allowed";
      body = "method not allowed\n";
    } else if (path == "/metrics") {
      publish_stats();  // scrape-time snapshot, independent of the interval
      obs::Registry::instance().render_prometheus(body);
    } else {
      status = "404 Not Found";
      body = "not found; scrape /metrics\n";
    }
    std::string out = "HTTP/1.1 ";
    out += status;
    out += "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    out += "Connection: close\r\n\r\n";
    out += body;
    return out;
  }

  void fold_high_water(std::uint64_t hw) {
    std::uint64_t cur = send_queue_high_water.load(std::memory_order_relaxed);
    while (hw > cur && !send_queue_high_water.compare_exchange_weak(
                           cur, hw, std::memory_order_relaxed)) {
    }
  }

  void start() {
    const std::lock_guard<std::mutex> lock(lifecycle_mu);
    if (running) return;
    stopping.store(false, std::memory_order_release);
    shards.clear();
    for (std::size_t i = 0; i < opts.shards; ++i) {
      shards.push_back(std::make_unique<Shard>(this, i));
    }
    for (auto& s : shards) {
      threads.emplace_back([sp = s.get()] { sp->run(); });
    }
    running = true;
  }

  void stop() {
    const std::lock_guard<std::mutex> lock(lifecycle_mu);
    if (!running) return;
    stopping.store(true, std::memory_order_release);
    for (auto& s : shards) s->wake();
    for (auto& t : threads) t.join();
    threads.clear();
    shards.clear();
    running = false;
  }
};

// ---------------------------------------------------------------------------
// GarblerService
// ---------------------------------------------------------------------------

GarblerService::GarblerService(std::vector<ProgramSpec> programs, const ServiceOptions& opts)
    : impl_(std::make_unique<Impl>(std::move(programs), opts)) {}

GarblerService::~GarblerService() {
  try {
    stop();
  } catch (...) {
    // Destructor teardown failures have nowhere to go.
  }
}

void GarblerService::start() { impl_->start(); }

void GarblerService::stop() { impl_->stop(); }

std::uint16_t GarblerService::port() const { return impl_->listener->port(); }

std::uint16_t GarblerService::metrics_port() const {
  return impl_->metrics_listener != nullptr ? impl_->metrics_listener->port() : 0;
}

ServiceStats GarblerService::stats() const {
  ServiceStats s;
  s.accepted = impl_->accepted.load(std::memory_order_relaxed);
  s.hello_rejected = impl_->hello_rejected.load(std::memory_order_relaxed);
  s.runs_ok = impl_->runs_ok.load(std::memory_order_relaxed);
  s.runs_failed = impl_->runs_failed.load(std::memory_order_relaxed);
  s.warm_hits = impl_->warm_hits.load(std::memory_order_relaxed);
  s.warm_misses = impl_->warm_misses.load(std::memory_order_relaxed);
  s.gates_garbled = impl_->gates_garbled.load(std::memory_order_relaxed);
  s.cycles_run = impl_->cycles_run.load(std::memory_order_relaxed);
  s.send_queue_high_water = impl_->send_queue_high_water.load(std::memory_order_relaxed);
  s.active = impl_->active.load(std::memory_order_relaxed);
  return s;
}

}  // namespace arm2gc::serve
