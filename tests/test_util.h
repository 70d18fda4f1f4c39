// Shared helpers for the test suites.
#pragma once

#include <sys/socket.h>

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arm/arm2gc.h"
#include "core/party.h"
#include "core/skipgate.h"
#include "gc/transport.h"
#include "gc/transport_socket.h"
#include "netlist/netlist.h"

namespace a2gtest {

/// Bits at positions >= 64 are zero (shifting a 64-bit value that far is
/// undefined).
inline arm2gc::netlist::BitVec to_bits(std::uint64_t v, std::size_t width) {
  arm2gc::netlist::BitVec b(width);
  for (std::size_t i = 0; i < width && i < 64; ++i) b[i] = ((v >> i) & 1u) != 0;
  return b;
}

inline std::uint64_t from_bits(const arm2gc::netlist::BitVec& b, std::size_t off = 0,
                               std::size_t width = 64) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width && off + i < b.size(); ++i) {
    if (b[off + i]) v |= 1ull << i;
  }
  return v;
}

inline arm2gc::netlist::BitVec concat_bits(const arm2gc::netlist::BitVec& a,
                                           const arm2gc::netlist::BitVec& b) {
  arm2gc::netlist::BitVec r = a;
  r.insert(r.end(), b.begin(), b.end());
  return r;
}

/// Two connected SocketDuplex ends over socketpair(AF_UNIX, SOCK_STREAM):
/// the blocking stream transport of a two-process deployment, minus the
/// listener and the TCP handshake.
struct SocketPair {
  std::unique_ptr<arm2gc::gc::SocketDuplex> garbler;
  std::unique_ptr<arm2gc::gc::SocketDuplex> evaluator;

  SocketPair() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    garbler = std::make_unique<arm2gc::gc::SocketDuplex>(sv[0]);
    evaluator = std::make_unique<arm2gc::gc::SocketDuplex>(sv[1]);
  }
};

/// True iff `p` holds gc::TransportClosed: the echo of a peer's teardown,
/// which only ever masks that peer's real failure.
inline bool is_transport_closed(const std::exception_ptr& p) {
  try {
    std::rethrow_exception(p);
  } catch (const arm2gc::gc::TransportClosed&) {
    return true;
  } catch (...) {
    return false;
  }
}

struct SocketRun {
  /// The garbler's result; stats.comm holds both parties' sent bytes, the
  /// total the in-process driver reports for the same run.
  arm2gc::core::RunResult garbler;
  arm2gc::core::RunResult evaluator;
};

/// Two endpoints over a SocketPair, garbler on a worker thread and evaluator
/// on the calling one: the deployment code path, with each side planning on
/// its own. Warm states and private seeds are per role (null/empty = cold,
/// protocol seed). A failing side closes its end so the peer unblocks; the
/// real error is rethrown in preference to the peer's TransportClosed echo.
inline SocketRun socket_run(const arm2gc::netlist::Netlist& nl,
                            const arm2gc::core::RunOptions& opts,
                            const arm2gc::netlist::BitVec& a, const arm2gc::netlist::BitVec& b,
                            const arm2gc::netlist::BitVec& p = {},
                            const arm2gc::core::StreamProvider* streams = nullptr,
                            arm2gc::core::WarmState* garbler_warm = nullptr,
                            arm2gc::core::WarmState* evaluator_warm = nullptr,
                            std::optional<arm2gc::crypto::Block> garbler_private = {},
                            std::optional<arm2gc::crypto::Block> evaluator_private = {}) {
  using namespace arm2gc;
  SocketPair pair;
  SocketRun out;
  std::exception_ptr garbler_error;
  std::exception_ptr evaluator_error;
  std::thread garbler_thread([&] {
    try {
      core::PartyOptions po = core::party_options(core::Role::Garbler, opts);
      if (garbler_private) po.private_seed = *garbler_private;
      core::GarblerEndpoint endpoint(nl, po, pair.garbler->end(), garbler_warm);
      out.garbler = endpoint.run(a, p, streams);
    } catch (...) {
      garbler_error = std::current_exception();
      pair.garbler->close();
    }
  });
  try {
    core::PartyOptions po = core::party_options(core::Role::Evaluator, opts);
    if (evaluator_private) po.private_seed = *evaluator_private;
    core::EvaluatorEndpoint endpoint(nl, po, pair.evaluator->end(), evaluator_warm);
    out.evaluator = endpoint.run(b, p, streams);
  } catch (...) {
    evaluator_error = std::current_exception();
    pair.evaluator->close();
  }
  garbler_thread.join();
  if (garbler_error && (!evaluator_error || !is_transport_closed(garbler_error))) {
    std::rethrow_exception(garbler_error);
  }
  if (evaluator_error) std::rethrow_exception(evaluator_error);
  out.garbler.stats.comm = pair.garbler->sent();
  out.garbler.stats.comm += pair.evaluator->sent();
  return out;
}

/// socket_run of an ARM machine: the halt-driven SkipGate run Arm2Gc::run
/// performs, with `exec` tuning both parties. Decode the garbler's outputs
/// with machine.decode_output_bits.
inline SocketRun arm_socket_run(const arm2gc::arm::Arm2Gc& machine,
                                const std::vector<std::uint32_t>& alice,
                                const std::vector<std::uint32_t>& bob,
                                const arm2gc::core::ExecOptions& exec = {},
                                arm2gc::core::WarmState* garbler_warm = nullptr,
                                arm2gc::core::WarmState* evaluator_warm = nullptr) {
  arm2gc::core::RunOptions opts;
  opts.halt_wire = machine.cpu().halt_wire;
  opts.exec = exec;
  return socket_run(machine.cpu().nl, opts, machine.alice_input_bits(alice),
                    machine.bob_input_bits(bob), {}, nullptr, garbler_warm, evaluator_warm);
}

/// The two ways to run both parties of one RunOptions: the in-process
/// lock-step driver, and socket_run (the evaluator planning independently
/// on its own thread). Differential suites iterate both.
enum class Composition : std::uint8_t { LockStep, SocketPair };
inline constexpr Composition kCompositions[] = {Composition::LockStep,
                                                Composition::SocketPair};

/// Runs `opts` under composition `c` and returns the garbler's result;
/// opts.exec's warm states go to their roles either way.
inline arm2gc::core::RunResult run_composed(Composition c, const arm2gc::netlist::Netlist& nl,
                                            const arm2gc::core::RunOptions& opts,
                                            const arm2gc::netlist::BitVec& a,
                                            const arm2gc::netlist::BitVec& b,
                                            const arm2gc::netlist::BitVec& p = {},
                                            const arm2gc::core::StreamProvider* streams = nullptr) {
  if (c == Composition::LockStep) {
    return arm2gc::core::SkipGateDriver(nl, opts).run(a, b, p, streams);
  }
  return socket_run(nl, opts, a, b, p, streams, opts.exec.garbler_warm, opts.exec.evaluator_warm)
      .garbler;
}

/// Fault-injecting transport pair: a SocketPair whose ends count traffic in
/// blocks and, at a configured trip point, deliver only a prefix of the
/// in-flight operation before closing their socket — a partial write (send
/// trip) or a short read (recv trip), followed by a mid-stream connection
/// loss. A trip point that is not a frame-size multiple lands mid-frame,
/// modeling a peer dying halfway through a message. The tripping side
/// flushes what it was allowed to send, closes, and throws
/// gc::TransportClosed itself; the peer's next read hits EOF (or its next
/// flush a dead socket) and throws the same — so both endpoints surface the
/// teardown as TransportClosed, never as a hang or a wrong label.
class FaultyDuplex {
 public:
  FaultyDuplex() : garbler_(*pair_.garbler), evaluator_(*pair_.evaluator) {}

  [[nodiscard]] arm2gc::gc::Transport& garbler_end() { return garbler_; }
  [[nodiscard]] arm2gc::gc::Transport& evaluator_end() { return evaluator_; }

  /// Trip after the given total block count in that direction (the tripping
  /// operation's blocks up to the limit are still delivered).
  void fail_garbler_send_after(std::uint64_t blocks) { garbler_.send_trip = blocks; }
  void fail_garbler_recv_after(std::uint64_t blocks) { garbler_.recv_trip = blocks; }
  void fail_evaluator_send_after(std::uint64_t blocks) { evaluator_.send_trip = blocks; }
  void fail_evaluator_recv_after(std::uint64_t blocks) { evaluator_.recv_trip = blocks; }

 private:
  class End : public arm2gc::gc::Transport {
   public:
    explicit End(arm2gc::gc::SocketDuplex& sock) : sock_(&sock) {}

    std::optional<std::uint64_t> send_trip;
    std::optional<std::uint64_t> recv_trip;

    void send(const arm2gc::crypto::Block* blocks, std::size_t n,
              arm2gc::gc::Traffic t) override {
      if (send_trip && sent_ + n > *send_trip) {
        const auto allowed = static_cast<std::size_t>(*send_trip - sent_);
        if (allowed > 0) sock_->end().send(blocks, allowed, t);  // partial write
        trip();
      }
      sock_->end().send(blocks, n, t);
      sent_ += n;
    }

    void recv(arm2gc::crypto::Block* out, std::size_t n) override {
      if (recv_trip && received_ + n > *recv_trip) {
        const auto allowed = static_cast<std::size_t>(*recv_trip - received_);
        if (allowed > 0) sock_->end().recv(out, allowed);  // short read
        trip();
      }
      sock_->end().recv(out, n);
      received_ += n;
    }

    void account(arm2gc::gc::Traffic t, std::uint64_t bytes) override {
      sock_->end().account(t, bytes);
    }

    void flush() override { sock_->flush(); }

   private:
    [[noreturn]] void trip() {
      sock_->flush();  // the allowed prefix reaches the peer, mid-frame or not
      sock_->close();
      throw arm2gc::gc::TransportClosed{};
    }

    arm2gc::gc::SocketDuplex* sock_;
    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;
  };

  SocketPair pair_;
  End garbler_;
  End evaluator_;
};

}  // namespace a2gtest
