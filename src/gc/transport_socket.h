// TCP socket transport: one party's gc::Transport over a blocking stream
// socket, carrying exactly the framed block bytes the in-memory duplexes
// specify ("frames are a batching hint, not a datagram boundary; the byte
// stream is what is specified" — gc/transport.h). This redeems that header's
// promise: two separate OS processes running one endpoint each produce
// byte-identical outputs, garbled-table digests and per-class comm counts to
// the in-process driver (tools/arm2gc_party + tests pin it).
//
// Accounting matches the in-memory duplexes exactly — send() accounts 16*n
// bytes to its traffic class, account() adds protocol extras — so
// garbler.sent() + evaluator.sent() of a socket run equals
// InMemoryDuplex::stats() of the identical in-process run. The wire carries
// no extra framing bytes: batching happens in a userspace write buffer that
// is flushed before any blocking read (every recv() implies the peer may be
// waiting on our pending bytes), which keeps the protocol deadlock-free
// while coalescing the many small frames into few syscalls. TCP_NODELAY is
// set for the same reason: a request/response exchange would otherwise
// stall on delayed ACKs. The endpoints also send frames the peer reads only
// later (the evaluator's output labels under deferred decode, core/party.h);
// those stay deadlock-free only while one such frame fits in kFlushBytes,
// so it never forces a blocking flush and the kernel socket buffers absorb
// it.
//
// Teardown: peer EOF/reset — or a local close() — surfaces as
// gc::TransportClosed out of send/recv, the same type the in-process drivers
// use to tell a teardown echo from a party's real failure.
//
// Non-blocking mode (set_nonblocking) serves the event-loop garbler service:
// try_flush() drains as much of the write buffer as the kernel accepts and
// resumes the partial remainder later (a consumed-prefix offset, so repeated
// partial writes stay O(bytes), not O(bytes^2)); pending_out()/buffered_in()
// expose queue depths for the service's backpressure decisions; and the
// blocking helpers (read_bytes tails, hard send-limit waits) fall back to
// poll() with a configurable recv deadline so a stalled peer surfaces as
// TransportClosed instead of a hang. The wire bytes are identical in both
// modes — non-blocking is purely a scheduling change.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gc/transport.h"

namespace arm2gc::gc {

/// Writes coalesce in userspace until this many bytes are pending (or a
/// recv forces a flush); a full cycle of the garbled ARM core fits well
/// below it, so the steady state is one writev-sized syscall per phase.
inline constexpr std::size_t kFlushBytes = 1u << 16;

/// One party's end of an established TCP connection.
class SocketDuplex {
 public:
  /// Wraps an already-connected stream socket; takes ownership of `fd`.
  explicit SocketDuplex(int fd);
  ~SocketDuplex();
  SocketDuplex(const SocketDuplex&) = delete;
  SocketDuplex& operator=(const SocketDuplex&) = delete;

  /// Connects to a listening peer, retrying refused connections until
  /// `timeout_ms` elapses so the two processes may start in either order.
  static std::unique_ptr<SocketDuplex> connect(const std::string& host, std::uint16_t port,
                                               int timeout_ms = 10'000);

  [[nodiscard]] Transport& end();

  /// Bytes this end sent (and account()ed), per traffic class. The peer's
  /// sent() covers the other direction; the two together equal the
  /// in-process duplex total for an identical run.
  [[nodiscard]] CommStats sent() const;

  /// Flushes buffered writes. send()/recv() manage this themselves; call it
  /// before hand-rolled out-of-band exchanges or long local pauses. In
  /// non-blocking mode a kernel-full socket is waited out with poll(), so
  /// flush() still completes or throws — it never silently drops bytes.
  void flush();

  /// Switches the socket between blocking (default) and non-blocking mode.
  void set_nonblocking(bool on);

  /// Non-blocking drain: hands the kernel as much of the pending write
  /// buffer as it will take right now and returns true when nothing is left.
  /// On false, call again once the fd polls writable. Partial writes leave
  /// the unsent remainder queued (resumed, never re-sent).
  bool try_flush();

  /// Bytes accepted by write_bytes but not yet accepted by the kernel.
  [[nodiscard]] std::size_t pending_out() const { return wbuf_.size() - wpos_; }

  /// Max pending_out() ever observed — the send-queue high-water mark.
  [[nodiscard]] std::size_t send_high_water() const { return send_high_water_; }

  /// Received bytes staged in userspace and not yet consumed by recv().
  [[nodiscard]] std::size_t buffered_in() const { return rlen_ - rpos_; }

  /// Hard cap on pending_out(): a write that would exceed it blocks (poll)
  /// until the kernel drains below the cap, so one slow peer can never grow
  /// an unbounded userspace queue. 0 means uncapped (the default).
  void set_send_limit(std::size_t bytes) { send_limit_ = bytes; }

  /// Deadline for poll() waits inside blocking reads/flushes while in
  /// non-blocking mode; expiry raises TransportClosed. <= 0 waits forever.
  void set_recv_timeout_ms(int ms) { recv_timeout_ms_ = ms; }

  /// The underlying socket fd, for readiness registration only — all I/O
  /// must keep going through this class (it owns the buffers).
  [[nodiscard]] int fd() const { return fd_; }

  /// Out-of-protocol control bytes (unaccounted): the party tool's wrap-up
  /// handshake (outputs/digest/stat exchange after the protocol proper).
  void send_control(const void* data, std::size_t n);
  void recv_control(void* data, std::size_t n);

  /// Shuts the connection down; the peer's blocked operations raise
  /// TransportClosed, as do any further operations here. Idempotent.
  void close();

 private:
  class End;

  void write_bytes(const void* data, std::size_t n);  ///< buffered
  void read_bytes(void* data, std::size_t n);         ///< flushes, then reads fully
  bool drain_some();                ///< one kernel send pass; false on EAGAIN
  void wait_readable();             ///< poll(POLLIN) under recv_timeout_ms_
  void wait_writable();             ///< poll(POLLOUT) under recv_timeout_ms_

  int fd_;
  bool closed_ = false;
  bool nonblocking_ = false;
  int recv_timeout_ms_ = -1;
  std::size_t send_limit_ = 0;  ///< 0 = uncapped
  std::size_t send_high_water_ = 0;
  CommStats sent_stats_;
  std::vector<std::uint8_t> wbuf_;
  std::size_t wpos_ = 0;  ///< kernel-accepted prefix of wbuf_
  std::vector<std::uint8_t> rbuf_;  ///< fixed-size read staging
  std::size_t rlen_ = 0;            ///< filled prefix of rbuf_
  std::size_t rpos_ = 0;            ///< consumed prefix of rlen_
  std::unique_ptr<End> end_;
};

/// Listening socket accepting one peer connection per accept() call.
/// `port` 0 binds an ephemeral port; port() reports the bound one.
class SocketListener {
 public:
  SocketListener(const std::string& host, std::uint16_t port, int backlog = 128);
  ~SocketListener();
  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::unique_ptr<SocketDuplex> accept();

  /// Non-blocking accept: nullptr when no connection is pending. The
  /// listener must be in non-blocking mode (set_nonblocking) first.
  [[nodiscard]] std::unique_ptr<SocketDuplex> try_accept();

  void set_nonblocking(bool on);
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
  std::uint16_t port_;
};

}  // namespace arm2gc::gc
