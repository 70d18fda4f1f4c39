#include "gc/transport_socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace arm2gc::gc {

namespace {

/// Read-side staging buffer for the many small frames of a lock-step phase.
constexpr std::size_t kReadBytes = 1u << 16;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("socket: ") + what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void set_fd_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) < 0) throw_errno("fcntl(F_SETFL)");
}

/// poll() until `events` is ready. `timeout_ms` <= 0 waits forever; expiry
/// returns false. EINTR restarts against a steady-clock deadline.
bool wait_fd(int fd, short events, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int wait = -1;
    if (timeout_ms > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) return false;
      wait = static_cast<int>(left);
    }
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, wait);
    if (rc > 0) return true;  // ready (or error/hup: let the syscall report it)
    if (rc == 0) return false;
    if (errno != EINTR) throw_errno("poll");
  }
}

struct AddrInfo {
  addrinfo* res = nullptr;
  ~AddrInfo() {
    if (res != nullptr) ::freeaddrinfo(res);
  }
};

addrinfo* resolve(AddrInfo& holder, const std::string& host, std::uint16_t port,
                  bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (passive) hints.ai_flags = AI_PASSIVE;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(), service.c_str(), &hints,
                               &holder.res);
  if (rc != 0) {
    throw std::runtime_error(std::string("socket: resolve ") + host + ": " +
                             ::gai_strerror(rc));
  }
  return holder.res;
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketDuplex
// ---------------------------------------------------------------------------

/// Transport adapter: block frames to/from the byte stream, accounting sent
/// bytes per class exactly like the in-memory duplex ends.
class SocketDuplex::End final : public Transport {
 public:
  explicit End(SocketDuplex& d) : d_(&d) {}

  void send(const crypto::Block* blocks, std::size_t n, Traffic t) override {
    d_->write_bytes(blocks, 16 * n);
    d_->sent_stats_.add(t, 16 * n);
  }
  void recv(crypto::Block* out, std::size_t n) override { d_->read_bytes(out, 16 * n); }
  void account(Traffic t, std::uint64_t bytes) override { d_->sent_stats_.add(t, bytes); }
  void flush() override { d_->flush(); }

 private:
  SocketDuplex* d_;
};

SocketDuplex::SocketDuplex(int fd) : fd_(fd), end_(std::make_unique<End>(*this)) {
  if (fd_ < 0) throw std::invalid_argument("socket: bad file descriptor");
  set_nodelay(fd_);
  wbuf_.reserve(kFlushBytes);
  rbuf_.resize(kReadBytes);  // fixed size for the life of the duplex
}

SocketDuplex::~SocketDuplex() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<SocketDuplex> SocketDuplex::connect(const std::string& host,
                                                    std::uint16_t port, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  AddrInfo holder;
  addrinfo* info = resolve(holder, host, port, /*passive=*/false);
  for (;;) {
    int last_errno = 0;
    for (addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
      const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) {
        last_errno = errno;
        continue;
      }
      int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
      while (rc != 0 && errno == EINTR) {
        // An interrupted connect keeps completing asynchronously; the retry
        // reports EISCONN once the handshake lands.
        rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
        if (rc != 0 && errno == EISCONN) rc = 0;
      }
      if (rc == 0) {
        return std::make_unique<SocketDuplex>(fd);
      }
      last_errno = errno;
      ::close(fd);
    }
    // The peer may simply not be listening yet (process start order is not
    // specified); retry refused/unreachable connections until the deadline.
    if ((last_errno != ECONNREFUSED && last_errno != ENETUNREACH &&
         last_errno != ETIMEDOUT) ||
        std::chrono::steady_clock::now() >= deadline) {
      errno = last_errno;
      throw_errno("connect");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Transport& SocketDuplex::end() { return *end_; }

CommStats SocketDuplex::sent() const { return sent_stats_; }

bool SocketDuplex::drain_some() {
  while (wpos_ < wbuf_.size()) {
    if (closed_) throw TransportClosed();
    const ssize_t n = ::send(fd_, wbuf_.data() + wpos_, wbuf_.size() - wpos_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      if (errno == EPIPE || errno == ECONNRESET) throw TransportClosed();
      throw_errno("send");
    }
    wpos_ += static_cast<std::size_t>(n);
  }
  wbuf_.clear();
  wpos_ = 0;
  return true;
}

void SocketDuplex::wait_writable() {
  if (!wait_fd(fd_, POLLOUT, recv_timeout_ms_)) throw TransportClosed();
}

void SocketDuplex::wait_readable() {
  if (!wait_fd(fd_, POLLIN, recv_timeout_ms_)) throw TransportClosed();
}

void SocketDuplex::flush() {
  while (!drain_some()) wait_writable();
}

bool SocketDuplex::try_flush() { return drain_some(); }

void SocketDuplex::set_nonblocking(bool on) {
  set_fd_nonblocking(fd_, on);
  nonblocking_ = on;
}

void SocketDuplex::write_bytes(const void* data, std::size_t n) {
  if (closed_) throw TransportClosed();
  const auto* p = static_cast<const std::uint8_t*>(data);
  // Compact the consumed prefix once it dominates, so resumed partial
  // writes do not grow the buffer without bound.
  if (wpos_ > 0 && (wpos_ == wbuf_.size() || wpos_ >= kFlushBytes)) {
    wbuf_.erase(wbuf_.begin(), wbuf_.begin() + static_cast<std::ptrdiff_t>(wpos_));
    wpos_ = 0;
  }
  wbuf_.insert(wbuf_.end(), p, p + n);
  if (pending_out() > send_high_water_) send_high_water_ = pending_out();
  if (nonblocking_) {
    // Opportunistic drain; the hard cap (if any) is enforced by waiting the
    // kernel out rather than queueing further.
    if (pending_out() >= kFlushBytes) (void)drain_some();
    while (send_limit_ != 0 && pending_out() > send_limit_) {
      wait_writable();
      (void)drain_some();
    }
  } else if (wbuf_.size() >= kFlushBytes) {
    flush();
  }
}

void SocketDuplex::read_bytes(void* data, std::size_t n) {
  // About to block on the peer: anything we have buffered may be exactly
  // what it is waiting for.
  flush();
  auto* dst = static_cast<std::uint8_t*>(data);
  while (n > 0) {
    const std::size_t avail = rlen_ - rpos_;
    if (avail > 0) {
      const std::size_t take = avail < n ? avail : n;
      std::memcpy(dst, rbuf_.data() + rpos_, take);
      rpos_ += take;
      dst += take;
      n -= take;
      continue;
    }
    if (closed_) throw TransportClosed();
    // Large remainders go straight to the destination; small ones refill the
    // staging buffer so a phase of tiny frames costs one syscall. In
    // non-blocking mode EAGAIN falls back to a poll() wait bounded by the
    // recv deadline: the caller asked for bytes and cannot proceed without
    // them, so this is the one place the event-loop service blocks inline.
    if (n >= kReadBytes) {
      const ssize_t r = ::recv(fd_, dst, n, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          wait_readable();
          continue;
        }
        if (errno == ECONNRESET) throw TransportClosed();
        throw_errno("recv");
      }
      if (r == 0) throw TransportClosed();  // peer teardown
      dst += static_cast<std::size_t>(r);
      n -= static_cast<std::size_t>(r);
    } else {
      rlen_ = 0;
      rpos_ = 0;
      const ssize_t r = ::recv(fd_, rbuf_.data(), rbuf_.size(), 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          wait_readable();
          continue;
        }
        if (errno == ECONNRESET) throw TransportClosed();
        throw_errno("recv");
      }
      if (r == 0) throw TransportClosed();  // peer teardown
      rlen_ = static_cast<std::size_t>(r);
    }
  }
}

void SocketDuplex::send_control(const void* data, std::size_t n) {
  write_bytes(data, n);
  flush();
}

void SocketDuplex::recv_control(void* data, std::size_t n) { read_bytes(data, n); }

void SocketDuplex::close() {
  if (closed_) return;
  closed_ = true;
  (void)::shutdown(fd_, SHUT_RDWR);
}

// ---------------------------------------------------------------------------
// SocketListener
// ---------------------------------------------------------------------------

SocketListener::SocketListener(const std::string& host, std::uint16_t port, int backlog)
    : fd_(-1), port_(0) {
  AddrInfo holder;
  addrinfo* info = resolve(holder, host, port, /*passive=*/true);
  int last_errno = 0;
  for (addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 && ::listen(fd, backlog) == 0) {
      fd_ = fd;
      break;
    }
    last_errno = errno;
    ::close(fd);
  }
  if (fd_ < 0) {
    errno = last_errno;
    throw_errno("bind/listen");
  }
  sockaddr_storage addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd_);
    throw_errno("getsockname");
  }
  port_ = addr.ss_family == AF_INET6
              ? ntohs(reinterpret_cast<sockaddr_in6&>(addr).sin6_port)
              : ntohs(reinterpret_cast<sockaddr_in&>(addr).sin_port);
}

SocketListener::~SocketListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<SocketDuplex> SocketListener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return std::make_unique<SocketDuplex>(fd);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Blocking semantics even on a non-blocking listener.
      if (!wait_fd(fd_, POLLIN, -1)) continue;
      continue;
    }
    throw_errno("accept");
  }
}

std::unique_ptr<SocketDuplex> SocketListener::try_accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return std::make_unique<SocketDuplex>(fd);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return nullptr;
    // A connection that died between arrival and accept() is not an error
    // for the accept loop.
    if (errno == ECONNABORTED) continue;
    throw_errno("accept");
  }
}

void SocketListener::set_nonblocking(bool on) { set_fd_nonblocking(fd_, on); }

}  // namespace arm2gc::gc
