#include "serve/poller.h"

#include <poll.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace arm2gc::serve {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("poller: ") + what + ": " + std::strerror(errno));
}

short poll_mask(bool want_read, bool want_write) {
  short m = 0;
  if (want_read) m |= POLLIN;
  if (want_write) m |= POLLOUT;
  return m;
}

}  // namespace

void Poller::add(int fd, bool want_read, bool want_write) {
  interest_[fd] = poll_mask(want_read, want_write);
}

void Poller::mod(int fd, bool want_read, bool want_write) {
  interest_.at(fd) = poll_mask(want_read, want_write);
}

void Poller::del(int fd) { interest_.erase(fd); }

std::size_t Poller::wait(std::vector<Event>& out, int timeout_ms) {
  out.clear();
  std::vector<pollfd> pfds;
  pfds.reserve(interest_.size());
  for (const auto& [fd, mask] : interest_) pfds.push_back({fd, mask, 0});
  int n;
  do {
    n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) throw_errno("poll");
  for (const pollfd& p : pfds) {
    if (p.revents == 0) continue;
    Event e;
    e.fd = p.fd;
    e.readable = (p.revents & POLLIN) != 0;
    e.writable = (p.revents & POLLOUT) != 0;
    e.error = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    out.push_back(e);
  }
  return out.size();
}

}  // namespace arm2gc::serve
