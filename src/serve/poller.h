// Readiness multiplexer behind the garbler service's event loop: a thin
// level-triggered interest set over the portable poll(). Level-triggered on
// purpose: the service's connections park with data possibly already staged
// in userspace, and edge-triggered wakeups plus userspace buffers is how
// readiness loops lose wakeups. poll() rebuilds its fd array on every wait;
// a shard holds few connections, and on the served Hamming-160 workload
// that cost measured level with epoll.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

namespace arm2gc::serve {

class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;  ///< POLLERR/POLLHUP-class condition
  };

  void add(int fd, bool want_read, bool want_write);
  void mod(int fd, bool want_read, bool want_write);
  void del(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever, 0 = non-blocking) and appends
  /// ready fds to `out` (cleared first). Returns the number of events.
  std::size_t wait(std::vector<Event>& out, int timeout_ms);

 private:
  std::map<int, short> interest_;  ///< registered fds -> poll() event mask
};

}  // namespace arm2gc::serve
