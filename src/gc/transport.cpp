#include "gc/transport.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace arm2gc::gc {

namespace {
/// Partially drained FIFOs drop their delivered prefix once it exceeds this
/// many blocks, so memory stays proportional to the undelivered backlog.
constexpr std::size_t kCompactChunkBlocks = 4096;
}  // namespace

// ---------------------------------------------------------------------------
// InMemoryDuplex
// ---------------------------------------------------------------------------

void InMemoryDuplex::Fifo::push(const crypto::Block* b, std::size_t n) {
  blocks.insert(blocks.end(), b, b + n);
  high_water = std::max(high_water, blocks.size() - read_pos);
}

void InMemoryDuplex::Fifo::pop(crypto::Block* out, std::size_t n) {
  if (blocks.size() - read_pos < n) throw std::runtime_error("transport: underrun");
  std::memcpy(out, blocks.data() + read_pos, n * sizeof(crypto::Block));
  read_pos += n;
  if (read_pos == blocks.size()) {
    blocks.clear();
    read_pos = 0;
  } else if (read_pos >= kCompactChunkBlocks) {
    blocks.erase(blocks.begin(), blocks.begin() + static_cast<std::ptrdiff_t>(read_pos));
    read_pos = 0;
  }
}

/// One party's end: sends push onto its outgoing FIFO and are accounted to
/// the sender, receives pop from the incoming one.
class InMemoryDuplex::End final : public Transport {
 public:
  End(Fifo& out, Fifo& in, CommStats& sent) : out_(out), in_(in), sent_(sent) {}

  void send(const crypto::Block* blocks, std::size_t n, Traffic t) override {
    out_.push(blocks, n);
    sent_.add(t, 16 * n);
  }
  void recv(crypto::Block* out, std::size_t n) override { in_.pop(out, n); }
  void account(Traffic t, std::uint64_t bytes) override { sent_.add(t, bytes); }

 private:
  Fifo& out_;
  Fifo& in_;
  CommStats& sent_;
};

InMemoryDuplex::InMemoryDuplex()
    : garbler_end_(std::make_unique<End>(a_to_b_, b_to_a_, garbler_sent_)),
      evaluator_end_(std::make_unique<End>(b_to_a_, a_to_b_, evaluator_sent_)) {}

InMemoryDuplex::~InMemoryDuplex() = default;

Transport& InMemoryDuplex::garbler_end() { return *garbler_end_; }
Transport& InMemoryDuplex::evaluator_end() { return *evaluator_end_; }

CommStats InMemoryDuplex::stats() const {
  CommStats s = garbler_sent_;
  s += evaluator_sent_;
  return s;
}

std::size_t InMemoryDuplex::high_water_blocks() const {
  return std::max(a_to_b_.high_water, b_to_a_.high_water);
}

}  // namespace arm2gc::gc
