// Party-to-party transport between garbler (Alice) and evaluator (Bob) with
// exact byte accounting per traffic class. Communication volume — not
// computation — is the GC bottleneck (Gueron et al., CCS'15), so the counters
// here are the primary measurement instrument of the reproduction.
//
// A `Transport` is one party's bidirectional endpoint; messages are framed
// batches of 128-bit blocks. Two implementations are provided:
//
//   InMemoryDuplex       lock-step FIFOs for the single-threaded in-process
//                        driver; the delivered prefix is dropped eagerly so
//                        memory stays bounded on arbitrarily long runs.
//   SocketDuplex         (gc/transport_socket.h) the blocking stream-socket
//                        transport every two-thread, two-process and served
//                        deployment runs over.
//
// Traffic::Ot frames are produced by the selectable OT backend
// (gc/otext.h): under OtBackend::Iknp they are a real extension protocol's
// messages (base seeds, masked columns, hashed ciphertexts) — shippable
// verbatim once each party seeds its randomness privately (the in-process
// driver seeds both sides from the one public protocol seed for
// reproducibility; see the honesty notes in gc/otext.h). Under the
// OtBackend::Ideal stand-in they are the ideal functionality's in-process
// wiring (both labels travel, the receiver picks) and a deployment must
// select the real backend instead. Everything above this interface is
// transport-agnostic either way.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "crypto/block.h"

namespace arm2gc::gc {

/// Thrown by transport operations cut off by a shutdown (close(), peer
/// teardown). A distinct type so drivers can tell a teardown echo apart from
/// a party's real failure without matching message strings.
struct TransportClosed : std::runtime_error {
  TransportClosed() : std::runtime_error("transport: closed") {}
};

enum class Traffic : std::uint8_t {
  GarbledTable,  ///< half-gate ciphertexts (2 blocks per non-XOR gate)
  InputLabel,    ///< Alice's own input labels
  Ot,            ///< OT traffic for Bob's input labels (real framed bytes)
  OutputDecode,  ///< output labels / decode bits at the end
};

struct CommStats {
  std::uint64_t garbled_table_bytes = 0;
  std::uint64_t input_label_bytes = 0;
  std::uint64_t ot_bytes = 0;
  std::uint64_t output_bytes = 0;

  [[nodiscard]] std::uint64_t total() const {
    return garbled_table_bytes + input_label_bytes + ot_bytes + output_bytes;
  }

  void add(Traffic t, std::uint64_t bytes) {
    switch (t) {
      case Traffic::GarbledTable: garbled_table_bytes += bytes; break;
      case Traffic::InputLabel: input_label_bytes += bytes; break;
      case Traffic::Ot: ot_bytes += bytes; break;
      case Traffic::OutputDecode: output_bytes += bytes; break;
    }
  }

  CommStats& operator+=(const CommStats& o) {
    garbled_table_bytes += o.garbled_table_bytes;
    input_label_bytes += o.input_label_bytes;
    ot_bytes += o.ot_bytes;
    output_bytes += o.output_bytes;
    return *this;
  }
};

/// One party's endpoint: framed block messages to the peer, blocking reads
/// from the peer, and accounting for protocol bytes that do not travel as
/// blocks in-process (e.g. OT extension overhead).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one frame of `n` blocks; accounts 16*n bytes to class `t`.
  virtual void send(const crypto::Block* blocks, std::size_t n, Traffic t) = 0;

  /// Receives exactly `n` blocks (frames are a batching hint, not a datagram
  /// boundary; the byte stream is what is specified).
  virtual void recv(crypto::Block* out, std::size_t n) = 0;

  /// Extra bytes a real transport would carry for class `t`.
  virtual void account(Traffic t, std::uint64_t bytes) = 0;

  /// Pushes any locally buffered sends to the peer. In-process transports
  /// deliver eagerly and keep the no-op default; a buffering transport
  /// (socket) must also flush internally before any blocking read. The
  /// endpoints call this once at protocol end — the only send a later
  /// own-recv can never flush implicitly.
  virtual void flush() {}

  void send(crypto::Block b, Traffic t) { send(&b, 1, t); }
  crypto::Block recv() {
    crypto::Block b;
    recv(&b, 1);
    return b;
  }
};

/// Lock-step in-memory transport pair for a single-threaded driver. Each
/// direction is a FIFO whose delivered prefix is dropped as soon as the
/// reader fully drains it (plus a chunked fallback while partially drained),
/// so the high-water mark — not the total traffic — bounds memory.
class InMemoryDuplex {
 public:
  InMemoryDuplex();
  ~InMemoryDuplex();

  [[nodiscard]] Transport& garbler_end();
  [[nodiscard]] Transport& evaluator_end();

  /// Total accounted bytes, both directions.
  [[nodiscard]] CommStats stats() const;
  /// Maximum number of undelivered blocks ever buffered (both directions).
  [[nodiscard]] std::size_t high_water_blocks() const;

 private:
  struct Fifo {
    std::vector<crypto::Block> blocks;
    std::size_t read_pos = 0;
    std::size_t high_water = 0;

    void push(const crypto::Block* b, std::size_t n);
    void pop(crypto::Block* out, std::size_t n);
  };
  class End;

  Fifo a_to_b_;
  Fifo b_to_a_;
  CommStats garbler_sent_;
  CommStats evaluator_sent_;
  std::unique_ptr<End> garbler_end_;
  std::unique_ptr<End> evaluator_end_;
};

}  // namespace arm2gc::gc
