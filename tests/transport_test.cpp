// Transport-layer tests: frame ordering and byte accounting, bounded-memory
// self-compaction of the in-memory FIFOs, and the socket duplex (byte-stream
// reassembly under adversarially small chunks, peer-teardown semantics,
// cross-thread integrity and close() unblocking over a socket pair,
// accounting parity with the in-memory duplex).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "crypto/block.h"
#include "gc/transport.h"
#include "gc/transport_socket.h"
#include "test_util.h"

namespace {

using arm2gc::crypto::Block;
using arm2gc::crypto::block_from_u64;
using namespace arm2gc::gc;

TEST(InMemoryDuplex, FramesArriveInOrderAcrossDirections) {
  InMemoryDuplex duplex;
  const Block frame[3] = {block_from_u64(1), block_from_u64(2), block_from_u64(3)};
  duplex.garbler_end().send(frame, 3, Traffic::GarbledTable);
  duplex.evaluator_end().send(block_from_u64(9), Traffic::OutputDecode);

  Block got[2];
  duplex.evaluator_end().recv(got, 2);
  EXPECT_EQ(got[0], block_from_u64(1));
  EXPECT_EQ(got[1], block_from_u64(2));
  EXPECT_EQ(duplex.evaluator_end().recv(), block_from_u64(3));
  EXPECT_EQ(duplex.garbler_end().recv(), block_from_u64(9));
  EXPECT_EQ(duplex.stats().garbled_table_bytes, 48u);
  EXPECT_EQ(duplex.stats().output_bytes, 16u);
}

TEST(InMemoryDuplex, SelfCompactsOnLongRuns) {
  // A long alternating send/recv run must not accumulate delivered blocks:
  // the high-water mark tracks the undelivered backlog only.
  InMemoryDuplex duplex;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    const Block frame[4] = {block_from_u64(4 * i), block_from_u64(4 * i + 1),
                            block_from_u64(4 * i + 2), block_from_u64(4 * i + 3)};
    duplex.garbler_end().send(frame, 4, Traffic::GarbledTable);
    Block got[4];
    duplex.evaluator_end().recv(got, 4);
    EXPECT_EQ(got[3], block_from_u64(4 * i + 3));
  }
  EXPECT_EQ(duplex.stats().garbled_table_bytes, 100000u * 64);
  EXPECT_LE(duplex.high_water_blocks(), 4u);
}

TEST(InMemoryDuplex, UnderrunThrows) {
  InMemoryDuplex duplex;
  duplex.garbler_end().send(block_from_u64(1), Traffic::InputLabel);
  Block got[2];
  EXPECT_THROW(duplex.evaluator_end().recv(got, 2), std::runtime_error);
}

// --- SocketDuplex ----------------------------------------------------------------

/// A SocketDuplex wrapping one end of a connected stream socketpair, with
/// the raw peer fd available for adversarial byte-level I/O.
struct RawPeer {
  std::unique_ptr<SocketDuplex> sock;
  int peer_fd = -1;

  RawPeer() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    sock = std::make_unique<SocketDuplex>(sv[0]);
    peer_fd = sv[1];
  }
  ~RawPeer() {
    if (peer_fd >= 0) ::close(peer_fd);
  }
};

TEST(SocketDuplex, ReassemblesBlocksFromAdversariallySmallChunks) {
  RawPeer p;
  // The peer dribbles 64 blocks' worth of bytes in ragged 1..7-byte writes;
  // recv() must reassemble exact block frames regardless of how the stream
  // was chunked (TCP guarantees nothing about read boundaries).
  constexpr std::size_t kBlocks = 64;
  std::vector<std::uint8_t> wire(kBlocks * 16);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    wire[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  std::thread writer([&] {
    std::size_t off = 0;
    std::size_t chunk = 1;
    while (off < wire.size()) {
      const std::size_t n = std::min(chunk, wire.size() - off);
      ASSERT_EQ(::send(p.peer_fd, wire.data() + off, n, 0), static_cast<ssize_t>(n));
      off += n;
      chunk = chunk % 7 + 1;
    }
  });
  std::vector<Block> got(kBlocks);
  p.sock->end().recv(got.data(), 5);          // spans several dribbled writes
  p.sock->end().recv(got.data() + 5, kBlocks - 5);
  writer.join();
  for (std::size_t i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(got[i], Block::from_bytes(wire.data() + 16 * i)) << "block " << i;
  }
}

TEST(SocketDuplex, SendProducesTheExactFramedByteStream) {
  RawPeer p;
  const Block frame[3] = {block_from_u64(1), block_from_u64(2), block_from_u64(3)};
  p.sock->end().send(frame, 3, Traffic::GarbledTable);
  p.sock->end().send(block_from_u64(9), Traffic::OutputDecode);
  p.sock->flush();
  std::uint8_t wire[64];
  std::size_t off = 0;
  while (off < sizeof wire) {
    const ssize_t r = ::recv(p.peer_fd, wire + off, 3, 0);  // tiny reads again
    ASSERT_GT(r, 0);
    off += static_cast<std::size_t>(r);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(Block::from_bytes(wire + 16 * i), frame[i]);
  }
  EXPECT_EQ(Block::from_bytes(wire + 48), block_from_u64(9));
  EXPECT_EQ(p.sock->sent().garbled_table_bytes, 48u);
  EXPECT_EQ(p.sock->sent().output_bytes, 16u);
}

TEST(SocketDuplex, PeerTeardownRaisesTransportClosed) {
  {
    RawPeer p;
    ::shutdown(p.peer_fd, SHUT_WR);  // half-close: no more bytes will come
    EXPECT_THROW(p.sock->end().recv(), TransportClosed);
  }
  {
    RawPeer p;
    ::close(p.peer_fd);
    p.peer_fd = -1;
    EXPECT_THROW(p.sock->end().recv(), TransportClosed);
    EXPECT_THROW(
        {
          for (int i = 0; i < 4096; ++i) {
            p.sock->end().send(block_from_u64(1), Traffic::InputLabel);
            p.sock->flush();
          }
        },
        TransportClosed);
  }
  {
    RawPeer p;
    p.sock->close();  // local teardown: both directions dead immediately
    EXPECT_THROW(p.sock->end().recv(), TransportClosed);
    EXPECT_THROW(
        {
          p.sock->end().send(block_from_u64(1), Traffic::InputLabel);
          p.sock->flush();
        },
        TransportClosed);
  }
}

TEST(SocketDuplex, ListenerConnectRoundTripOverLoopback) {
  SocketListener listener("127.0.0.1", 0);
  ASSERT_GT(listener.port(), 0);
  std::unique_ptr<SocketDuplex> client;
  std::thread connector(
      [&] { client = SocketDuplex::connect("127.0.0.1", listener.port()); });
  std::unique_ptr<SocketDuplex> server = listener.accept();
  connector.join();

  client->end().send(block_from_u64(0xABCD), Traffic::Ot);
  client->flush();
  EXPECT_EQ(server->end().recv(), block_from_u64(0xABCD));
  server->end().send(block_from_u64(0xFEED), Traffic::OutputDecode);
  server->flush();
  EXPECT_EQ(client->end().recv(), block_from_u64(0xFEED));
}

TEST(SocketDuplex, BidirectionalEchoAcrossThreads) {
  a2gtest::SocketPair pair;
  std::thread peer([&] {
    for (int i = 0; i < 1000; ++i) {
      const Block b = pair.evaluator->end().recv();
      pair.evaluator->end().send(b ^ block_from_u64(1), Traffic::OutputDecode);
    }
    pair.evaluator->flush();
  });
  for (int i = 0; i < 1000; ++i) {
    pair.garbler->end().send(block_from_u64(static_cast<std::uint64_t>(i) << 1),
                             Traffic::InputLabel);
    EXPECT_EQ(pair.garbler->end().recv(),
              block_from_u64((static_cast<std::uint64_t>(i) << 1) | 1));
  }
  peer.join();
  EXPECT_EQ(pair.garbler->sent().input_label_bytes, 1000u * 16);
  EXPECT_EQ(pair.evaluator->sent().output_bytes, 1000u * 16);
}

TEST(SocketDuplex, StressOrderedWriterAgainstPooledReader) {
  // The parallel-session shape: one producer thread plays the garbler's
  // ordered writer (bursty per-cone sends, sizes varying per "slice"), while
  // the consumer pulls exact per-gate frames and hands them to short-lived
  // worker threads for checking — receive order on the transport stays the
  // single-threaded slice order even with workers racing around it. Run
  // under TSan in CI.
  constexpr std::size_t kSlices = 300;
  a2gtest::SocketPair pair;
  std::thread producer([&] {
    std::uint64_t next = 0;
    for (std::size_t s = 0; s < kSlices; ++s) {
      const std::size_t tables = s % 7 + 1;
      for (std::size_t t = 0; t < tables; ++t) {
        Block frame[3];
        for (std::uint64_t k = 0; k < 3; ++k) frame[k] = block_from_u64(next++);
        pair.garbler->end().send(frame, 3, Traffic::GarbledTable);
      }
      if (s % 16 == 15) pair.garbler->flush();  // ragged delivery batches
    }
    pair.garbler->flush();
  });
  std::uint64_t expect = 0;
  std::vector<std::thread> checkers;
  std::atomic<int> mismatches{0};
  for (std::size_t s = 0; s < kSlices; ++s) {
    const std::size_t tables = s % 7 + 1;
    std::vector<Block> staged(tables * 3);
    pair.evaluator->end().recv(staged.data(), staged.size());
    const std::uint64_t base = expect;
    expect += tables * 3;
    checkers.emplace_back([&mismatches, staged = std::move(staged), base] {
      for (std::size_t i = 0; i < staged.size(); ++i) {
        if (staged[i] != block_from_u64(base + i)) mismatches.fetch_add(1);
      }
    });
    if (checkers.size() >= 8) {
      for (auto& c : checkers) c.join();
      checkers.clear();
    }
  }
  for (auto& c : checkers) c.join();
  producer.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pair.garbler->sent().garbled_table_bytes, expect * 16);
}

TEST(SocketDuplex, CloseUnblocksBlockedPeer) {
  // One side failing closes its end; the peer, blocked in recv on another
  // thread, must wake with TransportClosed, and its later sends fail the
  // same way instead of vanishing into a dead connection.
  a2gtest::SocketPair pair;
  std::thread blocked([&] {
    EXPECT_THROW(pair.evaluator->end().recv(), TransportClosed);
    EXPECT_THROW(
        {
          pair.evaluator->end().send(block_from_u64(1), Traffic::InputLabel);
          pair.evaluator->flush();
        },
        TransportClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it block
  pair.garbler->close();
  blocked.join();
}

TEST(SocketDuplex, AccountingMatchesInMemoryDuplexFrameForFrame) {
  // The same frame/account sequence pushed through both transports must
  // land on identical per-class counters: the socket ends' sent() stats sum
  // to exactly what the in-memory duplex reports for the run.
  InMemoryDuplex mem;
  RawPeer a;  // "garbler" socket end
  RawPeer b;  // "evaluator" socket end
  const Block frame[4] = {block_from_u64(1), block_from_u64(2), block_from_u64(3),
                          block_from_u64(4)};

  auto drive = [&](Transport& g, Transport& e) {
    g.send(frame, 4, Traffic::GarbledTable);
    g.send(frame, 2, Traffic::InputLabel);
    e.send(frame, 3, Traffic::Ot);
    g.account(Traffic::Ot, 7);
    e.send(frame, 1, Traffic::OutputDecode);
    g.send(frame, 1, Traffic::OutputDecode);
  };
  drive(mem.garbler_end(), mem.evaluator_end());
  drive(a.sock->end(), b.sock->end());

  CommStats sum = a.sock->sent();
  sum += b.sock->sent();
  EXPECT_EQ(sum.garbled_table_bytes, mem.stats().garbled_table_bytes);
  EXPECT_EQ(sum.input_label_bytes, mem.stats().input_label_bytes);
  EXPECT_EQ(sum.ot_bytes, mem.stats().ot_bytes);
  EXPECT_EQ(sum.output_bytes, mem.stats().output_bytes);
  EXPECT_EQ(sum.total(), mem.stats().total());
}

}  // namespace
