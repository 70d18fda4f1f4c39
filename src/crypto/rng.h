// Deterministic random generator (AES-128 in counter mode) used for label
// generation. Deterministic seeding keeps protocol traces reproducible in
// tests while remaining computationally indistinguishable from random.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/aes128.h"
#include "crypto/block.h"

namespace arm2gc::crypto {

/// AES-CTR pseudorandom generator. Blocks are produced in strict counter
/// order but generated a pipelined batch at a time, so the emitted sequence
/// is independent of the batch size (and of the AES backend).
class CtrRng {
 public:
  explicit CtrRng(Block seed) : aes_(seed) {}

  /// Next 128 pseudorandom bits.
  Block next_block() {
    if (pos_ == kBatch) refill();
    return buf_[pos_++];
  }

  /// Next 64 pseudorandom bits.
  std::uint64_t next_u64() { return next_block().lo; }

  /// Uniform value in [0, bound) for small bounds (modulo bias negligible for
  /// the test/bench uses this serves).
  std::uint64_t next_below(std::uint64_t bound) { return next_u64() % bound; }

  bool next_bool() { return (next_u64() & 1u) != 0; }

 private:
  static constexpr std::size_t kBatch = 8;

  void refill() {
    for (std::size_t i = 0; i < kBatch; ++i) buf_[i] = block_from_u64(counter_++);
    aes_.encrypt_batch(buf_.data(), kBatch);
    pos_ = 0;
  }

  Aes128 aes_;
  std::array<Block, kBatch> buf_{};
  std::size_t pos_ = kBatch;
  std::uint64_t counter_ = 0;
};

}  // namespace arm2gc::crypto
