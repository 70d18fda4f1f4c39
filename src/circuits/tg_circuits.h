// TinyGarble-style sequential benchmark circuits (paper Tables 1 and 2).
// Each factory returns a self-contained instance: the netlist, the cycle
// schedule, the parties' input bindings, streamed inputs, and an output
// decoder — everything a harness needs to run it under any GC mode.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/skipgate.h"
#include "netlist/netlist.h"

namespace arm2gc::circuits {

struct TgInstance {
  std::string name;
  netlist::Netlist nl;
  std::uint64_t cycles = 0;
  netlist::BitVec alice;
  netlist::BitVec bob;
  netlist::BitVec pub;
  core::StreamProvider streams;
  /// Decodes the protocol's sampled outputs into 64-bit result words.
  std::function<std::vector<std::uint64_t>(const std::vector<netlist::BitVec>&)> decode;
};

/// Runs an instance under the given mode and returns (results, stats).
struct TgRun {
  std::vector<std::uint64_t> results;
  core::RunStats stats;
};
TgRun run_instance(const TgInstance& inst, core::Mode mode);

/// Bit-serial addition of two nbits-wide values (1-bit full adder + carry FF).
TgInstance tg_sum(std::size_t nbits, const netlist::BitVec& a, const netlist::BitVec& b);

/// Bit-serial unsigned comparison a < b (LSB first).
TgInstance tg_compare(std::size_t nbits, const netlist::BitVec& a, const netlist::BitVec& b);

/// Bit-serial Hamming distance with a counter register (TinyGarble's layout).
TgInstance tg_hamming(std::size_t nbits, const netlist::BitVec& a, const netlist::BitVec& b);

/// Combinational popcount-tree Hamming distance (ablation variant).
TgInstance tg_hamming_tree(std::size_t nbits, const netlist::BitVec& a, const netlist::BitVec& b);

/// 32x32 -> 32 shift-and-add multiplier, 32 cycles.
TgInstance tg_mult32(std::uint32_t a, std::uint32_t b);

/// n x n 32-bit matrix product via a sequential MAC, n^3 cycles.
/// a, b are row-major; result row-major from the decoder.
TgInstance tg_matmult(std::size_t n, const std::vector<std::uint32_t>& a,
                      const std::vector<std::uint32_t>& b);

/// SHA3-256 of a single-block message (<= 135 bytes): Keccak-f[1600] round
/// per cycle, 24 cycles; Alice holds the message.
TgInstance tg_sha3_256(const std::vector<std::uint8_t>& message);

/// AES-128: Alice's plaintext under Bob's key, one round per cycle (10
/// cycles) with on-the-fly key expansion; tower-field S-box (36 AND).
TgInstance tg_aes128(const std::array<std::uint8_t, 16>& pt,
                     const std::array<std::uint8_t, 16>& key);

}  // namespace arm2gc::circuits
