// Internal seam between the dispatchers — aes128.cpp (the cipher) and
// prf.cpp (the fused half-gates kernels) — and aesni.cpp, the only
// translation unit built with -maes. Keeping the intrinsics behind a plain
// function boundary lets the rest of the library build for any target.
// Not part of the public API; include only from src/crypto.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/block.h"
#include "crypto/prf.h"

namespace arm2gc::crypto::detail {

/// False when the library was built without the AES-NI translation unit
/// (non-x86 targets), regardless of what the CPU reports.
bool aesni_compiled_in();

/// Encrypts `n` blocks in place with AES-NI. `round_key_bytes` holds the 11
/// round keys in FIPS byte order, 16 bytes each. Must only be called when
/// Aes128::aesni_available() is true.
void aesni_encrypt_batch(const std::uint8_t* round_key_bytes, Block* io, std::size_t n);

/// The fused half-gates kernels behind PiHash::garble_half_gates and
/// PiHash::eval_half_gates (same contracts; `round_key_bytes` is the
/// pi-hash's fixed-key schedule). Each reads both input labels straight from
/// the label array, does the pi-hash doubling, tweak and half-gates combine
/// in vector registers with 8 AES blocks in flight (2 garbled or 4
/// evaluated gates per group), and writes rows and output labels with
/// 16-byte stores. Bit-identical to the Block reference paths in prf.cpp.
void aesni_garble_half_gates(const std::uint8_t* round_key_bytes, Block r, Block* labels,
                             const HalfGateJob* jobs, std::size_t n, std::uint64_t tweak,
                             Block* rows);
void aesni_eval_half_gates(const std::uint8_t* round_key_bytes, Block* labels,
                           const HalfGateJob* jobs, std::size_t n, std::uint64_t tweak,
                           const Block* rows);

}  // namespace arm2gc::crypto::detail
