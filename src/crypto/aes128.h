// Minimal AES-128 (encryption only), the primitive behind the fixed-key
// garbling hash and the deterministic random generator.
//
// Two interchangeable backends produce bit-identical ciphertexts:
//   - a portable table-based implementation (always available), and
//   - an AES-NI implementation (src/crypto/aesni.cpp, the only translation
//     unit compiled with -maes) selected at runtime via CPUID.
// Set ARM2GC_DISABLE_AESNI=1 in the environment to force the portable path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/block.h"

namespace arm2gc::crypto {

/// AES-128 in encrypt-only mode. The expanded key schedule is precomputed at
/// construction; `encrypt`/`encrypt_batch` are pure functions of the state.
class Aes128 {
 public:
  /// Backend selection. `Auto` picks AES-NI when available; an explicit
  /// `AesNi` request silently falls back to `Portable` when the CPU (or the
  /// ARM2GC_DISABLE_AESNI override) rules it out, so forced-backend instances
  /// are always usable — check `uses_aesni()` when the distinction matters.
  enum class Backend : std::uint8_t { Auto, Portable, AesNi };

  /// Expands `key` (16 bytes, little-endian Block encoding) into 11 round keys.
  explicit Aes128(Block key, Backend backend = Backend::Auto);

  /// Encrypts one 16-byte block (ECB, single block).
  [[nodiscard]] Block encrypt(Block plaintext) const;

  /// Encrypts `n` independent blocks in place. The AES-NI backend pipelines
  /// up to 8 blocks through the AES unit at once, which is where the batched
  /// garbling-hash speedup comes from; results equal `n` scalar `encrypt`s.
  void encrypt_batch(Block* io, std::size_t n) const;

  /// True iff this instance dispatches to the AES-NI implementation.
  [[nodiscard]] bool uses_aesni() const { return use_aesni_; }

  /// True iff AES-NI is compiled in, supported by this CPU, and not disabled
  /// via the ARM2GC_DISABLE_AESNI environment variable (checked once).
  static bool aesni_available();

 private:
  // The fused half-gates kernels hand the AES-NI round keys straight to
  // src/crypto/aesni.cpp.
  friend class PiHash;

  [[nodiscard]] Block encrypt_portable(Block plaintext) const;

  // 11 round keys, 4 words each, stored column-major as in FIPS-197
  // (the portable backend's working format).
  std::array<std::uint32_t, 44> round_keys_{};
  // The same round keys in FIPS byte order, 16 bytes per round; the AES-NI
  // backend loads these directly into vector registers.
  alignas(16) std::array<std::uint8_t, 176> round_key_bytes_{};
  bool use_aesni_ = false;
};

}  // namespace arm2gc::crypto
