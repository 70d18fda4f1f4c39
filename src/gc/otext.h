// Oblivious transfer for Bob's input labels: batched 1-out-of-2 OT endpoints
// behind the gc::Transport, selectable between two backends.
//
//   OtBackend::Ideal   the ideal-functionality stand-in (both labels travel
//                      as real frames and the receiver picks locally) — the
//                      protocol the repo used through PR 3, now batched.
//   OtBackend::Iknp    real semi-honest IKNP'03 OT extension: kappa = 128
//                      base OTs bootstrap per-column PRG streams; each batch
//                      of m choices costs the receiver one masked kappa x m
//                      bit matrix (m * 16 bytes) and the sender 2m hashed
//                      ciphertexts, with the column->row pivot done by the
//                      SSE/portable 128xN bit transpose (crypto/transpose.h)
//                      and the correlation-robust hashing by the batched
//                      fixed-key PiHash. Base OTs amortize across a warm
//                      session via the Iknp*State objects.
//   OtBackend::Precomp Beaver'95 precomputation on top of Iknp: random OTs
//                      are bulk-generated in large well-amortized IKNP
//                      batches into a role-scoped RandomOtPool (gc/otpre.h),
//                      and each online choice is served by a short
//                      derandomization frame instead of a kappa-column
//                      exchange. The per-choice online cost drops from the
//                      ~192 B IKNP floor to 32 B of masked pads plus an
//                      amortized correction-bit block.
//
// Both backends deliver exactly x0 ^ b*R for choice b, so everything above
// this interface — labels, garbled tables, outputs — is bit-identical across
// backends; only OT traffic and timing differ. All OT bytes are real framed
// blocks on the transport (accounted under Traffic::Ot); nothing is priced
// by constant any more.
//
// Message flow per batch (receiver first, matching the lock-step schedule):
//   receiver request():  [header]  [base: sid + seed pairs, first batch only]
//                        [check block]  [columns]
//   sender   flush():    [2m ciphertexts]
//   receiver finish():   (reads ciphertexts, fills queued destinations)
// The clear one-block header carries base-flag / batch ordinal / batch size
// so a state mismatch throws before any layout-dependent read (never blocks
// a socket transport on bytes that will not come); the check block binds
// the base-OT session id, ordinal, size and the column streams' byte
// position, so two endpoints warmed in different pairings — or desynced by
// an aborted run, even one that died between a request() and its flush() —
// fail loudly instead of silently delivering wrong labels.
//
// Honesty notes (what a real deployment must change):
//  - The kappa base OTs ride the same in-process receiver-picks wiring as
//    the Ideal backend; a deployment swaps a Chou-Orlandi-style base OT in
//    here. The extension layer on top — where the per-input cost and the
//    semi-honest security structure live — is the real protocol.
//  - Determinism trumps secrecy in this reproduction: the driver seeds BOTH
//    parties' randomness from the one public RunOptions seed (exactly as it
//    does the garbler's secret offset R), so a party holding that seed could
//    reconstruct the peer's secrets from the transcript. The per-party
//    `seed` parameters on the sessions and Iknp*State exist so a deployment
//    can seed each side privately; only then are the Iknp frames shippable
//    to a real adversary.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/block.h"
#include "crypto/prf.h"
#include "crypto/rng.h"
#include "gc/transport.h"

namespace arm2gc::gc {

/// IKNP security parameter: base-OT count and extension-matrix width.
inline constexpr std::size_t kOtKappa = 128;

/// Default Precomp pool size: how many random OTs one refill batch
/// generates. Both parties must agree (the refill schedule is derived from
/// it); PartyOptions/ExecOptions carry it as `ot_pool`.
inline constexpr std::size_t kDefaultOtPoolBatch = 1024;

enum class OtBackend : std::uint8_t { Ideal, Iknp, Precomp };

/// Counters every OT endpoint keeps; surfaced through RunStats and the
/// bench OT-phase rows. `wall_ns`/`online_bytes` cover the online critical
/// path only; pool precomputation and refills land in `offline_wall_ns`
/// (always zero for Ideal/Iknp, whose every byte is online).
struct OtPhaseStats {
  std::uint64_t choices = 0;          ///< OTs completed (online choices served)
  std::uint64_t batches = 0;          ///< non-empty online batches flushed
  std::uint64_t base_ots = 0;         ///< base OTs executed (0 on a warm session)
  std::uint64_t wall_ns = 0;          ///< wall time inside online OT phases
  std::uint64_t offline_wall_ns = 0;  ///< wall time precomputing/refilling pools
  std::uint64_t online_bytes = 0;     ///< framed bytes on the online path
};

/// Byte-stream PRG over the AES-CTR generator: one IKNP column consumes its
/// stream in ceil(m/8)-byte slices per batch, staying in lock step with the
/// peer's copy of the same seed.
class PrgStream {
 public:
  explicit PrgStream(crypto::Block seed) : rng_(seed) {}

  void fill(std::uint8_t* out, std::size_t n) {
    // Drain any buffered tail first, then write whole blocks straight into
    // the destination (the dominant case: column strides are byte-aligned
    // slices of a long stream), staging only the final partial block.
    while (n > 0 && pos_ < 16) {
      *out++ = buf_[pos_++];
      --n;
    }
    while (n >= 16) {
      rng_.next_block().to_bytes(out);
      out += 16;
      n -= 16;
    }
    if (n > 0) {
      rng_.next_block().to_bytes(buf_.data());
      pos_ = 0;
      while (n > 0) {
        *out++ = buf_[pos_++];
        --n;
      }
    }
  }

 private:
  crypto::CtrRng rng_;
  std::array<std::uint8_t, 16> buf_{};
  std::size_t pos_ = 16;
};

class IknpOtSender;
class IknpOtReceiver;

/// Long-lived sender-side (Alice) IKNP state: the secret column-selection
/// bits s, the chosen base seeds' PRG streams and the batch/tweak counters.
/// One per garbler role; hand the same instance to successive runs of one
/// pairing (Arm2Gc::Session does) so the base phase runs once. Not
/// thread-safe; only the garbler's own thread may touch it.
class IknpSenderState {
 public:
  /// `seed` is the party's protocol seed; OT randomness is domain-separated
  /// from the label stream internally.
  explicit IknpSenderState(crypto::Block seed);

  [[nodiscard]] bool based() const { return based_; }

 private:
  friend class IknpOtSender;

  crypto::CtrRng rng_;
  bool based_ = false;
  std::array<std::uint8_t, kOtKappa> s_{};  ///< column choice bits
  crypto::Block s_block_{};                 ///< s packed into one Block
  crypto::Block sid_{};                     ///< base session id (from receiver)
  std::uint64_t batches_ = 0;
  std::uint64_t ot_counter_ = 0;  ///< hash-tweak base, kept in sync with peer
  std::uint64_t col_bytes_ = 0;   ///< bytes consumed per column stream so far
  std::vector<PrgStream> col_;    ///< kappa streams, G(k_i^{s_i})
};

/// Receiver-side (Bob) twin: both base seeds per column plus the same
/// counters. Pair it with the sender state it ran its base phase against;
/// mismatched pairings are detected by the per-batch check block.
class IknpReceiverState {
 public:
  explicit IknpReceiverState(crypto::Block seed);

  [[nodiscard]] bool based() const { return based_; }

 private:
  friend class IknpOtReceiver;

  crypto::CtrRng rng_;
  bool based_ = false;
  crypto::Block sid_{};
  std::uint64_t batches_ = 0;
  std::uint64_t ot_counter_ = 0;
  std::uint64_t col_bytes_ = 0;  ///< bytes consumed per column stream so far
  std::vector<PrgStream> col0_;  ///< kappa streams, G(k_i^0)
  std::vector<PrgStream> col1_;  ///< kappa streams, G(k_i^1)
};

// Role halves of the Precomp backend's random-OT pool (gc/otpre.h).
class RandomOtPoolSender;
class RandomOtPoolReceiver;

/// Batched OT sender (Alice side): queue the label pairs for one protocol
/// phase, then flush() runs the batch in queue order. flush() on an empty
/// queue is free and exchanges nothing. maintain() is the idle-time hook the
/// stepwise schedule calls between cycles: backends with offline work (pool
/// refills) top up there, off the per-batch critical path; for Ideal/Iknp it
/// is a no-op. Both parties must call their maintain hooks at the same
/// schedule points — the decision to refill is derived deterministically
/// from the shared pool fill level, not announced on the wire.
class OtSender {
 public:
  virtual ~OtSender() = default;

  virtual void enqueue(crypto::Block x0, crypto::Block x1) = 0;
  virtual void flush() = 0;
  virtual void maintain() {}
  /// True when the next maintain() exchanges frames with the peer (and so
  /// reads its receiver-first half); always false for Ideal/Iknp.
  [[nodiscard]] virtual bool maintain_due() const { return false; }

  [[nodiscard]] const OtPhaseStats& stats() const { return stats_; }

 protected:
  OtPhaseStats stats_;
};

/// Batched OT receiver (Bob side): queue (choice, destination) for one
/// phase; request() emits the receiver-side message (IKNP columns) and must
/// run before the peer's flush() in a lock-step schedule; finish() reads the
/// response and fills every queued destination. maintain_request()/
/// maintain_finish() bracket the sender's maintain() exactly as request()/
/// finish() bracket flush(); no-ops for Ideal/Iknp.
class OtReceiver {
 public:
  virtual ~OtReceiver() = default;

  virtual void enqueue(bool choice, crypto::Block* out) = 0;
  virtual void request() = 0;
  virtual void finish() = 0;
  virtual void maintain_request() {}
  virtual void maintain_finish() {}

  [[nodiscard]] const OtPhaseStats& stats() const { return stats_; }

 protected:
  OtPhaseStats stats_;
};

/// Constructs the backend's sender endpoint over `tx`. For Iknp, `warm`
/// (optional) supplies cross-run state; when null the endpoint owns a fresh
/// state derived from `seed`. For Precomp, `warm_pool` supplies the
/// cross-run random-OT pool (which owns its own IKNP state; `warm` is
/// ignored) and `pool_target` sizes a fresh pool when `warm_pool` is null.
/// Ideal ignores everything but `tx`.
std::unique_ptr<OtSender> make_ot_sender(OtBackend backend, Transport& tx, crypto::Block seed,
                                         IknpSenderState* warm,
                                         RandomOtPoolSender* warm_pool = nullptr,
                                         std::size_t pool_target = kDefaultOtPoolBatch);

std::unique_ptr<OtReceiver> make_ot_receiver(OtBackend backend, Transport& tx,
                                             crypto::Block seed, IknpReceiverState* warm,
                                             RandomOtPoolReceiver* warm_pool = nullptr,
                                             std::size_t pool_target = kDefaultOtPoolBatch);

}  // namespace arm2gc::gc
