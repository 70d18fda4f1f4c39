#include "gc/otpre.h"

#include <chrono>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace arm2gc::gc {

namespace {

using crypto::Block;

// Domain separation from the label stream (raw seed), the IKNP streams
// (ot-snd-s / ot-rcv-r) and each other.
constexpr Block kPadSeedTag{0x6f742d7061642d70ull, 0x61726d3267632d32ull};     // "ot-pad-p"
constexpr Block kChoiceSeedTag{0x6f742d6368632d63ull, 0x61726d3267632d33ull};  // "ot-chc-c"

// Derandomization-frame magic ("OT-deran"). block0.lo folds the frame
// ordinal, the batch size and the refill decision into the magic; the sender
// recomputes the exact expected value from its own mirrored pool state, so
// any divergence — a pool half-consumed by an abort on one side, mismatched
// pool targets, an ordinal skew — throws before a layout-dependent read.
constexpr std::uint64_t kDerandMagic = 0x4f542d646572616eull;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t frame_tag(std::uint64_t ordinal, std::size_t m, bool refill) {
  return kDerandMagic ^ (ordinal << 32) ^ (static_cast<std::uint64_t>(m) << 1) ^
         (refill ? 1ull : 0ull);
}

/// Correction blocks past the 64 bits the header block carries itself.
std::size_t extra_corr_blocks(std::size_t m) {
  return m > 64 ? (m - 64 + 127) / 128 : 0;
}

}  // namespace

RandomOtPoolSender::RandomOtPoolSender(Block seed, std::size_t target)
    : iknp_(seed), pad_rng_(seed ^ kPadSeedTag), target_(target == 0 ? 1 : target) {}

RandomOtPoolReceiver::RandomOtPoolReceiver(Block seed, std::size_t target)
    : iknp_(seed), choice_rng_(seed ^ kChoiceSeedTag), target_(target == 0 ? 1 : target) {}

// ---------------------------------------------------------------------------
// Precomp sender endpoint (Alice): refills ride an inner IKNP sender over the
// same transport against the pool's embedded warm state; online batches read
// the derand frame and answer with masked pads.
// ---------------------------------------------------------------------------

class PrecompOtSender final : public OtSender {
 public:
  PrecompOtSender(Transport& tx, Block seed, RandomOtPoolSender* warm, std::size_t pool_target)
      : tx_(&tx),
        owned_(warm != nullptr ? nullptr : std::make_unique<RandomOtPoolSender>(seed, pool_target)),
        pool_(warm != nullptr ? warm : owned_.get()),
        inner_(make_ot_sender(OtBackend::Iknp, tx, seed, &pool_->iknp_)) {}

  void enqueue(Block x0, Block x1) override {
    pend_.push_back(x0);
    pend_.push_back(x1);
  }

  void flush() override {
    if (pend_.empty()) return;
    RandomOtPoolSender& pool = *pool_;
    const std::size_t m = pend_.size() / 2;

    // Mirror of the receiver's deterministic refill rule; the inner IKNP
    // frames precede the derand frame on the wire, so a one-sided decision
    // fails loudly on whichever header is read against the wrong layout.
    const bool refilled = pool.available() < m;
    if (refilled) refill(pool.target_ > m ? pool.target_ : m);

    const std::uint64_t t0 = now_ns();
    const std::size_t extra = extra_corr_blocks(m);
    frame_.resize(1 + extra);
    tx_->recv(frame_.data(), frame_.size());
    if (frame_[0].lo != frame_tag(pool.frames_, m, refilled)) {
      throw std::runtime_error(
          "otpre: derandomization frame desynchronized (pool consumption, "
          "refill schedule or pairing disagrees with the peer)");
    }

    out_.resize(2 * m);
    for (std::size_t j = 0; j < m; ++j) {
      const bool c = corr_bit(j);
      const Block* pair = &pool.pads_[2 * (pool.head_ + j)];
      out_[2 * j] = pend_[2 * j] ^ pair[c ? 1 : 0];
      out_[2 * j + 1] = pend_[2 * j + 1] ^ pair[c ? 0 : 1];
    }
    tx_->send(out_.data(), out_.size(), Traffic::Ot);

    pool.head_ += m;
    pool.frames_++;
    stats_.choices += m;
    stats_.batches++;
    stats_.online_bytes += 16 * (1 + extra + 2 * m);
    pend_.clear();
    stats_.wall_ns += now_ns() - t0;
  }

  void maintain() override {
    if (maintain_due()) refill(pool_->target_);
  }

  [[nodiscard]] bool maintain_due() const override {
    return pool_->available() < pool_->low_water();
  }

 private:
  /// Correction bit j of the received derand frame: header block bits
  /// 64..127 carry c_0..c_63, overflow bits pack 128 per extra block.
  [[nodiscard]] bool corr_bit(std::size_t j) const {
    if (j < 64) return ((frame_[0].hi >> j) & 1u) != 0;
    const std::size_t k = j - 64;
    const Block& b = frame_[1 + k / 128];
    const std::size_t bit = k % 128;
    return (((bit < 64 ? b.lo : b.hi) >> (bit % 64)) & 1u) != 0;
  }

  /// One IKNP batch of n fresh random pad pairs, appended behind the
  /// surviving entries (the consumed prefix is compacted away first —
  /// identical bookkeeping on both sides keeps the pools in lock step).
  void refill(std::size_t n) {
    A2G_SPAN("ot.pool_refill", "ot");
    A2G_COUNT("ot.pool_refills");
    A2G_HIST_TIMER("ot.pool_refill_ns");
    const std::uint64_t t0 = now_ns();
    RandomOtPoolSender& pool = *pool_;
    pool.pads_.erase(pool.pads_.begin(),
                     pool.pads_.begin() + static_cast<std::ptrdiff_t>(2 * pool.head_));
    pool.head_ = 0;
    const std::size_t base = pool.pads_.size();
    pool.pads_.resize(base + 2 * n);
    for (std::size_t i = 0; i < 2 * n; ++i) pool.pads_[base + i] = pool.pad_rng_.next_block();
    const std::uint64_t base_before = inner_->stats().base_ots;
    for (std::size_t i = 0; i < n; ++i) {
      inner_->enqueue(pool.pads_[base + 2 * i], pool.pads_[base + 2 * i + 1]);
    }
    inner_->flush();
    pool.refills_++;
    stats_.base_ots += inner_->stats().base_ots - base_before;
    stats_.offline_wall_ns += now_ns() - t0;
  }

  Transport* tx_;
  std::unique_ptr<RandomOtPoolSender> owned_;
  RandomOtPoolSender* pool_;
  std::unique_ptr<OtSender> inner_;
  std::vector<Block> pend_;  ///< queued pairs, interleaved (x0, x1)
  std::vector<Block> frame_;
  std::vector<Block> out_;
};

// ---------------------------------------------------------------------------
// Precomp receiver endpoint (Bob)
// ---------------------------------------------------------------------------

class PrecompOtReceiver final : public OtReceiver {
 public:
  PrecompOtReceiver(Transport& tx, Block seed, RandomOtPoolReceiver* warm,
                    std::size_t pool_target)
      : tx_(&tx),
        owned_(warm != nullptr ? nullptr
                               : std::make_unique<RandomOtPoolReceiver>(seed, pool_target)),
        pool_(warm != nullptr ? warm : owned_.get()),
        inner_(make_ot_receiver(OtBackend::Iknp, tx, seed, &pool_->iknp_)) {}

  void enqueue(bool choice, Block* out) override { pend_.push_back({choice, out}); }

  void request() override {
    if (pend_.empty()) return;
    RandomOtPoolReceiver& pool = *pool_;
    const std::size_t m = pend_.size();

    const bool refilled = pool.available() < m;
    if (refilled) refill_request(pool.target_ > m ? pool.target_ : m);

    const std::uint64_t t0 = now_ns();
    const std::size_t extra = extra_corr_blocks(m);
    frame_.assign(1 + extra, Block{});
    frame_[0].lo = frame_tag(pool.frames_, m, refilled);
    for (std::size_t j = 0; j < m; ++j) {
      const bool c = pend_[j].choice != (pool.bits_[pool.head_ + j] != 0);
      if (!c) continue;
      if (j < 64) {
        frame_[0].hi |= 1ull << j;
      } else {
        const std::size_t k = j - 64;
        Block& b = frame_[1 + k / 128];
        const std::size_t bit = k % 128;
        (bit < 64 ? b.lo : b.hi) |= 1ull << (bit % 64);
      }
    }
    tx_->send(frame_.data(), frame_.size(), Traffic::Ot);
    stats_.online_bytes += 16 * frame_.size();
    stats_.wall_ns += now_ns() - t0;
  }

  void finish() override {
    if (pend_.empty()) return;
    complete_refill();
    const std::uint64_t t0 = now_ns();
    RandomOtPoolReceiver& pool = *pool_;
    const std::size_t m = pend_.size();
    ct_.resize(2 * m);
    tx_->recv(ct_.data(), ct_.size());
    for (std::size_t j = 0; j < m; ++j) {
      const Pending& p = pend_[j];
      *p.out = ct_[2 * j + (p.choice ? 1 : 0)] ^ pool.got_[pool.head_ + j];
    }
    pool.head_ += m;
    pool.frames_++;
    stats_.choices += m;
    stats_.batches++;
    stats_.online_bytes += 16 * ct_.size();
    pend_.clear();
    stats_.wall_ns += now_ns() - t0;
  }

  void maintain_request() override {
    if (pool_->available() < pool_->low_water()) refill_request(pool_->target_);
  }

  void maintain_finish() override { complete_refill(); }

 private:
  struct Pending {
    bool choice;
    Block* out;
  };

  /// Emits the inner IKNP request for n fresh random choices; the received
  /// pads land in the pool when complete_refill() runs. The pool's entry
  /// count (and so available()) advances immediately so the derand frame's
  /// correction bits can already draw on the in-flight entries.
  void refill_request(std::size_t n) {
    if (refill_pending_) {
      throw std::logic_error("otpre: overlapping pool refills (schedule bug)");
    }
    A2G_SPAN("ot.pool_refill_request", "ot");
    A2G_COUNT("ot.pool_refills");
    A2G_HIST_TIMER("ot.pool_refill_ns");
    const std::uint64_t t0 = now_ns();
    // The inner receiver runs its base phase inside request(), so the fold
    // window opens here, not at complete_refill().
    refill_base_before_ = inner_->stats().base_ots;
    RandomOtPoolReceiver& pool = *pool_;
    pool.bits_.erase(pool.bits_.begin(), pool.bits_.begin() + static_cast<std::ptrdiff_t>(pool.head_));
    pool.got_.erase(pool.got_.begin(), pool.got_.begin() + static_cast<std::ptrdiff_t>(pool.head_));
    pool.head_ = 0;
    const std::size_t base = pool.bits_.size();
    pool.bits_.resize(base + n);
    pool.got_.resize(base + n);  // stable until complete_refill: no growth in between
    for (std::size_t i = 0; i < n; ++i) {
      pool.bits_[base + i] = pool.choice_rng_.next_bool() ? 1 : 0;
      inner_->enqueue(pool.bits_[base + i] != 0, &pool.got_[base + i]);
    }
    inner_->request();
    refill_pending_ = true;
    stats_.offline_wall_ns += now_ns() - t0;
  }

  void complete_refill() {
    if (!refill_pending_) return;
    A2G_SPAN("ot.pool_refill_complete", "ot");
    const std::uint64_t t0 = now_ns();
    inner_->finish();
    pool_->refills_++;
    refill_pending_ = false;
    stats_.base_ots += inner_->stats().base_ots - refill_base_before_;
    stats_.offline_wall_ns += now_ns() - t0;
  }

  Transport* tx_;
  std::unique_ptr<RandomOtPoolReceiver> owned_;
  RandomOtPoolReceiver* pool_;
  std::unique_ptr<OtReceiver> inner_;
  std::vector<Pending> pend_;
  std::vector<Block> frame_;
  std::vector<Block> ct_;
  bool refill_pending_ = false;
  std::uint64_t refill_base_before_ = 0;
};

std::unique_ptr<OtSender> make_precomp_ot_sender(Transport& tx, Block seed,
                                                 RandomOtPoolSender* warm_pool,
                                                 std::size_t pool_target) {
  return std::make_unique<PrecompOtSender>(tx, seed, warm_pool, pool_target);
}

std::unique_ptr<OtReceiver> make_precomp_ot_receiver(Transport& tx, Block seed,
                                                     RandomOtPoolReceiver* warm_pool,
                                                     std::size_t pool_target) {
  return std::make_unique<PrecompOtReceiver>(tx, seed, warm_pool, pool_target);
}

}  // namespace arm2gc::gc
