// StampedRing<T>: the fixed-size flight-recorder ring behind each CPU's
// TraceRing and SpanRecorder ring. A ring has exactly one writer — the
// simulated CPU it belongs to — so appending takes no lock and no
// read-modify-write. There is one writer protocol, AppendWith(fill):
// record n (the ring's own append count, which the writer alone
// advances) goes to slot `n & mask` under a stamp that encodes n — odd
// (2n+1) while `fill` stores the record's words straight into the slot,
// 2n+2 once they are all in — and the count is then published with a
// release store. Hot writers (Tracer::Record, SpanRecorder::EndSpan)
// compose each word from scalars in registers, so no record is built on
// the stack and reloaded; Append(const T&) is the same protocol fed from
// a finished record. Slots are cache-line aligned, so a record of up to
// seven words plus its stamp touches one line. Readers copy a slot
// between two stamp loads and keep it only if both read 2n+2 for the
// record they wanted, so a record that is mid-write or already
// overwritten by a later lap is skipped, never returned torn. Every word
// is a relaxed atomic (plain movs on x86), so concurrent readers are
// race-free under TSan as well as correct.
//
// Contract: one writer per ring. Two host threads that append to the
// same ring (threads sharing a simulated CPU id) may lose or mix
// records; nothing outside the flight recorder reads them.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace kop::trace {

// Cache-line aligned: the count is stored on every append, so two CPUs'
// rings must not share its line.
template <typename T>
class alignas(64) StampedRing {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) % sizeof(uint64_t) == 0);
  static constexpr size_t kWords = sizeof(T) / sizeof(uint64_t);

 public:
  /// `capacity` must be a power of two.
  explicit StampedRing(size_t capacity)
      : slots_(std::make_unique<Slot[]>(capacity)), mask_(capacity - 1) {}

  size_t capacity() const { return mask_ + 1; }

  /// Records ever appended, including overwritten ones. The index the
  /// next Append publishes under.
  uint64_t appended() const { return count_.load(std::memory_order_acquire); }

  /// The words of one slot, in T's memory order: word i holds bytes
  /// [8i, 8i+8) of the T that readers copy back.
  using Words = std::array<std::atomic<uint64_t>, kWords>;

  /// Publish record appended() (seqlock writer side): `fill(n, words)`
  /// must store every word of record n with a relaxed store. Only the
  /// ring's owning CPU may call this.
  template <typename Fill>
  void AppendWith(Fill&& fill) {
    const uint64_t n = count_.load(std::memory_order_relaxed);
    Slot& slot = slots_[n & mask_];
    slot.stamp.store(2 * n + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    fill(n, slot.words);
    slot.stamp.store(2 * n + 2, std::memory_order_release);
    count_.store(n + 1, std::memory_order_release);
  }

  /// Publish `value` as record appended().
  void Append(const T& value) {
    // Word-sized loads, so each one forwards from the caller's stores.
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    AppendWith([bytes](uint64_t, Words& words) {
      for (size_t i = 0; i < kWords; ++i) {
        uint64_t word;
        std::memcpy(&word, bytes + i * sizeof(word), sizeof(word));
        words[i].store(word, std::memory_order_relaxed);
      }
    });
  }

  /// Append to `out`, oldest first, the retained records among the
  /// newest `limit` appended. Slots mid-write or overwritten by a later
  /// lap are skipped.
  void ReadTail(uint64_t limit, std::vector<T>* out) const {
    const uint64_t appended_now = appended();
    const uint64_t n = std::min({appended_now, limit, uint64_t{capacity()}});
    for (uint64_t r = appended_now - n; r < appended_now; ++r) {
      const Slot& slot = slots_[r & mask_];
      const uint64_t want = 2 * r + 2;
      if (slot.stamp.load(std::memory_order_acquire) != want) continue;
      uint64_t words[kWords];
      for (size_t i = 0; i < kWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.stamp.load(std::memory_order_relaxed) != want) continue;
      T value;
      std::memcpy(&value, words, sizeof(T));
      out->push_back(value);
    }
  }

  /// Zero every slot and the count. Not safe against concurrent Append.
  void Clear() {
    count_.store(0, std::memory_order_relaxed);
    for (size_t s = 0; s <= mask_; ++s) {
      slots_[s].stamp.store(0, std::memory_order_relaxed);
      for (auto& word : slots_[s].words) {
        word.store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> stamp{0};
    Words words{};
  };

  std::atomic<uint64_t> count_{0};
  std::unique_ptr<Slot[]> slots_;
  uint64_t mask_;
};

}  // namespace kop::trace
