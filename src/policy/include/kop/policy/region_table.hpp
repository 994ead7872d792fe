// The paper's policy structure: a fixed table of at most 64 regions with
// first-match semantics. "A table was chosen in order to minimize pointer
// chasing ... optimized for cache-friendly search of a small number of
// regions" (§3.1, §4.2). First match wins, so overlapping regions are
// representable and their order (insertion order, "table order")
// matters.
//
// The table only stores; it never decides. Guards decide against the
// engine's immutable PolicyFrame copy of Index(): the regions sorted by
// base, each tagged with its table-order position and the running
// maximum end, which guard::FrameLookup binary-searches. Add and
// Remove keep a base-order permutation of the table up to date under the
// table lock, O(n) each, so building the index is one copying pass with
// no sort. The table's job is to serialize mutators and tell the engine,
// through generation(), that the published frame went stale.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "kop/guard/pinned.hpp"
#include "kop/policy/region.hpp"
#include "kop/util/spinlock.hpp"
#include "kop/util/status.hpp"

namespace kop::policy {

using guard::IndexedRegion;
using guard::RegionIndex;

class RegionTable64 {
 public:
  static constexpr size_t kMaxRegions = 64;
  static_assert(kMaxRegions <= 256, "by_base_ holds positions as uint8_t");

  /// `mutation_clock` is ticked by every successful mutator, after the
  /// table's own generation. The engine passes its combined mutation
  /// clock so pinned inline guards see table mutations and config changes
  /// with a single generation load.
  explicit RegionTable64(std::atomic<uint64_t>& mutation_clock)
      : mutation_clock_(mutation_clock) {}
  RegionTable64(const RegionTable64&) = delete;
  RegionTable64& operator=(const RegionTable64&) = delete;

  /// Append a region. Overlaps are accepted (the earlier entry wins);
  /// an empty, wrapping or identical region is rejected, and a full
  /// table answers kNoSpace.
  Status Add(const Region& region);
  /// Remove the earliest region (in table order) with this exact base,
  /// keeping the order of the rest (first-match semantics depend on it).
  /// kNotFound when absent.
  Status Remove(uint64_t base);
  void Clear();

  size_t Size() const;
  /// All regions, in table (first-match) order.
  std::vector<Region> Snapshot() const;
  /// All regions sorted by base (equal bases in table order), with
  /// max_end filled in: the index the engine publishes for guards.
  /// `generation` receives the generation() of exactly these regions,
  /// read under the table lock.
  RegionIndex Index(uint64_t* generation) const;

  /// Monotonic mutation counter. A policy frame published at generation G
  /// is current while generation() == G; guards republish on mismatch.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  // Callers hold lock_.
  void BumpGeneration();

  mutable Spinlock lock_;
  // All guarded by lock_. by_base_ holds the table positions of
  // regions_ sorted by base, equal bases in table order.
  std::array<Region, kMaxRegions> regions_{};
  std::array<uint8_t, kMaxRegions> by_base_{};
  size_t count_ = 0;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t>& mutation_clock_;
};

}  // namespace kop::policy
