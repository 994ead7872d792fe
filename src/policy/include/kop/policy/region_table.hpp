// The paper's policy structure: a fixed table of at most 64 regions,
// scanned linearly. "A table was chosen in order to minimize pointer
// chasing ... optimized for cache-friendly search of a small number of
// regions" (§3.1, §4.2). First match wins, so overlapping regions are
// representable and their order matters.
//
// The table only stores; it never decides. Guards decide against the
// engine's immutable PolicyFrame copy of Snapshot() (PolicyEngine::
// FrameLookup), so the table's job is to serialize mutators and tell
// the engine, through generation(), that the published frame went stale.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "kop/policy/region.hpp"
#include "kop/util/spinlock.hpp"
#include "kop/util/status.hpp"

namespace kop::policy {

class RegionTable64 {
 public:
  static constexpr size_t kMaxRegions = 64;

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
  /// Remove the region with this exact base, keeping the order of the
  /// rest (first-match semantics depend on it). kNotFound when absent.
  Status Remove(uint64_t base);
  void Clear();

  size_t Size() const;
  /// All regions, in first-match order.
  std::vector<Region> Snapshot() const;

  /// Monotonic mutation counter. A policy frame published at generation G
  /// is current while generation() == G; guards republish on mismatch.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  // Callers hold lock_.
  void BumpGeneration();

  mutable Spinlock lock_;
  std::array<Region, kMaxRegions> regions_{};  // guarded by lock_
  size_t count_ = 0;                           // guarded by lock_
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t>& mutation_clock_;
};

}  // namespace kop::policy
