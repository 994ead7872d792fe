// Counters with exactly one writer. A relaxed load plus a relaxed store
// is an exact increment when no other thread ever writes the counter, and
// compiles to a plain add (no lock prefix). The atomic type only keeps
// concurrent readers (stat folds, MMIO register reads) race-free.
#pragma once

#include <atomic>
#include <cstdint>

namespace kop {

inline void BumpRelaxed(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

}  // namespace kop
