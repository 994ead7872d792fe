#include "kop/kir/coverage.hpp"

#include <cstddef>

namespace kop::kir {
namespace {

thread_local CoverageMap* tls_coverage = nullptr;

}  // namespace

size_t CoverageMap::CoveredSlots() const {
  size_t covered = 0;
  for (uint8_t slot : map_) covered += slot != 0;
  return covered;
}

std::vector<uint32_t> CoverageMap::Slots() const {
  std::vector<uint32_t> slots;
  for (size_t i = 0; i < kSlots; ++i) {
    if (map_[i] != 0) slots.push_back(static_cast<uint32_t>(i));
  }
  return slots;
}

size_t CoverageMap::MergeCountingNew(const CoverageMap& other) {
  size_t fresh = 0;
  for (size_t i = 0; i < kSlots; ++i) {
    if (other.map_[i] == 0) continue;
    if (map_[i] == 0) ++fresh;
    const unsigned sum = map_[i] + other.map_[i];
    map_[i] = sum > 0xff ? 0xff : static_cast<uint8_t>(sum);
  }
  return fresh;
}

uint64_t CoverageMap::Digest() const {
  // FNV-1a over covered slot indices: counts deliberately excluded so
  // the digest compares path sets, not trial-order-dependent heat.
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < kSlots; ++i) {
    if (map_[i] == 0) continue;
    hash ^= i;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

CoverageMap* ThreadCoverage() { return tls_coverage; }

ScopedCoverage::ScopedCoverage(CoverageMap* map) : prev_(tls_coverage) {
  tls_coverage = map;
}

ScopedCoverage::~ScopedCoverage() { tls_coverage = prev_; }

}  // namespace kop::kir
