#include "kop/policy/region_table.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>

namespace kop::policy {

std::string Region::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[0x%llx, +0x%llx) %s%s",
                static_cast<unsigned long long>(base),
                static_cast<unsigned long long>(len),
                (prot & kProtRead) ? "r" : "-",
                (prot & kProtWrite) ? "w" : "-");
  return buf;
}

Status RegionTable64::Add(const Region& region) {
  if (region.len == 0) return InvalidArgument("empty region");
  if (region.base + region.len < region.base) {
    return InvalidArgument("region wraps the address space");
  }
  std::lock_guard<Spinlock> guard(lock_);
  if (count_ == kMaxRegions) {
    return NoSpace("region table full (" + std::to_string(kMaxRegions) + ")");
  }
  uint8_t* const first = by_base_.data();
  uint8_t* const last = first + count_;
  // After every equal base: the new region is last in table order.
  uint8_t* const at = std::upper_bound(
      first, last, region.base,
      [this](uint64_t key, uint8_t i) { return key < regions_[i].base; });
  for (const uint8_t* it = at;
       it != first && regions_[it[-1]].base == region.base; --it) {
    if (regions_[it[-1]].len == region.len) {
      return AlreadyExists("identical region already present");
    }
  }
  std::copy_backward(at, last, last + 1);
  *at = static_cast<uint8_t>(count_);
  regions_[count_++] = region;
  BumpGeneration();
  return OkStatus();
}

Status RegionTable64::Remove(uint64_t base) {
  std::lock_guard<Spinlock> guard(lock_);
  uint8_t* const first = by_base_.data();
  uint8_t* const last = first + count_;
  // Equal bases are in table order, so the first is the earliest.
  uint8_t* const at = std::lower_bound(
      first, last, base,
      [this](uint8_t i, uint64_t key) { return regions_[i].base < key; });
  if (at == last || regions_[*at].base != base) {
    return NotFound("no region with that base");
  }
  const uint8_t removed = *at;
  std::copy(at + 1, last, at);
  std::copy(regions_.begin() + removed + 1, regions_.begin() + count_,
            regions_.begin() + removed);
  --count_;
  // Every later table position moved down by one.
  for (size_t i = 0; i < count_; ++i) {
    by_base_[i] -= by_base_[i] > removed ? 1 : 0;
  }
  BumpGeneration();
  return OkStatus();
}

void RegionTable64::Clear() {
  std::lock_guard<Spinlock> guard(lock_);
  count_ = 0;
  BumpGeneration();
}

size_t RegionTable64::Size() const {
  std::lock_guard<Spinlock> guard(lock_);
  return count_;
}

std::vector<Region> RegionTable64::Snapshot() const {
  std::lock_guard<Spinlock> guard(lock_);
  return std::vector<Region>(regions_.begin(), regions_.begin() + count_);
}

RegionIndex RegionTable64::Index(uint64_t* generation) const {
  std::lock_guard<Spinlock> guard(lock_);
  *generation = generation_.load(std::memory_order_relaxed);
  RegionIndex index{
      std::unique_ptr<IndexedRegion[]>(new IndexedRegion[count_]), count_};
  uint64_t max_end = 0;
  for (size_t k = 0; k < count_; ++k) {
    const Region& region = regions_[by_base_[k]];
    const uint64_t end = region.base + region.len;
    max_end = std::max(max_end, end);
    index.entries[k] = IndexedRegion{region.base, end, max_end, region.prot,
                                     by_base_[k]};
  }
  return index;
}

void RegionTable64::BumpGeneration() {
  // Table generation first, engine clock second: a pinned guard whose
  // clock snapshot caught up is guaranteed to see the new generation too.
  generation_.fetch_add(1, std::memory_order_release);
  mutation_clock_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace kop::policy
