#include "kop/policy/region_table.hpp"

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
  for (size_t i = 0; i < count_; ++i) {
    if (regions_[i].base == region.base && regions_[i].len == region.len) {
      return AlreadyExists("identical region already present");
    }
  }
  regions_[count_++] = region;
  BumpGeneration();
  return OkStatus();
}

Status RegionTable64::Remove(uint64_t base) {
  std::lock_guard<Spinlock> guard(lock_);
  for (size_t i = 0; i < count_; ++i) {
    if (regions_[i].base == base) {
      for (size_t j = i + 1; j < count_; ++j) regions_[j - 1] = regions_[j];
      --count_;
      BumpGeneration();
      return OkStatus();
    }
  }
  return NotFound("no region with that base");
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

void RegionTable64::BumpGeneration() {
  // Table generation first, engine clock second: a pinned guard whose
  // clock snapshot caught up is guaranteed to see the new generation too.
  generation_.fetch_add(1, std::memory_order_release);
  mutation_clock_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace kop::policy
