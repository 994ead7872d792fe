#include "kop/kernel/address_space.hpp"

#include <algorithm>
#include <cstring>

#include "kop/util/bits.hpp"

namespace kop::kernel {
namespace {

std::string HexRange(uint64_t base, uint64_t size) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[0x%llx, 0x%llx)",
                static_cast<unsigned long long>(base),
                static_cast<unsigned long long>(base + size));
  return buf;
}

bool ValidAccessSize(uint64_t size) {
  return size == 1 || size == 2 || size == 4 || size == 8;
}

bool ValidMmioAccess(uint64_t addr, uint64_t size) {
  return ValidAccessSize(size) && IsAligned(addr, size);
}

}  // namespace

Status AddressSpace::MapRam(std::string name, uint64_t base, uint64_t size,
                            bool writable) {
  if (size == 0) return InvalidArgument("cannot map empty region " + name);
  if (base + size < base) return InvalidArgument("region wraps: " + name);
  for (const auto& region : regions_) {
    if (RangesOverlap(base, size, region->info.base, region->info.size)) {
      return AlreadyExists("mapping " + name + " " + HexRange(base, size) +
                           " overlaps " + region->info.name);
    }
  }
  auto region = std::make_unique<Region>();
  region->info = RegionInfo{std::move(name), base, size, RegionBacking::kRam,
                            writable};
  region->ram.assign(size, 0);
  auto pos = std::upper_bound(
      regions_.begin(), regions_.end(), base,
      [](uint64_t b, const std::unique_ptr<Region>& r) {
        return b < r->info.base;
      });
  regions_.insert(pos, std::move(region));
  return OkStatus();
}

Status AddressSpace::MapMmio(std::string name, uint64_t base, uint64_t size,
                             MmioDevice* device) {
  if (device == nullptr) return InvalidArgument("null MMIO device: " + name);
  if (size == 0) return InvalidArgument("cannot map empty region " + name);
  if (base + size < base) return InvalidArgument("region wraps: " + name);
  for (const auto& region : regions_) {
    if (RangesOverlap(base, size, region->info.base, region->info.size)) {
      return AlreadyExists("mapping " + name + " " + HexRange(base, size) +
                           " overlaps " + region->info.name);
    }
  }
  auto region = std::make_unique<Region>();
  region->info = RegionInfo{std::move(name), base, size, RegionBacking::kMmio,
                            true};
  region->mmio = device;
  auto pos = std::upper_bound(
      regions_.begin(), regions_.end(), base,
      [](uint64_t b, const std::unique_ptr<Region>& r) {
        return b < r->info.base;
      });
  regions_.insert(pos, std::move(region));
  return OkStatus();
}

Status AddressSpace::Unmap(uint64_t base) {
  for (auto it = regions_.begin(); it != regions_.end(); ++it) {
    if ((*it)->info.base == base) {
      const Region* gone = it->get();
      last_hit_.ForEach([gone](uint32_t, std::atomic<const Region*>& slot) {
        if (slot.load(std::memory_order_relaxed) == gone) {
          slot.store(nullptr, std::memory_order_relaxed);
        }
      });
      regions_.erase(it);
      return OkStatus();
    }
  }
  return NotFound("no region mapped at " + HexRange(base, 0));
}

const AddressSpace::Region* AddressSpace::Find(uint64_t addr,
                                               uint64_t size) const {
  const uint64_t span = size == 0 ? 1 : size;
  std::atomic<const Region*>& hint = last_hit_.Mine();
  const Region* cached = hint.load(std::memory_order_relaxed);
  if (cached != nullptr &&
      RangeContains(cached->info.base, cached->info.size, addr, span)) {
    return cached;
  }
  // Binary search over the sorted region list.
  auto pos = std::upper_bound(
      regions_.begin(), regions_.end(), addr,
      [](uint64_t a, const std::unique_ptr<Region>& r) {
        return a < r->info.base;
      });
  if (pos == regions_.begin()) return nullptr;
  const Region* region = std::prev(pos)->get();
  if (!RangeContains(region->info.base, region->info.size, addr, span)) {
    return nullptr;
  }
  hint.store(region, std::memory_order_relaxed);
  return region;
}

AddressSpace::Region* AddressSpace::Find(uint64_t addr, uint64_t size) {
  return const_cast<Region*>(
      static_cast<const AddressSpace*>(this)->Find(addr, size));
}

Status AddressSpace::ReadSlow(uint64_t addr, void* out, uint64_t size) const {
  if (size == 0) return OkStatus();
  const Region* region = Find(addr, size);
  if (region == nullptr) {
    return OutOfRange("read of " + HexRange(addr, size) +
                      " hits unmapped memory");
  }
  const uint64_t offset = addr - region->info.base;
  if (region->info.backing == RegionBacking::kRam) {
    std::memcpy(out, region->ram.data() + offset, size);
    return OkStatus();
  }
  if (!ValidMmioAccess(addr, size)) {
    return InvalidArgument("MMIO read " + HexRange(addr, size) +
                           " must be a naturally aligned 1/2/4/8-byte unit");
  }
  const uint64_t value =
      region->mmio->MmioRead(offset, static_cast<uint32_t>(size));
  std::memcpy(out, &value, size);
  return OkStatus();
}

Status AddressSpace::WriteSlow(uint64_t addr, const void* data,
                                uint64_t size) {
  if (size == 0) return OkStatus();
  Region* region = Find(addr, size);
  if (region == nullptr) {
    return OutOfRange("write of " + HexRange(addr, size) +
                      " hits unmapped memory");
  }
  if (!region->info.writable) {
    return PermissionDenied("write to read-only region " + region->info.name);
  }
  const uint64_t offset = addr - region->info.base;
  if (region->info.backing == RegionBacking::kRam) {
    std::memcpy(region->ram.data() + offset, data, size);
    return OkStatus();
  }
  if (!ValidMmioAccess(addr, size)) {
    return InvalidArgument("MMIO write " + HexRange(addr, size) +
                           " must be a naturally aligned 1/2/4/8-byte unit");
  }
  uint64_t value = 0;
  std::memcpy(&value, data, size);
  region->mmio->MmioWrite(offset, value, static_cast<uint32_t>(size));
  return OkStatus();
}

template <typename T>
static Result<T> TypedRead(const AddressSpace& space, uint64_t addr) {
  T value{};
  Status status = space.Read(addr, &value, sizeof(T));
  if (!status.ok()) return status;
  return value;
}

Result<uint8_t> AddressSpace::Read8(uint64_t addr) const {
  return TypedRead<uint8_t>(*this, addr);
}
Result<uint16_t> AddressSpace::Read16(uint64_t addr) const {
  return TypedRead<uint16_t>(*this, addr);
}
Result<uint32_t> AddressSpace::Read32(uint64_t addr) const {
  return TypedRead<uint32_t>(*this, addr);
}
Result<uint64_t> AddressSpace::Read64(uint64_t addr) const {
  return TypedRead<uint64_t>(*this, addr);
}

Status AddressSpace::Write8(uint64_t addr, uint8_t value) {
  return Write(addr, &value, sizeof(value));
}
Status AddressSpace::Write16(uint64_t addr, uint16_t value) {
  return Write(addr, &value, sizeof(value));
}
Status AddressSpace::Write32(uint64_t addr, uint32_t value) {
  return Write(addr, &value, sizeof(value));
}
Status AddressSpace::Write64(uint64_t addr, uint64_t value) {
  return Write(addr, &value, sizeof(value));
}

Result<uint64_t> AddressSpace::LoadSlow(uint64_t addr, uint32_t size) const {
  if (!ValidAccessSize(size)) {
    return InvalidArgument("load of " + std::to_string(size) +
                           " bytes must be a 1/2/4/8-byte unit");
  }
  uint64_t value = 0;  // little-endian host: the low bytes are the value
  KOP_RETURN_IF_ERROR(ReadSlow(addr, &value, size));
  return value;
}

Status AddressSpace::StoreSlow(uint64_t addr, uint64_t value, uint32_t size) {
  if (!ValidAccessSize(size)) {
    return InvalidArgument("store of " + std::to_string(size) +
                           " bytes must be a 1/2/4/8-byte unit");
  }
  return WriteSlow(addr, &value, size);
}

Status AddressSpace::Memset(uint64_t addr, uint8_t value, uint64_t size) {
  if (size == 0) return OkStatus();
  Region* region = Find(addr, size);
  if (region == nullptr || region->info.backing != RegionBacking::kRam) {
    return OutOfRange("memset of " + HexRange(addr, size) +
                      " must target one mapped RAM region");
  }
  if (!region->info.writable) {
    return PermissionDenied("memset of read-only region " +
                            region->info.name);
  }
  std::memset(region->ram.data() + (addr - region->info.base), value, size);
  return OkStatus();
}

bool AddressSpace::IsMapped(uint64_t addr, uint64_t size) const {
  return Find(addr, size) != nullptr;
}

const uint8_t* AddressSpace::RawHostPointerSlow(uint64_t addr,
                                                uint64_t size) const {
  const Region* region = Find(addr, size);
  if (region == nullptr || region->info.backing != RegionBacking::kRam) {
    return nullptr;
  }
  return region->ram.data() + (addr - region->info.base);
}

std::vector<RegionInfo> AddressSpace::Regions() const {
  std::vector<RegionInfo> out;
  out.reserve(regions_.size());
  for (const auto& region : regions_) out.push_back(region->info);
  return out;
}

}  // namespace kop::kernel
