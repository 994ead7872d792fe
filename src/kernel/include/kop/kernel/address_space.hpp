// The simulated kernel address space: a sparse collection of mapped
// regions, each backed either by host memory (RAM regions: direct map,
// kernel data, module area) or by an MMIO handler (device register
// windows). All simulated loads and stores — from the KIR engines, the
// e1000e driver's MemOps, and the NIC's DMA engine — go through here and
// are bounds-checked against the map.
//
// Accesses that hit the calling CPU's hint region — RAM, the whole
// access inside it, writable for writes, a 1/2/4/8-byte unit for
// Load/Store — complete inline in this header as one fixed-size copy on
// the backing store. Everything else (a miss, MMIO, an unmapped or
// read-only target, a bad size) goes out of line to address_space.cpp,
// the only code that searches the map, refills the hint and builds an
// error Status.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kop/smp/percpu.hpp"
#include "kop/util/status.hpp"

namespace kop::kernel {

/// A device that owns a window of MMIO addresses. Offsets passed to the
/// callbacks are relative to the window base. MMIO is accessed in 1/2/4/8
/// byte units, like real device BARs.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  virtual uint64_t MmioRead(uint64_t offset, uint32_t size) = 0;
  virtual void MmioWrite(uint64_t offset, uint64_t value, uint32_t size) = 0;
};

/// Kind of backing behind a mapped region.
enum class RegionBacking { kRam, kMmio };

/// Metadata for one mapped region (exposed for introspection/tests).
struct RegionInfo {
  std::string name;
  uint64_t base = 0;
  uint64_t size = 0;
  RegionBacking backing = RegionBacking::kRam;
  bool writable = true;  // e.g. kernel text / module text are read-only
};

class AddressSpace {
 public:
  AddressSpace() = default;
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// Map `size` bytes of zeroed RAM at `base`. Fails on overlap.
  Status MapRam(std::string name, uint64_t base, uint64_t size,
                bool writable = true);

  /// Map an MMIO window serviced by `device` (not owned; must outlive
  /// the mapping). Fails on overlap.
  Status MapMmio(std::string name, uint64_t base, uint64_t size,
                 MmioDevice* device);

  /// Remove the region starting exactly at `base`.
  Status Unmap(uint64_t base);

  /// Raw byte access. Fails (kOutOfRange) when any byte of
  /// [addr, addr+size) is unmapped, or (kPermissionDenied) when writing
  /// a read-only region. RAM accesses may span region boundaries only
  /// within one region; MMIO must be 1/2/4/8 bytes and size-aligned.
  Status Read(uint64_t addr, void* out, uint64_t size) const;
  Status Write(uint64_t addr, const void* data, uint64_t size);

  /// Typed helpers over Read/Write, with the same error codes.
  Result<uint8_t> Read8(uint64_t addr) const;
  Result<uint16_t> Read16(uint64_t addr) const;
  Result<uint32_t> Read32(uint64_t addr) const;
  Result<uint64_t> Read64(uint64_t addr) const;
  Status Write8(uint64_t addr, uint8_t value);
  Status Write16(uint64_t addr, uint16_t value);
  Status Write32(uint64_t addr, uint32_t value);
  Status Write64(uint64_t addr, uint64_t value);

  /// Sized access for load/store instructions: `size` must be 1, 2, 4 or
  /// 8 (kInvalidArgument otherwise). Load zero-extends; Store writes the
  /// low `size` bytes of `value`. Same map, permission and MMIO rules as
  /// Read/Write.
  Result<uint64_t> Load(uint64_t addr, uint32_t size) const;
  Status Store(uint64_t addr, uint64_t value, uint32_t size);

  /// Zero-fill a RAM range.
  Status Memset(uint64_t addr, uint8_t value, uint64_t size);

  /// True when [addr, addr+size) lies fully inside one mapped region.
  bool IsMapped(uint64_t addr, uint64_t size) const;

  /// Direct host pointer into a RAM region's backing store, or nullptr
  /// for MMIO/unmapped. Used by the DMA engine for bulk copies; regular
  /// simulated code must use Read/Write.
  uint8_t* RawHostPointer(uint64_t addr, uint64_t size);
  const uint8_t* RawHostPointer(uint64_t addr, uint64_t size) const;

  /// Introspection for tests and dumps.
  std::vector<RegionInfo> Regions() const;

 private:
  struct Region {
    RegionInfo info;
    std::vector<uint8_t> ram;   // backing for kRam
    MmioDevice* mmio = nullptr; // handler for kMmio
  };

  /// Host address of [addr, addr+size) when the access lies wholly
  /// inside the calling CPU's hint region, that region is RAM and, for a
  /// write, writable; nullptr sends the caller out of line. Size 0 never
  /// hits. The offset test is overflow-safe: addr < base wraps to an
  /// offset past the region's end.
  const uint8_t* HintedRam(uint64_t addr, uint64_t size, bool write) const {
    const Region* region = last_hit_.Mine().load(std::memory_order_relaxed);
    if (region == nullptr || region->info.backing != RegionBacking::kRam) {
      return nullptr;
    }
    const uint64_t offset = addr - region->info.base;
    if (size == 0 || offset >= region->info.size ||
        size > region->info.size - offset) {
      return nullptr;
    }
    if (write && !region->info.writable) return nullptr;
    return region->ram.data() + offset;
  }

  const Region* Find(uint64_t addr, uint64_t size) const;
  Region* Find(uint64_t addr, uint64_t size);

  // The out-of-line halves of the accessors above: every miss and every
  // error. Same semantics as the public calls, minus the hint check.
  Result<uint64_t> LoadSlow(uint64_t addr, uint32_t size) const;
  Status StoreSlow(uint64_t addr, uint64_t value, uint32_t size);
  Status ReadSlow(uint64_t addr, void* out, uint64_t size) const;
  Status WriteSlow(uint64_t addr, const void* data, uint64_t size);
  const uint8_t* RawHostPointerSlow(uint64_t addr, uint64_t size) const;

  // Sorted by base address; regions never overlap.
  std::vector<std::unique_ptr<Region>> regions_;
  // Each CPU's most-recently-hit region. Accesses cluster (a driver
  // hammers its ring, its MMIO window, its globals), so one range check
  // usually replaces the binary search. A CPU's slot has one writer, that
  // CPU's Find, so CPUs working different regions never evict each
  // other's hint or share its cache line. Region objects are heap-stable;
  // Unmap clears every slot that points at the region it removes.
  mutable smp::PerCpu<std::atomic<const Region*>> last_hit_;
};

// ------------------------------------------------------ inline hit path --

inline Status AddressSpace::Read(uint64_t addr, void* out,
                                 uint64_t size) const {
  if (const uint8_t* host = HintedRam(addr, size, /*write=*/false)) {
    std::memcpy(out, host, size);
    return Status();
  }
  return ReadSlow(addr, out, size);
}

inline Status AddressSpace::Write(uint64_t addr, const void* data,
                                  uint64_t size) {
  if (const uint8_t* host = HintedRam(addr, size, /*write=*/true)) {
    std::memcpy(const_cast<uint8_t*>(host), data, size);
    return Status();
  }
  return WriteSlow(addr, data, size);
}

inline Result<uint64_t> AddressSpace::Load(uint64_t addr,
                                           uint32_t size) const {
  // Little-endian host: the low `size` bytes of the value are the unit.
  if (const uint8_t* host = HintedRam(addr, size, /*write=*/false)) {
    uint64_t value = 0;
    switch (size) {
      case 1: std::memcpy(&value, host, 1); return value;
      case 2: std::memcpy(&value, host, 2); return value;
      case 4: std::memcpy(&value, host, 4); return value;
      case 8: std::memcpy(&value, host, 8); return value;
      default: break;
    }
  }
  return LoadSlow(addr, size);
}

inline Status AddressSpace::Store(uint64_t addr, uint64_t value,
                                  uint32_t size) {
  if (const uint8_t* host = HintedRam(addr, size, /*write=*/true)) {
    uint8_t* out = const_cast<uint8_t*>(host);
    switch (size) {
      case 1: std::memcpy(out, &value, 1); return Status();
      case 2: std::memcpy(out, &value, 2); return Status();
      case 4: std::memcpy(out, &value, 4); return Status();
      case 8: std::memcpy(out, &value, 8); return Status();
      default: break;
    }
  }
  return StoreSlow(addr, value, size);
}

inline uint8_t* AddressSpace::RawHostPointer(uint64_t addr, uint64_t size) {
  return const_cast<uint8_t*>(
      static_cast<const AddressSpace*>(this)->RawHostPointer(addr, size));
}

inline const uint8_t* AddressSpace::RawHostPointer(uint64_t addr,
                                                   uint64_t size) const {
  if (const uint8_t* host = HintedRam(addr, size, /*write=*/false)) {
    return host;
  }
  return RawHostPointerSlow(addr, size);
}

}  // namespace kop::kernel
