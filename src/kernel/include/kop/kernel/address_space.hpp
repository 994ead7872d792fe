// The simulated kernel address space: a sparse collection of mapped
// regions, each backed either by host memory (RAM regions: direct map,
// kernel data, module area) or by an MMIO handler (device register
// windows). All simulated loads and stores — from the KIR interpreter,
// the e1000e driver's MemOps, and the NIC's DMA engine — go through here
// and are bounds-checked against the map.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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

  /// Typed helpers; they panic-free return 0 on error paths in release
  /// use ReadChecked for error visibility.
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

  const Region* Find(uint64_t addr, uint64_t size) const;
  Region* Find(uint64_t addr, uint64_t size);

  // Sorted by base address; regions never overlap.
  std::vector<std::unique_ptr<Region>> regions_;
  // Most-recently-hit region. Accesses cluster (a driver hammers its
  // ring, its MMIO window, its globals), so one range check usually
  // replaces the binary search. Region objects are heap-stable; the
  // cache only needs invalidating when a region is unmapped. Atomic so
  // concurrent CPUs sharing the address space race benignly on the hint
  // (each CPU's miss just refills it) instead of tearing a pointer.
  mutable std::atomic<const Region*> last_hit_{nullptr};
};

}  // namespace kop::kernel
