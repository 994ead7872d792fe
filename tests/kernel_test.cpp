// kop::kernel: address space, kmalloc, printk, symbols, chardev, panic,
// and the module loader's kernel-side behaviours not already covered by
// the integration suite.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>

#include "kop/kernel/address_space.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/kernel/kmalloc.hpp"
#include "kop/kernel/memory_map.hpp"
#include "kop/kernel/printk.hpp"
#include "kop/kernel/procfs.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/executor.hpp"

namespace kop::kernel {
namespace {

// ----------------------------------------------------------- memory map --

TEST(MemoryMapTest, HalvesClassifyCorrectly) {
  EXPECT_TRUE(IsUserAddress(0x400000));
  EXPECT_FALSE(IsKernelAddress(0x400000));
  EXPECT_TRUE(IsKernelAddress(kDirectMapBase));
  EXPECT_TRUE(IsKernelAddress(kModuleBase));
  EXPECT_FALSE(IsUserAddress(kKernelTextBase));
  EXPECT_FALSE(IsUserAddress(kUserSpaceEnd));
}

// --------------------------------------------------------- address space --

TEST(AddressSpaceTest, MapReadWrite) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("test", 0x1000, 0x1000).ok());
  ASSERT_TRUE(mem.Write32(0x1100, 0xdeadbeef).ok());
  auto value = mem.Read32(0x1100);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0xdeadbeefu);
  // Fresh RAM is zeroed.
  auto zero = mem.Read64(0x1200);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(*zero, 0u);
  // Sized access: each unit stores the low `size` bytes and loads them
  // back zero-extended, leaving the neighbouring bytes alone.
  for (uint32_t size : {1u, 2u, 4u, 8u}) {
    const uint64_t addr = 0x1300 + 0x10 * size;
    ASSERT_TRUE(mem.Store(addr, 0x8877665544332211ull, size).ok());
    auto loaded = mem.Load(addr, size);
    ASSERT_TRUE(loaded.ok());
    const uint64_t mask = size == 8 ? ~0ull : (1ull << (8 * size)) - 1;
    EXPECT_EQ(*loaded, 0x8877665544332211ull & mask) << "size " << size;
    auto next = mem.Read8(addr + size);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(*next, 0u) << "size " << size;
  }
  EXPECT_EQ(mem.Load(0x1300, 3).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(mem.Store(0x1300, 0, 16).code(), ErrorCode::kInvalidArgument);
}

TEST(AddressSpaceTest, RejectsOverlappingMappings) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("a", 0x1000, 0x1000).ok());
  EXPECT_FALSE(mem.MapRam("b", 0x1800, 0x1000).ok());
  EXPECT_FALSE(mem.MapRam("c", 0x0800, 0x1000).ok());
  EXPECT_TRUE(mem.MapRam("d", 0x2000, 0x1000).ok());  // adjacent is fine
}

TEST(AddressSpaceTest, RejectsEmptyAndWrappingRegions) {
  AddressSpace mem;
  EXPECT_FALSE(mem.MapRam("empty", 0x1000, 0).ok());
  EXPECT_FALSE(mem.MapRam("wrap", ~0ull - 10, 100).ok());
}

TEST(AddressSpaceTest, UnmappedAccessFails) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("test", 0x1000, 0x100).ok());
  EXPECT_FALSE(mem.Read8(0x0fff).ok());
  EXPECT_FALSE(mem.Read8(0x1100).ok());
  // Access straddling the end of the region fails.
  EXPECT_FALSE(mem.Read64(0x10fc).ok());
  EXPECT_TRUE(mem.Read32(0x10fc).ok());
  for (uint32_t size : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(mem.Load(0x0fff, size).status().code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(mem.Store(0x1100, 0, size).code(), ErrorCode::kOutOfRange);
  }
  EXPECT_EQ(mem.Load(0x10fc, 8).status().code(), ErrorCode::kOutOfRange);
  EXPECT_TRUE(mem.Load(0x10fc, 4).ok());
}

TEST(AddressSpaceTest, ReadOnlyRegionRejectsWrites) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("text", 0x1000, 0x100, /*writable=*/false).ok());
  EXPECT_TRUE(mem.Read32(0x1000).ok());
  const Status status = mem.Write32(0x1000, 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kPermissionDenied);
  for (uint32_t size : {1u, 2u, 4u, 8u}) {
    EXPECT_TRUE(mem.Load(0x1000, size).ok());
    EXPECT_EQ(mem.Store(0x1000, 1, size).code(), ErrorCode::kPermissionDenied);
  }
}

TEST(AddressSpaceTest, UnmapRemovesRegion) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("tmp", 0x1000, 0x100).ok());
  ASSERT_TRUE(mem.Unmap(0x1000).ok());
  EXPECT_FALSE(mem.Read8(0x1000).ok());
  EXPECT_FALSE(mem.Unmap(0x1000).ok());
  // Space can be remapped afterwards.
  EXPECT_TRUE(mem.MapRam("tmp2", 0x1000, 0x200).ok());
}

TEST(AddressSpaceTest, BulkReadWrite) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("buf", 0x1000, 0x1000).ok());
  std::vector<uint8_t> data(257);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i);
  ASSERT_TRUE(mem.Write(0x1400, data.data(), data.size()).ok());
  std::vector<uint8_t> readback(data.size());
  ASSERT_TRUE(mem.Read(0x1400, readback.data(), readback.size()).ok());
  EXPECT_EQ(readback, data);
}

TEST(AddressSpaceTest, MemsetFillsRam) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("buf", 0x1000, 0x100).ok());
  ASSERT_TRUE(mem.Memset(0x1010, 0xab, 16).ok());
  auto value = mem.Read8(0x101f);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0xab);
  auto outside = mem.Read8(0x1020);
  ASSERT_TRUE(outside.ok());
  EXPECT_EQ(*outside, 0u);
}

TEST(AddressSpaceTest, RawHostPointerOnlyForRam) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("buf", 0x1000, 0x100).ok());
  uint8_t* p = mem.RawHostPointer(0x1010, 8);
  ASSERT_NE(p, nullptr);
  p[0] = 0x7e;
  auto value = mem.Read8(0x1010);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0x7e);
  EXPECT_EQ(mem.RawHostPointer(0x2000, 8), nullptr);
}

class ScratchMmio : public MmioDevice {
 public:
  uint64_t MmioRead(uint64_t offset, uint32_t size) override {
    reads.emplace_back(offset, size);
    return 0x12345678 + offset;
  }
  void MmioWrite(uint64_t offset, uint64_t value, uint32_t size) override {
    writes.emplace_back(offset, value);
    (void)size;
  }
  std::vector<std::pair<uint64_t, uint32_t>> reads;
  std::vector<std::pair<uint64_t, uint64_t>> writes;
};

TEST(AddressSpaceTest, MmioDispatchesToDevice) {
  AddressSpace mem;
  ScratchMmio device;
  ASSERT_TRUE(mem.MapMmio("dev", 0x10000, 0x1000, &device).ok());
  auto value = mem.Read32(0x10010);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0x12345688u);
  ASSERT_TRUE(mem.Write32(0x10020, 42).ok());
  ASSERT_EQ(device.reads.size(), 1u);
  EXPECT_EQ(device.reads[0], (std::pair<uint64_t, uint32_t>{0x10, 4}));
  ASSERT_EQ(device.writes.size(), 1u);
  EXPECT_EQ(device.writes[0], (std::pair<uint64_t, uint64_t>{0x20, 42}));
  // Sized access reaches the device as one unit of exactly that size.
  for (uint32_t size : {1u, 2u, 4u, 8u}) {
    const uint64_t offset = 0x100 + 0x10 * size;
    auto loaded = mem.Load(0x10000 + offset, size);
    ASSERT_TRUE(loaded.ok());
    const uint64_t mask = size == 8 ? ~0ull : (1ull << (8 * size)) - 1;
    EXPECT_EQ(*loaded, (0x12345678 + offset) & mask) << "size " << size;
    EXPECT_EQ(device.reads.back(),
              (std::pair<uint64_t, uint32_t>{offset, size}));
    ASSERT_TRUE(mem.Store(0x10000 + offset, size, size).ok());
    EXPECT_EQ(device.writes.back(),
              (std::pair<uint64_t, uint64_t>{offset, size}));
  }
}

TEST(AddressSpaceTest, MmioRequiresAlignedPowerOfTwoAccess) {
  AddressSpace mem;
  ScratchMmio device;
  ASSERT_TRUE(mem.MapMmio("dev", 0x10000, 0x1000, &device).ok());
  uint8_t buf[3];
  EXPECT_FALSE(mem.Read(0x10000, buf, 3).ok());   // size 3
  EXPECT_FALSE(mem.Read32(0x10002).ok());          // misaligned
  EXPECT_EQ(mem.Load(0x10002, 4).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(mem.Read16(0x10002).ok());
  EXPECT_EQ(mem.RawHostPointer(0x10000, 4), nullptr);
}

TEST(AddressSpaceTest, RegionsIntrospection) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("b", 0x2000, 0x100).ok());
  ASSERT_TRUE(mem.MapRam("a", 0x1000, 0x100).ok());
  const auto regions = mem.Regions();
  ASSERT_EQ(regions.size(), 2u);
  // Sorted by base.
  EXPECT_EQ(regions[0].name, "a");
  EXPECT_EQ(regions[1].name, "b");
}

// Every test below first lands a hit on one RAM region, so the next
// access runs the inline hit path in address_space.hpp with that region
// as the calling CPU's hint; each case must still end exactly where the
// out-of-line path would.

TEST(AddressSpaceTest, HitPathStopsAtTheHintedRegionsEnd) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("a", 0x1000, 0x100).ok());
  ASSERT_TRUE(mem.MapRam("b", 0x1100, 0x100).ok());  // directly after a
  ASSERT_TRUE(mem.Store(0x1100, 0x5a5a5a5a5a5a5a5aull, 8).ok());
  ASSERT_TRUE(mem.Load(0x1000, 8).ok());  // hint: a
  uint8_t buf[32] = {};
  for (uint32_t size : {2u, 4u, 8u}) {
    const uint64_t addr = 0x1100 - size / 2;
    EXPECT_EQ(mem.Load(addr, size).status().code(), ErrorCode::kOutOfRange);
    ASSERT_TRUE(mem.Load(0x1000, 8).ok());
    EXPECT_EQ(mem.Store(addr, ~0ull, size).code(), ErrorCode::kOutOfRange);
    ASSERT_TRUE(mem.Load(0x1000, 8).ok());
  }
  EXPECT_EQ(mem.Read(0x10f0, buf, sizeof(buf)).code(), ErrorCode::kOutOfRange);
  ASSERT_TRUE(mem.Load(0x1000, 8).ok());
  std::memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(mem.Write(0x10f0, buf, sizeof(buf)).code(),
            ErrorCode::kOutOfRange);
  ASSERT_TRUE(mem.Load(0x1000, 8).ok());
  EXPECT_EQ(mem.RawHostPointer(0x10fc, 8), nullptr);
  // Neither side of the boundary changed.
  EXPECT_EQ(*mem.Load(0x10f8, 8), 0u);
  EXPECT_EQ(*mem.Load(0x1100, 8), 0x5a5a5a5a5a5a5a5aull);
  // The last whole unit inside a still hits.
  ASSERT_TRUE(mem.Load(0x1000, 8).ok());
  EXPECT_TRUE(mem.Store(0x10f8, 7, 8).ok());
  EXPECT_EQ(*mem.Load(0x10f8, 8), 7u);
}

TEST(AddressSpaceTest, HitPathRejectsWritesToReadOnlyHint) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("text", 0x1000, 0x100, /*writable=*/false).ok());
  for (uint32_t size : {1u, 2u, 4u, 8u}) {
    ASSERT_TRUE(mem.Load(0x1040, size).ok());  // hint: text
    EXPECT_EQ(mem.Store(0x1040, ~0ull, size).code(),
              ErrorCode::kPermissionDenied);
  }
  uint8_t buf[16];
  std::memset(buf, 0xff, sizeof(buf));
  ASSERT_TRUE(mem.Read(0x1040, buf, sizeof(buf)).ok());
  std::memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(mem.Write(0x1040, buf, sizeof(buf)).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(*mem.Load(0x1040, 8), 0u);
  EXPECT_EQ(*mem.Load(0x1048, 8), 0u);
}

TEST(AddressSpaceTest, UnmapClearsEveryCpusHint) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("gone", 0x1000, 0x100).ok());
  ASSERT_TRUE(mem.MapRam("kept", 0x4000, 0x100).ok());
  ASSERT_TRUE(mem.Load(0x1000, 8).ok());  // CPU 0's hint: gone
  {
    smp::ScopedCpu cpu(3);
    ASSERT_TRUE(mem.Load(0x1010, 8).ok());  // CPU 3's hint: gone
  }
  {
    smp::ScopedCpu cpu(5);
    ASSERT_TRUE(mem.Load(0x4000, 8).ok());  // CPU 5's hint: kept
  }
  ASSERT_TRUE(mem.Unmap(0x1000).ok());
  for (uint32_t id : {0u, 3u, 5u}) {
    smp::ScopedCpu cpu(id);
    uint8_t buf[8] = {};
    EXPECT_EQ(mem.Load(0x1000, 8).status().code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(mem.Store(0x1010, 1, 8).code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(mem.Read(0x1000, buf, sizeof(buf)).code(),
              ErrorCode::kOutOfRange);
    EXPECT_EQ(mem.Write(0x1000, buf, sizeof(buf)).code(),
              ErrorCode::kOutOfRange);
    EXPECT_EQ(mem.RawHostPointer(0x1000, 8), nullptr);
    EXPECT_TRUE(mem.Store(0x4000, id, 8).ok());
    EXPECT_EQ(*mem.Load(0x4000, 8), id);
  }
}

TEST(AddressSpaceTest, MmioNextToRamHitReachesTheDevice) {
  AddressSpace mem;
  ScratchMmio device;
  ASSERT_TRUE(mem.MapRam("ram", 0x1000, 0x1000).ok());
  ASSERT_TRUE(mem.MapMmio("dev", 0x2000, 0x1000, &device).ok());
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(mem.Store(0x1ff8, i, 8).ok());  // hint: ram
    auto value = mem.Load(0x2000 + 8 * i, 4);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, 0x12345678 + 8 * i);
    ASSERT_TRUE(mem.Load(0x1ff8, 8).ok());
    ASSERT_TRUE(mem.Store(0x2100 + 8 * i, i, 8).ok());
    ASSERT_TRUE(mem.Load(0x1ff8, 8).ok());
    ASSERT_TRUE(mem.Write32(0x2200, uint32_t(i)).ok());
  }
  ASSERT_EQ(device.reads.size(), 4u);
  EXPECT_EQ(device.reads[3], (std::pair<uint64_t, uint32_t>{0x18, 4}));
  ASSERT_EQ(device.writes.size(), 8u);
  EXPECT_EQ(device.writes[6], (std::pair<uint64_t, uint64_t>{0x118, 3}));
  EXPECT_EQ(device.writes[7], (std::pair<uint64_t, uint64_t>{0x200, 3}));
  EXPECT_EQ(*mem.Load(0x1ff8, 8), 3u);
  ASSERT_TRUE(mem.Load(0x1000, 8).ok());
  EXPECT_EQ(mem.RawHostPointer(0x2000, 4), nullptr);
}

TEST(AddressSpaceTest, HitPathRejectsBadSizes) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("buf", 0x1000, 0x100).ok());
  ASSERT_TRUE(mem.Store(0x1000, ~0ull, 8).ok());
  ASSERT_TRUE(mem.Store(0x1008, ~0ull, 8).ok());
  for (uint32_t size : {0u, 3u, 16u}) {
    ASSERT_TRUE(mem.Load(0x1000, 8).ok());  // hint: buf
    EXPECT_EQ(mem.Load(0x1010, size).status().code(),
              ErrorCode::kInvalidArgument)
        << "size " << size;
    ASSERT_TRUE(mem.Load(0x1000, 8).ok());
    EXPECT_EQ(mem.Store(0x1000, 0, size).code(), ErrorCode::kInvalidArgument)
        << "size " << size;
  }
  EXPECT_EQ(*mem.Load(0x1000, 8), ~0ull);
  EXPECT_EQ(*mem.Load(0x1008, 8), ~0ull);
}

TEST(AddressSpaceTest, ZeroSizeReadWriteIsOk) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("buf", 0x1000, 0x100).ok());
  ASSERT_TRUE(mem.MapRam("text", 0x2000, 0x100, /*writable=*/false).ok());
  uint8_t byte = 0xee;
  for (uint64_t addr : {0x1000ull, 0x1100ull, 0x2000ull, 0x9000ull}) {
    ASSERT_TRUE(mem.Load(0x1000, 8).ok());  // hint: buf
    EXPECT_TRUE(mem.Read(addr, &byte, 0).ok()) << std::hex << addr;
    EXPECT_TRUE(mem.Write(addr, &byte, 0).ok()) << std::hex << addr;
  }
  EXPECT_EQ(byte, 0xee);
  EXPECT_EQ(*mem.Load(0x1000, 1), 0u);
}

TEST(AddressSpaceTest, UnalignedRamAccessHits) {
  AddressSpace mem;
  ASSERT_TRUE(mem.MapRam("buf", 0x1000, 0x100).ok());
  ASSERT_TRUE(mem.Load(0x1000, 8).ok());  // hint: buf
  ASSERT_TRUE(mem.Store(0x1003, 0x1122334455667788ull, 8).ok());
  auto value = mem.Load(0x1003, 8);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0x1122334455667788ull);
  EXPECT_EQ(*mem.Load(0x1002, 1), 0u);
  EXPECT_EQ(*mem.Load(0x100b, 1), 0u);
  EXPECT_EQ(*mem.Read64(0x1003), 0x1122334455667788ull);
  EXPECT_EQ(*mem.Load(0x1005, 2), 0x5566u);
  EXPECT_TRUE(mem.Store(0x10f7, 0xabull << 56, 8).ok());  // last byte: 0x10fe
  EXPECT_EQ(*mem.Load(0x10fe, 1), 0xabu);
}

// A shared MMIO window that counts per offset, safe to hit from every
// CPU at once.
class CountingMmio : public MmioDevice {
 public:
  uint64_t MmioRead(uint64_t offset, uint32_t) override {
    reads[offset / 8].fetch_add(1, std::memory_order_relaxed);
    return offset;
  }
  void MmioWrite(uint64_t offset, uint64_t value, uint32_t) override {
    writes[offset / 8].fetch_add(1, std::memory_order_relaxed);
    last[offset / 8].store(value, std::memory_order_relaxed);
  }
  std::array<std::atomic<uint64_t>, 8> reads{};
  std::array<std::atomic<uint64_t>, 8> writes{};
  std::array<std::atomic<uint64_t>, 8> last{};
};

TEST(AddressSpaceTest, CpusKeepTheirOwnHint) {
  constexpr uint32_t kCpus = 4;
  constexpr uint64_t kIters = 4096;
  constexpr uint64_t kSlots = 64;
  constexpr uint64_t kMmio = 0x100000;
  auto ram_base = [](uint32_t cpu) { return 0x10000 * (uint64_t{cpu} + 1); };
  AddressSpace mem;
  CountingMmio device;
  for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
    ASSERT_TRUE(mem.MapRam("cpu" + std::to_string(cpu), ram_base(cpu),
                           kSlots * 8)
                    .ok());
  }
  ASSERT_TRUE(mem.MapMmio("shared", kMmio, 0x40, &device).ok());
  std::array<uint64_t, kCpus> bad_loads{};
  smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
    const uint64_t base = ram_base(cpu);
    for (uint64_t i = 0; i < kIters; ++i) {
      const uint64_t addr = base + 8 * (i % kSlots);
      const uint64_t tag = (uint64_t{cpu} << 32) | i;
      if (!mem.Store(addr, tag, 8).ok()) ++bad_loads[cpu];
      auto value = mem.Load(addr, 8);
      if (!value.ok() || *value != tag) ++bad_loads[cpu];
      auto reg = mem.Load(kMmio + 8 * cpu, 8);
      if (!reg.ok() || *reg != 8 * cpu) ++bad_loads[cpu];
      if (!mem.Store(kMmio + 8 * (kCpus + cpu), tag, 8).ok()) ++bad_loads[cpu];
    }
  });
  for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
    EXPECT_EQ(bad_loads[cpu], 0u) << "cpu " << cpu;
    EXPECT_EQ(device.reads[cpu].load(), kIters) << "cpu " << cpu;
    EXPECT_EQ(device.writes[kCpus + cpu].load(), kIters) << "cpu " << cpu;
    EXPECT_EQ(device.last[kCpus + cpu].load(),
              (uint64_t{cpu} << 32) | (kIters - 1));
    for (uint64_t slot = 0; slot < kSlots; ++slot) {
      const uint64_t i = kIters - kSlots + slot;  // last write to the slot
      EXPECT_EQ(*mem.Load(ram_base(cpu) + 8 * slot, 8),
                (uint64_t{cpu} << 32) | i)
          << "cpu " << cpu << " slot " << slot;
    }
  }
}

// ----------------------------------------------------------------- kmalloc --

TEST(KmallocTest, AllocateFreeReuse) {
  KmallocArena arena(0x1000, 0x1000);
  auto a = arena.Kmalloc(100);
  ASSERT_TRUE(a.ok());
  auto b = arena.Kmalloc(100);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  ASSERT_TRUE(arena.Kfree(*a).ok());
  auto c = arena.Kmalloc(50);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // first fit reuses the freed block
}

TEST(KmallocTest, AlignmentHonored) {
  KmallocArena arena(0x1001, 0x2000);  // deliberately misaligned base
  auto a = arena.Kmalloc(10, 64);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a % 64, 0u);
  auto b = arena.Kmalloc(10, 256);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b % 256, 0u);
}

TEST(KmallocTest, RejectsBadArguments) {
  KmallocArena arena(0x1000, 0x1000);
  EXPECT_FALSE(arena.Kmalloc(0).ok());
  EXPECT_FALSE(arena.Kmalloc(8, 3).ok());   // non-power-of-two alignment
  EXPECT_FALSE(arena.Kmalloc(8, 4).ok());   // < 8
}

TEST(KmallocTest, ExhaustionFailsGracefully) {
  KmallocArena arena(0x1000, 256);
  auto a = arena.Kmalloc(200);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(arena.Kmalloc(200).ok());
  EXPECT_EQ(arena.Stats().failed_allocs, 1u);
  ASSERT_TRUE(arena.Kfree(*a).ok());
  EXPECT_TRUE(arena.Kmalloc(200).ok());
}

TEST(KmallocTest, DoubleFreeAndWildFreeRejected) {
  KmallocArena arena(0x1000, 0x1000);
  auto a = arena.Kmalloc(64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(arena.Kfree(*a).ok());
  EXPECT_FALSE(arena.Kfree(*a).ok());
  EXPECT_FALSE(arena.Kfree(0x1008).ok());
}

TEST(KmallocTest, CoalescingRebuildsLargeChunk) {
  KmallocArena arena(0x1000, 0x1000);
  std::vector<uint64_t> blocks;
  for (int i = 0; i < 8; ++i) {
    auto a = arena.Kmalloc(256, 8);
    if (a.ok()) blocks.push_back(*a);
  }
  // Arena is (nearly) full; free everything in mixed order.
  for (size_t i : {1u, 3u, 5u, 0u, 2u, 4u, 6u}) {
    if (i < blocks.size()) {
      ASSERT_TRUE(arena.Kfree(blocks[i]).ok());
    }
  }
  if (blocks.size() > 7) {
    ASSERT_TRUE(arena.Kfree(blocks[7]).ok());
  }
  const KmallocStats stats = arena.Stats();
  EXPECT_EQ(stats.allocation_count, 0u);
  EXPECT_EQ(stats.largest_free_chunk, 0x1000u);  // fully coalesced
}

TEST(KmallocTest, StatsTrackUsage) {
  KmallocArena arena(0x1000, 0x1000);
  auto a = arena.Kmalloc(100);  // rounded to 104
  ASSERT_TRUE(a.ok());
  const KmallocStats stats = arena.Stats();
  EXPECT_EQ(stats.total_allocs, 1u);
  EXPECT_EQ(stats.allocation_count, 1u);
  EXPECT_EQ(stats.allocated_bytes, 104u);
  EXPECT_EQ(stats.total_bytes, 0x1000u);
  auto size = arena.AllocationSize(*a);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 104u);
}

// ------------------------------------------------------------------ printk --

TEST(PrintkTest, FormatsAndStores) {
  PrintkRing ring(8);
  ring.Printk(KernLevel::kInfo, "value is %d", 42);
  ring.Printk(KernLevel::kErr, "oops %s", "here");
  const auto records = ring.Dmesg();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].text, "value is 42");
  EXPECT_EQ(records[1].level, KernLevel::kErr);
  EXPECT_TRUE(ring.Contains("oops here"));
  EXPECT_FALSE(ring.Contains("absent"));
}

TEST(PrintkTest, RingDropsOldest) {
  PrintkRing ring(2);
  ring.Emit(KernLevel::kInfo, "one");
  ring.Emit(KernLevel::kInfo, "two");
  ring.Emit(KernLevel::kInfo, "three");
  EXPECT_FALSE(ring.Contains("one"));
  EXPECT_TRUE(ring.Contains("three"));
  EXPECT_EQ(ring.total_emitted(), 3u);
}

TEST(PrintkTest, DmesgTextIncludesLevels) {
  PrintkRing ring(4);
  ring.Emit(KernLevel::kAlert, "bad thing");
  EXPECT_NE(ring.DmesgText().find("ALERT: bad thing"), std::string::npos);
}

TEST(PrintkTest, SequenceNumbersMonotone) {
  PrintkRing ring(2);
  for (int i = 0; i < 5; ++i) ring.Emit(KernLevel::kInfo, "x");
  const auto records = ring.Dmesg();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq + 1, records[1].seq);
  EXPECT_EQ(records[1].seq, 4u);
}

// ------------------------------------------------------------- kernel core --

TEST(KernelTest, StandardMapPresent) {
  Kernel kernel;
  EXPECT_TRUE(kernel.mem().IsMapped(kDirectMapBase, 4096));
  EXPECT_TRUE(kernel.mem().IsMapped(kKernelTextBase, 4096));
  EXPECT_TRUE(kernel.mem().IsMapped(kModuleBase, 4096));
  EXPECT_TRUE(kernel.mem().IsMapped(kernel.config().user_base, 4096));
  // Kernel text is read-only.
  EXPECT_FALSE(kernel.mem().Write8(kKernelTextBase, 1).ok());
}

TEST(KernelTest, HeapAllocatesInsideDirectMap) {
  Kernel kernel;
  auto addr = kernel.heap().Kmalloc(128);
  ASSERT_TRUE(addr.ok());
  EXPECT_GE(*addr, kDirectMapBase);
  EXPECT_LT(*addr, kDirectMapBase + kernel.config().ram_bytes);
  EXPECT_TRUE(kernel.mem().Write64(*addr, 7).ok());
}

TEST(KernelTest, PanicThrowsAndLogs) {
  Kernel kernel;
  EXPECT_THROW(kernel.Panic("test reason"), KernelPanic);
  EXPECT_TRUE(kernel.panicked());
  EXPECT_EQ(kernel.panic_reason(), "test reason");
  EXPECT_TRUE(kernel.log().Contains("Kernel panic - not syncing"));
  kernel.ClearPanic();
  EXPECT_FALSE(kernel.panicked());
}

TEST(KernelTest, BaselineSymbolsExported) {
  Kernel kernel;
  EXPECT_TRUE(kernel.symbols().HasFunction("printk_str"));
  EXPECT_TRUE(kernel.symbols().HasFunction("kmalloc"));
  EXPECT_TRUE(kernel.symbols().HasFunction("kfree"));
}

TEST(KernelTest, KmallocSymbolAllocatesUsableMemory) {
  Kernel kernel;
  auto addr = kernel.symbols().Call("kmalloc", {64});
  ASSERT_TRUE(addr.ok());
  ASSERT_NE(*addr, 0u);
  EXPECT_TRUE(kernel.mem().Write64(*addr, 0x1234).ok());
  EXPECT_TRUE(kernel.symbols().Call("kfree", {*addr}).ok());
}

TEST(KernelTest, PrintkStrReadsSimulatedString) {
  Kernel kernel;
  auto addr = kernel.heap().Kmalloc(32);
  ASSERT_TRUE(addr.ok());
  const char* message = "from module";
  ASSERT_TRUE(kernel.mem().Write(*addr, message, strlen(message) + 1).ok());
  ASSERT_TRUE(kernel.symbols().Call("printk_str", {*addr}).ok());
  EXPECT_TRUE(kernel.log().Contains("from module"));
}

TEST(KernelTest, MachineSwappable) {
  Kernel kernel;
  EXPECT_DOUBLE_EQ(kernel.machine().freq_hz, 2.8e9);  // default R350
  kernel.SetMachine(sim::MachineModel::R415());
  EXPECT_DOUBLE_EQ(kernel.machine().freq_hz, 2.2e9);
}

// ------------------------------------------------------------ procfs --

TEST(ProcfsTest, IomemShowsCanonicalMap) {
  Kernel kernel;
  const std::string iomem = ProcIomem(kernel);
  EXPECT_NE(iomem.find("direct-map"), std::string::npos);
  EXPECT_NE(iomem.find("kernel-text (ram, ro)"), std::string::npos);
  EXPECT_NE(iomem.find("module-area"), std::string::npos);
}

TEST(ProcfsTest, KallsymsListsExports) {
  Kernel kernel;
  ASSERT_TRUE(kernel.symbols().ExportData("jiffies", 0x1000).ok());
  const std::string kallsyms = ProcKallsyms(kernel);
  EXPECT_NE(kallsyms.find("T printk_str"), std::string::npos);
  EXPECT_NE(kallsyms.find("T kmalloc"), std::string::npos);
  EXPECT_NE(kallsyms.find("D jiffies"), std::string::npos);
}

TEST(ProcfsTest, MeminfoTracksAllocations) {
  Kernel kernel;
  auto addr = kernel.heap().Kmalloc(4096);
  ASSERT_TRUE(addr.ok());
  const std::string meminfo = ProcMeminfo(kernel);
  EXPECT_NE(meminfo.find("heap:"), std::string::npos);
  EXPECT_NE(meminfo.find("module-area:"), std::string::npos);
  EXPECT_NE(meminfo.find("in 1 allocations"), std::string::npos);
}

// ----------------------------------------------------- machine state --

TEST(MsrFileTest, BootDefaultsAndReadWrite) {
  MsrFile msrs;
  EXPECT_EQ(msrs.Read(MSR_APIC_BASE), 0xfee00900u);
  EXPECT_EQ(msrs.Read(MSR_EFER), 0xd01u);
  EXPECT_EQ(msrs.Read(0x9999), 0u);  // unknown MSR reads zero
  msrs.Write(MSR_LSTAR, 0xffffffff81000000ull);
  EXPECT_EQ(msrs.Read(MSR_LSTAR), 0xffffffff81000000ull);
  EXPECT_EQ(msrs.reads(), 4u);
  EXPECT_EQ(msrs.writes(), 1u);
}

TEST(PortBusTest, ClaimInOutRelease) {
  PortBus bus;
  uint8_t last_out = 0;
  ASSERT_TRUE(bus.Claim(0x60, 4,
                        [](uint16_t port) {
                          return static_cast<uint8_t>(port & 0xff);
                        },
                        [&](uint16_t, uint8_t value) { last_out = value; })
                  .ok());
  EXPECT_EQ(bus.In(0x60), 0x60);
  EXPECT_EQ(bus.In(0x63), 0x63);
  bus.Out(0x61, 0xab);
  EXPECT_EQ(last_out, 0xab);
  // Unclaimed port floats.
  EXPECT_EQ(bus.In(0x70), 0xff);
  bus.Out(0x70, 1);  // swallowed
  // Overlapping claim rejected.
  EXPECT_FALSE(bus.Claim(0x62, 2, nullptr, nullptr).ok());
  bus.Release(0x60);
  EXPECT_EQ(bus.In(0x60), 0xff);
  EXPECT_TRUE(bus.Claim(0x62, 2, nullptr, nullptr).ok());
}

TEST(CpuFlagsTest, InterruptFlagTracking) {
  CpuFlags cpu;
  EXPECT_TRUE(cpu.interrupts_enabled());
  cpu.Cli();
  EXPECT_FALSE(cpu.interrupts_enabled());
  cpu.Sti();
  EXPECT_TRUE(cpu.interrupts_enabled());
  cpu.Halt();
  EXPECT_EQ(cpu.cli_count(), 1u);
  EXPECT_EQ(cpu.sti_count(), 1u);
  EXPECT_EQ(cpu.halt_count(), 1u);
}

// ----------------------------------------------------------------- symbols --

TEST(SymbolTableTest, ExportCallUnexport) {
  SymbolTable table;
  ASSERT_TRUE(table
                  .ExportFunction("double",
                                  [](const std::vector<uint64_t>& args) {
                                    return args[0] * 2;
                                  })
                  .ok());
  auto result = table.Call("double", {21});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42u);
  EXPECT_FALSE(table.ExportFunction("double", [](const auto&) {
    return uint64_t{0};
  }).ok());
  ASSERT_TRUE(table.Unexport("double").ok());
  EXPECT_FALSE(table.Call("double", {1}).ok());
  EXPECT_FALSE(table.Unexport("double").ok());
}

TEST(SymbolTableTest, DataSymbols) {
  SymbolTable table;
  ASSERT_TRUE(table.ExportData("jiffies", 0xffff888000001000ull).ok());
  EXPECT_TRUE(table.HasData("jiffies"));
  auto addr = table.DataAddress("jiffies");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(*addr, 0xffff888000001000ull);
  // Function and data share a namespace.
  EXPECT_FALSE(table.ExportFunction("jiffies", [](const auto&) {
    return uint64_t{0};
  }).ok());
}

TEST(SymbolTableTest, NamesSorted) {
  SymbolTable table;
  ASSERT_TRUE(table.ExportData("zzz", 1).ok());
  ASSERT_TRUE(table.ExportData("aaa", 2).ok());
  const auto names = table.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "aaa");
  EXPECT_EQ(names[1], "zzz");
}

// ----------------------------------------------------------------- chardev --

TEST(CharDevTest, RegisterIoctlUnregister) {
  CharDeviceRegistry devices;
  int calls = 0;
  ASSERT_TRUE(devices
                  .Register("/dev/test",
                            [&](uint32_t cmd, std::vector<uint8_t>& arg) {
                              ++calls;
                              arg.assign(4, static_cast<uint8_t>(cmd));
                              return OkStatus();
                            })
                  .ok());
  EXPECT_TRUE(devices.Exists("/dev/test"));
  std::vector<uint8_t> arg;
  ASSERT_TRUE(devices.Ioctl("/dev/test", 7, arg).ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(arg, std::vector<uint8_t>(4, 7));
  EXPECT_FALSE(devices.Register("/dev/test", [](auto, auto&) {
    return OkStatus();
  }).ok());
  ASSERT_TRUE(devices.Unregister("/dev/test").ok());
  EXPECT_FALSE(devices.Ioctl("/dev/test", 7, arg).ok());
}

TEST(CharDevTest, UnknownNodeFails) {
  CharDeviceRegistry devices;
  std::vector<uint8_t> arg;
  const Status status = devices.Ioctl("/dev/nothing", 1, arg);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace kop::kernel
