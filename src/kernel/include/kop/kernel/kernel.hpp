// The Kernel facade: assembles the simulated machine a CARAT KOP
// experiment runs on — address space with the canonical memory map,
// kmalloc arena in the direct map, module-area allocator, printk ring,
// exported-symbol table, /dev registry, panic machinery, and the virtual
// clock + machine cost model used for performance accounting.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "kop/guard/pinned.hpp"
#include "kop/kernel/address_space.hpp"
#include "kop/kernel/chardev.hpp"
#include "kop/kernel/kmalloc.hpp"
#include "kop/kernel/machine_state.hpp"
#include "kop/kernel/memory_map.hpp"
#include "kop/kernel/panic.hpp"
#include "kop/kernel/printk.hpp"
#include "kop/kernel/symbols.hpp"
#include "kop/sim/clock.hpp"
#include "kop/sim/machine.hpp"
#include "kop/util/status.hpp"

namespace kop::kernel {

struct KernelConfig {
  /// Physical RAM size exposed through the direct map.
  uint64_t ram_bytes = 64ull << 20;
  /// Size of the kernel text region (read-only).
  uint64_t kernel_text_bytes = 16ull << 20;
  /// Size of the module mapping area.
  uint64_t module_area_bytes = 64ull << 20;
  /// A small user-space mapping so experiments can demonstrate modules
  /// reaching into the low half (and policies forbidding it).
  uint64_t user_bytes = 4ull << 20;
  uint64_t user_base = 0x0000000000400000ULL;
  /// Cost model for performance accounting. Defaults to the fast box.
  sim::MachineModel machine = sim::MachineModel::R350();
};

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config = KernelConfig());
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  AddressSpace& mem() { return mem_; }
  const AddressSpace& mem() const { return mem_; }
  KmallocArena& heap() { return *heap_; }
  KmallocArena& module_area() { return *module_area_; }
  PrintkRing& log() { return log_; }
  SymbolTable& symbols() { return symbols_; }
  CharDeviceRegistry& devices() { return devices_; }
  MsrFile& msrs() { return msrs_; }
  PortBus& ports() { return ports_; }
  CpuFlags& cpu() { return cpu_; }
  sim::VirtualClock& clock() { return clock_; }
  const sim::MachineModel& machine() const { return config_.machine; }
  const KernelConfig& config() const { return config_; }

  /// The one charged module access: the machine model's load (store)
  /// cost on the calling CPU's virtual clock, then the address space.
  /// KIR module slots (SlotMemory) reach memory through these two. A
  /// native module's access (modrt::MemOps) charges the same cost in the
  /// same order, right after its guard's on the guarded build, in one
  /// clock update when allowed inline.
  Result<uint64_t> ChargedLoad(uint64_t addr, uint32_t size) {
    clock_.Advance(config_.machine.mem_read_cycles);
    return mem_.Load(addr, size);
  }
  Status ChargedStore(uint64_t addr, uint64_t value, uint32_t size) {
    clock_.Advance(config_.machine.mem_write_cycles);
    return mem_.Store(addr, value, size);
  }

  /// Swap the cost model (e.g. R415 vs R350 experiments).
  void SetMachine(const sim::MachineModel& machine) {
    config_.machine = machine;
  }

  /// The policy engine's pins (the policy module while inserted; null
  /// otherwise, which routes every guard through the slow path —
  /// unloading the policy module is observed exactly as on the symbol
  /// path). Registered/cleared by kop::policy::PolicyModule.
  void SetPinSource(guard::PinSource* source) {
    pin_source_.store(source, std::memory_order_release);
  }
  guard::PinSource* pin_source() const {
    return pin_source_.load(std::memory_order_acquire);
  }

  /// Log the reason at EMERG level, mark the kernel dead, and throw
  /// KernelPanic. [[noreturn]].
  [[noreturn]] void Panic(const std::string& reason);

  bool panicked() const { return panicked_; }
  const std::string& panic_reason() const { return panic_reason_; }

  /// Bring a panicked kernel back for the next test (reboot).
  void ClearPanic() {
    panicked_ = false;
    panic_reason_.clear();
  }

  // Convenience bounds of the standard map (useful for policies).
  uint64_t direct_map_base() const { return kDirectMapBase; }
  uint64_t direct_map_size() const { return config_.ram_bytes; }
  uint64_t kernel_text_base() const { return kKernelTextBase; }
  uint64_t kernel_text_size() const { return config_.kernel_text_bytes; }
  uint64_t module_area_base() const { return kModuleBase; }
  uint64_t module_area_size() const { return config_.module_area_bytes; }

 private:
  KernelConfig config_;
  AddressSpace mem_;
  std::unique_ptr<KmallocArena> heap_;
  std::unique_ptr<KmallocArena> module_area_;
  PrintkRing log_;
  SymbolTable symbols_;
  CharDeviceRegistry devices_;
  MsrFile msrs_;
  PortBus ports_;
  CpuFlags cpu_;
  sim::VirtualClock clock_;
  std::atomic<guard::PinSource*> pin_source_{nullptr};
  bool panicked_ = false;
  std::string panic_reason_;
};

}  // namespace kop::kernel
