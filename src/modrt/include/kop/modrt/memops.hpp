// Memory-access policies for natively-built protected modules (the
// module runtime). A module template written once against this interface
// instantiates two ways: RawMemOps is the paper's baseline build,
// GuardedMemOps the CARAT KOP build — "we built two versions of the
// driver, one with the CARAT KOP transformation applied, the other
// without it. In both cases, the same compiler was used... No code was
// modified in the driver." (§4.1). Used by the e1000e driver, the
// heartbeat module and the FPVM trap handler.
//
// GuardedMemOps guards every load and store — including MMIO, which on
// Linux is just a load/store to an ioremapped address — then performs the
// access and charges the machine model's access cost on the virtual
// clock. It shares the KIR engines' one guard path (kop/guard/pinned.hpp):
// each driver entry point opens an EntryPin, which pins the policy frame
// on the calling CPU once, and every access inside decides inline against
// that frame (PolicyEngine::FastGuard). The engine is held as a
// PolicyEngine*, so that allow path compiles straight into each access
// here: an allowed access makes no out-of-line policy call, and charges
// the guard and the access in one update of the pin's clock cell. Anything
// but a proven allow — no pin, a stale frame, fault injection, a denial —
// re-decides out of line in PolicyEngine::Guard, which owns violation,
// panic and quarantine semantics, and charges the access after it. Either
// way the clock sees the guard's cost, then the access's.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "kop/kernel/kernel.hpp"
#include "kop/policy/engine.hpp"
#include "kop/smp/percpu.hpp"
#include "kop/trace/site.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop::modrt {

/// Synthetic guard-site tokens for natively-built driver code, one per
/// access category. Native modules have no IR to derive per-instruction
/// sites from, so their guards attribute at category granularity ("the
/// guarded MMIO writes") instead of per call site. Registered
/// process-wide on first use, so every native module and every access
/// width of a category share one token (one HotSites row per label).
struct NativeSites {
  uint64_t load = 0;
  uint64_t store = 0;
  uint64_t mmio_read = 0;
  uint64_t mmio_write = 0;
};

inline const NativeSites& NativeCategorySites() {
  static const NativeSites sites = [] {
    auto category = [](const char* function) {
      trace::SiteInfo info;
      info.module_name = "native";
      info.function = function;
      info.detail = "native-build access category";
      return trace::GlobalSites().Register(std::move(info));
    };
    NativeSites out;
    out.load = category("load");
    out.store = category("store");
    out.mmio_read = category("mmio_read");
    out.mmio_write = category("mmio_write");
    return out;
  }();
  return sites;
}

struct MemOpsStats {
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t mmio_reads = 0;
  uint64_t mmio_writes = 0;
  uint64_t accesses() const {
    return loads + stores + mmio_reads + mmio_writes;
  }
};

/// Baseline build: plain accesses, no guards. One driver instance serves
/// every queue, and the MQ datapath drives queues from many CPUs at
/// once, so the access counters are per-CPU single-writer slots (same
/// contract as the virtual clock) folded on the read side.
class RawMemOps {
 public:
  static constexpr bool kGuarded = false;

  explicit RawMemOps(kernel::Kernel* kernel) : kernel_(kernel) {}

  Result<uint64_t> Load(uint64_t addr, uint32_t size) {
    ++stats_.Mine().loads;
    return kernel_->ChargedLoad(addr, size);
  }

  Status Store(uint64_t addr, uint64_t value, uint32_t size) {
    ++stats_.Mine().stores;
    return kernel_->ChargedStore(addr, value, size);
  }

  Result<uint32_t> MmioRead32(uint64_t addr) {
    ++stats_.Mine().mmio_reads;
    kernel_->clock().Advance(kernel_->machine().mmio_read_cycles);
    return Narrow32(kernel_->mem().Load(addr, 4));
  }

  Status MmioWrite32(uint64_t addr, uint32_t value) {
    ++stats_.Mine().mmio_writes;
    kernel_->clock().Advance(kernel_->machine().mmio_write_cycles);
    return kernel_->mem().Store(addr, value, 4);
  }

  Result<uint64_t> MmioRead64(uint64_t addr) {
    ++stats_.Mine().mmio_reads;
    kernel_->clock().Advance(kernel_->machine().mmio_read_cycles);
    return kernel_->mem().Load(addr, 8);
  }

  Status MmioWrite64(uint64_t addr, uint64_t value) {
    ++stats_.Mine().mmio_writes;
    kernel_->clock().Advance(kernel_->machine().mmio_write_cycles);
    return kernel_->mem().Store(addr, value, 8);
  }

  /// Store on a rarely executed path (the short-frame pad/bounce loop).
  /// Identical semantics to Store; the guarded build charges the cold-
  /// guard penalty (an unwarmed branch predictor and cache give guards on
  /// cold paths nothing to hide behind — the machine model's
  /// pad_guard_cycles_per_byte).
  Status StoreSlowPath(uint64_t addr, uint64_t value, uint32_t size) {
    return Store(addr, value, size);
  }
  Result<uint64_t> LoadSlowPath(uint64_t addr, uint32_t size) {
    return Load(addr, size);
  }

  /// Entry-point pin (see EntryPin): nothing to pin without guards.
  void PinFrame() {}
  void UnpinFrame() {}

  kernel::Kernel* kernel() { return kernel_; }

  /// All-CPU fold of the access counters. Call only while no CPU is
  /// mid-access (between runs, or after an SMP join).
  MemOpsStats stats() const {
    MemOpsStats total;
    stats_.ForEach([&total](uint32_t, const MemOpsStats& s) {
      total.loads += s.loads;
      total.stores += s.stores;
      total.mmio_reads += s.mmio_reads;
      total.mmio_writes += s.mmio_writes;
    });
    return total;
  }
  void ResetStats() {
    stats_.ForEach([](uint32_t, MemOpsStats& s) { s = MemOpsStats(); });
  }

 protected:
  static Result<uint32_t> Narrow32(Result<uint64_t> value) {
    if (!value.ok()) return value.status();
    return static_cast<uint32_t>(*value);
  }

  kernel::Kernel* kernel_;
  smp::PerCpu<MemOpsStats> stats_;
};

/// CARAT KOP build: every access is preceded by a guard decision of the
/// policy module, resolved at "insmod" by handing the driver the engine
/// behind the kernel's carat_guard export.
class GuardedMemOps : public RawMemOps {
 public:
  static constexpr bool kGuarded = true;

  /// `engine` must guard `kernel`: an inline allow charges the access to
  /// the clock of the engine's pins.
  GuardedMemOps(kernel::Kernel* kernel, policy::PolicyEngine* engine)
      : RawMemOps(kernel), engine_(engine), sites_(&NativeCategorySites()) {
    if (engine->kernel() != kernel) {
      throw std::invalid_argument(
          "GuardedMemOps: the policy engine guards another kernel");
    }
  }

  /// Pin the policy frame on the calling CPU for one driver entry (pins
  /// nest). Balanced by UnpinFrame; EntryPin does both.
  void PinFrame() { engine_->PinFrame(); }
  void UnpinFrame() { engine_->UnpinFrame(); }

  Result<uint64_t> Load(uint64_t addr, uint32_t size) {
    GuardAccess(addr, size, kGuardAccessRead, sites_->load,
                kernel_->machine().mem_read_cycles);
    ++stats_.Mine().loads;
    return kernel_->mem().Load(addr, size);
  }

  Status Store(uint64_t addr, uint64_t value, uint32_t size) {
    GuardAccess(addr, size, kGuardAccessWrite, sites_->store,
                kernel_->machine().mem_write_cycles);
    ++stats_.Mine().stores;
    return kernel_->mem().Store(addr, value, size);
  }

  Result<uint32_t> MmioRead32(uint64_t addr) {
    GuardAccess(addr, 4, kGuardAccessRead, sites_->mmio_read,
                kernel_->machine().mmio_read_cycles);
    ++stats_.Mine().mmio_reads;
    return Narrow32(kernel_->mem().Load(addr, 4));
  }

  Status MmioWrite32(uint64_t addr, uint32_t value) {
    GuardAccess(addr, 4, kGuardAccessWrite, sites_->mmio_write,
                kernel_->machine().mmio_write_cycles);
    ++stats_.Mine().mmio_writes;
    return kernel_->mem().Store(addr, value, 4);
  }

  Result<uint64_t> MmioRead64(uint64_t addr) {
    GuardAccess(addr, 8, kGuardAccessRead, sites_->mmio_read,
                kernel_->machine().mmio_read_cycles);
    ++stats_.Mine().mmio_reads;
    return kernel_->mem().Load(addr, 8);
  }

  Status MmioWrite64(uint64_t addr, uint64_t value) {
    GuardAccess(addr, 8, kGuardAccessWrite, sites_->mmio_write,
                kernel_->machine().mmio_write_cycles);
    ++stats_.Mine().mmio_writes;
    return kernel_->mem().Store(addr, value, 8);
  }

  Status StoreSlowPath(uint64_t addr, uint64_t value, uint32_t size) {
    kernel_->clock().Advance(kernel_->machine().pad_guard_cycles_per_byte *
                             size);
    return Store(addr, value, size);
  }

  Result<uint64_t> LoadSlowPath(uint64_t addr, uint32_t size) {
    kernel_->clock().Advance(kernel_->machine().pad_guard_cycles_per_byte *
                             size);
    return Load(addr, size);
  }

  policy::PolicyEngine* engine() { return engine_; }

 private:
  /// The one access path: the guard, then `access_cycles` of the access
  /// it guards, on the virtual clock. Decided inline against the pinned
  /// frame, an allow charges both in one update of the pin's clock cell;
  /// a deopt re-decides out of line with the category's site pinned for
  /// attribution (panics or throws on a violation, per the engine's
  /// ViolationAction) and then charges the access. Always inlined, so
  /// each access method carries the allow path itself.
  [[gnu::always_inline]] void GuardAccess(uint64_t addr, uint64_t size,
                                          uint64_t flags, uint64_t site,
                                          double access_cycles) {
    if (engine_->FastGuard(addr, size, flags, site, access_cycles))
        [[likely]] {
      return;
    }
    {
      trace::ScopedGuardSite scope(site);
      engine_->Guard(addr, size, flags);
    }
    kernel_->clock().Advance(access_cycles);
  }

  policy::PolicyEngine* engine_;
  const NativeSites* sites_;
};

/// RAII entry pin: opened at the top of every driver entry point, it pins
/// the policy frame once for all the entry's guarded accesses (a no-op on
/// the raw build) and unpins on every exit, unwinds included.
template <typename Ops>
class EntryPin {
 public:
  explicit EntryPin(Ops& ops) : ops_(ops) { ops_.PinFrame(); }
  ~EntryPin() { ops_.UnpinFrame(); }
  EntryPin(const EntryPin&) = delete;
  EntryPin& operator=(const EntryPin&) = delete;

 private:
  Ops& ops_;
};

}  // namespace kop::modrt
