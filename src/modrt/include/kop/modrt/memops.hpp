// Memory-access policies for natively-built protected modules (the
// module runtime). A module template written once against this interface
// instantiates two ways: RawMemOps is the paper's baseline build,
// GuardedMemOps the CARAT KOP build — "we built two versions of the
// driver, one with the CARAT KOP transformation applied, the other
// without it. In both cases, the same compiler was used... No code was
// modified in the driver." (§4.1). Used by the e1000e driver, the
// heartbeat module and the FPVM trap handler.
//
// Both builds are one class template with one body per access kind.
// GuardedMemOps guards every load and store — including MMIO, which on
// Linux is just a load/store to an ioremapped address — then performs the
// access and charges the machine model's access cost on the virtual
// clock; RawMemOps charges the same cost without the guard. The guarded
// build shares the KIR engines' one guard path (kop/guard/pinned.hpp):
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

/// One source, two builds: MemOps<false> is the baseline build
/// (RawMemOps), MemOps<true> the CARAT KOP build (GuardedMemOps). Each
/// access kind has one body; only its guard step differs. The baseline
/// build charges the access's machine-model cost on the virtual clock.
/// The CARAT KOP build precedes every access with a guard decision of the
/// policy module, resolved at "insmod" by handing the driver the engine
/// behind the kernel's carat_guard export, and charges the access after
/// the guard's cost.
template <bool Guarded>
class MemOps {
 public:
  static constexpr bool kGuarded = Guarded;

  explicit MemOps(kernel::Kernel* kernel)
    requires(!Guarded)
      : kernel_(kernel) {}

  /// `engine` must guard `kernel`: an inline allow charges the access to
  /// the clock of the engine's pins.
  MemOps(kernel::Kernel* kernel, policy::PolicyEngine* engine)
    requires Guarded
      : kernel_(kernel), engine_(engine), sites_(&NativeCategorySites()) {
    if (engine == nullptr || engine->kernel() != kernel) {
      throw std::invalid_argument(
          "GuardedMemOps: needs the policy engine guarding this kernel");
    }
  }

  Result<uint64_t> Load(uint64_t addr, uint32_t size) {
    Access(addr, size, kGuardAccessRead, &NativeSites::load,
           kernel_->machine().mem_read_cycles);
    return kernel_->mem().Load(addr, size);
  }

  Status Store(uint64_t addr, uint64_t value, uint32_t size) {
    Access(addr, size, kGuardAccessWrite, &NativeSites::store,
           kernel_->machine().mem_write_cycles);
    return kernel_->mem().Store(addr, value, size);
  }

  /// MMIO is a load/store to an ioremapped address, guarded like any
  /// other, at the machine model's MMIO cost.
  Result<uint64_t> MmioRead(uint64_t addr, uint32_t size) {
    Access(addr, size, kGuardAccessRead, &NativeSites::mmio_read,
           kernel_->machine().mmio_read_cycles);
    return kernel_->mem().Load(addr, size);
  }

  Status MmioWrite(uint64_t addr, uint64_t value, uint32_t size) {
    Access(addr, size, kGuardAccessWrite, &NativeSites::mmio_write,
           kernel_->machine().mmio_write_cycles);
    return kernel_->mem().Store(addr, value, size);
  }

  /// Store on a rarely executed path (the short-frame pad/bounce loop).
  /// Identical semantics to Store; the guarded build charges the cold-
  /// guard penalty first (an unwarmed branch predictor and cache give
  /// guards on cold paths nothing to hide behind — the machine model's
  /// pad_guard_cycles_per_byte).
  Status StoreSlowPath(uint64_t addr, uint64_t value, uint32_t size) {
    ChargeColdGuard(size);
    return Store(addr, value, size);
  }
  Result<uint64_t> LoadSlowPath(uint64_t addr, uint32_t size) {
    ChargeColdGuard(size);
    return Load(addr, size);
  }

  /// Pin the policy frame on the calling CPU for one driver entry (pins
  /// nest; nothing to pin without guards). Balanced by UnpinFrame;
  /// EntryPin does both.
  void PinFrame() {
    if constexpr (kGuarded) engine_->PinFrame();
  }
  void UnpinFrame() {
    if constexpr (kGuarded) engine_->UnpinFrame();
  }

  kernel::Kernel* kernel() { return kernel_; }

 private:
  /// The one access path: the guard, then `access_cycles` of the access
  /// it guards, on the virtual clock. Decided inline against the pinned
  /// frame, an allow charges both in one update of the pin's clock cell;
  /// a deopt re-decides out of line with the category's site pinned for
  /// attribution (panics or throws on a violation, per the engine's
  /// ViolationAction) and then charges the access, as the baseline build
  /// does. Always inlined, so each access method carries the allow path
  /// itself.
  [[gnu::always_inline]] void Access(uint64_t addr, uint64_t size,
                                     uint64_t flags,
                                     uint64_t NativeSites::*category,
                                     double access_cycles) {
    if constexpr (kGuarded) {
      const uint64_t site = sites_->*category;
      if (engine_->FastGuard(addr, size, flags, site, access_cycles))
          [[likely]] {
        return;
      }
      trace::ScopedGuardSite scope(site);
      engine_->Guard(addr, size, flags);
    }
    kernel_->clock().Advance(access_cycles);
  }

  void ChargeColdGuard(uint32_t size) {
    if constexpr (kGuarded) {
      kernel_->clock().Advance(kernel_->machine().pad_guard_cycles_per_byte *
                               size);
    }
  }

  kernel::Kernel* kernel_;
  policy::PolicyEngine* engine_ = nullptr;  // guarded build only
  const NativeSites* sites_ = nullptr;      // guarded build only
};

using RawMemOps = MemOps<false>;
using GuardedMemOps = MemOps<true>;

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
