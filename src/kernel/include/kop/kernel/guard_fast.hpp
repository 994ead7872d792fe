// The inline-guard fast-path seam between the execution engines and the
// policy module. The engines cannot depend on kop::policy (layering), so
// the policy module registers this interface on the Kernel at insert and
// clears it at removal; the module loader's resolver forwards the
// engines' inline guard checks through it.
//
// Protocol (DESIGN.md §15):
//  - PinFrame/UnpinFrame bracket one outermost LoadedModule::Call on the
//    calling CPU (natively-built drivers pin the policy engine directly,
//    once per driver entry point: modrt::EntryPin). A pin captures the
//    RCU-published PolicyFrame pointer plus its store/config generations
//    once, so every inline guard in the call decides against an immutable
//    region index without re-entering the RCU read lock per guard. Pins
//    nest (module-to-module calls, nested driver entries).
//  - FastGuard/FastGuardRange return true only when the access was proven
//    allowed against the pinned frame AND fully accounted (counters,
//    per-site attribution, virtual-clock charge). Any other outcome —
//    no pin, frame generation moved, fault-injection armed, flag
//    mismatch, or check failure — returns false and the caller must take
//    the out-of-line slow path, which re-decides with full violation
//    attribution, journal rollback, and containment semantics.
#pragma once

#include <cstdint>
#include <vector>

namespace kop::kernel {

class GuardFastOps {
 public:
  virtual ~GuardFastOps() = default;

  /// Open (or nest) the calling CPU's frame pin. Returns false when no
  /// pin is available (callers then skip UnpinFrame and every inline
  /// check deopts).
  virtual bool PinFrame() = 0;
  /// Close one nesting level; the outermost close releases the frame.
  virtual void UnpinFrame() = 0;

  /// Inline check of one guarded access. `site` is the guard-site token
  /// for attribution (0 = unattributed). True = allowed and accounted.
  virtual bool FastGuard(uint64_t addr, uint64_t size, uint64_t flags,
                         uint64_t site) = 0;
  /// Inline check of a covering interval emitted by the elision pass;
  /// `elided` is the number of member guards the cover subsumes beyond
  /// itself (credited to guard.elided on success).
  virtual bool FastGuardRange(uint64_t addr, uint64_t size, uint64_t flags,
                              uint64_t elided, uint64_t site) = 0;

  /// Register a module's attested CFI legal-target sets (each a list of
  /// simulated function addresses) and return the engine-global base id
  /// its module-local set ids were rebased by. Virtual-with-default so
  /// pre-CFI GuardFastOps implementors keep compiling; the default
  /// accepts nothing and FastCfiCheck's default deopts everything to the
  /// slow path, which preserves containment semantics exactly.
  virtual uint64_t RegisterCfiSets(
      const std::vector<std::vector<uint64_t>>& sets) {
    (void)sets;
    return 0;
  }

  /// Inline check of one indirect-call target against the pinned frame's
  /// CFI table. Same contract as FastGuard: true = proven a member of
  /// set `set_id` AND fully accounted; false = caller must take the
  /// out-of-line carat_cfi_check slow path, which owns violation
  /// semantics (containment is byte-identical either way).
  virtual bool FastCfiCheck(uint64_t target, uint64_t set_id, uint64_t site) {
    (void)target;
    (void)set_id;
    (void)site;
    return false;
  }
};

}  // namespace kop::kernel
