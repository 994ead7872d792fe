// Execution-engine interfaces shared by the two KIR engines: the
// tree-walking reference interpreter (interp.hpp) and the bytecode VM
// (vm.hpp). A loaded module runs against an abstract memory (the
// simulated kernel address space) and an external-call resolver (the
// kernel's exported-symbol table); which engine drives the IR is the
// module loader's choice and must be observationally invisible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "kop/guard/pinned.hpp"
#include "kop/util/status.hpp"

namespace kop::kir {

/// Abstract memory the engines load from / store to. `size` is the
/// access width in bytes (1/2/4/8).
class MemoryInterface {
 public:
  virtual ~MemoryInterface() = default;
  virtual Result<uint64_t> Load(uint64_t addr, uint32_t size) = 0;
  virtual Status Store(uint64_t addr, uint64_t value, uint32_t size) = 0;
};

/// Resolves calls that leave the module (kernel exports and intrinsics).
/// One call ABI serves both engines: each engine binds every callee
/// once, when it is built, and every later call at that callee goes
/// through Call with the handle, never re-examining the name.
class ExternalResolver {
 public:
  virtual ~ExternalResolver() = default;

  /// Resolve `name` (symbol-table entry, intrinsic id, guard hook) to an
  /// opaque handle. Never fails: a callee that cannot be resolved yet
  /// gets a handle whose calls report the failure.
  virtual uint64_t Bind(const std::string& name) = 0;

  /// Invoke a bound callee. `call_ordinal` is the call site's
  /// module-wide ordinal: the index of this call among all call
  /// instructions in the module, in function / block / instruction
  /// order. The loader uses it to attribute guard calls to the exact
  /// injected site (the simulated return address).
  virtual Result<uint64_t> Call(uint64_t handle,
                                const std::vector<uint64_t>& args,
                                uint64_t call_ordinal) = 0;

  // Inline-guard fast path (DESIGN.md §15). An engine asks for each
  // guard's site token and the CFI rebase once, at construction, pins at
  // every outermost Call, and runs recognised guard calls through the
  // guard core (kop/guard/pinned.hpp) on the pinned slot. A deopt falls
  // back to Call, which owns violation semantics. A resolver that
  // returns no slot keeps every guard on that slow path.

  /// Pin the calling CPU's policy frame for one outermost call and return
  /// its slot, or null when no fast path is available.
  virtual guard::PinSlot* PinGuardFrame() { return nullptr; }
  /// Guard-site token of the guard call at module-wide ordinal
  /// `call_ordinal` (0 = unattributed).
  virtual uint64_t GuardSiteToken(uint64_t /*call_ordinal*/) const {
    return 0;
  }
  /// What this module's local CFI set ids are rebased by to become the
  /// policy engine's global ids.
  virtual uint64_t CfiSetBase() const { return 0; }
};

struct InterpConfig {
  /// Stack arena in simulated memory for allocas (provided by the loader).
  uint64_t stack_base = 0;
  uint64_t stack_size = 64 * 1024;
  /// Execution budget of one top-level Call; exceeded -> error (kernel
  /// would watchdog).
  uint64_t max_steps = 50'000'000;
  /// Per-call watchdog: one top-level Call may run at most this many
  /// steps before it is cut off with kTimeout (0 = no watchdog). The
  /// module loader arms this so a module stuck in a loop loses its CPU
  /// instead of hanging the (simulated) machine.
  uint64_t watchdog_steps = 0;
  /// Intra-module call depth limit.
  uint32_t max_call_depth = 256;
};

struct InterpStats {
  uint64_t steps = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t calls_internal = 0;
  uint64_t calls_external = 0;
};

/// Fault-state snapshot for postmortem bundles: what the engine was
/// doing when the most recent top-level call failed (guard violation,
/// panic, watchdog expiry, or any error result). Deliberately
/// engine-NEUTRAL — the innermost faulting function, its call depth,
/// its incoming arguments, and the retired-operation counters at the
/// instant of the fault — every field the differential contract makes
/// identical between the interpreter and the VM, so a postmortem bundle
/// is byte-identical whichever engine produced it. (stats.steps doubles
/// as the virtual program counter: both engines retire the same
/// instruction sequence.)
struct EngineSnapshot {
  bool valid = false;
  std::string function;        // innermost frame at fault
  uint32_t depth = 0;          // intra-module call depth of that frame
  std::vector<uint64_t> args;  // the frame's incoming args (first 8)
  InterpStats stats;           // counters at the instant of the fault
};

/// What the module loader holds: call entry points, read counters. Both
/// engines implement this and must agree on every observable — results,
/// memory effects, external-call sequence with ordinals, and the counters
/// (engine_test.cpp enforces it differentially).
class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;

  /// Call a defined function by name with integer/pointer arguments.
  virtual Result<uint64_t> Call(const std::string& fn_name,
                                const std::vector<uint64_t>& args) = 0;

  virtual const InterpStats& stats() const = 0;
  virtual void ResetStats() = 0;

  /// Re-arm the per-call watchdog (0 disables). Takes effect at the next
  /// top-level Call; a call already in flight keeps its deadline.
  virtual void set_watchdog_steps(uint64_t steps) { (void)steps; }

  /// Fault state of the most recent top-level Call, valid only if that
  /// call failed (cleared at the next top-level entry). The containment
  /// path reads this into the postmortem bundle.
  virtual EngineSnapshot LastFaultState() const { return {}; }

  /// "interp" or "bytecode" — for logs and bench annotations.
  virtual std::string_view engine_name() const = 0;
};

/// The invalid-indirect-target fault both engines report, built in one
/// place so the text is bit-identical between them. A target that is not
/// the simulated address of any module function (forged pointer, flipped
/// bit, mid-function address) faults like a wild memory access: an
/// oops-style error, not containment — the CFI check that precedes every
/// gated indirect call owns containment semantics.
inline Status IndirectCallInvalidTarget(uint64_t target,
                                        const std::string& fn_name) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(target));
  return PermissionDenied("indirect call to invalid target " +
                          std::string(buf) + " in @" + fn_name);
}

/// The step deadline both engines arm at each top-level Call: `steps`,
/// the count at entry, plus the per-call budget or the armed watchdog,
/// whichever is tighter (saturating).
inline uint64_t StepDeadline(const InterpConfig& config, uint64_t steps) {
  const uint64_t bound = config.watchdog_steps != 0
                             ? std::min(config.max_steps, config.watchdog_steps)
                             : config.max_steps;
  return steps + std::min(bound, ~uint64_t{0} - steps);
}

/// The step-budget error both engines report, built in one place so the
/// text is bit-identical between them (engine_test.cpp pins observable
/// equality): kTimeout when the armed watchdog is the tighter bound,
/// otherwise the per-call budget's kInternal error.
inline Status StepBudgetExceeded(const InterpConfig& config) {
  if (config.watchdog_steps != 0 && config.watchdog_steps < config.max_steps) {
    return Timeout("module call exceeded its watchdog step budget (" +
                   std::to_string(config.watchdog_steps) + " steps)");
  }
  return Internal("execution budget exceeded (" +
                  std::to_string(config.max_steps) + " steps)");
}

}  // namespace kop::kir
