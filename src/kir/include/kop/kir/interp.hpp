// The KIR tree-walking interpreter: executes a loaded module against an
// abstract memory (the simulated kernel address space) and an external-
// call resolver (the kernel's exported-symbol table). This is how a
// protected module "runs inside the kernel" in the simulation — its loads
// and stores really happen, and the guard calls the transform injected
// really reach the policy module.
//
// Since the bytecode VM (vm.hpp) became the module loader's default
// engine, the interpreter's role is reference oracle: it walks the IR
// directly, which keeps it trivially auditable, and engine_test.cpp holds
// the VM to bit-identical observable behavior against it.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kop/kir/engine.hpp"
#include "kop/kir/module.hpp"
#include "kop/util/status.hpp"

namespace kop::kir {

class Interpreter : public ExecutionEngine {
 public:
  /// `global_addresses` maps each module global to its simulated address,
  /// as assigned by the module loader.
  Interpreter(const Module& module, MemoryInterface& memory,
              ExternalResolver& resolver,
              std::unordered_map<std::string, uint64_t> global_addresses,
              const InterpConfig& config = InterpConfig());

  /// Call a defined function by name with integer/pointer arguments.
  Result<uint64_t> Call(const std::string& fn_name,
                        const std::vector<uint64_t>& args) override;

  const InterpStats& stats() const override { return stats_; }
  void ResetStats() override { stats_ = InterpStats(); }
  void set_watchdog_steps(uint64_t steps) override {
    config_.watchdog_steps = steps;
  }
  std::string_view engine_name() const override { return "interp"; }
  EngineSnapshot LastFaultState() const override { return fault_state_; }

 private:
  /// ExecuteFrame wrapped with frame-granular fault capture: error
  /// results and unwinding exceptions both stamp the frame into the
  /// snapshot (innermost frame wins), mirroring the VM exactly.
  Result<uint64_t> Execute(const Function& fn,
                           const std::vector<uint64_t>& args, uint32_t depth,
                           uint64_t stack_top);
  Result<uint64_t> ExecuteFrame(const Function& fn,
                                const std::vector<uint64_t>& args,
                                uint32_t depth, uint64_t stack_top);
  void RecordFault(const std::string& fn_name,
                   const std::vector<uint64_t>& args, uint32_t depth);

  Result<uint64_t> GlobalAddress(const GlobalVariable* global) const;

  const Module& module_;
  MemoryInterface& memory_;
  ExternalResolver& resolver_;
  std::unordered_map<std::string, uint64_t> global_addresses_;
  InterpConfig config_;
  InterpStats stats_;
  EngineSnapshot fault_state_;
  /// Step deadline for the call in flight (StepDeadline at entry). Set at
  /// each top-level Call.
  uint64_t step_limit_ = InterpConfig().max_steps;
  /// The calling CPU's policy-frame pin, held for the outermost call.
  guard::PinSlot* pin_ = nullptr;
  /// Added to a carat_cfi_check's module-local set id (resolved once).
  uint64_t cfi_base_;
  /// Re-entry depth (a module calling back into itself through a kernel
  /// export) — only the outermost Call re-arms the watchdog deadline.
  uint32_t entry_depth_ = 0;
  /// Module-wide ordinal of each call instruction (function / block /
  /// instruction order), its guard-site token and, for a direct external
  /// call, the callee's resolver handle, precomputed so the hot path is
  /// one hash lookup.
  struct CallSite {
    uint64_t ordinal = 0;
    uint64_t site = 0;
    uint64_t handle = 0;
  };
  std::unordered_map<const Instruction*, CallSite> call_sites_;
  /// Resolver handle of each external function by function index (the
  /// callee of an indirect call); unused for defined functions.
  std::vector<uint64_t> function_handles_;
};

}  // namespace kop::kir
