// The bytecode VM: the register-based execution engine the module loader
// uses by default. Construction binds the compiled module against its
// environment — global addresses patched into frame templates, external
// callees bound once through ExternalResolver::Bind — so the
// execute loop is a flat dispatch over pre-decoded instructions with no
// hash lookups, no string compares and no per-call allocation.
//
// The VM is observationally identical to the reference interpreter
// (interp.hpp): same results, same memory-effect order, same external
// calls with the same ordinals, same InterpStats, same error text.
// engine_test.cpp enforces this differentially over the module corpus.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "kop/kir/bytecode.hpp"
#include "kop/kir/engine.hpp"
#include "kop/util/status.hpp"

namespace kop::kir {

class VM : public ExecutionEngine {
 public:
  /// Bind `bytecode` to its runtime environment. Patches each global
  /// fixup with the loader-assigned address (fails like the interpreter
  /// does, but once, here, instead of on first use) and binds every
  /// external callee once.
  static Result<std::unique_ptr<VM>> Create(
      BytecodeModule bytecode, MemoryInterface& memory,
      ExternalResolver& resolver,
      const std::unordered_map<std::string, uint64_t>& global_addresses,
      const InterpConfig& config = InterpConfig());

  Result<uint64_t> Call(const std::string& fn_name,
                        const std::vector<uint64_t>& args) override;

  const InterpStats& stats() const override { return stats_; }
  void ResetStats() override { stats_ = InterpStats(); }
  void set_watchdog_steps(uint64_t steps) override {
    config_.watchdog_steps = steps;
  }
  std::string_view engine_name() const override { return "bytecode"; }
  EngineSnapshot LastFaultState() const override { return fault_state_; }

  const BytecodeModule& bytecode() const { return bytecode_; }

 private:
  VM(BytecodeModule bytecode, MemoryInterface& memory,
     ExternalResolver& resolver, const InterpConfig& config);

  Result<uint64_t> ExecuteFunction(uint32_t fn_index,
                                   const std::vector<uint64_t>& args,
                                   uint32_t depth, uint64_t stack_top);
  Result<uint64_t> RunFrame(const BytecodeFunction& fn, uint32_t fn_index,
                            size_t base, uint32_t depth, uint64_t stack_top);

  /// First (innermost) fault of the call in flight wins; later frames on
  /// the unwind path see `valid` already set and keep their hands off.
  void RecordFault(const std::string& fn_name,
                   const std::vector<uint64_t>& args, uint32_t depth);

  BytecodeModule bytecode_;
  MemoryInterface& memory_;
  ExternalResolver& resolver_;
  InterpConfig config_;
  InterpStats stats_;
  EngineSnapshot fault_state_;
  /// Step deadline for the call in flight (StepDeadline at entry). Set at
  /// each top-level Call; nested frames read it through RunFrame (mirrors
  /// the interpreter exactly).
  uint64_t step_limit_ = InterpConfig().max_steps;
  /// The calling CPU's policy-frame pin, held for the outermost call.
  guard::PinSlot* pin_ = nullptr;
  /// Added to a kCfiCheck's module-local set id (resolved at bind).
  uint64_t cfi_base_ = 0;
  /// Re-entry depth (resolver calling back into this VM) — only the
  /// outermost Call re-arms the watchdog deadline.
  uint32_t entry_depth_ = 0;

  /// Per-extern-id resolver handle from ExternalResolver::Bind.
  std::vector<uint64_t> bindings_;

  /// Register arena: frames stack up at reg_top_; a frame re-fetches its
  /// base pointer after any call because growth reallocates.
  std::vector<uint64_t> reg_stack_;
  size_t reg_top_ = 0;

  /// Per-depth argument marshalling buffers (a frame builds at most one
  /// call at a time), so the hot path never allocates.
  std::vector<std::vector<uint64_t>> arg_buffers_;
};

}  // namespace kop::kir
