#include "kop/kir/vm.hpp"

#include <algorithm>
#include <cstring>

#include "kop/kir/coverage.hpp"

namespace kop::kir {
namespace {

constexpr uint64_t MaskOfBits(unsigned bits) {
  if (bits == 0) return 0;
  if (bits >= 64) return ~uint64_t{0};
  return (uint64_t{1} << bits) - 1;
}

inline int64_t SignExtendBits(uint64_t raw, unsigned bits) {
  if (bits == 0 || bits >= 64) return static_cast<int64_t>(raw);
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  raw &= mask;
  if (raw & (uint64_t{1} << (bits - 1))) raw |= ~mask;
  return static_cast<int64_t>(raw);
}

/// Parallel-copy semantics: all sources read before any destination is
/// written (a phi may feed another phi in the same block).
inline void ApplyMoves(uint64_t* regs, const std::vector<BcMove>& moves) {
  uint64_t stack_buf[16];
  std::vector<uint64_t> heap_buf;
  uint64_t* scratch = stack_buf;
  if (moves.size() > 16) {
    heap_buf.resize(moves.size());
    scratch = heap_buf.data();
  }
  for (size_t i = 0; i < moves.size(); ++i) scratch[i] = regs[moves[i].src];
  for (size_t i = 0; i < moves.size(); ++i) regs[moves[i].dst] = scratch[i];
}

}  // namespace

// Dispatch strategy for RunFrame. With GNU extensions available the VM
// uses direct threading: every handler ends in its own computed goto, so
// the branch predictor learns per-opcode successor patterns instead of
// funnelling every transition through one indirect jump. The portable
// fallback routes the same handler bodies through a switch. Step
// accounting is identical in both modes: the counter bumps once per
// instruction, before it executes.
#if defined(__GNUC__) || defined(__clang__)
#define KOP_VM_THREADED 1
#else
#define KOP_VM_THREADED 0
#endif

#if KOP_VM_THREADED
#define VM_CASE(name) lbl_##name
#define VM_DISPATCH()                                     \
  do {                                                    \
    if (++steps > max_steps) [[unlikely]]                 \
      goto budget_exhausted;                              \
    ip = code + pc;                                       \
    goto* kJump[static_cast<size_t>(ip->op)];             \
  } while (0)
#else
#define VM_CASE(name) case BcOp::name
#define VM_DISPATCH() goto dispatch
#endif
#define VM_NEXT()  \
  do {             \
    ++pc;          \
    VM_DISPATCH(); \
  } while (0)

VM::VM(BytecodeModule bytecode, MemoryInterface& memory,
       ExternalResolver& resolver, const InterpConfig& config)
    : bytecode_(std::move(bytecode)),
      memory_(memory),
      resolver_(resolver),
      config_(config) {
  arg_buffers_.resize(config_.max_call_depth + 2);
}

Result<std::unique_ptr<VM>> VM::Create(
    BytecodeModule bytecode, MemoryInterface& memory,
    ExternalResolver& resolver,
    const std::unordered_map<std::string, uint64_t>& global_addresses,
    const InterpConfig& config) {
  // Patch global addresses into the frame templates and site tokens
  // into the inline guard ops.
  for (BytecodeFunction& fn : bytecode.functions) {
    for (const BcGlobalFixup& fixup : fn.global_fixups) {
      const std::string& name = bytecode.global_names[fixup.global];
      auto it = global_addresses.find(name);
      if (it == global_addresses.end()) {
        return Internal("global @" + name + " has no assigned address");
      }
      fn.frame_template[fixup.reg] = it->second;
    }
    for (BcInst& inst : fn.code) {
      if (inst.op == BcOp::kGuardInline || inst.op == BcOp::kGuardRange ||
          inst.op == BcOp::kCfiCheck) {
        inst.site = resolver.GuardSiteToken(inst.imm2);
      }
    }
  }
  auto vm = std::unique_ptr<VM>(
      new VM(std::move(bytecode), memory, resolver, config));
  vm->cfi_base_ = resolver.CfiSetBase();
  vm->bindings_.reserve(vm->bytecode_.externs.size());
  for (const BcExtern& ext : vm->bytecode_.externs) {
    vm->bindings_.push_back(resolver.Bind(ext.name));
  }
  return vm;
}

Result<uint64_t> VM::Call(const std::string& fn_name,
                          const std::vector<uint64_t>& args) {
  auto it = bytecode_.function_index.find(fn_name);
  if (it == bytecode_.function_index.end()) {
    return NotFound("no defined function @" + fn_name + " in module " +
                    bytecode_.name);
  }
  const BytecodeFunction& fn = bytecode_.functions[it->second];
  if (args.size() != fn.num_args) {
    return InvalidArgument("argument count mismatch calling @" + fn_name);
  }
  if (entry_depth_ == 0) {
    step_limit_ = StepDeadline(config_, stats_.steps);
    fault_state_ = EngineSnapshot();
    // Outermost entry pins the policy frame for the inline-guard fast
    // path; kGuardInline/kGuardRange/kCfiCheck decide against that
    // pinned frame and deopt to the bound slow path when anything moved.
    // Nested entries (module re-entry through an exported symbol) run
    // under the outermost pin.
    pin_ = resolver_.PinGuardFrame();
  }
  // Guard faults and panics unwind as exceptions through the resolver;
  // restore the register watermark so the VM stays usable afterwards.
  const size_t saved_top = reg_top_;
  ++entry_depth_;
  try {
    auto result = ExecuteFunction(it->second, args, 0,
                                  config_.stack_base + config_.stack_size);
    if (--entry_depth_ == 0) guard::Unpin(pin_);
    return result;
  } catch (...) {
    if (--entry_depth_ == 0) guard::Unpin(pin_);
    reg_top_ = saved_top;
    throw;
  }
}

Result<uint64_t> VM::ExecuteFunction(uint32_t fn_index,
                                     const std::vector<uint64_t>& args,
                                     uint32_t depth, uint64_t stack_top) {
  const BytecodeFunction& fn = bytecode_.functions[fn_index];
  if (depth > config_.max_call_depth) {
    RecordFault(fn.name, args, depth);
    return Internal("call depth limit exceeded in @" + fn.name);
  }

  const size_t base = reg_top_;
  if (reg_stack_.size() < base + fn.num_regs) {
    reg_stack_.resize(std::max(reg_stack_.size() * 2,
                               base + static_cast<size_t>(fn.num_regs)));
  }
  reg_top_ = base + fn.num_regs;

  uint64_t* regs = reg_stack_.data() + base;
  // memcpy from null is undefined even for zero bytes, and a
  // register-less function's vectors are empty (null).
  if (fn.num_regs != 0) {
    std::memcpy(regs, fn.frame_template.data(),
                sizeof(uint64_t) * fn.num_regs);
  }
  for (size_t i = 0; i < args.size(); ++i) {
    regs[i] = args[i] & fn.arg_masks[i];
  }

  // Synthetic function-entry edge, so straight-line functions (and the
  // entry block ahead of the first branch) register in the map too.
  if (CoverageMap* cov = ThreadCoverage()) {
    cov->HitEdge(fn_index, 0xffffffffu, 0);
  }

  // Frame-granular fault capture: exceptions (guard violations, panics)
  // and error results both stamp this frame into the snapshot on their
  // way out; the innermost frame wins.
  try {
    Result<uint64_t> result = RunFrame(fn, fn_index, base, depth, stack_top);
    reg_top_ = base;
    if (!result.ok()) RecordFault(fn.name, args, depth);
    return result;
  } catch (...) {
    reg_top_ = base;
    RecordFault(fn.name, args, depth);
    throw;
  }
}

void VM::RecordFault(const std::string& fn_name,
                     const std::vector<uint64_t>& args, uint32_t depth) {
  if (fault_state_.valid) return;
  fault_state_.valid = true;
  fault_state_.function = fn_name;
  fault_state_.depth = depth;
  fault_state_.args.assign(
      args.begin(), args.begin() + std::min<size_t>(args.size(), 8));
  fault_state_.stats = stats_;
}

Result<uint64_t> VM::RunFrame(const BytecodeFunction& fn, uint32_t fn_index,
                              size_t base, uint32_t depth,
                              uint64_t stack_top) {
  uint64_t* regs = reg_stack_.data() + base;
  const BcInst* code = fn.code.data();
  const BcInst* ip = code;
  uint64_t sp = stack_top;
  size_t pc = 0;

  // Fetched once per frame: the branch handlers pay one null check when
  // no sink is armed (the disarmed cost ext6 gates).
  CoverageMap* const cov = ThreadCoverage();

  // The step counter lives in a register for the ALU/branch fast path and
  // is flushed back to stats_ on every edge that leaves this frame or
  // calls out (memory, resolver, nested frames can throw, recurse, or be
  // observed) — so stats_.steps is exact whenever anyone can look.
  uint64_t steps = stats_.steps;
  const uint64_t max_steps = step_limit_;
  // The outermost call's pin (null: every guard takes the slow path).
  guard::PinSlot* const pin = pin_;

#if KOP_VM_THREADED
  // Indexed by BcOp; order must match the enum declaration.
  static const void* const kJump[] = {
      &&lbl_kAlloca, &&lbl_kLoad,  &&lbl_kStore, &&lbl_kGep,
      &&lbl_kAdd,    &&lbl_kSub,   &&lbl_kMul,   &&lbl_kUDiv,
      &&lbl_kSDiv,   &&lbl_kURem,  &&lbl_kSRem,  &&lbl_kAnd,
      &&lbl_kOr,     &&lbl_kXor,   &&lbl_kShl,   &&lbl_kLShr,
      &&lbl_kAShr,   &&lbl_kICmp,  &&lbl_kMove,  &&lbl_kSExt,
      &&lbl_kSelect, &&lbl_kBr,    &&lbl_kJmp,   &&lbl_kRetVoid,
      &&lbl_kRet,    &&lbl_kCallInternal,        &&lbl_kCallExternal,
      &&lbl_kGuard,  &&lbl_kGuardInline,         &&lbl_kGuardRange,
      &&lbl_kCfiCheck,                           &&lbl_kFuncAddr,
      &&lbl_kCallIndirect,                       &&lbl_kTrap};
  static_assert(sizeof(kJump) / sizeof(kJump[0]) ==
                static_cast<size_t>(BcOp::kTrap) + 1);
#endif

  VM_DISPATCH();

#if !KOP_VM_THREADED
dispatch:
  if (++steps > max_steps) [[unlikely]]
    goto budget_exhausted;
  ip = code + pc;
  switch (ip->op) {
#endif

    VM_CASE(kAlloca) : {
      const uint64_t size = ip->imm;
      if (sp - size < config_.stack_base || sp < size) {
        stats_.steps = steps;
        return Internal("interpreter stack overflow in @" + fn.name);
      }
      sp -= size;
      regs[ip->dst] = sp;
      VM_NEXT();
    }
    VM_CASE(kLoad) : {
      stats_.steps = steps;
      auto value = memory_.Load(regs[ip->a], ip->width);
      if (!value.ok()) return value.status();
      ++stats_.loads;
      regs[ip->dst] = *value & ip->imm;
      VM_NEXT();
    }
    VM_CASE(kStore) : {
      stats_.steps = steps;
      KOP_RETURN_IF_ERROR(
          memory_.Store(regs[ip->b], regs[ip->a], ip->width));
      ++stats_.stores;
      VM_NEXT();
    }
    VM_CASE(kGep) : {
      const int64_t index = SignExtendBits(regs[ip->b], ip->width);
      regs[ip->dst] =
          regs[ip->a] + static_cast<uint64_t>(index) * ip->imm2 + ip->imm;
      VM_NEXT();
    }
    VM_CASE(kAdd) : {
      regs[ip->dst] = (regs[ip->a] + regs[ip->b]) & ip->imm;
      VM_NEXT();
    }
    VM_CASE(kSub) : {
      regs[ip->dst] = (regs[ip->a] - regs[ip->b]) & ip->imm;
      VM_NEXT();
    }
    VM_CASE(kMul) : {
      regs[ip->dst] = (regs[ip->a] * regs[ip->b]) & ip->imm;
      VM_NEXT();
    }
    VM_CASE(kUDiv) : {
      if (regs[ip->b] == 0) {
        stats_.steps = steps;
        return Internal("division by zero in @" + fn.name);
      }
      regs[ip->dst] = (regs[ip->a] / regs[ip->b]) & ip->imm;
      VM_NEXT();
    }
    VM_CASE(kSDiv) : {
      if (regs[ip->b] == 0) {
        stats_.steps = steps;
        return Internal("division by zero in @" + fn.name);
      }
      const int64_t sa = SignExtendBits(regs[ip->a], ip->width);
      const int64_t sb = SignExtendBits(regs[ip->b], ip->width);
      regs[ip->dst] = static_cast<uint64_t>(sa / sb) & ip->imm;
      VM_NEXT();
    }
    VM_CASE(kURem) : {
      if (regs[ip->b] == 0) {
        stats_.steps = steps;
        return Internal("division by zero in @" + fn.name);
      }
      regs[ip->dst] = (regs[ip->a] % regs[ip->b]) & ip->imm;
      VM_NEXT();
    }
    VM_CASE(kSRem) : {
      if (regs[ip->b] == 0) {
        stats_.steps = steps;
        return Internal("division by zero in @" + fn.name);
      }
      const int64_t sa = SignExtendBits(regs[ip->a], ip->width);
      const int64_t sb = SignExtendBits(regs[ip->b], ip->width);
      regs[ip->dst] = static_cast<uint64_t>(sa % sb) & ip->imm;
      VM_NEXT();
    }
    VM_CASE(kAnd) : {
      regs[ip->dst] = regs[ip->a] & regs[ip->b];
      VM_NEXT();
    }
    VM_CASE(kOr) : {
      regs[ip->dst] = regs[ip->a] | regs[ip->b];
      VM_NEXT();
    }
    VM_CASE(kXor) : {
      regs[ip->dst] = regs[ip->a] ^ regs[ip->b];
      VM_NEXT();
    }
    VM_CASE(kShl) : {
      const uint64_t shift = regs[ip->b];
      regs[ip->dst] =
          (shift >= ip->width) ? 0 : (regs[ip->a] << shift) & ip->imm;
      VM_NEXT();
    }
    VM_CASE(kLShr) : {
      const uint64_t shift = regs[ip->b];
      regs[ip->dst] = (shift >= ip->width) ? 0 : regs[ip->a] >> shift;
      VM_NEXT();
    }
    VM_CASE(kAShr) : {
      const int64_t sa = SignExtendBits(regs[ip->a], ip->width);
      const uint64_t shift =
          regs[ip->b] >= ip->width ? ip->width - 1u : regs[ip->b];
      regs[ip->dst] = static_cast<uint64_t>(sa >> shift) & ip->imm;
      VM_NEXT();
    }
    VM_CASE(kICmp) : {
      const uint64_t a = regs[ip->a] & ip->imm;
      const uint64_t b = regs[ip->b] & ip->imm;
      const int64_t sa = SignExtendBits(a, ip->width);
      const int64_t sb = SignExtendBits(b, ip->width);
      bool result = false;
      switch (static_cast<ICmpPred>(ip->aux)) {
        case ICmpPred::kEq: result = a == b; break;
        case ICmpPred::kNe: result = a != b; break;
        case ICmpPred::kULt: result = a < b; break;
        case ICmpPred::kULe: result = a <= b; break;
        case ICmpPred::kUGt: result = a > b; break;
        case ICmpPred::kUGe: result = a >= b; break;
        case ICmpPred::kSLt: result = sa < sb; break;
        case ICmpPred::kSLe: result = sa <= sb; break;
        case ICmpPred::kSGt: result = sa > sb; break;
        case ICmpPred::kSGe: result = sa >= sb; break;
      }
      regs[ip->dst] = result ? 1 : 0;
      VM_NEXT();
    }
    VM_CASE(kMove) : {
      regs[ip->dst] = regs[ip->a] & ip->imm;
      VM_NEXT();
    }
    VM_CASE(kSExt) : {
      regs[ip->dst] =
          static_cast<uint64_t>(SignExtendBits(regs[ip->a], ip->width)) &
          ip->imm;
      VM_NEXT();
    }
    VM_CASE(kSelect) : {
      regs[ip->dst] =
          (regs[ip->a] != 0 ? regs[ip->b] : regs[ip->aux]) & ip->imm;
      VM_NEXT();
    }
    VM_CASE(kBr) : {
      uint16_t moves;
      if (regs[ip->a] != 0) {
        moves = ip->dst;
        pc = ip->aux;
      } else {
        moves = ip->b;
        pc = static_cast<size_t>(ip->imm);
      }
      if (cov != nullptr) [[unlikely]] {
        cov->HitEdge(fn_index, static_cast<uint32_t>(ip - code),
                     static_cast<uint32_t>(pc));
      }
      if (moves != kNoMoves) ApplyMoves(regs, fn.edge_moves[moves]);
      VM_DISPATCH();
    }
    VM_CASE(kJmp) : {
      if (cov != nullptr) [[unlikely]] {
        cov->HitEdge(fn_index, static_cast<uint32_t>(ip - code),
                     static_cast<uint32_t>(ip->aux));
      }
      if (ip->dst != kNoMoves) ApplyMoves(regs, fn.edge_moves[ip->dst]);
      pc = ip->aux;
      VM_DISPATCH();
    }
    VM_CASE(kRetVoid) : {
      stats_.steps = steps;
      return uint64_t{0};
    }
    VM_CASE(kRet) : {
      stats_.steps = steps;
      return regs[ip->a] & ip->imm;
    }
    VM_CASE(kCallInternal) : {
      std::vector<uint64_t>& call_args = arg_buffers_[depth];
      call_args.resize(ip->b);
      const uint16_t* arg_regs = fn.call_args.data() + ip->imm;
      for (uint16_t i = 0; i < ip->b; ++i) {
        call_args[i] = regs[arg_regs[i]];
      }
      ++stats_.calls_internal;
      stats_.steps = steps;
      auto result = ExecuteFunction(ip->aux, call_args, depth + 1, sp);
      if (!result.ok()) return result.status();
      steps = stats_.steps;             // callee advanced the counter
      regs = reg_stack_.data() + base;  // nested frames grow the arena
      if (ip->width != 0) regs[ip->dst] = *result & ip->imm2;
      VM_NEXT();
    }
    VM_CASE(kGuardInline) : {
      // Pinned-frame fast path: the guard core's allow path compiled in,
      // argument registers read in place, no vector build, no call. A
      // true return means the access was proven allowed AND fully
      // accounted; anything else deopts into the out-of-line call body
      // below (same instruction, so step/call accounting is identical).
      const uint16_t* arg_regs = fn.call_args.data() + ip->imm;
      if (pin != nullptr &&
          guard::PinnedGuard(*pin, regs[arg_regs[0]], regs[arg_regs[1]],
                             regs[arg_regs[2]], 0, ip->site)) [[likely]] {
        ++stats_.calls_external;
        if (ip->width != 0) regs[ip->dst] = 1;
        VM_NEXT();
      }
      goto call_external_slow;
    }
    VM_CASE(kGuardRange) : {
      const uint16_t* arg_regs = fn.call_args.data() + ip->imm;
      if (pin != nullptr &&
          guard::PinnedGuard(*pin, regs[arg_regs[0]], regs[arg_regs[1]],
                             regs[arg_regs[2]], regs[arg_regs[3]],
                             ip->site)) [[likely]] {
        ++stats_.calls_external;
        if (ip->width != 0) regs[ip->dst] = 1;
        VM_NEXT();
      }
      goto call_external_slow;
    }
    VM_CASE(kCfiCheck) : {
      // Pinned-frame CFI fast path: membership test against the pinned
      // frame's target table, the set id rebased to the engine's global
      // table. Deopt falls into the out-of-line call body, which owns
      // violation semantics — containment is byte-identical whether the
      // fast path fired or not.
      const uint16_t* arg_regs = fn.call_args.data() + ip->imm;
      if (pin != nullptr &&
          guard::PinnedCfiCheck(*pin, regs[arg_regs[0]],
                                regs[arg_regs[1]] + cfi_base_, ip->site))
          [[likely]] {
        ++stats_.calls_external;
        if (ip->width != 0) regs[ip->dst] = 1;
        VM_NEXT();
      }
      goto call_external_slow;
    }
    VM_CASE(kFuncAddr) : {
      regs[ip->dst] = ip->imm;
      VM_NEXT();
    }
    VM_CASE(kCallIndirect) : {
      const uint64_t target = regs[ip->a];
      const int fn_index =
          FunctionIndexForAddress(target, bytecode_.icall_targets.size());
      if (fn_index < 0) {
        stats_.steps = steps;
        return IndirectCallInvalidTarget(target, fn.name);
      }
      const BcIcallTarget& entry =
          bytecode_.icall_targets[static_cast<size_t>(fn_index)];
      std::vector<uint64_t>& call_args = arg_buffers_[depth];
      call_args.resize(ip->b);
      const uint16_t* arg_regs = fn.call_args.data() + ip->imm;
      for (uint16_t i = 0; i < ip->b; ++i) {
        call_args[i] = regs[arg_regs[i]];
      }
      if (entry.is_internal) {
        ++stats_.calls_internal;
        stats_.steps = steps;
        auto result = ExecuteFunction(entry.index, call_args, depth + 1, sp);
        if (!result.ok()) return result.status();
        steps = stats_.steps;
        regs = reg_stack_.data() + base;
        if (ip->width != 0) regs[ip->dst] = *result & MaskOfBits(ip->width);
        VM_NEXT();
      }
      ++stats_.calls_external;
      stats_.steps = steps;
      Result<uint64_t> result =
          resolver_.Call(bindings_[entry.index], call_args, ip->imm2);
      if (!result.ok()) return result.status();
      steps = stats_.steps;
      regs = reg_stack_.data() + base;
      if (ip->width != 0) {
        regs[ip->dst] = *result & MaskOfBits(ip->width);
      }
      VM_NEXT();
    }
    VM_CASE(kCallExternal) :
    VM_CASE(kGuard) : {
    call_external_slow:
      std::vector<uint64_t>& call_args = arg_buffers_[depth];
      call_args.resize(ip->b);
      const uint16_t* arg_regs = fn.call_args.data() + ip->imm;
      for (uint16_t i = 0; i < ip->b; ++i) {
        call_args[i] = regs[arg_regs[i]];
      }
      ++stats_.calls_external;
      stats_.steps = steps;
      Result<uint64_t> result =
          resolver_.Call(bindings_[ip->aux], call_args, ip->imm2);
      if (!result.ok()) return result.status();
      steps = stats_.steps;             // ...and may have run more code
      regs = reg_stack_.data() + base;  // resolver may re-enter the VM
      if (ip->width != 0) {
        regs[ip->dst] = *result & MaskOfBits(ip->width);
      }
      VM_NEXT();
    }
    VM_CASE(kTrap) : {
      stats_.steps = steps;
      return PermissionDenied("inline asm executed in @" + fn.name + ": \"" +
                              fn.asm_texts[ip->aux] + "\"");
    }

#if !KOP_VM_THREADED
  }
#endif

budget_exhausted:
  stats_.steps = steps;
  return StepBudgetExceeded(config_);
}

#undef VM_NEXT
#undef VM_DISPATCH
#undef VM_CASE
#undef KOP_VM_THREADED

}  // namespace kop::kir
