#include "kop/kir/interp.hpp"

#include <algorithm>
#include <unordered_map>

#include "kop/kir/printer.hpp"
#include "kop/util/bits.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop::kir {
namespace {

/// The VM's kGuardInline / kGuardRange / kCfiCheck for the interpreter: a
/// guard call with the exact ABI arity decides against the pinned slot.
/// False = not such a call, or a deopt.
bool PinnedCall(guard::PinSlot& pin, const std::string& callee,
                const std::vector<uint64_t>& args, uint64_t site,
                uint64_t cfi_base) {
  if (args.size() == 3 && callee == kCaratGuardSymbol) {
    return guard::PinnedGuard(pin, args[0], args[1], args[2], 0, site);
  }
  if (args.size() == 4 && callee == kCaratGuardRangeSymbol) {
    return guard::PinnedGuard(pin, args[0], args[1], args[2], args[3], site);
  }
  if (args.size() == 2 && callee == kCaratCfiCheckSymbol) {
    return guard::PinnedCfiCheck(pin, args[0], args[1] + cfi_base, site);
  }
  return false;
}

}  // namespace

Interpreter::Interpreter(
    const Module& module, MemoryInterface& memory, ExternalResolver& resolver,
    std::unordered_map<std::string, uint64_t> global_addresses,
    const InterpConfig& config)
    : module_(module),
      memory_(memory),
      resolver_(resolver),
      global_addresses_(std::move(global_addresses)),
      config_(config),
      cfi_base_(resolver.CfiSetBase()) {
  // Bind every external callee once: declared externals (also the
  // targets of indirect calls) and undeclared direct callees.
  std::unordered_map<std::string, uint64_t> handles;
  auto bind = [&](const std::string& name) {
    auto [it, fresh] = handles.try_emplace(name, 0);
    if (fresh) it->second = resolver.Bind(name);
    return it->second;
  };
  for (const auto& fn : module_.functions()) {
    function_handles_.push_back(fn->is_external() ? bind(fn->name()) : 0);
  }
  uint64_t ordinal = 0;
  for (const auto& fn : module_.functions()) {
    for (const auto& block : fn->blocks()) {
      for (const auto& inst : *block) {
        if (inst->opcode() == Opcode::kCall ||
            inst->opcode() == Opcode::kCallIndirect) {
          const Function* callee = module_.FindFunction(inst->callee());
          const bool external = inst->opcode() == Opcode::kCall &&
                                (callee == nullptr || callee->is_external());
          call_sites_[inst.get()] =
              CallSite{ordinal, resolver.GuardSiteToken(ordinal),
                       external ? bind(inst->callee()) : 0};
          ++ordinal;
        }
      }
    }
  }
}

Result<uint64_t> Interpreter::GlobalAddress(
    const GlobalVariable* global) const {
  auto it = global_addresses_.find(global->name());
  if (it == global_addresses_.end()) {
    return Internal("global @" + global->name() + " has no assigned address");
  }
  return it->second;
}

Result<uint64_t> Interpreter::Call(const std::string& fn_name,
                                   const std::vector<uint64_t>& args) {
  const Function* fn = module_.FindFunction(fn_name);
  if (fn == nullptr || fn->is_external()) {
    return NotFound("no defined function @" + fn_name + " in module " +
                    module_.name());
  }
  if (args.size() != fn->arg_count()) {
    return InvalidArgument("argument count mismatch calling @" + fn_name);
  }
  if (entry_depth_ == 0) {
    step_limit_ = StepDeadline(config_, stats_.steps);
    fault_state_ = EngineSnapshot();
    // Outermost entry pins the policy frame for the inline-guard fast
    // path (the interpreter recognizes guard calls by name + arity at
    // kCall); nested entries run under the outermost pin.
    pin_ = resolver_.PinGuardFrame();
  }
  ++entry_depth_;
  try {
    auto result =
        Execute(*fn, args, 0, config_.stack_base + config_.stack_size);
    if (--entry_depth_ == 0) guard::Unpin(pin_);
    return result;
  } catch (...) {
    if (--entry_depth_ == 0) guard::Unpin(pin_);
    throw;
  }
}

Result<uint64_t> Interpreter::Execute(const Function& fn,
                                      const std::vector<uint64_t>& args,
                                      uint32_t depth, uint64_t stack_top) {
  try {
    auto result = ExecuteFrame(fn, args, depth, stack_top);
    if (!result.ok()) RecordFault(fn.name(), args, depth);
    return result;
  } catch (...) {
    RecordFault(fn.name(), args, depth);
    throw;
  }
}

void Interpreter::RecordFault(const std::string& fn_name,
                              const std::vector<uint64_t>& args,
                              uint32_t depth) {
  if (fault_state_.valid) return;
  fault_state_.valid = true;
  fault_state_.function = fn_name;
  fault_state_.depth = depth;
  fault_state_.args.assign(
      args.begin(), args.begin() + std::min<size_t>(args.size(), 8));
  fault_state_.stats = stats_;
}

Result<uint64_t> Interpreter::ExecuteFrame(const Function& fn,
                                           const std::vector<uint64_t>& args,
                                           uint32_t depth, uint64_t stack_top) {
  if (depth > config_.max_call_depth) {
    return Internal("call depth limit exceeded in @" + fn.name());
  }

  // SSA environment for this frame.
  std::unordered_map<const Value*, uint64_t> env;
  env.reserve(fn.InstructionCount() + fn.arg_count());
  for (size_t i = 0; i < fn.arg_count(); ++i) {
    env[fn.args()[i].get()] = ClampToType(args[i], fn.args()[i]->type());
  }

  auto eval = [&](const Value* v) -> Result<uint64_t> {
    switch (v->kind()) {
      case ValueKind::kConstant:
        return static_cast<const Constant*>(v)->bits();
      case ValueKind::kGlobal:
        return GlobalAddress(static_cast<const GlobalVariable*>(v));
      case ValueKind::kArgument:
      case ValueKind::kInstruction: {
        auto it = env.find(v);
        if (it == env.end()) {
          return Internal("use of unevaluated value %" + v->name() + " in @" +
                          fn.name());
        }
        return it->second;
      }
    }
    return Internal("bad value kind");
  };

  // Frame-local stack pointer for allocas, growing down.
  uint64_t sp = stack_top;

  const BasicBlock* block = fn.blocks()[0].get();
  const BasicBlock* prev_block = nullptr;

  while (true) {
    // Phi nodes: evaluate all at once against the edge we arrived on.
    auto it = block->begin();
    if (it != block->end() && (*it)->opcode() == Opcode::kPhi) {
      std::vector<std::pair<const Instruction*, uint64_t>> phi_values;
      for (; it != block->end() && (*it)->opcode() == Opcode::kPhi; ++it) {
        const Instruction* phi = it->get();
        bool matched = false;
        for (size_t i = 0; i < phi->incoming_blocks().size(); ++i) {
          if (phi->incoming_blocks()[i] == prev_block) {
            auto value = eval(phi->operand(i));
            if (!value.ok()) return value.status();
            phi_values.emplace_back(phi, ClampToType(*value, phi->type()));
            matched = true;
            break;
          }
        }
        if (!matched) {
          return Internal("phi in " + block->label() +
                          " has no incoming entry for edge taken");
        }
      }
      for (auto& [phi, value] : phi_values) env[phi] = value;
    }

    for (; it != block->end(); ++it) {
      const Instruction& inst = **it;
      if (++stats_.steps > step_limit_) {
        return StepBudgetExceeded(config_);
      }

      switch (inst.opcode()) {
        case Opcode::kAlloca: {
          const uint64_t size = AlignUp(inst.alloca_size(), 16);
          if (sp - size < config_.stack_base || sp < size) {
            return Internal("interpreter stack overflow in @" + fn.name());
          }
          sp -= size;
          env[&inst] = sp;
          break;
        }
        case Opcode::kLoad: {
          auto addr = eval(inst.operand(0));
          if (!addr.ok()) return addr.status();
          auto value = memory_.Load(*addr, StoreSize(inst.memory_type()));
          if (!value.ok()) return value.status();
          ++stats_.loads;
          env[&inst] = ClampToType(*value, inst.type());
          break;
        }
        case Opcode::kStore: {
          auto value = eval(inst.operand(0));
          if (!value.ok()) return value.status();
          auto addr = eval(inst.operand(1));
          if (!addr.ok()) return addr.status();
          KOP_RETURN_IF_ERROR(
              memory_.Store(*addr, *value, StoreSize(inst.memory_type())));
          ++stats_.stores;
          break;
        }
        case Opcode::kGep: {
          auto base = eval(inst.operand(0));
          if (!base.ok()) return base.status();
          auto index = eval(inst.operand(1));
          if (!index.ok()) return index.status();
          const int64_t signed_index =
              SignExtend(*index, inst.operand(1)->type());
          env[&inst] = *base +
                       static_cast<uint64_t>(signed_index) * inst.gep_scale() +
                       inst.gep_offset();
          break;
        }
        case Opcode::kAdd:
        case Opcode::kSub:
        case Opcode::kMul:
        case Opcode::kUDiv:
        case Opcode::kSDiv:
        case Opcode::kURem:
        case Opcode::kSRem:
        case Opcode::kAnd:
        case Opcode::kOr:
        case Opcode::kXor:
        case Opcode::kShl:
        case Opcode::kLShr:
        case Opcode::kAShr: {
          auto lhs = eval(inst.operand(0));
          if (!lhs.ok()) return lhs.status();
          auto rhs = eval(inst.operand(1));
          if (!rhs.ok()) return rhs.status();
          const Type type = inst.type();
          const uint64_t a = *lhs;
          const uint64_t b = *rhs;
          const unsigned bits = BitWidth(type);
          uint64_t result = 0;
          switch (inst.opcode()) {
            case Opcode::kAdd: result = a + b; break;
            case Opcode::kSub: result = a - b; break;
            case Opcode::kMul: result = a * b; break;
            case Opcode::kUDiv:
              if (b == 0) return Internal("division by zero in @" + fn.name());
              result = a / b;
              break;
            case Opcode::kSDiv: {
              if (b == 0) return Internal("division by zero in @" + fn.name());
              const int64_t sa = SignExtend(a, type);
              const int64_t sb = SignExtend(b, type);
              result = static_cast<uint64_t>(sa / sb);
              break;
            }
            case Opcode::kURem:
              if (b == 0) return Internal("division by zero in @" + fn.name());
              result = a % b;
              break;
            case Opcode::kSRem: {
              if (b == 0) return Internal("division by zero in @" + fn.name());
              const int64_t sa = SignExtend(a, type);
              const int64_t sb = SignExtend(b, type);
              result = static_cast<uint64_t>(sa % sb);
              break;
            }
            case Opcode::kAnd: result = a & b; break;
            case Opcode::kOr: result = a | b; break;
            case Opcode::kXor: result = a ^ b; break;
            case Opcode::kShl:
              result = (b >= bits) ? 0 : a << b;
              break;
            case Opcode::kLShr:
              result = (b >= bits) ? 0 : ClampToType(a, type) >> b;
              break;
            case Opcode::kAShr: {
              const int64_t sa = SignExtend(a, type);
              const uint64_t shift = b >= bits ? bits - 1 : b;
              result = static_cast<uint64_t>(sa >> shift);
              break;
            }
            default: break;
          }
          env[&inst] = ClampToType(result, type);
          break;
        }
        case Opcode::kICmp: {
          auto lhs = eval(inst.operand(0));
          if (!lhs.ok()) return lhs.status();
          auto rhs = eval(inst.operand(1));
          if (!rhs.ok()) return rhs.status();
          const Type type = inst.operand(0)->type();
          const uint64_t a = ClampToType(*lhs, type);
          const uint64_t b = ClampToType(*rhs, type);
          const int64_t sa = SignExtend(a, type);
          const int64_t sb = SignExtend(b, type);
          bool result = false;
          switch (inst.icmp_pred()) {
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
          env[&inst] = result ? 1 : 0;
          break;
        }
        case Opcode::kZExt: {
          auto value = eval(inst.operand(0));
          if (!value.ok()) return value.status();
          env[&inst] =
              ClampToType(ClampToType(*value, inst.operand(0)->type()),
                          inst.type());
          break;
        }
        case Opcode::kSExt: {
          auto value = eval(inst.operand(0));
          if (!value.ok()) return value.status();
          env[&inst] = ClampToType(
              static_cast<uint64_t>(
                  SignExtend(*value, inst.operand(0)->type())),
              inst.type());
          break;
        }
        case Opcode::kTrunc:
        case Opcode::kPtrToInt:
        case Opcode::kIntToPtr: {
          auto value = eval(inst.operand(0));
          if (!value.ok()) return value.status();
          env[&inst] = ClampToType(*value, inst.type());
          break;
        }
        case Opcode::kSelect: {
          auto cond = eval(inst.operand(0));
          if (!cond.ok()) return cond.status();
          auto picked = eval(inst.operand(*cond != 0 ? 1 : 2));
          if (!picked.ok()) return picked.status();
          env[&inst] = ClampToType(*picked, inst.type());
          break;
        }
        case Opcode::kBr: {
          auto cond = eval(inst.operand(0));
          if (!cond.ok()) return cond.status();
          prev_block = block;
          block = (*cond != 0) ? inst.true_block() : inst.false_block();
          goto next_block;
        }
        case Opcode::kJmp:
          prev_block = block;
          block = inst.true_block();
          goto next_block;
        case Opcode::kRet: {
          if (inst.operand_count() == 0) return uint64_t{0};
          auto value = eval(inst.operand(0));
          if (!value.ok()) return value.status();
          return ClampToType(*value, fn.return_type());
        }
        case Opcode::kCall: {
          std::vector<uint64_t> call_args;
          call_args.reserve(inst.operand_count());
          for (size_t i = 0; i < inst.operand_count(); ++i) {
            auto value = eval(inst.operand(i));
            if (!value.ok()) return value.status();
            call_args.push_back(*value);
          }
          const Function* callee = module_.FindFunction(inst.callee());
          Result<uint64_t> result = uint64_t{0};
          if (callee != nullptr && !callee->is_external()) {
            ++stats_.calls_internal;
            result = Execute(*callee, call_args, depth + 1, sp);
          } else {
            ++stats_.calls_external;
            const CallSite& call = call_sites_.at(&inst);
            // Inline-guard fast path first; a deopt falls back to the
            // ordinary external-call path. The external call count
            // advanced either way, so InterpStats parity with the VM
            // holds.
            if (pin_ != nullptr && PinnedCall(*pin_, inst.callee(), call_args,
                                              call.site, cfi_base_)) {
              result = uint64_t{1};
            } else {
              result = resolver_.Call(call.handle, call_args, call.ordinal);
            }
          }
          if (!result.ok()) return result.status();
          if (inst.type() != Type::kVoid) {
            env[&inst] = ClampToType(*result, inst.type());
          }
          break;
        }
        case Opcode::kFuncAddr: {
          const int index = module_.FunctionIndex(inst.callee());
          if (index < 0) {
            return Internal("funcaddr of unknown function @" + inst.callee());
          }
          env[&inst] = FunctionAddressForIndex(static_cast<size_t>(index));
          break;
        }
        case Opcode::kCallIndirect: {
          auto target = eval(inst.operand(0));
          if (!target.ok()) return target.status();
          std::vector<uint64_t> call_args;
          call_args.reserve(inst.operand_count() - 1);
          for (size_t i = 1; i < inst.operand_count(); ++i) {
            auto value = eval(inst.operand(i));
            if (!value.ok()) return value.status();
            call_args.push_back(*value);
          }
          const int index =
              FunctionIndexForAddress(*target, module_.functions().size());
          if (index < 0) {
            return IndirectCallInvalidTarget(*target, fn.name());
          }
          const Function* callee =
              module_.functions()[static_cast<size_t>(index)].get();
          Result<uint64_t> result = uint64_t{0};
          if (!callee->is_external()) {
            ++stats_.calls_internal;
            result = Execute(*callee, call_args, depth + 1, sp);
          } else {
            ++stats_.calls_external;
            result = resolver_.Call(function_handles_[index], call_args,
                                    call_sites_.at(&inst).ordinal);
          }
          if (!result.ok()) return result.status();
          if (inst.type() != Type::kVoid) {
            env[&inst] = ClampToType(*result, inst.type());
          }
          break;
        }
        case Opcode::kPhi:
          return Internal("phi below the phi group in " + block->label());
        case Opcode::kInlineAsm:
          // Executing inline asm is outside the simulated ISA. A signed
          // module can never contain one (attestation rejects it); if an
          // unsigned test module executes one, treat it as a fault.
          return PermissionDenied("inline asm executed in @" + fn.name() +
                                  ": \"" + inst.asm_text() + "\"");
      }
    }
    return Internal("fell off end of block " + block->label());
  next_block:;
  }
}

}  // namespace kop::kir
