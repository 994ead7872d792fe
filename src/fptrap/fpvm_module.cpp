#include "kop/fptrap/fpvm_module.hpp"

#include <cmath>
#include <cstring>

namespace kop::fptrap {
namespace {

double BitsToDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint64_t DoubleToBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

template <typename Ops>
Result<FpvmModule<Ops>> FpvmModule<Ops>::Probe(Ops ops) {
  kernel::Kernel* kernel = ops.kernel();
  KOP_ASSIGN_OR_RETURN(uint64_t state,
                       kernel->heap().Kmalloc(fpvm::kSize, 64));
  FpvmModule module(ops, state);
  Ops& o = module.ops_;
  KOP_RETURN_IF_ERROR(o.Store(state + fpvm::kTrapsHandled, 0, 8));
  KOP_RETURN_IF_ERROR(o.Store(state + fpvm::kAddCount, 0, 8));
  KOP_RETURN_IF_ERROR(o.Store(state + fpvm::kDivCount, 0, 8));
  return module;
}

template <typename Ops>
Status FpvmModule<Ops>::Remove() {
  KOP_RETURN_IF_ERROR(ops_.kernel()->heap().Kfree(state_));
  state_ = 0;
  return OkStatus();
}

template <typename Ops>
Status FpvmModule<Ops>::HandleTrap(uint64_t frame_addr) {
  modrt::EntryPin<Ops> pin(ops_);
  // Read the faulting instruction's description (guarded loads).
  KOP_ASSIGN_OR_RETURN(uint64_t opcode,
                       ops_.Load(frame_addr + frame::kOpcode, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t src1_bits,
                       ops_.Load(frame_addr + frame::kSrc1, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t src2_bits,
                       ops_.Load(frame_addr + frame::kSrc2, 8));

  // Software emulation of the instruction (the FPVM idea: the trap
  // handler computes what the hardware refused to).
  const double a = BitsToDouble(src1_bits);
  const double b = BitsToDouble(src2_bits);
  double result = 0.0;
  switch (static_cast<FpOp>(opcode)) {
    case FpOp::kAdd: result = a + b; break;
    case FpOp::kSub: result = a - b; break;
    case FpOp::kMul: result = a * b; break;
    case FpOp::kDiv: result = a / b; break;
    case FpOp::kSqrt: result = std::sqrt(a); break;
    default:
      return OkStatus();  // unknown op: leave kHandled = 0 (SIGFPE path)
  }

  // Patch the frame and account (guarded stores).
  KOP_RETURN_IF_ERROR(
      ops_.Store(frame_addr + frame::kResult, DoubleToBits(result), 8));
  KOP_RETURN_IF_ERROR(ops_.Store(frame_addr + frame::kHandled, 1, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t handled,
                       ops_.Load(state_ + fpvm::kTrapsHandled, 8));
  KOP_RETURN_IF_ERROR(
      ops_.Store(state_ + fpvm::kTrapsHandled, handled + 1, 8));
  if (static_cast<FpOp>(opcode) == FpOp::kAdd) {
    KOP_ASSIGN_OR_RETURN(uint64_t adds, ops_.Load(state_ + fpvm::kAddCount, 8));
    KOP_RETURN_IF_ERROR(ops_.Store(state_ + fpvm::kAddCount, adds + 1, 8));
  }
  if (static_cast<FpOp>(opcode) == FpOp::kDiv) {
    KOP_ASSIGN_OR_RETURN(uint64_t divs, ops_.Load(state_ + fpvm::kDivCount, 8));
    KOP_RETURN_IF_ERROR(ops_.Store(state_ + fpvm::kDivCount, divs + 1, 8));
  }
  return OkStatus();
}

template <typename Ops>
Result<FpvmCounters> FpvmModule<Ops>::Counters() {
  FpvmCounters out;
  KOP_ASSIGN_OR_RETURN(out.traps_handled,
                       ops_.Load(state_ + fpvm::kTrapsHandled, 8));
  KOP_ASSIGN_OR_RETURN(out.adds, ops_.Load(state_ + fpvm::kAddCount, 8));
  KOP_ASSIGN_OR_RETURN(out.divs, ops_.Load(state_ + fpvm::kDivCount, 8));
  return out;
}

template class FpvmModule<modrt::RawMemOps>;
template class FpvmModule<modrt::GuardedMemOps>;

}  // namespace kop::fptrap
