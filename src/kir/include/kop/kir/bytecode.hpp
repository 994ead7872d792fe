// KIR bytecode: the flat, pre-decoded form the register VM executes.
//
// The tree-walking interpreter pays for generality on every step: a
// hash-map SSA environment per frame, a phi scan per edge, string-keyed
// callee dispatch. The bytecode compiler pays all of that ONCE at load
// time instead:
//
//   - every SSA value gets a dense register number; the frame is a flat
//     uint64_t array, no hash lookups on the hot path,
//   - constants and (at VM-bind time) global addresses are folded into a
//     per-function frame template that frame setup memcpys,
//   - phi nodes are lowered to precomputed per-edge move lists with
//     parallel-copy semantics,
//   - branch targets are resolved to instruction indices,
//   - external callees are interned to symbol ids — guard calls and
//     kir.* intrinsics recognized at compile time — and bound once
//     against the resolver when the VM is constructed.
//
// Lowering is 1:1 for every non-phi instruction (phis become edge moves),
// which is what keeps the two engines' InterpStats identical: each
// executed BcInst is exactly one interpreter step. Bytecode is derived
// from the validated IR at insmod, after signature/attestation checks, so
// signing and attestation are unaffected by its existence.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kop/kir/intrinsics.hpp"
#include "kop/kir/module.hpp"
#include "kop/util/status.hpp"

namespace kop::kir {

enum class BcOp : uint8_t {
  // Memory.
  kAlloca,  // dst = sp -= imm (imm pre-aligned to 16)
  kLoad,    // dst = mem[r(a)] & imm; width = access bytes
  kStore,   // mem[r(b)] = r(a); width = access bytes
  kGep,     // dst = r(a) + SignExtend(r(b), width bits) * imm2 + imm

  // Binary ALU: dst = (r(a) op r(b)) & imm; width = result bits.
  kAdd, kSub, kMul, kUDiv, kSDiv, kURem, kSRem,
  kAnd, kOr, kXor, kShl, kLShr, kAShr,

  kICmp,    // dst = pred(r(a), r(b)); aux = ICmpPred; width = operand bits

  // Conversions. kMove covers zext/trunc/ptrtoint/inttoptr: registers
  // hold values already clamped to their defining type, so only the
  // destination mask matters. kSExt re-extends from `width` source bits.
  kMove,    // dst = r(a) & imm
  kSExt,    // dst = SignExtend(r(a), width bits) & imm

  kSelect,  // dst = (r(a) != 0 ? r(b) : r(aux)) & imm

  // Control flow. Branch targets are instruction indices; dst/b hold
  // per-edge move-list ids (kNoMoves = the edge carries no phis).
  kBr,      // if r(a): moves[dst], pc = aux; else: moves[b], pc = imm
  kJmp,     // moves[dst], pc = aux
  kRetVoid,
  kRet,     // return r(a) & imm

  // Calls. Argument registers live in call_args[imm .. imm+b). width = 0
  // for void results, else result bits (dst written with mask of width).
  kCallInternal,  // aux = defined-function index; imm2 = result mask
  kCallExternal,  // aux = extern id; imm2 = module-wide call ordinal
  kGuard,         // kCallExternal whose callee the compiler recognized as
                  // carat_guard / carat_intrinsic_guard

  // Inline-guard fast path (DESIGN.md §15). Same operand layout as
  // kGuard (aux = extern id, imm = call_args offset, b = argc, imm2 =
  // call ordinal, site = site token) — the VM reads the argument
  // registers directly and runs the guard core's check inline; on deopt
  // (no pin, generation moved, fault injection, or check failure) it
  // falls through to the kGuard slow path, which re-decides with full
  // violation attribution and containment semantics.
  kGuardInline,  // carat_guard(addr, size, flags), exactly 3 args
  kGuardRange,   // carat_guard_range(addr, size, flags, elided), 4 args

  // CFI fast path (DESIGN.md §16). Operand layout of kGuardInline; the
  // VM reads (target, set_id) from the argument registers and runs the
  // guard core's pinned-frame target-set membership test; deopt falls
  // through to the kCallExternal slow path, which owns violation
  // attribution and containment semantics.
  kCfiCheck,  // carat_cfi_check(target, set_id), exactly 2 args

  // Indirect control flow. kFuncAddr folds the simulated function
  // address at compile time (it is deterministic from declaration
  // order); kCallIndirect reads the target from r(a) and dispatches
  // through the module's icall_targets table.
  kFuncAddr,      // dst = imm (simulated function address)
  kCallIndirect,  // a = target reg; args/ordinal laid out like kCallExternal

  kTrap,    // inline asm reached execution; aux = asm_texts index
};

std::string_view BcOpName(BcOp op);

/// One pre-decoded instruction. 40 bytes; field meaning is per-op (see
/// the BcOp comments). `src_index` is the original KIR instruction index
/// within the function (counting phis) — the stable coordinate guard-site
/// tables are keyed by, preserved so site attribution survives lowering.
struct BcInst {
  BcOp op = BcOp::kRetVoid;
  uint8_t width = 0;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint32_t aux = 0;
  uint32_t src_index = 0;
  uint64_t imm = 0;
  uint64_t imm2 = 0;
  uint64_t site = 0;  // inline guard ops: site token, patched at VM bind
};

/// One phi move on a CFG edge: frame register src copied to dst. Lists
/// execute with parallel-copy semantics (all reads before any write).
struct BcMove {
  uint16_t src = 0;
  uint16_t dst = 0;
};

/// Sentinel move-list id: the edge has no phi moves.
inline constexpr uint16_t kNoMoves = 0xffff;

/// An interned external callee. Guard and intrinsic classification happen
/// here, at compile time, so the VM and the resolver's bound fast path
/// never examine the name again.
struct BcExtern {
  std::string name;
  Intrinsic intrinsic = Intrinsic::kNone;  // for "kir.*" callees
  bool is_guard = false;                   // carat_guard
  bool is_range_guard = false;             // carat_guard_range
  bool is_intrinsic_guard = false;         // carat_intrinsic_guard
  bool is_cfi_check = false;               // carat_cfi_check
};

/// Runtime dispatch entry for one IR function (defined or extern), in
/// declaration order — the bytecode image of the simulated function
/// address space. kCallIndirect decodes its target address to an index
/// into this table.
struct BcIcallTarget {
  bool is_internal = false;
  uint32_t index = 0;  // defined-function index, or extern id
};

/// A frame-template slot whose value is a global's address, known only at
/// load time: VM::Create patches template[reg] with the address assigned
/// to global_names[global].
struct BcGlobalFixup {
  uint16_t reg = 0;
  uint32_t global = 0;
};

struct BytecodeFunction {
  std::string name;
  Type return_type = Type::kVoid;
  uint16_t num_args = 0;
  uint16_t num_regs = 0;
  /// Per-argument clamp masks (ClampToType folded to an AND).
  std::vector<uint64_t> arg_masks;
  /// Registers [const_reg_begin, const_reg_end) hold compile-time values
  /// from the frame template (constants, or global addresses for regs
  /// named in global_fixups). Everything at const_reg_end and above is an
  /// instruction result. Guard-site reconstruction keys off this range.
  uint16_t const_reg_begin = 0;
  uint16_t const_reg_end = 0;
  /// Initial frame contents: constants pre-folded, global addresses
  /// patched at bind, everything else zero. Size num_regs.
  std::vector<uint64_t> frame_template;
  std::vector<BcGlobalFixup> global_fixups;
  std::vector<BcInst> code;
  std::vector<std::vector<BcMove>> edge_moves;
  std::vector<uint16_t> call_args;   // argument-register pool
  std::vector<std::string> asm_texts;  // kTrap payloads
};

struct BytecodeModule {
  std::string name;
  std::vector<BytecodeFunction> functions;  // defined functions, IR order
  std::unordered_map<std::string, uint32_t> function_index;
  std::vector<BcExtern> externs;
  std::vector<std::string> global_names;  // fixup targets, IR order
  std::vector<BcIcallTarget> icall_targets;  // all IR functions, decl order
};

/// Compile a (verified) module to bytecode. Fails on IR the verifier
/// would reject anyway (unterminated block, phi without an entry for a
/// predecessor edge) and on the >65535-registers-per-function limit.
Result<BytecodeModule> CompileToBytecode(const Module& module);

/// Human-readable listing of the whole module (kopcc inspect --bytecode).
std::string DisassembleBytecode(const BytecodeModule& bytecode);

}  // namespace kop::kir
