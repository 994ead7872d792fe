#include "kop/kernel/module_loader.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>
#include <unordered_map>

#include "kop/analysis/static_verifier.hpp"
#include "kop/flight/postmortem.hpp"
#include "kop/kir/bytecode.hpp"
#include "kop/kir/intrinsics.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/span.hpp"
#include "kop/trace/site.hpp"
#include "kop/trace/trace.hpp"
#include "kop/transform/guard_sites.hpp"
#include "kop/util/bits.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop::kernel {
namespace {

/// Per-CPU interpreter/VM frame stack size (module area).
constexpr uint64_t kStackBytes = 64 * 1024;

/// Routes external calls to the exported-symbol table; provides benign
/// host fallbacks for the hardware intrinsics so un-wrapped intrinsics
/// still "execute" (the §5 wrap pass adds the permission check in front).
///
/// Both engines bind each callee ONCE, at construction — guard
/// classification, interned intrinsic id, or symbol-table closure
/// pointer — and Call then dispatches on an integer kind with no string
/// in sight. Cached symbol pointers revalidate against the symbol
/// table's generation counter, so unloading the policy module (which
/// unexports carat_guard) is observed on the next call, and a name that
/// was not exported at bind time fails with NotFound until it is.
///
/// The resolver also keeps the owning module's HeapLedger honest: calls
/// through the kernel's kmalloc/kfree exports are recorded so quarantine
/// and restart can reclaim whatever the module still owns.
class KernelResolver final : public kir::ExternalResolver {
 public:
  /// `site_tokens` maps a module-wide call ordinal to the guard-site
  /// token registered for that ordinal's guard call (only guard calls
  /// appear in it).
  /// `cfi_base` rebases the module's local CFI set ids into the policy
  /// engine's global table (RegisterCfiSets' return at insmod).
  KernelResolver(Kernel* kernel,
                 const std::unordered_map<uint64_t, uint64_t>& site_tokens,
                 HeapLedger* ledger, uint64_t cfi_base)
      : kernel_(kernel), ledger_(ledger), cfi_base_(cfi_base) {
    uint64_t max_ordinal = 0;
    for (const auto& [ordinal, token] : site_tokens) {
      max_ordinal = std::max(max_ordinal, ordinal);
    }
    if (!site_tokens.empty()) {
      site_token_by_ordinal_.assign(max_ordinal + 1, trace::kUnknownSite);
      for (const auto& [ordinal, token] : site_tokens) {
        site_token_by_ordinal_[ordinal] = token;
      }
    }
  }

  uint64_t Bind(const std::string& name) override {
    Binding binding;
    binding.name = name;
    if (name == kCaratGuardSymbol || name == kCaratGuardRangeSymbol ||
        name == kCaratIntrinsicGuardSymbol) {
      binding.kind = Binding::Kind::kGuard;
    } else if (name == kCaratCfiCheckSymbol) {
      binding.kind = Binding::Kind::kCfi;
    } else if (!kernel_->symbols().HasFunction(name) &&
               kir::IsIntrinsicName(name)) {
      binding.kind = Binding::Kind::kIntrinsic;
      binding.intrinsic = kir::IntrinsicFromName(name);
    } else {
      binding.kind = Binding::Kind::kSymbol;
      if (name == "kmalloc") binding.heap_op = Binding::HeapOp::kMalloc;
      if (name == "kfree") binding.heap_op = Binding::HeapOp::kFree;
    }
    if (binding.kind != Binding::Kind::kIntrinsic) {
      binding.fn = kernel_->symbols().FindFunction(name);
      binding.generation = kernel_->symbols().generation();
    }
    bindings_.push_back(std::move(binding));
    return bindings_.size() - 1;
  }

  Result<uint64_t> Call(uint64_t handle, const std::vector<uint64_t>& args,
                        uint64_t call_ordinal) override {
    Binding& binding = bindings_[handle];
    switch (binding.kind) {
      case Binding::Kind::kGuard: {
        KOP_ASSIGN_OR_RETURN(const KernelFunction* fn, Revalidate(binding));
        return AtGuardSite(call_ordinal, [&] { return (*fn)(args); });
      }
      case Binding::Kind::kSymbol: {
        KOP_ASSIGN_OR_RETURN(const KernelFunction* fn, Revalidate(binding));
        const uint64_t ret = (*fn)(args);
        if (binding.heap_op != Binding::HeapOp::kNone && ledger_ != nullptr) {
          if (binding.heap_op == Binding::HeapOp::kMalloc) {
            ledger_->OnAlloc(ret);
          } else if (!args.empty()) {
            ledger_->OnFree(args[0]);
          }
        }
        return ret;
      }
      case Binding::Kind::kCfi: {
        KOP_ASSIGN_OR_RETURN(const KernelFunction* fn, Revalidate(binding));
        std::vector<uint64_t> rebased = args;
        if (rebased.size() >= 2) rebased[1] += cfi_base_;
        return AtGuardSite(call_ordinal, [&] { return (*fn)(rebased); });
      }
      case Binding::Kind::kIntrinsic:
        return CallIntrinsic(binding.intrinsic, args);
    }
    return Internal("corrupt external binding");
  }

  // Inline-guard fast path: the engines run the guard core themselves;
  // the resolver only hands them the policy engine's pin for the calling
  // CPU (once per outermost call) and, at construction, each guard's
  // site token and the CFI rebase.
  guard::PinSlot* PinGuardFrame() override {
    guard::PinSource* source = kernel_->pin_source();
    return source == nullptr ? nullptr : source->PinCpu();
  }

  uint64_t GuardSiteToken(uint64_t call_ordinal) const override {
    return call_ordinal < site_token_by_ordinal_.size()
               ? site_token_by_ordinal_[call_ordinal]
               : trace::kUnknownSite;
  }

  uint64_t CfiSetBase() const override { return cfi_base_; }

 private:
  struct Binding {
    enum class Kind : uint8_t { kSymbol, kGuard, kIntrinsic, kCfi };
    enum class HeapOp : uint8_t { kNone, kMalloc, kFree };
    Kind kind = Kind::kSymbol;
    HeapOp heap_op = HeapOp::kNone;
    kir::Intrinsic intrinsic = kir::Intrinsic::kNone;
    std::string name;
    const KernelFunction* fn = nullptr;
    uint64_t generation = 0;
  };

  /// Run `call` with the guard site of `call_ordinal` pinned while it is
  /// in flight — the simulated analogue of the return address the guard
  /// runtime would sample on real hardware.
  template <typename Call>
  Result<uint64_t> AtGuardSite(uint64_t call_ordinal, Call&& call) {
    const uint64_t token = GuardSiteToken(call_ordinal);
    if (token == trace::kUnknownSite) return call();
    trace::ScopedGuardSite scope(token);
    return call();
  }

  /// The cached closure pointer, re-looked-up iff the export set changed
  /// since the bind (e.g. the policy module was unloaded).
  Result<const KernelFunction*> Revalidate(Binding& binding) {
    const uint64_t generation = kernel_->symbols().generation();
    if (binding.generation != generation) {
      binding.fn = kernel_->symbols().FindFunction(binding.name);
      binding.generation = generation;
    }
    if (binding.fn == nullptr) {
      return NotFound("undefined kernel symbol: " + binding.name);
    }
    return binding.fn;
  }

  /// Hardware intrinsics hit real (simulated) machine state, so a
  /// permitted privileged operation has observable effects.
  Result<uint64_t> CallIntrinsic(kir::Intrinsic intrinsic,
                                 const std::vector<uint64_t>& args) {
    switch (intrinsic) {
      case kir::Intrinsic::kRdmsr:
        return kernel_->msrs().Read(args.empty() ? 0 : args[0]);
      case kir::Intrinsic::kWrmsr:
        if (args.size() >= 2) kernel_->msrs().Write(args[0], args[1]);
        return uint64_t{0};
      case kir::Intrinsic::kInb:
        return uint64_t{kernel_->ports().In(
            static_cast<uint16_t>(args.empty() ? 0 : args[0]))};
      case kir::Intrinsic::kOutb:
        if (args.size() >= 2) {
          kernel_->ports().Out(static_cast<uint16_t>(args[0]),
                               static_cast<uint8_t>(args[1]));
        }
        return uint64_t{0};
      case kir::Intrinsic::kCli:
        kernel_->cpu().Cli();
        return uint64_t{0};
      case kir::Intrinsic::kSti:
        kernel_->cpu().Sti();
        return uint64_t{0};
      case kir::Intrinsic::kHlt:
        kernel_->cpu().Halt();
        return uint64_t{0};
      case kir::Intrinsic::kInvlpg:
      case kir::Intrinsic::kNone:
        return uint64_t{0};  // invlpg etc.: no modeled state
    }
    return uint64_t{0};
  }

  Kernel* kernel_;
  HeapLedger* ledger_;
  /// Module-local CFI set ids become engine-global by adding this.
  uint64_t cfi_base_;
  /// Guard-site token per module-wide call ordinal (kUnknownSite for
  /// non-guard ordinals) — a flat array so the slow path's per-guard
  /// lookup is one bounds check and one load.
  std::vector<uint64_t> site_token_by_ordinal_;
  std::vector<Binding> bindings_;
};

/// Zero a global's block and write its initializer (insmod and restart).
Status InitGlobal(Kernel* kernel, const kir::GlobalVariable& global,
                  uint64_t addr) {
  KOP_RETURN_IF_ERROR(kernel->mem().Memset(addr, 0, global.size_bytes()));
  if (global.init_bytes().empty()) return OkStatus();
  return kernel->mem().Write(addr, global.init_bytes().data(),
                             global.init_bytes().size());
}

}  // namespace

Result<uint64_t> SlotMemory::Load(uint64_t addr, uint32_t size) {
  if (Stopped()) return Interrupted("module stopped by cross-CPU request");
  const uint64_t ordinal = ++op_count_;
  auto value = kernel_->ChargedLoad(addr, size);
  if (value.ok() && fault_hook_) {
    return fault_hook_(/*is_store=*/false, ordinal, addr, *value, size);
  }
  return value;
}

Status SlotMemory::Store(uint64_t addr, uint64_t value, uint32_t size) {
  if (Stopped()) return Interrupted("module stopped by cross-CPU request");
  const uint64_t ordinal = ++op_count_;
  if (fault_hook_) {
    value = fault_hook_(/*is_store=*/true, ordinal, addr, value, size);
  }
  // Capture-before-write, RAM only: device state cannot be rolled back.
  if (journal_.active() &&
      kernel_->mem().RawHostPointer(addr, size) != nullptr) {
    auto old_value = kernel_->ChargedLoad(addr, size);
    if (old_value.ok()) journal_.RecordStore(addr, *old_value, size);
  }
  return kernel_->ChargedStore(addr, value, size);
}

size_t SlotMemory::Rollback() {
  return journal_.Rollback([this](uint64_t addr, uint64_t old, uint32_t size) {
    (void)kernel_->ChargedStore(addr, old, size);
  });
}

Result<std::unordered_map<std::string, uint64_t>> LayoutGlobals(
    Kernel* kernel, const kir::Module& ir,
    std::vector<uint64_t>* allocations) {
  std::unordered_map<std::string, uint64_t> addresses;
  for (const auto& global : ir.globals()) {
    KOP_ASSIGN_OR_RETURN(const uint64_t addr,
                         kernel->module_area().Kmalloc(
                             std::max<uint64_t>(global->size_bytes(), 8), 16));
    allocations->push_back(addr);
    addresses[global->name()] = addr;
    KOP_RETURN_IF_ERROR(InitGlobal(kernel, *global, addr));
  }
  return addresses;
}

Result<std::unique_ptr<ModuleSlot>> BuildModuleSlot(
    Kernel* kernel, const SlotRecipe& recipe,
    std::vector<uint64_t>* allocations) {
  // The slot memory journals, so every module call can be a transaction
  // (interpreter and VM journal identically — they share this seam).
  auto slot = std::make_unique<ModuleSlot>(kernel, recipe.stop_flag);
  slot->resolver = std::make_unique<KernelResolver>(
      kernel, recipe.site_tokens, recipe.ledger, recipe.cfi_base);

  // Each CPU runs on its own frame stack; everything else the config
  // carries (watchdog budget) is shared policy.
  KOP_ASSIGN_OR_RETURN(const uint64_t stack,
                       kernel->module_area().Kmalloc(kStackBytes, 64));
  allocations->push_back(stack);
  kir::InterpConfig config = recipe.config;
  config.stack_base = stack;
  config.stack_size = kStackBytes;

  if (recipe.engine == ExecEngine::kBytecode) {
    KOP_ASSIGN_OR_RETURN(kir::BytecodeModule bytecode,
                         kir::CompileToBytecode(*recipe.ir));
    // Lowering must preserve every guard site's attribution: the table
    // reconstructed from the bytecode has to equal the one enumerated
    // from the verified IR (which the attestation was checked against).
    if (transform::EnumerateGuardSites(bytecode) !=
        transform::EnumerateGuardSites(*recipe.ir)) {
      return Internal("bytecode guard-site table diverges from IR for '" +
                      recipe.ir->name() + "'");
    }
    KOP_ASSIGN_OR_RETURN(
        slot->engine,
        kir::VM::Create(std::move(bytecode), slot->journaled,
                        *slot->resolver, recipe.addresses, config));
  } else {
    slot->engine = std::make_unique<kir::Interpreter>(
        *recipe.ir, slot->journaled, *slot->resolver, recipe.addresses,
        config);
  }
  return slot;
}

std::string_view ExecEngineName(ExecEngine engine) {
  switch (engine) {
    case ExecEngine::kInterp: return "interp";
    case ExecEngine::kBytecode: return "bytecode";
  }
  return "?";
}

ExecEngine DefaultExecEngine() {
  const char* env = std::getenv("KOP_ENGINE");
  if (env != nullptr && std::string_view(env) == "interp") {
    return ExecEngine::kInterp;
  }
  return ExecEngine::kBytecode;
}

std::string_view VerifyModeName(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::kAttest: return "attest";
    case VerifyMode::kStatic: return "static";
    case VerifyMode::kBoth: return "both";
  }
  return "?";
}

VerifyMode DefaultVerifyMode() {
  const char* env = std::getenv("KOP_VERIFY");
  if (env != nullptr) {
    const std::string_view mode(env);
    if (mode == "attest") return VerifyMode::kAttest;
    if (mode == "static") return VerifyMode::kStatic;
  }
  return VerifyMode::kBoth;
}

LoadedModule::~LoadedModule() {
  if (kernel_ == nullptr) return;
  UnexportSymbols();
  ReclaimHeapAllocations();
  for (uint64_t addr : allocations_) {
    (void)kernel_->module_area().Kfree(addr);
  }
}

Result<uint64_t> LoadedModule::Call(const std::string& function,
                                    const std::vector<uint64_t>& args) {
  ModuleSlot& slot = MySlot();
  if (quarantined()) {
    return PermissionDenied("module '" + name_ +
                            "' is quarantined: " + quarantine_reason());
  }
  if (slot.call_depth == 0 && stop_requested_.load(std::memory_order_acquire)) {
    // Another CPU is draining in-flight calls to contain the module;
    // refuse to start a new one (a late starter would be aborted at its
    // first memory access anyway).
    return Interrupted("module '" + name_ +
                       "' call refused: containment in progress");
  }
  if (state() == resilience::ModuleState::kNeedsRestart &&
      slot.call_depth == 0) {
    // A prior containment left the module down; retry the restart (one
    // backoff-charged attempt) before letting this call through.
    KOP_RETURN_IF_ERROR(TryRestart());
  }

  if (slot.call_depth != 0) {
    // Re-entry via an exported module symbol: the outermost frame owns
    // the transaction; this frame just runs.
    ++slot.call_depth;
    try {
      auto result = slot.engine->Call(function, args);
      --slot.call_depth;
      return result;
    } catch (...) {
      --slot.call_depth;
      throw;
    }
  }

  // Outermost call: open the transaction and register as an occupant
  // (the containment drain counts occupants). The guard decrements on
  // every exit, including a KernelPanic thrown out of recovery.
  active_calls_.fetch_add(1, std::memory_order_acq_rel);
  struct ActiveGuard {
    std::atomic<uint32_t>* n;
    ~ActiveGuard() { n->fetch_sub(1, std::memory_order_acq_rel); }
  } active{&active_calls_};
  if (journaling_enabled_) slot.journaled.journal().Begin();
  heap_ledger_.BeginCall();
  // End-to-end latency of the outermost call, containment included (the
  // scope unwinds through every return and the KernelPanic rethrow).
  KOP_SPAN(kModuleCall);

  ++slot.call_depth;
  std::optional<Result<uint64_t>> outcome;
  std::optional<GuardViolation> violation;
  try {
    {
      KOP_SPAN(kEngineDispatch);
      outcome = slot.engine->Call(function, args);
    }
    --slot.call_depth;
  } catch (const GuardViolation& thrown) {
    --slot.call_depth;
    violation = thrown;  // contained below, outside the handler
  } catch (const KernelPanic& panic) {
    --slot.call_depth;
    // The machine is dead, but the transactional promise holds: the
    // half-finished call leaves no writes behind (post-mortem dumps of
    // kernel memory see call-entry state).
    RollbackJournal(slot, resilience::RollbackReason::kPanic);
    ReclaimCallAllocations();
    NoteEvent("panic");
    CapturePostmortem(slot, "panic", panic.what(), nullptr, "panic");
    throw;
  }

  if (violation.has_value()) {
    char buf[96];
    if (violation->is_cfi) {
      // CFI violations repurpose the fields: addr = rejected indirect-
      // call target, size = engine-global legal-target set id.
      std::snprintf(buf, sizeof(buf),
                    "cfi violation: indirect call to 0x%llx (set %llu)",
                    static_cast<unsigned long long>(violation->addr),
                    static_cast<unsigned long long>(violation->size));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "guard violation at 0x%llx (size %llu, flags %llu)",
                    static_cast<unsigned long long>(violation->addr),
                    static_cast<unsigned long long>(violation->size),
                    static_cast<unsigned long long>(violation->access_flags));
    }
    std::string what = buf;
    if (violation->site != 0) {
      what += " from ";
      what += trace::GlobalSites().Label(violation->site);
    }
    return Contain(slot, resilience::RollbackReason::kGuardViolation, what,
                   &*violation);
  }
  Result<uint64_t> result = std::move(*outcome);
  if (!result.ok() && result.status().code() == ErrorCode::kTimeout) {
    // Watchdog expiry: the module lost its CPU mid-call. Unwind the
    // call's writes and hand the module to the recovery policy.
    KOP_TRACE(kModuleTimeout, slot.engine->stats().steps, watchdog_steps_);
    trace::GlobalMetrics().GetCounter("resilience.timeouts")->Add();
    return Contain(slot, resilience::RollbackReason::kTimeout,
                   result.status().message(), nullptr);
  }
  if (!result.ok() && result.status().code() == ErrorCode::kInterrupted) {
    // Aborted by a cross-CPU stop: another CPU owns the containment
    // incident. Unwind this CPU's transaction and report; the state
    // machine belongs to the winner.
    RollbackJournal(slot, resilience::RollbackReason::kFault);
    ReclaimCallAllocations();
    return Interrupted("module '" + name_ +
                       "' call aborted by cross-CPU containment");
  }
  // Success and plain oops-style errors both commit: a wild pointer is
  // a fault the module observes, not a containment event.
  if (journaling_enabled_) {
    KOP_SPAN(kJournalCommit);
    slot.journaled.journal().Commit();
  }
  return result;
}

Result<uint64_t> LoadedModule::Contain(ModuleSlot& slot,
                                       resilience::RollbackReason reason,
                                       const std::string& what,
                                       const GuardViolation* violation) {
  // Every contained call unwinds its OWN transaction on its own CPU,
  // winner or loser — rollback is per-journal, never delegated.
  RollbackJournal(slot, reason);
  ReclaimCallAllocations();

  if (containing_.exchange(true, std::memory_order_acq_rel)) {
    // Another CPU already owns this incident's recovery; this call just
    // reports its containment. Exactly one winner per incident.
    return PermissionDenied("module '" + name_ + "' call contained (" + what +
                            "); recovery owned by another CPU");
  }

  // Winner: stop the module machine-wide. Every other in-flight call
  // aborts at its next memory access (kInterrupted through the journal
  // seam), rolls back on its own CPU, and drops out of active_calls_.
  // Recovery mutates shared state (heap, symbols, globals) only after
  // the drain, when this call is the module's sole occupant.
  struct ContainGuard {
    LoadedModule* m;
    ~ContainGuard() {
      m->stop_requested_.store(false, std::memory_order_release);
      m->containing_.store(false, std::memory_order_release);
    }
  } guard{this};
  stop_requested_.store(true, std::memory_order_release);
  while (active_calls_.load(std::memory_order_acquire) > 1) {
    std::this_thread::yield();
  }
  // stop_requested_ stays set through recovery — a call starting now
  // must refuse at the door until the state machine has settled (else a
  // second incident could elect a second winner mid-quarantine). The
  // restart path clears it itself: its re-init runs module code through
  // the stop-checking journal seam.

  // Sole occupant now: flight-record the incident before recovery
  // mutates anything, so the bundle sees the state the module died in.
  const char* incident =
      reason == resilience::RollbackReason::kTimeout ? "timeout"
      : (violation != nullptr && violation->is_cfi)  ? "cfi"
                                                     : "violation";
  const char* decision = "quarantine";
  switch (recovery_) {
    case resilience::RecoveryPolicy::kPanic: decision = "panic"; break;
    case resilience::RecoveryPolicy::kQuarantine: break;
    case resilience::RecoveryPolicy::kRestart: decision = "restart"; break;
  }
  NoteEvent(incident);
  CapturePostmortem(slot, incident, what, violation, decision);

  KOP_SPAN(kRecovery);
  switch (recovery_) {
    case resilience::RecoveryPolicy::kPanic:
      kernel_->Panic("carat_kop: module '" + name_ + "' contained after " +
                     what);  // throws KernelPanic
    case resilience::RecoveryPolicy::kQuarantine:
      Quarantine(what, violation);
      return PermissionDenied("module '" + name_ + "' quarantined: " + what);
    case resilience::RecoveryPolicy::kRestart: {
      {
        std::lock_guard<Spinlock> state_guard(state_lock_);
        quarantine_reason_ = what;
      }
      state_.store(resilience::ModuleState::kNeedsRestart,
                   std::memory_order_release);
      stop_requested_.store(false, std::memory_order_release);
      kernel_->log().Printk(
          KernLevel::kErr,
          "carat_kop: contained module '%s' after %s; scheduling restart",
          name_.c_str(), what.c_str());
      Status restarted = TryRestart();
      if (!restarted.ok()) return restarted;
      return PermissionDenied("module '" + name_ + "' call contained (" +
                              what + "); module restarted");
    }
  }
  return Internal("corrupt recovery policy");
}

Status LoadedModule::TryRestart() {
  ModuleSlot& slot = MySlot();
  std::lock_guard<std::mutex> lock(restart_lock_);
  // Concurrent CPUs race here at call entry; whoever lost the lock may
  // find the module already back up (or quarantined meanwhile).
  const resilience::ModuleState current = state();
  if (current == resilience::ModuleState::kQuarantined) {
    return PermissionDenied("module '" + name_ +
                            "' is quarantined: " + quarantine_reason());
  }
  if (current != resilience::ModuleState::kNeedsRestart) return OkStatus();
  if (restart_attempts_.load(std::memory_order_acquire) >=
      backoff_.max_attempts) {
    const std::string what = "restart budget exhausted (" +
                             std::to_string(restart_attempts_.load()) +
                             " attempts); last containment: " +
                             quarantine_reason();
    CapturePostmortem(slot, "restart-exhausted", what, nullptr, "quarantine");
    Quarantine(what, nullptr);
    return PermissionDenied("module '" + name_ +
                            "' is quarantined: " + quarantine_reason());
  }
  const uint32_t attempt = ++restart_attempts_;
  // Simulated downtime: exponential backoff before the attempt runs.
  kernel_->clock().Advance(
      static_cast<double>(backoff_.CyclesFor(attempt)));

  // Teardown: reclaim runtime heap allocations and reset the globals to
  // their insmod-time image. The engine's counters restart with the
  // module.
  ReclaimHeapAllocations();
  Status reset = ResetGlobals();
  if (!reset.ok()) {
    KOP_TRACE(kModuleRestart, attempt, 0);
    return reset;  // stays kNeedsRestart; next call retries
  }
  for (auto& s : slots_) s->engine->ResetStats();

  bool ok = true;
  std::string failure;
  if (!restart_entry_.empty()) {
    // Re-run init under its own journal transaction: a failing init must
    // not leave half-initialized state either.
    slot.journaled.journal().Begin();
    heap_ledger_.BeginCall();
    ++slot.call_depth;
    try {
      auto init = slot.engine->Call(restart_entry_, restart_args_);
      --slot.call_depth;
      if (init.ok()) {
        slot.journaled.journal().Commit();
      } else {
        ok = false;
        failure = init.status().ToString();
        RollbackJournal(slot, init.status().code() == ErrorCode::kTimeout
                                  ? resilience::RollbackReason::kTimeout
                                  : resilience::RollbackReason::kFault);
        ReclaimCallAllocations();
      }
    } catch (const GuardViolation& violation) {
      --slot.call_depth;
      ok = false;
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "guard violation at 0x%llx during init",
                    static_cast<unsigned long long>(violation.addr));
      failure = buf;
      RollbackJournal(slot, resilience::RollbackReason::kGuardViolation);
      ReclaimCallAllocations();
    } catch (const KernelPanic&) {
      --slot.call_depth;
      RollbackJournal(slot, resilience::RollbackReason::kPanic);
      ReclaimCallAllocations();
      throw;
    }
  }

  KOP_TRACE(kModuleRestart, attempt, ok ? 1 : 0);
  trace::GlobalMetrics()
      .GetCounter(ok ? "resilience.restarts" : "resilience.restart_failures")
      ->Add();
  NoteEvent(ok ? "restart" : "restart-failed");
  if (ok) {
    state_.store(resilience::ModuleState::kRestarted,
                 std::memory_order_release);
    ++restarts_completed_;
    kernel_->log().Printk(
        KernLevel::kInfo,
        "carat_kop: restarted module '%s' (attempt %u of %u)", name_.c_str(),
        attempt, backoff_.max_attempts);
    return OkStatus();
  }
  kernel_->log().Printk(
      KernLevel::kErr,
      "carat_kop: restart attempt %u of %u for module '%s' failed: %s",
      attempt, backoff_.max_attempts, name_.c_str(), failure.c_str());
  return PermissionDenied("module '" + name_ + "' restart attempt " +
                          std::to_string(attempt) + " failed: " + failure);
}

size_t LoadedModule::RollbackJournal(
    ModuleSlot& slot, [[maybe_unused]] resilience::RollbackReason reason) {
  const resilience::WriteJournal& journal = slot.journaled.journal();
  if (!journal.active()) return 0;
  const uint64_t bytes = journal.bytes();
  // The replay must not journal itself, pass through fault hooks or be
  // aborted by a pending cross-CPU stop; SlotMemory::Rollback skips all
  // three.
  size_t undone = 0;
  {
    KOP_SPAN(kJournalRollback, bytes);
    undone = slot.journaled.Rollback();
  }
  KOP_TRACE(kModuleRollback, undone, bytes, static_cast<uint64_t>(reason));
  trace::GlobalMetrics().GetCounter("resilience.rollbacks")->Add();
  return undone;
}

void LoadedModule::ReclaimCallAllocations() {
  // Only the calling CPU's open-call allocations: a rollback on one CPU
  // must not free what a concurrent call on another CPU just allocated.
  std::vector<uint64_t> pending = heap_ledger_.TakeMyCallNew();
  for (uint64_t addr : pending) {
    (void)kernel_->heap().Kfree(addr);
    heap_ledger_.OnFree(addr);
  }
}

void LoadedModule::ReclaimHeapAllocations() {
  for (uint64_t addr : heap_ledger_.TakeAllLive()) {
    (void)kernel_->heap().Kfree(addr);
  }
}

void LoadedModule::UnexportSymbols() {
  for (const std::string& sym : exported_symbols_) {
    (void)kernel_->symbols().Unexport(sym);
  }
  exported_symbols_.clear();
}

Status LoadedModule::ResetGlobals() {
  for (const auto& global : ir_->globals()) {
    auto it = recipe_.addresses.find(global->name());
    if (it == recipe_.addresses.end()) continue;
    KOP_RETURN_IF_ERROR(InitGlobal(kernel_, *global, it->second));
  }
  return OkStatus();
}

void LoadedModule::NoteEvent(const char* reason) {
  last_event_tsc_.store(kernel_->clock().ReadTsc(),
                        std::memory_order_relaxed);
  last_event_reason_.store(reason, std::memory_order_release);
}

void LoadedModule::CapturePostmortem(ModuleSlot& slot, const char* reason,
                                     const std::string& what,
                                     const GuardViolation* violation,
                                     const char* recovery) {
  flight::PostmortemBundle bundle;
  bundle.module = name_;
  bundle.engine = std::string(slot.engine->engine_name());
  bundle.reason = reason;
  bundle.what = what;
  bundle.recovery = recovery;
  bundle.cpu = smp::CurrentCpu();
  bundle.tsc = kernel_->clock().ReadTsc();
  if (violation != nullptr) {
    bundle.has_violation = true;
    bundle.violation_addr = violation->addr;
    bundle.violation_size = violation->size;
    bundle.violation_flags = static_cast<uint32_t>(violation->access_flags);
    bundle.site_token = violation->site;
    if (violation->site != 0) {
      bundle.site_label = trace::GlobalSites().Label(violation->site);
    }
  }
  bundle.vm = slot.engine->LastFaultState();
  const resilience::WriteJournal& journal = slot.journaled.journal();
  bundle.journal_rollbacks = journal.total_rollbacks();
  bundle.journal_entries_recorded = journal.total_entries_recorded();
  bundle.journal_entries_undone = journal.total_entries_undone();
  const std::vector<uint64_t> live = heap_ledger_.LiveSnapshot();
  bundle.heap_live_blocks = live.size();
  for (size_t i = 0; i < live.size() && i < 8; ++i) {
    bundle.heap_live_addrs.push_back(live[i]);
  }
  bundle.restart_attempts = restart_attempts_.load(std::memory_order_acquire);
  bundle.restarts_completed =
      restarts_completed_.load(std::memory_order_acquire);
  flight::FillEnvironment(&bundle);
  flight::GlobalPostmortems().Capture(std::move(bundle));
}

void LoadedModule::Quarantine(
    const std::string& reason,
    [[maybe_unused]] const GuardViolation* violation) {
  NoteEvent("quarantine");
  {
    std::lock_guard<Spinlock> guard(state_lock_);
    quarantine_reason_ = reason;
  }
  state_.store(resilience::ModuleState::kQuarantined,
               std::memory_order_release);
  KOP_TRACE(kModuleQuarantine, violation != nullptr ? violation->addr : 0,
            violation != nullptr ? violation->size : 0,
            violation != nullptr ? violation->site : 0);
  trace::GlobalMetrics().GetCounter("loader.quarantines")->Add();
  // A quarantined module never runs again: reclaim what it would leak —
  // its runtime heap allocations and its exported symbols (a stale
  // symbol would let other code call into the quarantined module).
  ReclaimHeapAllocations();
  UnexportSymbols();
  kernel_->log().Printk(
      KernLevel::kErr,
      "carat_kop: quarantined module '%s' after %s; the module was NOT "
      "ejected (it may hold locks)",
      name_.c_str(), reason.c_str());
}

Status LoadedModule::PrepareCpus(uint32_t cpus) {
  if (cpus == 0) cpus = 1;
  if (cpus > smp::kMaxCpus) cpus = smp::kMaxCpus;
  recipe_.config.watchdog_steps = watchdog_steps_;
  while (slots_.size() < cpus) {
    KOP_ASSIGN_OR_RETURN(std::unique_ptr<ModuleSlot> slot,
                         BuildModuleSlot(kernel_, recipe_, &allocations_));
    slots_.push_back(std::move(slot));
  }
  return OkStatus();
}

Result<uint64_t> LoadedModule::GlobalAddress(const std::string& global) const {
  auto it = recipe_.addresses.find(global);
  if (it == recipe_.addresses.end()) {
    return NotFound("module " + name_ + " has no global @" + global);
  }
  return it->second;
}

Result<LoadedModule*> ModuleLoader::Insmod(const signing::SignedModule& image) {
  // 1. Signature + attestation + IR verification + guard re-check. Under
  //    KOP_VERIFY=static the attestation's guard claims are not trusted
  //    (nor required) — the static proof below is the sole authority.
  signing::ValidationOptions validation;
  validation.check_attested_guards = verify_mode_ != VerifyMode::kStatic;
  auto validated = signing::ValidateSignedModule(image, keyring_, validation);
  if (!validated.ok()) {
    kernel_->log().Printk(KernLevel::kErr, "insmod: rejected module: %s",
                          validated.status().ToString().c_str());
    return validated.status();
  }
  std::unique_ptr<kir::Module> ir = std::move(validated->module);
  const std::string name = ir->name();

  // 1b. Static guard-completeness proof over the IR actually received —
  //     a forged attestation cannot get an unguarded store past this.
  if (verify_mode_ != VerifyMode::kAttest) {
    const analysis::AnalysisReport report = analysis::AnalyzeModule(*ir);
    if (!report.ok()) {
      const auto first = std::find_if(
          report.diagnostics.begin(), report.diagnostics.end(),
          [](const analysis::Diagnostic& d) {
            return d.severity == analysis::Severity::kError;
          });
      KOP_TRACE(kModuleStaticReject, report.errors(), ir->InstructionCount());
      trace::GlobalMetrics().GetCounter("loader.static_reject")->Add();
      kernel_->log().Printk(
          KernLevel::kErr,
          "insmod: %s: static verifier rejected module (%zu error(s)); "
          "first: @%s block %s inst %u: %s",
          name.c_str(), report.errors(), first->function.c_str(),
          first->block.c_str(), first->inst_index, first->message.c_str());
      return PermissionDenied(
          "static verifier rejected module '" + name + "': @" +
          first->function + " block " + first->block + ": " + first->message);
    }
  }
  if (modules_.count(name)) {
    return AlreadyExists("module '" + name + "' already loaded");
  }

  // 2. Symbol resolution: every external must be exported by the kernel
  //    (the policy module's carat_guard chief among them) or be a known
  //    hardware intrinsic.
  for (const std::string& external : ir->ExternalFunctionNames()) {
    if (!kernel_->symbols().HasFunction(external) &&
        external.rfind("kir.", 0) != 0) {
      kernel_->log().Printk(KernLevel::kErr,
                            "insmod: %s: Unknown symbol %s", name.c_str(),
                            external.c_str());
      return BadModule("unknown symbol '" + external + "' needed by '" +
                       name + "'");
    }
  }

  auto loaded = std::unique_ptr<LoadedModule>(new LoadedModule());
  loaded->name_ = name;
  loaded->kernel_ = kernel_;
  loaded->attestation_ = validated->attestation;
  loaded->recovery_ = recovery_;
  loaded->backoff_ = backoff_;
  loaded->watchdog_steps_ = watchdog_steps_;

  // 3. Lay out globals in the module area.
  KOP_ASSIGN_OR_RETURN(loaded->recipe_.addresses,
                       LayoutGlobals(kernel_, *ir, &loaded->allocations_));

  // 4. Module text footprint in the module area. (Text bytes are
  //    symbolic — the IR is the code — but the footprint is allocated so
  //    the memory map reflects a loaded module.) The frame stack follows
  //    with slot 0 in step 6.
  const uint64_t text_bytes =
      AlignUp(std::max<uint64_t>(ir->InstructionCount() * 8, 64), 64);
  auto text = kernel_->module_area().Kmalloc(text_bytes, 64);
  if (!text.ok()) return text.status();
  loaded->allocations_.push_back(*text);

  // 5. Register this module's guard sites for runtime attribution. The
  //    signed attestation carries the table; older records without one
  //    fall back to re-enumerating the (already verified) IR.
  std::vector<transform::GuardSite> sites = validated->attestation.sites;
  if (sites.empty()) sites = transform::EnumerateGuardSites(*ir);
  std::unordered_map<uint64_t, uint64_t> site_tokens;
  site_tokens.reserve(sites.size());
  loaded->site_tokens_.reserve(sites.size());
  for (const transform::GuardSite& site : sites) {
    trace::SiteInfo info;
    info.module_name = name;
    info.function = site.function;
    info.site_id = site.site_id;
    info.inst_index = site.inst_index;
    char detail[64];
    if (site.is_intrinsic) {
      std::snprintf(detail, sizeof(detail), "intrinsic id=%u",
                    site.access_flags);
    } else if (site.is_range) {
      std::snprintf(detail, sizeof(detail), "range %s span=%u elided=%u",
                    (site.access_flags & kGuardAccessWrite) ? "store" : "load",
                    site.access_size, site.elided);
    } else {
      std::snprintf(detail, sizeof(detail), "%s size=%u",
                    (site.access_flags & kGuardAccessWrite) ? "store" : "load",
                    site.access_size);
    }
    info.detail = detail;
    const uint64_t token = trace::GlobalSites().Register(std::move(info));
    site_tokens[site.call_ordinal] = token;
    loaded->site_tokens_.push_back(token);
  }

  // 5b. kop::cfi: register the attested legal-target sets with the policy
  //     engine's global table (through the kernel's PinSource) and a
  //     trace site per gated indirect-call site.
  //     Member names resolve to the simulated function addresses both
  //     engines compute for funcaddr — declaration index — so the runtime
  //     membership test and the static proof agree on values. Under
  //     KOP_VERIFY=static|both the validator has already re-derived this
  //     table from the shipped IR; a forged or widened one never gets
  //     here.
  uint64_t cfi_base = 0;
  if (validated->attestation.cfi_gated) {
    guard::PinSource* source = kernel_->pin_source();
    if (source != nullptr) {
      std::vector<std::vector<uint64_t>> sets;
      sets.reserve(validated->attestation.cfi_sets.size());
      for (const transform::CfiAttestedSet& set :
           validated->attestation.cfi_sets) {
        std::vector<uint64_t> addrs;
        addrs.reserve(set.members.size());
        for (const std::string& member : set.members) {
          const int index = ir->FunctionIndex(member);
          if (index < 0) {
            return BadModule("attested CFI target @" + member +
                             " is not a function of '" + name + "'");
          }
          addrs.push_back(
              kir::FunctionAddressForIndex(static_cast<size_t>(index)));
        }
        sets.push_back(std::move(addrs));
      }
      cfi_base = source->RegisterCfiSets(sets);
    }
    for (size_t i = 0; i < validated->attestation.cfi_sites.size(); ++i) {
      const transform::CfiAttestedSite& site =
          validated->attestation.cfi_sites[i];
      if (site.check_ordinal < 0) continue;
      trace::SiteInfo info;
      info.module_name = name;
      info.function = site.function;
      info.site_id = static_cast<uint32_t>(i);
      info.inst_index = site.inst_index;
      char detail[64];
      std::snprintf(
          detail, sizeof(detail), "cfi set=%u targets=%zu", site.set_id,
          validated->attestation.cfi_sets[site.set_id].members.size());
      info.detail = detail;
      const uint64_t token = trace::GlobalSites().Register(std::move(info));
      site_tokens[static_cast<uint64_t>(site.check_ordinal)] = token;
    }
  }

  // 6. CPU slot 0 (the boot CPU). The recipe is kept so PrepareCpus can
  //    stamp out more slots from the same inputs.
  loaded->ir_ = std::move(ir);
  SlotRecipe& recipe = loaded->recipe_;
  recipe.ir = loaded->ir_.get();
  recipe.engine = engine_;
  recipe.site_tokens = std::move(site_tokens);
  recipe.cfi_base = cfi_base;
  recipe.ledger = &loaded->heap_ledger_;
  recipe.stop_flag = &loaded->stop_requested_;
  recipe.config.watchdog_steps = watchdog_steps_;
  auto slot0 = BuildModuleSlot(kernel_, recipe, &loaded->allocations_);
  if (!slot0.ok()) {
    kernel_->log().Printk(KernLevel::kErr,
                          "insmod: %s: cannot build execution slot: %s",
                          name.c_str(), slot0.status().ToString().c_str());
    return slot0.status();
  }
  loaded->slots_.push_back(std::move(*slot0));

  // 7. Restart recovery re-runs @init after teardown when the module
  //    defines a zero-arg one (modules with parameterized inits register
  //    theirs through set_restart_entry).
  const kir::Function* init_fn = loaded->ir_->FindFunction("init");
  if (init_fn != nullptr && !init_fn->is_external() &&
      init_fn->arg_count() == 0) {
    loaded->restart_entry_ = "init";
  }

  // 8. EXPORT_SYMBOL: the module's entry points become kernel symbols
  //    ("<module>.<fn>") other subsystems and later modules can resolve.
  //    Quarantine (and rmmod) withdraws them — a stale export must not
  //    keep routing calls into a dead module.
  for (const auto& fn : loaded->ir_->functions()) {
    if (fn->is_external()) continue;
    const std::string sym = name + "." + fn->name();
    LoadedModule* raw_module = loaded.get();
    const std::string fn_name = fn->name();
    Status exported = kernel_->symbols().ExportFunction(
        sym,
        [raw_module, fn_name](const std::vector<uint64_t>& args) -> uint64_t {
          auto result = raw_module->Call(fn_name, args);
          return result.ok() ? *result : 0;
        });
    if (exported.ok()) loaded->exported_symbols_.push_back(sym);
  }

  kernel_->log().Printk(
      KernLevel::kInfo,
      "insmod: loaded module '%s' (%zu instructions, %llu guards, key %s, "
      "engine %s)",
      name.c_str(), loaded->ir_->InstructionCount(),
      static_cast<unsigned long long>(loaded->attestation_.guard_count),
      image.key_id.c_str(), ExecEngineName(engine_).data());
  KOP_TRACE(kModuleLoad, loaded->ir_->InstructionCount(),
            loaded->attestation_.guard_count);
  trace::GlobalMetrics().GetCounter("loader.modules_loaded")->Add();

  // CI smoke hook: KOP_SMP_CPUS=N stamps per-CPU execution contexts at
  // insmod so every existing test scenario runs with the SMP seam
  // active (calls still land on whatever CPU issues them; --cpus 1
  // determinism guarantees behavior is unchanged on CPU 0). A failure
  // here unwinds the module before it is registered.
  if (const char* env = std::getenv("KOP_SMP_CPUS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 1) {
      KOP_RETURN_IF_ERROR(loaded->PrepareCpus(
          static_cast<uint32_t>(n > smp::kMaxCpus ? smp::kMaxCpus : n)));
    }
  }

  LoadedModule* raw = loaded.get();
  modules_[name] = std::move(loaded);
  return raw;
}

Status ModuleLoader::Rmmod(const std::string& name) {
  auto it = modules_.find(name);
  if (it == modules_.end()) return NotFound("module '" + name + "' not loaded");
  modules_.erase(it);
  kernel_->log().Printk(KernLevel::kInfo, "rmmod: unloaded module '%s'",
                        name.c_str());
  return OkStatus();
}

Status ModuleLoader::PrepareCpus(uint32_t cpus) {
  for (auto& [name, module] : modules_) {
    KOP_RETURN_IF_ERROR(module->PrepareCpus(cpus));
  }
  return OkStatus();
}

LoadedModule* ModuleLoader::Find(const std::string& name) {
  auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ModuleLoader::LoadedNames() const {
  std::vector<std::string> out;
  out.reserve(modules_.size());
  for (const auto& [name, module] : modules_) out.push_back(name);
  return out;
}

}  // namespace kop::kernel
