// insmod/rmmod for signed KIR modules. The paper's load path (§3.2):
// "When a protected module is inserted into the kernel (after validating
// its signature), it is linked against the policy module's implementation
// of carat_guard."
//
// Insmod: verify signature + attestation (signing::ValidateSignedModule),
// resolve every external against the exported-symbol table (unknown
// symbol -> refuse, like real insmod), lay the module's globals and stack
// out in the module area, and wire an execution engine so the module can
// run. The default engine compiles the verified IR to bytecode and runs
// it on the register VM; KOP_ENGINE=interp selects the reference
// tree-walking interpreter instead.
//
// Each CPU slot's engine runs against one SlotMemory and one kernel
// resolver. The slot memory is the module's only way to kernel memory:
// it charges each access, numbers it for fault injection, honours the
// cross-CPU stop flag and journals RAM stores. The resolver is its only
// way to kernel code: both engines bind each external callee once and
// call through the handle.
//
// Every call into a loaded module is transactional (kop::resilience): a
// write journal opens at call entry, and on containment — guard
// violation, watchdog expiry, in-module panic — it is rolled back before
// the error propagates, leaving kernel memory byte-identical to call
// entry. What happens to the module afterwards is the recovery policy:
// panic, quarantine (default), or restart with bounded exponential
// backoff (KOP_RECOVERY).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kir/engine.hpp"
#include "kop/kir/interp.hpp"
#include "kop/kir/module.hpp"
#include "kop/kir/vm.hpp"
#include "kop/resilience/journal.hpp"
#include "kop/resilience/recovery.hpp"
#include "kop/signing/signer.hpp"
#include "kop/signing/validator.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/percpu.hpp"
#include "kop/util/spinlock.hpp"
#include "kop/util/status.hpp"

namespace kop::kernel {

/// Which execution engine Insmod wires a module to.
enum class ExecEngine {
  kInterp,    // reference tree-walking interpreter (the oracle)
  kBytecode,  // register VM over load-time-compiled bytecode (default)
};

std::string_view ExecEngineName(ExecEngine engine);

/// Engine selected by the KOP_ENGINE environment variable ("interp" or
/// "bytecode"); kBytecode when unset or unrecognized.
ExecEngine DefaultExecEngine();

/// How Insmod establishes guard completeness before linking a module.
enum class VerifyMode {
  kAttest,  // trust the signed attestation's guard claims (paper baseline)
  kStatic,  // ignore attested guard claims; require a static proof
  kBoth,    // demand both: attested claims AND the static proof (default)
};

std::string_view VerifyModeName(VerifyMode mode);

/// Mode selected by the KOP_VERIFY environment variable ("attest",
/// "static" or "both"); kBoth when unset or unrecognized.
VerifyMode DefaultVerifyMode();

/// Runtime heap allocations owned by one module (made through the
/// kernel's exported kmalloc). The resolver records them so quarantine /
/// restart / rmmod can reclaim what the module would otherwise leak.
/// Internally locked — CPUs allocate concurrently — with the open-call
/// subset tracked per CPU (each CPU's transaction reclaims only its own
/// call's allocations on rollback).
struct HeapLedger {
  void OnAlloc(uint64_t addr) {
    if (addr == 0) return;
    std::lock_guard<Spinlock> guard(lock_);
    live_.push_back(addr);
    call_new_.Mine().push_back(addr);
  }
  void OnFree(uint64_t addr) {
    std::lock_guard<Spinlock> guard(lock_);
    Erase(live_, addr);
    call_new_.ForEach(
        [addr](uint32_t, std::vector<uint64_t>& v) { Erase(v, addr); });
  }

  /// Open a transaction on the calling CPU: its call-new set empties.
  void BeginCall() {
    std::lock_guard<Spinlock> guard(lock_);
    call_new_.Mine().clear();
  }
  /// Claim the calling CPU's call-new set (rollback reclaims these).
  std::vector<uint64_t> TakeMyCallNew() {
    std::lock_guard<Spinlock> guard(lock_);
    std::vector<uint64_t> out = std::move(call_new_.Mine());
    call_new_.Mine().clear();
    return out;
  }
  /// Claim everything still owned (quarantine / teardown / rmmod).
  std::vector<uint64_t> TakeAllLive() {
    std::lock_guard<Spinlock> guard(lock_);
    std::vector<uint64_t> out = std::move(live_);
    live_.clear();
    call_new_.ForEach([](uint32_t, std::vector<uint64_t>& v) { v.clear(); });
    return out;
  }
  std::vector<uint64_t> LiveSnapshot() const {
    std::lock_guard<Spinlock> guard(lock_);
    return live_;
  }

 private:
  static void Erase(std::vector<uint64_t>& v, uint64_t addr) {
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i] == addr) {
        v.erase(v.begin() + i);
        return;
      }
    }
  }

  mutable Spinlock lock_;
  std::vector<uint64_t> live_;  // currently-owned heap addresses
  smp::PerCpu<std::vector<uint64_t>> call_new_;  // per-CPU open-call subset
};

/// The memory one CPU's engine runs against: the kernel address space
/// through Kernel::ChargedLoad/ChargedStore, with the slot's write
/// journal, its fault-injection hook and the module's cross-CPU stop
/// flag in front. While a journal transaction is open, a store to RAM
/// first captures the old value (charged as a read, so journaling shows
/// on the virtual clock identically in both engines); MMIO stores are
/// not journaled.
class SlotMemory final : public kir::MemoryInterface {
 public:
  /// `hook(is_store, ordinal, addr, value, size)` returns the (possibly
  /// perturbed) value the operation proceeds with. `ordinal` numbers the
  /// slot's loads and stores from 1, the same sequence in both engines.
  using MemFaultHook = std::function<uint64_t(
      bool is_store, uint64_t ordinal, uint64_t addr, uint64_t value,
      uint32_t size)>;

  /// While `*stop` is set (the SMP stop-the-module request), every Load
  /// and Store returns kInterrupted without touching memory: both
  /// engines unwind at their next access and the caller rolls back its
  /// own journal. Null = never stopped.
  SlotMemory(Kernel* kernel, const std::atomic<bool>* stop)
      : kernel_(kernel), stop_(stop) {}
  SlotMemory(const SlotMemory&) = delete;  // the slot's engine holds it
  SlotMemory& operator=(const SlotMemory&) = delete;

  Result<uint64_t> Load(uint64_t addr, uint32_t size) override;
  Status Store(uint64_t addr, uint64_t value, uint32_t size) override;

  resilience::WriteJournal& journal() { return journal_; }
  const resilience::WriteJournal& journal() const { return journal_; }

  /// Replay the journal newest-first through the charged store (no stop
  /// flag, hook or journal on the way) and close the transaction.
  /// Returns the number of entries undone; undo failures are ignored —
  /// the region a store hit cannot unmap mid-call in this simulator.
  size_t Rollback();

  void SetFaultHook(MemFaultHook hook) { fault_hook_ = std::move(hook); }
  void ClearFaultHook() { fault_hook_ = nullptr; }

 private:
  bool Stopped() const {
    return stop_ != nullptr && stop_->load(std::memory_order_acquire);
  }

  Kernel* kernel_;
  const std::atomic<bool>* stop_;
  resilience::WriteJournal journal_;
  MemFaultHook fault_hook_;
  uint64_t op_count_ = 0;
};

/// One simulated CPU's execution context for a module: the slot memory
/// (kernel memory behind the write journal), the kernel resolver
/// (exported symbols, guard-site attribution, the policy engine's pin
/// for the engine's inline guards), a private frame stack and an engine.
/// Module globals, the kernel heap and the exported-symbol table are
/// shared across slots.
struct ModuleSlot {
  ModuleSlot(Kernel* kernel, const std::atomic<bool>* stop)
      : journaled(kernel, stop) {}

  SlotMemory journaled;
  std::unique_ptr<kir::ExternalResolver> resolver;
  std::unique_ptr<kir::ExecutionEngine> engine;
  uint32_t call_depth = 0;  // re-entry via exported module symbols
};

/// What every slot of one module is built from.
struct SlotRecipe {
  const kir::Module* ir = nullptr;  // must outlive the slot
  ExecEngine engine = ExecEngine::kBytecode;
  /// Global name -> simulated address (see LayoutGlobals).
  std::unordered_map<std::string, uint64_t> addresses;
  /// Module-wide call ordinal -> registered guard-site token.
  std::unordered_map<uint64_t, uint64_t> site_tokens;
  /// Engine-global base the module-local CFI set ids are rebased by.
  uint64_t cfi_base = 0;
  HeapLedger* ledger = nullptr;                 // kmalloc/kfree ownership
  const std::atomic<bool>* stop_flag = nullptr;  // cross-CPU stop request
  /// Stack fields are ignored: every slot gets its own frame stack.
  kir::InterpConfig config;
};

/// Lay `ir`'s globals out in the module area: one zeroed block per global
/// (at least 8 bytes, 16-aligned) holding its initializer. Every block is
/// appended to `allocations`; returns global name -> address.
Result<std::unordered_map<std::string, uint64_t>> LayoutGlobals(
    Kernel* kernel, const kir::Module& ir, std::vector<uint64_t>* allocations);

/// The loader's one slot builder: Insmod builds slot 0 and PrepareCpus
/// every later slot through it, and it is the only place kernel-backed
/// memory is paired with the kernel resolver. The slot's frame stack is
/// allocated from the module area and appended to `allocations`. The
/// returned engine is bare — calling it directly opens no transaction and
/// runs no containment (that is LoadedModule::Call's job) — which is how
/// benches time an unguarded baseline that Insmod refuses to load.
Result<std::unique_ptr<ModuleSlot>> BuildModuleSlot(
    Kernel* kernel, const SlotRecipe& recipe,
    std::vector<uint64_t>* allocations);

class LoadedModule {
 public:
  ~LoadedModule();
  LoadedModule(const LoadedModule&) = delete;
  LoadedModule& operator=(const LoadedModule&) = delete;

  const std::string& name() const { return name_; }
  const kir::Module& ir() const { return *ir_; }
  const transform::AttestationRecord& attestation() const {
    return attestation_;
  }

  /// Call an exported entry point of the module. The call runs inside a
  /// write-journal transaction: on guard violation, watchdog expiry or
  /// in-module panic the journal is rolled back (kernel memory restored
  /// to call entry) before the error propagates, and the recovery policy
  /// decides the module's fate — quarantine (every later Call refuses
  /// immediately; the module is NOT forcibly unloaded — the paper's §3.1
  /// warning stands: any lock it held when the violating call unwound is
  /// still held) or restart (teardown + re-init under bounded
  /// exponential backoff; exhausted -> permanent quarantine).
  Result<uint64_t> Call(const std::string& function,
                        const std::vector<uint64_t>& args);

  /// Build per-CPU execution contexts so `cpus` simulated CPUs can Call
  /// into the module concurrently. Each CPU gets its own engine, frame
  /// stack (fresh 64 KiB module-area allocation), write journal, and
  /// resolver; module globals and the kernel heap stay shared — that
  /// sharing is exactly what the guard path and the containment protocol
  /// protect. Idempotent; slot 0 is the context Insmod built, so
  /// PrepareCpus(1) is a no-op and --cpus 1 stays bit-identical to the
  /// non-SMP path.
  Status PrepareCpus(uint32_t cpus);
  uint32_t prepared_cpus() const {
    return static_cast<uint32_t>(slots_.size());
  }

  /// Recovery state machine position (procfs lsmod State column).
  resilience::ModuleState state() const {
    return state_.load(std::memory_order_acquire);
  }
  bool quarantined() const {
    return state() == resilience::ModuleState::kQuarantined;
  }
  std::string quarantine_reason() const {
    std::lock_guard<Spinlock> guard(state_lock_);
    return quarantine_reason_;
  }

  /// Most recent containment-relevant event on this module, for the
  /// procfs lsmod LastEvent column: a static reason string ("violation",
  /// "timeout", "panic", "quarantine", "restart", "restart-failed") plus
  /// the virtual-clock timestamp it was noted at. Null reason = none yet.
  const char* last_event_reason() const {
    return last_event_reason_.load(std::memory_order_acquire);
  }
  uint64_t last_event_tsc() const {
    return last_event_tsc_.load(std::memory_order_acquire);
  }

  /// Completed restarts / restart attempts consumed from the backoff
  /// budget (attempts include failed ones).
  uint32_t restart_count() const {
    return restarts_completed_.load(std::memory_order_acquire);
  }
  uint32_t restart_attempts() const {
    return restart_attempts_.load(std::memory_order_acquire);
  }

  /// Per-module recovery knobs (defaults come from the loader, which
  /// reads KOP_RECOVERY / KOP_WATCHDOG_STEPS).
  resilience::RecoveryPolicy recovery_policy() const { return recovery_; }
  void set_recovery_policy(resilience::RecoveryPolicy policy) {
    recovery_ = policy;
  }
  const resilience::BackoffPolicy& backoff() const { return backoff_; }
  void set_backoff(const resilience::BackoffPolicy& backoff) {
    backoff_ = backoff;
  }
  uint64_t watchdog_steps() const { return watchdog_steps_; }
  void set_watchdog_steps(uint64_t steps) {
    watchdog_steps_ = steps;
    for (auto& slot : slots_) slot->engine->set_watchdog_steps(steps);
  }

  /// Bench-only escape hatch: with journaling off, Call opens no write
  /// transaction (the pre-resilience configuration), so containment can
  /// no longer roll anything back. Ships enabled; nothing but the
  /// resilience overhead bench should ever turn it off.
  bool journaling_enabled() const { return journaling_enabled_; }
  void set_journaling_enabled(bool enabled) { journaling_enabled_ = enabled; }

  /// Entry point a restart re-runs after teardown (auto-detected as a
  /// zero-arg @init when present; override for modules whose init takes
  /// arguments, e.g. knic_init(mmio_base)).
  void set_restart_entry(std::string entry, std::vector<uint64_t> args) {
    restart_entry_ = std::move(entry);
    restart_args_ = std::move(args);
  }

  /// Simulated address of one of the module's globals.
  Result<uint64_t> GlobalAddress(const std::string& global) const;

  /// Boot-CPU (slot 0) engine statistics — the legacy single-CPU view.
  const kir::InterpStats& exec_stats() const {
    return slots_[0]->engine->stats();
  }
  void ResetExecStats() {
    for (auto& slot : slots_) slot->engine->ResetStats();
  }
  /// One CPU's engine statistics (test introspection for the SMP battery).
  const kir::InterpStats& CpuExecStats(uint32_t cpu) const {
    return slots_.at(cpu)->engine->stats();
  }

  /// Name of the engine executing this module ("interp" or "bytecode").
  std::string_view engine_name() const {
    return slots_[0]->engine->engine_name();
  }

  /// Guard-site tokens registered for this module at insmod, indexed by
  /// module-local site id (see trace::GlobalSites()).
  const std::vector<uint64_t>& site_tokens() const { return site_tokens_; }

  /// The journaling memory seam (also the fault-injection hook point).
  /// Boot-CPU slot; fault campaigns are single-CPU.
  SlotMemory& journaled_memory() { return slots_[0]->journaled; }
  const SlotMemory& journaled_memory() const { return slots_[0]->journaled; }

  /// Heap allocations currently owned by the module (kernel kmalloc).
  /// By value: the ledger mutates under concurrent calls.
  std::vector<uint64_t> heap_allocations() const {
    return heap_ledger_.LiveSnapshot();
  }
  /// Kernel symbols this module exported at insmod ("<module>.<fn>").
  const std::vector<std::string>& exported_symbols() const {
    return exported_symbols_;
  }

 private:
  friend class ModuleLoader;
  LoadedModule() = default;

  /// The calling CPU's slot; CPUs beyond prepared_cpus() fall back to
  /// slot 0 (callers must PrepareCpus before fanning out).
  ModuleSlot& MySlot() {
    const uint32_t cpu = smp::CurrentCpu();
    return cpu < slots_.size() ? *slots_[cpu] : *slots_[0];
  }

  /// Containment: roll the calling CPU's journal back, reclaim its
  /// call-local allocations, then race for recovery ownership. Exactly
  /// one contained call per incident wins `containing_` and drives the
  /// recovery policy after stopping the module machine-wide (every other
  /// in-flight call aborts at its next memory access and unwinds on its
  /// own CPU); losers report the violation and return without touching
  /// the state machine. `violation` is non-null for guard violations.
  Result<uint64_t> Contain(ModuleSlot& slot, resilience::RollbackReason reason,
                           const std::string& what,
                           const GuardViolation* violation);

  /// One restart attempt (backoff charge + teardown + re-init). Ok when
  /// the module is running again; error while it stays down (kTimeout /
  /// kPermissionDenied) or once the budget is exhausted (quarantined).
  /// Serialized on restart_lock_ — concurrent callers that find the
  /// module already restarted return Ok without consuming budget.
  Status TryRestart();

  size_t RollbackJournal(ModuleSlot& slot, resilience::RollbackReason reason);

  /// Stamp the LastEvent pair (`reason` must be a string literal — the
  /// pointer is stored as-is and read lock-free by procfs).
  void NoteEvent(const char* reason);

  /// Snapshot the incident into a flight::PostmortemBundle and hand it
  /// to the global store. Fired at the containment seams: the Contain
  /// winner (before recovery runs), the in-module panic unwind, and
  /// restart-budget exhaustion.
  void CapturePostmortem(ModuleSlot& slot, const char* reason,
                         const std::string& what,
                         const GuardViolation* violation,
                         const char* recovery);

  void ReclaimCallAllocations();
  void ReclaimHeapAllocations();
  void UnexportSymbols();
  Status ResetGlobals();
  void Quarantine(const std::string& reason, const GuardViolation* violation);

  std::string name_;
  std::atomic<resilience::ModuleState> state_{resilience::ModuleState::kLive};
  mutable Spinlock state_lock_;  // quarantine_reason_
  std::string quarantine_reason_;
  Kernel* kernel_ = nullptr;
  std::unique_ptr<kir::Module> ir_;
  transform::AttestationRecord attestation_;
  std::vector<uint64_t> allocations_;  // module-area blocks to free
  std::vector<uint64_t> site_tokens_;  // guard-site tokens by site id
  std::vector<std::unique_ptr<ModuleSlot>> slots_;

  /// Saved by Insmod so PrepareCpus can stamp out more slots; its
  /// `addresses` are the module's global addresses.
  SlotRecipe recipe_;

  // Cross-CPU containment protocol (see Contain).
  std::atomic<bool> stop_requested_{false};
  std::atomic<uint32_t> active_calls_{0};
  std::atomic<bool> containing_{false};
  std::mutex restart_lock_;

  resilience::RecoveryPolicy recovery_ =
      resilience::RecoveryPolicy::kQuarantine;
  resilience::BackoffPolicy backoff_;
  uint64_t watchdog_steps_ = 0;
  bool journaling_enabled_ = true;
  std::atomic<uint32_t> restart_attempts_{0};
  std::atomic<uint32_t> restarts_completed_{0};
  std::atomic<const char*> last_event_reason_{nullptr};
  std::atomic<uint64_t> last_event_tsc_{0};
  std::string restart_entry_;
  std::vector<uint64_t> restart_args_;
  HeapLedger heap_ledger_;
  std::vector<std::string> exported_symbols_;
};

class ModuleLoader {
 public:
  ModuleLoader(Kernel* kernel, signing::Keyring keyring)
      : kernel_(kernel), keyring_(std::move(keyring)) {}

  /// Load a signed module image. Fails without side effects on any
  /// validation/link error.
  Result<LoadedModule*> Insmod(const signing::SignedModule& image);

  /// Unload. Frees module-area allocations, reclaims the module's heap
  /// allocations, and unexports its symbols.
  Status Rmmod(const std::string& name);

  LoadedModule* Find(const std::string& name);
  std::vector<std::string> LoadedNames() const;

  /// Build per-CPU execution contexts for every loaded module (see
  /// LoadedModule::PrepareCpus). Modules Insmod'ed later start with one.
  Status PrepareCpus(uint32_t cpus);

  signing::Keyring& keyring() { return keyring_; }

  /// Engine future Insmod calls wire modules to (already-loaded modules
  /// keep the engine they were loaded with).
  ExecEngine engine() const { return engine_; }
  void set_engine(ExecEngine engine) { engine_ = engine; }

  /// How future Insmod calls establish guard completeness.
  VerifyMode verify_mode() const { return verify_mode_; }
  void set_verify_mode(VerifyMode mode) { verify_mode_ = mode; }

  /// Recovery defaults stamped onto future Insmod'ed modules.
  resilience::RecoveryPolicy recovery_policy() const { return recovery_; }
  void set_recovery_policy(resilience::RecoveryPolicy policy) {
    recovery_ = policy;
  }
  uint64_t watchdog_steps() const { return watchdog_steps_; }
  void set_watchdog_steps(uint64_t steps) { watchdog_steps_ = steps; }
  const resilience::BackoffPolicy& backoff() const { return backoff_; }
  void set_backoff(const resilience::BackoffPolicy& backoff) {
    backoff_ = backoff;
  }

 private:
  Kernel* kernel_;
  signing::Keyring keyring_;
  ExecEngine engine_ = DefaultExecEngine();
  VerifyMode verify_mode_ = DefaultVerifyMode();
  resilience::RecoveryPolicy recovery_ = resilience::DefaultRecoveryPolicy();
  uint64_t watchdog_steps_ = resilience::DefaultWatchdogSteps();
  resilience::BackoffPolicy backoff_;
  std::map<std::string, std::unique_ptr<LoadedModule>> modules_;
};

}  // namespace kop::kernel
