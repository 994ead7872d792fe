// Module-loader edge cases and failure injection: resource exhaustion at
// insmod, runaway modules, wild pointers, oops-not-panic semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kernel/memory_map.hpp"
#include "kop/kernel/procfs.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/kir/parser.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/signing/signer.hpp"
#include "kop/trace/trace.hpp"
#include "kop/transform/attestation.hpp"
#include "kop/transform/compiler.hpp"

namespace kop {
namespace {

using kernel::Kernel;
using kernel::KernelConfig;
using kernel::ModuleLoader;

signing::SignedModule CompileAndSign(const std::string& source) {
  auto compiled = transform::CompileModuleText(source);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return signing::SignModule(compiled->text, compiled->attestation,
                             signing::SigningKey::DevelopmentKey());
}

signing::Keyring TrustedKeyring() {
  signing::Keyring keyring;
  keyring.Trust(signing::SigningKey::DevelopmentKey());
  return keyring;
}

KernelConfig SmallKernel(uint64_t module_area_bytes) {
  KernelConfig config;
  config.ram_bytes = 4ull << 20;
  config.kernel_text_bytes = 1ull << 20;
  config.module_area_bytes = module_area_bytes;
  config.user_bytes = 1ull << 20;
  return config;
}

TEST(LoaderFailureTest, InsmodFailsCleanlyWhenModuleAreaExhausted) {
  // 16 KiB module area: too small for the 64 KiB interpreter stack.
  Kernel kernel(SmallKernel(16 * 1024));
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  auto loaded = loader.Insmod(CompileAndSign(kirmods::RingbufSource()));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kOutOfMemory);
  EXPECT_FALSE(kernel.panicked());
  EXPECT_TRUE(loader.LoadedNames().empty());
}

TEST(LoaderFailureTest, SequentialInsmodUntilFullThenRecover) {
  // Fill the module area with synthetic modules until insmod fails, then
  // rmmod one and verify a new insmod fits again.
  Kernel kernel(SmallKernel(512 * 1024));
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());

  // Each module: 64 KiB stack + text + globals; ~6-7 fit in 512 KiB.
  int loaded_count = 0;
  std::string first_name;
  for (int i = 0; i < 32; ++i) {
    std::string source = kirmods::SyntheticModuleSource(2, 4);
    // Rename so each loads as a distinct module.
    const std::string name = "kop_synth_" + std::to_string(i);
    const size_t pos = source.find("kop_synth");
    source.replace(pos, strlen("kop_synth"), name);
    auto loaded = loader.Insmod(CompileAndSign(source));
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), ErrorCode::kOutOfMemory);
      break;
    }
    if (loaded_count == 0) first_name = name;
    ++loaded_count;
  }
  ASSERT_GT(loaded_count, 2);
  ASSERT_LT(loaded_count, 32);

  // Free one slot; the next insmod succeeds.
  ASSERT_TRUE(loader.Rmmod(first_name).ok());
  std::string source = kirmods::SyntheticModuleSource(2, 4);
  source.replace(source.find("kop_synth"), strlen("kop_synth"),
                 "kop_synth_retry");
  EXPECT_TRUE(loader.Insmod(CompileAndSign(source)).ok());
}

TEST(LoaderFailureTest, RmmodReturnsAllModuleAreaMemory) {
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  const uint64_t live_before = kernel.module_area().Stats().allocation_count;
  ASSERT_TRUE(loader.Insmod(CompileAndSign(kirmods::MemcopySource())).ok());
  EXPECT_GT(kernel.module_area().Stats().allocation_count, live_before);
  ASSERT_TRUE(loader.Rmmod("kop_memcopy").ok());
  EXPECT_EQ(kernel.module_area().Stats().allocation_count, live_before);
}

TEST(LoaderFailureTest, RunawayRecursionFailsWithoutPanic) {
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  auto loaded = loader.Insmod(CompileAndSign(R"(module "kop_runaway"
func @spin(i64 %n) -> i64 {
entry:
  %m = add i64 %n, 1
  %r = call i64 @spin(i64 %m)
  ret i64 %r
}
)"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto result = (*loaded)->Call("spin", {0});
  ASSERT_FALSE(result.ok());  // call-depth limit, an oops not a crash
  EXPECT_FALSE(kernel.panicked());
  // The module and kernel remain usable.
  EXPECT_TRUE(loader.Rmmod("kop_runaway").ok());
}

TEST(LoaderFailureTest, InfiniteLoopHitsExecutionBudget) {
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  // Pin quarantine semantics regardless of the KOP_RECOVERY env default.
  loader.set_recovery_policy(resilience::RecoveryPolicy::kQuarantine);
  auto loaded = loader.Insmod(CompileAndSign(R"(module "kop_looper"
func @forever() -> void {
entry:
  jmp entry
}
)"));
  ASSERT_TRUE(loaded.ok());
  auto result = (*loaded)->Call("forever", {});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("budget"), std::string::npos);
  // lsmod pins the incident: the quarantine that ended it, stamped on
  // the virtual clock, in the LastEvent column.
  const std::string lsmod = kernel::ProcModules(loader);
  EXPECT_NE(lsmod.find("LastEvent"), std::string::npos);
  const std::string expect =
      "quarantine@" + std::to_string((*loaded)->last_event_tsc());
  EXPECT_NE(lsmod.find(expect), std::string::npos) << lsmod;
}

TEST(LoaderFailureTest, WildPointerIsAnOopsNotACrash) {
  // Default-allow policy: the guard permits the access, but the address
  // is unmapped — the simulated fault surfaces as an error return, the
  // kernel survives, and the module stays loaded (a Linux oops).
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  auto loaded = loader.Insmod(CompileAndSign(kirmods::ScribblerSource()));
  ASSERT_TRUE(loaded.ok());
  auto result = (*loaded)->Call("peek", {0xdead00000000ull});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kOutOfRange);
  EXPECT_FALSE(kernel.panicked());
  // Still usable afterwards.
  auto heap = kernel.heap().Kmalloc(64);
  ASSERT_TRUE(heap.ok());
  EXPECT_TRUE((*loaded)->Call("peek", {*heap}).ok());
}

TEST(LoaderFailureTest, CallIntoMissingEntryPointFails) {
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  auto loaded = loader.Insmod(CompileAndSign(kirmods::HelloSource()));
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE((*loaded)->Call("does_not_exist", {}).ok());
  EXPECT_FALSE((*loaded)->Call("init", {1, 2, 3}).ok());  // arity mismatch
}

TEST(LoaderFailureTest, GlobalAddressLookup) {
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  auto loaded = loader.Insmod(CompileAndSign(kirmods::RingbufSource()));
  ASSERT_TRUE(loaded.ok());
  auto buf = (*loaded)->GlobalAddress("buf");
  ASSERT_TRUE(buf.ok());
  EXPECT_GE(*buf, kernel.module_area_base());
  EXPECT_FALSE((*loaded)->GlobalAddress("nonexistent").ok());
}

// ------------------------------------------------- static verification --

/// Sign `source` as a hostile toolchain would: the attestation claims
/// complete (and optimized, so adjacency is not re-checked) guards no
/// matter what the IR contains. The signature itself is genuine.
signing::SignedModule ForgeAttestationAndSign(const std::string& source) {
  auto module = kir::ParseModule(source);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  transform::AttestationRecord attestation = transform::Attest(**module);
  attestation.guards_complete = true;
  attestation.guards_optimized = true;
  return signing::SignModule(source, attestation,
                             signing::SigningKey::DevelopmentKey());
}

TEST(LoaderStaticVerifyTest, ForgedAttestationRejectedUnderStaticAndBoth) {
  for (const kernel::VerifyMode mode :
       {kernel::VerifyMode::kBoth, kernel::VerifyMode::kStatic}) {
    Kernel kernel;
    auto policy = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    ASSERT_TRUE(policy.ok());
    ModuleLoader loader(&kernel, TrustedKeyring());
    loader.set_verify_mode(mode);
    trace::GlobalTracer().Reset();

    auto loaded = loader.Insmod(
        ForgeAttestationAndSign(kirmods::AdversarialUnguardedSource()));
    ASSERT_FALSE(loaded.ok()) << kernel::VerifyModeName(mode);
    EXPECT_EQ(loaded.status().code(), ErrorCode::kPermissionDenied);
    EXPECT_NE(loaded.status().ToString().find("static verifier"),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_TRUE(loader.LoadedNames().empty());
    EXPECT_EQ(trace::GlobalTracer().event_count(
                  trace::EventId::kModuleStaticReject),
              1u);
    trace::GlobalTracer().Reset();
  }
}

TEST(LoaderStaticVerifyTest, ForgedAttestationSlipsThroughAttestMode) {
  // The trust gap the static verifier closes: a forged guards-optimized
  // attestation over unguarded IR passes attestation-only validation.
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  loader.set_verify_mode(kernel::VerifyMode::kAttest);
  auto loaded = loader.Insmod(
      ForgeAttestationAndSign(kirmods::AdversarialUnguardedSource()));
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST(LoaderStaticVerifyTest, EachAdversarialModuleRejectedByDefault) {
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  // The loader honours KOP_VERIFY (the CI matrix sets it); any mode that
  // runs the static verifier must reject these, so only skip under attest.
  ASSERT_EQ(loader.verify_mode(), kernel::DefaultVerifyMode());
  if (loader.verify_mode() == kernel::VerifyMode::kAttest) {
    loader.set_verify_mode(kernel::VerifyMode::kBoth);
  }
  for (const kirmods::CorpusEntry& entry :
       kirmods::AdversarialCorpusModules()) {
    auto loaded = loader.Insmod(ForgeAttestationAndSign(entry.source));
    ASSERT_FALSE(loaded.ok()) << entry.name;
    // Two rejection layers are acceptable: the validator (kBadModule —
    // e.g. a CFI-claiming module with no attested table) or the static
    // verifier (kPermissionDenied). Either way the module never loads.
    EXPECT_TRUE(loaded.status().code() == ErrorCode::kPermissionDenied ||
                loaded.status().code() == ErrorCode::kBadModule)
        << entry.name << ": " << loaded.status().ToString();
  }
}

TEST(LoaderStaticVerifyTest, StaticModeAcceptsProofWithoutAttestedClaim) {
  // A module whose attestation does NOT claim guard completeness but
  // whose IR is provably guarded: rejected when the attestation is the
  // authority (kBoth), accepted when the static proof is (kStatic).
  auto compiled = transform::CompileModuleText(kirmods::RingbufSource());
  ASSERT_TRUE(compiled.ok());
  transform::AttestationRecord attestation = compiled->attestation;
  attestation.guards_complete = false;
  const signing::SignedModule image = signing::SignModule(
      compiled->text, attestation, signing::SigningKey::DevelopmentKey());

  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());

  loader.set_verify_mode(kernel::VerifyMode::kBoth);
  EXPECT_FALSE(loader.Insmod(image).ok());

  loader.set_verify_mode(kernel::VerifyMode::kStatic);
  auto loaded = loader.Insmod(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE((*loaded)->Call("rb_init", {}).ok());
}

TEST(LoaderStaticVerifyTest, WidenedCfiSetRejectedInEveryVerifyMode) {
  transform::CompileOptions options;
  options.inject_cfi_checks = true;  // pin: must not follow KOP_CFI
  auto compiled =
      transform::CompileModuleText(kirmods::IcallSource(), options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_TRUE(compiled->attestation.cfi_gated);
  ASSERT_FALSE(compiled->attestation.cfi_sets.empty());

  // Widen set 0 with @h_spare — signature-compatible but never
  // address-taken — and re-sign with a trusted key. The signature is
  // genuine; the claim is wider than the proof, which is exactly the
  // attack the insmod re-derivation exists to stop. CFI provenance is
  // re-proven in EVERY verify mode (a forged table corrupts enforcement
  // even when attestation-only trust is acceptable for guards).
  transform::AttestationRecord forged = compiled->attestation;
  forged.cfi_sets[0].members.push_back("h_spare");
  std::sort(forged.cfi_sets[0].members.begin(),
            forged.cfi_sets[0].members.end());
  const signing::SignedModule image = signing::SignModule(
      compiled->text, forged, signing::SigningKey::DevelopmentKey());

  for (const kernel::VerifyMode mode :
       {kernel::VerifyMode::kStatic, kernel::VerifyMode::kBoth,
        kernel::VerifyMode::kAttest}) {
    Kernel kernel;
    auto policy = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    ASSERT_TRUE(policy.ok());
    ModuleLoader loader(&kernel, TrustedKeyring());
    loader.set_verify_mode(mode);
    auto loaded = loader.Insmod(image);
    ASSERT_FALSE(loaded.ok()) << kernel::VerifyModeName(mode);
    EXPECT_NE(loaded.status().ToString().find("cfi attestation"),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_TRUE(loader.LoadedNames().empty());
  }

  // The untampered image loads and dispatches through its gate in every
  // mode: honest modules pay no admission cost for CFI.
  const signing::SignedModule good =
      signing::SignModule(compiled->text, compiled->attestation,
                          signing::SigningKey::DevelopmentKey());
  for (const kernel::VerifyMode mode :
       {kernel::VerifyMode::kStatic, kernel::VerifyMode::kBoth,
        kernel::VerifyMode::kAttest}) {
    Kernel kernel;
    auto policy = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    ASSERT_TRUE(policy.ok());
    ModuleLoader loader(&kernel, TrustedKeyring());
    loader.set_verify_mode(mode);
    auto loaded = loader.Insmod(good);
    ASSERT_TRUE(loaded.ok())
        << kernel::VerifyModeName(mode) << ": " << loaded.status().ToString();
    ASSERT_TRUE((*loaded)->Call("vt_init", {}).ok());
    auto r = (*loaded)->Call("vt_call", {0, 5, 3});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, 8u);  // slot 0 is h_add
  }
}

TEST(LoaderStaticVerifyTest, RenumberedCfiSiteRejected) {
  transform::CompileOptions options;
  options.inject_cfi_checks = true;
  auto compiled =
      transform::CompileModuleText(kirmods::IcallSource(), options);
  ASSERT_TRUE(compiled.ok());
  ASSERT_GE(compiled->attestation.cfi_sites.size(), 2u);

  // Point the first icall at the second (narrower) set: a stale or
  // maliciously renumbered site table.
  transform::AttestationRecord forged = compiled->attestation;
  forged.cfi_sites[0].set_id = forged.cfi_sites[1].set_id;

  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  loader.set_verify_mode(kernel::VerifyMode::kBoth);
  auto loaded = loader.Insmod(signing::SignModule(
      compiled->text, forged, signing::SigningKey::DevelopmentKey()));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("cfi attestation"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(LoaderStaticVerifyTest, VerifyModeNamesAndDefault) {
  EXPECT_EQ(kernel::VerifyModeName(kernel::VerifyMode::kAttest), "attest");
  EXPECT_EQ(kernel::VerifyModeName(kernel::VerifyMode::kStatic), "static");
  EXPECT_EQ(kernel::VerifyModeName(kernel::VerifyMode::kBoth), "both");
}

// ------------------------------------------------------------ slot memory --

/// MMIO window that counts the writes it sees.
class WriteCountingMmio : public kernel::MmioDevice {
 public:
  uint64_t MmioRead(uint64_t, uint32_t) override { return 0; }
  void MmioWrite(uint64_t, uint64_t value, uint32_t) override {
    ++writes;
    last = value;
  }
  int writes = 0;
  uint64_t last = 0;
};

/// One bare slot from the loader's slot builder, a heap word preset to
/// kOld and an MMIO window. Reads and writes cost distinct cycle counts,
/// so the clock tells which kind each charge was.
struct SlotRig {
  static constexpr uint64_t kOld = 0x1111111111111111ULL;
  static constexpr double kRead = 3;
  static constexpr double kWrite = 5;

  SlotRig() {
    sim::MachineModel machine = kernel.machine();
    machine.mem_read_cycles = kRead;
    machine.mem_write_cycles = kWrite;
    kernel.SetMachine(machine);
    auto parsed = kir::ParseModule("module \"m\"\n");
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    ir = std::move(*parsed);
    kernel::SlotRecipe recipe;
    recipe.ir = ir.get();
    recipe.engine = kernel::ExecEngine::kInterp;
    recipe.stop_flag = &stop;
    auto built = kernel::BuildModuleSlot(&kernel, recipe, &allocations);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    slot = std::move(*built);
    auto addr = kernel.heap().Kmalloc(64, 8);
    EXPECT_TRUE(addr.ok());
    ram = *addr;
    EXPECT_TRUE(kernel.mem().Store(ram, kOld, 8).ok());
    EXPECT_TRUE(kernel.mem().MapMmio("slot-test", kernel::kVmallocBase,
                                     0x1000, &device)
                    .ok());
  }

  kernel::SlotMemory& mem() { return slot->journaled; }
  uint64_t Peek(uint64_t addr) { return *kernel.mem().Load(addr, 8); }
  double Cycles() { return kernel.clock().NowCycles(); }

  Kernel kernel{SmallKernel(1ull << 20)};
  WriteCountingMmio device;
  std::atomic<bool> stop{false};
  std::unique_ptr<kir::Module> ir;
  std::vector<uint64_t> allocations;
  std::unique_ptr<kernel::ModuleSlot> slot;
  uint64_t ram = 0;
};

TEST(SlotMemoryTest, RamStoresInATransactionRollBackNewestFirst) {
  SlotRig rig;
  rig.mem().journal().Begin();
  ASSERT_TRUE(rig.mem().Store(rig.ram, 0x2222, 8).ok());
  ASSERT_TRUE(rig.mem().Store(rig.ram, 0x33, 1).ok());
  EXPECT_EQ(rig.Peek(rig.ram), 0x2233u);
  EXPECT_EQ(rig.mem().journal().bytes(), 9u);
  EXPECT_EQ(rig.mem().Rollback(), 2u);
  EXPECT_EQ(rig.Peek(rig.ram), SlotRig::kOld);
  EXPECT_FALSE(rig.mem().journal().active());
  EXPECT_EQ(rig.mem().journal().total_entries_undone(), 2u);

  // Outside a transaction nothing is recorded.
  ASSERT_TRUE(rig.mem().Store(rig.ram, 0x44, 8).ok());
  EXPECT_EQ(rig.mem().journal().total_entries_recorded(), 2u);
}

TEST(SlotMemoryTest, CaptureChargesAReadAndEachUndoAWrite) {
  SlotRig rig;
  double t = rig.Cycles();
  ASSERT_TRUE(rig.mem().Load(rig.ram, 8).ok());
  EXPECT_EQ(rig.Cycles() - t, SlotRig::kRead);
  t = rig.Cycles();
  ASSERT_TRUE(rig.mem().Store(rig.ram, 1, 8).ok());
  EXPECT_EQ(rig.Cycles() - t, SlotRig::kWrite);  // no transaction: no capture

  rig.mem().journal().Begin();
  t = rig.Cycles();
  ASSERT_TRUE(rig.mem().Store(rig.ram, 2, 8).ok());
  ASSERT_TRUE(rig.mem().Store(rig.ram + 8, 3, 4).ok());
  EXPECT_EQ(rig.Cycles() - t, 2 * (SlotRig::kRead + SlotRig::kWrite));
  t = rig.Cycles();
  EXPECT_EQ(rig.mem().Rollback(), 2u);
  EXPECT_EQ(rig.Cycles() - t, 2 * SlotRig::kWrite);
}

TEST(SlotMemoryTest, MmioStoresAreNotJournaled) {
  SlotRig rig;
  rig.mem().journal().Begin();
  const double t = rig.Cycles();
  ASSERT_TRUE(rig.mem().Store(kernel::kVmallocBase + 0x10, 0xabcd, 4).ok());
  EXPECT_EQ(rig.Cycles() - t, SlotRig::kWrite);  // no capture read
  EXPECT_EQ(rig.device.writes, 1);
  EXPECT_EQ(rig.device.last, 0xabcdu);
  EXPECT_EQ(rig.mem().journal().bytes(), 0u);
  EXPECT_EQ(rig.mem().Rollback(), 0u);
  EXPECT_EQ(rig.device.writes, 1);
}

TEST(SlotMemoryTest, StopFlagInterruptsAccessesButNotRollback) {
  SlotRig rig;
  rig.mem().journal().Begin();
  ASSERT_TRUE(rig.mem().Store(rig.ram, 0x2222, 8).ok());
  rig.stop.store(true);
  const double t = rig.Cycles();
  EXPECT_EQ(rig.mem().Load(rig.ram, 8).status().code(),
            ErrorCode::kInterrupted);
  EXPECT_EQ(rig.mem().Store(rig.ram, 0x3333, 8).code(),
            ErrorCode::kInterrupted);
  EXPECT_EQ(rig.mem().Store(kernel::kVmallocBase, 1, 4).code(),
            ErrorCode::kInterrupted);
  EXPECT_EQ(rig.Cycles(), t);
  EXPECT_EQ(rig.Peek(rig.ram), 0x2222u);
  EXPECT_EQ(rig.device.writes, 0);
  EXPECT_EQ(rig.mem().Rollback(), 1u);
  EXPECT_EQ(rig.Peek(rig.ram), SlotRig::kOld);
}

TEST(SlotMemoryTest, FaultHookSeesOneOrdinalPerAccess) {
  SlotRig rig;
  struct Seen {
    bool is_store;
    uint64_t ordinal;
    uint64_t value;
  };
  std::vector<Seen> seen;
  rig.mem().SetFaultHook([&](bool is_store, uint64_t ordinal, uint64_t,
                             uint64_t value, uint32_t) {
    seen.push_back({is_store, ordinal, value});
    return value ^ 1;  // perturb every access
  });
  rig.mem().journal().Begin();
  EXPECT_EQ(*rig.mem().Load(rig.ram, 8), SlotRig::kOld ^ 1);
  ASSERT_TRUE(rig.mem().Store(rig.ram, 0x10, 8).ok());  // journaled
  EXPECT_EQ(rig.Peek(rig.ram), 0x11u);
  rig.stop.store(true);
  EXPECT_FALSE(rig.mem().Load(rig.ram, 8).ok());  // takes no ordinal
  rig.stop.store(false);
  ASSERT_TRUE(rig.mem().Store(kernel::kVmallocBase, 0x20, 4).ok());
  EXPECT_EQ(rig.device.last, 0x21u);
  EXPECT_EQ(rig.mem().Rollback(), 1u);  // bypasses the hook
  EXPECT_EQ(rig.Peek(rig.ram), SlotRig::kOld);
  rig.mem().ClearFaultHook();
  EXPECT_EQ(*rig.mem().Load(rig.ram, 8), SlotRig::kOld);

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_FALSE(seen[0].is_store);
  EXPECT_EQ(seen[0].ordinal, 1u);
  EXPECT_EQ(seen[0].value, SlotRig::kOld);
  EXPECT_TRUE(seen[1].is_store);
  EXPECT_EQ(seen[1].ordinal, 2u);
  EXPECT_EQ(seen[1].value, 0x10u);
  EXPECT_TRUE(seen[2].is_store);
  EXPECT_EQ(seen[2].ordinal, 3u);
}

}  // namespace
}  // namespace kop
