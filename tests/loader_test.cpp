// Module-loader edge cases and failure injection: resource exhaustion at
// insmod, runaway modules, wild pointers, oops-not-panic semantics.
#include <gtest/gtest.h>

#include <algorithm>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
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

}  // namespace
}  // namespace kop
