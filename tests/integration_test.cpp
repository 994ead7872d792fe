// End-to-end integration: the full CARAT KOP story.
//   compile (guard-inject + attest) -> sign -> insmod (validate + link)
//   -> run under a policy -> violations logged + panic.
// Plus the driver-path integration: policy module + e1000e + NIC + socket.
#include <gtest/gtest.h>

#include <vector>

#include "kop/e1000e/driver.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kernel/procfs.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/net/packet_gun.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/policy/region_table.hpp"
#include "kop/policy/rules.hpp"
#include "kop/signing/signer.hpp"
#include "kop/trace/span.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/transform/privileged.hpp"
#include "kop/transform/simplify.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop {
namespace {

using kernel::Kernel;
using kernel::KernelPanic;
using kernel::ModuleLoader;
using policy::PolicyMode;
using policy::PolicyModule;
using policy::Region;

signing::SignedModule CompileAndSign(
    const std::string& source,
    const transform::CompileOptions& options = {}) {
  auto compiled = transform::CompileModuleText(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return signing::SignModule(compiled->text, compiled->attestation,
                             signing::SigningKey::DevelopmentKey());
}

signing::Keyring TrustedKeyring() {
  signing::Keyring keyring;
  keyring.Trust(signing::SigningKey::DevelopmentKey());
  return keyring;
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : kernel_(), loader_(&kernel_, TrustedKeyring()) {
    auto policy =
        PolicyModule::Insert(&kernel_, nullptr, PolicyMode::kDefaultAllow);
    EXPECT_TRUE(policy.ok()) << policy.status().ToString();
    policy_ = std::move(*policy);
  }

  Kernel kernel_;
  ModuleLoader loader_;
  std::unique_ptr<PolicyModule> policy_;
};

TEST_F(PipelineTest, HelloModuleLoadsAndPrints) {
  auto loaded = loader_.Insmod(CompileAndSign(kirmods::HelloSource()));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto result = (*loaded)->Call("init", {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(kernel_.log().Contains("hello from CARAT KOP module"));
}

TEST_F(PipelineTest, GuardsActuallyFireAtRuntime) {
  auto loaded = loader_.Insmod(CompileAndSign(kirmods::RingbufSource()));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  policy_->engine().ResetStats();
  ASSERT_TRUE((*loaded)->Call("rb_init", {}).ok());
  ASSERT_TRUE((*loaded)->Call("rb_push", {42}).ok());
  // rb_init stores 3 fields; rb_push does 2 loads + 3 stores minimum.
  EXPECT_GE(policy_->engine().stats().guard_calls, 8u);
  EXPECT_EQ(policy_->engine().stats().denied, 0u);
}

TEST_F(PipelineTest, UnsignedModuleRejected) {
  auto compiled = transform::CompileModuleText(kirmods::RingbufSource());
  ASSERT_TRUE(compiled.ok());
  signing::SigningKey rogue{"rogue-key", "not-the-kernel-key"};
  auto image =
      signing::SignModule(compiled->text, compiled->attestation, rogue);
  auto loaded = loader_.Insmod(image);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(PipelineTest, TamperedImageRejected) {
  signing::SignedModule image = CompileAndSign(kirmods::RingbufSource());
  image.module_text[image.module_text.size() / 2] ^= 0x20;
  auto loaded = loader_.Insmod(image);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(PipelineTest, UntransformedModuleRejected) {
  transform::CompileOptions options;
  options.inject_guards = false;  // baseline build must not be insmod-able
  auto compiled =
      transform::CompileModuleText(kirmods::RingbufSource(), options);
  ASSERT_TRUE(compiled.ok());
  auto image = signing::SignModule(compiled->text, compiled->attestation,
                                   signing::SigningKey::DevelopmentKey());
  auto loaded = loader_.Insmod(image);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(PipelineTest, InlineAsmModuleCannotBeCompiled) {
  auto compiled = transform::CompileModuleText(kirmods::InlineAsmSource());
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), ErrorCode::kBadModule);
}

TEST_F(PipelineTest, MissingGuardSymbolFailsInsmod) {
  Kernel bare_kernel;  // no policy module inserted -> no carat_guard
  ModuleLoader bare_loader(&bare_kernel, TrustedKeyring());
  auto loaded = bare_loader.Insmod(CompileAndSign(kirmods::RingbufSource()));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(bare_kernel.log().Contains("Unknown symbol carat_guard"));
}

TEST_F(PipelineTest, DefaultDenyBlocksEverythingUnlisted) {
  policy_->engine().SetMode(PolicyMode::kDefaultDeny);
  auto loaded = loader_.Insmod(CompileAndSign(kirmods::RingbufSource()));
  ASSERT_TRUE(loaded.ok());
  EXPECT_THROW((void)(*loaded)->Call("rb_init", {}), KernelPanic);
  EXPECT_TRUE(kernel_.panicked());
  EXPECT_TRUE(kernel_.log().Contains("forbidden write access"));
}

TEST_F(PipelineTest, DefaultDenyWithModuleAreaRegionAllows) {
  policy_->engine().SetMode(PolicyMode::kDefaultDeny);
  ASSERT_TRUE(policy_->engine()
                  .store()
                  .Add(Region{kernel_.module_area_base(),
                              kernel_.module_area_size(), policy::kProtRW})
                  .ok());
  auto loaded = loader_.Insmod(CompileAndSign(kirmods::RingbufSource()));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE((*loaded)->Call("rb_init", {}).ok());
  EXPECT_TRUE((*loaded)->Call("rb_push", {7}).ok());
  auto popped = (*loaded)->Call("rb_pop", {});
  ASSERT_TRUE(popped.ok());
  EXPECT_EQ(*popped, 7u);
}

TEST_F(PipelineTest, ScribblerBlockedFromUserHalf) {
  // The paper's two-region rule: kernel high half allowed, user low half
  // denied. Default-allow + a no-permission region over the low half.
  policy_->engine().SetMode(PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy_->engine()
                  .store()
                  .Add(Region{0, kernel::kUserSpaceEnd, policy::kProtNone})
                  .ok());
  auto loaded = loader_.Insmod(CompileAndSign(kirmods::ScribblerSource()));
  ASSERT_TRUE(loaded.ok());

  auto heap = kernel_.heap().Kmalloc(64);
  ASSERT_TRUE(heap.ok());
  EXPECT_TRUE((*loaded)->Call("scribble", {*heap, 0xdead}).ok());

  EXPECT_THROW(
      (void)(*loaded)->Call("scribble", {kernel_.config().user_base, 1}),
      KernelPanic);
  EXPECT_TRUE(kernel_.log().Contains("forbidden write access"));
}

TEST_F(PipelineTest, ReadOnlyHeapPolicyBlocksWrites) {
  // "Or, it could restrict access to the heap to be read-only." (§3.1)
  policy_->engine().SetMode(PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy_->engine()
                  .store()
                  .Add(Region{kernel_.direct_map_base(),
                              kernel_.direct_map_size(), policy::kProtRead})
                  .ok());
  auto loaded = loader_.Insmod(CompileAndSign(kirmods::ScribblerSource()));
  ASSERT_TRUE(loaded.ok());
  auto heap = kernel_.heap().Kmalloc(64);
  ASSERT_TRUE(heap.ok());
  EXPECT_TRUE((*loaded)->Call("peek", {*heap}).ok());
  EXPECT_THROW((void)(*loaded)->Call("scribble", {*heap, 5}), KernelPanic);
}

TEST_F(PipelineTest, LogOnlyModeRecordsWithoutPanicking) {
  policy_->engine().SetMode(PolicyMode::kDefaultDeny);
  policy_->engine().SetViolationAction(policy::ViolationAction::kLogOnly);
  auto loaded = loader_.Insmod(CompileAndSign(kirmods::RingbufSource()));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE((*loaded)->Call("rb_init", {}).ok());  // no throw
  EXPECT_FALSE(kernel_.panicked());
  EXPECT_GT(policy_->engine().stats().denied, 0u);
  EXPECT_TRUE(kernel_.log().Contains("forbidden write access"));
}

TEST_F(PipelineTest, PrivilegedIntrinsicWrappingBlocksCli) {
  transform::CompileOptions options;
  options.wrap_privileged_intrinsics = true;
  auto loaded =
      loader_.Insmod(CompileAndSign(kirmods::PrivuserSource(), options));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  policy_->engine().SetIntrinsicDefaultAllow(false);
  policy_->engine().AllowIntrinsic(
      static_cast<uint64_t>(transform::PrivilegedIntrinsic::kWrmsr));

  EXPECT_TRUE((*loaded)->Call("write_msr", {0x1b, 0xfee00c00}).ok());
  // The permitted wrmsr really changed machine state.
  EXPECT_EQ(kernel_.msrs().Read(0x1b), 0xfee00c00u);
  EXPECT_THROW((void)(*loaded)->Call("disable_interrupts", {}), KernelPanic);
  EXPECT_TRUE(kernel_.log().Contains("forbidden privileged intrinsic"));
  // The blocked cli never reached the interrupt flag.
  EXPECT_TRUE(kernel_.cpu().interrupts_enabled());
  EXPECT_EQ(kernel_.cpu().cli_count(), 0u);
}

TEST_F(PipelineTest, AuditThenSynthesizeThenEnforce) {
  // The operator workflow: (1) audit run under default-deny + log-only,
  // (2) synthesize the minimal policy from the violation trace,
  // (3) apply it and re-run under full enforcement — clean.
  policy_->engine().SetMode(PolicyMode::kDefaultDeny);
  policy_->engine().SetViolationAction(policy::ViolationAction::kLogOnly);
  auto loaded = loader_.Insmod(CompileAndSign(kirmods::RingbufSource()));
  ASSERT_TRUE(loaded.ok());

  // (1) audit run: everything is denied but logged.
  ASSERT_TRUE((*loaded)->Call("rb_init", {}).ok());
  ASSERT_TRUE((*loaded)->Call("rb_push", {5}).ok());
  ASSERT_TRUE((*loaded)->Call("rb_pop", {}).ok());
  const auto trace = policy_->engine().RecentViolations();
  ASSERT_FALSE(trace.empty());

  // (2) synthesize and apply.
  const auto spec = policy::SynthesizePolicy(trace);
  ASSERT_TRUE(policy::ApplyPolicySpec(spec, policy_->engine()).ok());
  policy_->engine().SetViolationAction(policy::ViolationAction::kPanic);
  policy_->engine().ResetStats();

  // (3) enforce: the same workload runs violation-free...
  ASSERT_TRUE((*loaded)->Call("rb_init", {}).ok());
  ASSERT_TRUE((*loaded)->Call("rb_push", {5}).ok());
  auto popped = (*loaded)->Call("rb_pop", {});
  ASSERT_TRUE(popped.ok());
  EXPECT_EQ(*popped, 5u);
  EXPECT_EQ(policy_->engine().stats().denied, 0u);

  // ...while anything off-trace still panics.
  auto rogue = loader_.Insmod(CompileAndSign(kirmods::ScribblerSource()));
  ASSERT_TRUE(rogue.ok());
  auto heap = kernel_.heap().Kmalloc(64);
  ASSERT_TRUE(heap.ok());
  EXPECT_THROW((void)(*rogue)->Call("scribble", {*heap, 1}), KernelPanic);
}

TEST_F(PipelineTest, QuarantineStopsModuleWithoutPanicking) {
  policy_->engine().SetMode(PolicyMode::kDefaultAllow);
  policy_->engine().SetViolationAction(policy::ViolationAction::kQuarantine);
  // Pin quarantine semantics regardless of the KOP_RECOVERY env default.
  loader_.set_recovery_policy(resilience::RecoveryPolicy::kQuarantine);
  ASSERT_TRUE(policy_->engine()
                  .store()
                  .Add(Region{0, kernel::kUserSpaceEnd, policy::kProtNone})
                  .ok());
  auto rogue = loader_.Insmod(CompileAndSign(kirmods::ScribblerSource()));
  ASSERT_TRUE(rogue.ok());
  auto good = loader_.Insmod(CompileAndSign(kirmods::RingbufSource()));
  ASSERT_TRUE(good.ok());

  // The rogue module violates the policy: its call fails, the kernel
  // stays up, and the module is quarantined.
  auto blocked =
      (*rogue)->Call("scribble", {kernel_.config().user_base, 0xbad});
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), ErrorCode::kPermissionDenied);
  EXPECT_FALSE(kernel_.panicked());
  EXPECT_TRUE((*rogue)->quarantined());
  EXPECT_TRUE(kernel_.log().Contains("quarantined module 'kop_scribbler'"));

  // Even legitimate calls to the quarantined module now refuse...
  auto heap = kernel_.heap().Kmalloc(64);
  ASSERT_TRUE(heap.ok());
  auto refused = (*rogue)->Call("peek", {*heap});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kPermissionDenied);

  // ...while other modules keep running normally.
  EXPECT_TRUE((*good)->Call("rb_init", {}).ok());
  EXPECT_TRUE((*good)->Call("rb_push", {3}).ok());
  EXPECT_FALSE((*good)->quarantined());

  // lsmod shows the quarantine state.
  const std::string lsmod = kernel::ProcModules(loader_);
  EXPECT_NE(lsmod.find("kop_scribbler"), std::string::npos);
  EXPECT_NE(lsmod.find("QUARANTINED"), std::string::npos);
  EXPECT_NE(lsmod.find("kop_ringbuf"), std::string::npos);

  // rmmod + fresh insmod clears the quarantine (a new instance).
  ASSERT_TRUE(loader_.Rmmod("kop_scribbler").ok());
  auto fresh = loader_.Insmod(CompileAndSign(kirmods::ScribblerSource()));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE((*fresh)->quarantined());
  EXPECT_TRUE((*fresh)->Call("peek", {*heap}).ok());
}

TEST_F(PipelineTest, RmmodThenReloadWorks) {
  auto image = CompileAndSign(kirmods::RingbufSource());
  auto loaded = loader_.Insmod(image);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loader_.Insmod(image).ok());  // double insmod
  ASSERT_TRUE(loader_.Rmmod("kop_ringbuf").ok());
  EXPECT_EQ(loader_.Find("kop_ringbuf"), nullptr);
  EXPECT_TRUE(loader_.Insmod(image).ok());
}

TEST_F(PipelineTest, KnicDriverModuleDrivesRealDevice) {
  // The compiler-path driver: a KIR module programs the simulated NIC
  // through guarded MMIO stores and launches frames by DMA from its own
  // (module-area) buffer.
  nic::CountingSink sink{/*retain=*/16};
  nic::E1000Device device(&kernel_.mem(), &sink);
  ASSERT_TRUE(device.MapAt(kernel::kVmallocBase).ok());

  transform::CompileOptions options;
  auto loaded =
      loader_.Insmod(CompileAndSign(kirmods::KnicSource(), options));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  policy_->engine().ResetStats();
  auto init = (*loaded)->Call("knic_init", {kernel::kVmallocBase});
  ASSERT_TRUE(init.ok()) << init.status().ToString();
  ASSERT_TRUE((*loaded)->Call("knic_fill", {64, 0x20}).ok());
  for (uint64_t i = 1; i <= 10; ++i) {
    auto sent = (*loaded)->Call("knic_send", {kernel::kVmallocBase, 64});
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    EXPECT_EQ(*sent, i);
  }

  // Frames really crossed the device: sink and hardware counter agree.
  EXPECT_EQ(sink.packets(), 10u);
  EXPECT_EQ(sink.bytes(), 640u);
  auto hw = (*loaded)->Call("knic_sent_hw", {kernel::kVmallocBase});
  ASSERT_TRUE(hw.ok());
  EXPECT_EQ(*hw, 10u);

  // The payload is the module's patterned buffer.
  const auto frame = sink.RecentFrames().back();
  ASSERT_EQ(frame.size(), 64u);
  for (size_t i = 0; i < frame.size(); ++i) {
    ASSERT_EQ(frame[i], uint8_t(0x20 + i)) << i;
  }

  // And every driver access — including each MMIO register write — went
  // through the guard.
  EXPECT_GT(policy_->engine().stats().guard_calls, 100u);
  EXPECT_EQ(policy_->engine().stats().denied, 0u);
}

TEST_F(PipelineTest, KnicSendRecordsOnlyItsCallSeamSpans) {
  nic::CountingSink sink;
  nic::E1000Device device(&kernel_.mem(), &sink);
  ASSERT_TRUE(device.MapAt(kernel::kVmallocBase).ok());
  auto loaded = loader_.Insmod(CompileAndSign(kirmods::KnicSource()));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE((*loaded)->Call("knic_init", {kernel::kVmallocBase}).ok());
  ASSERT_TRUE((*loaded)->Call("knic_fill", {64, 0x20}).ok());

  // One send: its guards record no span of their own, so the
  // flight recorder holds exactly the call, its dispatch and its commit.
  trace::GlobalSpans().Reset();
  policy_->engine().ResetStats();
  ASSERT_TRUE((*loaded)->Call("knic_send", {kernel::kVmallocBase, 64}).ok());
  EXPECT_GT(policy_->engine().stats().guard_calls, 0u);
  // In completion order: the dispatch, the commit, then the call itself.
  const std::vector<trace::SpanEvent> spans = trace::GlobalSpans().Tail(0, 8);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].kind, trace::SpanKind::kEngineDispatch);
  EXPECT_EQ(spans[1].kind, trace::SpanKind::kJournalCommit);
  EXPECT_EQ(spans[2].kind, trace::SpanKind::kModuleCall);
  EXPECT_EQ(trace::GlobalSpans().total_recorded(), 3u);
}

TEST_F(PipelineTest, KnicBlockedFromMmioByPolicy) {
  nic::CountingSink sink;
  nic::E1000Device device(&kernel_.mem(), &sink);
  ASSERT_TRUE(device.MapAt(kernel::kVmallocBase).ok());
  auto loaded = loader_.Insmod(CompileAndSign(kirmods::KnicSource()));
  ASSERT_TRUE(loaded.ok());
  // Policy: the module may touch its own area but not the MMIO window.
  policy_->engine().SetMode(PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy_->engine()
                  .store()
                  .Add(Region{kernel::kVmallocBase, nic::kMmioBarSize,
                              policy::kProtNone})
                  .ok());
  EXPECT_THROW((void)(*loaded)->Call("knic_init", {kernel::kVmallocBase}),
               KernelPanic);
  EXPECT_EQ(sink.packets(), 0u);
}

TEST_F(PipelineTest, SimplifiedModuleBehavesIdentically) {
  transform::CompileOptions simplified;
  simplified.simplify = true;
  auto plain = loader_.Insmod(CompileAndSign(kirmods::RingbufSource()));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE((*plain)->Call("rb_init", {}).ok());
  ASSERT_TRUE((*plain)->Call("rb_push", {11}).ok());
  auto v1 = (*plain)->Call("rb_pop", {});
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(loader_.Rmmod("kop_ringbuf").ok());

  auto opt = loader_.Insmod(CompileAndSign(kirmods::RingbufSource(),
                                           simplified));
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  ASSERT_TRUE((*opt)->Call("rb_init", {}).ok());
  ASSERT_TRUE((*opt)->Call("rb_push", {11}).ok());
  auto v2 = (*opt)->Call("rb_pop", {});
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v1, *v2);
}

// ------------------------------------------------- driver-path end-to-end --

class DriverPathTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kMmioBase = kernel::kVmallocBase;

  DriverPathTest() : device_(&kernel_.mem(), &sink_) {
    EXPECT_TRUE(device_.MapAt(kMmioBase).ok());
    auto policy =
        PolicyModule::Insert(&kernel_, nullptr, PolicyMode::kDefaultDeny);
    EXPECT_TRUE(policy.ok());
    policy_ = std::move(*policy);
    // Paper-style policy: allow the whole kernel high half.
    EXPECT_TRUE(policy_->engine()
                    .store()
                    .Add(Region{kernel::kKernelHalfBase,
                                ~uint64_t{0} - kernel::kKernelHalfBase,
                                policy::kProtRW})
                    .ok());
  }

  Kernel kernel_;
  nic::CountingSink sink_{/*retain=*/16};
  nic::E1000Device device_;
  std::unique_ptr<PolicyModule> policy_;
};

TEST_F(DriverPathTest, GuardedDriverTransmitsThroughFullStack) {
  auto driver = e1000e::CaratDriver::Probe(
      e1000e::GuardedMemOps(&kernel_, &policy_->engine()), kMmioBase);
  ASSERT_TRUE(driver.ok()) << driver.status().ToString();

  net::DriverNetDevice<e1000e::CaratDriver> netdev(&*driver);
  net::PacketSocket socket(&kernel_, &netdev, /*noise_seed=*/7);
  socket.set_noise_enabled(false);
  net::PacketGun gun(&kernel_, &socket);

  net::TrialConfig config;
  config.packets = 500;
  config.frame_bytes = 128;
  auto trial = gun.RunTrial(config);
  ASSERT_TRUE(trial.ok()) << trial.status().ToString();

  EXPECT_EQ(sink_.packets(), 500u);
  EXPECT_EQ(sink_.bytes(), 500u * 128);
  EXPECT_GT(policy_->engine().stats().guard_calls, 500u * 10);
  EXPECT_EQ(policy_->engine().stats().denied, 0u);

  auto frames = sink_.RecentFrames();
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back(), net::MakeTestFrame(128).Serialize());
}

TEST_F(DriverPathTest, BaselineAndCaratDeliverIdenticalTraffic) {
  auto baseline =
      e1000e::BaselineDriver::Probe(e1000e::RawMemOps(&kernel_), kMmioBase);
  ASSERT_TRUE(baseline.ok());
  net::DriverNetDevice<e1000e::BaselineDriver> netdev(&*baseline);
  net::PacketSocket socket(&kernel_, &netdev, 7);
  socket.set_noise_enabled(false);
  net::PacketGun gun(&kernel_, &socket);
  net::TrialConfig config;
  config.packets = 200;
  config.frame_bytes = 256;
  ASSERT_TRUE(gun.RunTrial(config).ok());
  EXPECT_EQ(sink_.packets(), 200u);
  EXPECT_EQ(sink_.bytes(), 200u * 256);
  EXPECT_EQ(policy_->engine().stats().guard_calls, 0u);  // no guards
}

TEST_F(DriverPathTest, CaratCostsMoreCyclesButStaysUnderOnePercent) {
  auto run = [&](bool guarded) -> double {
    Kernel kernel;
    nic::CountingSink sink;
    nic::E1000Device device(&kernel.mem(), &sink);
    EXPECT_TRUE(device.MapAt(kMmioBase).ok());
    auto policy =
        PolicyModule::Insert(&kernel, nullptr, PolicyMode::kDefaultAllow);
    EXPECT_TRUE(policy.ok());
    net::TrialConfig config;
    config.packets = 300;
    config.frame_bytes = 128;
    double cycles = 0;
    if (guarded) {
      auto driver = e1000e::CaratDriver::Probe(
          e1000e::GuardedMemOps(&kernel, &(*policy)->engine()), kMmioBase);
      EXPECT_TRUE(driver.ok());
      net::DriverNetDevice<e1000e::CaratDriver> netdev(&*driver);
      net::PacketSocket socket(&kernel, &netdev, 7);
      socket.set_noise_enabled(false);
      net::PacketGun gun(&kernel, &socket);
      auto trial = gun.RunTrial(config);
      EXPECT_TRUE(trial.ok());
      cycles = trial->cycles_per_packet;
    } else {
      auto driver =
          e1000e::BaselineDriver::Probe(e1000e::RawMemOps(&kernel), kMmioBase);
      EXPECT_TRUE(driver.ok());
      net::DriverNetDevice<e1000e::BaselineDriver> netdev(&*driver);
      net::PacketSocket socket(&kernel, &netdev, 7);
      socket.set_noise_enabled(false);
      net::PacketGun gun(&kernel, &socket);
      auto trial = gun.RunTrial(config);
      EXPECT_TRUE(trial.ok());
      cycles = trial->cycles_per_packet;
    }
    EXPECT_EQ(sink.packets(), 300u);
    return cycles;
  };

  const double base_cycles = run(false);
  const double carat_cycles = run(true);
  EXPECT_GT(carat_cycles, base_cycles);
  // Headline result: overhead well under 1% on the (default R350) model.
  EXPECT_LT((carat_cycles - base_cycles) / base_cycles, 0.01);
}

TEST_F(DriverPathTest, BlockingMmioRegionPanicsGuardedDriverOnly) {
  auto baseline =
      e1000e::BaselineDriver::Probe(e1000e::RawMemOps(&kernel_), kMmioBase);
  EXPECT_TRUE(baseline.ok());

  // Carve the MMIO window out of the allowed kernel half. The fixture's
  // allow-all region covers it, so switch to an explicit deny region and
  // rely on first-match table order: put the deny first.
  policy_->engine().store().Clear();
  ASSERT_TRUE(policy_->engine()
                  .store()
                  .Add(Region{kMmioBase, nic::kMmioBarSize, policy::kProtNone})
                  .ok());
  ASSERT_TRUE(policy_->engine()
                  .store()
                  .Add(Region{kernel::kKernelHalfBase,
                              ~uint64_t{0} - kernel::kKernelHalfBase,
                              policy::kProtRW})
                  .ok());
  EXPECT_THROW(
      (void)e1000e::CaratDriver::Probe(
          e1000e::GuardedMemOps(&kernel_, &policy_->engine()), kMmioBase),
      KernelPanic);
  EXPECT_TRUE(kernel_.log().Contains("forbidden"));
}

TEST_F(DriverPathTest, IoctlDrivesPolicyLikePolicyManager) {
  // Reproduce Figure 1: userspace configures the policy via ioctl.
  using namespace policy;
  CaratRegionArg region{kernel::kDirectMapBase, 1ull << 20, kProtRW, 0};
  auto arg = PackArg(region);
  ASSERT_TRUE(kernel_.devices()
                  .Ioctl(kCaratDevicePath, KOP_IOCTL_ADD_REGION, arg)
                  .ok());
  CaratCountArg count;
  auto count_arg = PackArg(count);
  ASSERT_TRUE(kernel_.devices()
                  .Ioctl(kCaratDevicePath, KOP_IOCTL_COUNT_REGIONS, count_arg)
                  .ok());
  ASSERT_TRUE(UnpackArg(count_arg, &count));
  EXPECT_EQ(count.count, 2u);  // fixture region + the one just added
}

}  // namespace
}  // namespace kop
