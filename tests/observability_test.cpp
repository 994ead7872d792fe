// Acceptance for the observability stack (kop::trace): a violation run
// must attribute the denial to the exact injected guard site, fill the
// guard-latency histogram, and leave a Chrome trace with events from
// every instrumented subsystem — guard, loader, NIC, and ioctl.
#include <gtest/gtest.h>

#include <string>

#include "kop/e1000e/driver.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kernel/procfs.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/policy/ioctl_abi.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/policy/procfs.hpp"
#include "kop/signing/signer.hpp"
#include "kop/trace/exporters.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/site.hpp"
#include "kop/trace/span.hpp"
#include "kop/trace/trace.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop {
namespace {

using kernel::Kernel;
using kernel::ModuleLoader;
using policy::PolicyMode;
using policy::PolicyModule;
using policy::Region;

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

/// The rogue_module scenario, instrumented: load the scribbler under a
/// read-only direct map, let one read through, deny one write.
class ObservabilityTest : public ::testing::Test {
 protected:
  ObservabilityTest() : kernel_(), loader_(&kernel_, TrustedKeyring()) {
    trace::GlobalTracer().Reset();
    trace::GlobalMetrics().Reset();
    auto policy =
        PolicyModule::Insert(&kernel_, nullptr, PolicyMode::kDefaultAllow);
    EXPECT_TRUE(policy.ok()) << policy.status().ToString();
    policy_ = std::move(*policy);
    policy_->engine().SetViolationAction(policy::ViolationAction::kLogOnly);
    EXPECT_TRUE(policy_->engine()
                    .store()
                    .Add(Region{kernel_.direct_map_base(),
                                kernel_.direct_map_size(),
                                policy::kProtRead})
                    .ok());
  }

  /// Loads the scribbler and runs one allowed read + one denied write
  /// against core kernel data. Returns the violating address.
  uint64_t RunScribbleScenario() {
    auto loaded = loader_.Insmod(CompileAndSign(kirmods::ScribblerSource()));
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto core_data = kernel_.heap().Kmalloc(4096);
    EXPECT_TRUE(core_data.ok());
    EXPECT_TRUE((*loaded)->Call("peek", {*core_data}).ok());
    EXPECT_TRUE(
        (*loaded)->Call("scribble", {*core_data, 0x41414141}).ok());
    return *core_data;
  }

  Kernel kernel_;
  ModuleLoader loader_;
  std::unique_ptr<PolicyModule> policy_;
};

TEST_F(ObservabilityTest, DenialAttributedToExactGuardSite) {
  const uint64_t addr = RunScribbleScenario();

  const auto violations = policy_->engine().RecentViolations();
  ASSERT_FALSE(violations.empty());
  const auto& violation = violations.back();
  EXPECT_EQ(violation.addr, addr);
  ASSERT_NE(violation.site, trace::kUnknownSite)
      << "denial carried no guard-site token";

  // The token resolves to the exact guard the compiler injected: the
  // store guard inside @scribble of the scribbler module.
  auto info = trace::GlobalSites().Find(violation.site);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->module_name, "kop_scribbler");
  EXPECT_EQ(info->function, "scribble");
  EXPECT_EQ(info->detail, "store size=8");

  // And the hot-site table charges exactly one denial to that site.
  bool found = false;
  for (const policy::HotSite& row : policy_->engine().HotSites()) {
    if (row.site != violation.site) continue;
    found = true;
    EXPECT_EQ(row.denied, 1u);
    EXPECT_GE(row.hits, 1u);
  }
  EXPECT_TRUE(found);

  // The proc view renders the same attribution for the operator.
  const std::string proc = policy::ProcHotSites(policy_->engine());
  EXPECT_NE(proc.find("kop_scribbler:scribble"), std::string::npos) << proc;
}

TEST_F(ObservabilityTest, GuardLatencyHistogramFills) {
  RunScribbleScenario();
  const trace::Log2Histogram* hist =
      trace::GlobalMetrics().GetHistogram("guard.latency_cycles");
  EXPECT_GT(hist->count(), 0u);
  EXPECT_GT(hist->NonZeroBuckets(), 0u);
  EXPECT_GT(hist->mean(), 0.0);

  const std::string proc = policy::ProcGuardStats(policy_->engine());
  EXPECT_NE(proc.find("guard.latency_cycles"), std::string::npos);
  EXPECT_NE(proc.find("denied:"), std::string::npos);
}

/// A kernel with an e1000 device at kVmallocBase behind a default-allow
/// policy: the guarded NIC that the native e1000e driver and the KIR
/// kop_knic module both drive.
struct NicRig {
  NicRig() {
    EXPECT_TRUE(device.MapAt(kernel::kVmallocBase).ok());
    auto inserted =
        PolicyModule::Insert(&kernel, nullptr, PolicyMode::kDefaultAllow);
    EXPECT_TRUE(inserted.ok());
    policy = std::move(*inserted);
  }
  policy::PolicyEngine& engine() { return policy->engine(); }

  /// Loads kop_knic and stages a 64-byte frame for knic_send.
  kernel::LoadedModule* LoadKnic() {
    auto knic = loader.Insmod(CompileAndSign(kirmods::KnicSource()));
    EXPECT_TRUE(knic.ok()) << knic.status().ToString();
    EXPECT_TRUE((*knic)->Call("knic_init", {kernel::kVmallocBase}).ok());
    EXPECT_TRUE((*knic)->Call("knic_fill", {64, 0x20}).ok());
    return *knic;
  }

  Kernel kernel;
  ModuleLoader loader{&kernel, TrustedKeyring()};
  nic::CountingSink sink{/*retain=*/64};
  nic::E1000Device device{&kernel.mem(), &sink};
  std::unique_ptr<PolicyModule> policy;
};

// One accounting path: the pinned inline guards of native drivers and KIR
// modules feed both guard histograms exactly as the out-of-line Guard()
// does, so each histogram counts every guard call on either path.
TEST(GuardHistogramTest, CountsEqualGuardCallsForNativeAndKirModules) {
  const trace::Log2Histogram* latency =
      trace::GlobalMetrics().GetHistogram("guard.latency_cycles");
  const trace::Log2Histogram* depth =
      trace::GlobalMetrics().GetHistogram("policy.lookup_depth");
  const trace::Counter* deopt =
      trace::GlobalMetrics().GetCounter("guard.deopt");

  {  // Native e1000e: pinned XmitFrame / XmitBatch / NapiPoll entries.
    NicRig rig;
    auto driver = e1000e::CaratDriver::Probe(
        e1000e::GuardedMemOps(&rig.kernel, &rig.engine()),
        kernel::kVmallocBase);
    ASSERT_TRUE(driver.ok());
    auto frame = rig.kernel.heap().Kmalloc(2048, 64);
    ASSERT_TRUE(frame.ok());
    trace::GlobalMetrics().Reset();
    rig.engine().ResetStats();
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(driver->XmitFrame(*frame, 128).ok());
    }
    std::vector<e1000e::TxFrame> batch(4, e1000e::TxFrame{*frame, 128});
    uint32_t queued = 0;
    ASSERT_TRUE(driver->XmitBatch(0, batch.data(), 4, &queued).ok());
    ASSERT_TRUE(driver->NapiPoll(0, 8, nullptr).ok());
    const uint64_t guards = rig.engine().stats().guard_calls;
    EXPECT_GT(guards, 16u * 17);
    EXPECT_EQ(deopt->value(), 0u);
    EXPECT_EQ(latency->count(), guards);
    EXPECT_EQ(depth->count(), guards);
  }

  {  // KIR kop_knic through the loader: the engines' pinned inline path.
    NicRig rig;
    kernel::LoadedModule* knic = rig.LoadKnic();
    ASSERT_NE(knic, nullptr);
    trace::GlobalMetrics().Reset();
    rig.engine().ResetStats();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(knic->Call("knic_send", {kernel::kVmallocBase, 64}).ok());
    }
    EXPECT_EQ(rig.sink.packets(), 8u);
    const uint64_t guards = rig.engine().stats().guard_calls;
    EXPECT_GT(guards, 0u);
    EXPECT_EQ(deopt->value(), 0u);
    EXPECT_EQ(latency->count(), guards);
    EXPECT_EQ(depth->count(), guards);
  }
}

// Instrumentation never moves the virtual clock: the same guarded
// traffic, run once with tracepoints and spans disarmed and once armed,
// costs the same virtual cycles and guard calls and puts the same bytes
// on the wire. Disarmed, it records nothing.
struct TrafficRun {
  double cycles = 0;
  uint64_t guard_calls = 0;
  std::vector<std::vector<uint8_t>> frames;
  uint64_t trace_records = 0;
  uint64_t spans = 0;
};

/// Runs `traffic` on `rig` with tracepoints and spans armed or disarmed,
/// then re-arms them (the shipped default).
template <typename Traffic>
TrafficRun Measure(NicRig& rig, bool armed, Traffic traffic) {
  trace::GlobalTracer().Reset();
  trace::GlobalSpans().Reset();
  rig.engine().ResetStats();
  trace::GlobalTracer().SetEnabled(armed);
  trace::GlobalSpans().SetEnabled(armed);
  const double start = rig.kernel.clock().NowCycles();
  traffic();
  TrafficRun run;
  run.cycles = rig.kernel.clock().NowCycles() - start;
  run.trace_records = trace::GlobalTracer().ring().total_appended();
  run.spans = trace::GlobalSpans().total_recorded();
  trace::GlobalTracer().SetEnabled(true);
  trace::GlobalSpans().SetEnabled(true);
  run.guard_calls = rig.engine().stats().guard_calls;
  run.frames = rig.sink.RecentFrames();
  return run;
}

/// Sixteen pinned native e1000e XmitFrame calls.
TrafficRun RunNativeXmit(bool armed) {
  NicRig rig;
  auto driver = e1000e::CaratDriver::Probe(
      e1000e::GuardedMemOps(&rig.kernel, &rig.engine()),
      kernel::kVmallocBase);
  EXPECT_TRUE(driver.ok());
  auto frame = rig.kernel.heap().Kmalloc(2048, 64);
  EXPECT_TRUE(frame.ok());
  return Measure(rig, armed, [&] {
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(driver->XmitFrame(*frame, 128).ok());
    }
  });
}

/// Eight KIR kop_knic knic_send calls through the loader.
TrafficRun RunKnicSend(bool armed) {
  NicRig rig;
  kernel::LoadedModule* knic = rig.LoadKnic();
  return Measure(rig, armed, [&] {
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(knic->Call("knic_send", {kernel::kVmallocBase, 64}).ok());
    }
  });
}

TEST(ObservabilityArmingTest, DisarmedAndArmedRunsCostTheSameVirtualCycles) {
  for (auto* run_traffic : {&RunNativeXmit, &RunKnicSend}) {
    const TrafficRun disarmed = run_traffic(false);
    const TrafficRun armed = run_traffic(true);
    EXPECT_GT(armed.cycles, 0.0);
    EXPECT_EQ(disarmed.cycles, armed.cycles);
    EXPECT_GT(armed.guard_calls, 0u);
    EXPECT_EQ(disarmed.guard_calls, armed.guard_calls);
    EXPECT_FALSE(armed.frames.empty());
    EXPECT_EQ(disarmed.frames, armed.frames);
    EXPECT_EQ(disarmed.trace_records, 0u);
    EXPECT_EQ(disarmed.spans, 0u);
    EXPECT_GT(armed.trace_records + armed.spans, 0u);
  }
  trace::GlobalTracer().Reset();
  trace::GlobalSpans().Reset();
}

TEST_F(ObservabilityTest, ChromeTraceCoversEverySubsystem) {
  RunScribbleScenario();

  // NIC leg: a real device behind the knic module's transmit path.
  nic::CountingSink sink;
  nic::E1000Device device(&kernel_.mem(), &sink);
  ASSERT_TRUE(device.MapAt(kernel::kVmallocBase).ok());
  auto knic = loader_.Insmod(CompileAndSign(kirmods::KnicSource()));
  ASSERT_TRUE(knic.ok()) << knic.status().ToString();
  ASSERT_TRUE((*knic)->Call("knic_init", {kernel::kVmallocBase}).ok());
  ASSERT_TRUE((*knic)->Call("knic_fill", {64, 0x20}).ok());
  ASSERT_TRUE((*knic)->Call("knic_send", {kernel::kVmallocBase, 64}).ok());
  EXPECT_EQ(sink.packets(), 1u);

  // ioctl leg: the policy-manager stats call through /dev/carat.
  policy::CaratStatsArg stats;
  auto arg = policy::PackArg(stats);
  ASSERT_TRUE(kernel_.devices()
                  .Ioctl(policy::kCaratDevicePath,
                         policy::CARAT_IOC_GET_STATS, arg)
                  .ok());

  const std::string json =
      trace::ExportChromeTrace(trace::GlobalTracer());
  for (const char* category : {"guard", "loader", "nic", "ioctl"}) {
    EXPECT_NE(json.find("\"cat\":\"" + std::string(category) + "\""),
              std::string::npos)
        << "no " << category << " events in the trace";
  }
  // The denial itself is in the ring, attributed.
  EXPECT_NE(json.find("\"name\":\"guard.deny\""), std::string::npos);
  EXPECT_GT(trace::GlobalTracer().event_count(trace::EventId::kNicXmit), 0u);
  EXPECT_GT(trace::GlobalTracer().event_count(trace::EventId::kIoctl), 0u);

  // The ftrace-style proc view counts every subsystem too.
  const std::string proc = kernel::ProcTracepoints();
  EXPECT_NE(proc.find("guard.deny"), std::string::npos);
  EXPECT_NE(proc.find("nic.xmit"), std::string::npos);
}

TEST_F(ObservabilityTest, TraceAndHotSiteIoctls) {
  RunScribbleScenario();

  policy::CaratTraceArg trace_reply;
  auto trace_arg = policy::PackArg(trace_reply);
  ASSERT_TRUE(kernel_.devices()
                  .Ioctl(policy::kCaratDevicePath,
                         policy::CARAT_IOC_READ_TRACE, trace_arg)
                  .ok());
  ASSERT_TRUE(policy::UnpackArg(trace_arg, &trace_reply));
  ASSERT_GT(trace_reply.count, 0u);
  EXPECT_GT(trace_reply.total, 0u);
  // Records come out oldest-first with monotonic sequence numbers.
  for (uint32_t i = 1; i < trace_reply.count; ++i) {
    EXPECT_LT(trace_reply.records[i - 1].seq, trace_reply.records[i].seq);
  }

  policy::CaratHotSitesArg sites_reply;
  auto sites_arg = policy::PackArg(sites_reply);
  ASSERT_TRUE(kernel_.devices()
                  .Ioctl(policy::kCaratDevicePath,
                         policy::CARAT_IOC_GET_HOT_SITES, sites_arg)
                  .ok());
  ASSERT_TRUE(policy::UnpackArg(sites_arg, &sites_reply));
  ASSERT_GT(sites_reply.count, 0u);
  bool attributed = false;
  for (uint32_t i = 0; i < sites_reply.count; ++i) {
    if (sites_reply.sites[i].denied > 0 &&
        std::string(sites_reply.sites[i].label).find("kop_scribbler") !=
            std::string::npos) {
      attributed = true;
    }
  }
  EXPECT_TRUE(attributed);
}

}  // namespace
}  // namespace kop
