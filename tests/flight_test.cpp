// kop::flight acceptance: span recording and latency percentiles, the
// SMP-merged Chrome-trace export, and the postmortem pipeline — a
// contained module call must leave a deterministic, schema-valid bundle
// behind, surfaced through procfs, the carat ioctl, and lsmod's
// LastEvent column, byte-identical across engines.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "kop/fault/campaign.hpp"
#include "kop/flight/postmortem.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kernel/procfs.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/policy/ioctl_abi.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/signing/signer.hpp"
#include "kop/sim/clock.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/executor.hpp"
#include "kop/trace/exporters.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/span.hpp"
#include "kop/trace/trace.hpp"
#include "kop/transform/compiler.hpp"

namespace kop {
namespace {

using kernel::ExecEngine;
using kernel::Kernel;
using kernel::KernelConfig;
using kernel::LoadedModule;
using kernel::ModuleLoader;
using resilience::RecoveryPolicy;
using trace::Log2Histogram;
using trace::SpanKind;

constexpr uint64_t kForbiddenAddr = 0x1000;  // inside the denied user range

const char* kVictimSource = R"(module "kop_victim"

global @counter size 8 rw

func @bump() -> i64 {
entry:
  %c = load i64, @counter
  %c1 = add i64 %c, 1
  store i64 %c1, @counter
  ret i64 %c1
}

func @violate(ptr %addr) -> i64 {
entry:
  store i64 1, %addr
  ret i64 0
}
)";

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

KernelConfig SmallKernel() {
  KernelConfig config;
  config.ram_bytes = 4ull << 20;
  config.kernel_text_bytes = 1ull << 20;
  config.module_area_bytes = 4ull << 20;
  config.user_bytes = 1ull << 20;
  return config;
}

/// Kernel + default-allow policy (user range denied) + victim module,
/// primed so one Call("violate") is contained on the chosen policy.
struct Rig {
  explicit Rig(ExecEngine engine,
               RecoveryPolicy recovery = RecoveryPolicy::kQuarantine)
      : kernel(SmallKernel()), loader(&kernel, TrustedKeyring()) {
    auto inserted = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    EXPECT_TRUE(inserted.ok()) << inserted.status().ToString();
    policy = std::move(*inserted);
    policy->engine().SetViolationAction(policy::ViolationAction::kQuarantine);
    EXPECT_TRUE(policy->engine()
                    .store()
                    .Add(policy::Region{0, kernel::kUserSpaceEnd,
                                        policy::kProtNone})
                    .ok());
    loader.set_engine(engine);
    loader.set_recovery_policy(recovery);
    auto loaded = loader.Insmod(CompileAndSign(kVictimSource));
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    module = *loaded;
  }

  Kernel kernel;
  ModuleLoader loader;
  std::unique_ptr<policy::PolicyModule> policy;
  LoadedModule* module = nullptr;
};

const ExecEngine kEngines[] = {ExecEngine::kBytecode, ExecEngine::kInterp};

// ------------------------------------------------- percentile pins --

TEST(Log2HistogramTest, PercentileOnEmptyHistogramIsZero) {
  Log2Histogram hist;
  EXPECT_DOUBLE_EQ(hist.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(99.9), 0.0);
}

TEST(Log2HistogramTest, PercentileInterpolatesWithinOneBucket) {
  // Four observations of 1.0 all land in bucket [1, 2). The interpolated
  // quantile walks k/c of the way through the bucket: rank p/100*4.
  Log2Histogram hist;
  for (int i = 0; i < 4; ++i) hist.Observe(1.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(50.0), 1.5);
  EXPECT_DOUBLE_EQ(hist.Percentile(75.0), 1.75);
  EXPECT_DOUBLE_EQ(hist.Percentile(100.0), 2.0);
}

TEST(Log2HistogramTest, PercentileInterpolatesAcrossBuckets) {
  // 4 in [1,2), 4 in [2,4), 2 in [4,8): n = 10.
  Log2Histogram hist;
  for (int i = 0; i < 4; ++i) hist.Observe(1.0);
  for (int i = 0; i < 4; ++i) hist.Observe(2.0);
  for (int i = 0; i < 2; ++i) hist.Observe(5.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(10.0), 1.25);   // rank 1 of 4 in [1,2)
  EXPECT_DOUBLE_EQ(hist.Percentile(50.0), 2.5);    // rank 1 of 4 in [2,4)
  EXPECT_DOUBLE_EQ(hist.Percentile(90.0), 6.0);    // rank 1 of 2 in [4,8)
  EXPECT_DOUBLE_EQ(hist.Percentile(99.0), 7.8);
  EXPECT_DOUBLE_EQ(hist.Percentile(100.0), 8.0);
}

TEST(Log2HistogramTest, PercentileFromBucketsMatchesInstance) {
  Log2Histogram hist;
  for (int i = 0; i < 4; ++i) hist.Observe(1.0);
  for (int i = 0; i < 2; ++i) hist.Observe(5.0);
  std::array<uint64_t, Log2Histogram::kBuckets> folded{};
  for (size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    folded[i] = hist.bucket(i);
  }
  for (double p : {0.0, 25.0, 50.0, 90.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(Log2Histogram::PercentileFromBuckets(folded, p),
                     hist.Percentile(p));
  }
}

// ------------------------------------------------------------ spans --

/// Pins a controllable virtual clock on the global tracer (spans read
/// their timestamps from it) and restores the previous one on exit.
class ScopedSpanClock {
 public:
  ScopedSpanClock() : prev_(trace::GlobalTracer().clock()) {
    trace::GlobalTracer().SetClock(&clock_);
  }
  ~ScopedSpanClock() { trace::GlobalTracer().SetClock(prev_); }
  sim::VirtualClock& clock() { return clock_; }

 private:
  sim::VirtualClock clock_;
  const sim::VirtualClock* prev_;
};

TEST(SpanRecorderTest, NestedSpansRecordDepthDurationAndKind) {
  ScopedSpanClock scoped;
  trace::SpanRecorder recorder(64);

  const uint64_t outer = recorder.BeginSpan();
  scoped.clock().Advance(3.0);
  const uint64_t inner = recorder.BeginSpan();
  scoped.clock().Advance(5.0);
  recorder.EndSpan(SpanKind::kEngineDispatch, inner, 0xabc);
  scoped.clock().Advance(2.0);
  recorder.EndSpan(SpanKind::kModuleCall, outer, 0);

  const auto spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Ordered by begin time: the outer call first, the nested dispatch after.
  EXPECT_EQ(spans[0].kind, SpanKind::kModuleCall);
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[0].duration(), 10u);
  EXPECT_EQ(spans[1].kind, SpanKind::kEngineDispatch);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[1].duration(), 5u);
  EXPECT_EQ(spans[1].arg, 0xabcu);

  const auto stats = recorder.Stats(SpanKind::kEngineDispatch);
  EXPECT_EQ(stats.count, 1u);
  EXPECT_DOUBLE_EQ(stats.sum, 5.0);
  EXPECT_EQ(recorder.total_recorded(), 2u);
}

TEST(SpanRecorderTest, TailReturnsNewestOldestFirst) {
  ScopedSpanClock scoped;
  trace::SpanRecorder recorder(64);
  for (int i = 0; i < 10; ++i) {
    const uint64_t begin = recorder.BeginSpan();
    scoped.clock().Advance(1.0);
    recorder.EndSpan(SpanKind::kJournalCommit, begin, static_cast<uint64_t>(i));
  }
  const auto tail = recorder.Tail(0, 4);
  ASSERT_EQ(tail.size(), 4u);
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].arg, 6u + i);  // the newest four, oldest first
  }
}

TEST(SpanRecorderTest, DeepSpanOnCpu15KeepsEveryFieldPastAWrap) {
  ScopedSpanClock scoped;
  trace::SpanRecorder recorder(64);
  constexpr SpanKind kLast =
      static_cast<SpanKind>(trace::kSpanKindCount - 1);
  constexpr uint64_t kOpen = 400;    // nesting depth reached
  constexpr uint64_t kClosed = 100;  // innermost spans closed; ring is 64
  smp::ScopedCpu bind(15);
  std::vector<uint64_t> begins;
  for (uint64_t d = 0; d < kOpen; ++d) {
    scoped.clock().Advance(2.0);
    begins.push_back(recorder.BeginSpan());
  }
  std::vector<uint64_t> ends;
  for (uint64_t k = 0; k < kClosed; ++k) {
    scoped.clock().Advance(5.0);
    const uint64_t depth = kOpen - 1 - k;
    recorder.EndSpan(kLast, begins[depth], 0xe5ull << 56 | depth << 16 | k);
    ends.push_back(static_cast<uint64_t>(scoped.clock().NowCycles()));
  }

  const auto tail = recorder.Tail(15, 64);
  ASSERT_EQ(tail.size(), 64u);
  for (size_t i = 0; i < tail.size(); ++i) {
    const uint64_t k = kClosed - 64 + i;
    const uint64_t depth = kOpen - 1 - k;
    const trace::SpanEvent& span = tail[i];
    EXPECT_EQ(span.seq, k);
    EXPECT_EQ(span.kind, kLast);
    EXPECT_EQ(span.cpu, 15u);
    EXPECT_EQ(span.depth, depth);
    EXPECT_GE(span.depth, 256u);
    EXPECT_EQ(span.begin_tsc, begins[depth]);
    EXPECT_EQ(span.end_tsc, ends[k]);
    EXPECT_EQ(span.arg, 0xe5ull << 56 | depth << 16 | k);
  }
  EXPECT_EQ(recorder.CpuCount(15, kLast), kClosed);
}

TEST(SpanRecorderTest, DisabledRecorderDropsSpans) {
  trace::SpanRecorder recorder(64);
  recorder.SetEnabled(false);
  // The KOP_SPAN fast path checks the flag before BeginSpan; emulate it.
  if (recorder.enabled()) {
    const uint64_t begin = recorder.BeginSpan();
    recorder.EndSpan(SpanKind::kModuleCall, begin, 0);
  }
  EXPECT_EQ(recorder.total_recorded(), 0u);
  recorder.SetEnabled(true);
}

TEST(SpanRecorderTest, KopSpanMacroFeedsGlobalRecorderAndHonorsEnable) {
  trace::GlobalSpans().Reset();
  const uint64_t before = trace::GlobalSpans().total_recorded();
  { KOP_SPAN(kModuleCall); }
  EXPECT_EQ(trace::GlobalSpans().total_recorded(), before + 1);

  trace::GlobalSpans().SetEnabled(false);
  { KOP_SPAN(kModuleCall); }
  EXPECT_EQ(trace::GlobalSpans().total_recorded(), before + 1);
  trace::GlobalSpans().SetEnabled(true);
}

TEST(SpanRecorderTest, ModuleCallEmitsTheInstrumentedSeams) {
  trace::GlobalSpans().Reset();
  Rig rig(ExecEngine::kBytecode);
  ASSERT_TRUE(rig.module->Call("bump", {}).ok());
  EXPECT_GE(trace::GlobalSpans().Stats(SpanKind::kModuleCall).count, 1u);
  EXPECT_GE(trace::GlobalSpans().Stats(SpanKind::kEngineDispatch).count, 1u);
  EXPECT_GE(trace::GlobalSpans().Stats(SpanKind::kJournalCommit).count, 1u);
  // Prometheus exposition names the folded summaries.
  const std::string prom = trace::GlobalSpans().RenderPrometheus();
  EXPECT_NE(prom.find("kop_span_duration_cycles{span=\"span.module_call\""),
            std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
}

// --------------------------------------- chrome export under SMP --

TEST(ChromeTraceSmpTest, FourCpuExportMergesMonotonicallyWithTid) {
  ScopedSpanClock scoped;
  auto& tracer = trace::GlobalTracer();
  tracer.Reset();
  trace::GlobalSpans().Reset();

  // Each CPU advances its own virtual clock at a different rate, so the
  // per-CPU rings interleave: a pure concatenation would NOT be sorted.
  smp::RunOnCpus(4, [&](uint32_t cpu) {
    for (uint64_t i = 0; i < 32; ++i) {
      scoped.clock().Advance(1.0 + cpu);
      tracer.Record(trace::EventId::kGuardCheck, cpu, i);
      KOP_SPAN(kModuleCall, cpu);
    }
  });

  const auto records = tracer.ring().Snapshot();
  ASSERT_EQ(records.size(), 4u * 32u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].tsc, records[i].tsc)
        << "merged stream not monotonic at " << i;
    if (records[i - 1].tsc == records[i].tsc) {
      EXPECT_LT(std::pair(records[i - 1].cpu, records[i - 1].seq),
                std::pair(records[i].cpu, records[i].seq));
    }
  }

  const std::string json =
      trace::ExportChromeTrace(records, trace::GlobalSpans().Snapshot());
  for (uint32_t cpu = 0; cpu < 4; ++cpu) {
    EXPECT_NE(json.find("\"tid\":" + std::to_string(cpu)),
              std::string::npos)
        << "cpu " << cpu << " missing from export";
  }
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos)
      << "spans should export as real-duration events";

  tracer.Reset();
}

// ----------------------------------------------- postmortem bundles --

const char* const kSchemaKeys[] = {
    "\"schema\":\"kop.flight.postmortem/v2\"", "\"module\":",
    "\"engine\":", "\"reason\":", "\"what\":", "\"recovery\":", "\"cpu\":",
    "\"tsc\":", "\"violation\":", "\"vm\":", "\"journal\":{", "\"heap\":{",
    "\"restarts\":{", "\"policy\":", "\"heatmap\":[", "\"trace\":[",
};

TEST(PostmortemTest, ContainmentCapturesBundlePresentIffContained) {
  for (ExecEngine engine : kEngines) {
    flight::GlobalPostmortems().Reset();
    Rig rig(engine);

    // A clean call contains nothing and captures nothing.
    ASSERT_TRUE(rig.module->Call("bump", {}).ok());
    EXPECT_EQ(flight::GlobalPostmortems().incidents(), 0u);

    // A violation is contained and captures exactly one bundle.
    ASSERT_FALSE(rig.module->Call("violate", {kForbiddenAddr}).ok());
    EXPECT_EQ(flight::GlobalPostmortems().incidents(), 1u);

    flight::PostmortemBundle bundle;
    ASSERT_TRUE(flight::GlobalPostmortems().Latest(&bundle));
    EXPECT_EQ(bundle.module, "kop_victim");
    EXPECT_EQ(bundle.reason, "violation");
    EXPECT_EQ(bundle.recovery, "quarantine");
    EXPECT_TRUE(bundle.has_violation);
    EXPECT_EQ(bundle.violation_addr, kForbiddenAddr);
    EXPECT_NE(bundle.site_label.find("kop_victim:violate"),
              std::string::npos)
        << bundle.site_label;
    ASSERT_TRUE(bundle.vm.valid);
    EXPECT_EQ(bundle.vm.function, "violate");
    EXPECT_GE(bundle.journal_rollbacks, 1u);
    EXPECT_FALSE(bundle.tails.empty());
    EXPECT_TRUE(bundle.policy.present);

    const std::string json = bundle.ToJson();
    for (const char* key : kSchemaKeys) {
      EXPECT_NE(json.find(key), std::string::npos)
          << "missing schema key " << key;
    }
  }
}

TEST(PostmortemTest, RestartRecoveryRecordsRestartDecision) {
  flight::GlobalPostmortems().Reset();
  Rig rig(ExecEngine::kBytecode, RecoveryPolicy::kRestart);
  ASSERT_FALSE(rig.module->Call("violate", {kForbiddenAddr}).ok());
  EXPECT_GE(flight::GlobalPostmortems().incidents(), 1u);
  // The first bundle of the incident carries the containment decision.
  const auto all = flight::GlobalPostmortems().All();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front().reason, "violation");
  EXPECT_EQ(all.front().recovery, "restart");
}

TEST(PostmortemTest, DemoBundleIsDeterministicAndEngineIdentical) {
  fault::CampaignConfig config;
  config.seed = 11;

  std::string normalized[2];
  for (int e = 0; e < 2; ++e) {
    config.engine = kEngines[e];
    auto bundle = fault::RunPostmortemDemo(config);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    EXPECT_TRUE(bundle->has_violation);
    EXPECT_FALSE(bundle->site_label.empty());
    EXPECT_FALSE(bundle->tails.empty());
    flight::PostmortemBundle neutral = *bundle;
    neutral.engine = "(normalized)";
    normalized[e] = neutral.ToJson();
  }
  // The engine name is the only sanctioned cross-engine difference.
  EXPECT_EQ(normalized[0], normalized[1]);

  // Same seed, same engine, run again: byte-identical without help.
  config.engine = kEngines[0];
  auto again = fault::RunPostmortemDemo(config);
  ASSERT_TRUE(again.ok());
  flight::PostmortemBundle neutral = *again;
  neutral.engine = "(normalized)";
  EXPECT_EQ(neutral.ToJson(), normalized[0]);
}

TEST(PostmortemTest, CampaignInvariantHoldsAcrossRecoveryModes) {
  // The campaign asserts present-iff-contained per trial internally; a
  // clean report means the invariant held for every injection.
  for (RecoveryPolicy recovery :
       {RecoveryPolicy::kQuarantine, RecoveryPolicy::kRestart}) {
    fault::CampaignConfig config;
    config.seed = 5;
    config.min_trials = 24;
    config.recovery = recovery;
    const auto report = fault::RunCampaign(config);
    EXPECT_TRUE(report.ok()) << report.ToText();
    bool saw_contained_with_bundle = false;
    for (const auto& trial : report.trials) {
      EXPECT_EQ(trial.contained, trial.postmortem)
          << trial.outcome << " (" << trial.target << ")";
      saw_contained_with_bundle |= trial.contained && trial.postmortem;
    }
    EXPECT_TRUE(saw_contained_with_bundle);
  }
}

// ------------------------------------------------ kernel surfacing --

TEST(PostmortemTest, ProcfsAndIoctlSurfaceTheLatestBundle) {
  flight::GlobalPostmortems().Reset();
  EXPECT_EQ(kernel::ProcPostmortem(), "none\n");

  Rig rig(ExecEngine::kBytecode);
  ASSERT_FALSE(rig.module->Call("violate", {kForbiddenAddr}).ok());

  const std::string proc = kernel::ProcPostmortem();
  EXPECT_NE(proc.find("kop.flight.postmortem/v2"), std::string::npos);
  EXPECT_NE(proc.find("kop_victim"), std::string::npos);

  policy::CaratPostmortemArg reply;
  auto arg = policy::PackArg(reply);
  ASSERT_TRUE(rig.kernel.devices()
                  .Ioctl(policy::kCaratDevicePath,
                         policy::CARAT_IOC_READ_POSTMORTEM, arg)
                  .ok());
  ASSERT_TRUE(policy::UnpackArg(arg, &reply));
  EXPECT_EQ(reply.present, 1u);
  EXPECT_EQ(reply.truncated, 0u);
  EXPECT_GE(reply.incidents, 1u);
  const std::string json(reply.json);
  EXPECT_EQ(json.size(), reply.total_len);
  EXPECT_NE(json.find("kop.flight.postmortem/v2"), std::string::npos);
}

TEST(PostmortemTest, LsmodShowsLastEventColumn) {
  Rig rig(ExecEngine::kBytecode);

  std::string lsmod = kernel::ProcModules(rig.loader);
  EXPECT_NE(lsmod.find("LastEvent"), std::string::npos);
  EXPECT_EQ(rig.module->last_event_reason(), nullptr);

  ASSERT_FALSE(rig.module->Call("violate", {kForbiddenAddr}).ok());
  // Quarantine is the final transition of the incident, stamped on the
  // virtual clock.
  ASSERT_NE(rig.module->last_event_reason(), nullptr);
  EXPECT_STREQ(rig.module->last_event_reason(), "quarantine");
  lsmod = kernel::ProcModules(rig.loader);
  const std::string expect =
      "quarantine@" + std::to_string(rig.module->last_event_tsc());
  EXPECT_NE(lsmod.find(expect), std::string::npos) << lsmod;
}

}  // namespace
}  // namespace kop
