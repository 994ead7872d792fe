// kop::fault — the deterministic fault-injection campaign. The promises
// under test: a seeded campaign replays bit-identically, both execution
// engines produce the same campaign verdicts, no injected fault breaks a
// kernel invariant, and every contained fault is visible in the trace.
#include <gtest/gtest.h>

#include <string>

#include "kop/fault/campaign.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/trace.hpp"
#include "kop/transform/compiler.hpp"

namespace kop {
namespace {

using fault::CampaignConfig;
using fault::CampaignReport;
using fault::FaultKind;
using fault::RunCampaign;
using kernel::ExecEngine;
using resilience::RecoveryPolicy;

TEST(FaultCampaignTest, CampaignMeetsTheFloorWithZeroInvariantViolations) {
  CampaignConfig config;
  config.seed = 1;
  CampaignReport report = RunCampaign(config);
  EXPECT_GE(report.trials.size(), 200u);
  EXPECT_EQ(report.invariant_violations, 0u);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.contained, 0u);
  EXPECT_GT(report.absorbed, 0u);
  EXPECT_EQ(report.contained + report.absorbed, report.trials.size());
  for (const auto& trial : report.trials) {
    EXPECT_TRUE(trial.invariant_failures.empty())
        << "trial " << trial.index << ": " << trial.invariant_failures[0];
  }
}

TEST(FaultCampaignTest, SameSeedReplaysBitIdentically) {
  CampaignConfig config;
  config.seed = 7;
  const std::string first = RunCampaign(config).ToJson();
  const std::string second = RunCampaign(config).ToJson();
  EXPECT_EQ(first, second);
}

TEST(FaultCampaignTest, BothEnginesReachIdenticalVerdicts) {
  CampaignConfig config;
  config.seed = 7;
  config.engine = ExecEngine::kBytecode;
  CampaignReport vm = RunCampaign(config);
  config.engine = ExecEngine::kInterp;
  CampaignReport interp = RunCampaign(config);

  ASSERT_EQ(vm.trials.size(), interp.trials.size());
  EXPECT_EQ(vm.contained, interp.contained);
  EXPECT_EQ(vm.absorbed, interp.absorbed);
  EXPECT_EQ(vm.invariant_violations, interp.invariant_violations);
  for (size_t i = 0; i < vm.trials.size(); ++i) {
    EXPECT_EQ(vm.trials[i].contained, interp.trials[i].contained)
        << "trial " << i << " (" << fault::FaultKindName(vm.trials[i].plan.kind)
        << " " << vm.trials[i].plan.scenario << ")";
    EXPECT_EQ(vm.trials[i].outcome, interp.trials[i].outcome) << "trial " << i;
    EXPECT_EQ(vm.trials[i].target, interp.trials[i].target) << "trial " << i;
  }
}

TEST(FaultCampaignTest, DifferentSeedsMaterializeDifferentPlans) {
  CampaignConfig config;
  config.seed = 1;
  const std::string one = RunCampaign(config).ToJson();
  config.seed = 2;
  const std::string two = RunCampaign(config).ToJson();
  EXPECT_NE(one, two);
}

TEST(FaultCampaignTest, RestartRecoverySurvivesTheCampaignToo) {
  CampaignConfig config;
  config.seed = 11;
  config.recovery = RecoveryPolicy::kRestart;
  CampaignReport report = RunCampaign(config);
  EXPECT_EQ(report.invariant_violations, 0u);
  EXPECT_TRUE(report.ok());
}

TEST(FaultCampaignTest, EverySpuriousViolationIsContained) {
  CampaignConfig config;
  config.seed = 3;
  CampaignReport report = RunCampaign(config);
  size_t spurious = 0;
  for (const auto& trial : report.trials) {
    if (trial.plan.kind != FaultKind::kSpuriousViolation) continue;
    ++spurious;
    EXPECT_TRUE(trial.contained)
        << "spurious violation at " << trial.target << " escaped containment";
  }
  EXPECT_GT(spurious, 0u);
}

TEST(FaultCampaignTest, EveryContainedFaultIsVisibleInTheTrace) {
  const trace::Counter* rollback_counter =
      trace::GlobalMetrics().GetCounter("resilience.rollbacks");
  const uint64_t counted_before = rollback_counter->value();
  const uint64_t traced_before =
      trace::GlobalTracer().event_count(trace::EventId::kModuleRollback);
  CampaignConfig config;
  config.seed = 5;
  CampaignReport report = RunCampaign(config);
  EXPECT_GT(report.contained, 0u);
  // Each contained trial rolled back at least once (restart re-inits can
  // add more rollbacks, never fewer), and the module.rollback tracepoint
  // must account for every rollback the metrics counter saw.
  const uint64_t counted = rollback_counter->value() - counted_before;
  EXPECT_GE(counted, report.contained);
  const uint64_t traced =
      trace::GlobalTracer().event_count(trace::EventId::kModuleRollback) -
      traced_before;
  EXPECT_EQ(traced, counted);
}

TEST(FaultCampaignTest, JsonReportIsWellFormedAndSelfDescribing) {
  CampaignConfig config;
  config.seed = 9;
  CampaignReport report = RunCampaign(config);
  const std::string json = report.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"seed\":9"), std::string::npos);
  EXPECT_NE(json.find("\"engine\":"), std::string::npos);
  EXPECT_NE(json.find("\"invariant_violations\":0"), std::string::npos);
  EXPECT_NE(json.find("\"results\":["), std::string::npos);
  const std::string text = report.ToText();
  EXPECT_NE(text.find("fault campaign: seed 9"), std::string::npos);
  EXPECT_NE(text.find("contained"), std::string::npos);
}

TEST(FaultCampaignTest, ControlFlowCorruptionFamilyBehavesPerCfiMode) {
  CampaignConfig config;
  config.seed = 13;
  CampaignReport report = RunCampaign(config);
  size_t flips = 0;
  size_t forges = 0;
  size_t forges_contained = 0;
  for (const auto& trial : report.trials) {
    const bool is_flip = trial.plan.kind == FaultKind::kCallTargetFlip;
    const bool is_forge = trial.plan.kind == FaultKind::kCallTargetForge;
    if (!is_flip && !is_forge) continue;
    flips += is_flip ? 1 : 0;
    forges += is_forge ? 1 : 0;
    forges_contained += (is_forge && trial.contained) ? 1 : 0;
    // RunTrial itself asserts that every contained control-flow trial's
    // postmortem carries reason "cfi" — a failure there surfaces here.
    EXPECT_TRUE(trial.invariant_failures.empty())
        << "trial " << trial.index << ": " << trial.invariant_failures[0];
  }
  EXPECT_GT(flips, 0u);
  EXPECT_GT(forges, 0u);
  if (transform::DefaultCfiChecks()) {
    // A forged target is never a legal-set member, so with CFI enforced
    // every forge trial must be contained. (A bit flip can land on another
    // legal member and be absorbed; flips carry no such guarantee.)
    EXPECT_EQ(forges_contained, forges);
  } else {
    // The ablation: with KOP_CFI=off the corrupted call is an absorbed
    // oops — or a silent hijack — never a containment event.
    EXPECT_EQ(forges_contained, 0u);
  }
}

TEST(FaultCampaignTest, FaultKindNamesAreDistinct) {
  const FaultKind kinds[] = {
      FaultKind::kSpuriousViolation, FaultKind::kGuardTableCorrupt,
      FaultKind::kStoreBitFlip,      FaultKind::kLoadBitFlip,
      FaultKind::kKmallocFail,       FaultKind::kWatchdogExpiry,
      FaultKind::kNicTxError,      FaultKind::kNicQueueDma,
      FaultKind::kNicDoorbellRange, FaultKind::kCallTargetFlip,
      FaultKind::kCallTargetForge};
  std::set<std::string> names;
  for (FaultKind kind : kinds) {
    const std::string name(fault::FaultKindName(kind));
    EXPECT_NE(name, "?");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(kinds));
}

}  // namespace
}  // namespace kop
