// kop::forge — the coverage-guided adversarial campaign. The promises
// under test: the parallel report is byte-identical to the serial one
// (the serial report is the oracle), the analysis-flagged path is
// reached and — under a deliberately weakened policy — exploited,
// minimization shrinks the exploit to a short deterministic repro whose
// token replays, the synthesized policy tightening verifiably
// re-contains it, and the campaign degrades gracefully when the engine
// has no coverage hooks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kop/fault/campaign.hpp"
#include "kop/fault/forge.hpp"
#include "kop/kir/coverage.hpp"

namespace kop {
namespace {

using fault::ForgeCase;
using fault::ForgeConfig;
using fault::ForgeReport;
using fault::MutOp;
using fault::MutOpKind;
using fault::PolicyFamily;
using fault::RunForge;
using kernel::ExecEngine;
using resilience::RecoveryPolicy;

ForgeConfig SmallConfig(PolicyFamily family,
                        ExecEngine engine = ExecEngine::kBytecode) {
  ForgeConfig config;
  config.seed = 7;
  config.trials = 48;
  config.engine = engine;
  config.policy = family;
  return config;
}

TEST(ForgeTest, ParallelReportIsByteIdenticalToSerial) {
  for (PolicyFamily family : {PolicyFamily::kHardened, PolicyFamily::kWeak}) {
    ForgeConfig serial = SmallConfig(family);
    serial.jobs = 1;
    ForgeConfig parallel = SmallConfig(family);
    parallel.jobs = 8;
    const std::string oracle = RunForge(serial).ToJson();
    EXPECT_EQ(RunForge(parallel).ToJson(), oracle)
        << "jobs=8 diverged from the serial oracle, family "
        << fault::PolicyFamilyName(family);
  }
}

TEST(ForgeTest, HardenedPolicyContainsEveryTrial) {
  ForgeReport report = RunForge(SmallConfig(PolicyFamily::kHardened));
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.invariant_violations, 0u);
  EXPECT_GT(report.contained, 0u);
  EXPECT_EQ(report.contained + report.absorbed, report.rows.size());
  // The analysis-directed seeds drive the campaign through the
  // provenance-flagged store even when the policy contains it.
  EXPECT_GT(report.flagged_reached, 0u);
  ASSERT_FALSE(report.analysis_targets.empty());
  bool provenance_target = false;
  for (const auto& target : report.analysis_targets) {
    provenance_target |=
        target.find("fg_stash") != std::string::npos;
  }
  EXPECT_TRUE(provenance_target)
      << "kop::analysis did not flag the inttoptr store";
}

TEST(ForgeTest, WeakPolicyYieldsMinimizedReplayableRepro) {
  ForgeConfig config = SmallConfig(PolicyFamily::kWeak);
  ForgeReport report = RunForge(config);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.invariant_violations, 0u);
  ASSERT_FALSE(report.repros.empty());
  for (const auto& repro : report.repros) {
    EXPECT_LE(repro.steps, 10u) << "minimizer left a long trail";
    EXPECT_TRUE(repro.replays) << "minimized case does not replay";
    ASSERT_FALSE(repro.token.empty());

    auto replayed = fault::ReplayForge(config, repro.token);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    EXPECT_TRUE(replayed->scribbled)
        << "token " << repro.token << " lost the violation";
  }
  // The policy-synthesis bridge: a verified tightening in the
  // policy_manager command syntax, covering the scribbled object.
  ASSERT_FALSE(report.suggestions.empty());
  for (const auto& suggestion : report.suggestions) {
    EXPECT_TRUE(suggestion.verified)
        << suggestion.manager_command << " did not re-contain the repro";
    EXPECT_EQ(suggestion.manager_command.rfind("policy_manager add", 0), 0u);
    EXPECT_EQ(suggestion.len, 0x40u);
  }
}

TEST(ForgeTest, CoverageFeedbackMatchesEngine) {
  ForgeReport vm = RunForge(SmallConfig(PolicyFamily::kHardened));
  EXPECT_GT(vm.covered_edges, 0u);
  EXPECT_NE(vm.coverage_digest, 0u);
  EXPECT_FALSE(vm.corpus.empty());
  EXPECT_FALSE(vm.distilled.empty());
  EXPECT_LE(vm.distilled.size(), vm.corpus.size());

  // The reference interpreter has no hooks: coverage must read zero,
  // and the campaign still finds the weak-policy violation via the
  // analysis-derived hints (graceful degradation, not silence).
  ForgeReport interp =
      RunForge(SmallConfig(PolicyFamily::kWeak, ExecEngine::kInterp));
  EXPECT_EQ(interp.covered_edges, 0u);
  EXPECT_GT(interp.invariant_violations, 0u);
}

TEST(ForgeTest, TokenRoundTripsThroughEncodeAndParse) {
  ForgeCase original;
  original.base_seed = 3;
  original.trail = {
      MutOp{MutOpKind::kSetArg, 1, 0xffff888000000000ULL},
      MutOp{MutOpKind::kFlipBit, 0, 17},
      MutOp{MutOpKind::kAddDelta, 4, static_cast<uint64_t>(-2)},
      MutOp{MutOpKind::kSetByte, 6, 0xa5},
      MutOp{MutOpKind::kPlanKind, 0, 2},
      MutOp{MutOpKind::kPlanPoint, 0, 5},
      MutOp{MutOpKind::kPlanDetail, 0, 0x1234},
  };
  const std::string token =
      fault::EncodeForgeToken(PolicyFamily::kWeak, 99, original);
  auto parsed = fault::ParseForgeToken(token);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->first, PolicyFamily::kWeak);
  EXPECT_EQ(parsed->second.first, 99u);
  EXPECT_TRUE(parsed->second.second == original);
  // Re-encoding the parse is the identity (canonical form).
  EXPECT_EQ(fault::EncodeForgeToken(parsed->first, parsed->second.first,
                                    parsed->second.second),
            token);
}

TEST(ForgeTest, MalformedTokensAreRejectedNotCrashed) {
  const char* bad[] = {
      "",
      "forge.v2:weak:7:1:",
      "forge.v1:weak",
      "forge.v1:mediocre:7:1:",
      "forge.v1:weak:zz:1:",
      "forge.v1:weak:7:zz:",
      "forge.v1:weak:7:1:q0.5",
      "forge.v1:weak:7:1:a1",
      "forge.v1:weak:7:1:a1.xyz",
      // Multi-op trails: a malformed slot, then a malformed value, each
      // behind a well-formed op.
      "forge.v1:weak:7:1:a1.5;fz3.2",
      "forge.v1:weak:7:1:a1.5;f3.2q",
  };
  for (const char* token : bad) {
    EXPECT_FALSE(fault::ParseForgeToken(token).ok())
        << "accepted malformed token: '" << token << "'";
  }
}

TEST(ForgeTest, CoverageMapMergeAndDigestAreOrderIndependent) {
  kir::CoverageMap a;
  kir::CoverageMap b;
  a.HitEdge(1, 0, 4);
  a.HitEdge(1, 4, 9);
  b.HitEdge(1, 4, 9);
  b.HitEdge(2, 0, 3);

  kir::CoverageMap ab;
  EXPECT_EQ(ab.MergeCountingNew(a), 2u);
  EXPECT_EQ(ab.MergeCountingNew(b), 1u);  // shared edge is not "new"
  kir::CoverageMap ba;
  EXPECT_EQ(ba.MergeCountingNew(b), 2u);
  EXPECT_EQ(ba.MergeCountingNew(a), 1u);
  EXPECT_EQ(ab.Digest(), ba.Digest());
  EXPECT_EQ(ab.CoveredSlots(), 3u);

  // Digest compares path sets, not heat: hammering a known edge does
  // not move it.
  const uint64_t digest = ab.Digest();
  for (int i = 0; i < 300; ++i) ab.HitEdge(1, 0, 4);  // also saturates
  EXPECT_EQ(ab.Digest(), digest);
}

// Satellite hardening: CampaignReport::ToJson must survive hostile
// strings (quotes, backslashes, control bytes) and keep its pinned
// field order — downstream CI diffs the raw bytes.
TEST(ForgeTest, CampaignJsonEscapesHostileStringsAndPinsFieldOrder) {
  fault::CampaignReport report;
  report.seed = 5;
  report.engine = "byte\"code\\";
  report.recovery = "qu\narantine";
  fault::TrialResult trial;
  trial.index = 0;
  trial.target = "site \"a\"\t<b>";
  trial.outcome = "contained\x01";
  trial.invariant_failures = {"heap\nresidue \\ leak"};
  report.trials.push_back(trial);
  report.invariant_violations = 1;

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("byte\\\"code\\\\"), std::string::npos) << json;
  EXPECT_NE(json.find("qu\\narantine"), std::string::npos);
  EXPECT_NE(json.find("site \\\"a\\\"\\t<b>"), std::string::npos);
  EXPECT_NE(json.find("contained\\u0001"), std::string::npos);
  EXPECT_NE(json.find("heap\\nresidue \\\\ leak"), std::string::npos);
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control byte leaked into JSON";
  }

  // Pinned top-level order: seed, engine, recovery, trials, contained,
  // absorbed, invariant_violations, then the trial rows.
  const char* keys[] = {"\"seed\"",      "\"engine\"",
                        "\"recovery\"",  "\"trials\"",
                        "\"contained\"", "\"absorbed\"",
                        "\"invariant_violations\""};
  size_t last = 0;
  for (const char* key : keys) {
    const size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << key << " missing: " << json;
    EXPECT_GT(at, last) << key << " out of pinned order";
    last = at;
  }
}

}  // namespace
}  // namespace kop
