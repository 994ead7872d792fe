// kop::forge — the coverage-guided adversarial campaign over the fault
// harness: the ACHyb-style loop closing ROADMAP's "adversarial
// co-pilot" item.
//
//   static analysis  ->  kop::analysis flags suspicious paths (stores it
//                        cannot prove, provenance warnings, unwrapped
//                        privileged calls) and its compare constants
//                        seed the mutation dictionary;
//   fuzzing          ->  a deterministic, seeded mutation engine over
//                        module entry-point arguments, input-buffer
//                        words and FaultPlan parameters drives those
//                        paths, guided by bytecode-VM edge coverage
//                        (kop/kir/coverage.hpp), with trials running in
//                        parallel across kop::smp CPUs;
//   confirmation     ->  an invariant-violating trial is shrunk by
//                        delta debugging to a minimal mutation trail
//                        that replays via `kopcc forge --replay`, and
//                        the corpus is distilled to the smallest
//                        covering seed set;
//   hardening        ->  confirmed unsafe reaches emit policy
//                        tightenings in policy_manager syntax, each
//                        verified by replaying the repro under the
//                        patched policy.
//
// Determinism contract: everything random is drawn from the seeded RNG
// in the serial batch-construction phase, workers draw nothing, and
// results/coverage merge in trial-index order — so the report is
// byte-identical for a given seed and config regardless of --jobs (the
// serial report is the oracle; CI diffs --jobs 1 against --jobs 8).
// The job count is therefore deliberately absent from the report.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kop/fault/campaign.hpp"

namespace kop::fault {

/// Policy family a forge campaign runs under. The hardened family denies
/// the protected kernel object (the PR-4-style policy); the weak family
/// deliberately omits that region — the planted vulnerability the CI
/// forge leg must find, minimize, and synthesize the fix for.
enum class PolicyFamily : uint8_t { kHardened, kWeak };

std::string_view PolicyFamilyName(PolicyFamily family);

/// One mutation step. A forge case is a base seed plus an ordered trail
/// of these; delta debugging minimizes the trail.
enum class MutOpKind : uint8_t {
  kSetArg,     // args[slot] = value (dictionary substitution)
  kFlipBit,    // args[slot] ^= 1 << (value % 64)
  kAddDelta,   // args[slot] += value (wrapping; value may encode -delta)
  kSetByte,    // byte (value >> 8) % 8 of args[slot] = value & 0xff
  kPlanKind,   // plan.kind = mutable-kind table [value % size]
  kPlanPoint,  // plan.point = value
  kPlanDetail, // plan.detail = value
};

std::string_view MutOpKindName(MutOpKind kind);

struct MutOp {
  MutOpKind kind = MutOpKind::kSetArg;
  uint8_t slot = 0;
  uint64_t value = 0;

  bool operator==(const MutOp&) const = default;
};

/// Fuzzed input width: [0]=latch key, [1]=stash address, [2]=stash
/// value, [3..4]=mix operands, [5..7]=input-buffer words.
inline constexpr size_t kForgeArgCount = 8;

struct ForgeCase {
  uint32_t base_seed = 0;     // index into the campaign's base-seed set
  std::vector<MutOp> trail;   // mutations applied to the base, in order

  bool operator==(const ForgeCase&) const = default;
};

struct ForgeConfig {
  uint64_t seed = 1;
  uint32_t trials = 96;
  uint32_t jobs = 1;          // worker CPUs; never serialized
  kernel::ExecEngine engine = kernel::DefaultExecEngine();
  resilience::RecoveryPolicy recovery =
      resilience::RecoveryPolicy::kQuarantine;
  PolicyFamily policy = PolicyFamily::kHardened;
  bool minimize = true;
};

/// One executed fuzz trial, merged into the report in index order.
struct ForgeTrialRow {
  uint32_t index = 0;
  ForgeCase input;
  FaultPlan plan;  // materialized (base + trail applied)
  std::array<uint64_t, kForgeArgCount> args{};
  TrialResult result;
  bool reached_flagged = false;  // the analysis-flagged store executed
  bool scribbled = false;        // protected kernel object overwritten
  uint64_t covered = 0;          // edge slots this trial covered
  uint32_t new_edges = 0;        // fresh vs the merged map, in index order
  bool in_corpus = false;        // kept as a mutation seed
};

struct MinimizedRepro {
  uint32_t trial = 0;     // index of the violating trial it shrinks
  uint32_t steps = 0;     // minimized mutation-trail length
  uint32_t probes = 0;    // delta-debugging re-executions spent
  bool replays = false;   // executed twice with identical outcome
  std::string failure;    // the invariant failure it reproduces
  std::string token;      // replay handle (kopcc forge --replay <token>)
};

struct PolicySuggestion {
  uint64_t base = 0;
  uint64_t len = 0;
  std::string reason;
  std::string manager_command;  // policy_manager `add` syntax
  bool verified = false;  // repro re-run under the patch => contained
};

struct ForgeReport {
  uint64_t seed = 0;
  uint32_t trials = 0;
  std::string engine;
  std::string recovery;
  std::string policy;  // "hardened" | "weak"
  uint32_t contained = 0;
  uint32_t absorbed = 0;
  uint32_t invariant_violations = 0;
  uint32_t flagged_reached = 0;   // trials that drove a flagged path
  uint64_t covered_edges = 0;     // merged-map covered slots
  uint64_t coverage_digest = 0;   // order-independent covered-set hash
  std::vector<std::string> analysis_targets;  // flagged "analysis:@fn/block"
  std::vector<uint64_t> dictionary;  // harvested constants + landmarks
  std::vector<ForgeTrialRow> rows;
  std::vector<uint32_t> corpus;     // row indices kept as seeds
  std::vector<uint32_t> distilled;  // greedy smallest covering subset
  std::vector<MinimizedRepro> repros;
  std::vector<PolicySuggestion> suggestions;

  bool ok() const { return invariant_violations == 0; }
  /// Deterministic serializations: pinned field order, every string
  /// escaped, no timestamps/pointers/host state, and no job count.
  std::string ToJson() const;
  std::string ToText() const;
};

ForgeReport RunForge(const ForgeConfig& config);

/// Execute one replay token (family/seed/base/trail) serially and return
/// its row. config.engine/recovery still apply; the token's policy
/// family and seed override config's.
Result<ForgeTrialRow> ReplayForge(const ForgeConfig& config,
                                  const std::string& token);

std::string EncodeForgeToken(PolicyFamily family, uint64_t seed,
                             const ForgeCase& forge_case);
Result<std::pair<PolicyFamily, std::pair<uint64_t, ForgeCase>>>
ParseForgeToken(const std::string& token);

/// The forge fuzz target (KIR source, "kop_forge"): a latch opened by a
/// three-byte-compare staircase (the coverage-guided unlock), an
/// analysis-flagged store through an integer-materialized pointer
/// behind it (the provenance warning the campaign exists to reach), a
/// small input buffer, and a branchy mixer.
std::string ForgeTargetSource();

}  // namespace kop::fault
