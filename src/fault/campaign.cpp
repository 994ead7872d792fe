#include "kop/fault/campaign.hpp"

#include <map>
#include <sstream>

#include "kop/analysis/diagnostics.hpp"
#include "kop/trace/trace.hpp"
#include "kop/util/rng.hpp"
#include "trial_harness.hpp"

namespace kop::fault {
namespace {

using internal::Calibration;
using internal::RunTrial;

// Adversarial-content hardening: trial targets and invariant messages
// embed module-controlled strings (site labels, status text), so every
// string field goes through the shared analysis::JsonEscape — quotes,
// backslashes and control bytes included — and the field order below is
// pinned (DESIGN.md §17): reports must parse and diff cleanly no matter
// what a fuzzed module smuggles into a label.
std::string JsonEscape(const std::string& in) {
  return analysis::JsonEscape(in);
}

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSpuriousViolation: return "spurious-violation";
    case FaultKind::kGuardTableCorrupt: return "guard-table-corrupt";
    case FaultKind::kStoreBitFlip: return "store-bit-flip";
    case FaultKind::kLoadBitFlip: return "load-bit-flip";
    case FaultKind::kKmallocFail: return "kmalloc-fail";
    case FaultKind::kWatchdogExpiry: return "watchdog-expiry";
    case FaultKind::kNicTxError: return "nic-tx-error";
    case FaultKind::kNicQueueDma: return "nic-queue-dma";
    case FaultKind::kNicDoorbellRange: return "nic-doorbell-range";
    case FaultKind::kCallTargetFlip: return "call-target-flip";
    case FaultKind::kCallTargetForge: return "call-target-forge";
    case FaultKind::kNoFault: return "none";
  }
  return "?";
}

std::string FaultTargetSource() {
  return R"(module "kop_faulty"

global @slots size 64 rw
global @count size 8 rw
global @acc size 8 rw

extern func @kmalloc(i64) -> i64
extern func @kfree(i64) -> i64

func @init() -> i64 {
entry:
  store i64 0, @count
  store i64 0, @acc
  ret i64 1
}

func @grab(i64 %bytes) -> i64 {
entry:
  %a = call i64 @kmalloc(i64 %bytes)
  %z = icmp eq i64 %a, 0
  br %z, fail, keep
keep:
  %c = load i64, @count
  %slot = gep @slots, i64 %c, 8, 0
  store i64 %a, %slot
  %c1 = add i64 %c, 1
  store i64 %c1, @count
  ret i64 %a
fail:
  ret i64 0
}

func @drop() -> i64 {
entry:
  %c = load i64, @count
  %z = icmp eq i64 %c, 0
  br %z, none, free
free:
  %c1 = sub i64 %c, 1
  %slot = gep @slots, i64 %c1, 8, 0
  %a = load i64, %slot
  %r = call i64 @kfree(i64 %a)
  store i64 0, %slot
  store i64 %c1, @count
  ret i64 1
none:
  ret i64 0
}

func @poke(ptr %addr, i64 %value) -> i64 {
entry:
  store i64 %value, %addr
  %v = load i64, %addr
  ret i64 %v
}

func @churn(i64 %n) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %done = icmp uge i64 %i, %n
  br %done, out, body
body:
  %v = load i64, @acc
  %v1 = add i64 %v, %i
  store i64 %v1, @acc
  %i1 = add i64 %i, 1
  jmp loop
out:
  %r = load i64, @acc
  ret i64 %r
}
)";
}

CampaignReport RunCampaign(const CampaignConfig& config) {
  CampaignReport report;
  report.seed = config.seed;
  report.engine = std::string(kernel::ExecEngineName(config.engine));
  report.recovery =
      std::string(resilience::RecoveryPolicyName(config.recovery));

  // Calibration pass: one fault-free trial per scenario (watchdog budget
  // 0 disables the watchdog) measures the injection-point spaces.
  const std::vector<std::string> scenarios = {"ringbuf", "faulty", "knic",
                                              "knic_mq", "icall"};
  std::map<std::string, Calibration> calibration;
  for (const std::string& scenario : scenarios) {
    FaultPlan warmup{FaultKind::kWatchdogExpiry, scenario, 0, 0};
    Calibration measured;
    TrialResult dry = RunTrial(config, warmup, &measured);
    if (!dry.invariant_failures.empty() || dry.contained) {
      TrialResult& bad = report.trials.emplace_back(std::move(dry));
      bad.outcome = "calibration trial misbehaved: " + bad.outcome;
      ++report.invariant_violations;
    }
    calibration[scenario] = measured;
  }

  // Materialize the plan list from the seeded RNG. Everything random is
  // drawn HERE, in a fixed order, so the plan list (and therefore the
  // whole campaign) replays bit-identically for a given seed.
  Xoshiro256 rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<FaultPlan> plans;
  for (const std::string& scenario : scenarios) {
    for (uint64_t site = 0; site < calibration[scenario].sites; ++site) {
      plans.push_back({FaultKind::kSpuriousViolation, scenario, site, 0});
    }
    for (uint64_t g = 0; g < 3; ++g) {
      plans.push_back({FaultKind::kGuardTableCorrupt, scenario, g, 0});
    }
  }
  for (const std::string& scenario : {std::string("ringbuf"),
                                      std::string("faulty")}) {
    const Calibration& cal = calibration[scenario];
    for (int i = 0; i < 30 && cal.stores > 0; ++i) {
      plans.push_back({FaultKind::kStoreBitFlip, scenario,
                       rng.NextInRange(1, cal.stores), rng.NextBelow(64)});
    }
    for (int i = 0; i < 20 && cal.loads > 0; ++i) {
      plans.push_back({FaultKind::kLoadBitFlip, scenario,
                       rng.NextInRange(1, cal.loads), rng.NextBelow(64)});
    }
  }
  for (uint64_t call = 1; call <= 3; ++call) {
    plans.push_back({FaultKind::kKmallocFail, "faulty", call, 0});
  }
  for (uint64_t budget : {1ull, 2ull, 5ull, 10ull, 20ull, 50ull, 100ull,
                          200ull, 500ull, 1000ull, 2000ull, 5000ull,
                          2000000ull}) {
    plans.push_back({FaultKind::kWatchdogExpiry, "faulty", budget, 0});
  }
  for (uint64_t budget : {1ull, 5ull, 25ull, 125ull, 625ull, 3125ull}) {
    plans.push_back({FaultKind::kWatchdogExpiry, "ringbuf", budget, 0});
  }
  {
    const Calibration& cal = calibration["knic"];
    for (int i = 0; i < 20 && cal.stores > 0; ++i) {
      plans.push_back({FaultKind::kNicTxError, "knic",
                       rng.NextInRange(1, cal.stores), rng.NextBelow(64)});
    }
  }
  // Multi-queue NIC family, parameterized by queue: bit flips confined
  // to one queue's ring slots and doorbell (the mq workload's per-queue
  // store space is 13 deep), plus the PR-4 spin-bug regression on every
  // queue — the Nth TDT write forced out of range must wedge that queue
  // only, never spin the driver or leak a descriptor.
  for (uint64_t q = 0; q < 4; ++q) {
    for (int i = 0; i < 5; ++i) {
      plans.push_back({FaultKind::kNicQueueDma, "knic_mq", q,
                       (rng.NextInRange(1, 13) << 6) | rng.NextBelow(64)});
    }
    plans.push_back({FaultKind::kNicDoorbellRange, "knic_mq", q,
                     rng.NextInRange(1, 3)});
  }
  // Control-flow corruption family: every vtable pointer load of the
  // icall workload flipped at a seed-chosen bit (plus extra seed-chosen
  // load/bit pairs), and every vtable slot force-fed each forged target
  // (NULL, wild, and a real-but-illegal function).
  for (uint64_t nth = 1; nth <= 9; ++nth) {
    plans.push_back(
        {FaultKind::kCallTargetFlip, "icall", nth, rng.NextBelow(64)});
  }
  for (int i = 0; i < 12; ++i) {
    plans.push_back({FaultKind::kCallTargetFlip, "icall",
                     rng.NextInRange(1, 9), rng.NextBelow(64)});
  }
  for (uint64_t nth = 1; nth <= 3; ++nth) {
    for (uint64_t forge = 0; forge < 3; ++forge) {
      plans.push_back({FaultKind::kCallTargetForge, "icall", nth, forge});
    }
  }
  // Pad with extra bit flips until the campaign reaches its floor.
  size_t round_robin = 0;
  while (plans.size() < config.min_trials) {
    const std::string& scenario = scenarios[round_robin++ % scenarios.size()];
    const Calibration& cal = calibration[scenario];
    if (cal.stores == 0) continue;
    const bool nic_scenario = scenario.rfind("knic", 0) == 0;
    plans.push_back({nic_scenario ? FaultKind::kNicTxError
                                  : FaultKind::kStoreBitFlip,
                     scenario, rng.NextInRange(1, cal.stores),
                     rng.NextBelow(64)});
  }

  for (const FaultPlan& plan : plans) {
    TrialResult result = RunTrial(config, plan, nullptr);
    result.index = static_cast<uint32_t>(report.trials.size());
    if (result.contained) {
      ++report.contained;
    } else {
      ++report.absorbed;
    }
    if (!result.invariant_failures.empty()) ++report.invariant_violations;
    report.trials.push_back(std::move(result));
  }
  return report;
}

Result<flight::PostmortemBundle> RunPostmortemDemo(
    const CampaignConfig& config) {
  const FaultPlan plan{FaultKind::kSpuriousViolation, "ringbuf", config.seed,
                       0};
  // The bundle embeds the flight-recorder tails, so the demo's
  // determinism contract (same seed -> same bundle, any process) needs
  // the recorder surfaces cleared of whatever ran before us.
  trace::GlobalTracer().Reset();
  trace::GlobalSpans().Reset();
  const TrialResult trial = RunTrial(config, plan, nullptr);
  flight::PostmortemBundle bundle;
  if (!flight::GlobalPostmortems().Latest(&bundle)) {
    return Internal("postmortem demo produced no bundle (outcome: " +
                    trial.outcome + ")");
  }
  return bundle;
}

std::string CampaignReport::ToJson() const {
  std::ostringstream out;
  out << "{\"seed\":" << seed << ",\"engine\":\"" << JsonEscape(engine)
      << "\",\"recovery\":\"" << JsonEscape(recovery)
      << "\",\"trials\":" << trials.size() << ",\"contained\":" << contained
      << ",\"absorbed\":" << absorbed
      << ",\"invariant_violations\":" << invariant_violations
      << ",\"results\":[";
  for (size_t i = 0; i < trials.size(); ++i) {
    const TrialResult& trial = trials[i];
    if (i != 0) out << ",";
    out << "{\"i\":" << trial.index << ",\"kind\":\""
        << FaultKindName(trial.plan.kind) << "\",\"scenario\":\""
        << JsonEscape(trial.plan.scenario)
        << "\",\"point\":" << trial.plan.point
        << ",\"detail\":" << trial.plan.detail << ",\"target\":\""
        << JsonEscape(trial.target) << "\",\"contained\":"
        << (trial.contained ? "true" : "false") << ",\"postmortem\":"
        << (trial.postmortem ? "true" : "false") << ",\"outcome\":\""
        << JsonEscape(trial.outcome) << "\",\"invariant_failures\":[";
    for (size_t f = 0; f < trial.invariant_failures.size(); ++f) {
      if (f != 0) out << ",";
      out << "\"" << JsonEscape(trial.invariant_failures[f]) << "\"";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

std::string CampaignReport::ToText() const {
  std::ostringstream out;
  out << "fault campaign: seed " << seed << ", engine " << engine
      << ", recovery " << recovery << "\n";
  out << trials.size() << " trials: " << contained << " contained, "
      << absorbed << " absorbed, " << invariant_violations
      << " invariant violation(s)\n";
  std::map<std::string, std::pair<uint32_t, uint32_t>> by_kind;
  for (const TrialResult& trial : trials) {
    auto& row = by_kind[std::string(FaultKindName(trial.plan.kind))];
    ++row.first;
    if (trial.contained) ++row.second;
  }
  for (const auto& [kind, row] : by_kind) {
    out << "  " << kind << ": " << row.second << "/" << row.first
        << " contained\n";
  }
  for (const TrialResult& trial : trials) {
    for (const std::string& failure : trial.invariant_failures) {
      out << "  INVARIANT #" << trial.index << " ["
          << FaultKindName(trial.plan.kind) << " " << trial.plan.scenario
          << " " << trial.target << "]: " << failure << "\n";
    }
  }
  return out.str();
}

}  // namespace kop::fault
