// Extension 6: what the forge campaign costs and buys. Two questions:
//
//   1. Parallel scaling. The same seeded campaign runs at --jobs 1 and
//      --jobs 8; the reports must be byte-identical (the serial report
//      is the oracle) and the 8-way leg must actually buy wall-clock
//      throughput. The paper-facing acceptance is >= 5.3x trials/sec at
//      8 hardware threads; hosts with fewer cores cannot express that
//      speedup, so the default gate scales with hardware_concurrency
//      and KOP_EXT6_GATE overrides it outright (same convention as
//      KOP_ABL6_GATE: a loosening knob for noisy shared runners, the
//      built-in default is the local acceptance).
//
//   2. Coverage dispatch cost. The VM's edge hooks are disarmed unless
//      a trial arms a ScopedCoverage sink. This bench drives the forge
//      target module's branchy loop directly and prices the hooks in
//      both states: disarmed (the tax every non-forge workload pays, one
//      null check per edge) and armed (what a fuzzing trial pays). Two
//      gates: the virtual clock is the contract — coverage observes the
//      clock and never advances it, so cycles/call must be IDENTICAL
//      between the legs — and the armed wall-time overhead must stay
//      within KOP_EXT6_COV_GATE (default 5%).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kop/fault/forge.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kir/coverage.hpp"

#include "common/experiment.hpp"
#include "common/module_rig.hpp"

namespace {

using WallClock = std::chrono::steady_clock;
using kop::fault::ForgeConfig;
using kop::fault::ForgeReport;
using kop::fault::PolicyFamily;
using kop::bench::GateEnv;
using kop::bench::MustCall;
using kop::kernel::ExecEngine;
using kop::kernel::LoadedModule;

double Seconds(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// One guarded testbed around the forge target module, bytecode engine
/// (the only engine with coverage hooks).
struct DispatchRig {
  kop::bench::ModuleRig rig;
  LoadedModule* module = rig.Load(kop::fault::ForgeTargetSource(), {},
                                  ExecEngine::kBytecode);

  DispatchRig() { MustCall(*module, "fg_init", {}); }

  // The branchy loop: fg_mix takes 8 iterations with a data-dependent
  // branch each, so every call crosses ~20 control-flow edges — the
  // densest coverage traffic the target offers.
  void Calls(uint64_t calls) {
    for (uint64_t i = 0; i < calls; ++i) {
      MustCall(*module, "fg_mix", {i * 3 + 1, 0xa5});
    }
  }
};

struct DispatchLeg {
  double wall_ns_per_call = 0.0;
  double cycles_per_call = 0.0;
  bool ok = false;
};

DispatchLeg MeasureDispatch(kop::kir::CoverageMap* sink, uint64_t calls,
                            int rounds) {
  DispatchLeg leg;
  DispatchRig rig;
  rig.Calls(calls / 4 + 1);  // warmup
  kop::kir::ScopedCoverage arm(sink);
  // Cycles from round 1 (deterministic, directly comparable across
  // legs and builds); later rounds only chase the best wall time.
  for (int r = 0; r < rounds; ++r) {
    const double cycles_before = rig.rig.kernel().clock().MaxCycles();
    const auto start = WallClock::now();
    rig.Calls(calls);
    const double wall_ns = Seconds(start) * 1e9 / calls;
    if (!leg.ok) {
      leg.cycles_per_call =
          (rig.rig.kernel().clock().MaxCycles() - cycles_before) / calls;
      leg.wall_ns_per_call = wall_ns;
      leg.ok = true;
    } else {
      leg.wall_ns_per_call = std::min(leg.wall_ns_per_call, wall_ns);
    }
  }
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  using kop::bench::PositionalArg;
  const char* usage = "[trials=192] [rounds=3] [calls=4000]";
  const uint32_t trials = PositionalArg<uint32_t>(argc, argv, 1, 192, usage);
  const int rounds = PositionalArg<int>(argc, argv, 2, 3, usage);
  const uint64_t calls = PositionalArg(argc, argv, 3, 4000, usage);
  bool failed = false;
  std::string csv = "leg,jobs,trials_per_sec,speedup,identical\n";

  // ---- Leg 1: campaign throughput, serial vs 8-way -------------------
  ForgeConfig config;
  config.seed = 7;
  config.trials = trials;
  config.policy = PolicyFamily::kHardened;
  config.minimize = false;

  std::printf("%-10s %5s %16s %9s %10s\n", "leg", "jobs", "trials_per_sec",
              "speedup", "identical");
  double serial_tps = 0.0;
  std::string oracle;
  for (const uint32_t jobs : {1u, 8u}) {
    config.jobs = jobs;
    double best = 0.0;
    std::string json;
    for (int r = 0; r < rounds; ++r) {
      const auto start = WallClock::now();
      ForgeReport report = RunForge(config);
      const double tps = trials / Seconds(start);
      best = std::max(best, tps);
      json = report.ToJson();
    }
    const bool identical = jobs == 1 ? true : json == oracle;
    if (jobs == 1) {
      oracle = json;
      serial_tps = best;
    } else if (!identical) {
      std::fprintf(stderr,
                   "ACCEPTANCE MISS: jobs=8 report diverged from the serial "
                   "oracle\n");
      failed = true;
    }
    const double speedup = jobs == 1 ? 1.0 : best / serial_tps;
    std::printf("%-10s %5u %16.1f %8.2fx %10s\n", "campaign", jobs, best,
                speedup, identical ? "yes" : "NO");
    char line[128];
    std::snprintf(line, sizeof(line), "campaign,%u,%.1f,%.3f,%d\n", jobs, best,
                  speedup, identical ? 1 : 0);
    csv += line;
    if (jobs == 8) {
      // Paper-facing acceptance: >= 5.3x at 8 hardware threads. Hosts
      // with fewer cores cannot express it; scale the default down to
      // two-thirds of the parallelism that physically exists (floor
      // 0.5: 8 workers on one core must at least not collapse).
      const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
      const double scaled =
          hc >= 8 ? 5.3 : std::max(0.5, 0.66 * static_cast<double>(hc));
      const double gate = GateEnv("KOP_EXT6_GATE", scaled);
      if (speedup < gate) {
        std::fprintf(stderr,
                     "ACCEPTANCE MISS: 8-way speedup %.2fx < %.2fx gate "
                     "(%u hardware threads)\n",
                     speedup, gate, hc);
        failed = true;
      }
    }
  }

  // ---- Leg 2: coverage dispatch cost, disarmed vs armed --------------
  kop::kir::CoverageMap map;
  const DispatchLeg disarmed = MeasureDispatch(nullptr, calls, rounds);
  const DispatchLeg armed = MeasureDispatch(&map, calls, rounds);
  const double overhead_pct =
      (armed.wall_ns_per_call - disarmed.wall_ns_per_call) /
      disarmed.wall_ns_per_call * 100.0;
  std::printf("\n%-10s %16s %16s %13s\n", "coverage", "wall_ns_call",
              "cycles_call", "overhead_pct");
  std::printf("%-10s %16.1f %16.1f %+12.2f%%\n", "disarmed",
              disarmed.wall_ns_per_call, disarmed.cycles_per_call, 0.0);
  std::printf("%-10s %16.1f %16.1f %+12.2f%%\n", "armed",
              armed.wall_ns_per_call, armed.cycles_per_call, overhead_pct);
  csv += "leg,state,wall_ns_per_call,cycles_per_call,overhead_pct\n";
  char line[160];
  std::snprintf(line, sizeof(line), "coverage,disarmed,%.1f,%.1f,0.000\n",
                disarmed.wall_ns_per_call, disarmed.cycles_per_call);
  csv += line;
  std::snprintf(line, sizeof(line), "coverage,armed,%.1f,%.1f,%.3f\n",
                armed.wall_ns_per_call, armed.cycles_per_call, overhead_pct);
  csv += line;

  // The virtual clock is the contract: hooks observe it, never charge.
  if (disarmed.cycles_per_call != armed.cycles_per_call) {
    std::fprintf(stderr,
                 "ACCEPTANCE MISS: coverage hooks moved the virtual clock "
                 "(%.1f vs %.1f cycles/call)\n",
                 disarmed.cycles_per_call, armed.cycles_per_call);
    failed = true;
  }
  const double cov_gate = GateEnv("KOP_EXT6_COV_GATE", 5.0);
  if (overhead_pct > cov_gate) {
    std::fprintf(stderr,
                 "ACCEPTANCE MISS: armed coverage overhead %.2f%% exceeds "
                 "the %.1f%% budget\n",
                 overhead_pct, cov_gate);
    failed = true;
  }

  kop::bench::WriteResultsFile("ext6_forge.csv", csv);
  return failed ? 1 : 0;
}
