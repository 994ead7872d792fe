// Ablation 6: proof-driven guard elision + inline fast-path guards.
// PR goal: close the guarded/unguarded gap on the knic xmit hot path to
// <= 1.3x on the bytecode engine (from ~2.45x with every guard taking
// the out-of-line external-call path).
//
// Two parts come out of one binary:
//
//  - xmit ratio: abl4's harness — every variant on a bare engine from
//    the loader's own slot builder (bench::ModuleRig::LoadBare), so the
//    kernel resolver routes recognized guard calls to the policy
//    module's inline fast path (a pinned-frame range check inside the
//    engine) and only deopts pay the external-call slow path. The
//    unguarded baseline cannot pass insmod, and LoadedModule::Call's
//    transaction would add tens of ns per send to one side of the ratio
//    only, so guarded and unguarded variants share the bare call path.
//    Variants: {interp, bytecode} x {unguarded, guarded KOP_ELIDE=off,
//    guarded KOP_ELIDE=on}. The acceptance ratio is guarded-elide /
//    unguarded per engine.
//
//  - smp sweep: the ext4 harness (insmod + per-CPU contexts) on a
//    guard-dense kernel whose duplicate same-base loads the elision pass
//    widens into covers, at 1 and 8 CPUs, elision on/off. Guards per
//    kilocycle on the virtual clock is the contract number; the elided
//    counter in the CSV proves subsumed members stay accounted (they
//    fold across CPUs like every other stat).
//
// The flight recorder stays at its always-on default for the smp sweep
// (that is the shipping configuration). The xmit ratio is measured
// spans-off: ext5_flight prices the recorder separately, and the ratio
// is about guard cost, not tracing cost — both numerator and denominator
// shed the same per-span work.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "kop/kernel/module_loader.hpp"
#include "kop/kir/engine.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/policy/engine.hpp"
#include "kop/smp/executor.hpp"
#include "kop/trace/span.hpp"
#include "kop/transform/compiler.hpp"

#include "common/experiment.hpp"
#include "common/module_rig.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using kop::bench::ModuleRig;
using kop::kernel::ExecEngine;
using kop::kernel::LoadedModule;

// ------------------------------------------------------------ xmit part --

/// One variant on its own rig (kernel + NIC + policy), kept alive across
/// interleaved timing rounds.
struct XmitHarness {
  const char* label;
  bool bytecode;
  bool guards;
  bool elide;

  std::unique_ptr<ModuleRig> rig{};
  kop::kir::ExecutionEngine* engine = nullptr;
  double best_ns = 0.0;

  void Build() {
    rig = std::make_unique<ModuleRig>(/*with_nic=*/true);
    kop::transform::CompileOptions options;
    options.inject_guards = guards;
    options.elide_guards = elide;
    engine = &rig->LoadBare(kop::kirmods::KnicSource(), options,
                            bytecode ? ExecEngine::kBytecode
                                     : ExecEngine::kInterp);
  }

  uint64_t Call(const std::string& fn, const std::vector<uint64_t>& args) {
    return kop::bench::MustCall(*engine, fn, args);
  }

  double TimeCall(const std::string& fn, const std::vector<uint64_t>& args,
                  uint64_t calls) {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < calls; ++i) Call(fn, args);
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  }

  void KeepBest(double ns) {
    best_ns = best_ns == 0.0 ? ns : std::min(best_ns, ns);
  }
};

// ------------------------------------------------------------- smp part --

/// Guard-dense kernel with a same-block duplicate-load cluster: the
/// elision pass widens the two %addr load guards into one covering
/// carat_guard_range (elided = 1), so the elide leg runs 2 policy checks
/// per iteration where the no-elide leg runs 3, and the subsumed member
/// lands in the elided counter instead of vanishing.
const char* kSmpSource = R"(module "abl6_smp"

func @pump(ptr %addr, i64 %n) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %done = icmp uge i64 %i, %n
  br %done, out, body
body:
  %a = load i64, %addr
  %b = load i64, %addr
  %v = add i64 %a, %b
  %v1 = xor i64 %v, %i
  store i64 %v1, %addr
  %i1 = add i64 %i, 1
  jmp loop
out:
  ret i64 %i
}
)";

constexpr uint32_t kMaxCpus = 8;
constexpr uint64_t kStripeBytes = 512;

/// A rig with one module-area stripe per CPU allowed in the policy,
/// then the module loaded and `cpus` execution contexts prepared.
struct SmpRig {
  ModuleRig rig;
  LoadedModule* module = nullptr;
  uint64_t stripes[kMaxCpus] = {};

  SmpRig(ExecEngine engine, uint32_t cpus, bool elide) {
    for (uint32_t cpu = 0; cpu < kMaxCpus; ++cpu) {
      auto addr = rig.kernel().heap().Kmalloc(kStripeBytes, 64);
      if (!addr.ok()) kop::bench::Die("stripe", addr.status());
      stripes[cpu] = *addr;
      kop::Status added = rig.policy().store().Add(
          {*addr, kStripeBytes, kop::policy::kProtRW});
      if (!added.ok()) kop::bench::Die("stripe region", added);
    }
    kop::transform::CompileOptions options;
    options.elide_guards = elide;
    module = rig.Load(kSmpSource, options, engine);
    kop::Status prepared = rig.loader().PrepareCpus(cpus);
    if (!prepared.ok()) kop::bench::Die("prepare cpus", prepared);
  }
};

struct SmpMeasurement {
  uint64_t guards = 0;
  uint64_t elided = 0;
  double max_cycles = 0;
  double wall_ns = 0;

  double GuardsPerKcycle() const {
    // Covers stand in for their subsumed members: charge them to the
    // throughput numerator so elide/no-elide move the same access count.
    return max_cycles > 0 ? (guards + elided) / max_cycles * 1000.0 : 0.0;
  }
};

void RunSmpCalls(LoadedModule* module, uint64_t stripe, uint64_t calls,
                 uint64_t iters) {
  for (uint64_t c = 0; c < calls; ++c) {
    kop::bench::MustCall(*module, "pump", {stripe, iters});
  }
}

SmpMeasurement MeasureSmp(SmpRig& rig, uint32_t cpus, uint64_t calls,
                          uint64_t iters) {
  auto& engine = rig.rig.policy();
  auto& clock = rig.rig.kernel().clock();
  const kop::policy::GuardStats before = engine.stats();
  const double max_before = clock.MaxCycles();
  const auto start = Clock::now();
  kop::smp::RunOnCpus(cpus, [&](uint32_t cpu) {
    RunSmpCalls(rig.module, rig.stripes[cpu], calls, iters);
  });
  SmpMeasurement m;
  m.wall_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  const kop::policy::GuardStats after = engine.stats();
  m.guards = after.guard_calls - before.guard_calls;
  m.elided = after.elided - before.elided;
  m.max_cycles = clock.MaxCycles() - max_before;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kop::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const uint64_t sends = std::clamp<uint64_t>(args.packets / 4, 1000, 10000);
  // Min-of-rounds estimator: each extra round can only lower the kept
  // time, so more rounds tighten the ratio against co-tenant noise.
  const int rounds = 25;

  PrintFigureHeader(
      "Ablation 6",
      "Guard elision + inline fast-path guards vs the unguarded floor",
      "kop_knic xmit, " + std::to_string(sends) + " sends per round, " +
          std::to_string(rounds) + " interleaved rounds; smp sweep at 1/8 "
          "CPUs on the virtual clock");

  // ------------------------------------------------------- xmit ratio --
  kop::trace::GlobalSpans().SetEnabled(false);
  XmitHarness variants[] = {
      {"interp-unguarded", false, false, false},
      {"interp-noelide", false, true, false},
      {"interp-elide", false, true, true},
      {"bytecode-unguarded", true, false, false},
      {"bytecode-noelide", true, true, false},
      {"bytecode-elide", true, true, true},
  };
  const uint64_t mmio = kop::kernel::kVmallocBase;
  for (XmitHarness& h : variants) {
    h.Build();
    h.Call("knic_init", {mmio});
    h.Call("knic_fill", {64, 0x20});
    (void)h.TimeCall("knic_send", {mmio, 64}, sends / 4 + 1);  // warmup
  }
  // Interleaved rounds, min kept: a noisy co-tenant burst lands on every
  // variant equally instead of skewing one column.
  for (int r = 0; r < rounds; ++r) {
    for (XmitHarness& h : variants) {
      h.KeepBest(h.TimeCall("knic_send", {mmio, 64}, sends));
    }
  }
  // Correctness anchor: every variant moved the same frames.
  uint64_t sent0 = 0;
  for (XmitHarness& h : variants) {
    const uint64_t sent = h.Call("knic_sent_hw", {mmio});
    if (sent0 == 0) sent0 = sent;
    if (sent != sent0 ||
        h.rig->wire_packets() != variants[0].rig->wire_packets()) {
      std::fprintf(stderr, "variant %s changed module behaviour!\n", h.label);
      return 1;
    }
  }
  kop::trace::GlobalSpans().SetEnabled(true);

  std::printf("%-20s %14s %12s %12s\n", "variant", "ns_per_send",
              "guard_calls", "elided");
  std::string csv =
      "workload,engine,elide,guards,cpus,unit,value,guard_calls,elided\n";
  for (XmitHarness& h : variants) {
    const double ns_per_send = h.best_ns / static_cast<double>(sends);
    const auto stats = h.rig->policy().stats();
    std::printf("%-20s %14.1f %12llu %12llu\n", h.label, ns_per_send,
                static_cast<unsigned long long>(stats.guard_calls),
                static_cast<unsigned long long>(stats.elided));
    char line[192];
    std::snprintf(line, sizeof(line), "xmit,%s,%s,%s,1,ns_per_send,%.1f,%llu,%llu\n",
                  h.bytecode ? "bytecode" : "interp", h.elide ? "on" : "off",
                  h.guards ? "on" : "off", ns_per_send,
                  static_cast<unsigned long long>(stats.guard_calls),
                  static_cast<unsigned long long>(stats.elided));
    csv += line;
  }

  const double interp_ratio_off = variants[1].best_ns / variants[0].best_ns;
  const double interp_ratio_on = variants[2].best_ns / variants[0].best_ns;
  const double bytecode_ratio_off = variants[4].best_ns / variants[3].best_ns;
  const double bytecode_ratio_on = variants[5].best_ns / variants[3].best_ns;
  std::printf(
      "\nguarded/unguarded xmit ratio: interp %.3f (elide off) -> %.3f "
      "(on), bytecode %.3f (elide off) -> %.3f (on)\n",
      interp_ratio_off, interp_ratio_on, bytecode_ratio_off,
      bytecode_ratio_on);

  // -------------------------------------------------------- smp sweep --
  const uint64_t calls = 200;
  const uint64_t iters = 500;
  const int smp_rounds = 3;
  const ExecEngine engines[] = {ExecEngine::kBytecode, ExecEngine::kInterp};
  const uint32_t cpu_points[] = {1, 8};

  std::printf("\n%-9s %-6s %4s %12s %10s %16s\n", "engine", "elide", "cpus",
              "guards", "elided", "accesses_per_kc");
  for (ExecEngine engine : engines) {
    const std::string engine_str(kop::kernel::ExecEngineName(engine));
    for (int elide = 0; elide < 2; ++elide) {
      for (uint32_t cpus : cpu_points) {
        SmpRig rig(engine, cpus, elide != 0);
        kop::smp::RunOnCpus(cpus, [&](uint32_t cpu) {
          RunSmpCalls(rig.module, rig.stripes[cpu], calls / 4 + 1, iters);
        });
        SmpMeasurement best;
        for (int r = 0; r < smp_rounds; ++r) {
          SmpMeasurement m = MeasureSmp(rig, cpus, calls, iters);
          if (best.guards == 0 || m.wall_ns < best.wall_ns) best = m;
        }
        std::printf("%-9s %-6s %4u %12llu %10llu %16.3f\n",
                    engine_str.c_str(), elide ? "on" : "off", cpus,
                    static_cast<unsigned long long>(best.guards),
                    static_cast<unsigned long long>(best.elided),
                    best.GuardsPerKcycle());
        char line[192];
        std::snprintf(line, sizeof(line),
                      "smp,%s,%s,on,%u,accesses_per_kcycle,%.3f,%llu,%llu\n",
                      engine_str.c_str(), elide ? "on" : "off", cpus,
                      best.GuardsPerKcycle(),
                      static_cast<unsigned long long>(best.guards),
                      static_cast<unsigned long long>(best.elided));
        csv += line;
      }
    }
  }

  char line[256];
  std::snprintf(line, sizeof(line),
                "# ratio_interp_noelide,%.3f\n# ratio_interp_elide,%.3f\n"
                "# ratio_bytecode_noelide,%.3f\n# ratio_bytecode_elide,%.3f\n",
                interp_ratio_off, interp_ratio_on, bytecode_ratio_off,
                bytecode_ratio_on);
  csv += line;
  WriteResultsFile("abl6_elide.csv", csv);

  // Acceptance: bytecode guarded-with-elision within 1.3x of unguarded.
  // KOP_ABL6_GATE loosens the wall-clock gate for noisy shared runners
  // (CI smoke); the default 1.3 is the paper-facing local acceptance.
  const double gate = GateEnv("KOP_ABL6_GATE", 1.3);
  if (bytecode_ratio_on > gate) {
    std::fprintf(stderr,
                 "ACCEPTANCE MISS: bytecode guarded/unguarded ratio %.3f > "
                 "%.2f\n",
                 bytecode_ratio_on, gate);
    return 1;
  }
  return 0;
}
