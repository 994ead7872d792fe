// Ablation 4: the execution-engine tentpole. The module loader can run a
// protected module on the reference tree-walking interpreter or on the
// register VM over load-time-compiled bytecode. This bench measures HOST
// wall-clock time (not simulated cycles — both engines charge the virtual
// clock identically) for the knic xmit hot path under both engines,
// guarded and unguarded. An unguarded module can never pass the insmod
// validator (attestation must certify guard completeness), so every
// variant runs on a bare engine from the loader's own slot builder
// (bench::ModuleRig::LoadBare): kernel-backed memory, the kernel
// resolver, carat_guard_range and the policy module's inline fast path,
// the guarded images validated first. All four variants share that one
// call path, so the ratios compare guards, not harnesses.
//
// Two kinds of numbers come out:
//  - end-to-end ns/send on the xmit path: what a driver call costs. Both
//    engines pay the same policy-check, trace, and MMIO floor here, so
//    this ratio understates the engine gap.
//  - ns/step on a pure-dispatch workload: the engine cost alone, where
//    the interpreter's per-node overhead is not hidden behind shared
//    observability work.
// Timed rounds are interleaved across variants and the per-variant
// minimum is kept, so a noisy co-tenant burst lands on every variant
// equally instead of skewing one column.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kop/kernel/module_loader.hpp"
#include "kop/kir/engine.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/transform/compiler.hpp"

#include "common/experiment.hpp"
#include "common/module_rig.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Pure-dispatch workload: integer mixing in a tight loop, no memory
/// traffic beyond one final store, no externals. Per-iteration work is 8
/// instructions, so ns/step isolates decode+dispatch cost.
constexpr char kDispatchSource[] = R"(module "abl4_dispatch"

global @out size 8 rw

func @spin(i64 %n) -> i64 {
entry:
  jmp head
head:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %s = phi i64 [ 0, entry ], [ %s2, body ]
  %done = icmp uge i64 %i, %n
  br %done, out, body
body:
  %x = mul i64 %i, 1099511628211
  %y = xor i64 %s, %x
  %z = lshr i64 %y, 7
  %s2 = add i64 %y, %z
  %i1 = add i64 %i, 1
  jmp head
out:
  store i64 %s, @out
  ret i64 %s
}
)";

/// One variant on its own rig (kernel + NIC + policy), kept alive across
/// interleaved timing rounds.
struct Harness {
  const char* label;
  bool bytecode;
  bool guards;

  std::unique_ptr<kop::bench::ModuleRig> rig{};
  kop::kir::ExecutionEngine* engine = nullptr;
  double best_ns = 0.0;

  void Build(std::string_view source) {
    rig = std::make_unique<kop::bench::ModuleRig>(/*with_nic=*/true);
    kop::transform::CompileOptions options;
    options.inject_guards = guards;
    engine = &rig->LoadBare(source, options,
                            bytecode ? kop::kernel::ExecEngine::kBytecode
                                     : kop::kernel::ExecEngine::kInterp);
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

}  // namespace

int main(int argc, char** argv) {
  using namespace kop::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  // Short interleaved rounds: each round times every variant once, so a
  // co-tenant CPU burst degrades all columns instead of one. min() over
  // rounds approximates the unpreempted time on a shared host.
  const uint64_t sends =
      std::clamp<uint64_t>(args.packets / 4, 1000, 10000);
  const int rounds = 9;

  PrintFigureHeader(
      "Ablation 4", "Execution engine: bytecode VM vs reference interpreter",
      "kop_knic xmit, " + std::to_string(sends) + " sends per round, " +
          std::to_string(rounds) + " interleaved rounds, host wall clock");

  Harness variants[4] = {
      {"interp-guarded", false, true},
      {"interp-unguarded", false, false},
      {"bytecode-guarded", true, true},
      {"bytecode-unguarded", true, false},
  };
  const uint64_t mmio = kop::kernel::kVmallocBase;
  for (Harness& h : variants) {
    h.Build(kop::kirmods::KnicSource());
    h.Call("knic_init", {mmio});
    h.Call("knic_fill", {64, 0x20});
    (void)h.TimeCall("knic_send", {mmio, 64}, sends / 4 + 1);  // warmup
  }
  for (int r = 0; r < rounds; ++r) {
    for (Harness& h : variants) {
      h.KeepBest(h.TimeCall("knic_send", {mmio, 64}, sends));
    }
  }

  // Correctness anchors: every variant moved the same frames. Read the
  // hardware counter once per variant — the read itself runs (guarded)
  // module code and must hit each engine the same number of times.
  uint64_t sent[4];
  for (int i = 0; i < 4; ++i) {
    sent[i] = variants[i].Call("knic_sent_hw", {mmio});
    if (sent[i] == 0 || sent[i] != sent[0] ||
        variants[i].rig->wire_packets() != variants[0].rig->wire_packets()) {
      std::fprintf(stderr, "variant %s changed module behaviour!\n",
                   variants[i].label);
      return 1;
    }
  }

  std::printf("%-20s %14s %12s %12s %10s\n", "variant", "ns_per_send",
              "guard_calls", "steps", "hw_sent");
  std::string csv =
      "workload,engine,guards,unit,ns,guard_calls,steps\n";
  for (int i = 0; i < 4; ++i) {
    Harness& h = variants[i];
    const double ns_per_send = h.best_ns / static_cast<double>(sends);
    const auto guard_calls = static_cast<unsigned long long>(
        h.rig->policy().stats().guard_calls);
    const auto steps = static_cast<unsigned long long>(h.engine->stats().steps);
    std::printf("%-20s %14.1f %12llu %12llu %10llu\n", h.label, ns_per_send,
                guard_calls, steps, static_cast<unsigned long long>(sent[i]));
    char line[192];
    std::snprintf(line, sizeof(line), "xmit,%s,%s,ns_per_send,%.1f,%llu,%llu\n",
                  h.bytecode ? "bytecode" : "interp", h.guards ? "on" : "off",
                  ns_per_send, guard_calls, steps);
    csv += line;
  }

  // Pure-dispatch workload: same interleaving, constant work per round.
  const uint64_t spin_iters = 200000;
  const double spin_steps = 8.0 * static_cast<double>(spin_iters);
  Harness dispatch[2] = {
      {"interp-dispatch", false, false},
      {"bytecode-dispatch", true, false},
  };
  for (Harness& h : dispatch) {
    h.Build(kDispatchSource);
    (void)h.TimeCall("spin", {spin_iters / 10}, 1);  // warmup
  }
  for (int r = 0; r < rounds; ++r) {
    for (Harness& h : dispatch) {
      h.KeepBest(h.TimeCall("spin", {spin_iters}, 1));
    }
  }
  std::printf("\n%-20s %14s\n", "dispatch", "ns_per_step");
  for (Harness& h : dispatch) {
    const double ns_per_step = h.best_ns / spin_steps;
    std::printf("%-20s %14.2f\n", h.label, ns_per_step);
    char line[128];
    std::snprintf(line, sizeof(line), "dispatch,%s,off,ns_per_step,%.2f,0,%llu\n",
                  h.bytecode ? "bytecode" : "interp", ns_per_step,
                  static_cast<unsigned long long>(h.engine->stats().steps));
    csv += line;
  }

  const double guarded_speedup =
      variants[0].best_ns / variants[2].best_ns;
  const double unguarded_speedup =
      variants[1].best_ns / variants[3].best_ns;
  const double dispatch_speedup = dispatch[0].best_ns / dispatch[1].best_ns;
  const double interp_ratio = variants[0].best_ns / variants[1].best_ns;
  const double bytecode_ratio = variants[2].best_ns / variants[3].best_ns;
  std::printf(
      "\nbytecode speedup: %.1fx guarded xmit, %.1fx unguarded xmit, "
      "%.1fx pure dispatch\n",
      guarded_speedup, unguarded_speedup, dispatch_speedup);
  std::printf(
      "guarded/unguarded overhead ratio: interp %.3f, bytecode %.3f\n",
      interp_ratio, bytecode_ratio);
  char line[256];
  std::snprintf(line, sizeof(line),
                "# speedup_guarded,%.2f\n# speedup_unguarded,%.2f\n"
                "# speedup_dispatch,%.2f\n"
                "# guard_overhead_interp,%.3f\n# guard_overhead_bytecode,"
                "%.3f\n",
                guarded_speedup, unguarded_speedup, dispatch_speedup,
                interp_ratio, bytecode_ratio);
  csv += line;
  WriteResultsFile("abl4_engine.csv", csv);
  return 0;
}
