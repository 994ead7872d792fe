// Ablation 2 (paper §3.3): CARAT KOP deliberately ships *without* the
// CARAT CAKE guard optimizations ("every memory access results in a
// guard, even if it would be redundant... the performance impact is
// minor"). Quantify the road not taken: compile the loop-heavy corpus
// module with no optimization / block-local coalescing / dominance-based
// dedup, load each, run the same workload, and compare static guard
// counts, dynamic guard executions and simulated cycles.
#include <cstdio>

#include "kop/kirmods/corpus.hpp"
#include "kop/transform/compiler.hpp"

#include "common/experiment.hpp"
#include "common/module_rig.hpp"

namespace {

struct Variant {
  const char* label;
  bool coalesce;
  bool dominate;
};

struct Outcome {
  uint64_t static_guards = 0;
  uint64_t dynamic_guards = 0;
  double cycles = 0.0;
  uint64_t copy_result = 0;
  uint64_t checksum_result = 0;
};

Outcome RunVariant(const Variant& variant, uint64_t iterations) {
  kop::transform::CompileOptions options;
  options.coalesce_guards = variant.coalesce;
  options.dominate_guards = variant.dominate;
  kop::bench::ModuleRig rig;
  kop::kernel::LoadedModule* module =
      rig.Load(kop::kirmods::MemcopySource(), options);

  Outcome outcome;
  outcome.static_guards = module->attestation().guard_count;
  const double start = rig.kernel().clock().NowCycles();
  kop::bench::MustCall(*module, "fill", {iterations, 7});
  outcome.copy_result = kop::bench::MustCall(*module, "copy", {iterations});
  outcome.checksum_result =
      kop::bench::MustCall(*module, "checksum", {iterations});
  outcome.cycles = rig.kernel().clock().NowCycles() - start;
  outcome.dynamic_guards = rig.policy().stats().guard_calls;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kop::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const uint64_t iterations = std::min<uint64_t>(args.packets, 512);

  PrintFigureHeader(
      "Ablation 2", "Guard optimization: the road CARAT KOP didn't take",
      "kop_memcopy workload, " + std::to_string(iterations) +
          " loop iterations per entry point, R350 model");

  const Variant variants[] = {
      {"kop-unoptimized", false, false},
      {"coalesce", true, false},
      {"dominate", false, true},
      {"coalesce+dominate", true, true},
  };

  std::string csv =
      "variant,static_guards,dynamic_guards,cycles,cycles_vs_unopt\n";
  std::printf("%-19s %13s %14s %12s %s\n", "variant", "static_guards",
              "dynamic_guards", "cycles", "vs_unopt");
  double unopt_cycles = 0.0;
  Outcome reference{};
  for (const Variant& variant : variants) {
    const Outcome outcome = RunVariant(variant, iterations);
    if (unopt_cycles == 0.0) {
      unopt_cycles = outcome.cycles;
      reference = outcome;
    }
    // Semantic preservation across variants.
    if (outcome.copy_result != reference.copy_result ||
        outcome.checksum_result != reference.checksum_result) {
      std::fprintf(stderr, "variant %s changed module behaviour!\n",
                   variant.label);
      return 1;
    }
    const double ratio = outcome.cycles / unopt_cycles;
    std::printf("%-19s %13llu %14llu %12.0f %.4f\n", variant.label,
                static_cast<unsigned long long>(outcome.static_guards),
                static_cast<unsigned long long>(outcome.dynamic_guards),
                outcome.cycles, ratio);
    char line[160];
    std::snprintf(line, sizeof(line), "%s,%llu,%llu,%.0f,%.4f\n",
                  variant.label,
                  static_cast<unsigned long long>(outcome.static_guards),
                  static_cast<unsigned long long>(outcome.dynamic_guards),
                  outcome.cycles, ratio);
    csv += line;
  }
  std::printf("\n(paper's position: unoptimized guards are cheap enough for "
              "kernel modules; the optimizations exist in CARAT CAKE for "
              "application code)\n");
  WriteResultsFile("abl2_guard_opt.csv", csv);
  return 0;
}
