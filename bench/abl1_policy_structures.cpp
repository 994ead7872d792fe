// Ablation 1 (paper §3.1/§4.2): the cost of one region decision on the
// structure the guards actually use — the 64-entry table, flattened into
// the engine's published PolicyFrame and scanned first-match by
// PolicyEngine::Check — across region counts and address mixes.
// Host-measured with google-benchmark: this is the one experiment where
// real cache behaviour is the point ("optimized for cache-friendly
// search of a small number of regions"). It is the baseline any faster
// region index has to beat on the same probes.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/policy/engine.hpp"
#include "kop/util/carat_abi.hpp"
#include "kop/util/rng.hpp"

namespace {

using namespace kop::policy;
using kop::kGuardAccessRead;

/// Guard-like probe streams.
enum class Mix : int {
  kHotRegion = 0,  // the common case: nearly every access in one region
  kUniform,        // accesses spread across all regions
  kMisses,         // accesses that match nothing (default-allow traffic)
};

std::vector<uint64_t> MakeProbes(Mix mix, int regions) {
  kop::Xoshiro256 rng(1234);
  std::vector<uint64_t> probes(4096);
  for (uint64_t& probe : probes) {
    switch (mix) {
      case Mix::kHotRegion:
        probe = 0x100000 + (uint64_t(regions) / 2) * 0x10000 +
                rng.NextBelow(0x8000 - 8);
        break;
      case Mix::kUniform:
        probe = 0x100000 + rng.NextBelow(uint64_t(regions)) * 0x10000 +
                rng.NextBelow(0x8000 - 8);
        break;
      case Mix::kMisses:
        probe = 0x100000 + rng.NextBelow(uint64_t(regions)) * 0x10000 +
                0x8000 + rng.NextBelow(0x7000);
        break;
    }
  }
  return probes;
}

void BM_Check(benchmark::State& state, Mix mix, int regions) {
  kop::kernel::Kernel kernel;
  PolicyEngine engine(&kernel, PolicyMode::kDefaultAllow);
  // Grid of n non-overlapping regions; misses fall in the gaps.
  for (int i = 0; i < regions; ++i) {
    if (!engine.store()
             .Add(Region{0x100000 + uint64_t(i) * 0x10000, 0x8000, kProtRW})
             .ok()) {
      state.SkipWithError("region table refused a grid region");
      return;
    }
  }
  const std::vector<uint64_t> probes = MakeProbes(mix, regions);
  // Publish the frame outside the timed loop.
  benchmark::DoNotOptimize(engine.Check(probes[0], 8, kGuardAccessRead));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Check(probes[i], 8, kGuardAccessRead));
    i = (i + 1) & (probes.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

void RegisterAll() {
  static const struct {
    Mix mix;
    const char* name;
  } kMixes[] = {
      {Mix::kHotRegion, "hot"},
      {Mix::kUniform, "uniform"},
      {Mix::kMisses, "miss"},
  };
  for (const auto& mix : kMixes) {
    for (int regions : {2, 16, 64}) {
      const std::string name = std::string("Check/linear64/") + mix.name +
                               "/n=" + std::to_string(regions);
      benchmark::RegisterBenchmark(name.c_str(), BM_Check, mix.mix, regions);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
