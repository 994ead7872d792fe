// Ablation 1 (paper §3.1/§4.2): the cost of one region decision on the
// structure the guards actually use — the 64-entry table, published by
// the engine as a base-sorted PolicyFrame index and decided first-match
// by PolicyEngine::Check — across region counts and address mixes.
// Host-measured with google-benchmark: this is the one experiment where
// real cache behaviour is the point ("optimized for cache-friendly
// search of a small number of regions").
//
// Results go to bench_results/abl1_policy_structures.csv (google-
// benchmark CSV) unless --benchmark_out names another file. The nested
// mix checks every probe's decision against its closed-form first match
// before timing; a disagreement fails the run (exit 1).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/policy/engine.hpp"
#include "kop/util/carat_abi.hpp"
#include "kop/util/rng.hpp"

namespace {

using namespace kop::policy;
using kop::kGuardAccessRead;
using kop::kGuardAccessWrite;

constexpr uint64_t kBase = 0x100000;
constexpr uint64_t kSlot = 0x10000;

std::atomic<bool> g_oracle_failed{false};

/// Guard-like probe streams.
enum class Mix : int {
  kHotRegion = 0,  // the common case: nearly every access in one region
  kUniform,        // accesses spread across all regions
  kMisses,         // accesses that match nothing (default-allow traffic)
  kNested,         // overlaps where the first match is not the nearest base
};

/// Grid mixes: n disjoint RW regions [kBase + i*kSlot, +kSlot/2); misses
/// fall in the gaps.
///
/// Nested: pairs of an outer region [kBase + 2p*kSlot, +2*kSlot) and,
/// added after it, an inner region [+kSlot/2, +kSlot) nested inside with
/// the opposite protection. The outer one is first in table order, so it
/// decides every probe in its span, while the inner one has the nearest
/// base for the probes inside it. Outer protections alternate RW / R, so
/// write probes are allowed exactly in even pairs.
std::vector<Region> MakeRegions(Mix mix, int regions) {
  std::vector<Region> out;
  for (int i = 0; i < regions; ++i) {
    if (mix != Mix::kNested) {
      out.push_back(Region{kBase + uint64_t(i) * kSlot, kSlot / 2, kProtRW});
      continue;
    }
    const uint64_t pair = uint64_t(i) / 2;
    const uint32_t outer = pair % 2 == 0 ? kProtRW : kProtRead;
    if (i % 2 == 0) {
      out.push_back(Region{kBase + pair * 2 * kSlot, 2 * kSlot, outer});
    } else {
      out.push_back(Region{kBase + pair * 2 * kSlot + kSlot / 2, kSlot,
                           outer == kProtRW ? kProtRead : kProtRW});
    }
  }
  return out;
}

std::vector<uint64_t> MakeProbes(Mix mix, int regions) {
  kop::Xoshiro256 rng(1234);
  const uint64_t n = uint64_t(regions);
  std::vector<uint64_t> probes(4096);
  for (uint64_t& probe : probes) {
    switch (mix) {
      case Mix::kHotRegion:
        probe = kBase + (n / 2) * kSlot + rng.NextBelow(kSlot / 2 - 8);
        break;
      case Mix::kUniform:
        probe = kBase + rng.NextBelow(n) * kSlot +
                rng.NextBelow(kSlot / 2 - 8);
        break;
      case Mix::kMisses:
        probe = kBase + rng.NextBelow(n) * kSlot + kSlot / 2 +
                rng.NextBelow(0x7000);
        break;
      case Mix::kNested:
        // Anywhere in an outer region, including accesses that start in
        // an inner region and run past its end.
        probe = kBase + rng.NextBelow((n + 1) / 2) * 2 * kSlot +
                rng.NextBelow(2 * kSlot - 8);
        break;
    }
  }
  return probes;
}

/// The nested mix's first match in closed form: the probe's outer region.
bool NestedWriteAllowed(uint64_t probe) {
  return ((probe - kBase) / (2 * kSlot)) % 2 == 0;
}

void BM_Check(benchmark::State& state, Mix mix, int regions) {
  kop::kernel::Kernel kernel;
  PolicyEngine engine(&kernel, PolicyMode::kDefaultAllow);
  for (const Region& region : MakeRegions(mix, regions)) {
    if (!engine.store().Add(region).ok()) {
      state.SkipWithError("region table refused a region");
      return;
    }
  }
  const std::vector<uint64_t> probes = MakeProbes(mix, regions);
  const uint64_t flags =
      mix == Mix::kNested ? kGuardAccessWrite : kGuardAccessRead;
  // Publishes the frame outside the timed loop, and holds the nested
  // mix to its oracle.
  for (uint64_t probe : probes) {
    const bool allowed = engine.Check(probe, 8, flags);
    if (mix == Mix::kNested && allowed != NestedWriteAllowed(probe)) {
      g_oracle_failed.store(true);
      state.SkipWithError("nested decision disagrees with first match");
      return;
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Check(probes[i], 8, flags));
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
      {Mix::kNested, "nested"},
  };
  for (const auto& mix : kMixes) {
    for (int regions : {1, 2, 4, 8, 16, 32, 64}) {
      const std::string name = std::string("Check/frame/") + mix.name +
                               "/n=" + std::to_string(regions);
      benchmark::RegisterBenchmark(name.c_str(), BM_Check, mix.mix, regions);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      out_path = argv[i] + 16;
    }
  }
  char default_out[] =
      "--benchmark_out=bench_results/abl1_policy_structures.csv";
  char default_format[] = "--benchmark_out_format=csv";
  if (out_path.empty()) {
    out_path = default_out + 16;
    args.push_back(default_out);
    args.push_back(default_format);
  }
  // google-benchmark does not create the output file's directory.
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(out_path).parent_path(), ec);
  int count = static_cast<int>(args.size());
  args.push_back(nullptr);  // argv[argc] is null, as for main
  RegisterAll();
  benchmark::Initialize(&count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return g_oracle_failed.load() ? 1 : 0;
}
