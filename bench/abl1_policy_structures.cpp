// Ablation 1 (paper §3.1/§4.2): the cost of one region decision on the
// structure the guards actually use — the 64-entry table, published by
// the engine as a base-sorted PolicyFrame index and decided first-match
// — across region counts and address mixes, two ways: unpinned by
// PolicyEngine::Check (a frame search per probe), and inside one frame
// pin by FastGuard, the inline guard a driver entry runs, whose verdict
// window skips the search while probes stay in the region or gap it
// last decided. The pinned alternating mixes cycle through 2 or 4
// regions, the shape that defeats a one-entry window.
// Host-measured with google-benchmark: this is the one experiment where
// real cache behaviour is the point ("optimized for cache-friendly
// search of a small number of regions").
//
// Results go to bench_results/abl1_policy_structures.csv (google-
// benchmark CSV) unless --benchmark_out names another file. Every probe's
// decision is checked against its closed-form first match before timing
// (the nested mix's outer region, allowed everywhere else); a
// disagreement fails the run (exit 1).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
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
  kAlternate2,     // round robin over 2 regions spread across the table
  kAlternate4,     // round robin over 4 regions spread across the table
};

/// Regions a kAlternate<k> stream cycles through, spread over the table.
int AlternateWays(Mix mix) {
  return mix == Mix::kAlternate2 ? 2 : mix == Mix::kAlternate4 ? 4 : 0;
}

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
  for (size_t i = 0; i < probes.size(); ++i) {
    uint64_t& probe = probes[i];
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
      case Mix::kAlternate2:
      case Mix::kAlternate4: {
        const uint64_t ways = uint64_t(AlternateWays(mix));
        probe = kBase + (i % ways) * (n / ways) * kSlot +
                rng.NextBelow(kSlot / 2 - 8);
        break;
      }
    }
  }
  return probes;
}

/// The nested mix's first match in closed form: the probe's outer region.
bool NestedWriteAllowed(uint64_t probe) {
  return ((probe - kBase) / (2 * kSlot)) % 2 == 0;
}

/// The closed-form decision for a mix's probe: nested writes follow the
/// outer region; every other probe is a read of an RW region or a
/// default-allowed miss.
bool OracleAllows(Mix mix, uint64_t probe) {
  return mix != Mix::kNested || NestedWriteAllowed(probe);
}

uint64_t OracleFlags(Mix mix) {
  return mix == Mix::kNested ? kGuardAccessWrite : kGuardAccessRead;
}

/// An engine holding `mix`'s regions, or null (the run is marked failed).
std::unique_ptr<PolicyEngine> MakeEngine(benchmark::State& state,
                                         kop::kernel::Kernel* kernel, Mix mix,
                                         int regions) {
  auto engine =
      std::make_unique<PolicyEngine>(kernel, PolicyMode::kDefaultAllow);
  for (const Region& region : MakeRegions(mix, regions)) {
    if (!engine->store().Add(region).ok()) {
      state.SkipWithError("region table refused a region");
      return nullptr;
    }
  }
  return engine;
}

void OracleFailed(benchmark::State& state) {
  g_oracle_failed.store(true);
  state.SkipWithError("decision disagrees with the closed-form first match");
}

void BM_Check(benchmark::State& state, Mix mix, int regions) {
  kop::kernel::Kernel kernel;
  const std::unique_ptr<PolicyEngine> engine =
      MakeEngine(state, &kernel, mix, regions);
  if (engine == nullptr) return;
  const std::vector<uint64_t> probes = MakeProbes(mix, regions);
  const uint64_t flags = OracleFlags(mix);
  // Publishes the frame outside the timed loop, and holds every probe to
  // its oracle.
  for (uint64_t probe : probes) {
    if (engine->Check(probe, 8, flags) != OracleAllows(mix, probe)) {
      return OracleFailed(state);
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Check(probes[i], 8, flags));
    i = (i + 1) & (probes.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

/// FastGuard inside one pin, as a driver entry's guards run. The oracle
/// pass decides the probes with the mix's own flags; the timed loop
/// reads, which every mix allows, so each guard stays on the inline path
/// (a denial would deopt).
void BM_PinnedGuard(benchmark::State& state, Mix mix, int regions) {
  kop::kernel::Kernel kernel;
  const std::unique_ptr<PolicyEngine> engine =
      MakeEngine(state, &kernel, mix, regions);
  if (engine == nullptr) return;
  const std::vector<uint64_t> probes = MakeProbes(mix, regions);
  engine->PinFrame();
  bool agrees = true;
  for (uint64_t probe : probes) {
    agrees = agrees && engine->FastGuard(probe, 8, OracleFlags(mix), 0) ==
                           OracleAllows(mix, probe);
  }
  size_t i = 0;
  for (auto _ : state) {
    if (!agrees) break;
    benchmark::DoNotOptimize(
        engine->FastGuard(probes[i], 8, kGuardAccessRead, 0));
    i = (i + 1) & (probes.size() - 1);
  }
  engine->UnpinFrame();
  if (!agrees) return OracleFailed(state);
  state.SetItemsProcessed(state.iterations());
}

void RegisterAll() {
  struct Series {
    Mix mix;
    const char* name;
  };
  static const Series kChecked[] = {
      {Mix::kHotRegion, "hot"},
      {Mix::kUniform, "uniform"},
      {Mix::kMisses, "miss"},
      {Mix::kNested, "nested"},
  };
  static const Series kPinned[] = {
      {Mix::kHotRegion, "hot"},   {Mix::kAlternate2, "alt2"},
      {Mix::kAlternate4, "alt4"}, {Mix::kMisses, "miss"},
      {Mix::kNested, "nested"},
  };
  for (const Series& mix : kChecked) {
    for (int regions : {1, 2, 4, 8, 16, 32, 64}) {
      const std::string name = std::string("Check/frame/") + mix.name +
                               "/n=" + std::to_string(regions);
      benchmark::RegisterBenchmark(name.c_str(), BM_Check, mix.mix, regions);
    }
  }
  for (const Series& mix : kPinned) {
    for (int regions : {1, 2, 4, 8, 16, 32, 64}) {
      if (regions < AlternateWays(mix.mix)) continue;
      const std::string name = std::string("FastGuard/pinned/") + mix.name +
                               "/n=" + std::to_string(regions);
      benchmark::RegisterBenchmark(name.c_str(), BM_PinnedGuard, mix.mix,
                                   regions);
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
