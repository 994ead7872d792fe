// Extension 3: what resilience costs. Every module call now runs inside
// a write-journal transaction with a step-budget watchdog armed; this
// bench prices that on the guarded knic xmit hot path against the
// pre-resilience configuration (journal off, watchdog off — the PR-2
// bytecode baseline), isolating each mechanism:
//
//   pr2-baseline     journal off, watchdog off
//   watchdog-only    journal off, watchdog armed (default 8M-step budget)
//   journal-only     journal on,  watchdog off
//   full-resilience  journal on,  watchdog armed (the shipped default)
//
// All four variants run the same signed module through the real loader
// path (Insmod + LoadedModule::Call) on the bytecode engine, so the
// numbers include the transaction bookkeeping the loader itself adds.
// Timed rounds interleave across variants and keep the per-variant
// minimum, so co-tenant noise lands on every column equally. Expected:
// single-digit-percent overhead for the full stack — the journal records
// only RAM stores (a handful per send) and the watchdog is one counter
// compare per step.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/resilience/recovery.hpp"

#include "common/experiment.hpp"
#include "common/module_rig.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using kop::kernel::LoadedModule;

struct Variant {
  const char* label;
  bool journal;
  bool watchdog;

  // Built by Build(); the initializers let the variant table below name
  // only the three config fields.
  std::unique_ptr<kop::bench::ModuleRig> rig{};
  LoadedModule* module = nullptr;
  double best_ns = 0.0;

  void Build() {
    rig = std::make_unique<kop::bench::ModuleRig>(/*with_nic=*/true);
    module = rig->Load(kop::kirmods::KnicSource(), {},
                       kop::kernel::ExecEngine::kBytecode);
    module->set_journaling_enabled(journal);
    module->set_watchdog_steps(watchdog ? kop::resilience::DefaultWatchdogSteps()
                                        : 0);
  }

  double TimeSends(uint64_t sends) {
    const uint64_t mmio = kop::kernel::kVmallocBase;
    const auto start = Clock::now();
    for (uint64_t i = 0; i < sends; ++i) {
      kop::bench::MustCall(*module, "knic_send", {mmio, 64});
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  }

  void KeepBest(double ns) {
    best_ns = best_ns == 0.0 ? ns : std::min(best_ns, ns);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using kop::bench::PositionalArg;
  const char* usage = "[sends=20000] [rounds=7]";
  const uint64_t sends = PositionalArg(argc, argv, 1, 20000, usage);
  const int rounds = PositionalArg<int>(argc, argv, 2, 7, usage);

  Variant variants[] = {
      {"pr2-baseline", false, false},
      {"watchdog-only", false, true},
      {"journal-only", true, false},
      {"full-resilience", true, true},
  };
  const uint64_t mmio = kop::kernel::kVmallocBase;
  for (Variant& v : variants) {
    v.Build();
    kop::bench::MustCall(*v.module, "knic_init", {mmio});
    kop::bench::MustCall(*v.module, "knic_fill", {64, 0x20});
    (void)v.TimeSends(sends / 4 + 1);  // warmup
  }
  for (int r = 0; r < rounds; ++r) {
    for (Variant& v : variants) v.KeepBest(v.TimeSends(sends));
  }

  // Correctness anchor: every variant transmitted the same frames, and
  // the journaling variants committed one transaction per call with no
  // rollbacks (this is the fault-free path).
  for (const Variant& v : variants) {
    if (v.rig->wire_packets() != variants[0].rig->wire_packets()) {
      std::fprintf(stderr, "%s changed module behaviour!\n", v.label);
      return 1;
    }
    const auto& journal = v.module->journaled_memory().journal();
    if (journal.total_rollbacks() != 0 || journal.active()) {
      std::fprintf(stderr, "%s: unexpected journal state\n", v.label);
      return 1;
    }
  }

  const double base = variants[0].best_ns;
  std::printf("%-18s %12s %12s %18s\n", "variant", "ns_per_send",
              "overhead_pct", "journal_entries");
  std::string csv = "variant,journal,watchdog,ns_per_send,overhead_pct,"
                    "journal_entries_total\n";
  for (Variant& v : variants) {
    const double ns_per_send = v.best_ns / static_cast<double>(sends);
    const double overhead = (v.best_ns - base) / base * 100.0;
    const unsigned long long entries = static_cast<unsigned long long>(
        v.module->journaled_memory().journal().total_entries_recorded());
    std::printf("%-18s %12.1f %+11.2f%% %18llu\n", v.label, ns_per_send,
                overhead, entries);
    char line[160];
    std::snprintf(line, sizeof(line), "%s,%s,%s,%.1f,%.2f,%llu\n", v.label,
                  v.journal ? "on" : "off", v.watchdog ? "on" : "off",
                  ns_per_send, overhead, entries);
    csv += line;
  }
  kop::bench::WriteResultsFile("ext3_resilience.csv", csv);
  return 0;
}
