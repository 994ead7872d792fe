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
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/nic/packet_sink.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/signing/signer.hpp"
#include "kop/transform/compiler.hpp"

#include "common/experiment.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using kop::kernel::Kernel;
using kop::kernel::LoadedModule;
using kop::kernel::ModuleLoader;

struct Variant {
  const char* label;
  bool journal;
  bool watchdog;

  // Built by Build(); the initializers let the variant table below name
  // only the three config fields.
  std::unique_ptr<Kernel> kernel{};
  std::unique_ptr<kop::policy::PolicyModule> policy{};
  std::unique_ptr<ModuleLoader> loader{};
  std::unique_ptr<kop::nic::CountingSink> sink{};
  std::unique_ptr<kop::nic::E1000Device> nic{};
  LoadedModule* module = nullptr;
  double best_ns = 0.0;

  bool Build(const kop::signing::SignedModule& image) {
    kernel = std::make_unique<Kernel>();
    auto inserted = kop::policy::PolicyModule::Insert(
        kernel.get(), nullptr, kop::policy::PolicyMode::kDefaultAllow);
    if (!inserted.ok()) return false;
    policy = std::move(*inserted);
    kop::signing::Keyring keyring;
    keyring.Trust(kop::signing::SigningKey::DevelopmentKey());
    loader = std::make_unique<ModuleLoader>(kernel.get(), std::move(keyring));
    loader->set_engine(kop::kernel::ExecEngine::kBytecode);
    sink = std::make_unique<kop::nic::CountingSink>();
    nic = std::make_unique<kop::nic::E1000Device>(&kernel->mem(), sink.get());
    if (!nic->MapAt(kop::kernel::kVmallocBase).ok()) return false;
    auto loaded = loader->Insmod(image);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s: insmod failed: %s\n", label,
                   loaded.status().ToString().c_str());
      return false;
    }
    module = *loaded;
    module->set_journaling_enabled(journal);
    module->set_watchdog_steps(watchdog ? kop::resilience::DefaultWatchdogSteps()
                                        : 0);
    return true;
  }

  double TimeSends(uint64_t sends) {
    const uint64_t mmio = kop::kernel::kVmallocBase;
    const auto start = Clock::now();
    for (uint64_t i = 0; i < sends; ++i) {
      auto result = module->Call("knic_send", {mmio, 64});
      if (!result.ok()) {
        std::fprintf(stderr, "%s: send failed: %s\n", label,
                     result.status().ToString().c_str());
        return -1.0;
      }
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  }

  void KeepBest(double ns) {
    if (ns > 0 && (best_ns == 0.0 || ns < best_ns)) best_ns = ns;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using kop::bench::PositionalArg;
  const char* usage = "[sends=20000] [rounds=7]";
  const uint64_t sends = PositionalArg(argc, argv, 1, 20000, usage);
  const int rounds = static_cast<int>(PositionalArg(argc, argv, 2, 7, usage));

  auto compiled = kop::transform::CompileModuleText(kop::kirmods::KnicSource());
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  const auto image = kop::signing::SignModule(
      compiled->text, compiled->attestation,
      kop::signing::SigningKey::DevelopmentKey());

  Variant variants[] = {
      {"pr2-baseline", false, false},
      {"watchdog-only", false, true},
      {"journal-only", true, false},
      {"full-resilience", true, true},
  };
  const uint64_t mmio = kop::kernel::kVmallocBase;
  for (Variant& v : variants) {
    if (!v.Build(image)) return 1;
    (void)v.module->Call("knic_init", {mmio});
    (void)v.module->Call("knic_fill", {64, 0x20});
    (void)v.TimeSends(sends / 4 + 1);  // warmup
  }
  for (int r = 0; r < rounds; ++r) {
    for (Variant& v : variants) v.KeepBest(v.TimeSends(sends));
  }

  // Correctness anchor: every variant transmitted the same frames, and
  // the journaling variants committed one transaction per call with no
  // rollbacks (this is the fault-free path).
  for (const Variant& v : variants) {
    if (v.sink->packets() != variants[0].sink->packets()) {
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
