// kop::resilience — transactional module calls. Containment (guard
// violation, watchdog expiry) must roll the write journal back so kernel
// memory is byte-identical to call entry, and the recovery policy
// (quarantine / restart-with-backoff) must leave nothing behind: no heap
// allocations, no exported symbols, no open journal. Every test runs on
// both execution engines — the transaction seam sits below them, so the
// observable behavior must match exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kop/flight/postmortem.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kernel/procfs.hpp"
#include "kop/fault/campaign.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/net/socket.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/nic/packet_sink.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/signing/signer.hpp"
#include "kop/trace/site.hpp"
#include "kop/trace/trace.hpp"
#include "kop/transform/compiler.hpp"

namespace kop {
namespace {

using kernel::ExecEngine;
using kernel::Kernel;
using kernel::KernelConfig;
using kernel::LoadedModule;
using kernel::ModuleLoader;
using resilience::BackoffPolicy;
using resilience::ModuleState;
using resilience::RecoveryPolicy;

constexpr uint64_t kForbiddenAddr = 0x1000;  // inside the denied user range

const char* kVictimSource = R"(module "kop_victim"

global @data size 32 rw
global @counter size 8 rw

func @init() -> i64 {
entry:
  store i64 7, @counter
  ret i64 1
}

func @bump() -> i64 {
entry:
  %c = load i64, @counter
  %c1 = add i64 %c, 1
  store i64 %c1, @counter
  ret i64 %c1
}

func @touch_then_violate(ptr %addr, i64 %v) -> i64 {
entry:
  store i64 %v, @data
  store i64 %v, @counter
  store i64 %v, %addr
  ret i64 0
}

func @spin(i64 %n) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %done = icmp uge i64 %i, %n
  br %done, out, body
body:
  %acc = load i64, @counter
  %acc1 = add i64 %acc, 1
  store i64 %acc1, @counter
  %i1 = add i64 %i, 1
  jmp loop
out:
  ret i64 %i
}
)";

signing::SignedModule CompileAndSign(const std::string& source) {
  auto compiled = transform::CompileModuleText(source);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return signing::SignModule(compiled->text, compiled->attestation,
                             signing::SigningKey::DevelopmentKey());
}

signing::Keyring TrustedKeyring() {
  signing::Keyring keyring;
  keyring.Trust(signing::SigningKey::DevelopmentKey());
  return keyring;
}

KernelConfig SmallKernel() {
  KernelConfig config;
  config.ram_bytes = 4ull << 20;
  config.kernel_text_bytes = 1ull << 20;
  config.module_area_bytes = 4ull << 20;
  config.user_bytes = 1ull << 20;
  return config;
}

/// One kernel + policy + loader + loaded module, on a chosen engine.
struct Rig {
  explicit Rig(ExecEngine engine, const std::string& source = kVictimSource,
               RecoveryPolicy recovery = RecoveryPolicy::kQuarantine)
      : kernel(SmallKernel()), loader(&kernel, TrustedKeyring()) {
    auto inserted = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    EXPECT_TRUE(inserted.ok()) << inserted.status().ToString();
    policy = std::move(*inserted);
    policy->engine().SetViolationAction(policy::ViolationAction::kQuarantine);
    EXPECT_TRUE(policy->engine()
                    .store()
                    .Add(policy::Region{0, kernel::kUserSpaceEnd,
                                        policy::kProtNone})
                    .ok());
    loader.set_engine(engine);
    loader.set_recovery_policy(recovery);
    auto loaded = loader.Insmod(CompileAndSign(source));
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    module = *loaded;
  }

  std::vector<uint8_t> GlobalBytes(const std::string& name) {
    auto addr = module->GlobalAddress(name);
    EXPECT_TRUE(addr.ok());
    const kir::GlobalVariable* global = nullptr;
    for (const auto& g : module->ir().globals()) {
      if (g->name() == name) global = g.get();
    }
    EXPECT_NE(global, nullptr);
    const uint8_t* host =
        kernel.mem().RawHostPointer(*addr, global->size_bytes());
    EXPECT_NE(host, nullptr);
    return std::vector<uint8_t>(host, host + global->size_bytes());
  }

  Kernel kernel;
  ModuleLoader loader;
  std::unique_ptr<policy::PolicyModule> policy;
  LoadedModule* module = nullptr;
};

const ExecEngine kEngines[] = {ExecEngine::kBytecode, ExecEngine::kInterp};

TEST(ResilienceTest, ViolationMidCallLeavesNoJournalResidue) {
  for (ExecEngine engine : kEngines) {
    Rig rig(engine);
    ASSERT_TRUE(rig.module->Call("init", {}).ok());
    const auto data_before = rig.GlobalBytes("data");
    const auto counter_before = rig.GlobalBytes("counter");

    auto result = rig.module->Call("touch_then_violate", {kForbiddenAddr, 99});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::kPermissionDenied);

    // The two in-policy stores that preceded the violation were undone.
    EXPECT_EQ(rig.GlobalBytes("data"), data_before)
        << "journal residue on engine " << kernel::ExecEngineName(engine);
    EXPECT_EQ(rig.GlobalBytes("counter"), counter_before);
    EXPECT_FALSE(rig.module->journaled_memory().journal().active());
    EXPECT_GE(rig.module->journaled_memory().journal().total_rollbacks(), 1u);
    EXPECT_TRUE(rig.module->quarantined());
  }
}

TEST(ResilienceTest, QuarantinedModuleRefusesFurtherCalls) {
  for (ExecEngine engine : kEngines) {
    Rig rig(engine);
    ASSERT_FALSE(rig.module->Call("touch_then_violate", {kForbiddenAddr, 1})
                     .ok());
    ASSERT_TRUE(rig.module->quarantined());
    auto refused = rig.module->Call("bump", {});
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), ErrorCode::kPermissionDenied);
    EXPECT_NE(refused.status().message().find("quarantined"),
              std::string::npos);
  }
}

TEST(ResilienceTest, WatchdogExpiryContainsRunawayCallOnBothEngines) {
  for (ExecEngine engine : kEngines) {
    Rig rig(engine);
    ASSERT_TRUE(rig.module->Call("init", {}).ok());
    const auto counter_before = rig.GlobalBytes("counter");
    rig.module->set_watchdog_steps(200);

    auto result = rig.module->Call("spin", {1'000'000});
    ASSERT_FALSE(result.ok());
    // The containment path converts the engine's kTimeout into the
    // recovery policy's verdict; the loop's partial stores are undone.
    EXPECT_EQ(rig.GlobalBytes("counter"), counter_before);
    EXPECT_TRUE(rig.module->quarantined());
    EXPECT_NE(rig.module->quarantine_reason().find("budget"),
              std::string::npos);
  }
}

TEST(ResilienceTest, WatchdogBudgetIsPerCallNotPerLifetime) {
  for (ExecEngine engine : kEngines) {
    Rig rig(engine);
    rig.module->set_watchdog_steps(5'000);
    // Each call fits the per-call budget; together they exceed it. A
    // lifetime budget would trip, a per-call watchdog must not.
    for (int i = 0; i < 5; ++i) {
      auto ok = rig.module->Call("spin", {300});
      ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    }
    EXPECT_EQ(rig.module->state(), ModuleState::kLive);
  }
}

TEST(ResilienceTest, RestartRecoversTheModule) {
  for (ExecEngine engine : kEngines) {
    Rig rig(engine, kVictimSource, RecoveryPolicy::kRestart);
    ASSERT_TRUE(rig.module->Call("init", {}).ok());

    auto contained =
        rig.module->Call("touch_then_violate", {kForbiddenAddr, 5});
    ASSERT_FALSE(contained.ok());
    EXPECT_NE(contained.status().message().find("restarted"),
              std::string::npos);
    EXPECT_EQ(rig.module->state(), ModuleState::kRestarted);
    EXPECT_EQ(rig.module->restart_count(), 1u);

    // The restart re-ran @init: the module is serviceable again.
    auto after = rig.module->Call("bump", {});
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(*after, 8u);  // init stores 7, bump returns 8
  }
}

TEST(ResilienceTest, RestartSucceedsAfterFailedRetries) {
  for (ExecEngine engine : kEngines) {
    Rig rig(engine, kVictimSource, RecoveryPolicy::kRestart);
    rig.module->set_backoff(BackoffPolicy{3, 1'000, 8'000});
    // First two attempts re-run an entry that does not exist and fail;
    // before the third (last budgeted) attempt the entry is fixed.
    rig.module->set_restart_entry("no_such_entry", {});

    ASSERT_FALSE(
        rig.module->Call("touch_then_violate", {kForbiddenAddr, 1}).ok());
    EXPECT_EQ(rig.module->state(), ModuleState::kNeedsRestart);
    ASSERT_FALSE(rig.module->Call("bump", {}).ok());  // attempt 2 fails
    EXPECT_EQ(rig.module->state(), ModuleState::kNeedsRestart);
    EXPECT_EQ(rig.module->restart_attempts(), 2u);

    rig.module->set_restart_entry("init", {});
    auto result = rig.module->Call("bump", {});  // attempt 3 succeeds
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(rig.module->state(), ModuleState::kRestarted);
    EXPECT_EQ(rig.module->restart_attempts(), 3u);
    EXPECT_EQ(rig.module->restart_count(), 1u);
    EXPECT_EQ(*result, 8u);
  }
}

TEST(ResilienceTest, BackoffBudgetExhaustionQuarantinesForGood) {
  for (ExecEngine engine : kEngines) {
    Rig rig(engine, kVictimSource, RecoveryPolicy::kRestart);
    rig.module->set_backoff(BackoffPolicy{2, 1'000, 8'000});
    rig.module->set_restart_entry("no_such_entry", {});

    ASSERT_FALSE(
        rig.module->Call("touch_then_violate", {kForbiddenAddr, 1}).ok());
    ASSERT_FALSE(rig.module->Call("bump", {}).ok());  // burns attempt 2
    EXPECT_EQ(rig.module->restart_attempts(), 2u);

    auto final_call = rig.module->Call("bump", {});  // budget exhausted
    ASSERT_FALSE(final_call.ok());
    EXPECT_TRUE(rig.module->quarantined());
    EXPECT_NE(
        rig.module->quarantine_reason().find("restart budget exhausted"),
        std::string::npos);
    // Permanent: later calls refuse without another restart attempt.
    ASSERT_FALSE(rig.module->Call("bump", {}).ok());
    EXPECT_EQ(rig.module->restart_attempts(), 2u);
  }
}

TEST(ResilienceTest, RestartChargesExponentialBackoffDowntime) {
  Rig rig(ExecEngine::kBytecode, kVictimSource, RecoveryPolicy::kRestart);
  const BackoffPolicy backoff{3, 10'000, 1'000'000};
  rig.module->set_backoff(backoff);
  rig.module->set_restart_entry("no_such_entry", {});

  ASSERT_FALSE(
      rig.module->Call("touch_then_violate", {kForbiddenAddr, 1}).ok());
  const double after_first = rig.kernel.clock().NowCycles();
  ASSERT_FALSE(rig.module->Call("bump", {}).ok());
  const double after_second = rig.kernel.clock().NowCycles();
  // Attempt 2 costs base << 1 cycles of simulated downtime on top of
  // whatever the failed init consumed.
  EXPECT_GE(after_second - after_first,
            static_cast<double>(backoff.CyclesFor(2)));
}

// The exhaustion path end to end, under a fault that never clears:
// every guard site forced to deny, so the init entry fails each restart
// attempt. The backoff schedule must be exponential (attempt n charges
// at least base << (n-1) cycles of simulated downtime), every attempt
// must be visible as a failed kModuleRestart trace event and a
// resilience.restart_failures count, and the ladder must end in a
// permanent quarantine carrying the "restart-exhausted" postmortem.
TEST(ResilienceTest, PersistentFaultWalksFullBackoffLadderToQuarantine) {
  for (ExecEngine engine : kEngines) {
    Rig rig(engine, kVictimSource, RecoveryPolicy::kRestart);
    const BackoffPolicy backoff{3, 50'000, 50'000'000};
    rig.module->set_backoff(backoff);
    rig.module->set_restart_entry("init", {});
    // The persistent fault: policy walls off the module's own @counter
    // global, so the workload call AND each restart's re-init violate
    // on their first store. (ForceDenyAtSite holds only one site, and a
    // single site cannot fail both bump and init.)
    auto counter_addr = rig.module->GlobalAddress("counter");
    ASSERT_TRUE(counter_addr.ok());
    ASSERT_TRUE(rig.policy->engine()
                    .store()
                    .Add(policy::Region{*counter_addr, 8, policy::kProtNone})
                    .ok());

    uint64_t seq_before = 0;
    for (const auto& record : trace::GlobalTracer().ring().Snapshot()) {
      if (record.cpu == 0) seq_before = std::max(seq_before, record.seq);
    }
    const uint64_t restarts_before =
        trace::GlobalMetrics().GetCounter("resilience.restarts")->value();
    const uint64_t failures_before = trace::GlobalMetrics()
                                         .GetCounter(
                                             "resilience.restart_failures")
                                         ->value();

    // Attempts 1..max: each call burns one restart attempt and charges
    // its rung of the exponential ladder before re-running init.
    double previous = rig.kernel.clock().NowCycles();
    for (uint32_t attempt = 1; attempt <= backoff.max_attempts; ++attempt) {
      ASSERT_FALSE(rig.module->Call("bump", {}).ok());
      EXPECT_EQ(rig.module->state(), ModuleState::kNeedsRestart);
      EXPECT_EQ(rig.module->restart_attempts(), attempt);
      const double now = rig.kernel.clock().NowCycles();
      EXPECT_GE(now - previous,
                static_cast<double>(backoff.CyclesFor(attempt)))
          << "attempt " << attempt << " skipped its backoff rung";
      previous = now;
    }
    EXPECT_EQ(backoff.CyclesFor(1), 50'000u);
    EXPECT_EQ(backoff.CyclesFor(2), 100'000u);
    EXPECT_EQ(backoff.CyclesFor(3), 200'000u);

    // Budget exhausted: the next call quarantines for good.
    ASSERT_FALSE(rig.module->Call("bump", {}).ok());
    EXPECT_TRUE(rig.module->quarantined());
    EXPECT_EQ(rig.module->state(), ModuleState::kQuarantined);
    EXPECT_NE(
        rig.module->quarantine_reason().find("restart budget exhausted"),
        std::string::npos);
    // Permanent: no further attempts are spent.
    ASSERT_FALSE(rig.module->Call("bump", {}).ok());
    EXPECT_EQ(rig.module->restart_attempts(), backoff.max_attempts);

    // Counter story: only failures moved, by exactly the budget.
    EXPECT_EQ(trace::GlobalMetrics()
                  .GetCounter("resilience.restart_failures")
                  ->value(),
              failures_before + backoff.max_attempts);
    EXPECT_EQ(
        trace::GlobalMetrics().GetCounter("resilience.restarts")->value(),
        restarts_before);

    // Trace story: this rig's kModuleRestart records are the ladder,
    // attempts 1..max in order, every one marked failed. Records are
    // picked by their index in CPU 0's ring, where this test runs (each
    // engine iteration builds a fresh kernel whose virtual clock restarts
    // at zero, so Snapshot's timestamp order interleaves the two runs).
    std::vector<trace::TraceRecord> restarts;
    for (const auto& record : trace::GlobalTracer().ring().Snapshot()) {
      if (record.event == trace::EventId::kModuleRestart &&
          record.cpu == 0 && record.seq > seq_before) {
        restarts.push_back(record);
      }
    }
    std::sort(restarts.begin(), restarts.end(),
              [](const trace::TraceRecord& a, const trace::TraceRecord& b) {
                return a.seq < b.seq;
              });
    ASSERT_EQ(restarts.size(), static_cast<size_t>(backoff.max_attempts));
    for (uint32_t attempt = 1; attempt <= backoff.max_attempts; ++attempt) {
      const trace::TraceRecord& record = restarts[attempt - 1];
      EXPECT_EQ(record.args[0], attempt);
      EXPECT_EQ(record.args[1], 0u) << "attempt " << attempt
                                    << " unexpectedly succeeded";
    }

    // Flight-recorder story: the final bundle is the exhaustion record.
    flight::PostmortemBundle bundle;
    ASSERT_TRUE(flight::GlobalPostmortems().Latest(&bundle));
    EXPECT_EQ(bundle.reason, "restart-exhausted");
    EXPECT_EQ(bundle.recovery, "quarantine");
    EXPECT_EQ(bundle.restart_attempts, backoff.max_attempts);
  }
}

TEST(ResilienceTest, QuarantineReclaimsHeapAndUnexportsSymbols) {
  for (ExecEngine engine : kEngines) {
    Rig rig(engine, fault::FaultTargetSource());
    const uint64_t heap_before =
        rig.kernel.heap().Stats().allocation_count -
        rig.module->heap_allocations().size();
    ASSERT_TRUE(rig.module->Call("init", {}).ok());
    ASSERT_TRUE(rig.module->Call("grab", {128}).ok());
    ASSERT_TRUE(rig.module->Call("grab", {64}).ok());
    EXPECT_EQ(rig.module->heap_allocations().size(), 2u);
    EXPECT_TRUE(rig.kernel.symbols().HasFunction("kop_faulty.grab"));

    // poke() dereferences an arbitrary pointer: aim it at user space.
    ASSERT_FALSE(rig.module->Call("poke", {kForbiddenAddr, 1}).ok());
    ASSERT_TRUE(rig.module->quarantined());
    EXPECT_TRUE(rig.module->heap_allocations().empty());
    EXPECT_EQ(rig.kernel.heap().Stats().allocation_count, heap_before);
    EXPECT_FALSE(rig.kernel.symbols().HasFunction("kop_faulty.grab"));
    EXPECT_FALSE(rig.kernel.symbols().HasFunction("kop_faulty.init"));
  }
}

TEST(ResilienceTest, ContainmentIsVisibleInTraceAndPrintk) {
  Rig rig(ExecEngine::kBytecode);
  const uint64_t rollbacks_before =
      trace::GlobalTracer().event_count(trace::EventId::kModuleRollback);
  const uint64_t quarantines_before =
      trace::GlobalTracer().event_count(trace::EventId::kModuleQuarantine);

  ASSERT_FALSE(
      rig.module->Call("touch_then_violate", {kForbiddenAddr, 3}).ok());

  EXPECT_GT(trace::GlobalTracer().event_count(trace::EventId::kModuleRollback),
            rollbacks_before);
  EXPECT_GT(
      trace::GlobalTracer().event_count(trace::EventId::kModuleQuarantine),
      quarantines_before);
  EXPECT_TRUE(
      rig.kernel.log().Contains("quarantined module 'kop_victim'"));
}

TEST(ResilienceTest, GuardViolationCarriesSiteAttribution) {
  Rig rig(ExecEngine::kBytecode);
  ASSERT_FALSE(
      rig.module->Call("touch_then_violate", {kForbiddenAddr, 3}).ok());
  auto violations = rig.policy->engine().RecentViolations();
  ASSERT_FALSE(violations.empty());
  const auto& record = violations.back();
  EXPECT_EQ(record.addr, kForbiddenAddr);
  EXPECT_NE(record.site, 0u);
  // The site token resolves to module:@function attribution.
  const std::string label = trace::GlobalSites().Label(record.site);
  EXPECT_NE(label.find("kop_victim"), std::string::npos) << label;
  EXPECT_NE(label.find("touch_then_violate"), std::string::npos) << label;
  // ... and the loader folded that attribution into the caller's error.
  EXPECT_NE(rig.module->quarantine_reason().find("kop_victim"),
            std::string::npos)
      << rig.module->quarantine_reason();
}

TEST(ResilienceTest, ProcfsShowsQuarantinedAndRestartedStates) {
  Rig rig(ExecEngine::kBytecode);
  EXPECT_NE(kernel::ProcModules(rig.loader).find("Live"),
            std::string::npos);
  ASSERT_FALSE(
      rig.module->Call("touch_then_violate", {kForbiddenAddr, 1}).ok());
  EXPECT_NE(kernel::ProcModules(rig.loader).find("QUARANTINED"),
            std::string::npos);

  Rig restarting(ExecEngine::kBytecode, kVictimSource,
                 RecoveryPolicy::kRestart);
  ASSERT_FALSE(
      restarting.module->Call("touch_then_violate", {kForbiddenAddr, 1})
          .ok());
  const std::string lsmod = kernel::ProcModules(restarting.loader);
  EXPECT_NE(lsmod.find("RESTARTED"), std::string::npos) << lsmod;
  EXPECT_NE(lsmod.find(" 1 "), std::string::npos) << lsmod;  // restarts col
}

TEST(ResilienceTest, EnginesReportIdenticalContainmentErrors) {
  std::vector<std::string> messages;
  for (ExecEngine engine : kEngines) {
    Rig rig(engine);
    auto result = rig.module->Call("touch_then_violate", {kForbiddenAddr, 9});
    ASSERT_FALSE(result.ok());
    messages.push_back(std::string(result.status().message()));
  }
  EXPECT_EQ(messages[0], messages[1]);
}

TEST(ResilienceTest, QuarantinedDriverDegradesToSoftNetError) {
  for (ExecEngine engine : kEngines) {
    Rig rig(engine, kirmods::KnicSource());
    nic::CountingSink sink;
    nic::E1000Device device(&rig.kernel.mem(), &sink);
    ASSERT_TRUE(device.MapAt(kernel::kVmallocBase).ok());
    ASSERT_TRUE(rig.module->Call("knic_init", {kernel::kVmallocBase}).ok());

    net::ModuleNetDevice netdev(rig.module, kernel::kVmallocBase);
    ASSERT_TRUE(netdev.Xmit(0, 64).ok());
    EXPECT_EQ(sink.packets(), 1u);

    // Quarantine the driver mid-flight: force a deny at one of
    // knic_send's own guard sites so the next transmit is contained.
    uint64_t send_site = 0;
    for (uint64_t token : rig.module->site_tokens()) {
      if (trace::GlobalSites().Label(token).find("knic_send") !=
          std::string::npos) {
        send_site = token;
        break;
      }
    }
    ASSERT_NE(send_site, 0u);
    rig.policy->engine().ForceDenyAtSite(send_site);
    Status contained = netdev.Xmit(0, 64);
    EXPECT_FALSE(contained.ok());
    EXPECT_EQ(contained.code(), ErrorCode::kPermissionDenied);
    ASSERT_TRUE(rig.module->quarantined());

    // Every later xmit is an ENETDOWN-style soft error — no exception,
    // no dereference of the quarantined driver.
    Status down = netdev.Xmit(0, 64);
    EXPECT_FALSE(down.ok());
    EXPECT_EQ(down.code(), ErrorCode::kPermissionDenied);
    EXPECT_NE(down.message().find("netdev down"), std::string::npos);
    EXPECT_EQ(sink.packets(), 1u);
    EXPECT_FALSE(rig.kernel.panicked());
  }
}

TEST(ResilienceTest, RmmodAfterQuarantineLeavesNoHeapResidue) {
  for (ExecEngine engine : kEngines) {
    Kernel kernel(SmallKernel());
    ModuleLoader loader(&kernel, TrustedKeyring());
    auto inserted = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    ASSERT_TRUE(inserted.ok());
    (*inserted)->engine().SetViolationAction(
        policy::ViolationAction::kQuarantine);
    ASSERT_TRUE((*inserted)
                    ->engine()
                    .store()
                    .Add(policy::Region{0, kernel::kUserSpaceEnd,
                                        policy::kProtNone})
                    .ok());
    loader.set_engine(engine);
    // Pin quarantine semantics regardless of the KOP_RECOVERY env default.
    loader.set_recovery_policy(resilience::RecoveryPolicy::kQuarantine);
    const uint64_t baseline = kernel.heap().Stats().allocation_count;

    auto loaded = loader.Insmod(CompileAndSign(fault::FaultTargetSource()));
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE((*loaded)->Call("init", {}).ok());
    ASSERT_TRUE((*loaded)->Call("grab", {256}).ok());
    ASSERT_FALSE((*loaded)->Call("poke", {kForbiddenAddr, 1}).ok());
    ASSERT_TRUE(loader.Rmmod("kop_faulty").ok());
    EXPECT_EQ(kernel.heap().Stats().allocation_count, baseline);
  }
}

}  // namespace
}  // namespace kop
