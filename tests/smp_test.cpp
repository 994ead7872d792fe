// kop::smp — the concurrency battery. Proves the SMP guarded-execution
// claims: per-CPU counters fold to exact global totals, policy updates
// land fully-old-or-fully-new (a guard never decides against a
// half-applied update), concurrent violations elect exactly one
// containment winner with every CPU's journal rolled back, and the
// --cpus 1 path is bit-identical to the non-SMP path. Module tests run
// on both execution engines — the per-CPU slots sit below the engine
// seam, so behavior must match exactly.
//
// Build with -DKOP_SANITIZE=thread to run this battery under TSan; the
// RCU grace-period test doubles as a use-after-free probe under ASan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/policy/engine.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/policy/region_table.hpp"
#include "kop/signing/signer.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/executor.hpp"
#include "kop/smp/rcu.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/site.hpp"
#include "kop/trace/span.hpp"
#include "kop/trace/trace.hpp"
#include "kop/transform/compiler.hpp"

namespace kop {
namespace {

using kernel::ExecEngine;
using kernel::Kernel;
using kernel::KernelConfig;
using kernel::LoadedModule;
using kernel::ModuleLoader;

constexpr uint64_t kForbiddenAddr = 0x1000;  // inside the denied user range

const char* kSmpSource = R"(module "kop_smp"

global @scratch size 256 rw

func @init() -> i64 {
entry:
  ret i64 1
}

func @bump(ptr %addr, i64 %n) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %done = icmp uge i64 %i, %n
  br %done, out, body
body:
  %v = load i64, %addr
  %v1 = add i64 %v, 1
  store i64 %v1, %addr
  %i1 = add i64 %i, 1
  jmp loop
out:
  ret i64 %i
}

func @poke(ptr %addr, i64 %v) -> i64 {
entry:
  store i64 %v, %addr
  ret i64 %v
}

func @poke_then_violate(ptr %addr, i64 %v, ptr %bad) -> i64 {
entry:
  store i64 %v, %addr
  store i64 %v, %bad
  ret i64 0
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
  explicit Rig(ExecEngine engine)
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
    auto loaded = loader.Insmod(CompileAndSign(kSmpSource));
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    module = *loaded;
  }

  uint64_t ScratchSlot(uint32_t cpu) {
    auto base = module->GlobalAddress("scratch");
    EXPECT_TRUE(base.ok());
    return *base + uint64_t{cpu} * 8;
  }

  uint64_t ReadSlot(uint32_t cpu) {
    auto value = kernel.mem().Read64(ScratchSlot(cpu));
    EXPECT_TRUE(value.ok());
    return *value;
  }

  Kernel kernel;
  ModuleLoader loader;
  std::unique_ptr<policy::PolicyModule> policy;
  LoadedModule* module = nullptr;
};

const ExecEngine kEngines[] = {ExecEngine::kBytecode, ExecEngine::kInterp};

// --------------------------------------------------- counter exactness

// N CPUs hammer the module concurrently, each on a disjoint scratch
// slot. The per-CPU counter slices must fold to EXACT global totals —
// no lost updates, no double counts — and the per-slot data must show
// every iteration landed.
TEST(SmpTest, PerCpuGuardCountsSumToGlobalExactly) {
  constexpr uint32_t kCpus = 4;
  constexpr uint64_t kIters = 50;
  constexpr int kCallsPerCpu = 2;
  for (ExecEngine engine : kEngines) {
    Rig rig(engine);
    ASSERT_TRUE(rig.loader.PrepareCpus(kCpus).ok());
    ASSERT_EQ(rig.module->prepared_cpus(), kCpus);
    rig.policy->engine().ResetStats();

    smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
      for (int call = 0; call < kCallsPerCpu; ++call) {
        auto result = rig.module->Call("bump", {rig.ScratchSlot(cpu), kIters});
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(*result, kIters);
      }
    });

    // Every CPU's every iteration landed on its own slot.
    for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
      EXPECT_EQ(rig.ReadSlot(cpu), kIters * kCallsPerCpu)
          << "cpu " << cpu << " engine " << kernel::ExecEngineName(engine);
    }

    // The fold equals the sum of the per-CPU slices, field by field.
    const policy::GuardStats total = rig.policy->engine().stats();
    policy::GuardStats summed;
    for (uint32_t cpu = 0; cpu < smp::kMaxCpus; ++cpu) {
      const policy::GuardStats slice = rig.policy->engine().PerCpuStats(cpu);
      summed.guard_calls += slice.guard_calls;
      summed.allowed += slice.allowed;
      summed.denied += slice.denied;
      summed.intrinsic_calls += slice.intrinsic_calls;
      summed.intrinsic_denied += slice.intrinsic_denied;
      summed.elided += slice.elided;
    }
    EXPECT_EQ(total.guard_calls, summed.guard_calls);
    EXPECT_EQ(total.allowed, summed.allowed);
    EXPECT_EQ(total.denied, summed.denied);
    EXPECT_EQ(total.intrinsic_calls, summed.intrinsic_calls);
    EXPECT_EQ(total.intrinsic_denied, summed.intrinsic_denied);
    EXPECT_EQ(total.elided, summed.elided);

    // bump guards one load + one store per iteration. The load (flags 1)
    // and store (flags 2) never widen into one cover — flags must match
    // exactly — so guard_calls + elided is the exact access total on
    // every elision setting, with elided pinned at zero here.
    EXPECT_EQ(total.guard_calls + total.elided,
              kCpus * kCallsPerCpu * kIters * 2);
    EXPECT_EQ(total.elided, 0u);
    EXPECT_EQ(total.allowed + total.denied, total.guard_calls);
    EXPECT_EQ(total.denied, 0u);
  }
}

// Slots PrepareCpus builds after insmod bind their engines' guard-site
// tokens the same way slot 0 did: one guarded call on CPU 1 and the same
// call on CPU 0 attribute to the same HotSites rows with the same hits.
TEST(SmpTest, LaterCpuSlotsAttributeGuardsToTheSameSites) {
  for (ExecEngine engine : kEngines) {
    Rig rig(engine);
    ASSERT_TRUE(rig.loader.PrepareCpus(2).ok());
    std::vector<std::pair<uint64_t, uint64_t>> rows[2];
    for (uint32_t cpu : {1u, 0u}) {
      rig.policy->engine().ResetStats();
      {
        smp::ScopedCpu on(cpu);
        ASSERT_TRUE(rig.module->Call("bump", {rig.ScratchSlot(cpu), 3}).ok());
      }
      for (const policy::HotSite& row : rig.policy->engine().HotSites()) {
        EXPECT_NE(row.site, trace::kUnknownSite);
        rows[cpu].emplace_back(row.site, row.hits);
      }
    }
    EXPECT_FALSE(rows[0].empty());
    EXPECT_EQ(rows[0], rows[1]) << kernel::ExecEngineName(engine);
  }
}

// ---------------------------------- inline-guard deopt under mutation

// Policy mutations mid-workload must deopt the pinned inline fast path,
// never corrupt verdicts or counts. Worker CPUs hammer bump()
// back-to-back while CPU 0 adds regions to the table in rounds; each
// round moves the mutation clock while workers hold pins from before it,
// so their next inline guard bails to the slow path (counted once there
// — totals stay exact) and repins.
TEST(SmpTest, PolicyMutationMidWorkloadDeoptsInlineGuardsAndStaysExact) {
  constexpr uint32_t kCpus = 4;
  constexpr uint64_t kIters = 20000;  // long calls, so mutations land mid-call
  constexpr uint64_t kCallsPerCpu = 12;
  constexpr int kRounds = 4;
  constexpr uint64_t kWorkerCalls = (kCpus - 1) * kCallsPerCpu;
  for (ExecEngine engine : kEngines) {
    Rig rig(engine);
    ASSERT_TRUE(rig.loader.PrepareCpus(kCpus).ok());
    rig.policy->engine().ResetStats();
    const uint64_t deopts_before =
        trace::GlobalMetrics().GetCounter("guard.deopt")->value();

    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> in_flight{0};
    smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
      if (cpu == 0) {
        uint64_t next_sliver = 0x1000;
        for (int round = 0; round < kRounds; ++round) {
          // Mutate only while some worker holds a pinned call open, so
          // every round overlaps a call (a round that lands after the
          // workload drained is harmless but proves nothing).
          while (in_flight.load(std::memory_order_acquire) == 0 &&
                 completed.load(std::memory_order_acquire) < kWorkerCalls) {
            std::this_thread::yield();
          }
          // The slivers sit in already-denied user space the workload
          // never touches; bases are unique because identical regions
          // are rejected.
          for (int add = 0; add <= round; ++add) {
            ASSERT_TRUE(rig.policy->engine()
                            .store()
                            .Add(policy::Region{next_sliver, 0x8,
                                                policy::kProtNone})
                            .ok());
            next_sliver += 0x10;
          }
          // Pace the rounds across the workload: wait for another worker
          // call to retire (or the whole workload to drain) first.
          const uint64_t seen = completed.load(std::memory_order_acquire);
          while (completed.load(std::memory_order_acquire) == seen &&
                 completed.load(std::memory_order_acquire) < kWorkerCalls) {
            std::this_thread::yield();
          }
        }
        return;
      }
      // Fixed call count (the engine budget is engine-lifetime, not
      // per-call) and no early return: `completed` must always reach
      // kWorkerCalls or the mutator's pacing wait would never drain.
      for (uint64_t call = 0; call < kCallsPerCpu; ++call) {
        in_flight.fetch_add(1, std::memory_order_acq_rel);
        auto result = rig.module->Call("bump", {rig.ScratchSlot(cpu), kIters});
        in_flight.fetch_sub(1, std::memory_order_acq_rel);
        if (result.ok()) {
          EXPECT_EQ(*result, kIters) << "cpu " << cpu;
        } else {
          ADD_FAILURE() << "cpu " << cpu << ": " << result.status().ToString();
        }
        completed.fetch_add(1, std::memory_order_release);
      }
    });

    for (uint32_t cpu = 1; cpu < kCpus; ++cpu) {
      EXPECT_EQ(rig.ReadSlot(cpu), kCallsPerCpu * kIters) << "cpu " << cpu;
    }

    // Deopted guards are re-decided (and counted) out of line exactly
    // once, so the global total stays exact across every mutation.
    const policy::GuardStats total = rig.policy->engine().stats();
    EXPECT_EQ(total.guard_calls, kWorkerCalls * kIters * 2);
    EXPECT_EQ(total.denied, 0u);
    EXPECT_GT(trace::GlobalMetrics().GetCounter("guard.deopt")->value(),
              deopts_before)
        << kernel::ExecEngineName(engine);
  }
}

// ------------------------------------------- policy update atomicity

// A writer CPU rewrites the policy (Clear + Adds) while reader CPUs
// sample the frame the guard path decides against. Every sampled frame
// must equal a table state that existed at some instant of the mutation
// history — {}, {a1}, {a1,a2}, or {b1} — never a state that never
// existed (old/new unions, reordered subsets). Frames retired while
// readers are mid-frame must stay valid until they leave (the RCU grace
// period; ASan/TSan turn a violation into a hard failure).
TEST(SmpTest, ConcurrentPolicyRewritePublishesFullyOldOrFullyNew) {
  Kernel kernel(SmallKernel());
  policy::PolicyEngine engine(&kernel);
  engine.SetMode(policy::PolicyMode::kDefaultDeny);

  const policy::Region a1{0x1000, 0x100, policy::kProtRW};
  const policy::Region a2{0x2000, 0x100, policy::kProtRW};
  const policy::Region b1{0x3000, 0x100, policy::kProtRead};
  auto matches = [](const std::vector<policy::Region>& got,
                    const std::vector<policy::Region>& want) {
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].base != want[i].base || got[i].len != want[i].len ||
          got[i].prot != want[i].prot) {
        return false;
      }
    }
    return true;
  };
  const std::vector<std::vector<policy::Region>> valid = {
      {}, {a1}, {a1, a2}, {b1}};

  ASSERT_TRUE(engine.store().Add(a1).ok());
  ASSERT_TRUE(engine.store().Add(a2).ok());

  constexpr uint32_t kCpus = 4;
  constexpr int kRounds = 200;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mixed_frames{0};
  std::atomic<uint64_t> sampled{0};
  smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
    if (cpu == kCpus - 1) {
      for (int i = 0; i < kRounds; ++i) {
        if (i % 2 == 0) {
          // To B: each mutation is atomic; intermediates are real states.
          engine.store().Clear();
          ASSERT_TRUE(engine.store().Add(b1).ok());
        } else {
          engine.store().Clear();
          ASSERT_TRUE(engine.store().Add(a1).ok());
          ASSERT_TRUE(engine.store().Add(a2).ok());
        }
      }
      done.store(true, std::memory_order_release);
      return;
    }
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<policy::Region> frame = engine.FrameSnapshot();
      sampled.fetch_add(1, std::memory_order_relaxed);
      bool ok = false;
      for (const auto& state : valid) ok = ok || matches(frame, state);
      if (!ok) mixed_frames.fetch_add(1, std::memory_order_relaxed);
      // The boolean read path rides the same frame machinery.
      (void)engine.Check(0x1010, 8, kGuardAccessWrite);
      (void)engine.Check(0x3010, 8, kGuardAccessRead);
    }
  });

  EXPECT_EQ(mixed_frames.load(), 0u)
      << "a guard observed a policy state that never existed";
  EXPECT_GT(sampled.load(), 0u);
  // Final configuration: kRounds-1 = 199 is odd -> last write was A.
  EXPECT_TRUE(matches(engine.FrameSnapshot(), {a1, a2}));
  EXPECT_TRUE(engine.Check(0x1010, 8, kGuardAccessWrite));
  EXPECT_FALSE(engine.Check(0x3010, 8, kGuardAccessRead));
}

// ---------------------------------------------- one containment winner

// Every CPU violates at once. Exactly one call may win the containment
// race and drive the quarantine; every CPU's pre-violation write must
// be rolled back by its own journal regardless of who won.
TEST(SmpTest, ConcurrentViolationsElectExactlyOneQuarantineWinner) {
  constexpr uint32_t kCpus = 4;
  for (ExecEngine engine : kEngines) {
    Rig rig(engine);
    ASSERT_TRUE(rig.loader.PrepareCpus(kCpus).ok());

    // Seed every CPU's slot with a known value (single-threaded).
    for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
      ASSERT_TRUE(
          rig.module->Call("poke", {rig.ScratchSlot(cpu), 7 + cpu}).ok());
    }

    std::vector<Status> results(kCpus, OkStatus());
    smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
      auto result = rig.module->Call(
          "poke_then_violate",
          {rig.ScratchSlot(cpu), 0xDEAD, kForbiddenAddr});
      results[cpu] = result.status();
    });

    EXPECT_TRUE(rig.module->quarantined());
    int winners = 0;
    for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
      EXPECT_FALSE(results[cpu].ok()) << "cpu " << cpu;
      // The winner's message is "module 'kop_smp' quarantined: ...";
      // losers report interruption, a foreign owner, or the late-entry
      // refusal "is quarantined".
      if (results[cpu].message().find("' quarantined:") !=
          std::string::npos) {
        ++winners;
      }
    }
    EXPECT_EQ(winners, 1) << "engine " << kernel::ExecEngineName(engine);

    // Per-CPU rollback: every slot shows its seed, not 0xDEAD.
    for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
      EXPECT_EQ(rig.ReadSlot(cpu), 7 + cpu)
          << "cpu " << cpu << " journal residue, engine "
          << kernel::ExecEngineName(engine);
    }
    EXPECT_FALSE(rig.module->journaled_memory().journal().active());
    EXPECT_TRUE(rig.module->heap_allocations().empty());
  }
}

// A CFI violation is a containment event like any guard violation: when
// every CPU dispatches through a corrupted vtable concurrently, exactly
// one wins the containment race, the module quarantines under the "cfi"
// reason, and every CPU's journaled writes roll back.
const char* kSmpCfiSource = R"(module "kop_smp_cfi"

global @vtable size 8 rw
global @scratch size 256 rw

func @h_ok(i64 %x) -> i64 {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}

func @vt_init() -> i64 {
entry:
  %f = funcaddr @h_ok
  %i = ptrtoint ptr %f to i64
  store i64 %i, @vtable
  ret i64 1
}

func @poke_then_icall(ptr %slot, i64 %v, i64 %x) -> i64 {
entry:
  store i64 %v, %slot
  %raw = load i64, @vtable
  %f = inttoptr i64 %raw to ptr
  %r = icall i64 %f(i64 %x)
  ret i64 %r
}
)";

TEST(SmpTest, ConcurrentCfiViolationsElectExactlyOneWinner) {
  constexpr uint32_t kCpus = 4;
  for (ExecEngine engine : kEngines) {
    Kernel kernel(SmallKernel());
    auto inserted = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    auto policy = std::move(*inserted);
    policy->engine().SetViolationAction(policy::ViolationAction::kQuarantine);
    ModuleLoader loader(&kernel, TrustedKeyring());
    loader.set_engine(engine);
    loader.set_recovery_policy(resilience::RecoveryPolicy::kQuarantine);

    transform::CompileOptions options;
    options.inject_cfi_checks = true;  // pin: must not follow KOP_CFI
    auto compiled = transform::CompileModuleText(kSmpCfiSource, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto loaded = loader.Insmod(
        signing::SignModule(compiled->text, compiled->attestation,
                            signing::SigningKey::DevelopmentKey()));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    LoadedModule* module = *loaded;
    ASSERT_TRUE(loader.PrepareCpus(kCpus).ok());
    ASSERT_TRUE(module->Call("vt_init", {}).ok());

    auto scratch = module->GlobalAddress("scratch");
    ASSERT_TRUE(scratch.ok());
    for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
      ASSERT_TRUE(
          kernel.mem().Write64(*scratch + uint64_t{cpu} * 8, 7 + cpu).ok());
    }
    // Corrupt the vtable: the target is no legal-set member, so every
    // CPU's gated dispatch must throw a CFI violation.
    auto vtable = module->GlobalAddress("vtable");
    ASSERT_TRUE(vtable.ok());
    ASSERT_TRUE(kernel.mem().Write64(*vtable, 0x1234).ok());

    std::vector<Status> results(kCpus, OkStatus());
    smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
      auto result = module->Call(
          "poke_then_icall", {*scratch + uint64_t{cpu} * 8, 0xDEAD, 1});
      results[cpu] = result.status();
    });

    EXPECT_TRUE(module->quarantined());
    EXPECT_NE(module->quarantine_reason().find("cfi violation"),
              std::string::npos)
        << module->quarantine_reason();
    int winners = 0;
    for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
      EXPECT_FALSE(results[cpu].ok()) << "cpu " << cpu;
      if (results[cpu].message().find("' quarantined:") !=
          std::string::npos) {
        ++winners;
      }
    }
    EXPECT_EQ(winners, 1) << "engine " << kernel::ExecEngineName(engine);

    // Per-CPU rollback: the poke preceding each denied dispatch is gone.
    for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
      auto value = kernel.mem().Read64(*scratch + uint64_t{cpu} * 8);
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(*value, 7 + cpu)
          << "cpu " << cpu << " journal residue, engine "
          << kernel::ExecEngineName(engine);
    }
    EXPECT_FALSE(module->journaled_memory().journal().active());
    EXPECT_TRUE(module->heap_allocations().empty());
  }
}

// ------------------------------------------ --cpus 1 differential run

// The SMP dispatcher at --cpus 1 runs on the calling thread against
// slot 0: the trace-event sequence, guard counters, and virtual clock
// must be bit-identical to a plain (pre-SMP) run of the same workload.
TEST(SmpTest, SingleCpuDispatchIsBitIdenticalToDirectRun) {
  struct Capture {
    std::vector<trace::TraceRecord> records;
    policy::GuardStats stats;
    double total_cycles = 0;
    std::vector<uint64_t> slots;
    uint64_t first_site = 0;  // this rig's lowest guard-site token
  };
  auto workload = [](Rig& rig) {
    ASSERT_TRUE(rig.module->Call("init", {}).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(rig.module->Call("bump", {rig.ScratchSlot(0), 20}).ok());
      ASSERT_TRUE(
          rig.module->Call("poke", {rig.ScratchSlot(1), uint64_t(i)}).ok());
    }
  };
  for (ExecEngine engine : kEngines) {
    Capture captures[2];
    for (int smp_path = 0; smp_path < 2; ++smp_path) {
      trace::GlobalTracer().Reset();
      Rig rig(engine);
      if (smp_path == 0) {
        workload(rig);
      } else {
        ASSERT_TRUE(rig.loader.PrepareCpus(1).ok());
        smp::RunOnCpus(1, [&](uint32_t) { workload(rig); });
      }
      Capture& cap = captures[smp_path];
      cap.records = trace::GlobalTracer().ring().Snapshot();
      cap.stats = rig.policy->engine().stats();
      cap.total_cycles = rig.kernel.clock().TotalCycles();
      cap.slots = {rig.ReadSlot(0), rig.ReadSlot(1)};
      const std::vector<uint64_t>& tokens = rig.module->site_tokens();
      cap.first_site = tokens.empty()
                           ? 0
                           : *std::min_element(tokens.begin(), tokens.end());
    }

    // Guard-site tokens are process-global and monotonic, so the second
    // rig's tokens are offset from the first's by a constant. Args that
    // carry a token compare by offset from the rig's first token;
    // everything else must match bit-for-bit.
    auto args_match = [&](uint64_t a, uint64_t b) {
      if (a == b) return true;
      return a >= captures[0].first_site && b >= captures[1].first_site &&
             a - captures[0].first_site == b - captures[1].first_site;
    };
    ASSERT_EQ(captures[0].records.size(), captures[1].records.size())
        << "trace divergence on engine " << kernel::ExecEngineName(engine);
    for (size_t i = 0; i < captures[0].records.size(); ++i) {
      const trace::TraceRecord& a = captures[0].records[i];
      const trace::TraceRecord& b = captures[1].records[i];
      EXPECT_EQ(a.event, b.event) << "record " << i;
      for (int arg = 0; arg < 4; ++arg) {
        EXPECT_TRUE(args_match(a.args[arg], b.args[arg]))
            << "record " << i << " arg " << arg << ": " << a.args[arg]
            << " vs " << b.args[arg];
      }
    }
    EXPECT_EQ(captures[0].stats.guard_calls, captures[1].stats.guard_calls);
    EXPECT_EQ(captures[0].stats.allowed, captures[1].stats.allowed);
    EXPECT_EQ(captures[0].stats.denied, captures[1].stats.denied);
    EXPECT_EQ(captures[0].total_cycles, captures[1].total_cycles);
    EXPECT_EQ(captures[0].slots, captures[1].slots);
  }
}

// ------------------------------------------------ shared-layer churn

// The shared substrate under concurrent load: heap allocate/free and
// symbol export/unexport/lookup from all CPUs at once. Exactness checks
// on the ledgers; TSan turns any locking hole into a failure.
TEST(SmpTest, ConcurrentKmallocAndSymbolChurnStaysConsistent) {
  constexpr uint32_t kCpus = 4;
  constexpr int kRounds = 200;
  Kernel kernel(SmallKernel());
  const uint64_t live_before = kernel.heap().Stats().allocated_bytes;
  smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
    for (int i = 0; i < kRounds; ++i) {
      auto addr = kernel.heap().Kmalloc(64 + 8 * cpu, 16);
      ASSERT_TRUE(addr.ok());
      const std::string sym =
          "churn.cpu" + std::to_string(cpu) + "." + std::to_string(i % 8);
      (void)kernel.symbols().ExportFunction(
          sym, [](const std::vector<uint64_t>&) -> uint64_t { return 1; });
      ASSERT_NE(kernel.symbols().FindFunction("kmalloc"), nullptr);
      (void)kernel.symbols().Unexport(sym);
      ASSERT_TRUE(kernel.heap().Kfree(*addr).ok());
    }
  });
  const kernel::KmallocStats after = kernel.heap().Stats();
  EXPECT_EQ(after.allocated_bytes, live_before);
  EXPECT_EQ(after.total_allocs, after.total_frees + after.allocation_count);
}

// ------------------------------------------- lock-free flight recorder

// A record's payload checksum: a reader that returned a torn slot (words
// from two different writes) fails it.
uint64_t Mix(uint64_t cpu, uint64_t i) {
  uint64_t x = (cpu << 32) ^ i ^ 0x9e3779b97f4a7c15ull;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  return x ^ (x >> 29);
}

// Span arg layout: cpu in the top byte, the per-CPU ordinal below it.
uint64_t SpanArg(uint64_t cpu, uint64_t i) { return (cpu << 56) | i; }

void ExpectConsistentTrace(const trace::TraceRecord& r) {
  const uint64_t cpu = r.args[0];
  const uint64_t i = r.args[1];
  EXPECT_EQ(r.event, trace::EventId::kGuardCheck);
  EXPECT_EQ(r.cpu, cpu);
  EXPECT_EQ(r.args[2], Mix(cpu, i)) << "torn trace record";
  EXPECT_EQ(r.args[3], ~Mix(cpu, i)) << "torn trace record";
}

void ExpectConsistentSpan(const trace::SpanEvent& e, uint32_t cpu) {
  const uint64_t i = e.arg & ((uint64_t{1} << 56) - 1);
  EXPECT_EQ(e.arg >> 56, cpu);
  EXPECT_EQ(e.cpu, cpu);
  EXPECT_EQ(e.seq, i) << "span index is not its CPU's append ordinal";
  EXPECT_EQ(e.kind, trace::SpanKind::kModuleCall);
  EXPECT_EQ(e.begin_tsc, Mix(cpu, i)) << "torn span event";
  EXPECT_EQ(e.depth, 0u);
}

// CPUs 0-3 record tracepoints and spans while CPU 4 reads both recorders
// in a loop. Every ring has exactly one writer (its CPU) and writers
// take no lock, so every record a reader gets back must be whole (its
// checksum matches), carry a unique (cpu, index) equal to its CPU's
// append ordinal, and keep each CPU's program order; after the join
// every count is exact, only the writers own a trace ring, and each
// CPU's tail holds its newest spans.
TEST(SmpTest, FlightRecorderReadersSeeWholeRecordsUnderConcurrentWriters) {
  constexpr uint32_t kWriters = 4;
  constexpr uint64_t kRecords = 20000;  // wraps each 16Ki-slot trace ring
  // Readers ask for the whole span ring, whose oldest slot is the one
  // its writer is rewriting.
  constexpr size_t kTail = 64;
  trace::Tracer tracer;
  trace::SpanRecorder spans(kTail);
  std::atomic<uint32_t> writing{kWriters};
  std::atomic<bool> reading{false};
  smp::RunOnCpus(kWriters + 1, [&](uint32_t cpu) {
    if (cpu < kWriters) {
      // Start only once the reader runs, so the two always overlap.
      while (!reading.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (uint64_t i = 0; i < kRecords; ++i) {
        tracer.Record(trace::EventId::kGuardCheck, cpu, i, Mix(cpu, i),
                      ~Mix(cpu, i));
        (void)spans.BeginSpan();
        spans.EndSpan(trace::SpanKind::kModuleCall, Mix(cpu, i),
                      SpanArg(cpu, i));
      }
      writing.fetch_sub(1, std::memory_order_release);
      return;
    }
    reading.store(true, std::memory_order_release);
    do {
      std::set<std::pair<uint16_t, uint64_t>> ids;
      std::array<uint64_t, kWriters> last{};
      std::array<bool, kWriters> seen{};
      for (const trace::TraceRecord& r : tracer.ring().Snapshot()) {
        ExpectConsistentTrace(r);
        EXPECT_EQ(r.seq, r.args[1]) << "index is not the append ordinal";
        EXPECT_TRUE(ids.insert({r.cpu, r.seq}).second)
            << "duplicate (cpu, index) " << r.cpu << "/" << r.seq;
        const uint64_t w = r.args[0] % kWriters;
        // No clock is registered, so the merge is in (cpu, index)
        // order, which is each CPU's program order.
        if (seen[w]) {
          EXPECT_GT(r.args[1], last[w]);
        }
        seen[w] = true;
        last[w] = r.args[1];
      }
      for (uint32_t w = 0; w < kWriters; ++w) {
        uint64_t prev = 0;
        bool first = true;
        for (const trace::SpanEvent& e : spans.Tail(w, kTail)) {
          ExpectConsistentSpan(e, w);
          const uint64_t i = e.arg & ((uint64_t{1} << 56) - 1);
          if (!first) {
            EXPECT_GT(i, prev);
          }
          first = false;
          prev = i;
        }
      }
    } while (writing.load(std::memory_order_acquire) != 0 &&
             !::testing::Test::HasFailure());
  });

  EXPECT_EQ(tracer.ring().total_appended(), kWriters * kRecords);
  EXPECT_EQ(tracer.event_count(trace::EventId::kGuardCheck),
            kWriters * kRecords);
  EXPECT_EQ(spans.total_recorded(), kWriters * kRecords);
  for (uint32_t cpu = 0; cpu <= kWriters; ++cpu) {
    EXPECT_EQ(spans.CpuCount(cpu, trace::SpanKind::kModuleCall),
              cpu < kWriters ? kRecords : 0u)
        << "cpu " << cpu;
    EXPECT_EQ(tracer.ring().allocated(cpu), cpu < kWriters) << "cpu " << cpu;
  }
  const std::vector<trace::TraceRecord> records = tracer.ring().Snapshot();
  EXPECT_EQ(records.size(),
            kWriters * std::min<uint64_t>(kRecords, tracer.ring().capacity()));
  std::set<std::pair<uint16_t, uint64_t>> ids;
  for (const trace::TraceRecord& r : records) {
    ExpectConsistentTrace(r);
    EXPECT_EQ(r.seq, r.args[1]);
    EXPECT_TRUE(ids.insert({r.cpu, r.seq}).second);
  }
  for (uint32_t w = 0; w < kWriters; ++w) {
    const std::vector<trace::SpanEvent> tail = spans.Tail(w, kTail);
    ASSERT_EQ(tail.size(), kTail) << "cpu " << w;
    for (size_t k = 0; k < kTail; ++k) {
      ExpectConsistentSpan(tail[k], w);
      EXPECT_EQ(tail[k].arg, SpanArg(w, kRecords - kTail + k));
    }
  }
}

// The guard latency and lookup-depth histograms are sharded per CPU and
// folded on read: over a 4-CPU run of out-of-line guards (the native
// driver path), each gains exactly one observation per guard call.
TEST(SmpTest, ShardedGuardHistogramsFoldToGuardCallsExactly) {
  constexpr uint32_t kCpus = 4;
  constexpr int kGuards = 500;
  Rig rig(ExecEngine::kBytecode);
  policy::PolicyEngine& engine = rig.policy->engine();
  trace::Log2Histogram* latency =
      trace::GlobalMetrics().GetHistogram("guard.latency_cycles");
  trace::Log2Histogram* depth =
      trace::GlobalMetrics().GetHistogram("policy.lookup_depth");
  const uint64_t calls0 = engine.stats().guard_calls;
  const uint64_t latency0 = latency->count();
  const uint64_t depth0 = depth->count();

  smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
    for (int i = 0; i < kGuards; ++i) {
      ASSERT_TRUE(engine.Guard(rig.ScratchSlot(cpu), 8, kGuardAccessRead));
    }
  });

  const uint64_t calls = engine.stats().guard_calls - calls0;
  EXPECT_EQ(calls, uint64_t{kCpus} * kGuards);
  EXPECT_EQ(latency->count() - latency0, calls);
  EXPECT_EQ(depth->count() - depth0, calls);
}

// Pinned guards batch their allow accounting in the pin (DESIGN.md §15).
// Four CPUs run pinned calls of inline guards while a writer churns the
// table — stale pins deopt and refresh, miss depths change under them —
// and after the join every guard is counted exactly once: in stats, as
// allowed, and as a hot-site hit.
TEST(SmpTest, PinnedAllowBatchesFoldExactlyUnderRegionChurn) {
  constexpr uint32_t kWorkers = 4;
  constexpr int kCalls = 200;
  constexpr int kGuardsPerCall = 50;
  Kernel kernel(SmallKernel());
  policy::PolicyEngine engine(&kernel, policy::PolicyMode::kDefaultAllow);
  trace::SiteInfo info;
  info.module_name = "smp_pinbatch";
  info.function = "walk";
  const uint64_t site = trace::GlobalSites().Register(info);
  std::atomic<uint32_t> running{kWorkers};

  smp::RunOnCpus(kWorkers + 1, [&](uint32_t cpu) {
    if (cpu == 0) {
      // Churn regions the workers never touch: each change moves the
      // mutation clock and the miss depth.
      uint64_t i = 0;
      while (running.load(std::memory_order_acquire) != 0) {
        const uint64_t base = 0x100000 + (i % 16) * 0x1000;
        if (!engine.store().Add(policy::Region{base, 0x800, policy::kProtRW}).ok()) {
          (void)engine.store().Remove(base);
        }
        ++i;
      }
      return;
    }
    for (int call = 0; call < kCalls; ++call) {
      ASSERT_TRUE(engine.PinFrame());
      for (int g = 0; g < kGuardsPerCall; ++g) {
        const uint64_t addr = 0x4000 + cpu * 0x100 + (g % 8) * 8;
        if (!engine.FastGuard(addr, 8, kGuardAccessRead, site)) {
          trace::ScopedGuardSite scope(site);
          ASSERT_TRUE(engine.Guard(addr, 8, kGuardAccessRead));
        }
      }
      engine.UnpinFrame();
    }
    running.fetch_sub(1, std::memory_order_acq_rel);
  });

  const uint64_t total = uint64_t{kWorkers} * kCalls * kGuardsPerCall;
  const policy::GuardStats stats = engine.stats();
  EXPECT_EQ(stats.guard_calls, total);
  EXPECT_EQ(stats.allowed, total);
  uint64_t hits = 0;
  for (const policy::HotSite& row : engine.HotSites()) hits += row.hits;
  EXPECT_EQ(hits, total);
}

// Verdict windows under a concurrent writer (DESIGN.md §15). CPUs 1–3
// guard pinned addresses inside one gap window while CPU 0 adds and
// removes a kProtNone region over one of them. Once the add has ticked
// the mutation clock, no CPU may allow that address: a window cached
// before the add must not answer after it. After the join every folded
// counter equals the decisions the workers counted themselves.
TEST(SmpTest, GapWindowNeverAllowsARegionAddedOverIt) {
  constexpr uint32_t kWorkers = 3;
  constexpr int kCycles = 40;
  constexpr int kGuardsPerCall = 16;
  constexpr uint64_t kTarget = 0x24000;
  Kernel kernel(SmallKernel());
  policy::PolicyEngine engine(&kernel, policy::PolicyMode::kDefaultAllow);
  engine.SetViolationAction(policy::ViolationAction::kLogOnly);
  // The gap [0x18000, 0x30000) between two regions holds every address
  // the workers guard.
  ASSERT_TRUE(
      engine.store().Add(policy::Region{0x10000, 0x8000, policy::kProtRW}).ok());
  ASSERT_TRUE(
      engine.store().Add(policy::Region{0x30000, 0x8000, policy::kProtRW}).ok());
  trace::SiteInfo info;
  info.module_name = "smp_window";
  info.function = "gap";
  const uint64_t site = trace::GlobalSites().Register(info);
  const trace::Log2Histogram* latency =
      trace::GlobalMetrics().GetHistogram("guard.latency_cycles");
  const trace::Log2Histogram* depth =
      trace::GlobalMetrics().GetHistogram("policy.lookup_depth");
  const uint64_t latency0 = latency->count();
  const uint64_t depth0 = depth->count();
  // Odd while the kProtNone region is in the table: bumped after the
  // add returns and before the remove starts.
  std::atomic<uint64_t> phase{0};
  std::atomic<uint32_t> warm{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> target_denials{0};
  std::atomic<uint64_t> target_allows{0};
  std::atomic<uint64_t> stale_allows{0};
  std::array<uint64_t, kWorkers + 1> allowed{};
  std::array<uint64_t, kWorkers + 1> denied{};
  // Also gives up once a stale allow is counted, which fails the test.
  auto wait_for_change = [&](const std::atomic<uint64_t>& counter,
                             uint64_t seen) {
    while (counter.load(std::memory_order_acquire) == seen &&
           stale_allows.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
  };

  smp::RunOnCpus(kWorkers + 1, [&](uint32_t cpu) {
    if (cpu == 0) {
      // Ends the workers' loop on every way out, a failed ASSERT's early
      // return included.
      struct EndWorkers {
        std::atomic<bool>& done;
        ~EndWorkers() { done.store(true, std::memory_order_release); }
      } end_workers{done};
      // Every add finds the workers' windows filled over the whole gap.
      while (warm.load(std::memory_order_acquire) != kWorkers) {
        std::this_thread::yield();
      }
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        // Keep the region until a worker is denied by it, then leave it
        // out until a worker is allowed the address again.
        const uint64_t denials = target_denials.load();
        ASSERT_TRUE(engine.store()
                        .Add(policy::Region{kTarget, 0x100, policy::kProtNone})
                        .ok());
        phase.fetch_add(1, std::memory_order_acq_rel);
        wait_for_change(target_denials, denials);
        const uint64_t allows = target_allows.load();
        phase.fetch_add(1, std::memory_order_acq_rel);
        ASSERT_TRUE(engine.store().Remove(kTarget).ok());
        wait_for_change(target_allows, allows);
      }
      return;
    }
    auto guarded_call = [&] {
      ASSERT_TRUE(engine.PinFrame());
      for (int g = 0; g < kGuardsPerCall; ++g) {
        const uint64_t addr =
            g % 2 == 0 ? kTarget : 0x20000 + cpu * 0x100 + uint64_t(g) * 8;
        const uint64_t before = phase.load(std::memory_order_acquire);
        bool ok = engine.FastGuard(addr, 8, kGuardAccessRead, site);
        if (!ok) {
          trace::ScopedGuardSite scope(site);
          ok = engine.Guard(addr, 8, kGuardAccessRead);
        }
        const uint64_t after = phase.load(std::memory_order_acquire);
        ++(ok ? allowed : denied)[cpu];
        if (addr != kTarget) {
          EXPECT_TRUE(ok);
        } else if (!ok) {
          target_denials.fetch_add(1, std::memory_order_acq_rel);
        } else {
          target_allows.fetch_add(1, std::memory_order_acq_rel);
          // The region was in the table for the whole decision.
          if (before % 2 == 1 && before == after) {
            stale_allows.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      engine.UnpinFrame();
    };
    guarded_call();
    warm.fetch_add(1, std::memory_order_acq_rel);
    while (!done.load(std::memory_order_acquire)) guarded_call();
  });

  EXPECT_EQ(stale_allows.load(), 0u);
  uint64_t allows = 0;
  uint64_t denials = 0;
  for (uint32_t cpu = 1; cpu <= kWorkers; ++cpu) {
    allows += allowed[cpu];
    denials += denied[cpu];
  }
  EXPECT_GE(denials, uint64_t{kCycles});  // a denial in every cycle
  EXPECT_EQ(denials, target_denials.load());
  const uint64_t total = allows + denials;
  const policy::GuardStats stats = engine.stats();
  EXPECT_EQ(stats.guard_calls, total);
  EXPECT_EQ(stats.allowed, allows);
  EXPECT_EQ(stats.denied, denials);
  uint64_t hits = 0;
  uint64_t site_denied = 0;
  for (const policy::HotSite& row : engine.HotSites()) {
    hits += row.hits;
    site_denied += row.denied;
  }
  EXPECT_EQ(hits, total);
  EXPECT_EQ(site_denied, denials);
  EXPECT_EQ(latency->count() - latency0, total);
  EXPECT_EQ(depth->count() - depth0, total);
}

// CPU 1 holds a pin with pending inline allows while CPU 0 resets the
// stats. The reset's epoch drops that batch from the counters at CPU 1's
// next flush, so guard_calls counts exactly the guards whose site hits
// survived the reset. Histograms are never reset: they count every
// decision, the dropped batch included.
TEST(SmpTest, ResetStatsDropsAnotherCpusPendingBatch) {
  constexpr int kBefore = 6;
  constexpr int kAfter = 4;
  Kernel kernel(SmallKernel());
  policy::PolicyEngine engine(&kernel, policy::PolicyMode::kDefaultAllow);
  const trace::Log2Histogram* latency =
      trace::GlobalMetrics().GetHistogram("guard.latency_cycles");
  const trace::Log2Histogram* depth =
      trace::GlobalMetrics().GetHistogram("policy.lookup_depth");
  const trace::Counter* deopt =
      trace::GlobalMetrics().GetCounter("guard.deopt");
  const uint64_t latency_before = latency->count();
  const uint64_t depth_before = depth->count();
  const uint64_t deopts_before = deopt->value();
  std::atomic<int> phase{0};  // 1: batch pending; 2: reset done

  smp::RunOnCpus(2, [&](uint32_t cpu) {
    if (cpu == 0) {
      while (phase.load(std::memory_order_acquire) != 1) {
        std::this_thread::yield();
      }
      engine.ResetStats();
      phase.store(2, std::memory_order_release);
      return;
    }
    EXPECT_TRUE(engine.PinFrame());
    for (int i = 0; i < kBefore; ++i) {
      EXPECT_TRUE(engine.FastGuard(0x1000, 8, kGuardAccessRead, 0));
    }
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) != 2) {
      std::this_thread::yield();
    }
    for (int i = 0; i < kAfter; ++i) {
      if (!engine.FastGuard(0x1000, 8, kGuardAccessRead, 0)) {
        EXPECT_TRUE(engine.Guard(0x1000, 8, kGuardAccessRead));
      }
    }
    engine.UnpinFrame();
  });

  const policy::GuardStats stats = engine.stats();
  uint64_t hits = 0;
  for (const policy::HotSite& row : engine.HotSites()) hits += row.hits;
  EXPECT_EQ(stats.guard_calls, uint64_t{kAfter});
  EXPECT_EQ(stats.allowed, uint64_t{kAfter});
  EXPECT_EQ(stats.guard_calls, hits);
  EXPECT_EQ(latency->count() - latency_before, uint64_t{kBefore + kAfter});
  EXPECT_EQ(depth->count() - depth_before, uint64_t{kBefore + kAfter});
  // The reset ticked the mutation clock: CPU 1's first guard after it
  // deopted once, and the refreshed pin decided the rest inline.
  EXPECT_EQ(deopt->value() - deopts_before, 1u);
}

// --------------------------------------------------- RCU grace period

// Readers chase a published pointer while a writer retires old values.
// The epoch machinery must keep every value alive until its last
// possible reader has left; ASan/TSan turn a premature free into a
// hard failure. After a final Synchronize, everything retired must
// have been reclaimed.
TEST(SmpTest, RcuRetireWaitsForStragglingReaders) {
  smp::RcuDomain rcu;
  std::atomic<const uint64_t*> published{new uint64_t{0}};
  std::atomic<bool> done{false};
  constexpr uint32_t kCpus = 4;
  smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
    if (cpu == 0) {
      for (uint64_t i = 1; i <= 500; ++i) {
        const uint64_t* fresh = new uint64_t{i};
        const uint64_t* old =
            published.exchange(fresh, std::memory_order_acq_rel);
        rcu.Retire(old);
      }
      done.store(true, std::memory_order_release);
      return;
    }
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      smp::RcuDomain::ReadGuard guard(rcu);
      const uint64_t* current = published.load(std::memory_order_acquire);
      const uint64_t value = *current;  // UAF here if reclamation is early
      ASSERT_GE(value, last);  // monotonic publication order
      last = value;
    }
  });
  rcu.Synchronize();
  EXPECT_EQ(rcu.retired_count(), 0u);
  delete published.load();
}

}  // namespace
}  // namespace kop
