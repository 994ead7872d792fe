// The datapath battery: pins the multi-queue NIC + NAPI datapath across
// every seam the tentpole touches. Three layers of proof:
//
//  1. Engine differential — the kop_knic_mq KIR driver produces
//     observationally identical multi-queue transmissions under the
//     interpreter and the bytecode VM: same wire bytes, same per-queue
//     device stats, same guard traffic, same NIC trace-event sequence.
//  2. --cpus 1 bit-identity — dispatching the MQ driver through the SMP
//     executor at one CPU is bit-identical to a plain direct run (trace
//     records, guard stats, virtual clock), mirroring the kop::smp
//     contract for the single-queue workloads.
//  3. Saturation soak — a seeded multi-flow soak over the native guarded
//     driver at 4 queues × 4 CPUs: no descriptor leaks after drain,
//     head/tail always in range, per-queue counters fold exactly across
//     CPUs, and a containment mid-burst rolls the module's memory back
//     byte-identically.
//
// Build with -DKOP_SANITIZE=thread to run the soak under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kop/e1000e/driver.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/net/frame.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/policy/engine.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/policy/region_table.hpp"
#include "kop/signing/signer.hpp"
#include "kop/smp/affinity.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/executor.hpp"
#include "kop/trace/site.hpp"
#include "kop/trace/trace.hpp"
#include "kop/transform/compiler.hpp"

namespace kop {
namespace {

using e1000e::CaratDriver;
using e1000e::GuardedMemOps;
using e1000e::TxFrame;
using kernel::ExecEngine;
using kernel::Kernel;
using kernel::LoadedModule;
using kernel::ModuleLoader;

constexpr uint64_t kMmio = kernel::kVmallocBase;

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

/// One full stack — kernel, policy, loader, NIC — with the kop_knic_mq
/// driver loaded on a chosen engine.
struct MqStack {
  explicit MqStack(ExecEngine engine)
      : device(&kernel.mem(), &sink), loader(&kernel, TrustedKeyring()) {
    EXPECT_TRUE(device.MapAt(kMmio).ok());
    loader.set_engine(engine);
    auto inserted = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    EXPECT_TRUE(inserted.ok()) << inserted.status().ToString();
    policy = std::move(*inserted);
    auto loaded = loader.Insmod(CompileAndSign(kirmods::KnicMqSource()));
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    module = *loaded;
  }

  Kernel kernel;
  nic::CountingSink sink{/*retain=*/16};
  nic::E1000Device device;
  ModuleLoader loader;
  std::unique_ptr<policy::PolicyModule> policy;
  LoadedModule* module = nullptr;
};

struct ScriptCall {
  std::string function;
  std::vector<uint64_t> args;
};

/// The canonical multi-queue workload: bring up 4 queues, then mix
/// per-frame sends and batched sends across them.
std::vector<ScriptCall> MqScript() {
  std::vector<ScriptCall> script{{"mq_init", {kMmio, 4}},
                                 {"mq_fill", {96, 0x31}}};
  for (uint64_t q = 0; q < 4; ++q) {
    script.push_back({"mq_send", {kMmio, q, 96}});
  }
  script.push_back({"mq_send_batch", {kMmio, 1, 96, 5}});
  script.push_back({"mq_send_batch", {kMmio, 3, 96, 3}});
  script.push_back({"mq_send", {kMmio, 0, 96}});
  for (uint64_t q = 0; q < 4; ++q) script.push_back({"mq_sent", {q}});
  script.push_back({"mq_sent_hw", {kMmio}});
  return script;
}

/// The NIC-side trace events a run emitted, in order. Device events
/// carry no process-global tokens, so these compare bit-for-bit across
/// stacks and engines.
std::vector<trace::TraceRecord> NicEvents() {
  std::vector<trace::TraceRecord> out;
  for (const trace::TraceRecord& record :
       trace::GlobalTracer().ring().Snapshot()) {
    if (record.event == trace::EventId::kNicDescFetch ||
        record.event == trace::EventId::kNicXmit) {
      out.push_back(record);
    }
  }
  return out;
}

/// Per-guard-site attribution rows keyed by stable label.
std::map<std::string, std::pair<uint64_t, uint64_t>> SiteHits(
    policy::PolicyModule& policy, const std::string& module_name) {
  std::map<std::string, std::pair<uint64_t, uint64_t>> rows;
  for (const policy::HotSite& row : policy.engine().HotSites()) {
    auto info = trace::GlobalSites().Find(row.site);
    if (!info || info->module_name != module_name) continue;
    rows[info->Label()] = {row.hits, row.denied};
  }
  return rows;
}

// ---------------------------------------------------------------------------
// 1. Engine differential on the multi-queue driver
// ---------------------------------------------------------------------------

TEST(DatapathDifferentialTest, KnicMqIsIdenticalUnderBothEngines) {
  struct Observed {
    std::vector<std::pair<bool, uint64_t>> results;
    uint64_t packets = 0, bytes = 0;
    std::vector<std::vector<uint8_t>> frames;
    policy::GuardStats guard_stats;
    std::map<std::string, std::pair<uint64_t, uint64_t>> sites;
    std::vector<nic::DeviceStats> queue_stats;
    std::vector<trace::TraceRecord> nic_events;
  };

  const ExecEngine engines[] = {ExecEngine::kInterp, ExecEngine::kBytecode};
  Observed observed[2];
  for (int i = 0; i < 2; ++i) {
    trace::GlobalTracer().Reset();
    MqStack stack(engines[i]);
    for (const ScriptCall& call : MqScript()) {
      auto result = stack.module->Call(call.function, call.args);
      observed[i].results.push_back(
          {result.ok(), result.ok() ? *result : 0});
    }
    observed[i].packets = stack.sink.packets();
    observed[i].bytes = stack.sink.bytes();
    observed[i].frames = stack.sink.RecentFrames();
    observed[i].guard_stats = stack.policy->engine().stats();
    observed[i].sites = SiteHits(*stack.policy, "kop_knic_mq");
    for (uint32_t q = 0; q < nic::kMaxQueues; ++q) {
      observed[i].queue_stats.push_back(stack.device.QueueStats(q));
    }
    observed[i].nic_events = NicEvents();
  }

  const Observed& a = observed[0];
  const Observed& b = observed[1];
  EXPECT_EQ(a.results, b.results);
  // 4 per-frame sends + 5-batch + 3-batch + 1 more = 13 frames.
  EXPECT_EQ(a.packets, 13u);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_GT(a.guard_stats.guard_calls, 0u);
  EXPECT_EQ(a.guard_stats.guard_calls, b.guard_stats.guard_calls);
  EXPECT_EQ(a.guard_stats.allowed, b.guard_stats.allowed);
  EXPECT_EQ(a.guard_stats.denied, b.guard_stats.denied);
  EXPECT_FALSE(a.sites.empty());
  EXPECT_EQ(a.sites, b.sites);

  // Per-queue device stats: the batch sends target queues 1 and 3, so
  // the per-queue split must be exact, not just the fold.
  for (uint32_t q = 0; q < nic::kMaxQueues; ++q) {
    SCOPED_TRACE(q);
    EXPECT_EQ(a.queue_stats[q].frames_transmitted,
              b.queue_stats[q].frames_transmitted);
    EXPECT_EQ(a.queue_stats[q].descriptors_processed,
              b.queue_stats[q].descriptors_processed);
    EXPECT_EQ(a.queue_stats[q].bytes_transmitted,
              b.queue_stats[q].bytes_transmitted);
    EXPECT_EQ(a.queue_stats[q].tail_writes, b.queue_stats[q].tail_writes);
  }
  EXPECT_EQ(a.queue_stats[0].frames_transmitted, 2u);
  EXPECT_EQ(a.queue_stats[1].frames_transmitted, 6u);
  EXPECT_EQ(a.queue_stats[2].frames_transmitted, 1u);
  EXPECT_EQ(a.queue_stats[3].frames_transmitted, 4u);

  // The NIC trace-event sequence (descriptor fetches + transmissions)
  // matches record-for-record, argument-for-argument.
  ASSERT_EQ(a.nic_events.size(), b.nic_events.size());
  for (size_t i = 0; i < a.nic_events.size(); ++i) {
    EXPECT_EQ(a.nic_events[i].event, b.nic_events[i].event) << i;
    for (int arg = 0; arg < 4; ++arg) {
      EXPECT_EQ(a.nic_events[i].args[arg], b.nic_events[i].args[arg])
          << "record " << i << " arg " << arg;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. --cpus 1 dispatch is bit-identical to a direct run
// ---------------------------------------------------------------------------

TEST(DatapathSmpTest, SingleCpuDispatchIsBitIdenticalOnMqDriver) {
  struct Capture {
    std::vector<trace::TraceRecord> records;
    policy::GuardStats stats;
    double total_cycles = 0;
    std::vector<std::pair<bool, uint64_t>> results;
    uint64_t first_site = 0;
  };
  const ExecEngine engines[] = {ExecEngine::kBytecode, ExecEngine::kInterp};
  for (ExecEngine engine : engines) {
    Capture captures[2];
    for (int smp_path = 0; smp_path < 2; ++smp_path) {
      trace::GlobalTracer().Reset();
      MqStack stack(engine);
      auto workload = [&] {
        for (const ScriptCall& call : MqScript()) {
          auto result = stack.module->Call(call.function, call.args);
          captures[smp_path].results.push_back(
              {result.ok(), result.ok() ? *result : 0});
        }
      };
      if (smp_path == 0) {
        workload();
      } else {
        ASSERT_TRUE(stack.loader.PrepareCpus(1).ok());
        smp::RunOnCpus(1, [&](uint32_t) { workload(); });
      }
      Capture& cap = captures[smp_path];
      cap.records = trace::GlobalTracer().ring().Snapshot();
      cap.stats = stack.policy->engine().stats();
      cap.total_cycles = stack.kernel.clock().TotalCycles();
      const std::vector<uint64_t>& tokens = stack.module->site_tokens();
      cap.first_site = tokens.empty()
                           ? 0
                           : *std::min_element(tokens.begin(), tokens.end());
    }

    // Guard-site tokens are process-global and monotonic; args carrying
    // a token compare by offset from the stack's first token.
    auto args_match = [&](uint64_t a, uint64_t b) {
      if (a == b) return true;
      return a >= captures[0].first_site && b >= captures[1].first_site &&
             a - captures[0].first_site == b - captures[1].first_site;
    };
    EXPECT_EQ(captures[0].results, captures[1].results);
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
  }
}

// ---------------------------------------------------------------------------
// 3. Saturation soak: seeded multi-flow, 4 queues × 4 CPUs
// ---------------------------------------------------------------------------

TEST(DatapathSaturationTest, SoakHoldsRingAndCounterInvariants) {
  constexpr uint32_t kCpus = 4;
  constexpr uint32_t kQueues = 4;
  constexpr uint32_t kRing = 64;
  constexpr uint64_t kBurstsPerCpu = 40;
  constexpr uint32_t kBurst = 8;

  Kernel kernel;
  nic::CountingSink sink;
  nic::E1000Device device(&kernel.mem(), &sink);
  ASSERT_TRUE(device.MapAt(kMmio).ok());
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  auto driver = CaratDriver::ProbeMq(
      GuardedMemOps(&kernel, &(*policy)->engine()), kMmio, kRing, kQueues);
  ASSERT_TRUE(driver.ok()) << driver.status().ToString();

  // Seeded flows: every CPU transmits its own flows' frames from its own
  // staging area, on the queue it owns under the round-robin affinity.
  const net::FlowSet flows(kCpus * 4, /*seed=*/7);
  std::vector<uint64_t> staging(kCpus);
  std::vector<uint32_t> staged_len(kCpus);
  for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
    auto addr = kernel.heap().Kmalloc(2048, 64);
    ASSERT_TRUE(addr.ok());
    staging[cpu] = *addr;
    const auto wire = flows.MakeWire(cpu, 0);
    staged_len[cpu] = static_cast<uint32_t>(
        std::max<size_t>(wire.size(), e1000e::kEthZlen));
    std::vector<uint8_t> padded(wire);
    padded.resize(staged_len[cpu], 0);
    ASSERT_TRUE(
        kernel.mem().Write(staging[cpu], padded.data(), padded.size()).ok());
  }

  std::vector<uint64_t> sent_per_cpu(kCpus, 0);
  smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
    const uint32_t queue = smp::QueueForCpu(cpu, kQueues);
    std::vector<TxFrame> burst(kBurst,
                               TxFrame{staging[cpu], staged_len[cpu]});
    for (uint64_t i = 0; i < kBurstsPerCpu; ++i) {
      uint32_t queued = 0;
      auto status =
          driver->XmitBatch(queue, burst.data(), kBurst, &queued);
      ASSERT_TRUE(status.ok()) << status.ToString();
      sent_per_cpu[cpu] += queued;
      // NAPI poll interleaved with the bursts, as the IRQ handler would.
      auto work = driver->NapiPoll(queue, 16, nullptr);
      ASSERT_TRUE(work.ok());
    }
    // Drain: reclaim until the queue reports no work at all.
    for (int spins = 0; spins < 8; ++spins) {
      auto work = driver->NapiPoll(queue, 64, nullptr);
      ASSERT_TRUE(work.ok());
      if (*work == 0) break;
    }
  });

  const uint64_t total_sent =
      sent_per_cpu[0] + sent_per_cpu[1] + sent_per_cpu[2] + sent_per_cpu[3];
  EXPECT_EQ(total_sent, uint64_t{kCpus} * kBurstsPerCpu * kBurst)
      << "a burst stalled on a full ring that reclaim should have drained";

  uint64_t folded_tx = 0, folded_frames = 0;
  for (uint32_t q = 0; q < kQueues; ++q) {
    SCOPED_TRACE(q);
    // Head/tail in range, and equal after the drain (no descriptor
    // leaks: everything staged was consumed and reclaimed).
    auto tdh = kernel.mem().Read32(kMmio + nic::QReg(nic::REG_TDH, q));
    auto tdt = kernel.mem().Read32(kMmio + nic::QReg(nic::REG_TDT, q));
    ASSERT_TRUE(tdh.ok() && tdt.ok());
    EXPECT_LT(*tdh, kRing);
    EXPECT_LT(*tdt, kRing);
    EXPECT_EQ(*tdh, *tdt);
    auto counters = driver->CountersOn(q);
    ASSERT_TRUE(counters.ok());
    EXPECT_EQ(counters->tx_cleaned, counters->tx_packets)
        << "descriptors still in flight after drain";
    folded_tx += counters->tx_packets;
    folded_frames += device.QueueStats(q).frames_transmitted;
    EXPECT_EQ(device.QueueStats(q).bad_doorbells, 0u);
  }
  // Per-queue counters fold exactly across CPUs: driver totals, device
  // per-queue stats, the legacy folded stats block, and the wire all
  // agree packet-for-packet.
  EXPECT_EQ(folded_tx, total_sent);
  EXPECT_EQ(folded_frames, total_sent);
  EXPECT_EQ(device.stats().frames_transmitted, total_sent);
  EXPECT_EQ(sink.packets(), total_sent);
  auto hw = driver->HwGoodPacketsTransmitted();
  ASSERT_TRUE(hw.ok());
  EXPECT_EQ(*hw, total_sent);
  // GPTC/GOTC read through MMIO equal the folded per-queue stats: a TX
  // counter that gained a second writer would lose updates here.
  const nic::DeviceStats folded = device.stats();
  auto gptc = kernel.mem().Read32(kMmio + nic::REG_GPTC);
  auto gotcl = kernel.mem().Read32(kMmio + nic::REG_GOTCL);
  auto gotch = kernel.mem().Read32(kMmio + nic::REG_GOTCH);
  ASSERT_TRUE(gptc.ok() && gotcl.ok() && gotch.ok());
  EXPECT_EQ(*gptc, static_cast<uint32_t>(folded.frames_transmitted));
  EXPECT_EQ((uint64_t{*gotch} << 32) | *gotcl, folded.bytes_transmitted);
  EXPECT_GT(folded.bytes_transmitted, 0u);
}

TEST(DatapathSaturationTest, ContainmentMidBurstRollsBackByteIdentically) {
  // A denied MMIO store mid-batch contains the module after it has
  // staged descriptors into its globals; the journal must roll every
  // byte back. kForbiddenAddr sits inside the denied user range.
  const ExecEngine engines[] = {ExecEngine::kBytecode, ExecEngine::kInterp};
  for (ExecEngine engine : engines) {
    SCOPED_TRACE(kernel::ExecEngineName(engine));
    MqStack stack(engine);
    stack.policy->engine().SetViolationAction(
        policy::ViolationAction::kQuarantine);
    ASSERT_TRUE(stack.policy->engine()
                    .store()
                    .Add(policy::Region{0, kernel::kUserSpaceEnd,
                                        policy::kProtNone})
                    .ok());
    ASSERT_TRUE(stack.module->Call("mq_init", {kMmio, 4}).ok());
    ASSERT_TRUE(stack.module->Call("mq_fill", {96, 0x31}).ok());
    ASSERT_TRUE(stack.module->Call("mq_send", {kMmio, 1, 96}).ok());

    // Snapshot every module global (rings, buffer, tails, counters).
    const std::pair<const char*, uint64_t> globals[] = {
        {"txrings", 512}, {"txbuf", 256}, {"tails", 32}, {"sents", 32}};
    auto snapshot = [&]() {
      std::vector<uint8_t> bytes;
      for (const auto& [name, size] : globals) {
        auto base = stack.module->GlobalAddress(name);
        EXPECT_TRUE(base.ok()) << name;
        std::vector<uint8_t> chunk(size);
        EXPECT_TRUE(
            stack.kernel.mem().Read(*base, chunk.data(), size).ok());
        bytes.insert(bytes.end(), chunk.begin(), chunk.end());
      }
      return bytes;
    };
    const std::vector<uint8_t> before = snapshot();
    const uint64_t packets_before = stack.sink.packets();

    // The doorbell store at the end of the batch hits user space and is
    // denied — after the batch loop has rewritten ring slots and tails.
    auto burst =
        stack.module->Call("mq_send_batch", {0x100, 1, 96, 5});
    EXPECT_FALSE(burst.ok());
    EXPECT_TRUE(stack.module->quarantined());

    const std::vector<uint8_t> after = snapshot();
    EXPECT_EQ(before, after) << "journal rollback left residue";
    EXPECT_EQ(stack.sink.packets(), packets_before)
        << "contained burst reached the wire";
  }
}

}  // namespace
}  // namespace kop
