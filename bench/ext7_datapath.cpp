// Extension 7: end-to-end datapath throughput on the multi-queue NIC.
// Each point builds a fresh stack — kernel, e1000 device model, policy
// engine, native Driver<Ops> probed with ProbeMq — and drives a NAPI-
// style transmit loop from N simulated CPUs: every CPU owns the queues
// where queue % cpus == cpu (kop::smp's round-robin affinity), stages
// descriptor batches with XmitBatch (one doorbell per burst), and
// reclaims with NapiPoll, exactly as the datapath tests pin it.
//
// Two techniques per point:
//
//   raw       Driver<RawMemOps> — module memory ops hit simulated
//             memory directly (the unguarded baseline build)
//   guarded   Driver<GuardedMemOps> — every load/store runs the CARAT
//             KOP policy check first
//
// Throughput is packets per second on the virtual clock: the elapsed
// time of an SMP run is MaxCycles() (CPUs advance in parallel), so
// pps = packets / (MaxCycles / freq). Per-point NAPI latency comes from
// the kNapiPoll span histogram (p50/p99 in virtual cycles). Each row also
// carries its cost relative to the raw build at the same point, in both
// currencies: elapsed virtual cycles (cycles_vs_raw, gated) and host
// wall-clock ns (wall_vs_raw, reported, not gated — host time is noisy
// on shared machines, and the virtual clock is the contract).
//
// Acceptance (gates checked at the end, per technique):
//   - >= 6x pps going 1 -> 8 CPUs on the 8-queue sweep (>= 4 queues in
//     play; KOP_EXT7_GATE overrides the 6.0 for reduced CI smokes)
//   - guarded/raw elapsed-cycles ratio <= 1.3x at every point
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "kop/e1000e/driver.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/net/frame.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/smp/executor.hpp"
#include "kop/trace/span.hpp"

#include "common/experiment.hpp"

namespace {

using WallClock = std::chrono::steady_clock;
using kop::e1000e::BaselineDriver;
using kop::e1000e::CaratDriver;
using kop::e1000e::GuardedMemOps;
using kop::e1000e::RawMemOps;
using kop::e1000e::TxFrame;
using kop::kernel::Kernel;

constexpr uint64_t kMmio = kop::kernel::kVmallocBase;
constexpr uint32_t kRingEntries = 256;
constexpr uint64_t kFlowSeed = 7;

struct Point {
  uint64_t packets = 0;
  double max_cycles = 0;
  double total_cycles = 0;
  double pps = 0;          // packets/sec on the virtual clock
  double napi_p50 = 0;     // kNapiPoll span percentiles, virtual cycles
  double napi_p99 = 0;
  double wall_ns = 0;
};

// One measured point: `cpus` CPUs drive `queues` queues (each CPU owns
// the queues congruent to it mod `cpus`), each queue receiving
// `bursts` bursts of `burst` frames through XmitBatch + NapiPoll.
// Templated over the driver so raw and guarded runs share every byte of
// the workload.
template <typename DriverT, typename OpsFn>
bool MeasurePoint(uint32_t queues, uint32_t cpus, uint64_t bursts,
                  uint32_t burst, int rounds, OpsFn make_ops, Point* out) {
  Point best;
  for (int round = 0; round < rounds; ++round) {
    Kernel kernel;
    kop::nic::CountingSink sink;
    kop::nic::E1000Device device(&kernel.mem(), &sink);
    device.AttachClock(&kernel.clock());
    if (!device.MapAt(kMmio).ok()) return false;
    auto policy = kop::policy::PolicyModule::Insert(
        &kernel, nullptr, kop::policy::PolicyMode::kDefaultAllow);
    if (!policy.ok()) return false;
    auto driver = DriverT::ProbeMq(make_ops(&kernel, &(*policy)->engine()),
                                   kMmio, kRingEntries, queues);
    if (!driver.ok()) {
      std::fprintf(stderr, "probe failed: %s\n",
                   driver.status().ToString().c_str());
      return false;
    }

    // Per-queue staging frames from the seeded flow population (stable
    // sizes spanning the copybreak boundary; XmitBatch needs >= 60B).
    const kop::net::FlowSet flows(queues, kFlowSeed);
    std::vector<uint64_t> staging(queues);
    std::vector<uint32_t> staged_len(queues);
    for (uint32_t q = 0; q < queues; ++q) {
      auto addr = kernel.heap().Kmalloc(2048, 64);
      if (!addr.ok()) return false;
      staging[q] = *addr;
      auto wire = flows.MakeWire(q, 0);
      wire.resize(std::max<size_t>(wire.size(), kop::e1000e::kEthZlen), 0);
      staged_len[q] = static_cast<uint32_t>(wire.size());
      if (!kernel.mem().Write(staging[q], wire.data(), wire.size()).ok()) {
        return false;
      }
    }

    kop::trace::GlobalSpans().Reset();

    auto& clock = kernel.clock();
    const double max_before = clock.MaxCycles();
    const double total_before = clock.TotalCycles();
    const auto wall_begin = WallClock::now();

    // Each CPU counts in a local and stores its (adjacent) sent_per_cpu
    // slot once, after its bursts; any CPU may raise `failed`.
    std::vector<uint64_t> sent_per_cpu(cpus, 0);
    std::atomic<bool> failed{false};
    kop::smp::RunOnCpus(cpus, [&](uint32_t cpu) {
      std::vector<TxFrame> frames(burst);
      uint64_t sent = 0;
      for (uint64_t i = 0; i < bursts; ++i) {
        for (uint32_t q = cpu; q < queues; q += cpus) {
          std::fill(frames.begin(), frames.end(),
                    TxFrame{staging[q], staged_len[q]});
          uint32_t queued = 0;
          auto status =
              (*driver).XmitBatch(q, frames.data(), burst, &queued);
          if (!status.ok() || queued != burst) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
          sent += queued;
          auto work = (*driver).NapiPoll(q, 32, nullptr);
          if (!work.ok()) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
      }
      sent_per_cpu[cpu] = sent;
      // Drain the owned queues until reclaim reports no work.
      for (uint32_t q = cpu; q < queues; q += cpus) {
        for (int spins = 0; spins < 8; ++spins) {
          auto work = (*driver).NapiPoll(q, 64, nullptr);
          if (!work.ok() || *work == 0) break;
        }
      }
    });
    if (failed.load(std::memory_order_relaxed)) return false;

    Point m;
    m.wall_ns = std::chrono::duration<double, std::nano>(WallClock::now() -
                                                         wall_begin)
                    .count();
    m.max_cycles = clock.MaxCycles() - max_before;
    m.total_cycles = clock.TotalCycles() - total_before;
    for (uint32_t cpu = 0; cpu < cpus; ++cpu) m.packets += sent_per_cpu[cpu];
    if (m.packets != uint64_t{queues} * bursts * burst) {
      std::fprintf(stderr, "short run: %llu packets\n",
                   (unsigned long long)m.packets);
      return false;
    }
    const double freq = kernel.machine().freq_hz;
    m.pps = m.packets / (m.max_cycles / freq);
    const auto napi =
        kop::trace::GlobalSpans().Stats(kop::trace::SpanKind::kNapiPoll);
    m.napi_p50 = napi.p50;
    m.napi_p99 = napi.p99;
    if (sink.packets() != m.packets) return false;

    // The virtual clock is deterministic; rounds only tighten wall_ns.
    if (best.packets == 0 || m.wall_ns < best.wall_ns) best = m;
  }
  *out = best;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using kop::bench::PositionalArg;
  const char* usage = "[bursts=64] [burst=16] [rounds=2]";
  const uint64_t bursts = PositionalArg(argc, argv, 1, 64, usage);
  const uint32_t burst = PositionalArg<uint32_t>(argc, argv, 2, 16, usage);
  const int rounds = PositionalArg<int>(argc, argv, 3, 2, usage);

  // KOP_EXT7_GATE overrides the 8-CPU speedup floor (CI smokes run far
  // fewer bursts, where fixed probe cost eats into scaling).
  const double min_speedup = kop::bench::GateEnv("KOP_EXT7_GATE", 6.0);

  const uint32_t queue_points[] = {1, 4, 8};
  const uint32_t cpu_points[] = {1, 2, 4, 8};

  std::printf(
      "ext7_datapath: multi-queue NAPI datapath, %llu bursts x %u frames "
      "per queue, %d round(s)\n",
      (unsigned long long)bursts, burst, rounds);
  std::printf("%-8s %3s %5s %9s %14s %12s %9s %9s %9s %8s %8s\n", "tech",
              "q", "cpus", "packets", "max_cycles", "pps_virtual", "speedup",
              "napi_p50", "napi_p99", "cyc/raw", "wall/raw");

  std::string csv =
      "technique,queues,cpus,packets,max_cycles,total_cycles,pps_virtual,"
      "speedup_vs_1cpu,napi_p50_cycles,napi_p99_cycles,wall_ns,"
      "cycles_vs_raw,wall_vs_raw\n";

  bool failed = false;
  double speedup_8cpu[2] = {0, 0};  // [raw, guarded] on the 8-queue sweep
  double worst_overhead = 0;        // max guarded/raw elapsed-cycle ratio
  double worst_wall_overhead = 0;   // max guarded/raw host wall-ns ratio

  for (uint32_t queues : queue_points) {
    double base_pps[2] = {0, 0};
    for (uint32_t cpus : cpu_points) {
      // A CPU with no queue to own would idle; sharing a queue across
      // CPUs is not part of the datapath contract (one poller per queue).
      if (cpus > queues) continue;
      Point pts[2];
      const char* names[2] = {"raw", "guarded"};
      if (!MeasurePoint<BaselineDriver>(
              queues, cpus, bursts, burst, rounds,
              [](Kernel* k, kop::policy::PolicyEngine*) {
                return RawMemOps(k);
              },
              &pts[0])) {
        return 1;
      }
      if (!MeasurePoint<CaratDriver>(
              queues, cpus, bursts, burst, rounds,
              [](Kernel* k, kop::policy::PolicyEngine* e) {
                return GuardedMemOps(k, e);
              },
              &pts[1])) {
        return 1;
      }
      const double overhead = pts[0].max_cycles > 0
                                  ? pts[1].max_cycles / pts[0].max_cycles
                                  : 0;
      if (overhead > worst_overhead) worst_overhead = overhead;
      const double wall_overhead =
          pts[0].wall_ns > 0 ? pts[1].wall_ns / pts[0].wall_ns : 0;
      if (wall_overhead > worst_wall_overhead) {
        worst_wall_overhead = wall_overhead;
      }
      for (int t = 0; t < 2; ++t) {
        const Point& m = pts[t];
        if (cpus == 1) base_pps[t] = m.pps;
        const double speedup = base_pps[t] > 0 ? m.pps / base_pps[t] : 0;
        if (queues == 8 && cpus == 8) speedup_8cpu[t] = speedup;
        const double cycles_vs_raw = t == 0 ? 1.0 : overhead;
        const double wall_vs_raw = t == 0 ? 1.0 : wall_overhead;
        char line[256];
        std::snprintf(
            line, sizeof(line),
            "%s,%u,%u,%llu,%.1f,%.1f,%.0f,%.3f,%.1f,%.1f,%.0f,%.3f,%.3f\n",
            names[t], queues, cpus, (unsigned long long)m.packets,
            m.max_cycles, m.total_cycles, m.pps, speedup, m.napi_p50,
            m.napi_p99, m.wall_ns, cycles_vs_raw, wall_vs_raw);
        csv += line;
        std::printf(
            "%-8s %3u %5u %9llu %14.1f %12.3e %8.2fx %9.1f %9.1f %7.3fx "
            "%7.2fx\n",
            names[t], queues, cpus, (unsigned long long)m.packets,
            m.max_cycles, m.pps, speedup, m.napi_p50, m.napi_p99,
            cycles_vs_raw, wall_vs_raw);
      }
    }
  }

  std::printf(
      "guarded 8-queue 8-CPU speedup %.2fx (need >= %.2fx), raw %.2fx; "
      "worst guarded/raw elapsed ratio %.3fx (need <= 1.3x); worst host "
      "wall ratio %.2fx (reported, not gated)\n",
      speedup_8cpu[1], min_speedup, speedup_8cpu[0], worst_overhead,
      worst_wall_overhead);
  if (speedup_8cpu[1] < min_speedup) failed = true;
  if (worst_overhead > 1.3) failed = true;

  kop::bench::WriteResultsFile("ext7_datapath.csv", csv);
  return failed ? 1 : 0;
}
