// The three workloads and the two kinds of run (README.md):
//  - end to end (--trace 0): the rig wired as shipped, no wrappers, every
//    runtime toggle in its default state, rebuilt for every window;
//    prints every end-to-end metric.
//  - traced (--trace 1): the ledger. The shipped rig under each runtime
//    toggle, the raw companion, and a rig built with the timing wrappers
//    take turns in interleaved rounds; direct policy calls price one
//    decision.
//
// Host times are medians over a run's quiet windows. The host these
// numbers were tuned on alternates between quiet stretches and stretches
// of outside interference lasting seconds to tens of seconds, in which
// everything runs 35-50% slower (thread CPU time included); a plain
// median moves with the share of interference a run happened to catch.
// Blocks are grouped into windows of kWindowNs; a window is quiet when
// its median is within kQuietSlack of the quietest window's.
#include <sys/resource.h>

#include <functional>

#include "bench.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/span.hpp"
#include "kop/trace/trace.hpp"
#include "kop/util/carat_abi.hpp"
#include "rigs.hpp"

namespace kop::perfbench {
namespace {

constexpr int kSetupReps = 15;
/// Windows every host time is grouped into (see the top of this file).
constexpr uint64_t kWindowNs = 500'000'000;
constexpr double kQuietSlack = 0.05;
/// Interleaved rounds over the traced run's configurations.
constexpr int kToggleRounds = 6;
constexpr uint64_t kDirectBatch = 4096;

struct Workload {
  std::string name;
  std::function<std::unique_ptr<Rig>(DriverKind, uint64_t, Ledger*)> make;
  DriverKind driver;
  bool has_raw;  // a RawMemOps companion exists
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"sock_native", MakeSockRig, DriverKind::kGuarded, true},
      {"sock_kir", MakeSockRig, DriverKind::kKir, false},
      {"mq_churn", MakeMqRig, DriverKind::kGuarded, true},
  };
  return workloads;
}

/// Host and virtual samples of blocks, one entry per block, grouped into
/// windows (one RunWindow call each).
struct Samples {
  std::vector<double> pkt_ns;  // host ns per packet
  std::vector<double> vcyc;    // virtual cycles per packet
  std::array<std::vector<double>, kLayerCount> self_ns;  // ledger only
  std::vector<size_t> windows;      // index of each window's first block
  std::vector<uint64_t> window_ns;  // host time each window began
  uint64_t packets = 0;
};

/// One window: blocks until `budget_ns` has passed and at least
/// `min_blocks` ran.
void RunWindow(Rig& rig, Ledger* ledger, uint64_t min_blocks,
               uint64_t budget_ns, Samples* out) {
  static uint64_t block_id = 0;
  const uint64_t start = NowNs();
  out->windows.push_back(out->pkt_ns.size());
  out->window_ns.push_back(start);
  for (uint64_t n = 0; n < min_blocks || NowNs() - start < budget_ns; ++n) {
    if (ledger != nullptr) ledger->BeginBlock(block_id);
    ++block_id;
    const double v0 = rig.kernel().clock().NowCycles();
    const uint64_t t0 = NowNs();
    rig.RunBlock();
    const uint64_t t1 = NowNs();
    const double v1 = rig.kernel().clock().NowCycles();
    out->pkt_ns.push_back(static_cast<double>(t1 - t0) / kBlockPackets);
    out->vcyc.push_back((v1 - v0) / kBlockPackets);
    out->packets += kBlockPackets;
    if (ledger != nullptr) {
      for (size_t l = 0; l < kLayerCount; ++l) {
        out->self_ns[l].push_back(
            static_cast<double>(ledger->block_self()[l]) / kBlockPackets);
      }
    }
    rig.BetweenBlocks();
  }
}

/// The blocks, and the host-time spans, of a run's quiet windows. A
/// window's span runs from its start to the next window's start, so work
/// done between two windows counts with the one before it.
struct Quiet {
  std::vector<size_t> blocks;
  std::vector<std::pair<uint64_t, uint64_t>> spans;

  double Median(const std::vector<double>& per_block) const {
    std::vector<double> picked;
    for (size_t b : blocks) picked.push_back(per_block[b]);
    return perfbench::Median(picked);
  }
  /// Median of the samples taken inside the quiet spans.
  double Median(const std::vector<double>& values,
                const std::vector<uint64_t>& at_ns) const {
    std::vector<double> picked;
    for (size_t i = 0; i < values.size(); ++i) {
      for (const auto& [begin, end] : spans) {
        if (at_ns[i] >= begin && at_ns[i] < end) {
          picked.push_back(values[i]);
          break;
        }
      }
    }
    return perfbench::Median(picked);
  }
};

Quiet SelectQuiet(const Samples& s) {
  const size_t n = s.windows.size();
  auto block_end = [&](size_t w) {
    return w + 1 < n ? s.windows[w + 1] : s.pkt_ns.size();
  };
  std::vector<double> medians(n, 0.0);
  double quietest = 0;
  for (size_t w = 0; w < n; ++w) {
    medians[w] = Median(std::vector<double>(
        s.pkt_ns.begin() + static_cast<long>(s.windows[w]),
        s.pkt_ns.begin() + static_cast<long>(block_end(w))));
    if (w == 0 || medians[w] < quietest) quietest = medians[w];
  }
  Quiet quiet;
  for (size_t w = 0; w < n; ++w) {
    if (medians[w] > quietest * (1 + kQuietSlack)) continue;
    for (size_t b = s.windows[w]; b < block_end(w); ++b) {
      quiet.blocks.push_back(b);
    }
    quiet.spans.emplace_back(s.window_ns[w],
                             w + 1 < n ? s.window_ns[w + 1] : ~uint64_t{0});
  }
  return quiet;
}

/// The seed-determined window every virtual metric is read from.
Samples RunPrefix(Rig& rig, Ledger* ledger) {
  Samples prefix;
  rig.set_record_virtual(true);
  RunWindow(rig, ledger, kPrefixBlocks, 0, &prefix);
  rig.set_record_virtual(false);
  return prefix;
}

/// Build the rig kSetupReps times (each torn down before the next) and
/// keep the last, collecting the compile and insmod time of each build.
std::unique_ptr<Rig> SetUp(const Workload& w, uint64_t seed,
                           std::vector<double>* compile_ns,
                           std::vector<double>* insmod_ns) {
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    rig = w.make(w.driver, seed, nullptr);
    compile_ns->push_back(rig->compile_ns());
    insmod_ns->push_back(rig->insmod_ns());
  }
  return rig;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Host ns of one call to `op` (which makes `per_op` decisions), timed in
/// batches of a fraction of a millisecond until `budget_ns` has passed;
/// the lower quartile keeps interfered batches out.
double DirectNs(const std::function<void()>& op, uint64_t per_op,
                uint64_t budget_ns) {
  std::vector<double> samples;
  const uint64_t start = NowNs();
  while (samples.size() < 5 || NowNs() - start < budget_ns) {
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < kDirectBatch; ++i) op();
    samples.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(kDirectBatch * per_op));
  }
  return Quantile(samples, 0.25);
}

/// First-match scan depth, the frame's own semantics (every entry
/// examined, including the match).
double FirstMatchDepth(const std::vector<policy::Region>& regions,
                       uint64_t addr) {
  for (size_t i = 0; i < regions.size(); ++i) {
    if (regions[i].Contains(addr, 8)) return static_cast<double>(i + 1);
  }
  return static_cast<double>(regions.size());
}

void SetObservability(bool spans, bool tracepoints) {
  trace::GlobalSpans().SetEnabled(spans);
  trace::GlobalTracer().SetEnabled(tracepoints);
}

// ------------------------------------------------------- end to end --

Report RunEndToEnd(const Workload& w, const Options& options) {
  std::unique_ptr<Rig> rig = w.make(w.driver, options.seed, nullptr);
  const Samples prefix = RunPrefix(*rig, nullptr);
  const std::vector<double> vlat = rig->vlat();
  // The program's footprint once set up and warm; the timed loop below
  // grows only the benchmark's own sample arrays.
  const double rss_mb = PeakRssMb();

  // Every window runs on a freshly set-up rig: the one before it is
  // checked and torn down, and building its successor is the set-up
  // sample, so set-up time is sampled across the run and read from its
  // quiet windows like every other host time.
  Report report;
  Samples run;
  std::vector<double> setup_ns, update_us;
  std::vector<uint64_t> setup_at, update_at;
  const uint64_t start = NowNs();
  do {
    RunWindow(*rig, nullptr, 1, kWindowNs, &run);
    rig->CheckOutputs();
    report.attempted += rig->attempted();
    const PolicyUpdater& updater = rig->updater();
    update_us.insert(update_us.end(), updater.enforce_us().begin(),
                     updater.enforce_us().end());
    update_at.insert(update_at.end(), updater.issued_ns().begin(),
                     updater.issued_ns().end());
    rig.reset();
    const uint64_t t0 = NowNs();
    rig = w.make(w.driver, options.seed, nullptr);
    setup_ns.push_back(static_cast<double>(NowNs() - t0));
    setup_at.push_back(t0);
  } while (NowNs() - start < uint64_t{options.seconds} * 1'000'000'000);
  const Quiet quiet = SelectQuiet(run);

  report.Add("pkt_ns_p50", quiet.Median(run.pkt_ns), "ns");
  report.Add("vcycles_per_pkt", Median(prefix.vcyc), "cycles");
  report.Add("vlat_p50_cycles", Quantile(vlat, 0.50), "cycles");
  report.Add("vlat_p99_cycles", Quantile(vlat, 0.99), "cycles");
  report.Add("policy_update_us_p50", quiet.Median(update_us, update_at),
             "us");
  report.Add("setup_s", quiet.Median(setup_ns, setup_at) / 1e9, "s");
  report.Add("rss_mb", rss_mb, "MB");
  return report;
}

// ----------------------------------------------------------- traced --

Report RunTraced(const Workload& w, const Options& options,
                 const std::string& provenance) {
  const bool kir = w.driver == DriverKind::kKir;
  const uint64_t budget = uint64_t{options.seconds} * 1'000'000'000;
  Report report;

  // Three rigs live side by side: the end-to-end wiring, its RawMemOps
  // companion (native), and the instrumented rig behind the ledger.
  std::vector<double> compile_ns, insmod_ns;
  std::unique_ptr<Rig> plain = SetUp(w, options.seed, &compile_ns, &insmod_ns);
  std::unique_ptr<Rig> raw =
      w.has_raw ? w.make(DriverKind::kRaw, options.seed, nullptr) : nullptr;
  Ledger ledger;
  std::unique_ptr<Rig> inst = w.make(w.driver, options.seed, &ledger);
  const Samples plain_prefix = RunPrefix(*plain, nullptr);
  const Samples raw_prefix = raw ? RunPrefix(*raw, nullptr) : Samples();
  RunPrefix(*inst, &ledger);

  // Interleaved rounds, one window per configuration per round: default,
  // spans off, tracepoints off, journaling off (KIR), raw companion
  // (native), instrumented. Each delta is taken between windows of the
  // same round, which share the host's state, then the median over
  // rounds is kept.
  enum Config { kOn, kSpansOff, kTraceOff, kJournalOff, kRaw, kInst, kConfigs };
  std::vector<Config> configs = {kOn, kSpansOff, kTraceOff};
  configs.push_back(kir ? kJournalOff : kRaw);
  configs.push_back(kInst);
  std::array<Samples, kConfigs> samples;
  const uint64_t slice = budget * 85 / 100 / (kToggleRounds * configs.size());
  for (int round = 0; round < kToggleRounds; ++round) {
    for (Config c : configs) {
      SetObservability(c != kSpansOff, c != kTraceOff);
      if (kir) plain->module()->set_journaling_enabled(c != kJournalOff);
      Rig& rig = c == kRaw ? *raw : c == kInst ? *inst : *plain;
      RunWindow(rig, c == kInst ? &ledger : nullptr, 1, slice, &samples[c]);
    }
  }
  SetObservability(true, true);
  if (kir) plain->module()->set_journaling_enabled(true);
  auto window_median = [&](Config c, int round) {
    const Samples& s = samples[c];
    const size_t begin = s.windows[static_cast<size_t>(round)];
    const size_t end = round + 1 < kToggleRounds
                           ? s.windows[static_cast<size_t>(round) + 1]
                           : s.pkt_ns.size();
    return Median(std::vector<double>(s.pkt_ns.begin() + static_cast<long>(begin),
                                      s.pkt_ns.begin() + static_cast<long>(end)));
  };
  auto paired = [&](Config c, const std::function<double(double, double)>& f) {
    if (samples[c].packets == 0) return 0.0;
    std::vector<double> per_round;
    for (int r = 0; r < kToggleRounds; ++r) {
      per_round.push_back(f(window_median(kOn, r), window_median(c, r)));
    }
    return Median(per_round);
  };
  auto minus = [](double on, double other) { return on - other; };

  // Per-packet counts over a stretch of the instrumented rig alone.
  trace::Counter* deopts = trace::GlobalMetrics().GetCounter("guard.deopt");
  trace::Log2Histogram* depth =
      trace::GlobalMetrics().GetHistogram("policy.lookup_depth");
  depth->Reset();
  const policy::GuardStats stats0 = inst->engine().stats();
  const uint64_t deopts0 = deopts->value();
  const uint64_t mmio0 = inst->mmio_ops();
  const uint64_t steps0 = inst->kir_steps();
  Samples counted;
  RunWindow(*inst, &ledger, kPrefixBlocks, 0, &counted);
  const policy::GuardStats stats1 = inst->engine().stats();
  const uint64_t inst_mmio_ops = inst->mmio_ops();
  const uint64_t inst_steps = inst->kir_steps();
  const double packets = static_cast<double>(counted.packets);
  auto per_pkt = [packets](uint64_t count) {
    return static_cast<double>(count) / packets;
  };
  const double guards_per_pkt = per_pkt(stats1.guard_calls - stats0.guard_calls);
  double depth_mean = depth->mean();
  if (kir) {
    // The inline path records no depth; scan the frame for the addresses
    // knic_send guards, exactly as FrameLookup would.
    const std::vector<policy::Region> regions = inst->engine().FrameSnapshot();
    const std::vector<uint64_t> addrs = inst->guarded_addrs();
    depth_mean = 0;
    for (uint64_t a : addrs) depth_mean += FirstMatchDepth(regions, a);
    depth_mean /= static_cast<double>(addrs.size());
  }

  // Direct calls into the policy engine on this workload's own policy,
  // at an address the driver guards on every packet.
  policy::PolicyEngine& engine = plain->engine();
  const uint64_t addr = plain->hot_addr();
  uint64_t decided = 0;
  uint64_t allowed = 0;
  const double check_ns = DirectNs(
      [&] {
        ++decided;
        allowed += engine.Check(addr, 8, kGuardAccessWrite);
      },
      1, budget / 40);
  const double guard_ns = DirectNs(
      [&] {
        ++decided;
        allowed += engine.Guard(addr, 8, kGuardAccessWrite);
      },
      1, budget / 40);
  auto pinned_guards = [&] {
    engine.PinFrame();
    for (int i = 0; i < 64; ++i) {
      ++decided;
      allowed += engine.FastGuard(addr, 8, kGuardAccessWrite, 0);
    }
    engine.UnpinFrame();
  };
  const double fast_guard_ns = DirectNs(pinned_guards, 64, budget / 40);
  // The same inline decision with spans and tracepoints off: the part of
  // a KIR guard that is neither, so the KIR ledger counts those once.
  SetObservability(false, false);
  const double fast_guard_bare_ns = DirectNs(pinned_guards, 64, budget / 80);
  SetObservability(true, true);
  Expect(allowed == decided, "direct policy call denied or deopted");
  const double guard_cycles = plain->kernel().machine().GuardCycles(
      static_cast<uint32_t>(engine.FrameSnapshot().size()));

  for (Rig* rig : {plain.get(), raw.get(), inst.get()}) {
    if (rig == nullptr) continue;
    rig->CheckOutputs();
    report.attempted += rig->attempted();
  }
  const Quiet quiet = SelectQuiet(samples[kInst]);
  const PolicyUpdater& updater = inst->updater();
  const double ioctl_us = quiet.Median(updater.ioctl_us(), updater.issued_ns());
  const double republish_us =
      quiet.Median(updater.republish_us(), updater.issued_ns());
  const double frames_per_update =
      static_cast<double>(updater.frames_published()) /
      static_cast<double>(updater.updates());
  inst.reset();
  raw.reset();
  plain.reset();
  if (!options.spans_out.empty()) {
    Expect(ledger.WriteJson(options.spans_out, provenance),
           "cannot write " + options.spans_out);
  }

  const Samples& traced = samples[kInst];
  auto self = [&](Layer layer) {
    return quiet.Median(traced.self_ns[static_cast<size_t>(layer)]);
  };
  const double traced_ns = quiet.Median(traced.pkt_ns);
  const double spans_ns = paired(kSpansOff, minus);
  const double tracepoints_ns = paired(kTraceOff, minus);
  const double journal_ns = paired(kJournalOff, minus);
  const double raw_ns =
      raw_prefix.packets ? SelectQuiet(samples[kRaw]).Median(samples[kRaw].pkt_ns)
                         : 0.0;
  // Native: guarded minus raw. KIR has no unguarded build the loader
  // accepts, so its guard cost is priced from the direct inline calls.
  const double guard_ns_per_pkt =
      kir ? guards_per_pkt * fast_guard_ns : paired(kRaw, minus);
  const double guard_vcycles_per_pkt =
      kir ? guards_per_pkt * guard_cycles
          : Median(plain_prefix.vcyc) - Median(raw_prefix.vcyc);
  double ledger_sum = 0;
  for (size_t l = 0; l < kLayerCount; ++l) {
    ledger_sum += self(static_cast<Layer>(l));
  }
  // The module call including the device work inside it (KIR only; the
  // native drivers have no kCall spans).
  std::vector<double> call_ns = traced.self_ns[static_cast<size_t>(Layer::kCall)];
  for (size_t b = 0; b < call_ns.size(); ++b) {
    call_ns[b] += traced.self_ns[static_cast<size_t>(Layer::kNic)][b];
  }
  const double call_ns_per_pkt = kir ? quiet.Median(call_ns) : 0.0;
  const double dispatch_self =
      kir ? call_ns_per_pkt - self(Layer::kNic) - journal_ns - spans_ns -
                tracepoints_ns - guards_per_pkt * fast_guard_bare_ns
          : 0.0;
  std::vector<double> on_quiet;
  for (size_t b : SelectQuiet(samples[kOn]).blocks) {
    on_quiet.push_back(samples[kOn].pkt_ns[b]);
  }

  report.Add("net.sendmsg_self_ns", self(Layer::kNet), "ns");
  report.Add("e1000e.xmit_self_ns_per_pkt", self(Layer::kXmit), "ns");
  report.Add("e1000e.napi_self_ns_per_pkt", self(Layer::kNapi), "ns");
  report.Add("e1000e.raw_pkt_ns_p50", raw_ns, "ns");
  report.Add("policy.guard_ns_per_pkt", guard_ns_per_pkt, "ns");
  report.Add("policy.guard_vcycles_per_pkt", guard_vcycles_per_pkt, "cycles");
  report.Add("policy.guards_per_pkt", guards_per_pkt, "count");
  report.Add("policy.elided_per_pkt", per_pkt(stats1.elided - stats0.elided),
             "count");
  report.Add("policy.deopts_per_pkt", per_pkt(deopts->value() - deopts0),
             "count");
  report.Add("policy.lookup_depth_mean", depth_mean, "count");
  report.Add("policy.check_ns", check_ns, "ns");
  report.Add("policy.guard_ns", guard_ns, "ns");
  report.Add("policy.fast_guard_ns", fast_guard_ns, "ns");
  report.Add("policy.update_ioctl_us", ioctl_us, "us");
  report.Add("policy.republish_us", republish_us, "us");
  report.Add("policy.frames_per_update", frames_per_update, "count");
  report.Add("trace.spans_ns_per_pkt", spans_ns, "ns");
  report.Add("trace.tracepoints_ns_per_pkt", tracepoints_ns, "ns");
  report.Add("nic.mmio_ns_per_pkt", self(Layer::kNic), "ns");
  report.Add("nic.mmio_ops_per_pkt", per_pkt(inst_mmio_ops - mmio0), "count");
  report.Add("kernel.call_ns_per_pkt", call_ns_per_pkt, "ns");
  report.Add("kernel.insmod_ms", Median(insmod_ns) / 1e6, "ms");
  report.Add("resilience.journal_ns_per_pkt", journal_ns, "ns");
  report.Add("kir.steps_per_pkt", per_pkt(inst_steps - steps0), "count");
  report.Add("kir.dispatch_self_ns_per_pkt", dispatch_self, "ns");
  report.Add("transform.compile_ms", Median(compile_ns) / 1e6, "ms");
  report.Add("ledger.traced_pkt_ns_p50", traced_ns, "ns");
  report.Add("ledger.unexplained_frac", 1.0 - ledger_sum / traced_ns,
             "fraction");
  report.Add("ledger.trace_overhead_frac",
             paired(kInst, [](double on, double inst) { return inst / on; }) -
                 1.0,
             "fraction");
  report.Add("host.pkt_ns_p99", Quantile(on_quiet, 0.99), "ns");
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Workload& w : Workloads()) out.push_back(w.name);
    return out;
  }();
  return names;
}

Report RunWorkload(const Options& options, const std::string& provenance) {
  for (const Workload& w : Workloads()) {
    if (w.name != options.workload) continue;
    SetObservability(true, true);
    return options.trace ? RunTraced(w, options, provenance)
                         : RunEndToEnd(w, options);
  }
  throw RunFailure("unknown workload " + options.workload);
}

}  // namespace kop::perfbench
