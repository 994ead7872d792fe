#include "kop/trace/span.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdio>

#include "kop/sim/clock.hpp"
#include "kop/trace/trace.hpp"

namespace kop::trace {
namespace {

constexpr const char* kSpanKinds[kSpanKindCount] = {
    "span.module_call",    "span.engine_dispatch", "span.journal_commit",
    "span.journal_rollback", "span.recovery",       "span.napi_poll",
    "span.xmit_batch",
};

size_t RoundUpPow2(size_t n) {
  size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

size_t Index(SpanKind kind) {
  const size_t i = static_cast<size_t>(kind);
  return i < kSpanKindCount ? i : 0;
}

uint64_t NowTsc() {
  const sim::VirtualClock* clock = GlobalTracer().clock();
  return clock != nullptr ? clock->ReadTsc() : 0;
}

// EndSpan stores a SpanEvent as five words; these tie each word to the
// layout that readers copy back out of the slot.
static_assert(std::endian::native == std::endian::little);
static_assert(sizeof(SpanEvent) == 5 * sizeof(uint64_t));
static_assert(offsetof(SpanEvent, begin_tsc) == 0 * 8);
static_assert(offsetof(SpanEvent, end_tsc) == 1 * 8);
static_assert(offsetof(SpanEvent, seq) == 2 * 8);
static_assert(offsetof(SpanEvent, arg) == 3 * 8);
static_assert(offsetof(SpanEvent, kind) == 4 * 8 && sizeof(SpanKind) == 1);
static_assert(offsetof(SpanEvent, cpu) == 4 * 8 + 2);
static_assert(offsetof(SpanEvent, depth) == 4 * 8 + 4);

}  // namespace

std::string_view SpanKindName(SpanKind kind) { return kSpanKinds[Index(kind)]; }

SpanRecorder::SpanRecorder(size_t per_cpu_capacity)
    : per_cpu_capacity_(RoundUpPow2(per_cpu_capacity)) {
  for (auto& cpu : cpus_) cpu = std::make_unique<Cpu>(per_cpu_capacity_);
}

SpanRecorder::Cpu& SpanRecorder::Mine() {
  return *cpus_[smp::CurrentCpu() % cpus_.size()];
}

uint64_t SpanRecorder::BeginSpan() {
  Cpu& cpu = Mine();
  cpu.depth.store(cpu.depth.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  return NowTsc();
}

void SpanRecorder::EndSpan(SpanKind kind, uint64_t begin_tsc, uint64_t arg) {
  const uint64_t end_tsc = NowTsc();
  const uint32_t cpu_id = smp::CurrentCpu();
  Cpu& cpu = *cpus_[cpu_id % cpus_.size()];
  uint16_t depth = cpu.depth.load(std::memory_order_relaxed);
  if (depth > 0) --depth;
  cpu.depth.store(depth, std::memory_order_relaxed);
  const uint64_t kind_cpu_depth =
      static_cast<uint64_t>(kind) |
      uint64_t{static_cast<uint16_t>(cpu_id)} << 16 | uint64_t{depth} << 32;
  cpu.slots.AppendWith([&](uint64_t n, StampedRing<SpanEvent>::Words& w) {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    w[0].store(begin_tsc, kRelaxed);
    w[1].store(end_tsc, kRelaxed);
    w[2].store(n, kRelaxed);
    w[3].store(arg, kRelaxed);
    w[4].store(kind_cpu_depth, kRelaxed);
  });
  const uint64_t duration = end_tsc >= begin_tsc ? end_tsc - begin_tsc : 0;
  cpu.hist[Index(kind)].Observe(static_cast<double>(duration));
}

std::vector<SpanEvent> SpanRecorder::Snapshot() const {
  std::vector<SpanEvent> out;
  for (const auto& cpu : cpus_) cpu->slots.ReadTail(per_cpu_capacity_, &out);
  std::sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    if (a.begin_tsc != b.begin_tsc) return a.begin_tsc < b.begin_tsc;
    if (a.cpu != b.cpu) return a.cpu < b.cpu;
    return a.seq < b.seq;
  });
  return out;
}

std::vector<SpanEvent> SpanRecorder::Tail(uint32_t cpu_index, size_t n) const {
  std::vector<SpanEvent> out;
  if (cpu_index >= cpus_.size()) return out;
  cpus_[cpu_index]->slots.ReadTail(n, &out);
  return out;
}

SpanStats SpanRecorder::Stats(SpanKind kind) const {
  std::array<uint64_t, Log2Histogram::kBuckets> folded{};
  SpanStats stats;
  const size_t k = Index(kind);
  for (const auto& cpu : cpus_) {
    const Log2Buckets& hist = cpu->hist[k];
    for (size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
      folded[i] += hist.bucket(i);
    }
    stats.sum += hist.sum();
  }
  for (uint64_t b : folded) stats.count += b;
  stats.p50 = Log2Histogram::PercentileFromBuckets(folded, 50.0);
  stats.p90 = Log2Histogram::PercentileFromBuckets(folded, 90.0);
  stats.p99 = Log2Histogram::PercentileFromBuckets(folded, 99.0);
  stats.p999 = Log2Histogram::PercentileFromBuckets(folded, 99.9);
  return stats;
}

uint64_t SpanRecorder::total_recorded() const {
  uint64_t total = 0;
  for (const auto& cpu : cpus_) total += cpu->slots.appended();
  return total;
}

uint64_t SpanRecorder::CpuCount(uint32_t cpu_index, SpanKind kind) const {
  if (cpu_index >= cpus_.size()) return 0;
  return cpus_[cpu_index]->hist[Index(kind)].count();
}

std::string SpanRecorder::RenderText() const {
  std::string out =
      "span                     count        mean         p50         p90"
      "         p99        p999\n";
  char line[192];
  for (size_t k = 0; k < kSpanKindCount; ++k) {
    const SpanStats stats = Stats(static_cast<SpanKind>(k));
    std::snprintf(line, sizeof(line),
                  "%-22s %8llu %11.4g %11.4g %11.4g %11.4g %11.4g\n",
                  kSpanKinds[k], static_cast<unsigned long long>(stats.count),
                  stats.count == 0
                      ? 0.0
                      : stats.sum / static_cast<double>(stats.count),
                  stats.p50, stats.p90, stats.p99, stats.p999);
    out += line;
  }
  return out;
}

std::string SpanRecorder::RenderPrometheus() const {
  std::string out = "# TYPE kop_span_duration_cycles summary\n";
  char line[192];
  constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};
  for (size_t k = 0; k < kSpanKindCount; ++k) {
    const SpanStats stats = Stats(static_cast<SpanKind>(k));
    const double q[] = {stats.p50, stats.p90, stats.p99, stats.p999};
    for (size_t i = 0; i < 4; ++i) {
      std::snprintf(line, sizeof(line),
                    "kop_span_duration_cycles{span=\"%s\",quantile=\"%g\"} "
                    "%.6g\n",
                    kSpanKinds[k], kQuantiles[i], q[i]);
      out += line;
    }
    std::snprintf(line, sizeof(line),
                  "kop_span_duration_cycles_sum{span=\"%s\"} %.6g\n"
                  "kop_span_duration_cycles_count{span=\"%s\"} %llu\n",
                  kSpanKinds[k], stats.sum, kSpanKinds[k],
                  static_cast<unsigned long long>(stats.count));
    out += line;
  }
  return out;
}

void SpanRecorder::Reset() {
  for (const auto& cpu : cpus_) {
    cpu->depth.store(0, std::memory_order_relaxed);
    cpu->slots.Clear();
    for (auto& hist : cpu->hist) hist.Reset();
  }
}

SpanRecorder& GlobalSpans() {
  static SpanRecorder recorder;
  return recorder;
}

}  // namespace kop::trace
