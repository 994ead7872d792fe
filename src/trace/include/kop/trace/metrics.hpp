// The metrics registry: named counters, gauges (with high-watermark),
// and log2-bucket histograms that subsystems register into by name —
// guard latency, policy lookup depth, printk-ring occupancy, TX-ring
// occupancy. Get-or-create semantics: the first caller of a name mints
// the metric, later callers share it, so subsystems need no coordination
// and a torn-down kernel's successor keeps accumulating into the same
// process-wide series (exactly how /proc counters behave across
// module reload).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kop/smp/percpu.hpp"
#include "kop/util/spinlock.hpp"

namespace kop::trace {

class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A sampled level (ring occupancy, table size). Tracks the most recent
/// value and the high watermark since reset.
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// One writer's power-of-two buckets: bucket 0 holds values < 1, bucket
/// k holds [2^(k-1), 2^k). 64 buckets cover the full uint64 range, so a
/// cycle-latency histogram never saturates. Observe bumps one bucket and
/// the sum with a relaxed load+store each — no lock prefix, no CAS loop —
/// so it is exact under one writer (one simulated CPU) and readable from
/// any thread. SpanRecorder keeps one set per CPU per span kind.
class Log2Buckets {
 public:
  static constexpr size_t kBuckets = 64;

  /// Inline: guard paths observe on every decision.
  void Observe(double value) {
    // One writer per set: a load+store is an exact increment, and neither
    // needs a locked instruction. Readers see each field torn-free.
    std::atomic<uint64_t>& bucket = buckets_[Index(value)];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    sum_.store(sum_.load(std::memory_order_relaxed) + value,
               std::memory_order_relaxed);
  }
  /// `n` observations of one value: the same buckets and the same sum,
  /// bit for bit, as `n` Observe(value) calls in a row.
  void ObserveN(double value, uint64_t n);
  /// Observe() split in two for integral values: CountIn(v) bumps v's
  /// bucket now, and AddToSum later adds the values' total. Integers
  /// below 2^53 add exactly in any grouping, so while the sum stays below
  /// 2^53 this is bit for bit Observe(v) for each v.
  void CountIn(uint64_t value) {
    std::atomic<uint64_t>& bucket =
        buckets_[std::min<size_t>(std::bit_width(value), kBuckets - 1)];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  }
  void AddToSum(uint64_t total) {
    sum_.store(sum_.load(std::memory_order_relaxed) +
                   static_cast<double>(total),
               std::memory_order_relaxed);
  }

  /// Every observation lands in exactly one bucket, so the count is the
  /// bucket sum — read-side work that keeps Observe to one bucket bump
  /// plus the sum.
  uint64_t count() const {
    uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  // Bucket edges are powers of two, so for v in [1, 2^62) the bucket is
  // bit_width(floor(v)) — no libm on the guard hot path. Anything at or
  // above 2^62 lands in the clamp bucket either way.
  static size_t Index(double value) {
    if (value < 1.0) return 0;
    return value >= 0x1p62 ? kBuckets - 1
                           : static_cast<size_t>(std::bit_width(
                                 static_cast<uint64_t>(value)));
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
};

/// A shared log2 histogram: one Log2Buckets per simulated CPU, each
/// written only by its CPU, folded on read (as the policy engine's
/// CpuStats are). Host threads that share a CPU id may lose updates to
/// each other; nothing but the statistic depends on them.
class Log2Histogram {
 public:
  static constexpr size_t kBuckets = Log2Buckets::kBuckets;

  void Observe(double value);

  /// The calling CPU's bucket set. Pinned hot paths resolve it once per
  /// pin and observe into it directly, skipping the per-call CPU lookup.
  Log2Buckets& Mine() { return sets_.Mine(); }

  uint64_t count() const;
  /// Per-CPU sums added in CPU order; a single-CPU run reads its own sum
  /// back exactly.
  double sum() const;
  double mean() const {
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  uint64_t bucket(size_t i) const;
  /// Lower edge of bucket i (0 for bucket 0, else 2^(i-1)).
  static double BucketLo(size_t i);

  /// Interpolated quantile, p in [0, 100]. Walks cumulative bucket
  /// counts to the bucket holding rank p/100·n, then interpolates
  /// linearly inside it (HDR-histogram style): with c observations in a
  /// bucket [lo, hi) and k of the target rank falling inside it, the
  /// estimate is lo + k/c·(hi-lo). Returns 0 on an empty histogram.
  double Percentile(double p) const;

  /// The same interpolation over an externally folded bucket array —
  /// used to fold per-CPU histograms exactly on read before querying.
  static double PercentileFromBuckets(
      const std::array<uint64_t, kBuckets>& buckets, double p);

  size_t NonZeroBuckets() const;
  void Reset();

 private:
  smp::PerCpu<Log2Buckets> sets_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric flattened for export: counters carry `value`; gauges
/// `value` and `max`; histograms `count`, `sum`, and the bucket vector.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t value = 0;
  int64_t gauge_value = 0;
  int64_t gauge_max = 0;
  uint64_t count = 0;
  double sum = 0.0;
  std::vector<uint64_t> buckets;  // histograms only; trailing zeros trimmed
};

class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Log2Histogram* GetHistogram(const std::string& name);

  /// All metrics, sorted by name.
  std::vector<MetricSample> Snapshot() const;

  /// "name,kind,field,value" rows — the bench snapshot format.
  std::string RenderCsv() const;

  /// Human-readable table for proc-style dumps.
  std::string RenderText() const;

  /// Prometheus text exposition format (v0.0.4): counters and gauges as
  /// plain samples, histograms as cumulative `le` buckets plus `_sum`,
  /// `_count`, and interpolated p50/p99 quantile samples. Metric names
  /// have dots rewritten to underscores.
  std::string RenderPrometheus() const;

  /// Zero every registered metric (registrations survive).
  void Reset();

 private:
  mutable Spinlock lock_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Log2Histogram>> histograms_;
};

/// The registry every subsystem registers into.
MetricsRegistry& GlobalMetrics();

}  // namespace kop::trace
