#include "kop/trace/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>

namespace kop::trace {

void Log2Buckets::ObserveN(double value, uint64_t n) {
  std::atomic<uint64_t>& bucket = buckets_[Index(value)];
  bucket.store(bucket.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  // Integers below 2^53 are exact doubles, so when the value and the sum
  // are integral and every partial sum stays under 2^53 (the bound is
  // computed with monotone rounding, so passing it proves it), each
  // unbatched addition is exact and one multiply-add equals them all.
  // Otherwise add one at a time: floating-point addition rounds at every
  // step, and the sum must match unbatched observation bit for bit.
  if (value == std::trunc(value) && sum == std::trunc(sum) &&
      std::fabs(sum) + static_cast<double>(n) * std::fabs(value) < 0x1p53) {
    sum += static_cast<double>(n) * value;
  } else {
    for (uint64_t i = 0; i < n; ++i) sum += value;
  }
  sum_.store(sum, std::memory_order_relaxed);
}

void Log2Buckets::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

void Log2Histogram::Observe(double value) { sets_.Mine().Observe(value); }

uint64_t Log2Histogram::count() const {
  uint64_t n = 0;
  sets_.ForEach([&n](uint32_t, const Log2Buckets& set) { n += set.count(); });
  return n;
}

double Log2Histogram::sum() const {
  double total = 0.0;
  sets_.ForEach(
      [&total](uint32_t, const Log2Buckets& set) { total += set.sum(); });
  return total;
}

uint64_t Log2Histogram::bucket(size_t i) const {
  uint64_t n = 0;
  sets_.ForEach([&](uint32_t, const Log2Buckets& set) { n += set.bucket(i); });
  return n;
}

double Log2Histogram::BucketLo(size_t i) {
  return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

double Log2Histogram::Percentile(double p) const {
  std::array<uint64_t, kBuckets> snapshot;
  for (size_t i = 0; i < kBuckets; ++i) snapshot[i] = bucket(i);
  return PercentileFromBuckets(snapshot, p);
}

double Log2Histogram::PercentileFromBuckets(
    const std::array<uint64_t, kBuckets>& buckets, double p) {
  uint64_t n = 0;
  for (uint64_t b : buckets) n += b;
  if (n == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  const double target = p / 100.0 * static_cast<double>(n);
  double cumulative = 0.0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double next = cumulative + static_cast<double>(buckets[i]);
    if (target <= next) {
      const double lo = BucketLo(i);
      const double hi = BucketLo(i + 1);
      const double within = (target - cumulative) / static_cast<double>(buckets[i]);
      return lo + within * (hi - lo);
    }
    cumulative = next;
  }
  // p == 100 with rounding slop: the upper edge of the last nonzero bucket.
  for (size_t i = kBuckets; i > 0; --i) {
    if (buckets[i - 1] != 0) return BucketLo(i);
  }
  return 0.0;
}

size_t Log2Histogram::NonZeroBuckets() const {
  size_t n = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (bucket(i) != 0) ++n;
  }
  return n;
}

void Log2Histogram::Reset() {
  sets_.ForEach([](uint32_t, Log2Buckets& set) { set.Reset(); });
}

namespace {

/// Percentile over a MetricSample's (trimmed) bucket vector.
double SamplePercentile(const MetricSample& sample, double p) {
  std::array<uint64_t, Log2Histogram::kBuckets> buckets{};
  for (size_t i = 0; i < sample.buckets.size() && i < buckets.size(); ++i) {
    buckets[i] = sample.buckets[i];
  }
  return Log2Histogram::PercentileFromBuckets(buckets, p);
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map
/// dots (and any other byte) to underscores.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<Spinlock> guard(lock_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<Spinlock> guard(lock_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Log2Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<Spinlock> guard(lock_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Log2Histogram>();
  return slot.get();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<Spinlock> guard(lock_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricKind::kCounter;
    sample.value = counter->value();
    out.push_back(std::move(sample));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricKind::kGauge;
    sample.gauge_value = gauge->value();
    sample.gauge_max = gauge->max();
    out.push_back(std::move(sample));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricKind::kHistogram;
    sample.count = histogram->count();
    sample.sum = histogram->sum();
    size_t last = 0;
    for (size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
      if (histogram->bucket(i) != 0) last = i + 1;
    }
    sample.buckets.reserve(last);
    for (size_t i = 0; i < last; ++i) {
      sample.buckets.push_back(histogram->bucket(i));
    }
    out.push_back(std::move(sample));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::string MetricsRegistry::RenderCsv() const {
  std::string out = "metric,kind,field,value\n";
  char line[192];
  for (const MetricSample& sample : Snapshot()) {
    switch (sample.kind) {
      case MetricKind::kCounter:
        std::snprintf(line, sizeof(line), "%s,counter,value,%llu\n",
                      sample.name.c_str(),
                      static_cast<unsigned long long>(sample.value));
        out += line;
        break;
      case MetricKind::kGauge:
        std::snprintf(line, sizeof(line), "%s,gauge,value,%lld\n",
                      sample.name.c_str(),
                      static_cast<long long>(sample.gauge_value));
        out += line;
        std::snprintf(line, sizeof(line), "%s,gauge,max,%lld\n",
                      sample.name.c_str(),
                      static_cast<long long>(sample.gauge_max));
        out += line;
        break;
      case MetricKind::kHistogram:
        std::snprintf(line, sizeof(line), "%s,histogram,count,%llu\n",
                      sample.name.c_str(),
                      static_cast<unsigned long long>(sample.count));
        out += line;
        std::snprintf(line, sizeof(line), "%s,histogram,sum,%.6g\n",
                      sample.name.c_str(), sample.sum);
        out += line;
        std::snprintf(line, sizeof(line), "%s,histogram,p50,%.6g\n",
                      sample.name.c_str(), SamplePercentile(sample, 50.0));
        out += line;
        std::snprintf(line, sizeof(line), "%s,histogram,p99,%.6g\n",
                      sample.name.c_str(), SamplePercentile(sample, 99.0));
        out += line;
        for (size_t i = 0; i < sample.buckets.size(); ++i) {
          if (sample.buckets[i] == 0) continue;
          std::snprintf(line, sizeof(line), "%s,histogram,le_%.0f,%llu\n",
                        sample.name.c_str(), Log2Histogram::BucketLo(i + 1),
                        static_cast<unsigned long long>(sample.buckets[i]));
          out += line;
        }
        break;
    }
  }
  return out;
}

std::string MetricsRegistry::RenderText() const {
  std::string out;
  char line[192];
  for (const MetricSample& sample : Snapshot()) {
    switch (sample.kind) {
      case MetricKind::kCounter:
        std::snprintf(line, sizeof(line), "%-40s %llu\n", sample.name.c_str(),
                      static_cast<unsigned long long>(sample.value));
        out += line;
        break;
      case MetricKind::kGauge:
        std::snprintf(line, sizeof(line), "%-40s %lld (max %lld)\n",
                      sample.name.c_str(),
                      static_cast<long long>(sample.gauge_value),
                      static_cast<long long>(sample.gauge_max));
        out += line;
        break;
      case MetricKind::kHistogram: {
        std::snprintf(line, sizeof(line),
                      "%-40s n=%llu mean=%.3g p50=%.3g p99=%.3g\n",
                      sample.name.c_str(),
                      static_cast<unsigned long long>(sample.count),
                      sample.count == 0
                          ? 0.0
                          : sample.sum / static_cast<double>(sample.count),
                      SamplePercentile(sample, 50.0),
                      SamplePercentile(sample, 99.0));
        out += line;
        for (size_t i = 0; i < sample.buckets.size(); ++i) {
          if (sample.buckets[i] == 0) continue;
          std::snprintf(line, sizeof(line), "  [%11.4g, %11.4g) %llu\n",
                        Log2Histogram::BucketLo(i),
                        Log2Histogram::BucketLo(i + 1),
                        static_cast<unsigned long long>(sample.buckets[i]));
          out += line;
        }
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::string out;
  char line[256];
  for (const MetricSample& sample : Snapshot()) {
    const std::string name = PromName(sample.name);
    switch (sample.kind) {
      case MetricKind::kCounter:
        std::snprintf(line, sizeof(line), "# TYPE %s counter\n%s %llu\n",
                      name.c_str(), name.c_str(),
                      static_cast<unsigned long long>(sample.value));
        out += line;
        break;
      case MetricKind::kGauge:
        std::snprintf(line, sizeof(line),
                      "# TYPE %s gauge\n%s %lld\n%s_max %lld\n", name.c_str(),
                      name.c_str(), static_cast<long long>(sample.gauge_value),
                      name.c_str(), static_cast<long long>(sample.gauge_max));
        out += line;
        break;
      case MetricKind::kHistogram: {
        std::snprintf(line, sizeof(line), "# TYPE %s histogram\n",
                      name.c_str());
        out += line;
        // Prometheus buckets are cumulative and labelled by upper edge.
        unsigned long long cumulative = 0;
        for (size_t i = 0; i < sample.buckets.size(); ++i) {
          cumulative += sample.buckets[i];
          if (sample.buckets[i] == 0) continue;
          std::snprintf(line, sizeof(line), "%s_bucket{le=\"%.0f\"} %llu\n",
                        name.c_str(), Log2Histogram::BucketLo(i + 1),
                        cumulative);
          out += line;
        }
        std::snprintf(line, sizeof(line),
                      "%s_bucket{le=\"+Inf\"} %llu\n%s_sum %.6g\n%s_count "
                      "%llu\n",
                      name.c_str(),
                      static_cast<unsigned long long>(sample.count),
                      name.c_str(), sample.sum, name.c_str(),
                      static_cast<unsigned long long>(sample.count));
        out += line;
        std::snprintf(line, sizeof(line),
                      "%s{quantile=\"0.5\"} %.6g\n%s{quantile=\"0.99\"} "
                      "%.6g\n",
                      name.c_str(), SamplePercentile(sample, 50.0),
                      name.c_str(), SamplePercentile(sample, 99.0));
        out += line;
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<Spinlock> guard(lock_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace kop::trace
