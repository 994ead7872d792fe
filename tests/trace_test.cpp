// kop::trace: the tracepoint ring, metrics registry, guard-site
// directory, and the Chrome-trace/CSV exporters.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "kop/sim/clock.hpp"
#include "kop/sim/machine.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/executor.hpp"
#include "kop/trace/exporters.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/site.hpp"
#include "kop/trace/trace.hpp"

namespace kop::trace {
namespace {

// ---------------------------------------------------------- event ids --

TEST(TraceEventTest, EveryEventHasNameAndCategory) {
  for (size_t i = 1; i < kEventCount; ++i) {
    const auto id = static_cast<EventId>(i);
    EXPECT_FALSE(EventName(id).empty()) << i;
    const std::string_view category = EventCategory(id);
    EXPECT_TRUE(category == "guard" || category == "loader" ||
                category == "nic" || category == "kernel" ||
                category == "ioctl" || category == "resilience" ||
                category == "fault" || category == "flight")
        << "event " << i << " has unexpected category " << category;
  }
}

// --------------------------------------------------------------- ring --

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 64u);
  EXPECT_EQ(TraceRing(64).capacity(), 64u);
  EXPECT_EQ(TraceRing(65).capacity(), 128u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRingTest, WraparoundKeepsNewestInOrder) {
  TraceRing ring(64);
  for (uint64_t i = 0; i < 200; ++i) {
    TraceRecord record;
    record.event = EventId::kGuardCheck;
    record.args[0] = i;  // payload marker: the append ordinal
    ring.Append(record);
  }
  EXPECT_EQ(ring.total_appended(), 200u);
  EXPECT_EQ(ring.dropped(), 200u - 64u);

  const auto records = ring.Snapshot();
  ASSERT_EQ(records.size(), 64u);
  // The newest 64 survive, oldest first, with monotonic sequence numbers
  // that keep counting across the wrap.
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 136u + i);
    EXPECT_EQ(records[i].args[0], 136u + i);
  }
}

TEST(TraceRingTest, ClearEmptiesRing) {
  TraceRing ring(64);
  for (int i = 0; i < 10; ++i) ring.Append(TraceRecord{});
  ring.Clear();
  EXPECT_EQ(ring.total_appended(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(TraceRingTest, OneCpuKeepsAppendOrder) {
  TraceRing ring(64);
  // Equal and rising timestamps alike: one CPU is one ring, so the
  // snapshot is exactly the order the records went in.
  for (uint64_t i = 0; i < 40; ++i) {
    TraceRecord record;
    record.tsc = i / 4;
    record.args[0] = i;
    ring.Append(record);
  }
  const auto records = ring.Snapshot();
  ASSERT_EQ(records.size(), 40u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].args[0], i);
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].cpu, 0u);
  }
  EXPECT_TRUE(ring.allocated(0));
  EXPECT_FALSE(ring.allocated(1));
}

TEST(TraceRingTest, FourCpusEachOwnADenseLazilyAllocatedRing) {
  TraceRing ring(64);
  // CPUs 0, 1, 3 and 5 write; CPU c appends 10 + c records, and its
  // timestamps step by 3 - c % 3 so equal tsc values collide across CPUs.
  const uint32_t writers[] = {0, 1, 3, 5};
  smp::RunOnCpus(6, [&](uint32_t cpu) {
    if (cpu == 2 || cpu == 4) return;
    for (uint64_t i = 0; i < 10 + cpu; ++i) {
      TraceRecord record;
      record.tsc = i * (3 - cpu % 3);
      record.args[0] = cpu;
      record.args[1] = i;
      ring.Append(record);
    }
  });

  uint64_t expected_total = 0;
  for (uint32_t cpu : writers) expected_total += 10 + cpu;
  EXPECT_EQ(ring.total_appended(), expected_total);
  EXPECT_EQ(ring.dropped(), 0u);
  for (uint32_t cpu = 0; cpu < smp::kMaxCpus; ++cpu) {
    const bool wrote = cpu == 0 || cpu == 1 || cpu == 3 || cpu == 5;
    EXPECT_EQ(ring.allocated(cpu), wrote) << "cpu " << cpu;
  }

  const auto records = ring.Snapshot();
  ASSERT_EQ(records.size(), expected_total);
  std::map<uint32_t, uint64_t> next_index;
  for (size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    // The record landed on its writer's ring, and indices count densely
    // from 0 in each CPU's append order.
    EXPECT_EQ(r.cpu, r.args[0]);
    EXPECT_EQ(r.seq, next_index[r.cpu]++) << "cpu " << r.cpu;
    EXPECT_EQ(r.seq, r.args[1]);
    if (i > 0) {
      const TraceRecord& p = records[i - 1];
      EXPECT_LT(std::tuple(p.tsc, p.cpu, p.seq),
                std::tuple(r.tsc, r.cpu, r.seq))
          << "merge is not (tsc, cpu, index) order at " << i;
    }
  }
  for (uint32_t cpu : writers) EXPECT_EQ(next_index[cpu], 10u + cpu);
}

// ------------------------------------------------------------- tracer --

TEST(TracerTest, RecordStampsVirtualCycles) {
  Tracer tracer;
  sim::VirtualClock clock;
  tracer.SetClock(&clock);
  clock.Advance(100.0);
  tracer.Record(EventId::kGuardCheck, 0x1000, 8);
  clock.Advance(50.0);
  tracer.Record(EventId::kGuardDeny, 0x2000, 4);
  tracer.SetClock(nullptr);

  const auto records = tracer.ring().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].tsc, 100u);
  EXPECT_EQ(records[0].event, EventId::kGuardCheck);
  EXPECT_EQ(records[0].args[0], 0x1000u);
  EXPECT_EQ(records[1].tsc, 150u);
  EXPECT_EQ(tracer.event_count(EventId::kGuardCheck), 1u);
  EXPECT_EQ(tracer.event_count(EventId::kGuardDeny), 1u);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.SetEnabled(false);
  tracer.Record(EventId::kPanic);
  EXPECT_EQ(tracer.ring().total_appended(), 0u);
  EXPECT_EQ(tracer.event_count(EventId::kPanic), 0u);
  tracer.SetEnabled(true);
  tracer.Record(EventId::kPanic);
  EXPECT_EQ(tracer.ring().total_appended(), 1u);
}

TEST(TracerTest, MacroFiresIntoGlobalTracer) {
  GlobalTracer().Reset();
  KOP_TRACE(kPanic);
  KOP_TRACE(kIoctl, 0x4b05, 0);
  EXPECT_EQ(GlobalTracer().event_count(EventId::kPanic), 1u);
  EXPECT_EQ(GlobalTracer().event_count(EventId::kIoctl), 1u);

  // Disarmed: the site neither records nor evaluates its arguments.
  GlobalTracer().SetEnabled(false);
  uint64_t n = 0;
  KOP_TRACE(kIoctl, ++n, 0);
  GlobalTracer().SetEnabled(true);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(GlobalTracer().event_count(EventId::kIoctl), 1u);
  EXPECT_EQ(GlobalTracer().ring().total_appended(), 2u);
  GlobalTracer().Reset();
}

TEST(TracerTest, ArmedSiteWritesEveryFieldPastAWrapOnCpus0And15) {
  Tracer& tracer = GlobalTracer();
  tracer.Reset();
  sim::VirtualClock clock;
  const sim::VirtualClock* prev = tracer.clock();
  tracer.SetClock(&clock);
  const uint64_t capacity = tracer.ring().capacity();
  const uint64_t fired = capacity + capacity / 2;  // past one wrap
  // Four args with distinct high bits, so a swapped or shifted word
  // shows in every record.
  auto arg = [](uint64_t tag, uint64_t seq, uint32_t cpu) {
    return tag << 56 | uint64_t{cpu} << 32 | seq;
  };
  for (uint32_t cpu : {0u, 15u}) {
    smp::ScopedCpu bind(cpu);
    for (uint64_t i = 0; i < fired; ++i) {
      clock.Advance(3.0);
      KOP_TRACE(kPostmortemCapture, arg(0xa1, i, cpu), arg(0xb2, i, cpu),
                arg(0xc3, i, cpu), arg(0xd4, i, cpu));
    }
  }
  tracer.SetClock(prev);
  const auto records = tracer.ring().Snapshot();
  const uint64_t counted = tracer.event_count(EventId::kPostmortemCapture);
  tracer.Reset();

  EXPECT_EQ(counted, 2 * fired);
  ASSERT_EQ(records.size(), 2 * capacity);
  // The newest `capacity` records of each CPU survive, with dense seqs.
  // One bad word breaks every record, so stop at the first.
  std::map<uint32_t, uint64_t> next_seq = {{0, fired - capacity},
                                           {15, fired - capacity}};
  for (const TraceRecord& r : records) {
    ASSERT_TRUE(r.cpu == 0 || r.cpu == 15) << "cpu " << r.cpu;
    const uint64_t seq = next_seq[r.cpu]++;
    ASSERT_EQ(r.seq, seq) << "cpu " << r.cpu;
    ASSERT_EQ(r.tsc, 3 * (seq + 1));
    ASSERT_EQ(r.event, EventId::kPostmortemCapture);
    ASSERT_EQ(r.args[0], arg(0xa1, seq, r.cpu));
    ASSERT_EQ(r.args[1], arg(0xb2, seq, r.cpu));
    ASSERT_EQ(r.args[2], arg(0xc3, seq, r.cpu));
    ASSERT_EQ(r.args[3], arg(0xd4, seq, r.cpu));
  }
  EXPECT_EQ(next_seq[0], fired);
  EXPECT_EQ(next_seq[15], fired);
}

// ------------------------------------------------------------ metrics --

TEST(MetricsTest, CountersAreSharedByName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test.counter");
  Counter* b = registry.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  a->Add();
  a->Add(4);
  EXPECT_EQ(b->value(), 5u);
}

TEST(MetricsTest, GaugeTracksHighWatermark) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("test.gauge");
  gauge->Set(3);
  gauge->Set(17);
  gauge->Set(5);
  EXPECT_EQ(gauge->value(), 5);
  EXPECT_EQ(gauge->max(), 17);
}

TEST(MetricsTest, Log2HistogramBucketsByPowerOfTwo) {
  MetricsRegistry registry;
  Log2Histogram* hist = registry.GetHistogram("test.hist");
  hist->Observe(0.0);     // bucket 0: < 1
  hist->Observe(1.0);     // bucket 1: [1, 2)
  hist->Observe(3.0);     // bucket 2: [2, 4)
  hist->Observe(1024.0);  // bucket 11: [1024, 2048)
  EXPECT_EQ(hist->bucket(0), 1u);
  EXPECT_EQ(hist->bucket(1), 1u);
  EXPECT_EQ(hist->bucket(2), 1u);
  EXPECT_EQ(hist->bucket(11), 1u);
  EXPECT_EQ(hist->count(), 4u);
  EXPECT_DOUBLE_EQ(hist->mean(), (0.0 + 1.0 + 3.0 + 1024.0) / 4.0);
  EXPECT_EQ(hist->NonZeroBuckets(), 4u);
  EXPECT_DOUBLE_EQ(Log2Histogram::BucketLo(0), 0.0);
  EXPECT_DOUBLE_EQ(Log2Histogram::BucketLo(1), 1.0);
  EXPECT_DOUBLE_EQ(Log2Histogram::BucketLo(11), 1024.0);
}

// ObserveN(v, n) must leave exactly the buckets and, bit for bit, the
// sum that n Observe(v) calls leave, whichever way it adds them up.
void ExpectObserveNMatchesUnbatched(double preload, double value,
                                    uint64_t n) {
  Log2Buckets batched;
  Log2Buckets single;
  batched.Observe(preload);
  single.Observe(preload);
  batched.ObserveN(value, n);
  for (uint64_t i = 0; i < n; ++i) single.Observe(value);
  EXPECT_EQ(std::bit_cast<uint64_t>(batched.sum()),
            std::bit_cast<uint64_t>(single.sum()))
      << "preload " << preload << " value " << value << " n " << n << ": "
      << batched.sum() << " vs " << single.sum();
  for (size_t i = 0; i < Log2Buckets::kBuckets; ++i) {
    EXPECT_EQ(batched.bucket(i), single.bucket(i)) << "bucket " << i;
  }
}

TEST(MetricsTest, ObserveNIsBitIdenticalToRepeatedObserve) {
  // Integral depths from an integral sum: the closed form.
  ExpectObserveNMatchesUnbatched(0.0, 1.0, 1000);
  ExpectObserveNMatchesUnbatched(5.0, 63.0, 100000);
  // A real guard latency (fractional): added one step at a time.
  const double guard_cycles = sim::MachineModel::R350().GuardCycles(3);
  ASSERT_NE(guard_cycles, std::trunc(guard_cycles));
  ExpectObserveNMatchesUnbatched(0.0, guard_cycles, 1000);
  // An integral value onto a fractional running sum rounds every step.
  ExpectObserveNMatchesUnbatched(12345.678, 1001.0, 1000);
  // Integral sums just below 2^53 stay exact; past it every step rounds.
  ExpectObserveNMatchesUnbatched(0x1p53 - 100.0, 7.0, 14);
  ExpectObserveNMatchesUnbatched(0x1p53 - 100.0, 7.0, 20);
  ExpectObserveNMatchesUnbatched(0x1p53 - 100.0, 3.0, 1001);
  // Zero observations change nothing.
  ExpectObserveNMatchesUnbatched(2.0, 5.0, 0);
}

// CountIn per value plus one AddToSum of their total must leave the
// buckets and the sum bits that Observe per value leaves, for integral
// values whose sums stay below 2^53, in any mix of depths.
TEST(MetricsTest, CountInWithDeferredSumIsBitIdenticalToObserve) {
  const std::vector<uint64_t> values = {0, 1, 2, 3, 1, 63, 64, 5, 1000, 2, 2,
                                        uint64_t{1} << 40};
  Log2Buckets split;
  Log2Buckets single;
  split.Observe(17.0);
  single.Observe(17.0);
  uint64_t total = 0;
  for (const uint64_t v : values) {
    split.CountIn(v);
    total += v;
    single.Observe(static_cast<double>(v));
  }
  split.AddToSum(total);
  EXPECT_EQ(std::bit_cast<uint64_t>(split.sum()),
            std::bit_cast<uint64_t>(single.sum()));
  for (size_t i = 0; i < Log2Buckets::kBuckets; ++i) {
    EXPECT_EQ(split.bucket(i), single.bucket(i)) << "bucket " << i;
  }
  // The clamp bucket agrees with Observe too.
  Log2Buckets huge_split;
  Log2Buckets huge_single;
  huge_split.CountIn(~uint64_t{0});
  huge_single.Observe(0x1p64);
  EXPECT_EQ(huge_split.bucket(Log2Buckets::kBuckets - 1), 1u);
  EXPECT_EQ(huge_single.bucket(Log2Buckets::kBuckets - 1), 1u);
}

TEST(MetricsTest, CsvSnapshotAndReset) {
  MetricsRegistry registry;
  registry.GetCounter("alpha.count")->Add(7);
  registry.GetGauge("beta.level")->Set(3);
  registry.GetHistogram("gamma.lat")->Observe(2.0);

  const std::string csv = registry.RenderCsv();
  EXPECT_NE(csv.find("alpha.count,counter,value,7"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("beta.level,gauge,value,3"), std::string::npos);
  EXPECT_NE(csv.find("gamma.lat,histogram,count,1"), std::string::npos);

  registry.Reset();
  EXPECT_EQ(registry.GetCounter("alpha.count")->value(), 0u);
  // Registrations survive a reset; snapshot still lists all three.
  EXPECT_EQ(registry.Snapshot().size(), 3u);
}

// -------------------------------------------------------------- sites --

TEST(SiteTest, RegistryAssignsTokensAndLabels) {
  // The global registry is append-only; register fresh entries and only
  // assert on those.
  SiteInfo info;
  info.module_name = "testmod";
  info.function = "@poke";
  info.site_id = 2;
  info.inst_index = 5;
  const uint64_t token = GlobalSites().Register(info);
  EXPECT_GT(token, kUnknownSite);

  auto found = GlobalSites().Find(token);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->module_name, "testmod");
  EXPECT_EQ(found->token, token);
  EXPECT_EQ(GlobalSites().Label(token), "testmod:@poke+5");
  EXPECT_EQ(GlobalSites().Label(kUnknownSite), "<unattributed>");
  EXPECT_FALSE(GlobalSites().Find(token + 1000000).has_value());
}

TEST(SiteTest, ScopedGuardSiteNestsAndRestores) {
  EXPECT_EQ(CurrentGuardSite(), kUnknownSite);
  {
    ScopedGuardSite outer(11);
    EXPECT_EQ(CurrentGuardSite(), 11u);
    {
      ScopedGuardSite inner(22);
      EXPECT_EQ(CurrentGuardSite(), 22u);
    }
    EXPECT_EQ(CurrentGuardSite(), 11u);
  }
  EXPECT_EQ(CurrentGuardSite(), kUnknownSite);
}

// ---------------------------------------------------------- exporters --

/// Minimal structural JSON check: balanced braces/brackets outside
/// strings, with escape handling. Not a full parser, but catches the
/// classic exporter bugs (trailing comma text, unescaped quote).
bool JsonBalanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::vector<TraceRecord> SampleRecords() {
  std::vector<TraceRecord> records;
  const EventId ids[] = {EventId::kGuardCheck, EventId::kModuleLoad,
                         EventId::kNicXmit, EventId::kIoctl};
  uint64_t tsc = 100;
  uint64_t seq = 0;
  for (EventId id : ids) {
    TraceRecord record;
    record.tsc = tsc;
    record.seq = seq++;
    record.event = id;
    record.args[0] = 0xdeadbeef;
    records.push_back(record);
    tsc += 2800;  // 1us at the default 2.8 GHz scale
  }
  return records;
}

TEST(ExporterTest, ChromeTraceIsStructurallyValidJson) {
  const std::string json = ExportChromeTrace(SampleRecords());
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // One instant event per record, each with its category.
  for (const char* category : {"guard", "loader", "nic", "ioctl"}) {
    EXPECT_NE(json.find("\"cat\":\"" + std::string(category) + "\""),
              std::string::npos)
        << "missing category " << category << " in:\n"
        << json;
  }
  // Addresses exported as hex strings (JSON numbers would lose bits).
  EXPECT_NE(json.find("0xdeadbeef"), std::string::npos);
}

TEST(ExporterTest, ChromeTraceTimestampsMonotonicMicroseconds) {
  const std::string json = ExportChromeTrace(SampleRecords());
  std::vector<double> timestamps;
  size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    timestamps.push_back(std::strtod(json.c_str() + pos, nullptr));
  }
  ASSERT_EQ(timestamps.size(), 4u);
  for (size_t i = 1; i < timestamps.size(); ++i) {
    EXPECT_GT(timestamps[i], timestamps[i - 1]);
  }
  // 2800 cycles at 2800 cycles/us = 1us apart.
  EXPECT_NEAR(timestamps[1] - timestamps[0], 1.0, 1e-6);
}

TEST(ExporterTest, CsvHasHeaderAndOneRowPerRecord) {
  const auto records = SampleRecords();
  const std::string csv = ExportTraceCsv(records);
  size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u + records.size());
  EXPECT_EQ(csv.rfind("seq,tsc,event,category,", 0), 0u) << csv;
  EXPECT_NE(csv.find("guard.check"), std::string::npos);
  EXPECT_NE(csv.find("nic.xmit"), std::string::npos);
}

}  // namespace
}  // namespace kop::trace
