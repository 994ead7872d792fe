#include "kop/trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>

namespace kop::trace {
namespace {

struct EventDesc {
  const char* name;
  const char* category;
  std::array<const char*, 4> args;
};

constexpr EventDesc kEvents[kEventCount] = {
    {"none", "none", {nullptr, nullptr, nullptr, nullptr}},
    {"guard.check", "guard", {"addr", "size", "flags", "site"}},
    {"guard.deny", "guard", {"addr", "size", "flags", "site"}},
    {"guard.intrinsic", "guard", {"intrinsic", "allowed", nullptr, "site"}},
    {"policy.lookup", "guard", {"scanned", "regions", nullptr, nullptr}},
    {"module.verify", "loader", {"ok", nullptr, nullptr, nullptr}},
    {"module.load", "loader", {"insts", "guards", nullptr, nullptr}},
    {"module.quarantine", "loader", {"addr", "size", "site", nullptr}},
    {"module.static_reject", "loader", {"errors", "insts", nullptr, nullptr}},
    {"module.rollback", "resilience", {"entries", "bytes", "reason", nullptr}},
    {"module.timeout", "resilience", {"steps", "budget", nullptr, nullptr}},
    {"module.restart", "resilience", {"attempt", "ok", nullptr, nullptr}},
    {"fault.injected", "fault", {"kind", "point", "detail", nullptr}},
    {"nic.desc_fetch", "nic", {"desc_addr", "head", nullptr, nullptr}},
    {"nic.xmit", "nic", {"bytes", "occupancy", nullptr, nullptr}},
    {"e1000e.xmit_frame", "nic", {"bytes", "slot", nullptr, nullptr}},
    {"kernel.panic", "kernel", {nullptr, nullptr, nullptr, nullptr}},
    {"dev.ioctl", "ioctl", {"cmd", nullptr, nullptr, nullptr}},
    {"flight.postmortem", "flight", {"reason", "incidents", "cpu", nullptr}},
};

size_t Index(EventId id) {
  const size_t i = static_cast<size_t>(id);
  return i < kEventCount ? i : 0;
}

size_t RoundUpPow2(size_t n) {
  size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

// Tracer::Record stores a TraceRecord as seven words; these tie each
// word to the layout that readers copy back out of the slot.
static_assert(std::endian::native == std::endian::little);
static_assert(sizeof(TraceRecord) == 7 * sizeof(uint64_t));
static_assert(offsetof(TraceRecord, tsc) == 0 * 8);
static_assert(offsetof(TraceRecord, seq) == 1 * 8);
static_assert(offsetof(TraceRecord, event) == 2 * 8 && sizeof(EventId) == 2);
static_assert(offsetof(TraceRecord, cpu) == 2 * 8 + 2);
static_assert(offsetof(TraceRecord, pad32) == 2 * 8 + 4);
static_assert(offsetof(TraceRecord, args) == 3 * 8);

}  // namespace

std::string_view EventName(EventId id) { return kEvents[Index(id)].name; }

std::string_view EventCategory(EventId id) {
  return kEvents[Index(id)].category;
}

std::array<const char*, 4> EventArgNames(EventId id) {
  return kEvents[Index(id)].args;
}

TraceRing::TraceRing(size_t capacity) : capacity_(RoundUpPow2(capacity)) {}

TraceRing::~TraceRing() {
  for (auto& ring : rings_) delete ring.load(std::memory_order_relaxed);
}

TraceRing::Ring& TraceRing::RingOf(uint32_t cpu) {
  // Only this CPU ever stores its pointer, so its own relaxed load sees
  // its own allocation.
  Ring* ring = rings_[cpu].load(std::memory_order_relaxed);
  if (ring == nullptr) [[unlikely]] ring = Allocate(cpu);
  return *ring;
}

TraceRing::Ring* TraceRing::Allocate(uint32_t cpu) {
  // The release store publishes the ring to readers.
  Ring* ring = new Ring(capacity_);
  rings_[cpu].store(ring, std::memory_order_release);
  return ring;
}

void TraceRing::Append(TraceRecord record) {
  const uint32_t cpu = smp::CurrentCpu() % smp::kMaxCpus;
  Ring& ring = RingOf(cpu);
  record.cpu = static_cast<uint16_t>(cpu);
  record.seq = ring.appended();
  ring.Append(record);
}

uint64_t TraceRing::total_appended() const {
  uint64_t total = 0;
  for (const auto& slot : rings_) {
    if (const Ring* ring = slot.load(std::memory_order_acquire)) {
      total += ring->appended();
    }
  }
  return total;
}

uint64_t TraceRing::dropped() const {
  uint64_t dropped = 0;
  for (const auto& slot : rings_) {
    if (const Ring* ring = slot.load(std::memory_order_acquire)) {
      const uint64_t appended = ring->appended();
      if (appended > capacity_) dropped += appended - capacity_;
    }
  }
  return dropped;
}

bool TraceRing::allocated(uint32_t cpu) const {
  return cpu < rings_.size() &&
         rings_[cpu].load(std::memory_order_acquire) != nullptr;
}

std::vector<TraceRecord> TraceRing::Snapshot() const {
  std::vector<TraceRecord> out;
  for (const auto& slot : rings_) {
    if (const Ring* ring = slot.load(std::memory_order_acquire)) {
      ring->ReadTail(capacity_, &out);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              if (a.tsc != b.tsc) return a.tsc < b.tsc;
              if (a.cpu != b.cpu) return a.cpu < b.cpu;
              return a.seq < b.seq;
            });
  return out;
}

void TraceRing::Clear() {
  for (const auto& slot : rings_) {
    if (Ring* ring = slot.load(std::memory_order_acquire)) ring->Clear();
  }
}

void Tracer::Record(EventId event, uint64_t a0, uint64_t a1, uint64_t a2,
                    uint64_t a3) {
  if (!enabled()) return;
  const uint32_t cpu = smp::CurrentCpu() % smp::kMaxCpus;
  std::atomic<uint64_t>& count = counts_.Get(cpu)[Index(event)];
  count.store(count.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
  const sim::VirtualClock* clock = clock_.load(std::memory_order_acquire);
  const uint64_t tsc = clock != nullptr ? clock->ReadTsc() : 0;
  const uint64_t event_cpu = static_cast<uint64_t>(event) | uint64_t{cpu} << 16;
  ring_.RingOf(cpu).AppendWith([&](uint64_t n, TraceRing::Ring::Words& w) {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    w[0].store(tsc, kRelaxed);
    w[1].store(n, kRelaxed);
    w[2].store(event_cpu, kRelaxed);
    w[3].store(a0, kRelaxed);
    w[4].store(a1, kRelaxed);
    w[5].store(a2, kRelaxed);
    w[6].store(a3, kRelaxed);
  });
}

uint64_t Tracer::event_count(EventId id) const {
  uint64_t total = 0;
  counts_.ForEach([&](uint32_t, const auto& counts) {
    total += counts[Index(id)].load(std::memory_order_relaxed);
  });
  return total;
}

void Tracer::Reset() {
  ring_.Clear();
  counts_.ForEach([](uint32_t, auto& counts) {
    for (auto& count : counts) count.store(0, std::memory_order_relaxed);
  });
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

}  // namespace kop::trace
