#include "kop/trace/trace.hpp"

#include <algorithm>

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

void TraceRing::Append(TraceRecord record) {
  const uint32_t cpu = smp::CurrentCpu() % smp::kMaxCpus;
  // Only this CPU ever stores its pointer, so its own relaxed load sees
  // its own allocation; the release store publishes the ring to readers.
  Ring* ring = rings_[cpu].load(std::memory_order_relaxed);
  if (ring == nullptr) [[unlikely]] {
    ring = new Ring(capacity_);
    rings_[cpu].store(ring, std::memory_order_release);
  }
  record.cpu = static_cast<uint16_t>(cpu);
  record.seq = ring->appended();
  ring->Append(record);
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
  const uint32_t cpu = smp::CurrentCpu();
  std::atomic<uint64_t>& count = counts_.Get(cpu)[Index(event)];
  count.store(count.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
  TraceRecord record;
  const sim::VirtualClock* clock = clock_.load(std::memory_order_acquire);
  record.tsc = clock != nullptr ? clock->ReadTsc() : 0;
  record.event = event;
  record.args[0] = a0;
  record.args[1] = a1;
  record.args[2] = a2;
  record.args[3] = a3;
  ring_.Append(record);
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
