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

TraceRing::TraceRing(size_t capacity)
    : per_shard_capacity_(RoundUpPow2(capacity)) {
  SetShards(1);
}

void TraceRing::SetShards(uint32_t shards) {
  if (shards == 0) shards = 1;
  if (shards > smp::kMaxCpus) shards = smp::kMaxCpus;
  shards_.clear();
  for (uint32_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(per_shard_capacity_));
  }
  next_.store(0, std::memory_order_release);
}

uint64_t TraceRing::Reserved(const Shard& shard) const {
  return shards_.size() == 1 ? next_.load(std::memory_order_acquire)
                             : shard.reserved.load(std::memory_order_acquire);
}

void TraceRing::Append(TraceRecord record) {
  record.seq = next_.fetch_add(1, std::memory_order_relaxed);
  if (shards_.size() == 1) {
    shards_[0]->slots.Write(record.seq, record);
    return;
  }
  Shard& shard = *shards_[smp::CurrentCpu() % shards_.size()];
  shard.slots.Write(shard.reserved.fetch_add(1, std::memory_order_relaxed),
                    record);
}

uint64_t TraceRing::dropped() const {
  const uint64_t total = total_appended();
  uint64_t retained = 0;
  for (const auto& shard : shards_) {
    retained += std::min<uint64_t>(Reserved(*shard), per_shard_capacity_);
  }
  return total > retained ? total - retained : 0;
}

std::vector<TraceRecord> TraceRing::Snapshot() const {
  std::vector<TraceRecord> out;
  for (const auto& shard : shards_) {
    shard->slots.ReadTail(Reserved(*shard), per_shard_capacity_, &out);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.tsc != b.tsc ? a.tsc < b.tsc : a.seq < b.seq;
            });
  return out;
}

void TraceRing::Clear() {
  next_.store(0, std::memory_order_release);
  for (const auto& shard : shards_) {
    shard->reserved.store(0, std::memory_order_relaxed);
    shard->slots.Clear();
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
  record.cpu = static_cast<uint16_t>(cpu);
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
