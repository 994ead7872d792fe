// kop::trace — the ftrace analogue for the simulated kernel. Static
// tracepoints (`KOP_TRACE(event, args...)`) record fixed-size records
// (virtual-cycle timestamp, event id, up to four integer args) into a
// per-CPU ring of stamped, cache-line-aligned slots: no lock, and no
// read-modify-write — each CPU writes only its own ring. An armed
// tracepoint stores its seven words straight from registers into its
// slot (Tracer::Record); no record is built on the stack. Tracepoints
// are armed and disarmed at run time (Tracer::SetEnabled, armed by
// default): a disarmed KOP_TRACE site costs one relaxed load and a
// branch, and does not evaluate its arguments. All timestamps come from
// the virtual clock — instrumentation never charges simulated cycles, so
// enabling tracing cannot perturb an experiment.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "kop/sim/clock.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/percpu.hpp"
#include "kop/trace/stamped_ring.hpp"

namespace kop::trace {

/// Every static tracepoint in the tree. Keep EventName/EventCategory/
/// EventArgNames in trace.cpp in sync when adding one.
enum class EventId : uint16_t {
  kNone = 0,
  // Guard runtime (policy engine).
  kGuardCheck,        // addr, size, access_flags, site token
  kGuardDeny,         // addr, size, access_flags, site token
  kIntrinsicCheck,    // intrinsic id, allowed, 0, site token
  kPolicyLookup,      // entries scanned, table size
  // Module lifecycle (loader + validator).
  kModuleVerify,      // ok (1/0)
  kModuleLoad,        // instructions, guard count
  kModuleQuarantine,  // violating addr, size, site token
  kModuleStaticReject,  // error count, instruction count
  // Resilience (transactional module calls + recovery).
  kModuleRollback,    // journal entries undone, bytes restored, reason
  kModuleTimeout,     // steps at expiry, per-call step budget
  kModuleRestart,     // attempt number, ok (1/0)
  kFaultInjected,     // injector kind, injection point, detail
  // NIC hardware (DMA engine) and driver transmit path.
  kNicDescFetch,      // descriptor addr, head index
  kNicXmit,           // frame bytes, ring occupancy after
  kXmitFrame,         // frame bytes, descriptor slot
  // Kernel core.
  kPanic,             // 0
  kIoctl,             // cmd, device ordinal
  // Flight recorder (kop::flight).
  kPostmortemCapture,  // reason ordinal, incident count, cpu
  kEventCount,
};

inline constexpr size_t kEventCount =
    static_cast<size_t>(EventId::kEventCount);

/// Stable wire name, e.g. "guard.check".
std::string_view EventName(EventId id);

/// Subsystem bucket, e.g. "guard", "loader", "nic", "kernel".
std::string_view EventCategory(EventId id);

/// Display names of the four args (nullptr-terminated early when fewer).
std::array<const char*, 4> EventArgNames(EventId id);

/// One tracepoint firing. Fixed size; `cpu` is the simulated CPU the
/// tracepoint fired on (thread id in Chrome-trace exports) and `seq` is
/// the record's index in that CPU's ring — dense from 0 and monotonic
/// even after the ring wraps. (cpu, seq) names a record uniquely.
/// Tracer::Record writes these fields as seven words (tsc, seq,
/// `event | cpu << 16`, args); trace.cpp pins the layout to them.
struct TraceRecord {
  uint64_t tsc = 0;   // virtual cycles at firing time
  uint64_t seq = 0;
  EventId event = EventId::kNone;
  uint16_t cpu = 0;
  uint32_t pad32 = 0;
  uint64_t args[4] = {0, 0, 0, 0};
};

/// Per-CPU fixed rings of TraceRecords, ftrace's per-cpu ring buffers.
/// Every simulated CPU appends to its own StampedRing of `capacity`
/// slots, so each ring has exactly one writer: no lock, no fetch_add, no
/// CAS, and no counter shared between CPUs. A CPU's ring is allocated on
/// its first Append and published with a release store, so a run pays
/// memory only for the CPUs that trace. The newest `capacity` records
/// per CPU survive, oldest are overwritten (ftrace overwrite mode).
class TraceRing {
 public:
  /// `capacity` (per CPU) is rounded up to a power of two (min 64).
  explicit TraceRing(size_t capacity = 1 << 14);
  ~TraceRing();
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Append to the calling CPU's ring, stamping the record's `cpu` and
  /// `seq` (its index in that ring).
  void Append(TraceRecord record);

  /// Retained slots per CPU.
  size_t capacity() const { return capacity_; }
  /// Total records ever appended (including overwritten ones): the sum
  /// of the per-CPU counts.
  uint64_t total_appended() const;
  uint64_t dropped() const;
  /// Whether `cpu` has appended since construction (its ring exists).
  bool allocated(uint32_t cpu) const;

  /// Retained records of every CPU merged into one stream ordered by
  /// (virtual tsc, cpu, per-CPU index), so an SMP run exports a
  /// monotonic timeline. With one CPU this is that CPU's ring in the
  /// order its clock stamped it — append order whenever the clock only
  /// moved forward. Safe against concurrent Append: records still being
  /// written are left out.
  std::vector<TraceRecord> Snapshot() const;

  /// Not safe against concurrent Append; fine for the simulator.
  void Clear();

 private:
  friend class Tracer;
  using Ring = StampedRing<TraceRecord>;

  /// The ring of `cpu` (< kMaxCpus), allocated on its first use. Only
  /// `cpu` itself may call this.
  Ring& RingOf(uint32_t cpu);
  // The first-use path, kept out of line so RingOf inlines into Record.
  [[gnu::noinline]] Ring* Allocate(uint32_t cpu);

  size_t capacity_;
  // Written once per CPU (its first Append), read by every reader.
  std::array<std::atomic<Ring*>, smp::kMaxCpus> rings_{};
};

/// The process-wide tracer: the ring, an enable switch, per-event
/// counters, and the virtual clock used for timestamps. The Kernel
/// registers its clock at construction; with no clock registered,
/// records carry tsc 0.
class Tracer {
 public:
  Tracer() = default;

  void SetClock(const sim::VirtualClock* clock) {
    clock_.store(clock, std::memory_order_release);
  }
  const sim::VirtualClock* clock() const {
    return clock_.load(std::memory_order_acquire);
  }

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The tracepoint body; a no-op when disarmed. KOP_TRACE checks
  /// enabled() first, so its arguments are not evaluated when disarmed.
  void Record(EventId event, uint64_t a0 = 0, uint64_t a1 = 0,
              uint64_t a2 = 0, uint64_t a3 = 0);

  TraceRing& ring() { return ring_; }
  const TraceRing& ring() const { return ring_; }

  /// Lifetime firings per event id, folded over the per-CPU counts.
  uint64_t event_count(EventId id) const;

  /// Clear the ring and per-event counters (clock and enable kept).
  void Reset();

 private:
  std::atomic<bool> enabled_{true};
  std::atomic<const sim::VirtualClock*> clock_{nullptr};
  TraceRing ring_;
  // One writer per CPU: bumped with a relaxed load+store, folded on read.
  smp::PerCpu<std::array<std::atomic<uint64_t>, kEventCount>> counts_;
};

/// The tracer every KOP_TRACE site records into.
Tracer& GlobalTracer();

}  // namespace kop::trace

// A static tracepoint. Disarmed, it costs one relaxed load and a branch:
// the arguments are not evaluated and nothing is recorded.
#define KOP_TRACE(event, ...)                                         \
  do {                                                                \
    ::kop::trace::Tracer& kop_trace_tracer_ =                         \
        ::kop::trace::GlobalTracer();                                 \
    if (kop_trace_tracer_.enabled()) {                                \
      kop_trace_tracer_.Record(                                       \
          ::kop::trace::EventId::event __VA_OPT__(, ) __VA_ARGS__);   \
    }                                                                 \
  } while (0)
