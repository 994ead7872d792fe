// kop::trace spans — nested RAII latency scopes over the virtual clock,
// the flight-recorder half of the observability stack. A `KOP_SPAN`
// scope stamps its begin/end on the per-CPU virtual clock and records a
// fixed-size SpanEvent into an always-on per-CPU last-N ring (the
// "flight recorder": it survives containment, so the moments before a
// quarantine are always available to a postmortem bundle). Closing a
// span stores its five words straight from registers into a
// cache-line-aligned ring slot; no event is built on the stack. Every span
// also feeds a per-CPU per-kind Log2Buckets set, folded exactly on read
// for interpolated p50/p90/p99/p999 queries. Like tracepoints, spans
// never charge simulated cycles, and they are armed and disarmed at run
// time (SpanRecorder::SetEnabled, armed by default).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kop/smp/cpu.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/stamped_ring.hpp"

namespace kop::trace {

/// The instrumented seams of a contained module call, outermost first.
/// Keep kSpanKinds in span.cpp in sync when adding one.
enum class SpanKind : uint8_t {
  kModuleCall = 0,   // LoadedModule::Call, end to end
  kEngineDispatch,   // the engine executing module code
  kJournalCommit,    // committing the call's write journal
  kJournalRollback,  // undoing the journal after containment
  kRecovery,         // containment + recovery (quarantine/restart)
  kNapiPoll,         // one NAPI poll iteration on a TX/RX queue pair
  kXmitBatch,        // staging a descriptor batch behind one doorbell
  kSpanKindCount,
};

inline constexpr size_t kSpanKindCount =
    static_cast<size_t>(SpanKind::kSpanKindCount);

/// Stable wire name, e.g. "span.module_call".
std::string_view SpanKindName(SpanKind kind);

/// One completed span. `begin_tsc`/`end_tsc` are virtual cycles on the
/// recording CPU's clock; `depth` is the span-nesting depth at begin
/// (module call = 0); `seq` is the span's index in its CPU's ring, in
/// completion order. (cpu, seq) names a span uniquely. EndSpan writes
/// these fields as five words (begin, end, seq, arg,
/// `kind | cpu << 16 | depth << 32`); span.cpp pins the layout to them.
struct SpanEvent {
  uint64_t begin_tsc = 0;
  uint64_t end_tsc = 0;
  uint64_t seq = 0;
  uint64_t arg = 0;
  SpanKind kind = SpanKind::kModuleCall;
  uint16_t cpu = 0;
  uint16_t depth = 0;
  uint64_t duration() const {
    return end_tsc >= begin_tsc ? end_tsc - begin_tsc : 0;
  }
};

/// Folded (all-CPU) latency summary for one span kind.
struct SpanStats {
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// Per-CPU span rings plus per-CPU per-kind duration histograms. The
/// write path touches only the recording CPU's cache-line-padded slot
/// and takes no lock and no read-modify-write: the nesting depth and
/// histogram are single-writer fields bumped with relaxed load+store,
/// and the span's words go straight into the CPU's own StampedRing
/// under its index. All cross-CPU folding happens on the read side;
/// readers validate each slot's stamp and may run concurrently with
/// writers. One writer per simulated CPU is the contract: host threads
/// sharing a CPU id may lose or mix spans.
class SpanRecorder {
 public:
  /// `per_cpu_capacity` rounded up to a power of two (min 64).
  explicit SpanRecorder(size_t per_cpu_capacity = 256);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Open a span on the current CPU: bumps the nesting depth and returns
  /// the begin timestamp (virtual cycles; 0 with no clock registered).
  uint64_t BeginSpan();

  /// Close a span opened by BeginSpan on the same CPU.
  void EndSpan(SpanKind kind, uint64_t begin_tsc, uint64_t arg);

  /// All retained spans merged across CPUs, ordered by (begin_tsc, cpu,
  /// per-CPU index).
  std::vector<SpanEvent> Snapshot() const;

  /// The newest `n` spans recorded on `cpu`, oldest first — the flight-
  /// recorder tail a postmortem bundle embeds.
  std::vector<SpanEvent> Tail(uint32_t cpu, size_t n) const;

  /// Fold the per-CPU histograms for `kind` and compute interpolated
  /// percentiles — exact on read, nothing precomputed on the write path.
  SpanStats Stats(SpanKind kind) const;

  /// Lifetime spans recorded on `cpu` for `kind` (0 = all kinds).
  uint64_t CpuCount(uint32_t cpu, SpanKind kind) const;

  /// Lifetime spans recorded, the sum of the per-CPU counts.
  uint64_t total_recorded() const;

  /// Human-readable per-kind latency table.
  std::string RenderText() const;

  /// Prometheus text exposition of the folded span histograms.
  std::string RenderPrometheus() const;

  /// Drop retained spans, histograms, and depth state (enable kept).
  void Reset();

 private:
  struct alignas(64) Cpu {
    explicit Cpu(size_t capacity) : slots(capacity) {}
    std::atomic<uint16_t> depth{0};  // currently open spans
    StampedRing<SpanEvent> slots;
    std::array<Log2Buckets, kSpanKindCount> hist;
  };

  Cpu& Mine();

  size_t per_cpu_capacity_;
  std::atomic<bool> enabled_{true};
  std::array<std::unique_ptr<Cpu>, smp::kMaxCpus> cpus_;
};

/// The recorder every KOP_SPAN scope records into.
SpanRecorder& GlobalSpans();

/// The RAII scope behind KOP_SPAN. Reads the enable flag once at entry;
/// a disabled recorder costs one relaxed load and a branch.
class SpanScope {
 public:
  explicit SpanScope(SpanKind kind, uint64_t arg = 0)
      : recorder_(GlobalSpans()),
        kind_(kind),
        arg_(arg),
        active_(recorder_.enabled()) {
    if (active_) begin_ = recorder_.BeginSpan();
  }
  ~SpanScope() {
    if (active_) recorder_.EndSpan(kind_, begin_, arg_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& recorder_;
  SpanKind kind_;
  uint64_t arg_;
  uint64_t begin_ = 0;
  bool active_;
};

}  // namespace kop::trace

// A latency scope over the rest of the enclosing block. Disarmed, it
// costs one relaxed load and a branch (see SpanScope).
#define KOP_SPAN_CONCAT_INNER(a, b) a##b
#define KOP_SPAN_CONCAT(a, b) KOP_SPAN_CONCAT_INNER(a, b)
#define KOP_SPAN(kind, ...)                                 \
  ::kop::trace::SpanScope KOP_SPAN_CONCAT(kop_span_scope_,  \
                                          __LINE__)(        \
      ::kop::trace::SpanKind::kind __VA_OPT__(, ) __VA_ARGS__)
