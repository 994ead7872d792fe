// The guard runtime: decides each access against the region policy,
// charges the machine model's guard cost on the virtual clock, and on a
// forbidden access logs to printk and panics the kernel (paper §3.1 —
// "we currently do not cleanly handle forbidden accesses, and instead log
// that they occur and cause a kernel panic").
//
// SMP read path: guards never take the engine lock. Each guard runs in
// its CPU's pin, an RCU read section (opened for the one decision out of
// line when the CPU is unpinned) and decides against an immutable
// PolicyFrame — a copy-published,
// base-sorted index of the region table plus the intrinsic permission
// sets. Mutators (table Add/Remove/Clear, intrinsic
// config) bump generation counters; the next guard that notices a stale
// frame republishes a fresh one under the writer lock and retires the old
// frame to the RCU domain, which frees it only after every in-flight
// guard that could hold it has left. An in-flight guard
// therefore always decides against a policy that was atomically current
// at some point during its execution — fully-old-or-fully-new, never a
// half-applied update. Counters are per-CPU (folded on read), per-site
// attribution is per-CPU-sharded, and the forensic violation ring has its
// own lock, so concurrent guards on different CPUs share no cache line on
// the allow path.
#pragma once

#include <cstdint>
#include <set>
#include <stdexcept>

#include "kop/guard/pinned.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/policy/region_table.hpp"
#include "kop/smp/percpu.hpp"
#include "kop/smp/rcu.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/util/ring_buffer.hpp"
#include "kop/util/spinlock.hpp"

namespace kop::policy {

/// Default-allow or default-deny (paper §1: "using default allow or
/// default deny policies").
enum class PolicyMode {
  /// No covering region -> denied. Covering region must grant the flags.
  kDefaultDeny,
  /// No covering region -> allowed. A covering region acts as a
  /// restriction: the access must stay within its granted flags.
  kDefaultAllow,
};

/// What a failed guard does.
///  - kPanic: the paper's choice — log and halt the machine ("a kernel
///    panic is actually a reasonable response for the HPC use cases").
///  - kQuarantine: the alternative the paper discusses and rejects as
///    dangerous to do *forcibly* (§3.1: a killed module may hold locks).
///    Here the violating call unwinds via GuardViolation and the module
///    loader refuses to run the module again — the module is never
///    forcibly ejected, so the deadlock hazard is acknowledged, not
///    hidden: any lock the module held at unwind time stays held.
///  - kLogOnly: audit mode for tests and what-would-break dry runs.
enum class ViolationAction { kPanic, kQuarantine, kLogOnly };

// GuardViolation (thrown under kQuarantine) lives in kop/kernel/panic.hpp
// next to KernelPanic so the module loader can catch it without a
// dependency cycle.
using kernel::GuardViolation;

struct GuardStats {
  uint64_t guard_calls = 0;
  uint64_t allowed = 0;
  uint64_t denied = 0;
  uint64_t intrinsic_calls = 0;
  uint64_t intrinsic_denied = 0;
  /// Member accesses proven by a covering-interval guard without a guard
  /// call of their own (the elision pass's carat_guard_range `elided`
  /// argument, accumulated per successful cover). guard_calls + elided is
  /// the access count an unelided build would have reported for
  /// widening-only modules.
  uint64_t elided = 0;
  /// kop::cfi: carat_cfi_check decisions (slow path + inline fast path).
  uint64_t cfi_checks = 0;
  uint64_t cfi_denied = 0;
};

/// One denied access, kept in the engine's forensic ring (most recent
/// violations survive even in log-only audit runs).
struct ViolationRecord {
  uint64_t addr = 0;
  uint64_t size = 0;
  uint64_t access_flags = 0;
  uint64_t sequence = 0;   // nth guard call overall when this fired
  bool intrinsic = false;  // true for privileged-intrinsic denials
  uint64_t site = 0;       // guard-site token (trace::GlobalSites)
  /// True for CFI denials: addr holds the rejected indirect-call target,
  /// size the engine-global target-set id, access_flags 0.
  bool cfi = false;
};

/// Per-guard-site attribution row — the "perf annotate" view: which exact
/// injected guard (module / function / instruction) is hot or violating.
struct HotSite {
  uint64_t site = 0;  // trace::GlobalSites token; 0 = unattributed
  uint64_t hits = 0;
  uint64_t denied = 0;
  /// Elided member accesses credited to this (covering) site — the
  /// guards that vanished from the IR still show up in attribution here.
  uint64_t elided = 0;
};

// The frame guards decide against is the guard core's (kop/guard).
using guard::PolicyFrame;

class PolicyEngine final : public guard::PinSource {
 public:
  explicit PolicyEngine(kernel::Kernel* kernel,
                        PolicyMode mode = PolicyMode::kDefaultDeny);
  ~PolicyEngine();
  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  PolicyMode mode() const { return mode_.load(std::memory_order_acquire); }
  void SetMode(PolicyMode mode) {
    mode_.store(mode, std::memory_order_release);
    // The mode is part of the frame config: pinned calls snapshot it, so
    // a change must move the config generation and deopt inline guards.
    config_generation_.fetch_add(1, std::memory_order_acq_rel);
    cells_.mutation_gen.fetch_add(1, std::memory_order_acq_rel);
  }
  ViolationAction violation_action() const {
    return action_.load(std::memory_order_acquire);
  }
  void SetViolationAction(ViolationAction action) {
    action_.store(action, std::memory_order_release);
  }

  /// The region table. Mutations through this reference are picked up by
  /// concurrent guards at their next frame-freshness check (the table's
  /// own generation counter).
  RegionTable64& store() { return table_; }
  const RegionTable64& store() const { return table_; }

  /// Pure decision, no logging/panic/accounting.
  bool Check(uint64_t addr, uint64_t size, uint64_t access_flags) const;

  /// The guard itself: carat_guard(addr, size, access_flags). Returns
  /// true when allowed; on denial logs and (by default) panics. The
  /// out-of-line decision every inline deopt lands in: it pins the
  /// calling CPU (or nests in its pin; a stale pin is refreshed without a
  /// deopt) and decides and accounts through the inline core
  /// (guard::DecideGuard, guard::AccountDenial). It adds the forced-deny
  /// override, attribution to trace::CurrentGuardSite(), a tracepoint per
  /// decision and the violation semantics. Its pin closes before a
  /// violation throws.
  bool Guard(uint64_t addr, uint64_t size, uint64_t access_flags);

  /// carat_guard_range(addr, size, access_flags, elided): the covering
  /// check the elision pass emits for a widened cluster of same-base
  /// accesses. One decision over the whole interval; on success `elided`
  /// member accesses are credited to the per-CPU stats slice and the
  /// cover's hot-site row at once, and to the guard.elided counter when
  /// the pin it decided in closes (the caller's, when nested). A denial
  /// is attributed to the cover site with the interval's address and
  /// span. Guard() is the elided = 0 case.
  bool GuardRange(uint64_t addr, uint64_t size, uint64_t access_flags,
                  uint64_t elided);

  /// §5 extension: privileged-intrinsic permission check.
  bool IntrinsicGuard(uint64_t intrinsic_id);
  void AllowIntrinsic(uint64_t intrinsic_id);
  void DenyIntrinsic(uint64_t intrinsic_id);
  void SetIntrinsicDefaultAllow(bool allow);

  /// kop::cfi: carat_cfi_check(target, set_id) — the out-of-line slow
  /// path. Returns true when `target` is a member of legal-target set
  /// `set_id`; a miss (or an out-of-range set id) is a violation with the
  /// same logging / panic / quarantine semantics as a memory guard, with
  /// GuardViolation.is_cfi set so the loader contains it under the "cfi"
  /// reason. Pins and decides as Guard() does (guard::DecideCfi),
  /// lock-free.
  bool CfiCheck(uint64_t target, uint64_t set_id);

  /// Number of registered legal-target sets (test/procfs introspection).
  size_t CfiSetCount() const;

  /// Counter totals folded across the per-CPU slots. Returned by value:
  /// concurrent Guard()s keep mutating their own slots, so a reference
  /// would let readers observe torn counter sets. A pinned CPU's allows,
  /// inline or out of line, land at its next unpin or out-of-line denial
  /// (guard::FlushAllows); until then its guard_calls / allowed and its
  /// guard histograms trail by that batch.
  GuardStats stats() const;
  /// One simulated CPU's share of the counters (the concurrency battery
  /// proves these sum to stats()).
  GuardStats PerCpuStats(uint32_t cpu) const;
  /// Zero the counters, violations and site rows (not the histograms).
  /// Bumps the reset epoch and ticks the mutation clock: every CPU's
  /// pending inline batch predates the reset and is dropped from the
  /// counters at its next flush (guard::FlushAllows); a pinned CPU
  /// deopts once at its next guard, the calling CPU refreshes its pin
  /// now. Afterwards guard_calls equals the sum of HotSites hits on every
  /// CPU; only a guard racing the reset may land on either side of it.
  void ResetStats();

  /// The most recent denials, oldest first (capacity 64).
  std::vector<ViolationRecord> RecentViolations() const;

  /// Per-site hit/deny table, hottest first (ties by token), folded
  /// across the per-CPU shards. Sites are trace::GlobalSites tokens;
  /// token 0 collects unattributed guards (direct probes, natively-built
  /// drivers without site context).
  std::vector<HotSite> HotSites() const;

  /// Fault-injection hook (kop::fault): guards firing from this
  /// trace-site token deny unconditionally — a spurious violation, as a
  /// corrupted guard table would produce. kNoForcedSite disarms.
  static constexpr uint64_t kNoForcedSite = guard::kNoForcedSite;
  void ForceDenyAtSite(uint64_t site) {
    cells_.force_deny_site.store(site, std::memory_order_release);
  }
  uint64_t forced_deny_site() const {
    return cells_.force_deny_site.load(std::memory_order_acquire);
  }

  /// Frames published since construction (first guard publishes one).
  /// Test introspection for update-atomicity proofs.
  uint64_t frames_published() const {
    return frames_published_.load(std::memory_order_acquire);
  }

  /// Copy of the region list, in table order, in the frame a guard
  /// running right now would decide against (taken inside an RCU read
  /// section). The concurrency battery uses this to prove policy updates
  /// land fully-old-or-fully-new: every snapshot equals one published
  /// configuration in its entirety, never a mix.
  std::vector<Region> FrameSnapshot() const;

  // ------------------------------------------------------------------
  // Inline-guard fast path (DESIGN.md §15). The allow path is the guard
  // core (kop/guard/pinned.hpp); this engine owns the per-CPU pin slots
  // it decides against and the out-of-line transitions it deopts into.
  // KIR engines pin once per outermost module call through the kernel's
  // PinSource, native drivers once per driver entry point. Holding the
  // read section for the whole call delays reclamation of frames retired
  // mid-call until the call returns (updates themselves never wait).
  // ------------------------------------------------------------------

  /// Open (or nest) the calling CPU's frame pin and return its slot.
  guard::PinSlot* PinCpu() override;
  /// The kernel whose virtual clock the pins charge.
  kernel::Kernel* kernel() const { return kernel_; }
  /// PinCpu for callers that hold the engine. Always succeeds.
  bool PinFrame() { return PinCpu() != nullptr; }
  /// Close one nesting level; outermost close leaves the read section.
  void UnpinFrame() override;
  /// True = allowed against the calling CPU's pinned frame and fully
  /// accounted, with the guard's cost and then `access_cycles` of the
  /// access the caller makes next charged in one clock update. False =
  /// deopt (see guard::PinnedGuard), nothing charged; the caller
  /// re-decides in Guard(). Always inlined.
  [[gnu::always_inline]] bool FastGuard(uint64_t addr, uint64_t size,
                                        uint64_t access_flags, uint64_t site,
                                        double access_cycles = 0.0) {
    return guard::PinnedGuard(pin_slots_.Mine(), addr, size, access_flags, 0,
                              site, access_cycles);
  }
  [[gnu::always_inline]] bool FastGuardRange(uint64_t addr, uint64_t size,
                                             uint64_t access_flags,
                                             uint64_t elided, uint64_t site) {
    return guard::PinnedGuard(pin_slots_.Mine(), addr, size, access_flags,
                              elided, site);
  }
  /// Append a module's attested legal-target sets (insmod time). Each set
  /// is sorted on registration; the returned base rebases the module's
  /// local set ids to engine-global ids. Sets are never unregistered —
  /// ids stay stable and stale frames stay decidable — matching the
  /// append-only guard-site token space.
  uint64_t RegisterCfiSets(
      const std::vector<std::vector<uint64_t>>& sets) override;
  /// Inline CFI membership check against the calling CPU's pinned frame.
  /// Same deopt ladder as FastGuard; false sends the caller to
  /// CfiCheck(), which owns violation semantics.
  bool FastCfiCheck(uint64_t target, uint64_t set_id, uint64_t site) {
    return guard::PinnedCfiCheck(pin_slots_.Mine(), target, set_id, site);
  }

 private:
  /// Current frame if fresh, else republish. Called inside an RCU read
  /// section; the returned pointer is valid until the section ends.
  const PolicyFrame* CurrentFrame() const;
  const PolicyFrame* RepublishFrame() const;

  void RefreshPin(guard::PinSlot& pin) override;
  struct DecisionPin;
  /// Fault injection: `site` is the forced-deny site.
  bool ForcedDeny(uint64_t site) const {
    return site == cells_.force_deny_site.load(std::memory_order_relaxed);
  }
  /// The violation action for a denial: panic (throws KernelPanic),
  /// quarantine (throws `violation`) or, logging only, return false.
  bool Contain(const char* panic_reason, const GuardViolation& violation);
  void RecordViolation(const ViolationRecord& record);

  kernel::Kernel* kernel_;
  std::atomic<PolicyMode> mode_;
  std::atomic<ViolationAction> action_{ViolationAction::kPanic};

  // Copy-publish machinery. writer_lock_ serializes republish and
  // intrinsic-config mutation; config_generation_ covers everything in
  // the frame that is not the table's own contents.
  mutable Spinlock writer_lock_;
  mutable std::atomic<const PolicyFrame*> frame_{nullptr};
  mutable smp::RcuDomain rcu_;
  std::atomic<uint64_t> config_generation_{0};
  // The cells every pin reads on the allow path; the table ticks the
  // mutation clock among them.
  guard::EngineCells cells_;
  RegionTable64 table_{cells_.mutation_gen};
  mutable std::atomic<uint64_t> frames_published_{0};

  // Intrinsic master sets (guarded by writer_lock_; guards read the
  // frame's sorted copies).
  bool intrinsic_default_allow_ = false;
  std::set<uint64_t> intrinsic_allowed_;
  std::set<uint64_t> intrinsic_denied_;
  // CFI master table (guarded by writer_lock_; checks read the frame's
  // copy). Append-only — see RegisterCfiSets.
  std::vector<std::vector<uint64_t>> cfi_sets_;

  smp::PerCpu<guard::CpuStats> cpu_stats_;
  smp::PerCpu<guard::PinSlot> pin_slots_;
  mutable smp::PerCpu<guard::SiteShard> site_shards_;

  mutable Spinlock violations_lock_;
  RingBuffer<ViolationRecord> violations_{64};

  // Registered once in the constructor; registry pointers are stable, so
  // the hot path skips the name lookup.
  trace::Log2Histogram* latency_hist_;
  trace::Log2Histogram* lookup_depth_hist_;
  trace::Counter* denied_counter_;
  trace::Counter* elided_counter_;
};

}  // namespace kop::policy
