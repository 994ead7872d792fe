// The guard runtime: decides each access against the region policy,
// charges the machine model's guard cost on the virtual clock, and on a
// forbidden access logs to printk and panics the kernel (paper §3.1 —
// "we currently do not cleanly handle forbidden accesses, and instead log
// that they occur and cause a kernel panic").
//
// SMP read path: guards never take the engine lock. Each guard runs in
// an RCU read section (its own out of line, its caller's pin inline) and
// decides against an immutable PolicyFrame — a copy-published,
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
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "kop/kernel/guard_fast.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/policy/region_table.hpp"
#include "kop/smp/percpu.hpp"
#include "kop/smp/rcu.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/util/ring_buffer.hpp"
#include "kop/util/single_writer.hpp"
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

/// Immutable snapshot the lock-free guard path decides against. Regions
/// are held once, in the table's base-sorted index (one allocation):
/// FrameLookup binary-searches the bases and walks back only while an
/// entry's running max end can still hold the access, returning the
/// container earliest in table order — the linear table's first-match
/// semantics, overlaps included. Intrinsic permissions are sorted vectors
/// for binary search. Published via an atomic pointer, reclaimed through
/// the RCU domain.
struct PolicyFrame {
  RegionIndex regions;
  uint64_t store_generation = 0;
  uint64_t config_generation = 0;
  std::vector<uint64_t> intrinsic_allowed;  // sorted
  std::vector<uint64_t> intrinsic_denied;   // sorted
  bool intrinsic_default_allow = false;
  /// kop::cfi legal-target sets, indexed by engine-global set id; each is
  /// a sorted vector of simulated function addresses for binary search.
  /// Registration only appends (ids stay stable for the module lifetime),
  /// so a frame's copy is never narrower than what a pinned caller saw.
  std::vector<std::vector<uint64_t>> cfi_sets;
};

class PolicyEngine : public kernel::GuardFastOps {
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
    mutation_gen_.fetch_add(1, std::memory_order_acq_rel);
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
  /// out-of-line decision every inline deopt lands in; it attributes to
  /// trace::CurrentGuardSite() and traces each decision.
  bool Guard(uint64_t addr, uint64_t size, uint64_t access_flags);

  /// carat_guard_range(addr, size, access_flags, elided): the covering
  /// check the elision pass emits for a widened cluster of same-base
  /// accesses. One decision over the whole interval; on success `elided`
  /// member accesses are credited to guard.elided (global counter,
  /// per-CPU stats slice, and the cover's hot-site row). A denial is
  /// attributed to the cover site with the interval's address and span.
  /// Guard() is the elided = 0 case.
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
  /// reason. Decides against the RCU-published frame, lock-free.
  bool CfiCheck(uint64_t target, uint64_t set_id);

  /// Number of registered legal-target sets (test/procfs introspection).
  size_t CfiSetCount() const;

  /// Counter totals folded across the per-CPU slots. Returned by value:
  /// concurrent Guard()s keep mutating their own slots, so a reference
  /// would let readers observe torn counter sets.
  GuardStats stats() const;
  /// One simulated CPU's share of the counters (the concurrency battery
  /// proves these sum to stats()).
  GuardStats PerCpuStats(uint32_t cpu) const;
  void ResetStats();

  /// The most recent denials, oldest first (capacity 64).
  std::vector<ViolationRecord> RecentViolations() const;

  /// Per-site hit/deny table, hottest first (ties by token), folded
  /// across the per-CPU shards. Sites are trace::GlobalSites tokens;
  /// token 0 collects unattributed guards (direct probes, natively-built
  /// drivers without site context).
  std::vector<HotSite> HotSites() const;

  /// When false, Guard() skips virtual-clock charging (used by benches
  /// that account guard cost themselves).
  void SetChargeCycles(bool charge) {
    charge_cycles_.store(charge, std::memory_order_release);
  }

  /// Fault-injection hook (kop::fault): guards firing from this
  /// trace-site token deny unconditionally — a spurious violation, as a
  /// corrupted guard table would produce. kNoForcedSite disarms.
  static constexpr uint64_t kNoForcedSite = ~uint64_t{0};
  void ForceDenyAtSite(uint64_t site) {
    force_deny_site_.store(site, std::memory_order_release);
  }
  uint64_t forced_deny_site() const {
    return force_deny_site_.load(std::memory_order_acquire);
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
  // Inline-guard fast path (kernel::GuardFastOps, DESIGN.md §15), the one
  // guard path of every module: the KIR engines pin once per outermost
  // module call, natively-built drivers (modrt::GuardedMemOps) once per
  // driver entry point. A pin captures the published PolicyFrame on the
  // calling CPU: one RCU read section held for the call, the frame
  // pointer, the mutation clock, and the precomputed guard-cycle charge.
  // Every inline check then runs against the immutable region index with
  // no RCU entry and no trace events, and an allow is accounted exactly
  // as Guard() accounts it (per-CPU stats, site row, clock charge, both
  // guard histograms). Any outcome other than a
  // proven allow deopts (returns false) to Guard()/GuardRange(), which
  // owns all violation and containment semantics and traces the decision.
  //
  // The allow path (FastGuard/FastGuardRange and everything they run on
  // an allow) is defined inline at the end of this header, so a caller
  // holding a PolicyEngine* (modrt::GuardedMemOps) compiles it straight
  // into its own code; callers through kernel::GuardFastOps pay one
  // virtual call. Deopts, pin refresh, site-table growth and the whole
  // violation path stay out of line in engine.cpp.
  //
  // Holding the read section for the whole call delays reclamation of
  // frames retired mid-call until the call returns — the documented cost
  // of whole-call pinning (updates themselves never wait).
  // ------------------------------------------------------------------

  /// Open (or nest) the calling CPU's frame pin. Always succeeds.
  bool PinFrame() final;
  /// Close one nesting level; outermost close leaves the read section.
  void UnpinFrame() final;
  /// True = allowed against the pinned frame and fully accounted.
  /// False = deopt: not pinned, frame generation moved (the pin is
  /// refreshed so later guards in the call are fast again), the
  /// fault-injection forced-deny is armed, or the check failed.
  /// Always inlined into callers that hold a PolicyEngine*.
  [[gnu::always_inline]] inline bool FastGuard(uint64_t addr, uint64_t size,
                                               uint64_t access_flags,
                                               uint64_t site) final;
  [[gnu::always_inline]] inline bool FastGuardRange(uint64_t addr,
                                                    uint64_t size,
                                                    uint64_t access_flags,
                                                    uint64_t elided,
                                                    uint64_t site) final;
  /// Append a module's attested legal-target sets (insmod time). Each set
  /// is sorted on registration; the returned base rebases the module's
  /// local set ids to engine-global ids. Sets are never unregistered —
  /// ids stay stable and stale frames stay decidable — matching the
  /// append-only guard-site token space.
  uint64_t RegisterCfiSets(
      const std::vector<std::vector<uint64_t>>& sets) final;
  /// Inline CFI membership check against the pinned frame. Same deopt
  /// ladder as FastGuard; false sends the caller to CfiCheck(), which
  /// owns violation semantics.
  bool FastCfiCheck(uint64_t target, uint64_t set_id, uint64_t site) final;

 private:
  struct CpuStats {
    std::atomic<uint64_t> guard_calls{0};
    std::atomic<uint64_t> allowed{0};
    std::atomic<uint64_t> denied{0};
    std::atomic<uint64_t> intrinsic_calls{0};
    std::atomic<uint64_t> intrinsic_denied{0};
    std::atomic<uint64_t> elided{0};
    std::atomic<uint64_t> cfi_checks{0};
    std::atomic<uint64_t> cfi_denied{0};
  };

  /// One row of a shard's site-attribution table. Counters are relaxed
  /// atomics written with plain load+store: each shard has exactly one
  /// writer (its own CPU), the atomics only make cross-CPU folds and
  /// resets race-free.
  struct SiteRow {
    std::atomic<uint64_t> site{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> denied{0};
    std::atomic<uint64_t> elided{0};
  };
  struct SiteTable {
    size_t capacity = 0;
    std::unique_ptr<SiteRow[]> rows;
  };

  /// Per-CPU slice of the site-attribution table, dense-indexed by trace
  /// site token. The hot path bumps an existing row without the lock
  /// (single writer per shard); the lock serializes growth, folds, and
  /// resets. Growth frees the old table immediately — safe because only
  /// the owning CPU reads rows lock-free and it is the one growing.
  struct SiteShard {
    Spinlock lock;
    std::atomic<SiteTable*> table{nullptr};
    std::unique_ptr<SiteTable> storage;
  };

  /// One CPU's frame pin. `rcu` holds the read section open for the
  /// whole outermost module call or driver entry so `frame` stays valid;
  /// the captured mutation clock tells FastGuard when the pinned frame
  /// went stale (deopt + refresh). `depth` counts nesting. The stats /
  /// sites / clock / histogram pointers are resolved on the slot's
  /// first pin (they are this CPU's for good) so the inline path runs no
  /// per-guard CPU-slot lookups; `default_allow`
  /// may go stale only together with `mutation_gen` (SetMode bumps it),
  /// which deopts the guard first.
  struct PinSlot {
    uint32_t depth = 0;
    std::optional<smp::RcuDomain::ReadGuard> rcu;
    const PolicyFrame* frame = nullptr;
    uint64_t mutation_gen = 0;
    double guard_cycles = 0.0;
    bool default_allow = false;
    CpuStats* stats = nullptr;
    SiteShard* sites = nullptr;
    // This CPU's clock accumulator, resolved once so inline
    // guards charge cycles with one load+store instead of a slot lookup.
    std::atomic<double>* clock_cell = nullptr;
    // This CPU's bucket sets of the two guard histograms: an inline
    // allow observes them as Guard() does, minus the CPU-slot lookup.
    // Its latency is the pin's constant guard_cycles, so those
    // observations batch in latency_batch and flush whenever
    // guard_cycles may change (refresh) and at unpin.
    trace::Log2Buckets* latency = nullptr;
    trace::Log2Buckets* lookup_depth = nullptr;
    uint64_t latency_batch = 0;
    // Elision credits accumulated over the pinned call and flushed to the
    // global guard.elided counter at unpin: one fetch_add per call instead
    // of one per covering guard. Per-CPU stats stay exact per cover.
    uint64_t elided_batch = 0;
  };

  /// Current frame if fresh, else republish. Called inside an RCU read
  /// section; the returned pointer is valid until the section ends.
  const PolicyFrame* CurrentFrame() const;
  const PolicyFrame* RepublishFrame() const;

  /// First match over the frame's base-sorted index. `depth` is the
  /// paper's scan depth: the match's position in table order (index + 1),
  /// or the region count on a miss — not the number of entries probed.
  static inline std::optional<uint32_t> FrameLookup(const PolicyFrame& frame,
                                                    uint64_t addr,
                                                    uint64_t size,
                                                    uint64_t* depth);

  void NoteSite(uint64_t site, bool allowed, uint64_t elided = 0);
  /// Shard-directed variant for the inline path (shard resolved at pin
  /// time). Lock-free when the row exists; takes the shard lock only to
  /// grow the table.
  inline void NoteSiteIn(SiteShard& shard, uint64_t site, bool allowed,
                         uint64_t elided);
  static void GrowSiteTable(SiteShard& shard, uint64_t site);
  /// The calling CPU's pin when an inline check may use it; nullptr (a
  /// deopt, counted unless simply unpinned) when the CPU is not pinned,
  /// the pinned frame went stale (the pin is refreshed), or `site` is the
  /// fault-injection forced-deny site.
  inline PinSlot* PinForInline(uint64_t site);
  /// Count one inline check sent out of line (guard.deopt).
  void CountDeopt();
  /// The pinned frame went stale: count the deopt and refresh the pin so
  /// later checks in the call are fast again.
  void DeoptStalePin(PinSlot& pin);
  /// The shared body of FastGuard/FastGuardRange (elided = 0 for a
  /// single access). Always inlined, like its callers: left to its
  /// heuristics the compiler keeps one out-of-line copy that every
  /// guarded access calls.
  [[gnu::always_inline]] inline bool PinnedGuard(uint64_t addr,
                                                 uint64_t size,
                                                 uint64_t access_flags,
                                                 uint64_t elided,
                                                 uint64_t site);
  /// Account one inline decision's guard cost: the clock charge and its
  /// (batched) guard.latency_cycles observation.
  inline void ChargePinned(PinSlot& pin);
  /// Observe the pin's batched latencies into guard.latency_cycles.
  static void FlushLatency(PinSlot& pin);
  /// Re-capture the pinned frame after its generations moved (called
  /// with the slot's read section still open, which keeps the refresh
  /// race-free against reclamation).
  void RefreshPin(PinSlot& slot);
  uint64_t FoldGuardCalls() const;
  uint64_t FoldIntrinsicCalls() const;
  void RecordViolation(const ViolationRecord& record);

  kernel::Kernel* kernel_;
  std::atomic<PolicyMode> mode_;
  std::atomic<ViolationAction> action_{ViolationAction::kPanic};
  std::atomic<bool> charge_cycles_{true};
  std::atomic<uint64_t> force_deny_site_{kNoForcedSite};

  // Copy-publish machinery. writer_lock_ serializes republish and
  // intrinsic-config mutation; config_generation_ covers everything in
  // the frame that is not the table's own contents.
  mutable Spinlock writer_lock_;
  mutable std::atomic<const PolicyFrame*> frame_{nullptr};
  mutable smp::RcuDomain rcu_;
  std::atomic<uint64_t> config_generation_{0};
  // Combined mutation clock for the inline fast path: bumped by every
  // config change here AND by the table's mutators (it is handed this
  // cell at construction), so a pinned guard validates its frame with ONE
  // generation load instead of two.
  std::atomic<uint64_t> mutation_gen_{0};
  RegionTable64 table_{mutation_gen_};
  mutable std::atomic<uint64_t> frames_published_{0};

  // Intrinsic master sets (guarded by writer_lock_; guards read the
  // frame's sorted copies).
  bool intrinsic_default_allow_ = false;
  std::set<uint64_t> intrinsic_allowed_;
  std::set<uint64_t> intrinsic_denied_;
  // CFI master table (guarded by writer_lock_; checks read the frame's
  // copy). Append-only — see RegisterCfiSets.
  std::vector<std::vector<uint64_t>> cfi_sets_;

  smp::PerCpu<CpuStats> cpu_stats_;
  smp::PerCpu<PinSlot> pin_slots_;
  mutable smp::PerCpu<SiteShard> site_shards_;

  mutable Spinlock violations_lock_;
  RingBuffer<ViolationRecord> violations_{64};

  // Registered once in the constructor; registry pointers are stable, so
  // the hot path skips the name lookup.
  trace::Log2Histogram* latency_hist_;
  trace::Log2Histogram* lookup_depth_hist_;
  trace::Counter* denied_counter_;
  trace::Counter* elided_counter_;
  trace::Counter* deopt_counter_;
};

// ----------------------------------------------------------------------
// The inline allow path. Everything an allowed pinned access runs is
// defined here so callers compile it in; anything else calls out of line.
// ----------------------------------------------------------------------

namespace detail {
/// True when an entry ending at `end` (exclusive) can hold
/// [addr, addr + span), given its base is at or below addr. Written
/// without addr + span, which may wrap.
inline bool EndHolds(uint64_t end, uint64_t addr, uint64_t span) {
  return end > addr && end - addr >= span;
}
}  // namespace detail

inline std::optional<uint32_t> PolicyEngine::FrameLookup(
    const PolicyFrame& frame, uint64_t addr, uint64_t size, uint64_t* depth) {
  using detail::EndHolds;
  constexpr uint32_t kNoMatch = ~uint32_t{0};
  const IndexedRegion* const entries = frame.regions.entries.get();
  const size_t n = frame.regions.size;
  *depth = n;
  const uint64_t span = size == 0 ? 1 : size;
  // Outside [lowest base, highest end) nothing can contain the access:
  // a miss without searching.
  if (n == 0 || addr < entries[0].base ||
      !EndHolds(entries[n - 1].max_end, addr, span)) {
    return std::nullopt;
  }
  // Branch-free binary search for the last region based at or below
  // addr (entries[0] is, by the check above): entries[0, below) are the
  // only regions that can contain the access.
  const IndexedRegion* last = entries;
  for (size_t len = n; len > 1;) {
    const size_t half = len / 2;
    last = last[half].base <= addr ? last + half : last;
    len -= half;
  }
  size_t below = static_cast<size_t>(last - entries) + 1;
  // Walk down while some entry at or before this one still reaches past
  // the access. Every container is in that stretch; the first match is
  // the container earliest in table order, wherever its base sits.
  uint32_t first = kNoMatch;
  uint32_t prot = kProtNone;
  for (; below > 0 && EndHolds(entries[below - 1].max_end, addr, span);
       --below) {
    const IndexedRegion& entry = entries[below - 1];
    if (entry.index < first && EndHolds(entry.end, addr, span)) {
      first = entry.index;
      prot = entry.prot;
    }
  }
  if (first == kNoMatch) return std::nullopt;
  // The paper's scan depth: the match's position in table order.
  *depth = first + 1;
  return prot;
}

inline void PolicyEngine::NoteSiteIn(SiteShard& shard, uint64_t site,
                                     bool allowed, uint64_t elided) {
  SiteTable* table = shard.table.load(std::memory_order_acquire);
  if (table == nullptr || site >= table->capacity) [[unlikely]] {
    GrowSiteTable(shard, site);
    table = shard.table.load(std::memory_order_acquire);
  }
  SiteRow& row = table->rows[static_cast<size_t>(site)];
  row.site.store(site, std::memory_order_relaxed);
  BumpRelaxed(row.hits);
  if (elided != 0) BumpRelaxed(row.elided, elided);
  if (!allowed) BumpRelaxed(row.denied);
}

inline void PolicyEngine::ChargePinned(PinSlot& pin) {
  if (charge_cycles_.load(std::memory_order_relaxed)) {
    pin.clock_cell->store(
        pin.clock_cell->load(std::memory_order_relaxed) + pin.guard_cycles,
        std::memory_order_relaxed);
  }
  ++pin.latency_batch;
}

inline PolicyEngine::PinSlot* PolicyEngine::PinForInline(uint64_t site) {
  PinSlot& pin = pin_slots_.Mine();
  if (pin.depth == 0) [[unlikely]] {
    return nullptr;  // not pinned: fast path unavailable, not a deopt
  }
  if (pin.mutation_gen !=
      mutation_gen_.load(std::memory_order_acquire)) [[unlikely]] {
    // Policy moved mid-call (table mutations and config changes both
    // tick the one clock): this check re-decides out of line.
    DeoptStalePin(pin);
    return nullptr;
  }
  if (site == force_deny_site_.load(std::memory_order_relaxed)) [[unlikely]] {
    CountDeopt();
    return nullptr;  // fault injection: slow path owns the spurious denial
  }
  return &pin;
}

inline bool PolicyEngine::PinnedGuard(uint64_t addr, uint64_t size,
                                      uint64_t access_flags, uint64_t elided,
                                      uint64_t site) {
  PinSlot* const slot = PinForInline(site);
  if (slot == nullptr) return false;
  PinSlot& pin = *slot;
  uint64_t depth = 0;
  const std::optional<uint32_t> prot =
      FrameLookup(*pin.frame, addr, size, &depth);
  const bool allowed = prot.has_value()
                           ? (*prot & access_flags) == access_flags
                           : pin.default_allow;
  if (!allowed) [[unlikely]] {
    CountDeopt();
    return false;  // slow path re-decides with full violation semantics
  }
  BumpRelaxed(pin.stats->guard_calls);
  BumpRelaxed(pin.stats->allowed);
  NoteSiteIn(*pin.sites, site, true, elided);
  if (elided != 0) {
    BumpRelaxed(pin.stats->elided, elided);
    pin.elided_batch += elided;
  }
  ChargePinned(pin);
  pin.lookup_depth->Observe(static_cast<double>(depth));
  return true;
}

inline bool PolicyEngine::FastGuard(uint64_t addr, uint64_t size,
                                    uint64_t access_flags, uint64_t site) {
  return PinnedGuard(addr, size, access_flags, 0, site);
}

inline bool PolicyEngine::FastGuardRange(uint64_t addr, uint64_t size,
                                         uint64_t access_flags,
                                         uint64_t elided, uint64_t site) {
  return PinnedGuard(addr, size, access_flags, elided, site);
}

}  // namespace kop::policy
