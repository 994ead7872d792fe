// The pinned guard core: every guard and CFI decision and its accounting,
// in one header-only layer below every engine (it depends on util, smp
// and trace only). Native drivers (modrt::GuardedMemOps via
// PolicyEngine::FastGuard) and both KIR engines compile the allow path
// into their own code. A pin holds the calling CPU's RCU read section and
// the published PolicyFrame for a whole outermost call, and caches its
// last region decision as a verdict window: an allowed access inside the
// region or gap the window names makes no call and no frame search (one
// outside it calls RefillWindow). An allow's counters and histogram sums
// are batched in the pin until FlushAllows (at every unpin and before
// every out-of-line decision). Anything else deopts (returns false) to the
// out-of-line PolicyEngine::Guard()/GuardRange()/CfiCheck(). Those open
// or nest in the same pin and decide through the same DecideGuard /
// DecideCfi; a denial is accounted here too (AccountDenial), and the
// engine keeps only the forced-deny override, tracepoints, the violation
// record, printk and containment. The policy engine implements PinSource
// and owns the slots (DESIGN.md §15).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "kop/smp/rcu.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/util/single_writer.hpp"
#include "kop/util/spinlock.hpp"

namespace kop::guard {

/// One region of the base-sorted index. Trivial, so an index buffer can
/// be allocated without zeroing it first.
struct IndexedRegion {
  uint64_t base;
  /// base + len, exclusive. Add rejects wrapping regions, so it fits.
  uint64_t end;
  /// Largest `end` of this entry and every entry before it in base order:
  /// no entry at or before this one can contain an access ending past it.
  uint64_t max_end;
  uint32_t prot;
  /// Position in table (first-match) order.
  uint32_t index;
};

/// A base-sorted index as one allocation.
struct RegionIndex {
  std::unique_ptr<IndexedRegion[]> entries;
  size_t size = 0;
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

namespace detail {
/// True when an entry ending at `end` (exclusive) can hold
/// [addr, addr + span), given its base is at or below addr. Written
/// without addr + span, which may wrap.
inline bool EndHolds(uint64_t end, uint64_t addr, uint64_t span) {
  return end > addr && end - addr >= span;
}
}  // namespace detail

/// An address range [lo, hi) in which FrameLookup decides every access
/// that lies wholly inside alike; lo == hi holds nothing. The top byte
/// 2^64 - 1 is never inside a window (hi cannot be 2^64), so an access
/// that reaches it always searches.
struct AddrWindow {
  uint64_t lo = 0;
  uint64_t hi = 0;
  /// Two compares: addr in [lo, hi), then the access ends by hi (size 0
  /// checks one byte, which addr < hi already holds).
  bool Holds(uint64_t addr, uint64_t size) const {
    return addr - lo < hi - lo && hi - addr >= size;
  }
};

/// First match over the frame's base-sorted index: the matching region's
/// protection flags, or nullopt on a miss. `depth` is the paper's scan
/// depth: the match's position in table order (index + 1), or the region
/// count on a miss — not the number of entries probed. `window` receives
/// the range every access wholly inside of which gets this same answer:
/// on a match the matched region, if no other region overlaps it (a
/// previous entry's running max end and the next entry's base tell); on
/// a miss the gap around the searched position, from one entry's running
/// max end to the next entry's base. Otherwise it is empty.
[[gnu::always_inline]] inline std::optional<uint32_t> FrameLookup(
    const PolicyFrame& frame, uint64_t addr, uint64_t size, uint64_t* depth,
    AddrWindow* window) {
  using detail::EndHolds;
  constexpr uint32_t kNoMatch = ~uint32_t{0};
  constexpr uint64_t kTop = ~uint64_t{0};
  const IndexedRegion* const entries = frame.regions.entries.get();
  const size_t n = frame.regions.size;
  *depth = n;
  const uint64_t span = size == 0 ? 1 : size;
  // Outside [lowest base, highest end) nothing can contain the access:
  // a miss without searching, in the gap below or above every region.
  if (n == 0) {
    *window = AddrWindow{0, kTop};
    return std::nullopt;
  }
  if (addr < entries[0].base) {
    *window = AddrWindow{0, entries[0].base};
    return std::nullopt;
  }
  if (!EndHolds(entries[n - 1].max_end, addr, span)) {
    *window = AddrWindow{entries[n - 1].max_end, kTop};
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
  const IndexedRegion* match = nullptr;
  for (; below > 0 && EndHolds(entries[below - 1].max_end, addr, span);
       --below) {
    const IndexedRegion& entry = entries[below - 1];
    if (entry.index < first && EndHolds(entry.end, addr, span)) {
      first = entry.index;
      match = &entry;
    }
  }
  if (match == nullptr) {
    // Every entry up to `last` ends by its running max end, every later
    // one starts at or after the next base: between them is no region.
    const uint64_t lo = last->max_end;
    const uint64_t hi = last + 1 < entries + n ? last[1].base : kTop;
    *window = AddrWindow{lo, std::max(lo, hi)};
    return std::nullopt;
  }
  const size_t at = static_cast<size_t>(match - entries);
  const bool alone = (at == 0 || entries[at - 1].max_end <= match->base) &&
                     (at + 1 == n || entries[at + 1].base >= match->end);
  *window = alone ? AddrWindow{match->base, match->end} : AddrWindow{};
  // The paper's scan depth: the match's position in table order.
  *depth = first + 1;
  return match->prot;
}

/// One simulated CPU's guard counters, folded on read.
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

/// One row of a shard's site-attribution table; its site is its index.
/// Counters are relaxed atomics written with plain load+store: each shard
/// has exactly one writer (its own CPU), the atomics only make cross-CPU
/// folds and resets race-free.
struct SiteRow {
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

/// Fault-injection disarmed: no site is forced to deny.
inline constexpr uint64_t kNoForcedSite = ~uint64_t{0};

/// The engine-wide cells the allow path reads, owned by the policy engine
/// and reached from every pin through PinSlot::cells.
struct EngineCells {
  // Combined mutation clock: bumped by every config change AND by the
  // region table's mutators (it is handed this cell at construction), so
  // a pinned guard validates its frame with ONE generation load.
  std::atomic<uint64_t> mutation_gen{0};
  std::atomic<uint64_t> force_deny_site{kNoForcedSite};
  trace::Counter* deopt = nullptr;  // guard.deopt
  // Bumped by every ResetStats: a pin captured under an older epoch
  // holds decisions that predate the reset (see FlushAllows).
  std::atomic<uint64_t> reset_epoch{0};
};

class PinSource;

/// A pin's cached decision (DESIGN.md §15): FrameLookup's answer for
/// every access wholly inside `range`, in frames of store generation
/// `generation`. Frames of one store generation hold the same regions,
/// so the window outlives pins and config-only republishes; RefreshPin
/// keeps `generation` equal to the pinned frame's and empties the window
/// when it moves.
struct VerdictWindow {
  AddrWindow range;
  uint64_t depth = 0;
  uint32_t prot = 0;
  bool match = false;
  uint64_t generation = 0;
};

/// One CPU's frame pin. `rcu` holds the read section open for the
/// whole outermost module call or driver entry so `frame` stays valid;
/// the captured mutation clock tells the allow path when the pinned frame
/// went stale (deopt + refresh). `depth` counts nesting. The stats /
/// sites / clock / histogram pointers are resolved on the slot's
/// first pin (they are this CPU's for good) so the inline path runs no
/// per-guard CPU-slot lookups; `default_allow`
/// may go stale only together with `mutation_gen` (SetMode bumps it),
/// which deopts the guard first. `window` caches the last region
/// decision, so a guard inside the region or gap it named skips the
/// search.
///
/// The batches hold what allowed decisions, inline or out of line, owe
/// this CPU's stats and histograms; FlushAllows folds them at the
/// outermost unpin, on a refresh, on every deopt and before every
/// denial is accounted (which then reads guard_calls for
/// ViolationRecord::sequence). Site hits, the
/// lookup-depth bucket and the clock charge are never batched: postmortem
/// heatmaps and mid-entry virtual time read them as they happen, and a
/// depth is only known per allow.
struct PinSlot {
  uint32_t depth = 0;
  std::optional<smp::RcuDomain::ReadGuard> rcu;
  const PolicyFrame* frame = nullptr;
  uint64_t mutation_gen = 0;
  VerdictWindow window;
  double guard_cycles = 0.0;
  bool default_allow = false;
  const EngineCells* cells = nullptr;
  // The engine that owns this slot: the refresh target of a stale pin,
  // and the unpin of the call that opened it.
  PinSource* source = nullptr;
  CpuStats* stats = nullptr;
  SiteShard* sites = nullptr;
  // This CPU's clock accumulator, resolved once so inline
  // guards charge cycles with one load+store instead of a slot lookup.
  std::atomic<double>* clock_cell = nullptr;
  // This CPU's bucket sets of the two guard histograms: an inline
  // decision observes them as Guard() does, minus the CPU-slot lookup.
  trace::Log2Buckets* latency = nullptr;
  trace::Log2Buckets* lookup_depth = nullptr;
  // Allows not yet folded into stats->guard_calls / allowed, and CFI
  // passes not yet folded into stats->cfi_checks. Together
  // they are the decisions not yet observed in the latency histogram at
  // the pin's guard_cycles, which only a refresh changes.
  uint64_t allowed_batch = 0;
  uint64_t cfi_batch = 0;
  // The batched allows' lookup depths, summed: owed to the lookup-depth
  // histogram's sum (each allow bumps its bucket at once).
  uint64_t depth_sum = 0;
  // Elision credits accumulated over the pinned call and flushed to the
  // global guard.elided counter at unpin: one fetch_add per call instead
  // of one per covering guard. Per-CPU stats stay exact per cover.
  uint64_t elided_batch = 0;
  // EngineCells::reset_epoch as of the last refresh.
  uint64_t reset_epoch = 0;
};

/// What the kernel and the pins know of the policy engine: used once per
/// outermost module call (PinCpu/UnpinFrame), once per insmod
/// (RegisterCfiSets) and on a stale pin (RefreshPin), never per access.
class PinSource {
 public:
  /// Open (or nest) the calling CPU's frame pin and return its slot.
  virtual PinSlot* PinCpu() = 0;
  /// Close one nesting level; the outermost close leaves the read section.
  virtual void UnpinFrame() = 0;
  /// Append a module's attested legal-target sets (insmod time) and
  /// return the base that rebases its local set ids to engine-global ids.
  virtual uint64_t RegisterCfiSets(
      const std::vector<std::vector<uint64_t>>& sets) = 0;
  /// Re-capture the pinned frame after its generations moved (called
  /// with the slot's read section still open, which keeps the refresh
  /// race-free against reclamation).
  virtual void RefreshPin(PinSlot& pin) = 0;

 protected:
  ~PinSource() = default;
};

/// Close the pin PinCpu returned, if any, and forget it.
inline void Unpin(PinSlot*& pin) {
  if (pin == nullptr) return;
  pin->source->UnpinFrame();
  pin = nullptr;
}

/// Grow `shard`'s table to hold `site` (once per new site per CPU).
[[gnu::noinline]] inline void GrowSiteTable(SiteShard& shard, uint64_t site) {
  std::lock_guard<Spinlock> guard(shard.lock);
  SiteTable* old = shard.table.load(std::memory_order_relaxed);
  if (old != nullptr && site < old->capacity) return;  // raced a growth
  auto grown = std::make_unique<SiteTable>();
  grown->capacity = std::max<size_t>(64, static_cast<size_t>(site) + 1);
  if (old != nullptr) grown->capacity = std::max(grown->capacity,
                                                 old->capacity * 2);
  grown->rows = std::make_unique<SiteRow[]>(grown->capacity);
  if (old != nullptr) {
    for (size_t i = 0; i < old->capacity; ++i) {
      const SiteRow& from = old->rows[i];
      SiteRow& to = grown->rows[i];
      to.hits.store(from.hits.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      to.denied.store(from.denied.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      to.elided.store(from.elided.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
  }
  shard.table.store(grown.get(), std::memory_order_release);
  // Freeing the old table here is safe: the only lock-free readers are
  // on the shard's own CPU — the thread running this growth — and every
  // cross-CPU access (folds, resets) holds the shard lock.
  shard.storage = std::move(grown);
}

/// Fold the pin's batched inline accounting into this CPU's stats and
/// histograms: afterwards they read as if every inline decision had been
/// accounted unbatched. The histogram sums stay bit-identical: ObserveN
/// adds one value as often as it was observed, and the depth sum is
/// integral (Log2Buckets::AddToSum). A ResetStats since the pin's snapshot
/// zeroed the counters these decisions predate, so a stale epoch drops
/// them there; ResetStats leaves histograms alone, so they take the batch
/// either way.
[[gnu::noinline]] inline void FlushAllows(PinSlot& pin) {
  const uint64_t decisions = pin.allowed_batch + pin.cfi_batch;
  if (decisions == 0) return;
  if (pin.reset_epoch ==
      pin.cells->reset_epoch.load(std::memory_order_acquire)) {
    BumpRelaxed(pin.stats->guard_calls, pin.allowed_batch);
    BumpRelaxed(pin.stats->allowed, pin.allowed_batch);
    BumpRelaxed(pin.stats->cfi_checks, pin.cfi_batch);
  }
  pin.lookup_depth->AddToSum(pin.depth_sum);
  pin.latency->ObserveN(pin.guard_cycles, decisions);
  pin.allowed_batch = 0;
  pin.cfi_batch = 0;
  pin.depth_sum = 0;
}

/// Count one inline check sent out of line (guard.deopt), flushing the
/// pin first so the out-of-line decision sees exact stats.
[[gnu::noinline]] inline void CountDeopt(PinSlot& pin) {
  FlushAllows(pin);
  pin.cells->deopt->Add();
}

/// The pinned frame went stale: count the deopt and refresh the pin so
/// later checks in the call are fast again.
[[gnu::noinline]] inline void DeoptStalePin(PinSlot& pin) {
  CountDeopt(pin);
  pin.source->RefreshPin(pin);
}

/// Bump `site`'s row in the calling CPU's shard. Lock-free when the row
/// exists; takes the shard lock only to grow the table.
[[gnu::always_inline]] inline void NoteSiteIn(SiteShard& shard, uint64_t site,
                                              bool allowed, uint64_t elided) {
  SiteTable* table = shard.table.load(std::memory_order_acquire);
  if (table == nullptr || site >= table->capacity) [[unlikely]] {
    GrowSiteTable(shard, site);
    table = shard.table.load(std::memory_order_acquire);
  }
  SiteRow& row = table->rows[static_cast<size_t>(site)];
  BumpRelaxed(row.hits);
  if (elided != 0) BumpRelaxed(row.elided, elided);
  if (!allowed) BumpRelaxed(row.denied);
}

/// Charge one decision's guard cost to the virtual clock (its
/// guard.latency_cycles observation is batched with the decision), then
/// `access_cycles` of the access it guards, in one update of the clock
/// cell: (now + guard) + access, bit for bit what a guard charge and a
/// separate access charge leave.
[[gnu::always_inline]] inline void ChargePinned(PinSlot& pin,
                                                double access_cycles = 0.0) {
  const double cycles =
      pin.clock_cell->load(std::memory_order_relaxed) + pin.guard_cycles;
  pin.clock_cell->store(cycles + access_cycles, std::memory_order_relaxed);
}

/// Search the pinned frame for an access its window does not hold and
/// cache the answer, with the window FrameLookup reports for it, as the
/// pin's new window. The window's fields are then this access's verdict
/// even when its range cannot hold the access (a straddle, an
/// overlapped region).
[[gnu::noinline]] inline void RefillWindow(PinSlot& pin, uint64_t addr,
                                           uint64_t size) {
  VerdictWindow& window = pin.window;
  const std::optional<uint32_t> prot =
      FrameLookup(*pin.frame, addr, size, &window.depth, &window.range);
  window.prot = prot.value_or(0);
  window.match = prot.has_value();
}

/// True when an inline check may decide against `pin`. False (a deopt,
/// counted unless simply unpinned) when the CPU is not pinned, the pinned
/// frame went stale (the pin is refreshed), or `site` is the
/// fault-injection forced-deny site.
[[gnu::always_inline]] inline bool PinForInline(PinSlot& pin, uint64_t site) {
  if (pin.depth == 0) [[unlikely]] {
    return false;  // not pinned: fast path unavailable, not a deopt
  }
  const EngineCells& cells = *pin.cells;
  if (pin.mutation_gen !=
      cells.mutation_gen.load(std::memory_order_acquire)) [[unlikely]] {
    // Policy moved mid-call (table mutations and config changes both
    // tick the one clock): this check re-decides out of line.
    DeoptStalePin(pin);
    return false;
  }
  if (site == cells.force_deny_site.load(std::memory_order_relaxed))
      [[unlikely]] {
    CountDeopt(pin);
    return false;  // fault injection: slow path owns the spurious denial
  }
  return true;
}

// The decision core. Every guard and CFI decision, inline or out of line,
// is DecideGuard or DecideCfi against a fresh pin, which account an allow;
// an out-of-line denial is accounted by AccountDenial. Nothing else bumps
// the guard and CFI decision counters, observes the guard histograms,
// charges the guard cost or bumps a guard's site row (the intrinsic
// check, which is none of these, keeps its own).

/// carat_guard / carat_guard_range (elided = 0 for a single access)
/// against the pinned frame; `depth` receives the lookup depth. The
/// pin's verdict window answers an access it holds with two compares;
/// any other access searches the frame (RefillWindow). True = allowed
/// and accounted, batched in the pin (see FlushAllows), with
/// `access_cycles` of the guarded access charged in the same clock
/// update. False = denied, or `veto`ed by fault injection, and not
/// accounted. A cover's `elided` members count as elided, not as guard
/// calls: guard_calls + elided is what an unelided build would have
/// reported.
[[gnu::always_inline]] inline bool DecideGuard(PinSlot& pin, uint64_t addr,
                                               uint64_t size,
                                               uint64_t access_flags,
                                               uint64_t elided, uint64_t site,
                                               bool veto, uint64_t* depth,
                                               double access_cycles = 0.0) {
  const VerdictWindow& window = pin.window;
  if (!window.range.Holds(addr, size)) [[unlikely]] {
    RefillWindow(pin, addr, size);
  }
  *depth = window.depth;
  const bool allowed = window.match
                           ? (window.prot & access_flags) == access_flags
                           : pin.default_allow;
  // Two tests, not one `||`: joined, GCC lays out the inline callers'
  // allow path (veto = false) differently, and layout alone has moved the
  // socket path's host time.
  if (!allowed) [[unlikely]] return false;
  if (veto) [[unlikely]] return false;
  ++pin.allowed_batch;
  pin.depth_sum += *depth;
  pin.lookup_depth->CountIn(*depth);
  NoteSiteIn(*pin.sites, site, true, elided);
  if (elided != 0) {
    BumpRelaxed(pin.stats->elided, elided);
    pin.elided_batch += elided;
  }
  ChargePinned(pin, access_cycles);
  return true;
}

/// carat_cfi_check against the pinned frame: `target` must be a member of
/// engine-global set `set_id`. An out-of-range id (a module that skipped
/// registration, or a forged rebase) denies: unknown provenance is never
/// a licence to jump. True and false as for DecideGuard; a CFI decision
/// costs and observes latency as a guard does, but has no lookup depth.
[[gnu::always_inline]] inline bool DecideCfi(PinSlot& pin, uint64_t target,
                                             uint64_t set_id, uint64_t site,
                                             bool veto) {
  const std::vector<std::vector<uint64_t>>& sets = pin.frame->cfi_sets;
  const bool allowed =
      set_id < sets.size() &&
      std::binary_search(sets[set_id].begin(), sets[set_id].end(), target);
  if (!allowed) [[unlikely]] return false;
  if (veto) [[unlikely]] return false;
  ++pin.cfi_batch;
  NoteSiteIn(*pin.sites, site, true, 0);
  ChargePinned(pin);
  return true;
}

/// Account one out-of-line denial (a CFI one when `cfi`; then `depth` is
/// unused), unbatched and after the pin's batch, so the stats read in
/// decision order. A denied cover credits no elided members: the
/// violation is the whole cluster's.
[[gnu::noinline]] inline void AccountDenial(PinSlot& pin, bool cfi,
                                            uint64_t depth, uint64_t site) {
  FlushAllows(pin);
  if (cfi) {
    BumpRelaxed(pin.stats->cfi_checks);
    BumpRelaxed(pin.stats->cfi_denied);
  } else {
    BumpRelaxed(pin.stats->guard_calls);
    BumpRelaxed(pin.stats->denied);
    pin.lookup_depth->CountIn(depth);
    pin.lookup_depth->AddToSum(depth);
  }
  pin.latency->Observe(pin.guard_cycles);
  NoteSiteIn(*pin.sites, site, false, 0);
  ChargePinned(pin);
}

/// An inline carat_guard / carat_guard_range. True = allowed and
/// accounted, and `access_cycles` of the access it guards charged with
/// the guard (DecideGuard). False = deopt: not pinned, frame generation
/// moved (the pin is refreshed so later guards in the call are fast
/// again), the fault-injection forced-deny is armed, or the check
/// failed; the out-of-line decision then accounts it, and nothing is
/// charged here.
[[gnu::always_inline]] inline bool PinnedGuard(PinSlot& pin, uint64_t addr,
                                               uint64_t size,
                                               uint64_t access_flags,
                                               uint64_t elided, uint64_t site,
                                               double access_cycles = 0.0) {
  if (!PinForInline(pin, site)) return false;
  uint64_t depth = 0;
  if (!DecideGuard(pin, addr, size, access_flags, elided, site,
                   /*veto=*/false, &depth, access_cycles)) [[unlikely]] {
    CountDeopt(pin);
    return false;  // slow path re-decides with full violation semantics
  }
  return true;
}

/// An inline carat_cfi_check. Same deopt ladder as PinnedGuard; false
/// sends the caller to CfiCheck(), which owns violation semantics.
[[gnu::always_inline]] inline bool PinnedCfiCheck(PinSlot& pin,
                                                  uint64_t target,
                                                  uint64_t set_id,
                                                  uint64_t site) {
  if (!PinForInline(pin, site)) return false;
  if (!DecideCfi(pin, target, set_id, site, /*veto=*/false)) [[unlikely]] {
    CountDeopt(pin);
    return false;  // slow path re-decides with full violation semantics
  }
  return true;
}

}  // namespace kop::guard
