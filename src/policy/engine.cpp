#include "kop/policy/engine.hpp"

#include <algorithm>
#include <mutex>

#include "kop/trace/site.hpp"
#include "kop/trace/trace.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop::policy {

PolicyEngine::PolicyEngine(kernel::Kernel* kernel, PolicyMode mode)
    : kernel_(kernel),
      mode_(mode),
      latency_hist_(
          trace::GlobalMetrics().GetHistogram("guard.latency_cycles")),
      lookup_depth_hist_(
          trace::GlobalMetrics().GetHistogram("policy.lookup_depth")),
      denied_counter_(trace::GlobalMetrics().GetCounter("guard.denied")),
      elided_counter_(trace::GlobalMetrics().GetCounter("guard.elided")) {
  cells_.deopt = trace::GlobalMetrics().GetCounter("guard.deopt");
}

PolicyEngine::~PolicyEngine() {
  // No guard may be in flight at destruction. Retired frames drain in
  // the RCU domain's destructor; the live frame is ours to free.
  delete frame_.load(std::memory_order_acquire);
}

const PolicyFrame* PolicyEngine::CurrentFrame() const {
  const PolicyFrame* frame = frame_.load(std::memory_order_acquire);
  if (frame != nullptr &&
      frame->store_generation == table_.generation() &&
      frame->config_generation ==
          config_generation_.load(std::memory_order_acquire)) {
    return frame;
  }
  return RepublishFrame();
}

const PolicyFrame* PolicyEngine::RepublishFrame() const {
  std::lock_guard<Spinlock> guard(writer_lock_);
  // Re-check under the writer lock: the CPU that beat us here may have
  // already published exactly the frame we came to build.
  const uint64_t store_gen = table_.generation();
  const uint64_t config_gen =
      config_generation_.load(std::memory_order_acquire);
  const PolicyFrame* frame = frame_.load(std::memory_order_acquire);
  if (frame != nullptr && frame->store_generation == store_gen &&
      frame->config_generation == config_gen) {
    return frame;
  }

  auto* fresh = new PolicyFrame;
  // Tagged with the generation Index() read under the table lock, not
  // store_gen: a mutation since store_gen was read is in these regions,
  // and verdict windows trust that one tag means one region set.
  fresh->regions = table_.Index(&fresh->store_generation);
  fresh->config_generation = config_gen;
  fresh->intrinsic_allowed.assign(intrinsic_allowed_.begin(),
                                  intrinsic_allowed_.end());
  fresh->intrinsic_denied.assign(intrinsic_denied_.begin(),
                                 intrinsic_denied_.end());
  fresh->intrinsic_default_allow = intrinsic_default_allow_;
  fresh->cfi_sets = cfi_sets_;

  frame_.store(fresh, std::memory_order_release);
  frames_published_.fetch_add(1, std::memory_order_acq_rel);
  // We are inside the calling guard's read section, so Retire must not
  // block; the old frame is freed once every section that could have
  // loaded it has closed.
  if (frame != nullptr) rcu_.Retire(frame);
  return fresh;
}

namespace {
/// Add one CPU's counters to `out`.
void AddCounters(const guard::CpuStats& slot, GuardStats* out) {
  out->guard_calls += slot.guard_calls.load(std::memory_order_relaxed);
  out->allowed += slot.allowed.load(std::memory_order_relaxed);
  out->denied += slot.denied.load(std::memory_order_relaxed);
  out->intrinsic_calls +=
      slot.intrinsic_calls.load(std::memory_order_relaxed);
  out->intrinsic_denied +=
      slot.intrinsic_denied.load(std::memory_order_relaxed);
  out->elided += slot.elided.load(std::memory_order_relaxed);
  out->cfi_checks += slot.cfi_checks.load(std::memory_order_relaxed);
  out->cfi_denied += slot.cfi_denied.load(std::memory_order_relaxed);
}

/// A frame's index back in table order.
std::vector<Region> InTableOrder(const RegionIndex& index) {
  std::vector<Region> regions(index.size);
  for (size_t k = 0; k < index.size; ++k) {
    const IndexedRegion& entry = index.entries[k];
    regions[entry.index] =
        Region{entry.base, entry.end - entry.base, entry.prot};
  }
  return regions;
}
}  // namespace

bool PolicyEngine::Check(uint64_t addr, uint64_t size,
                         uint64_t access_flags) const {
  smp::RcuDomain::ReadGuard rcu(rcu_);
  const PolicyFrame* frame = CurrentFrame();
  uint64_t depth = 0;
  guard::AddrWindow window;
  const std::optional<uint32_t> prot =
      guard::FrameLookup(*frame, addr, size, &depth, &window);
  if (prot.has_value()) {
    return (*prot & access_flags) == access_flags;
  }
  return mode() == PolicyMode::kDefaultAllow;
}

void PolicyEngine::RecordViolation(const ViolationRecord& record) {
  std::lock_guard<Spinlock> guard(violations_lock_);
  violations_.push(record);
}

/// The calling CPU's pin for one out-of-line decision: opened here when
/// the CPU is unpinned, else nested in the caller's pin. A stale pin is
/// refreshed without counting a deopt: only an inline check deopts. The
/// pin closes on every exit, so a violation unwinds with the CPU's pin
/// depth as it found it.
struct PolicyEngine::DecisionPin {
  explicit DecisionPin(PolicyEngine& engine)
      : engine(engine), slot(*engine.PinCpu()) {
    if (slot.mutation_gen !=
        engine.cells_.mutation_gen.load(std::memory_order_acquire)) {
      engine.RefreshPin(slot);
    }
  }
  ~DecisionPin() { engine.UnpinFrame(); }
  DecisionPin(const DecisionPin&) = delete;
  DecisionPin& operator=(const DecisionPin&) = delete;

  PolicyEngine& engine;
  guard::PinSlot& slot;
};

bool PolicyEngine::Guard(uint64_t addr, uint64_t size,
                         uint64_t access_flags) {
  return GuardRange(addr, size, access_flags, 0);
}

bool PolicyEngine::GuardRange(uint64_t addr, uint64_t size,
                              uint64_t access_flags, uint64_t elided) {
  const uint64_t site = trace::CurrentGuardSite();
  bool allowed;
  {
    DecisionPin pin(*this);
    uint64_t depth = 0;
    allowed = guard::DecideGuard(pin.slot, addr, size, access_flags, elided,
                                 site, ForcedDeny(site), &depth);
    if (!allowed) {
      guard::AccountDenial(pin.slot, /*cfi=*/false, depth, site);
      // A cover's violation is attributed to its site with the interval's
      // address and span.
      RecordViolation(ViolationRecord{addr, size, access_flags,
                                      stats().guard_calls, false, site,
                                      false});
    }
    KOP_TRACE(kPolicyLookup, depth, pin.slot.frame->regions.size);
  }
  KOP_TRACE(kGuardCheck, addr, size, access_flags, site);
  if (allowed) return true;
  KOP_TRACE(kGuardDeny, addr, size, access_flags, site);
  denied_counter_->Add();
  const char* kind =
      (access_flags & kGuardAccessWrite)
          ? ((access_flags & kGuardAccessRead) ? "read-write" : "write")
          : "read";
  kernel_->log().Printk(
      kernel::KernLevel::kAlert,
      "CARAT KOP: forbidden %s access to 0x%llx (size %llu) blocked by policy",
      kind, static_cast<unsigned long long>(addr),
      static_cast<unsigned long long>(size));
  return Contain("CARAT KOP guard violation",
                 GuardViolation(addr, size, access_flags, site));
}

bool PolicyEngine::CfiCheck(uint64_t target, uint64_t set_id) {
  const uint64_t site = trace::CurrentGuardSite();
  bool allowed;
  {
    DecisionPin pin(*this);
    allowed =
        guard::DecideCfi(pin.slot, target, set_id, site, ForcedDeny(site));
    if (!allowed) {
      guard::AccountDenial(pin.slot, /*cfi=*/true, 0, site);
      RecordViolation(ViolationRecord{target, set_id, 0, stats().guard_calls,
                                      false, site, true});
    }
  }
  KOP_TRACE(kGuardCheck, target, set_id, 0, site);
  if (allowed) return true;
  KOP_TRACE(kGuardDeny, target, set_id, 0, site);
  denied_counter_->Add();
  kernel_->log().Printk(
      kernel::KernLevel::kAlert,
      "CARAT KOP: forbidden indirect call to 0x%llx (set %llu) blocked by "
      "policy",
      static_cast<unsigned long long>(target),
      static_cast<unsigned long long>(set_id));
  return Contain("CARAT KOP cfi violation",
                 GuardViolation(target, set_id, 0, site, /*is_cfi=*/true));
}

bool PolicyEngine::Contain(const char* panic_reason,
                           const GuardViolation& violation) {
  const ViolationAction action = violation_action();
  if (action == ViolationAction::kPanic) {
    kernel_->Panic(panic_reason);  // throws KernelPanic
  }
  if (action == ViolationAction::kQuarantine) throw violation;
  return false;
}

uint64_t PolicyEngine::RegisterCfiSets(
    const std::vector<std::vector<uint64_t>>& sets) {
  std::lock_guard<Spinlock> guard(writer_lock_);
  const uint64_t base = cfi_sets_.size();
  for (const std::vector<uint64_t>& set : sets) {
    std::vector<uint64_t> sorted = set;
    std::sort(sorted.begin(), sorted.end());
    cfi_sets_.push_back(std::move(sorted));
  }
  // Same protocol as the intrinsic mutators: the frame's CFI copy went
  // stale, so the next check republishes and pinned calls deopt once.
  config_generation_.fetch_add(1, std::memory_order_acq_rel);
  cells_.mutation_gen.fetch_add(1, std::memory_order_acq_rel);
  return base;
}

size_t PolicyEngine::CfiSetCount() const {
  std::lock_guard<Spinlock> guard(writer_lock_);
  return cfi_sets_.size();
}

guard::PinSlot* PolicyEngine::PinCpu() {
  guard::PinSlot& pin = pin_slots_.Mine();
  if (pin.depth++ == 0) {
    pin.rcu.emplace(rcu_);
    // Resolve the CPU-slot pointers once per slot: every inline guard then
    // runs without a per-guard CPU-slot lookup, and since a pin slot
    // belongs to one CPU, so do the slots it points at.
    if (pin.stats == nullptr) {
      pin.cells = &cells_;
      pin.source = this;
      pin.stats = &cpu_stats_.Mine();
      pin.sites = &site_shards_.Mine();
      pin.clock_cell = &kernel_->clock().MyCell();
      pin.latency = &latency_hist_->Mine();
      pin.lookup_depth = &lookup_depth_hist_->Mine();
    }
    RefreshPin(pin);
  }
  return &pin;
}

void PolicyEngine::UnpinFrame() {
  guard::PinSlot& pin = pin_slots_.Mine();
  if (pin.depth == 0) return;  // unbalanced close: tolerate, stay slow
  if (--pin.depth == 0) {
    guard::FlushAllows(pin);
    if (pin.elided_batch != 0) {
      elided_counter_->Add(pin.elided_batch);
      pin.elided_batch = 0;
    }
    pin.frame = nullptr;
    pin.rcu.reset();
  }
}

void PolicyEngine::RefreshPin(guard::PinSlot& pin) {
  // Batched latencies belong to the outgoing guard_cycles, so nothing
  // may stay batched across the refresh (a stale pin's deopt has already
  // flushed; this keeps the rule where guard_cycles changes).
  guard::FlushAllows(pin);
  // Snapshot the mutation clock BEFORE resolving the frame: a mutation
  // that lands between the two reads leaves the snapshot behind the live
  // clock, so the next inline guard deopts and refreshes — a spurious
  // deopt, never a stale allow. (Table mutators bump their own
  // generation before ticking our clock, so a caught-up snapshot implies
  // CurrentFrame below sees the new table generation too.)
  pin.mutation_gen = cells_.mutation_gen.load(std::memory_order_acquire);
  // After the clock: ResetStats bumps the epoch before it ticks the
  // clock, so a pin that caught up with the clock has the epoch too.
  pin.reset_epoch = cells_.reset_epoch.load(std::memory_order_acquire);
  // Caller holds the slot's read section, so CurrentFrame's result stays
  // valid for the remainder of the pin even if another CPU republishes.
  const PolicyFrame* frame = CurrentFrame();
  pin.frame = frame;
  // A window found in a frame of the same store generation holds for
  // this one (same regions); any other is emptied and retagged.
  if (pin.window.generation != frame->store_generation) {
    pin.window = guard::VerdictWindow{};
    pin.window.generation = frame->store_generation;
  }
  pin.guard_cycles = kernel_->machine().GuardCycles(
      static_cast<uint32_t>(frame->regions.size));
  // Mode is config: SetMode bumps the mutation clock, so this snapshot
  // can only go stale together with a clock mismatch.
  pin.default_allow = mode() == PolicyMode::kDefaultAllow;
}

bool PolicyEngine::IntrinsicGuard(uint64_t intrinsic_id) {
  const uint64_t site = trace::CurrentGuardSite();
  bool allowed;
  {
    smp::RcuDomain::ReadGuard rcu(rcu_);
    const PolicyFrame* frame = CurrentFrame();
    guard::CpuStats& my = cpu_stats_.Mine();
    my.intrinsic_calls.fetch_add(1, std::memory_order_relaxed);
    if (std::binary_search(frame->intrinsic_denied.begin(),
                           frame->intrinsic_denied.end(), intrinsic_id)) {
      allowed = false;
    } else if (std::binary_search(frame->intrinsic_allowed.begin(),
                                  frame->intrinsic_allowed.end(),
                                  intrinsic_id)) {
      allowed = true;
    } else {
      allowed = frame->intrinsic_default_allow;
    }
    guard::NoteSiteIn(site_shards_.Mine(), site, allowed, 0);
    if (!allowed) {
      my.intrinsic_denied.fetch_add(1, std::memory_order_relaxed);
      RecordViolation(ViolationRecord{intrinsic_id, 0, 0,
                                      stats().intrinsic_calls, true, site,
                                      false});
    }
  }
  KOP_TRACE(kIntrinsicCheck, intrinsic_id, allowed ? 1 : 0, 0, site);
  if (allowed) return true;
  denied_counter_->Add();
  kernel_->log().Printk(
      kernel::KernLevel::kAlert,
      "CARAT KOP: forbidden privileged intrinsic %llu blocked by policy",
      static_cast<unsigned long long>(intrinsic_id));
  if (violation_action() == ViolationAction::kPanic) {
    kernel_->Panic("CARAT KOP privileged-intrinsic violation");
  }
  return false;
}

void PolicyEngine::AllowIntrinsic(uint64_t intrinsic_id) {
  std::lock_guard<Spinlock> guard(writer_lock_);
  intrinsic_denied_.erase(intrinsic_id);
  intrinsic_allowed_.insert(intrinsic_id);
  config_generation_.fetch_add(1, std::memory_order_acq_rel);
  cells_.mutation_gen.fetch_add(1, std::memory_order_acq_rel);
}

void PolicyEngine::DenyIntrinsic(uint64_t intrinsic_id) {
  std::lock_guard<Spinlock> guard(writer_lock_);
  intrinsic_allowed_.erase(intrinsic_id);
  intrinsic_denied_.insert(intrinsic_id);
  config_generation_.fetch_add(1, std::memory_order_acq_rel);
  cells_.mutation_gen.fetch_add(1, std::memory_order_acq_rel);
}

void PolicyEngine::SetIntrinsicDefaultAllow(bool allow) {
  std::lock_guard<Spinlock> guard(writer_lock_);
  intrinsic_default_allow_ = allow;
  config_generation_.fetch_add(1, std::memory_order_acq_rel);
  cells_.mutation_gen.fetch_add(1, std::memory_order_acq_rel);
}

GuardStats PolicyEngine::stats() const {
  GuardStats out;
  cpu_stats_.ForEach([&out](uint32_t, const guard::CpuStats& slot) {
    AddCounters(slot, &out);
  });
  return out;
}

GuardStats PolicyEngine::PerCpuStats(uint32_t cpu) const {
  GuardStats out;
  AddCounters(cpu_stats_.Get(cpu), &out);
  return out;
}

void PolicyEngine::ResetStats() {
  // Every pin now predates the reset: its pending batch is dropped from
  // the stats at its next flush (FlushAllows). The epoch moves before the
  // zeroing: a flush that starts after this point drops its batch rather
  // than land it after the zeroing.
  cells_.reset_epoch.fetch_add(1, std::memory_order_acq_rel);
  cpu_stats_.ForEach([](uint32_t, guard::CpuStats& slot) {
    slot.guard_calls.store(0, std::memory_order_relaxed);
    slot.allowed.store(0, std::memory_order_relaxed);
    slot.denied.store(0, std::memory_order_relaxed);
    slot.intrinsic_calls.store(0, std::memory_order_relaxed);
    slot.intrinsic_denied.store(0, std::memory_order_relaxed);
    slot.elided.store(0, std::memory_order_relaxed);
    slot.cfi_checks.store(0, std::memory_order_relaxed);
    slot.cfi_denied.store(0, std::memory_order_relaxed);
  });
  {
    std::lock_guard<Spinlock> guard(violations_lock_);
    violations_.clear();
  }
  site_shards_.ForEach([](uint32_t, guard::SiteShard& shard) {
    // Zero in place rather than freeing: another CPU's inline path may
    // hold the table pointer lock-free, so the allocation must survive.
    std::lock_guard<Spinlock> lock(shard.lock);
    guard::SiteTable* table = shard.table.load(std::memory_order_relaxed);
    if (table == nullptr) return;
    for (size_t i = 0; i < table->capacity; ++i) {
      guard::SiteRow& row = table->rows[i];
      row.hits.store(0, std::memory_order_relaxed);
      row.denied.store(0, std::memory_order_relaxed);
      row.elided.store(0, std::memory_order_relaxed);
    }
  });
  // Tick the clock last, so every pinned CPU deopts at its next guard,
  // drops its batch and refreshes into the new epoch. The calling CPU
  // refreshes now instead: its own next guard stays inline.
  cells_.mutation_gen.fetch_add(1, std::memory_order_acq_rel);
  guard::PinSlot& mine = pin_slots_.Mine();
  if (mine.depth != 0) RefreshPin(mine);
}

std::vector<ViolationRecord> PolicyEngine::RecentViolations() const {
  std::lock_guard<Spinlock> guard(violations_lock_);
  return violations_.snapshot();
}

std::vector<Region> PolicyEngine::FrameSnapshot() const {
  smp::RcuDomain::ReadGuard rcu(rcu_);
  return InTableOrder(CurrentFrame()->regions);
}

std::vector<HotSite> PolicyEngine::HotSites() const {
  // Fold the per-CPU shards: same token on different CPUs merges.
  std::vector<HotSite> merged;
  site_shards_.ForEach([&merged](uint32_t, guard::SiteShard& shard) {
    std::lock_guard<Spinlock> lock(shard.lock);
    const guard::SiteTable* table =
        shard.table.load(std::memory_order_acquire);
    if (table == nullptr) return;
    for (size_t i = 0; i < table->capacity; ++i) {
      const guard::SiteRow& row = table->rows[i];
      const uint64_t hits = row.hits.load(std::memory_order_relaxed);
      if (hits == 0) continue;
      if (i >= merged.size()) merged.resize(i + 1);
      HotSite& out = merged[i];
      out.site = i;
      out.hits += hits;
      out.denied += row.denied.load(std::memory_order_relaxed);
      out.elided += row.elided.load(std::memory_order_relaxed);
    }
  });
  std::vector<HotSite> out;
  out.reserve(merged.size());
  for (const HotSite& row : merged) {
    if (row.hits != 0) out.push_back(row);
  }
  std::sort(out.begin(), out.end(), [](const HotSite& a, const HotSite& b) {
    return a.hits != b.hits ? a.hits > b.hits : a.site < b.site;
  });
  return out;
}

}  // namespace kop::policy
