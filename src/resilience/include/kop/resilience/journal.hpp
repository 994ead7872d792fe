// kop::resilience — transactional module entry. Every call the loader
// makes into a guarded module runs inside a WriteJournal transaction:
// each store to RAM-backed simulated memory records the previous bytes
// first, so when the call is contained (guard violation, watchdog
// expiry, in-module panic) the journal is replayed newest-first and
// kernel memory is byte-identical to what it was at call entry. MMIO
// stores are NOT journaled — device state cannot be rolled back — which
// mirrors the real constraint that a transactional kernel boundary stops
// at the device.
//
// The journal is filled and replayed by the loader's slot memory
// (kernel::SlotMemory), the one memory both execution engines run
// against, so the interpreter and the bytecode VM journal (and roll
// back) identically by construction.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace kop::resilience {

/// Why a rollback ran — the third argument of the module.rollback trace
/// event and the campaign report.
enum class RollbackReason : uint8_t {
  kGuardViolation = 1,
  kTimeout = 2,
  kPanic = 3,
  kFault = 4,
};

std::string_view RollbackReasonName(RollbackReason reason);

/// One undo record: the bytes `addr` held before the journaled store.
struct JournalEntry {
  uint64_t addr = 0;
  uint64_t old_value = 0;
  uint32_t size = 0;  // access width in bytes (1/2/4/8)
};

/// The per-call write journal. Begin() opens a transaction, every
/// journaled store appends an undo record, and the call either Commit()s
/// (drop the records — the writes stand) or Rollback()s (replay them
/// newest-first). Not re-entrant: nested module entries share the
/// outermost transaction, which is exactly the unit the loader contains.
class WriteJournal {
 public:
  void Begin() {
    entries_.clear();
    active_ = true;
  }

  void Commit() {
    entries_.clear();
    active_ = false;
  }

  bool active() const { return active_; }

  /// Bytes of kernel memory the journal can restore.
  uint64_t bytes() const {
    uint64_t total = 0;
    for (const JournalEntry& entry : entries_) total += entry.size;
    return total;
  }

  void RecordStore(uint64_t addr, uint64_t old_value, uint32_t size) {
    if (!active_) return;
    entries_.push_back({addr, old_value, size});
    ++total_entries_recorded_;
  }

  /// Undo every recorded store, newest first, by calling
  /// `undo(addr, old_value, size)`, then close the transaction. Returns
  /// the number of entries undone.
  template <typename Undo>
  size_t Rollback(Undo&& undo) {
    const size_t undone = entries_.size();
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      undo(it->addr, it->old_value, it->size);
    }
    entries_.clear();
    active_ = false;
    ++total_rollbacks_;
    total_entries_undone_ += undone;
    return undone;
  }

  /// Lifetime counters (for metrics/bench).
  uint64_t total_rollbacks() const { return total_rollbacks_; }
  uint64_t total_entries_undone() const { return total_entries_undone_; }
  uint64_t total_entries_recorded() const { return total_entries_recorded_; }

 private:
  std::vector<JournalEntry> entries_;
  bool active_ = false;
  uint64_t total_rollbacks_ = 0;
  uint64_t total_entries_undone_ = 0;
  uint64_t total_entries_recorded_ = 0;
};

}  // namespace kop::resilience
