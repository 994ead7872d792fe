// Edge coverage for the bytecode VM — the feedback signal of the
// kop::forge fuzzing campaign. The VM's branch handlers (kBr/kJmp, plus
// one synthetic function-entry edge per frame) hash (function index,
// source pc, destination pc) into a fixed-size map of saturating 8-bit
// hit counters, AFL-style. Collection is opt-in per thread: the hooks
// write through a thread-local sink that is null by default, so code
// that never arms a CoverageMap pays one predictable not-taken branch
// per control-flow edge. ScopedCoverage is the only switch.
//
// Edge identities are stable for a given compiled module (function
// indices and bytecode pcs are deterministic), which is what the forge
// campaign's replay/merge determinism relies on. They are NOT stable
// across toolchain or compiler-pass changes, and the reference
// interpreter has no hooks: coverage is a bytecode-engine signal, and
// forge degrades to undirected mutation on the interpreter.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace kop::kir {

/// Fixed-size edge hitmap. 64 KiB of u8 counters — small enough to sit
/// in one per-trial object, big enough that the module corpus (a few
/// hundred edges) collides negligibly.
class CoverageMap {
 public:
  static constexpr size_t kSlots = 1u << 16;

  CoverageMap() { Reset(); }

  /// Record one control-flow edge. Hot-path shape: mix + index + one
  /// saturating increment, no branches besides the saturation check.
  void HitEdge(uint32_t fn, uint32_t from, uint32_t to) {
    uint64_t key = (static_cast<uint64_t>(fn) << 40) ^
                   (static_cast<uint64_t>(from) << 20) ^ to;
    key *= 0x9e3779b97f4a7c15ULL;
    uint8_t& slot = map_[(key >> 48) & (kSlots - 1)];
    if (slot != 0xff) ++slot;
  }

  void Reset() { map_.fill(0); }

  /// Number of distinct covered slots.
  size_t CoveredSlots() const;

  /// Indices of covered slots, ascending (the distillation set-cover
  /// input).
  std::vector<uint32_t> Slots() const;

  /// Slots covered by `other` that this map has never seen. The forge
  /// merge loop calls this serially in trial-index order, so "new" is
  /// well-defined regardless of how trials were scheduled.
  size_t MergeCountingNew(const CoverageMap& other);

  /// Order-independent digest of the covered-slot set (not the counts):
  /// the report's cheap cross-run comparison handle.
  uint64_t Digest() const;

 private:
  std::array<uint8_t, kSlots> map_;
};

/// The calling thread's active coverage sink (null when collection is
/// not armed — the default on every thread).
CoverageMap* ThreadCoverage();

/// RAII: arm `map` as this thread's coverage sink. Nests; the previous
/// sink is restored on destruction. Passing null collects nothing.
class ScopedCoverage {
 public:
  explicit ScopedCoverage(CoverageMap* map);
  ~ScopedCoverage();
  ScopedCoverage(const ScopedCoverage&) = delete;
  ScopedCoverage& operator=(const ScopedCoverage&) = delete;

 private:
  CoverageMap* prev_;
};

}  // namespace kop::kir
