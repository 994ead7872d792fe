// kop::smp — the simulated multi-CPU substrate. A "CPU" is a host thread
// that has bound itself to a simulated CPU id: every per-CPU structure in
// the tree (virtual-clock slots, trace rings, policy-engine stats,
// module execution contexts) indexes by CurrentCpu(). The single-threaded
// configuration is CPU 0 everywhere, so code that never binds a CPU runs
// exactly as it did before SMP existed — the seam costs nothing unused.
#pragma once

#include <cstdint>

namespace kop::smp {

/// Hard ceiling on simulated CPUs. Per-CPU arrays are statically sized by
/// this so the hot paths index without bounds churn; 16 covers the
/// 1→8-CPU scaling experiments with headroom.
inline constexpr uint32_t kMaxCpus = 16;

namespace detail {
inline thread_local uint32_t t_current_cpu = 0;
}  // namespace detail

/// The simulated CPU this host thread is bound to (0 when never bound —
/// the boot CPU, and the only CPU in single-threaded runs). Inline: every
/// per-CPU slot lookup on the guard and tracing paths reads it.
inline uint32_t CurrentCpu() { return detail::t_current_cpu; }

/// RAII CPU binding. The SMP executor binds each worker thread for the
/// duration of its workload; tests can bind ad hoc. Bindings nest (the
/// previous id is restored), though nesting is rare outside tests.
class ScopedCpu {
 public:
  explicit ScopedCpu(uint32_t cpu);
  ~ScopedCpu();
  ScopedCpu(const ScopedCpu&) = delete;
  ScopedCpu& operator=(const ScopedCpu&) = delete;

 private:
  uint32_t prev_;
};

}  // namespace kop::smp
