#include "kop/smp/cpu.hpp"

namespace kop::smp {
using detail::t_current_cpu;

ScopedCpu::ScopedCpu(uint32_t cpu) : prev_(t_current_cpu) {
  t_current_cpu = cpu < kMaxCpus ? cpu : kMaxCpus - 1;
}

ScopedCpu::~ScopedCpu() { t_current_cpu = prev_; }

}  // namespace kop::smp
