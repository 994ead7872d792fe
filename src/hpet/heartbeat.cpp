#include "kop/hpet/heartbeat.hpp"

namespace kop::hpet {

template <typename Ops>
Result<HeartbeatModule<Ops>> HeartbeatModule<Ops>::Probe(
    Ops ops, uint64_t mmio_base, uint64_t period_ticks) {
  if (period_ticks == 0) return InvalidArgument("zero heartbeat period");
  kernel::Kernel* kernel = ops.kernel();
  KOP_ASSIGN_OR_RETURN(uint64_t state,
                       kernel->heap().Kmalloc(hb::kSize, 64));
  HeartbeatModule module(ops, state);
  Ops& o = module.ops_;

  KOP_RETURN_IF_ERROR(o.Store(state + hb::kTimerBase, mmio_base, 8));
  KOP_RETURN_IF_ERROR(o.Store(state + hb::kPeriod, period_ticks, 8));
  KOP_RETURN_IF_ERROR(o.Store(state + hb::kBeats, 0, 8));
  KOP_RETURN_IF_ERROR(o.Store(state + hb::kLastCounter, 0, 8));
  KOP_RETURN_IF_ERROR(o.Store(state + hb::kOverruns, 0, 8));
  KOP_RETURN_IF_ERROR(
      o.Store(state + hb::kNextDeadline, period_ticks, 8));

  // Program the timer: zero the counter, arm timer 0 periodic with
  // interrupts, then enable the main counter. All guarded MMIO on the
  // carat build.
  KOP_RETURN_IF_ERROR(o.MmioWrite(mmio_base + REG_CONFIG, 0, 4));
  KOP_RETURN_IF_ERROR(o.MmioWrite(mmio_base + REG_COUNTER, 0, 8));
  KOP_RETURN_IF_ERROR(
      o.MmioWrite(mmio_base + REG_T0_CONFIG, T0_INT_ENB | T0_PERIODIC, 4));
  KOP_RETURN_IF_ERROR(o.MmioWrite(mmio_base + REG_T0_CMP, period_ticks, 8));
  KOP_RETURN_IF_ERROR(o.MmioWrite(mmio_base + REG_CONFIG, CONFIG_ENABLE, 4));
  return module;
}

template <typename Ops>
Status HeartbeatModule<Ops>::Remove() {
  KOP_ASSIGN_OR_RETURN(uint64_t mmio_base,
                       ops_.Load(state_ + hb::kTimerBase, 8));
  KOP_RETURN_IF_ERROR(ops_.MmioWrite(mmio_base + REG_CONFIG, 0, 4));
  KOP_RETURN_IF_ERROR(ops_.MmioWrite(mmio_base + REG_T0_CONFIG, 0, 4));
  KOP_RETURN_IF_ERROR(ops_.kernel()->heap().Kfree(state_));
  state_ = 0;
  return OkStatus();
}

template <typename Ops>
Status HeartbeatModule<Ops>::Isr() {
  // The heartbeat fast path: ack the interrupt, read the time, account
  // the beat, detect overruns (we were late by more than a period).
  modrt::EntryPin<Ops> pin(ops_);
  KOP_ASSIGN_OR_RETURN(uint64_t mmio_base,
                       ops_.Load(state_ + hb::kTimerBase, 8));
  KOP_RETURN_IF_ERROR(ops_.MmioWrite(mmio_base + REG_ISR, ISR_T0, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t now, ops_.MmioRead(mmio_base + REG_COUNTER, 8));

  KOP_ASSIGN_OR_RETURN(uint64_t period, ops_.Load(state_ + hb::kPeriod, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t deadline,
                       ops_.Load(state_ + hb::kNextDeadline, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t beats, ops_.Load(state_ + hb::kBeats, 8));

  if (now > deadline + period) {
    KOP_ASSIGN_OR_RETURN(uint64_t overruns,
                         ops_.Load(state_ + hb::kOverruns, 8));
    KOP_RETURN_IF_ERROR(
        ops_.Store(state_ + hb::kOverruns, overruns + 1, 8));
  }
  KOP_RETURN_IF_ERROR(ops_.Store(state_ + hb::kBeats, beats + 1, 8));
  KOP_RETURN_IF_ERROR(ops_.Store(state_ + hb::kLastCounter, now, 8));
  KOP_RETURN_IF_ERROR(
      ops_.Store(state_ + hb::kNextDeadline, deadline + period, 8));
  return OkStatus();
}

template <typename Ops>
Result<HeartbeatCounters> HeartbeatModule<Ops>::Counters() {
  HeartbeatCounters out;
  KOP_ASSIGN_OR_RETURN(out.beats, ops_.Load(state_ + hb::kBeats, 8));
  KOP_ASSIGN_OR_RETURN(out.overruns, ops_.Load(state_ + hb::kOverruns, 8));
  KOP_ASSIGN_OR_RETURN(out.last_counter,
                       ops_.Load(state_ + hb::kLastCounter, 8));
  return out;
}

template class HeartbeatModule<modrt::RawMemOps>;
template class HeartbeatModule<modrt::GuardedMemOps>;

}  // namespace kop::hpet
