// Queue↔CPU affinity for the multi-queue datapath. Real drivers pin one
// TX/RX queue pair per core so the per-CPU guard machinery (clock slots,
// policy-stat shards, trace rings) is the only state a queue's datapath
// touches — that is what turns kop::smp's per-CPU guard scaling into
// end-to-end packets/sec. The mapping is the standard round-robin: with
// fewer queues than CPUs, CPUs share queues.
#pragma once

#include <cstdint>

namespace kop::smp {

/// The TX/RX queue CPU `cpu` owns when `num_queues` queues are spread
/// over `num_cpus` CPUs (netif_set_xps_queue's default spreading).
constexpr uint32_t QueueForCpu(uint32_t cpu, uint32_t num_queues) {
  return num_queues == 0 ? 0 : cpu % num_queues;
}

}  // namespace kop::smp
