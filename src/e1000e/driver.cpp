#include "kop/e1000e/driver.hpp"

#include <algorithm>

#include "kop/trace/span.hpp"
#include "kop/trace/trace.hpp"
#include "kop/util/bits.hpp"

namespace kop::e1000e {

using nic::kTxDescBytes;

namespace {

/// One queue's simulated allocations while it is set up: freed when this
/// goes out of scope (a failed step, an unwind) unless Keep() hands them
/// over to the queue's adapter block.
class QueueAllocations {
 public:
  explicit QueueAllocations(kernel::Kernel* kernel) : kernel_(kernel) {}
  ~QueueAllocations() {
    for (uint32_t i = 0; i < count_; ++i) {
      (void)kernel_->heap().Kfree(blocks_[i]);
    }
  }
  QueueAllocations(const QueueAllocations&) = delete;
  QueueAllocations& operator=(const QueueAllocations&) = delete;

  Result<uint64_t> Kmalloc(uint64_t size, uint64_t alignment) {
    KOP_ASSIGN_OR_RETURN(blocks_[count_],
                         kernel_->heap().Kmalloc(size, alignment));
    return blocks_[count_++];
  }
  void Keep() { count_ = 0; }

 private:
  kernel::Kernel* kernel_;
  uint64_t blocks_[6] = {};
  uint32_t count_ = 0;
};

}  // namespace

template <typename Ops>
Result<Driver<Ops>> Driver<Ops>::Probe(Ops ops, uint64_t mmio_base,
                                       uint32_t ring_entries) {
  if (ring_entries < 8 || !IsPowerOfTwo(ring_entries)) {
    return InvalidArgument("ring_entries must be a power of two >= 8");
  }
  Driver driver(ops, ring_entries);
  return driver.Probed(driver.BringUp(mmio_base));
}

template <typename Ops>
Result<Driver<Ops>> Driver<Ops>::ProbeMq(Ops ops, uint64_t mmio_base,
                                         uint32_t ring_entries,
                                         uint32_t num_queues,
                                         uint32_t itr_cycles) {
  if (num_queues == 0 || num_queues > nic::kMaxQueues) {
    return InvalidArgument("num_queues must be 1..8");
  }
  KOP_ASSIGN_OR_RETURN(Driver driver, Probe(ops, mmio_base, ring_entries));
  return driver.Probed(driver.BringUpMq(mmio_base, num_queues, itr_cycles));
}

template <typename Ops>
Result<Driver<Ops>> Driver<Ops>::Probed(Status status) {
  if (!status.ok()) {
    (void)FreeQueues();
    return status;
  }
  return *this;
}

template <typename Ops>
Result<typename Driver<Ops>::QueueRings> Driver<Ops>::SetUpQueue(
    uint64_t mmio_base) {
  kernel::Kernel* kernel = ops_.kernel();
  const uint32_t q = num_queues_;
  const uint64_t n = ring_entries_;

  // Allocate adapter state, descriptor ring (16-byte aligned, length a
  // multiple of 128 as the hardware requires), buffer_info array and the
  // short-frame bounce buffer — all in simulated kernel memory.
  QueueAllocations blocks(kernel);
  KOP_ASSIGN_OR_RETURN(const uint64_t qadapter,
                       blocks.Kmalloc(adapter::kSize, 64));
  KOP_ASSIGN_OR_RETURN(const uint64_t ring,
                       blocks.Kmalloc(n * kTxDescBytes, 128));
  KOP_ASSIGN_OR_RETURN(const uint64_t bufinfo_base,
                       blocks.Kmalloc(n * bufinfo::kStride, 64));
  KOP_ASSIGN_OR_RETURN(const uint64_t bounce,
                       blocks.Kmalloc(kBounceBytes, 64));
  KOP_ASSIGN_OR_RETURN(const uint64_t rx_ring,
                       blocks.Kmalloc(n * nic::kRxDescBytes, 128));
  KOP_ASSIGN_OR_RETURN(const uint64_t rx_buffers,
                       blocks.Kmalloc(n * kRxBufferBytes, 64));

  // Zero the rings (unguarded init-time memset in the real driver happens
  // via dma_alloc_coherent which returns zeroed memory).
  KOP_RETURN_IF_ERROR(kernel->mem().Memset(ring, 0, n * kTxDescBytes));
  KOP_RETURN_IF_ERROR(
      kernel->mem().Memset(bufinfo_base, 0, n * bufinfo::kStride));
  KOP_RETURN_IF_ERROR(kernel->mem().Memset(rx_ring, 0, n * nic::kRxDescBytes));

  // Populate adapter fields (guarded stores on the carat build — module
  // init is transformed like everything else).
  Ops& o = ops_;
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kMmioBase, mmio_base, 8));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kTxRingBase, ring, 8));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kTxRingCount, n, 4));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kNextToUse, 0, 4));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kNextToClean, 0, 4));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kFlags, q, 4));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kTxPackets, 0, 8));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kTxBytes, 0, 8));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kTxBusy, 0, 8));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kTxCleaned, 0, 8));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kBounceBuf, bounce, 8));
  KOP_RETURN_IF_ERROR(
      o.Store(qadapter + adapter::kBufferInfo, bufinfo_base, 8));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kWatchdogStamp, 0, 8));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kRxRingBase, rx_ring, 8));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kRxRingCount, n, 4));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kRxNextToClean, 0, 4));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kRxBuffers, rx_buffers, 8));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kRxPackets, 0, 8));
  KOP_RETURN_IF_ERROR(o.Store(qadapter + adapter::kRxBytes, 0, 8));

  // Arm every RX descriptor with its buffer (guarded stores).
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t desc = rx_ring + i * nic::kRxDescBytes;
    KOP_RETURN_IF_ERROR(o.Store(desc + 0, rx_buffers + i * kRxBufferBytes, 8));
    KOP_RETURN_IF_ERROR(o.Store(desc + 12, 0, 1));  // status = 0
  }

  blocks.Keep();
  queue_adapter_[q] = qadapter;
  ++num_queues_;
  return QueueRings{ring, rx_ring};
}

template <typename Ops>
Status Driver<Ops>::BringUp(uint64_t mmio_base) {
  KOP_ASSIGN_OR_RETURN(const QueueRings rings, SetUpQueue(mmio_base));
  const uint64_t ring = rings.tx;
  const uint64_t rx_ring = rings.rx;

  // Device bring-up: reset, link up, program the ring, enable transmit.
  using namespace nic;
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_CTRL, CTRL_RST));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_CTRL, CTRL_SLU));
  KOP_ASSIGN_OR_RETURN(uint32_t status, Er32(mmio_base, REG_STATUS));
  if ((status & STATUS_LU) == 0) {
    return Internal("e1000e: link did not come up after CTRL.SLU");
  }
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_TDBAL, static_cast<uint32_t>(ring)));
  KOP_RETURN_IF_ERROR(
      Ew32(mmio_base, REG_TDBAH, static_cast<uint32_t>(ring >> 32)));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_TDLEN, ring_entries_ * kTxDescBytes));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_TDH, 0));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_TDT, 0));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_TIPG, 0x00602006));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_TCTL, TCTL_EN | TCTL_PSP));

  // Read the factory MAC from the NVM word by word through EERD and
  // program the receive-address registers (e1000_read_mac_addr).
  uint32_t mac_words[3] = {0, 0, 0};
  for (uint32_t word = 0; word < 3; ++word) {
    KOP_RETURN_IF_ERROR(
        Ew32(mmio_base, REG_EERD, EERD_START | (word << EERD_ADDR_SHIFT)));
    KOP_ASSIGN_OR_RETURN(uint32_t eerd, Er32(mmio_base, REG_EERD));
    if ((eerd & EERD_DONE) == 0) {
      return Internal("e1000e: EEPROM read did not complete");
    }
    mac_words[word] = eerd >> EERD_DATA_SHIFT;
  }
  KOP_RETURN_IF_ERROR(
      Ew32(mmio_base, REG_RAL0, mac_words[0] | (mac_words[1] << 16)));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_RAH0, mac_words[2]));

  // Receive side: program the RX ring, leave the classic one-slot gap
  // (RDT = count-1 hands descriptors 0..count-2 to hardware).
  KOP_RETURN_IF_ERROR(
      Ew32(mmio_base, REG_RDBAL, static_cast<uint32_t>(rx_ring)));
  KOP_RETURN_IF_ERROR(
      Ew32(mmio_base, REG_RDBAH, static_cast<uint32_t>(rx_ring >> 32)));
  KOP_RETURN_IF_ERROR(
      Ew32(mmio_base, REG_RDLEN, ring_entries_ * nic::kRxDescBytes));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_RDH, 0));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_RDT, ring_entries_ - 1));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_RCTL, RCTL_EN | RCTL_BAM));

  return Ew32(mmio_base, REG_IMS, ICR_TXDW | ICR_LSC | ICR_RXT0 | ICR_RXO);
}

template <typename Ops>
Status Driver<Ops>::BringUpMq(uint64_t mmio_base, uint32_t num_queues,
                              uint32_t itr_cycles) {
  using namespace nic;
  while (num_queues_ < num_queues) {
    const uint32_t q = num_queues_;
    KOP_ASSIGN_OR_RETURN(const QueueRings rings, SetUpQueue(mmio_base));
    // Program the queue's TX/RX register blocks at the 0x100 stride.
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, QReg(REG_TDBAL, q),
                             static_cast<uint32_t>(rings.tx)));
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, QReg(REG_TDBAH, q),
                             static_cast<uint32_t>(rings.tx >> 32)));
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, QReg(REG_TDLEN, q),
                             ring_entries_ * kTxDescBytes));
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, QReg(REG_TDH, q), 0));
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, QReg(REG_TDT, q), 0));
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, QReg(REG_RDBAL, q),
                             static_cast<uint32_t>(rings.rx)));
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, QReg(REG_RDBAH, q),
                             static_cast<uint32_t>(rings.rx >> 32)));
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, QReg(REG_RDLEN, q),
                             ring_entries_ * nic::kRxDescBytes));
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, QReg(REG_RDH, q), 0));
    KOP_RETURN_IF_ERROR(
        Ew32(mmio_base, QReg(REG_RDT, q), ring_entries_ - 1));
  }

  // MSI-X routing: TX queue q fires vector q, RX queue q fires vector
  // q+8. EITR programs the per-vector mitigation window; EIMS unmasks.
  for (uint32_t q = 0; q < num_queues; ++q) {
    const uint32_t tx_vec = IVAR_VALID | q;
    const uint32_t rx_vec = IVAR_VALID | (q + 8);
    KOP_RETURN_IF_ERROR(
        Ew32(mmio_base, IVAR(q), (tx_vec << IVAR_TX_SHIFT) | rx_vec));
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, EITR(q), itr_cycles));
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, EITR(q + 8), itr_cycles));
    KOP_RETURN_IF_ERROR(
        Ew32(mmio_base, REG_EIMS, (1u << q) | (1u << (q + 8))));
  }
  if (num_queues > 1) {
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, REG_MRQC,
                             MRQC_ENABLE | (num_queues << MRQC_QUEUES_SHIFT)));
  }
  return OkStatus();
}

template <typename Ops>
Status Driver<Ops>::Remove() {
  KOP_ASSIGN_OR_RETURN(uint64_t mmio_base,
                       ops_.Load(queue_adapter_[0] + adapter::kMmioBase, 8));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, nic::REG_TCTL, 0));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, nic::REG_RCTL, 0));
  return FreeQueues();
}

template <typename Ops>
Status Driver<Ops>::FreeQueues() {
  kernel::Kernel* kernel = ops_.kernel();
  // Each adapter block records its own queue's allocations.
  static constexpr uint64_t kBlocks[] = {
      adapter::kTxRingBase, adapter::kBounceBuf, adapter::kBufferInfo,
      adapter::kRxRingBase, adapter::kRxBuffers};
  for (; num_queues_ > 0; --num_queues_) {
    uint64_t& qadapter = queue_adapter_[num_queues_ - 1];
    for (const uint64_t field : kBlocks) {
      KOP_ASSIGN_OR_RETURN(uint64_t block, ops_.Load(qadapter + field, 8));
      KOP_RETURN_IF_ERROR(kernel->heap().Kfree(block));
    }
    KOP_RETURN_IF_ERROR(kernel->heap().Kfree(qadapter));
    qadapter = 0;
  }
  return OkStatus();
}

template <typename Ops>
Result<uint32_t> Driver<Ops>::CleanTxRing(uint32_t queue) {
  if (queue >= num_queues_) return InvalidArgument("no such queue");
  EntryPin<Ops> pin(ops_);
  const uint64_t qadapter = queue_adapter_[queue];
  // e1000_clean_tx_irq: walk from next_to_clean, reclaim DD descriptors.
  KOP_ASSIGN_OR_RETURN(uint64_t ring,
                       ops_.Load(qadapter + adapter::kTxRingBase, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t count64,
                       ops_.Load(qadapter + adapter::kTxRingCount, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t ntc64,
                       ops_.Load(qadapter + adapter::kNextToClean, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t ntu64,
                       ops_.Load(qadapter + adapter::kNextToUse, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t bufinfo_base,
                       ops_.Load(qadapter + adapter::kBufferInfo, 8));
  const uint32_t count = static_cast<uint32_t>(count64);
  uint32_t ntc = static_cast<uint32_t>(ntc64);
  const uint32_t ntu = static_cast<uint32_t>(ntu64);

  uint32_t cleaned = 0;
  while (ntc != ntu) {
    const uint64_t desc = ring + uint64_t{ntc} * kTxDescBytes;
    KOP_ASSIGN_OR_RETURN(uint64_t status_byte, ops_.Load(desc + 12, 1));
    if ((status_byte & nic::TXD_STAT_DD) == 0) break;  // not done yet
    KOP_RETURN_IF_ERROR(ops_.Store(desc + 12, 0, 1));  // clear status
    const uint64_t info = bufinfo_base + uint64_t{ntc} * bufinfo::kStride;
    KOP_RETURN_IF_ERROR(ops_.Store(info + bufinfo::kInUse, 0, 4));
    ntc = (ntc + 1) & (count - 1);
    ++cleaned;
  }

  if (cleaned > 0) {
    KOP_RETURN_IF_ERROR(ops_.Store(qadapter + adapter::kNextToClean, ntc, 4));
    KOP_ASSIGN_OR_RETURN(uint64_t total,
                         ops_.Load(qadapter + adapter::kTxCleaned, 8));
    KOP_RETURN_IF_ERROR(
        ops_.Store(qadapter + adapter::kTxCleaned, total + cleaned, 8));
  }
  return cleaned;
}

// Every queue runs the legacy body: queue 0's guarded access sequence is
// the pre-multi-queue one (pinned at 17 per packet).
template <typename Ops>
Status Driver<Ops>::XmitFrame(uint64_t frame_addr, uint32_t len,
                              uint32_t queue) {
  if (queue >= num_queues_) return InvalidArgument("no such queue");
  EntryPin<Ops> pin(ops_);
  if (len == 0 || len > kEthFrameLen) {
    return InvalidArgument("frame length out of range");
  }
  const uint64_t qadapter = queue_adapter_[queue];

  // Load the hot adapter fields (e1000_xmit_frame prologue).
  KOP_ASSIGN_OR_RETURN(uint64_t mmio_base,
                       ops_.Load(qadapter + adapter::kMmioBase, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t ring,
                       ops_.Load(qadapter + adapter::kTxRingBase, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t count64,
                       ops_.Load(qadapter + adapter::kTxRingCount, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t ntu64,
                       ops_.Load(qadapter + adapter::kNextToUse, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t ntc64,
                       ops_.Load(qadapter + adapter::kNextToClean, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t bufinfo_base,
                       ops_.Load(qadapter + adapter::kBufferInfo, 8));
  const uint32_t count = static_cast<uint32_t>(count64);
  uint32_t ntu = static_cast<uint32_t>(ntu64);
  uint32_t ntc = static_cast<uint32_t>(ntc64);

  // Ring-full check; try to reclaim once before reporting BUSY.
  if (((ntu + 1) & (count - 1)) == ntc) {
    KOP_ASSIGN_OR_RETURN(uint32_t reclaimed, CleanTxRing(queue));
    if (reclaimed == 0) {
      KOP_ASSIGN_OR_RETURN(uint64_t busy,
                           ops_.Load(qadapter + adapter::kTxBusy, 8));
      KOP_RETURN_IF_ERROR(
          ops_.Store(qadapter + adapter::kTxBusy, busy + 1, 8));
      return Busy("TX ring full");
    }
    KOP_ASSIGN_OR_RETURN(uint64_t ntc_reload,
                         ops_.Load(qadapter + adapter::kNextToClean, 4));
    ntc = static_cast<uint32_t>(ntc_reload);
  }

  // Small frames take the copybreak/bounce path: the driver copies the
  // payload into a pre-mapped bounce buffer (padding to the hardware
  // minimum as it goes). These are per-byte *driver* stores — the only
  // per-byte CPU work in the transmit path, and the reason Figure 6's
  // slowdown concentrates on small packets (guards on this rarely-trained
  // path enjoy none of the prediction that makes hot-path guards free).
  uint64_t dma_addr = frame_addr;
  uint32_t dma_len = len;
  if (len < kTxCopybreak) {
    KOP_ASSIGN_OR_RETURN(uint64_t bounce,
                         ops_.Load(qadapter + adapter::kBounceBuf, 8));
    for (uint32_t i = 0; i < len; ++i) {
      KOP_ASSIGN_OR_RETURN(uint64_t byte,
                           ops_.LoadSlowPath(frame_addr + i, 1));
      KOP_RETURN_IF_ERROR(ops_.StoreSlowPath(bounce + i, byte, 1));
    }
    for (uint32_t i = len; i < kEthZlen; ++i) {
      KOP_RETURN_IF_ERROR(ops_.StoreSlowPath(bounce + i, 0, 1));
    }
    dma_addr = bounce;
    dma_len = std::max(len, kEthZlen);
  }

  // Fill the legacy descriptor: one 8-byte store for the buffer address,
  // one composed 8-byte store for length/cso/cmd/status/css/special.
  const uint64_t desc = ring + uint64_t{ntu} * kTxDescBytes;
  KOP_RETURN_IF_ERROR(ops_.Store(desc + 0, dma_addr, 8));
  const uint64_t word2 =
      uint64_t{dma_len} |
      (uint64_t{nic::TXD_CMD_EOP | nic::TXD_CMD_IFCS | nic::TXD_CMD_RS}
       << 24);
  KOP_RETURN_IF_ERROR(ops_.Store(desc + 8, word2, 8));

  // Buffer bookkeeping (buffer_info[ntu]).
  const uint64_t info = bufinfo_base + uint64_t{ntu} * bufinfo::kStride;
  KOP_RETURN_IF_ERROR(ops_.Store(info + bufinfo::kSkbAddr, frame_addr, 8));
  KOP_RETURN_IF_ERROR(ops_.Store(info + bufinfo::kLength, dma_len, 4));
  KOP_RETURN_IF_ERROR(ops_.Store(info + bufinfo::kInUse, 1, 4));

  // Advance next_to_use and update netdev stats.
  ntu = (ntu + 1) & (count - 1);
  KOP_RETURN_IF_ERROR(ops_.Store(qadapter + adapter::kNextToUse, ntu, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t packets,
                       ops_.Load(qadapter + adapter::kTxPackets, 8));
  KOP_RETURN_IF_ERROR(
      ops_.Store(qadapter + adapter::kTxPackets, packets + 1, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t bytes,
                       ops_.Load(qadapter + adapter::kTxBytes, 8));
  KOP_RETURN_IF_ERROR(
      ops_.Store(qadapter + adapter::kTxBytes, bytes + dma_len, 8));

  // Kick the hardware: posted MMIO write to the tail register.
  KOP_TRACE(kXmitFrame, dma_len, ntu);
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, nic::QReg(nic::REG_TDT, queue), ntu));
  return OkStatus();
}

template <typename Ops>
Result<bool> Driver<Ops>::ReceiveFrame(std::vector<uint8_t>* out,
                                       uint32_t queue) {
  if (queue >= num_queues_) return InvalidArgument("no such queue");
  EntryPin<Ops> pin(ops_);
  const uint64_t qadapter = queue_adapter_[queue];
  KOP_ASSIGN_OR_RETURN(uint64_t rx_ring,
                       ops_.Load(qadapter + adapter::kRxRingBase, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t count64,
                       ops_.Load(qadapter + adapter::kRxRingCount, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t ntc64,
                       ops_.Load(qadapter + adapter::kRxNextToClean, 4));
  const uint32_t count = static_cast<uint32_t>(count64);
  const uint32_t ntc = static_cast<uint32_t>(ntc64);

  const uint64_t desc = rx_ring + uint64_t{ntc} * nic::kRxDescBytes;
  KOP_ASSIGN_OR_RETURN(uint64_t status_byte, ops_.Load(desc + 12, 1));
  if ((status_byte & nic::RXD_STAT_DD) == 0) return false;  // nothing yet

  KOP_ASSIGN_OR_RETURN(uint64_t length64, ops_.Load(desc + 8, 2));
  KOP_ASSIGN_OR_RETURN(uint64_t buffer, ops_.Load(desc + 0, 8));
  const uint32_t length = static_cast<uint32_t>(length64);

  // Hand the payload to the stack: an unguarded core-kernel copy, but
  // the cycles are charged like any other per-byte copy.
  out->resize(length);
  kernel::Kernel* kernel = ops_.kernel();
  KOP_RETURN_IF_ERROR(kernel->mem().Read(buffer, out->data(), length));
  kernel->clock().Advance(kernel->machine().copy_cycles_per_byte * length);

  // Re-arm the descriptor and return the slot to hardware (RDT = slot
  // just freed, preserving the one-slot gap).
  KOP_RETURN_IF_ERROR(ops_.Store(desc + 12, 0, 1));
  KOP_RETURN_IF_ERROR(
      ops_.Store(qadapter + adapter::kRxNextToClean,
                 (ntc + 1) & (count - 1), 4));
  KOP_ASSIGN_OR_RETURN(uint64_t mmio_base,
                       ops_.Load(qadapter + adapter::kMmioBase, 8));
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, nic::QReg(nic::REG_RDT, queue), ntc));

  // Netdev RX counters.
  KOP_ASSIGN_OR_RETURN(uint64_t packets,
                       ops_.Load(qadapter + adapter::kRxPackets, 8));
  KOP_RETURN_IF_ERROR(
      ops_.Store(qadapter + adapter::kRxPackets, packets + 1, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t bytes,
                       ops_.Load(qadapter + adapter::kRxBytes, 8));
  KOP_RETURN_IF_ERROR(
      ops_.Store(qadapter + adapter::kRxBytes, bytes + length, 8));
  return true;
}

template <typename Ops>
Result<DriverCounters> Driver<Ops>::Counters() {
  return CountersOn(0);
}

template <typename Ops>
Result<DriverCounters> Driver<Ops>::CountersOn(uint32_t queue) {
  EntryPin<Ops> pin(ops_);
  if (queue >= num_queues_) return InvalidArgument("no such queue");
  const uint64_t qadapter = queue_adapter_[queue];
  DriverCounters out;
  KOP_ASSIGN_OR_RETURN(out.tx_packets,
                       ops_.Load(qadapter + adapter::kTxPackets, 8));
  KOP_ASSIGN_OR_RETURN(out.tx_bytes,
                       ops_.Load(qadapter + adapter::kTxBytes, 8));
  KOP_ASSIGN_OR_RETURN(out.tx_busy,
                       ops_.Load(qadapter + adapter::kTxBusy, 8));
  KOP_ASSIGN_OR_RETURN(out.tx_cleaned,
                       ops_.Load(qadapter + adapter::kTxCleaned, 8));
  KOP_ASSIGN_OR_RETURN(out.rx_packets,
                       ops_.Load(qadapter + adapter::kRxPackets, 8));
  KOP_ASSIGN_OR_RETURN(out.rx_bytes,
                       ops_.Load(qadapter + adapter::kRxBytes, 8));
  return out;
}

template <typename Ops>
Result<uint64_t> Driver<Ops>::HwGoodPacketsTransmitted() {
  KOP_ASSIGN_OR_RETURN(uint64_t mmio_base,
                       ops_.Load(queue_adapter_[0] + adapter::kMmioBase, 8));
  KOP_ASSIGN_OR_RETURN(uint32_t gptc, Er32(mmio_base, nic::REG_GPTC));
  return uint64_t{gptc};
}

template <typename Ops>
Status Driver<Ops>::XmitBatch(uint32_t queue, const TxFrame* frames,
                              uint32_t count, uint32_t* queued) {
  EntryPin<Ops> pin(ops_);
  if (queued != nullptr) *queued = 0;
  if (queue >= num_queues_) return InvalidArgument("no such queue");
  if (count == 0) return OkStatus();
  for (uint32_t i = 0; i < count; ++i) {
    // No bounce buffer on the batch path: one shared bounce cannot back
    // several in-flight descriptors, so frames arrive pre-padded.
    if (frames[i].len < kEthZlen || frames[i].len > kEthFrameLen) {
      return InvalidArgument("batch frames must be kEthZlen..kEthFrameLen");
    }
  }
  KOP_SPAN(kXmitBatch, count);
  const uint64_t qadapter = queue_adapter_[queue];
  const uint64_t tdt_reg = nic::QReg(nic::REG_TDT, queue);

  // Hot fields load once for the whole batch — this is the point of
  // doorbell batching: the 17-access per-packet sequence amortizes to
  // the 5 stores that stage each descriptor.
  KOP_ASSIGN_OR_RETURN(uint64_t mmio_base,
                       ops_.Load(qadapter + adapter::kMmioBase, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t ring,
                       ops_.Load(qadapter + adapter::kTxRingBase, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t count64,
                       ops_.Load(qadapter + adapter::kTxRingCount, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t ntu64,
                       ops_.Load(qadapter + adapter::kNextToUse, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t ntc64,
                       ops_.Load(qadapter + adapter::kNextToClean, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t bufinfo_base,
                       ops_.Load(qadapter + adapter::kBufferInfo, 8));
  const uint32_t ring_count = static_cast<uint32_t>(count64);
  uint32_t ntu = static_cast<uint32_t>(ntu64);
  uint32_t ntc = static_cast<uint32_t>(ntc64);

  uint32_t staged = 0;
  uint64_t staged_bytes = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (((ntu + 1) & (ring_count - 1)) == ntc) {
      // Ring full mid-batch: flush what we have with one doorbell, try
      // one reclaim, and stop if the ring is still full.
      KOP_ASSIGN_OR_RETURN(uint32_t reclaimed, CleanTxRing(queue));
      if (reclaimed == 0) break;
      KOP_ASSIGN_OR_RETURN(uint64_t ntc_reload,
                           ops_.Load(qadapter + adapter::kNextToClean, 4));
      ntc = static_cast<uint32_t>(ntc_reload);
      if (((ntu + 1) & (ring_count - 1)) == ntc) break;
    }
    const uint64_t desc = ring + uint64_t{ntu} * kTxDescBytes;
    KOP_RETURN_IF_ERROR(ops_.Store(desc + 0, frames[i].addr, 8));
    const uint64_t word2 =
        uint64_t{frames[i].len} |
        (uint64_t{nic::TXD_CMD_EOP | nic::TXD_CMD_IFCS | nic::TXD_CMD_RS}
         << 24);
    KOP_RETURN_IF_ERROR(ops_.Store(desc + 8, word2, 8));
    const uint64_t info = bufinfo_base + uint64_t{ntu} * bufinfo::kStride;
    KOP_RETURN_IF_ERROR(ops_.Store(info + bufinfo::kSkbAddr,
                                   frames[i].addr, 8));
    KOP_RETURN_IF_ERROR(ops_.Store(info + bufinfo::kLength,
                                   frames[i].len, 4));
    KOP_RETURN_IF_ERROR(ops_.Store(info + bufinfo::kInUse, 1, 4));
    ntu = (ntu + 1) & (ring_count - 1);
    ++staged;
    staged_bytes += frames[i].len;
  }

  if (staged > 0) {
    KOP_RETURN_IF_ERROR(ops_.Store(qadapter + adapter::kNextToUse, ntu, 4));
    KOP_ASSIGN_OR_RETURN(uint64_t packets,
                         ops_.Load(qadapter + adapter::kTxPackets, 8));
    KOP_RETURN_IF_ERROR(
        ops_.Store(qadapter + adapter::kTxPackets, packets + staged, 8));
    KOP_ASSIGN_OR_RETURN(uint64_t bytes,
                         ops_.Load(qadapter + adapter::kTxBytes, 8));
    KOP_RETURN_IF_ERROR(ops_.Store(qadapter + adapter::kTxBytes,
                                   bytes + staged_bytes, 8));
    // One posted doorbell for the whole batch.
    KOP_TRACE(kXmitFrame, staged_bytes, ntu);
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, tdt_reg, ntu));
  }
  if (queued != nullptr) *queued = staged;
  return OkStatus();
}

template <typename Ops>
Result<uint32_t> Driver<Ops>::NapiPoll(uint32_t queue, uint32_t budget,
                                       std::vector<std::vector<uint8_t>>* frames) {
  EntryPin<Ops> pin(ops_);
  if (queue >= num_queues_) return InvalidArgument("no such queue");
  KOP_SPAN(kNapiPoll, queue);
  const uint64_t qadapter = queue_adapter_[queue];
  const uint64_t rdt_reg = nic::QReg(nic::REG_RDT, queue);
  const uint32_t vector_mask = (1u << queue) | (1u << (queue + 8));

  KOP_ASSIGN_OR_RETURN(uint64_t mmio_base,
                       ops_.Load(qadapter + adapter::kMmioBase, 8));
  // The irq handler's half of NAPI: mask this queue's vectors while the
  // poll runs.
  KOP_RETURN_IF_ERROR(Ew32(mmio_base, nic::REG_EIMC, vector_mask));

  // TX side: batch-reclaim completed descriptors.
  KOP_ASSIGN_OR_RETURN(uint32_t cleaned, CleanTxRing(queue));

  // RX side: drain up to `budget` completed frames with the hot fields
  // held in registers and a single RDT/counter update at the end.
  KOP_ASSIGN_OR_RETURN(uint64_t rx_ring,
                       ops_.Load(qadapter + adapter::kRxRingBase, 8));
  KOP_ASSIGN_OR_RETURN(uint64_t count64,
                       ops_.Load(qadapter + adapter::kRxRingCount, 4));
  KOP_ASSIGN_OR_RETURN(uint64_t ntc64,
                       ops_.Load(qadapter + adapter::kRxNextToClean, 4));
  const uint32_t ring_count = static_cast<uint32_t>(count64);
  uint32_t ntc = static_cast<uint32_t>(ntc64);

  kernel::Kernel* kernel = ops_.kernel();
  uint32_t drained = 0;
  uint32_t last_slot = 0;
  uint64_t drained_bytes = 0;
  while (drained < budget) {
    const uint64_t desc = rx_ring + uint64_t{ntc} * nic::kRxDescBytes;
    KOP_ASSIGN_OR_RETURN(uint64_t status_byte, ops_.Load(desc + 12, 1));
    if ((status_byte & nic::RXD_STAT_DD) == 0) break;
    KOP_ASSIGN_OR_RETURN(uint64_t length64, ops_.Load(desc + 8, 2));
    KOP_ASSIGN_OR_RETURN(uint64_t buffer, ops_.Load(desc + 0, 8));
    const uint32_t length = static_cast<uint32_t>(length64);
    if (frames != nullptr) {
      std::vector<uint8_t> frame(length);
      KOP_RETURN_IF_ERROR(kernel->mem().Read(buffer, frame.data(), length));
      frames->push_back(std::move(frame));
    }
    kernel->clock().Advance(kernel->machine().copy_cycles_per_byte * length);
    KOP_RETURN_IF_ERROR(ops_.Store(desc + 12, 0, 1));  // re-arm
    last_slot = ntc;
    ntc = (ntc + 1) & (ring_count - 1);
    ++drained;
    drained_bytes += length;
  }
  if (drained > 0) {
    KOP_RETURN_IF_ERROR(
        ops_.Store(qadapter + adapter::kRxNextToClean, ntc, 4));
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, rdt_reg, last_slot));
    KOP_ASSIGN_OR_RETURN(uint64_t packets,
                         ops_.Load(qadapter + adapter::kRxPackets, 8));
    KOP_RETURN_IF_ERROR(
        ops_.Store(qadapter + adapter::kRxPackets, packets + drained, 8));
    KOP_ASSIGN_OR_RETURN(uint64_t bytes,
                         ops_.Load(qadapter + adapter::kRxBytes, 8));
    KOP_RETURN_IF_ERROR(ops_.Store(qadapter + adapter::kRxBytes,
                                   bytes + drained_bytes, 8));
  }

  const uint32_t work = drained + cleaned;
  if (drained < budget) {
    // napi_complete_done: under budget means the queue is quiet — ack
    // the latched causes and re-enable the vectors.
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, nic::REG_EICR, vector_mask));
    KOP_RETURN_IF_ERROR(Ew32(mmio_base, nic::REG_EIMS, vector_mask));
  }
  return work;
}

template class Driver<RawMemOps>;
template class Driver<GuardedMemOps>;

}  // namespace kop::e1000e
