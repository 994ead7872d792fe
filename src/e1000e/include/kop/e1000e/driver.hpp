// The e1000e-style network driver — the protected module of the paper's
// evaluation (§4). One source, templated on the memory-access policy:
// Driver<RawMemOps> is the baseline build, Driver<GuardedMemOps> the
// CARAT KOP build. Every piece of driver state (adapter struct, buffer
// info array, descriptor ring, bounce buffer) lives in *simulated* kernel
// memory and is touched only through Ops — so the guarded build guards
// exactly the accesses the real transformed driver would: its own
// bookkeeping, the descriptor ring, and MMIO registers. Frame payload
// moves by device DMA, unguarded, as on real hardware.
#pragma once

#include <cstdint>
#include <vector>

#include "kop/e1000e/memops.hpp"
#include "kop/nic/e1000_regs.hpp"

namespace kop::e1000e {

/// Ethernet constants.
inline constexpr uint32_t kEthZlen = 60;     // minimum payload before FCS
inline constexpr uint32_t kEthFrameLen = 1514;
inline constexpr uint32_t kBounceBytes = 2048;

/// TX copybreak: frames shorter than this are copied by the driver into a
/// pre-mapped bounce buffer instead of being DMA-mapped individually (the
/// classic small-frame optimization; it also satisfies the hardware's
/// minimum-frame padding in the same pass). This per-byte driver copy is
/// the only CPU-side data touching in the transmit path — and thus where
/// CARAT KOP's per-size effect (Figure 6) concentrates.
inline constexpr uint32_t kTxCopybreak = 128;

/// Layout of the adapter structure in simulated kernel memory. Offsets
/// are explicit because the driver reads/writes fields through Ops (the
/// simulated address space), not through host pointers.
namespace adapter {
inline constexpr uint64_t kMmioBase = 0x00;      // u64
inline constexpr uint64_t kTxRingBase = 0x08;    // u64
inline constexpr uint64_t kTxRingCount = 0x10;   // u32
inline constexpr uint64_t kNextToUse = 0x14;     // u32
inline constexpr uint64_t kNextToClean = 0x18;   // u32
inline constexpr uint64_t kFlags = 0x1c;         // u32
inline constexpr uint64_t kTxPackets = 0x20;     // u64
inline constexpr uint64_t kTxBytes = 0x28;       // u64
inline constexpr uint64_t kTxBusy = 0x30;        // u64
inline constexpr uint64_t kTxCleaned = 0x38;     // u64
inline constexpr uint64_t kBounceBuf = 0x40;     // u64
inline constexpr uint64_t kBufferInfo = 0x48;    // u64
inline constexpr uint64_t kWatchdogStamp = 0x50; // u64
inline constexpr uint64_t kRxRingBase = 0x58;    // u64
inline constexpr uint64_t kRxRingCount = 0x60;   // u32
inline constexpr uint64_t kRxNextToClean = 0x64; // u32
inline constexpr uint64_t kRxBuffers = 0x68;     // u64
inline constexpr uint64_t kRxPackets = 0x70;     // u64
inline constexpr uint64_t kRxBytes = 0x78;       // u64
inline constexpr uint64_t kSize = 0x80;
}  // namespace adapter

/// Size of each driver-armed RX buffer (matches the device's fixed
/// RCTL.BSIZE of 2 KiB).
inline constexpr uint32_t kRxBufferBytes = 2048;

/// Per-descriptor buffer bookkeeping (buffer_info[] in the real driver).
namespace bufinfo {
inline constexpr uint64_t kSkbAddr = 0x00;  // u64
inline constexpr uint64_t kLength = 0x08;   // u32
inline constexpr uint64_t kInUse = 0x0c;    // u32
inline constexpr uint64_t kStride = 0x10;
}  // namespace bufinfo

struct DriverCounters {
  uint64_t tx_packets = 0;
  uint64_t tx_bytes = 0;
  uint64_t tx_busy = 0;     // xmit attempts that found the ring full
  uint64_t tx_cleaned = 0;  // descriptors reclaimed
  uint64_t rx_packets = 0;
  uint64_t rx_bytes = 0;
};

/// One frame of a descriptor batch: payload address + length in
/// simulated memory.
struct TxFrame {
  uint64_t addr = 0;
  uint32_t len = 0;
};

template <typename Ops>
class Driver {
 public:
  /// Probe: allocate adapter state + ring + bounce buffer in simulated
  /// kernel memory, reset and bring up the device. `ops` is copied; it is
  /// cheap (three pointers). A probe that fails frees what it allocated.
  static Result<Driver> Probe(Ops ops, uint64_t mmio_base,
                              uint32_t ring_entries = 256);

  /// Multi-queue probe: the legacy probe for queue 0, then a private
  /// adapter block + TX/RX rings per extra queue, MSI-X vector routing
  /// (TX queue q → vector q, RX queue q → vector q+8) with `itr_cycles`
  /// of EITR mitigation per vector, and RSS spreading RX across the
  /// queues. Queue 0's datapath stays byte-identical to `Probe`'s.
  static Result<Driver> ProbeMq(Ops ops, uint64_t mmio_base,
                                uint32_t ring_entries, uint32_t num_queues,
                                uint32_t itr_cycles = 0);

  /// Tear down: disable the transmitter and free every queue's simulated
  /// allocations.
  Status Remove();

  /// The hot path (e1000_xmit_frame): queue one frame whose payload
  /// already sits in simulated memory at `frame_addr` on TX queue
  /// `queue`. kBusy when the ring is full even after reclaim — the
  /// caller (socket layer) blocks. Queue 0 uses the legacy registers
  /// (QReg(reg, 0) == reg), so the legacy probe's datapath is queue 0's.
  Status XmitFrame(uint64_t frame_addr, uint32_t len, uint32_t queue = 0);

  /// Reclaim completed descriptors (e1000_clean_tx_irq). Returns the
  /// number reclaimed.
  Result<uint32_t> CleanTxRing(uint32_t queue = 0);

  /// Poll the RX ring for one completed frame (e1000_clean_rx_irq, one
  /// iteration). True when `out` was filled with a received frame; false
  /// when no descriptor is done. The payload handoff to the stack is an
  /// unguarded core-kernel copy, as on real Linux; the driver's own
  /// descriptor/counter accesses go through Ops and are guarded on the
  /// carat build.
  Result<bool> ReceiveFrame(std::vector<uint8_t>* out, uint32_t queue = 0);

  /// Netdev counters, read from adapter memory (guarded on carat builds).
  /// Queue 0's for the legacy probe; one queue's via CountersOn.
  Result<DriverCounters> Counters();

  /// Netdev counters for a specific queue.
  Result<DriverCounters> CountersOn(uint32_t queue);

  /// Device-side counters via MMIO (GPTC / GOTC).
  Result<uint64_t> HwGoodPacketsTransmitted();

  // ------------------------------------------------------ multi-queue --

  /// Doorbell batching: stage up to `count` descriptors on `queue` and
  /// ring TDT once for the whole batch — the hot fields are loaded once
  /// and the tail/counter stores amortize across the batch, so the
  /// guarded cost per packet drops from 17 accesses to ~6. Frames must
  /// be at least kEthZlen (the batch path has no bounce buffer: one
  /// shared bounce cannot back several in-flight descriptors). Stops
  /// early (reporting how many were queued via `queued`) when the ring
  /// fills even after one reclaim attempt.
  Status XmitBatch(uint32_t queue, const TxFrame* frames, uint32_t count,
                   uint32_t* queued);

  /// One NAPI poll iteration on `queue`: mask the queue's vectors,
  /// reclaim completed TX descriptors, drain up to `budget` received
  /// frames (appended to `frames` when non-null), and — exactly like
  /// napi_complete_done — re-enable the vectors only when the poll ran
  /// under budget. Returns RX frames drained + TX descriptors reclaimed.
  Result<uint32_t> NapiPoll(uint32_t queue, uint32_t budget,
                            std::vector<std::vector<uint8_t>>* frames);

  uint64_t adapter_addr() const { return queue_adapter_[0]; }
  uint32_t ring_entries() const { return ring_entries_; }
  uint32_t num_queues() const { return num_queues_; }
  Ops& ops() { return ops_; }

 private:
  Driver(Ops ops, uint32_t ring_entries)
      : ops_(ops), ring_entries_(ring_entries) {}

  // Register helpers (er32/ew32 in the real driver).
  Result<uint32_t> Er32(uint64_t mmio_base, uint64_t reg) {
    KOP_ASSIGN_OR_RETURN(uint64_t value, ops_.MmioRead(mmio_base + reg, 4));
    return static_cast<uint32_t>(value);
  }
  Status Ew32(uint64_t mmio_base, uint64_t reg, uint32_t value) {
    return ops_.MmioWrite(mmio_base + reg, value, 4);
  }

  /// Probe's device bring-up on queue 0, and ProbeMq's extra queues and
  /// interrupt routing.
  Status BringUp(uint64_t mmio_base);
  Status BringUpMq(uint64_t mmio_base, uint32_t num_queues,
                   uint32_t itr_cycles);
  /// Allocate, zero and initialise queue `num_queues_`'s adapter block,
  /// rings and buffers and arm its RX descriptors, then count the queue
  /// and report its rings for the register programming. On failure it
  /// frees what it had allocated.
  struct QueueRings {
    uint64_t tx = 0;
    uint64_t rx = 0;
  };
  Result<QueueRings> SetUpQueue(uint64_t mmio_base);
  /// Free every set-up queue's allocations (recorded in its adapter
  /// block) and the block itself.
  Status FreeQueues();
  /// The probe's result: this driver, or — after freeing everything it
  /// had allocated — why the probe failed.
  Result<Driver> Probed(Status status);

  Ops ops_;
  uint32_t ring_entries_ = 0;
  /// Queues set up so far: 1 after Probe, n after ProbeMq.
  uint32_t num_queues_ = 0;
  /// Per-queue adapter block addresses. Host-side bookkeeping only: all
  /// the state behind the addresses lives in simulated memory and is
  /// accessed through Ops.
  uint64_t queue_adapter_[nic::kMaxQueues] = {};
};

// The driver is header-declared, source-defined; both instantiations are
// emitted by driver.cpp ("two builds of the same source").
extern template class Driver<RawMemOps>;
extern template class Driver<GuardedMemOps>;

using BaselineDriver = Driver<RawMemOps>;
using CaratDriver = Driver<GuardedMemOps>;

}  // namespace kop::e1000e
