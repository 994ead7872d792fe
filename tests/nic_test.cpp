// kop::nic: register file semantics, descriptor-ring DMA engine,
// writeback, interrupts, packet sink.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "kop/kernel/address_space.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/sim/clock.hpp"

namespace kop::nic {
namespace {

class NicTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kMmio = 0xffffc90000000000ull;
  static constexpr uint64_t kRam = 0xffff888000000000ull;
  static constexpr uint32_t kRingEntries = 16;

  NicTest() : device_(&mem_, &sink_) {
    EXPECT_TRUE(mem_.MapRam("ram", kRam, 1 << 20).ok());
    EXPECT_TRUE(device_.MapAt(kMmio).ok());
  }

  uint32_t Read32(uint64_t reg) {
    auto value = mem_.Read32(kMmio + reg);
    EXPECT_TRUE(value.ok());
    return value.ok() ? *value : 0;
  }
  void Write32(uint64_t reg, uint32_t value) {
    EXPECT_TRUE(mem_.Write32(kMmio + reg, value).ok());
  }

  /// Bring the transmitter up with a ring at kRam.
  void SetupRing() {
    Write32(REG_CTRL, CTRL_SLU);
    Write32(REG_TDBAL, static_cast<uint32_t>(kRam));
    Write32(REG_TDBAH, static_cast<uint32_t>(kRam >> 32));
    Write32(REG_TDLEN, kRingEntries * kTxDescBytes);
    Write32(REG_TDH, 0);
    Write32(REG_TDT, 0);
    Write32(REG_TCTL, TCTL_EN | TCTL_PSP);
  }

  /// Stage a descriptor at ring index `i` pointing at `payload`.
  void StageDescriptor(uint32_t i, uint64_t buffer, uint16_t length,
                       uint8_t cmd) {
    LegacyTxDescriptor desc{};
    desc.buffer_addr = buffer;
    desc.length = length;
    desc.cmd = cmd;
    uint8_t raw[kTxDescBytes];
    std::memcpy(raw, &desc, sizeof(desc));
    ASSERT_TRUE(mem_.Write(kRam + i * kTxDescBytes, raw, sizeof(raw)).ok());
  }

  void WritePayload(uint64_t addr, const std::vector<uint8_t>& bytes) {
    ASSERT_TRUE(mem_.Write(addr, bytes.data(), bytes.size()).ok());
  }

  uint8_t DescriptorStatus(uint32_t i) {
    auto value = mem_.Read8(kRam + i * kTxDescBytes + 12);
    EXPECT_TRUE(value.ok());
    return value.ok() ? *value : 0;
  }

  kernel::AddressSpace mem_;
  CountingSink sink_{/*retain=*/16};
  E1000Device device_;
};

TEST_F(NicTest, ResetClearsState) {
  Write32(REG_CTRL, CTRL_SLU);
  EXPECT_EQ(Read32(REG_STATUS) & STATUS_LU, STATUS_LU);
  Write32(REG_CTRL, CTRL_RST);
  EXPECT_EQ(Read32(REG_STATUS) & STATUS_LU, 0u);
  EXPECT_EQ(Read32(REG_TDT), 0u);
}

TEST_F(NicTest, LinkUpSetsStatusAndCause) {
  Write32(REG_IMS, ICR_LSC);
  Write32(REG_CTRL, CTRL_SLU);
  EXPECT_EQ(Read32(REG_STATUS) & STATUS_LU, STATUS_LU);
  EXPECT_EQ(device_.PendingInterrupts() & ICR_LSC, ICR_LSC);
  // ICR is read-to-clear.
  EXPECT_NE(Read32(REG_ICR) & ICR_LSC, 0u);
  EXPECT_EQ(Read32(REG_ICR), 0u);
}

TEST_F(NicTest, TransmitsSingleFrame) {
  SetupRing();
  const uint64_t payload = kRam + 0x8000;
  std::vector<uint8_t> frame(64);
  for (size_t i = 0; i < frame.size(); ++i) frame[i] = uint8_t(i);
  WritePayload(payload, frame);
  StageDescriptor(0, payload, 64, TXD_CMD_EOP | TXD_CMD_RS);
  Write32(REG_TDT, 1);  // tail bump triggers processing

  EXPECT_EQ(sink_.packets(), 1u);
  EXPECT_EQ(sink_.bytes(), 64u);
  EXPECT_EQ(sink_.RecentFrames()[0], frame);
  EXPECT_EQ(Read32(REG_TDH), 1u);
  EXPECT_EQ(Read32(REG_GPTC), 1u);
  EXPECT_EQ(Read32(REG_GOTCL), 64u);
  // DD written back because RS was set.
  EXPECT_EQ(DescriptorStatus(0) & TXD_STAT_DD, TXD_STAT_DD);
}

TEST_F(NicTest, NoWritebackWithoutRs) {
  SetupRing();
  const uint64_t payload = kRam + 0x8000;
  WritePayload(payload, std::vector<uint8_t>(32, 0xaa));
  StageDescriptor(0, payload, 32, TXD_CMD_EOP);
  Write32(REG_TDT, 1);
  EXPECT_EQ(sink_.packets(), 1u);
  EXPECT_EQ(DescriptorStatus(0) & TXD_STAT_DD, 0u);
  EXPECT_EQ(device_.stats().writebacks, 0u);
}

TEST_F(NicTest, MultiDescriptorFrameConcatenates) {
  SetupRing();
  const uint64_t part1 = kRam + 0x8000;
  const uint64_t part2 = kRam + 0x9000;
  WritePayload(part1, std::vector<uint8_t>(10, 0x11));
  WritePayload(part2, std::vector<uint8_t>(20, 0x22));
  StageDescriptor(0, part1, 10, 0);                        // no EOP yet
  StageDescriptor(1, part2, 20, TXD_CMD_EOP | TXD_CMD_RS);
  Write32(REG_TDT, 2);
  ASSERT_EQ(sink_.packets(), 1u);
  const auto frame = sink_.RecentFrames()[0];
  ASSERT_EQ(frame.size(), 30u);
  EXPECT_EQ(frame[0], 0x11);
  EXPECT_EQ(frame[29], 0x22);
}

TEST_F(NicTest, RingWrapsAround) {
  SetupRing();
  const uint64_t payload = kRam + 0x8000;
  WritePayload(payload, std::vector<uint8_t>(16, 0x5a));
  uint32_t tail = 0;
  // Send 2.5 rings worth of packets one at a time.
  for (int i = 0; i < 40; ++i) {
    StageDescriptor(tail, payload, 16, TXD_CMD_EOP | TXD_CMD_RS);
    tail = (tail + 1) % kRingEntries;
    Write32(REG_TDT, tail);
  }
  EXPECT_EQ(sink_.packets(), 40u);
  EXPECT_EQ(Read32(REG_TDH), 40u % kRingEntries);
}

TEST_F(NicTest, DisabledTransmitterDoesNothing) {
  SetupRing();
  Write32(REG_TCTL, 0);  // disable
  StageDescriptor(0, kRam + 0x8000, 16, TXD_CMD_EOP);
  Write32(REG_TDT, 1);
  EXPECT_EQ(sink_.packets(), 0u);
  EXPECT_EQ(Read32(REG_TDH), 0u);
  // Re-enable and kick: processes now.
  Write32(REG_TCTL, TCTL_EN);
  Write32(REG_TDT, 1);
  EXPECT_EQ(sink_.packets(), 1u);
}

TEST_F(NicTest, NoLinkNoTransmit) {
  SetupRing();
  Write32(REG_CTRL, 0);  // does not clear SLU... set up without link:
  Write32(REG_CTRL, CTRL_RST);
  // After reset everything is down; re-program without SLU.
  Write32(REG_TDBAL, static_cast<uint32_t>(kRam));
  Write32(REG_TDBAH, static_cast<uint32_t>(kRam >> 32));
  Write32(REG_TDLEN, kRingEntries * kTxDescBytes);
  Write32(REG_TCTL, TCTL_EN);
  StageDescriptor(0, kRam + 0x8000, 16, TXD_CMD_EOP);
  Write32(REG_TDT, 1);
  EXPECT_EQ(sink_.packets(), 0u);
}

TEST_F(NicTest, TxInterruptsAccumulateAndMask) {
  SetupRing();
  Write32(REG_IMS, ICR_TXDW);
  WritePayload(kRam + 0x8000, std::vector<uint8_t>(16, 1));
  StageDescriptor(0, kRam + 0x8000, 16, TXD_CMD_EOP | TXD_CMD_RS);
  Write32(REG_TDT, 1);
  EXPECT_NE(device_.PendingInterrupts() & ICR_TXDW, 0u);
  // TXQE raised when the ring drained.
  EXPECT_NE(Read32(REG_ICR) & ICR_TXQE, 0u);
  // Mask clear: no pending even if causes accumulate.
  Write32(REG_IMC, ICR_TXDW | ICR_TXQE);
  StageDescriptor(1, kRam + 0x8000, 16, TXD_CMD_EOP | TXD_CMD_RS);
  Write32(REG_TDT, 2);
  EXPECT_EQ(device_.PendingInterrupts(), 0u);
}

TEST_F(NicTest, BadDescriptorAddressCountsAndStops) {
  SetupRing();
  StageDescriptor(0, 0xdeadbeef0000ull, 64, TXD_CMD_EOP);  // unmapped
  Write32(REG_TDT, 1);
  EXPECT_EQ(sink_.packets(), 0u);
  EXPECT_EQ(device_.stats().bad_descriptors, 1u);
}

TEST_F(NicTest, UnmappedRingStallsDevice) {
  Write32(REG_CTRL, CTRL_SLU);
  Write32(REG_TDBAL, 0x12340000u);  // nowhere
  Write32(REG_TDBAH, 0);
  Write32(REG_TDLEN, kRingEntries * kTxDescBytes);
  Write32(REG_TCTL, TCTL_EN);
  Write32(REG_TDT, 1);
  EXPECT_EQ(sink_.packets(), 0u);
  EXPECT_EQ(device_.stats().bad_descriptors, 1u);
}

TEST_F(NicTest, FailedMiddlePayloadLeavesFrameAsItWas) {
  SetupRing();
  const std::vector<uint8_t> chunk1 = {0x01, 0x02, 0x03, 0x04, 0x05};
  const std::vector<uint8_t> chunk3 = {0xc1, 0xc2, 0xc3};
  WritePayload(kRam + 0x8000, chunk1);
  WritePayload(kRam + 0x9000, chunk3);
  StageDescriptor(0, kRam + 0x8000, 5, 0);
  StageDescriptor(1, 0xdeadbeef0000ull, 40, 0);  // payload DMA fails
  StageDescriptor(2, kRam + 0x9000, 3, TXD_CMD_EOP);
  Write32(REG_TDT, 3);
  ASSERT_EQ(sink_.packets(), 1u);
  std::vector<uint8_t> expected = chunk1;
  expected.insert(expected.end(), chunk3.begin(), chunk3.end());
  EXPECT_EQ(sink_.RecentFrames()[0], expected);
  EXPECT_EQ(device_.stats().bad_descriptors, 1u);
  EXPECT_EQ(device_.stats().descriptors_processed, 3u);
}

TEST_F(NicTest, SweepEndingWithoutEopDropsItsBytes) {
  SetupRing();
  WritePayload(kRam + 0x8000, std::vector<uint8_t>(24, 0xee));
  WritePayload(kRam + 0x9000, std::vector<uint8_t>(16, 0x5a));
  StageDescriptor(0, kRam + 0x8000, 24, 0);  // no EOP, and the sweep ends
  Write32(REG_TDT, 1);
  EXPECT_EQ(sink_.packets(), 0u);
  EXPECT_EQ(device_.stats().frames_transmitted, 0u);
  // The next sweep's frame starts fresh: none of the orphaned bytes.
  StageDescriptor(1, kRam + 0x9000, 16, TXD_CMD_EOP);
  Write32(REG_TDT, 2);
  ASSERT_EQ(sink_.packets(), 1u);
  EXPECT_EQ(sink_.RecentFrames()[0], std::vector<uint8_t>(16, 0x5a));
  EXPECT_EQ(Read32(REG_GOTCL), 16u);
}

TEST_F(NicTest, ResetStatsKeepsHardwareCountersAndCtrlRstZeroesThem) {
  SetupRing();
  WritePayload(kRam + 0x8000, std::vector<uint8_t>(100, 9));
  StageDescriptor(0, kRam + 0x8000, 100, TXD_CMD_EOP);
  StageDescriptor(1, kRam + 0x8000, 60, TXD_CMD_EOP);
  Write32(REG_TDT, 2);
  device_.ResetStats();
  EXPECT_EQ(device_.stats().frames_transmitted, 0u);
  EXPECT_EQ(Read32(REG_GPTC), 2u);
  EXPECT_EQ(Read32(REG_GOTCL), 160u);
  Write32(REG_CTRL, CTRL_RST);
  EXPECT_EQ(Read32(REG_GPTC), 0u);
  EXPECT_EQ(Read32(REG_GOTCL), 0u);
  EXPECT_EQ(Read32(REG_GOTCH), 0u);
}

TEST_F(NicTest, GoodOctetCounterIs64Bit) {
  SetupRing();
  WritePayload(kRam + 0x8000, std::vector<uint8_t>(1024, 7));
  for (int i = 0; i < 8; ++i) {
    StageDescriptor(i, kRam + 0x8000, 1024, TXD_CMD_EOP);
    Write32(REG_TDT, i + 1);
  }
  EXPECT_EQ(Read32(REG_GOTCL), 8u * 1024);
  EXPECT_EQ(Read32(REG_GOTCH), 0u);
}

TEST_F(NicTest, EepromReadProtocol) {
  const uint8_t mac[6] = {0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xf0};
  device_.SetNvmMac(mac);
  // Read word 0 through EERD: START|(0<<8) -> DONE + data in [31:16].
  Write32(REG_EERD, EERD_START);
  uint32_t eerd = Read32(REG_EERD);
  EXPECT_NE(eerd & EERD_DONE, 0u);
  EXPECT_EQ(eerd >> EERD_DATA_SHIFT, 0xbbaau);
  Write32(REG_EERD, EERD_START | (2u << EERD_ADDR_SHIFT));
  eerd = Read32(REG_EERD);
  EXPECT_EQ(eerd >> EERD_DATA_SHIFT, 0xf0eeu);
  // Out-of-range NVM word reads as erased flash.
  Write32(REG_EERD, EERD_START | (200u << EERD_ADDR_SHIFT));
  EXPECT_EQ(Read32(REG_EERD) >> EERD_DATA_SHIFT, 0xffffu);
  // Clearing START clears the latch.
  Write32(REG_EERD, 0);
  EXPECT_EQ(Read32(REG_EERD), 0u);
}

TEST_F(NicTest, MacAddressRegistersStick) {
  Write32(REG_RAL0, 0x12345678);
  Write32(REG_RAH0, 0x00009abc);
  EXPECT_EQ(Read32(REG_RAL0), 0x12345678u);
  EXPECT_EQ(Read32(REG_RAH0), 0x00009abcu);
}

TEST_F(NicTest, ManualProcessingMode) {
  device_.set_auto_process(false);
  SetupRing();
  WritePayload(kRam + 0x8000, std::vector<uint8_t>(16, 3));
  StageDescriptor(0, kRam + 0x8000, 16, TXD_CMD_EOP);
  Write32(REG_TDT, 1);
  EXPECT_EQ(sink_.packets(), 0u);  // not yet
  device_.ProcessTransmitRing();
  EXPECT_EQ(sink_.packets(), 1u);
}

class NicRxTest : public NicTest {
 protected:
  static constexpr uint64_t kRxRing = kRam + 0x40000;
  static constexpr uint64_t kRxBufs = kRam + 0x50000;

  void SetupRxRing() {
    Write32(REG_CTRL, CTRL_SLU);
    Write32(REG_RDBAL, static_cast<uint32_t>(kRxRing));
    Write32(REG_RDBAH, static_cast<uint32_t>(kRxRing >> 32));
    Write32(REG_RDLEN, kRingEntries * kRxDescBytes);
    Write32(REG_RDH, 0);
    // Arm all descriptors with buffers; classic one-slot gap.
    for (uint32_t i = 0; i < kRingEntries; ++i) {
      LegacyRxDescriptor desc{};
      desc.buffer_addr = kRxBufs + uint64_t{i} * 2048;
      uint8_t raw[kRxDescBytes];
      std::memcpy(raw, &desc, sizeof(desc));
      ASSERT_TRUE(
          mem_.Write(kRxRing + i * kRxDescBytes, raw, sizeof(raw)).ok());
    }
    Write32(REG_RDT, kRingEntries - 1);
    Write32(REG_RCTL, RCTL_EN | RCTL_BAM);
  }

  LegacyRxDescriptor ReadRxDescriptor(uint32_t i) {
    LegacyRxDescriptor desc{};
    uint8_t raw[kRxDescBytes];
    EXPECT_TRUE(mem_.Read(kRxRing + i * kRxDescBytes, raw, sizeof(raw)).ok());
    std::memcpy(&desc, raw, sizeof(desc));
    return desc;
  }
};

TEST_F(NicRxTest, ReceivesFrameIntoArmedBuffer) {
  SetupRxRing();
  Write32(REG_IMS, ICR_RXT0);
  std::vector<uint8_t> frame(100);
  for (size_t i = 0; i < frame.size(); ++i) frame[i] = uint8_t(i * 3);
  ASSERT_TRUE(device_.ReceiveFrame(frame));

  const LegacyRxDescriptor desc = ReadRxDescriptor(0);
  EXPECT_EQ(desc.length, 100u);
  EXPECT_EQ(desc.status & RXD_STAT_DD, RXD_STAT_DD);
  EXPECT_EQ(desc.status & RXD_STAT_EOP, RXD_STAT_EOP);
  std::vector<uint8_t> stored(100);
  ASSERT_TRUE(mem_.Read(kRxBufs, stored.data(), stored.size()).ok());
  EXPECT_EQ(stored, frame);
  EXPECT_EQ(Read32(REG_RDH), 1u);
  EXPECT_EQ(Read32(REG_GPRC), 1u);
  EXPECT_NE(device_.PendingInterrupts() & ICR_RXT0, 0u);
}

TEST_F(NicRxTest, DropsWhenReceiverDisabled) {
  Write32(REG_CTRL, CTRL_SLU);
  EXPECT_FALSE(device_.ReceiveFrame(std::vector<uint8_t>(64, 1)));
  EXPECT_EQ(device_.stats().rx_dropped, 1u);
}

TEST_F(NicRxTest, DropsWhenRingExhausted) {
  SetupRxRing();
  // Consume all count-1 available slots.
  for (uint32_t i = 0; i + 1 < kRingEntries; ++i) {
    ASSERT_TRUE(device_.ReceiveFrame(std::vector<uint8_t>(64, uint8_t(i))))
        << i;
  }
  EXPECT_FALSE(device_.ReceiveFrame(std::vector<uint8_t>(64, 0xff)));
  EXPECT_EQ(device_.stats().rx_dropped, 1u);
  EXPECT_NE(Read32(REG_ICR) & ICR_RXO, 0u);
  // Software returns one slot: the next frame fits again.
  Write32(REG_RDT, 0);
  EXPECT_TRUE(device_.ReceiveFrame(std::vector<uint8_t>(64, 0xaa)));
}

TEST_F(NicRxTest, DropsOversizeFrames) {
  SetupRxRing();
  EXPECT_FALSE(device_.ReceiveFrame(std::vector<uint8_t>(4096, 1)));
  EXPECT_EQ(device_.stats().rx_dropped, 1u);
}

// ------------------------------------------------- legacy pin battery --
// Byte-exact pins of the single-queue device captured before the
// multi-queue refactor. Every DeviceStats field, the hardware counters,
// and the accumulated interrupt causes are hardcoded: the refactored
// device in legacy mode (queue 0 only, no MSI-X programming) must
// reproduce this run bit-for-bit.

TEST_F(NicTest, LegacyPinTxSweepStatsByteExact) {
  SetupRing();
  const uint64_t payload = kRam + 0x8000;
  WritePayload(payload, std::vector<uint8_t>(2048, 0x33));
  // Four rounds of a mixed trio: 64B single-descriptor RS frame, a
  // 10B+20B split frame (RS on the EOP half), and a 128B frame without
  // RS. 16 descriptors exactly fill (and wrap) the 16-entry ring.
  uint32_t tail = 0;
  auto doorbell = [&](uint32_t next) {
    tail = next % kRingEntries;
    Write32(REG_TDT, tail);
  };
  for (int round = 0; round < 4; ++round) {
    StageDescriptor(tail, payload, 64, TXD_CMD_EOP | TXD_CMD_RS);
    doorbell(tail + 1);
    StageDescriptor(tail, payload, 10, 0);
    StageDescriptor((tail + 1) % kRingEntries, payload + 10, 20,
                    TXD_CMD_EOP | TXD_CMD_RS);
    doorbell(tail + 2);
    StageDescriptor(tail, payload, 128, TXD_CMD_EOP);
    doorbell(tail + 1);
  }
  const DeviceStats s = device_.stats();
  EXPECT_EQ(s.descriptors_processed, 16u);
  EXPECT_EQ(s.frames_transmitted, 12u);
  EXPECT_EQ(s.bytes_transmitted, 888u);  // 4 * (64 + 30 + 128)
  EXPECT_EQ(s.dma_descriptor_reads, 16u);
  EXPECT_EQ(s.dma_payload_reads, 16u);
  EXPECT_EQ(s.writebacks, 8u);
  EXPECT_EQ(s.tail_writes, 13u);  // SetupRing's TDT=0 plus 12 doorbells
  EXPECT_EQ(s.bad_descriptors, 0u);
  EXPECT_EQ(s.bad_doorbells, 0u);
  EXPECT_EQ(s.frames_received, 0u);
  EXPECT_EQ(s.bytes_received, 0u);
  EXPECT_EQ(s.rx_dropped, 0u);
  EXPECT_EQ(sink_.packets(), 12u);
  EXPECT_EQ(sink_.bytes(), 888u);
  EXPECT_EQ(Read32(REG_TDH), 0u);  // wrapped exactly once
  EXPECT_EQ(Read32(REG_GPTC), 12u);
  EXPECT_EQ(Read32(REG_GOTCL), 888u);
  EXPECT_EQ(Read32(REG_GOTCH), 0u);
  // Accumulated causes: LSC from SetupRing's link-up, TXDW and TXQE
  // from the sweeps. Read-to-clear.
  EXPECT_EQ(Read32(REG_ICR), ICR_LSC | ICR_TXDW | ICR_TXQE);
  EXPECT_EQ(Read32(REG_ICR), 0u);
}

TEST_F(NicTest, LegacyPinDoorbellWedgeByteExact) {
  SetupRing();
  WritePayload(kRam + 0x8000, std::vector<uint8_t>(64, 0x44));
  StageDescriptor(0, kRam + 0x8000, 64, TXD_CMD_EOP | TXD_CMD_RS);
  // Out-of-range tail: the doorbell is refused, nothing is processed,
  // nothing is delivered — the PR-4 regression (head could never meet
  // an out-of-range tail, so the sweep would spin forever).
  Write32(REG_TDT, kRingEntries + 5);
  EXPECT_EQ(device_.stats().bad_doorbells, 1u);
  EXPECT_EQ(device_.stats().descriptors_processed, 0u);
  EXPECT_EQ(sink_.packets(), 0u);
  EXPECT_EQ(Read32(REG_TDH), 0u);
  // Software rewrites a sane tail: the device recovers and sweeps.
  Write32(REG_TDT, 1);
  EXPECT_EQ(device_.stats().bad_doorbells, 1u);
  EXPECT_EQ(sink_.packets(), 1u);
  // An out-of-range *head* wedges the same counter.
  Write32(REG_TDH, 99);
  StageDescriptor(1, kRam + 0x8000, 64, TXD_CMD_EOP);
  Write32(REG_TDT, 2);
  EXPECT_EQ(device_.stats().bad_doorbells, 2u);
  EXPECT_EQ(sink_.packets(), 1u);
  EXPECT_EQ(device_.stats().tail_writes, 4u);  // setup + 3 doorbells
}

TEST_F(NicRxTest, LegacyPinRxStatsByteExact) {
  SetupRxRing();
  ASSERT_TRUE(device_.ReceiveFrame(std::vector<uint8_t>(100, 0x01)));
  ASSERT_TRUE(device_.ReceiveFrame(std::vector<uint8_t>(60, 0x02)));
  ASSERT_TRUE(device_.ReceiveFrame(std::vector<uint8_t>(1514, 0x03)));
  EXPECT_FALSE(device_.ReceiveFrame(std::vector<uint8_t>(4096, 0x04)));
  const DeviceStats s = device_.stats();
  EXPECT_EQ(s.dma_descriptor_reads, 3u);
  EXPECT_EQ(s.writebacks, 3u);
  EXPECT_EQ(s.frames_received, 3u);
  EXPECT_EQ(s.bytes_received, 1674u);  // 100 + 60 + 1514
  EXPECT_EQ(s.rx_dropped, 1u);
  EXPECT_EQ(s.bad_descriptors, 0u);
  EXPECT_EQ(s.frames_transmitted, 0u);
  EXPECT_EQ(Read32(REG_RDH), 3u);
  EXPECT_EQ(Read32(REG_GPRC), 3u);
  EXPECT_EQ(Read32(REG_ICR), ICR_LSC | ICR_RXO | ICR_RXT0);
}

// --------------------------------------------------- multi-queue model --

class NicMqTest : public NicTest {
 protected:
  /// Bring TX queue `q` up with its own ring carved out of RAM.
  void SetupTxQueue(uint32_t q) {
    Write32(REG_CTRL, CTRL_SLU);
    const uint64_t ring = TxRingBase(q);
    Write32(QReg(REG_TDBAL, q), static_cast<uint32_t>(ring));
    Write32(QReg(REG_TDBAH, q), static_cast<uint32_t>(ring >> 32));
    Write32(QReg(REG_TDLEN, q), kRingEntries * kTxDescBytes);
    Write32(QReg(REG_TDH, q), 0);
    Write32(QReg(REG_TDT, q), 0);
    Write32(REG_TCTL, TCTL_EN | TCTL_PSP);
  }

  void SetupRxQueue(uint32_t q) {
    Write32(REG_CTRL, CTRL_SLU);
    const uint64_t ring = RxRingBase(q);
    Write32(QReg(REG_RDBAL, q), static_cast<uint32_t>(ring));
    Write32(QReg(REG_RDBAH, q), static_cast<uint32_t>(ring >> 32));
    Write32(QReg(REG_RDLEN, q), kRingEntries * kRxDescBytes);
    Write32(QReg(REG_RDH, q), 0);
    for (uint32_t i = 0; i < kRingEntries; ++i) {
      LegacyRxDescriptor desc{};
      desc.buffer_addr = RxBufBase(q) + uint64_t{i} * 2048;
      uint8_t raw[kRxDescBytes];
      std::memcpy(raw, &desc, sizeof(desc));
      ASSERT_TRUE(
          mem_.Write(ring + i * kRxDescBytes, raw, sizeof(raw)).ok());
    }
    Write32(QReg(REG_RDT, q), kRingEntries - 1);
    Write32(REG_RCTL, RCTL_EN | RCTL_BAM);
  }

  uint64_t TxRingBase(uint32_t q) const { return kRam + 0x1000 * q; }
  uint64_t RxRingBase(uint32_t q) const { return kRam + 0x20000 + 0x1000 * q; }
  uint64_t RxBufBase(uint32_t q) const { return kRam + 0x40000 + 0x10000 * q; }

  void StageDescriptorOn(uint32_t q, uint32_t i, uint64_t buffer,
                         uint16_t length, uint8_t cmd) {
    LegacyTxDescriptor desc{};
    desc.buffer_addr = buffer;
    desc.length = length;
    desc.cmd = cmd;
    uint8_t raw[kTxDescBytes];
    std::memcpy(raw, &desc, sizeof(desc));
    ASSERT_TRUE(mem_.Write(TxRingBase(q) + i * kTxDescBytes, raw,
                           sizeof(raw)).ok());
  }

  /// Stage + doorbell one patterned frame on queue q.
  void SendOn(uint32_t q, uint32_t slot, uint16_t len, uint8_t fill) {
    const uint64_t payload = kRam + 0x80000 + 0x800 * q;
    WritePayload(payload, std::vector<uint8_t>(len, fill));
    StageDescriptorOn(q, slot, payload, len, TXD_CMD_EOP | TXD_CMD_RS);
    Write32(QReg(REG_TDT, q), (slot + 1) % kRingEntries);
  }
};

TEST_F(NicMqTest, QueueZeroBlockIsTheLegacyBlock) {
  EXPECT_EQ(QReg(REG_TDBAL, 0), REG_TDBAL);
  EXPECT_EQ(QReg(REG_TDT, 0), REG_TDT);
  EXPECT_EQ(QReg(REG_TDBAL, 1), 0x3900u);  // real 82571 TDBAL1
  EXPECT_EQ(QReg(REG_RDBAL, 1), 0x2900u);
  // Writing queue 1's ring registers is visible at the strided offsets
  // and leaves the legacy block untouched.
  Write32(QReg(REG_TDBAL, 1), 0x12340000u);
  EXPECT_EQ(Read32(QReg(REG_TDBAL, 1)), 0x12340000u);
  EXPECT_EQ(Read32(REG_TDBAL), 0u);
}

TEST_F(NicMqTest, IndependentQueuesTransmitAndFoldStats) {
  for (uint32_t q : {0u, 1u, 3u, 7u}) SetupTxQueue(q);
  SendOn(0, 0, 64, 0x10);
  SendOn(1, 0, 128, 0x11);
  SendOn(3, 0, 256, 0x13);
  SendOn(7, 0, 512, 0x17);
  SendOn(1, 1, 100, 0x21);
  EXPECT_EQ(sink_.packets(), 5u);
  EXPECT_EQ(sink_.bytes(), 64u + 128 + 256 + 512 + 100);
  EXPECT_EQ(device_.QueueStats(0).frames_transmitted, 1u);
  EXPECT_EQ(device_.QueueStats(1).frames_transmitted, 2u);
  EXPECT_EQ(device_.QueueStats(1).bytes_transmitted, 228u);
  EXPECT_EQ(device_.QueueStats(3).frames_transmitted, 1u);
  EXPECT_EQ(device_.QueueStats(7).frames_transmitted, 1u);
  EXPECT_EQ(device_.QueueStats(2).frames_transmitted, 0u);
  // The fold matches the per-queue sum and the hardware counters.
  EXPECT_EQ(device_.stats().frames_transmitted, 5u);
  EXPECT_EQ(Read32(REG_GPTC), 5u);
  EXPECT_EQ(Read32(REG_GOTCL), 64u + 128 + 256 + 512 + 100);
  // Heads advanced independently.
  EXPECT_EQ(Read32(QReg(REG_TDH, 1)), 2u);
  EXPECT_EQ(Read32(QReg(REG_TDH, 3)), 1u);
}

TEST_F(NicMqTest, PerQueueDoorbellWedgesOnlyThatQueue) {
  SetupTxQueue(0);
  SetupTxQueue(2);
  Write32(QReg(REG_TDT, 2), kRingEntries + 9);  // out of range
  EXPECT_EQ(device_.QueueStats(2).bad_doorbells, 1u);
  EXPECT_EQ(device_.QueueStats(0).bad_doorbells, 0u);
  // Queue 0 still transmits.
  SendOn(0, 0, 64, 0x55);
  EXPECT_EQ(sink_.packets(), 1u);
  // Queue 2 recovers once software writes a sane tail.
  SendOn(2, 0, 64, 0x66);
  EXPECT_EQ(device_.QueueStats(2).frames_transmitted, 1u);
  EXPECT_EQ(device_.stats().bad_doorbells, 1u);
}

TEST_F(NicMqTest, MsixVectorsFollowIvarAndEicrIsReadToClear) {
  SetupTxQueue(1);
  // Route queue 1's TX cause to vector 5; unmask it.
  Write32(IVAR(1), (IVAR_VALID | 5u) << IVAR_TX_SHIFT);
  Write32(REG_EIMS, 1u << 5);
  SendOn(1, 0, 64, 0x42);
  EXPECT_EQ(device_.PendingMsix(), 1u << 5);
  EXPECT_EQ(device_.MsixAsserts(5), 1u);
  EXPECT_EQ(Read32(REG_EICR), 1u << 5);
  EXPECT_EQ(Read32(REG_EICR), 0u);  // read-to-clear
  // Legacy ICR saw nothing from queue 1 (only the link-up cause).
  EXPECT_EQ(Read32(REG_ICR), ICR_LSC);
  // Masked vector: cause latches in EICR but does not assert.
  Write32(REG_EIMC, 1u << 5);
  SendOn(1, 1, 64, 0x43);
  EXPECT_EQ(device_.MsixAsserts(5), 1u);
  EXPECT_EQ(Read32(REG_EICR), 1u << 5);
}

TEST_F(NicMqTest, EitrThrottlesVectorAsserts) {
  sim::VirtualClock clock;
  device_.AttachClock(&clock);
  SetupTxQueue(0);
  Write32(IVAR(0), (IVAR_VALID | 3u) << IVAR_TX_SHIFT);
  Write32(REG_EIMS, 1u << 3);
  Write32(EITR(3), 10000);  // 10k-cycle throttle window
  // A burst within one window: one assert, the rest throttled.
  for (uint32_t i = 0; i < 5; ++i) SendOn(0, i, 64, uint8_t(i));
  EXPECT_EQ(device_.MsixAsserts(3), 1u);
  EXPECT_EQ(device_.MsixThrottled(3), 4u);
  // Let the window elapse: the next cause fires again.
  clock.Advance(20000);
  SendOn(0, 5, 64, 0x99);
  EXPECT_EQ(device_.MsixAsserts(3), 2u);
  // EITR=0 disables mitigation entirely.
  Write32(EITR(3), 0);
  SendOn(0, 6, 64, 0x9a);
  SendOn(0, 7, 64, 0x9b);
  EXPECT_EQ(device_.MsixAsserts(3), 4u);
}

TEST_F(NicMqTest, MsixCountersOfAbsentVectorsReadZero) {
  sim::VirtualClock clock;
  device_.AttachClock(&clock);
  SetupTxQueue(0);
  Write32(IVAR(0), (IVAR_VALID | 0u) << IVAR_TX_SHIFT);
  Write32(REG_EIMS, 1u);
  Write32(EITR(0), 10000);
  for (uint32_t i = 0; i < 3; ++i) SendOn(0, i, 64, uint8_t(i));
  ASSERT_EQ(device_.MsixAsserts(0), 1u);
  ASSERT_EQ(device_.MsixThrottled(0), 2u);
  EXPECT_EQ(device_.MsixAsserts(kMaxVectors), 0u);
  EXPECT_EQ(device_.MsixThrottled(kMaxVectors), 0u);
  EXPECT_EQ(device_.MsixAsserts(UINT32_MAX), 0u);
  EXPECT_EQ(device_.MsixThrottled(UINT32_MAX), 0u);
}

TEST_F(NicMqTest, RssSpreadsFlowsDeterministically) {
  for (uint32_t q = 0; q < 4; ++q) SetupRxQueue(q);
  Write32(REG_MRQC, MRQC_ENABLE | (4u << MRQC_QUEUES_SHIFT));
  // 32 flows (distinct MAC pairs): every frame lands on the queue the
  // hash picks, the same flow always lands on the same queue, and all
  // frames are delivered somewhere.
  uint64_t per_queue[4] = {};
  uint32_t rdt[4] = {kRingEntries - 1, kRingEntries - 1, kRingEntries - 1,
                     kRingEntries - 1};
  for (uint8_t flow = 0; flow < 32; ++flow) {
    std::vector<uint8_t> frame(64, 0);
    frame[5] = flow;        // dst MAC low byte
    frame[11] = uint8_t(flow * 7);  // src MAC low byte
    const uint32_t expect_q = device_.RouteRxQueue(frame);
    ASSERT_LT(expect_q, 4u);
    EXPECT_EQ(device_.RouteRxQueue(frame), expect_q);  // stable
    ASSERT_TRUE(device_.ReceiveFrame(frame)) << int(flow);
    ++per_queue[expect_q];
    // Software re-arms the consumed slot (RDT chases RDH).
    rdt[expect_q] = (rdt[expect_q] + 1) % kRingEntries;
    Write32(QReg(REG_RDT, expect_q), rdt[expect_q]);
  }
  uint64_t total = 0;
  uint32_t used = 0;
  for (uint32_t q = 0; q < 4; ++q) {
    EXPECT_EQ(device_.QueueStats(q).frames_received, per_queue[q]) << q;
    total += per_queue[q];
    if (per_queue[q] > 0) ++used;
  }
  EXPECT_EQ(total, 32u);
  EXPECT_GE(used, 3u);  // 32 flows over 4 queues: hash spreads
  // MRQC disabled: everything routes to queue 0 again.
  Write32(REG_MRQC, 0);
  EXPECT_EQ(device_.RouteRxQueue(std::vector<uint8_t>(64, 0xab)), 0u);
}

TEST_F(NicMqTest, ReceiveFrameOnBypassesRss) {
  SetupRxQueue(3);
  ASSERT_TRUE(device_.ReceiveFrameOn(3, std::vector<uint8_t>(80, 0x71)));
  EXPECT_EQ(device_.QueueStats(3).frames_received, 1u);
  EXPECT_EQ(device_.QueueStats(0).frames_received, 0u);
  EXPECT_EQ(Read32(QReg(REG_RDH, 3)), 1u);
  // Queue with no ring set up drops.
  EXPECT_FALSE(device_.ReceiveFrameOn(5, std::vector<uint8_t>(80, 0x72)));
  EXPECT_EQ(device_.QueueStats(5).rx_dropped, 1u);
}

TEST_F(NicTest, SinkRetainsRecentFrames) {
  CountingSink sink(2);
  sink.Deliver({1});
  sink.Deliver({2});
  sink.Deliver({3});
  const auto recent = sink.RecentFrames();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0], std::vector<uint8_t>{2});
  EXPECT_EQ(recent[1], std::vector<uint8_t>{3});
  EXPECT_EQ(sink.packets(), 3u);
  sink.Reset();
  EXPECT_EQ(sink.packets(), 0u);
}

}  // namespace
}  // namespace kop::nic
