// Where transmitted frames go. The paper's testbed attaches the NIC to
// "a packet sink"; ours counts frames/bytes and, when asked, retains the
// most recent ones for inspection. Sinks are thread-safe: with the
// multi-queue device, concurrent queue sweeps on different CPUs deliver
// into the same sink.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "kop/smp/percpu.hpp"
#include "kop/util/ring_buffer.hpp"
#include "kop/util/single_writer.hpp"

namespace kop::nic {

class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void Deliver(const std::vector<uint8_t>& frame) = 0;
};

/// External loopback plug: every transmitted frame reappears on the
/// receive side of the same (or another) device — the software analogue
/// of the loopback dongle every NIC lab drawer contains. Optionally
/// counts what passed through.
class LoopbackWire : public PacketSink {
 public:
  /// `receiver` is set after device construction (the wire and the device
  /// reference each other).
  LoopbackWire() = default;

  void AttachReceiver(class E1000Device* receiver) { receiver_ = receiver; }

  void Deliver(const std::vector<uint8_t>& frame) override;

  uint64_t forwarded() const {
    return forwarded_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  friend class E1000Device;
  class E1000Device* receiver_ = nullptr;
  std::atomic<uint64_t> forwarded_{0};
  std::atomic<uint64_t> dropped_{0};
};

class CountingSink : public PacketSink {
 public:
  /// Counts every frame. With `retain` > 0 it also keeps copies of the
  /// last `retain` frames for test inspection, behind a lock; the default
  /// keeps none, and Deliver is then two per-CPU counter bumps.
  explicit CountingSink(size_t retain = 0) {
    if (retain != 0) {
      recent_ = std::make_unique<RingBuffer<std::vector<uint8_t>>>(retain);
    }
  }

  /// Each CPU's queue sweep bumps its own slot (single writer, same
  /// contract as the NIC's TX counters); readers fold the slots.
  void Deliver(const std::vector<uint8_t>& frame) override {
    Counts& mine = counts_.Mine();
    BumpRelaxed(mine.packets);
    BumpRelaxed(mine.bytes, frame.size());
    if (recent_ != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      recent_->push(frame);
    }
  }

  uint64_t packets() const { return Fold(&Counts::packets); }
  uint64_t bytes() const { return Fold(&Counts::bytes); }

  /// The retained frames, oldest first; empty without retention.
  std::vector<std::vector<uint8_t>> RecentFrames() const {
    if (recent_ == nullptr) return {};
    std::lock_guard<std::mutex> lock(mu_);
    return recent_->snapshot();
  }

  /// Zero the counts and drop retained frames. Call with no Deliver in
  /// flight.
  void Reset() {
    counts_.ForEach([](uint32_t, Counts& c) {
      c.packets.store(0, std::memory_order_relaxed);
      c.bytes.store(0, std::memory_order_relaxed);
    });
    if (recent_ == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    recent_->clear();
  }

 private:
  struct Counts {
    std::atomic<uint64_t> packets{0};
    std::atomic<uint64_t> bytes{0};
  };

  uint64_t Fold(std::atomic<uint64_t> Counts::*field) const {
    uint64_t sum = 0;
    counts_.ForEach([&](uint32_t, const Counts& c) {
      sum += (c.*field).load(std::memory_order_relaxed);
    });
    return sum;
  }

  smp::PerCpu<Counts> counts_;
  mutable std::mutex mu_;
  std::unique_ptr<RingBuffer<std::vector<uint8_t>>> recent_;
};

}  // namespace kop::nic
