// The raw-packet socket layer: the core-kernel path between the test
// tool's sendmsg() and the driver's xmit_frame. Core-kernel code is NOT
// transformed by CARAT KOP — only the module is — so this layer performs
// plain (unguarded) work: syscall entry, copying the frame from user
// space into the skb, then handing the skb to the bound net device.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/util/rng.hpp"
#include "kop/util/status.hpp"

namespace kop::net {

/// What the socket layer needs from a driver. Adapts both Driver<Ops>
/// instantiations (and anything else that can transmit).
class NetDevice {
 public:
  virtual ~NetDevice() = default;
  /// Queue a frame whose bytes sit in simulated memory.
  virtual Status Xmit(uint64_t frame_addr, uint32_t len) = 0;
  /// Reclaim completed descriptors (the interrupt path's job).
  virtual Status CleanTx() = 0;
};

template <typename DriverT>
class DriverNetDevice final : public NetDevice {
 public:
  explicit DriverNetDevice(DriverT* driver) : driver_(driver) {}
  Status Xmit(uint64_t frame_addr, uint32_t len) override {
    if (down_) return PermissionDenied("netdev down: driver contained");
    try {
      return driver_->XmitFrame(frame_addr, len);
    } catch (const kernel::GuardViolation&) {
      // The driver (or a guarded module it called into) was contained
      // mid-transmit. Degrade: mark the device down and report a soft
      // error — core-kernel code must never re-enter a contained driver.
      down_ = true;
      return PermissionDenied("netdev down: driver contained during xmit");
    }
  }
  Status CleanTx() override {
    if (down_) return PermissionDenied("netdev down: driver contained");
    try {
      auto cleaned = driver_->CleanTxRing();
      return cleaned.ok() ? OkStatus() : cleaned.status();
    } catch (const kernel::GuardViolation&) {
      down_ = true;
      return PermissionDenied("netdev down: driver contained during tx clean");
    }
  }

 private:
  DriverT* driver_;
  bool down_ = false;
};

/// NetDevice over a loaded (guarded) KIR driver module, e.g. kop_knic.
/// The module owns the TX path: its xmit entry point builds the
/// descriptor and rings the doorbell, DMA-ing from the module's own
/// frame buffer (so `frame_addr` is unused — the frame must already be
/// staged there, e.g. via knic_fill).
///
/// Degradation is the point of this adapter: a quarantined or
/// mid-restart driver yields an ENETDOWN-style soft error from Xmit
/// instead of a fault from dereferencing dead driver state. Containment
/// inside the module (rollback + quarantine/restart) happens in
/// LoadedModule::Call; this layer only translates the outcome for the
/// socket path.
class ModuleNetDevice final : public NetDevice {
 public:
  ModuleNetDevice(kernel::LoadedModule* module, uint64_t mmio_base,
                  std::string xmit_fn = "knic_send")
      : module_(module), mmio_base_(mmio_base),
        xmit_fn_(std::move(xmit_fn)) {}

  Status Xmit(uint64_t frame_addr, uint32_t len) override {
    (void)frame_addr;  // the guarded driver transmits from its own buffer
    if (module_->quarantined()) {
      return PermissionDenied("netdev down: driver '" + module_->name() +
                              "' is quarantined");
    }
    auto sent = module_->Call(xmit_fn_, {mmio_base_, len});
    if (!sent.ok()) {
      return PermissionDenied("netdev down: driver '" + module_->name() +
                              "' xmit contained: " + sent.status().message());
    }
    return OkStatus();
  }

  Status CleanTx() override {
    // The simulated NIC completes descriptors on the doorbell write; a
    // real driver's IRQ-side reclaim has no work to do here.
    return OkStatus();
  }

 private:
  kernel::LoadedModule* module_;
  uint64_t mmio_base_;
  std::string xmit_fn_;
};

struct SendmsgResult {
  /// Cycles spent inside the call, as the tool's rdtsc pair would see.
  uint64_t latency_cycles = 0;
  bool blocked = false;  // hit the ring-full/deschedule path
};

/// A bound packet socket (one per experiment).
class PacketSocket {
 public:
  /// `noise_seed` drives the per-packet microarchitectural noise drawn
  /// from the kernel's machine model. The skb buffer is allocated from
  /// the simulated heap at construction.
  PacketSocket(kernel::Kernel* kernel, NetDevice* device,
               uint64_t noise_seed = 1);
  ~PacketSocket();
  PacketSocket(const PacketSocket&) = delete;
  PacketSocket& operator=(const PacketSocket&) = delete;

  /// The syscall: copy `frame` into the skb (charged per byte), invoke
  /// the driver, apply the machine model's noise terms. Returns the
  /// interior latency in cycles.
  Result<SendmsgResult> Sendmsg(const std::vector<uint8_t>& frame);

  /// Toggle the stochastic noise/outlier model (off = fully deterministic
  /// costs, used by unit tests).
  void set_noise_enabled(bool on) { noise_enabled_ = on; }

  uint64_t skb_addr() const { return skb_addr_; }

 private:
  kernel::Kernel* kernel_;
  NetDevice* device_;
  uint64_t skb_addr_ = 0;
  Xoshiro256 rng_;
  bool noise_enabled_ = true;
};

}  // namespace kop::net
