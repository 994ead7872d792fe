// The assembled systems the workloads drive, built only from the
// repository's public entry points: a simulated kernel, the e1000 device
// model, the policy module, and either a native Driver<Ops> or the KIR
// kop_knic module loaded through the real loader. A rig built with a
// Ledger routes the device's MMIO window and the socket's NetDevice
// through timing wrappers; a rig built without one is wired exactly as
// the repository's own benches and tests wire it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/net/socket.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/policy/policy_module.hpp"

namespace kop::perfbench {

/// Which driver build a rig runs: the guarded native driver, its
/// RawMemOps companion (the unguarded floor), or KIR kop_knic.
enum class DriverKind { kGuarded, kRaw, kKir };

/// Order-independent fingerprint of one frame's bytes.
uint64_t FrameHash(const uint8_t* data, size_t size);

/// The wire: counts and fingerprints every transmitted frame.
class HashingSink final : public nic::PacketSink {
 public:
  void Deliver(const std::vector<uint8_t>& frame) override {
    ++packets_;
    digest_ += FrameHash(frame.data(), frame.size());
  }
  uint64_t packets() const { return packets_; }
  uint64_t digest() const { return digest_; }

 private:
  uint64_t packets_ = 0;
  uint64_t digest_ = 0;
};

/// Mapped at the BAR in place of E1000Device::MapAt: every register
/// access is a kNic span and is counted.
class TimedMmio final : public kernel::MmioDevice {
 public:
  TimedMmio(nic::E1000Device* device, Ledger* ledger)
      : device_(device), ledger_(ledger) {}
  uint64_t MmioRead(uint64_t offset, uint32_t size) override {
    ++ops_;
    LedgerScope span(ledger_, Layer::kNic);
    return device_->MmioRead(offset, size);
  }
  void MmioWrite(uint64_t offset, uint64_t value, uint32_t size) override {
    ++ops_;
    LedgerScope span(ledger_, Layer::kNic);
    device_->MmioWrite(offset, value, size);
  }
  uint64_t ops() const { return ops_; }

 private:
  nic::E1000Device* device_;
  Ledger* ledger_;
  uint64_t ops_ = 0;
};

/// The socket's view of the driver, with Xmit and CleanTx as spans.
class TimedNetDevice final : public net::NetDevice {
 public:
  TimedNetDevice(net::NetDevice* inner, Ledger* ledger, Layer xmit_layer)
      : inner_(inner), ledger_(ledger), xmit_layer_(xmit_layer) {}
  Status Xmit(uint64_t frame_addr, uint32_t len) override {
    LedgerScope span(ledger_, xmit_layer_);
    return inner_->Xmit(frame_addr, len);
  }
  Status CleanTx() override {
    LedgerScope span(ledger_, Layer::kNapi);
    return inner_->CleanTx();
  }

 private:
  net::NetDevice* inner_;
  Ledger* ledger_;
  Layer xmit_layer_;
};

/// One policy-manager update cycle on /dev/carat: add a region over
/// `addr`, prove with Check that the decision flipped, remove it, prove
/// it flipped back. Each of the two updates is timed from issuing the
/// ioctl to the first Check that decides against the new frame.
class PolicyUpdater {
 public:
  PolicyUpdater(kernel::Kernel* kernel, policy::PolicyEngine* engine,
                uint64_t addr, uint32_t prot);

  void RunCycle();

  uint64_t updates() const { return updates_; }
  uint64_t frames_published() const { return frames_; }
  const std::vector<double>& enforce_us() const { return enforce_us_; }
  const std::vector<double>& ioctl_us() const { return ioctl_us_; }
  const std::vector<double>& republish_us() const { return republish_us_; }
  /// Host time (NowNs) each update was issued at.
  const std::vector<uint64_t>& issued_ns() const { return issued_ns_; }

 private:
  /// Returns the enforcing Check's decision.
  bool TimedUpdate(const std::vector<uint8_t>& packed, uint32_t cmd);

  kernel::Kernel* kernel_;
  policy::PolicyEngine* engine_;
  uint64_t addr_;
  bool allowed_before_;
  std::vector<uint8_t> add_arg_;
  std::vector<uint8_t> remove_arg_;
  uint64_t updates_ = 0;
  uint64_t frames_ = 0;
  std::vector<double> enforce_us_;
  std::vector<double> ioctl_us_;
  std::vector<double> republish_us_;
  std::vector<uint64_t> issued_ns_;
};

/// Update cycles per burst: the first decides against cold caches, the
/// rest against warm ones, so the median is the steady-state cost.
inline constexpr int kUpdateCyclesPerBurst = 8;

/// One assembled workload instance. Member order is teardown order
/// reversed: everything that lives in simulated memory goes before the
/// kernel that owns it.
class Rig {
 public:
  virtual ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Exactly kBlockPackets packets; any failed operation throws.
  virtual void RunBlock() = 0;
  /// Untimed work between blocks: a burst of policy update cycles at the
  /// workload's fixed block interval, then driver housekeeping.
  void BetweenBlocks() {
    if (++blocks_ % update_every_blocks_ == 0) {
      for (int i = 0; i < kUpdateCyclesPerBurst; ++i) updater_->RunCycle();
    }
    Housekeeping();
  }
  /// Verify every output against what the workload sent.
  virtual void CheckOutputs() = 0;
  /// An address the driver touches on every packet.
  virtual uint64_t hot_addr() = 0;
  /// Addresses whose guards a packet decides (for lookup depth where the
  /// engine records none: the inline KIR path).
  virtual std::vector<uint64_t> guarded_addrs() { return {hot_addr()}; }

  kernel::Kernel& kernel() { return *kernel_; }
  policy::PolicyEngine& engine() { return policy_->engine(); }
  PolicyUpdater& updater() { return *updater_; }
  virtual kernel::LoadedModule* module() { return nullptr; }
  /// KIR steps retired since the rig was built (0 for native drivers).
  virtual uint64_t kir_steps() { return 0; }
  uint64_t mmio_ops() const { return mmio_ ? mmio_->ops() : 0; }

  /// Packets sent plus policy updates issued.
  uint64_t attempted() const { return sent_ + updater_->updates(); }

  /// Per-operation virtual latency samples, kept while recording.
  void set_record_virtual(bool on) { record_virtual_ = on; }
  const std::vector<double>& vlat() const { return vlat_; }

  double compile_ns() const { return compile_ns_; }
  double insmod_ns() const { return insmod_ns_; }

 protected:
  Rig(uint64_t seed, Ledger* ledger, policy::PolicyMode mode,
      uint64_t update_every_blocks);
  virtual void Housekeeping() {}
  /// Issue a region ioctl on /dev/carat.
  void AddRegion(uint64_t base, uint64_t len, uint32_t prot);
  void CheckPolicyClean();

  uint64_t seed_;
  Ledger* ledger_;
  uint64_t update_every_blocks_;
  uint64_t blocks_ = 0;
  std::unique_ptr<kernel::Kernel> kernel_;
  HashingSink sink_;
  std::unique_ptr<nic::E1000Device> device_;
  std::unique_ptr<TimedMmio> mmio_;
  std::unique_ptr<policy::PolicyModule> policy_;
  std::unique_ptr<PolicyUpdater> updater_;
  uint64_t sent_ = 0;
  uint64_t expected_digest_ = 0;
  bool record_virtual_ = false;
  std::vector<double> vlat_;
  double compile_ns_ = 0;
  double insmod_ns_ = 0;
};

/// sock_native / sock_kir and the sock_native raw companion.
std::unique_ptr<Rig> MakeSockRig(DriverKind kind, uint64_t seed,
                                 Ledger* ledger);
/// mq_churn and its raw companion.
std::unique_ptr<Rig> MakeMqRig(DriverKind kind, uint64_t seed, Ledger* ledger);

}  // namespace kop::perfbench
