#include "rigs.hpp"

#include <cstring>
#include <string>

#include "kop/e1000e/driver.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/net/frame.hpp"
#include "kop/policy/ioctl_abi.hpp"
#include "kop/signing/signer.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/util/carat_abi.hpp"
#include "kop/util/rng.hpp"

namespace kop::perfbench {
namespace {

constexpr uint64_t kMmio = kernel::kVmallocBase;
constexpr uint32_t kRingEntries = 256;

/// sock_*: 128-byte frames (Figures 3/5/7), a pool of seeded frames.
constexpr uint32_t kSockFrameBytes = 128;
constexpr uint32_t kSockFramePool = 64;

/// mq_churn: 4 queues served round-robin, 16-frame doorbell batches of
/// pre-padded minimum-size frames.
constexpr uint32_t kMqQueues = 4;
constexpr uint32_t kMqBurst = 16;
constexpr uint32_t kMqFrameBytes = 60;
constexpr uint32_t kMqNapiBudget = 32;
/// Arrivals: a pool of seeded frames of seeded size in [96, 160] bytes,
/// one per burst, landing on the queue being served.
constexpr uint32_t kMqRxFlows = 16;
constexpr uint32_t kMqRxMinBytes = 96;
constexpr uint32_t kMqRxMaxBytes = 160;
/// The paper's 64-entry table minus the slot the update cycle uses.
constexpr uint32_t kMqProtectedObjects = 63;
constexpr uint32_t kMqObjectBytes = 64;
/// One burst of policy update cycles per this many blocks: every 64
/// bursts on mq_churn, where updates are part of the workload; rarely on
/// sock_*, only so the update metrics have samples spread over the run.
constexpr uint64_t kMqUpdateEveryBlocks = 16;
constexpr uint64_t kSockUpdateEveryBlocks = 64;

static_assert(kMqQueues * kMqBurst == kBlockPackets);

/// Small RAM map: set-up cost is the kernel's, not a 150 MB memset.
kernel::KernelConfig BenchKernelConfig() {
  kernel::KernelConfig config;
  config.ram_bytes = 8ull << 20;
  config.kernel_text_bytes = 1ull << 20;
  config.module_area_bytes = 4ull << 20;
  config.user_bytes = 1ull << 20;
  config.machine = sim::MachineModel::R350();
  return config;
}

/// Independent streams derived from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  SplitMix64 mix(seed * 0x9E3779B97F4A7C15ull + stream);
  return mix.Next();
}

uint64_t WireDigest(const std::vector<uint8_t>& wire) {
  return FrameHash(wire.data(), wire.size());
}

/// The driver's memory ops, bound to the rig's kernel (and its policy
/// engine for the guarded build).
template <typename Ops>
Ops MakeOps(kernel::Kernel* kernel, policy::PolicyEngine* engine) {
  if constexpr (Ops::kGuarded) {
    return Ops(kernel, engine);
  } else {
    (void)engine;
    return Ops(kernel);
  }
}

}  // namespace

uint64_t FrameHash(const uint8_t* data, size_t size) {
  uint64_t h = 0x243F6A8885A308D3ull ^ size;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    h = (h ^ word) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  }
  for (; i < size; ++i) h = (h ^ data[i]) * 0x100000001B3ull;
  return h ^ (h >> 32);
}

// ------------------------------------------------------------ updater --

PolicyUpdater::PolicyUpdater(kernel::Kernel* kernel,
                             policy::PolicyEngine* engine, uint64_t addr,
                             uint32_t prot)
    : kernel_(kernel),
      engine_(engine),
      addr_(addr),
      allowed_before_(engine->Check(addr, 8, kGuardAccessWrite)),
      add_arg_(policy::PackArg(
          policy::CaratRegionArg{addr, 64, prot, 0})),
      remove_arg_(policy::PackArg(policy::CaratRegionArg{addr, 64, 0, 0})) {}

bool PolicyUpdater::TimedUpdate(const std::vector<uint8_t>& packed,
                                uint32_t cmd) {
  std::vector<uint8_t> arg = packed;
  const uint64_t frames_before = engine_->frames_published();
  const uint64_t t0 = NowNs();
  const Status status =
      kernel_->devices().Ioctl(policy::kCaratDevicePath, cmd, arg);
  const uint64_t t1 = NowNs();
  const bool allowed = engine_->Check(addr_, 8, kGuardAccessWrite);
  const uint64_t t2 = NowNs();
  Require(status, "policy update ioctl");
  ++updates_;
  frames_ += engine_->frames_published() - frames_before;
  enforce_us_.push_back(static_cast<double>(t2 - t0) / 1e3);
  ioctl_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
  republish_us_.push_back(static_cast<double>(t2 - t1) / 1e3);
  issued_ns_.push_back(t0);
  return allowed;
}

void PolicyUpdater::RunCycle() {
  Expect(TimedUpdate(add_arg_, policy::KOP_IOCTL_ADD_REGION) !=
             allowed_before_,
         "policy update: added region not enforced by Check");
  Expect(TimedUpdate(remove_arg_, policy::KOP_IOCTL_REMOVE_REGION) ==
             allowed_before_,
         "policy update: removed region still enforced by Check");
}

// ---------------------------------------------------------------- rig --

Rig::Rig(uint64_t seed, Ledger* ledger, policy::PolicyMode mode,
         uint64_t update_every_blocks)
    : seed_(seed),
      ledger_(ledger),
      update_every_blocks_(update_every_blocks),
      kernel_(std::make_unique<kernel::Kernel>(BenchKernelConfig())) {
  device_ = std::make_unique<nic::E1000Device>(&kernel_->mem(), &sink_);
  device_->AttachClock(&kernel_->clock());
  if (ledger_ != nullptr) {
    mmio_ = std::make_unique<TimedMmio>(device_.get(), ledger_);
    Require(kernel_->mem().MapMmio("e1000e-bar0", kMmio, nic::kMmioBarSize,
                                   mmio_.get()),
            "map timed BAR");
  } else {
    Require(device_->MapAt(kMmio), "map BAR");
  }
  policy_ = Take(policy::PolicyModule::Insert(kernel_.get(), nullptr, mode),
                 "insert policy module");
  policy_->engine().SetViolationAction(policy::ViolationAction::kPanic);
}

Rig::~Rig() = default;

void Rig::AddRegion(uint64_t base, uint64_t len, uint32_t prot) {
  std::vector<uint8_t> arg =
      policy::PackArg(policy::CaratRegionArg{base, len, prot, 0});
  Require(kernel_->devices().Ioctl(policy::kCaratDevicePath,
                                   policy::KOP_IOCTL_ADD_REGION, arg),
          "policy region ioctl");
}

void Rig::CheckPolicyClean() {
  Expect(!kernel_->panicked(), "kernel panicked: " + kernel_->panic_reason());
  Expect(policy_->engine().stats().denied == 0, "policy denied an access");
  Expect(sink_.packets() == sent_,
         "sink saw " + std::to_string(sink_.packets()) + " frames, sent " +
             std::to_string(sent_));
  Expect(sink_.digest() == expected_digest_, "sink frame bytes differ");
}

namespace {

// ------------------------------------------------------------- sock_* --

/// PacketSocket::Sendmsg into a NetDevice, 64 sends per block, then one
/// CleanTx (the TX-complete interrupt). The paper's two-region default-
/// deny policy: allow the kernel high half, deny the user low half.
class SockRig : public Rig {
 public:
  SockRig(uint64_t seed, Ledger* ledger)
      : Rig(seed, ledger, policy::PolicyMode::kDefaultDeny,
            kSockUpdateEveryBlocks) {
    AddRegion(kernel::kKernelHalfBase, ~uint64_t{0} - kernel::kKernelHalfBase,
              policy::kProtRW);
    AddRegion(0, kernel::kUserSpaceEnd, policy::kProtNone);
    const net::FlowSet flows(kSockFramePool, SubSeed(seed, 1),
                             {kSockFrameBytes});
    for (uint32_t f = 0; f < kSockFramePool; ++f) {
      wires_.push_back(flows.MakeWire(f, 0));
    }
    // The update cycle grants a 64-byte window in the non-canonical hole
    // no region covers, so default-deny flips to allow and back.
    const uint64_t hole =
        kernel::kUserSpaceEnd + ((SubSeed(seed, 2) % (1ull << 32)) << 6);
    updater_ = std::make_unique<PolicyUpdater>(
        kernel_.get(), &policy_->engine(), hole, policy::kProtRW);
  }

  void RunBlock() override {
    for (uint32_t i = 0; i < kBlockPackets; ++i) {
      const size_t index = sent_ % wires_.size();
      net::SendmsgResult sent;
      {
        LedgerScope span(ledger_, Layer::kNet);
        sent = Take(socket_->Sendmsg(wires_[index]), "sendmsg");
      }
      if (record_virtual_) {
        vlat_.push_back(static_cast<double>(sent.latency_cycles));
      }
      ++sent_;
      expected_digest_ += SentDigest(index);
    }
    Require(netdev_->CleanTx(), "tx-complete reclaim");
  }

 protected:
  /// Finish construction once the derived class has its NetDevice.
  void Attach(net::NetDevice* device, Layer xmit_layer) {
    netdev_ = device;
    if (ledger_ != nullptr) {
      timed_ = std::make_unique<TimedNetDevice>(device, ledger_, xmit_layer);
      netdev_ = timed_.get();
    }
    socket_ = std::make_unique<net::PacketSocket>(kernel_.get(), netdev_,
                                                  SubSeed(seed_, 3));
    Expect(socket_->skb_addr() != 0, "socket has no skb");
  }
  virtual uint64_t SentDigest(size_t wire_index) const {
    return WireDigest(wires_[wire_index]);
  }

  std::vector<std::vector<uint8_t>> wires_;
  net::NetDevice* netdev_ = nullptr;
  std::unique_ptr<TimedNetDevice> timed_;
  std::unique_ptr<net::PacketSocket> socket_;
};

template <typename Ops>
class NativeSockRig final : public SockRig {
 public:
  using DriverT = e1000e::Driver<Ops>;

  NativeSockRig(uint64_t seed, Ledger* ledger) : SockRig(seed, ledger) {
    driver_ = std::make_unique<DriverT>(
        Take(DriverT::Probe(MakeOps<Ops>(kernel_.get(), &policy_->engine()),
                            kMmio, kRingEntries),
             "e1000e probe"));
    plain_ = std::make_unique<net::DriverNetDevice<DriverT>>(driver_.get());
    Attach(plain_.get(), Layer::kXmit);
  }

  void CheckOutputs() override {
    CheckPolicyClean();
    const e1000e::DriverCounters counters =
        Take(driver_->Counters(), "driver counters");
    Expect(counters.tx_packets == sent_, "driver tx_packets != sent");
    Expect(Take(driver_->HwGoodPacketsTransmitted(), "GPTC") ==
               (sent_ & 0xffffffffu),
           "device GPTC != sent");
  }

  uint64_t hot_addr() override { return driver_->adapter_addr(); }

 private:
  std::unique_ptr<DriverT> driver_;
  std::unique_ptr<net::DriverNetDevice<DriverT>> plain_;
};

/// kop_knic compiled, signed, and insmod-ed on the bytecode engine, sent
/// through ModuleNetDevice -> LoadedModule::Call("knic_send").
class KirSockRig final : public SockRig {
 public:
  KirSockRig(uint64_t seed, Ledger* ledger) : SockRig(seed, ledger) {
    transform::CompileOptions options;
    options.inject_guards = true;
    options.elide_guards = true;
    options.inject_cfi_checks = true;
    uint64_t t0 = NowNs();
    transform::CompileOutput compiled = Take(
        transform::CompileModuleText(kirmods::KnicSource(), options),
        "compile kop_knic");
    compile_ns_ = static_cast<double>(NowNs() - t0);
    const signing::SigningKey key = signing::SigningKey::DevelopmentKey();
    const signing::SignedModule image =
        signing::SignModule(compiled.text, compiled.attestation, key);
    signing::Keyring keyring;
    keyring.Trust(key);
    loader_ = std::make_unique<kernel::ModuleLoader>(kernel_.get(), keyring);
    loader_->set_engine(kernel::ExecEngine::kBytecode);
    loader_->set_verify_mode(kernel::VerifyMode::kBoth);
    t0 = NowNs();
    module_ = Take(loader_->Insmod(image), "insmod kop_knic");
    insmod_ns_ = static_cast<double>(NowNs() - t0);
    Expect(module_->engine_name() == "bytecode", "knic not on bytecode VM");
    Expect(Take(module_->Call("knic_init", {kMmio}), "knic_init") == 1,
           "knic_init failed");
    const uint64_t fill = SubSeed(seed, 4) & 0xff;
    Take(module_->Call("knic_fill", {kSockFrameBytes, fill}), "knic_fill");
    std::vector<uint8_t> frame(kSockFrameBytes);
    for (uint32_t i = 0; i < kSockFrameBytes; ++i) {
      frame[i] = static_cast<uint8_t>(i + fill);
    }
    frame_digest_ = FrameHash(frame.data(), frame.size());
    plain_ = std::make_unique<net::ModuleNetDevice>(module_, kMmio);
    Attach(plain_.get(), Layer::kCall);
  }

  void CheckOutputs() override {
    CheckPolicyClean();
    Expect(!module_->quarantined(),
           "knic quarantined: " + module_->quarantine_reason());
    const uint64_t own = Take(
        kernel_->mem().Read64(Take(module_->GlobalAddress("sent"), "@sent")),
        "read @sent");
    Expect(own == sent_, "knic @sent != sent");
    Expect(Take(module_->Call("knic_sent_hw", {kMmio}), "knic_sent_hw") ==
               (own & 0xffffffffu),
           "knic_sent_hw != knic @sent");
  }

  uint64_t hot_addr() override {
    return Take(module_->GlobalAddress("tail"), "@tail");
  }
  std::vector<uint64_t> guarded_addrs() override {
    return {hot_addr(), Take(module_->GlobalAddress("txring"), "@txring"),
            Take(module_->GlobalAddress("sent"), "@sent"),
            kMmio + nic::REG_TDT};
  }
  kernel::LoadedModule* module() override { return module_; }

  void Housekeeping() override {
    // The VM's lifetime step budget (InterpConfig::max_steps) counts from
    // the last stats reset and would stop the driver a few million
    // packets in; fold the count and reset it between blocks.
    steps_ += module_->exec_stats().steps;
    module_->ResetExecStats();
  }
  uint64_t kir_steps() override {
    return steps_ + module_->exec_stats().steps;
  }

 protected:
  uint64_t SentDigest(size_t) const override { return frame_digest_; }

 private:
  std::unique_ptr<kernel::ModuleLoader> loader_;
  kernel::LoadedModule* module_ = nullptr;
  std::unique_ptr<net::ModuleNetDevice> plain_;
  uint64_t frame_digest_ = 0;
  uint64_t steps_ = 0;
};

// ----------------------------------------------------------- mq_churn --

/// ProbeMq with 4 queues, served round-robin: XmitBatch of 16 staged
/// frames, one seeded frame arriving on the queue's RX ring, NapiPoll. Default-allow policy with 63 protected heap objects the
/// driver never touches, so every guard scans the full table and misses.
template <typename Ops>
class MqRig final : public Rig {
 public:
  using DriverT = e1000e::Driver<Ops>;

  MqRig(uint64_t seed, Ledger* ledger)
      : Rig(seed, ledger, policy::PolicyMode::kDefaultAllow,
            kMqUpdateEveryBlocks) {
    // Seeded placement: a few pad allocations of seeded size between the
    // objects, and a seeded choice of which one the update cycle uses.
    Xoshiro256 rng(SubSeed(seed, 5));
    std::vector<uint64_t> objects;
    for (uint32_t i = 0; i <= kMqProtectedObjects; ++i) {
      for (uint64_t pad = rng.NextBelow(3); pad > 0; --pad) {
        Take(kernel_->heap().Kmalloc(64 * (1 + rng.NextBelow(8)), 64),
             "pad kmalloc");
      }
      objects.push_back(
          Take(kernel_->heap().Kmalloc(kMqObjectBytes, 64), "object kmalloc"));
    }
    const size_t spare = rng.NextBelow(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      if (i != spare) AddRegion(objects[i], kMqObjectBytes, policy::kProtNone);
    }
    updater_ = std::make_unique<PolicyUpdater>(
        kernel_.get(), &policy_->engine(), objects[spare], policy::kProtNone);

    driver_ = std::make_unique<DriverT>(
        Take(DriverT::ProbeMq(MakeOps<Ops>(kernel_.get(), &policy_->engine()),
                              kMmio, kRingEntries, kMqQueues),
             "probe mq"));

    const net::FlowSet tx(kBlockPackets, SubSeed(seed, 6), {kMqFrameBytes});
    for (uint32_t q = 0; q < kMqQueues; ++q) {
      for (uint32_t s = 0; s < kMqBurst; ++s) {
        const std::vector<uint8_t> wire = tx.MakeWire(q * kMqBurst + s, 0);
        const uint64_t addr =
            Take(kernel_->heap().Kmalloc(wire.size(), 64), "stage kmalloc");
        Require(kernel_->mem().Write(addr, wire.data(), wire.size()),
                "stage frame");
        frames_[q][s] = e1000e::TxFrame{addr, kMqFrameBytes};
        burst_digest_[q] += FrameHash(wire.data(), wire.size());
      }
    }
    std::vector<uint32_t> rx_sizes;
    for (uint32_t f = 0; f < kMqRxFlows; ++f) {
      rx_sizes.push_back(static_cast<uint32_t>(
          rng.NextInRange(kMqRxMinBytes, kMqRxMaxBytes)));
    }
    const net::FlowSet rx(kMqRxFlows, SubSeed(seed, 7), rx_sizes);
    for (uint32_t f = 0; f < kMqRxFlows; ++f) {
      rx_wires_.push_back(rx.MakeWire(f, 0));
    }
  }

  void RunBlock() override {
    for (uint32_t q = 0; q < kMqQueues; ++q) {
      const double v0 = kernel_->clock().NowCycles();
      uint32_t queued = 0;
      {
        LedgerScope span(ledger_, Layer::kXmit);
        Require(driver_->XmitBatch(q, frames_[q], kMqBurst, &queued),
                "XmitBatch");
      }
      Expect(queued == kMqBurst, "XmitBatch queued a short batch");
      sent_ += queued;
      expected_digest_ += burst_digest_[q];
      {
        LedgerScope span(ledger_, Layer::kNic);
        Expect(device_->ReceiveFrameOn(q, rx_wires_[received_ % kMqRxFlows]),
               "wire arrival dropped");
      }
      ++received_;
      {
        LedgerScope span(ledger_, Layer::kNapi);
        Take(driver_->NapiPoll(q, kMqNapiBudget, nullptr), "NapiPoll");
      }
      if (record_virtual_) {
        vlat_.push_back((kernel_->clock().NowCycles() - v0) / kMqBurst);
      }
    }
  }

  void CheckOutputs() override {
    // Drain what the last polls left behind before counting.
    for (uint32_t q = 0; q < kMqQueues; ++q) {
      Take(driver_->NapiPoll(q, kRingEntries, nullptr), "final NapiPoll");
    }
    CheckPolicyClean();
    uint64_t tx = 0;
    uint64_t rx = 0;
    for (uint32_t q = 0; q < kMqQueues; ++q) {
      const e1000e::DriverCounters c =
          Take(driver_->CountersOn(q), "queue counters");
      tx += c.tx_packets;
      rx += c.rx_packets;
    }
    Expect(tx == sent_, "driver tx_packets != sent");
    Expect(rx == received_, "driver rx_packets != frames on the wire");
    const nic::DeviceStats stats = device_->stats();
    Expect(stats.frames_received == received_ && stats.rx_dropped == 0,
           "device dropped wire arrivals");
    Expect(Take(driver_->HwGoodPacketsTransmitted(), "GPTC") ==
               (sent_ & 0xffffffffu),
           "device GPTC != sent");
  }

  uint64_t hot_addr() override { return driver_->adapter_addr(); }

 private:
  std::unique_ptr<DriverT> driver_;
  e1000e::TxFrame frames_[kMqQueues][kMqBurst];
  uint64_t burst_digest_[kMqQueues] = {};
  std::vector<std::vector<uint8_t>> rx_wires_;
  uint64_t received_ = 0;
};

}  // namespace

std::unique_ptr<Rig> MakeSockRig(DriverKind kind, uint64_t seed,
                                 Ledger* ledger) {
  switch (kind) {
    case DriverKind::kGuarded:
      return std::make_unique<NativeSockRig<e1000e::GuardedMemOps>>(seed,
                                                                    ledger);
    case DriverKind::kRaw:
      return std::make_unique<NativeSockRig<e1000e::RawMemOps>>(seed, ledger);
    case DriverKind::kKir:
      return std::make_unique<KirSockRig>(seed, ledger);
  }
  return nullptr;
}

std::unique_ptr<Rig> MakeMqRig(DriverKind kind, uint64_t seed, Ledger* ledger) {
  Expect(kind != DriverKind::kKir, "mq_churn has no KIR driver");
  if (kind == DriverKind::kRaw) {
    return std::make_unique<MqRig<e1000e::RawMemOps>>(seed, ledger);
  }
  return std::make_unique<MqRig<e1000e::GuardedMemOps>>(seed, ledger);
}

}  // namespace kop::perfbench
