// Shared vocabulary of the repository benchmark: run options, the result
// record, fail-loud helpers, and the benchmark-side span ledger that
// prices layers from outside the program (see README.md, "Per-layer
// metrics").
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "kop/util/status.hpp"

namespace kop::perfbench {

// ------------------------------------------------------------ run shape --

/// Packets per timed block. Host samples are block time / kBlockPackets,
/// so amortized work (ring reclaim, doorbells) lands in every sample.
inline constexpr uint32_t kBlockPackets = 64;

/// Blocks run before host timing starts. They double as the fixed,
/// seed-determined window every virtual-clock metric is computed over,
/// which makes those metrics independent of host speed and run length.
inline constexpr uint32_t kPrefixBlocks = 256;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  uint32_t seconds = 10;
  bool trace = false;
  std::string spans_out;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A finished run. It has no failure count: the first failed operation
/// aborts the run (RunFailure), so a printed result always has 0.
struct Report {
  uint64_t attempted = 0;
  std::vector<Metric> metrics;
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

// ------------------------------------------------------------ fail loud --

/// Thrown on any failed operation or broken output invariant; main()
/// reports it and exits nonzero instead of measuring a broken run.
class RunFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void Expect(bool condition, const std::string& what) {
  if (!condition) throw RunFailure(what);
}

inline void Require(const Status& status, const std::string& what) {
  if (!status.ok()) throw RunFailure(what + ": " + status.ToString());
}

template <typename T>
T Take(Result<T> result, const std::string& what) {
  if (!result.ok()) throw RunFailure(what + ": " + result.status().ToString());
  return std::move(*result);
}

// ---------------------------------------------------------------- stats --

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile (q in [0, 1]); values are copied.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

// --------------------------------------------------------------- ledger --

/// The layer boundaries the benchmark wraps. kNet = PacketSocket::Sendmsg,
/// kXmit/kNapi = the native driver's transmit / reclaim entry points,
/// kCall = LoadedModule::Call through ModuleNetDevice, kNic = the device
/// model behind the MMIO window (register file, doorbell DMA, wire).
enum class Layer : uint8_t { kNet, kXmit, kNapi, kCall, kNic, kCount };
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);
const char* LayerName(Layer layer);

/// Benchmark-side spans. Enter/Exit bracket a call into one layer; a
/// span's self time is its duration minus its child spans. Self time
/// accumulates per block (one block = one request id) and the first
/// `capacity` spans are kept in memory for WriteJson at the end of the
/// run. Single-threaded, like every workload.
class Ledger {
 public:
  explicit Ledger(size_t capacity = size_t{1} << 16);

  void BeginBlock(uint64_t block);
  void Enter(Layer layer);
  void Exit();
  /// Self ns accumulated per layer since BeginBlock.
  const std::array<uint64_t, kLayerCount>& block_self() const {
    return block_self_;
  }

  /// Kept spans as a JSON document with `provenance` (a JSON object)
  /// attached; false when the file cannot be written.
  bool WriteJson(const std::string& path, const std::string& provenance) const;

 private:
  struct Open {
    Layer layer = Layer::kNet;
    uint64_t start = 0;
    uint64_t child = 0;
  };
  struct Span {
    uint64_t block = 0;
    uint64_t start = 0;
    uint64_t end = 0;
    Layer layer = Layer::kNet;
    int8_t parent = -1;  // enclosing layer, -1 at top level
  };

  std::array<Open, 8> stack_{};
  size_t depth_ = 0;
  uint64_t block_ = 0;
  uint64_t origin_ = 0;
  std::array<uint64_t, kLayerCount> block_self_{};
  size_t capacity_;
  std::vector<Span> spans_;
};

/// RAII span; a null ledger records nothing.
class LedgerScope {
 public:
  LedgerScope(Ledger* ledger, Layer layer) : ledger_(ledger) {
    if (ledger_ != nullptr) ledger_->Enter(layer);
  }
  ~LedgerScope() {
    if (ledger_ != nullptr) ledger_->Exit();
  }
  LedgerScope(const LedgerScope&) = delete;
  LedgerScope& operator=(const LedgerScope&) = delete;

 private:
  Ledger* ledger_;
};

// ------------------------------------------------------------ workloads --

/// Every workload name the benchmark accepts.
const std::vector<std::string>& WorkloadNames();

/// Run one workload end to end (trace off) or as the traced ledger run
/// (trace on). Throws RunFailure on any failed operation or check.
Report RunWorkload(const Options& options, const std::string& provenance);

}  // namespace kop::perfbench
