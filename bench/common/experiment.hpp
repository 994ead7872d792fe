// Shared experiment rig for the figure benches: assembles the simulated
// testbed (kernel + machine model + NIC + policy module + driver +
// socket + packet gun), runs throughput/latency trials the way §4.2
// describes, and renders the series each figure plots.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "kop/e1000e/driver.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/net/packet_gun.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/sim/machine.hpp"
#include "kop/sim/stats.hpp"

namespace kop::bench {

enum class Technique { kBaseline, kCarat };

inline const char* TechniqueName(Technique technique) {
  return technique == Technique::kBaseline ? "baseline" : "carat";
}

struct RigConfig {
  sim::MachineModel machine = sim::MachineModel::R350();
  Technique technique = Technique::kCarat;
  /// Number of regions in the policy. Region 1 is the paper's two-region
  /// rule's "allow the kernel high half"; regions beyond are decoys so
  /// the guard scans exactly `regions` entries. 0 means default-allow
  /// with an empty table.
  uint32_t regions = 2;
  uint64_t seed = 1;
};

/// A fully assembled testbed. Construction order matters; keep fields in
/// dependency order.
class Rig {
 public:
  explicit Rig(const RigConfig& config);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// One trial: launch `packets` frames of `frame_bytes`, with per-trial
  /// jitter applied (trial index seeds the noise). Returns packets/s.
  double ThroughputTrial(uint64_t packets, uint32_t frame_bytes,
                         uint32_t trial_index);

  /// Collect per-packet sendmsg latencies (cycles).
  std::vector<double> LatencyTrial(uint64_t packets, uint32_t frame_bytes);

  uint64_t GuardCalls() const;

  kernel::Kernel& kernel() { return *kernel_; }

 private:
  RigConfig config_;
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<nic::CountingSink> sink_;
  std::unique_ptr<nic::E1000Device> device_;
  std::unique_ptr<policy::PolicyModule> policy_;
  std::unique_ptr<e1000e::BaselineDriver> baseline_driver_;
  std::unique_ptr<e1000e::CaratDriver> carat_driver_;
  std::unique_ptr<net::NetDevice> netdev_;
};

/// CDF experiment output for one technique.
struct CdfSeries {
  std::string label;
  std::vector<double> trial_pps;
};

/// Render one or more CDF series as the table the paper's figures plot:
/// rows of "percentile,<label1>,<label2>,..." (values = pps at that
/// percentile).
std::string RenderCdfTable(const std::vector<CdfSeries>& series,
                           size_t points = 21);

/// Print a header for a figure bench.
void PrintFigureHeader(const std::string& figure, const std::string& title,
                       const std::string& setup);

/// "--trials=N --packets=N" overrides. Each value goes through the same
/// check as PositionalArg (a plain decimal integer >= 1 that fits); an
/// unknown flag, junk, a sign, overflow or a zero count prints a usage
/// line and exits 2.
struct BenchArgs {
  uint32_t trials = 31;
  uint64_t packets = 20000;
  static BenchArgs Parse(int argc, char** argv);
};

namespace detail {
uint64_t PositionalArg(int argc, char** argv, int index, uint64_t fallback,
                       const char* usage, uint64_t min, uint64_t max);
}  // namespace detail

/// Positional numeric argument argv[index] as a `T`, or `fallback` when
/// absent. Anything but a plain decimal integer from `min` to the
/// largest `T` — a flag such as --packets=2000, trailing junk, a sign, a
/// value `T` cannot hold, or (by default) a zero count — prints `usage`
/// and exits 2, so a mistyped command line never runs a silently empty
/// bench.
template <typename T = uint64_t>
T PositionalArg(int argc, char** argv, int index, uint64_t fallback,
                const char* usage, uint64_t min = 1) {
  return static_cast<T>(detail::PositionalArg(
      argc, argv, index, fallback, usage, min,
      static_cast<uint64_t>(std::numeric_limits<T>::max())));
}

/// Wall-clock gate from environment variable `name`, or `fallback` when
/// unset. A value that is not a finite number > 0 exits 2: a mistyped
/// gate must not silently disable (or tighten) an acceptance check.
double GateEnv(const char* name, double fallback);

/// Write `content` to bench_results/<name> (best effort; prints a note).
void WriteResultsFile(const std::string& name, const std::string& content);

}  // namespace kop::bench
