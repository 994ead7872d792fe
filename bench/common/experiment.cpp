#include "experiment.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "kop/net/socket.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/util/rng.hpp"

namespace kop::bench {
namespace {

constexpr uint64_t kMmioBase = kernel::kVmallocBase;

/// Bench kernels are built per figure; keep the RAM map small so rig
/// construction is cheap.
kernel::KernelConfig BenchKernelConfig(const sim::MachineModel& machine) {
  kernel::KernelConfig config;
  config.ram_bytes = 8ull << 20;
  config.kernel_text_bytes = 1ull << 20;
  config.module_area_bytes = 8ull << 20;
  config.user_bytes = 1ull << 20;
  config.machine = machine;
  return config;
}

/// Strict count parse shared by BenchArgs and PositionalArg.
bool ParseCount(const char* text, uint64_t min, uint64_t max,
                uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const uint64_t value = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

Rig::Rig(const RigConfig& config) : config_(config) {
  kernel_ = std::make_unique<kernel::Kernel>(
      BenchKernelConfig(config.machine));
  sink_ = std::make_unique<nic::CountingSink>();
  device_ = std::make_unique<nic::E1000Device>(&kernel_->mem(), sink_.get());
  Status status = device_->MapAt(kMmioBase);
  if (!status.ok()) {
    std::fprintf(stderr, "rig: %s\n", status.ToString().c_str());
    std::abort();
  }

  auto policy = policy::PolicyModule::Insert(
      kernel_.get(), nullptr,
      config.regions == 0 ? policy::PolicyMode::kDefaultAllow
                          : policy::PolicyMode::kDefaultDeny);
  if (!policy.ok()) {
    std::fprintf(stderr, "rig: %s\n", policy.status().ToString().c_str());
    std::abort();
  }
  policy_ = std::move(*policy);

  // The paper's two-region rule, extended with decoys for larger n:
  //   region 0: the kernel high half, read-write (the rule that matches),
  //   region 1: the user low half, no permissions (the rule that denies),
  //   regions 2..n-1: far-apart decoy restrictions that never match the
  //   driver's accesses but lengthen the scan.
  auto& store = policy_->engine().store();
  if (config.regions >= 1) {
    (void)store.Add(policy::Region{kernel::kKernelHalfBase,
                                   ~uint64_t{0} - kernel::kKernelHalfBase,
                                   policy::kProtRW});
  }
  if (config.regions >= 2) {
    (void)store.Add(
        policy::Region{0, kernel::kUserSpaceEnd, policy::kProtNone});
  }
  for (uint32_t i = 2; i < config.regions; ++i) {
    (void)store.Add(policy::Region{kernel::kUserSpaceEnd +
                                       (uint64_t{i} << 24),
                                   0x1000, policy::kProtRead});
  }

  if (config.technique == Technique::kCarat) {
    auto driver = e1000e::CaratDriver::Probe(
        e1000e::GuardedMemOps(kernel_.get(), &policy_->engine()), kMmioBase);
    if (!driver.ok()) {
      std::fprintf(stderr, "rig: %s\n", driver.status().ToString().c_str());
      std::abort();
    }
    carat_driver_ = std::make_unique<e1000e::CaratDriver>(*driver);
    netdev_ = std::make_unique<net::DriverNetDevice<e1000e::CaratDriver>>(
        carat_driver_.get());
  } else {
    auto driver = e1000e::BaselineDriver::Probe(
        e1000e::RawMemOps(kernel_.get()), kMmioBase);
    if (!driver.ok()) {
      std::fprintf(stderr, "rig: %s\n", driver.status().ToString().c_str());
      std::abort();
    }
    baseline_driver_ = std::make_unique<e1000e::BaselineDriver>(*driver);
    netdev_ =
        std::make_unique<net::DriverNetDevice<e1000e::BaselineDriver>>(
            baseline_driver_.get());
  }
}

Rig::~Rig() = default;

double Rig::ThroughputTrial(uint64_t packets, uint32_t frame_bytes,
                            uint32_t trial_index) {
  // Fresh socket per trial: independent per-packet noise stream.
  net::PacketSocket socket(kernel_.get(), netdev_.get(),
                           config_.seed * 7919 + trial_index);
  net::PacketGun gun(kernel_.get(), &socket);
  net::TrialConfig config;
  config.packets = packets;
  config.frame_bytes = frame_bytes;
  auto trial = gun.RunTrial(config);
  if (!trial.ok()) {
    std::fprintf(stderr, "trial: %s\n", trial.status().ToString().c_str());
    std::abort();
  }
  // Per-trial multiplicative jitter: frequency scaling, background load,
  // cache state — what spreads the paper's CDFs across trials.
  Xoshiro256 rng(config_.seed * 104729 + trial_index);
  const double jitter = std::exp(config_.machine.trial_jitter_sigma *
                                 rng.NextGaussian());
  return trial->packets_per_second / jitter;
}

std::vector<double> Rig::LatencyTrial(uint64_t packets,
                                      uint32_t frame_bytes) {
  net::PacketSocket socket(kernel_.get(), netdev_.get(), config_.seed);
  net::PacketGun gun(kernel_.get(), &socket);
  net::TrialConfig config;
  config.packets = packets;
  config.frame_bytes = frame_bytes;
  config.collect_latencies = true;
  auto trial = gun.RunTrial(config);
  if (!trial.ok()) {
    std::fprintf(stderr, "trial: %s\n", trial.status().ToString().c_str());
    std::abort();
  }
  return std::move(trial->latencies_cycles);
}

uint64_t Rig::GuardCalls() const {
  return policy_->engine().stats().guard_calls;
}

std::string RenderCdfTable(const std::vector<CdfSeries>& series,
                           size_t points) {
  std::string out = "percentile";
  for (const CdfSeries& s : series) out += "," + s.label + "_pps";
  out += "\n";
  std::vector<std::vector<double>> sorted;
  for (const CdfSeries& s : series) {
    std::vector<double> values = s.trial_pps;
    std::sort(values.begin(), values.end());
    sorted.push_back(std::move(values));
  }
  char buf[64];
  for (size_t i = 0; i < points; ++i) {
    const double q =
        static_cast<double>(i) / static_cast<double>(points - 1);
    std::snprintf(buf, sizeof(buf), "%.0f", q * 100.0);
    out += buf;
    for (const auto& values : sorted) {
      std::snprintf(buf, sizeof(buf), ",%.0f",
                    sim::QuantileSorted(values, q));
      out += buf;
    }
    out += "\n";
  }
  return out;
}

void PrintFigureHeader(const std::string& figure, const std::string& title,
                       const std::string& setup) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s: %s\n", figure.c_str(), title.c_str());
  std::printf("setup: %s\n", setup.c_str());
  std::printf("==============================================================="
              "=\n");
}

BenchArgs BenchArgs::Parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t value = 0;
    bool ok = false;
    if (std::strncmp(arg, "--trials=", 9) == 0) {
      ok = ParseCount(arg + 9, 1, UINT32_MAX, &value);
      args.trials = static_cast<uint32_t>(value);
    } else if (std::strncmp(arg, "--packets=", 10) == 0) {
      ok = ParseCount(arg + 10, 1, UINT64_MAX, &value);
      args.packets = value;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "%s: bad argument '%s'\n"
                   "usage: %s [--trials=N] [--packets=N]\n",
                   argv[0], arg, argv[0]);
      std::exit(2);
    }
  }
  return args;
}

uint64_t detail::PositionalArg(int argc, char** argv, int index,
                               uint64_t fallback, const char* usage,
                               uint64_t min, uint64_t max) {
  if (index >= argc) return fallback;
  uint64_t value = 0;
  if (!ParseCount(argv[index], min, max, &value)) {
    std::fprintf(stderr, "%s: bad argument %d '%s'\nusage: %s %s\n", argv[0],
                 index, argv[index], argv[0], usage);
    std::exit(2);
  }
  return value;
}

double GateEnv(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const double value = std::strtod(env, &end);
  if (end == env || *end != '\0' || !std::isfinite(value) || value <= 0.0) {
    std::fprintf(stderr, "bad %s='%s': want a finite number > 0\n", name,
                 env);
    std::exit(2);
  }
  return value;
}

void WriteResultsFile(const std::string& name, const std::string& content) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  const std::string path = "bench_results/" + name;
  std::ofstream out(path);
  if (out) {
    out << content;
    std::printf("[results written to %s]\n", path.c_str());
  }
  // Alongside each figure table, snapshot the metrics registry (guard
  // latency histogram, lookup depth, ring occupancies) accumulated while
  // the bench ran — the raw material behind the medians.
  const size_t dot = name.rfind('.');
  const std::string metrics_path =
      "bench_results/" + name.substr(0, dot) + ".metrics.csv";
  if (metrics_path != path) {
    std::ofstream metrics(metrics_path);
    if (metrics) {
      metrics << trace::GlobalMetrics().RenderCsv();
      std::printf("[metrics snapshot written to %s]\n",
                  metrics_path.c_str());
    }
  }
}

}  // namespace kop::bench
