// kop_perfbench: the repository benchmark's measuring binary. perfbench/
// run.py builds it and runs it; it can also be run directly:
//
//   kop_perfbench --workload sock_native --seed 1 --seconds 10 --trace 0
//
// Prints one provenance line, then, as the last line of stdout, the
// result object {"correct", "attempted", "failed", "metrics"}. Any failed
// operation or output check prints the reason to stderr and exits 1
// without a result.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"

namespace kop::perfbench {
namespace {

constexpr const char* kUsage =
    "usage: kop_perfbench --workload NAME --seed N --seconds N --trace 0|1 "
    "[--spans-out PATH] [--rev TEXT]\n";

/// Runtime overrides that would silently change what is measured.
constexpr const char* kPinnedEnv[] = {
    "KOP_ENGINE",   "KOP_ELIDE",          "KOP_CFI",      "KOP_VERIFY",
    "KOP_RECOVERY", "KOP_WATCHDOG_STEPS", "KOP_SMP_CPUS",
};

bool ParseUint(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Strict flags: every flag takes a separate value, none may repeat or
/// be unknown, and numbers must parse completely.
bool ParseArgs(int argc, char** argv, Options* options, std::string* rev) {
  bool seen[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return false;
    }
    const std::string_view value = argv[i + 1];
    uint64_t number = 0;
    if (flag == "--workload" && !seen[0]) {
      options->workload = value;
      seen[0] = true;
    } else if (flag == "--seed" && !seen[1] && ParseUint(value, &number)) {
      options->seed = number;
      seen[1] = true;
    } else if (flag == "--seconds" && !seen[2] && ParseUint(value, &number) &&
               number >= 1 && number <= 600) {
      options->seconds = static_cast<uint32_t>(number);
      seen[2] = true;
    } else if (flag == "--trace" && !seen[3] && (value == "0" || value == "1")) {
      options->trace = value == "1";
      seen[3] = true;
    } else if (flag == "--spans-out") {
      options->spans_out = value;
    } else if (flag == "--rev") {
      *rev = value;
    } else {
      std::fprintf(stderr, "bad flag or value: %s %s\n", argv[i], argv[i + 1]);
      return false;
    }
  }
  if (!(seen[0] && seen[1] && seen[2] && seen[3])) {
    std::fprintf(stderr, "--workload, --seed, --seconds and --trace are all "
                         "required\n");
    return false;
  }
  for (const std::string& name : WorkloadNames()) {
    if (name == options->workload) return true;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", options->workload.c_str());
  return false;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

#ifndef KOP_BENCH_BUILD_TYPE
#define KOP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef KOP_TRACE_ENABLED
#define KOP_TRACE_ENABLED 1
#endif
#ifndef KOP_SPANS_ENABLED
#define KOP_SPANS_ENABLED 1
#endif
#ifndef KOP_COVERAGE_ENABLED
#define KOP_COVERAGE_ENABLED 1
#endif

std::string Provenance(const Options& options, const std::string& rev) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"rev\": %s, \"build_type\": %s, \"KOP_TRACE_ENABLED\": %d, "
      "\"KOP_SPANS_ENABLED\": %d, \"KOP_COVERAGE_ENABLED\": %d, "
      "\"compiler\": %s, \"nproc\": %u, \"engine\": \"bytecode\", "
      "\"verify\": \"both\", \"elide\": true, \"cfi\": true, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %u, \"trace\": %d}",
      JsonString(rev).c_str(), JsonString(KOP_BENCH_BUILD_TYPE).c_str(),
      KOP_TRACE_ENABLED, KOP_SPANS_ENABLED, KOP_COVERAGE_ENABLED,
      JsonString(__VERSION__).c_str(), std::thread::hardware_concurrency(),
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
  return buf;
}

int Main(int argc, char** argv) {
  Options options;
  std::string rev = "unknown";
  if (!ParseArgs(argc, argv, &options, &rev)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "refusing to run: %s is set; the benchmark pins engine, "
                   "verify mode, elision, CFI, recovery, watchdog and CPU "
                   "count itself\n",
                   name);
      return 2;
    }
  }
  const std::string provenance = Provenance(options, rev);
  std::printf("{\"provenance\": %s}\n", provenance.c_str());
  std::fflush(stdout);

  Report report;
  try {
    report = RunWorkload(options, provenance);
    for (const Metric& m : report.metrics) {
      Expect(std::isfinite(m.value), "metric " + m.name + " is not finite");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kop_perfbench: %s: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }

  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(report.attempted) +
                     ", \"failed\": 0, \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace kop::perfbench

int main(int argc, char** argv) { return kop::perfbench::Main(argc, argv); }
