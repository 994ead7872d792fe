// policy-manager: the paper's userspace policy tool (Figure 1): "a root
// user can communicate with the policy module through an ioctl system
// call to add or remove regions from the table using a simple
// application, policy-manager."
//
// Usage (commands are applied in order against a fresh simulated kernel):
//   policy_manager add <base> <len> <r|w|rw|none>
//                  remove <base>
//                  clear
//                  mode <allow|deny>
//                  action <panic|quarantine|log>
//                  load <rules-file>           (the firewall-file format)
//                  dump                        (render policy as rules)
//                  list
//                  stats
//                  hotsites                    (per-guard-site hit table)
//                  trace                       (recent tracepoint records)
//                  trace-json <out.json>       (Chrome trace-event export)
//                  probe <addr> <size> <r|w>   (fire a guard check)
// With no arguments, runs a demonstration session.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/policy/ioctl_abi.hpp"
#include "kop/policy/rules.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/trace/exporters.hpp"
#include "kop/trace/trace.hpp"
#include "kop/util/carat_abi.hpp"

namespace {

using namespace kop;
using namespace kop::policy;

uint32_t ParseProt(const std::string& text) {
  if (text == "r") return kProtRead;
  if (text == "w") return kProtWrite;
  if (text == "rw") return kProtRW;
  if (text == "none") return kProtNone;
  std::fprintf(stderr, "bad prot '%s' (want r|w|rw|none)\n", text.c_str());
  std::exit(2);
}

uint64_t ParseU64(const std::string& text) {
  return std::strtoull(text.c_str(), nullptr, 0);
}

/// The "system call": what the real tool does through fd = open("/dev/carat").
Status CaratIoctl(kernel::Kernel& kernel, uint32_t cmd,
                  std::vector<uint8_t>& arg) {
  return kernel.devices().Ioctl(kCaratDevicePath, cmd, arg);
}

int RunCommands(kernel::Kernel& kernel, PolicyModule& policy,
                const std::vector<std::string>& args) {
  size_t i = 0;
  auto next = [&]() -> std::string {
    if (i >= args.size()) {
      std::fprintf(stderr, "missing argument\n");
      std::exit(2);
    }
    return args[i++];
  };

  while (i < args.size()) {
    const std::string command = next();
    if (command == "add") {
      const uint64_t base = ParseU64(next());
      const uint64_t len = ParseU64(next());
      const uint32_t prot = ParseProt(next());
      auto arg = PackArg(CaratRegionArg{base, len, prot, 0});
      const Status status = CaratIoctl(kernel, KOP_IOCTL_ADD_REGION, arg);
      std::printf("add [0x%llx,+0x%llx) -> %s\n",
                  static_cast<unsigned long long>(base),
                  static_cast<unsigned long long>(len),
                  status.ToString().c_str());
    } else if (command == "remove") {
      auto arg = PackArg(CaratRegionArg{ParseU64(next()), 0, 0, 0});
      const Status status =
          CaratIoctl(kernel, KOP_IOCTL_REMOVE_REGION, arg);
      std::printf("remove -> %s\n", status.ToString().c_str());
    } else if (command == "clear") {
      std::vector<uint8_t> empty;
      (void)CaratIoctl(kernel, KOP_IOCTL_CLEAR_REGIONS, empty);
      std::printf("clear -> ok\n");
    } else if (command == "mode") {
      const std::string mode = next();
      auto arg = PackArg(CaratModeArg{mode == "allow" ? 1u : 0u, 0});
      (void)CaratIoctl(kernel, KOP_IOCTL_SET_MODE, arg);
      std::printf("mode -> default-%s\n",
                  mode == "allow" ? "allow" : "deny");
    } else if (command == "list") {
      CaratListArg list;
      auto arg = PackArg(list);
      (void)CaratIoctl(kernel, KOP_IOCTL_LIST_REGIONS, arg);
      (void)UnpackArg(arg, &list);
      std::printf("policy table (%u region%s):\n", list.count,
                  list.count == 1 ? "" : "s");
      for (uint32_t r = 0; r < list.count; ++r) {
        const Region region{list.regions[r].base, list.regions[r].len,
                            list.regions[r].prot};
        std::printf("  %2u: %s\n", r, region.ToString().c_str());
      }
    } else if (command == "action") {
      const std::string action = next();
      policy.engine().SetViolationAction(
          action == "quarantine" ? ViolationAction::kQuarantine
          : action == "log"      ? ViolationAction::kLogOnly
                                 : ViolationAction::kPanic);
      std::printf("action -> %s\n", action.c_str());
    } else if (command == "load") {
      const std::string path = next();
      std::ifstream file(path);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 2;
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      auto spec = ParsePolicyRules(buffer.str(),
                                   DefaultNamedRanges(kernel));
      if (!spec.ok()) {
        std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
        return 2;
      }
      const Status status = ApplyPolicySpec(*spec, policy.engine());
      std::printf("load %s -> %s (%zu regions)\n", path.c_str(),
                  status.ToString().c_str(), spec->regions.size());
    } else if (command == "dump") {
      std::printf("%s", RenderPolicyRules(policy.engine()).c_str());
    } else if (command == "stats") {
      CaratStatsArg stats;
      auto arg = PackArg(stats);
      (void)CaratIoctl(kernel, KOP_IOCTL_GET_STATS, arg);
      (void)UnpackArg(arg, &stats);
      std::printf("guard calls: %llu (allowed %llu, denied %llu); "
                  "intrinsics: %llu (%llu denied)\n",
                  static_cast<unsigned long long>(stats.guard_calls),
                  static_cast<unsigned long long>(stats.allowed),
                  static_cast<unsigned long long>(stats.denied),
                  static_cast<unsigned long long>(stats.intrinsic_calls),
                  static_cast<unsigned long long>(stats.intrinsic_denied));
    } else if (command == "violations") {
      CaratViolationsArg reply;
      auto arg = PackArg(reply);
      (void)CaratIoctl(kernel, KOP_IOCTL_GET_VIOLATIONS, arg);
      (void)UnpackArg(arg, &reply);
      std::printf("recent violations (%u):\n", reply.count);
      for (uint32_t v = 0; v < reply.count; ++v) {
        const auto& record = reply.records[v];
        if (record.intrinsic != 0) {
          std::printf("  #%llu intrinsic %llu denied\n",
                      static_cast<unsigned long long>(record.sequence),
                      static_cast<unsigned long long>(record.addr));
        } else if (record.cfi != 0) {
          std::printf("  #%llu indirect call to 0x%llx (set %llu) denied\n",
                      static_cast<unsigned long long>(record.sequence),
                      static_cast<unsigned long long>(record.addr),
                      static_cast<unsigned long long>(record.size));
        } else {
          std::printf("  #%llu %s 0x%llx size %llu denied\n",
                      static_cast<unsigned long long>(record.sequence),
                      (record.access_flags & kGuardAccessWrite) ? "write"
                                                                : "read",
                      static_cast<unsigned long long>(record.addr),
                      static_cast<unsigned long long>(record.size));
        }
      }
    } else if (command == "hotsites") {
      CaratHotSitesArg reply;
      auto arg = PackArg(reply);
      (void)CaratIoctl(kernel, CARAT_IOC_GET_HOT_SITES, arg);
      (void)UnpackArg(arg, &reply);
      std::printf("hot guard sites (%u):\n", reply.count);
      std::printf("  site     hits     denied   location\n");
      for (uint32_t s = 0; s < reply.count; ++s) {
        const auto& row = reply.sites[s];
        std::printf("  %-8llu %-8llu %-8llu %s\n",
                    static_cast<unsigned long long>(row.site),
                    static_cast<unsigned long long>(row.hits),
                    static_cast<unsigned long long>(row.denied), row.label);
      }
    } else if (command == "trace") {
      CaratTraceArg reply;
      auto arg = PackArg(reply);
      (void)CaratIoctl(kernel, CARAT_IOC_READ_TRACE, arg);
      (void)UnpackArg(arg, &reply);
      std::printf("trace ring: %llu appended, %llu dropped; newest %u:\n",
                  static_cast<unsigned long long>(reply.total),
                  static_cast<unsigned long long>(reply.dropped),
                  reply.count);
      for (uint32_t r = 0; r < reply.count; ++r) {
        const auto& record = reply.records[r];
        const auto id = static_cast<trace::EventId>(record.event);
        std::printf("  #%-6llu tsc=%-10llu %-10s %-18s 0x%llx 0x%llx\n",
                    static_cast<unsigned long long>(record.seq),
                    static_cast<unsigned long long>(record.tsc),
                    std::string(trace::EventCategory(id)).c_str(),
                    std::string(trace::EventName(id)).c_str(),
                    static_cast<unsigned long long>(record.args[0]),
                    static_cast<unsigned long long>(record.args[1]));
      }
    } else if (command == "trace-json") {
      const std::string path = next();
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
      }
      out << trace::ExportChromeTrace(trace::GlobalTracer());
      std::printf("trace-json -> %s (%llu records; load in Perfetto / "
                  "chrome://tracing)\n",
                  path.c_str(),
                  static_cast<unsigned long long>(
                      trace::GlobalTracer().ring().total_appended()));
    } else if (command == "probe") {
      const uint64_t addr = ParseU64(next());
      const uint64_t size = ParseU64(next());
      const std::string kind = next();
      const uint64_t flags =
          kind == "w" ? kGuardAccessWrite : kGuardAccessRead;
      // Log-only so a denied probe reports instead of panicking.
      policy.engine().SetViolationAction(ViolationAction::kLogOnly);
      const bool allowed = policy.engine().Guard(addr, size, flags);
      std::printf("probe %s 0x%llx size %llu -> %s\n", kind.c_str(),
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(size),
                  allowed ? "ALLOWED" : "DENIED");
    } else {
      std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  kernel::Kernel kernel;
  auto policy =
      PolicyModule::Insert(&kernel, nullptr, PolicyMode::kDefaultDeny);
  if (!policy.ok()) return 1;

  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    // Demonstration session: the paper's two-region rule plus probes.
    std::printf("(no arguments: running demo session; see --help in "
                "source header for the command set)\n\n");
    args = {"mode",  "deny",
            "add",   "0xffff800000000000", "0x7fffffffffff", "rw",
            "add",   "0x0",                "0x800000000000", "none",
            "list",
            "probe", "0xffff888000001000", "8", "w",
            "probe", "0x400000",           "8", "w",
            "violations",
            "stats",
            "hotsites",
            "trace"};
  }
  return RunCommands(kernel, **policy, args);
}
