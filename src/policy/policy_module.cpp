#include "kop/policy/policy_module.hpp"

#include <cstdio>
#include <cstring>

#include "kop/flight/postmortem.hpp"
#include "kop/trace/site.hpp"
#include "kop/trace/trace.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop::policy {

PolicyModule::PolicyModule(kernel::Kernel* kernel) : kernel_(kernel) {}

Result<std::unique_ptr<PolicyModule>> PolicyModule::Insert(
    kernel::Kernel* kernel, std::nullptr_t, PolicyMode mode) {
  auto module = std::unique_ptr<PolicyModule>(new PolicyModule(kernel));
  module->engine_ = std::make_unique<PolicyEngine>(kernel, mode);

  PolicyEngine* engine = module->engine_.get();
  KOP_RETURN_IF_ERROR(kernel->symbols().ExportFunction(
      kCaratGuardSymbol,
      [engine](const std::vector<uint64_t>& args) -> uint64_t {
        // void carat_guard(void* addr, size_t size, int access_flags)
        const uint64_t addr = args.size() > 0 ? args[0] : 0;
        const uint64_t size = args.size() > 1 ? args[1] : 0;
        const uint64_t flags = args.size() > 2 ? args[2] : 0;
        return engine->Guard(addr, size, flags) ? 1 : 0;
      }));
  KOP_RETURN_IF_ERROR(kernel->symbols().ExportFunction(
      kCaratGuardRangeSymbol,
      [engine](const std::vector<uint64_t>& args) -> uint64_t {
        // void carat_guard_range(void* addr, size_t size, int access_flags,
        //                        size_t elided)
        const uint64_t addr = args.size() > 0 ? args[0] : 0;
        const uint64_t size = args.size() > 1 ? args[1] : 0;
        const uint64_t flags = args.size() > 2 ? args[2] : 0;
        const uint64_t elided = args.size() > 3 ? args[3] : 0;
        return engine->GuardRange(addr, size, flags, elided) ? 1 : 0;
      }));
  KOP_RETURN_IF_ERROR(kernel->symbols().ExportFunction(
      kCaratIntrinsicGuardSymbol,
      [engine](const std::vector<uint64_t>& args) -> uint64_t {
        return engine->IntrinsicGuard(args.empty() ? 0 : args[0]) ? 1 : 0;
      }));
  KOP_RETURN_IF_ERROR(kernel->symbols().ExportFunction(
      kCaratCfiCheckSymbol,
      [engine](const std::vector<uint64_t>& args) -> uint64_t {
        // int carat_cfi_check(void* target, size_t set_id)
        const uint64_t target = args.size() > 0 ? args[0] : 0;
        const uint64_t set_id = args.size() > 1 ? args[1] : 0;
        return engine->CfiCheck(target, set_id) ? 1 : 0;
      }));

  // Publish the engine's pins. Module engines reach them through the
  // kernel facade (guard::PinSource), never through kop::policy —
  // clearing it at removal restores the all-slow-path world exactly.
  kernel->SetPinSource(engine);

  PolicyModule* raw = module.get();
  KOP_RETURN_IF_ERROR(kernel->devices().Register(
      kCaratDevicePath,
      [raw](uint32_t cmd, std::vector<uint8_t>& arg) {
        return raw->HandleIoctl(cmd, arg);
      }));

  // Register the flight-recorder providers: postmortem bundles captured
  // while this policy module is inserted carry its frame generation and
  // guard-site heatmap. The destructor clears them — a bundle captured
  // after removal reports policy.present = false.
  flight::SetPolicyProvider([engine]() {
    flight::PolicyInfo info;
    info.present = true;
    info.frames_published = engine->frames_published();
    info.store_generation = engine->store().generation();
    info.store_size = engine->store().Size();
    info.mode = engine->mode() == PolicyMode::kDefaultAllow ? "default-allow"
                                                            : "default-deny";
    return info;
  });
  flight::SetHeatmapProvider([engine]() {
    std::vector<flight::HeatSite> out;
    for (const HotSite& row : engine->HotSites()) {
      flight::HeatSite site;
      site.site = row.site != 0 ? trace::GlobalSites().Label(row.site)
                                : "(unattributed)";
      site.hits = row.hits;
      site.denied = row.denied;
      out.push_back(std::move(site));
    }
    return out;
  });

  module->installed_ = true;
  kernel->log().Printk(kernel::KernLevel::kInfo,
                       "carat_kop: policy module loaded (linear-table-64, %s)",
                       mode == PolicyMode::kDefaultDeny ? "default-deny"
                                                        : "default-allow");
  return module;
}

PolicyModule::~PolicyModule() {
  if (!installed_) return;
  kernel_->SetPinSource(nullptr);
  flight::SetPolicyProvider(nullptr);
  flight::SetHeatmapProvider(nullptr);
  (void)kernel_->symbols().Unexport(kCaratGuardSymbol);
  (void)kernel_->symbols().Unexport(kCaratGuardRangeSymbol);
  (void)kernel_->symbols().Unexport(kCaratIntrinsicGuardSymbol);
  (void)kernel_->symbols().Unexport(kCaratCfiCheckSymbol);
  (void)kernel_->devices().Unregister(kCaratDevicePath);
}

Status PolicyModule::HandleIoctl(uint32_t cmd, std::vector<uint8_t>& arg) {
  switch (cmd) {
    case KOP_IOCTL_ADD_REGION: {
      CaratRegionArg request;
      if (!UnpackArg(arg, &request)) return InvalidArgument("short arg");
      return engine_->store().Add(
          Region{request.base, request.len, request.prot});
    }
    case KOP_IOCTL_REMOVE_REGION: {
      CaratRegionArg request;
      if (!UnpackArg(arg, &request)) return InvalidArgument("short arg");
      return engine_->store().Remove(request.base);
    }
    case KOP_IOCTL_CLEAR_REGIONS:
      engine_->store().Clear();
      return OkStatus();
    case KOP_IOCTL_SET_MODE: {
      CaratModeArg request;
      if (!UnpackArg(arg, &request)) return InvalidArgument("short arg");
      engine_->SetMode(request.default_allow != 0 ? PolicyMode::kDefaultAllow
                                                  : PolicyMode::kDefaultDeny);
      return OkStatus();
    }
    case KOP_IOCTL_GET_STATS: {
      const GuardStats stats = engine_->stats();
      CaratStatsArg reply;
      reply.guard_calls = stats.guard_calls;
      reply.allowed = stats.allowed;
      reply.denied = stats.denied;
      reply.intrinsic_calls = stats.intrinsic_calls;
      reply.intrinsic_denied = stats.intrinsic_denied;
      reply.elided = stats.elided;
      reply.cfi_checks = stats.cfi_checks;
      reply.cfi_denied = stats.cfi_denied;
      arg = PackArg(reply);
      return OkStatus();
    }
    case KOP_IOCTL_COUNT_REGIONS: {
      CaratCountArg reply{engine_->store().Size()};
      arg = PackArg(reply);
      return OkStatus();
    }
    case KOP_IOCTL_LIST_REGIONS: {
      CaratListArg reply;
      const std::vector<Region> regions = engine_->store().Snapshot();
      for (const Region& region : regions) {
        if (reply.count == CaratListArg::kMax) break;
        reply.regions[reply.count++] =
            CaratRegionArg{region.base, region.len, region.prot, 0};
      }
      arg = PackArg(reply);
      return OkStatus();
    }
    case KOP_IOCTL_ALLOW_INTRINSIC: {
      CaratIntrinsicArg request;
      if (!UnpackArg(arg, &request)) return InvalidArgument("short arg");
      engine_->AllowIntrinsic(request.intrinsic_id);
      return OkStatus();
    }
    case KOP_IOCTL_DENY_INTRINSIC: {
      CaratIntrinsicArg request;
      if (!UnpackArg(arg, &request)) return InvalidArgument("short arg");
      engine_->DenyIntrinsic(request.intrinsic_id);
      return OkStatus();
    }
    case KOP_IOCTL_GET_VIOLATIONS: {
      CaratViolationsArg reply;
      for (const ViolationRecord& record : engine_->RecentViolations()) {
        if (reply.count == CaratViolationsArg::kMax) break;
        reply.records[reply.count++] =
            CaratViolationArg{record.addr, record.size, record.access_flags,
                              record.sequence,
                              record.intrinsic ? 1u : 0u,
                              record.cfi ? 1u : 0u};
      }
      arg = PackArg(reply);
      return OkStatus();
    }
    case KOP_IOCTL_READ_TRACE: {
      CaratTraceArg reply;
      const trace::TraceRing& ring = trace::GlobalTracer().ring();
      reply.total = ring.total_appended();
      reply.dropped = ring.dropped();
      const std::vector<trace::TraceRecord> records = ring.Snapshot();
      // Newest kMax, oldest first — how dmesg-style readers expect it.
      const size_t start = records.size() > CaratTraceArg::kMax
                               ? records.size() - CaratTraceArg::kMax
                               : 0;
      for (size_t i = start; i < records.size(); ++i) {
        CaratTraceRecordArg& out = reply.records[reply.count++];
        out.tsc = records[i].tsc;
        out.seq = records[i].seq;
        out.event = static_cast<uint32_t>(records[i].event);
        out.cpu = records[i].cpu;
        for (int a = 0; a < 4; ++a) out.args[a] = records[i].args[a];
      }
      arg = PackArg(reply);
      return OkStatus();
    }
    case KOP_IOCTL_GET_HOT_SITES: {
      CaratHotSitesArg reply;
      for (const HotSite& row : engine_->HotSites()) {
        if (reply.count == CaratHotSitesArg::kMax) break;
        CaratHotSiteArg& out = reply.sites[reply.count++];
        out.site = row.site;
        out.hits = row.hits;
        out.denied = row.denied;
        out.elided = row.elided;
        const std::string label = trace::GlobalSites().Label(row.site);
        std::snprintf(out.label, sizeof(out.label), "%s", label.c_str());
      }
      arg = PackArg(reply);
      return OkStatus();
    }
    case KOP_IOCTL_READ_POSTMORTEM: {
      CaratPostmortemArg reply;
      reply.incidents = flight::GlobalPostmortems().incidents();
      flight::PostmortemBundle bundle;
      if (flight::GlobalPostmortems().Latest(&bundle)) {
        reply.present = 1;
        const std::string json = bundle.ToJson();
        reply.total_len = json.size();
        if (json.size() >= CaratPostmortemArg::kMax) {
          reply.truncated = 1;
          std::memcpy(reply.json, json.data(), CaratPostmortemArg::kMax - 1);
        } else {
          std::memcpy(reply.json, json.data(), json.size());
        }
      }
      arg = PackArg(reply);
      return OkStatus();
    }
    case KOP_IOCTL_RESET_STATS:
      engine_->ResetStats();
      return OkStatus();
    default:
      return InvalidArgument("unknown carat ioctl 0x" + std::to_string(cmd));
  }
}

}  // namespace kop::policy
