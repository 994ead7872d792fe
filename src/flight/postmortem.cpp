#include "kop/flight/postmortem.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <mutex>
#include <string_view>

#include "kop/smp/cpu.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/site.hpp"

namespace kop::flight {
namespace {

struct Providers {
  Spinlock lock;
  std::function<PolicyInfo()> policy;
  std::function<std::vector<HeatSite>()> heatmap;
};

}  // namespace

/// One thread-private flight surface (see ScopedFlightIsolation).
struct ScopedFlightIsolation::Surface {
  PostmortemStore store;
  Providers providers;
};

namespace {

thread_local ScopedFlightIsolation::Surface* tls_surface = nullptr;

Providers& GlobalProviders() {
  if (tls_surface != nullptr) return tls_surface->providers;
  static Providers providers;
  return providers;
}

void AppendEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendKeyString(std::string* out, const char* key,
                     std::string_view value) {
  *out += '"';
  *out += key;
  *out += "\":\"";
  AppendEscaped(out, value);
  *out += '"';
}

void AppendKeyU64(std::string* out, const char* key, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, key, value);
  *out += buf;
}

void AppendKeyHex(std::string* out, const char* key, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":\"0x%" PRIx64 "\"", key, value);
  *out += buf;
}

}  // namespace

void SetPolicyProvider(std::function<PolicyInfo()> provider) {
  Providers& providers = GlobalProviders();
  std::lock_guard<Spinlock> guard(providers.lock);
  providers.policy = std::move(provider);
}

void SetHeatmapProvider(std::function<std::vector<HeatSite>()> provider) {
  Providers& providers = GlobalProviders();
  std::lock_guard<Spinlock> guard(providers.lock);
  providers.heatmap = std::move(provider);
}

PolicyInfo QueryPolicy() {
  // Copy the callable out under the lock, invoke it outside: the
  // provider reaches into the policy engine and may take its own locks.
  std::function<PolicyInfo()> provider;
  {
    Providers& providers = GlobalProviders();
    std::lock_guard<Spinlock> guard(providers.lock);
    provider = providers.policy;
  }
  return provider ? provider() : PolicyInfo{};
}

std::vector<HeatSite> QueryHeatmap() {
  std::function<std::vector<HeatSite>()> provider;
  {
    Providers& providers = GlobalProviders();
    std::lock_guard<Spinlock> guard(providers.lock);
    provider = providers.heatmap;
  }
  return provider ? provider() : std::vector<HeatSite>{};
}

// Site tokens are interned in process-registration order, so their
// numeric values depend on everything loaded before this module. The
// bundle's determinism contract (same seed -> same bytes, either
// engine, any process) demands the module-local guard ordinal instead.
uint64_t SiteOrdinal(uint64_t token) {
  if (token == trace::kUnknownSite) return 0;
  if (auto info = trace::GlobalSites().Find(token)) return info->site_id;
  return token;
}

void FillEnvironment(PostmortemBundle* bundle, size_t tail_len) {
  bundle->policy = QueryPolicy();
  bundle->heatmap = QueryHeatmap();
  if (bundle->heatmap.size() > 8) bundle->heatmap.resize(8);
  bundle->site_ordinal = static_cast<uint32_t>(SiteOrdinal(bundle->site_token));

  // Group the merged trace snapshot back into per-CPU tails.
  std::map<uint32_t, std::vector<TailRecord>> per_cpu;
  for (const trace::TraceRecord& record :
       trace::GlobalTracer().ring().Snapshot()) {
    TailRecord tail;
    tail.tsc = record.tsc;
    tail.event = std::string(trace::EventName(record.event));
    const std::array<const char*, 4> names =
        trace::EventArgNames(record.event);
    for (size_t i = 0; i < 4; ++i) {
      tail.args[i] = names[i] != nullptr &&
                             std::string_view(names[i]) == "site"
                         ? SiteOrdinal(record.args[i])
                         : record.args[i];
    }
    per_cpu[record.cpu].push_back(std::move(tail));
  }
  // A CPU with spans but no trace records still gets a tail: runs with
  // tracepoints disarmed keep their span history in the bundle.
  for (uint32_t cpu = 0; cpu < smp::kMaxCpus; ++cpu) {
    if (!trace::GlobalSpans().Tail(cpu, 1).empty()) per_cpu[cpu];
  }
  bundle->tails.clear();
  for (auto& [cpu, records] : per_cpu) {
    CpuTail tail;
    tail.cpu = cpu;
    if (records.size() > tail_len) {
      records.erase(records.begin(),
                    records.end() - static_cast<ptrdiff_t>(tail_len));
    }
    tail.records = std::move(records);
    for (const trace::SpanEvent& span :
         trace::GlobalSpans().Tail(cpu, tail_len)) {
      TailSpan tail_span;
      tail_span.kind = std::string(trace::SpanKindName(span.kind));
      tail_span.begin_tsc = span.begin_tsc;
      tail_span.end_tsc = span.end_tsc;
      tail_span.depth = span.depth;
      tail.spans.push_back(std::move(tail_span));
    }
    bundle->tails.push_back(std::move(tail));
  }
}

std::string PostmortemBundle::ToJson() const {
  std::string out = "{\"schema\":\"kop.flight.postmortem/v2\",";
  AppendKeyString(&out, "module", module);
  out += ',';
  AppendKeyString(&out, "engine", engine);
  out += ',';
  AppendKeyString(&out, "reason", reason);
  out += ',';
  AppendKeyString(&out, "what", what);
  out += ',';
  AppendKeyString(&out, "recovery", recovery);
  out += ',';
  AppendKeyU64(&out, "cpu", cpu);
  out += ',';
  AppendKeyU64(&out, "tsc", tsc);

  out += ",\"violation\":";
  if (!has_violation) {
    out += "null";
  } else {
    out += '{';
    AppendKeyHex(&out, "addr", violation_addr);
    out += ',';
    AppendKeyU64(&out, "size", violation_size);
    out += ',';
    AppendKeyU64(&out, "flags", violation_flags);
    out += ',';
    AppendKeyU64(&out, "site", site_ordinal);
    out += ',';
    AppendKeyString(&out, "site_label", site_label);
    out += '}';
  }

  out += ",\"vm\":";
  if (!vm.valid) {
    out += "null";
  } else {
    out += '{';
    AppendKeyString(&out, "function", vm.function);
    out += ',';
    AppendKeyU64(&out, "depth", vm.depth);
    out += ',';
    // Both engines retire the identical instruction sequence, so the
    // step counter doubles as an engine-neutral program counter.
    AppendKeyU64(&out, "pc", vm.stats.steps);
    out += ",\"args\":[";
    for (size_t i = 0; i < vm.args.size(); ++i) {
      if (i != 0) out += ',';
      char buf[32];
      std::snprintf(buf, sizeof(buf), "\"0x%" PRIx64 "\"", vm.args[i]);
      out += buf;
    }
    out += "],";
    AppendKeyU64(&out, "steps", vm.stats.steps);
    out += ',';
    AppendKeyU64(&out, "loads", vm.stats.loads);
    out += ',';
    AppendKeyU64(&out, "stores", vm.stats.stores);
    out += ',';
    AppendKeyU64(&out, "calls_internal", vm.stats.calls_internal);
    out += ',';
    AppendKeyU64(&out, "calls_external", vm.stats.calls_external);
    out += '}';
  }

  out += ",\"journal\":{";
  AppendKeyU64(&out, "rollbacks", journal_rollbacks);
  out += ',';
  AppendKeyU64(&out, "entries_recorded", journal_entries_recorded);
  out += ',';
  AppendKeyU64(&out, "entries_undone", journal_entries_undone);
  out += "},\"heap\":{";
  AppendKeyU64(&out, "live_blocks", heap_live_blocks);
  out += ",\"live_addrs\":[";
  for (size_t i = 0; i < heap_live_addrs.size(); ++i) {
    if (i != 0) out += ',';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"0x%" PRIx64 "\"", heap_live_addrs[i]);
    out += buf;
  }
  out += "]},\"restarts\":{";
  AppendKeyU64(&out, "attempts", restart_attempts);
  out += ',';
  AppendKeyU64(&out, "completed", restarts_completed);
  out += '}';

  out += ",\"policy\":";
  if (!policy.present) {
    out += "null";
  } else {
    out += '{';
    AppendKeyU64(&out, "frames_published", policy.frames_published);
    out += ',';
    AppendKeyU64(&out, "store_generation", policy.store_generation);
    out += ',';
    AppendKeyU64(&out, "store_size", policy.store_size);
    out += ',';
    AppendKeyString(&out, "mode", policy.mode);
    out += '}';
  }

  out += ",\"heatmap\":[";
  for (size_t i = 0; i < heatmap.size(); ++i) {
    if (i != 0) out += ',';
    out += '{';
    AppendKeyString(&out, "site", heatmap[i].site);
    out += ',';
    AppendKeyU64(&out, "hits", heatmap[i].hits);
    out += ',';
    AppendKeyU64(&out, "denied", heatmap[i].denied);
    out += '}';
  }

  out += "],\"trace\":[";
  for (size_t t = 0; t < tails.size(); ++t) {
    if (t != 0) out += ',';
    out += '{';
    AppendKeyU64(&out, "cpu", tails[t].cpu);
    out += ",\"tail\":[";
    for (size_t i = 0; i < tails[t].records.size(); ++i) {
      const TailRecord& record = tails[t].records[i];
      if (i != 0) out += ',';
      out += '{';
      AppendKeyU64(&out, "tsc", record.tsc);
      out += ',';
      AppendKeyString(&out, "event", record.event);
      out += ",\"args\":[";
      for (size_t a = 0; a < 4; ++a) {
        if (a != 0) out += ',';
        char buf[32];
        std::snprintf(buf, sizeof(buf), "\"0x%" PRIx64 "\"", record.args[a]);
        out += buf;
      }
      out += "]}";
    }
    out += "],\"spans\":[";
    for (size_t i = 0; i < tails[t].spans.size(); ++i) {
      const TailSpan& span = tails[t].spans[i];
      if (i != 0) out += ',';
      out += '{';
      AppendKeyString(&out, "kind", span.kind);
      out += ',';
      AppendKeyU64(&out, "begin", span.begin_tsc);
      out += ',';
      AppendKeyU64(&out, "end", span.end_tsc);
      out += ',';
      AppendKeyU64(&out, "depth", span.depth);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string PostmortemBundle::ToText() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "postmortem: module %s contained on cpu%u at tsc %" PRIu64
                "\n  reason:   %s (%s)\n  recovery: %s\n  engine:   %s\n",
                module.c_str(), cpu, tsc, reason.c_str(), what.c_str(),
                recovery.c_str(), engine.c_str());
  out += line;
  if (has_violation) {
    std::snprintf(line, sizeof(line),
                  "  violation: addr 0x%" PRIx64 " size %" PRIu64
                  " flags %u at %s\n",
                  violation_addr, violation_size, violation_flags,
                  site_label.c_str());
    out += line;
  }
  if (vm.valid) {
    std::snprintf(line, sizeof(line),
                  "  vm: @%s depth %u pc %" PRIu64 " (%" PRIu64
                  " loads, %" PRIu64 " stores, %" PRIu64 " ext calls)\n",
                  vm.function.c_str(), vm.depth, vm.stats.steps,
                  vm.stats.loads, vm.stats.stores, vm.stats.calls_external);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  journal: %" PRIu64 " rollbacks, %" PRIu64
                " entries undone of %" PRIu64 " recorded\n  heap: %" PRIu64
                " live blocks\n  restarts: %u attempts, %u completed\n",
                journal_rollbacks, journal_entries_undone,
                journal_entries_recorded, heap_live_blocks, restart_attempts,
                restarts_completed);
  out += line;
  if (policy.present) {
    std::snprintf(line, sizeof(line),
                  "  policy: %s, %" PRIu64 " frames published, store gen "
                  "%" PRIu64 " (%" PRIu64 " regions)\n",
                  policy.mode.c_str(), policy.frames_published,
                  policy.store_generation, policy.store_size);
    out += line;
  }
  for (const HeatSite& site : heatmap) {
    std::snprintf(line, sizeof(line), "  heat: %-40s %8" PRIu64 " hits %6"
                  PRIu64 " denied\n",
                  site.site.c_str(), site.hits, site.denied);
    out += line;
  }
  for (const CpuTail& tail : tails) {
    std::snprintf(line, sizeof(line), "  cpu%u trace tail (%zu records, %zu "
                  "spans):\n",
                  tail.cpu, tail.records.size(), tail.spans.size());
    out += line;
    for (const TailRecord& record : tail.records) {
      std::snprintf(line, sizeof(line),
                    "    %10" PRIu64 " %-22s 0x%" PRIx64 " 0x%" PRIx64
                    " 0x%" PRIx64 " 0x%" PRIx64 "\n",
                    record.tsc, record.event.c_str(), record.args[0],
                    record.args[1], record.args[2], record.args[3]);
      out += line;
    }
    for (const TailSpan& span : tail.spans) {
      std::snprintf(line, sizeof(line),
                    "    %10" PRIu64 " %-22s dur %" PRIu64 " depth %u\n",
                    span.begin_tsc, span.kind.c_str(),
                    span.end_tsc - span.begin_tsc, span.depth);
      out += line;
    }
  }
  return out;
}

void PostmortemStore::Capture(PostmortemBundle bundle) {
  [[maybe_unused]] uint64_t incidents = 0;
  {
    std::lock_guard<Spinlock> guard(lock_);
    ++incidents_;
    incidents = incidents_;
    ring_.push_back(std::move(bundle));
    if (ring_.size() > kKeep) ring_.erase(ring_.begin());
  }
  trace::GlobalMetrics().GetCounter("flight.postmortems")->Add();
  KOP_TRACE(kPostmortemCapture, 0, incidents, smp::CurrentCpu());
}

uint64_t PostmortemStore::incidents() const {
  std::lock_guard<Spinlock> guard(lock_);
  return incidents_;
}

bool PostmortemStore::Latest(PostmortemBundle* out) const {
  std::lock_guard<Spinlock> guard(lock_);
  if (ring_.empty()) return false;
  *out = ring_.back();
  return true;
}

std::vector<PostmortemBundle> PostmortemStore::All() const {
  std::lock_guard<Spinlock> guard(lock_);
  return ring_;
}

void PostmortemStore::Reset() {
  std::lock_guard<Spinlock> guard(lock_);
  ring_.clear();
  incidents_ = 0;
}

PostmortemStore& GlobalPostmortems() {
  if (tls_surface != nullptr) return tls_surface->store;
  static PostmortemStore store;
  return store;
}

ScopedFlightIsolation::ScopedFlightIsolation()
    : surface_(std::make_unique<Surface>()), prev_(tls_surface) {
  tls_surface = surface_.get();
}

ScopedFlightIsolation::~ScopedFlightIsolation() { tls_surface = prev_; }

}  // namespace kop::flight
