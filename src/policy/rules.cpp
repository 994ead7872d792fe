#include "kop/policy/rules.hpp"

#include <cstdio>
#include <sstream>

#include "kop/transform/privileged.hpp"
#include "kop/util/parse.hpp"

namespace kop::policy {
namespace {

using util::ParseU64;

Status LineError(size_t line, const std::string& message) {
  return InvalidArgument("policy rules line " + std::to_string(line) + ": " +
                         message);
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token[0] == '#') break;  // comment to end of line
    tokens.push_back(token);
  }
  return tokens;
}

/// Parse one or two tokens into a range: "<name>" | "<base> +<len>" |
/// "<base>-<end>". Returns the number of tokens consumed (0 on error).
size_t ParseRange(const std::vector<std::string>& tokens, size_t at,
                  const NamedRanges& names, Region* out) {
  if (at >= tokens.size()) return 0;
  auto named = names.find(tokens[at]);
  if (named != names.end()) {
    out->base = named->second.base;
    out->len = named->second.len;
    return 1;
  }
  // base-end in a single token?
  const size_t dash = tokens[at].find('-', 1);
  if (dash != std::string::npos) {
    uint64_t base = 0;
    uint64_t end = 0;
    if (!ParseU64(tokens[at].substr(0, dash), &base) ||
        !ParseU64(tokens[at].substr(dash + 1), &end) || end <= base) {
      return 0;
    }
    out->base = base;
    out->len = end - base;
    return 1;
  }
  // base +len as two tokens.
  uint64_t base = 0;
  if (!ParseU64(tokens[at], &base)) return 0;
  if (at + 1 >= tokens.size() || tokens[at + 1][0] != '+') return 0;
  uint64_t len = 0;
  if (!ParseU64(tokens[at + 1].substr(1), &len) || len == 0) return 0;
  out->base = base;
  out->len = len;
  return 2;
}

bool ParseProtWord(const std::string& word, uint32_t* out) {
  if (word == "r") { *out = kProtRead; return true; }
  if (word == "w") { *out = kProtWrite; return true; }
  if (word == "rw" || word == "wr") { *out = kProtRW; return true; }
  if (word == "none") { *out = kProtNone; return true; }
  return false;
}

bool ParseIntrinsicName(const std::string& word, uint64_t* out) {
  if (ParseU64(word, out)) return true;
  // Accept both "cli" and "kir.cli".
  const std::string name = word.rfind("kir.", 0) == 0 ? word : "kir." + word;
  auto intrinsic = transform::PrivilegedIntrinsicFromName(name);
  if (!intrinsic) return false;
  *out = static_cast<uint64_t>(*intrinsic);
  return true;
}

}  // namespace

NamedRanges DefaultNamedRanges(const kernel::Kernel& kernel) {
  NamedRanges names;
  names["kernel-half"] =
      Region{kernel::kKernelHalfBase, ~uint64_t{0} - kernel::kKernelHalfBase,
             kProtNone};
  names["user-half"] = Region{0, kernel::kUserSpaceEnd, kProtNone};
  names["direct-map"] =
      Region{kernel.direct_map_base(), kernel.direct_map_size(), kProtNone};
  names["kernel-text"] =
      Region{kernel.kernel_text_base(), kernel.kernel_text_size(), kProtNone};
  names["module-area"] =
      Region{kernel.module_area_base(), kernel.module_area_size(), kProtNone};
  names["vmalloc"] =
      Region{kernel::kVmallocBase, 1ull << 32, kProtNone};
  return names;
}

Result<PolicySpec> ParsePolicyRules(const std::string& text,
                                    const NamedRanges& names) {
  PolicySpec spec;
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];

    if (keyword == "mode") {
      if (tokens.size() != 2 ||
          (tokens[1] != "allow" && tokens[1] != "deny")) {
        return LineError(line_number, "expected 'mode allow' or 'mode deny'");
      }
      spec.mode = tokens[1] == "allow" ? PolicyMode::kDefaultAllow
                                       : PolicyMode::kDefaultDeny;
      spec.mode_set = true;
      continue;
    }

    if (keyword == "allow" || keyword == "deny" || keyword == "restrict") {
      Region region;
      const size_t consumed = ParseRange(tokens, 1, names, &region);
      if (consumed == 0) {
        return LineError(line_number,
                         "expected a named range, '<base> +<len>' or "
                         "'<base>-<end>'");
      }
      size_t at = 1 + consumed;
      if (keyword == "deny") {
        region.prot = kProtNone;
        if (at != tokens.size()) {
          return LineError(line_number, "'deny' takes no protection word");
        }
      } else {
        region.prot = kProtRW;  // default for 'allow'
        if (at < tokens.size()) {
          if (!ParseProtWord(tokens[at], &region.prot)) {
            return LineError(line_number,
                             "bad protection '" + tokens[at] +
                                 "' (want r|w|rw|none)");
          }
          ++at;
        } else if (keyword == "restrict") {
          return LineError(line_number,
                           "'restrict' requires a protection word");
        }
        if (at != tokens.size()) {
          return LineError(line_number, "trailing tokens");
        }
      }
      spec.regions.push_back(region);
      continue;
    }

    if (keyword == "intrinsic") {
      if (tokens.size() != 3 ||
          (tokens[1] != "allow" && tokens[1] != "deny")) {
        return LineError(line_number,
                         "expected 'intrinsic allow|deny <name|id>'");
      }
      IntrinsicRule rule;
      rule.allow = tokens[1] == "allow";
      if (!ParseIntrinsicName(tokens[2], &rule.intrinsic_id)) {
        return LineError(line_number,
                         "unknown intrinsic '" + tokens[2] + "'");
      }
      spec.intrinsics.push_back(rule);
      continue;
    }

    return LineError(line_number, "unknown keyword '" + keyword + "'");
  }
  return spec;
}

Status ApplyPolicySpec(const PolicySpec& spec, PolicyEngine& engine) {
  if (spec.mode_set) engine.SetMode(spec.mode);
  engine.store().Clear();
  for (const Region& region : spec.regions) {
    KOP_RETURN_IF_ERROR(engine.store().Add(region));
  }
  for (const IntrinsicRule& rule : spec.intrinsics) {
    if (rule.allow) {
      engine.AllowIntrinsic(rule.intrinsic_id);
    } else {
      engine.DenyIntrinsic(rule.intrinsic_id);
    }
  }
  return OkStatus();
}

std::string RenderPolicyRules(const PolicyEngine& engine) {
  std::string out = "mode ";
  out += engine.mode() == PolicyMode::kDefaultAllow ? "allow" : "deny";
  out += "\n";
  char line[96];
  for (const Region& region : engine.store().Snapshot()) {
    const char* prot = region.prot == kProtRW      ? "rw"
                       : region.prot == kProtRead  ? "r"
                       : region.prot == kProtWrite ? "w"
                                                   : "none";
    if (region.prot == kProtNone) {
      std::snprintf(line, sizeof(line), "deny 0x%llx +0x%llx\n",
                    static_cast<unsigned long long>(region.base),
                    static_cast<unsigned long long>(region.len));
    } else {
      std::snprintf(line, sizeof(line), "allow 0x%llx +0x%llx %s\n",
                    static_cast<unsigned long long>(region.base),
                    static_cast<unsigned long long>(region.len), prot);
    }
    out += line;
  }
  return out;
}

PolicySpec SynthesizePolicy(const std::vector<ViolationRecord>& trace,
                            uint64_t granularity) {
  PolicySpec spec;
  spec.mode = PolicyMode::kDefaultDeny;
  spec.mode_set = true;

  // Page-granular access map: page -> union of required flags.
  std::map<uint64_t, uint32_t> pages;
  std::map<uint64_t, bool> intrinsics_seen;
  for (const ViolationRecord& record : trace) {
    if (record.intrinsic) {
      intrinsics_seen[record.addr] = true;
      continue;
    }
    const uint64_t first = record.addr / granularity;
    const uint64_t last =
        (record.addr + (record.size == 0 ? 1 : record.size) - 1) /
        granularity;
    for (uint64_t page = first;; ++page) {
      pages[page] |= static_cast<uint32_t>(record.access_flags);
      if (page == last) break;
    }
  }

  // Coalesce runs of adjacent pages with identical flags.
  auto it = pages.begin();
  while (it != pages.end()) {
    const uint64_t start = it->first;
    const uint32_t prot = it->second;
    uint64_t end = start;
    auto run = std::next(it);
    while (run != pages.end() && run->first == end + 1 &&
           run->second == prot) {
      end = run->first;
      ++run;
    }
    spec.regions.push_back(Region{start * granularity,
                                  (end - start + 1) * granularity, prot});
    it = run;
  }

  for (const auto& [intrinsic_id, seen] : intrinsics_seen) {
    if (seen) spec.intrinsics.push_back(IntrinsicRule{intrinsic_id, true});
  }
  return spec;
}

}  // namespace kop::policy
