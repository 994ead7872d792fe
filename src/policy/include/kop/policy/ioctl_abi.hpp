// The /dev/carat ioctl ABI shared between the policy module and the
// userspace policy-manager tool (paper Figure 1: "A server owner can
// configure the CARAT KOP policy through the ioctl interface").
// Arguments are fixed-layout PODs copied through the arg buffer, like
// copy_from_user/copy_to_user of a userspace struct.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace kop::policy {

inline constexpr const char* kCaratDevicePath = "/dev/carat";

enum CaratIoctl : uint32_t {
  KOP_IOCTL_ADD_REGION = 0x4b01,
  KOP_IOCTL_REMOVE_REGION = 0x4b02,
  KOP_IOCTL_CLEAR_REGIONS = 0x4b03,
  KOP_IOCTL_SET_MODE = 0x4b04,        // arg: CaratModeArg
  KOP_IOCTL_GET_STATS = 0x4b05,       // out: CaratStatsArg
  KOP_IOCTL_COUNT_REGIONS = 0x4b06,   // out: CaratCountArg
  KOP_IOCTL_LIST_REGIONS = 0x4b07,    // out: CaratListArg
  KOP_IOCTL_ALLOW_INTRINSIC = 0x4b08, // arg: CaratIntrinsicArg
  KOP_IOCTL_DENY_INTRINSIC = 0x4b09,  // arg: CaratIntrinsicArg
  KOP_IOCTL_RESET_STATS = 0x4b0a,
  KOP_IOCTL_GET_VIOLATIONS = 0x4b0b,  // out: CaratViolationsArg
  KOP_IOCTL_READ_TRACE = 0x4b0c,      // out: CaratTraceArg
  KOP_IOCTL_GET_HOT_SITES = 0x4b0d,   // out: CaratHotSitesArg
  KOP_IOCTL_READ_POSTMORTEM = 0x4b0e, // out: CaratPostmortemArg
};

// The paper spells the ioctl names CARAT_IOC_*; keep those as aliases so
// code written against the paper reads naturally.
inline constexpr uint32_t CARAT_IOC_GET_STATS = KOP_IOCTL_GET_STATS;
inline constexpr uint32_t CARAT_IOC_GET_VIOLATIONS = KOP_IOCTL_GET_VIOLATIONS;
inline constexpr uint32_t CARAT_IOC_READ_TRACE = KOP_IOCTL_READ_TRACE;
inline constexpr uint32_t CARAT_IOC_GET_HOT_SITES = KOP_IOCTL_GET_HOT_SITES;
inline constexpr uint32_t CARAT_IOC_READ_POSTMORTEM =
    KOP_IOCTL_READ_POSTMORTEM;

struct CaratRegionArg {
  uint64_t base = 0;
  uint64_t len = 0;
  uint32_t prot = 0;
  uint32_t pad = 0;
};

struct CaratModeArg {
  uint32_t default_allow = 0;  // 0 = default deny, 1 = default allow
  uint32_t pad = 0;
};

struct CaratStatsArg {
  uint64_t guard_calls = 0;
  uint64_t allowed = 0;
  uint64_t denied = 0;
  uint64_t intrinsic_calls = 0;
  uint64_t intrinsic_denied = 0;
  /// Accesses proven by a covering-interval guard (appended field; older
  /// readers that unpack the shorter struct still see the ones above).
  uint64_t elided = 0;
  /// kop::cfi decisions/denials (appended fields, same compatibility
  /// rule as `elided`).
  uint64_t cfi_checks = 0;
  uint64_t cfi_denied = 0;
};

struct CaratCountArg {
  uint64_t count = 0;
};

struct CaratIntrinsicArg {
  uint64_t intrinsic_id = 0;
};

struct CaratListArg {
  static constexpr uint32_t kMax = 64;
  uint32_t count = 0;
  uint32_t pad = 0;
  CaratRegionArg regions[kMax] = {};
};

struct CaratViolationArg {
  uint64_t addr = 0;
  uint64_t size = 0;
  uint64_t access_flags = 0;
  uint64_t sequence = 0;
  uint32_t intrinsic = 0;
  /// 1 for a CFI denial: `addr` is the rejected indirect-call target,
  /// `size` the target-set id, `access_flags` 0. Was a zero pad word, so
  /// readers that ignore it see the same layout.
  uint32_t cfi = 0;
};
static_assert(sizeof(CaratViolationArg) == 40, "userspace ABI layout");

struct CaratViolationsArg {
  static constexpr uint32_t kMax = 64;
  uint32_t count = 0;
  uint32_t pad = 0;
  CaratViolationArg records[kMax] = {};
};

/// One tracepoint record as copied out to userspace (mirrors
/// trace::TraceRecord without the C++ enum).
struct CaratTraceRecordArg {
  uint64_t tsc = 0;
  uint64_t seq = 0;    // index in `cpu`'s trace ring; (cpu, seq) is unique
  uint32_t event = 0;  // trace::EventId value
  uint32_t cpu = 0;    // simulated CPU the record was appended on
  uint64_t args[4] = {};
};

struct CaratTraceArg {
  static constexpr uint32_t kMax = 64;
  uint32_t count = 0;
  uint32_t pad = 0;
  uint64_t total = 0;    // records ever appended, summed over CPUs
  uint64_t dropped = 0;  // overwritten before this read
  CaratTraceRecordArg records[kMax] = {};  // newest kMax, oldest first
};

struct CaratHotSiteArg {
  uint64_t site = 0;  // trace::GlobalSites token; 0 = unattributed
  uint64_t hits = 0;
  uint64_t denied = 0;
  uint64_t elided = 0;  // member accesses this covering site proved
  char label[96] = {};  // "module:@fn+inst" rendered kernel-side
};

struct CaratHotSitesArg {
  static constexpr uint32_t kMax = 64;
  uint32_t count = 0;
  uint32_t pad = 0;
  CaratHotSiteArg sites[kMax] = {};  // hottest first
};

/// The newest flight-recorder postmortem bundle, rendered kernel-side as
/// deterministic JSON. `present` = 0 when no incident has been captured;
/// bundles larger than the buffer are truncated (`truncated` = 1,
/// `total_len` the untruncated length).
struct CaratPostmortemArg {
  static constexpr uint32_t kMax = 8192;
  uint32_t present = 0;
  uint32_t truncated = 0;
  uint64_t total_len = 0;
  uint64_t incidents = 0;  // lifetime incident count
  char json[kMax] = {};    // NUL-terminated
};

/// Pack a POD into an ioctl arg buffer.
template <typename T>
std::vector<uint8_t> PackArg(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<uint8_t> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

/// Unpack; false when the buffer is too small.
template <typename T>
bool UnpackArg(const std::vector<uint8_t>& buffer, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (buffer.size() < sizeof(T)) return false;
  std::memcpy(out, buffer.data(), sizeof(T));
  return true;
}

}  // namespace kop::policy
