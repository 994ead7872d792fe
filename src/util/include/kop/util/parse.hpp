// Strict integer parsing for rules files and command-line values.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace kop::util {

/// Parse all of `text` as an unsigned 64-bit integer: decimal, `0x` hex
/// or leading-`0` octal. Returns false on an empty string, anything but
/// a digit first (whitespace, a sign), trailing junk, or overflow.
inline bool ParseU64(const std::string& text, uint64_t* out) {
  // Digits only: strtoull alone would skip leading whitespace, negate a
  // leading '-' into the top of the address space and saturate on
  // overflow.
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 0);
  return errno != ERANGE && end != nullptr && *end == '\0';
}

}  // namespace kop::util
