// Compatibility alias: MemOps began life with the e1000e driver and is
// now the shared module runtime (kop::modrt). Existing call sites keep
// the e1000e spelling.
#pragma once

#include "kop/modrt/memops.hpp"  // IWYU pragma: export

namespace kop::e1000e {
using modrt::EntryPin;
using modrt::GuardedMemOps;
using modrt::RawMemOps;
}  // namespace kop::e1000e
