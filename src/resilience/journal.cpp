#include "kop/resilience/journal.hpp"

namespace kop::resilience {

std::string_view RollbackReasonName(RollbackReason reason) {
  switch (reason) {
    case RollbackReason::kGuardViolation: return "guard_violation";
    case RollbackReason::kTimeout: return "timeout";
    case RollbackReason::kPanic: return "panic";
    case RollbackReason::kFault: return "fault";
  }
  return "?";
}

}  // namespace kop::resilience
