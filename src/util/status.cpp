#include "kop/util/status.hpp"

namespace kop {

std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kAlreadyExists: return "already_exists";
    case ErrorCode::kPermissionDenied: return "permission_denied";
    case ErrorCode::kOutOfMemory: return "out_of_memory";
    case ErrorCode::kOutOfRange: return "out_of_range";
    case ErrorCode::kNoSpace: return "no_space";
    case ErrorCode::kBadModule: return "bad_module";
    case ErrorCode::kBusy: return "busy";
    case ErrorCode::kUnimplemented: return "unimplemented";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kInterrupted: return "interrupted";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

const std::string& Status::message() const {
  static const std::string kEmpty;
  return rep_ ? rep_->message : kEmpty;
}

std::string Status::ToString() const {
  if (ok()) return "ok";
  std::string out(ErrorCodeName(rep_->code));
  if (!rep_->message.empty()) {
    out += ": ";
    out += rep_->message;
  }
  return out;
}

}  // namespace kop
