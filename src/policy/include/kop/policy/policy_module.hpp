// The CARAT KOP policy module (paper §3.1): "this module is inserted into
// the kernel and provides a single symbol, carat_guard, which is invoked
// by modules which have been transformed by the compiler." On insertion
// it exports carat_guard (and the §5 carat_intrinsic_guard), registers
// /dev/carat, and serves ioctls from the policy-manager tool.
#pragma once

#include <cstddef>
#include <memory>

#include "kop/kernel/kernel.hpp"
#include "kop/policy/engine.hpp"
#include "kop/policy/ioctl_abi.hpp"

namespace kop::policy {

class PolicyModule {
 public:
  /// Insert the policy module into the kernel. The middle parameter
  /// accepts only nullptr; it exists so `Insert(kernel, nullptr, mode)`
  /// callers keep compiling.
  static Result<std::unique_ptr<PolicyModule>> Insert(
      kernel::Kernel* kernel, std::nullptr_t = nullptr,
      PolicyMode mode = PolicyMode::kDefaultDeny);

  /// Unexports the symbols and removes /dev/carat (rmmod).
  ~PolicyModule();
  PolicyModule(const PolicyModule&) = delete;
  PolicyModule& operator=(const PolicyModule&) = delete;

  PolicyEngine& engine() { return *engine_; }
  const PolicyEngine& engine() const { return *engine_; }

 private:
  explicit PolicyModule(kernel::Kernel* kernel);

  Status HandleIoctl(uint32_t cmd, std::vector<uint8_t>& arg);

  kernel::Kernel* kernel_;
  std::unique_ptr<PolicyEngine> engine_;
  bool installed_ = false;
};

}  // namespace kop::policy
