// The one module rig every KIR bench links its modules through: a kernel
// with the policy module inserted, a ModuleLoader trusting the
// development key, and optionally an e1000 device at kVmallocBase. Loaded
// modules go through the loader's own validation, resolver, fast path and
// slot builder — the program the kernel runs, not a bench-side copy of
// it. Any non-ok compile, insmod or call aborts with a message, so a
// bench never times a silently broken variant.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kir/module.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/nic/packet_sink.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/signing/signer.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/util/status.hpp"

namespace kop::bench {

/// Print "<what>: <status>" and abort.
[[noreturn]] void Die(const std::string& what, const Status& status);

/// Compile `source` with `options` and sign it with the development key.
signing::SignedModule SignSource(std::string_view source,
                                 const transform::CompileOptions& options);

/// A keyring trusting the development key.
signing::Keyring DevelopmentKeyring();

/// `callee.Call(fn, args)` (a LoadedModule or a bare engine); any non-ok
/// result aborts.
template <typename Callee>
uint64_t MustCall(Callee& callee, const std::string& fn,
                  const std::vector<uint64_t>& args) {
  auto result = callee.Call(fn, args);
  if (!result.ok()) Die("call @" + fn, result.status());
  return *result;
}

class ModuleRig {
 public:
  /// `with_nic` maps an e1000 device (counting sink) at kVmallocBase.
  explicit ModuleRig(bool with_nic = false);
  ~ModuleRig();
  ModuleRig(const ModuleRig&) = delete;
  ModuleRig& operator=(const ModuleRig&) = delete;

  /// Compile, sign and Insmod `source` on `engine`.
  kernel::LoadedModule* Load(
      std::string_view source, const transform::CompileOptions& options = {},
      kernel::ExecEngine engine = kernel::DefaultExecEngine());

  /// Link `source` onto a bare engine from the loader's slot builder (no
  /// transaction, no containment). Guarded images must first pass
  /// signing::ValidateSignedModule; an unguarded one — which Insmod
  /// refuses — is linked from the compiler's IR. For timing comparisons
  /// that need an unguarded baseline: both sides of the ratio then run on
  /// the same call path.
  kir::ExecutionEngine& LoadBare(std::string_view source,
                                 const transform::CompileOptions& options,
                                 kernel::ExecEngine engine);

  kernel::Kernel& kernel() { return *kernel_; }
  policy::PolicyEngine& policy() { return policy_->engine(); }
  kernel::ModuleLoader& loader() { return *loader_; }
  /// Frames the NIC put on the wire (0 without a NIC).
  uint64_t wire_packets() const { return sink_ ? sink_->packets() : 0; }

 private:
  struct BareModule {
    std::unique_ptr<kir::Module> ir;
    std::unique_ptr<kernel::ModuleSlot> slot;
  };

  // Declaration order is teardown order reversed: modules go before the
  // policy module, the device and the kernel they run against.
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<nic::CountingSink> sink_;
  std::unique_ptr<nic::E1000Device> nic_;
  std::unique_ptr<policy::PolicyModule> policy_;
  std::unique_ptr<kernel::ModuleLoader> loader_;
  std::vector<uint64_t> bare_allocations_;
  std::vector<BareModule> bare_;
};

}  // namespace kop::bench
