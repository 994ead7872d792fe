// Quickstart: the whole CARAT KOP pipeline in one file.
//
//   1. Boot a simulated kernel and insert the policy module.
//   2. Compile a kernel module with the CARAT KOP compiler (guards
//      injected before every load/store, attested, signed).
//   3. insmod it: signature + attestation validated, symbols linked.
//   4. Run it under a policy; watch an out-of-policy access get blocked.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/signing/signer.hpp"
#include "kop/transform/compiler.hpp"

int main() {
  using namespace kop;

  // 1. Boot the kernel and insert the CARAT KOP policy module, which
  //    exports the single guard symbol and registers /dev/carat.
  kernel::Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultDeny);
  if (!policy.ok()) return 1;
  std::printf("[1] policy module inserted (linear-table-64)\n");

  // 2. Compile the ring-buffer module. The compiler inserts a
  //    carat_guard call before every load and store, certifies the
  //    absence of inline assembly, and signs the image.
  auto compiled = transform::CompileModuleText(kirmods::RingbufSource());
  if (!compiled.ok()) return 1;
  const auto image =
      signing::SignModule(compiled->text, compiled->attestation,
                          signing::SigningKey::DevelopmentKey());
  std::printf("[2] compiled kop_ringbuf: %llu guards injected, signed by %s\n",
              static_cast<unsigned long long>(
                  compiled->attestation.guard_count),
              image.key_id.c_str());

  // 3. insmod: the kernel verifies the signature, re-checks that every
  //    access is guarded, and links carat_guard to the policy module.
  signing::Keyring keyring;
  keyring.Trust(signing::SigningKey::DevelopmentKey());
  kernel::ModuleLoader loader(&kernel, keyring);
  auto loaded = loader.Insmod(image);
  if (!loaded.ok()) {
    std::printf("insmod failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("[3] insmod kop_ringbuf: ok\n");

  // 4. Policy: allow the module area (where the module's own globals
  //    live) and nothing else — the operator's firewall rule.
  (void)(*policy)->engine().store().Add(policy::Region{
      kernel.module_area_base(), kernel.module_area_size(),
      policy::kProtRW});
  std::printf("[4] policy: allow module area only (default deny)\n\n");

  // The module works normally within its allowed region...
  (void)(*loaded)->Call("rb_init", {});
  for (uint64_t i = 1; i <= 5; ++i) (void)(*loaded)->Call("rb_push", {i * i});
  auto size = (*loaded)->Call("rb_size", {});
  auto front = (*loaded)->Call("rb_pop", {});
  std::printf("    rb_size() = %llu, rb_pop() = %llu  (guards: %llu calls, "
              "0 denied)\n",
              static_cast<unsigned long long>(size.value_or(0)),
              static_cast<unsigned long long>(front.value_or(0)),
              static_cast<unsigned long long>(
                  (*policy)->engine().stats().guard_calls));

  // ...but the same module image cannot touch anything outside the
  // policy. Load the scribbler and aim it at the kernel heap:
  auto rogue_compiled =
      transform::CompileModuleText(kirmods::ScribblerSource());
  if (!rogue_compiled.ok()) return 1;
  auto rogue = loader.Insmod(
      signing::SignModule(rogue_compiled->text, rogue_compiled->attestation,
                          signing::SigningKey::DevelopmentKey()));
  if (!rogue.ok()) return 1;
  auto victim = kernel.heap().Kmalloc(64);
  std::printf("\n    rogue module writes kernel heap 0x%llx ...\n",
              static_cast<unsigned long long>(victim.value_or(0)));
  try {
    (void)(*rogue)->Call("scribble", {*victim, 0xdeadbeef});
    std::printf("    !! write went through (policy misconfigured?)\n");
  } catch (const kernel::KernelPanic& panic) {
    std::printf("    -> %s\n", panic.what());
  }

  std::printf("\ndmesg:\n");
  for (const auto& record : kernel.log().Dmesg()) {
    std::printf("  %s\n", record.text.c_str());
  }
  return 0;
}
