#include "module_rig.hpp"

#include <utility>

#include "kop/signing/validator.hpp"

namespace kop::bench {

void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  std::abort();
}

namespace {

transform::CompileOutput Compile(std::string_view source,
                                 const transform::CompileOptions& options) {
  auto compiled = transform::CompileModuleText(source, options);
  if (!compiled.ok()) Die("compile", compiled.status());
  return std::move(*compiled);
}

signing::SignedModule Sign(const transform::CompileOutput& compiled) {
  return signing::SignModule(compiled.text, compiled.attestation,
                             signing::SigningKey::DevelopmentKey());
}

}  // namespace

signing::SignedModule SignSource(std::string_view source,
                                 const transform::CompileOptions& options) {
  return Sign(Compile(source, options));
}

signing::Keyring DevelopmentKeyring() {
  signing::Keyring keyring;
  keyring.Trust(signing::SigningKey::DevelopmentKey());
  return keyring;
}

ModuleRig::ModuleRig(bool with_nic)
    : kernel_(std::make_unique<kernel::Kernel>()) {
  auto inserted = policy::PolicyModule::Insert(
      kernel_.get(), nullptr, policy::PolicyMode::kDefaultAllow);
  if (!inserted.ok()) Die("policy module", inserted.status());
  policy_ = std::move(*inserted);
  loader_ = std::make_unique<kernel::ModuleLoader>(kernel_.get(),
                                                   DevelopmentKeyring());
  if (with_nic) {
    sink_ = std::make_unique<nic::CountingSink>();
    nic_ = std::make_unique<nic::E1000Device>(&kernel_->mem(), sink_.get());
    Status mapped = nic_->MapAt(kernel::kVmallocBase);
    if (!mapped.ok()) Die("e1000 device", mapped);
  }
}

ModuleRig::~ModuleRig() = default;

kernel::LoadedModule* ModuleRig::Load(
    std::string_view source, const transform::CompileOptions& options,
    kernel::ExecEngine engine) {
  loader_->set_engine(engine);
  auto loaded = loader_->Insmod(SignSource(source, options));
  if (!loaded.ok()) Die("insmod", loaded.status());
  return *loaded;
}

kir::ExecutionEngine& ModuleRig::LoadBare(
    std::string_view source, const transform::CompileOptions& options,
    kernel::ExecEngine engine) {
  transform::CompileOutput compiled = Compile(source, options);
  BareModule bare;
  if (options.inject_guards) {
    auto validated =
        signing::ValidateSignedModule(Sign(compiled), loader_->keyring());
    if (!validated.ok()) Die("validate", validated.status());
    bare.ir = std::move(validated->module);
  } else {
    bare.ir = std::move(compiled.module);
  }

  kernel::SlotRecipe recipe;
  recipe.ir = bare.ir.get();
  recipe.engine = engine;
  auto addresses =
      kernel::LayoutGlobals(kernel_.get(), *bare.ir, &bare_allocations_);
  if (!addresses.ok()) Die("layout", addresses.status());
  recipe.addresses = std::move(*addresses);
  auto slot = kernel::BuildModuleSlot(kernel_.get(), recipe,
                                      &bare_allocations_);
  if (!slot.ok()) Die("slot", slot.status());
  bare.slot = std::move(*slot);
  bare_.push_back(std::move(bare));
  return *bare_.back().slot->engine;
}

}  // namespace kop::bench
