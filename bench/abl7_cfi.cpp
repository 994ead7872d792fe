// Ablation 7: the price of indirect-call gating (kop::cfi).
// PR goal: CFI checks on the guarded knic xmit hot path cost <= 5% on
// the bytecode engine versus the same guarded module compiled with
// KOP_CFI=off.
//
// Harness shape follows abl6's xmit half: direct-wired engines over a
// shared kernel/policy floor, resolver forwarding both the guard fast
// ops and the CFI fast op (FastCfiCheck) to the real PolicyEngine, so a
// recognized kCfiCheck runs as a pinned-frame binary search and only
// deopts pay the external-call slow path — exactly the module loader's
// wiring. The workload is an indirect-dispatch transmit: every xmit
// resolves its op handler through a vtable (one icall, one CFI check
// when gating is on) and the handler fills the tx buffer with a guarded
// store loop (~64 guards). That 1:64 check-to-guard density is the knic
// shape the acceptance bound prices.
//
// Variants: {interp, bytecode} x {cfi-off, cfi-on}, guards on in all
// four. The acceptance ratio is bytecode cfi-on / cfi-off.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kir/bytecode.hpp"
#include "kop/kir/engine.hpp"
#include "kop/kir/interp.hpp"
#include "kop/kir/module.hpp"
#include "kop/kir/parser.hpp"
#include "kop/kir/vm.hpp"
#include "kop/policy/engine.hpp"
#include "kop/trace/span.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/util/carat_abi.hpp"

#include "common/experiment.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using kop::kernel::Kernel;

/// kir memory over the kernel address space, charging the machine model
/// like the module loader's adapter does (same as abl4/abl6).
class KernelMemory final : public kop::kir::MemoryInterface {
 public:
  explicit KernelMemory(Kernel* kernel) : kernel_(kernel) {}

  kop::Result<uint64_t> Load(uint64_t addr, uint32_t size) override {
    kernel_->clock().Advance(kernel_->machine().mem_read_cycles);
    switch (size) {
      case 1: {
        auto v = kernel_->mem().Read8(addr);
        if (!v.ok()) return v.status();
        return uint64_t{*v};
      }
      case 2: {
        auto v = kernel_->mem().Read16(addr);
        if (!v.ok()) return v.status();
        return uint64_t{*v};
      }
      case 4: {
        auto v = kernel_->mem().Read32(addr);
        if (!v.ok()) return v.status();
        return uint64_t{*v};
      }
      default:
        return kernel_->mem().Read64(addr);
    }
  }

  kop::Status Store(uint64_t addr, uint64_t value, uint32_t size) override {
    kernel_->clock().Advance(kernel_->machine().mem_write_cycles);
    switch (size) {
      case 1:
        return kernel_->mem().Write8(addr, static_cast<uint8_t>(value));
      case 2:
        return kernel_->mem().Write16(addr, static_cast<uint16_t>(value));
      case 4:
        return kernel_->mem().Write32(addr, static_cast<uint32_t>(value));
      default:
        return kernel_->mem().Write64(addr, value);
    }
  }

 private:
  Kernel* kernel_;
};

/// Guard and CFI calls go to the real policy engine, fast paths
/// included: PinGuardFrame / FastGuard / FastGuardRange / FastCfiCheck
/// forward straight to the engine the way the module loader's resolver
/// does, so kCfiCheck resolves as a pinned-frame membership test and
/// only deopts land in CallExternal/CallBound.
class CfiGuardResolver final : public kop::kir::ExternalResolver {
 public:
  explicit CfiGuardResolver(kop::policy::PolicyEngine* engine)
      : engine_(engine) {}

  kop::Result<uint64_t> CallExternal(const std::string& name,
                                     const std::vector<uint64_t>& args)
      override {
    return CallExternal(name, args, 0);
  }

  kop::Result<uint64_t> CallExternal(const std::string& name,
                                     const std::vector<uint64_t>& args,
                                     uint64_t /*call_ordinal*/) override {
    if (name == kop::kCaratGuardSymbol && args.size() == 3) {
      return uint64_t{engine_->Guard(args[0], args[1], args[2]) ? 1u : 0u};
    }
    if (name == kop::kCaratGuardRangeSymbol && args.size() == 4) {
      return uint64_t{
          engine_->GuardRange(args[0], args[1], args[2], args[3]) ? 1u : 0u};
    }
    if (name == kop::kCaratIntrinsicGuardSymbol && args.size() == 1) {
      return uint64_t{engine_->IntrinsicGuard(args[0]) ? 1u : 0u};
    }
    if (name == kop::kCaratCfiCheckSymbol && args.size() == 2) {
      return uint64_t{engine_->CfiCheck(args[0], args[1]) ? 1u : 0u};
    }
    return kop::NotFound("undefined symbol in bench harness: " + name);
  }

  std::optional<uint64_t> BindExternal(const std::string& name) override {
    if (name == kop::kCaratGuardSymbol) return uint64_t{0};
    if (name == kop::kCaratIntrinsicGuardSymbol) return uint64_t{1};
    if (name == kop::kCaratGuardRangeSymbol) return uint64_t{2};
    if (name == kop::kCaratCfiCheckSymbol) return uint64_t{3};
    return std::nullopt;
  }

  kop::Result<uint64_t> CallBound(uint64_t handle,
                                  const std::vector<uint64_t>& args,
                                  uint64_t /*call_ordinal*/) override {
    if (handle == 0 && args.size() == 3) {
      return uint64_t{engine_->Guard(args[0], args[1], args[2]) ? 1u : 0u};
    }
    if (handle == 1 && args.size() == 1) {
      return uint64_t{engine_->IntrinsicGuard(args[0]) ? 1u : 0u};
    }
    if (handle == 2 && args.size() == 4) {
      return uint64_t{
          engine_->GuardRange(args[0], args[1], args[2], args[3]) ? 1u : 0u};
    }
    if (handle == 3 && args.size() == 2) {
      return uint64_t{engine_->CfiCheck(args[0], args[1]) ? 1u : 0u};
    }
    return kop::Internal("bad bound handle in bench harness");
  }

  bool PinGuardFrame() override { return engine_->PinFrame(); }
  void UnpinGuardFrame() override { engine_->UnpinFrame(); }
  bool FastGuard(uint64_t addr, uint64_t size, uint64_t flags,
                 uint64_t /*call_ordinal*/) override {
    return engine_->FastGuard(addr, size, flags, 0);
  }
  bool FastGuardRange(uint64_t addr, uint64_t size, uint64_t flags,
                      uint64_t elided, uint64_t /*call_ordinal*/) override {
    return engine_->FastGuardRange(addr, size, flags, elided, 0);
  }
  bool FastCfiCheck(uint64_t target, uint64_t set_id,
                    uint64_t /*call_ordinal*/) override {
    return engine_->FastCfiCheck(target, set_id, 0);
  }

 private:
  kop::policy::PolicyEngine* engine_;
};

/// Indirect-dispatch transmit: xmit resolves the op handler through a
/// vtable (the icall the CFI pass gates) and @op_copy fills the tx
/// buffer with a byte-store loop the guard pass instruments. @op_drop
/// is address-taken too, so the legal-target set at the dispatch has two
/// members and membership is a real search, not a constant fold.
const char* kKnicSource = R"(module "abl7_knic"

global @vtable size 16 rw
global @txbuf size 256 rw
global @sent size 8 rw

func @op_copy(i64 %len, i64 %pattern) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %done = icmp uge i64 %i, %len
  br %done, out, body
body:
  %p = gep @txbuf, i64 %i, 1, 0
  %v0 = add i64 %i, %pattern
  %v = trunc i64 %v0 to i8
  store i8 %v, %p
  %i1 = add i64 %i, 1
  jmp loop
out:
  %s = load i64, @sent
  %s1 = add i64 %s, 1
  store i64 %s1, @sent
  ret i64 %len
}

func @op_drop(i64 %len, i64 %pattern) -> i64 {
entry:
  ret i64 0
}

func @knic_init() -> i64 {
entry:
  %f0 = funcaddr @op_copy
  %i0 = ptrtoint ptr %f0 to i64
  %p0 = gep @vtable, i64 0, 8, 0
  store i64 %i0, %p0
  %f1 = funcaddr @op_drop
  %i1 = ptrtoint ptr %f1 to i64
  %p1 = gep @vtable, i64 1, 8, 0
  store i64 %i1, %p1
  store i64 0, @sent
  ret i64 2
}

func @knic_xmit(i64 %op, i64 %len, i64 %pattern) -> i64 {
entry:
  %slot = gep @vtable, i64 %op, 8, 0
  %raw = load i64, %slot
  %f = inttoptr i64 %raw to ptr
  %r = icall i64 %f(i64 %len, i64 %pattern)
  ret i64 %r
}

func @knic_sent() -> i64 {
entry:
  %v = load i64, @sent
  ret i64 %v
}
)";

/// One engine wired to its own kernel + policy (kept alive across
/// interleaved timing rounds). CFI-on legs register the attested
/// legal-target sets with the engine the way insmod does: member names
/// resolve to simulated function addresses through the module's own
/// function table.
struct XmitHarness {
  const char* label;
  bool bytecode;
  bool cfi;

  std::unique_ptr<kop::kir::Module> module{};
  std::unique_ptr<Kernel> kernel{};
  std::unique_ptr<kop::policy::PolicyEngine> policy{};
  std::unique_ptr<KernelMemory> memory{};
  std::unique_ptr<CfiGuardResolver> resolver{};
  std::unique_ptr<kop::kir::ExecutionEngine> engine{};

  double best_ns = 0.0;

  void Build() {
    kop::transform::CompileOptions options;
    options.inject_cfi_checks = cfi;
    auto compiled = kop::transform::CompileModuleText(kKnicSource, options);
    if (!compiled.ok()) {
      std::fprintf(stderr, "compile: %s\n",
                   compiled.status().ToString().c_str());
      std::abort();
    }
    auto parsed = kop::kir::ParseModule(compiled->text);
    if (!parsed.ok()) std::abort();
    module = std::move(*parsed);

    kernel = std::make_unique<Kernel>();
    policy = std::make_unique<kop::policy::PolicyEngine>(
        kernel.get(), kop::policy::PolicyMode::kDefaultAllow);

    if (cfi) {
      // Insmod's registration step, inlined: attested member names ->
      // simulated function addresses -> engine-global set table. A
      // fresh engine rebases to 0, which matches the set ids the
      // compiler burned into the checks.
      std::vector<std::vector<uint64_t>> sets;
      for (const auto& set : compiled->attestation.cfi_sets) {
        std::vector<uint64_t> members;
        for (const std::string& name : set.members) {
          const int index = module->FunctionIndex(name);
          if (index < 0) std::abort();
          members.push_back(kop::kir::FunctionAddressForIndex(
              static_cast<size_t>(index)));
        }
        sets.push_back(std::move(members));
      }
      if (policy->RegisterCfiSets(sets) != 0) std::abort();
    }

    std::unordered_map<std::string, uint64_t> globals;
    for (const auto& global : module->globals()) {
      auto addr = kernel->module_area().Kmalloc(
          std::max<uint64_t>(global->size_bytes(), 8));
      if (!addr.ok()) std::abort();
      globals[global->name()] = *addr;
    }
    auto stack = kernel->module_area().Kmalloc(64 * 1024);
    if (!stack.ok()) std::abort();
    kop::kir::InterpConfig config;
    config.stack_base = *stack;
    config.stack_size = 64 * 1024;
    config.max_steps = ~uint64_t{0};

    memory = std::make_unique<KernelMemory>(kernel.get());
    resolver = std::make_unique<CfiGuardResolver>(policy.get());
    if (bytecode) {
      auto bc = kop::kir::CompileToBytecode(*module);
      if (!bc.ok()) std::abort();
      auto vm = kop::kir::VM::Create(std::move(*bc), *memory, *resolver,
                                     globals, config);
      if (!vm.ok()) std::abort();
      engine = std::move(*vm);
    } else {
      engine = std::make_unique<kop::kir::Interpreter>(
          *module, *memory, *resolver, globals, config);
    }
  }

  double TimeCall(uint64_t calls) {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < calls; ++i) {
      auto result = engine->Call("knic_xmit", {0, 64, 0x5A});
      if (!result.ok() || *result != 64) {
        std::fprintf(stderr, "%s: xmit failed\n", label);
        std::abort();
      }
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  }

  void KeepBest(double ns) {
    best_ns = best_ns == 0.0 ? ns : std::min(best_ns, ns);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace kop::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const uint64_t sends = std::clamp<uint64_t>(args.packets / 4, 1000, 10000);
  // Min-of-rounds estimator, interleaved so co-tenant noise lands on
  // every variant equally (same rig as abl6).
  const int rounds = 25;

  PrintFigureHeader(
      "Ablation 7",
      "Indirect-call gating (kop::cfi) on the guarded xmit hot path",
      "abl7_knic vtable xmit, " + std::to_string(sends) +
          " sends per round, " + std::to_string(rounds) +
          " interleaved rounds; acceptance = bytecode cfi-on / cfi-off");

  kop::trace::GlobalSpans().SetEnabled(false);
  XmitHarness variants[] = {
      {"interp-cfi-off", false, false},
      {"interp-cfi-on", false, true},
      {"bytecode-cfi-off", true, false},
      {"bytecode-cfi-on", true, true},
  };
  for (XmitHarness& h : variants) {
    h.Build();
    auto init = h.engine->Call("knic_init", {});
    if (!init.ok()) {
      std::fprintf(stderr, "%s: init failed: %s\n", h.label,
                   init.status().ToString().c_str());
      return 1;
    }
    (void)h.TimeCall(sends / 4 + 1);  // warmup
  }
  for (int r = 0; r < rounds; ++r) {
    for (XmitHarness& h : variants) {
      h.KeepBest(h.TimeCall(sends));
    }
  }
  // Correctness anchor: gating must be behaviourally invisible on the
  // honest module — every variant transmitted the same frame count.
  uint64_t sent0 = 0;
  for (XmitHarness& h : variants) {
    auto result = h.engine->Call("knic_sent", {});
    const uint64_t sent = result.ok() ? *result : 0;
    if (sent0 == 0) sent0 = sent;
    if (sent == 0 || sent != sent0) {
      std::fprintf(stderr, "variant %s changed module behaviour!\n", h.label);
      return 1;
    }
  }
  kop::trace::GlobalSpans().SetEnabled(true);

  std::printf("%-20s %14s %12s %12s %12s\n", "variant", "ns_per_xmit",
              "guard_calls", "cfi_checks", "cfi_denied");
  std::string csv =
      "workload,engine,cfi,unit,value,guard_calls,cfi_checks,cfi_denied\n";
  for (XmitHarness& h : variants) {
    const double ns_per_xmit = h.best_ns / static_cast<double>(sends);
    const auto stats = h.policy->stats();
    // Any denial here is a harness bug: the module is honest and the
    // sets were registered, so checks must all pass.
    if (stats.cfi_denied != 0) {
      std::fprintf(stderr, "%s: unexpected CFI denial\n", h.label);
      return 1;
    }
    if (h.cfi && stats.cfi_checks == 0) {
      std::fprintf(stderr, "%s: CFI leg ran zero checks\n", h.label);
      return 1;
    }
    std::printf("%-20s %14.1f %12llu %12llu %12llu\n", h.label, ns_per_xmit,
                static_cast<unsigned long long>(stats.guard_calls),
                static_cast<unsigned long long>(stats.cfi_checks),
                static_cast<unsigned long long>(stats.cfi_denied));
    char line[192];
    std::snprintf(line, sizeof(line), "xmit,%s,%s,ns_per_xmit,%.1f,%llu,%llu,%llu\n",
                  h.bytecode ? "bytecode" : "interp", h.cfi ? "on" : "off",
                  ns_per_xmit,
                  static_cast<unsigned long long>(stats.guard_calls),
                  static_cast<unsigned long long>(stats.cfi_checks),
                  static_cast<unsigned long long>(stats.cfi_denied));
    csv += line;
  }

  const double interp_ratio = variants[1].best_ns / variants[0].best_ns;
  const double bytecode_ratio = variants[3].best_ns / variants[2].best_ns;
  std::printf("\ncfi-on/cfi-off xmit ratio: interp %.3f, bytecode %.3f\n",
              interp_ratio, bytecode_ratio);

  char line[128];
  std::snprintf(line, sizeof(line),
                "# ratio_interp_cfi,%.3f\n# ratio_bytecode_cfi,%.3f\n",
                interp_ratio, bytecode_ratio);
  csv += line;
  WriteResultsFile("abl7_cfi.csv", csv);

  // Acceptance: bytecode CFI overhead on guarded xmit <= 5%.
  // KOP_ABL7_GATE loosens the wall-clock gate for noisy shared runners
  // (CI smoke); the default 1.05 is the paper-facing local acceptance.
  double gate = 1.05;
  if (const char* env = std::getenv("KOP_ABL7_GATE")) {
    gate = std::atof(env);
    if (gate <= 0.0) gate = 1.05;
  }
  if (bytecode_ratio > gate) {
    std::fprintf(stderr,
                 "ACCEPTANCE MISS: bytecode cfi-on/cfi-off ratio %.3f > "
                 "%.2f\n",
                 bytecode_ratio, gate);
    return 1;
  }
  return 0;
}
