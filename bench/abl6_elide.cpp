// Ablation 6: proof-driven guard elision + inline fast-path guards.
// PR goal: close the guarded/unguarded gap on the knic xmit hot path to
// <= 1.3x on the bytecode engine (from ~2.45x with every guard taking
// the out-of-line external-call path).
//
// Two parts come out of one binary:
//
//  - xmit ratio: the abl4 harness (direct-wired engines over a shared
//    kernel/NIC/policy floor) extended with the inline-guard fast path:
//    the resolver forwards PinGuardFrame / FastGuard / FastGuardRange to
//    the real PolicyEngine exactly the way the module loader's resolver
//    does, so recognized guard calls run as a pinned-frame range check
//    inside the engine and only deopts pay the external-call slow path.
//    Variants: {interp, bytecode} x {unguarded, guarded KOP_ELIDE=off,
//    guarded KOP_ELIDE=on}. The acceptance ratio is guarded-elide /
//    unguarded per engine.
//
//  - smp sweep: the ext4 harness (insmod + per-CPU contexts) on a
//    guard-dense kernel whose duplicate same-base loads the elision pass
//    widens into covers, at 1 and 8 CPUs, elision on/off. Guards per
//    kilocycle on the virtual clock is the contract number; the elided
//    counter in the CSV proves subsumed members stay accounted (they
//    fold across CPUs like every other stat).
//
// The flight recorder stays at its always-on default for the smp sweep
// (that is the shipping configuration). The xmit ratio is measured
// spans-off: ext5_flight prices the recorder separately, and the ratio
// is about guard cost, not tracing cost — both numerator and denominator
// shed the same per-span work.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kir/bytecode.hpp"
#include "kop/kir/engine.hpp"
#include "kop/kir/interp.hpp"
#include "kop/kir/parser.hpp"
#include "kop/kir/vm.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/policy/engine.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/signing/signer.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/executor.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/span.hpp"
#include "kop/trace/trace.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/util/carat_abi.hpp"

#include "common/experiment.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using kop::kernel::ExecEngine;
using kop::kernel::Kernel;
using kop::kernel::LoadedModule;
using kop::kernel::ModuleLoader;

// ------------------------------------------------------------ xmit part --

/// kir memory over the kernel address space, charging the machine model
/// like the module loader's adapter does (same as abl4).
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

/// Guard calls go to the real policy engine. Unlike abl4's resolver this
/// one also wires the inline fast path: PinGuardFrame / FastGuard /
/// FastGuardRange forward straight to the engine (PolicyEngine implements
/// GuardFastOps), so the engines execute kGuardInline / kGuardRange as
/// pinned-frame checks and only deopts land in CallExternal/CallBound.
class FastGuardResolver final : public kop::kir::ExternalResolver {
 public:
  explicit FastGuardResolver(kop::policy::PolicyEngine* engine)
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
    return kop::NotFound("undefined symbol in bench harness: " + name);
  }

  std::optional<uint64_t> BindExternal(const std::string& name) override {
    if (name == kop::kCaratGuardSymbol) return uint64_t{0};
    if (name == kop::kCaratIntrinsicGuardSymbol) return uint64_t{1};
    if (name == kop::kCaratGuardRangeSymbol) return uint64_t{2};
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

 private:
  kop::policy::PolicyEngine* engine_;
};

/// One engine wired to its own kernel + device + policy (same layout as
/// abl4's harness; kept alive across interleaved timing rounds).
struct XmitHarness {
  const char* label;
  bool bytecode;
  bool guards;
  bool elide;

  std::unique_ptr<kop::kir::Module> module{};
  std::unique_ptr<Kernel> kernel{};
  std::unique_ptr<kop::policy::PolicyEngine> policy{};
  std::unique_ptr<kop::nic::CountingSink> sink{};
  std::unique_ptr<kop::nic::E1000Device> device{};
  std::unique_ptr<KernelMemory> memory{};
  std::unique_ptr<FastGuardResolver> resolver{};
  std::unique_ptr<kop::kir::ExecutionEngine> engine{};

  double best_ns = 0.0;

  void Build(const std::string& text) {
    auto parsed = kop::kir::ParseModule(text);
    if (!parsed.ok()) std::abort();
    module = std::move(*parsed);

    kernel = std::make_unique<Kernel>();
    policy = std::make_unique<kop::policy::PolicyEngine>(
        kernel.get(), kop::policy::PolicyMode::kDefaultAllow);
    sink = std::make_unique<kop::nic::CountingSink>();
    device =
        std::make_unique<kop::nic::E1000Device>(&kernel->mem(), sink.get());
    if (!device->MapAt(kop::kernel::kVmallocBase).ok()) std::abort();

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
    resolver = std::make_unique<FastGuardResolver>(policy.get());
    if (bytecode) {
      auto compiled = kop::kir::CompileToBytecode(*module);
      if (!compiled.ok()) std::abort();
      auto vm = kop::kir::VM::Create(std::move(*compiled), *memory, *resolver,
                                     globals, config);
      if (!vm.ok()) std::abort();
      engine = std::move(*vm);
    } else {
      engine = std::make_unique<kop::kir::Interpreter>(
          *module, *memory, *resolver, globals, config);
    }
  }

  double TimeCall(const std::string& fn, const std::vector<uint64_t>& args,
                  uint64_t calls) {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < calls; ++i) (void)engine->Call(fn, args);
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  }

  void KeepBest(double ns) {
    best_ns = best_ns == 0.0 ? ns : std::min(best_ns, ns);
  }
};

std::string CompileKnic(bool guards, bool elide) {
  kop::transform::CompileOptions options;
  options.inject_guards = guards;
  options.elide_guards = elide;
  auto compiled =
      kop::transform::CompileModuleText(kop::kirmods::KnicSource(), options);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile: %s\n", compiled.status().ToString().c_str());
    std::abort();
  }
  return compiled->text;
}

// ------------------------------------------------------------- smp part --

/// Guard-dense kernel with a same-block duplicate-load cluster: the
/// elision pass widens the two %addr load guards into one covering
/// carat_guard_range (elided = 1), so the elide leg runs 2 policy checks
/// per iteration where the no-elide leg runs 3, and the subsumed member
/// lands in the elided counter instead of vanishing.
const char* kSmpSource = R"(module "abl6_smp"

func @pump(ptr %addr, i64 %n) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %done = icmp uge i64 %i, %n
  br %done, out, body
body:
  %a = load i64, %addr
  %b = load i64, %addr
  %v = add i64 %a, %b
  %v1 = xor i64 %v, %i
  store i64 %v1, %addr
  %i1 = add i64 %i, 1
  jmp loop
out:
  ret i64 %i
}
)";

constexpr uint32_t kMaxCpus = 8;
constexpr uint64_t kStripeBytes = 512;

struct SmpRig {
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<kop::policy::PolicyModule> policy;
  std::unique_ptr<ModuleLoader> loader;
  LoadedModule* module = nullptr;
  uint64_t stripes[kMaxCpus] = {};

  bool Build(ExecEngine engine, uint32_t cpus,
             const kop::signing::SignedModule& image) {
    kernel = std::make_unique<Kernel>();
    auto inserted = kop::policy::PolicyModule::Insert(
        kernel.get(), nullptr, kop::policy::PolicyMode::kDefaultAllow);
    if (!inserted.ok()) return false;
    policy = std::move(*inserted);
    for (uint32_t cpu = 0; cpu < kMaxCpus; ++cpu) {
      auto addr = kernel->heap().Kmalloc(kStripeBytes, 64);
      if (!addr.ok()) return false;
      stripes[cpu] = *addr;
      if (!policy->engine()
               .store()
               .Add({*addr, kStripeBytes, kop::policy::kProtRW})
               .ok()) {
        return false;
      }
    }
    kop::signing::Keyring keyring;
    keyring.Trust(kop::signing::SigningKey::DevelopmentKey());
    loader = std::make_unique<ModuleLoader>(kernel.get(), std::move(keyring));
    loader->set_engine(engine);
    auto loaded = loader->Insmod(image);
    if (!loaded.ok()) {
      std::fprintf(stderr, "insmod failed: %s\n",
                   loaded.status().ToString().c_str());
      return false;
    }
    module = *loaded;
    if (cpus > 1 && !loader->PrepareCpus(cpus).ok()) return false;
    kop::trace::GlobalTracer().ring().SetShards(cpus);
    return true;
  }
};

struct SmpMeasurement {
  uint64_t guards = 0;
  uint64_t elided = 0;
  double max_cycles = 0;
  double wall_ns = 0;

  double GuardsPerKcycle() const {
    // Covers stand in for their subsumed members: charge them to the
    // throughput numerator so elide/no-elide move the same access count.
    return max_cycles > 0 ? (guards + elided) / max_cycles * 1000.0 : 0.0;
  }
};

bool RunSmpCalls(LoadedModule* module, uint64_t stripe, uint64_t calls,
                 uint64_t iters) {
  for (uint64_t c = 0; c < calls; ++c) {
    auto result = module->Call("pump", {stripe, iters});
    if (!result.ok()) {
      std::fprintf(stderr, "pump failed: %s\n",
                   result.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

SmpMeasurement MeasureSmp(SmpRig& rig, uint32_t cpus, uint64_t calls,
                          uint64_t iters) {
  auto& engine = rig.policy->engine();
  auto& clock = rig.kernel->clock();
  const kop::policy::GuardStats before = engine.stats();
  const double max_before = clock.MaxCycles();
  const auto start = Clock::now();
  std::vector<bool> ok(cpus, false);
  kop::smp::RunOnCpus(cpus, [&](uint32_t cpu) {
    ok[cpu] = RunSmpCalls(rig.module, rig.stripes[cpu], calls, iters);
  });
  SmpMeasurement m;
  m.wall_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  for (uint32_t cpu = 0; cpu < cpus; ++cpu) {
    if (!ok[cpu]) return m;  // guards = 0 marks the failure
  }
  const kop::policy::GuardStats after = engine.stats();
  m.guards = after.guard_calls - before.guard_calls;
  m.elided = after.elided - before.elided;
  m.max_cycles = clock.MaxCycles() - max_before;
  return m;
}

kop::signing::SignedModule SignSmp(bool elide) {
  kop::transform::CompileOptions options;
  options.elide_guards = elide;
  auto compiled = kop::transform::CompileModuleText(kSmpSource, options);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile: %s\n", compiled.status().ToString().c_str());
    std::abort();
  }
  return kop::signing::SignModule(compiled->text, compiled->attestation,
                                  kop::signing::SigningKey::DevelopmentKey());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kop::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const uint64_t sends = std::clamp<uint64_t>(args.packets / 4, 1000, 10000);
  // Min-of-rounds estimator: each extra round can only lower the kept
  // time, so more rounds tighten the ratio against co-tenant noise.
  const int rounds = 25;

  PrintFigureHeader(
      "Ablation 6",
      "Guard elision + inline fast-path guards vs the unguarded floor",
      "kop_knic xmit, " + std::to_string(sends) + " sends per round, " +
          std::to_string(rounds) + " interleaved rounds; smp sweep at 1/8 "
          "CPUs on the virtual clock");

  // ------------------------------------------------------- xmit ratio --
  kop::trace::GlobalSpans().SetEnabled(false);
  XmitHarness variants[] = {
      {"interp-unguarded", false, false, false},
      {"interp-noelide", false, true, false},
      {"interp-elide", false, true, true},
      {"bytecode-unguarded", true, false, false},
      {"bytecode-noelide", true, true, false},
      {"bytecode-elide", true, true, true},
  };
  const uint64_t mmio = kop::kernel::kVmallocBase;
  for (XmitHarness& h : variants) {
    h.Build(CompileKnic(h.guards, h.elide));
    (void)h.engine->Call("knic_init", {mmio});
    (void)h.engine->Call("knic_fill", {64, 0x20});
    (void)h.TimeCall("knic_send", {mmio, 64}, sends / 4 + 1);  // warmup
  }
  // Interleaved rounds, min kept: a noisy co-tenant burst lands on every
  // variant equally instead of skewing one column.
  for (int r = 0; r < rounds; ++r) {
    for (XmitHarness& h : variants) {
      h.KeepBest(h.TimeCall("knic_send", {mmio, 64}, sends));
    }
  }
  // Correctness anchor: every variant moved the same frames.
  uint64_t sent0 = 0;
  for (XmitHarness& h : variants) {
    auto result = h.engine->Call("knic_sent_hw", {mmio});
    const uint64_t sent = result.ok() ? *result : 0;
    if (sent0 == 0) sent0 = sent;
    if (sent != sent0 || h.sink->packets() != variants[0].sink->packets()) {
      std::fprintf(stderr, "variant %s changed module behaviour!\n", h.label);
      return 1;
    }
  }
  kop::trace::GlobalSpans().SetEnabled(true);

  std::printf("%-20s %14s %12s %12s\n", "variant", "ns_per_send",
              "guard_calls", "elided");
  std::string csv =
      "workload,engine,elide,guards,cpus,unit,value,guard_calls,elided\n";
  for (XmitHarness& h : variants) {
    const double ns_per_send = h.best_ns / static_cast<double>(sends);
    const auto stats = h.policy->stats();
    std::printf("%-20s %14.1f %12llu %12llu\n", h.label, ns_per_send,
                static_cast<unsigned long long>(stats.guard_calls),
                static_cast<unsigned long long>(stats.elided));
    char line[192];
    std::snprintf(line, sizeof(line), "xmit,%s,%s,%s,1,ns_per_send,%.1f,%llu,%llu\n",
                  h.bytecode ? "bytecode" : "interp", h.elide ? "on" : "off",
                  h.guards ? "on" : "off", ns_per_send,
                  static_cast<unsigned long long>(stats.guard_calls),
                  static_cast<unsigned long long>(stats.elided));
    csv += line;
  }

  const double interp_ratio_off = variants[1].best_ns / variants[0].best_ns;
  const double interp_ratio_on = variants[2].best_ns / variants[0].best_ns;
  const double bytecode_ratio_off = variants[4].best_ns / variants[3].best_ns;
  const double bytecode_ratio_on = variants[5].best_ns / variants[3].best_ns;
  std::printf(
      "\nguarded/unguarded xmit ratio: interp %.3f (elide off) -> %.3f "
      "(on), bytecode %.3f (elide off) -> %.3f (on)\n",
      interp_ratio_off, interp_ratio_on, bytecode_ratio_off,
      bytecode_ratio_on);

  // -------------------------------------------------------- smp sweep --
  const uint64_t calls = 200;
  const uint64_t iters = 500;
  const int smp_rounds = 3;
  const ExecEngine engines[] = {ExecEngine::kBytecode, ExecEngine::kInterp};
  const uint32_t cpu_points[] = {1, 8};

  std::printf("\n%-9s %-6s %4s %12s %10s %16s\n", "engine", "elide", "cpus",
              "guards", "elided", "accesses_per_kc");
  for (ExecEngine engine : engines) {
    const std::string engine_str(kop::kernel::ExecEngineName(engine));
    for (int elide = 0; elide < 2; ++elide) {
      const auto image = SignSmp(elide != 0);
      for (uint32_t cpus : cpu_points) {
        SmpRig rig;
        if (!rig.Build(engine, cpus, image)) return 1;
        kop::smp::RunOnCpus(cpus, [&](uint32_t cpu) {
          (void)RunSmpCalls(rig.module, rig.stripes[cpu], calls / 4 + 1,
                            iters);
        });
        SmpMeasurement best;
        for (int r = 0; r < smp_rounds; ++r) {
          SmpMeasurement m = MeasureSmp(rig, cpus, calls, iters);
          if (m.guards == 0) return 1;
          if (best.guards == 0 || m.wall_ns < best.wall_ns) best = m;
        }
        std::printf("%-9s %-6s %4u %12llu %10llu %16.3f\n",
                    engine_str.c_str(), elide ? "on" : "off", cpus,
                    static_cast<unsigned long long>(best.guards),
                    static_cast<unsigned long long>(best.elided),
                    best.GuardsPerKcycle());
        char line[192];
        std::snprintf(line, sizeof(line),
                      "smp,%s,%s,on,%u,accesses_per_kcycle,%.3f,%llu,%llu\n",
                      engine_str.c_str(), elide ? "on" : "off", cpus,
                      best.GuardsPerKcycle(),
                      static_cast<unsigned long long>(best.guards),
                      static_cast<unsigned long long>(best.elided));
        csv += line;
      }
    }
  }

  char line[256];
  std::snprintf(line, sizeof(line),
                "# ratio_interp_noelide,%.3f\n# ratio_interp_elide,%.3f\n"
                "# ratio_bytecode_noelide,%.3f\n# ratio_bytecode_elide,%.3f\n",
                interp_ratio_off, interp_ratio_on, bytecode_ratio_off,
                bytecode_ratio_on);
  csv += line;
  WriteResultsFile("abl6_elide.csv", csv);

  // Acceptance: bytecode guarded-with-elision within 1.3x of unguarded.
  // KOP_ABL6_GATE loosens the wall-clock gate for noisy shared runners
  // (CI smoke); the default 1.3 is the paper-facing local acceptance.
  double gate = 1.3;
  if (const char* env = std::getenv("KOP_ABL6_GATE")) {
    gate = std::atof(env);
    if (gate <= 0.0) gate = 1.3;
  }
  if (bytecode_ratio_on > gate) {
    std::fprintf(stderr,
                 "ACCEPTANCE MISS: bytecode guarded/unguarded ratio %.3f > "
                 "%.2f\n",
                 bytecode_ratio_on, gate);
    return 1;
  }
  return 0;
}
