// Ablation 4: the execution-engine tentpole. The module loader can run a
// protected module on the reference tree-walking interpreter or on the
// register VM over load-time-compiled bytecode. This bench measures HOST
// wall-clock time (not simulated cycles — both engines charge the virtual
// clock identically) for the knic xmit hot path under both engines,
// guarded and unguarded. An unguarded module can never pass the insmod
// validator (attestation must certify guard completeness), so the bench
// wires the engines directly the way the loader does — kernel address
// space, module-area globals, real policy engine behind carat_guard —
// which also lets all four variants share one harness.
//
// Two kinds of numbers come out:
//  - end-to-end ns/send on the xmit path: what a driver call costs. Both
//    engines pay the same policy-check, trace, and MMIO floor here, so
//    this ratio understates the engine gap.
//  - ns/step on a pure-dispatch workload: the engine cost alone, where
//    the interpreter's per-node overhead is not hidden behind shared
//    observability work.
// Timed rounds are interleaved across variants and the per-variant
// minimum is kept, so a noisy co-tenant burst lands on every variant
// equally instead of skewing one column.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kir/bytecode.hpp"
#include "kop/kir/engine.hpp"
#include "kop/kir/interp.hpp"
#include "kop/kir/parser.hpp"
#include "kop/kir/vm.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/policy/engine.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/util/carat_abi.hpp"

#include "common/experiment.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Pure-dispatch workload: integer mixing in a tight loop, no memory
/// traffic beyond one final store, no externals. Per-iteration work is 8
/// instructions, so ns/step isolates decode+dispatch cost.
constexpr char kDispatchSource[] = R"(module "abl4_dispatch"

global @out size 8 rw

func @spin(i64 %n) -> i64 {
entry:
  jmp head
head:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %s = phi i64 [ 0, entry ], [ %s2, body ]
  %done = icmp uge i64 %i, %n
  br %done, out, body
body:
  %x = mul i64 %i, 1099511628211
  %y = xor i64 %s, %x
  %z = lshr i64 %y, 7
  %s2 = add i64 %y, %z
  %i1 = add i64 %i, 1
  jmp head
out:
  store i64 %s, @out
  ret i64 %s
}
)";

/// kir memory over the kernel address space, charging the machine model
/// like the module loader's adapter does.
class KernelMemory final : public kop::kir::MemoryInterface {
 public:
  explicit KernelMemory(kop::kernel::Kernel* kernel) : kernel_(kernel) {}

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
  kop::kernel::Kernel* kernel_;
};

/// Guard calls go to the real policy engine; nothing else is resolvable
/// (knic imports no kernel symbols). Supports both the interpreter's
/// name-keyed path and the VM's bind-once path.
class GuardResolver final : public kop::kir::ExternalResolver {
 public:
  explicit GuardResolver(kop::policy::PolicyEngine* engine)
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
    if (name == kop::kCaratIntrinsicGuardSymbol && args.size() == 1) {
      return uint64_t{engine_->IntrinsicGuard(args[0]) ? 1u : 0u};
    }
    return kop::NotFound("undefined symbol in bench harness: " + name);
  }

  std::optional<uint64_t> BindExternal(const std::string& name) override {
    if (name == kop::kCaratGuardSymbol) return uint64_t{0};
    if (name == kop::kCaratIntrinsicGuardSymbol) return uint64_t{1};
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
    return kop::Internal("bad bound handle in bench harness");
  }

 private:
  kop::policy::PolicyEngine* engine_;
};

/// One engine wired to its own kernel + device + policy, the way insmod
/// lays a module out. Kept alive across interleaved timing rounds.
struct Harness {
  const char* label;
  bool bytecode;
  bool guards;

  std::unique_ptr<kop::kir::Module> module;  // interpreter walks the IR live
  std::unique_ptr<kop::kernel::Kernel> kernel;
  std::unique_ptr<kop::policy::PolicyEngine> policy;
  std::unique_ptr<kop::nic::CountingSink> sink;
  std::unique_ptr<kop::nic::E1000Device> device;
  std::unique_ptr<KernelMemory> memory;
  std::unique_ptr<GuardResolver> resolver;
  std::unique_ptr<kop::kir::ExecutionEngine> engine;

  double best_ns = 0.0;

  void Build(const std::string& text) {
    auto parsed = kop::kir::ParseModule(text);
    if (!parsed.ok()) std::abort();
    module = std::move(*parsed);

    kernel = std::make_unique<kop::kernel::Kernel>();
    policy = std::make_unique<kop::policy::PolicyEngine>(
        kernel.get(), kop::policy::PolicyMode::kDefaultAllow);
    sink = std::make_unique<kop::nic::CountingSink>();
    device = std::make_unique<kop::nic::E1000Device>(&kernel->mem(),
                                                     sink.get());
    if (!device->MapAt(kop::kernel::kVmallocBase).ok()) std::abort();

    // Globals and the alloca stack live in the module area, like insmod
    // lays them out.
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
    resolver = std::make_unique<GuardResolver>(policy.get());
    if (bytecode) {
      auto compiled = kop::kir::CompileToBytecode(*module);
      if (!compiled.ok()) std::abort();
      auto vm = kop::kir::VM::Create(std::move(*compiled), *memory,
                                     *resolver, globals, config);
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

std::string GuardedKnic(bool guards) {
  kop::transform::CompileOptions options;
  options.inject_guards = guards;
  auto compiled = kop::transform::CompileModuleText(
      kop::kirmods::KnicSource(), options);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile: %s\n",
                 compiled.status().ToString().c_str());
    std::abort();
  }
  return compiled->text;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kop::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  // Short interleaved rounds: each round times every variant once, so a
  // co-tenant CPU burst degrades all columns instead of one. min() over
  // rounds approximates the unpreempted time on a shared host.
  const uint64_t sends =
      std::clamp<uint64_t>(args.packets / 4, 1000, 10000);
  const int rounds = 9;

  PrintFigureHeader(
      "Ablation 4", "Execution engine: bytecode VM vs reference interpreter",
      "kop_knic xmit, " + std::to_string(sends) + " sends per round, " +
          std::to_string(rounds) + " interleaved rounds, host wall clock");

  Harness variants[4] = {
      {"interp-guarded", false, true, {}, {}, {}, {}, {}, {}, {}, {}, 0.0},
      {"interp-unguarded", false, false, {}, {}, {}, {}, {}, {}, {}, {}, 0.0},
      {"bytecode-guarded", true, true, {}, {}, {}, {}, {}, {}, {}, {}, 0.0},
      {"bytecode-unguarded", true, false, {}, {}, {}, {}, {}, {}, {}, {}, 0.0},
  };
  const std::string guarded_text = GuardedKnic(true);
  const std::string unguarded_text = GuardedKnic(false);
  const uint64_t mmio = kop::kernel::kVmallocBase;
  for (Harness& h : variants) {
    h.Build(h.guards ? guarded_text : unguarded_text);
    (void)h.engine->Call("knic_init", {mmio});
    (void)h.engine->Call("knic_fill", {64, 0x20});
    (void)h.TimeCall("knic_send", {mmio, 64}, sends / 4 + 1);  // warmup
  }
  for (int r = 0; r < rounds; ++r) {
    for (Harness& h : variants) {
      h.KeepBest(h.TimeCall("knic_send", {mmio, 64}, sends));
    }
  }

  // Correctness anchors: every variant moved the same frames. Read the
  // hardware counter once per variant — the read itself runs (guarded)
  // module code and must hit each engine the same number of times.
  uint64_t sent[4];
  for (int i = 0; i < 4; ++i) {
    auto result = variants[i].engine->Call("knic_sent_hw", {mmio});
    sent[i] = result.ok() ? *result : 0;
    if (sent[i] != sent[0] ||
        variants[i].sink->packets() != variants[0].sink->packets()) {
      std::fprintf(stderr, "variant %s changed module behaviour!\n",
                   variants[i].label);
      return 1;
    }
  }

  std::printf("%-20s %14s %12s %12s %10s\n", "variant", "ns_per_send",
              "guard_calls", "steps", "hw_sent");
  std::string csv =
      "workload,engine,guards,unit,ns,guard_calls,steps\n";
  for (int i = 0; i < 4; ++i) {
    Harness& h = variants[i];
    const double ns_per_send = h.best_ns / static_cast<double>(sends);
    std::printf("%-20s %14.1f %12llu %12llu %10llu\n", h.label, ns_per_send,
                static_cast<unsigned long long>(h.policy->stats().guard_calls),
                static_cast<unsigned long long>(h.engine->stats().steps),
                static_cast<unsigned long long>(sent[i]));
    char line[192];
    std::snprintf(line, sizeof(line), "xmit,%s,%s,ns_per_send,%.1f,%llu,%llu\n",
                  h.bytecode ? "bytecode" : "interp", h.guards ? "on" : "off",
                  ns_per_send,
                  static_cast<unsigned long long>(
                      h.policy->stats().guard_calls),
                  static_cast<unsigned long long>(h.engine->stats().steps));
    csv += line;
  }

  // Pure-dispatch workload: same interleaving, constant work per round.
  const uint64_t spin_iters = 200000;
  const double spin_steps = 8.0 * static_cast<double>(spin_iters);
  Harness dispatch[2] = {
      {"interp-dispatch", false, false, {}, {}, {}, {}, {}, {}, {}, {}, 0.0},
      {"bytecode-dispatch", true, false, {}, {}, {}, {}, {}, {}, {}, {}, 0.0},
  };
  for (Harness& h : dispatch) {
    h.Build(kDispatchSource);
    (void)h.TimeCall("spin", {spin_iters / 10}, 1);  // warmup
  }
  for (int r = 0; r < rounds; ++r) {
    for (Harness& h : dispatch) {
      h.KeepBest(h.TimeCall("spin", {spin_iters}, 1));
    }
  }
  std::printf("\n%-20s %14s\n", "dispatch", "ns_per_step");
  for (Harness& h : dispatch) {
    const double ns_per_step = h.best_ns / spin_steps;
    std::printf("%-20s %14.2f\n", h.label, ns_per_step);
    char line[128];
    std::snprintf(line, sizeof(line), "dispatch,%s,off,ns_per_step,%.2f,0,%llu\n",
                  h.bytecode ? "bytecode" : "interp", ns_per_step,
                  static_cast<unsigned long long>(h.engine->stats().steps));
    csv += line;
  }

  const double guarded_speedup =
      variants[0].best_ns / variants[2].best_ns;
  const double unguarded_speedup =
      variants[1].best_ns / variants[3].best_ns;
  const double dispatch_speedup = dispatch[0].best_ns / dispatch[1].best_ns;
  const double interp_ratio = variants[0].best_ns / variants[1].best_ns;
  const double bytecode_ratio = variants[2].best_ns / variants[3].best_ns;
  std::printf(
      "\nbytecode speedup: %.1fx guarded xmit, %.1fx unguarded xmit, "
      "%.1fx pure dispatch\n",
      guarded_speedup, unguarded_speedup, dispatch_speedup);
  std::printf(
      "guarded/unguarded overhead ratio: interp %.3f, bytecode %.3f\n",
      interp_ratio, bytecode_ratio);
  char line[256];
  std::snprintf(line, sizeof(line),
                "# speedup_guarded,%.2f\n# speedup_unguarded,%.2f\n"
                "# speedup_dispatch,%.2f\n"
                "# guard_overhead_interp,%.3f\n# guard_overhead_bytecode,"
                "%.3f\n",
                guarded_speedup, unguarded_speedup, dispatch_speedup,
                interp_ratio, bytecode_ratio);
  csv += line;
  WriteResultsFile("abl4_engine.csv", csv);
  return 0;
}
