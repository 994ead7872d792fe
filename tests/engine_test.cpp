// Differential test between the two KIR execution engines: the
// tree-walking reference interpreter and the bytecode register VM. The
// loader may wire either one; nothing observable is allowed to differ —
// return values, error statuses, memory effects, the external-call
// sequence (names, arguments, call ordinals), and the InterpStats
// counters must be bit-identical. Every corpus module runs under both
// engines at the kir level (through the real guard-injecting transform)
// and the knic driver runs under both at the loader level against the
// simulated e1000 device.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
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
#include "kop/policy/region_table.hpp"
#include "kop/signing/signer.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/transform/attestation.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/transform/guard_sites.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/site.hpp"
#include "kop/util/bits.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop {
namespace {

using kir::ExecutionEngine;
using kir::InterpConfig;
using kir::InterpStats;
using kir::Interpreter;
using kir::Module;
using kir::ParseModule;
using kir::VM;

// ---------------------------------------------------------------------------
// kir-level differential harness
// ---------------------------------------------------------------------------

class FlatMemory : public kir::MemoryInterface {
 public:
  static constexpr uint64_t kBase = 0x1000;
  FlatMemory() : bytes_(64 * 1024, 0) {}

  Result<uint64_t> Load(uint64_t addr, uint32_t size) override {
    if (addr < kBase || addr + size > kBase + bytes_.size()) {
      return OutOfRange("load out of test memory");
    }
    uint64_t value = 0;
    for (uint32_t i = 0; i < size; ++i) {
      value |= uint64_t{bytes_[addr - kBase + i]} << (8 * i);
    }
    return value;
  }

  Status Store(uint64_t addr, uint64_t value, uint32_t size) override {
    if (addr < kBase || addr + size > kBase + bytes_.size()) {
      return OutOfRange("store out of test memory");
    }
    for (uint32_t i = 0; i < size; ++i) {
      bytes_[addr - kBase + i] = static_cast<uint8_t>(value >> (8 * i));
    }
    return OkStatus();
  }

  std::vector<uint8_t>& bytes() { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

struct CallRecord {
  std::string name;
  std::vector<uint64_t> args;
  uint64_t ordinal = 0;

  bool operator==(const CallRecord&) const = default;
};

/// Records every external call with its ordinal and returns a
/// deterministic per-call value (so result clamping is exercised). Each
/// bound callee gets its own handle, so the recorded name shows which
/// handle each engine called through.
class RecordingResolver : public kir::ExternalResolver {
 public:
  uint64_t Bind(const std::string& name) override {
    bound_names_.push_back(name);
    return bound_names_.size() - 1;
  }

  Result<uint64_t> Call(uint64_t handle, const std::vector<uint64_t>& args,
                        uint64_t call_ordinal) override {
    calls.push_back({bound_names_[handle], args, call_ordinal});
    ++sequence_;
    return sequence_ * 0x9e3779b97f4a7c15ull;  // deterministic, full 64 bits
  }

  std::vector<CallRecord> calls;

 private:
  uint64_t sequence_ = 0;
  std::vector<std::string> bound_names_;
};

struct ScriptCall {
  std::string function;
  std::vector<uint64_t> args;
};

/// Memory layout for kir-level runs: globals at kGlobalBase, alloca stack
/// in the top quarter. (The knic script uses kBase itself as the MMIO
/// base, which stays below kGlobalBase.)
constexpr uint64_t kGlobalBase = FlatMemory::kBase + 0x5000;
constexpr uint64_t kStackBase = FlatMemory::kBase + 0xc000;
constexpr uint64_t kStackSize = 0x4000;

enum class EngineKind { kInterp, kVm };

/// One engine instance with everything it runs against.
struct EngineRun {
  std::unique_ptr<Module> module;
  std::unique_ptr<FlatMemory> memory;
  std::unique_ptr<RecordingResolver> resolver;
  std::unique_ptr<ExecutionEngine> engine;
};

EngineRun MakeRun(const std::string& text, EngineKind kind,
                  const InterpConfig& base_config) {
  EngineRun run;
  auto parsed = ParseModule(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  run.module = std::move(*parsed);
  run.memory = std::make_unique<FlatMemory>();
  run.resolver = std::make_unique<RecordingResolver>();

  // Deterministic global layout, identical across engines; initializers
  // written straight into the flat memory the way the loader would.
  std::unordered_map<std::string, uint64_t> globals;
  uint64_t next = kGlobalBase;
  for (const auto& global : run.module->globals()) {
    globals[global->name()] = next;
    const std::string& init = global->init_bytes();
    for (size_t i = 0; i < init.size(); ++i) {
      run.memory->bytes()[next - FlatMemory::kBase + i] =
          static_cast<uint8_t>(init[i]);
    }
    next += AlignUp(std::max<uint64_t>(global->size_bytes(), 8), 16);
  }
  EXPECT_LE(next, kStackBase) << "globals overflow the test data region";

  InterpConfig config = base_config;
  config.stack_base = kStackBase;
  config.stack_size = kStackSize;

  if (kind == EngineKind::kInterp) {
    run.engine = std::make_unique<Interpreter>(
        *run.module, *run.memory, *run.resolver, std::move(globals), config);
    return run;
  }
  auto bytecode = kir::CompileToBytecode(*run.module);
  EXPECT_TRUE(bytecode.ok()) << bytecode.status().ToString();
  auto vm = VM::Create(std::move(*bytecode), *run.memory, *run.resolver,
                       globals, config);
  EXPECT_TRUE(vm.ok()) << vm.status().ToString();
  run.engine = std::move(*vm);
  return run;
}

void ExpectStatsEqual(const InterpStats& a, const InterpStats& b,
                      const std::string& label) {
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.loads, b.loads) << label;
  EXPECT_EQ(a.stores, b.stores) << label;
  EXPECT_EQ(a.calls_internal, b.calls_internal) << label;
  EXPECT_EQ(a.calls_external, b.calls_external) << label;
}

/// Drive the script through the interpreter and through the VM and
/// require the two to be observationally identical.
void RunDifferential(const std::string& text,
                     const std::vector<ScriptCall>& script,
                     const std::string& label,
                     const InterpConfig& config = InterpConfig()) {
  EngineRun oracle = MakeRun(text, EngineKind::kInterp, config);
  EngineRun vm = MakeRun(text, EngineKind::kVm, config);
  ASSERT_NE(vm.engine, nullptr) << label;
  EXPECT_EQ(vm.engine->engine_name(), "bytecode");

  for (size_t i = 0; i < script.size(); ++i) {
    auto expected = oracle.engine->Call(script[i].function, script[i].args);
    auto actual = vm.engine->Call(script[i].function, script[i].args);
    ASSERT_EQ(expected.ok(), actual.ok())
        << label << " call " << i << " @" << script[i].function << ": "
        << (expected.ok() ? actual.status().ToString()
                          : expected.status().ToString());
    if (expected.ok()) {
      EXPECT_EQ(*expected, *actual)
          << label << " call " << i << " @" << script[i].function;
    } else {
      EXPECT_EQ(expected.status().ToString(), actual.status().ToString())
          << label << " call " << i;
    }
  }

  EXPECT_EQ(oracle.memory->bytes(), vm.memory->bytes()) << label;
  EXPECT_EQ(oracle.resolver->calls.size(), vm.resolver->calls.size()) << label;
  const size_t n =
      std::min(oracle.resolver->calls.size(), vm.resolver->calls.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(oracle.resolver->calls[i], vm.resolver->calls[i])
        << label << " external call " << i << " ("
        << oracle.resolver->calls[i].name << " vs "
        << vm.resolver->calls[i].name << ")";
  }
  ExpectStatsEqual(oracle.engine->stats(), vm.engine->stats(), label);
}

/// Per-corpus-module call scripts. Addresses are within the flat test
/// memory; the knic script uses the memory base itself as its "MMIO" BAR
/// (no device at kir level — both engines just see plain memory).
std::vector<ScriptCall> ScriptFor(const std::string& module_name) {
  if (module_name == "kop_hello") {
    return {{"init", {}}};
  }
  if (module_name == "kop_ringbuf") {
    std::vector<ScriptCall> script{{"rb_init", {}}};
    for (uint64_t i = 0; i < 10; ++i) script.push_back({"rb_push", {i * 17}});
    script.push_back({"rb_pop", {}});
    script.push_back({"rb_pop", {}});
    script.push_back({"rb_size", {}});
    return script;
  }
  if (module_name == "kop_scribbler") {
    return {{"scribble", {0x2000, 0xdeadbeef}},
            {"peek", {0x2000}},
            {"scribble_range", {0x2100, 8, 0x55}},
            {"peek", {0x2110}}};
  }
  if (module_name == "kop_memcopy") {
    return {{"fill", {32, 9}}, {"copy", {32}}, {"checksum", {32}}};
  }
  if (module_name == "kop_privuser") {
    return {{"disable_interrupts", {}}, {"write_msr", {0x1b, 0x1234}},
            {"halt", {}}};
  }
  if (module_name == "kop_knic") {
    return {{"knic_init", {FlatMemory::kBase}},
            {"knic_fill", {64, 0x20}},
            {"knic_send", {FlatMemory::kBase, 64}},
            {"knic_send", {FlatMemory::kBase, 64}},
            {"knic_send", {FlatMemory::kBase, 64}},
            {"knic_sent_hw", {FlatMemory::kBase}}};
  }
  if (module_name == "kop_knic_mq") {
    std::vector<ScriptCall> script{{"mq_init", {FlatMemory::kBase, 4}},
                                   {"mq_fill", {64, 0x20}}};
    script.push_back({"mq_send", {FlatMemory::kBase, 0, 64}});
    script.push_back({"mq_send", {FlatMemory::kBase, 2, 64}});
    script.push_back({"mq_send_batch", {FlatMemory::kBase, 1, 64, 5}});
    script.push_back({"mq_send_batch", {FlatMemory::kBase, 3, 60, 2}});
    for (uint64_t q = 0; q < 4; ++q) script.push_back({"mq_sent", {q}});
    script.push_back({"mq_sent_hw", {FlatMemory::kBase}});
    return script;
  }
  if (module_name == "kop_icall") {
    std::vector<ScriptCall> script{{"vt_init", {}}};
    for (uint64_t i = 0; i < 9; ++i) {
      script.push_back({"vt_call", {i % 3, i * 5 + 3, i + 1}});
    }
    script.push_back({"vt_pick", {0, 7, 2}});
    script.push_back({"vt_pick", {1, 7, 2}});
    script.push_back({"vt_acc", {}});
    return script;
  }
  ADD_FAILURE() << "no script for corpus module " << module_name;
  return {};
}

// ---------------------------------------------------------------------------
// kir-level differential: transformed corpus modules
// ---------------------------------------------------------------------------

TEST(EngineDifferentialTest, TransformedCorpusModulesMatchUnderBothEngines) {
  for (const kirmods::CorpusEntry& entry : kirmods::AllCorpusModules()) {
    SCOPED_TRACE(entry.name);
    auto compiled = transform::CompileModuleText(entry.source);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    RunDifferential(compiled->text, ScriptFor(entry.name), entry.name);
  }
}

TEST(EngineDifferentialTest, UntransformedCorpusModulesMatchToo) {
  // No guards, so the bytecode path sees modules whose only externals are
  // printk-style symbols and raw intrinsics.
  for (const kirmods::CorpusEntry& entry : kirmods::AllCorpusModules()) {
    SCOPED_TRACE(entry.name);
    RunDifferential(entry.source, ScriptFor(entry.name),
                    entry.name + " (untransformed)");
  }
}

// ---------------------------------------------------------------------------
// kir-level differential: targeted semantics and error paths
// ---------------------------------------------------------------------------

TEST(EngineDifferentialTest, NarrowTypeArithmeticAndComparisons) {
  const std::string text = R"(module "m"
func @mix(i64 %x, i64 %y) -> i64 {
entry:
  %a8 = trunc i64 %x to i8
  %b8 = trunc i64 %y to i8
  %lt = icmp slt i8 %a8, %b8
  %ult = icmp ult i8 %a8, %b8
  %sx = sext i8 %a8 to i64
  %zx = zext i8 %a8 to i64
  %sh = shl i8 %a8, %b8
  %sr = ashr i8 %a8, %b8
  %lr = lshr i8 %a8, %b8
  %sum0 = add i64 %sx, %zx
  %t1 = zext i1 %lt to i64
  %t2 = zext i1 %ult to i64
  %s1 = zext i8 %sh to i64
  %s2 = zext i8 %sr to i64
  %s3 = zext i8 %lr to i64
  %sum1 = add i64 %sum0, %t1
  %sum2 = add i64 %sum1, %t2
  %sum3 = add i64 %sum2, %s1
  %sum4 = add i64 %sum3, %s2
  %sum5 = add i64 %sum4, %s3
  ret i64 %sum5
}
)";
  std::vector<ScriptCall> script;
  const uint64_t samples[] = {0,    1,    2,     7,      0x7f, 0x80,
                              0xff, 0x100, 0xdead, ~uint64_t{0}};
  for (uint64_t x : samples) {
    for (uint64_t y : samples) script.push_back({"mix", {x, y}});
  }
  RunDifferential(text, script, "narrow-arith");
}

TEST(EngineDifferentialTest, PhiLoopsAndSelect) {
  const std::string text = R"(module "m"
func @collatz_steps(i64 %n) -> i64 {
entry:
  jmp head
head:
  %v = phi i64 [ %n, entry ], [ %next, body ]
  %steps = phi i64 [ 0, entry ], [ %steps1, body ]
  %done = icmp ule i64 %v, 1
  br %done, out, body
body:
  %bit = and i64 %v, 1
  %odd = icmp eq i64 %bit, 1
  %half = lshr i64 %v, 1
  %trip0 = mul i64 %v, 3
  %trip = add i64 %trip0, 1
  %next = select %odd, i64 %trip, %half
  %steps1 = add i64 %steps, 1
  jmp head
out:
  ret i64 %steps
}
)";
  std::vector<ScriptCall> script;
  for (uint64_t n : {0, 1, 2, 6, 7, 27, 97}) script.push_back(
      {"collatz_steps", {n}});
  RunDifferential(text, script, "phi-loops");
}

TEST(EngineDifferentialTest, InternalCallsAndRecursion) {
  const std::string text = R"(module "m"
func @fib(i64 %n) -> i64 {
entry:
  %small = icmp ult i64 %n, 2
  br %small, base, rec
base:
  ret i64 %n
rec:
  %n1 = sub i64 %n, 1
  %n2 = sub i64 %n, 2
  %a = call i64 @fib(i64 %n1)
  %b = call i64 @fib(i64 %n2)
  %s = add i64 %a, %b
  ret i64 %s
}
func @entry(i64 %n) -> i64 {
entry:
  %r = call i64 @fib(i64 %n)
  ret i64 %r
}
)";
  RunDifferential(text, {{"entry", {10}}, {"fib", {15}}}, "recursion");
}

TEST(EngineDifferentialTest, ErrorPathsAreIdentical) {
  const std::string text = R"(module "m"
func @div(i64 %a, i64 %b) -> i64 {
entry:
  %q = sdiv i64 %a, %b
  ret i64 %q
}
func @spin() -> i64 {
entry:
  jmp loop
loop:
  jmp loop
}
func @count(i64 %n) -> i64 {
entry:
  jmp head
head:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %done = icmp uge i64 %i, %n
  br %done, out, body
body:
  %i1 = add i64 %i, 1
  jmp head
out:
  ret i64 %i
}
func @deep(i64 %n) -> i64 {
entry:
  %r = call i64 @deep(i64 %n)
  ret i64 %r
}
func @bigalloc() -> i64 {
entry:
  %p = alloca 1048576
  %v = ptrtoint ptr %p to i64
  ret i64 %v
}
)";
  InterpConfig config;
  config.max_steps = 1000;
  std::vector<ScriptCall> script = {{"div", {10, 0}}, {"div", {10, 3}},
                                    {"bigalloc", {}}, {"missing", {}},
                                    {"div", {1}},     {"deep", {1}}};
  // max_steps bounds each top-level call, not the engine's lifetime: 50
  // calls of 60 steps each all fit, and @spin still runs out.
  script.insert(script.end(), 50, ScriptCall{"count", {14}});
  script.push_back({"spin", {}});
  RunDifferential(text, script, "errors", config);
  for (EngineKind kind : {EngineKind::kInterp, EngineKind::kVm}) {
    EngineRun run = MakeRun(text, kind, config);
    for (int i = 0; i < 50; ++i) {
      auto result = run.engine->Call("count", {14});
      ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    }
    EXPECT_EQ(run.engine->Call("spin", {}).status().code(),
              ErrorCode::kInternal);
    // The watchdog times a call out only when it is the tighter bound.
    run.engine->set_watchdog_steps(500);
    EXPECT_EQ(run.engine->Call("spin", {}).status().code(),
              ErrorCode::kTimeout);
    run.engine->set_watchdog_steps(2000);
    EXPECT_EQ(run.engine->Call("spin", {}).status().code(),
              ErrorCode::kInternal);
  }
}

TEST(EngineDifferentialTest, InlineAsmTrapsIdentically) {
  const std::string text = R"(module "m"
func @bad() -> i64 {
entry:
  asm "cli; mov cr0, rax"
  ret i64 0
}
)";
  RunDifferential(text, {{"bad", {}}}, "inline-asm");
}

// ---------------------------------------------------------------------------
// Bytecode artifacts: guard-site reconstruction and the disassembler
// ---------------------------------------------------------------------------

TEST(BytecodeTest, GuardSiteTableSurvivesLoweringForWholeCorpus) {
  for (const kirmods::CorpusEntry& entry : kirmods::AllCorpusModules()) {
    SCOPED_TRACE(entry.name);
    auto compiled = transform::CompileModuleText(entry.source);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto parsed = ParseModule(compiled->text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto bytecode = kir::CompileToBytecode(**parsed);
    ASSERT_TRUE(bytecode.ok()) << bytecode.status().ToString();

    const auto from_ir = transform::EnumerateGuardSites(**parsed);
    const auto from_bc = transform::EnumerateGuardSites(*bytecode);
    EXPECT_EQ(from_ir, from_bc);
    // kop_hello only calls printk_str, so zero sites is correct there.
    if (entry.name != "kop_hello") {
      EXPECT_FALSE(from_ir.empty());
    }
  }
}

TEST(BytecodeTest, DisassemblyListsGuardsAndFunctions) {
  auto compiled = transform::CompileModuleText(kirmods::RingbufSource());
  ASSERT_TRUE(compiled.ok());
  auto parsed = ParseModule(compiled->text);
  ASSERT_TRUE(parsed.ok());
  auto bytecode = kir::CompileToBytecode(**parsed);
  ASSERT_TRUE(bytecode.ok());
  const std::string listing = kir::DisassembleBytecode(*bytecode);
  EXPECT_NE(listing.find("func @rb_push"), std::string::npos);
  EXPECT_NE(listing.find("[guard]"), std::string::npos);
  EXPECT_NE(listing.find("guard.inline @carat_guard"), std::string::npos);
}

TEST(BytecodeTest, DisassemblyListsRangeGuardCovers) {
  // memcopy's duplicate @copied loads widen into carat_guard_range
  // covers, which must lower to the dedicated guard.range op.
  transform::CompileOptions options;
  options.elide_guards = true;
  auto compiled =
      transform::CompileModuleText(kirmods::MemcopySource(), options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto parsed = ParseModule(compiled->text);
  ASSERT_TRUE(parsed.ok());
  auto bytecode = kir::CompileToBytecode(**parsed);
  ASSERT_TRUE(bytecode.ok());
  const std::string listing = kir::DisassembleBytecode(*bytecode);
  EXPECT_NE(listing.find("[range-guard]"), std::string::npos);
  EXPECT_NE(listing.find("guard.range @carat_guard_range"),
            std::string::npos);
}

TEST(BytecodeTest, CompileRejectsNothingInCorpus) {
  for (const kirmods::CorpusEntry& entry : kirmods::AllCorpusModules()) {
    auto parsed = ParseModule(entry.source);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(kir::CompileToBytecode(**parsed).ok()) << entry.name;
  }
}

// ---------------------------------------------------------------------------
// Loader-level differential: full pipeline, real device
// ---------------------------------------------------------------------------

signing::SignedModule CompileAndSign(const std::string& source) {
  auto compiled = transform::CompileModuleText(source);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return signing::SignModule(compiled->text, compiled->attestation,
                             signing::SigningKey::DevelopmentKey());
}

signing::Keyring TrustedKeyring() {
  signing::Keyring keyring;
  keyring.Trust(signing::SigningKey::DevelopmentKey());
  return keyring;
}

/// One full simulated-kernel stack wired to a chosen engine.
struct Stack {
  explicit Stack(kernel::ExecEngine engine)
      : loader(&kernel, TrustedKeyring()) {
    loader.set_engine(engine);
    auto inserted = policy::PolicyModule::Insert(&kernel, nullptr,
                                                 policy::PolicyMode::kDefaultAllow);
    EXPECT_TRUE(inserted.ok()) << inserted.status().ToString();
    policy = std::move(*inserted);
  }

  kernel::Kernel kernel;
  kernel::ModuleLoader loader;
  std::unique_ptr<policy::PolicyModule> policy;
};

/// Per-guard-site attribution rows for one module, keyed by a stable
/// label (tokens are process-global and differ between stacks).
std::map<std::string, std::pair<uint64_t, uint64_t>> SiteHits(
    policy::PolicyModule& policy, const std::string& module_name) {
  std::map<std::string, std::pair<uint64_t, uint64_t>> rows;
  for (const policy::HotSite& row : policy.engine().HotSites()) {
    auto info = trace::GlobalSites().Find(row.site);
    if (!info || info->module_name != module_name) continue;
    rows[info->Label()] = {row.hits, row.denied};
  }
  return rows;
}

TEST(EngineLoaderDifferentialTest, KnicDriverIsIdenticalUnderBothEngines) {
  Stack interp(kernel::ExecEngine::kInterp);
  Stack bytecode(kernel::ExecEngine::kBytecode);

  nic::CountingSink interp_sink{/*retain=*/16}, bytecode_sink{/*retain=*/16};
  nic::E1000Device interp_device(&interp.kernel.mem(), &interp_sink);
  nic::E1000Device bytecode_device(&bytecode.kernel.mem(), &bytecode_sink);
  ASSERT_TRUE(interp_device.MapAt(kernel::kVmallocBase).ok());
  ASSERT_TRUE(bytecode_device.MapAt(kernel::kVmallocBase).ok());

  const signing::SignedModule image = CompileAndSign(kirmods::KnicSource());
  auto interp_mod = interp.loader.Insmod(image);
  auto bytecode_mod = bytecode.loader.Insmod(image);
  ASSERT_TRUE(interp_mod.ok()) << interp_mod.status().ToString();
  ASSERT_TRUE(bytecode_mod.ok()) << bytecode_mod.status().ToString();
  EXPECT_EQ((*interp_mod)->engine_name(), "interp");
  EXPECT_EQ((*bytecode_mod)->engine_name(), "bytecode");

  const std::vector<ScriptCall> script = {
      {"knic_init", {kernel::kVmallocBase}},
      {"knic_fill", {64, 0x20}},
      {"knic_send", {kernel::kVmallocBase, 64}},
      {"knic_send", {kernel::kVmallocBase, 64}},
      {"knic_send", {kernel::kVmallocBase, 64}},
      {"knic_sent_hw", {kernel::kVmallocBase}},
  };
  for (const ScriptCall& call : script) {
    auto a = (*interp_mod)->Call(call.function, call.args);
    auto b = (*bytecode_mod)->Call(call.function, call.args);
    ASSERT_EQ(a.ok(), b.ok()) << call.function;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << call.function;
    } else {
      EXPECT_EQ(a.status().ToString(), b.status().ToString());
    }
  }

  // Same frames crossed the simulated wire.
  EXPECT_EQ(interp_sink.packets(), 3u);
  EXPECT_EQ(interp_sink.packets(), bytecode_sink.packets());
  EXPECT_EQ(interp_sink.bytes(), bytecode_sink.bytes());
  EXPECT_EQ(interp_sink.RecentFrames(), bytecode_sink.RecentFrames());

  // Same guard traffic into the policy engine...
  const policy::GuardStats interp_stats = interp.policy->engine().stats();
  const policy::GuardStats bytecode_stats = bytecode.policy->engine().stats();
  EXPECT_GT(interp_stats.guard_calls, 0u);
  EXPECT_EQ(interp_stats.guard_calls, bytecode_stats.guard_calls);
  EXPECT_EQ(interp_stats.allowed, bytecode_stats.allowed);
  EXPECT_EQ(interp_stats.denied, bytecode_stats.denied);
  EXPECT_EQ(interp_stats.intrinsic_calls, bytecode_stats.intrinsic_calls);

  // ...attributed to exactly the same guard sites.
  const auto interp_sites = SiteHits(*interp.policy, "kop_knic");
  const auto bytecode_sites = SiteHits(*bytecode.policy, "kop_knic");
  EXPECT_FALSE(interp_sites.empty());
  EXPECT_EQ(interp_sites, bytecode_sites);

  // And identical execution counters.
  ExpectStatsEqual((*interp_mod)->exec_stats(), (*bytecode_mod)->exec_stats(),
                   "knic loader stats");
}

TEST(EngineLoaderDifferentialTest, QuarantineBehavesIdentically) {
  Stack interp(kernel::ExecEngine::kInterp);
  Stack bytecode(kernel::ExecEngine::kBytecode);
  interp.policy->engine().SetViolationAction(
      policy::ViolationAction::kQuarantine);
  bytecode.policy->engine().SetViolationAction(
      policy::ViolationAction::kQuarantine);
  interp.policy->engine().SetMode(policy::PolicyMode::kDefaultDeny);
  bytecode.policy->engine().SetMode(policy::PolicyMode::kDefaultDeny);
  // This test pins quarantine semantics regardless of KOP_RECOVERY.
  interp.loader.set_recovery_policy(resilience::RecoveryPolicy::kQuarantine);
  bytecode.loader.set_recovery_policy(resilience::RecoveryPolicy::kQuarantine);

  const signing::SignedModule image =
      CompileAndSign(kirmods::ScribblerSource());
  auto interp_mod = interp.loader.Insmod(image);
  auto bytecode_mod = bytecode.loader.Insmod(image);
  ASSERT_TRUE(interp_mod.ok());
  ASSERT_TRUE(bytecode_mod.ok());

  auto a = (*interp_mod)->Call("scribble", {0x10, 0x42});
  auto b = (*bytecode_mod)->Call("scribble", {0x10, 0x42});
  EXPECT_FALSE(a.ok());
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(a.status().ToString(), b.status().ToString());
  EXPECT_TRUE((*interp_mod)->quarantined());
  EXPECT_TRUE((*bytecode_mod)->quarantined());
  EXPECT_EQ((*interp_mod)->quarantine_reason(),
            (*bytecode_mod)->quarantine_reason());
}

TEST(EngineLoaderDifferentialTest,
     PolicyUnloadIsObservedThroughCachedBindings) {
  // The VM binds carat_guard once at insmod. Unloading the policy module
  // unexports the symbol; the generation check must notice and fail the
  // next guarded call exactly like the interpreter's name lookup does.
  Stack interp(kernel::ExecEngine::kInterp);
  Stack bytecode(kernel::ExecEngine::kBytecode);

  const signing::SignedModule image = CompileAndSign(kirmods::RingbufSource());
  auto interp_mod = interp.loader.Insmod(image);
  auto bytecode_mod = bytecode.loader.Insmod(image);
  ASSERT_TRUE(interp_mod.ok());
  ASSERT_TRUE(bytecode_mod.ok());
  ASSERT_TRUE((*interp_mod)->Call("rb_init", {}).ok());
  ASSERT_TRUE((*bytecode_mod)->Call("rb_init", {}).ok());
  // The guards one rb_push runs.
  const uint64_t before = interp.policy->engine().stats().guard_calls;
  ASSERT_TRUE((*interp_mod)->Call("rb_push", {1}).ok());
  ASSERT_TRUE((*bytecode_mod)->Call("rb_push", {1}).ok());
  const uint64_t push_guards =
      interp.policy->engine().stats().guard_calls - before;
  ASSERT_GT(push_guards, 0u);

  interp.policy.reset();    // unexports carat_guard
  bytecode.policy.reset();

  auto a = (*interp_mod)->Call("rb_push", {1});
  auto b = (*bytecode_mod)->Call("rb_push", {1});
  EXPECT_FALSE(a.ok());
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(a.status().ToString(), b.status().ToString());

  // A fresh policy module is reached through the same kernel seam and the
  // same bind-time tokens: every guard of the call decides inline on the
  // new engine (no deopt) and lands in rows of this module's sites.
  trace::Counter* deopts = trace::GlobalMetrics().GetCounter("guard.deopt");
  const uint64_t deopts_before = deopts->value();
  for (auto [stack, module] : {std::pair{&interp, *interp_mod},
                               std::pair{&bytecode, *bytecode_mod}}) {
    auto inserted = policy::PolicyModule::Insert(
        &stack->kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    stack->policy = std::move(*inserted);
    ASSERT_TRUE(module->Call("rb_push", {1}).ok());
    const std::set<uint64_t> tokens(module->site_tokens().begin(),
                                    module->site_tokens().end());
    uint64_t hits = 0;
    for (const policy::HotSite& row : stack->policy->engine().HotSites()) {
      EXPECT_TRUE(tokens.count(row.site)) << "site " << row.site;
      hits += row.hits;
    }
    EXPECT_EQ(stack->policy->engine().stats().guard_calls, push_guards);
    EXPECT_EQ(hits, push_guards);
  }
  EXPECT_EQ(deopts->value(), deopts_before);
}

TEST(EngineLoaderDifferentialTest,
     SlotBuiltWhileExportsAreGoneBindsAndRecoversIdentically) {
  // A CPU slot built while the policy module and a provider module are
  // out binds carat_guard and the provider's export while both are
  // unexported. Each call on that CPU fails with the same status on both
  // engines until the symbol it needs is exported again.
  const std::string provider = R"(module "kop_provider"
func @answer(i64 %x) -> i64 {
entry:
  %r = add i64 %x, 40
  ret i64 %r
}
)";
  const std::string client = R"(module "kop_client"
global @last size 8 rw
extern func @kop_provider.answer(i64) -> i64
func @ask(i64 %x) -> i64 {
entry:
  store i64 %x, @last
  %r = call i64 @kop_provider.answer(i64 %x)
  ret i64 %r
}
)";
  const signing::SignedModule provider_image = CompileAndSign(provider);
  const signing::SignedModule client_image = CompileAndSign(client);
  Stack interp(kernel::ExecEngine::kInterp);
  Stack bytecode(kernel::ExecEngine::kBytecode);
  std::vector<std::pair<Stack*, kernel::LoadedModule*>> legs;
  for (Stack* stack : {&interp, &bytecode}) {
    ASSERT_TRUE(stack->loader.Insmod(provider_image).ok());
    auto loaded = stack->loader.Insmod(client_image);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    stack->policy.reset();  // unexports carat_guard
    ASSERT_TRUE(stack->loader.Rmmod("kop_provider").ok());
    ASSERT_TRUE((*loaded)->PrepareCpus(2).ok());
    legs.emplace_back(stack, *loaded);
  }
  auto ask_on_cpu1 = [&] {
    smp::ScopedCpu cpu(1);
    std::vector<Result<uint64_t>> out;
    for (const auto& leg : legs) out.push_back(leg.second->Call("ask", {2}));
    EXPECT_EQ(out[0].ok(), out[1].ok());
    EXPECT_EQ(out[0].status().ToString(), out[1].status().ToString());
    return out[0];
  };

  Result<uint64_t> asked = ask_on_cpu1();
  EXPECT_EQ(asked.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(asked.status().message(), "undefined kernel symbol: carat_guard");

  for (const auto& leg : legs) {
    auto inserted = policy::PolicyModule::Insert(
        &leg.first->kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    leg.first->policy = std::move(*inserted);
  }
  asked = ask_on_cpu1();
  EXPECT_EQ(asked.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(asked.status().message(),
            "undefined kernel symbol: kop_provider.answer");

  for (const auto& leg : legs) {
    ASSERT_TRUE(leg.first->loader.Insmod(provider_image).ok());
  }
  asked = ask_on_cpu1();
  ASSERT_TRUE(asked.ok()) << asked.status().ToString();
  EXPECT_EQ(*asked, 42u);
  EXPECT_EQ(interp.policy->engine().stats().guard_calls,
            bytecode.policy->engine().stats().guard_calls);
}

// ---------------------------------------------------------------------------
// Elision differential: covers must be observationally invisible
// ---------------------------------------------------------------------------

signing::SignedModule CompileAndSignElide(const std::string& source,
                                          bool elide) {
  transform::CompileOptions options;
  options.elide_guards = elide;
  auto compiled = transform::CompileModuleText(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return signing::SignModule(compiled->text, compiled->attestation,
                             signing::SigningKey::DevelopmentKey());
}

// Every (engine, elision) leg must return the same values and verdicts,
// and the elided accounting must make the access totals line up: for
// widening-only modules, guard_calls + elided on an elided build equals
// guard_calls on the unelided build of the same workload.
TEST(ElisionDifferentialTest, ResultsAndAccountingMatchAcrossLegs) {
  const std::pair<std::string, std::string> modules[] = {
      {"kop_memcopy", kirmods::MemcopySource()},
      {"kop_ringbuf", kirmods::RingbufSource()},
  };
  for (const auto& [name, source] : modules) {
    SCOPED_TRACE(name);

    struct Leg {
      kernel::ExecEngine engine;
      bool elide;
    };
    const Leg legs[] = {
        {kernel::ExecEngine::kInterp, false},
        {kernel::ExecEngine::kInterp, true},
        {kernel::ExecEngine::kBytecode, false},
        {kernel::ExecEngine::kBytecode, true},
    };
    std::vector<std::vector<std::string>> results;
    std::vector<policy::GuardStats> stats;
    for (const Leg& leg : legs) {
      Stack stack(leg.engine);
      auto loaded =
          stack.loader.Insmod(CompileAndSignElide(source, leg.elide));
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      std::vector<std::string> out;
      for (const ScriptCall& call : ScriptFor(name)) {
        auto r = (*loaded)->Call(call.function, call.args);
        out.push_back(r.ok() ? std::to_string(*r)
                             : r.status().ToString());
      }
      results.push_back(std::move(out));
      stats.push_back(stack.policy->engine().stats());
    }
    for (size_t i = 1; i < 4; ++i) {
      EXPECT_EQ(results[0], results[i]) << "leg " << i;
      EXPECT_EQ(stats[0].denied, stats[i].denied) << "leg " << i;
    }
    // Unelided legs never credit elided accesses; elided legs must
    // account for every access the unelided build guarded one by one.
    EXPECT_EQ(stats[0].elided, 0u);
    EXPECT_EQ(stats[2].elided, 0u);
    EXPECT_EQ(stats[0].guard_calls, stats[2].guard_calls);
    EXPECT_EQ(stats[1].guard_calls, stats[3].guard_calls);
    EXPECT_EQ(stats[1].guard_calls + stats[1].elided, stats[0].guard_calls);
    EXPECT_EQ(stats[3].guard_calls + stats[3].elided, stats[2].guard_calls);
    if (name == "kop_memcopy") {
      // memcopy's duplicate @copied loads widen: covers must actually
      // have fired, or this test proves nothing.
      EXPECT_GT(stats[1].elided, 0u);
      EXPECT_GT(stats[3].elided, 0u);
    }
  }
}

// Containment with elision on and off: a denial that lands mid-loop
// must roll back every journaled write identically, quarantine the
// module identically, and report the same violating access.
TEST(ElisionDifferentialTest, ContainmentRollbackIdenticalWithElision) {
  struct Leg {
    std::string error;
    std::string reason;
    std::vector<uint8_t> dst;
    uint64_t copied = 0;
    bool quarantined = false;
  };
  std::vector<Leg> legs;
  for (const bool elide : {false, true}) {
    for (const kernel::ExecEngine engine :
         {kernel::ExecEngine::kInterp, kernel::ExecEngine::kBytecode}) {
      Stack stack(engine);
      auto& engine_ref = stack.policy->engine();
      engine_ref.SetViolationAction(policy::ViolationAction::kQuarantine);
      stack.loader.set_recovery_policy(
          resilience::RecoveryPolicy::kQuarantine);
      auto loaded = stack.loader.Insmod(
          CompileAndSignElide(kirmods::MemcopySource(), elide));
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

      auto src = (*loaded)->GlobalAddress("src");
      auto dst = (*loaded)->GlobalAddress("dst");
      auto copied = (*loaded)->GlobalAddress("copied");
      ASSERT_TRUE(src.ok() && dst.ok() && copied.ok());
      // Allow src and the counter fully, but only the first 64 bytes of
      // dst: copy(16) denies on its 9th store, after 8 journaled
      // iterations that containment must undo.
      engine_ref.SetMode(policy::PolicyMode::kDefaultDeny);
      ASSERT_TRUE(engine_ref.store()
                      .Add(policy::Region{*src, 4096, policy::kProtRW})
                      .ok());
      ASSERT_TRUE(engine_ref.store()
                      .Add(policy::Region{*copied, 8, policy::kProtRW})
                      .ok());
      ASSERT_TRUE(engine_ref.store()
                      .Add(policy::Region{*dst, 64, policy::kProtRW})
                      .ok());

      ASSERT_TRUE((*loaded)->Call("fill", {16, 7}).ok());
      auto denied = (*loaded)->Call("copy", {16});
      ASSERT_FALSE(denied.ok());

      Leg leg;
      leg.error = denied.status().ToString();
      leg.reason = (*loaded)->quarantine_reason();
      leg.quarantined = (*loaded)->quarantined();
      leg.dst.resize(128);
      ASSERT_TRUE(
          stack.kernel.mem().Read(*dst, leg.dst.data(), leg.dst.size()).ok());
      auto counter = stack.kernel.mem().Read64(*copied);
      ASSERT_TRUE(counter.ok());
      leg.copied = *counter;
      legs.push_back(std::move(leg));
    }
  }
  ASSERT_EQ(legs.size(), 4u);
  for (const Leg& leg : legs) {
    EXPECT_TRUE(leg.quarantined);
    // Rollback restored call-entry state: no dst bytes survive, and the
    // counter is back to zero despite 8 committed-then-undone bumps.
    EXPECT_EQ(leg.dst, std::vector<uint8_t>(128, 0));
    EXPECT_EQ(leg.copied, 0u);
  }
  // Same engine, different elision: the violating access (addr, size,
  // flags) is identical; only the site label may differ because site
  // numbering shifts when member guards vanish.
  const auto access_of = [](const std::string& error) {
    return error.substr(0, error.find(" from "));
  };
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(access_of(legs[0].error), access_of(legs[i].error)) << i;
  }
  // Within one elision setting the engines must agree byte for byte.
  EXPECT_EQ(legs[0].error, legs[1].error);
  EXPECT_EQ(legs[2].error, legs[3].error);
  EXPECT_EQ(legs[0].reason, legs[1].reason);
  EXPECT_EQ(legs[2].reason, legs[3].reason);
}

// ---------------------------------------------------------------------------
// The pin/deopt protocol, deterministically
// ---------------------------------------------------------------------------

// A store mutation between two inline checks must deopt exactly once:
// the stale pin fails closed (the slow path re-decides), the refresh
// re-arms the fast path for the rest of the call.
TEST(ElisionDeoptTest, StoreMutationUnderPinDeoptsOnceThenRecovers) {
  kernel::Kernel kernel;
  policy::PolicyEngine engine(&kernel, policy::PolicyMode::kDefaultAllow);
  trace::Counter* deopts = trace::GlobalMetrics().GetCounter("guard.deopt");
  const uint64_t before = deopts->value();

  // Unpinned: the fast path refuses (not a deopt — there is no pin).
  EXPECT_FALSE(engine.FastGuard(0x9000, 8, kGuardAccessRead, 0));
  EXPECT_EQ(deopts->value(), before);

  ASSERT_TRUE(engine.PinFrame());
  EXPECT_TRUE(engine.FastGuard(0x9000, 8, kGuardAccessRead, 0));
  EXPECT_TRUE(engine.FastGuardRange(0x9000, 16, kGuardAccessRead, 1, 0));

  // Mutating the live store bumps its generation: the next inline check
  // must notice the stale pin and bail to the slow path.
  ASSERT_TRUE(engine.store()
                  .Add(policy::Region{0x1000, 0x100, policy::kProtNone})
                  .ok());
  EXPECT_FALSE(engine.FastGuard(0x9000, 8, kGuardAccessRead, 0));
  EXPECT_EQ(deopts->value(), before + 1);
  // The deopt refreshed the pin: fast again, against the new frame.
  EXPECT_TRUE(engine.FastGuard(0x9000, 8, kGuardAccessRead, 0));
  EXPECT_FALSE(engine.FastGuard(0x1000, 8, kGuardAccessWrite, 0));
  engine.UnpinFrame();

  // Elided accesses surfaced in the fold.
  EXPECT_EQ(engine.stats().elided, 1u);
}

// ---------------------------------------------------------------------------
// Forged elision provenance is rejected at insmod
// ---------------------------------------------------------------------------

TEST(ElisionProvenanceTest, ForgedAttestationRejectedUnderStaticVerify) {
  transform::CompileOptions options;
  options.elide_guards = true;
  auto compiled =
      transform::CompileModuleText(kirmods::MemcopySource(), options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_FALSE(compiled->attestation.elisions.empty());

  // Forge the cover's span: the claim no longer matches the shipped IR,
  // so even KOP_VERIFY=static (which re-proves coverage instead of
  // trusting the attestation) must refuse the module.
  transform::AttestationRecord forged = compiled->attestation;
  forged.elisions[0].span += 8;
  const signing::SignedModule image = signing::SignModule(
      compiled->text, forged, signing::SigningKey::DevelopmentKey());

  for (const kernel::VerifyMode mode :
       {kernel::VerifyMode::kStatic, kernel::VerifyMode::kBoth,
        kernel::VerifyMode::kAttest}) {
    Stack stack(kernel::ExecEngine::kBytecode);
    stack.loader.set_verify_mode(mode);
    auto loaded = stack.loader.Insmod(image);
    EXPECT_FALSE(loaded.ok()) << kernel::VerifyModeName(mode);
  }

  // The untampered image loads in every mode.
  const signing::SignedModule good = signing::SignModule(
      compiled->text, compiled->attestation,
      signing::SigningKey::DevelopmentKey());
  for (const kernel::VerifyMode mode :
       {kernel::VerifyMode::kStatic, kernel::VerifyMode::kBoth,
        kernel::VerifyMode::kAttest}) {
    Stack stack(kernel::ExecEngine::kBytecode);
    stack.loader.set_verify_mode(mode);
    EXPECT_TRUE(stack.loader.Insmod(good).ok())
        << kernel::VerifyModeName(mode);
  }
}

// ---------------------------------------------------------------------------
// CFI differential: gating must be observationally invisible for honest
// modules and the only thing standing between a forged pointer and a jump
// ---------------------------------------------------------------------------

signing::SignedModule CompileAndSignCfi(const std::string& source, bool cfi) {
  transform::CompileOptions options;
  options.inject_cfi_checks = cfi;
  auto compiled = transform::CompileModuleText(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return signing::SignModule(compiled->text, compiled->attestation,
                             signing::SigningKey::DevelopmentKey());
}

// Every (engine, cfi) leg of the honest icall module must return the same
// values; CFI-on legs route every indirect call through carat_cfi_check
// with zero denials, CFI-off legs never consult it.
TEST(CfiDifferentialTest, HonestModuleIsIdenticalWithCfiOnAndOff) {
  struct Leg {
    kernel::ExecEngine engine;
    bool cfi;
  };
  const Leg legs[] = {
      {kernel::ExecEngine::kInterp, false},
      {kernel::ExecEngine::kInterp, true},
      {kernel::ExecEngine::kBytecode, false},
      {kernel::ExecEngine::kBytecode, true},
  };
  std::vector<std::vector<std::string>> results;
  std::vector<policy::GuardStats> stats;
  for (const Leg& leg : legs) {
    Stack stack(leg.engine);
    auto loaded =
        stack.loader.Insmod(CompileAndSignCfi(kirmods::IcallSource(), leg.cfi));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::vector<std::string> out;
    for (const ScriptCall& call : ScriptFor("kop_icall")) {
      auto r = (*loaded)->Call(call.function, call.args);
      out.push_back(r.ok() ? std::to_string(*r) : r.status().ToString());
    }
    results.push_back(std::move(out));
    stats.push_back(stack.policy->engine().stats());
  }
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(results[0], results[i]) << "leg " << i;
  }
  EXPECT_EQ(stats[0].cfi_checks, 0u);
  EXPECT_EQ(stats[2].cfi_checks, 0u);
  // 9 vt_call + 2 vt_pick indirect calls, each gated exactly once.
  EXPECT_EQ(stats[1].cfi_checks, 11u);
  EXPECT_EQ(stats[1].cfi_checks, stats[3].cfi_checks);
  for (const policy::GuardStats& s : stats) {
    EXPECT_EQ(s.cfi_denied, 0u);
  }
}

// A forged vtable entry pointing at a real, signature-compatible function
// that is outside every attested legal-target set: with CFI the call is
// contained under the "cfi" reason identically on both engines; without
// CFI it SUCCEEDS — a silent control-flow hijack the memory guards never
// see.
TEST(CfiDifferentialTest, ForgedVtableEntryContainedOnlyUnderCfi) {
  for (const kernel::ExecEngine engine :
       {kernel::ExecEngine::kInterp, kernel::ExecEngine::kBytecode}) {
    SCOPED_TRACE(kernel::ExecEngineName(engine));
    for (const bool cfi : {true, false}) {
      Stack stack(engine);
      stack.policy->engine().SetViolationAction(
          policy::ViolationAction::kQuarantine);
      stack.loader.set_recovery_policy(
          resilience::RecoveryPolicy::kQuarantine);
      auto loaded = stack.loader.Insmod(
          CompileAndSignCfi(kirmods::IcallSource(), cfi));
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_TRUE((*loaded)->Call("vt_init", {}).ok());

      // Scribble slot 0 with @h_spare — compatible signature, never
      // address-taken, so it belongs to no legal-target set.
      const int spare = (*loaded)->ir().FunctionIndex("h_spare");
      ASSERT_GE(spare, 0);
      auto vtable = (*loaded)->GlobalAddress("vtable");
      ASSERT_TRUE(vtable.ok());
      ASSERT_TRUE(stack.kernel.mem()
                      .Write64(*vtable, kir::FunctionAddressForIndex(
                                            static_cast<uint32_t>(spare)))
                      .ok());

      auto hijacked = (*loaded)->Call("vt_call", {0, 5, 3});
      if (cfi) {
        ASSERT_FALSE(hijacked.ok());
        EXPECT_TRUE((*loaded)->quarantined());
        EXPECT_NE((*loaded)->quarantine_reason().find("cfi violation"),
                  std::string::npos)
            << (*loaded)->quarantine_reason();
        EXPECT_GT(stack.policy->engine().stats().cfi_denied, 0u);
      } else {
        // h_spare(5, 3) runs to completion: returns %b and side-effects
        // @acc — the hijack is invisible without CFI.
        ASSERT_TRUE(hijacked.ok()) << hijacked.status().ToString();
        EXPECT_EQ(*hijacked, 3u);
        EXPECT_FALSE((*loaded)->quarantined());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine selection plumbing
// ---------------------------------------------------------------------------

TEST(EngineSelectionTest, EnvVarSelectsEngine) {
  ::setenv("KOP_ENGINE", "interp", 1);
  EXPECT_EQ(kernel::DefaultExecEngine(), kernel::ExecEngine::kInterp);
  ::setenv("KOP_ENGINE", "bytecode", 1);
  EXPECT_EQ(kernel::DefaultExecEngine(), kernel::ExecEngine::kBytecode);
  ::unsetenv("KOP_ENGINE");
  EXPECT_EQ(kernel::DefaultExecEngine(), kernel::ExecEngine::kBytecode);
  EXPECT_EQ(kernel::ExecEngineName(kernel::ExecEngine::kInterp), "interp");
  EXPECT_EQ(kernel::ExecEngineName(kernel::ExecEngine::kBytecode),
            "bytecode");
}

}  // namespace
}  // namespace kop
