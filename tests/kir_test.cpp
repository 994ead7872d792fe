// KIR: types, builder, printer/parser round-trip, verifier, interpreter.
#include <gtest/gtest.h>

#include <map>

#include "kop/kir/kir.hpp"
#include "kop/kirmods/corpus.hpp"

namespace kop::kir {
namespace {

// ------------------------------------------------------------ type tests --

TEST(TypeTest, BitWidthsAndStoreSizes) {
  EXPECT_EQ(BitWidth(Type::kVoid), 0u);
  EXPECT_EQ(BitWidth(Type::kI1), 1u);
  EXPECT_EQ(BitWidth(Type::kI8), 8u);
  EXPECT_EQ(BitWidth(Type::kI16), 16u);
  EXPECT_EQ(BitWidth(Type::kI32), 32u);
  EXPECT_EQ(BitWidth(Type::kI64), 64u);
  EXPECT_EQ(BitWidth(Type::kPtr), 64u);
  EXPECT_EQ(StoreSize(Type::kI1), 1u);
  EXPECT_EQ(StoreSize(Type::kI16), 2u);
  EXPECT_EQ(StoreSize(Type::kPtr), 8u);
}

TEST(TypeTest, ClampToType) {
  EXPECT_EQ(ClampToType(0x1ff, Type::kI8), 0xffu);
  EXPECT_EQ(ClampToType(2, Type::kI1), 0u);
  EXPECT_EQ(ClampToType(3, Type::kI1), 1u);
  EXPECT_EQ(ClampToType(~0ull, Type::kI64), ~0ull);
  EXPECT_EQ(ClampToType(0x12345678, Type::kI16), 0x5678u);
}

TEST(TypeTest, SignExtend) {
  EXPECT_EQ(SignExtend(0xff, Type::kI8), -1);
  EXPECT_EQ(SignExtend(0x7f, Type::kI8), 127);
  EXPECT_EQ(SignExtend(0x8000, Type::kI16), -32768);
  EXPECT_EQ(SignExtend(5, Type::kI64), 5);
}

TEST(TypeTest, ParseTypeNameRoundTrip) {
  for (Type t : {Type::kVoid, Type::kI1, Type::kI8, Type::kI16, Type::kI32,
                 Type::kI64, Type::kPtr}) {
    auto parsed = ParseTypeName(TypeName(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(ParseTypeName("i128").has_value());
  EXPECT_FALSE(ParseTypeName("float").has_value());
}

// --------------------------------------------------------- builder tests --

TEST(BuilderTest, BuildsVerifiableFunction) {
  Module module("test");
  Function* fn = module.CreateFunction(
      "double_it", Type::kI64, {{Type::kI64, "x"}});
  ASSERT_NE(fn, nullptr);
  BasicBlock* entry = fn->CreateBlock("entry");
  IRBuilder builder(&module);
  builder.SetInsertPoint(entry);
  Value* sum = builder.CreateAdd(fn->arg(0), fn->arg(0));
  builder.CreateRet(sum);
  EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(BuilderTest, ConstantsAreUniqued) {
  Module module("test");
  EXPECT_EQ(module.GetI64(42), module.GetI64(42));
  EXPECT_NE(module.GetI64(42), module.GetI64(43));
  EXPECT_NE(module.GetConstant(Type::kI32, 42), module.GetI64(42));
}

TEST(BuilderTest, DuplicateFunctionRejected) {
  Module module("test");
  EXPECT_NE(module.CreateFunction("f", Type::kVoid, {}), nullptr);
  EXPECT_EQ(module.CreateFunction("f", Type::kVoid, {}), nullptr);
}

TEST(BuilderTest, DuplicateGlobalRejected) {
  Module module("test");
  EXPECT_NE(module.AddGlobal("g", 8, true), nullptr);
  EXPECT_EQ(module.AddGlobal("g", 16, false), nullptr);
}

TEST(BuilderTest, InsertBeforePlacesInstructionAhead) {
  Module module("test");
  Function* fn = module.CreateFunction("f", Type::kVoid, {});
  BasicBlock* entry = fn->CreateBlock("entry");
  IRBuilder builder(&module);
  builder.SetInsertPoint(entry);
  builder.CreateCall("kir.cli", Type::kVoid, {});
  builder.CreateRet();
  // Insert before the ret.
  auto it = entry->begin();
  ++it;
  builder.SetInsertPoint(entry, it);
  builder.CreateCall("kir.sti", Type::kVoid, {});
  std::vector<std::string> order;
  for (const auto& inst : *entry) order.push_back(inst->callee());
  ASSERT_EQ(entry->size(), 3u);
  EXPECT_EQ(order[0], "kir.cli");
  EXPECT_EQ(order[1], "kir.sti");
}

// ------------------------------------------------- parser/printer tests --

TEST(ParserTest, ParsesCorpusModules) {
  for (const auto& entry : kirmods::AllCorpusModules()) {
    auto module = ParseModule(entry.source);
    ASSERT_TRUE(module.ok()) << entry.name << ": "
                             << module.status().ToString();
    EXPECT_EQ((*module)->name(), entry.name);
    EXPECT_TRUE(VerifyModule(**module).ok()) << entry.name;
  }
}

TEST(ParserTest, RoundTripIsStable) {
  for (const auto& entry : kirmods::AllCorpusModules()) {
    auto module = ParseModule(entry.source);
    ASSERT_TRUE(module.ok());
    const std::string once = PrintModule(**module);
    auto reparsed = ParseModule(once);
    ASSERT_TRUE(reparsed.ok()) << entry.name << ": "
                               << reparsed.status().ToString();
    const std::string twice = PrintModule(**reparsed);
    EXPECT_EQ(once, twice) << entry.name;
  }
}

TEST(ParserTest, RejectsUnknownInstruction) {
  auto result = ParseModule(
      "module \"m\"\nfunc @f() -> void {\nentry:\n  frobnicate 1\n}\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, RejectsUndefinedLocal) {
  auto result = ParseModule(
      "module \"m\"\nfunc @f() -> i64 {\nentry:\n  ret i64 %nope\n}\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, RejectsUndefinedGlobal) {
  auto result = ParseModule(
      "module \"m\"\nfunc @f() -> i64 {\nentry:\n  %v = load i64, @nope\n"
      "  ret i64 %v\n}\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, RejectsDuplicateLabel) {
  auto result = ParseModule(
      "module \"m\"\nfunc @f() -> void {\nentry:\n  ret void\nentry:\n"
      "  ret void\n}\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, RejectsUnknownLabelTarget) {
  auto result = ParseModule(
      "module \"m\"\nfunc @f() -> void {\nentry:\n  jmp nowhere\n}\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, ParsesHexIntegersAndComments) {
  auto result = ParseModule(
      "module \"m\"  ; a comment\n"
      "func @f() -> i64 {\n"
      "entry:  ; entry block\n"
      "  %v = add i64 0x10, 0x20\n"
      "  ret i64 %v\n"
      "}\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(ParserTest, ParsesGlobalInitBytes) {
  auto result = ParseModule(
      "module \"m\"\nglobal @g size 8 ro init x\"deadbeef\"\n");
  ASSERT_TRUE(result.ok());
  GlobalVariable* g = (*result)->FindGlobal("g");
  ASSERT_NE(g, nullptr);
  EXPECT_FALSE(g->writable());
  ASSERT_EQ(g->init_bytes().size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(g->init_bytes()[0]), 0xde);
  EXPECT_EQ(static_cast<uint8_t>(g->init_bytes()[3]), 0xef);
}

TEST(ParserTest, RejectsInitLongerThanGlobal) {
  auto result = ParseModule(
      "module \"m\"\nglobal @g size 2 ro init x\"deadbeef\"\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, ParsesInlineAsm) {
  auto result = ParseModule(
      "module \"m\"\nfunc @f() -> void {\nentry:\n  asm \"cli\"\n"
      "  ret void\n}\n");
  ASSERT_TRUE(result.ok());
  const auto& entry = *(*result)->FindFunction("f")->blocks()[0];
  EXPECT_EQ((*entry.begin())->opcode(), Opcode::kInlineAsm);
  EXPECT_EQ((*entry.begin())->asm_text(), "cli");
}

// -------------------------------------------------------- verifier tests --

TEST(VerifierTest, RejectsMissingTerminator) {
  Module module("m");
  Function* fn = module.CreateFunction("f", Type::kVoid, {});
  fn->CreateBlock("entry");  // empty block, no terminator
  EXPECT_FALSE(VerifyModule(module).ok());
}

TEST(VerifierTest, RejectsBadCallSignature) {
  auto result = ParseModule(
      "module \"m\"\n"
      "extern func @g(i64) -> void\n"
      "func @f() -> void {\nentry:\n"
      "  call void @g(i64 1, i64 2)\n  ret void\n}\n");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(VerifyModule(**result).ok());
}

TEST(VerifierTest, RejectsRetTypeMismatch) {
  Module module("m");
  Function* fn = module.CreateFunction("f", Type::kI64, {});
  BasicBlock* entry = fn->CreateBlock("entry");
  IRBuilder builder(&module);
  builder.SetInsertPoint(entry);
  builder.CreateRet();  // void ret in i64 function
  EXPECT_FALSE(VerifyModule(module).ok());
}

TEST(VerifierTest, RejectsUseNotDominatedByDef) {
  // %v is defined only on one path but used after the merge.
  auto result = ParseModule(R"(module "m"
func @f(i1 %c) -> i64 {
entry:
  br %c, then, done
then:
  %v = add i64 1, 2
  jmp done
done:
  ret i64 %v
}
)");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(VerifyModule(**result).ok());
}

TEST(VerifierTest, AcceptsPhiMerge) {
  auto result = ParseModule(R"(module "m"
func @f(i1 %c) -> i64 {
entry:
  br %c, then, other
then:
  %a = add i64 1, 2
  jmp done
other:
  %b = add i64 3, 4
  jmp done
done:
  %v = phi i64 [ %a, then ], [ %b, other ]
  ret i64 %v
}
)");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(VerifyModule(**result).ok())
      << VerifyModule(**result).ToString();
}

TEST(VerifierTest, RejectsPhiFromNonPredecessor) {
  auto result = ParseModule(R"(module "m"
func @f(i1 %c) -> i64 {
entry:
  br %c, then, done
then:
  jmp done
done:
  %v = phi i64 [ 1, then ], [ 2, entry ]
  ret i64 %v
}
)");
  ASSERT_TRUE(result.ok());
  // This one is actually fine: entry IS a predecessor of done.
  EXPECT_TRUE(VerifyModule(**result).ok());

  auto bad = ParseModule(R"(module "m"
func @f() -> i64 {
entry:
  jmp mid
mid:
  jmp done
done:
  %v = phi i64 [ 1, entry ]
  ret i64 %v
}
)");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(VerifyModule(**bad).ok());
}

TEST(VerifierTest, ComputesDominators) {
  auto result = ParseModule(R"(module "m"
func @f(i1 %c) -> void {
entry:
  br %c, left, right
left:
  jmp merge
right:
  jmp merge
merge:
  ret void
}
)");
  ASSERT_TRUE(result.ok());
  const Function* fn = (*result)->FindFunction("f");
  auto idom = ComputeImmediateDominators(*fn);
  const BasicBlock* entry = fn->blocks()[0].get();
  const BasicBlock* merge = fn->blocks()[3].get();
  // merge's immediate dominator is entry (not left or right).
  EXPECT_EQ(idom[3], entry);
  EXPECT_TRUE(BlockDominates(*fn, idom, entry, merge));
  EXPECT_FALSE(BlockDominates(*fn, idom, fn->blocks()[1].get(), merge));
}

// ----------------------------------------------------- interpreter tests --

/// Flat test memory: 64 KiB at address 0x1000.
class FlatMemory : public MemoryInterface {
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

 private:
  std::vector<uint8_t> bytes_;
};

class RecordingResolver : public ExternalResolver {
 public:
  uint64_t Bind(const std::string& name) override {
    names.push_back(name);
    return names.size() - 1;
  }
  Result<uint64_t> Call(uint64_t handle, const std::vector<uint64_t>& args,
                        uint64_t /*call_ordinal*/) override {
    calls.emplace_back(names[handle], args);
    return uint64_t{0};
  }
  std::vector<std::string> names;
  std::vector<std::pair<std::string, std::vector<uint64_t>>> calls;
};

struct InterpFixture {
  explicit InterpFixture(const std::string& source,
                         std::unordered_map<std::string, uint64_t> globals =
                             {}) {
    auto parsed = ParseModule(source);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    module = std::move(*parsed);
    InterpConfig config;
    config.stack_base = FlatMemory::kBase + 32 * 1024;
    config.stack_size = 32 * 1024;
    interp = std::make_unique<Interpreter>(*module, memory, resolver,
                                           std::move(globals), config);
  }
  FlatMemory memory;
  RecordingResolver resolver;
  std::unique_ptr<Module> module;
  std::unique_ptr<Interpreter> interp;
};

TEST(InterpTest, Arithmetic) {
  InterpFixture fx(R"(module "m"
func @calc(i64 %a, i64 %b) -> i64 {
entry:
  %s = add i64 %a, %b
  %d = mul i64 %s, 3
  %e = sub i64 %d, 1
  ret i64 %e
}
)");
  auto result = fx.interp->Call("calc", {10, 4});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, (10 + 4) * 3 - 1);
}

TEST(InterpTest, SignedOperations) {
  InterpFixture fx(R"(module "m"
func @sd(i64 %a, i64 %b) -> i64 {
entry:
  %q = sdiv i64 %a, %b
  ret i64 %q
}
)");
  auto result = fx.interp->Call(
      "sd", {static_cast<uint64_t>(-12), static_cast<uint64_t>(4)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(static_cast<int64_t>(*result), -3);
}

TEST(InterpTest, DivisionByZeroFails) {
  InterpFixture fx(R"(module "m"
func @dz(i64 %a) -> i64 {
entry:
  %q = udiv i64 %a, 0
  ret i64 %q
}
)");
  EXPECT_FALSE(fx.interp->Call("dz", {1}).ok());
}

TEST(InterpTest, LoadStoreThroughMemory) {
  InterpFixture fx(R"(module "m"
func @roundtrip(ptr %p, i64 %v) -> i64 {
entry:
  store i64 %v, %p
  %r = load i64, %p
  ret i64 %r
}
)");
  auto result = fx.interp->Call("roundtrip", {FlatMemory::kBase, 0xabcdef});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 0xabcdefu);
  EXPECT_EQ(fx.interp->stats().loads, 1u);
  EXPECT_EQ(fx.interp->stats().stores, 1u);
}

TEST(InterpTest, NarrowStoresClampAndExtend) {
  InterpFixture fx(R"(module "m"
func @narrow(ptr %p) -> i64 {
entry:
  store i16 0x1234, %p
  %lo = load i8, %p
  %z = zext i8 %lo to i64
  ret i64 %z
}
)");
  auto result = fx.interp->Call("narrow", {FlatMemory::kBase});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 0x34u);  // little-endian low byte
}

TEST(InterpTest, LoopWithPhi) {
  InterpFixture fx(R"(module "m"
func @sum(i64 %n) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %s = phi i64 [ 0, entry ], [ %s1, body ]
  %done = icmp uge i64 %i, %n
  br %done, out, body
body:
  %s1 = add i64 %s, %i
  %i1 = add i64 %i, 1
  jmp loop
out:
  ret i64 %s
}
)");
  auto result = fx.interp->Call("sum", {10});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 45u);
}

TEST(InterpTest, InternalCallsAndRecursion) {
  InterpFixture fx(R"(module "m"
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
)");
  auto result = fx.interp->Call("fib", {12});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 144u);
  EXPECT_GT(fx.interp->stats().calls_internal, 0u);
}

TEST(InterpTest, ExternalCallGoesToResolver) {
  InterpFixture fx(R"(module "m"
extern func @helper(i64, i64) -> i64
func @f() -> i64 {
entry:
  %r = call i64 @helper(i64 7, i64 9)
  ret i64 %r
}
)");
  auto result = fx.interp->Call("f", {});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(fx.resolver.calls.size(), 1u);
  EXPECT_EQ(fx.resolver.calls[0].first, "helper");
  EXPECT_EQ(fx.resolver.calls[0].second, (std::vector<uint64_t>{7, 9}));
}

TEST(InterpTest, AllocaProvidesScratchSpace) {
  InterpFixture fx(R"(module "m"
func @scratch(i64 %v) -> i64 {
entry:
  %p = alloca 16
  store i64 %v, %p
  %q = gep %p, i64 1, 8, 0
  store i64 99, %q
  %r = load i64, %p
  ret i64 %r
}
)");
  auto result = fx.interp->Call("scratch", {1234});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 1234u);
}

TEST(InterpTest, SelectAndComparisons) {
  InterpFixture fx(R"(module "m"
func @max(i64 %a, i64 %b) -> i64 {
entry:
  %c = icmp sgt i64 %a, %b
  %m = select %c, i64 %a, %b
  ret i64 %m
}
)");
  auto r1 = fx.interp->Call("max", {5, 9});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, 9u);
  auto r2 = fx.interp->Call(
      "max", {static_cast<uint64_t>(-5), static_cast<uint64_t>(-9)});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(static_cast<int64_t>(*r2), -5);
}

TEST(InterpTest, StepBudgetStopsInfiniteLoop) {
  InterpFixture fx(R"(module "m"
func @spin() -> void {
entry:
  jmp entry
}
)");
  // Tighten the budget via a fresh interpreter.
  InterpConfig config;
  config.stack_base = FlatMemory::kBase;
  config.stack_size = 1024;
  config.max_steps = 1000;
  Interpreter interp(*fx.module, fx.memory, fx.resolver, {}, config);
  EXPECT_FALSE(interp.Call("spin", {}).ok());
}

TEST(InterpTest, InlineAsmFaults) {
  InterpFixture fx(R"(module "m"
func @bad() -> void {
entry:
  asm "cli"
  ret void
}
)");
  auto result = fx.interp->Call("bad", {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kPermissionDenied);
}

TEST(InterpTest, OutOfBoundsAccessFails) {
  InterpFixture fx(R"(module "m"
func @wild(ptr %p) -> i64 {
entry:
  %v = load i64, %p
  ret i64 %v
}
)");
  EXPECT_FALSE(fx.interp->Call("wild", {0xdead0000}).ok());
}

TEST(InterpTest, GlobalAddressesResolve) {
  std::unordered_map<std::string, uint64_t> globals{
      {"counter", FlatMemory::kBase + 256}};
  InterpFixture fx(R"(module "m"
global @counter size 8 rw
func @bump() -> i64 {
entry:
  %v = load i64, @counter
  %v1 = add i64 %v, 1
  store i64 %v1, @counter
  ret i64 %v1
}
)",
                   globals);
  auto r1 = fx.interp->Call("bump", {});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, 1u);
  auto r2 = fx.interp->Call("bump", {});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 2u);
}

TEST(InterpTest, PtrIntCastsRoundTrip) {
  InterpFixture fx(R"(module "m"
func @roundtrip(ptr %p) -> i64 {
entry:
  %i = ptrtoint ptr %p to i64
  %i2 = add i64 %i, 8
  %q = inttoptr i64 %i2 to ptr
  store i64 77, %q
  %r = load i64, %q
  %back = ptrtoint ptr %q to i64
  %delta = sub i64 %back, %i
  %sum = add i64 %r, %delta
  ret i64 %sum
}
)");
  auto result = fx.interp->Call("roundtrip", {FlatMemory::kBase});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 77u + 8u);
}

TEST(VerifierTest, PtrIntCastTypeRules) {
  auto bad1 = ParseModule(R"(module "m"
func @f(i64 %x) -> i64 {
entry:
  %p = ptrtoint i64 %x to i64
  ret i64 %p
}
)");
  ASSERT_TRUE(bad1.ok());
  EXPECT_FALSE(VerifyModule(**bad1).ok());
  auto bad2 = ParseModule(R"(module "m"
func @f(ptr %p) -> ptr {
entry:
  %q = inttoptr ptr %p to ptr
  ret ptr %q
}
)");
  ASSERT_TRUE(bad2.ok());
  EXPECT_FALSE(VerifyModule(**bad2).ok());
}

TEST(InterpTest, RingbufModuleBehaves) {
  std::unordered_map<std::string, uint64_t> globals{
      {"buf", FlatMemory::kBase + 0x100},
      {"head", FlatMemory::kBase + 0x400},
      {"tail", FlatMemory::kBase + 0x408},
      {"count", FlatMemory::kBase + 0x410},
  };
  InterpFixture fx(kirmods::RingbufSource(), globals);
  ASSERT_TRUE(fx.interp->Call("rb_init", {}).ok());
  for (uint64_t i = 0; i < 64; ++i) {
    auto pushed = fx.interp->Call("rb_push", {i * 3});
    ASSERT_TRUE(pushed.ok());
    EXPECT_EQ(*pushed, 1u) << "push " << i;
  }
  // 65th push fails: buffer full.
  auto overflow = fx.interp->Call("rb_push", {999});
  ASSERT_TRUE(overflow.ok());
  EXPECT_EQ(*overflow, 0u);
  auto size = fx.interp->Call("rb_size", {});
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 64u);
  for (uint64_t i = 0; i < 64; ++i) {
    auto popped = fx.interp->Call("rb_pop", {});
    ASSERT_TRUE(popped.ok());
    EXPECT_EQ(*popped, i * 3) << "pop " << i;
  }
  auto empty = fx.interp->Call("rb_pop", {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, 0u);
}

}  // namespace
}  // namespace kop::kir
