// Ablation 3 (paper §5, future work — implemented): the two extensions
// the paper sketches.
//   (a) Privileged-intrinsic guarding: wrap cli/wrmsr/hlt/... calls with
//       carat_intrinsic_guard and enforce an intrinsic permission table.
//   (b) Kernel-object protection beyond "memory in general": guard the
//       memory regions holding file-system metadata (inode table) and
//       IPC structures (message-queue headers) so unauthorized file/IPC
//       operations surface as guard violations.
#include <cstdio>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/transform/privileged.hpp"

#include "common/experiment.hpp"
#include "common/module_rig.hpp"

namespace {

using kop::transform::PrivilegedIntrinsic;

struct IntrinsicCase {
  const char* entry_point;
  std::vector<uint64_t> args;
  /// Every intrinsic the entry point executes (all must be permitted for
  /// the call to complete).
  std::vector<PrivilegedIntrinsic> intrinsics;
};

}  // namespace

int main() {
  using namespace kop::bench;
  PrintFigureHeader("Ablation 3", "§5 extensions: privileged intrinsics "
                    "and kernel-object (file/IPC) protection",
                    "kop_privuser + kop_scribbler modules, R350 model");

  std::string csv = "experiment,case,outcome\n";

  // ---- (a) privileged intrinsics --------------------------------------
  std::printf("(a) privileged-intrinsic guarding\n");
  std::printf("%-24s %-10s %s\n", "entry_point", "intrinsic", "outcome");
  {
    kop::transform::CompileOptions options;
    options.wrap_privileged_intrinsics = true;

    const IntrinsicCase cases[] = {
        {"write_msr", {0x1b, 0xfee00000}, {PrivilegedIntrinsic::kWrmsr}},
        {"disable_interrupts",
         {},
         {PrivilegedIntrinsic::kCli, PrivilegedIntrinsic::kSti}},
        {"halt", {}, {PrivilegedIntrinsic::kHlt}},
    };
    for (bool allowed : {true, false}) {
      for (const IntrinsicCase& c : cases) {
        kop::bench::ModuleRig rig;
        if (allowed) {
          for (PrivilegedIntrinsic intrinsic : c.intrinsics) {
            rig.policy().AllowIntrinsic(static_cast<uint64_t>(intrinsic));
          }
        }
        kop::kernel::LoadedModule* module =
            rig.Load(kop::kirmods::PrivuserSource(), options);
        const char* outcome;
        try {
          auto result = module->Call(c.entry_point, c.args);
          outcome = result.ok() ? "executed" : "error";
        } catch (const kop::kernel::KernelPanic&) {
          outcome = "BLOCKED (panic)";
        }
        std::printf(
            "%-24s %-10s %s -> %s\n", c.entry_point,
            std::string(PrivilegedIntrinsicName(c.intrinsics[0])).c_str(),
            allowed ? "allowed" : "denied ", outcome);
        csv += std::string("intrinsic,") + c.entry_point + "/" +
               (allowed ? "allowed" : "denied") + "," + outcome + "\n";
      }
    }
  }

  // ---- (b) file/IPC kernel-object protection --------------------------
  std::printf("\n(b) kernel-object protection: inode table & IPC queues\n");
  {
    kop::bench::ModuleRig rig;
    kop::kernel::Kernel& kernel = rig.kernel();

    // Carve out simulated kernel objects in the direct map.
    auto inode_table = kernel.heap().Kmalloc(4096, 64);
    auto msg_queue = kernel.heap().Kmalloc(1024, 64);
    auto scratch = kernel.heap().Kmalloc(256, 64);
    if (!inode_table.ok() || !msg_queue.ok() || !scratch.ok()) return 1;

    // Policy: inode table read-only to modules, IPC queue untouchable.
    (void)rig.policy().store().Add(
        kop::policy::Region{*inode_table, 4096, kop::policy::kProtRead});
    (void)rig.policy().store().Add(
        kop::policy::Region{*msg_queue, 1024, kop::policy::kProtNone});

    kop::kernel::LoadedModule* module =
        rig.Load(kop::kirmods::ScribblerSource());

    struct ObjectCase {
      const char* label;
      const char* entry_point;
      std::vector<uint64_t> args;
      const char* expected;
    };
    const ObjectCase cases[] = {
        {"scratch write", "scribble", {*scratch, 1}, "allowed"},
        {"inode read", "peek", {*inode_table}, "allowed"},
        {"inode overwrite", "scribble", {*inode_table, 0xbad}, "blocked"},
        {"ipc queue read", "peek", {*msg_queue}, "blocked"},
        {"ipc queue write", "scribble", {*msg_queue, 0xbad}, "blocked"},
    };
    std::printf("%-16s %-10s %s\n", "case", "expected", "outcome");
    for (const ObjectCase& c : cases) {
      const char* outcome;
      try {
        auto result = module->Call(c.entry_point, c.args);
        outcome = result.ok() ? "allowed" : "error";
      } catch (const kop::kernel::KernelPanic&) {
        outcome = "blocked";
        kernel.ClearPanic();
      }
      std::printf("%-16s %-10s %s%s\n", c.label, c.expected, outcome,
                  std::string(outcome) == c.expected ? "" : "  <-- MISMATCH");
      csv += std::string("kernel-object,") + c.label + "," + outcome + "\n";
    }
    std::printf("\ndmesg tail:\n");
    auto records = kernel.log().Dmesg();
    for (size_t i = records.size() >= 3 ? records.size() - 3 : 0;
         i < records.size(); ++i) {
      std::printf("  %s\n", records[i].text.c_str());
    }
  }

  WriteResultsFile("abl3_extensions.csv", csv);
  return 0;
}
