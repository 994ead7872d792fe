// Ablation 5: what does load-time *static* verification cost relative to
// attestation-only validation? KOP_VERIFY=both runs the full dataflow
// analyses (guard coverage, provenance, privileged lint) at every insmod;
// the paper's design point trusts the signed attestation instead. Time
// both paths over the corpus plus synthetic modules of growing size, so
// the CSV shows how verification scales with instruction count.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "kop/analysis/static_verifier.hpp"
#include "kop/kir/parser.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/signing/validator.hpp"

#include "common/experiment.hpp"
#include "common/module_rig.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double MicrosPerRun(const std::function<void()>& body, uint32_t runs) {
  // One warm-up, then the timed runs.
  body();
  const auto start = Clock::now();
  for (uint32_t i = 0; i < runs; ++i) body();
  const std::chrono::duration<double, std::micro> elapsed =
      Clock::now() - start;
  return elapsed.count() / runs;
}

struct Row {
  std::string name;
  size_t insts = 0;
  size_t accesses = 0;
  double attest_us = 0.0;
  double static_us = 0.0;
};

Row Measure(const std::string& name, const std::string& source,
            uint32_t runs) {
  const auto image = kop::bench::SignSource(source, {});
  const kop::signing::Keyring keyring = kop::bench::DevelopmentKeyring();
  auto parsed = kop::kir::ParseModule(image.module_text);
  if (!parsed.ok()) kop::bench::Die("parse " + name, parsed.status());

  Row row;
  row.name = name;
  row.insts = (*parsed)->InstructionCount();
  row.accesses = (*parsed)->MemoryAccessCount();

  // Attestation-only path: the full insmod-time validator (signature,
  // attestation cross-checks, parse + verify).
  row.attest_us = MicrosPerRun(
      [&] {
        auto validated = kop::signing::ValidateSignedModule(image, keyring);
        if (!validated.ok()) std::abort();
      },
      runs);

  // Static path: parse once per run (apples to apples with the validator,
  // which also parses) plus the full analysis suite.
  row.static_us = MicrosPerRun(
      [&] {
        auto module = kop::kir::ParseModule(image.module_text);
        if (!module.ok()) std::abort();
        const auto report = kop::analysis::AnalyzeModule(**module);
        if (!report.ok()) std::abort();
      },
      runs);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kop::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const uint32_t runs =
      static_cast<uint32_t>(std::min<uint64_t>(args.trials * 4, 256));

  PrintFigureHeader("Ablation 5",
                    "Static verification cost vs attestation-only",
                    std::to_string(runs) + " timed runs per module");

  std::vector<std::pair<std::string, std::string>> modules;
  for (const kop::kirmods::CorpusEntry& entry :
       kop::kirmods::AllCorpusModules()) {
    modules.emplace_back(entry.name, entry.source);
  }
  for (const uint32_t functions : {4u, 16u, 64u}) {
    const std::string name = "synthetic_f" + std::to_string(functions);
    modules.emplace_back(
        name, kop::kirmods::SyntheticModuleSource(functions, 8));
  }

  std::string csv = "module,insts,accesses,attest_us,static_us,ratio\n";
  std::printf("%-16s %7s %9s %11s %11s %7s\n", "module", "insts", "accesses",
              "attest_us", "static_us", "ratio");
  for (const auto& [name, source] : modules) {
    const Row row = Measure(name, source, runs);
    const double ratio =
        row.attest_us > 0.0 ? row.static_us / row.attest_us : 0.0;
    std::printf("%-16s %7zu %9zu %11.1f %11.1f %7.3f\n", row.name.c_str(),
                row.insts, row.accesses, row.attest_us, row.static_us, ratio);
    char line[160];
    std::snprintf(line, sizeof(line), "%s,%zu,%zu,%.1f,%.1f,%.3f\n",
                  row.name.c_str(), row.insts, row.accesses, row.attest_us,
                  row.static_us, ratio);
    csv += line;
  }
  std::printf("\n(static verification replaces trust in the compiler's "
              "attestation with a proof over the IR the kernel actually "
              "received)\n");
  WriteResultsFile("abl5_verify.csv", csv);
  return 0;
}
