#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace kop::perfbench {

double Quantile(std::vector<double> values, double q) {
  Expect(!values.empty(), "quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kNet: return "net.sendmsg";
    case Layer::kXmit: return "e1000e.xmit";
    case Layer::kNapi: return "e1000e.napi";
    case Layer::kCall: return "kernel.call";
    case Layer::kNic: return "nic.mmio";
    case Layer::kCount: break;
  }
  return "?";
}

Ledger::Ledger(size_t capacity) : origin_(NowNs()), capacity_(capacity) {
  spans_.reserve(capacity_);
}

void Ledger::BeginBlock(uint64_t block) {
  block_ = block;
  block_self_.fill(0);
}

void Ledger::Enter(Layer layer) {
  Expect(depth_ < stack_.size(), "ledger span nesting too deep");
  stack_[depth_++] = Open{layer, NowNs(), 0};
}

void Ledger::Exit() {
  const uint64_t end = NowNs();
  const Open open = stack_[--depth_];
  const uint64_t duration = end - open.start;
  block_self_[static_cast<size_t>(open.layer)] += duration - open.child;
  int8_t parent = -1;
  if (depth_ > 0) {
    stack_[depth_ - 1].child += duration;
    parent = static_cast<int8_t>(stack_[depth_ - 1].layer);
  }
  if (spans_.size() < capacity_) {
    spans_.push_back(Span{block_, open.start - origin_, end - origin_,
                          open.layer, parent});
  }
}

bool Ledger::WriteJson(const std::string& path,
                       const std::string& provenance) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"provenance\": %s,\n \"spans\": [\n",
               provenance.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"request\": %llu, \"name\": \"%s\", \"parent\": \"%s\", "
                 "\"start_ns\": %llu, \"end_ns\": %llu}%s\n",
                 static_cast<unsigned long long>(s.block), LayerName(s.layer),
                 s.parent < 0 ? "" : LayerName(static_cast<Layer>(s.parent)),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, " ]}\n");
  return std::fclose(out) == 0;
}

}  // namespace kop::perfbench
