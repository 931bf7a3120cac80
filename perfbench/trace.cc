#include "trace.h"

#include <fstream>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kParse: return "datalog.parse";
    case Layer::kAnalysis: return "analysis";
    case Layer::kCompile: return "datalog.compile";
    case Layer::kCheck: return "core.check";
    case Layer::kThm5: return "core.thm5";
    case Layer::kRewrite: return "views.rewrite";
    case Layer::kEvalSmall: return "datalog.eval.small";
    case Layer::kEvalLarge: return "datalog.eval.large";
    case Layer::kImage: return "views.image";
    case Layer::kHolds: return "datalog.holds";
    case Layer::kMaterialize: return "views.materialize";
    case Layer::kMaintain: return "views.maintain";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Scope::Scope(Tracer* tracer, Layer layer) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  int32_t parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back({layer, parent, tracer_->op_, NowNs(), 0});
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->open_.pop_back();
}

std::array<double, kNumLayers> Tracer::SelfSeconds(bool setup) const {
  // Children of one parent never overlap (a single client thread opens
  // them one after another), so the covered part is the sum of the
  // children's durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::array<double, kNumLayers> self{};
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if ((s.op == kSetupOp) != setup) continue;
    self[static_cast<size_t>(s.layer)] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << LayerName(s.layer) << "\",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
