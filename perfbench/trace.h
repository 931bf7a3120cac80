// Span recorder for the benchmark's traced runs.
//
// Spans are recorded around the public calls the benchmark makes into
// each library layer (no spans live inside src/). Each span carries its
// layer, start/end on the steady clock, the index of its parent span and
// the id of the operation it belongs to. Spans stay in memory and are
// written out once, when the run ends.

#ifndef MONDET_PERFBENCH_TRACE_H_
#define MONDET_PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layer boundaries the benchmark times. kOp is the whole operation;
/// every other layer is a child of it.
enum class Layer : uint8_t {
  kOp,
  kParse,
  kAnalysis,
  kCompile,
  kCheck,
  kThm5,
  kRewrite,
  kEvalSmall,
  kEvalLarge,
  kImage,
  kHolds,
  kMaterialize,
  kMaintain,
  kCount,
};
constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

/// The metric prefix of a layer ("datalog.parse", "core.thm5", ...).
const char* LayerName(Layer layer);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Layer layer;
  int32_t parent;  // index into Tracer::spans(), -1 for a root
  uint32_t op;
  int64_t start_ns;
  int64_t end_ns;
};

/// The op id of spans recorded during set-up.
constexpr uint32_t kSetupOp = 0xffffffffu;

class Tracer {
 public:
  /// RAII span; a no-op when `tracer` is null.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  /// Sets the operation id that later spans are tagged with.
  void set_op(uint32_t op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer, in seconds: each span's duration minus the part
  /// of it covered by its child spans. Only spans whose op id is `setup`
  /// == (op == kSetupOp) are counted.
  std::array<double, kNumLayers> SelfSeconds(bool setup) const;

  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span indices
  uint32_t op_ = 0;
};

}  // namespace perfbench

#endif  // MONDET_PERFBENCH_TRACE_H_
