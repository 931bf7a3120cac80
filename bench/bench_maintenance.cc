// Churn benchmark for incremental view maintenance: a maintained view
// image under small insert/delete batches versus from-scratch
// recomputation of the same image. The workload is transitive closure
// over an n-node path — the image carries Θ(n²) facts while cutting and
// re-adding the head edge only touches the Θ(n) paths through it, so
// maintenance (counting + DRed) must beat recompute by a widening margin
// as n grows. bench_snapshot.sh records both families in
// BENCH_maintenance.json; the acceptance bar is maintain ≥ 2x recompute
// on these small-delta steps.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "datalog/eval_plan.h"
#include "datalog/parser.h"
#include "views/maintained_image.h"
#include "views/view_set.h"

namespace mondet {
namespace {

struct ChurnWorkload {
  VocabularyPtr vocab = MakeVocabulary();
  ViewSet views;
  Instance base;
  PredId r = kNoPred;
  Fact head_edge;

  explicit ChurnWorkload(int n)
      : views(vocab), base(vocab), head_edge(0, {}) {
    r = vocab->AddPredicate("R", 2);
    PredId u = vocab->AddPredicate("U", 1);
    views.AddAtomicView("VR", r);
    views.AddAtomicView("VU", u);
    // Recursive transitive-closure view: its maintenance runs the DRed
    // delete-rederive path; the atomic views run the counting path.
    std::vector<Diagnostic> diags;
    auto vt = ParseQuery(R"(
      VT0(x,y) :- R(x,y).
      VT0(x,z) :- R(x,y), VT0(y,z).
    )",
                         "VT0", vocab, &diags);
    views.AddView("VT", *vt);
    std::vector<ElemId> nodes;
    for (int i = 0; i < n; ++i) nodes.push_back(base.AddElement());
    for (int i = 0; i + 1 < n; ++i) {
      base.AddFact(r, {nodes[i], nodes[i + 1]});
    }
    base.AddFact(u, {nodes[n - 1]});
    head_edge = Fact(r, {nodes[0], nodes[1]});
  }
};

/// One churn cycle: cut the head edge, then restore it. Net zero, so the
/// workload is stable across iterations; each half-batch retracts /
/// rederives the Θ(n) closure facts through the edge out of the Θ(n²)
/// image.
void BM_Maintenance_ChurnMaintain(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ChurnWorkload w(n);
  MaintainedImage maintained(w.views, w.base);
  EvalStats stats;
  size_t touched = 0;
  for (auto _ : state) {
    ImageDelta cut = maintained.ApplyDelta({}, {w.head_edge}, &stats);
    ImageDelta mend = maintained.ApplyDelta({w.head_edge}, {}, &stats);
    touched = cut.deletes.size() + mend.inserts.size();
  }
  state.counters["image_facts"] =
      static_cast<double>(maintained.image().num_facts());
  state.counters["touched_per_cycle"] = static_cast<double>(touched);
  // Per churn cycle: `stats` sums over however many iterations the
  // timing loop chose to run, which differs between runs and threads.
  const double cycles = static_cast<double>(state.iterations());
  state.counters["overdeleted"] =
      static_cast<double>(stats.overdeleted) / cycles;
  state.counters["rederived"] = static_cast<double>(stats.rederived) / cycles;

  // The headline contract, checked once after the timed loop: the
  // maintained image is bit-identical (as a set) to a recompute.
  Instance fresh = maintained.FreshImage();
  std::vector<Fact> got = maintained.image().AllFacts();
  std::vector<Fact> want = fresh.AllFacts();
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  state.SetLabel(got == want ? "maintained image == recomputed image"
                             : "MAINTENANCE DIVERGED");
}
BENCHMARK(BM_Maintenance_ChurnMaintain)->Arg(64)->Arg(256)->Arg(512);

/// The same churn cycle answered by from-scratch recomputation: mutate
/// the base, rebuild the whole view image, restore, rebuild again.
void BM_Maintenance_ChurnRecompute(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ChurnWorkload w(n);
  size_t image_facts = 0;
  for (auto _ : state) {
    w.base.RemoveFact(w.head_edge);
    Instance cut_image = w.views.Image(w.base);
    w.base.AddFact(w.head_edge);
    Instance full_image = w.views.Image(w.base);
    image_facts = full_image.num_facts();
    benchmark::DoNotOptimize(cut_image);
    benchmark::DoNotOptimize(full_image);
  }
  state.counters["image_facts"] = static_cast<double>(image_facts);
  state.SetLabel("from-scratch image per churn step");
}
BENCHMARK(BM_Maintenance_ChurnRecompute)->Arg(64)->Arg(256)->Arg(512);

/// Self-checking speedup gauge: times both strategies back to back over
/// the same cycles and reports the ratio, so the ≥2x acceptance bar is a
/// counter in BENCH_maintenance.json rather than a post-processing step.
void BM_Maintenance_Speedup(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ChurnWorkload w(n);
  MaintainedImage maintained(w.views, w.base);
  const int cycles = 3;
  double speedup = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < cycles; ++i) {
      maintained.ApplyDelta({}, {w.head_edge});
      maintained.ApplyDelta({w.head_edge}, {});
    }
    auto t1 = std::chrono::steady_clock::now();
    for (int i = 0; i < cycles; ++i) {
      w.base.RemoveFact(w.head_edge);
      Instance cut_image = w.views.Image(w.base);
      w.base.AddFact(w.head_edge);
      Instance full_image = w.views.Image(w.base);
      benchmark::DoNotOptimize(cut_image);
      benchmark::DoNotOptimize(full_image);
    }
    auto t2 = std::chrono::steady_clock::now();
    double maintain_s = std::chrono::duration<double>(t1 - t0).count();
    double recompute_s = std::chrono::duration<double>(t2 - t1).count();
    speedup = maintain_s > 0 ? recompute_s / maintain_s : 0;
  }
  state.counters["speedup"] = speedup;
  state.SetLabel(speedup >= 2.0
                     ? "maintenance >= 2x recompute on small-delta churn"
                     : "SPEEDUP BELOW 2x");
}
BENCHMARK(BM_Maintenance_Speedup)->Arg(64)->Arg(256)->Arg(512);

}  // namespace
}  // namespace mondet
