// The three workloads. Each runs operations ("ops") through the public
// calls examples/mondet_cli.cpp makes, timing each layer call from the
// outside, and checks every op's output apart from the timed part.

#ifndef MONDET_PERFBENCH_WORKLOADS_H_
#define MONDET_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <memory>
#include <string>

#include "datalog/eval_plan.h"
#include "tasks.h"
#include "trace.h"

namespace perfbench {

/// Work counters gathered at the layer boundaries, summed over ops.
struct Counters {
  double parse_facts = 0;
  double check_tests = 0;
  double check_expansions = 0;
  double thm5_pairs = 0;
  double thm5_visits = 0;
  double thm5_macrostates = 0;
  double thm5_prunes = 0;
  double rewrite_rules = 0;
  // EvalStats scalars of the fixpoint computations (Eval, or ApplyDelta
  // on the stream workload) and their outside-timed seconds.
  double facts_derived = 0;
  double join_probes = 0;
  double iterations = 0;
  double replans = 0;
  double rules_pruned = 0;
  double stats_facts_counted = 0;
  double fixpoint_s = 0;
  double overdeleted = 0;
  double rederived = 0;
  double facts_retracted = 0;
  // Ops whose answer is exact rather than bounded by the check's caps.
  double exact = 0;

  void AddEval(const mondet::EvalStats& s, double seconds);
};

/// Evaluations of inputs below this many facts are timed as
/// datalog.eval.small, the rest as datalog.eval.large (the geometric
/// middle of the evaluate workload's 1e2..1e4 size range).
constexpr size_t kLargeEvalFacts = 1000;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed` and prepares them for the ops (the
  /// stream workload parses its task and materializes its initial view
  /// image here, counting the parsed facts into `counters`). Timed as
  /// setup_s. Called several times per run, also between passes, always
  /// with the same seed and size: each call rebuilds the same inputs
  /// afresh but keeps the reference answers the checks have cached.
  virtual void Setup(unsigned seed, Size size, Tracer* tracer,
                     Counters* counters) = 0;

  /// Ops per pass. A pass runs every op once, in order.
  virtual size_t PassSize() const = 0;

  /// Ops per timing window; every window holds the same mix of tasks.
  virtual size_t WindowOps() const = 0;

  /// Untimed: restores the state a pass starts from.
  virtual void BeginPass() {}

  /// Runs op `i` (timed by the caller; an exception fails the op) and
  /// keeps its output for Check(), which runs after the clock stops.
  virtual void RunOp(size_t i, Tracer* tracer, Counters* counters) = 0;

  /// Checks the output of the op RunOp last ran; `corrupt` damages a copy
  /// of it first (self-test). Returns the number of failed ops it found
  /// (0 or 1, or for stream checkpoints the ops since the last one).
  virtual size_t Check(size_t i, bool corrupt) = 0;

  /// Untimed end-of-pass checks; returns the number of failed ops found.
  virtual size_t EndPass(bool corrupt) { (void)corrupt; return 0; }

  /// Untimed end-of-run checks; returns the number of failed ops found.
  virtual size_t EndRun() { return 0; }

  /// Diagnostics of the failures found so far (one line each).
  const std::string& failures() const { return failures_; }

 protected:
  void Fail(const std::string& what) { failures_ += what + "\n"; }

 private:
  std::string failures_;
};

/// "decide", "evaluate" or "stream"; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // MONDET_PERFBENCH_WORKLOADS_H_
