#ifndef MONDET_CORE_MONDET_CHECK_H_
#define MONDET_CORE_MONDET_CHECK_H_

#include <optional>
#include <span>
#include <vector>

#include "analysis/analyzer.h"
#include "datalog/approximation.h"
#include "datalog/program.h"
#include "tree/code.h"
#include "views/view_set.h"

namespace mondet {

/// Outcome of a monotonic-determinacy check.
enum class Verdict {
  /// Every canonical test succeeds and the search space was exhausted:
  /// Q is monotonically determined over V.
  kDetermined,
  /// A failing canonical test was found: Q is NOT monotonically determined.
  kNotDetermined,
  /// All tests within the bounds succeeded but the enumeration was not
  /// exhaustive (recursive query/views or caps hit): no counterexample up
  /// to the bounds.
  kUnknownBounded,
  /// The inputs fail a precondition (non-Boolean query, vocabulary
  /// mismatch, required fragment violated): see MonDetResult::diagnostics
  /// for the witnesses. No tests were run.
  kInvalidInput,
};

/// A failing canonical test (Qi, D'): the approximation satisfies Q, its
/// inverse-expanded view image D' does not (Lemma 5).
struct FailingTest {
  Expansion approximation;
  Instance dprime;

  FailingTest(Expansion a, Instance d)
      : approximation(std::move(a)), dprime(std::move(d)) {}
};

struct MonDetOptions {
  /// Expansion depth for the query's CQ approximations.
  int query_depth = 4;
  /// Expansion depth for the view definitions during inverse application.
  int view_depth = 4;
  /// Cap on the number of query approximations considered.
  size_t max_query_expansions = 500;
  /// Cap on the number of D' instances per approximation.
  size_t max_tests_per_expansion = 2000;
  /// Table 2 preconditions: when set, the query/views must lie in the
  /// given fragment or the check returns kInvalidInput with the analyzer's
  /// witnesses instead of running (e.g. kFrontierGuarded for the Thm 4
  /// rows).
  std::optional<Fragment> require_query_fragment;
  std::optional<Fragment> require_view_fragment;
  /// Worker threads for the D'-test fan-out. 0 = the MONDET_THREADS
  /// environment variable, falling back to hardware concurrency
  /// (ResolveEvalThreads). The result — verdict, counterexample,
  /// tests_run, expansions_tried — is identical for every thread count.
  int num_threads = 0;
};

struct MonDetResult {
  Verdict verdict = Verdict::kUnknownBounded;
  std::optional<FailingTest> failure;
  size_t tests_run = 0;
  size_t expansions_tried = 0;
  /// Precondition violations when verdict == kInvalidInput.
  std::vector<Diagnostic> diagnostics;
};

/// Builds the canonical-test instance D′ of Lemma 5 into `out`, replacing
/// whatever it held (Instance::Clear, so a reused buffer keeps its
/// storage). Elements 0..base_elems-1 are the image's; image fact i, V(c),
/// becomes the facts of the view expansion `choice[i]`, its frontier
/// unified with c and its other elements fresh. Returns false, leaving
/// `out` partly built, when some expansion's frontier repeats an element
/// at positions where c differs: that choice has no D′. `scratch` holds
/// the per-fact element maps; callers keep one per worker.
bool BuildDPrimeInto(Instance& out, const Instance& image,
                     std::span<const Expansion* const> choice,
                     size_t base_elems, std::vector<ElemId>& scratch);

/// The canonical-test procedure of Lemma 5: enumerates tests (Qi, D') and
/// evaluates Q on each D'. Sound refuter for all of Datalog; exact decision
/// when query and views are non-recursive and the bounds cover every
/// expansion (in particular: the NP-complete CQ/CQ case of [21] and the
/// Πp2 UCQ/UCQ case). The query must be Boolean.
MonDetResult CheckMonotonicDeterminacy(const DatalogQuery& query,
                                       const ViewSet& views,
                                       const MonDetOptions& options = {});

/// Exact decision for a Boolean CQ query over arbitrary Datalog views
/// (Thm 5, 2ExpTime): builds Q'' = Π_V ∪ {Goal'' ← V(Q)} and decides the
/// Datalog-in-CQ containment Q'' ⊑ Q via the approximation automaton
/// (Prop. 3) intersected with the complement of the CQ-match evaluator.
/// Returns a witness expansion of Q'' violating Q when not determined.
struct Thm5Result {
  bool determined = false;
  /// Number of (NTA state, DP state) pairs explored (2ExpTime witness).
  size_t pairs_explored = 0;
  /// Transition applications performed by the containment fixpoint.
  size_t transition_visits = 0;
  /// Distinct DP macrostates the containment walk materialized.
  size_t macrostates_visited = 0;
  /// Always 0; kept because perfbench/ reads it.
  size_t subsumption_prunes = 0;
  std::optional<TreeCode> counterexample;
};
Thm5Result CheckCqOverDatalogViews(const CQ& query, const ViewSet& views);

/// Decides Datalog ⊑ UCQ containment (Chaudhuri–Vardi style) exactly:
/// true iff every CQ approximation of `query` satisfies `ucq`. Both
/// Boolean. Exposed because Thm 5 reduces to it; also used by Prop. 9's
/// reductions. Returns a violating code when not contained.
struct ContainmentResult {
  bool contained = false;
  size_t pairs_explored = 0;
  /// Transition applications performed while reaching the fixpoint: one
  /// per (transition, pair) for unary and one per (transition, pair,
  /// partner pair) for binary transitions. The worklist fixpoint visits
  /// each combination O(1) times; the naive re-scan visited them once per
  /// round.
  size_t transition_visits = 0;
  /// Distinct DP macrostates materialized by the walk.
  size_t macrostates_visited = 0;
  std::optional<TreeCode> counterexample;
};
ContainmentResult DatalogContainedInUcq(const DatalogQuery& query,
                                        const UCQ& ucq);

}  // namespace mondet

#endif  // MONDET_CORE_MONDET_CHECK_H_
