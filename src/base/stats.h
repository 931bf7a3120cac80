#ifndef MONDET_BASE_STATS_H_
#define MONDET_BASE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/instance.h"

namespace mondet {

/// Exact per-predicate statistics of one relation.
struct PredicateStats {
  size_t cardinality = 0;        // number of facts
  std::vector<size_t> distinct;  // distinct values at each position
  // Feedback correction factor (see Stats::Observe), multiplied into
  // EstimateMatches. 1.0 = no observations yet. Survives recounts:
  // Refresh updates the counts, not the learned selectivity error.
  double correction = 1.0;
  // Per-position correction factors (see the masked Stats::Observe):
  // pos_correction[i] scales every estimate whose probe binds position i,
  // encoding *which* position's uniformity assumption is off — a skewed
  // join column no longer taxes probes on the relation's other columns.
  // Empty means all 1.0; sized to the arity on first positional
  // observation. Survives recounts, like `correction`.
  std::vector<double> pos_correction;
};

/// Per-predicate cardinalities and per-(pred, pos) distinct-value counts
/// collected from a bound instance, feeding the selectivity cost model of
/// the join planner (SelectivityAtomOrder / CompiledProgram).
///
/// Statistics are a snapshot: evaluating a program on an instance that has
/// since grown (or on a different instance entirely) is still *correct* —
/// stale stats can only produce slower join orders, never wrong results.
/// Collect and Refresh count in one O(facts · arity) pass and keep no
/// per-value state, so a snapshot is just the counts; the evaluator
/// recounts the relations that grew at each planning point instead of
/// maintaining the counts fact by fact (see docs/EVALUATION.md).
///
/// On top of the exact counts sits a feedback layer: Observe folds a
/// measured-vs-estimated row ratio into a damped per-predicate correction
/// factor, clamped to [1/16, 16], which EstimateMatches multiplies into
/// every estimate for that predicate. Corrections encode how far the
/// uniformity/independence assumptions are off for a relation, so repeated
/// plan-observe rounds converge toward measured selectivities
/// (EvalOptions::plan_feedback).
class Stats {
 public:
  Stats() = default;

  /// Exact counts for every predicate of `inst`'s vocabulary.
  static Stats Collect(const Instance& inst);

  /// Recounts just the given predicates from `inst`, leaving the rest of
  /// the snapshot (and all correction factors) untouched.
  void Refresh(const Instance& inst, const std::vector<PredId>& preds);

  size_t cardinality(PredId p) const {
    return p < by_pred_.size() ? by_pred_[p].cardinality : 0;
  }
  size_t distinct(PredId p, size_t pos) const {
    if (p >= by_pred_.size()) return 0;
    const auto& d = by_pred_[p].distinct;
    return pos < d.size() ? d[pos] : 0;
  }

  /// Feedback: the planner estimated `estimated` rows for a join step on
  /// predicate `p` and measured `actual`. Folds the ratio into the
  /// predicate's correction factor with square-root damping (one
  /// observation moves the factor at most half the error, in log space)
  /// and clamps both the per-observation ratio and the running factor to
  /// [1/16, 16] so one pathological step cannot poison the model.
  /// Observations with a nonpositive estimate carry no signal and are
  /// ignored; `actual == 0` is treated as the lower ratio clamp (a strong
  /// overestimate).
  void Observe(PredId p, double estimated, double actual);

  /// Positional feedback: the same measurement, plus which positions of
  /// `p` the estimated probe had bound. With k > 0 bound positions the
  /// error is attributed to those positions' correction factors — each
  /// moves by ratio^(1/(2k)) in log space, so the combined positional
  /// nudge equals the scalar overload's sqrt(ratio) — and the scalar
  /// factor is left alone. With no bound position (a full scan: nothing
  /// positional to blame) this degrades to the scalar overload.
  void Observe(PredId p, const std::vector<bool>& bound_pos, double estimated,
               double actual);

  /// The current correction factor for `p` (1.0 when never observed).
  double correction(PredId p) const {
    return p < by_pred_.size() ? by_pred_[p].correction : 1.0;
  }

  /// The correction factor for probes binding position `pos` of `p`.
  double pos_correction(PredId p, size_t pos) const {
    if (p >= by_pred_.size()) return 1.0;
    const auto& pc = by_pred_[p].pos_correction;
    return pos < pc.size() ? pc[pos] : 1.0;
  }

  /// Number of predicates with any correction factor (scalar or
  /// positional) differing from 1.0.
  size_t ActiveCorrections() const;

  /// Copies every correction factor of `from` into this snapshot (counts
  /// are untouched). Lets a caller carry learned corrections across
  /// evaluations: EvalOptions::feedback imports before planning and
  /// exports after the run.
  void ImportCorrections(const Stats& from);

  /// System-R style estimate of how many facts of `p` match a probe with
  /// the positions flagged in `bound_pos` already bound:
  ///   corr(p) · |p| · prod_{i bound} poscorr(p, i) / max(1, distinct(p, i))
  /// assuming uniform values and independent positions, scaled by the
  /// predicate's scalar correction factor and by the positional factor of
  /// every bound position. Returns 0 for an empty (or never-counted)
  /// relation; results are fractional on purpose — the planner compares
  /// them, it never rounds.
  double EstimateMatches(PredId p, const std::vector<bool>& bound_pos) const;

  /// Same estimate, phrased for the planner's inner loop: `args[pos]` is
  /// the variable at position pos and `bound_var` flags bound variables,
  /// so no per-call position mask needs to be materialized.
  double EstimateMatches(PredId p, const std::vector<ElemId>& args,
                         const std::vector<bool>& bound_var) const;

 private:
  /// Recounts `p`: its cardinality, then one pass per position that
  /// counts first sightings in `stamp`, the caller's scratch array indexed
  /// by ElemId (grown to the largest id counted). Each column takes a
  /// fresh `epoch` value, so the array is never cleared between columns.
  void CountPred(const Instance& inst, PredId p, std::vector<uint32_t>& stamp,
                 uint32_t& epoch);

  std::vector<PredicateStats> by_pred_;
};

}  // namespace mondet

#endif  // MONDET_BASE_STATS_H_
