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
};

/// Per-predicate cardinalities and per-(pred, pos) distinct-value counts
/// collected from a bound instance, feeding the selectivity cost model of
/// the join planner (SelectivityAtomOrder / CompiledProgram).
///
/// Statistics are a snapshot: evaluating a program on an instance that has
/// since grown (or on a different instance entirely) is still *correct* —
/// stale stats can only produce slower join orders, never wrong results.
/// Collect counts in one O(facts · arity) pass and keeps no per-value
/// state, so a snapshot is just the counts. A snapshot is only ever read
/// by CompiledProgram::BindStats, which plans every stored join order
/// from it once (see docs/EVALUATION.md).
class Stats {
 public:
  Stats() = default;

  /// Exact counts for every predicate of `inst`'s vocabulary.
  static Stats Collect(const Instance& inst);

  size_t cardinality(PredId p) const {
    return p < by_pred_.size() ? by_pred_[p].cardinality : 0;
  }
  size_t distinct(PredId p, size_t pos) const {
    if (p >= by_pred_.size()) return 0;
    const auto& d = by_pred_[p].distinct;
    return pos < d.size() ? d[pos] : 0;
  }

  /// System-R style estimate of how many facts of `p` match a probe with
  /// the positions flagged in `bound_pos` already bound:
  ///   |p| · prod_{i bound} 1 / max(1, distinct(p, i))
  /// assuming uniform values and independent positions. Returns 0 for an
  /// empty (or never-counted) relation; results are fractional on purpose —
  /// the planner compares them, it never rounds.
  double EstimateMatches(PredId p, const std::vector<bool>& bound_pos) const;

  /// Same estimate, phrased for the planner's inner loop: `args[pos]` is
  /// the variable at position pos and `bound_var` flags bound variables,
  /// so no per-call position mask needs to be materialized.
  double EstimateMatches(PredId p, const std::vector<ElemId>& args,
                         const std::vector<bool>& bound_var) const;

 private:
  /// Counts `p`: its cardinality, then one pass per position that
  /// counts first sightings in `stamp`, the caller's scratch array indexed
  /// by ElemId (grown to the largest id counted). Each column takes a
  /// fresh `epoch` value, so the array is never cleared between columns.
  void CountPred(const Instance& inst, PredId p, std::vector<uint32_t>& stamp,
                 uint32_t& epoch);

  std::vector<PredicateStats> by_pred_;
};

}  // namespace mondet

#endif  // MONDET_BASE_STATS_H_
