#include "base/stats.h"

#include <algorithm>
#include <span>

namespace mondet {

Stats Stats::Collect(const Instance& inst) {
  Stats s;
  const size_t n = inst.vocab()->size();
  s.by_pred_.resize(n);
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;
  for (PredId p = 0; p < n; ++p) s.CountPred(inst, p, stamp, epoch);
  return s;
}

void Stats::CountPred(const Instance& inst, PredId p,
                      std::vector<uint32_t>& stamp, uint32_t& epoch) {
  PredicateStats& ps = by_pred_[p];
  const uint32_t rows = inst.NumRows(p);
  const size_t arity = static_cast<size_t>(inst.vocab()->arity(p));
  ps.cardinality = rows;
  ps.distinct.assign(arity, 0);
  if (rows == 0 || arity == 0) return;
  const std::span<const ElemId> flat =
      inst.FlatArgs(p).first(static_cast<size_t>(rows) * arity);
  const ElemId max_id = *std::max_element(flat.begin(), flat.end());
  if (stamp.size() <= max_id) stamp.resize(static_cast<size_t>(max_id) + 1, 0);
  for (size_t pos = 0; pos < arity; ++pos) {
    ++epoch;
    size_t d = 0;
    for (size_t i = pos; i < flat.size(); i += arity) {
      uint32_t& seen = stamp[flat[i]];
      if (seen != epoch) {
        seen = epoch;
        ++d;
      }
    }
    ps.distinct[pos] = d;
  }
}

double Stats::EstimateMatches(PredId p,
                              const std::vector<bool>& bound_pos) const {
  if (p >= by_pred_.size()) return 0.0;
  const PredicateStats& ps = by_pred_[p];
  if (ps.cardinality == 0) return 0.0;
  double est = static_cast<double>(ps.cardinality);
  const size_t n = std::min(bound_pos.size(), ps.distinct.size());
  for (size_t i = 0; i < n; ++i) {
    if (bound_pos[i]) {
      est /= static_cast<double>(std::max<size_t>(1, ps.distinct[i]));
    }
  }
  return est;
}

double Stats::EstimateMatches(PredId p, const std::vector<ElemId>& args,
                              const std::vector<bool>& bound_var) const {
  if (p >= by_pred_.size()) return 0.0;
  const PredicateStats& ps = by_pred_[p];
  if (ps.cardinality == 0) return 0.0;
  double est = static_cast<double>(ps.cardinality);
  const size_t n = std::min(args.size(), ps.distinct.size());
  for (size_t i = 0; i < n; ++i) {
    if (args[i] < bound_var.size() && bound_var[args[i]]) {
      est /= static_cast<double>(std::max<size_t>(1, ps.distinct[i]));
    }
  }
  return est;
}

}  // namespace mondet
