#include "base/stats.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace mondet {

namespace {

constexpr double kCorrectionMin = 1.0 / 16.0;
constexpr double kCorrectionMax = 16.0;

double ClampCorrection(double v) {
  return std::min(kCorrectionMax, std::max(kCorrectionMin, v));
}

}  // namespace

Stats Stats::Collect(const Instance& inst) {
  Stats s;
  const size_t n = inst.vocab()->size();
  s.by_pred_.resize(n);
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;
  for (PredId p = 0; p < n; ++p) s.CountPred(inst, p, stamp, epoch);
  return s;
}

void Stats::Refresh(const Instance& inst, const std::vector<PredId>& preds) {
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;
  for (PredId p : preds) CountPred(inst, p, stamp, epoch);
}

void Stats::CountPred(const Instance& inst, PredId p,
                      std::vector<uint32_t>& stamp, uint32_t& epoch) {
  if (p >= by_pred_.size()) by_pred_.resize(p + 1);
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

void Stats::Observe(PredId p, double estimated, double actual) {
  if (!(estimated > 0.0) || actual < 0.0) return;
  if (p >= by_pred_.size()) by_pred_.resize(p + 1);
  double ratio = ClampCorrection(actual / estimated);
  PredicateStats& ps = by_pred_[p];
  // Square-root damping: the factor moves half the observed error in log
  // space, so alternating over/under observations settle instead of
  // oscillating.
  ps.correction = ClampCorrection(ps.correction * std::sqrt(ratio));
}

void Stats::Observe(PredId p, const std::vector<bool>& bound_pos,
                    double estimated, double actual) {
  if (!(estimated > 0.0) || actual < 0.0) return;
  size_t k = 0;
  for (bool b : bound_pos) k += b ? 1 : 0;
  if (k == 0) {
    // A full scan: no position to blame, fold into the scalar factor.
    Observe(p, estimated, actual);
    return;
  }
  if (p >= by_pred_.size()) by_pred_.resize(p + 1);
  PredicateStats& ps = by_pred_[p];
  if (ps.pos_correction.size() < bound_pos.size()) {
    ps.pos_correction.resize(bound_pos.size(), 1.0);
  }
  const double ratio = ClampCorrection(actual / estimated);
  // Split the sqrt-damped error evenly over the bound positions in log
  // space: the product of the k per-position nudges is sqrt(ratio), the
  // same total correction the scalar overload would have applied.
  const double nudge = std::pow(ratio, 1.0 / (2.0 * static_cast<double>(k)));
  for (size_t pos = 0; pos < bound_pos.size(); ++pos) {
    if (!bound_pos[pos]) continue;
    ps.pos_correction[pos] = ClampCorrection(ps.pos_correction[pos] * nudge);
  }
}

size_t Stats::ActiveCorrections() const {
  size_t n = 0;
  for (const PredicateStats& ps : by_pred_) {
    bool active = ps.correction != 1.0;
    for (double c : ps.pos_correction) active = active || c != 1.0;
    if (active) ++n;
  }
  return n;
}

void Stats::ImportCorrections(const Stats& from) {
  if (by_pred_.size() < from.by_pred_.size()) {
    by_pred_.resize(from.by_pred_.size());
  }
  for (size_t p = 0; p < from.by_pred_.size(); ++p) {
    by_pred_[p].correction = from.by_pred_[p].correction;
    by_pred_[p].pos_correction = from.by_pred_[p].pos_correction;
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
      if (i < ps.pos_correction.size()) est *= ps.pos_correction[i];
    }
  }
  return est * ps.correction;
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
      if (i < ps.pos_correction.size()) est *= ps.pos_correction[i];
    }
  }
  return est * ps.correction;
}

}  // namespace mondet
