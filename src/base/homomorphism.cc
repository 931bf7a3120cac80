#include "base/homomorphism.h"

#include <algorithm>

#include "base/check.h"

namespace mondet {

HomSearch::HomSearch(const Instance& pattern, const Instance& target)
    : pattern_(pattern),
      target_(target),
      pattern_facts_(pattern.AllFacts()) {
  MONDET_CHECK(pattern.vocab().get() == target.vocab().get());
  // Greedy atom ordering: repeatedly pick the unprocessed pattern fact
  // sharing the most elements with already-processed facts (ties: fewer
  // target facts of that predicate). Keeps the search tree narrow.
  std::vector<std::vector<ElemId>> atom_vars;
  atom_vars.reserve(pattern_facts_.size());
  for (const Fact& f : pattern_facts_) atom_vars.push_back(f.args);
  atom_order_ = GreedyAtomOrder(atom_vars, pattern_.num_elements(),
                                [this](size_t i) {
                                  return target_.NumRows(
                                      pattern_facts_[i].pred);
                                });
}

bool HomSearch::Search(size_t depth, std::vector<ElemId>& map,
                       const Callback& cb) const {
  if (depth == atom_order_.size()) {
    // Assign isolated (fact-free) pattern elements canonically.
    std::vector<size_t> filled;
    for (ElemId e = 0; e < pattern_.num_elements(); ++e) {
      if (map[e] == kNoElem) {
        if (target_.num_elements() == 0) return true;  // continue: no hom
        map[e] = 0;
        filled.push_back(e);
      }
    }
    bool keep_going = cb(map);
    for (size_t e : filled) map[e] = kNoElem;
    return keep_going;
  }
  const Fact& atom = pattern_facts_[atom_order_[depth]];
  // Candidate target rows: use the tightest available index; a fully
  // unbound atom scans every row of the predicate.
  std::span<const uint32_t> candidates;
  int anchor_pos = -1;
  for (int pos = 0; pos < static_cast<int>(atom.args.size()); ++pos) {
    if (map[atom.args[pos]] != kNoElem) {
      const std::span<const uint32_t> idx =
          target_.RowsWith(atom.pred, pos, map[atom.args[pos]]);
      if (anchor_pos < 0 || idx.size() < candidates.size()) {
        candidates = idx;
        anchor_pos = pos;
      }
    }
  }
  std::vector<ElemId> newly_bound;
  auto try_row = [&](uint32_t row) {
    const std::span<const ElemId> targs = target_.Args(atom.pred, row);
    newly_bound.clear();
    bool ok = true;
    for (size_t pos = 0; pos < atom.args.size(); ++pos) {
      ElemId pe = atom.args[pos];
      if (map[pe] == kNoElem) {
        map[pe] = targs[pos];
        newly_bound.push_back(pe);
      } else if (map[pe] != targs[pos]) {
        ok = false;
        break;
      }
    }
    if (ok) {
      if (!Search(depth + 1, map, cb)) {
        for (ElemId pe : newly_bound) map[pe] = kNoElem;
        return false;
      }
    }
    for (ElemId pe : newly_bound) map[pe] = kNoElem;
    return true;
  };
  if (anchor_pos < 0) {
    const uint32_t n = target_.NumRows(atom.pred);
    for (uint32_t row = 0; row < n; ++row) {
      if (!try_row(row)) return false;
    }
  } else {
    for (uint32_t row : candidates) {
      if (!try_row(row)) return false;
    }
  }
  return true;
}

bool HomSearch::Run(const Fixed& fixed, const Callback& cb) const {
  std::vector<ElemId> map(pattern_.num_elements(), kNoElem);
  for (const auto& [pe, te] : fixed) {
    MONDET_CHECK(pe < pattern_.num_elements());
    MONDET_CHECK(te < target_.num_elements());
    if (map[pe] != kNoElem && map[pe] != te) return true;  // inconsistent
    map[pe] = te;
  }
  return Search(0, map, cb);
}

bool HomSearch::Exists(const Fixed& fixed) const {
  bool found = false;
  Run(fixed, [&found](const std::vector<ElemId>&) {
    found = true;
    return false;
  });
  return found;
}

std::optional<std::vector<ElemId>> HomSearch::FindOne(
    const Fixed& fixed) const {
  std::optional<std::vector<ElemId>> result;
  Run(fixed, [&result](const std::vector<ElemId>& map) {
    result = map;
    return false;
  });
  return result;
}

void HomSearch::ForEach(const Fixed& fixed, const Callback& cb) const {
  Run(fixed, cb);
}

size_t HomSearch::Count(const Fixed& fixed) const {
  size_t n = 0;
  Run(fixed, [&n](const std::vector<ElemId>&) {
    ++n;
    return true;
  });
  return n;
}

bool HasHomomorphism(const Instance& pattern, const Instance& target) {
  return HomSearch(pattern, target).Exists();
}

bool IsHomomorphism(const Instance& pattern, const Instance& target,
                    const std::vector<ElemId>& map) {
  if (map.size() != pattern.num_elements()) return false;
  for (ElemId e = 0; e < pattern.num_elements(); ++e) {
    if (map[e] >= target.num_elements()) return false;
  }
  std::vector<ElemId> img;
  for (uint32_t g = 0; g < pattern.num_facts(); ++g) {
    const FactView f = pattern.ViewAt(g);
    img.clear();
    for (ElemId a : f.args) img.push_back(map[a]);
    if (!target.HasFact(f.pred, img)) return false;
  }
  return true;
}

bool HomEquivalent(const Instance& a, const Instance& b) {
  return HasHomomorphism(a, b) && HasHomomorphism(b, a);
}

}  // namespace mondet
