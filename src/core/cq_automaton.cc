#include "core/cq_automaton.h"

#include <algorithm>
#include <set>

#include "base/check.h"

namespace mondet {

namespace {
constexpr int8_t kGone = -2;
}  // namespace

CqMatchAutomaton::CqMatchAutomaton(const CQ& cq, int width)
    : cq_(cq), width_(width) {
  MONDET_CHECK(cq_.free_vars().empty());
  MONDET_CHECK(cq_.atoms().size() <= 64);
  MONDET_CHECK(width_ <= 120);
  all_atoms_ = cq_.atoms().size() == 64
                   ? ~uint64_t{0}
                   : ((uint64_t{1} << cq_.atoms().size()) - 1);
}

bool CqMatchAutomaton::Canonicalize(Match* m) const {
  // Dead if some unsatisfied atom mentions a Gone variable: that atom's
  // witness bag can never materialize above this subtree.
  for (size_t ai = 0; ai < cq_.atoms().size(); ++ai) {
    if (m->atoms & (uint64_t{1} << ai)) continue;
    for (VarId v : cq_.atoms()[ai].args) {
      if (m->pos[v] == kGone) return false;
    }
  }
  return true;
}

bool CqMatchAutomaton::Lift(const EdgeLabel& edge, Match* m) const {
  // child position -> parent position
  std::vector<int8_t> to_parent(width_, kGone);
  for (const auto& [pi, ci] : edge.same) {
    to_parent[ci] = static_cast<int8_t>(pi);
  }
  for (size_t v = 0; v < m->pos.size(); ++v) {
    if (m->pos[v] >= 0) m->pos[v] = to_parent[m->pos[v]];
  }
  return Canonicalize(m);
}

void CqMatchAutomaton::InsertMatch(MatchSet* set, Match m) {
  auto it = std::lower_bound(set->begin(), set->end(), m);
  if (it == set->end() || !(*it == m)) set->insert(it, std::move(m));
}

void CqMatchAutomaton::Saturate(const NodeLabel& label, MatchSet* set) const {
  // Worklist closure: satisfy one more atom at this node.
  std::vector<Match> work(set->begin(), set->end());
  while (!work.empty()) {
    Match m = std::move(work.back());
    work.pop_back();
    for (size_t ai = 0; ai < cq_.atoms().size(); ++ai) {
      if (m.atoms & (uint64_t{1} << ai)) continue;
      const QAtom& qa = cq_.atoms()[ai];
      for (const AtomLabel& la : label) {
        if (la.pred != qa.pred) continue;
        // Unify the atom's variables with the label's positions.
        Match next = m;
        bool ok = true;
        for (size_t j = 0; j < qa.args.size() && ok; ++j) {
          VarId v = qa.args[j];
          int8_t p = static_cast<int8_t>(la.positions[j]);
          if (next.pos[v] == kUnseen) {
            next.pos[v] = p;
          } else if (next.pos[v] != p) {
            ok = false;
          }
        }
        if (!ok) continue;
        next.atoms |= uint64_t{1} << ai;
        size_t before = set->size();
        InsertMatch(set, next);
        if (set->size() != before) work.push_back(std::move(next));
      }
    }
  }
}

CqMatchAutomaton::DpState CqMatchAutomaton::Intern(MatchSet set) {
  auto it = intern_.find(set);
  if (it != intern_.end()) return it->second;
  DpState id = static_cast<DpState>(states_.size());
  bool accepting = false;
  for (const Match& m : set) accepting = accepting || m.atoms == all_atoms_;
  states_.push_back(set);
  accepting_.push_back(accepting);
  intern_.emplace(std::move(set), id);
  return id;
}

CqMatchAutomaton::DpState CqMatchAutomaton::Leaf(const NodeLabel& label) {
  MatchSet set;
  Match base;
  base.pos.assign(cq_.num_vars(), kUnseen);
  InsertMatch(&set, std::move(base));
  Saturate(label, &set);
  return Intern(std::move(set));
}

CqMatchAutomaton::DpState CqMatchAutomaton::Unary(DpState child,
                                                  const NodeLabel& label,
                                                  const EdgeLabel& edge) {
  MatchSet set;
  for (const Match& m : states_[child]) {
    Match lifted = m;
    if (Lift(edge, &lifted)) InsertMatch(&set, std::move(lifted));
  }
  Saturate(label, &set);
  return Intern(std::move(set));
}

CqMatchAutomaton::DpState CqMatchAutomaton::Binary(DpState child1,
                                                   DpState child2,
                                                   const NodeLabel& label,
                                                   const EdgeLabel& edge1,
                                                   const EdgeLabel& edge2) {
  MatchSet lifted1;
  for (const Match& m : states_[child1]) {
    Match lm = m;
    if (Lift(edge1, &lm)) InsertMatch(&lifted1, std::move(lm));
  }
  MatchSet lifted2;
  for (const Match& m : states_[child2]) {
    Match lm = m;
    if (Lift(edge2, &lm)) InsertMatch(&lifted2, std::move(lm));
  }
  MatchSet set;
  for (const Match& m1 : lifted1) {
    for (const Match& m2 : lifted2) {
      Match combined;
      combined.atoms = m1.atoms | m2.atoms;
      combined.pos.resize(cq_.num_vars());
      bool ok = true;
      for (size_t v = 0; v < cq_.num_vars() && ok; ++v) {
        int8_t a = m1.pos[v];
        int8_t b = m2.pos[v];
        if (a == kUnseen) {
          combined.pos[v] = b;
        } else if (b == kUnseen) {
          combined.pos[v] = a;
        } else if (a >= 0 && a == b) {
          combined.pos[v] = a;
        } else {
          // Gone/Gone, Gone/placed or mismatched placements: two distinct
          // elements were used for v in the two subtrees.
          ok = false;
        }
      }
      if (ok && Canonicalize(&combined)) {
        InsertMatch(&set, std::move(combined));
      }
    }
  }
  Saturate(label, &set);
  return Intern(std::move(set));
}

bool CqMatchAutomaton::Accepting(DpState state) const {
  return accepting_[state];
}

UcqMatchAutomaton::UcqMatchAutomaton(const UCQ& ucq, int width) {
  for (const CQ& cq : ucq.disjuncts()) parts_.emplace_back(cq, width);
  MONDET_CHECK(!parts_.empty());
}

UcqMatchAutomaton::DpState UcqMatchAutomaton::Intern(
    std::vector<uint32_t> tuple) {
  auto it = intern_.find(tuple);
  if (it != intern_.end()) return it->second;
  DpState id = static_cast<DpState>(states_.size());
  states_.push_back(tuple);
  intern_.emplace(std::move(tuple), id);
  return id;
}

UcqMatchAutomaton::DpState UcqMatchAutomaton::Leaf(const NodeLabel& label) {
  std::vector<uint32_t> tuple;
  for (auto& p : parts_) tuple.push_back(p.Leaf(label));
  return Intern(std::move(tuple));
}

UcqMatchAutomaton::DpState UcqMatchAutomaton::Unary(DpState child,
                                                    const NodeLabel& label,
                                                    const EdgeLabel& edge) {
  std::vector<uint32_t> tuple;
  for (size_t i = 0; i < parts_.size(); ++i) {
    tuple.push_back(parts_[i].Unary(states_[child][i], label, edge));
  }
  return Intern(std::move(tuple));
}

UcqMatchAutomaton::DpState UcqMatchAutomaton::Binary(DpState child1,
                                                     DpState child2,
                                                     const NodeLabel& label,
                                                     const EdgeLabel& edge1,
                                                     const EdgeLabel& edge2) {
  std::vector<uint32_t> tuple;
  for (size_t i = 0; i < parts_.size(); ++i) {
    tuple.push_back(parts_[i].Binary(states_[child1][i], states_[child2][i],
                                     label, edge1, edge2));
  }
  return Intern(std::move(tuple));
}

bool UcqMatchAutomaton::Accepting(DpState state) const {
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i].Accepting(states_[state][i])) return true;
  }
  return false;
}

}  // namespace mondet
