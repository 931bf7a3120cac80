#include "automata/ops.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "base/check.h"

namespace mondet {

Nta Product(const Nta& a, const Nta& b) {
  MONDET_CHECK(a.width() == b.width());
  Nta out(a.width());
  size_t nb = b.num_states();
  auto pair_state = [&](State qa, State qb) {
    return static_cast<State>(qa * nb + qb);
  };
  for (size_t i = 0; i < a.num_states() * b.num_states(); ++i) out.AddState();
  for (State qa : a.finals()) {
    for (State qb : b.finals()) out.AddFinal(pair_state(qa, qb));
  }
  for (const auto& ta : a.leaf_transitions()) {
    for (const auto& tb : b.leaf_transitions()) {
      if (ta.label == tb.label) {
        out.AddLeaf(ta.label, pair_state(ta.to, tb.to));
      }
    }
  }
  for (const auto& ta : a.unary_transitions()) {
    for (const auto& tb : b.unary_transitions()) {
      if (ta.label == tb.label && ta.edge == tb.edge) {
        out.AddUnary(ta.label, ta.edge, pair_state(ta.child, tb.child),
                     pair_state(ta.to, tb.to));
      }
    }
  }
  for (const auto& ta : a.binary_transitions()) {
    for (const auto& tb : b.binary_transitions()) {
      if (ta.label == tb.label && ta.edge1 == tb.edge1 &&
          ta.edge2 == tb.edge2) {
        out.AddBinary(ta.label, ta.edge1, ta.edge2,
                      pair_state(ta.child1, tb.child1),
                      pair_state(ta.child2, tb.child2),
                      pair_state(ta.to, tb.to));
      }
    }
  }
  return out;
}

Nta UnionNta(const Nta& a, const Nta& b) {
  MONDET_CHECK(a.width() == b.width());
  Nta out(a.width());
  for (size_t i = 0; i < a.num_states() + b.num_states(); ++i) out.AddState();
  State off = static_cast<State>(a.num_states());
  for (State q : a.finals()) out.AddFinal(q);
  for (State q : b.finals()) out.AddFinal(q + off);
  for (const auto& t : a.leaf_transitions()) out.AddLeaf(t.label, t.to);
  for (const auto& t : a.unary_transitions()) {
    out.AddUnary(t.label, t.edge, t.child, t.to);
  }
  for (const auto& t : a.binary_transitions()) {
    out.AddBinary(t.label, t.edge1, t.edge2, t.child1, t.child2, t.to);
  }
  for (const auto& t : b.leaf_transitions()) out.AddLeaf(t.label, t.to + off);
  for (const auto& t : b.unary_transitions()) {
    out.AddUnary(t.label, t.edge, t.child + off, t.to + off);
  }
  for (const auto& t : b.binary_transitions()) {
    out.AddBinary(t.label, t.edge1, t.edge2, t.child1 + off, t.child2 + off,
                  t.to + off);
  }
  return out;
}

namespace {
NodeLabel FilterLabel(const NodeLabel& label,
                      const std::unordered_set<PredId>& keep) {
  NodeLabel out;
  for (const AtomLabel& a : label) {
    if (keep.count(a.pred)) out.insert(a);
  }
  return out;
}
}  // namespace

Nta ProjectLabels(const Nta& a, const std::unordered_set<PredId>& keep) {
  Nta out(a.width());
  for (size_t i = 0; i < a.num_states(); ++i) out.AddState();
  for (State q : a.finals()) out.AddFinal(q);
  for (const auto& t : a.leaf_transitions()) {
    out.AddLeaf(FilterLabel(t.label, keep), t.to);
  }
  for (const auto& t : a.unary_transitions()) {
    out.AddUnary(FilterLabel(t.label, keep), t.edge, t.child, t.to);
  }
  for (const auto& t : a.binary_transitions()) {
    out.AddBinary(FilterLabel(t.label, keep), t.edge1, t.edge2, t.child1,
                  t.child2, t.to);
  }
  return out;
}

namespace {

/// Computes the inhabited (bottom-up reachable) states.
std::vector<bool> Inhabited(const Nta& a) {
  std::vector<bool> in(a.num_states(), false);
  for (const auto& t : a.leaf_transitions()) in[t.to] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& t : a.unary_transitions()) {
      if (!in[t.to] && in[t.child]) {
        in[t.to] = true;
        changed = true;
      }
    }
    for (const auto& t : a.binary_transitions()) {
      if (!in[t.to] && in[t.child1] && in[t.child2]) {
        in[t.to] = true;
        changed = true;
      }
    }
  }
  return in;
}

}  // namespace

bool IsEmpty(const Nta& a) {
  std::vector<bool> in = Inhabited(a);
  for (State q : a.finals()) {
    if (in[q]) return false;
  }
  return true;
}

std::optional<TreeCode> EmptinessWitness(const Nta& a) {
  // For each state, remember one minimal derivation: -1 = none,
  // otherwise (kind, transition index).
  struct Deriv {
    int kind = -1;  // 0 leaf, 1 unary, 2 binary
    size_t idx = 0;
  };
  std::vector<Deriv> deriv(a.num_states());
  std::vector<bool> in(a.num_states(), false);
  for (size_t i = 0; i < a.leaf_transitions().size(); ++i) {
    State q = a.leaf_transitions()[i].to;
    if (!in[q]) {
      in[q] = true;
      deriv[q] = {0, i};
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < a.unary_transitions().size(); ++i) {
      const auto& t = a.unary_transitions()[i];
      if (!in[t.to] && in[t.child]) {
        in[t.to] = true;
        deriv[t.to] = {1, i};
        changed = true;
      }
    }
    for (size_t i = 0; i < a.binary_transitions().size(); ++i) {
      const auto& t = a.binary_transitions()[i];
      if (!in[t.to] && in[t.child1] && in[t.child2]) {
        in[t.to] = true;
        deriv[t.to] = {2, i};
        changed = true;
      }
    }
  }
  State root = kNoElem;
  for (State q : a.finals()) {
    if (in[q]) {
      root = q;
      break;
    }
  }
  if (root == kNoElem) return std::nullopt;

  TreeCode code;
  code.width = a.width();
  std::function<int(State, int)> build = [&](State q, int parent) -> int {
    int id = static_cast<int>(code.nodes.size());
    code.nodes.emplace_back();
    code.nodes[id].parent = parent;
    const Deriv& d = deriv[q];
    MONDET_CHECK(d.kind >= 0);
    if (d.kind == 0) {
      const auto& t = a.leaf_transitions()[d.idx];
      code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
    } else if (d.kind == 1) {
      const auto& t = a.unary_transitions()[d.idx];
      code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
      int c = build(t.child, id);
      code.nodes[id].children.push_back(c);
      code.nodes[id].edge_labels.push_back(t.edge);
    } else {
      const auto& t = a.binary_transitions()[d.idx];
      code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
      int c1 = build(t.child1, id);
      code.nodes[id].children.push_back(c1);
      code.nodes[id].edge_labels.push_back(t.edge1);
      int c2 = build(t.child2, id);
      code.nodes[id].children.push_back(c2);
      code.nodes[id].edge_labels.push_back(t.edge2);
    }
    return id;
  };
  build(root, -1);
  return code;
}

void SymbolUniverse::Merge(const SymbolUniverse& o) {
  leaves.insert(o.leaves.begin(), o.leaves.end());
  unaries.insert(o.unaries.begin(), o.unaries.end());
  binaries.insert(o.binaries.begin(), o.binaries.end());
}

SymbolUniverse SymbolsOf(const Nta& a) {
  SymbolUniverse u;
  for (const auto& t : a.leaf_transitions()) u.leaves.insert(t.label);
  for (const auto& t : a.unary_transitions()) {
    u.unaries.insert({t.label, t.edge});
  }
  for (const auto& t : a.binary_transitions()) {
    u.binaries.insert({t.label, t.edge1, t.edge2});
  }
  return u;
}

SymbolUniverse SymbolsOf(const TreeCode& code) {
  SymbolUniverse u;
  for (const CodeNode& n : code.nodes) {
    NodeLabel label(n.atoms.begin(), n.atoms.end());
    if (n.children.empty()) {
      u.leaves.insert(label);
    } else if (n.children.size() == 1) {
      u.unaries.insert({label, n.edge_labels[0]});
    } else {
      u.binaries.insert({label, n.edge_labels[0], n.edge_labels[1]});
    }
  }
  return u;
}

Nta Determinize(const Nta& a, const SymbolUniverse& universe) {
  Nta out(a.width());
  std::map<std::set<State>, State> subset_id;
  std::vector<std::set<State>> subsets;
  auto intern = [&](const std::set<State>& s) {
    auto it = subset_id.find(s);
    if (it != subset_id.end()) return it->second;
    State q = out.AddState();
    subset_id.emplace(s, q);
    subsets.push_back(s);
    return q;
  };

  // Leaf transitions, one per leaf symbol (deterministic, complete).
  for (const NodeLabel& sym : universe.leaves) {
    std::set<State> s;
    for (const auto& t : a.leaf_transitions()) {
      if (t.label == sym) s.insert(t.to);
    }
    out.AddLeaf(sym, intern(s));
  }
  // Saturate unary/binary transitions over discovered subsets, emitting
  // each (children, symbol) combination exactly once.
  std::set<std::pair<size_t, size_t>> done_unary;  // (subset, symbol idx)
  std::set<std::tuple<size_t, size_t, size_t>> done_binary;
  std::vector<SymbolUniverse::UnSym> unaries(universe.unaries.begin(),
                                             universe.unaries.end());
  std::vector<SymbolUniverse::BinSym> binaries(universe.binaries.begin(),
                                               universe.binaries.end());
  bool changed = true;
  while (changed) {
    changed = false;
    size_t n = subsets.size();
    for (size_t si = 0; si < n; ++si) {
      for (size_t yi = 0; yi < unaries.size(); ++yi) {
        if (!done_unary.insert({si, yi}).second) continue;
        const auto& sym = unaries[yi];
        std::set<State> to;
        for (const auto& t : a.unary_transitions()) {
          if (t.label == sym.label && t.edge == sym.edge &&
              subsets[si].count(t.child)) {
            to.insert(t.to);
          }
        }
        State from = subset_id.at(subsets[si]);
        size_t before = subsets.size();
        out.AddUnary(sym.label, sym.edge, from, intern(to));
        if (before != subsets.size()) changed = true;
      }
    }
    for (size_t s1 = 0; s1 < n; ++s1) {
      for (size_t s2 = 0; s2 < n; ++s2) {
        for (size_t yi = 0; yi < binaries.size(); ++yi) {
          if (!done_binary.insert({s1, s2, yi}).second) continue;
          const auto& sym = binaries[yi];
          std::set<State> to;
          for (const auto& t : a.binary_transitions()) {
            if (t.label == sym.label && t.edge1 == sym.edge1 &&
                t.edge2 == sym.edge2 && subsets[s1].count(t.child1) &&
                subsets[s2].count(t.child2)) {
              to.insert(t.to);
            }
          }
          State f1 = subset_id.at(subsets[s1]);
          State f2 = subset_id.at(subsets[s2]);
          size_t before = subsets.size();
          out.AddBinary(sym.label, sym.edge1, sym.edge2, f1, f2, intern(to));
          if (before != subsets.size()) changed = true;
        }
      }
    }
    if (subsets.size() != n) changed = true;
  }
  for (const auto& [s, q] : subset_id) {
    for (State f : a.finals()) {
      if (s.count(f)) {
        out.AddFinal(q);
        break;
      }
    }
  }
  return out;
}

Nta Complement(const Nta& a, const SymbolUniverse& universe) {
  Nta det = Determinize(a, universe);
  Nta out(det.width());
  for (size_t i = 0; i < det.num_states(); ++i) out.AddState();
  for (State q = 0; q < det.num_states(); ++q) {
    if (!det.finals().count(q)) out.AddFinal(q);
  }
  for (const auto& t : det.leaf_transitions()) out.AddLeaf(t.label, t.to);
  for (const auto& t : det.unary_transitions()) {
    out.AddUnary(t.label, t.edge, t.child, t.to);
  }
  for (const auto& t : det.binary_transitions()) {
    out.AddBinary(t.label, t.edge1, t.edge2, t.child1, t.child2, t.to);
  }
  return out;
}

namespace {

/// Self-test hook (scripts/check_fuzz_fault.sh): makes the antichain
/// prune fire on ⊆-comparability in *either* direction, which wrongly
/// discards strictly-smaller macrostates — exactly the unsound prune the
/// antichain-inclusion oracle must catch.
bool FaultSkipAntichainPrune() {
  static const bool on = [] {
    const char* env = std::getenv("MONDET_FAULT");
    return env != nullptr && std::strcmp(env, "skip-antichain-prune") == 0;
  }();
  return on;
}

/// A b-macrostate: a sorted, duplicate-free set of b-states.
using Macro = std::vector<State>;

bool MacroSubset(const Macro& sub, const Macro& sup) {
  return std::includes(sup.begin(), sup.end(), sub.begin(), sub.end());
}

void SortUnique(Macro* m) {
  std::sort(m->begin(), m->end());
  m->erase(std::unique(m->begin(), m->end()), m->end());
}

}  // namespace

NtaInclusionResult NtaIncluded(const Nta& a, const Nta& b,
                               const SymbolUniverse& universe) {
  MONDET_CHECK(a.width() == b.width());
  NtaInclusionResult result;
  const bool fault = FaultSkipAntichainPrune();

  // b's transitions bucketed by symbol: successor macrostates are
  // computed on demand against these lists, never via Determinize.
  std::map<NodeLabel, Macro> b_leaf;
  for (const auto& t : b.leaf_transitions()) b_leaf[t.label].push_back(t.to);
  for (auto& [sym, m] : b_leaf) SortUnique(&m);
  std::map<SymbolUniverse::UnSym, std::vector<std::pair<State, State>>>
      b_unary;
  for (const auto& t : b.unary_transitions()) {
    b_unary[{t.label, t.edge}].push_back({t.child, t.to});
  }
  std::map<SymbolUniverse::BinSym,
           std::vector<std::tuple<State, State, State>>>
      b_binary;
  for (const auto& t : b.binary_transitions()) {
    b_binary[{t.label, t.edge1, t.edge2}].push_back(
        {t.child1, t.child2, t.to});
  }
  auto unary_succ = [&](const SymbolUniverse::UnSym& sym, const Macro& s) {
    Macro out;
    if (auto it = b_unary.find(sym); it != b_unary.end()) {
      for (const auto& [child, to] : it->second) {
        if (std::binary_search(s.begin(), s.end(), child)) out.push_back(to);
      }
    }
    SortUnique(&out);
    return out;
  };
  auto binary_succ = [&](const SymbolUniverse::BinSym& sym, const Macro& s1,
                         const Macro& s2) {
    Macro out;
    if (auto it = b_binary.find(sym); it != b_binary.end()) {
      for (const auto& [c1, c2, to] : it->second) {
        if (std::binary_search(s1.begin(), s1.end(), c1) &&
            std::binary_search(s2.begin(), s2.end(), c2)) {
          out.push_back(to);
        }
      }
    }
    SortUnique(&out);
    return out;
  };

  // Interned macrostates (kept pairs only, so macrostates_visited counts
  // subsets actually materialized) and discovered pairs with their
  // derivations, mirroring the DatalogContainedInUcq worklist.
  std::map<Macro, int> macro_id;
  std::vector<Macro> macros;
  std::vector<bool> macro_final;
  struct Deriv {
    int kind = -1;  // 0 leaf, 1 unary, 2 binary
    size_t trans = 0;
    int child1 = -1;
    int child2 = -1;
  };
  std::map<std::pair<State, int>, int> pair_id;
  std::vector<std::pair<State, int>> pairs;
  std::vector<Deriv> derivs;
  std::map<State, std::vector<int>> pairs_by_state;
  /// Per a-state antichain filter: pair ids whose macrostates are the
  /// current ⊆-minimal ones. Dominated entries leave the filter but stay
  /// in `pairs` (their derivations may already be referenced).
  std::map<State, std::vector<int>> frontier;
  std::vector<int> worklist;
  int bad = -1;

  auto intern = [&](State q, Macro m, Deriv deriv) {
    if (bad >= 0) return;
    auto mit = macro_id.find(m);
    int mid = mit == macro_id.end() ? -1 : mit->second;
    if (mid >= 0 && pair_id.count({q, mid})) return;
    for (int old : frontier[q]) {
      const Macro& seen = macros[pairs[old].second];
      if (MacroSubset(seen, m) || (fault && MacroSubset(m, seen))) {
        ++result.subsumption_prunes;
        return;
      }
    }
    if (mid < 0) {
      mid = static_cast<int>(macros.size());
      macro_id.emplace(m, mid);
      bool fin = false;
      for (State qb : m) fin = fin || b.finals().count(qb) > 0;
      macros.push_back(std::move(m));
      macro_final.push_back(fin);
    }
    int id = static_cast<int>(pairs.size());
    pair_id.emplace(std::make_pair(q, mid), id);
    pairs.emplace_back(q, mid);
    derivs.push_back(deriv);
    pairs_by_state[q].push_back(id);
    auto& fr = frontier[q];
    fr.erase(std::remove_if(fr.begin(), fr.end(),
                            [&](int old) {
                              return MacroSubset(macros[mid],
                                                 macros[pairs[old].second]);
                            }),
             fr.end());
    fr.push_back(id);
    worklist.push_back(id);
    if (a.finals().count(q) > 0 && !macro_final[mid]) bad = id;
  };

  // Only a-transitions whose symbols lie in the universe participate —
  // the same restriction Product(a, Complement(b, universe)) applies.
  std::map<State, std::vector<size_t>> unary_by_child;
  for (size_t ti = 0; ti < a.unary_transitions().size(); ++ti) {
    const auto& t = a.unary_transitions()[ti];
    if (universe.unaries.count({t.label, t.edge})) {
      unary_by_child[t.child].push_back(ti);
    }
  }
  std::map<State, std::vector<size_t>> binary_by_child1, binary_by_child2;
  for (size_t ti = 0; ti < a.binary_transitions().size(); ++ti) {
    const auto& t = a.binary_transitions()[ti];
    if (universe.binaries.count({t.label, t.edge1, t.edge2})) {
      binary_by_child1[t.child1].push_back(ti);
      binary_by_child2[t.child2].push_back(ti);
    }
  }

  for (size_t ti = 0; ti < a.leaf_transitions().size() && bad < 0; ++ti) {
    const auto& t = a.leaf_transitions()[ti];
    if (!universe.leaves.count(t.label)) continue;
    ++result.transition_visits;
    auto it = b_leaf.find(t.label);
    intern(t.to, it == b_leaf.end() ? Macro{} : it->second,
           Deriv{0, ti, -1, -1});
  }
  for (size_t wi = 0; wi < worklist.size() && bad < 0; ++wi) {
    const int pi = worklist[wi];
    const State q = pairs[pi].first;
    const int mq = pairs[pi].second;
    if (auto it = unary_by_child.find(q); it != unary_by_child.end()) {
      for (size_t ti : it->second) {
        if (bad >= 0) break;
        const auto& t = a.unary_transitions()[ti];
        ++result.transition_visits;
        intern(t.to, unary_succ({t.label, t.edge}, macros[mq]),
               Deriv{1, ti, pi, -1});
      }
    }
    // Binary joins pair the popped pair with every known sibling pair;
    // the partner list is snapshotted by size, so partners interned later
    // re-pair with `pi` when they pop (see DatalogContainedInUcq).
    if (auto it = binary_by_child1.find(q);
        it != binary_by_child1.end() && bad < 0) {
      for (size_t ti : it->second) {
        if (bad >= 0) break;
        const auto& t = a.binary_transitions()[ti];
        auto pit = pairs_by_state.find(t.child2);
        if (pit == pairs_by_state.end()) continue;
        size_t n = pit->second.size();
        for (size_t k = 0; k < n && bad < 0; ++k) {
          int p2 = pit->second[k];
          ++result.transition_visits;
          intern(t.to,
                 binary_succ({t.label, t.edge1, t.edge2}, macros[mq],
                             macros[pairs[p2].second]),
                 Deriv{2, ti, pi, p2});
        }
      }
    }
    if (auto it = binary_by_child2.find(q);
        it != binary_by_child2.end() && bad < 0) {
      for (size_t ti : it->second) {
        if (bad >= 0) break;
        const auto& t = a.binary_transitions()[ti];
        auto pit = pairs_by_state.find(t.child1);
        if (pit == pairs_by_state.end()) continue;
        size_t n = pit->second.size();
        for (size_t k = 0; k < n && bad < 0; ++k) {
          int p1 = pit->second[k];
          ++result.transition_visits;
          intern(t.to,
                 binary_succ({t.label, t.edge1, t.edge2},
                             macros[pairs[p1].second], macros[mq]),
                 Deriv{2, ti, p1, pi});
        }
      }
    }
  }
  result.pairs_explored = pairs.size();
  result.macrostates_visited = macros.size();
  if (bad < 0) {
    result.included = true;
    return result;
  }
  result.included = false;

  TreeCode code;
  code.width = a.width();
  std::function<int(int, int)> build = [&](int pi, int parent) -> int {
    const Deriv& d = derivs[pi];
    int id = static_cast<int>(code.nodes.size());
    code.nodes.emplace_back();
    code.nodes[id].parent = parent;
    if (d.kind == 0) {
      const auto& t = a.leaf_transitions()[d.trans];
      code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
    } else if (d.kind == 1) {
      const auto& t = a.unary_transitions()[d.trans];
      code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
      int c = build(d.child1, id);
      code.nodes[id].children.push_back(c);
      code.nodes[id].edge_labels.push_back(t.edge);
    } else {
      const auto& t = a.binary_transitions()[d.trans];
      code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
      int c1 = build(d.child1, id);
      code.nodes[id].children.push_back(c1);
      code.nodes[id].edge_labels.push_back(t.edge1);
      int c2 = build(d.child2, id);
      code.nodes[id].children.push_back(c2);
      code.nodes[id].edge_labels.push_back(t.edge2);
    }
    return id;
  };
  build(bad, -1);
  result.witness = std::move(code);
  return result;
}

LazyProductResult LazyProductEmptiness(const Nta& a, const Nta& b) {
  MONDET_CHECK(a.width() == b.width());
  LazyProductResult result;

  std::map<SymbolUniverse::UnSym, std::vector<size_t>> b_unary;
  for (size_t ti = 0; ti < b.unary_transitions().size(); ++ti) {
    const auto& t = b.unary_transitions()[ti];
    b_unary[{t.label, t.edge}].push_back(ti);
  }
  std::map<SymbolUniverse::BinSym, std::vector<size_t>> b_binary;
  for (size_t ti = 0; ti < b.binary_transitions().size(); ++ti) {
    const auto& t = b.binary_transitions()[ti];
    b_binary[{t.label, t.edge1, t.edge2}].push_back(ti);
  }
  std::map<State, std::vector<size_t>> unary_by_child;
  for (size_t ti = 0; ti < a.unary_transitions().size(); ++ti) {
    unary_by_child[a.unary_transitions()[ti].child].push_back(ti);
  }
  std::map<State, std::vector<size_t>> binary_by_child1, binary_by_child2;
  for (size_t ti = 0; ti < a.binary_transitions().size(); ++ti) {
    binary_by_child1[a.binary_transitions()[ti].child1].push_back(ti);
    binary_by_child2[a.binary_transitions()[ti].child2].push_back(ti);
  }

  struct Deriv {
    int kind = -1;  // 0 leaf, 1 unary, 2 binary
    size_t trans = 0;  // index into a's transitions of that kind
    int child1 = -1;
    int child2 = -1;
  };
  std::map<std::pair<State, State>, int> pair_id;
  std::vector<std::pair<State, State>> pairs;
  std::vector<Deriv> derivs;
  std::vector<int> worklist;
  int bad = -1;
  auto intern = [&](State qa, State qb, Deriv deriv) {
    if (bad >= 0) return;
    auto key = std::make_pair(qa, qb);
    if (pair_id.count(key)) return;
    int id = static_cast<int>(pairs.size());
    pair_id.emplace(key, id);
    pairs.push_back(key);
    derivs.push_back(deriv);
    worklist.push_back(id);
    if (a.finals().count(qa) > 0 && b.finals().count(qb) > 0) bad = id;
  };

  for (size_t ti = 0; ti < a.leaf_transitions().size() && bad < 0; ++ti) {
    const auto& ta = a.leaf_transitions()[ti];
    for (const auto& tb : b.leaf_transitions()) {
      if (bad >= 0) break;
      if (!(ta.label == tb.label)) continue;
      ++result.transition_visits;
      intern(ta.to, tb.to, Deriv{0, ti, -1, -1});
    }
  }
  for (size_t wi = 0; wi < worklist.size() && bad < 0; ++wi) {
    const int pi = worklist[wi];
    const State qa = pairs[pi].first;
    const State qb = pairs[pi].second;
    if (auto it = unary_by_child.find(qa); it != unary_by_child.end()) {
      for (size_t ti : it->second) {
        if (bad >= 0) break;
        const auto& ta = a.unary_transitions()[ti];
        auto bit = b_unary.find({ta.label, ta.edge});
        if (bit == b_unary.end()) continue;
        for (size_t tj : bit->second) {
          if (bad >= 0) break;
          const auto& tb = b.unary_transitions()[tj];
          if (tb.child != qb) continue;
          ++result.transition_visits;
          intern(ta.to, tb.to, Deriv{1, ti, pi, -1});
        }
      }
    }
    // A binary step needs both child product-pairs discovered. Joining
    // the popped pair as one child, the sibling is a direct pair_id
    // lookup; combinations whose sibling is interned later fire when the
    // sibling pops with the roles swapped.
    auto binary_from = [&](size_t ti, bool popped_is_child1) {
      const auto& ta = a.binary_transitions()[ti];
      auto bit = b_binary.find({ta.label, ta.edge1, ta.edge2});
      if (bit == b_binary.end()) return;
      for (size_t tj : bit->second) {
        if (bad >= 0) break;
        const auto& tb = b.binary_transitions()[tj];
        if ((popped_is_child1 ? tb.child1 : tb.child2) != qb) continue;
        State sib_a = popped_is_child1 ? ta.child2 : ta.child1;
        State sib_b = popped_is_child1 ? tb.child2 : tb.child1;
        auto sit = pair_id.find({sib_a, sib_b});
        if (sit == pair_id.end()) continue;
        ++result.transition_visits;
        if (popped_is_child1) {
          intern(ta.to, tb.to, Deriv{2, ti, pi, sit->second});
        } else {
          intern(ta.to, tb.to, Deriv{2, ti, sit->second, pi});
        }
      }
    };
    if (auto it = binary_by_child1.find(qa);
        it != binary_by_child1.end() && bad < 0) {
      for (size_t ti : it->second) {
        if (bad >= 0) break;
        binary_from(ti, true);
      }
    }
    if (auto it = binary_by_child2.find(qa);
        it != binary_by_child2.end() && bad < 0) {
      for (size_t ti : it->second) {
        if (bad >= 0) break;
        binary_from(ti, false);
      }
    }
  }
  result.pairs_explored = pairs.size();
  if (bad < 0) return result;
  result.empty = false;

  TreeCode code;
  code.width = a.width();
  std::function<int(int, int)> build = [&](int pi, int parent) -> int {
    const Deriv& d = derivs[pi];
    int id = static_cast<int>(code.nodes.size());
    code.nodes.emplace_back();
    code.nodes[id].parent = parent;
    if (d.kind == 0) {
      const auto& t = a.leaf_transitions()[d.trans];
      code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
    } else if (d.kind == 1) {
      const auto& t = a.unary_transitions()[d.trans];
      code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
      int c = build(d.child1, id);
      code.nodes[id].children.push_back(c);
      code.nodes[id].edge_labels.push_back(t.edge);
    } else {
      const auto& t = a.binary_transitions()[d.trans];
      code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
      int c1 = build(d.child1, id);
      code.nodes[id].children.push_back(c1);
      code.nodes[id].edge_labels.push_back(t.edge1);
      int c2 = build(d.child2, id);
      code.nodes[id].children.push_back(c2);
      code.nodes[id].edge_labels.push_back(t.edge2);
    }
    return id;
  };
  build(bad, -1);
  result.witness = std::move(code);
  return result;
}

Nta Trim(const Nta& a) {
  std::vector<bool> in = Inhabited(a);
  std::vector<bool> useful(a.num_states(), false);
  for (State q : a.finals()) {
    if (in[q]) useful[q] = true;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& t : a.unary_transitions()) {
      if (useful[t.to] && in[t.child] && !useful[t.child]) {
        useful[t.child] = true;
        changed = true;
      }
    }
    for (const auto& t : a.binary_transitions()) {
      if (useful[t.to] && in[t.child1] && in[t.child2]) {
        if (!useful[t.child1]) {
          useful[t.child1] = true;
          changed = true;
        }
        if (!useful[t.child2]) {
          useful[t.child2] = true;
          changed = true;
        }
      }
    }
  }
  std::vector<State> remap(a.num_states(), kNoElem);
  Nta out(a.width());
  for (State q = 0; q < a.num_states(); ++q) {
    if (in[q] && useful[q]) remap[q] = out.AddState();
  }
  for (State q : a.finals()) {
    if (remap[q] != kNoElem) out.AddFinal(remap[q]);
  }
  auto live = [&](State q) { return remap[q] != kNoElem; };
  for (const auto& t : a.leaf_transitions()) {
    if (live(t.to)) out.AddLeaf(t.label, remap[t.to]);
  }
  for (const auto& t : a.unary_transitions()) {
    if (live(t.to) && live(t.child)) {
      out.AddUnary(t.label, t.edge, remap[t.child], remap[t.to]);
    }
  }
  for (const auto& t : a.binary_transitions()) {
    if (live(t.to) && live(t.child1) && live(t.child2)) {
      out.AddBinary(t.label, t.edge1, t.edge2, remap[t.child1],
                    remap[t.child2], remap[t.to]);
    }
  }
  return out;
}

}  // namespace mondet
