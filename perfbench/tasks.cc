#include "tasks.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>

#include "datalog/fragment.h"
#include "reductions/thm6.h"
#include "reductions/thm7.h"
#include "reductions/tiling.h"
#include "testing/generator.h"

namespace perfbench {
namespace {

using mondet::DatalogQuery;
using mondet::Instance;
using mondet::PredId;
using mondet::Program;
using mondet::QAtom;
using mondet::Rule;
using mondet::ViewSet;
using mondet::Vocabulary;
using mondet::testing::GenProfile;

// Evaluate-workload instance sizes, in facts. The eval.small / eval.large
// boundary (kLargeEvalFacts, workloads.h) sits at their geometric middle.
constexpr double kMinFacts = 1e2;
constexpr double kMaxFacts = 1e4;

// ---------------------------------------------------------------------------
// Rendering into the .task syntax. Predicate names the parser would reject
// (ViewSet renames view IDBs to "View.P") are made identifier-safe.

std::string Ident(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') c = '_';
  }
  return out;
}

void AppendAtom(std::ostringstream& os, const Vocabulary& vocab,
                const QAtom& atom) {
  os << Ident(vocab.name(atom.pred)) << "(";
  for (size_t i = 0; i < atom.args.size(); ++i) {
    os << (i ? "," : "") << "x" << atom.args[i];
  }
  os << ")";
}

std::string RenderRules(const Program& program) {
  std::ostringstream os;
  for (const Rule& r : program.rules()) {
    AppendAtom(os, *program.vocab(), r.head);
    os << " :- ";
    for (size_t i = 0; i < r.body.size(); ++i) {
      if (i) os << ", ";
      AppendAtom(os, *program.vocab(), r.body[i]);
    }
    os << ".\n";
  }
  return os.str();
}

std::string RenderQuery(const Program& program, PredId goal) {
  return ".query " + Ident(program.vocab()->name(goal)) + "\n" +
         RenderRules(program) + "\n";
}

std::string RenderViews(const ViewSet& views) {
  std::string out;
  for (const mondet::View& v : views.views()) {
    out += ".view " + Ident(views.vocab()->name(v.pred)) + "\n" +
           RenderRules(v.definition.program) + "\n";
  }
  return out;
}

/// Facts of `inst`, element e rendered as <prefix>e<e>, eight per line.
void AppendFacts(std::string* out, const Instance& inst,
                 const std::string& prefix) {
  size_t n = 0;
  for (const mondet::Fact& f : inst.AllFacts()) {
    *out += Ident(inst.vocab()->name(f.pred)) + "(";
    for (size_t i = 0; i < f.args.size(); ++i) {
      *out += (i ? "," : "") + prefix + "e" + std::to_string(f.args[i]);
    }
    *out += ++n % 8 == 0 ? ").\n" : "). ";
  }
  *out += "\n";
}

// ---------------------------------------------------------------------------
// Generated (query, views) pairs for the Table 2 cells, over the
// QueryProfile schema (EDBs E1/1, E2/2; IDBs I1/1, I2/2; goal G0/0).

struct Schema {
  GenProfile base = mondet::testing::QueryProfile();
  PredId e1, e2, i1, i2;
  Schema() {
    e1 = *base.vocab->FindPredicate("E1");
    e2 = *base.vocab->FindPredicate("E2");
    i1 = *base.vocab->FindPredicate("I1");
    i2 = *base.vocab->FindPredicate("I2");
  }
};

GenProfile Shape(const Schema& s, std::vector<PredId> body,
                 std::vector<PredId> heads, int max_vars, int min_atoms,
                 int max_atoms) {
  GenProfile p = s.base;
  p.body_preds = std::move(body);
  p.head_preds = std::move(heads);
  p.min_vars = 2;
  p.max_vars = max_vars;
  p.min_atoms = min_atoms;
  p.max_atoms = max_atoms;
  return p;
}

int Uniform(std::mt19937& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

Program Rules(const GenProfile& p, std::mt19937& rng, int count,
              bool goal_head) {
  Program program(p.vocab);
  for (int i = 0; i < count; ++i) {
    program.AddRule(mondet::testing::RandomRule(p, rng, goal_head));
  }
  return program;
}

/// Rejection-samples until `accept` holds (bounded; the last draw is kept
/// if none is accepted, so generation always terminates).
template <typename Draw, typename Accept>
Program DrawUntil(std::mt19937& rng, Draw draw, Accept accept) {
  Program program = draw(rng);
  for (int tries = 0; tries < 200 && !accept(program); ++tries) {
    program = draw(rng);
  }
  return program;
}

/// True when no atom of the program repeats a variable.
bool DistinctArgs(const Program& program) {
  for (const Rule& r : program.rules()) {
    for (const QAtom& a : r.body) {
      std::vector<mondet::VarId> args = a.args;
      std::sort(args.begin(), args.end());
      if (std::adjacent_find(args.begin(), args.end()) != args.end()) {
        return false;
      }
    }
  }
  return true;
}

/// True when every rule body is connected through shared variables. A
/// disconnected Boolean CQ is a cross product: over the Skolem-extended
/// view image of DatalogHoldsOn(rewriting) a three-atom one costs ~70 ms
/// where a connected one costs µs, and such draws alone decided how fast
/// a whole pass of decide tasks ran.
bool ConnectedBodies(const Program& program) {
  for (const Rule& r : program.rules()) {
    std::vector<size_t> comp(r.num_vars());
    for (size_t v = 0; v < comp.size(); ++v) comp[v] = v;
    auto find = [&](size_t v) {
      while (comp[v] != v) v = comp[v] = comp[comp[v]];
      return v;
    };
    for (const QAtom& a : r.body) {
      for (mondet::VarId v : a.args) comp[find(v)] = find(a.args[0]);
    }
    std::vector<bool> seen(comp.size(), false);
    for (const QAtom& a : r.body) {
      for (mondet::VarId v : a.args) seen[v] = true;
    }
    size_t roots = 0;
    for (size_t v = 0; v < comp.size(); ++v) roots += seen[v] && find(v) == v;
    for (const QAtom& a : r.body) roots += a.args.empty();
    if (roots > 1) return false;
  }
  return true;
}

/// True when no rule body holds more than one IDB atom. Non-linear rules
/// (e.g. I1(x) :- I1(x), I1(y), I1(z)) grow the depth-4 approximations as
/// a tree; one such draw runs the canonical tests for 0.1-0.5 s, up to a
/// seventh of a whole pass of 7000 tasks, so the pass time hung on a
/// handful of draws.
bool LinearRecursion(const Program& program) {
  for (const Rule& r : program.rules()) {
    if (std::count_if(r.body.begin(), r.body.end(), [&](const QAtom& a) {
          return program.IsIdb(a.pred);
        }) > 1) {
      return false;
    }
  }
  return true;
}

Program CqQuery(const Schema& s, std::mt19937& rng) {
  return DrawUntil(
      rng,
      [&](std::mt19937& r) {
        return Rules(Shape(s, {s.e1, s.e2}, {}, 4, 2, 4), r, 1, true);
      },
      ConnectedBodies);
}

Program UcqQuery(const Schema& s, std::mt19937& rng) {
  return DrawUntil(
      rng,
      [&](std::mt19937& r) {
        return Rules(Shape(s, {s.e1, s.e2}, {}, 4, 1, 3), r, Uniform(r, 2, 3),
                     true);
      },
      ConnectedBodies);
}

Program MdlQuery(const Schema& s, std::mt19937& rng) {
  return DrawUntil(
      rng,
      [&](std::mt19937& r) {
        Program program = Rules(Shape(s, {s.e1, s.e2, s.i1}, {s.i1}, 3, 1, 3),
                                r, Uniform(r, 2, 4), false);
        program.AddRules(
            Rules(Shape(s, {s.e1, s.e2, s.i1}, {}, 3, 1, 2), r, 1, true));
        return program;
      },
      LinearRecursion);
}

/// A connected CQ query whose atoms repeat no variable: the Thm 5
/// automaton construction (core/forward.cc) requires
/// Q'' = Π_V ∪ {Goal'' ← V(Q)} to have IDB atoms with distinct arguments,
/// so V(Q) must have no repeats. It is also kept to at most three atoms:
/// the automaton grows doubly exponentially with the query, and a rare
/// five-atom draw costs tens of MB and milliseconds where the rest of the
/// cell costs kB and µs.
Program DistinctCqQuery(const Schema& s, std::mt19937& rng) {
  return DrawUntil(
      rng,
      [&](std::mt19937& r) {
        return Rules(Shape(s, {s.e1, s.e2}, {}, 4, 2, 3), r, 1, true);
      },
      [](const Program& p) { return DistinctArgs(p) && ConnectedBodies(p); });
}

Program FgdlQuery(const Schema& s, std::mt19937& rng) {
  return DrawUntil(
      rng,
      [&](std::mt19937& r) {
        Program program =
            Rules(Shape(s, {s.e1, s.e2, s.i1, s.i2}, {s.i1, s.i2}, 3, 1, 3), r,
                  Uniform(r, 1, 3), false);
        program.AddRules(
            Rules(Shape(s, {s.e1, s.e2, s.i1, s.i2}, {}, 3, 1, 2), r, 1, true));
        return program;
      },
      [](const Program& p) {
        return mondet::IsFrontierGuarded(p) && !mondet::IsMonadic(p) &&
               LinearRecursion(p);
      });
}

enum class ViewKind { kCq, kUcq, kMdl, kFg };

/// A view "V<index>" of the given kind; its head is the view predicate.
std::string RandomView(const Schema& s, std::mt19937& rng, int index,
                       ViewKind kind, bool unary = false) {
  int arity = kind == ViewKind::kMdl || unary ? 1 : Uniform(rng, 1, 2);
  std::string name = "V" + std::to_string(index);
  PredId head = s.base.vocab->AddPredicate(name, arity);
  Program program(s.base.vocab);
  switch (kind) {
    case ViewKind::kCq:
      program = Rules(Shape(s, {s.e1, s.e2}, {head}, 3, 1, 3), rng, 1, false);
      break;
    case ViewKind::kUcq:
      program = Rules(Shape(s, {s.e1, s.e2}, {head}, 3, 1, 2), rng, 2, false);
      break;
    case ViewKind::kMdl:
      program = Rules(Shape(s, {s.e1, s.e2, head}, {head}, 3, 1, 2), rng,
                      Uniform(rng, 2, 3), false);
      break;
    case ViewKind::kFg:
      program = DrawUntil(
          rng,
          [&](std::mt19937& r) {
            return Rules(Shape(s, {s.e1, s.e2, head}, {head}, 3, 1, 2), r,
                         Uniform(r, 1, 3), false);
          },
          [](const Program& p) { return mondet::IsFrontierGuarded(p); });
      break;
  }
  return ".view " + name + "\n" + RenderRules(program) + "\n";
}

/// One of the generator's three library view-set shapes (RandomViewSpecs).
std::string LibraryViews(const Schema& s, unsigned shape) {
  std::string out;
  for (const auto& spec : mondet::testing::RandomViewSpecs(s.base, shape)) {
    if (spec.atomic_base != mondet::kNoPred) {
      const std::string base = s.base.vocab->name(spec.atomic_base);
      std::string args = s.base.vocab->arity(spec.atomic_base) == 1
                             ? "x"
                             : "x,y";
      out += ".view " + spec.name + "\n" + spec.name + "(" + args +
             ") :- " + base + "(" + args + ").\n\n";
    } else {
      out += ".view " + spec.goal + "\n" + spec.text + "\n\n";
    }
  }
  return out;
}

Task GeneratedDecideTask(int cell, std::mt19937& rng) {
  static const char* const kCells[] = {"cq-cq",     "ucq-ucq",   "cq-datalog",
                                       "mdl-mdlcq", "fgdl-fgdl", "mdl-ucq"};
  Schema s;
  Program query(s.base.vocab);
  std::string views;
  int nviews = Uniform(rng, 1, 2);
  // Besides the cell's own random views, most tasks carry one of the
  // library's non-recursive view shapes (RandomViewSpecs: the lossless
  // atomic pair, or a projection plus an atomic view), so that the
  // verdict is not decided by the first canonical test alone.
  switch (cell) {
    case 0:  // CQ / CQ
      query = CqQuery(s, rng);
      for (int k = 1; k <= nviews; ++k) {
        views += RandomView(s, rng, k, ViewKind::kCq);
      }
      views += LibraryViews(s, rng() % 2);
      break;
    case 1:  // UCQ / UCQ
      query = UcqQuery(s, rng);
      for (int k = 1; k <= nviews; ++k) {
        views += RandomView(s, rng, k,
                            rng() % 2 ? ViewKind::kUcq : ViewKind::kCq);
      }
      views += LibraryViews(s, rng() % 2);
      break;
    case 2:  // CQ / Datalog (Thm 5). Unary or atomic views and a
             // repeat-free query keep V(Q) repeat-free (DistinctCqQuery),
             // as the Thm 5 automaton construction requires.
      query = DistinctCqQuery(s, rng);
      if (rng() % 2 == 0) {
        views = LibraryViews(s, 2);
      } else {
        views = RandomView(s, rng, 1, ViewKind::kMdl) +
                RandomView(s, rng, 2, ViewKind::kCq, /*unary=*/true);
      }
      break;
    case 3:  // MDL / MDL + CQ
      query = MdlQuery(s, rng);
      views = RandomView(s, rng, 1, ViewKind::kMdl) +
              LibraryViews(s, rng() % 2);
      break;
    case 4:  // FGDL / FGDL
      query = FgdlQuery(s, rng);
      for (int k = 1; k <= nviews; ++k) {
        views += RandomView(s, rng, k, ViewKind::kFg);
      }
      views += LibraryViews(s, rng() % 2);
      break;
    default:  // MDL / UCQ
      query = MdlQuery(s, rng);
      for (int k = 1; k <= nviews; ++k) {
        views += RandomView(s, rng, k, ViewKind::kUcq);
      }
      views += LibraryViews(s, rng() % 2);
      break;
  }
  Instance inst = mondet::testing::RandomInstance(s.base.vocab, {s.e1, s.e2},
                                                  16, 48, rng());
  Task task;
  task.family = kCells[cell];
  task.text = RenderQuery(query, s.base.goal) + views + ".instance\n";
  AppendFacts(&task.text, inst, "");
  return task;
}

// ---------------------------------------------------------------------------
// Gadget families whose verdict the paper (and the repo's tests) fix.

std::string PathAtoms(int length) {
  std::string out;
  for (int i = 0; i < length; ++i) {
    out += (i ? ", " : "") + std::string("R(x") + std::to_string(i) + ",x" +
           std::to_string(i + 1) + ")";
  }
  return out;
}

constexpr char kTwoStepView[] = ".view V\nV(x,z) :- R(x,y), R(y,z).\n\n";
constexpr char kReachViews[] =
    ".view VReach\nVReach(x) :- R(x,y), U(y).\n"
    "VReach(x) :- R(x,y), VReach(y).\n\n.view VR\nVR(x,y) :- R(x,y).\n\n";

Task ThmGadgetTask(const char* family, const DatalogQuery& query,
                   const ViewSet& views, Expect expect) {
  return {family, RenderQuery(query.program, query.goal) + RenderViews(views),
          expect};
}

Task GadgetTask(int kind, std::mt19937& rng) {
  const int n = Uniform(rng, 1, 3);
  switch (kind) {
    case 0:  // CQ/CQ: even paths are determined by the 2-step view.
      return {"gadget-path-even",
              ".query G\nG() :- " + PathAtoms(2 * n) + ".\n\n" + kTwoStepView,
              Expect::kDetermined};
    case 1:  // ... odd paths are not.
      return {"gadget-path-odd",
              ".query G\nG() :- " + PathAtoms(2 * n + 1) + ".\n\n" +
                  kTwoStepView,
              Expect::kNotDetermined};
    case 2:  // UCQ/UCQ: even path or an S-fact, over 2-steps and S.
      return {"gadget-ucq-path",
              ".query G\nG() :- " + PathAtoms(2 * n) + ".\nG() :- S(x).\n\n" +
                  kTwoStepView + ".view VS\nVS(x) :- S(x).\n\n",
              Expect::kDetermined};
    case 3:  // Thm 5: a path into U over reachability + edges.
      return {"gadget-thm5-reach",
              ".query G\nG() :- " + PathAtoms(n) + ", U(x" +
                  std::to_string(n) + ").\n\n" + kReachViews,
              Expect::kDetermined};
    case 4:  // Thm 5: a 2-hop path over "has an outgoing chain".
      return {"gadget-thm5-twohop",
              ".query G\nG() :- R(x,y), R(y,z).\n\n.view W\nW(x) :- R(x,y).\n"
              "W(x) :- R(x,y), W(y).\n\n",
              Expect::kNotDetermined};
    case 5:  // MDL / MDL+CQ: reachability over its own view.
      return {"gadget-mdl-reach",
              ".query Goal\nP(x) :- U(x).\nP(x) :- R(x,y), P(y).\n"
              "Goal() :- P(x).\n\n.view VP\nVP(x) :- U(x).\n"
              "VP(x) :- R(x,y), VP(y).\n\n.view VR\nVR(x,y) :- R(x,y).\n\n",
              Expect::kNotRefuted};
    case 6:  // FGDL / FGDL over the atomic view of its only EDB.
      return {"gadget-fgdl-conn",
              ".query Goal\nConn(x,y) :- S(x,y,z).\n"
              "Conn(x,y) :- S(x,y,z), Conn(x,z), Conn(z,y).\n"
              "Goal() :- Conn(x,x).\n\n.view VS\nVS(x,y,z) :- S(x,y,z).\n\n",
              Expect::kNotRefuted};
    case 7: {  // MDL / UCQ (Thm 6): refuted iff the tiling is solvable.
      mondet::Thm6Gadget g = mondet::BuildThm6(mondet::SolvableTilingProblem());
      return ThmGadgetTask("gadget-thm6-solvable", g.query, g.views,
                           Expect::kNotDetermined);
    }
    default: {
      mondet::Thm6Gadget g =
          mondet::BuildThm6(mondet::UnsolvableTilingProblem());
      return ThmGadgetTask("gadget-thm6-unsolvable", g.query, g.views,
                           Expect::kNotRefuted);
    }
  }
}
constexpr int kGadgetKinds = 9;

// ---------------------------------------------------------------------------
// Evaluate families. Every EDB gets an atomic view, so the views are
// lossless and the inverse-rules rewriting is the query over the view
// schema; the Fig 4 family instead uses its own CQ views.

std::string AtomicViews(const std::vector<std::pair<std::string, int>>& edbs) {
  std::string out;
  for (const auto& [pred, arity] : edbs) {
    std::string args = arity == 1 ? "x" : arity == 2 ? "x,y" : "x,y,z";
    out += ".view V" + pred + "\nV" + pred + "(" + args + ") :- " + pred +
           "(" + args + ").\n\n";
  }
  return out;
}

/// A random instance over `preds` with `elems` elements and `facts` draws,
/// rendered as an .instance section.
std::string RandomInstanceSection(const mondet::VocabularyPtr& vocab,
                                  const std::vector<PredId>& preds, int elems,
                                  int facts, unsigned seed) {
  std::string out = ".instance\n";
  AppendFacts(&out,
              mondet::testing::RandomInstance(vocab, preds, elems, facts, seed),
              "");
  return out;
}

/// Vocabulary with the given (name, arity) predicates, in order.
mondet::VocabularyPtr Preds(
    const std::vector<std::pair<std::string, int>>& preds,
    std::vector<PredId>* ids) {
  auto vocab = mondet::MakeVocabulary();
  for (const auto& [name, arity] : preds) {
    ids->push_back(vocab->AddPredicate(name, arity));
  }
  return vocab;
}

/// An instance predicate pool with `edge_weight` copies of the binary edge
/// relation and one of each unary predicate.
std::vector<PredId> Weighted(PredId edge, const std::vector<PredId>& unary,
                             int edge_weight) {
  std::vector<PredId> pool(edge_weight, edge);
  pool.insert(pool.end(), unary.begin(), unary.end());
  return pool;
}

Task EvaluateTask(int family, int facts, std::mt19937& rng) {
  const unsigned seed = rng();
  switch (family) {
    case 0: {  // Monadic reachability into U from an S-marked node.
      std::vector<PredId> ids;
      auto vocab = Preds({{"E", 2}, {"U", 1}, {"S", 1}}, &ids);
      return {"reach",
              ".query Goal\nReach(x) :- U(x).\nReach(x) :- E(x,y), Reach(y).\n"
              "Goal() :- S(x), Reach(x).\n\n" +
                  AtomicViews({{"E", 2}, {"U", 1}, {"S", 1}}) +
                  RandomInstanceSection(vocab,
                                        Weighted(ids[0], {ids[1], ids[2]}, 18),
                                        facts, facts, seed)};
    }
    case 1: {  // Transitive closure, goal = a cycle.
      std::vector<PredId> ids;
      auto vocab = Preds({{"E", 2}}, &ids);
      return {"tc",
              ".query Goal\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n"
              "Goal() :- T(x,x).\n\n" +
                  AtomicViews({{"E", 2}}) +
                  RandomInstanceSection(vocab, ids, facts * 2, facts, seed)};
    }
    case 2: {  // Same generation joined with transitive closure.
      std::vector<PredId> ids;
      auto vocab = Preds({{"E", 2}, {"U", 1}}, &ids);
      return {"sg-tc",
              ".query Goal\nSG(x,y) :- E(p,x), E(p,y).\n"
              "SG(x,y) :- E(p,x), SG(p,q), E(q,y).\n"
              "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n"
              "Goal() :- SG(x,y), T(x,y), U(y).\n\n" +
                  AtomicViews({{"E", 2}, {"U", 1}}) +
                  RandomInstanceSection(vocab, Weighted(ids[0], {ids[1]}, 9),
                                        facts * 2, facts, seed)};
    }
    case 3: {  // PlanProfile random program over E1/E2/E3.
      // Draws with a cross product in some rule body are redrawn: on
      // 1e4-fact instances one such rule alone derives ~1e7 facts.
      GenProfile p = mondet::testing::PlanProfile();
      Program program = mondet::testing::RandomGoalProgram(p, seed);
      for (int tries = 0; tries < 200 && !ConnectedBodies(program); ++tries) {
        program = mondet::testing::RandomGoalProgram(p, rng());
      }
      const int elems = std::max(8, facts / 2);
      return {"plan", RenderQuery(program, p.goal) +
                          AtomicViews({{"E1", 1}, {"E2", 2}, {"E3", 3}}) +
                          RandomInstanceSection(p.vocab, p.base_preds, elems,
                                                facts, seed)};
    }
    default: {  // Fig 4: diamond chains under the Thm 7 CQ views.
      mondet::Thm7Gadget g = mondet::BuildThm7();
      std::string text = RenderQuery(g.query.program, g.query.goal) +
                         RenderViews(g.views) + ".instance\n";
      // Chains of 1..32 diamonds (4 facts each) until the size is reached;
      // each chain's ends are marked with probability 1/4.
      int chain = 0;
      for (int left = facts; left > 0; ++chain) {
        int diamonds = std::min(Uniform(rng, 1, 32), std::max(1, left / 4));
        Instance inst = g.DiamondChain(diamonds, rng() % 4 == 0);
        AppendFacts(&text, inst, "c" + std::to_string(chain) + "_");
        left -= static_cast<int>(inst.num_facts());
      }
      return {"fig4-rows", text};
    }
  }
}
constexpr int kEvaluateFamilies = kEvaluateRound;

}  // namespace

std::vector<Task> DecideTasks(unsigned seed, Size size) {
  // Each round: the six generated cells, then one gadget (cycling through
  // the nine kinds), so every pool covers every cell evenly.
  const int rounds = size == Size::kTiny ? kGadgetKinds : 1000;
  std::mt19937 rng(seed);
  std::vector<Task> tasks;
  for (int r = 0; r < rounds; ++r) {
    for (int cell = 0; cell + 1 < static_cast<int>(kDecideRound); ++cell) {
      tasks.push_back(GeneratedDecideTask(cell, rng));
    }
    tasks.push_back(GadgetTask((r + static_cast<int>(seed)) % kGadgetKinds,
                               rng));
  }
  return tasks;
}

std::vector<Task> EvaluateTasks(unsigned seed, Size size) {
  // Log-sizes follow a golden-ratio sequence from a random start, jittered
  // within their slot: every run of consecutive rounds, not only the
  // whole pool, spans the size range evenly.
  const int rounds = size == Size::kTiny ? 2 : 200;
  const double max_facts = size == Size::kTiny ? 3e2 : kMaxFacts;
  constexpr double kGolden = 0.6180339887498949;
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> start(kEvaluateFamilies);
  for (double& s : start) s = unit(rng);
  std::vector<Task> tasks;
  for (int j = 0; j < rounds; ++j) {
    for (int f = 0; f < kEvaluateFamilies; ++f) {
      double u = std::fmod(start[f] + j * kGolden + 0.05 * unit(rng), 1.0);
      int facts = static_cast<int>(
          std::lround(kMinFacts * std::pow(max_facts / kMinFacts, u)));
      tasks.push_back(EvaluateTask(f, facts, rng));
    }
  }
  return tasks;
}

static Task StreamTask(unsigned seed, Size size) {
  // A sparse graph (out-degree ~0.6 in E2) keeps the transitive closure
  // near linear in the graph; the schedule's net inserts densify it as it
  // runs. Much denser bases make single batches cost seconds (DRed over a
  // giant component) and the closure hundreds of MB.
  const int edges = size == Size::kTiny ? 60 : 3000;
  const int steps = size == Size::kTiny ? 40 : 1000;
  GenProfile p = mondet::testing::QueryProfile();
  const PredId e1 = *p.vocab->FindPredicate("E1");
  const PredId e2 = *p.vocab->FindPredicate("E2");
  p.elems = edges * 8 / 5;
  std::mt19937 rng(seed);
  Program query = mondet::testing::RandomGoalProgram(p, rng());
  Instance base = mondet::testing::RandomInstance(
      p.vocab, {e2, e2, e2, e1}, p.elems, edges * 4 / 3, rng());
  std::vector<mondet::testing::RawBatch> schedule =
      mondet::testing::RandomSchedule(p, {e1, e2}, base, steps, rng);

  Task task;
  task.family = "stream";
  task.text = RenderQuery(query, p.goal) +
              AtomicViews({{"E1", 1}, {"E2", 2}}) +
              ".view VT\nVT(x,y) :- E2(x,y).\nVT(x,z) :- VT(x,y), E2(y,z).\n\n"
              ".instance\n";
  AppendFacts(&task.text, base, "");
  task.text += ".stream\n";
  auto render = [&](const std::vector<mondet::Fact>& facts, char sign) {
    for (const mondet::Fact& f : facts) {
      task.text += sign + p.vocab->name(f.pred) + "(";
      for (size_t i = 0; i < f.args.size(); ++i) {
        task.text += (i ? ",e" : "e") + std::to_string(f.args[i]);
      }
      task.text += "). ";
    }
  };
  for (const auto& batch : schedule) {
    if (batch.inserts.empty() && batch.deletes.empty()) continue;
    render(batch.inserts, '+');
    render(batch.deletes, '-');
    task.text += "\n";
  }
  return task;
}

std::vector<Task> StreamTasks(unsigned seed, Size size) {
  const int graphs = size == Size::kTiny ? 2 : 12;
  std::mt19937 rng(seed);
  std::vector<Task> tasks;
  for (int g = 0; g < graphs; ++g) tasks.push_back(StreamTask(rng(), size));
  return tasks;
}

}  // namespace perfbench
