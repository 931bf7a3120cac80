#include "testing/oracle.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/dataflow.h"
#include "automata/ops.h"
#include "base/homomorphism.h"
#include "base/stats.h"
#include "core/mondet_check.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "reductions/thm9.h"
#include "reductions/tiling.h"
#include "testing/corpus.h"
#include "testing/reference.h"
#include "testing/tm.h"

namespace mondet {
namespace testing {

namespace {

OracleOutcome Fail(const FuzzCase& c, const std::string& detail) {
  return {false, detail + "\n--- case ---\n" + DescribeCase(c)};
}

OracleOutcome Pass() { return {true, ""}; }

// --- Shared comparison helpers (gtest-free ports of the test idioms). ----

/// Same fact *set*: `got` holds exactly the facts of `want`.
std::optional<std::string> DiffSets(const Instance& want, const Instance& got,
                                    const std::string& tag) {
  if (want.num_facts() != got.num_facts()) {
    return tag + ": fact counts differ (" + std::to_string(want.num_facts()) +
           " vs " + std::to_string(got.num_facts()) + ")";
  }
  for (const Fact& f : want.AllFacts()) {
    if (!got.HasFact(f)) {
      return tag + ": missing fact " + FactToString(want, f);
    }
  }
  return std::nullopt;
}

/// Same fact *sequence*: byte-identical insertion order.
std::optional<std::string> DiffSequences(const Instance& a, const Instance& b,
                                         const std::string& tag) {
  if (a.num_facts() != b.num_facts()) {
    return tag + ": fact counts differ (" + std::to_string(a.num_facts()) +
           " vs " + std::to_string(b.num_facts()) + ")";
  }
  for (uint32_t i = 0; i < a.num_facts(); ++i) {
    const FactView fa = a.ViewAt(i);
    const FactView fb = b.ViewAt(i);
    if (!(fa == fb)) {
      return tag + ": fact " + std::to_string(i) + " differs (" +
             FactToString(a, fa) + " vs " + FactToString(b, fb) + ")";
    }
  }
  return std::nullopt;
}

/// Same run counters, stratum by stratum, including the executed seats
/// (plan_stats); wall times are not compared.
std::optional<std::string> DiffEvalStats(const EvalStats& a,
                                         const EvalStats& b,
                                         const std::string& tag) {
  if (a.iterations != b.iterations || a.facts_derived != b.facts_derived ||
      a.join_probes != b.join_probes || a.strata.size() != b.strata.size()) {
    return tag + ": run counters differ (" + a.Summary() + " vs " +
           b.Summary() + ")";
  }
  for (size_t i = 0; i < a.strata.size(); ++i) {
    const StratumStats& x = a.strata[i];
    const StratumStats& y = b.strata[i];
    bool same = x.iterations == y.iterations &&
                x.facts_derived == y.facts_derived &&
                x.join_probes == y.join_probes &&
                x.seats.size() == y.seats.size();
    for (size_t k = 0; same && k < x.seats.size(); ++k) {
      const JoinSeatStats& u = x.seats[k];
      const JoinSeatStats& v = y.seats[k];
      same = u.rule == v.rule && u.delta_atom == v.delta_atom &&
             u.order == v.order && u.est_rows == v.est_rows &&
             u.actual_rows == v.actual_rows && u.seedings == v.seedings;
    }
    if (!same) return tag + ": stratum " + std::to_string(i) + " differs";
  }
  return std::nullopt;
}

// --- eval-differential ------------------------------------------------------
// Port of tests/eval_differential_test.cc: naive reference vs semi-naive
// at 1 and 4 threads — same set vs the oracle, same *sequence* and stats
// across thread counts — plus the move path: an input handed over as an
// rvalue evaluates exactly like a copied one, and so does one refilled
// into a cleared buffer that held a larger fixpoint.

class EvalOracle : public Oracle {
 public:
  std::string name() const override { return "eval-differential"; }
  GenProfile Profile() const override { return EvalProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = EvalProfile();
    c.program = RandomProgram(c.profile, 7000 + seed);
    c.instance =
        RandomInstance(c.profile.vocab, SeededPreds(c.profile, seed),
                       c.profile.elems, c.profile.facts, 9000 + seed);
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    const Program& program = *c.program;
    const Instance& inst = *c.instance;

    Instance naive = NaiveFpEval(program, inst);
    EvalStats stats1, stats4;
    Instance semi1 = FpEval(program, inst, &stats1, EvalOptions{1});
    Instance semi4 = FpEval(program, inst, &stats4, EvalOptions{4});

    if (auto d = DiffSets(naive, semi1, "naive vs 1T")) return Fail(c, *d);
    if (auto d = DiffSequences(semi1, semi4, "1T vs 4T")) return Fail(c, *d);
    if (stats1.facts_derived != stats4.facts_derived) {
      return Fail(c, "facts_derived differs across thread counts");
    }
    if (stats1.iterations != stats4.iterations) {
      return Fail(c, "iterations differs across thread counts");
    }

    // Move vs copy: an input handed over evaluates exactly like a copied
    // one, executed seats (plan_stats) included.
    CompiledProgram compiled(program);
    const size_t n = inst.num_facts();
    for (int threads : {1, 4}) {
      const std::string tag = "copy vs move " + std::to_string(threads) + "T";
      EvalOptions o;
      o.num_threads = threads;
      o.plan_stats = true;
      EvalStats s_copy, s_move;
      Instance by_copy = compiled.Eval(inst, &s_copy, o);
      Instance by_move = compiled.Eval(Instance(inst), &s_move, o);
      if (auto d = DiffSequences(by_copy, by_move, tag)) return Fail(c, *d);
      if (auto d = DiffEvalStats(s_copy, s_move, tag)) return Fail(c, *d);

      // Recycled buffer, the canonical-test loops' pattern: a larger
      // fixpoint (the input twice over, disjointly) is cleared, refilled
      // with the input and evaluated again; its retained storage must not
      // show in the facts, their order or the counters.
      const std::string rtag =
          "fresh vs recycled " + std::to_string(threads) + "T";
      Instance twice(inst);
      twice.DisjointUnionWith(inst);
      Instance buffer = compiled.Eval(std::move(twice), nullptr, o);
      buffer.Clear();
      buffer.EnsureElements(inst.num_elements());
      for (uint32_t g = 0; g < n; ++g) {
        const FactView f = inst.ViewAt(g);
        buffer.AddFact(f.pred, f.args);
      }
      EvalStats s_recycled;
      buffer = compiled.Eval(std::move(buffer), &s_recycled, o);
      if (auto d = DiffSequences(by_move, buffer, rtag)) return Fail(c, *d);
      if (auto d = DiffEvalStats(s_move, s_recycled, rtag)) {
        return Fail(c, *d);
      }
    }
    return Pass();
  }
};

// --- plan-differential ------------------------------------------------------
// Port of tests/plan_differential_test.cc: the orders BindStats plans
// from the input's statistics agree with the naive oracle, are
// deterministic across threads, give the fact set of the compile-time
// orders, and never execute a cross product on a connected join graph.

/// True when the rule's join graph — body atoms as nodes, edges between
/// atoms sharing a variable — has a single component (nullary excluded).
bool ConnectedJoinGraph(const Rule& rule) {
  std::vector<int> nodes;
  for (int i = 0; i < static_cast<int>(rule.body.size()); ++i) {
    if (!rule.body[i].args.empty()) nodes.push_back(i);
  }
  if (nodes.size() <= 1) return true;
  std::vector<bool> seen(rule.body.size(), false);
  std::vector<int> stack = {nodes[0]};
  seen[nodes[0]] = true;
  size_t reached = 1;
  auto shares = [&](int a, int b) {
    for (VarId va : rule.body[a].args) {
      for (VarId vb : rule.body[b].args) {
        if (va == vb) return true;
      }
    }
    return false;
  };
  while (!stack.empty()) {
    int cur = stack.back();
    stack.pop_back();
    for (int nxt : nodes) {
      if (!seen[nxt] && shares(cur, nxt)) {
        seen[nxt] = true;
        ++reached;
        stack.push_back(nxt);
      }
    }
  }
  return reached == nodes.size();
}

/// Replays one executed seat order; returns a message if any step joins
/// an atom with no bound variable while something is already bound (=
/// cross product). Nullary atoms are filters and exempt.
std::optional<std::string> CrossProductError(const Rule& rule,
                                             const JoinSeatStats& seat) {
  std::vector<bool> bound(rule.num_vars(), false);
  bool anything_bound = false;
  if (seat.delta_atom >= 0) {
    for (VarId v : rule.body[seat.delta_atom].args) bound[v] = true;
    anything_bound = !rule.body[seat.delta_atom].args.empty();
  }
  for (size_t k = 0; k < seat.order.size(); ++k) {
    const QAtom& atom = rule.body[seat.order[k]];
    bool shares = false;
    for (VarId v : atom.args) {
      if (bound[v]) shares = true;
    }
    if (anything_bound && !shares && !atom.args.empty()) {
      return "cross product at step " + std::to_string(k) + " of rule " +
             std::to_string(seat.rule) + " (delta_atom " +
             std::to_string(seat.delta_atom) + ")";
    }
    for (VarId v : atom.args) bound[v] = true;
    if (!atom.args.empty()) anything_bound = true;
  }
  return std::nullopt;
}

class PlanOracle : public Oracle {
 public:
  std::string name() const override { return "plan-differential"; }
  GenProfile Profile() const override { return PlanProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = PlanProfile();
    c.program = RandomProgram(c.profile, 17000 + seed);
    c.instance =
        RandomInstance(c.profile.vocab, SeededPreds(c.profile, seed),
                       c.profile.elems, c.profile.facts, 19000 + seed);
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    const Program& program = *c.program;
    const Instance& inst = *c.instance;
    CompiledProgram compiled(program);
    CompiledProgram bound(program);
    bound.BindStats(Stats::Collect(inst));
    Instance naive = NaiveFpEval(program, inst);

    // 1. Stats-driven (the orders BindStats planned from the input) vs
    // the naive oracle.
    EvalOptions opt1;
    opt1.num_threads = 1;
    opt1.plan_stats = true;
    EvalStats stats1;
    Instance semi1 = bound.Eval(inst, &stats1, opt1);
    if (auto d = DiffSets(naive, semi1, "naive vs stats-driven 1T")) {
      return Fail(c, *d);
    }

    // 2. Thread-count determinism: identical fact sequences.
    EvalOptions opt4 = opt1;
    opt4.num_threads = 4;
    Instance semi4 = bound.Eval(inst, nullptr, opt4);
    if (auto d = DiffSequences(semi1, semi4, "1T vs 4T")) return Fail(c, *d);

    // 3. No snapshot (compile-time EDB-first orders): same fact set.
    Instance plain = compiled.Eval(inst, nullptr, EvalOptions{1});
    if (auto d = DiffSets(naive, plain, "naive vs compile-time orders")) {
      return Fail(c, *d);
    }

    // 4. Executed-seat sanity + no cross products on connected graphs.
    bool saw_seat = false;
    for (const StratumStats& ss : stats1.strata) {
      for (const JoinSeatStats& seat : ss.seats) {
        saw_seat = true;
        const Rule& rule = program.rules()[seat.rule];
        const size_t expect =
            rule.body.size() - (seat.delta_atom >= 0 ? 1 : 0);
        if (seat.order.size() != expect) {
          return Fail(c, "seat order length " +
                             std::to_string(seat.order.size()) + " != " +
                             std::to_string(expect) + " for rule " +
                             std::to_string(seat.rule));
        }
        if (seat.est_rows.size() != seat.order.size() ||
            seat.actual_rows.size() != seat.order.size()) {
          return Fail(c, "seat estimate/measurement sizes mismatch order");
        }
        if (ConnectedJoinGraph(rule)) {
          if (auto d = CrossProductError(rule, seat)) return Fail(c, *d);
        }
      }
    }
    if (!program.rules().empty() && !saw_seat) {
      return Fail(c, "plan_stats produced no seat observations");
    }
    return Pass();
  }
};

// --- maintenance-differential -----------------------------------------------
// Port of tests/maintenance_differential_test.cc: the maintained
// materialization equals a from-scratch Materialize (at 1 and 0=env
// threads) after every prefix of the raw insert/delete schedule.

/// The bit-identical contract: same elements, same fact set, same
/// derivation count per fact.
std::optional<std::string> DiffMaterializations(const Instance& got,
                                                const Instance& want,
                                                const std::string& tag) {
  if (got.num_elements() != want.num_elements()) {
    return tag + ": element counts differ";
  }
  if (got.num_facts() != want.num_facts()) {
    return tag + ": fact counts differ (" +
           std::to_string(got.num_facts()) + " vs " +
           std::to_string(want.num_facts()) + ")";
  }
  std::vector<Fact> gf = got.AllFacts(), wf = want.AllFacts();
  std::sort(gf.begin(), gf.end());
  std::sort(wf.begin(), wf.end());
  for (size_t i = 0; i < gf.size(); ++i) {
    if (!(gf[i] == wf[i])) {
      return tag + ": sorted fact " + std::to_string(i) + " differs";
    }
    if (got.FactCount(gf[i]) != want.FactCount(wf[i])) {
      return tag + ": derivation count of " + FactToString(want, wf[i]) +
             " differs (" + std::to_string(got.FactCount(gf[i])) +
             " vs " + std::to_string(want.FactCount(wf[i])) + ")";
    }
  }
  return std::nullopt;
}

class MaintenanceOracle : public Oracle {
 public:
  std::string name() const override { return "maintenance-differential"; }
  GenProfile Profile() const override { return EvalProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = EvalProfile();
    c.program = RandomProgram(c.profile, 11000 + seed);
    std::mt19937 rng(12000 + seed);
    std::vector<PredId> churn = SeededPreds(c.profile, seed);
    // The historical oracle used a slightly smaller base (8 facts) than
    // the eval family so deletions bite.
    c.instance = RandomInstance(c.profile.vocab, churn, c.profile.elems, 8,
                                13000 + seed);
    const int steps = 4 + seed % 4;
    c.schedule = RandomSchedule(c.profile, churn, *c.instance, steps, rng);
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    const Program& program = *c.program;
    CompiledProgram compiled(program);
    Instance base = *c.instance;  // evolves under the schedule

    const EvalOptions opt1{1};
    // The second recompute runs at MONDET_THREADS when set (the ASan arm
    // of scripts/tier1.sh sweeps 1 and 4), else hardware concurrency.
    const EvalOptions opt4{0};

    Instance m = compiled.Materialize(base, nullptr, opt1);
    if (auto d = DiffMaterializations(
            m, compiled.Materialize(base, nullptr, opt4),
            "t0 1T vs envT")) {
      return Fail(c, *d);
    }

    for (size_t step = 0; step < c.schedule.size(); ++step) {
      RawBatch applied = NormalizeAndApply(c.schedule[step], base);
      FactDelta delta;
      delta.inserts = applied.inserts;
      delta.deletes = applied.deletes;
      compiled.Maintain(m, base, delta);

      const std::string tag = "step " + std::to_string(step);
      if (auto d = DiffMaterializations(
              m, compiled.Materialize(base, nullptr, opt1),
              tag + " (vs 1T recompute)")) {
        return Fail(c, *d);
      }
      if (auto d = DiffMaterializations(
              m, compiled.Materialize(base, nullptr, opt4),
              tag + " (vs envT recompute)")) {
        return Fail(c, *d);
      }
    }
    return Pass();
  }
};

// --- dataflow-soundness -----------------------------------------------------
// Port of tests/dataflow_soundness_test.cc's three TEST_P properties (the
// deterministic cases stay in the test file). The instance-free arms are
// gated on the case's actual content — no seeded IDB facts — rather than
// the historical seed parity, so shrunk cases remain fully checkable.

class DataflowOracle : public Oracle {
 public:
  std::string name() const override { return "dataflow-soundness"; }
  GenProfile Profile() const override { return DataflowProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = DataflowProfile();
    c.program = RandomProgram(c.profile, 7000 + seed);
    c.instance =
        RandomInstance(c.profile.vocab, SeededPreds(c.profile, seed),
                       c.profile.elems, c.profile.facts, 9000 + seed);
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    const Program& program = *c.program;
    const Instance& inst = *c.instance;
    const VocabularyPtr& vocab = c.profile.vocab;
    Instance fix = NaiveFpEval(program, inst);

    // The instance-free analysis assumes IDB relations start empty, so
    // its soundness arms only apply to IDB-free inputs.
    bool idb_free = true;
    for (const Fact& f : inst.AllFacts()) {
      if (program.IsIdb(f.pred)) idb_free = false;
    }

    // 1. Concrete fixpoint within gamma(abstract fixpoint).
    EmptinessResult er = AnalyzeEmptiness(program, &inst);
    for (const Fact& f : fix.AllFacts()) {
      auto it = er.preds.find(f.pred);
      if (it == er.preds.end()) {
        return Fail(c, "no abstract value for " + vocab->name(f.pred));
      }
      const PredAbstract& pa = it->second;
      if (!pa.nonempty) {
        return Fail(c, "fact over " + vocab->name(f.pred) +
                           " but predicate abstractly empty");
      }
      if (pa.pos.size() != f.args.size()) {
        return Fail(c, "abstract arity mismatch for " + vocab->name(f.pred));
      }
      for (size_t j = 0; j < f.args.size(); ++j) {
        if (!pa.pos[j].Admits(f.args[j])) {
          return Fail(c, vocab->name(f.pred) + " position " +
                             std::to_string(j) +
                             " rejects a concrete value");
        }
      }
    }
    for (PredId p : er.empty_idbs) {
      if (fix.NumRows(p) > 0) {
        return Fail(c, vocab->name(p) + " flagged empty but holds a fact");
      }
    }
    EmptinessResult free_er = AnalyzeEmptiness(program, nullptr);
    if (idb_free) {
      for (PredId p : free_er.empty_idbs) {
        if (fix.NumRows(p) > 0) {
          return Fail(c, "instance-free emptiness unsound for " +
                             vocab->name(p));
        }
      }
    }

    // 2. Dead rules never fire; instance-free mask weaker than seeded.
    if (er.rule_dead.size() != program.rules().size() ||
        free_er.rule_dead.size() != program.rules().size()) {
      return Fail(c, "rule_dead size mismatch");
    }
    for (size_t ri = 0; ri < program.rules().size(); ++ri) {
      if (idb_free && free_er.rule_dead[ri] && !er.rule_dead[ri]) {
        return Fail(c, "rule " + std::to_string(ri) +
                           " dead without a seed but live with one");
      }
      if (er.rule_dead[ri]) {
        const Rule& rule = program.rules()[ri];
        Instance pattern(vocab);
        pattern.EnsureElements(rule.num_vars());
        for (const QAtom& a : rule.body) {
          pattern.AddFact(a.pred,
                          std::vector<ElemId>(a.args.begin(), a.args.end()));
        }
        if (HasHomomorphism(pattern, fix)) {
          return Fail(c, "dead rule " + std::to_string(ri) +
                             " has a body match in the fixpoint");
        }
        if (er.dead_reasons[ri].detail.empty()) {
          return Fail(c, "dead rule " + std::to_string(ri) +
                             " carries no reason");
        }
      }
    }

    // 3. Dropping subsumed rules / redundant atoms preserves the fixpoint.
    SubsumptionResult sr = AnalyzeSubsumption(program);
    if (sr.subsumed_by.size() != program.rules().size()) {
      return Fail(c, "subsumed_by size mismatch");
    }
    bool any_subsumed = false;
    Program reduced(vocab);
    for (size_t ri = 0; ri < program.rules().size(); ++ri) {
      if (sr.subsumed_by[ri] >= 0) {
        any_subsumed = true;
        if (sr.subsumed_by[ri] == static_cast<int>(ri) ||
            sr.subsumed_by[ri] >=
                static_cast<int>(program.rules().size())) {
          return Fail(c, "bad subsumer index for rule " + std::to_string(ri));
        }
        continue;
      }
      reduced.AddRule(program.rules()[ri]);
    }
    if (any_subsumed) {
      Instance fix2 = NaiveFpEval(reduced, inst);
      if (auto d = DiffSets(fix, fix2, "dropping subsumed rules")) {
        return Fail(c, *d);
      }
    }
    for (size_t ri = 0; ri < program.rules().size(); ++ri) {
      for (int ai : sr.redundant_atoms[ri]) {
        Program without(vocab);
        for (size_t rj = 0; rj < program.rules().size(); ++rj) {
          Rule r = program.rules()[rj];
          if (rj == ri) r.body.erase(r.body.begin() + ai);
          without.AddRule(r);
        }
        Instance fix2 = NaiveFpEval(without, inst);
        if (auto d = DiffSets(fix, fix2,
                              "dropping redundant atom " +
                                  std::to_string(ai) + " of rule " +
                                  std::to_string(ri))) {
          return Fail(c, *d);
        }
      }
    }
    return Pass();
  }
};

// --- mondet-parallel --------------------------------------------------------
// Port of tests/mondet_parallel_test.cc: CheckMonotonicDeterminacy is
// bit-identical across thread counts.

std::optional<std::string> DiffMonDetInstances(const Instance& a,
                                               const Instance& b,
                                               const std::string& what) {
  if (a.num_elements() != b.num_elements()) {
    return what + ": element counts differ";
  }
  return DiffSequences(a, b, what);
}

std::optional<std::string> DiffMonDetResults(const MonDetResult& a,
                                             const MonDetResult& b,
                                             const std::string& what) {
  if (a.verdict != b.verdict) return what + ": verdicts differ";
  if (a.tests_run != b.tests_run) {
    return what + ": tests_run differ (" + std::to_string(a.tests_run) +
           " vs " + std::to_string(b.tests_run) + ")";
  }
  if (a.expansions_tried != b.expansions_tried) {
    return what + ": expansions_tried differ";
  }
  if (a.failure.has_value() != b.failure.has_value()) {
    return what + ": one run found a counterexample, the other did not";
  }
  if (a.failure) {
    if (auto d = DiffMonDetInstances(a.failure->approximation.inst,
                                     b.failure->approximation.inst,
                                     what + " approximation")) {
      return d;
    }
    if (a.failure->approximation.frontier !=
        b.failure->approximation.frontier) {
      return what + ": approximation frontiers differ";
    }
    if (auto d = DiffMonDetInstances(a.failure->dprime, b.failure->dprime,
                                     what + " dprime")) {
      return d;
    }
  }
  return std::nullopt;
}

class ParallelOracle : public Oracle {
 public:
  std::string name() const override { return "mondet-parallel"; }
  GenProfile Profile() const override { return QueryProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = QueryProfile();
    c.program = RandomGoalProgram(c.profile, 5000 + seed);
    c.views = RandomViewSpecs(c.profile, seed);
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    DatalogQuery query(*c.program, c.profile.goal);
    ViewSet views = BuildViews(c.profile.vocab, c.views);

    MonDetOptions base;
    base.query_depth = 3;
    base.view_depth = 3;
    base.max_query_expansions = 24;
    base.max_tests_per_expansion = 48;

    MonDetOptions t1 = base, t4 = base;
    t1.num_threads = 1;
    t4.num_threads = 4;

    MonDetResult r1 = CheckMonotonicDeterminacy(query, views, t1);
    MonDetResult r4 = CheckMonotonicDeterminacy(query, views, t4);
    if (auto d = DiffMonDetResults(r1, r4, "1T vs 4T")) return Fail(c, *d);
    return Pass();
  }
};

// --- tm-reduction -----------------------------------------------------------
// The executable undecidability frontier: a builtin machine's bounded run
// is compiled through the tiling reduction (testing/tm.h); the extracted
// certificate must re-check, the backtracking solver must agree on the
// exact grid and refute the truncated grids, and the Thm 9 run-string
// gadget must accept both the faithful and a corrupted encoding of the
// same run. Machines that do not halt within the budget pass vacuously
// (the semi-decision boundary).

class TmOracle : public Oracle {
 public:
  std::string name() const override { return "tm-reduction"; }
  // TM cases carry no generated program; the profile is only the corpus
  // vocabulary anchor.
  GenProfile Profile() const override { return EvalProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = EvalProfile();
    const std::vector<std::string> names = BuiltinTmNames();
    TmCase tc;
    tc.machine = names[seed % names.size()];
    // Short all-ones inputs: the eraser is quadratic, so longer tapes
    // blow the grid up past what the backtracking solver refutes quickly.
    tc.input.assign(1 + (seed / names.size()) % 3, 1);
    tc.max_steps = 200;
    c.tm = tc;
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    if (!c.tm.has_value()) return Fail(c, "tm-reduction case without [tm]");
    const TmCase& tc = *c.tm;
    const std::vector<std::string> names = BuiltinTmNames();
    if (std::find(names.begin(), names.end(), tc.machine) == names.end()) {
      return Fail(c, "unknown machine " + tc.machine);
    }
    for (int sym : tc.input) {
      if (sym != 0 && sym != 1) return Fail(c, "input symbol out of range");
    }
    const TuringMachine tm = BuiltinTm(tc.machine);

    std::optional<TmTiling> tiling =
        CompileTmRun(tm, tc.input, tc.max_steps);
    if (!tiling.has_value()) return Pass();  // no halt, no verdict

    // (a) The certificate extracted from the trace re-checks directly.
    std::string why;
    if (!CheckTiling(tiling->tp, tiling->n, tiling->m, tiling->cert, &why)) {
      return Fail(c, "extracted certificate rejected: " + why);
    }
    // (b)/(c) use the exhaustive backtracking solver, whose refutation
    // arms must sweep the whole search space — exponential in grid area.
    // A 4x15 eraser grid (60 cells) exhausts in ~0.5s; 5x25 takes hours.
    // Gate the exhaustive arms on area so every machine/input still gets
    // the certificate re-check above and the Thm 9 arms below.
    const long area = static_cast<long>(tiling->n) * tiling->m;
    constexpr long kSolverAreaCap = 64;
    if (area <= kSolverAreaCap) {
      // (b) The solver solves the exact grid, and its witness re-checks.
      std::optional<std::vector<int>> sol =
          tiling->tp.Solve(tiling->n, tiling->m);
      if (!sol.has_value()) {
        return Fail(c, "solver found no tiling on the certified grid");
      }
      if (!CheckTiling(tiling->tp, tiling->n, tiling->m, *sol, &why)) {
        return Fail(c, "solver witness rejected: " + why);
      }
      // (c) Truncated grids are unsolvable: the construction pins the
      // run length, which is what makes the reduction faithful.
      if (tiling->m > 3 &&
          tiling->tp.Solve(tiling->n, tiling->m - 1).has_value()) {
        return Fail(c, "truncated grid unexpectedly solvable");
      }
    }
    // The height-2 refutation dies in the first rows; always cheap.
    if (tiling->tp.Solve(tiling->n, 2).has_value()) {
      return Fail(c, "height-2 grid unexpectedly solvable");
    }
    // (d) The Thm 9 run-string gadget accepts the faithful encoding (the
    // run reaches accept) and the corrupted one (local corruption fires).
    Thm9Gadget gadget = BuildThm9(tm);
    Instance run = gadget.EncodeRun(tc.input, tc.max_steps);
    if (!DatalogHoldsOn(gadget.query, run)) {
      return Fail(c, "Thm 9 query rejects the faithful run string");
    }
    Instance corrupted = gadget.EncodeCorruptedRun(tc.input, tc.max_steps);
    if (!DatalogHoldsOn(gadget.query, corrupted)) {
      return Fail(c, "Thm 9 query rejects the corrupted run string");
    }
    return Pass();
  }
};

// --- antichain-inclusion ----------------------------------------------------
// The lazy antichain inclusion check against every other way the library
// can decide the same question: the explicit Complement + product-
// emptiness route (both materialized and via LazyProductEmptiness), and
// a brute-force sweep of the enumerable code universe. The first two are
// exact over the shared universe, so their verdicts must be *equal*; the
// enumeration is a sound refuter only (a separating code can be larger
// than the enumerated depth), so it participates in the sound directions:
// enumerated separating code => not included, and every non-inclusion
// witness must itself be accepted by `a` and rejected by `b`.

class AntichainOracle : public Oracle {
 public:
  std::string name() const override { return "antichain-inclusion"; }
  // NTA cases carry no generated program; the profile is only the corpus
  // vocabulary anchor (as with tm-reduction).
  GenProfile Profile() const override { return EvalProfile(); }

  FuzzCase Generate(unsigned seed) const override {
    FuzzCase c;
    c.oracle = name();
    c.seed = seed;
    c.profile = EvalProfile();
    c.nta_a = RandomNta(31000 + seed);
    Nta b = RandomNta(33000 + seed);
    // Every third seed unions the left side into the right, so
    // guaranteed-included instances (no early exit, full exploration)
    // are as common as the random mostly-not-included ones.
    if (seed % 3 == 0) b = UnionNta(b, *c.nta_a);
    c.nta_b = std::move(b);
    return c;
  }

  OracleOutcome Check(const FuzzCase& c) const override {
    if (!c.nta_a.has_value() || !c.nta_b.has_value()) {
      return Fail(c, "antichain-inclusion case without [nta a]/[nta b]");
    }
    const Nta& a = *c.nta_a;
    const Nta& b = *c.nta_b;
    SymbolUniverse universe = SymbolsOf(a);
    universe.Merge(SymbolsOf(b));

    const NtaInclusionResult anti = NtaIncluded(a, b, universe);

    // Explicit route: complement, then product emptiness two ways.
    const Nta comp = Complement(b, universe);
    const bool explicit_included = IsEmpty(Product(a, comp));
    if (anti.included != explicit_included) {
      return Fail(c, std::string("antichain says ") +
                         (anti.included ? "included" : "not included") +
                         ", explicit Complement+Product disagrees");
    }
    const LazyProductResult lazy = LazyProductEmptiness(a, comp);
    if (lazy.empty != explicit_included) {
      return Fail(c, "LazyProductEmptiness disagrees with IsEmpty(Product)");
    }
    if (!lazy.empty) {
      if (!lazy.witness.has_value()) {
        return Fail(c, "nonempty lazy product without witness");
      }
      if (!lazy.witness->Validate() || !a.Accepts(*lazy.witness) ||
          !comp.Accepts(*lazy.witness)) {
        return Fail(c, "lazy product witness not accepted by both sides");
      }
    }

    // The antichain never materializes more macrostates than the
    // explicit determinization has states (every interned macrostate is
    // a reachable subset).
    const Nta det = Determinize(b, universe);
    if (anti.macrostates_visited > det.num_states()) {
      return Fail(c, "antichain interned more macrostates (" +
                         std::to_string(anti.macrostates_visited) +
                         ") than Determinize built (" +
                         std::to_string(det.num_states()) + ")");
    }

    // Witness contract.
    if (anti.included != !anti.witness.has_value()) {
      return Fail(c, "witness presence disagrees with the verdict");
    }
    if (anti.witness.has_value()) {
      if (!anti.witness->Validate() || anti.witness->width != a.width()) {
        return Fail(c, "malformed non-inclusion witness");
      }
      if (!a.Accepts(*anti.witness)) {
        return Fail(c, "non-inclusion witness rejected by a");
      }
      if (b.Accepts(*anti.witness)) {
        return Fail(c, "non-inclusion witness accepted by b");
      }
    }

    // Brute force over the enumerable universe (sound directions only).
    for (const TreeCode& code : NtaEnumerationCodes()) {
      if (a.Accepts(code) && !b.Accepts(code) && anti.included) {
        return Fail(c, "enumerated separating code but verdict is included");
      }
    }

    // Reflexivity sanity on both sides.
    if (!NtaIncluded(a, a, universe).included ||
        !NtaIncluded(b, b, universe).included) {
      return Fail(c, "an automaton is not included in itself");
    }
    return Pass();
  }
};

}  // namespace

const std::vector<const Oracle*>& AllOracles() {
  static const std::vector<const Oracle*>* all = [] {
    auto* v = new std::vector<const Oracle*>();
    v->push_back(new EvalOracle());
    v->push_back(new PlanOracle());
    v->push_back(new MaintenanceOracle());
    v->push_back(new DataflowOracle());
    v->push_back(new ParallelOracle());
    v->push_back(new TmOracle());
    v->push_back(new AntichainOracle());
    return v;
  }();
  return *all;
}

const Oracle* FindOracle(const std::string& name) {
  for (const Oracle* o : AllOracles()) {
    if (o->name() == name) return o;
  }
  return nullptr;
}

std::string DescribeCase(const FuzzCase& c) { return SerializeCase(c); }

}  // namespace testing
}  // namespace mondet
