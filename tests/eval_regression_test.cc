// Regression pins for the compiled semi-naive evaluator on the paper's
// gadget families (Figures 1–5) at small parameters. The golden values
// (iteration counts and output sizes) were captured from the evaluator on
// the seed-equivalent fixpoints; a change here means either the gadget
// construction or the evaluator's iteration structure changed — both are
// worth noticing.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/stats.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/parser.h"
#include "reductions/thm6.h"
#include "reductions/thm7.h"
#include "testing/reference.h"
#include "tests/test_util.h"
#include "views/inverse_rules.h"
#include "views/view_set.h"

namespace mondet {
namespace {

// ---------- Thm 7 diamond chains (Figures 3 and 4) -----------------------

struct Thm7Golden {
  int n;
  size_t chain_facts;
  size_t query_iterations;
  size_t query_fixpoint_facts;
  size_t image_iterations;
  size_t image_facts;  // S + R^(n-1) + T, so n+1 facts
  size_t rewriting_iterations;
};

TEST(EvalRegression, Thm7DiamondChainFamily) {
  // Eval seats every rule, including rules provably dead on the given
  // instance, so these iteration counts include any rounds such rules
  // schedule.
  const Thm7Golden goldens[] = {
      {1, 6, 3, 8, 3, 2, 13},
      {2, 10, 4, 13, 3, 3, 14},
      {3, 14, 5, 18, 3, 4, 15},
  };
  Thm7Gadget gadget = BuildThm7();
  DatalogQuery rewriting = InverseRulesRewriting(gadget.query, gadget.views);
  for (const Thm7Golden& g : goldens) {
    Instance chain = gadget.DiamondChain(g.n);
    EXPECT_EQ(chain.num_facts(), g.chain_facts) << "n=" << g.n;

    EvalStats qs;
    Instance qfix = FpEval(gadget.query.program, chain, &qs);
    EXPECT_EQ(qs.iterations, g.query_iterations) << "n=" << g.n;
    EXPECT_EQ(qfix.num_facts(), g.query_fixpoint_facts) << "n=" << g.n;
    EXPECT_FALSE(qfix.NumRows(gadget.query.goal) == 0) << "n=" << g.n;

    EvalStats is;
    Instance image = gadget.views.Image(chain, &is);
    EXPECT_EQ(is.iterations, g.image_iterations) << "n=" << g.n;
    EXPECT_EQ(image.num_facts(), g.image_facts) << "n=" << g.n;

    EvalStats rs;
    Instance rfix = FpEval(rewriting.program, image, &rs);
    EXPECT_EQ(rs.iterations, g.rewriting_iterations) << "n=" << g.n;
    // The rewriting agrees with the query on the diamond family (Thm 7).
    EXPECT_EQ(rfix.NumRows(rewriting.goal), 1u) << "n=" << g.n;
  }
}

// ---------- Thm 6 axes and grid tests (Figures 1 and 2) ------------------

TEST(EvalRegression, Thm6AxesAndGridTest) {
  TilingProblem tp = SolvableTilingProblem();
  Thm6Gadget gadget = BuildThm6(tp);

  Instance axes = gadget.MakeAxes(2, 2);
  EXPECT_EQ(axes.num_facts(), 10u);
  EvalStats as;
  Instance axes_image = gadget.views.Image(axes, &as);
  EXPECT_EQ(as.iterations, 13u);
  EXPECT_EQ(axes_image.num_facts(), 10u);

  auto solution = tp.Solve(2, 2);
  ASSERT_TRUE(solution);
  Instance test = gadget.MakeGridTest(2, 2, *solution);
  EXPECT_EQ(test.num_facts(), 18u);
  EvalStats ts;
  Instance tfix = FpEval(gadget.query.program, test, &ts);
  EXPECT_EQ(ts.iterations, 3u);
  // A valid tiling yields a failing test: Q_TP derives nothing on it.
  EXPECT_EQ(tfix.num_facts(), 18u);
  EXPECT_TRUE(tfix.NumRows(gadget.query.goal) == 0);
}

// ---------- Fig 5 chain views over a path --------------------------------

TEST(EvalRegression, Fig5ChainViewImages) {
  auto vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  Instance path = MakePath(vocab, r, 16);
  // A length-len chain view over a 16-edge path has 17-len output pairs;
  // the view program is non-recursive, so it closes in one iteration in
  // one stratum.
  for (int len = 2; len <= 4; ++len) {
    ViewSet views(vocab);
    CQ cq(vocab);
    std::vector<VarId> vars;
    for (int i = 0; i <= len; ++i) vars.push_back(cq.AddVar());
    for (int i = 0; i < len; ++i) cq.AddAtom(r, {vars[i], vars[i + 1]});
    cq.SetFreeVars({vars[0], vars[len]});
    views.AddCqView("V", cq);
    EvalStats s;
    Instance image = views.Image(path, &s);
    EXPECT_EQ(s.iterations, 1u) << "len=" << len;
    EXPECT_EQ(s.strata.size(), 1u) << "len=" << len;
    EXPECT_EQ(image.num_facts(), static_cast<size_t>(17 - len))
        << "len=" << len;
  }
}

// ---------- Thread count does not change any of the above ----------------

TEST(EvalRegression, StatsIndependentOfThreads) {
  Thm7Gadget gadget = BuildThm7();
  Instance chain = gadget.DiamondChain(3);
  EvalStats s1, s4;
  Instance f1 = FpEval(gadget.query.program, chain, &s1, EvalOptions{1});
  Instance f4 = FpEval(gadget.query.program, chain, &s4, EvalOptions{4});
  EXPECT_EQ(s1.iterations, s4.iterations);
  EXPECT_EQ(s1.facts_derived, s4.facts_derived);
  ASSERT_EQ(f1.num_facts(), f4.num_facts());
  for (size_t i = 0; i < f1.num_facts(); ++i) {
    EXPECT_EQ(f1.FactAt(static_cast<uint32_t>(i)),
              f4.FactAt(static_cast<uint32_t>(i)))
        << "fact " << i;
  }
}

// ---------- Kernels lower every rule shape -------------------------------

/// Same fact *sequence*: byte-identical insertion order.
void ExpectSameSequence(const Instance& a, const Instance& b,
                        const std::string& tag) {
  ASSERT_EQ(a.num_facts(), b.num_facts()) << tag;
  for (uint32_t i = 0; i < a.num_facts(); ++i) {
    ASSERT_EQ(a.FactAt(i), b.FactAt(i)) << tag << ": fact " << i;
  }
}

/// Same fact *set*.
void ExpectSameSet(const Instance& want, const Instance& got,
                   const std::string& tag) {
  ASSERT_EQ(want.num_facts(), got.num_facts()) << tag;
  for (const Fact& f : want.AllFacts()) {
    EXPECT_TRUE(got.HasFact(f)) << tag << ": missing " << FactToString(want, f);
  }
}

TEST(EvalRegression, WideAtomsAndManyVariablesRunOnKernels) {
  // An arity-20 relation (recursive rotation plus a fully bound arity-20
  // membership step) and a 70-variable recursive chain rule: kernels
  // have no arity or variable-count limit.
  constexpr int kArity = 20;
  constexpr int kChain = 69;  // E atoms in the long rule: 70 variables
  VocabularyPtr vocab = MakeVocabulary();
  PredId e = vocab->AddPredicate("E", 2);
  PredId w = vocab->AddPredicate("W", kArity);
  auto vars = [](int from, int to) {  // "xfrom,...,xto"
    std::string out;
    for (int i = from; i <= to; ++i) {
      out += (i > from ? ",x" : "x") + std::to_string(i);
    }
    return out;
  };
  std::string text = "W(" + vars(2, kArity) + ",x1) :- W(" +
                     vars(1, kArity) + ").\n";
  text += "V(" + vars(1, kArity) + ") :- W(" + vars(1, kArity) + "), W(" +
          vars(2, kArity) + ",x1).\n";
  text += "L(x0,x1) :- E(x0,x1).\n";
  text += "L(x0,x" + std::to_string(kChain) + ") :- L(x0,x1)";
  for (int i = 1; i < kChain; ++i) {
    text += ", E(x" + std::to_string(i) + ",x" + std::to_string(i + 1) + ")";
  }
  text += ".\n";
  ParseResult pr = ParseProgram(text, vocab);
  ASSERT_TRUE(pr.ok()) << pr.error;
  const Program& program = *pr.program;
  size_t most_vars = 0;
  for (const Rule& r : program.rules()) {
    most_vars = std::max(most_vars, r.num_vars());
  }
  ASSERT_GT(most_vars, 64u);

  // E: a 5-cycle, so every chain walk is unique. W: two seed tuples.
  Instance inst = MakeCycle(vocab, e, 5);
  for (int seed = 0; seed < 2; ++seed) {
    std::vector<ElemId> args;
    for (int i = 0; i < kArity; ++i) args.push_back(inst.AddElement());
    inst.AddFact(w, args);
  }
  const Instance naive = NaiveFpEval(program, inst);
  ASSERT_EQ(naive.NumRows(w), 2u * kArity);
  ASSERT_EQ(naive.NumRows(*vocab->FindPredicate("V")), 2u * kArity);
  ASSERT_EQ(naive.NumRows(*vocab->FindPredicate("L")), 25u);

  CompiledProgram compiled(program);
  for (size_t min_facts : {size_t{64}, size_t{0}}) {  // stored, live orders
    const std::string tag = "stats_min_facts=" + std::to_string(min_facts);
    EvalOptions o1;
    o1.num_threads = 1;
    o1.stats_min_facts = min_facts;
    EvalOptions o4 = o1;
    o4.num_threads = 4;
    const Instance r1 = compiled.Eval(inst, nullptr, o1);
    const Instance r4 = compiled.Eval(inst, nullptr, o4);
    ExpectSameSet(naive, r1, tag + " naive vs 1T");
    ExpectSameSequence(r1, r4, tag + " 1T vs 4T");
  }
}

TEST(EvalRegression, RebindingRelowersKernels) {
  // H's join order follows the bound snapshot: R first when S is the
  // large relation (snapshot A, also the compile-time EDB-first order),
  // S first when R is (snapshot B). The two orders emit H in different
  // sequences, so a kernel left over from compilation or from A shows.
  VocabularyPtr vocab = MakeVocabulary();
  PredId r = vocab->AddPredicate("R", 2);
  PredId s = vocab->AddPredicate("S", 2);
  PredId h = vocab->AddPredicate("H", 2);
  ParseResult pr = ParseProgram("H(x,z) :- R(x,y), S(y,z).\n", vocab);
  ASSERT_TRUE(pr.ok()) << pr.error;
  const Program& program = *pr.program;

  auto skewed = [&](PredId big, PredId small) {
    Instance inst(vocab);
    std::vector<ElemId> e;
    for (int i = 0; i < 41; ++i) e.push_back(inst.AddElement());
    for (int i = 0; i < 40; ++i) inst.AddFact(big, {e[i], e[i + 1]});
    inst.AddFact(small, {e[0], e[1]});
    return Stats::Collect(inst);
  };
  const Stats snapshot_a = skewed(s, r);
  const Stats snapshot_b = skewed(r, s);

  CompiledProgram rebound(program);
  rebound.BindStats(snapshot_a);
  rebound.BindStats(snapshot_b);
  CompiledProgram fresh_b(program);
  fresh_b.BindStats(snapshot_b);
  CompiledProgram only_a(program);
  only_a.BindStats(snapshot_a);
  const std::vector<uint32_t> order_b = fresh_b.DescribePlans()[0].order;
  ASSERT_EQ(order_b, (std::vector<uint32_t>{1, 0}));  // S, then R
  ASSERT_EQ(only_a.DescribePlans()[0].order, (std::vector<uint32_t>{0, 1}));
  ASSERT_EQ(rebound.DescribePlans()[0].order, order_b);

  // Two R rows and two S rows meeting at one element: four H facts,
  // emitted S-major under B's order.
  Instance inst(vocab);
  std::vector<ElemId> e;
  for (int i = 0; i < 5; ++i) e.push_back(inst.AddElement());
  inst.AddFact(r, {e[0], e[2]});
  inst.AddFact(r, {e[1], e[2]});
  inst.AddFact(s, {e[2], e[3]});
  inst.AddFact(s, {e[2], e[4]});
  Instance want = inst;
  for (ElemId z : {e[3], e[4]}) {
    for (ElemId x : {e[0], e[1]}) want.AddFact(h, {x, z});
  }
  for (int threads : {1, 4}) {
    const std::string tag = std::to_string(threads) + "T";
    EvalOptions o;
    o.num_threads = threads;
    o.stats_planner = false;
    ExpectSameSequence(want, fresh_b.Eval(inst, nullptr, o),
                       tag + " bound to B");
    ExpectSameSequence(want, rebound.Eval(inst, nullptr, o),
                       tag + " re-bound from A to B");
  }
}

}  // namespace
}  // namespace mondet
