#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "base/homomorphism.h"
#include "base/thread_pool.h"
#include "datalog/approximation.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/fragment.h"
#include "datalog/parser.h"
#include "tests/test_util.h"

namespace mondet {
namespace {

DatalogQuery MustParseQuery(const std::string& text, const std::string& goal,
                            const VocabularyPtr& vocab) {
  std::string error;
  std::vector<Diagnostic> diags;
  auto q = ParseQuery(text, goal, vocab, &diags);
  EXPECT_TRUE(q.has_value()) << FormatDiagnostics(diags);
  return *q;
}

constexpr char kReach[] = R"(
  P(x) :- U(x).
  P(x) :- R(x,y), P(y).
  Goal(x) :- P(x).
)";

TEST(Parser, RejectsUnsafeRules) {
  auto vocab = MakeVocabulary();
  ParseResult result = ParseProgram("Goal(x) :- R(y,z).", vocab);
  EXPECT_FALSE(result.ok());
}

TEST(Parser, RejectsArityMismatch) {
  auto vocab = MakeVocabulary();
  ParseResult result = ParseProgram("Goal(x) :- R(x,y), R(x).", vocab);
  EXPECT_FALSE(result.ok());
}

TEST(Parser, ParsesComments) {
  auto vocab = MakeVocabulary();
  ParseResult result =
      ParseProgram("# header\nGoal(x) :- R(x,y). # trailing\n", vocab);
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.program->rules().size(), 1u);
}

TEST(Parser, ParsesGroundInstance) {
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<Diagnostic> diags;
  auto inst = ParseInstance("R(a,b). R(b,c). U(c). # done", vocab, &diags);
  ASSERT_TRUE(inst.has_value()) << FormatDiagnostics(diags);
  EXPECT_EQ(inst->num_facts(), 3u);
  EXPECT_EQ(inst->num_elements(), 3u);
  PredId r = *vocab->FindPredicate("R");
  EXPECT_EQ(inst->NumRows(r), 2u);
}

TEST(Parser, InstanceSharesElementsByName) {
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<Diagnostic> diags;
  auto inst = ParseInstance("R(a,a). U(a).", vocab, &diags);
  ASSERT_TRUE(inst.has_value()) << FormatDiagnostics(diags);
  EXPECT_EQ(inst->num_elements(), 1u);
}

TEST(Parser, InstanceRejectsArityMismatch) {
  auto vocab = MakeVocabulary();
  std::vector<Diagnostic> diags;
  auto inst = ParseInstance("R(a,b). R(a).", vocab, &diags);
  EXPECT_FALSE(inst.has_value());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "arity");
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST(Parser, InstanceDiagnosticsCarryPositions) {
  auto vocab = MakeVocabulary();
  std::vector<Diagnostic> diags;
  auto inst = ParseInstance("R(a,b).\nR(c).", vocab, &diags);
  EXPECT_FALSE(inst.has_value());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "arity");
  EXPECT_EQ(diags[0].loc.line, 2);

  std::vector<Diagnostic> syntax;
  auto bad = ParseInstance("R(a,b).\nR(b c).", vocab, &syntax);
  EXPECT_FALSE(bad.has_value());
  ASSERT_EQ(syntax.size(), 1u);
  EXPECT_EQ(syntax[0].check, "parse");
  EXPECT_EQ(syntax[0].loc.line, 2);
  EXPECT_GT(syntax[0].loc.col, 1);
}

TEST(Parser, QueryGoalResolutionFailureCarriesPosition) {
  auto vocab = MakeVocabulary();
  std::vector<Diagnostic> diags;
  // "R" resolves to a predicate, but an extensional one: the diagnostic
  // points at its first body occurrence (rule 1, atom 0, line 3).
  auto q = ParseQuery("P(x) :- U(x).\n\nP(y) :- R(x,y), P(x).", "R", vocab,
                      &diags);
  EXPECT_FALSE(q.has_value());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "goal");
  EXPECT_EQ(diags[0].loc.rule, 1);
  ASSERT_EQ(diags[0].loc.atoms.size(), 1u);
  EXPECT_EQ(diags[0].loc.atoms[0], 0);
  EXPECT_EQ(diags[0].loc.line, 3);

  // A goal name that never occurs anywhere still fails with the "goal"
  // check, just without a position.
  std::vector<Diagnostic> unknown;
  auto q2 = ParseQuery("P(x) :- U(x).", "Nope", vocab, &unknown);
  EXPECT_FALSE(q2.has_value());
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].check, "goal");
  EXPECT_EQ(unknown[0].loc.line, 0);

  // Parse-level failures flow through ParseQuery's diagnostics too.
  std::vector<Diagnostic> parse_fail;
  auto q3 = ParseQuery("P(x) :- U(x)", "P", vocab, &parse_fail);
  EXPECT_FALSE(q3.has_value());
  ASSERT_FALSE(parse_fail.empty());
  EXPECT_TRUE(HasErrors(parse_fail));
}

TEST(Parser, InstanceRoundTripsThroughEvaluation) {
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<Diagnostic> diags;
  auto q = ParseQuery(kReach, "Goal", vocab, &diags);
  ASSERT_TRUE(q) << FormatDiagnostics(diags);
  auto inst = ParseInstance("R(a,b). R(b,c). U(c).", vocab, &diags);
  ASSERT_TRUE(inst) << FormatDiagnostics(diags);
  EXPECT_TRUE(DatalogHoldsOn(*q, *inst));
  auto no_u = ParseInstance("R(a,b). R(b,c).", vocab, &diags);
  EXPECT_FALSE(DatalogHoldsOn(*q, *no_u));
}

TEST(Eval, TransitiveReachability) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  PredId r = *vocab->FindPredicate("R");
  PredId u = *vocab->FindPredicate("U");
  Instance inst = MakePath(vocab, r, 4);  // 0->1->2->3->4
  inst.AddFact(u, {4});
  auto out = EvaluateDatalog(q, inst);
  EXPECT_EQ(out.size(), 5u);  // everyone reaches 4
  EXPECT_TRUE(DatalogHoldsOn(q, inst, {0}));
}

TEST(Eval, NoDerivationWithoutBase) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  PredId r = *vocab->FindPredicate("R");
  Instance inst = MakePath(vocab, r, 4);
  EXPECT_FALSE(DatalogHoldsOn(q, inst));
}

TEST(Eval, MutualRecursion) {
  auto vocab = MakeVocabulary();
  // Even/odd distance from a source marked S, over edges E.
  DatalogQuery q = MustParseQuery(R"(
    Even(x) :- S(x).
    Odd(y) :- E(x,y), Even(x).
    Even(y) :- E(x,y), Odd(x).
    Goal(x) :- Even(x).
  )",
                                  "Goal", vocab);
  PredId e = *vocab->FindPredicate("E");
  PredId s = *vocab->FindPredicate("S");
  Instance inst = MakePath(vocab, e, 4);
  inst.AddFact(s, {0});
  auto out = EvaluateDatalog(q, inst);
  EXPECT_TRUE(out.count({0}));
  EXPECT_FALSE(out.count({1}));
  EXPECT_TRUE(out.count({2}));
  EXPECT_TRUE(out.count({4}));
}

TEST(Eval, CycleSaturates) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(R"(
    T(x,y) :- R(x,y).
    T(x,z) :- T(x,y), R(y,z).
    Goal(x,y) :- T(x,y).
  )",
                                  "Goal", vocab);
  PredId r = *vocab->FindPredicate("R");
  Instance cycle = MakeCycle(vocab, r, 3);
  auto out = EvaluateDatalog(q, cycle);
  EXPECT_EQ(out.size(), 9u);  // full transitive closure
}

TEST(Eval, ZeroAryGoalAndEmptyBody) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery("Goal.\n", "Goal", vocab);
  Instance empty(vocab);
  EXPECT_TRUE(DatalogHoldsOn(q, empty));
}

TEST(Eval, InputIdbFactsRespected) {
  // FPEval over an instance that already contains IDB facts (Prop. 4 use).
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  PredId r = *vocab->FindPredicate("R");
  PredId p = *vocab->FindPredicate("P");
  Instance inst = MakePath(vocab, r, 2);
  inst.AddFact(p, {2});
  Instance fixpoint = FpEval(q.program, inst);
  EXPECT_TRUE(fixpoint.HasFact(p, {0}));
}

TEST(Fragment, MonadicDetection) {
  auto vocab = MakeVocabulary();
  DatalogQuery mdl = MustParseQuery(kReach, "Goal", vocab);
  EXPECT_TRUE(IsMonadic(mdl.program));
  auto vocab2 = MakeVocabulary();
  DatalogQuery binary = MustParseQuery(R"(
    T(x,y) :- R(x,y).
    Goal() :- T(x,y).
  )",
                                       "Goal", vocab2);
  EXPECT_FALSE(IsMonadic(binary.program));
}

TEST(Fragment, FrontierGuardedDetection) {
  auto vocab = MakeVocabulary();
  // Head variables x,y co-occur in the extensional atom R(x,y): guarded.
  DatalogQuery fg = MustParseQuery(R"(
    T(x,y) :- R(x,y).
    T(x,y) :- R(x,y), T(y,z).
    Goal() :- T(x,y).
  )",
                                   "Goal", vocab);
  EXPECT_TRUE(IsFrontierGuarded(fg.program));
  auto vocab2 = MakeVocabulary();
  // Transitive closure is NOT frontier-guarded: head vars x,z never
  // co-occur in an extensional atom of the recursive rule.
  DatalogQuery tc = MustParseQuery(R"(
    T(x,y) :- R(x,y).
    T(x,z) :- T(x,y), R(y,z).
    Goal() :- T(x,y).
  )",
                                   "Goal", vocab2);
  EXPECT_FALSE(IsFrontierGuarded(tc.program));
  // Monadic programs count as frontier-guarded by convention.
  auto vocab3 = MakeVocabulary();
  DatalogQuery mdl = MustParseQuery("P(x) :- P2(x).\nP2(x) :- U(x).\nGoal(x) :- P(x).", "Goal", vocab3);
  EXPECT_TRUE(IsFrontierGuarded(mdl.program));
}

TEST(Fragment, NonRecursiveAndUnfolding) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(R"(
    P(x) :- R(x,y), S(y).
    P(x) :- S(x).
    Goal() :- P(x), S(x).
  )",
                                  "Goal", vocab);
  EXPECT_TRUE(IsNonRecursive(q.program));
  UCQ ucq = UnfoldToUcq(q);
  EXPECT_EQ(ucq.disjuncts().size(), 2u);
  // Recursive program detected.
  auto vocab2 = MakeVocabulary();
  DatalogQuery rec = MustParseQuery(kReach, "Goal", vocab2);
  EXPECT_FALSE(IsNonRecursive(rec.program));
}

TEST(Approximation, EnumeratesReachExpansions) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  std::vector<Expansion> expansions;
  bool exhaustive = EnumerateExpansions(q, 4, 1000, [&](const Expansion& e) {
    expansions.push_back(e);
    return true;
  });
  EXPECT_TRUE(exhaustive);
  // Depth 4 gives goal->P chains of length 0..2: U(x); R+U; R+R+U.
  ASSERT_EQ(expansions.size(), 3u);
  // Each expansion satisfies the query on its own canonical database.
  for (const Expansion& e : expansions) {
    EXPECT_TRUE(DatalogHoldsOn(q, e.inst));
    EXPECT_EQ(e.frontier.size(), 1u);
  }
}

TEST(Approximation, ExpansionsMapIntoSatisfyingInstances) {
  // Prop. 1: I |= Q iff some approximation maps into I.
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  PredId r = *vocab->FindPredicate("R");
  PredId u = *vocab->FindPredicate("U");
  Instance inst = MakePath(vocab, r, 3);
  inst.AddFact(u, {3});
  bool found = false;
  EnumerateExpansions(q, 6, 1000, [&](const Expansion& e) {
    HomSearch search(e.inst, inst);
    if (search.Exists({{e.frontier[0], 0}})) found = true;
    return !found;
  });
  EXPECT_TRUE(found);
}

TEST(Approximation, RepeatedHeadVarsUnify) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(R"(
    P(x,x) :- S(x).
    Goal() :- R(a,b), P(a,b).
  )",
                                  "Goal", vocab);
  std::vector<Expansion> expansions;
  EnumerateExpansions(q, 3, 10, [&](const Expansion& e) {
    expansions.push_back(e);
    return true;
  });
  ASSERT_EQ(expansions.size(), 1u);
  // a and b were unified: R(a,a), S(a) over a single element.
  EXPECT_EQ(expansions[0].inst.num_elements(), 1u);
  EXPECT_EQ(expansions[0].inst.num_facts(), 2u);
}

TEST(Approximation, DepthLimitsRespected) {
  auto vocab = MakeVocabulary();
  DatalogQuery q = MustParseQuery(kReach, "Goal", vocab);
  size_t count = 0;
  bool exhaustive =
      EnumerateExpansions(q, 20, 5, [&](const Expansion&) {
        ++count;
        return true;
      });
  EXPECT_FALSE(exhaustive);  // cap of 5 hit before depth 20 exhausted
  EXPECT_EQ(count, 5u);
}

TEST(ResolveEvalThreads, EnvironmentParsedWholeAndCapped) {
  const char* saved = std::getenv("MONDET_THREADS");
  const std::optional<std::string> old =
      saved ? std::optional<std::string>(saved) : std::nullopt;
  const int cap = ThreadPool::Shared().num_threads() + 1;
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = std::min(hw > 0 ? static_cast<int>(hw) : 1, cap);
  // Anything but a whole positive decimal falls back to the hardware.
  for (const char* bad :
       {"0", "-3", "4abc", "abc", "", " 2", "+2", "99999999999"}) {
    setenv("MONDET_THREADS", bad, 1);
    EXPECT_EQ(ResolveEvalThreads(0), fallback) << "`" << bad << "`";
  }
  setenv("MONDET_THREADS", "1", 1);
  EXPECT_EQ(ResolveEvalThreads(0), 1);
  setenv("MONDET_THREADS", "2", 1);
  EXPECT_EQ(ResolveEvalThreads(0), 2);
  // More workers than ParallelFor can run are capped, not allocated.
  setenv("MONDET_THREADS", "2000000000", 1);
  EXPECT_EQ(ResolveEvalThreads(0), cap);
  // An explicit request wins over the environment and is capped alike.
  EXPECT_EQ(ResolveEvalThreads(3), 3);
  EXPECT_EQ(ResolveEvalThreads(1000000), cap);
  if (old.has_value()) {
    setenv("MONDET_THREADS", old->c_str(), 1);
  } else {
    unsetenv("MONDET_THREADS");
  }
}

}  // namespace
}  // namespace mondet
