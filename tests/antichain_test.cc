#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/ops.h"
#include "core/mondet_check.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "testing/corpus.h"
#include "testing/generator.h"
#include "testing/oracle.h"
#include "testing/shrink.h"
#include "tests/test_util.h"

namespace mondet {
namespace {

using testing::ChainOfANta;
using testing::NtaEnumerationCodes;
using testing::NtaLabelA;
using testing::NtaLabelB;
using testing::NthBelowRootIsANta;
using testing::RandomNta;

SymbolUniverse MergedUniverse(const Nta& a, const Nta& b) {
  SymbolUniverse u = SymbolsOf(a);
  u.Merge(SymbolsOf(b));
  return u;
}

/// The width-1 automaton accepting every code over the two-label alphabet.
Nta UniversalNta() {
  Nta m(1);
  State q = m.AddState();
  for (const NodeLabel& l : {NtaLabelA(), NtaLabelB()}) {
    m.AddLeaf(l, q);
    m.AddUnary(l, EdgeLabel{}, q, q);
    m.AddBinary(l, EdgeLabel{}, EdgeLabel{}, q, q, q);
  }
  m.AddFinal(q);
  return m;
}

TEST(NtaIncluded, SelfInclusionOnRandomAutomata) {
  for (unsigned seed = 0; seed < 30; ++seed) {
    Nta a = RandomNta(seed);
    NtaInclusionResult r = NtaIncluded(a, a, SymbolsOf(a));
    EXPECT_TRUE(r.included) << "seed " << seed;
    EXPECT_FALSE(r.witness.has_value());
  }
}

TEST(NtaIncluded, EmptyLeftSideIsIncludedInAnything) {
  Nta empty(1);
  empty.AddState();
  empty.AddLeaf(NtaLabelA(), 0);  // reachable state, but no finals
  for (unsigned seed = 0; seed < 10; ++seed) {
    Nta b = RandomNta(seed);
    NtaInclusionResult r = NtaIncluded(empty, b, MergedUniverse(empty, b));
    EXPECT_TRUE(r.included) << "seed " << seed;
  }
}

TEST(NtaIncluded, EverythingIsIncludedInUniversal) {
  Nta univ = UniversalNta();
  for (unsigned seed = 0; seed < 30; ++seed) {
    Nta a = RandomNta(seed);
    NtaInclusionResult r = NtaIncluded(a, univ, MergedUniverse(a, univ));
    EXPECT_TRUE(r.included) << "seed " << seed;
  }
}

TEST(NtaIncluded, HandBuiltWitnessHasExactShape) {
  // a accepts exactly the 2-chain of A's, b only the single A leaf: the
  // sole separating code is the 2-chain, and the walk must surface it.
  Nta a = ChainOfANta(2);
  Nta b = ChainOfANta(1);
  NtaInclusionResult r = NtaIncluded(a, b, MergedUniverse(a, b));
  EXPECT_FALSE(r.included);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(r.witness->Validate());
  EXPECT_EQ(r.witness->width, 1);
  ASSERT_EQ(r.witness->nodes.size(), 2u);
  EXPECT_EQ(r.witness->nodes[0].atoms, NtaLabelA());
  EXPECT_EQ(r.witness->nodes[1].atoms, NtaLabelA());
  EXPECT_EQ(r.witness->nodes[0].children, std::vector<int>{1});
  EXPECT_TRUE(a.Accepts(*r.witness));
  EXPECT_FALSE(b.Accepts(*r.witness));
}

TEST(NtaIncluded, SubsumptionPruneFiresOnGrowingMacrostate) {
  // b's macrostate grows from {0} to {0,1} along the unary step; the
  // antichain discards the superset, so exactly one pair and one
  // macrostate are ever interned.
  Nta b(1);
  b.AddState();
  b.AddState();
  b.AddLeaf(NtaLabelA(), 0);
  b.AddUnary(NtaLabelA(), EdgeLabel{}, 0, 0);
  b.AddUnary(NtaLabelA(), EdgeLabel{}, 0, 1);
  b.AddFinal(0);
  Nta a(1);
  a.AddState();
  a.AddLeaf(NtaLabelA(), 0);
  a.AddUnary(NtaLabelA(), EdgeLabel{}, 0, 0);
  a.AddFinal(0);
  NtaInclusionResult r = NtaIncluded(a, b, MergedUniverse(a, b));
  EXPECT_TRUE(r.included);
  EXPECT_EQ(r.subsumption_prunes, 1u);
  EXPECT_EQ(r.macrostates_visited, 1u);
  EXPECT_EQ(r.pairs_explored, 1u);
}

TEST(NtaIncluded, MacrostatesStrictlyBelowDeterminizedStates) {
  // The exponential family of generator.h: determinizing b over the chain
  // universe materializes ~2^(k+1) subset states, while the antichain walk
  // against the single-chain left side keeps only O(k) macrostates.
  const int k = 5;
  Nta a = ChainOfANta(k + 1);
  Nta b = NthBelowRootIsANta(k);
  SymbolUniverse u = MergedUniverse(a, b);
  NtaInclusionResult r = NtaIncluded(a, b, u);
  EXPECT_TRUE(r.included);
  Nta det = Determinize(b, u);
  EXPECT_LT(r.macrostates_visited, det.num_states());
  // The gap is the point: well under half the determinized state count.
  EXPECT_LT(2 * r.macrostates_visited, det.num_states());
}

TEST(NtaIncluded, InclusionIsRelativeToTheUniverse) {
  // a's unary transition is invisible in a leaves-only universe, so the
  // only codes that count are single leaves — and a accepts none of them.
  Nta a = ChainOfANta(2);
  Nta b = ChainOfANta(1);
  SymbolUniverse leaves_only = SymbolsOf(b);
  EXPECT_TRUE(NtaIncluded(a, b, leaves_only).included);
  EXPECT_FALSE(NtaIncluded(a, b, MergedUniverse(a, b)).included);
}

TEST(NtaIncluded, AgreesWithExplicitRouteOnEnumeration) {
  for (unsigned seed = 0; seed < 40; ++seed) {
    Nta a = RandomNta(51000 + seed);
    Nta b = RandomNta(53000 + seed);
    SymbolUniverse u = MergedUniverse(a, b);
    NtaInclusionResult r = NtaIncluded(a, b, u);
    bool explicit_included = IsEmpty(Product(a, Complement(b, u)));
    EXPECT_EQ(r.included, explicit_included) << "seed " << seed;
    if (r.included) {
      // No enumerable code may separate them.
      for (const TreeCode& code : NtaEnumerationCodes()) {
        EXPECT_FALSE(a.Accepts(code) && !b.Accepts(code)) << "seed " << seed;
      }
    }
  }
}

TEST(LazyProduct, AgreesWithMaterializedProductAndWitnesses) {
  for (unsigned seed = 0; seed < 40; ++seed) {
    Nta a = RandomNta(61000 + seed);
    Nta b = RandomNta(63000 + seed);
    LazyProductResult r = LazyProductEmptiness(a, b);
    EXPECT_EQ(r.empty, IsEmpty(Product(a, b))) << "seed " << seed;
    if (!r.empty) {
      ASSERT_TRUE(r.witness.has_value()) << "seed " << seed;
      EXPECT_TRUE(r.witness->Validate());
      EXPECT_TRUE(a.Accepts(*r.witness)) << "seed " << seed;
      EXPECT_TRUE(b.Accepts(*r.witness)) << "seed " << seed;
    } else {
      EXPECT_FALSE(r.witness.has_value());
    }
  }
}

TEST(LazyProduct, BinaryIntersectionIsFound) {
  // Both sides accept the binary-over-leaves shape; the witness must use
  // the binary transition (three nodes).
  Nta a(1);
  a.AddState();
  a.AddLeaf(NtaLabelA(), 0);
  a.AddBinary(NtaLabelB(), EdgeLabel{}, EdgeLabel{}, 0, 0, 0);
  a.AddFinal(0);
  Nta b = UniversalNta();
  LazyProductResult r = LazyProductEmptiness(a, b);
  EXPECT_FALSE(r.empty);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(a.Accepts(*r.witness));
}

// --- Thm 5 / containment counterexample goldens --------------------------
//
// Each Thm 5 counterexample is pinned by its TreeCode::DebugString: the
// containment walk interns pairs in a fixed order, so its witness is
// the lowest-id bad pair of the full fixpoint and must never drift.
// Thm5VsCanonical (property_test.cc) is the verdict reference.

/// The counterexample every failing random view set below produces.
constexpr char kRandomViewsWitness[] =
    "node 0 [] ->1{0=0 } ->3{0=0 1=1 }\n"
    "node 1 [E2(0,1)] ->2{1=0 }\n"
    "node 2 [E1(0)]\n"
    "node 3 [E2(0,1)]\n";

TEST(ContainmentGolden, DatalogInUcqCounterexamples) {
  auto vocab = MakeVocabulary();
  std::string error;
  std::vector<Diagnostic> diags;
  auto q = ParseQuery(R"(
    P(x) :- U(x).
    P(x) :- R(x,y), P(y).
    Goal() :- P(x).
  )",
                      "Goal", vocab, &diags);
  ASSERT_TRUE(q) << FormatDiagnostics(diags);
  struct Golden {
    std::string target;
    const char* witness;  // nullptr = contained
  };
  const Golden goldens[] = {
      {"C() :- U(x).", nullptr},
      {"C() :- R(x,x).", "node 0 [] ->1{0=0 }\nnode 1 [U(0)]\n"},
      {"C() :- R(x,y), R(y,z).", "node 0 [] ->1{0=0 }\nnode 1 [U(0)]\n"},
  };
  for (const Golden& g : goldens) {
    UCQ ucq(vocab);
    ucq.AddDisjunct(*ParseCq(g.target, vocab, &error));
    ContainmentResult r = DatalogContainedInUcq(*q, ucq);
    EXPECT_EQ(r.contained, g.witness == nullptr) << g.target;
    ASSERT_EQ(r.counterexample.has_value(), g.witness != nullptr) << g.target;
    if (g.witness != nullptr) {
      EXPECT_EQ(r.counterexample->width, 2) << g.target;
      EXPECT_EQ(r.counterexample->DebugString(*vocab), g.witness) << g.target;
    }
    EXPECT_GT(r.macrostates_visited, 0u) << g.target;
  }
}

TEST(ContainmentGolden, Thm5GoldenCase) {
  auto vocab = MakeVocabulary();
  std::string error;
  auto q = ParseCq("Q() :- R(x,y), R(y,z).", vocab, &error);
  ASSERT_TRUE(q) << error;
  std::vector<Diagnostic> diags;
  auto def = ParseQuery("W(x) :- R(x,y).\nW(x) :- R(x,y), W(y).", "W", vocab,
                        &diags);
  ASSERT_TRUE(def) << FormatDiagnostics(diags);
  ViewSet views(vocab);
  views.AddView("VW", *def);
  Thm5Result r = CheckCqOverDatalogViews(*q, views);
  EXPECT_FALSE(r.determined);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->width, 2);
  EXPECT_EQ(r.counterexample->DebugString(*vocab),
            "node 0 [] ->1{0=0 } ->2{1=0 }\n"
            "node 1 [R(0,1)]\n"
            "node 2 [R(0,1)]\n");
  EXPECT_GT(r.macrostates_visited, 0u);
}

TEST(ContainmentGolden, Thm5RandomViewSets) {
  // Seeds whose views do not determine the query; the rest are determined.
  const std::vector<unsigned> failing = {2, 5, 8, 11};
  for (unsigned seed = 0; seed < 12; ++seed) {
    testing::GenProfile profile = testing::EvalProfile();
    std::vector<testing::ViewSpec> specs =
        testing::RandomViewSpecs(profile, seed);
    ViewSet views = testing::BuildViews(profile.vocab, specs);
    std::string error;
    auto q = ParseCq("Q() :- E1(x), E2(x,y).", profile.vocab, &error);
    ASSERT_TRUE(q) << error;
    Thm5Result r = CheckCqOverDatalogViews(*q, views);
    const bool fails = std::find(failing.begin(), failing.end(), seed) !=
                       failing.end();
    EXPECT_EQ(r.determined, !fails) << "seed " << seed;
    ASSERT_EQ(r.counterexample.has_value(), fails) << "seed " << seed;
    if (fails) {
      EXPECT_EQ(r.counterexample->width, 2) << "seed " << seed;
      EXPECT_EQ(r.counterexample->DebugString(*profile.vocab),
                kRandomViewsWitness)
          << "seed " << seed;
    }
  }
}

// --- Oracle and corpus integration ------------------------------------------

TEST(AntichainOracle, IsRegistered) {
  const testing::Oracle* o = testing::FindOracle("antichain-inclusion");
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->name(), "antichain-inclusion");
}

TEST(AntichainOracle, CasesRoundTripThroughCorpusFormat) {
  const testing::Oracle* o = testing::FindOracle("antichain-inclusion");
  ASSERT_NE(o, nullptr);
  for (unsigned seed = 0; seed < 25; ++seed) {
    testing::FuzzCase c = o->Generate(seed);
    std::string text = testing::SerializeCase(c);
    std::string error;
    auto parsed = testing::ParseCaseText(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    // Byte-exact round trip: reserializing the parsed case reproduces the
    // file, so automata survive the format losslessly.
    EXPECT_EQ(testing::SerializeCase(*parsed), text) << "seed " << seed;
    EXPECT_TRUE(o->Check(*parsed).ok) << "seed " << seed;
  }
}

TEST(AntichainOracle, ShrinkerReducesNtaCases) {
  // A deliberately failing "oracle" that trips whenever automaton a has a
  // binary transition: the shrinker must strip everything else away.
  class BinaryTrips : public testing::Oracle {
   public:
    std::string name() const override { return "binary-trips"; }
    testing::GenProfile Profile() const override {
      return testing::EvalProfile();
    }
    testing::FuzzCase Generate(unsigned seed) const override {
      const testing::Oracle* o = testing::FindOracle("antichain-inclusion");
      return o->Generate(seed);
    }
    testing::OracleOutcome Check(const testing::FuzzCase& c) const override {
      if (c.nta_a.has_value() && !c.nta_a->binary_transitions().empty()) {
        return {false, "has binary"};
      }
      return {true, ""};
    }
  };
  BinaryTrips oracle;
  for (unsigned seed = 0; seed < 40; ++seed) {
    testing::FuzzCase c = oracle.Generate(seed);
    if (oracle.Check(c).ok) continue;
    testing::ShrinkResult res = testing::ShrinkCase(oracle, c, 500);
    EXPECT_FALSE(oracle.Check(res.best).ok);
    // Fully shrunk: exactly the one tripping transition survives.
    EXPECT_EQ(res.best.nta_a->binary_transitions().size(), 1u);
    EXPECT_TRUE(res.best.nta_a->leaf_transitions().empty());
    EXPECT_TRUE(res.best.nta_a->unary_transitions().empty());
    return;  // one genuinely shrunk case is enough
  }
  FAIL() << "no seed produced a binary transition in a";
}

class AntichainOracleSeeds : public ::testing::TestWithParam<unsigned> {};

TEST_P(AntichainOracleSeeds, Passes) {
  const testing::Oracle* o = testing::FindOracle("antichain-inclusion");
  ASSERT_NE(o, nullptr);
  testing::OracleOutcome out = o->Check(o->Generate(GetParam()));
  EXPECT_TRUE(out.ok) << out.message;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AntichainOracleSeeds,
                         ::testing::Range(0u, 220u));

}  // namespace
}  // namespace mondet
