// Property tests for the planner statistics (base/stats.h): collection is
// exact (counts match a brute-force recount) on random instances, on
// sparse high element ids, on nullary and empty predicates; Refresh after
// growth and Refresh of a snapshot taken from another instance agree with
// a fresh Collect; the selectivity estimates match hand calculations;
// and planning from stale statistics still yields correct fixpoints
// (stale stats may cost time, never correctness) with pinned fact
// sequences.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "base/stats.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/program.h"
#include "testing/reference.h"
#include "tests/test_util.h"

namespace mondet {
namespace {

VocabularyPtr SmallVocab() {
  auto vocab = MakeVocabulary();
  vocab->AddPredicate("G", 0);
  vocab->AddPredicate("U", 1);
  vocab->AddPredicate("R", 2);
  vocab->AddPredicate("T", 3);
  return vocab;
}

/// Brute-force recount of one predicate straight off facts().
PredicateStats BruteForce(const Instance& inst, PredId p) {
  PredicateStats ps;
  ps.distinct.assign(inst.vocab()->arity(p), 0);
  std::vector<std::set<ElemId>> vals(inst.vocab()->arity(p));
  for (const Fact& f : inst.AllFacts()) {
    if (f.pred != p) continue;
    ++ps.cardinality;
    for (size_t i = 0; i < f.args.size(); ++i) vals[i].insert(f.args[i]);
  }
  for (size_t i = 0; i < vals.size(); ++i) ps.distinct[i] = vals[i].size();
  return ps;
}

/// Every predicate of `vocab` counted exactly as the brute-force recount
/// of `inst` has it.
void ExpectExact(const Stats& stats, const Instance& inst,
                 const VocabularyPtr& vocab, unsigned seed) {
  for (PredId p : vocab->AllPredicates()) {
    PredicateStats want = BruteForce(inst, p);
    EXPECT_EQ(stats.cardinality(p), want.cardinality)
        << "seed " << seed << " pred " << vocab->name(p);
    for (size_t i = 0; i < want.distinct.size(); ++i) {
      EXPECT_EQ(stats.distinct(p, i), want.distinct[i])
          << "seed " << seed << " pred " << vocab->name(p) << " pos " << i;
    }
  }
}

TEST(StatsTest, CollectIsExactOnRandomInstances) {
  auto vocab = SmallVocab();
  std::vector<PredId> preds = vocab->AllPredicates();
  for (unsigned seed = 0; seed < 50; ++seed) {
    Instance inst = RandomInstance(vocab, preds, 6, 12, 1000 + seed);
    ExpectExact(Stats::Collect(inst), inst, vocab, seed);
  }
}

TEST(StatsTest, CollectIsExactOnSparseHighElementIds) {
  // Facts over a handful of ids near the top of a large element range,
  // mixed with id 0: the stamp array must cover the largest id counted,
  // and a value shared between columns or predicates must count once per
  // column.
  auto vocab = SmallVocab();
  PredId u = *vocab->FindPredicate("U");
  PredId r = *vocab->FindPredicate("R");
  PredId t = *vocab->FindPredicate("T");
  for (unsigned seed = 0; seed < 20; ++seed) {
    Instance inst(vocab);
    const size_t elems = 5000 + 997 * seed;
    for (size_t i = 0; i < elems; ++i) inst.AddElement();
    std::mt19937 rng(8000 + seed);
    const ElemId top = static_cast<ElemId>(elems - 1);
    std::uniform_int_distribution<ElemId> high(top - 6, top);
    auto pick = [&] { return rng() % 5 == 0 ? ElemId{0} : high(rng); };
    for (int i = 0; i < 30; ++i) {
      inst.AddFact(u, {pick()});
      inst.AddFact(r, {pick(), pick()});
      inst.AddFact(t, {pick(), pick(), pick()});
    }
    ExpectExact(Stats::Collect(inst), inst, vocab, seed);
  }
}

TEST(StatsTest, CollectCountsNullaryAndEmptyPredicates) {
  auto vocab = SmallVocab();
  PredId g = *vocab->FindPredicate("G");
  PredId u = *vocab->FindPredicate("U");
  PredId t = *vocab->FindPredicate("T");
  Instance inst(vocab);
  EXPECT_EQ(Stats::Collect(inst).cardinality(g), 0u);  // no elements at all
  ElemId a = inst.AddElement();
  inst.AddFact(u, {a});
  Stats before = Stats::Collect(inst);
  EXPECT_EQ(before.cardinality(g), 0u);
  EXPECT_EQ(before.cardinality(t), 0u);
  EXPECT_EQ(before.distinct(t, 2), 0u);
  EXPECT_DOUBLE_EQ(before.EstimateMatches(t, {true, false, false}), 0.0);
  inst.AddFact(g, std::vector<ElemId>{});
  Stats after = Stats::Collect(inst);
  EXPECT_EQ(after.cardinality(g), 1u);
  EXPECT_DOUBLE_EQ(after.EstimateMatches(g, std::vector<bool>{}), 1.0);
  ExpectExact(after, inst, vocab, 0);
  // A predicate interned after the snapshot reads as empty.
  PredId late = vocab->AddPredicate("Late", 2);
  EXPECT_EQ(after.cardinality(late), 0u);
  EXPECT_EQ(after.distinct(late, 1), 0u);
}

TEST(StatsTest, RefreshMatchesFreshCollect) {
  auto vocab = SmallVocab();
  std::vector<PredId> preds = vocab->AllPredicates();
  for (unsigned seed = 0; seed < 20; ++seed) {
    Instance inst = RandomInstance(vocab, preds, 5, 8, 2000 + seed);
    Stats stats = Stats::Collect(inst);
    // Grow the instance — new elements with higher ids than any counted
    // so far included — and refresh only the changed predicates.
    std::mt19937 rng(3000 + seed);
    for (int i = 0; i < 3; ++i) inst.AddElement();
    std::uniform_int_distribution<ElemId> elem(0, inst.num_elements() - 1);
    PredId r = *vocab->FindPredicate("R");
    PredId u = *vocab->FindPredicate("U");
    for (int i = 0; i < 6; ++i) {
      inst.AddFact(r, {elem(rng), elem(rng)});
      inst.AddFact(u, {elem(rng)});
    }
    stats.Refresh(inst, {r, u});
    ExpectExact(stats, inst, vocab, seed);
  }
}

TEST(StatsTest, RefreshOfAStaleSnapshotOnAnotherInstance) {
  // A snapshot of A, refreshed predicate by predicate against an
  // unrelated instance B (different element range, different facts):
  // the refreshed predicates count B exactly, the rest keep A's counts,
  // and a full refresh equals Collect(B).
  auto vocab = SmallVocab();
  std::vector<PredId> preds = vocab->AllPredicates();
  PredId r = *vocab->FindPredicate("R");
  PredId t = *vocab->FindPredicate("T");
  for (unsigned seed = 0; seed < 20; ++seed) {
    Instance a = RandomInstance(vocab, preds, 40, 60, 9000 + seed);
    Instance b = RandomInstance(vocab, preds, 4 + seed % 5, 10, 9500 + seed);
    Stats stats = Stats::Collect(a);
    stats.Refresh(b, {r});
    EXPECT_EQ(stats.cardinality(r), BruteForce(b, r).cardinality);
    EXPECT_EQ(stats.distinct(r, 1), BruteForce(b, r).distinct[1]);
    EXPECT_EQ(stats.cardinality(t), BruteForce(a, t).cardinality);
    EXPECT_EQ(stats.distinct(t, 2), BruteForce(a, t).distinct[2]);
    stats.Refresh(b, preds);
    ExpectExact(stats, b, vocab, seed);
  }
}

TEST(StatsTest, EstimateMatchesHandComputed) {
  auto vocab = SmallVocab();
  Instance inst(vocab);
  ElemId a = inst.AddElement("a"), b = inst.AddElement("b"),
         c = inst.AddElement("c");
  PredId r = *vocab->FindPredicate("R");
  inst.AddFact(r, {a, b});
  inst.AddFact(r, {a, c});
  inst.AddFact(r, {b, c});
  Stats stats = Stats::Collect(inst);
  EXPECT_EQ(stats.cardinality(r), 3u);
  EXPECT_EQ(stats.distinct(r, 0), 2u);  // {a, b}
  EXPECT_EQ(stats.distinct(r, 1), 2u);  // {b, c}
  EXPECT_DOUBLE_EQ(stats.EstimateMatches(r, {false, false}), 3.0);
  EXPECT_DOUBLE_EQ(stats.EstimateMatches(r, {true, false}), 1.5);
  EXPECT_DOUBLE_EQ(stats.EstimateMatches(r, {false, true}), 1.5);
  EXPECT_DOUBLE_EQ(stats.EstimateMatches(r, {true, true}), 0.75);
  // Unknown / empty predicates estimate to zero rows.
  PredId u = *vocab->FindPredicate("U");
  EXPECT_DOUBLE_EQ(stats.EstimateMatches(u, {false}), 0.0);
}

/// FNV-1a over a fact *sequence*: fact count, then per fact its predicate,
/// arity and arguments, each as 8 little-endian bytes.
uint64_t SequenceDigest(const Instance& inst) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(inst.num_facts());
  for (uint32_t g = 0; g < inst.num_facts(); ++g) {
    const FactView f = inst.ViewAt(g);
    mix(f.pred);
    mix(f.args.size());
    for (ElemId a : f.args) mix(a);
  }
  return h;
}

TEST(StatsTest, StaleStatsStillYieldCorrectFixpoints) {
  // Plan from statistics of instance A while evaluating instance B: the
  // orders may be bad, the fixpoint must be identical to the naive
  // reference and to the default (live-stats) run. The stale snapshot is
  // bound once (BindStats) and run with the planner off; the fact
  // sequences are pinned to those of the per-Eval snapshot option that
  // binding replaced, which planned the same orders from the same counts.
  const uint64_t kStaleDigests[30] = {
      0x54881f344cc07183ull, 0x38d9c8a8948c949cull, 0x55527d318e406f85ull,
      0xb28e536cc19c009eull, 0x1c3bc2c22c9fe881ull, 0x1c4cc2fc26989504ull,
      0xe7aa464eea20407aull, 0x8596fed6daf07dfeull, 0xfc45f38ee7adba7cull,
      0x283f38a152add647ull, 0xc826902e71d3cae6ull, 0x81433081564bf461ull,
      0xce132de049c6d975ull, 0xaa42dee944b62df7ull, 0x8ad1f7d2a7d27325ull,
      0xe9e561295d16ae9cull, 0x3d989359b50b1f81ull, 0xb57fdb66a007673aull,
      0x5a4cd5a0c2d90446ull, 0x40f3156a565036f9ull, 0xd70e000db4f09c27ull,
      0xda837bd367f6d6fdull, 0xe96462b2c8545678ull, 0x9d9f1484e380ecf9ull,
      0x839f817c2546633dull, 0x1d2239978dca6c06ull, 0x15cfca8a72e15c03ull,
      0x43a6199876bb1f3aull, 0x93ca05dc5f8e5db9ull, 0xbcd7349288d68046ull,
  };
  auto vocab = MakeVocabulary();
  PredId u = vocab->AddPredicate("U", 1);
  PredId r = vocab->AddPredicate("R", 2);
  PredId p = vocab->AddPredicate("P", 1);
  PredId q = vocab->AddPredicate("Q", 2);
  Program program(vocab);
  {
    RuleBuilder rb(vocab);
    rb.Head(p, {"x"});
    rb.Atom(u, {"x"});
    program.AddRule(rb.Build());
  }
  {
    RuleBuilder rb(vocab);
    rb.Head(p, {"y"});
    rb.Atom(p, {"x"});
    rb.Atom(r, {"x", "y"});
    program.AddRule(rb.Build());
  }
  {
    RuleBuilder rb(vocab);
    rb.Head(q, {"x", "y"});
    rb.Atom(p, {"x"});
    rb.Atom(r, {"x", "y"});
    rb.Atom(p, {"y"});
    program.AddRule(rb.Build());
  }
  std::vector<PredId> preds = {u, r};
  for (unsigned seed = 0; seed < 30; ++seed) {
    Instance stale_src = RandomInstance(vocab, preds, 4, 6, 4000 + seed);
    Instance inst = RandomInstance(vocab, preds, 8, 20, 5000 + seed);
    Stats stale = Stats::Collect(stale_src);

    CompiledProgram compiled(program);
    compiled.BindStats(stale);
    EvalOptions with_stale;
    with_stale.num_threads = 1;
    with_stale.stats_planner = false;
    Instance got = compiled.Eval(inst, nullptr, with_stale);
    EXPECT_EQ(SequenceDigest(got), kStaleDigests[seed]) << "seed " << seed;
    Instance naive = NaiveFpEval(program, inst);
    EvalOptions with_live;
    with_live.num_threads = 1;
    with_live.stats_min_facts = 0;  // instances sit below the size gate
    Instance live = compiled.Eval(inst, nullptr, with_live);

    ASSERT_EQ(naive.num_facts(), got.num_facts()) << "seed " << seed;
    for (const Fact& f : naive.AllFacts()) {
      EXPECT_TRUE(got.HasFact(f)) << "seed " << seed;
    }
    // Same fact set as the default live-stats run (the sequences may
    // differ: join orders change the enumeration order within a round).
    ASSERT_EQ(live.num_facts(), got.num_facts()) << "seed " << seed;
    for (const Fact& f : live.AllFacts()) {
      EXPECT_TRUE(got.HasFact(f)) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mondet
