// Determinism test for the parallel counterexample-search pipeline: on
// randomized query/view pairs, CheckMonotonicDeterminacy must produce a
// bit-identical result — verdict, counterexample, tests_run,
// expansions_tried — at 1 and at 4 threads. A golden table additionally
// pins the result of the same pairs and of both Thm 6 tiling gadgets at
// the perfbench `decide` caps, at the default thread count: each block of
// canonical tests binds its statistics snapshot before fanning out, and
// the verdicts, counts and failing D′ must not move with that plumbing.
//
// The generator and checker live in the shared randomized-testing
// library (testing/oracle.h, oracle `mondet-parallel`); `mondet-fuzz`
// drives the same property over open-ended seed ranges with shrinking.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/mondet_check.h"
#include "reductions/thm6.h"
#include "reductions/tiling.h"
#include "testing/generator.h"
#include "testing/oracle.h"

namespace mondet {
namespace {

class MonDetParallel : public ::testing::TestWithParam<unsigned> {};

TEST_P(MonDetParallel, DeterministicAcrossThreads) {
  const testing::Oracle* oracle = testing::FindOracle("mondet-parallel");
  ASSERT_NE(oracle, nullptr);
  testing::OracleOutcome out = oracle->Check(oracle->Generate(GetParam()));
  EXPECT_TRUE(out.ok) << out.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonDetParallel, ::testing::Range(0u, 100u));

/// One pinned CheckMonotonicDeterminacy result; `dprime` is the FNV-1a
/// digest of the failing D′'s DebugString, 0 when no test failed.
struct GoldenResult {
  Verdict verdict;
  size_t tests_run;
  size_t expansions_tried;
  uint64_t dprime;
};

uint64_t StringDigest(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// The perfbench `decide` caps (perfbench/workloads.cc).
MonDetOptions DecideCaps() {
  MonDetOptions o;
  o.query_depth = 4;
  o.view_depth = 3;
  o.max_query_expansions = 12;
  o.max_tests_per_expansion = 120;
  return o;
}

void ExpectGolden(const MonDetResult& got, const GoldenResult& want,
                  const std::string& what) {
  EXPECT_EQ(got.verdict, want.verdict) << what;
  EXPECT_EQ(got.tests_run, want.tests_run) << what;
  EXPECT_EQ(got.expansions_tried, want.expansions_tried) << what;
  EXPECT_EQ(got.failure ? StringDigest(got.failure->dprime.DebugString()) : 0,
            want.dprime)
      << what;
}

TEST(MonDetGolden, RandomPairsAtDecideCaps) {
  const GoldenResult kWant[100] = {
    {Verdict::kNotDetermined, 1, 1, 0x079480ca41a7b022ull},
    {Verdict::kNotDetermined, 1, 1, 0x0f5da9ca45d11409ull},
    {Verdict::kNotDetermined, 2, 2, 0x9bf65e00c699fdafull},
    {Verdict::kUnknownBounded, 6, 6, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x580ec36732102c6eull},
    {Verdict::kNotDetermined, 1, 1, 0x9bf65e00c699fdafull},
    {Verdict::kNotDetermined, 1, 1, 0x9bf65e00c699fdafull},
    {Verdict::kNotDetermined, 2, 1, 0xb905041267c49b43ull},
    {Verdict::kNotDetermined, 1, 1, 0x0f5da9ca45d11409ull},
    {Verdict::kNotDetermined, 1, 1, 0x61b7d0370e9a113bull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kDetermined, 2, 2, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0xed86b5b6771527eaull},
    {Verdict::kDetermined, 7, 7, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 4, 2, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x0f5da9ca45d11409ull},
    {Verdict::kUnknownBounded, 1, 1, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 10, 2, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 2, 2, 0x366f0336f6178940ull},
    {Verdict::kUnknownBounded, 4, 2, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0xc2e3241d1e83b5a8ull},
    {Verdict::kDetermined, 3, 3, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x0f5da9ca45d11409ull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 4, 4, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 9, 1, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x0dd5ddffae4cf8a7ull},
    {Verdict::kNotDetermined, 1, 1, 0x7d1efebdf260f357ull},
    {Verdict::kNotDetermined, 2, 2, 0x9bf65e00c699fdafull},
    {Verdict::kNotDetermined, 1, 1, 0x9bf65e00c699fdafull},
    {Verdict::kDetermined, 3, 3, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 19, 3, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x0f5da9ca45d11409ull},
    {Verdict::kUnknownBounded, 1, 1, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 4, 2, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 2, 2, 0x9bf65e00c699fdafull},
    {Verdict::kNotDetermined, 1, 1, 0x2153f7ca502c0837ull},
    {Verdict::kUnknownBounded, 1, 1, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 2, 2, 0x079480ca41a7b022ull},
    {Verdict::kNotDetermined, 1, 1, 0x9bf65e00c699fdafull},
    {Verdict::kUnknownBounded, 1, 1, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x079480ca41a7b022ull},
    {Verdict::kUnknownBounded, 12, 2, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x366f0336f6178940ull},
    {Verdict::kNotDetermined, 1, 1, 0x2dbede36f129fe09ull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 2, 2, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x758bd5bdee651ee0ull},
    {Verdict::kNotDetermined, 1, 1, 0x9bf65e00c699fdafull},
    {Verdict::kNotDetermined, 1, 1, 0x9bf65e00c699fdafull},
    {Verdict::kNotDetermined, 1, 1, 0x368efc96ed29fd4aull},
    {Verdict::kNotDetermined, 1, 1, 0x60b0ec6736f18115ull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 2, 2, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x9bf65e00c699fdafull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x079480ca41a7b022ull},
    {Verdict::kUnknownBounded, 1, 1, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x9bf65e00c699fdafull},
    {Verdict::kUnknownBounded, 91, 3, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 2, 2, 0x079480ca41a7b022ull},
    {Verdict::kNotDetermined, 1, 1, 0x173a3d0e2771e4b8ull},
    {Verdict::kNotDetermined, 1, 1, 0x825a09762c52a5eaull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x4d814ea665ea678dull},
    {Verdict::kNotDetermined, 2, 2, 0x0f5da9ca45d11409ull},
    {Verdict::kUnknownBounded, 2, 2, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x0f5da9ca45d11409ull},
    {Verdict::kUnknownBounded, 3, 1, 0x0000000000000000ull},
    {Verdict::kDetermined, 3, 3, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 2, 2, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x06c0ef0e1e5af59aull},
    {Verdict::kNotDetermined, 1, 1, 0x9bf65e00c699fdafull},
    {Verdict::kNotDetermined, 1, 1, 0x9bf65e00c699fdafull},
    {Verdict::kUnknownBounded, 6, 2, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0xe7e419df8a1ab9d1ull},
    {Verdict::kNotDetermined, 2, 2, 0x9bf65e00c699fdafull},
    {Verdict::kUnknownBounded, 4, 2, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x0dd5ddffae4cf8a7ull},
    {Verdict::kNotDetermined, 1, 1, 0x9bf65e00c699fdafull},
    {Verdict::kNotDetermined, 4, 2, 0xfadcf9ca7c56cf73ull},
    {Verdict::kNotDetermined, 1, 1, 0xa0545cd31dc9071dull},
    {Verdict::kUnknownBounded, 0, 0, 0x0000000000000000ull},
    {Verdict::kNotDetermined, 1, 1, 0x366f0336f6178940ull},
    {Verdict::kNotDetermined, 1, 1, 0x5d183777e8188e8cull},
    {Verdict::kNotDetermined, 2, 2, 0x25f5b536ed009a22ull},
    {Verdict::kNotDetermined, 1, 1, 0x079480ca41a7b022ull},
    {Verdict::kNotDetermined, 1, 1, 0xf9fd6fd70aed4cdaull},
    {Verdict::kNotDetermined, 1, 1, 0xc2e3241d1e83b5a8ull},
    {Verdict::kUnknownBounded, 3, 1, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 1, 1, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 1, 1, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 3, 1, 0x0000000000000000ull},
    {Verdict::kUnknownBounded, 2, 2, 0x0000000000000000ull},
  };
  const testing::Oracle* oracle = testing::FindOracle("mondet-parallel");
  ASSERT_NE(oracle, nullptr);
  for (unsigned seed = 0; seed < 100; ++seed) {
    testing::FuzzCase c = oracle->Generate(seed);
    DatalogQuery query(*c.program, c.profile.goal);
    ViewSet views = testing::BuildViews(c.profile.vocab, c.views);
    ExpectGolden(CheckMonotonicDeterminacy(query, views, DecideCaps()),
                 kWant[seed], "seed " + std::to_string(seed));
  }
}

TEST(MonDetGolden, Thm6GadgetsAtDecideCaps) {
  // The solvable tiling is refuted by its 3x1 grid test; the unsolvable
  // one exhausts the caps without a failure.
  Thm6Gadget solvable = BuildThm6(SolvableTilingProblem());
  ExpectGolden(
      CheckMonotonicDeterminacy(solvable.query, solvable.views, DecideCaps()),
      {Verdict::kNotDetermined, 257, 3, 0x25f2c4a0a5de93c3ull}, "solvable");
  Thm6Gadget unsolvable = BuildThm6(UnsolvableTilingProblem());
  ExpectGolden(CheckMonotonicDeterminacy(unsolvable.query, unsolvable.views,
                                         DecideCaps()),
               {Verdict::kUnknownBounded, 296, 12, 0x0000000000000000ull},
               "unsolvable");
}

}  // namespace
}  // namespace mondet
