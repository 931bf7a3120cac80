// Regression pins for live join planning (EvalOptions::stats_planner with
// no snapshot): on the Figure 4 row family (the long-R-rows workload of
// bench_fig4_longrows) and on a same-generation program, the recounted
// statistics, the re-plan points and hence every join order are fixed, so
// the deterministic counters of a 1-thread run are pinned as numbers.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/program.h"
#include "reductions/thm7.h"
#include "views/inverse_rules.h"

namespace mondet {
namespace {

/// A same-generation program over a complete binary tree of `depth`
/// levels with flat siblings: two recursive strata (Anc, then Sg) whose
/// relations grow past the re-plan threshold several times.
struct SgFamily {
  Program program;
  Instance input;
};

SgFamily MakeSgFamily(int depth) {
  auto vocab = MakeVocabulary();
  PredId par = vocab->AddPredicate("Par", 2);
  PredId flat = vocab->AddPredicate("Flat", 2);
  PredId anc = vocab->AddPredicate("Anc", 2);
  PredId sg = vocab->AddPredicate("Sg", 2);
  Program program(vocab);
  auto rule = [&](PredId head, std::vector<std::string> hargs,
                  std::vector<std::pair<PredId, std::vector<std::string>>>
                      body) {
    RuleBuilder rb(vocab);
    rb.Head(head, hargs);
    for (auto& [p, args] : body) rb.Atom(p, args);
    program.AddRule(rb.Build());
  };
  rule(anc, {"x", "y"}, {{par, {"x", "y"}}});
  rule(anc, {"x", "z"}, {{anc, {"x", "y"}}, {par, {"y", "z"}}});
  rule(sg, {"x", "y"}, {{flat, {"x", "y"}}});
  rule(sg, {"x", "y"},
       {{par, {"a", "x"}}, {sg, {"a", "b"}}, {par, {"b", "y"}}});
  rule(sg, {"x", "y"}, {{anc, {"x", "y"}}, {sg, {"y", "y"}}});
  Instance input(vocab);
  const ElemId nodes = (ElemId{1} << depth) - 1;
  for (ElemId v = 0; v < nodes; ++v) input.AddElement();
  for (ElemId v = 1; v < nodes; ++v) {
    input.AddFact(par, {(v - 1) / 2, v});
    if (v % 2 == 1 && v + 1 < nodes) input.AddFact(flat, {v, v + 1});
  }
  input.AddFact(flat, {0, 0});
  return {std::move(program), std::move(input)};
}

TEST(PlanConvergenceTest, LivePlanningCountersArePinned) {
  // Live planning at one thread on two families. The numbers were recorded when the live statistics
  // were still folded in fact by fact at every merge barrier; recounting
  // at stratum entry and at each re-plan reads the same exact counts at
  // the same points, so every join order — and with it every counter
  // below — must be unchanged. Eval seats the Fig. 4 rewriting's
  // provably dead rules like any other, so fig4/96 counts their empty
  // round and probe too.
  Thm7Gadget gadget = BuildThm7();
  DatalogQuery rewriting = InverseRulesRewriting(gadget.query, gadget.views);
  CompiledProgram fig4(rewriting.program);
  SgFamily sg = MakeSgFamily(7);
  CompiledProgram sg_compiled(sg.program);

  struct Pin {
    const char* name;
    const CompiledProgram* compiled;
    Instance input;
    size_t iterations, facts_derived, join_probes, replans;
  };
  const std::vector<Pin> pins = {
      {"fig4/24", &fig4, gadget.views.Image(gadget.DiamondChain(24)), 36, 123,
       244, 5},
      {"fig4/96", &fig4, gadget.views.Image(gadget.DiamondChain(96)), 108,
       483, 964, 7},
      {"sg/7", &sg_compiled, sg.input, 16, 11437, 25414, 8},
  };
  for (const Pin& pin : pins) {
    EvalOptions options;
    options.num_threads = 1;
    options.stats_min_facts = 0;  // force live planning on every input
    EvalStats stats;
    pin.compiled->Eval(pin.input, &stats, options);
    RecordProperty(pin.name, stats.Summary());
    EXPECT_GT(stats.replans, 0u) << pin.name;
    EXPECT_EQ(stats.iterations, pin.iterations) << pin.name;
    EXPECT_EQ(stats.facts_derived, pin.facts_derived) << pin.name;
    EXPECT_EQ(stats.join_probes, pin.join_probes) << pin.name;
    EXPECT_EQ(stats.replans, pin.replans) << pin.name;
  }
}

}  // namespace
}  // namespace mondet
