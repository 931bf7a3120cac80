// Regression pins for the stored join orders: on the Figure 4 row family
// (the long-R-rows workload of bench_fig4_longrows) and on a
// same-generation program, the compile-time orders and the orders
// BindStats plans from the input's statistics are fixed, so the
// deterministic counters of a 1-thread run under each are pinned as
// numbers. A change to either planner's choice of order shows here.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "base/stats.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/program.h"
#include "reductions/thm7.h"
#include "views/inverse_rules.h"

namespace mondet {
namespace {

/// A same-generation program over a complete binary tree of `depth`
/// levels with flat siblings: two recursive strata (Anc, then Sg) whose
/// relations grow many times over during the run.
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

TEST(PlanConvergenceTest, StoredOrderCountersArePinned) {
  // Each family at one thread, first under the compile-time (EDB-first)
  // orders, then under the orders BindStats plans from a snapshot of the
  // input. Eval seats the Fig. 4 rewriting's provably dead rules like any
  // other, so fig4/96 counts their empty round and probe too.
  Thm7Gadget gadget = BuildThm7();
  DatalogQuery rewriting = InverseRulesRewriting(gadget.query, gadget.views);
  SgFamily sg = MakeSgFamily(7);

  struct Counts {
    size_t iterations, facts_derived, join_probes;
  };
  struct Pin {
    const char* name;
    const Program* program;
    Instance input;
    Counts compile_time, bound;
  };
  const std::vector<Pin> pins = {
      {"fig4/24", &rewriting.program,
       gadget.views.Image(gadget.DiamondChain(24)), {36, 123, 454},
       {36, 123, 364}},
      {"fig4/96", &rewriting.program,
       gadget.views.Image(gadget.DiamondChain(96)), {108, 483, 1822},
       {108, 483, 1444}},
      {"sg/7", &sg.program, sg.input, {16, 11437, 26950}, {16, 11437, 26698}},
  };
  for (const Pin& pin : pins) {
    CompiledProgram compiled(*pin.program);
    for (bool bind : {false, true}) {
      const std::string tag =
          std::string(pin.name) + (bind ? " bound" : " compile-time");
      if (bind) compiled.BindStats(Stats::Collect(pin.input));
      const Counts& want = bind ? pin.bound : pin.compile_time;
      EvalStats stats;
      compiled.Eval(pin.input, &stats, EvalOptions{1});
      RecordProperty(tag, stats.Summary());
      EXPECT_EQ(stats.iterations, want.iterations) << tag;
      EXPECT_EQ(stats.facts_derived, want.facts_derived) << tag;
      EXPECT_EQ(stats.join_probes, want.join_probes) << tag;
    }
  }
}

}  // namespace
}  // namespace mondet
