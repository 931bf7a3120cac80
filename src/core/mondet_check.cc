#include "core/mondet_check.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>

#include "base/check.h"
#include "base/stats.h"
#include "base/thread_pool.h"
#include "core/cq_automaton.h"
#include "core/forward.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/fragment.h"

namespace mondet {

namespace {

/// All expansions of a view definition up to `depth`, capped. Returns
/// (expansions, exhaustive).
std::pair<std::vector<Expansion>, bool> ViewExpansions(const View& view,
                                                       int depth,
                                                       size_t cap) {
  std::vector<Expansion> out;
  bool exhaustive = EnumeratePredExpansions(
      view.definition.program, view.definition.goal, depth, cap,
      [&](const Expansion& e) {
        out.push_back(e);
        return true;
      });
  return {std::move(out), exhaustive};
}

}  // namespace

bool BuildDPrimeInto(Instance& out, const Instance& image,
                     std::span<const Expansion* const> choice,
                     size_t base_elems, std::vector<ElemId>& scratch) {
  out.Clear();
  out.EnsureElements(base_elems);
  for (uint32_t fi = 0; fi < image.num_facts(); ++fi) {
    const FactView fact = image.ViewAt(fi);
    const Expansion& exp = *choice[fi];
    // scratch[0, n) maps the expansion's elements (frontier -> fact args,
    // others fresh); scratch[n, n + arity) stages one fact's arguments.
    const size_t n = exp.inst.num_elements();
    scratch.assign(n, kNoElem);
    for (size_t i = 0; i < exp.frontier.size(); ++i) {
      const ElemId from = exp.frontier[i];
      if (scratch[from] != kNoElem && scratch[from] != fact.args[i]) {
        return false;  // frontier repeats, fact args differ
      }
      scratch[from] = fact.args[i];
    }
    for (ElemId e = 0; e < n; ++e) {
      if (scratch[e] == kNoElem) scratch[e] = out.AddElement();
    }
    for (uint32_t fg = 0; fg < exp.inst.num_facts(); ++fg) {
      const FactView f = exp.inst.ViewAt(fg);
      scratch.resize(n);
      for (ElemId a : f.args) {
        const ElemId mapped = scratch[a];
        scratch.push_back(mapped);
      }
      out.AddFact(f.pred, std::span<const ElemId>(scratch).subspan(n));
    }
  }
  return true;
}

MonDetResult CheckMonotonicDeterminacy(const DatalogQuery& query,
                                       const ViewSet& views,
                                       const MonDetOptions& options) {
  const VocabularyPtr& vocab = query.program.vocab();
  MonDetResult result;

  // Validate the inputs through the analyzer: user-reachable precondition
  // failures return kInvalidInput with witnesses instead of aborting or
  // silently computing garbage.
  if (query.program.vocab().get() != views.vocab().get()) {
    result.diagnostics.push_back(MakeDiagnostic(
        Severity::kError, "view-vocabulary",
        "query and views are defined over different vocabularies"));
  } else {
    if (!query.program.IsIdb(query.goal)) {
      result.diagnostics.push_back(MakeDiagnostic(
          Severity::kError, "goal",
          "goal predicate " + vocab->name(query.goal) +
              " is not the head of any rule"));
    }
    if (options.require_query_fragment) {
      std::vector<Diagnostic> witnesses = FragmentViolations(
          query.program, *options.require_query_fragment);
      result.diagnostics.insert(result.diagnostics.end(), witnesses.begin(),
                                witnesses.end());
    }
    if (options.require_view_fragment) {
      for (const View& v : views.views()) {
        std::vector<Diagnostic> witnesses = FragmentViolations(
            v.definition.program, *options.require_view_fragment);
        for (Diagnostic& d : witnesses) {
          d.message = "view " + vocab->name(v.pred) + ": " + d.message;
        }
        result.diagnostics.insert(result.diagnostics.end(), witnesses.begin(),
                                  witnesses.end());
      }
    }
  }
  if (HasErrors(result.diagnostics)) {
    result.verdict = Verdict::kInvalidInput;
    return result;
  }

  // The query program is evaluated on every candidate D'; compile it once.
  // Each block with a snapshot re-binds it (below).
  CompiledProgram compiled_query(query.program);

  // Pre-enumerate view definition expansions.
  std::map<PredId, std::vector<Expansion>> view_exps;
  bool views_exhaustive = true;
  for (const View& v : views.views()) {
    auto [exps, exhaustive] =
        ViewExpansions(v, options.view_depth, options.max_tests_per_expansion);
    views_exhaustive = views_exhaustive && exhaustive &&
                       IsNonRecursive(v.definition.program);
    view_exps[v.pred] = std::move(exps);
  }

  bool query_exhaustive =
      IsNonRecursive(query.program) &&
      options.query_depth >=
          static_cast<int>(query.program.Idbs().size()) + 1;

  // Collect the query approximations up front; the search then runs one
  // bounded block of (view-choice) tests per expansion, in expansion
  // order, fanning each block out over the shared thread pool.
  std::vector<Expansion> expansions;
  bool enumeration_complete = EnumerateExpansions(
      query, options.query_depth, options.max_query_expansions,
      [&](const Expansion& qi) {
        expansions.push_back(qi);
        return true;
      });

  const int nthreads = std::max(1, ResolveEvalThreads(options.num_threads));
  ThreadPool& pool = ThreadPool::Shared();

  bool all_tests_built = true;
  size_t tests_before = 0;  // Σ block sizes of completed expansions
  constexpr size_t kNoTest = static_cast<size_t>(-1);

  // One D′ buffer per worker, reused by every test of every block: each
  // test clears and refills it, Eval takes it over and hands the fixpoint
  // back as the next test's buffer, so the storage circulates instead of
  // being reallocated per test. The choice and element-map scratch is
  // per worker too.
  struct Worker {
    Instance dprime;
    std::vector<const Expansion*> choice;
    std::vector<ElemId> map;
  };
  std::vector<Worker> workers(nthreads, Worker{Instance(vocab), {}, {}});

  for (size_t ei = 0; ei < expansions.size(); ++ei) {
    const Expansion& qi = expansions[ei];

    // The per-expansion test enumeration walks the image facts in (pred,
    // args) order, so the test numbering is a function of the image's fact
    // *set*, not of the order the evaluator derived it in.
    std::vector<Fact> image_facts = views.Image(qi.inst).AllFacts();
    std::sort(image_facts.begin(), image_facts.end());
    Instance image(vocab);
    image.EnsureElements(qi.inst.num_elements());
    for (const Fact& f : image_facts) image.AddFact(f);

    // Per-fact expansion choices; block size = min(Π choices, cap), the
    // exact number of tests a sequential lexicographic walk would count.
    const size_t nfacts = image.num_facts();
    std::vector<const std::vector<Expansion>*> options_per_fact;
    options_per_fact.reserve(nfacts);
    bool has_empty = false;
    for (uint32_t fg = 0; fg < image.num_facts(); ++fg) {
      const FactView f = image.ViewAt(fg);
      options_per_fact.push_back(&view_exps.at(f.pred));
      if (options_per_fact.back()->empty()) {
        // No expansion of this view within the depth bound: cannot build
        // any D' through this fact.
        has_empty = true;
      }
    }
    const size_t cap = options.max_tests_per_expansion;
    size_t block = 1;
    if (has_empty) {
      all_tests_built = false;
      block = 0;
    } else {
      for (const auto* opts : options_per_fact) {
        size_t c = opts->size();
        if (block > cap / c) {
          all_tests_built = false;
          block = cap;
          break;
        }
        block *= c;
      }
    }

    // Decodes a flat test index into per-fact choices, fact 0 most
    // significant — flat-index order IS the sequential lexicographic
    // order, so "lowest failing index" means "first failure a sequential
    // run would hit".
    auto decode = [&](size_t t, std::vector<const Expansion*>* choice) {
      choice->assign(nfacts, nullptr);
      for (size_t fi = nfacts; fi-- > 0;) {
        const std::vector<Expansion>& opts = *options_per_fact[fi];
        (*choice)[fi] = &opts[t % opts.size()];
        t /= opts.size();
      }
    };

    // One statistics snapshot per block, collected from the first
    // buildable D': every test's D' assembles the same view expansions
    // over the same image facts, so one test's counts describe them all
    // well. The block plans its join orders once from the snapshot
    // (BindStats) and every inner Eval runs them — no per-test collection
    // or planning, and stale stats stay correct by construction. Binding
    // happens sequentially before the fan-out, so the orders are
    // identical at every thread count. A block with no buildable probe
    // keeps the stored orders (compile-time or an earlier block's); the
    // fixpoint does not depend on them.
    EvalOptions eopts;
    eopts.num_threads = 1;
    {
      Worker& probe = workers[0];
      const size_t probe_limit = std::min<size_t>(block, 4);
      for (size_t t = 0; t < probe_limit; ++t) {
        decode(t, &probe.choice);
        if (BuildDPrimeInto(probe.dprime, image, probe.choice,
                            qi.inst.num_elements(), probe.map)) {
          compiled_query.BindStats(Stats::Collect(probe.dprime));
          break;
        }
      }
    }

    std::atomic<size_t> best{kNoTest};
    pool.ParallelFor(block, nthreads, [&](size_t t, int w) {
      // Only skip tests above a known failure: `best` never increases, so
      // the minimum failing index is always evaluated.
      if (t >= best.load(std::memory_order_acquire)) return;
      Worker& wk = workers[w];
      decode(t, &wk.choice);
      if (!BuildDPrimeInto(wk.dprime, image, wk.choice,
                           qi.inst.num_elements(), wk.map)) {
        return;  // unbuildable choice: counted, never a failure
      }
      // The test succeeds if D' |= Q(c) for Qi's frontier tuple c (the
      // paper states the Boolean case; the tuple version is the natural
      // non-Boolean extension). Inner evaluations stay single-threaded —
      // the parallelism budget is spent on the test fan-out.
      wk.dprime = compiled_query.Eval(std::move(wk.dprime), nullptr, eopts);
      const bool holds = wk.dprime.HasFact(query.goal, qi.frontier);
      if (!holds) {
        size_t cur = best.load(std::memory_order_relaxed);
        while (t < cur && !best.compare_exchange_weak(
                              cur, t, std::memory_order_acq_rel)) {
        }
      }
    });

    size_t t_fail = best.load(std::memory_order_acquire);
    if (t_fail != kNoTest) {
      // As-if-sequential accounting: a 1-thread lexicographic walk would
      // have stopped at exactly this test.
      result.expansions_tried = ei + 1;
      result.tests_run = tests_before + t_fail + 1;
      Worker& wk = workers[0];
      decode(t_fail, &wk.choice);
      Instance dprime(vocab);
      const bool built = BuildDPrimeInto(dprime, image, wk.choice,
                                         qi.inst.num_elements(), wk.map);
      MONDET_CHECK(built);
      result.failure.emplace(qi, std::move(dprime));
      result.verdict = Verdict::kNotDetermined;
      return result;
    }
    tests_before += block;
  }

  result.expansions_tried = expansions.size();
  result.tests_run = tests_before;
  if (query_exhaustive && views_exhaustive && enumeration_complete &&
      all_tests_built) {
    result.verdict = Verdict::kDetermined;
  } else {
    result.verdict = Verdict::kUnknownBounded;
  }
  return result;
}

namespace {

/// The (NTA state, DP state) reachability walk of DatalogContainedInUcq:
/// a worklist fixpoint that stops at the first pair interned with a final
/// NTA state and a rejecting DP state. Pairs are interned in a fixed
/// order, so that first bad pair — and the code rebuilt from it — is the
/// lowest-id bad pair of the full fixpoint.
struct ContainmentWalk {
  struct Deriv {
    int kind = -1;  // 0 leaf, 1 unary, 2 binary
    size_t trans = 0;
    int child1 = -1;
    int child2 = -1;
  };
  std::vector<std::pair<State, uint32_t>> pairs;
  std::vector<Deriv> derivs;
  size_t transition_visits = 0;
  int bad = -1;  // pair id, or -1 when contained
};

ContainmentWalk RunContainmentWalk(const Nta& nta, UcqMatchAutomaton& dp) {
  ContainmentWalk w;
  using Deriv = ContainmentWalk::Deriv;
  std::map<std::pair<State, uint32_t>, int> pair_id;
  std::map<State, std::vector<int>> pairs_by_state;
  std::vector<int> worklist;  // FIFO; grows as pairs are discovered
  auto intern = [&](State q, uint32_t d, Deriv deriv) {
    if (w.bad >= 0) return;
    auto key = std::make_pair(q, d);
    auto it = pair_id.find(key);
    if (it != pair_id.end()) return;
    int id = static_cast<int>(w.pairs.size());
    pair_id.emplace(key, id);
    w.pairs.push_back(key);
    w.derivs.push_back(deriv);
    pairs_by_state[q].push_back(id);
    worklist.push_back(id);
    if (nta.finals().count(q) > 0 && !dp.Accepting(d)) w.bad = id;
  };

  // Transition indexes keyed by child state: popping a pair consults only
  // the transitions it can feed, joining against the pairs already known
  // for the sibling state — the same delta-against-saturated shape as
  // semi-naive rule evaluation, replacing the full rescan per round.
  std::map<State, std::vector<size_t>> unary_by_child;
  for (size_t ti = 0; ti < nta.unary_transitions().size(); ++ti) {
    unary_by_child[nta.unary_transitions()[ti].child].push_back(ti);
  }
  std::map<State, std::vector<size_t>> binary_by_child1, binary_by_child2;
  for (size_t ti = 0; ti < nta.binary_transitions().size(); ++ti) {
    binary_by_child1[nta.binary_transitions()[ti].child1].push_back(ti);
    binary_by_child2[nta.binary_transitions()[ti].child2].push_back(ti);
  }

  for (size_t ti = 0; ti < nta.leaf_transitions().size() && w.bad < 0;
       ++ti) {
    const auto& t = nta.leaf_transitions()[ti];
    ++w.transition_visits;
    intern(t.to, dp.Leaf(t.label), Deriv{0, ti, -1, -1});
  }
  for (size_t wi = 0; wi < worklist.size() && w.bad < 0; ++wi) {
    const int pi = worklist[wi];
    const State q = w.pairs[pi].first;
    const uint32_t dq = w.pairs[pi].second;
    if (auto it = unary_by_child.find(q); it != unary_by_child.end()) {
      for (size_t ti : it->second) {
        if (w.bad >= 0) break;
        const auto& t = nta.unary_transitions()[ti];
        ++w.transition_visits;
        intern(t.to, dp.Unary(dq, t.label, t.edge), Deriv{1, ti, pi, -1});
      }
    }
    // Binary joins pair the popped state with every known sibling pair.
    // The partner list is snapshotted by size: partners interned later
    // re-pair with `pi` when they pop (pi is already in pairs_by_state),
    // so every combination is applied at least once and O(1) times.
    if (auto it = binary_by_child1.find(q);
        it != binary_by_child1.end() && w.bad < 0) {
      for (size_t ti : it->second) {
        if (w.bad >= 0) break;
        const auto& t = nta.binary_transitions()[ti];
        auto pit = pairs_by_state.find(t.child2);
        if (pit == pairs_by_state.end()) continue;
        size_t n = pit->second.size();
        for (size_t k = 0; k < n && w.bad < 0; ++k) {
          int p2 = pit->second[k];
          ++w.transition_visits;
          intern(t.to,
                 dp.Binary(dq, w.pairs[p2].second, t.label, t.edge1, t.edge2),
                 Deriv{2, ti, pi, p2});
        }
      }
    }
    if (auto it = binary_by_child2.find(q);
        it != binary_by_child2.end() && w.bad < 0) {
      for (size_t ti : it->second) {
        if (w.bad >= 0) break;
        const auto& t = nta.binary_transitions()[ti];
        auto pit = pairs_by_state.find(t.child1);
        if (pit == pairs_by_state.end()) continue;
        size_t n = pit->second.size();
        for (size_t k = 0; k < n && w.bad < 0; ++k) {
          int p1 = pit->second[k];
          ++w.transition_visits;
          intern(t.to,
                 dp.Binary(w.pairs[p1].second, dq, t.label, t.edge1, t.edge2),
                 Deriv{2, ti, p1, pi});
        }
      }
    }
  }
  return w;
}

/// Reconstructs the violating code from a walk's derivation records.
TreeCode BuildContainmentCode(const Nta& nta, int width,
                              const ContainmentWalk& w, int bad) {
  TreeCode code;
  code.width = width;
  std::function<int(int, int)> build = [&](int pi, int parent) -> int {
    const ContainmentWalk::Deriv& d = w.derivs[pi];
    int id = static_cast<int>(code.nodes.size());
    code.nodes.emplace_back();
    code.nodes[id].parent = parent;
    if (d.kind == 0) {
      const auto& t = nta.leaf_transitions()[d.trans];
      code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
    } else if (d.kind == 1) {
      const auto& t = nta.unary_transitions()[d.trans];
      code.nodes[id].atoms.insert(t.label.begin(), t.label.end());
      int c = build(d.child1, id);
      code.nodes[id].children.push_back(c);
      code.nodes[id].edge_labels.push_back(t.edge);
    } else {
      const auto& t = nta.binary_transitions()[d.trans];
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
  return code;
}

}  // namespace

ContainmentResult DatalogContainedInUcq(const DatalogQuery& query,
                                        const UCQ& ucq) {
  ContainmentResult result;
  ForwardResult fwd = ApproximationAutomaton(query);
  const Nta& nta = fwd.automaton;
  UcqMatchAutomaton dp(ucq, fwd.width);
  ContainmentWalk w = RunContainmentWalk(nta, dp);
  result.pairs_explored = w.pairs.size();
  result.transition_visits = w.transition_visits;
  result.macrostates_visited = dp.num_states();
  if (w.bad < 0) {
    result.contained = true;
    return result;
  }
  result.counterexample = BuildContainmentCode(nta, fwd.width, w, w.bad);
  return result;
}

Thm5Result CheckCqOverDatalogViews(const CQ& query, const ViewSet& views) {
  MONDET_CHECK(query.free_vars().empty());
  const VocabularyPtr& vocab = query.vocab();

  // Q'' = Π_V ∪ { Goal'' ← V(Q) }: the views applied to Q's canonical
  // database, read back as a query over the view schema, with the view
  // definitions as rules.
  Instance canon = query.CanonicalDb();
  Instance image = views.Image(canon);
  Program program = views.CombinedProgram();
  PredId goal2 = vocab->AddPredicate("Thm5.Goal", 0);
  Rule goal_rule;
  for (size_t e = 0; e < canon.num_elements(); ++e) {
    goal_rule.var_names.push_back(canon.element_name(static_cast<ElemId>(e)));
  }
  goal_rule.head = QAtom(goal2, {});
  for (uint32_t fg = 0; fg < image.num_facts(); ++fg) {
    const FactView f = image.ViewAt(fg);
    goal_rule.body.push_back(
        QAtom(f.pred, std::vector<VarId>(f.args.begin(), f.args.end())));
  }
  program.AddRule(std::move(goal_rule));
  DatalogQuery q2(std::move(program), goal2);

  UCQ target(vocab);
  target.AddDisjunct(query);
  ContainmentResult contained = DatalogContainedInUcq(q2, target);

  Thm5Result out;
  out.determined = contained.contained;
  out.pairs_explored = contained.pairs_explored;
  out.transition_visits = contained.transition_visits;
  out.macrostates_visited = contained.macrostates_visited;
  out.counterexample = std::move(contained.counterexample);
  return out;
}

}  // namespace mondet
