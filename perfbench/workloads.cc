#include "workloads.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "analysis/analyzer.h"
#include "base/stats.h"
#include "core/mondet_check.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "testing/reference.h"
#include "views/inverse_rules.h"
#include "views/maintained_image.h"

namespace perfbench {

using mondet::DatalogQuery;
using mondet::Instance;
using mondet::MonDetResult;
using mondet::Verdict;
using mondet::ViewSet;

void Counters::AddEval(const mondet::EvalStats& s, double seconds) {
  facts_derived += static_cast<double>(s.facts_derived);
  join_probes += static_cast<double>(s.join_probes);
  iterations += static_cast<double>(s.iterations);
  replans += static_cast<double>(s.replans);
  rules_pruned += static_cast<double>(s.rules_pruned);
  stats_facts_counted += static_cast<double>(s.stats_facts_counted);
  overdeleted += static_cast<double>(s.overdeleted);
  rederived += static_cast<double>(s.rederived);
  facts_retracted += static_cast<double>(s.facts_retracted);
  fixpoint_s += seconds;
}

namespace {

// ---------------------------------------------------------------------------
// Task parsing: the section split and parser calls of mondet_cli.

struct ParsedTask {
  mondet::VocabularyPtr vocab = mondet::MakeVocabulary();
  std::optional<DatalogQuery> query;
  ViewSet views{vocab};
  std::optional<Instance> instance;
  std::optional<std::string> stream_body;
};

struct Section {
  std::string kind;
  std::string arg;
  std::string body;
};

std::vector<Section> SplitSections(const std::string& text) {
  std::vector<Section> sections;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(".", 0) == 0) {
      std::istringstream header(line.substr(1));
      Section s;
      header >> s.kind >> s.arg;
      sections.push_back(s);
    } else if (!sections.empty()) {
      sections.back().body += line + "\n";
    }
  }
  return sections;
}

void ThrowOnErrors(const std::string& where,
                   const std::vector<mondet::Diagnostic>& diags) {
  if (mondet::HasErrors(diags)) {
    throw std::runtime_error(where + ": " + mondet::FormatDiagnostics(diags));
  }
}

/// Parses task text; any diagnostic error throws (the op fails).
ParsedTask ParseTask(const std::string& text) {
  ParsedTask t;
  for (const Section& s : SplitSections(text)) {
    std::vector<mondet::Diagnostic> diags;
    if (s.kind == "query") {
      t.query = mondet::ParseQuery(s.body, s.arg, t.vocab, &diags);
      if (!t.query) diags.push_back(mondet::MakeDiagnostic(
          mondet::Severity::kError, "goal", "no query " + s.arg));
    } else if (s.kind == "view") {
      mondet::ParseResult result = mondet::ParseProgram(s.body, t.vocab);
      ThrowOnErrors(".view " + s.arg, result.diagnostics);
      auto goal = t.vocab->FindPredicate(s.arg);
      if (!goal || !result.program) {
        throw std::runtime_error(".view " + s.arg + ": goal not defined");
      }
      t.views.TryAddView(s.arg,
                         DatalogQuery(std::move(*result.program), *goal),
                         &diags);
    } else if (s.kind == "instance") {
      t.instance = mondet::ParseInstance(s.body, t.vocab, &diags);
    } else if (s.kind == "stream") {
      t.stream_body = s.body;
    } else {
      throw std::runtime_error("unknown section ." + s.kind);
    }
    ThrowOnErrors("." + s.kind + " " + s.arg, diags);
  }
  if (!t.query) throw std::runtime_error("task has no .query section");
  return t;
}

bool Holds(const mondet::Program& program, mondet::PredId goal,
           const Instance& inst) {
  return mondet::NaiveFpEval(program, inst).NumRows(goal) > 0;
}

/// Order-independent digest of a fact set over fixed element ids.
uint64_t FactSetHash(const Instance& inst) {
  uint64_t sum = 0;
  for (const mondet::Fact& f : inst.AllFacts()) {
    sum += mondet::SplitMix64(mondet::HashFactKey(f.pred, f.args));
  }
  return sum;
}

/// The query as a CQ when it is a single rule over EDBs only.
std::optional<mondet::CQ> AsCq(const DatalogQuery& q) {
  const auto& rules = q.program.rules();
  if (rules.size() != 1) return std::nullopt;
  for (const mondet::QAtom& a : rules[0].body) {
    if (q.program.IsIdb(a.pred)) return std::nullopt;
  }
  mondet::CQ cq(q.program.vocab());
  for (const std::string& name : rules[0].var_names) cq.AddVar(name);
  for (const mondet::QAtom& a : rules[0].body) cq.AddAtom(a);
  cq.SetFreeVars(rules[0].head.args);
  return cq;
}

bool RepeatsArgs(const std::vector<mondet::VarId>& args) {
  std::vector<mondet::VarId> sorted = args;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

/// The precondition core/forward.cc checks (by aborting) when Thm 5 builds
/// the automaton of Q'' = Π_V ∪ {Goal'' ← V(Q)}: no rule head and no IDB
/// body atom repeats a variable, which for the goal rule means no fact of
/// V(canonical DB of Q) repeats an element.
bool Thm5Applicable(const mondet::CQ& cq, const ViewSet& views) {
  for (const mondet::View& v : views.views()) {
    const mondet::Program& p = v.definition.program;
    for (const mondet::Rule& r : p.rules()) {
      if (RepeatsArgs(r.head.args)) return false;
      for (const mondet::QAtom& a : r.body) {
        if (p.IsIdb(a.pred) && RepeatsArgs(a.args)) return false;
      }
    }
  }
  for (const mondet::Fact& f : views.Image(cq.CanonicalDb()).AllFacts()) {
    if (views.FindView(f.pred) != nullptr && RepeatsArgs(f.args)) return false;
  }
  return true;
}

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kDetermined: return "determined";
    case Verdict::kNotDetermined: return "not-determined";
    case Verdict::kUnknownBounded: return "bounded";
    case Verdict::kInvalidInput: return "invalid";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// decide: parse -> analyze -> Lemma 5 check (Thm 5 for a CQ query over
// views that are not all CQ) -> inverse-rules rewriting for CQ views ->
// evaluation on the tiny instance, when the task has one.

class Decide : public Workload {
 public:
  Decide() {
    // One cap set for every task. The Thm 6 Table 2 bench's caps (40
    // expansions x 3000 tests) let a rare generated task run ~150 ms where
    // the median task takes ~0.2 ms; these bound a task to 1440 tests and
    // still refute the solvable tiling gadget.
    options_.query_depth = 4;
    options_.view_depth = 3;
    options_.max_query_expansions = 12;
    options_.max_tests_per_expansion = 120;
  }

  void Setup(unsigned seed, Size size, Tracer*, Counters*) override {
    tasks_ = DecideTasks(seed, size);
    // A repeated set-up (same seed) rebuilds the same tasks: keep the
    // reference answers cached for them.
    if (refs_.size() != tasks_.size()) {
      refs_.assign(tasks_.size(), Reference{});
    }
  }

  size_t PassSize() const override { return tasks_.size(); }
  size_t WindowOps() const override { return 100 * kDecideRound; }

  void RunOp(size_t i, Tracer* tracer, Counters* c) override {
    out_ = Output{};
    Output& o = out_;
    {
      Tracer::Scope span(tracer, Layer::kParse);
      o.task = ParseTask(tasks_[i].text);
    }
    const DatalogQuery& query = *o.task.query;
    if (o.task.instance) c->parse_facts += o.task.instance->num_facts();
    std::optional<mondet::CompiledProgram> compiled;
    {
      Tracer::Scope span(tracer, Layer::kCompile);
      compiled.emplace(query.program);
      if (o.task.instance) {
        compiled->BindStats(mondet::Stats::Collect(*o.task.instance));
      }
    }
    {
      Tracer::Scope span(tracer, Layer::kAnalysis);
      mondet::AnalysisOptions aopts;
      aopts.goal = query.goal;
      aopts.fragment_notes = false;
      aopts.compiled = &*compiled;
      ThrowOnErrors("analysis",
                    mondet::AnalyzeProgram(query.program, aopts).diagnostics);
    }
    // The generator keeps these tasks inside Thm5Applicable (tasks.cc),
    // which Check() confirms.
    std::optional<mondet::CQ> cq = AsCq(query);
    o.via_thm5 = cq && !o.task.views.AllCq();
    if (o.via_thm5) {
      mondet::Thm5Result r;
      {
        Tracer::Scope span(tracer, Layer::kThm5);
        r = mondet::CheckCqOverDatalogViews(*cq, o.task.views);
      }
      c->thm5_pairs += r.pairs_explored;
      c->thm5_visits += r.transition_visits;
      c->thm5_macrostates += r.macrostates_visited;
      c->thm5_prunes += r.subsumption_prunes;
      o.verdict = r.determined ? Verdict::kDetermined : Verdict::kNotDetermined;
      o.counterexample = std::move(r.counterexample);
    } else {
      MonDetResult r;
      {
        Tracer::Scope span(tracer, Layer::kCheck);
        r = mondet::CheckMonotonicDeterminacy(query, o.task.views, options_);
      }
      c->check_tests += r.tests_run;
      c->check_expansions += r.expansions_tried;
      o.verdict = r.verdict;
      o.tests_run = r.tests_run;
      o.failure = std::move(r.failure);
    }
    if (o.verdict == Verdict::kDetermined ||
        o.verdict == Verdict::kNotDetermined) {
      c->exact += 1;
    }
    if (o.task.views.AllCq() && o.verdict != Verdict::kNotDetermined) {
      Tracer::Scope span(tracer, Layer::kRewrite);
      o.rewriting = mondet::InverseRulesRewriting(query, o.task.views);
      c->rewrite_rules += o.rewriting->program.rules().size();
    }
    if (o.task.instance) {
      mondet::EvalStats stats;
      int64_t t0 = NowNs();
      {
        Tracer::Scope span(tracer, Layer::kEvalSmall);
        o.q_holds = compiled->Eval(*o.task.instance, &stats)
                        .NumRows(query.goal) > 0;
      }
      c->AddEval(stats, (NowNs() - t0) * 1e-9);
      if (o.rewriting) {
        Instance image(o.task.vocab);
        {
          Tracer::Scope span(tracer, Layer::kImage);
          image = o.task.views.Image(*o.task.instance);
        }
        Tracer::Scope span(tracer, Layer::kHolds);
        o.rw_holds = mondet::DatalogHoldsOn(*o.rewriting, image);
      }
    }
  }

  size_t Check(size_t i, bool corrupt) override {
    const Task& task = tasks_[i];
    const Output& o = out_;
    Verdict verdict = o.verdict;
    bool has_witness = o.failure.has_value() || o.counterexample.has_value();
    if (corrupt) {  // claim "not determined", without a witness
      verdict = Verdict::kNotDetermined;
      has_witness = false;
    }
    std::string where = "decide task " + std::to_string(i) + " (" +
                        task.family + ", " + VerdictName(verdict) + ")";
    const DatalogQuery& query = *o.task.query;
    auto fail = [&](const std::string& what) {
      Fail(where + ": " + what);
      return size_t{1};
    };
    if (verdict == Verdict::kInvalidInput) return fail("invalid input");
    switch (task.expect) {
      case Expect::kNone: break;
      case Expect::kDetermined:
        if (verdict != Verdict::kDetermined) return fail("paper: determined");
        break;
      case Expect::kNotDetermined:
        if (verdict != Verdict::kNotDetermined) {
          return fail("paper: not determined");
        }
        break;
      case Expect::kNotRefuted:
        if (verdict == Verdict::kNotDetermined) {
          return fail("paper: determined, but refuted");
        }
        break;
    }
    if (verdict == Verdict::kNotDetermined && !has_witness) {
      return fail("no counterexample");
    }
    Reference& ref = refs_[i];
    if (ref.done) {
      if (verdict != ref.verdict || o.tests_run != ref.tests_run ||
          o.q_holds != ref.q_holds) {
        return fail("differs from the first run of the task");
      }
    } else {
      // Witnesses, re-verified with the naive reference evaluator.
      if (o.failure && !corrupt) {
        if (!Holds(query.program, query.goal, o.failure->approximation.inst)) {
          return fail("Q fails on the witness approximation");
        }
        if (Holds(query.program, query.goal, o.failure->dprime)) {
          return fail("Q holds on the witness D'");
        }
      }
      if (o.counterexample && !corrupt &&
          Holds(query.program, query.goal,
                o.counterexample->Decode(o.task.vocab))) {
        return fail("Q holds on the Thm 5 counterexample");
      }
      // A CQ query is decided by both procedures; they must agree.
      std::optional<mondet::CQ> cq = AsCq(query);
      const bool thm5_applies = cq && Thm5Applicable(*cq, o.task.views);
      if (o.via_thm5 && !thm5_applies) {
        return fail("Thm 5 ran outside its precondition");
      }
      if (thm5_applies) {
        bool thm5 = o.via_thm5
                        ? verdict == Verdict::kDetermined
                        : mondet::CheckCqOverDatalogViews(*cq, o.task.views)
                              .determined;
        Verdict lemma5 =
            o.via_thm5 ? mondet::CheckMonotonicDeterminacy(
                             query, o.task.views, options_)
                             .verdict
                       : verdict;
        if ((lemma5 == Verdict::kNotDetermined && thm5) ||
            (lemma5 == Verdict::kDetermined && !thm5)) {
          return fail(std::string("Lemma 5 says ") + VerdictName(lemma5) +
                      ", Thm 5 says " +
                      (thm5 ? "determined" : "not determined"));
        }
      }
      if (o.task.instance &&
          o.q_holds != Holds(query.program, query.goal, *o.task.instance)) {
        return fail("Q(I) differs from the naive fixpoint");
      }
      ref = {true, verdict, o.tests_run, o.q_holds};
    }
    if (o.rewriting && o.task.instance) {
      // The rewriting computes certain answers: sound always, complete
      // when Q is determined.
      if (o.rw_holds && !o.q_holds) return fail("rewriting(V(I)) but not Q(I)");
      if (verdict == Verdict::kDetermined && o.rw_holds != o.q_holds) {
        return fail("Q(I) != rewriting(V(I)) on a determined task");
      }
    }
    return 0;
  }

 private:
  struct Output {
    ParsedTask task;
    Verdict verdict = Verdict::kUnknownBounded;
    bool via_thm5 = false;
    size_t tests_run = 0;
    std::optional<mondet::FailingTest> failure;
    std::optional<mondet::TreeCode> counterexample;
    std::optional<DatalogQuery> rewriting;
    bool q_holds = false;
    bool rw_holds = false;
  };
  struct Reference {
    bool done = false;
    Verdict verdict = Verdict::kUnknownBounded;
    size_t tests_run = 0;
    bool q_holds = false;
  };

  mondet::MonDetOptions options_;
  std::vector<Task> tasks_;
  std::vector<Reference> refs_;
  Output out_;
};

// ---------------------------------------------------------------------------
// evaluate: parse -> compile + statistics -> Eval -> rewriting ->
// ViewSet::Image -> rewriting on the image.

// The naive reference fixpoint re-joins every rule against the whole
// instance each round; past this input size it takes seconds, so larger
// tasks are checked against their first run and the rewriting only.
constexpr size_t kNaiveMaxFacts = 1500;

class Evaluate : public Workload {
 public:
  void Setup(unsigned seed, Size size, Tracer*, Counters*) override {
    tasks_ = EvaluateTasks(seed, size);
    // A repeated set-up (same seed) rebuilds the same tasks: keep the
    // reference answers cached for them.
    if (refs_.size() != tasks_.size()) {
      refs_.assign(tasks_.size(), Reference{});
    }
  }

  size_t PassSize() const override { return tasks_.size(); }
  size_t WindowOps() const override { return 40 * kEvaluateRound; }

  void RunOp(size_t i, Tracer* tracer, Counters* c) override {
    out_ = Output{};
    Output& o = out_;
    {
      Tracer::Scope span(tracer, Layer::kParse);
      o.task = ParseTask(tasks_[i].text);
    }
    if (!o.task.instance) throw std::runtime_error("task has no instance");
    const DatalogQuery& query = *o.task.query;
    const Instance& inst = *o.task.instance;
    c->parse_facts += inst.num_facts();
    std::optional<mondet::CompiledProgram> compiled;
    {
      Tracer::Scope span(tracer, Layer::kCompile);
      compiled.emplace(query.program);
      compiled->BindStats(mondet::Stats::Collect(inst));
    }
    mondet::EvalStats stats;
    int64_t t0 = NowNs();
    {
      Tracer::Scope span(tracer, inst.num_facts() < kLargeEvalFacts
                                     ? Layer::kEvalSmall
                                     : Layer::kEvalLarge);
      o.fixpoint = compiled->Eval(inst, &stats);
    }
    c->AddEval(stats, (NowNs() - t0) * 1e-9);
    c->exact += 1;
    o.q_holds = o.fixpoint->NumRows(query.goal) > 0;
    {
      Tracer::Scope span(tracer, Layer::kRewrite);
      o.rewriting = mondet::InverseRulesRewriting(query, o.task.views);
    }
    c->rewrite_rules += o.rewriting->program.rules().size();
    Instance image(o.task.vocab);
    {
      Tracer::Scope span(tracer, Layer::kImage);
      image = o.task.views.Image(inst);
    }
    Tracer::Scope span(tracer, Layer::kHolds);
    o.rw_holds = mondet::DatalogHoldsOn(*o.rewriting, image);
  }

  size_t Check(size_t i, bool corrupt) override {
    const Output& o = out_;
    const bool q_holds = corrupt ? !o.q_holds : o.q_holds;
    std::string where = "evaluate task " + std::to_string(i) + " (" +
                        tasks_[i].family + ", " +
                        std::to_string(o.task.instance->num_facts()) +
                        " facts)";
    if (q_holds != o.rw_holds) {
      Fail(where + ": Q(I) != rewriting(V(I))");
      return 1;
    }
    const size_t count = o.fixpoint->num_facts();
    const uint64_t hash = FactSetHash(*o.fixpoint);
    Reference& ref = refs_[i];
    if (!ref.done) {
      ref = {true, count, hash};
      if (o.task.instance->num_facts() <= kNaiveMaxFacts) {
        Instance naive =
            mondet::NaiveFpEval(o.task.query->program, *o.task.instance);
        ref.count = naive.num_facts();
        ref.hash = FactSetHash(naive);
      }
    }
    if (count != ref.count || hash != ref.hash) {
      Fail(where + ": fixpoint differs from the reference (" +
           std::to_string(count) + " vs " + std::to_string(ref.count) +
           " facts)");
      return 1;
    }
    return 0;
  }

 private:
  struct Output {
    ParsedTask task;
    std::optional<Instance> fixpoint;
    std::optional<DatalogQuery> rewriting;
    bool q_holds = false;
    bool rw_holds = false;
  };
  struct Reference {
    bool done = false;
    size_t count = 0;
    uint64_t hash = 0;
  };

  std::vector<Task> tasks_;
  std::vector<Reference> refs_;
  Output out_;
};

// ---------------------------------------------------------------------------
// stream: the initial materialization is set-up; each op is one raw
// insert/delete batch through MaintainedImage::ApplyDelta.

// Ops of one graph between two full comparisons of its maintained image
// against a from-scratch recompute; each op is also checked against a
// shadow copy of the image kept current from the returned deltas.
constexpr size_t kCheckpointOps = 100;

std::vector<mondet::Fact> SortedFacts(const Instance& inst) {
  std::vector<mondet::Fact> facts = inst.AllFacts();
  std::sort(facts.begin(), facts.end());
  return facts;
}

class Stream : public Workload {
 public:
  void Setup(unsigned seed, Size size, Tracer* tracer,
             Counters* counters) override {
    std::vector<Task> tasks = StreamTasks(seed, size);
    graphs_.clear();
    graphs_.resize(tasks.size());
    order_.clear();
    for (size_t g = 0; g < tasks.size(); ++g) {
      Graph& graph = graphs_[g];
      {
        Tracer::Scope span(tracer, Layer::kParse);
        graph.task = ParseTask(tasks[g].text);
        if (!graph.task.instance || !graph.task.stream_body) {
          throw std::runtime_error("stream task needs .instance and .stream");
        }
        std::vector<mondet::Diagnostic> diags;
        auto stream = mondet::ParseStream(*graph.task.stream_body,
                                          graph.task.vocab,
                                          *graph.task.instance, &diags);
        ThrowOnErrors(".stream", diags);
        graph.stream = std::move(*stream);
        counters->parse_facts += graph.task.instance->num_facts();
        for (const mondet::StreamBatch& b : graph.stream.batches) {
          counters->parse_facts += b.inserts.size() + b.deletes.size();
        }
      }
      Tracer::Scope span(tracer, Layer::kMaterialize);
      graph.initial.emplace(graph.task.views, *graph.task.instance);
      for (const std::string& name : graph.stream.new_elements) {
        graph.initial->AddElement(name);
      }
    }
    // Ops take the graphs' batches round-robin.
    for (size_t b = 0, left = 1; left > 0; ++b) {
      left = 0;
      for (size_t g = 0; g < graphs_.size(); ++g) {
        if (b < graphs_[g].stream.batches.size()) {
          order_.push_back({g, b});
          ++left;
        }
      }
    }
  }

  size_t PassSize() const override { return order_.size(); }
  size_t WindowOps() const override { return 500; }

  void BeginPass() override {
    for (Graph& g : graphs_) {
      g.live = g.initial;
      g.shadow.clear();
      for (const mondet::Fact& f : g.live->image().AllFacts()) {
        g.shadow.insert(f);
      }
      g.since_checkpoint = 0;
    }
  }

  void RunOp(size_t i, Tracer* tracer, Counters* c) override {
    Graph& g = graphs_[order_[i].graph];
    const mondet::StreamBatch& batch = g.stream.batches[order_[i].batch];
    mondet::EvalStats stats;
    int64_t t0 = NowNs();
    {
      Tracer::Scope span(tracer, Layer::kMaintain);
      delta_ = g.live->ApplyDelta(batch.inserts, batch.deletes, &stats);
    }
    c->AddEval(stats, (NowNs() - t0) * 1e-9);
    c->exact += 1;
  }

  size_t Check(size_t i, bool corrupt) override {
    Graph& g = graphs_[order_[i].graph];
    g.corrupt_checkpoint |= corrupt;
    ++g.since_checkpoint;
    const std::string where = "stream graph " +
                              std::to_string(order_[i].graph) + " batch " +
                              std::to_string(order_[i].batch);
    for (const mondet::Fact& f : delta_.deletes) {
      if (g.shadow.erase(f) == 0) {
        return FailWindow(g, where + " deleted an image fact it did not hold");
      }
    }
    for (const mondet::Fact& f : delta_.inserts) {
      if (!g.shadow.insert(f).second) {
        return FailWindow(g,
                          where + " inserted an image fact it already held");
      }
    }
    if (g.shadow.size() != g.live->image().num_facts()) {
      return FailWindow(g, where + ": image size differs from its deltas");
    }
    return g.since_checkpoint >= kCheckpointOps ? Checkpoint(g) : 0;
  }

  size_t EndPass(bool corrupt) override {
    size_t failed = 0;
    for (Graph& g : graphs_) {
      g.corrupt_checkpoint |= corrupt;
      if (g.since_checkpoint > 0) failed += Checkpoint(g);
    }
    return failed;
  }

  size_t EndRun() override {
    // The check is static in the view definitions, so the verdict over
    // the maintained views must equal the one over the parsed views.
    mondet::MonDetOptions options;
    options.query_depth = 3;
    options.view_depth = 3;
    options.max_query_expansions = 40;
    size_t failed = 0;
    for (Graph& g : graphs_) {
      Verdict before = mondet::CheckMonotonicDeterminacy(
                           *g.task.query, g.task.views, options)
                           .verdict;
      Verdict after = g.live->RecheckVerdict(*g.task.query, options).verdict;
      if (before != after) {
        Fail(std::string("stream: verdict changed from ") +
             VerdictName(before) + " to " + VerdictName(after));
        ++failed;
      }
    }
    return failed;
  }

 private:
  struct Graph {
    ParsedTask task;
    mondet::StreamParse stream;
    std::optional<mondet::MaintainedImage> initial;
    std::optional<mondet::MaintainedImage> live;
    // The image as the returned deltas say it is.
    std::unordered_set<mondet::Fact, mondet::FactHash> shadow;
    size_t since_checkpoint = 0;
    bool corrupt_checkpoint = false;
  };
  struct OpRef {
    size_t graph;
    size_t batch;
  };

  size_t FailWindow(Graph& g, const std::string& what) {
    Fail(what);
    size_t failed = g.since_checkpoint;
    g.since_checkpoint = 0;
    return failed;
  }

  /// Compares the maintained image (a copy of it, with one fact dropped
  /// when a corruption is pending) against FreshImage.
  size_t Checkpoint(Graph& g) {
    std::vector<mondet::Fact> got = SortedFacts(g.live->image());
    if (g.corrupt_checkpoint && !got.empty()) got.pop_back();
    g.corrupt_checkpoint = false;
    if (got != SortedFacts(g.live->FreshImage())) {
      return FailWindow(g, "stream: maintained image != FreshImage()");
    }
    g.since_checkpoint = 0;
    return 0;
  }

  std::vector<Graph> graphs_;
  std::vector<OpRef> order_;
  mondet::ImageDelta delta_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "decide") return std::make_unique<Decide>();
  if (name == "evaluate") return std::make_unique<Evaluate>();
  if (name == "stream") return std::make_unique<Stream>();
  return nullptr;
}

}  // namespace perfbench
