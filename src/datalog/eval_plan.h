#ifndef MONDET_DATALOG_EVAL_PLAN_H_
#define MONDET_DATALOG_EVAL_PLAN_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/instance.h"
#include "base/stats.h"
#include "datalog/kernel.h"
#include "datalog/program.h"

namespace mondet {

/// Evaluation knobs for CompiledProgram::Eval / FpEval. Every join runs
/// through the compiled kernel (datalog/kernel.h) lowered from the order
/// these options select.
struct EvalOptions {
  /// Worker threads for the per-iteration rule fan-out. 0 = use the
  /// MONDET_THREADS environment variable, falling back to
  /// std::thread::hardware_concurrency(). The derived fact set and its
  /// insertion order are identical for every thread count (see
  /// docs/EVALUATION.md for the determinism argument).
  int num_threads = 0;
  /// Statistics-driven join planning (the default): score join orders by
  /// estimated selectivity from per-predicate statistics counted live
  /// from the evolving result, recounted and re-planned at each stratum
  /// entry and whenever a stratum relation doubles (docs/EVALUATION.md
  /// documents the cost model); each live-planned order is lowered to a
  /// kernel as it is planned. When false — or when the input is below
  /// stats_min_facts — Eval runs the stored orders and their kernels
  /// verbatim: EDB-first greedy from compilation, or the orders BindStats
  /// planned from its snapshot. Callers that evaluate many instances of
  /// one fact shape bind a snapshot once and turn this off, so no Eval
  /// plans or lowers at all.
  bool stats_planner = true;
  /// The planner's own cost gate: below this many input facts, live
  /// planning cannot pay for itself, so Eval runs the stored orders. The
  /// per-run cost — a Collect plus a SelectivityAtomOrder pass and a
  /// kernel lowering per rule seat at every planning point — would
  /// dominate a µs-scale eval outright (the checker's canonical-test
  /// loops issue thousands of those), so the gate sits at 64 facts. The
  /// gate reads the input's size as passed, before Eval takes it over.
  /// Set to 0 to force live planning on any input (the differential and
  /// convergence tests do).
  size_t stats_min_facts = 64;
  /// Record the join order each (rule, delta seat) actually ran with,
  /// plus estimated vs. measured intermediate sizes, into
  /// StratumStats::seats. Small per-match cost; off by default.
  bool plan_stats = false;
};

/// The join order one (rule, delta-seat) pair ran with, with the planner's
/// estimated and the measured intermediate row counts per join step.
/// Collected only under EvalOptions::plan_stats.
struct JoinSeatStats {
  size_t rule = 0;
  int delta_atom = -1;               // -1 = the initial full join
  std::vector<uint32_t> order;       // body atom indices, join order
  std::vector<double> est_rows;      // planner estimate after each step
  std::vector<size_t> actual_rows;   // measured rows after each step
  // How many times this seat's join was seeded: 1 for the initial full
  // join, one per successfully-bound delta fact otherwise. est_rows is a
  // per-seeding estimate while actual_rows sums over seedings; dividing
  // by this makes the two comparable.
  size_t seedings = 0;
};

/// Counters for one stratum of a fixpoint run.
struct StratumStats {
  size_t iterations = 0;     // semi-naive rounds, incl. the initial one
  size_t facts_derived = 0;  // new facts this stratum added
  // Candidate rows the joins scanned: bucket sizes, every row for an
  // unbound scan, and one per fully bound (membership) step.
  size_t join_probes = 0;
  size_t replans = 0;        // mid-stratum join-order recomputations
  // Rows the live statistics recounted this stratum (Stats::Refresh at
  // stratum entry and at each re-plan); the initial Collect is not
  // included.
  size_t stats_facts_counted = 0;
  double wall_seconds = 0;
  std::vector<JoinSeatStats> seats;  // only with EvalOptions::plan_stats
};

/// Counters for a fixpoint run. Eval *accumulates* into a caller-provided
/// EvalStats, so one struct can aggregate several runs (as the bench
/// harnesses do); `strata` gets one entry appended per stratum evaluated.
/// Maintain fills the retraction counters (facts_retracted, overdeleted,
/// rederived), which stay zero on the insert-only Eval path.
struct EvalStats {
  size_t iterations = 0;
  size_t facts_derived = 0;
  size_t facts_retracted = 0;  // facts removed by Maintain
  size_t overdeleted = 0;      // DRed: provisional deletions
  size_t rederived = 0;        // DRed: provisional deletions revived
  size_t join_probes = 0;
  size_t replans = 0;
  /// Always 0; kept because perfbench/ reads it.
  size_t rules_pruned = 0;
  size_t stats_facts_counted = 0;  // sum over strata (see StratumStats)
  double wall_seconds = 0;
  std::vector<StratumStats> strata;

  /// Adds the scalar totals and appends the strata of `other`.
  void Accumulate(const EvalStats& other);

  /// One-line rendering for bench labels / logs.
  std::string Summary() const;
};

/// Resolves the worker-thread count: `requested` if positive, else the
/// MONDET_THREADS environment variable when it is a whole positive
/// decimal, else hardware_concurrency(). The result is capped at the
/// shared ThreadPool's threads plus one, the most ParallelFor ever runs.
int ResolveEvalThreads(int requested);

/// One batch of base-instance mutations for CompiledProgram::Maintain.
/// The contract is normalized set semantics: `inserts` holds exactly the
/// facts newly added to the base and `deletes` exactly the facts removed
/// from it — disjoint, duplicate-free, and genuinely applied (callers
/// drop duplicate inserts and deletes of absent facts; inserts win when
/// one batch both inserts and deletes a fact). MaintainedImage::ApplyDelta
/// performs this normalization for raw user batches.
struct FactDelta {
  std::vector<Fact> inserts;
  std::vector<Fact> deletes;

  bool empty() const { return inserts.empty() && deletes.empty(); }
};

/// Outcome of one Maintain call: the net membership changes of the
/// materialized instance (every fact that appeared / disappeared, in the
/// deterministic order they were recorded) plus the DRed counters.
/// Consumers project these deltas further — MaintainedImage filters them
/// to the view predicates to keep the view image current.
struct MaintainResult {
  std::vector<Fact> inserts;  // net facts added to the materialization
  std::vector<Fact> deletes;  // net facts removed from it
  size_t overdeleted = 0;     // DRed provisional deletions across strata
  size_t rederived = 0;       // provisional deletions that came back
};

/// A Datalog program compiled for repeated semi-naive evaluation.
///
/// Compilation groups the rules into strata — the SCCs of the IDB
/// dependency graph, in topological order — and precomputes per-rule join
/// orderings: one for the initial full join and one per recursive body
/// atom (the semi-naive "delta" seat). Without statistics the compile-time
/// orders come from the shared GreedyAtomOrder heuristic (EDB atoms
/// first); BindStats re-plans them under the selectivity cost model, and
/// Eval by default plans from live statistics anyway (EvalOptions).
/// Wherever an order is fixed — here, in BindStats, in Eval's live
/// planner — it is lowered to a join kernel (datalog/kernel.h) on the
/// spot and stored next to it, so Eval only ever runs kernels.
/// Construct once and Eval many times; the per-rule plans and strata are
/// reused across calls — and the same object serves the analyzer's plan
/// lints (AnalysisOptions::compiled) and evaluation, so lint and run judge
/// identical plans.
class CompiledProgram {
 public:
  explicit CompiledProgram(const Program& program);

  /// Re-plans the stored compile-time join orders under the selectivity
  /// cost model of `stats`, re-lowers their kernels, and remembers the
  /// snapshot: DescribePlans then reports estimated intermediate sizes (so
  /// plan lints judge the plans against real numbers), and Eval with
  /// stats_planner=false runs these stats-driven orders verbatim, planning
  /// and lowering nothing per call. A later BindStats re-plans and
  /// re-lowers every seat from the new snapshot. Not safe to call
  /// while another thread is inside Eval on the same object.
  void BindStats(Stats stats);

  /// The snapshot from BindStats, or nullptr.
  const Stats* bound_stats() const {
    return bound_stats_ ? &*bound_stats_ : nullptr;
  }

  /// FPEval(Π, I) (Sec. 2): all facts of `input` plus every derivable IDB
  /// fact, over the same elements. Deterministic for any thread count and
  /// any statistics (plans affect order of exploration, not the result).
  /// When `stats` is non-null the run's counters are accumulated into it.
  Instance Eval(const Instance& input, EvalStats* stats = nullptr,
                const EvalOptions& options = {}) const;
  /// As above, taking over `input` as the result's starting point instead
  /// of copying it — for callers that build an instance only to evaluate
  /// it once (the checker's D′ tests). Same facts, order and counters.
  Instance Eval(Instance&& input, EvalStats* stats = nullptr,
                const EvalOptions& options = {}) const;

  /// Eval plus derivation counting: the fixpoint of `input` whose facts
  /// carry exact derivation counts (number of rule derivations, plus one
  /// for base membership, Instance::FactCount) for every non-recursive
  /// stratum. Facts of recursive SCC strata keep count 1 — counting is
  /// unsound under recursion (a fact may support itself), which is
  /// exactly why Maintain switches to DRed there.
  Instance Materialize(const Instance& input, EvalStats* stats = nullptr,
                       const EvalOptions& options = {}) const;

  /// Incremental view maintenance: updates `m` in place so it equals
  /// Materialize(base) for the *new* base, given that it equaled
  /// Materialize of the old base — as a fact set, with derivation counts
  /// (the engine's headline correctness contract,
  /// tests/maintenance_differential_test.cc). `base` is the already-mutated new base
  /// instance; `delta` lists its exact membership changes (see FactDelta).
  /// Non-recursive strata are maintained by counting (the ordered-delta
  /// join formula adjusts derivation counts; membership follows count
  /// zero-crossings), recursive SCC strata by delete-rederive (DRed):
  /// overdelete over the old state, remove, rederive survivors, then
  /// semi-naive insertion. Single-threaded and deterministic: the same
  /// schedule always yields the same instance and counts.
  /// When `stats` is non-null the call's counters accumulate into it.
  MaintainResult Maintain(Instance& m, const Instance& base,
                          const FactDelta& delta,
                          EvalStats* stats = nullptr) const;

  size_t num_strata() const { return strata_.size(); }
  const Program& program() const { return program_; }

  /// Description of one precomputed join order, for plan-level lints
  /// (analysis/) and debugging: the body-atom visit order of rule
  /// `rule` when seeded from `delta_atom` (-1 = the initial full join,
  /// otherwise a body-atom index whose variables start bound).
  struct JoinOrderDesc {
    size_t rule = 0;
    int delta_atom = -1;
    std::vector<uint32_t> order;  // body atom indices, join order
    // Estimated intermediate rows after each step; empty unless stats
    // are bound (BindStats).
    std::vector<double> est_rows;
  };

  /// All join orders of the compiled plans, one entry per (rule, seat).
  std::vector<JoinOrderDesc> DescribePlans() const;

  /// Human-readable rendering of DescribePlans, one line per (rule,
  /// seat), stable enough to pin in golden tests:
  ///   rule 0 (Head) full: R S(~4) T(~2.5)
  ///   rule 0 (Head) delta[1:S]: T R
  /// The (~n) estimates appear only when stats are bound.
  std::string DescribePlansText() const;

 private:
  /// The fixed inputs of planning one (rule, delta-seat) pair, precomputed
  /// at compile time so per-stratum re-planning allocates next to nothing:
  /// the body atoms to order (the delta atom excluded), their variables,
  /// and the variables the delta fact pre-binds.
  struct SeatShape {
    std::vector<std::vector<ElemId>> sub;  // args of each atom to order
    std::vector<uint32_t> back;            // sub index -> body atom index
    std::vector<bool> bound0;              // vars pre-bound by the seat
  };
  struct RulePlan {
    QAtom head;
    std::vector<QAtom> body;
    size_t num_vars = 0;
    std::vector<int> recursive_atoms;  // body indices over same-SCC preds
    // Positions in the stratum's `preds` of the head predicate and of
    // each recursive atom's predicate: Eval's delta partition slots.
    uint32_t head_slot = 0;
    std::vector<uint32_t> rec_slots;
    // seats[0]: the initial full join; seats[1 + i]: recursive_atoms[i]
    // as the delta seat. orders/est_rows/kernels align with seats;
    // est_rows entries are empty unless stats are bound, and kernels[s]
    // is always lowered from orders[s].
    std::vector<SeatShape> seats;
    std::vector<std::vector<uint32_t>> orders;
    std::vector<std::vector<double>> est_rows;
    std::vector<JoinKernel> kernels;

    /// The body atom seat `s` pre-binds: -1 for the full join.
    int seat_atom(size_t s) const {
      return s == 0 ? -1 : recursive_atoms[s - 1];
    }
    /// Lowers `order` as the join order of seat `s`.
    JoinKernel Lower(size_t s, const std::vector<uint32_t>& order) const {
      return BuildKernel(head, body, num_vars, seat_atom(s), order);
    }
  };
  struct Stratum {
    std::vector<uint32_t> plans;       // indices into plans_, program order
    std::vector<PredId> preds;         // the SCC's predicates, sorted
    bool recursive = false;  // some rule has a same-SCC body atom

    bool Has(PredId p) const {
      return std::binary_search(preds.begin(), preds.end(), p);
    }
  };
  /// The recorded membership changes of one predicate during Maintain:
  /// `ins`/`del` in deterministic discovery order, `ins_set` for the
  /// old-state reconstruction (old = current − ins + del). Transparent
  /// hashing so stored rows probe the set as FactViews, copy-free.
  struct PredChange {
    std::vector<Fact> ins;
    std::vector<Fact> del;
    std::unordered_set<Fact, FactHash, FactEq> ins_set;
  };
  using ChangeMap = std::unordered_map<PredId, PredChange>;
  /// One unit of the per-iteration fan-out: run `*kernel`, a kernel of
  /// plan `plan`, either as a full join (delta_rows == nullptr) or seeded
  /// from each row of `*delta_rows`, rows of the kernel's seat predicate.
  struct WorkItem {
    uint32_t plan = 0;
    const JoinKernel* kernel = nullptr;
    const std::vector<uint32_t>* delta_rows = nullptr;
    std::vector<size_t>* step_rows = nullptr;  // per-depth match counters
    size_t* seedings = nullptr;                // successful join seedings
  };

  /// Eval's buffers that outlive a round and a call (eval_plan.cc).
  struct EvalScratch;

  /// Computes the join order for seat `seat` of `plan` (0 = full join,
  /// 1 + i = recursive atom i): selectivity-scored when `stats` is set,
  /// EDB-first greedy otherwise. `est_rows`, if non-null, receives the
  /// per-step estimates (cleared when no stats).
  std::vector<uint32_t> PlanOrder(const RulePlan& plan, size_t seat,
                                  const Stats* stats,
                                  std::vector<double>* est_rows) const;

  /// The maintenance engine's join: matches body atoms k.. of `plan` in
  /// body order (skipping `seat`, whose variables `map` pre-binds) and
  /// calls `out` once per complete match; `out` returns false to stop the
  /// enumeration early (rederivation checks need only a witness). Atoms
  /// flagged in `read_old` read the *old* state, reconstructed from the
  /// current instance and the recorded changes (current − ins + del);
  /// the rest read the current instance directly. Returns false iff some
  /// `out` call stopped the enumeration.
  bool MatchAtoms(const RulePlan& plan, int seat, size_t k,
                  const std::vector<uint8_t>& read_old, const Instance& inst,
                  const ChangeMap& changed, std::vector<ElemId>& map,
                  const std::function<bool(const std::vector<ElemId>&)>& out)
      const;

  /// Counting maintenance of the non-recursive stratum `si` (see
  /// Maintain); DRed maintenance of the recursive stratum `si`.
  void MaintainCounting(size_t si, const std::vector<const Fact*>& base_ins,
                        const std::vector<const Fact*>& base_del,
                        Instance& inst, ChangeMap& changed,
                        const std::function<void(const Fact&)>& record_ins,
                        const std::function<void(const Fact&)>& record_del)
      const;
  void MaintainDRed(size_t si, const Instance& base,
                    const std::vector<const Fact*>& base_ins,
                    const std::vector<const Fact*>& base_del, Instance& inst,
                    ChangeMap& changed, MaintainResult* res,
                    const std::function<void(const Fact&)>& record_ins,
                    const std::function<void(const Fact&)>& record_del) const;

  /// True iff some rule of stratum `si` derives `f` over `inst` as-is.
  bool Rederivable(const Fact& f, size_t si, const Instance& inst) const;

  Program program_;
  std::vector<RulePlan> plans_;
  std::vector<Stratum> strata_;
  std::unordered_map<PredId, size_t> stratum_of_;  // IDB pred -> stratum
  std::optional<Stats> bound_stats_;
};

}  // namespace mondet

#endif  // MONDET_DATALOG_EVAL_PLAN_H_
