#include "datalog/eval_plan.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "base/check.h"
#include "base/homomorphism.h"
#include "base/scc.h"
#include "base/thread_pool.h"

namespace mondet {

void EvalStats::Accumulate(const EvalStats& other) {
  iterations += other.iterations;
  facts_derived += other.facts_derived;
  facts_retracted += other.facts_retracted;
  overdeleted += other.overdeleted;
  rederived += other.rederived;
  join_probes += other.join_probes;
  replans += other.replans;
  stats_facts_counted += other.stats_facts_counted;
  wall_seconds += other.wall_seconds;
  strata.insert(strata.end(), other.strata.begin(), other.strata.end());
}

std::string EvalStats::Summary() const {
  std::ostringstream os;
  os << "iters=" << iterations << " derived=" << facts_derived;
  if (facts_retracted + overdeleted + rederived > 0) {
    os << " retracted=" << facts_retracted << " overdeleted=" << overdeleted
       << " rederived=" << rederived;
  }
  os << " probes=" << join_probes << " replans=" << replans;
  os << " stats_counted=" << stats_facts_counted
     << " strata=" << strata.size() << " wall_ms=" << wall_seconds * 1000.0;
  return os.str();
}

int ResolveEvalThreads(int requested) {
  int n = requested;
  if (n <= 0) {
    // MONDET_THREADS counts only when the whole string is a positive
    // decimal; anything else falls back to the hardware concurrency.
    if (const char* env = std::getenv("MONDET_THREADS")) {
      const char* end = env + std::strlen(env);
      auto [ptr, ec] = std::from_chars(env, end, n);
      if (ec != std::errc() || ptr != end) n = 0;
    }
    if (n <= 0) {
      unsigned hw = std::thread::hardware_concurrency();
      n = hw > 0 ? static_cast<int>(hw) : 1;
    }
  }
  // ParallelFor never runs more workers than the shared pool's threads
  // plus the caller, so a larger count only sizes per-worker scratch.
  if (n > 1) n = std::min(n, ThreadPool::Shared().num_threads() + 1);
  return n;
}

namespace {

/// Deliberate fault injection for the fuzz harness' self-test
/// (scripts/check_fuzz_fault.sh): with MONDET_FAULT=skip-delta-seat the
/// last recursive delta seat of every rule is never scheduled — the
/// classic semi-naive omission (a recursive atom whose deltas are never
/// joined), which the differential oracles must catch and shrink.
bool FaultSkipDeltaSeat() {
  static const bool on = [] {
    const char* env = std::getenv("MONDET_FAULT");
    return env != nullptr && std::strcmp(env, "skip-delta-seat") == 0;
  }();
  return on;
}

}  // namespace

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string FormatEst(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

}  // namespace

CompiledProgram::CompiledProgram(const Program& program) : program_(program) {
  // Dense node ids for the IDB predicates, sorted for determinism.
  std::vector<PredId> idbs(program_.Idbs().begin(), program_.Idbs().end());
  std::sort(idbs.begin(), idbs.end());
  std::unordered_map<PredId, int> node_of;
  for (size_t i = 0; i < idbs.size(); ++i) {
    node_of[idbs[i]] = static_cast<int>(i);
  }
  // Edge P -> Q when Q occurs in the body of a rule with head P.
  std::vector<std::vector<int>> adj(idbs.size());
  for (const Rule& rule : program_.rules()) {
    int from = node_of.at(rule.head.pred);
    for (const QAtom& a : rule.body) {
      auto it = node_of.find(a.pred);
      if (it != node_of.end()) adj[from].push_back(it->second);
    }
  }
  int num_sccs = 0;
  std::vector<int> scc = SccIds(idbs.size(), adj, &num_sccs);
  strata_.resize(num_sccs);
  for (size_t i = 0; i < idbs.size(); ++i) {
    strata_[scc[i]].preds.push_back(idbs[i]);  // idbs is sorted
  }
  auto slot_of = [&](int stratum, PredId p) {
    const std::vector<PredId>& list = strata_[stratum].preds;
    return static_cast<uint32_t>(
        std::lower_bound(list.begin(), list.end(), p) - list.begin());
  };

  for (const Rule& rule : program_.rules()) {
    RulePlan plan;
    plan.head = rule.head;
    plan.body = rule.body;
    plan.num_vars = rule.num_vars();
    int stratum = scc[node_of.at(rule.head.pred)];
    const Stratum& st = strata_[stratum];
    for (int i = 0; i < static_cast<int>(rule.body.size()); ++i) {
      if (st.Has(rule.body[i].pred)) {
        plan.recursive_atoms.push_back(i);
        plan.rec_slots.push_back(slot_of(stratum, rule.body[i].pred));
      }
    }
    plan.head_slot = slot_of(stratum, rule.head.pred);
    // Fixed planning inputs per delta seat (seat 0 = the initial full
    // join), so re-planning during a run rebuilds none of this.
    plan.seats.resize(1 + plan.recursive_atoms.size());
    for (size_t s = 0; s < plan.seats.size(); ++s) {
      SeatShape& shape = plan.seats[s];
      const int skip = s == 0 ? -1 : plan.recursive_atoms[s - 1];
      shape.bound0.assign(plan.num_vars, false);
      if (skip >= 0) {
        for (VarId v : rule.body[skip].args) shape.bound0[v] = true;
      }
      for (int i = 0; i < static_cast<int>(rule.body.size()); ++i) {
        if (i == skip) continue;
        const QAtom& a = rule.body[i];
        shape.sub.push_back(std::vector<ElemId>(a.args.begin(), a.args.end()));
        shape.back.push_back(static_cast<uint32_t>(i));
      }
    }
    // Compile-time join orders, one per seat. With no instance at hand,
    // the relation-size estimate just prefers EDB atoms, which stay fixed
    // while the IDB relations grow toward the fixpoint; BindStats /
    // EvalOptions::stats_planner replace these with selectivity-scored
    // orders.
    for (size_t s = 0; s < plan.seats.size(); ++s) {
      plan.orders.push_back(PlanOrder(plan, s, nullptr, nullptr));
      plan.est_rows.emplace_back();
      plan.kernels.push_back(plan.Lower(s, plan.orders[s]));
    }
    strata_[stratum].plans.push_back(static_cast<uint32_t>(plans_.size()));
    if (!plan.recursive_atoms.empty()) strata_[stratum].recursive = true;
    plans_.push_back(std::move(plan));
  }
  for (size_t si = 0; si < strata_.size(); ++si) {
    for (PredId p : strata_[si].preds) stratum_of_[p] = si;
  }
}

std::vector<uint32_t> CompiledProgram::PlanOrder(
    const RulePlan& plan, size_t seat, const Stats* stats,
    std::vector<double>* est_rows) const {
  const SeatShape& shape = plan.seats[seat];
  std::vector<uint32_t> sub_order;
  if (stats != nullptr) {
    sub_order = SelectivityAtomOrder(
        shape.sub, plan.num_vars,
        [&](size_t i, const std::vector<bool>& b) {
          return stats->EstimateMatches(plan.body[shape.back[i]].pred,
                                        shape.sub[i], b);
        },
        shape.bound0, est_rows);
  } else {
    sub_order = GreedyAtomOrder(
        shape.sub, plan.num_vars,
        [&](size_t i) {
          return program_.IsIdb(plan.body[shape.back[i]].pred) ? size_t{2}
                                                               : size_t{1};
        },
        shape.bound0);
    if (est_rows) est_rows->clear();
  }
  std::vector<uint32_t> order;
  order.reserve(sub_order.size());
  for (uint32_t s : sub_order) order.push_back(shape.back[s]);
  return order;
}

void CompiledProgram::BindStats(Stats stats) {
  bound_stats_ = std::move(stats);
  for (RulePlan& plan : plans_) {
    for (size_t s = 0; s < plan.seats.size(); ++s) {
      plan.orders[s] = PlanOrder(plan, s, &*bound_stats_, &plan.est_rows[s]);
      plan.kernels[s] = plan.Lower(s, plan.orders[s]);
    }
  }
}

std::vector<CompiledProgram::JoinOrderDesc> CompiledProgram::DescribePlans()
    const {
  // plans_ is built by iterating program_.rules() in order, so plan index
  // == rule index.
  std::vector<JoinOrderDesc> out;
  for (size_t pi = 0; pi < plans_.size(); ++pi) {
    const RulePlan& plan = plans_[pi];
    for (size_t s = 0; s < plan.seats.size(); ++s) {
      out.push_back({pi, plan.seat_atom(s), plan.orders[s],
                     plan.est_rows[s]});
    }
  }
  return out;
}

std::string CompiledProgram::DescribePlansText() const {
  const Vocabulary& vocab = *program_.vocab();
  std::ostringstream os;
  for (const JoinOrderDesc& d : DescribePlans()) {
    const RulePlan& plan = plans_[d.rule];
    os << "rule " << d.rule << " (" << vocab.name(plan.head.pred) << ") ";
    if (d.delta_atom < 0) {
      os << "full:";
    } else {
      os << "delta[" << d.delta_atom << ":"
         << vocab.name(plan.body[d.delta_atom].pred) << "]:";
    }
    for (size_t k = 0; k < d.order.size(); ++k) {
      os << " " << vocab.name(plan.body[d.order[k]].pred);
      if (!d.est_rows.empty()) os << "(~" << FormatEst(d.est_rows[k]) << ")";
    }
    os << "\n";
  }
  return os.str();
}

Instance CompiledProgram::Eval(const Instance& input, EvalStats* stats,
                               const EvalOptions& options) const {
  return Eval(Instance(input), stats, options);
}

/// Eval's buffers that outlive a round and a call: per-worker kernel
/// frames, the round's work items with their derived-head buffers and
/// probe counts, and the delta partition. Each thread keeps one (Eval),
/// so a loop of µs-scale evaluations reuses their capacity instead of
/// reallocating it per round and per call.
struct CompiledProgram::EvalScratch {
  bool in_use = false;  // a nested Eval on this thread takes a fresh one
  std::vector<std::vector<ElemId>> frames;  // per worker, grown on demand
  std::vector<WorkItem> items;              // the current round
  std::vector<DerivedBuffer> derived;       // per item
  std::vector<size_t> probes;               // per item
  // The previous round's new facts as row lists, one per predicate of the
  // current stratum, in the order of its `preds`.
  std::vector<std::vector<uint32_t>> delta;
};

Instance CompiledProgram::Eval(Instance&& input, EvalStats* stats,
                               const EvalOptions& options) const {
  // Timings and per-stratum records are built only for a caller that
  // reads them.
  const bool timed = stats != nullptr;
  const auto t_start =
      timed ? std::chrono::steady_clock::now()
            : std::chrono::steady_clock::time_point{};
  // The planner's size gate reads the input as passed; `result` takes it
  // over and grows from there.
  const size_t input_facts = input.num_facts();
  Instance result = std::move(input);
  const int nthreads = ResolveEvalThreads(options.num_threads);
  EvalStats run;

  thread_local EvalScratch tls_scratch;
  EvalScratch nested_scratch;
  EvalScratch& scratch = tls_scratch.in_use ? nested_scratch : tls_scratch;
  scratch.in_use = true;
  if (scratch.frames.size() < static_cast<size_t>(nthreads)) {
    scratch.frames.resize(nthreads);
  }
  std::vector<WorkItem>& items = scratch.items;
  std::vector<std::vector<uint32_t>>& delta = scratch.delta;

  // With the stats planner on (the default), collect live stats from the
  // evolving result and re-plan as relations grow; with the planner off —
  // or on an input too small for planning to pay for itself — the stored
  // orders (compile-time or BindStats) run as-is. Live statistics are
  // recounted at each planning point (stratum entry, re-plan), so every
  // plan reads exact counts.
  const bool live_stats =
      options.stats_planner && input_facts >= options.stats_min_facts;
  // Per-seat tables exist for live planning and plan_stats; the stored
  // orders and their kernels need none.
  const bool use_seats = live_stats || options.plan_stats;
  Stats live;
  if (live_stats) live = Stats::Collect(result);

  // Runs work item `i` on `worker`'s frame into the item's own buffer.
  auto run_item = [&](size_t i, int worker) {
    const WorkItem& item = items[i];
    KernelCounters c{0, item.step_rows, item.seedings};
    if (item.delta_rows == nullptr) {
      RunKernelFull(*item.kernel, result, scratch.frames[worker], c,
                    &scratch.derived[i]);
    } else {
      RunKernelDelta(*item.kernel, result, *item.delta_rows,
                     scratch.frames[worker], c, &scratch.derived[i]);
    }
    scratch.probes[i] = c.probes;
  };
  // Runs the round's work `items`, merges their derivations into `result`
  // in item order — this makes the fact insertion order independent of
  // the thread count — and refills `delta` with the rows they added.
  // Returns how many facts that was.
  auto run_round = [&](StratumStats* ss, size_t num_preds) {
    const size_t n = items.size();
    if (scratch.derived.size() < n) scratch.derived.resize(n);
    for (size_t i = 0; i < n; ++i) scratch.derived[i].clear();
    scratch.probes.resize(n);
    int workers = std::min<int>(nthreads, static_cast<int>(n));
    if (workers > 1) {
      // Freeze the indexes so the fan-out only ever reads `result`.
      result.PrepareIndexes();
      ThreadPool::Shared().ParallelFor(n, workers, run_item);
    } else {
      for (size_t i = 0; i < n; ++i) run_item(i, 0);
    }
    // The items have run, so the rows they read are free to refill.
    for (size_t p = 0; p < num_preds; ++p) delta[p].clear();
    size_t added = 0;
    for (size_t i = 0; i < n; ++i) {
      ss->join_probes += scratch.probes[i];
      const RulePlan& plan = plans_[items[i].plan];
      const PredId head = plan.head.pred;
      const size_t ar = plan.head.args.size();
      const ElemId* a = scratch.derived[i].args.data();
      for (size_t j = 0; j < scratch.derived[i].count; ++j) {
        if (result.AddFact(head, std::span<const ElemId>(a + j * ar, ar))) {
          delta[plan.head_slot].push_back(result.NumRows(head) - 1);
          ++added;
        }
      }
    }
    ss->facts_derived += added;
    return added;
  };

  // Recounts the live statistics of those `preds` that grew since they
  // were last counted. `result` only ever grows, so an unchanged row count
  // means an unchanged relation and its counts are still exact.
  auto recount = [&](const std::vector<PredId>& preds, StratumStats* ss) {
    std::vector<PredId> stale;
    for (PredId p : preds) {
      if (result.NumRows(p) != live.cardinality(p)) {
        stale.push_back(p);
        ss->stats_facts_counted += result.NumRows(p);
      }
    }
    if (!stale.empty()) live.Refresh(result, stale);
  };

  // Preds of the previous stratum, whose live counts go stale on entry to
  // the next one.
  const std::vector<PredId>* prev_preds = nullptr;

  for (const Stratum& stratum : strata_) {
    StratumStats ss;
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    const std::vector<PredId>& stratum_preds = stratum.preds;
    if (live_stats && prev_preds != nullptr) recount(*prev_preds, &ss);
    if (delta.size() < stratum_preds.size()) {
      delta.resize(stratum_preds.size());
    }

    // The join orders this stratum runs with, when use_seats: per
    // (plan-in-stratum, seat), seat 0 = the initial full join, seat 1 + i
    // = recursive atom i. Planned and lowered live into `planned`/
    // `planned_est`/`lowered`, else pointing at the stored orders and
    // kernels, which are not copied. `actual` accumulates measured
    // per-step rows (plan_stats only) and resets on re-plan so it always
    // matches the order it was measured under.
    struct SeatPlan {
      const std::vector<uint32_t>* order = nullptr;
      const std::vector<double>* est = nullptr;
      const JoinKernel* kernel = nullptr;
      std::vector<uint32_t> planned;
      std::vector<double> planned_est;
      JoinKernel lowered;
      std::vector<size_t> actual;
      size_t seedings = 0;
    };
    std::vector<std::vector<SeatPlan>> seats;
    auto plan_seats = [&](bool initial) {
      for (size_t k = 0; k < stratum.plans.size(); ++k) {
        const RulePlan& plan = plans_[stratum.plans[k]];
        auto& sp = seats[k];
        if (initial) sp.resize(1 + plan.recursive_atoms.size());
        // After round 0 the full join (seat 0) never runs again, so
        // re-planning skips it.
        for (size_t s = initial ? 0 : 1; s < sp.size(); ++s) {
          if (live_stats) {
            sp[s].planned = PlanOrder(plan, s, &live, &sp[s].planned_est);
            sp[s].lowered = plan.Lower(s, sp[s].planned);
            sp[s].order = &sp[s].planned;
            sp[s].est = &sp[s].planned_est;
            sp[s].kernel = &sp[s].lowered;
          } else {
            sp[s].order = &plan.orders[s];
            sp[s].est = &plan.est_rows[s];
            sp[s].kernel = &plan.kernels[s];
          }
          if (options.plan_stats) {
            sp[s].actual.assign(sp[s].order->size(), 0);
            sp[s].seedings = 0;
          }
        }
      }
    };
    if (use_seats) {
      seats.resize(stratum.plans.size());
      plan_seats(true);
    }

    // The work item firing seat `s` of the stratum's plan `k`: its kernel
    // and counters from the seat table when there is one, else the
    // stored kernel.
    auto seat_item = [&](size_t k, size_t s) {
      WorkItem w;
      w.plan = stratum.plans[k];
      if (!use_seats) {
        w.kernel = &plans_[w.plan].kernels[s];
        return w;
      }
      SeatPlan& sp = seats[k][s];
      w.kernel = sp.kernel;
      if (options.plan_stats) {
        w.step_rows = &sp.actual;
        w.seedings = &sp.seedings;
      }
      return w;
    };

    // Cardinalities the current orders were planned under; a stratum
    // relation doubling (or appearing) since then triggers a re-plan.
    std::vector<std::pair<PredId, size_t>> planned_card;
    if (live_stats) {
      planned_card.reserve(stratum_preds.size());
      for (PredId p : stratum_preds) {
        planned_card.emplace_back(p, result.NumRows(p));
      }
    }

    // Initial round: every rule of the stratum joins the full current
    // result (lower strata are saturated; input IDB facts participate,
    // as in the paper's Prop. 4 usage).
    items.clear();
    for (size_t k = 0; k < stratum.plans.size(); ++k) {
      items.push_back(seat_item(k, 0));
    }
    ss.iterations = 1;
    size_t added = run_round(&ss, stratum_preds.size());
    // Delta rounds: each new derivation must use a previous-round fact in
    // some recursive body atom.
    while (added > 0) {
      if (live_stats) {
        // A stratum relation appearing or doubling since the last plan
        // invalidates its estimates — but below kReplanMinFacts the joins
        // it feeds are cheaper than the re-plan itself, so let it grow.
        constexpr size_t kReplanMinFacts = 16;
        bool replan = false;
        for (const auto& [p, card] : planned_card) {
          size_t cur = result.NumRows(p);
          if (cur != card && cur >= kReplanMinFacts &&
              (card == 0 || cur >= 2 * card)) {
            replan = true;
            break;
          }
        }
        if (replan) {
          recount(stratum_preds, &ss);
          plan_seats(false);
          for (auto& [p, card] : planned_card) {
            card = result.NumRows(p);
          }
          ++ss.replans;
        }
      }
      // One item per recursive seat whose predicate gained rows, seeded
      // from exactly those rows — the coordinates kernels consume
      // directly.
      items.clear();
      for (size_t k = 0; k < stratum.plans.size(); ++k) {
        const RulePlan& plan = plans_[stratum.plans[k]];
        for (int r = 0; r < static_cast<int>(plan.recursive_atoms.size());
             ++r) {
          if (FaultSkipDeltaSeat() &&
              r == static_cast<int>(plan.recursive_atoms.size()) - 1) {
            continue;
          }
          const std::vector<uint32_t>& rows = delta[plan.rec_slots[r]];
          if (rows.empty()) continue;
          WorkItem w = seat_item(k, 1 + r);
          w.delta_rows = &rows;
          items.push_back(w);
        }
      }
      if (items.empty()) break;
      ++ss.iterations;
      added = run_round(&ss, stratum_preds.size());
    }
    if (options.plan_stats) {
      for (size_t k = 0; k < stratum.plans.size(); ++k) {
        const uint32_t pi = stratum.plans[k];
        const RulePlan& plan = plans_[pi];
        for (size_t s = 0; s < seats[k].size(); ++s) {
          JoinSeatStats j;
          j.rule = pi;
          j.delta_atom = plan.seat_atom(s);
          j.order = *seats[k][s].order;
          j.est_rows = *seats[k][s].est;
          j.actual_rows = std::move(seats[k][s].actual);
          j.seedings = seats[k][s].seedings;
          ss.seats.push_back(std::move(j));
        }
      }
    }
    run.iterations += ss.iterations;
    run.facts_derived += ss.facts_derived;
    run.join_probes += ss.join_probes;
    run.replans += ss.replans;
    run.stats_facts_counted += ss.stats_facts_counted;
    if (timed) {
      ss.wall_seconds = SecondsSince(t0);
      run.strata.push_back(std::move(ss));
    }
    prev_preds = &stratum_preds;
  }
  scratch.in_use = false;
  if (timed) {
    run.wall_seconds = SecondsSince(t_start);
    stats->Accumulate(run);
  }
  return result;
}

namespace {

/// Binds the variables of `atom` to the argument tuple `args`, appending
/// every newly-bound variable to `bound`. Returns false on a clash (a
/// repeated variable or a pre-bound one disagreeing with `args`); the
/// caller unbinds `bound` either way.
bool BindArgs(const QAtom& atom, std::span<const ElemId> args,
              std::vector<ElemId>& map, std::vector<VarId>* bound) {
  for (size_t pos = 0; pos < atom.args.size(); ++pos) {
    VarId v = atom.args[pos];
    if (map[v] == kNoElem) {
      map[v] = args[pos];
      bound->push_back(v);
    } else if (map[v] != args[pos]) {
      return false;
    }
  }
  return true;
}

bool BindFact(const QAtom& atom, const Fact& f, std::vector<ElemId>& map,
              std::vector<VarId>* bound) {
  return BindArgs(atom, f.args, map, bound);
}

void Unbind(const std::vector<VarId>& bound, std::vector<ElemId>& map) {
  for (VarId v : bound) map[v] = kNoElem;
}

}  // namespace

bool CompiledProgram::MatchAtoms(
    const RulePlan& plan, int seat, size_t k,
    const std::vector<uint8_t>& read_old, const Instance& inst,
    const ChangeMap& changed, std::vector<ElemId>& map,
    const std::function<bool(const std::vector<ElemId>&)>& out) const {
  if (k == plan.body.size()) return out(map);
  if (static_cast<int>(k) == seat) {
    return MatchAtoms(plan, seat, k + 1, read_old, inst, changed, map, out);
  }
  const QAtom& atom = plan.body[k];
  const PredChange* pc = nullptr;
  if (read_old[k]) {
    auto it = changed.find(atom.pred);
    if (it != changed.end()) pc = &it->second;
  }
  // Current-state candidates through the tightest index available for the
  // bound positions; an old-state read additionally skips facts inserted
  // since the old snapshot and replays the deleted ones.
  std::span<const uint32_t> candidates;
  int anchor = -1;
  for (int pos = 0; pos < static_cast<int>(atom.args.size()); ++pos) {
    ElemId img = map[atom.args[pos]];
    if (img == kNoElem) continue;
    const std::span<const uint32_t> idx = inst.RowsWith(atom.pred, pos, img);
    if (anchor < 0 || idx.size() < candidates.size()) {
      candidates = idx;
      anchor = pos;
    }
  }
  std::vector<VarId> bound_here;
  // Returns false when the enumeration must stop (out() vetoed).
  auto try_row = [&](uint32_t row) {
    const std::span<const ElemId> targs = inst.Args(atom.pred, row);
    if (pc &&
        pc->ins_set.find(FactView{atom.pred, targs}) != pc->ins_set.end()) {
      return true;
    }
    bound_here.clear();
    if (BindArgs(atom, targs, map, &bound_here) &&
        !MatchAtoms(plan, seat, k + 1, read_old, inst, changed, map, out)) {
      Unbind(bound_here, map);
      return false;
    }
    Unbind(bound_here, map);
    return true;
  };
  if (anchor < 0) {
    const uint32_t n = inst.NumRows(atom.pred);
    for (uint32_t row = 0; row < n; ++row) {
      if (!try_row(row)) return false;
    }
  } else {
    for (uint32_t row : candidates) {
      if (!try_row(row)) return false;
    }
  }
  if (pc) {
    for (const Fact& df : pc->del) {
      bound_here.clear();
      if (BindFact(atom, df, map, &bound_here) &&
          !MatchAtoms(plan, seat, k + 1, read_old, inst, changed, map, out)) {
        Unbind(bound_here, map);
        return false;
      }
      Unbind(bound_here, map);
    }
  }
  return true;
}

Instance CompiledProgram::Materialize(const Instance& input,
                                      EvalStats* stats,
                                      const EvalOptions& options) const {
  Instance m = Eval(input, stats, options);
  const ChangeMap no_changes;
  for (const Stratum& st : strata_) {
    // Counting is unsound under recursion (a fact may transitively
    // support itself), so recursive SCC strata keep the membership-only
    // count of 1 and Maintain uses DRed for them.
    if (st.recursive) continue;
    std::unordered_map<Fact, uint64_t, FactHash> dc;
    for (uint32_t pi : st.plans) {
      const RulePlan& plan = plans_[pi];
      std::vector<uint8_t> read_old(plan.body.size(), 0);
      std::vector<ElemId> map(plan.num_vars, kNoElem);
      MatchAtoms(plan, /*seat=*/-1, 0, read_old, m, no_changes, map,
                 [&](const std::vector<ElemId>& mm) {
                   std::vector<ElemId> args;
                   args.reserve(plan.head.args.size());
                   for (VarId v : plan.head.args) args.push_back(mm[v]);
                   ++dc[Fact(plan.head.pred, std::move(args))];
                   return true;
                 });
    }
    for (PredId p : st.preds) {
      const uint32_t n = m.NumRows(p);
      for (uint32_t row = 0; row < n; ++row) {
        const std::span<const ElemId> args = m.Args(p, row);
        const Fact f(p, std::vector<ElemId>(args.begin(), args.end()));
        auto it = dc.find(f);
        uint64_t c = (it != dc.end() ? it->second : 0) +
                     (input.HasFact(f) ? 1 : 0);
        // Every fixpoint fact has base membership or a rule derivation.
        MONDET_CHECK(c > 0 && "Materialize: unsupported fixpoint fact");
        m.SetCountAt(p, row, c);
      }
    }
  }
  return m;
}

MaintainResult CompiledProgram::Maintain(Instance& inst,
                                         const Instance& base,
                                         const FactDelta& delta,
                                         EvalStats* stats) const {
  auto t_start = std::chrono::steady_clock::now();
  inst.EnsureElements(base.num_elements());
  MaintainResult res;
  ChangeMap changed;
  std::function<void(const Fact&)> record_ins = [&](const Fact& f) {
    PredChange& pc = changed[f.pred];
    pc.ins.push_back(f);
    pc.ins_set.insert(f);
    res.inserts.push_back(f);
  };
  std::function<void(const Fact&)> record_del = [&](const Fact& f) {
    changed[f.pred].del.push_back(f);
    res.deletes.push_back(f);
  };

  // Split the base delta by layer: EDB changes apply directly (EDB
  // membership *is* base membership), IDB base changes fold into their
  // own stratum's pass — as ±1 derivation-count contributions on the
  // counting path, as seeds on the DRed path.
  std::vector<std::vector<const Fact*>> base_ins_at(strata_.size());
  std::vector<std::vector<const Fact*>> base_del_at(strata_.size());
  for (const Fact& f : delta.inserts) {
    if (program_.IsIdb(f.pred)) {
      base_ins_at[stratum_of_.at(f.pred)].push_back(&f);
    } else {
      MONDET_CHECK(inst.AddFact(f) && "Maintain: unnormalized insert");
      record_ins(f);
    }
  }
  for (const Fact& f : delta.deletes) {
    if (program_.IsIdb(f.pred)) {
      base_del_at[stratum_of_.at(f.pred)].push_back(&f);
    } else {
      MONDET_CHECK(inst.RemoveFact(f) && "Maintain: unnormalized delete");
      record_del(f);
    }
  }

  for (size_t si = 0; si < strata_.size(); ++si) {
    const Stratum& st = strata_[si];
    // Skip untouched strata: no base changes here and no membership
    // change on any body predicate. This skip is what makes small deltas
    // cheap — churn far from a stratum never re-runs its joins.
    bool touched = !base_ins_at[si].empty() || !base_del_at[si].empty();
    for (uint32_t pi : st.plans) {
      if (touched) break;
      for (const QAtom& a : plans_[pi].body) {
        auto it = changed.find(a.pred);
        if (it != changed.end() &&
            (!it->second.ins.empty() || !it->second.del.empty())) {
          touched = true;
          break;
        }
      }
    }
    if (!touched) continue;
    if (st.recursive) {
      MaintainDRed(si, base, base_ins_at[si], base_del_at[si], inst, changed,
                   &res, record_ins, record_del);
    } else {
      MaintainCounting(si, base_ins_at[si], base_del_at[si], inst, changed,
                       record_ins, record_del);
    }
  }

  if (stats) {
    EvalStats run;
    run.iterations = 1;
    run.facts_derived = res.inserts.size();
    run.facts_retracted = res.deletes.size();
    run.overdeleted = res.overdeleted;
    run.rederived = res.rederived;
    run.wall_seconds = SecondsSince(t_start);
    stats->Accumulate(run);
  }
  return res;
}

void CompiledProgram::MaintainCounting(
    size_t si, const std::vector<const Fact*>& base_ins,
    const std::vector<const Fact*>& base_del, Instance& inst,
    ChangeMap& changed, const std::function<void(const Fact&)>& record_ins,
    const std::function<void(const Fact&)>& record_del) const {
  const Stratum& st = strata_[si];
  // Signed derivation-count deltas for this stratum's facts; base
  // membership counts as one more derivation.
  std::unordered_map<Fact, int64_t, FactHash> dcount;
  for (const Fact* f : base_ins) ++dcount[*f];
  for (const Fact* f : base_del) --dcount[*f];
  for (uint32_t pi : st.plans) {
    const RulePlan& plan = plans_[pi];
    // Ordered-delta formula: Δ(A1 ⋈ … ⋈ Ak) = Σ_i new(A<i) ⋈ Δi ⋈
    // old(A>i). Exact by telescoping — each appearing or disappearing
    // derivation is counted exactly once, whichever atoms changed.
    for (size_t i = 0; i < plan.body.size(); ++i) {
      auto it = changed.find(plan.body[i].pred);
      if (it == changed.end()) continue;
      std::vector<uint8_t> read_old(plan.body.size(), 0);
      for (size_t j = i + 1; j < plan.body.size(); ++j) read_old[j] = 1;
      auto seed = [&](const Fact& df, int64_t sign) {
        std::vector<ElemId> map(plan.num_vars, kNoElem);
        std::vector<VarId> bound;
        if (BindFact(plan.body[i], df, map, &bound)) {
          MatchAtoms(plan, static_cast<int>(i), 0, read_old, inst, changed,
                     map, [&](const std::vector<ElemId>& mm) {
                       std::vector<ElemId> args;
                       args.reserve(plan.head.args.size());
                       for (VarId v : plan.head.args) args.push_back(mm[v]);
                       dcount[Fact(plan.head.pred, std::move(args))] += sign;
                       return true;
                     });
        }
      };
      for (const Fact& df : it->second.ins) seed(df, +1);
      for (const Fact& df : it->second.del) seed(df, -1);
    }
  }
  // Apply the count deltas in sorted fact order so the instance mutation
  // sequence — and with it the stored fact order — is deterministic.
  std::vector<std::pair<Fact, int64_t>> items(dcount.begin(), dcount.end());
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [f, d] : items) {
    if (d == 0) continue;
    const int64_t oldc = static_cast<int64_t>(inst.FactCount(f));
    const int64_t newc = oldc + d;
    MONDET_CHECK(newc >= 0 && "Maintain: derivation count went negative");
    if (oldc == 0 && newc > 0) {
      MONDET_CHECK(inst.AddFact(f));
      inst.SetFactCount(f, static_cast<uint64_t>(newc));
      record_ins(f);
    } else if (oldc > 0 && newc == 0) {
      MONDET_CHECK(inst.RemoveFact(f));
      record_del(f);
    } else if (newc > 0) {
      inst.SetFactCount(f, static_cast<uint64_t>(newc));
    }
  }
}

bool CompiledProgram::Rederivable(const Fact& f, size_t si,
                                  const Instance& inst) const {
  const Stratum& st = strata_[si];
  const ChangeMap no_changes;
  for (uint32_t pi : st.plans) {
    const RulePlan& plan = plans_[pi];
    if (plan.head.pred != f.pred) continue;
    std::vector<ElemId> map(plan.num_vars, kNoElem);
    bool ok = true;
    for (size_t pos = 0; pos < plan.head.args.size(); ++pos) {
      VarId v = plan.head.args[pos];
      if (map[v] == kNoElem) {
        map[v] = f.args[pos];
      } else if (map[v] != f.args[pos]) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    std::vector<uint8_t> read_old(plan.body.size(), 0);
    // One surviving derivation is a witness: stop at the first match.
    if (!MatchAtoms(plan, /*seat=*/-1, 0, read_old, inst, no_changes, map,
                    [](const std::vector<ElemId>&) { return false; })) {
      return true;
    }
  }
  return false;
}

void CompiledProgram::MaintainDRed(
    size_t si, const Instance& base, const std::vector<const Fact*>& base_ins,
    const std::vector<const Fact*>& base_del, Instance& inst,
    ChangeMap& changed, MaintainResult* res,
    const std::function<void(const Fact&)>& record_ins,
    const std::function<void(const Fact&)>& record_del) const {
  const Stratum& st = strata_[si];

  // Overdelete: every stratum fact with some old-state derivation that
  // uses a deleted fact — seeded from lower-stratum membership deletions
  // and base-deleted stratum facts, propagated semi-naively through the
  // SCC. Lower predicates read the old state (current − ins + del);
  // stratum predicates read the instance, which still holds the old
  // stratum relations here (classic DRed joins over the full old
  // database, which is what makes the deletion an over-approximation).
  std::unordered_set<Fact, FactHash> over;
  std::vector<Fact> odl;  // discovery order: deterministic
  auto overdelete = [&](const Fact& h) {
    if (!inst.HasFact(h)) return;
    if (over.insert(h).second) odl.push_back(h);
  };
  for (const Fact* f : base_del) overdelete(*f);
  auto lower_old = [&](const RulePlan& plan) {
    std::vector<uint8_t> ro(plan.body.size(), 0);
    for (size_t j = 0; j < plan.body.size(); ++j) {
      if (!st.Has(plan.body[j].pred)) ro[j] = 1;
    }
    return ro;
  };
  auto seed_deletion = [&](const RulePlan& plan, size_t i, const Fact& df,
                           const std::vector<uint8_t>& ro) {
    std::vector<ElemId> map(plan.num_vars, kNoElem);
    std::vector<VarId> bound;
    if (!BindFact(plan.body[i], df, map, &bound)) return;
    MatchAtoms(plan, static_cast<int>(i), 0, ro, inst, changed, map,
               [&](const std::vector<ElemId>& mm) {
                 std::vector<ElemId> args;
                 args.reserve(plan.head.args.size());
                 for (VarId v : plan.head.args) args.push_back(mm[v]);
                 overdelete(Fact(plan.head.pred, std::move(args)));
                 return true;
               });
  };
  for (uint32_t pi : st.plans) {
    const RulePlan& plan = plans_[pi];
    const std::vector<uint8_t> ro = lower_old(plan);
    for (size_t i = 0; i < plan.body.size(); ++i) {
      if (st.Has(plan.body[i].pred)) continue;
      auto it = changed.find(plan.body[i].pred);
      if (it == changed.end() || it->second.del.empty()) continue;
      for (const Fact& df : it->second.del) seed_deletion(plan, i, df, ro);
    }
  }
  for (size_t k = 0; k < odl.size(); ++k) {  // the frontier; odl grows
    const Fact f = odl[k];
    for (uint32_t pi : st.plans) {
      const RulePlan& plan = plans_[pi];
      const std::vector<uint8_t> ro = lower_old(plan);
      for (int r : plan.recursive_atoms) {
        if (plan.body[r].pred != f.pred) continue;
        seed_deletion(plan, static_cast<size_t>(r), f, ro);
      }
    }
  }

  // Remove, then rederive: a provisionally-deleted fact survives if the
  // new base holds it or some rule still derives it over the current
  // state (lower strata new, this stratum minus the provisional
  // deletions). Revivals enable more revivals; iterate to fixpoint.
  for (const Fact& f : odl) MONDET_CHECK(inst.RemoveFact(f));
  res->overdeleted += odl.size();
  std::unordered_map<Fact, bool, FactHash> was_present;
  for (const Fact& f : odl) was_present.emplace(f, true);
  std::vector<char> back(odl.size(), 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t k = 0; k < odl.size(); ++k) {
      if (back[k]) continue;
      if (base.HasFact(odl[k]) || Rederivable(odl[k], si, inst)) {
        MONDET_CHECK(inst.AddFact(odl[k]));
        back[k] = 1;
        progress = true;
        ++res->rederived;
      }
    }
  }

  // Insert: semi-naive from the inserted seeds — base-inserted stratum
  // facts and lower-stratum membership insertions at every matching body
  // atom — joining the other atoms over the new state. Enumerating every
  // seed against the full new state may revisit a derivation; set
  // semantics absorbs that.
  std::vector<Fact> ifront;
  auto add_new = [&](const Fact& h) {
    if (inst.AddFact(h)) {
      was_present.emplace(h, false);
      ifront.push_back(h);
    }
  };
  auto seed_insertion = [&](const RulePlan& plan, size_t i, const Fact& df) {
    std::vector<ElemId> map(plan.num_vars, kNoElem);
    std::vector<VarId> bound;
    if (!BindFact(plan.body[i], df, map, &bound)) return;
    std::vector<uint8_t> ro(plan.body.size(), 0);
    // Derivations are collected first and added after the enumeration:
    // AddFact mutates the very indexes MatchAtoms is iterating.
    std::vector<Fact> derived;
    MatchAtoms(plan, static_cast<int>(i), 0, ro, inst, changed, map,
               [&](const std::vector<ElemId>& mm) {
                 std::vector<ElemId> args;
                 args.reserve(plan.head.args.size());
                 for (VarId v : plan.head.args) args.push_back(mm[v]);
                 derived.emplace_back(plan.head.pred, std::move(args));
                 return true;
               });
    for (const Fact& h : derived) add_new(h);
  };
  for (const Fact* f : base_ins) add_new(*f);
  for (uint32_t pi : st.plans) {
    const RulePlan& plan = plans_[pi];
    for (size_t i = 0; i < plan.body.size(); ++i) {
      if (st.Has(plan.body[i].pred)) continue;
      auto it = changed.find(plan.body[i].pred);
      if (it == changed.end() || it->second.ins.empty()) continue;
      for (const Fact& df : it->second.ins) seed_insertion(plan, i, df);
    }
  }
  for (size_t k = 0; k < ifront.size(); ++k) {  // the frontier; grows
    const Fact f = ifront[k];
    for (uint32_t pi : st.plans) {
      const RulePlan& plan = plans_[pi];
      for (int r : plan.recursive_atoms) {
        if (plan.body[r].pred != f.pred) continue;
        seed_insertion(plan, static_cast<size_t>(r), f);
      }
    }
  }

  // Net membership changes of this stratum, in sorted order so the
  // recorded change lists — the lower-stratum deltas of later strata —
  // are deterministic.
  std::vector<std::pair<Fact, bool>> tv(was_present.begin(),
                                        was_present.end());
  std::sort(tv.begin(), tv.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [f, was] : tv) {
    const bool now = inst.HasFact(f);
    if (was && !now) {
      record_del(f);
    } else if (!was && now) {
      record_ins(f);
    }
  }
}

}  // namespace mondet
