#include "views/view_set.h"

#include <algorithm>

#include "base/check.h"
#include "base/gaifman.h"
#include "datalog/eval.h"
#include "datalog/eval_plan.h"
#include "datalog/fragment.h"

namespace mondet {

bool View::IsCq() const {
  const Program& prog = definition.program;
  if (prog.rules().size() != 1) return false;
  const Rule& r = prog.rules().front();
  if (r.head.pred != definition.goal) return false;
  for (const QAtom& a : r.body) {
    if (prog.IsIdb(a.pred)) return false;
  }
  return true;
}

CQ View::AsCq() const {
  MONDET_CHECK(IsCq());
  const Rule& r = definition.program.rules().front();
  CQ cq(definition.program.vocab());
  for (size_t v = 0; v < r.num_vars(); ++v) cq.AddVar(r.var_names[v]);
  for (const QAtom& a : r.body) cq.AddAtom(a);
  cq.SetFreeVars(r.head.args);
  return cq;
}

PredId ViewSet::AddView(const std::string& name, const DatalogQuery& def) {
  MONDET_CHECK(def.program.vocab().get() == vocab_.get());
  PredId view_pred = vocab_->AddPredicate(name, def.arity());
  // Rename every IDB of the definition to a fresh per-view predicate; the
  // goal becomes the view predicate itself.
  Program renamed = def.program;
  std::vector<PredId> idbs(renamed.Idbs().begin(), renamed.Idbs().end());
  std::sort(idbs.begin(), idbs.end());
  for (PredId p : idbs) {
    PredId fresh =
        p == def.goal
            ? view_pred
            : vocab_->AddPredicate(name + "." + vocab_->name(p),
                                   vocab_->arity(p));
    renamed = RenamePredicate(renamed, p, fresh);
  }
  views_.push_back(View{view_pred, DatalogQuery(std::move(renamed), view_pred)});
  compiled_.reset();
  return view_pred;
}

std::optional<PredId> ViewSet::TryAddView(const std::string& name,
                                          const DatalogQuery& def,
                                          std::vector<Diagnostic>* diags,
                                          std::optional<Fragment> required) {
  std::vector<Diagnostic> local;
  if (def.program.vocab().get() != vocab_.get()) {
    local.push_back(MakeDiagnostic(
        Severity::kError, "view-vocabulary",
        "view " + name +
            " is defined over a different vocabulary than the view set"));
  } else {
    // The view name becomes a predicate of `def.arity()`; a clash with an
    // existing predicate of another arity would MONDET_CHECK-abort inside
    // AddPredicate, so report it here instead.
    auto existing = vocab_->FindPredicate(name);
    if (existing && vocab_->arity(*existing) != def.arity()) {
      local.push_back(MakeDiagnostic(
          Severity::kError, "view-arity",
          "view " + name + " has arity " + std::to_string(def.arity()) +
              " but predicate " + name + " already exists with arity " +
              std::to_string(vocab_->arity(*existing))));
    }
    for (const View& v : views_) {
      if (vocab_->name(v.pred) == name) {
        local.push_back(MakeDiagnostic(
            Severity::kError, "view-duplicate",
            "view " + name + " is already defined in this view set"));
        break;
      }
    }
    if (!def.program.IsIdb(def.goal)) {
      local.push_back(MakeDiagnostic(
          Severity::kError, "goal",
          "view " + name + ": goal predicate " + vocab_->name(def.goal) +
              " is not the head of any definition rule"));
    }
    for (size_t ri = 0; ri < def.program.rules().size(); ++ri) {
      const Rule& rule = def.program.rules()[ri];
      CheckRuleSafety(rule, static_cast<int>(ri), &local);
      CheckRuleArity(rule, static_cast<int>(ri), *vocab_, &local);
    }
    if (required) {
      std::vector<Diagnostic> witnesses =
          FragmentViolations(def.program, *required);
      for (Diagnostic& d : witnesses) {
        d.message = "view " + name + ": " + d.message;
      }
      local.insert(local.end(), witnesses.begin(), witnesses.end());
    }
  }
  if (diags) diags->insert(diags->end(), local.begin(), local.end());
  if (HasErrors(local)) return std::nullopt;
  return AddView(name, def);
}

PredId ViewSet::AddCqView(const std::string& name, const CQ& def) {
  return AddView(name, CqAsDatalog(def, name + ".goal"));
}

PredId ViewSet::AddAtomicView(const std::string& name, PredId base) {
  int arity = vocab_->arity(base);
  CQ cq(vocab_);
  std::vector<VarId> vars;
  for (int i = 0; i < arity; ++i) vars.push_back(cq.AddVar());
  cq.AddAtom(base, vars);
  cq.SetFreeVars(vars);
  return AddCqView(name, cq);
}

const View* ViewSet::FindView(PredId pred) const {
  for (const View& v : views_) {
    if (v.pred == pred) return &v;
  }
  return nullptr;
}

std::unordered_set<PredId> ViewSet::ViewPreds() const {
  std::unordered_set<PredId> out;
  for (const View& v : views_) out.insert(v.pred);
  return out;
}

Instance ViewSet::Image(const Instance& inst) const {
  return Image(inst, nullptr);
}

Instance ViewSet::Image(const Instance& inst, EvalStats* stats) const {
  Instance fixpoint = Compiled().Eval(inst, stats);
  return fixpoint.RestrictTo(ViewPreds());
}

const CompiledProgram& ViewSet::Compiled() const {
  if (!compiled_) {
    compiled_ = std::make_shared<const CompiledProgram>(CombinedProgram());
  }
  return *compiled_;
}

Program ViewSet::CombinedProgram() const {
  Program out(vocab_);
  for (const View& v : views_) out.AddRules(v.definition.program);
  return out;
}

bool ViewSet::AllCq() const {
  for (const View& v : views_) {
    if (!v.IsCq()) return false;
  }
  return true;
}

bool ViewSet::AllFrontierGuarded() const {
  for (const View& v : views_) {
    if (!IsFrontierGuarded(v.definition.program)) return false;
  }
  return true;
}

bool ViewSet::AllMonadicOrCq() const {
  for (const View& v : views_) {
    if (!v.IsCq() && !IsMonadic(v.definition.program)) return false;
  }
  return true;
}

int ViewSet::MaxCqRadius() const {
  int r = 0;
  for (const View& v : views_) {
    if (v.IsCq()) r = std::max(r, v.AsCq().Radius());
  }
  return r;
}

ViewSet SplitDisconnectedCqViews(const ViewSet& views) {
  ViewSet out(views.vocab());
  for (const View& v : views.views()) {
    if (!v.IsCq()) {
      out.AddView(views.vocab()->name(v.pred) + "#same", v.definition);
      continue;
    }
    CQ cq = v.AsCq();
    Instance canon = cq.CanonicalDb();
    GaifmanGraph graph(canon);
    std::vector<std::vector<ElemId>> components = graph.Components();
    if (components.size() <= 1) {
      out.AddCqView(views.vocab()->name(v.pred) + "#0", cq);
      continue;
    }
    // Component index of each variable (kNoElem = isolated variable —
    // such variables cannot be free by CQ safety, and carry no atoms).
    std::vector<size_t> comp_of(cq.num_vars(), components.size());
    for (size_t c = 0; c < components.size(); ++c) {
      for (ElemId e : components[c]) comp_of[e] = c;
    }
    for (size_t c = 0; c < components.size(); ++c) {
      // V_c keeps the free variables of component c and existentially
      // closes everything else (so the body is the FULL original body:
      // the extra components act as Boolean guards, making V_c a
      // projection of V and V the join of all V_c).
      CQ part(views.vocab());
      for (size_t var = 0; var < cq.num_vars(); ++var) {
        part.AddVar(cq.var_name(static_cast<VarId>(var)));
      }
      for (const QAtom& a : cq.atoms()) part.AddAtom(a);
      std::vector<VarId> frees;
      for (VarId f : cq.free_vars()) {
        if (comp_of[f] == c) frees.push_back(f);
      }
      part.SetFreeVars(frees);
      out.AddCqView(
          views.vocab()->name(v.pred) + "#" + std::to_string(c), part);
    }
  }
  return out;
}

Program RenamePredicate(const Program& program, PredId from, PredId to) {
  MONDET_CHECK(program.vocab()->arity(from) == program.vocab()->arity(to));
  Program out(program.vocab());
  for (Rule rule : program.rules()) {
    if (rule.head.pred == from) rule.head.pred = to;
    for (QAtom& a : rule.body) {
      if (a.pred == from) a.pred = to;
    }
    out.AddRule(std::move(rule));
  }
  return out;
}

}  // namespace mondet
