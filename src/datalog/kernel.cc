#include "datalog/kernel.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace mondet {

namespace {

/// Deliberate fault injection for the fuzz harness' self-test
/// (scripts/check_fuzz_fault.sh): with MONDET_FAULT=skip-kernel-row every
/// kernel candidate enumeration drops its last row — the classic
/// off-by-one a hand-rolled loop nest invites. Kernels run every Eval, so
/// the eval-differential oracle must catch it against the naive
/// reference and shrink it.
size_t FaultSkipKernelRow() {
  static const size_t trim = [] {
    const char* env = std::getenv("MONDET_FAULT");
    return env != nullptr && std::strcmp(env, "skip-kernel-row") == 0
               ? size_t{1}
               : size_t{0};
  }();
  return trim;
}

struct RunCtx {
  const JoinKernel& k;
  const Instance& inst;
  ElemId* frame;
  KernelCounters& c;
  DerivedBuffer* out;
  size_t fault_trim;
};

void EmitHead(RunCtx& ctx) {
  // Stage the head straight into the buffer and roll it back when the
  // target already holds it (one hash probe, no allocation); duplicates
  // derived within the same round are deduplicated at the merge barrier.
  std::vector<ElemId>& args = ctx.out->args;
  const size_t at = args.size();
  for (uint32_t slot : ctx.k.head_slots) args.push_back(ctx.frame[slot]);
  if (ctx.inst.HasFact(ctx.k.head_pred,
                       std::span<const ElemId>(args).subspan(at))) {
    args.resize(at);
  } else {
    ++ctx.out->count;
  }
}

/// Applies one step's ops to a candidate row: equality checks against the
/// frame for bound positions, frame writes for binding ones. Returns
/// false on the first failed check. Writes need no undo — every slot a
/// kernel reads at depth d was deterministically written before it, so
/// stale values below d are simply overwritten on the next candidate.
inline bool ApplyOps(const std::vector<KernelOp>& ops, const ElemId* row,
                     ElemId* frame) {
  for (const KernelOp& op : ops) {
    if (op.check) {
      if (frame[op.slot] != row[op.pos]) return false;
    } else {
      frame[op.slot] = row[op.pos];
    }
  }
  return true;
}

void RunSteps(RunCtx& ctx, size_t depth) {
  if (depth == ctx.k.steps.size()) {
    EmitHead(ctx);
    return;
  }
  const KernelStep& st = ctx.k.steps[depth];
  const Instance& inst = ctx.inst;

  if (st.kind == KernelStep::kMembership) {
    // Every position is pre-bound: one hash probe of the key, assembled
    // in the frame's tail, replaces a bucket enumeration.
    ElemId* key = ctx.frame + ctx.k.num_slots;
    for (const KernelOp& op : st.ops) key[op.pos] = ctx.frame[op.slot];
    ++ctx.c.probes;
    if (inst.HasFact(st.pred, std::span<const ElemId>(key, st.arity))) {
      if (ctx.c.step_rows) ++(*ctx.c.step_rows)[depth];
      RunSteps(ctx, depth + 1);
    }
    return;
  }

  std::span<const uint32_t> rows;
  switch (st.kind) {
    case KernelStep::kProbe1:
      rows = inst.RowsWith(st.pred, st.probes[0].pos,
                           ctx.frame[st.probes[0].slot]);
      break;
    case KernelStep::kProbe2: {
      const std::span<const uint32_t> a = inst.RowsWith(
          st.pred, st.probes[0].pos, ctx.frame[st.probes[0].slot]);
      const std::span<const uint32_t> b = inst.RowsWith(
          st.pred, st.probes[1].pos, ctx.frame[st.probes[1].slot]);
      rows = b.size() < a.size() ? b : a;
      break;
    }
    case KernelStep::kProbeN: {
      rows = inst.RowsWith(st.pred, st.probes[0].pos,
                           ctx.frame[st.probes[0].slot]);
      for (size_t i = 1; i < st.probes.size(); ++i) {
        const std::span<const uint32_t> r = inst.RowsWith(
            st.pred, st.probes[i].pos, ctx.frame[st.probes[i].slot]);
        // Strict <: the first minimum wins (candidate *order* is
        // insertion order either way).
        if (r.size() < rows.size()) rows = r;
      }
      break;
    }
    case KernelStep::kScan:
    case KernelStep::kMembership:
      break;
  }

  const ElemId* base = inst.FlatArgs(st.pred).data();
  const size_t arity = st.arity;
  const bool scan = st.kind == KernelStep::kScan;
  const size_t n = scan ? inst.NumRows(st.pred) : rows.size();
  ctx.c.probes += n;
  const size_t end = n > ctx.fault_trim ? n - ctx.fault_trim : 0;
  for (size_t i = 0; i < end; ++i) {
    const size_t row = scan ? i : rows[i];
    if (!ApplyOps(st.ops, base + row * arity, ctx.frame)) continue;
    if (ctx.c.step_rows) ++(*ctx.c.step_rows)[depth];
    RunSteps(ctx, depth + 1);
  }
}

}  // namespace

JoinKernel BuildKernel(const QAtom& head, const std::vector<QAtom>& body,
                       size_t num_vars, int seat,
                       const std::vector<uint32_t>& order) {
  JoinKernel k;
  k.head_pred = head.pred;
  k.num_slots = static_cast<uint32_t>(num_vars);
  k.head_slots.assign(head.args.begin(), head.args.end());

  // Per variable: 0 = unbound, 1 = bound before the current step, 2 =
  // written by the current step (a repeated variable within the atom,
  // checked but not a probe anchor).
  std::vector<uint8_t> bound(num_vars, 0);
  if (seat >= 0) {
    const QAtom& a = body[seat];
    k.seat_pred = a.pred;
    k.seat_arity = static_cast<uint32_t>(a.args.size());
    k.seat_ops.reserve(a.args.size());
    for (uint32_t pos = 0; pos < a.args.size(); ++pos) {
      const VarId v = a.args[pos];
      // Repeated seat variable: later occurrences must agree.
      k.seat_ops.push_back({pos, v, bound[v] != 0});
      bound[v] = 1;
    }
  }

  uint32_t key_width = 0;
  k.steps.reserve(order.size());
  for (uint32_t bi : order) {
    const QAtom& a = body[bi];
    KernelStep& st = k.steps.emplace_back();
    st.pred = a.pred;
    st.arity = static_cast<uint32_t>(a.args.size());
    st.ops.reserve(a.args.size());
    for (uint32_t pos = 0; pos < a.args.size(); ++pos) {
      const VarId v = a.args[pos];
      if (bound[v] == 1) st.probes.push_back({pos, v});
      st.ops.push_back({pos, v, bound[v] != 0});
      if (bound[v] == 0) bound[v] = 2;
    }
    for (const KernelOp& op : st.ops) bound[op.slot] = 1;
    if (st.probes.size() == a.args.size()) {
      st.kind = KernelStep::kMembership;
      key_width = std::max(key_width, st.arity);
    } else if (st.probes.size() == 1) {
      st.kind = KernelStep::kProbe1;
      // The anchor's equality check is guaranteed by the bucket; drop it.
      const uint32_t anchor = st.probes[0].pos;
      st.ops.erase(std::find_if(
          st.ops.begin(), st.ops.end(),
          [&](const KernelOp& op) { return op.pos == anchor; }));
    } else if (st.probes.size() == 2) {
      st.kind = KernelStep::kProbe2;
    } else if (!st.probes.empty()) {
      st.kind = KernelStep::kProbeN;
    } else {
      st.kind = KernelStep::kScan;
    }
  }
  k.frame_size = k.num_slots + key_width;
  return k;
}

void RunKernelFull(const JoinKernel& k, const Instance& target,
                   std::vector<ElemId>& frame, KernelCounters& c,
                   DerivedBuffer* out) {
  if (frame.size() < k.frame_size) frame.resize(k.frame_size);
  RunCtx ctx{k, target, frame.data(), c, out, FaultSkipKernelRow()};
  if (c.seedings) ++(*c.seedings);
  RunSteps(ctx, 0);
}

void RunKernelDelta(const JoinKernel& k, const Instance& target,
                    std::span<const uint32_t> delta_rows,
                    std::vector<ElemId>& frame, KernelCounters& c,
                    DerivedBuffer* out) {
  if (frame.size() < k.frame_size) frame.resize(k.frame_size);
  RunCtx ctx{k, target, frame.data(), c, out, FaultSkipKernelRow()};
  const ElemId* base = target.FlatArgs(k.seat_pred).data();
  const size_t arity = k.seat_arity;
  for (uint32_t row : delta_rows) {
    if (!ApplyOps(k.seat_ops, base + static_cast<size_t>(row) * arity,
                  ctx.frame)) {
      continue;
    }
    if (c.seedings) ++(*c.seedings);
    RunSteps(ctx, 0);
  }
}

}  // namespace mondet
