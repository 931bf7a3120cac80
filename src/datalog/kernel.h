#ifndef MONDET_DATALOG_KERNEL_H_
#define MONDET_DATALOG_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/instance.h"
#include "cq/cq.h"

namespace mondet {

/// Compiled join kernels: each planned (rule, delta-seat, join-order)
/// triple lowers into a flat loop nest over the columnar fact store
/// (Instance rows). This is the evaluator's only join executor;
/// CompiledProgram lowers a kernel whenever it fixes a join order and
/// stores the two side by side.
///
/// A kernel is shape-specialized at build time: per body atom it records
/// which positions are already bound when the atom runs (index probes +
/// equality checks) and which positions write a variable into the
/// binding frame. At run time the only decisions left are picking the
/// smallest candidate bucket among the probe positions and comparing
/// ElemIds — no per-tuple allocation, no kNoElem sentinel tests, no
/// std::function indirection.
///
/// Determinism: a kernel enumerates candidate rows in row-insertion order
/// — bucket order equals insertion order on the insert-only Eval path,
/// and the anchor choice only narrows the candidate *set scan*, never
/// reorders the surviving matches. So one (rule, seat, order) always
/// derives the same heads in the same order, whatever the thread count.

/// One position of a step's candidate row: either compare the row's
/// argument at `pos` against frame slot `slot` (check) or write it there.
/// Ops are evaluated in position order, so a repeated variable within one
/// atom writes first and checks later occurrences.
struct KernelOp {
  uint32_t pos = 0;
  uint32_t slot = 0;
  bool check = false;
};

/// A pre-bound position usable as the index-probe anchor.
struct KernelProbe {
  uint32_t pos = 0;
  uint32_t slot = 0;
};

/// One body atom of a kernel, in join order.
struct KernelStep {
  /// Shape tag, decided at build time from the bound/unbound positions:
  /// the hot 1- and 2-probe shapes skip the runtime anchor scan entirely
  /// (and kProbe1 also the anchor's redundant equality check); kMembership
  /// is a single hash-table probe; kScan is the no-bound-position
  /// fallback over all rows.
  enum Kind : uint8_t { kMembership, kProbe1, kProbe2, kProbeN, kScan };

  PredId pred = kNoPred;
  uint32_t arity = 0;
  Kind kind = kScan;
  std::vector<KernelProbe> probes;  // pre-bound positions (anchor choices)
  std::vector<KernelOp> ops;        // checks + writes, position order
};

/// A full compiled kernel: the delta-seat loader, the join steps, and the
/// head emitter. A run's frame holds `frame_size` ElemIds: the rule's
/// `num_slots` variables, then room for the widest membership key. Safety
/// guarantees every head slot is written before the head is emitted.
struct JoinKernel {
  PredId head_pred = kNoPred;
  std::vector<uint32_t> head_slots;  // frame slot per head position
  uint32_t num_slots = 0;
  uint32_t frame_size = 0;
  PredId seat_pred = kNoPred;  // kNoPred for the full-join kernel
  uint32_t seat_arity = 0;
  std::vector<KernelOp> seat_ops;  // checks = repeated seat variables
  std::vector<KernelStep> steps;
};

/// Per-run counters: `probes` counts candidate rows scanned (bucket
/// sizes, or every row for a scan; a fully bound membership step counts
/// one probe), `step_rows[d]` counts rows surviving step d's checks,
/// `seedings` successful seat bindings (1 for a full join).
struct KernelCounters {
  size_t probes = 0;
  std::vector<size_t>* step_rows = nullptr;
  size_t* seedings = nullptr;
};

/// Flat derived-head buffer: `count` heads of one rule, their arguments
/// concatenated in `args` (head i spans [i*arity, (i+1)*arity)). The
/// explicit count keeps nullary heads representable.
struct DerivedBuffer {
  std::vector<ElemId> args;
  size_t count = 0;

  void clear() {
    args.clear();
    count = 0;
  }
};

/// Lowers one planned (rule, seat, order) into a kernel. `seat` is the
/// body index whose variables the delta fact pre-binds (-1 = full join);
/// `order` lists the remaining body atoms in join order.
JoinKernel BuildKernel(const QAtom& head, const std::vector<QAtom>& body,
                       size_t num_vars, int seat,
                       const std::vector<uint32_t>& order);

/// Runs the full-join kernel over `target`, appending each derived head
/// (not already in `target`) to `out` — a flat buffer, no per-fact
/// allocation. `frame` is the caller's reusable binding frame, grown to
/// `k.frame_size` when shorter.
void RunKernelFull(const JoinKernel& k, const Instance& target,
                   std::vector<ElemId>& frame, KernelCounters& c,
                   DerivedBuffer* out);

/// Runs the delta kernel once per row of `delta_rows` (rows of
/// `k.seat_pred` in `target`), appending derived heads to `out`.
void RunKernelDelta(const JoinKernel& k, const Instance& target,
                    std::span<const uint32_t> delta_rows,
                    std::vector<ElemId>& frame, KernelCounters& c,
                    DerivedBuffer* out);

}  // namespace mondet

#endif  // MONDET_DATALOG_KERNEL_H_
