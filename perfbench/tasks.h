// Seeded generation of the benchmark's inputs. Everything the measured
// pipeline sees is `.task` text in the format examples/mondet_cli.cpp
// reads; the generator is built on src/testing/generator and the
// reductions' gadget builders, and the same seed yields the same text.

#ifndef MONDET_PERFBENCH_TASKS_H_
#define MONDET_PERFBENCH_TASKS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Full-size inputs for measurement, or tiny ones for the self-test.
enum class Size { kFull, kTiny };

/// The paper's known answer for a gadget task (decide workload).
enum class Expect {
  kNone,           // generated task: no known answer, checked otherwise
  kDetermined,     // exact kDetermined (or Thm 5 "determined")
  kNotDetermined,  // a failing canonical test exists
  kNotRefuted,     // determined, but only a bounded check is available
};

struct Task {
  std::string family;
  std::string text;
  Expect expect = Expect::kNone;
};

/// Tasks per round of DecideTasks / EvaluateTasks: each round holds one
/// task of every cell or family, so windows of whole rounds have the same
/// mix.
constexpr size_t kDecideRound = 7;
constexpr size_t kEvaluateRound = 5;

/// (query, views) tasks over the Table 2 cells: generated CQ/CQ, UCQ/UCQ,
/// CQ/Datalog, MDL/MDL+CQ, FGDL/FGDL and MDL/UCQ pairs (each with a tiny
/// instance), interleaved with gadget families whose verdict is known.
std::vector<Task> DecideTasks(unsigned seed, Size size);

/// Recursive programs with lossless views over instances whose sizes are
/// spread log-uniformly over 1e2..1e4 facts: reachability,
/// same-generation + transitive closure, PlanProfile random programs and
/// the Fig 4 diamond-chain family (CQ views, inverse-rules rewriting).
std::vector<Task> EvaluateTasks(unsigned seed, Size size);

/// Independent tasks, each with an instance and a `.stream` section:
/// atomic views plus a recursive transitive-closure view over a random
/// graph, and a RandomSchedule of raw insert/delete batches (one per line).
/// Several graphs per seed keep the op-time mix from hanging on one draw.
std::vector<Task> StreamTasks(unsigned seed, Size size);

}  // namespace perfbench

#endif  // MONDET_PERFBENCH_TASKS_H_
