// The mondet end-to-end benchmark driver.
//
//   mondet_perfbench --workload decide|evaluate|stream --seed N
//                    --seconds S --trace 0|1
//                    [--size full|tiny] [--inject-fault]
//                    [--trace-out FILE] [--source-id ID]
//
// One client runs a closed loop: each operation starts when the previous
// one has finished. The inputs are generated from the seed (tasks.cc), the
// ops go through the same public calls as examples/mondet_cli.cpp
// (workloads.cc), and every op's output is checked after its clock stops.
// Ops run in passes over a fixed op list; a new pass starts only while it
// is expected to end within the run's seconds, so every op of the list is
// measured equally often.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced passes and prints the per-layer metrics (busy seconds and
// work counts per pass, plus the tracing overhead). The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The line before it records the run's context. A failed check makes the
// exit code nonzero; --inject-fault corrupts one checked output so the
// self-test can see that happen.

#include <sys/personality.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datalog/eval_plan.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

// Set-up runs this many times before the first pass, and once more before
// every later pass; setup_s is the median of all of them. Spreading them
// over the run keeps a slow second of the machine from moving setup_s.
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  unsigned seed = 0;
  double seconds = 0;
  int trace = -1;
  Size size = Size::kFull;
  bool inject_fault = false;
  std::string trace_out;
  std::string source_id = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "mondet_perfbench: %s\nusage: mondet_perfbench --workload "
               "decide|evaluate|stream --seed N --seconds S --trace 0|1 "
               "[--size full|tiny] [--inject-fault] [--trace-out FILE] "
               "[--source-id ID]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--inject-fault") {
      a.inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      unsigned long v = std::strtoul(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("bad --seed " + value);
      a.seed = static_cast<unsigned>(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      a.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") Usage("bad --size " + value);
      a.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--source-id") {
      a.source_id = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.trace < 0) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Linear-interpolated quantile of sorted values.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Quantile(v, 0.5);
}


/// What a sequence of passes measured.
double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The timing figures of one window: a run of consecutive ops of fixed
/// length (Workload::WindowOps) whose mix of tasks is the same in every
/// window. The reported timings are medians over windows, so a slowdown
/// of the machine for part of the run moves them less than it would move
/// figures pooled over the run.
struct WindowFigures {
  double ops_per_s;
  double p50_ms;
  double p90_ms;
  double facts_per_s;
};

struct Measured {
  std::vector<WindowFigures> windows;
  std::vector<double> window_ms;  // latencies of the open window
  double window_busy_s = 0;
  Counters window_start;
  size_t samples = 0;
  double busy_s = 0;  // summed op latencies
  size_t attempted = 0;
  size_t failed = 0;
  size_t passes = 0;
  Counters counters;

  void Add(double seconds, size_t window_ops) {
    window_ms.push_back(seconds * 1e3);
    window_busy_s += seconds;
    busy_s += seconds;
    ++samples;
    if (window_ms.size() >= window_ops) CloseWindow();
  }

  /// Closes the open window. Runs too short for one whole window (the
  /// self-test's) close their partial one this way.
  void CloseWindow() {
    if (window_ms.empty()) return;
    std::sort(window_ms.begin(), window_ms.end());
    windows.push_back(
        {Ratio(static_cast<double>(window_ms.size()), window_busy_s),
         Quantile(window_ms, 0.5), Quantile(window_ms, 0.9),
         Ratio(counters.facts_derived - window_start.facts_derived,
               counters.fixpoint_s - window_start.fixpoint_s)});
    window_ms.clear();
    window_busy_s = 0;
    window_start = counters;
  }
};

/// Runs one pass; returns its wall seconds, checks included.
double RunPass(Workload& w, Tracer* tracer, bool corrupt, Measured* m) {
  int64_t pass_start = NowNs();
  w.BeginPass();
  size_t pass_failed = 0;
  for (size_t i = 0; i < w.PassSize(); ++i) {
    if (tracer != nullptr) tracer->set_op(static_cast<uint32_t>(m->attempted));
    bool threw = false;
    int64_t t0 = NowNs();
    try {
      Tracer::Scope span(tracer, Layer::kOp);
      w.RunOp(i, tracer, &m->counters);
    } catch (const std::exception& e) {
      threw = true;
      std::fprintf(stderr, "op %zu threw: %s\n", i, e.what());
    }
    m->Add(Seconds(NowNs() - t0), w.WindowOps());
    ++m->attempted;
    pass_failed += threw ? 1 : w.Check(i, corrupt && i == 0);
  }
  pass_failed += w.EndPass(corrupt);
  m->failed += pass_failed;
  ++m->passes;
  return Seconds(NowNs() - pass_start);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (!w) Usage("unknown workload " + args.workload);
  Tracer tracer;
  Tracer* traced = args.trace ? &tracer : nullptr;

  // The per-layer figures count the last initial set-up once, next to the
  // ops' figures per pass.
  std::vector<double> setup_s;
  Counters setup_counters;
  auto set_up = [&](Tracer* tracer_or_null, Counters* counters) {
    tracer.set_op(kSetupOp);
    int64_t t0 = NowNs();
    w->Setup(args.seed, args.size, tracer_or_null, counters);
    setup_s.push_back(Seconds(NowNs() - t0));
    return setup_s.back();
  };
  for (int k = 0; k < kSetupRepeats; ++k) {
    setup_counters = Counters{};
    set_up(k + 1 == kSetupRepeats ? traced : nullptr, &setup_counters);
  }

  // Closed loop. A pass (a pair of passes when tracing) starts only while
  // the previous one suggests it ends within the run's seconds; the first
  // pass's estimate leaves out its one-off reference checks.
  Measured plain, with_spans;
  const int64_t start = NowNs();
  double estimate = 0;
  do {
    double wall = 0;
    if (plain.passes > 0) {
      Counters untraced_setup;
      wall += set_up(nullptr, &untraced_setup);
    }
    bool corrupt = args.inject_fault && plain.passes == 0;
    wall += RunPass(*w, nullptr, corrupt, &plain);
    if (traced) wall += RunPass(*w, traced, false, &with_spans);
    estimate = plain.passes == 1
                   ? (plain.busy_s + with_spans.busy_s + setup_s.back()) * 1.2
                   : wall;
  } while (Seconds(NowNs() - start) + estimate <= args.seconds);
  if (plain.windows.empty()) plain.CloseWindow();
  size_t failed = plain.failed + with_spans.failed + w->EndRun();
  size_t attempted = plain.attempted + with_spans.attempted;
  failed = std::min(failed, attempted);

  std::vector<Metric> metrics;
  if (!traced) {
    auto median_of = [&](double WindowFigures::*field) {
      std::vector<double> v;
      for (const WindowFigures& f : plain.windows) v.push_back(f.*field);
      return Median(v);
    };
    const Counters& c = plain.counters;
    metrics = {
        {"ops_per_s", median_of(&WindowFigures::ops_per_s), "1/s"},
        {"op_p50_ms", median_of(&WindowFigures::p50_ms), "ms"},
        {"op_p90_ms", median_of(&WindowFigures::p90_ms), "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"checked_share",
         Ratio(static_cast<double>(attempted - failed), attempted), "share"},
        {"exact_share", Ratio(c.exact, plain.attempted), "share"},
        {"fixpoint_facts_per_s", median_of(&WindowFigures::facts_per_s), "1/s"},
    };
  } else {
    const double passes = static_cast<double>(with_spans.passes);
    const Counters& c = with_spans.counters;
    std::array<double, kNumLayers> ops = tracer.SelfSeconds(false);
    std::array<double, kNumLayers> setup = tracer.SelfSeconds(true);
    for (size_t l = 1; l < kNumLayers; ++l) {
      metrics.push_back({std::string(LayerName(static_cast<Layer>(l))) +
                             ".busy_s",
                         ops[l] / passes + setup[l], "s"});
    }
    auto per_pass = [&](const char* name, double total) {
      metrics.push_back({name, total / passes, "count"});
    };
    metrics.push_back({"datalog.parse.facts",
                       c.parse_facts / passes + setup_counters.parse_facts,
                       "count"});
    per_pass("core.check.tests_run", c.check_tests);
    per_pass("core.check.expansions_tried", c.check_expansions);
    per_pass("core.thm5.pairs_explored", c.thm5_pairs);
    per_pass("core.thm5.transition_visits", c.thm5_visits);
    per_pass("core.thm5.macrostates_visited", c.thm5_macrostates);
    metrics.push_back({"core.thm5.prune_ratio",
                       Ratio(c.thm5_prunes, c.thm5_pairs), "ratio"});
    per_pass("views.rewrite.rules", c.rewrite_rules);
    per_pass("datalog.eval.facts_derived", c.facts_derived);
    per_pass("datalog.eval.join_probes", c.join_probes);
    metrics.push_back({"datalog.eval.probes_per_fact",
                       Ratio(c.join_probes, c.facts_derived), "ratio"});
    per_pass("datalog.eval.iterations", c.iterations);
    per_pass("datalog.eval.replans", c.replans);
    per_pass("datalog.eval.rules_pruned", c.rules_pruned);
    per_pass("datalog.eval.stats_facts_counted", c.stats_facts_counted);
    per_pass("views.maintain.overdeleted", c.overdeleted);
    per_pass("views.maintain.rederived", c.rederived);
    metrics.push_back({"views.maintain.rederive_ratio",
                       Ratio(c.rederived, c.overdeleted), "ratio"});
    per_pass("views.maintain.facts_retracted", c.facts_retracted);
    metrics.push_back({"trace.overhead_share",
                       Ratio(with_spans.busy_s, plain.busy_s) - 1, "share"});
    if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  std::fputs(w->failures().c_str(), stderr);
  const char* threads_env = std::getenv("MONDET_THREADS");
  std::printf(
      "{\"context\": {\"workload\": %s, \"seed\": %u, \"trace\": %d, "
      "\"nproc\": %u, \"MONDET_THREADS\": %s, \"threads_resolved\": %d, "
      "\"build_type\": %s, \"compiler\": %s, \"source\": %s, "
      "\"aslr\": %s, "
      "\"passes\": %zu, \"ops_per_pass\": %zu, \"windows\": %zu, "
      "\"samples\": %zu, \"setups\": %zu}}\n",
      JsonString(args.workload).c_str(), args.seed, args.trace,
      std::thread::hardware_concurrency(),
      threads_env ? JsonString(threads_env).c_str() : "null",
      mondet::ResolveEvalThreads(0), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(args.source_id).c_str(),
      (personality(0xffffffff) & ADDR_NO_RANDOMIZE) ? "false" : "true",
      plain.passes, w->PassSize(),
      plain.windows.size(), plain.samples, setup_s.size());
  std::string out = "{\"correct\": " + std::string(failed ? "false" : "true") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::ParseArgs(argc, argv);
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mondet_perfbench: %s\n", e.what());
    return 1;
  }
}
