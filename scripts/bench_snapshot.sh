#!/usr/bin/env bash
# Perf trajectory snapshot: run the tier-1 bench smoke set, then capture
# the committed bench JSON at the repo root, so future changes can diff
# wall times and counters against this one:
#
#   BENCH_table2.json       Table 2 families, the Figure 4 row-family
#                           evaluator sweep and the antichain rung
#   BENCH_maintenance.json  maintenance churn family
#   BENCH_kernels.json      compiled-kernel probe shapes
#
# Every benchmark runs 3 repetitions and only the medians are recorded
# (names end in "_median"). The checker thread sweeps (*_Threads) and
# the evaluator families (Figure 4 rows, maintenance, kernel shapes) run
# twice: in the caller's environment (MONDET_THREADS unset = hardware
# concurrency) and again at MONDET_THREADS=1, merged under a
# "/MONDET_THREADS:1" name suffix, so a change that helps one setting
# and hurts the other shows up in one snapshot. Each file's context
# records nproc, the CMake build type, MONDET_THREADS ("unset" when the
# variable is not set) and the repetition count. Needs python3.
#
#   BENCH_MIN_TIME  per-repetition min time in seconds (default 0.2; the
#                   smoke pass always uses the tier-1 value of 0.01)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
MIN_TIME="${BENCH_MIN_TIME:-0.2}"
REPS=3
OUT="build/bench_snapshot"

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build -j "$JOBS" --target \
  bench_table1 bench_table2 bench_fig1_gridtests bench_fig2_startimage \
  bench_fig3_diamonds bench_fig4_longrows bench_fig5_lemma3 \
  bench_maintenance bench_kernels bench_antichain

# Smoke pass: every bench binary once, same flags as the tier-1 ctests.
for b in build/bench/bench_*; do
  [ -x "$b" ] || continue
  echo "== smoke: $(basename "$b")"
  "$b" --benchmark_min_time=0.01 > /dev/null
done

# run <name> <binary> [flags...]: one snapshot run into $OUT/<name>.json.
run() {
  local name="$1" bin="$2"
  shift 2
  echo "== snapshot: $name"
  "$bin" --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions="$REPS" \
    --benchmark_report_aggregates_only=true \
    --benchmark_out="$OUT/$name.json" --benchmark_out_format=json \
    "$@" > /dev/null
}
# both <name> <binary> [flags...]: run as called and at MONDET_THREADS=1.
both() {
  local name="$1"
  shift
  run "$name" "$@"
  MONDET_THREADS=1 run "$name.threads1" "$@"
}

rm -rf "$OUT"
mkdir -p "$OUT"
run table2 ./build/bench/bench_table2
MONDET_THREADS=1 run table2_sweeps.threads1 ./build/bench/bench_table2 \
  --benchmark_filter='_Threads'
# Figure 4 row-family evaluator sweep: live planning against the
# compile-time orders (BM_Fig4_RowFamilyEval vs ..._StaticPlan);
# stats_counted shows the rows the per-stratum / per-re-plan recounts
# touch.
both fig4 ./build/bench/bench_fig4_longrows \
  --benchmark_filter='BM_Fig4_RowFamilyEval'
# Antichain-inclusion rung: lazy NtaIncluded vs the explicit
# Complement+Product route on the exponential family (macrostates /
# det_states counters expose the O(k)-vs-2^k gap; the explicit arm is
# capped at k = 12 by design — see bench/bench_antichain.cc).
run antichain ./build/bench/bench_antichain
# Maintenance churn family: maintained view image vs from-scratch
# recompute under small insert/delete batches, plus the self-checking
# speedup gauge (counter `speedup`; the acceptance bar is >= 2x on these
# small-delta steps — the SetLabel flags any run below it).
both maintenance ./build/bench/bench_maintenance
# Kernel probe-shape family: one compiled-kernel shape per benchmark
# (single-position probe, binary-min probe, membership, scan); each
# self-checks its fixpoint size in its label.
both kernels ./build/bench/bench_kernels

python3 - "$OUT" "$REPS" <<'EOF'
import json
import os
import sys

out, reps = sys.argv[1], int(sys.argv[2])

build_type = "unknown"
with open("build/CMakeCache.txt") as f:
    for line in f:
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1].strip()


def load(name):
    """The run's JSON with only its median rows; a .threads1 run's names
    gain the /MONDET_THREADS:1 suffix."""
    with open(os.path.join(out, name + ".json")) as f:
        data = json.load(f)
    rows = [b for b in data["benchmarks"] if b.get("aggregate_name") == "median"]
    if name.endswith(".threads1"):
        for b in rows:
            for key in ("name", "run_name"):
                b[key] += "/MONDET_THREADS:1"
    data["benchmarks"] = rows
    return data


def write(path, parts):
    snap = load(parts[0])
    for part in parts[1:]:
        snap["benchmarks"] += load(part)["benchmarks"]
    ctx = snap["context"]
    ctx["nproc"] = len(os.sched_getaffinity(0))
    ctx["MONDET_THREADS"] = os.environ.get("MONDET_THREADS", "unset")
    ctx["build_type"] = build_type
    ctx["repetitions"] = reps
    ctx["aggregate"] = "median"
    with open(path, "w") as f:
        json.dump(snap, f, indent=2)
        f.write("\n")
    print("bench_snapshot: wrote " + path)


write("BENCH_table2.json", ["table2", "table2_sweeps.threads1", "fig4",
                            "fig4.threads1", "antichain"])
write("BENCH_maintenance.json", ["maintenance", "maintenance.threads1"])
write("BENCH_kernels.json", ["kernels", "kernels.threads1"])
EOF
