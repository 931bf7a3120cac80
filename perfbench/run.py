#!/usr/bin/env python3
"""Builds and runs the mondet end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload decide|evaluate|stream --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first run configures and builds the mondet library and the driver
(perfbench/CMakeLists.txt, RelWithDebInfo) under $CARGO_TARGET_DIR, or
.bench_build when it is unset; later runs reuse that build. The driver's
standard output is passed through: its last line is the result JSON and
the line before it the run's context (cores, MONDET_THREADS, build type,
compiler, source id, seed). The driver runs with MONDET_THREADS=1 unless
the caller sets it (see driver_env). With --trace 1 the spans are also written to
<build dir>/traces/<workload>-<seed>.jsonl.

--selftest runs every workload of BENCHMARK.json at tiny size, traced and
untraced, checks that every metric BENCHMARK.json names is reported with
its unit, that the end-to-end ones are above 0 and that no op failed, and
checks that an output corrupted on purpose (--inject-fault) is counted as
failed and fails the run. It also checks that perfbench/layers.json, which
records for each per-layer metric the end-to-end metrics it should move
("moves"), on which workloads ("on"), and where it should stay flat
("flat_on"), covers exactly the per-layer metrics.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "mondet_perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "mondet_perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            return commit.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def no_aslr():
    """Turns off address-space randomization for the driver process.

    The same build run twice with random layouts differs by up to ~10% in
    op time on memory-bound ops (cache-set conflicts), which would swamp
    the run-to-run spread; a fixed layout per build does not. Ignored where
    the personality call is refused.
    """
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        addr_no_randomize = 0x0040000
        current = libc.personality(0xffffffff)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass


def driver_env():
    """The driver's environment: one worker thread unless MONDET_THREADS
    is set.

    The library fans every Eval and every check's D'-test batch out over
    its pool, with no size gate, so a 25 us maintenance batch or a 0.1 ms
    decide task waits on up to four threads. On a virtual machine whose
    vCPUs the host deschedules now and then, such an op waits for the
    slowest vCPU: at four threads the same decide runs spread up to three
    times as widely as at one, which would hide a real change behind the
    scheduler's.
    """
    env = dict(os.environ)
    env.setdefault("MONDET_THREADS", "1")
    return env


def run_driver(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the driver; returns (exit code, stdout, stderr)."""
    try:
        p = subprocess.run([binary] + args, capture_output=True, text=True,
                           timeout=timeout, preexec_fn=no_aslr,
                           env=driver_env())
    except subprocess.TimeoutExpired:
        return 124, "", "timed out after %ds" % timeout
    return p.returncode, p.stdout, p.stderr


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    problems = []
    names = {m["name"] for m in bench["per_layer"]}
    if set(layers) != names:
        problems.append("layers.json and BENCHMARK.json per_layer differ: %s"
                        % sorted(set(layers) ^ names))
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
            code, out, err = run_driver(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--size", "tiny"])
            result = last_json(out) if code == 0 else None
            where = "%s --trace %s" % (workload, trace)
            if result is None:
                problems.append("%s: exit %d\n%s" % (where, code, err[-2000:]))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (where, sorted(set(got.items()) ^
                                                 set(want.items()))))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d failed ops" % (where, result["failed"]))
            if trace == "0":
                if result["metrics"]["checked_share"]["value"] != 1:
                    problems.append(where + ": checked_share != 1")
                zero = [k for k, v in result["metrics"].items()
                        if v["value"] <= 0]
                if zero:
                    problems.append("%s: metrics not above 0: %s"
                                    % (where, zero))
        code, out, err = run_driver(binary, [
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", "0", "--size", "tiny", "--inject-fault"])
        result = last_json(out)
        if code == 0 or result is None or result["correct"] or \
                result["failed"] < 1:
            problems.append("%s: the injected fault was not counted (exit %d)"
                            % (workload, code))
    for p in problems:
        log("selftest: " + p)
    log("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv):
    binary = build()
    if binary is None:
        return 2
    if argv == ["--selftest"]:
        return selftest(binary)
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args[:-1] else "unknown"
        seed = args[args.index("--seed") + 1] if "--seed" in args[:-1] else "0"
        args += ["--trace-out", os.path.join(traces, "%s-%s.jsonl"
                                             % (os.path.basename(workload),
                                                os.path.basename(seed)))]
    code, out, err = run_driver(binary, args + ["--source-id", source_id()])
    sys.stderr.write(err)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
