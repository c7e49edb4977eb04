#!/usr/bin/env python3
"""bench_e2e front end: builds the benchmark, runs its reps one process at a
time, checks the oracles, and prints the results.

Benchmark-runner form (what BENCHMARK.json's "command" runs; prints one JSON
object as its last stdout line):

    python3 bench/e2e/run.py --workload W --seed N --seconds T --trace 0|1

By hand:

    run.py run      [--workload W ...] [--seed N] [--seconds T]
    run.py trace    [--workload W ...] [--seed N]
    run.py smoke
    run.py compare  BASE.json NEW.json
    run.py baseline

Every rep is a fresh `bench_e2e rep` process, so set-up time and peak
memory are what a user pays. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the repository root; durable run state and trace files
go there too, never into the source tree. See README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FLEET_WORKLOADS = {"fleet-scale", "fleet-control"}
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

MIN_REPS = 3
MAX_REPS = 30
REP_TIMEOUT_S = 150
SMOKE_REPS = 2
FLEET_THREADS = 4
# The acceptance sets `run.py baseline` makes, as the benchmark runner makes
# them: BASELINE_SETS sets of BASELINE_SEEDS runs per workload, each run on
# its own seed, set k using seeds 1000*k+1 ...
BASELINE_SETS = 2
BASELINE_SEEDS = 10


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def die(message, code=2):
    log(f"bench_e2e: {message}")
    sys.exit(code)


# ------------------------------------------------------------------ build

def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build():
    """Configure (once) and build bench_e2e; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no arcadia source tree at {ROOT}; the benchmark builds the "
            "library from source")
    bdir = build_root() / "bench_e2e"
    # The compiler's temporary files stay under the build root too.
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        if not (bdir / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, env=env, check=True)
        subprocess.run(["cmake", "--build", str(bdir), "--target", "bench_e2e",
                        "-j", str(host_cores())],
                       stdout=sys.stderr, env=env, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}")
    return bdir / "bench_e2e"


def host_cores():
    return len(os.sched_getaffinity(0))


def check_host():
    cores = host_cores()
    if cores < FLEET_THREADS:
        log(f"bench_e2e: WARNING: {cores} cores < {FLEET_THREADS}; the fleet "
            f"workloads run {FLEET_THREADS} simulation threads, so these "
            "numbers do not compare with a 4-core baseline")
    return cores


class Scratch:
    """A private directory under the build root, removed on exit."""

    def __enter__(self):
        root = build_root()
        root.mkdir(parents=True, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="scratch-", dir=root)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


# ------------------------------------------------------------------- reps

def run_rep(binary, workload, seed, scratch, traced=False,
            threads=FLEET_THREADS, smoke=False, trace_out=None):
    """One `bench_e2e rep` process, waited for. Returns its parsed JSON (or
    None), exit code and host seconds."""
    cmd = [str(binary), "rep", "--workload", workload, "--seed", str(seed),
           "--scratch", scratch, "--threads", str(threads)]
    if traced:
        cmd.append("--traced")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=REP_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        code, out = "timeout", b""
    rep = {"exit": code, "elapsed_s": time.monotonic() - start,
           "result": None}
    if code == 0:
        try:
            rep["result"] = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            rep["exit"] = "unparsable output"
    return rep


def rep_problems(rep):
    if rep["result"] is None:
        return [f"rep exited with {rep['exit']}"]
    return list(rep["result"]["errors"])


def tally(reps):
    attempted = sum(r["result"]["ops"] if r["result"] else 1 for r in reps)
    failed = sum(r["result"]["ops_failed"] if r["result"] else 1 for r in reps)
    return attempted, failed


def same_outputs(reps):
    """The deterministic outputs agree across every rep (the oracle that
    neither repetition, thread count nor tracing changed behaviour)."""
    keys = {json.dumps(r["result"]["quality"], sort_keys=True) for r in reps}
    return len(keys) == 1


def quality_metrics(q):
    return {
        "repair_latency_mean_sim_s": q["repair_latency_mean_s"],
        "client_latency_mean_sim_s": q["client_latency_s"],
        "client_requests_above_2s": q["client_above_share"],
    }


def with_units(values, units):
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def result_json(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def timed_result(binary, workload, seed, seconds, scratch, smoke=False):
    """Untraced reps while another fits in `seconds` (at least MIN_REPS);
    medians of the host metrics, the deterministic ones from any rep."""
    min_reps = SMOKE_REPS if smoke else MIN_REPS
    reps = []
    start = time.monotonic()
    while True:
        reps.append(run_rep(binary, workload, seed, scratch, smoke=smoke))
        if reps[-1]["result"] is None or len(reps) >= MAX_REPS:
            break
        typical = statistics.median(r["elapsed_s"] for r in reps)
        if (len(reps) >= min_reps
                and time.monotonic() - start + typical > seconds):
            break
    problems = [p for r in reps for p in rep_problems(r)]
    good = [r for r in reps if r["result"]]
    if good and not same_outputs(good):
        problems.append("reps disagree on deterministic outputs")
    attempted, failed = tally(reps)
    for p in dict.fromkeys(problems):
        log(f"bench_e2e: {workload}: {p}")
    if not good:
        return result_json(False, attempted, max(failed, 1), {}), reps
    values = {
        "setup_s": statistics.median(r["result"]["setup_s"] for r in good),
        "wall_s": statistics.median(r["result"]["wall_s"] for r in good),
        "peak_rss_mb": statistics.median(r["result"]["peak_rss_mb"]
                                         for r in good),
        **quality_metrics(good[0]["result"]["quality"]),
    }
    correct = not problems and failed == 0
    return result_json(correct, attempted, failed,
                       with_units(values, E2E_UNITS)), reps


def traced_result(binary, workload, seed, scratch, smoke=False):
    """An untraced rep, a traced rep (which writes the Chrome trace) and,
    for fleets, a traced one-thread rep; per-layer metrics from the traced
    rep, plus the two that compare reps."""
    trace_out = build_root() / f"e2e-trace-{workload}-seed{seed}.json"
    base = run_rep(binary, workload, seed, scratch, smoke=smoke)
    traced = run_rep(binary, workload, seed, scratch, traced=True,
                     smoke=smoke, trace_out=trace_out)
    reps = [base, traced]
    single = None
    if workload in FLEET_WORKLOADS:
        single = run_rep(binary, workload, seed, scratch, traced=True,
                         threads=1, smoke=smoke)
        reps.append(single)
    problems = [p for r in reps for p in rep_problems(r)]
    attempted, failed = tally(reps)
    if problems:
        for p in dict.fromkeys(problems):
            log(f"bench_e2e: {workload}: {p}")
        return result_json(False, attempted, max(failed, 1), {}), reps
    if not same_outputs(reps):
        problems.append("traced, untraced and one-thread reps disagree")
        log(f"bench_e2e: {workload}: {problems[-1]}")
    layers = dict(traced["result"]["layers"])
    traced_wall = layers["bench.traced_wall_s"]
    layers["sim.parallel_speedup"] = (
        single["result"]["layers"]["bench.traced_wall_s"] / traced_wall
        if single else 0.0)
    layers["bench.trace_overhead"] = (
        traced_wall / base["result"]["wall_s"] - 1.0)
    log(f"bench_e2e: trace written to {trace_out}")
    correct = not problems and failed == 0
    return result_json(correct, attempted, failed,
                       with_units(layers, LAYER_UNITS)), reps


# --------------------------------------------------------------- commands

def cmd_runner(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args(argv)
    if a.seed < 0:
        die("--seed must be a non-negative integer")
    binary = build()
    check_host()
    with Scratch() as scratch:
        if a.trace:
            result, _ = traced_result(binary, a.workload, a.seed, scratch)
        else:
            result, _ = timed_result(binary, a.workload, a.seed, a.seconds,
                                     scratch)
    print(json.dumps(result), flush=True)
    return 0


def print_table(workload, result):
    print(f"{workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")


def cmd_run(a, traced):
    binary = build()
    check_host()
    ok = True
    with Scratch() as scratch:
        for w in a.workload or WORKLOADS:
            if traced:
                result, _ = traced_result(binary, w, a.seed, scratch)
            else:
                result, _ = timed_result(binary, w, a.seed, a.seconds, scratch)
            print_table(w, result)
            ok &= result["correct"]
    return 0 if ok else 1


def schema_problems(result, units):
    """Check one result object against the BENCHMARK.json contract."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if result["failed"] != 0:
        problems.append(f"failed = {result['failed']}")
    if set(result["metrics"]) != set(units):
        problems.append("metric set differs: "
                        f"{sorted(set(result['metrics']) ^ set(units))}")
    for name, m in result["metrics"].items():
        v = m.get("value")
        if set(m) != {"value", "unit"} or m.get("unit") != units.get(name):
            problems.append(f"{name}: bad entry {m}")
        elif not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r}")
    return problems


def cmd_smoke(_a):
    """Every workload at reduced size, every oracle, and the output schema
    of both result kinds; non-zero exit on any failure."""
    start = time.monotonic()
    binary = build()
    check_host()
    failures = []
    with Scratch() as scratch:
        for w in WORKLOADS:
            untraced, _ = timed_result(binary, w, 1, 0, scratch, smoke=True)
            traced, _ = traced_result(binary, w, 1, scratch, smoke=True)
            for kind, result, units in (("run", untraced, E2E_UNITS),
                                        ("trace", traced, LAYER_UNITS)):
                for p in schema_problems(result, units):
                    failures.append(f"{w} {kind}: {p}")
            log(f"smoke: {w} done")
    took = time.monotonic() - start
    for f in failures:
        log(f"smoke: FAIL {f}")
    log(f"smoke: {'FAIL' if failures else 'ok'} ({took:.1f} s, build included)")
    return 1 if failures else 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_runs(baseline, workload, metric):
    return [r["metrics"][metric]["value"]
            for s in baseline["sets"] for r in s["runs"][workload]
            if r["correct"]]


def cmd_compare(a):
    """Delta of every (metric, workload) pair, judged with the direction and
    bound from BENCHMARK.json. Where the base's own run-to-run spread is
    wider than the bound the pair is 'unresolved', unless every new run
    reads better than every base run. A pair worse by more than the base's
    spread but within the bound reads 'worse', not 'unchanged'."""
    base = json.loads(Path(a.base).read_text())
    new = json.loads(Path(a.new).read_text())
    print(f"base {base['git_sha']}  new {new['git_sha']}")
    print(f"{'metric':30s} {'workload':15s} {'base':>12s} {'new':>12s} "
          f"{'delta':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    regressions = 0
    for m in SPEC["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        for w in WORKLOADS:
            b = metric_runs(base, w, name)
            n = metric_runs(new, w, name)
            if not b or not n:
                print(f"{name:30s} {w:15s} missing runs")
                continue
            q1, med_b, q3 = quartiles(b)
            med_n = statistics.median(n)
            spread = (q3 - q1) / med_b if med_b else 0.0
            worse = sign * (med_n - med_b) / med_b if med_b else 0.0
            all_better = all(sign * (x - y) < 0 for x in n for y in b)
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif all_better or -worse > spread:
                verdict = "better"
            elif worse > spread:
                verdict = "worse"
            else:
                verdict = "unchanged"
            print(f"{name:30s} {w:15s} {med_b:12.6g} {med_n:12.6g} "
                  f"{worse * 100:+7.2f}% {spread * 100:6.2f}% "
                  f"{bound * 100:5.1f}%  {verdict}")
    return 1 if regressions else 0


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def spread_summary(runs):
    out = {}
    for m in SPEC["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs
                  if r["correct"]]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0}
    return out


def cmd_baseline(_a):
    """The acceptance sets, written with the host facts to
    baselines/<short-sha>.json."""
    binary = build()
    cores = check_host()
    seconds = SPEC["run_seconds"]
    doc = {"git_sha": git_sha(), "nproc": cores,
           "run_seconds": seconds, "sets": [], "traced": {}}
    with Scratch() as scratch:
        for k in range(BASELINE_SETS):
            seeds = [1000 * k + i + 1 for i in range(BASELINE_SEEDS)]
            runs = {w: [] for w in WORKLOADS}
            for w in WORKLOADS:
                for s in seeds:
                    result, reps = timed_result(binary, w, s, seconds, scratch)
                    result["seed"] = s
                    result["rep_wall_s"] = [r["result"]["wall_s"]
                                            for r in reps if r["result"]]
                    runs[w].append(result)
                    if "compiler" not in doc and reps[0]["result"]:
                        b = reps[0]["result"]["build"]
                        doc["compiler"] = b["compiler"]
                        doc["build_type"] = b["build_type"]
                    log(f"baseline: set {k + 1} {w} seed {s} "
                        f"({len(reps)} reps) correct={result['correct']}")
            doc["sets"].append({
                "label": f"set{k + 1}", "seeds": seeds, "runs": runs,
                "summary": {w: spread_summary(runs[w]) for w in WORKLOADS}})
        for w in WORKLOADS:
            result, _ = traced_result(binary, w, 1, scratch)
            doc["traced"][w] = result
    out = HERE / "baselines" / f"{doc['git_sha']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"baseline: wrote {out}")
    report_baseline(doc)
    return 0


def report_baseline(doc):
    """Spread of each set against the bound, and the drift of the second
    set's median from the first's — the two checks the benchmark must pass."""
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    print(f"{'metric':30s} {'workload':15s} " +
          " ".join(f"{s['label'] + ' spread':>12s}" for s in doc["sets"]) +
          f" {'drift':>8s} {'bound':>6s}")
    for name, m in bounds.items():
        for w in WORKLOADS:
            summaries = [s["summary"][w].get(name) for s in doc["sets"]]
            if not all(summaries):
                continue
            spreads = " ".join(f"{x['spread'] * 100:11.2f}%" for x in summaries)
            first, last = summaries[0]["median"], summaries[-1]["median"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (last - first) / first if first else 0.0
            print(f"{name:30s} {w:15s} {spreads} {drift * 100:+7.2f}% "
                  f"{m['bound'] * 100:5.1f}%")


def main(argv):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if argv and argv[0].startswith("--"):
        return cmd_runner(argv)
    p = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        s = sub.add_parser(name)
        s.add_argument("--workload", action="append", choices=WORKLOADS)
        s.add_argument("--seed", type=int, default=42)
        s.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    sub.add_parser("smoke")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    sub.add_parser("baseline")
    a = p.parse_args(argv)
    if a.command == "run":
        return cmd_run(a, traced=False)
    if a.command == "trace":
        return cmd_run(a, traced=True)
    if a.command == "smoke":
        return cmd_smoke(a)
    if a.command == "compare":
        return cmd_compare(a)
    return cmd_baseline(a)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
