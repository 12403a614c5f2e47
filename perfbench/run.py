"""End-to-end benchmark of loopcrystal: one workload, one seed, one run.

    python3 perfbench/run.py --workload torsion-graph --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  Every repetition of the workload's job runs in a fresh interpreter
(``worker.py``), one at a time, so the load is one closed-loop client with no
extra threads.  Repetitions run the same inputs and continue until
``--seconds`` are used (at least ``MIN_REPS``).

With ``--trace 0`` the last stdout line is a JSON object with the gated
end-to-end metrics; with ``--trace 1`` one repetition runs untraced and one
traced, and the metrics are the per-layer ones plus the tracing overhead.  The
lines before it are a readable report with every metric, the time metrics
too.  A copy of the full result, with provenance,
per-repetition values and the error breakdown, goes to
``.perfbench/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("torsion-graph", "oracle-battery", "p1-queries")
#: the end-to-end metrics in the result line (BENCHMARK.json gates them); the
#: time metrics are printed in the report but not gated, see README.md
GATED = ("setup_s", "peak_rss_mb", "ok_ratio")
MIN_REPS = 3
SETUP_SAMPLES = 9
#: a run must end within 180 s; no repetition starts that would pass this
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def child(args, *extra: str, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        *extra,
    ]
    if args.corrupt:
        cmd.append("--corrupt")
    # a fixed hash seed makes set iteration, and so the work counts, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tally(reps) -> tuple[int, int, int, Counter]:
    attempted = failed = wrong = 0
    errors: Counter = Counter()
    for rep in reps:
        for status, detail in zip(rep["status"], rep["details"]):
            attempted += 1
            if status != "ok":
                failed += 1
                wrong += status == "wrong"
                errors[f"{status}: {detail}"] += 1
    return attempted, failed, wrong, errors


def best_latencies(reps) -> list[float]:
    """Per-op best (minimum) latency over repetitions of the same ops."""
    counts = {len(rep["latencies"]) for rep in reps}
    if len(counts) != 1:
        raise BenchError(f"repetitions made different numbers of ops: {sorted(counts)}")
    return [min(lats) for lats in zip(*(rep["latencies"] for rep in reps))]


def end_to_end(args, start: float) -> tuple[dict, list]:
    deadline = start + HARD_LIMIT_S
    budget_end = start + args.seconds
    reps, setups = [], []
    while True:
        now = time.monotonic()
        if len(reps) >= MIN_REPS:
            per_rep = (now - start) / len(reps)
            if now + per_rep > budget_end or now + per_rep > deadline:
                break
        # set-up samples are spread over the run, like the repetitions
        setups.append(child(args, "--setup-only", deadline=deadline)["setup_s"])
        reps.append(child(args, deadline=deadline))
    setups += [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(child(args, "--setup-only", deadline=deadline)["setup_s"])

    # every repetition runs the same inputs, so differences between them are
    # interference from the machine, which only ever adds time: each op
    # counts with its best latency over the repetitions (as timeit takes the
    # best run), and the job's time is the sum of those
    attempted, failed, _, _ = tally(reps)
    best = best_latencies(reps)
    ok = reps[0]["status"].count("ok")
    latencies = sorted(best)
    metrics = {
        "cpu_s": [sum(best), "s"],
        "setup_s": [min(setups), "s"],
        "peak_rss_mb": [statistics.median(rep["rss_mb"] for rep in reps), "MB"],
        "ok_ratio": [(attempted - failed) / attempted, "ratio"],
        "ops_per_s": [ok / sum(best), "1/s"],
        "op_p50_ms": [percentile(latencies, 50) * 1e3, "ms"],
        "op_p99_ms": [percentile(latencies, 99) * 1e3, "ms"],
    }
    return metrics, reps


def per_layer(args, start: float) -> tuple[dict, list, list]:
    deadline = start + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    plain = child(args, deadline=deadline)
    traced = child(args, "--trace", "--spans", str(spans), deadline=deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = [traced["cpu_s"] - plain["cpu_s"], "s"]
    return metrics, [traced], traced["missing"]


def provenance(args, backend: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", default="full", choices=["full", "tiny"],
                    help="tiny inputs, for the self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="alter one output per repetition (tests the gates)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "loopcrystal" / "__init__.py").is_file():
        print(f"error: no loopcrystal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    try:
        if args.trace:
            metrics, reps, missing = per_layer(args, start)
        else:
            metrics, reps = end_to_end(args, start)
            missing = []
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted, failed, wrong, errors = tally(reps)
    info = provenance(args, reps[0]["backend"])
    report = {
        "provenance": info,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "error_ratio": failed / attempted,
        "errors": dict(errors.most_common()),
        "missing": missing,
        "metrics": metrics,
        "reps": [
            {k: rep.get(k) for k in ("setup_s", "cpu_s", "wall_s", "rss_mb")} for rep in reps
        ],
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    OUT.joinpath("results", name).write_text(json.dumps(report, indent=1))

    print("provenance: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"ops: attempted={attempted} failed={failed} wrong={wrong} "
          f"repetitions={len(reps)}")
    for detail, count in errors.most_common():
        print(f"  failed x{count}: {detail}")
    for qual in missing:
        print(f"missing public function: {qual} (its metrics read 0)")
    print(f"wall_s = {min(rep['wall_s'] for rep in reps):.6g} s "
          "(wall clock of the job; not gated, see README.md)")
    print(f"error_ratio = {failed / attempted:.6g} ratio")
    if not args.trace:
        n = len(reps[0]["latencies"])
        print(f"op latency samples: {n} ops, each its best of {len(reps)} "
              f"repetitions ({int(n * 0.01)} beyond p99)")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    result = metrics if args.trace else {k: metrics[k] for k in GATED}
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
