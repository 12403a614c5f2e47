"""Summarize the results in ``.perfbench/results/`` as one trajectory entry.

    python3 perfbench/summarize.py --note "what this commit is" [--append]

For each workload: the median and quartiles over seeds of every end-to-end
metric, gated or only printed, and the per-layer metrics and failed ops of
each traced run.  With ``--append`` the entry is added to
``perfbench/trajectory.json``; otherwise it is printed.  Results that differ
in commit, backend, Python version, core count, run length or size are
refused, so that compiled and pure-Python runs are never mixed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench" / "results"
TRAJECTORY = HERE / "trajectory.json"
SAME = ("commit", "backend", "python", "nproc", "seconds", "size")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--note", required=True)
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args(argv)

    results = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"))]
    if not results:
        print(f"error: no results under {RESULTS}", file=sys.stderr)
        return 2
    first = results[0]["provenance"]
    for res in results:
        diff = [k for k in SAME if res["provenance"][k] != first[k]]
        if diff:
            print(f"error: results differ in {diff}", file=sys.stderr)
            return 2

    workloads = {}
    for res in results:
        info = res["provenance"]
        entry = workloads.setdefault(
            info["workload"], {"seeds": [], "end_to_end": {}, "per_layer": {}, "errors": {}}
        )
        if info["trace"]:  # one repetition: its errors are those of one job
            entry["per_layer"][str(info["seed"])] = {
                name: value for name, (value, _) in res["metrics"].items()
            }
            entry["errors"] = res["errors"]
            continue
        entry["seeds"].append(info["seed"])
        for name, (value, unit) in res["metrics"].items():
            entry["end_to_end"].setdefault(name, {"unit": unit, "values": []})["values"].append(value)
    for entry in workloads.values():
        for metric in entry["end_to_end"].values():
            values = metric.pop("values")
            quart = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metric.update(median=statistics.median(values), q1=quart[0], q3=quart[2])

    record = {
        "note": args.note,
        **{k: first[k] for k in SAME},
        "workloads": workloads,
    }
    if not args.append:
        print(json.dumps(record, indent=1))
        return 0
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(record)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
