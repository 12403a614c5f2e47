"""One repetition of a workload in a fresh interpreter; prints one JSON line.

Started by ``run.py``; not meant to be run by hand, though it can be:

    python3 perfbench/worker.py --workload p1-queries --seed 7 [--trace]

Times are CPU times of this single-threaded process (``time.process_time``):
on a shared virtual machine the wall clock also counts time the host gives
to other tenants, which made identical repetitions differ by a factor of two.
The wall time of the job is reported alongside.

A fresh interpreter per repetition matters: the operator memos in
``loopcrystal.crystal`` live for the life of the process, and every CLI user
starts with them empty.
"""

import time

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def memo_stats(module) -> tuple[int, int, int]:
    """Summed ``cache_info()`` (hits, misses, entries) of every lru-cached attribute."""
    hits = misses = entries = 0
    for obj in vars(module).values():
        info = getattr(obj, "cache_info", None)
        if callable(info):
            ci = info()
            hits, misses, entries = hits + ci.hits, misses + ci.misses, entries + ci.currsize
    return hits, misses, entries


def layer_metrics(tracer, job, memo) -> dict:
    """Per-layer metrics of one traced repetition, as ``name -> [value, unit]``."""
    c = tracer.counts
    calls = tracer.calls
    hits, misses, entries = memo
    out = {}
    for layer in ("cli", "crystal", "components", "oracle", "linalg", "ktheory", "catalog"):
        out[f"{layer}.self_s"] = [tracer.layer_self_s(layer), "s"]
    out.update({
        "cli.stdout_bytes": [job.stdout_bytes() if hasattr(job, "stdout_bytes") else 0, "bytes"],
        "crystal.calls": [tracer.layer_calls("crystal"), "count"],
        "crystal.build_graph_s": [tracer.inclusive["crystal.build_graph"], "s"],
        "crystal.verify_axioms_s": [tracer.inclusive["crystal.verify_axioms"], "s"],
        "crystal.inversion_yield": [
            c["inversion.results"] / c["inversion.candidates"] if c["inversion.candidates"] else 0.0,
            "ratio",
        ],
        "crystal.memo_hit_ratio": [hits / (hits + misses) if hits + misses else 0.0, "ratio"],
        "crystal.memo_entries": [entries, "count"],
        "components.aperiodic_multisegments.calls": [calls["components.aperiodic_multisegments"], "count"],
        "components.aperiodic_multisegments.results": [c["aperiodic.results"], "count"],
        "oracle.sample_generic.calls": [calls["oracle.sample_generic"], "count"],
        "oracle.sample_yield": [
            calls["oracle.sample_generic"] / c["sample.nilpotency_tests"]
            if c["sample.nilpotency_tests"] else 0.0,
            "ratio",
        ],
        "oracle.recover_type.calls": [calls["oracle.recover_type"], "count"],
        "oracle.recover_type_s": [tracer.inclusive["oracle.recover_type"], "s"],
        "oracle.eps_sample.calls": [calls["oracle.eps_sample"], "count"],
        "oracle.quotient_type_sample.calls": [calls["oracle.quotient_type_sample"], "count"],
        "oracle.p1_kernel_profile.calls": [calls["oracle.p1_kernel_profile"], "count"],
        "linalg.rref_mod.calls": [calls["linalg.rref_mod"], "count"],
        "linalg.rref_mod.ops_est": [c["rref_mod.ops_est"], "ops"],
        "linalg.mat_mul_mod.calls": [calls["linalg.mat_mul_mod"], "count"],
        "linalg.mat_mul_mod.ops_est": [c["mat_mul_mod.ops_est"], "ops"],
        "linalg.frac.calls": [
            sum(n for q, n in calls.items() if q.startswith("linalg.") and q.endswith("_frac")),
            "count",
        ],
        "trace.spans": [len(tracer.spans) + tracer.dropped, "count"],
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=["full", "tiny"])
    ap.add_argument("--trace", action="store_true", help="trace the layers")
    ap.add_argument("--spans", default=None, help="file the trace spans are written to")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    ap.add_argument("--corrupt", action="store_true",
                    help="alter one output before checking (tests the gates)")
    args = ap.parse_args(argv)

    import workloads
    from loopcrystal import _linalg, crystal

    job = workloads.WORKLOADS[args.workload](args.seed, args.size)
    setup_s = time.process_time()  # CPU time since the interpreter started
    result = {"setup_s": setup_s, "backend": _linalg.BACKEND}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        job.run(time.process_time)
    finally:
        cpu_s = time.process_time() - c0
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    memo = memo_stats(crystal)
    if args.corrupt:
        job.corrupt()
    records = job.check()
    result.update({
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies": [lat for lat, _, _ in records],
        "status": [status for _, status, _ in records],
        "details": [detail for _, _, detail in records],
    })
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, job, memo)
        result["missing"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
