#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With ``--trace 0`` the result holds the
end-to-end metrics, op times divided by the reference kernel of
``reference.py``; with ``--trace 1`` it holds the per-layer metrics of a
traced run, whose spans are also written to ``perfbench/out/``. Problems
found by the output checks go to stderr and make ``correct`` false.
"""

import bootstrap  # noqa: F401  (thread settings and import path come first)

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import reference
import workloads
from spans import Spans

END_TO_END = {"setup_s": "s", "op_ref": "ref", "realizations_per_ref": "1/ref",
              "peak_rss_mb": "MB"}

#: Per-layer metric -> (unit, span whose median duration it is, or None if
#: the value is computed or counted).
PER_LAYER = {
    "lattice.enumerate_s": ("s", "lattice.enumerate"),
    "lattice.order_s": ("s", "lattice.order"),
    "lattice.covers_s": ("s", "lattice.covers"),
    "lattice.invert_s": ("s", "lattice.invert_array"),
    "lattice.comparable_pairs": ("count", None),
    "lattice.cover_edges": ("count", None),
    "measures.event_masses_float_s": ("s", "measures.event_masses.float"),
    "measures.event_masses_exact_s": ("s", "measures.event_masses.exact"),
    "measures.pointwise_s": ("s", "measures.pointwise_decomposition"),
    "measures.average_s": ("s", "measures.average_decomposition"),
    "measures.pool_speedup": ("ratio", None),
    "dist.load_s": ("s", "dist.load_distribution"),
    "dist.support_points": ("count", None),
    "grad.event_cells_s": ("s", None),
    "grad.grad_average_s": ("s", "grad.grad_average"),
    "grad.average_value_s": ("s", "grad.average_atom_value"),
    "grad.steps_per_s": ("1/s", None),
    "report.build_s": ("s", "report.decomposition_report"),
    "report.render_s": ("s", "report.render_json"),
    "report.json_bytes": ("bytes", None),
    "cli.startup_s": ("s", None),
    "trace.overhead_s": ("s", None),
    "op.wall_s": ("s", None),
    "op.reference_s": ("s", None),
}


def op_loop(make_round, seconds: float, spans: Spans) -> list:
    """Attempt whole rounds of ops until ``seconds`` have passed.

    Each op gets the next op id, which the spans it records carry. The
    reference kernel runs before the first op and after every op, and each
    op is given the mean of the two kernel times around it.
    """
    results = []
    start = time.perf_counter()
    index = 0
    before = reference.seconds()
    while True:
        for op in make_round(index):
            spans.op = len(results)
            try:
                result = op()
            except Exception:
                traceback.print_exc()
                result = workloads.OpResult(0.0, 0, failed=True)
            after = reference.seconds()
            result.reference = (before + after) / 2
            before = after
            results.append(result)
        index += 1
        if time.perf_counter() - start >= seconds:
            return results


def succeeded(results) -> list:
    ok = [r for r in results if not r.failed]
    if not ok:
        raise RuntimeError("every op failed")
    return ok


def run_untraced(wl, args):
    setup = [workloads.setup_probe_seconds(wl.setup_kind, args.seed)
             for _ in range(workloads.SETUP_REPEATS)]
    wl.prepare()
    results = op_loop(wl.round, args.seconds, wl.spans)
    ok = succeeded(results)
    print("op seconds: " + " ".join(f"{r.seconds:.3f}" for r in ok), file=sys.stderr)
    print("reference seconds: " + " ".join(f"{r.reference:.4f}" for r in ok),
          file=sys.stderr)
    values = {
        "setup_s": statistics.median(setup),
        "op_ref": statistics.median(r.seconds / r.reference for r in ok),
        "realizations_per_ref": statistics.median(
            r.realizations * r.reference / r.seconds for r in ok),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    return results, {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def run_traced(wl, args):
    sp = wl.spans
    sp.enabled = True
    wl.prepare()
    sp.enabled = False
    untraced = op_loop(wl.round, 0, sp)
    sp.enabled = True
    traced = op_loop(wl.round, args.seconds, sp)
    absent: list[str] = []
    values = workloads.layer_probes(wl, absent)
    for name, (_, span) in PER_LAYER.items():
        if span is not None:
            values[name] = sp.median(span)
    values["dist.support_points"] = wl.support_points
    values["grad.event_cells_s"] = (sp.median("grad.grad_average.cold")
                                    - values["grad.grad_average_s"])
    values["grad.steps_per_s"] = workloads.OPT_STEPS / sp.median("grad.optimize")
    values["report.json_bytes"] = statistics.median(
        r["bytes"] for r in sp.records if r["name"] == "report.render_json")
    values["trace.overhead_s"] = (
        statistics.median(r.seconds for r in succeeded(traced))
        - statistics.median(r.seconds for r in succeeded(untraced)))
    values["op.wall_s"] = statistics.median(r.seconds for r in succeeded(traced))
    values["op.reference_s"] = statistics.median(r.reference for r in traced)

    os.makedirs(bootstrap.OUT, exist_ok=True)
    path = os.path.join(bootstrap.OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    sp.dump(path)
    self_times = sorted(sp.self_times().items(), key=lambda kv: -kv[1])
    print("self time by span: " + ", ".join(f"{k} {v:.3f}s" for k, v in self_times),
          file=sys.stderr)
    print(json.dumps({"trace": os.path.relpath(path, bootstrap.ROOT),
                      "absent": absent}))
    metrics = {k: {"value": values[k], "unit": unit}
               for k, (unit, _) in PER_LAYER.items()
               if k not in absent and values[k] is not None}
    return untraced + traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    scratch = os.path.join(bootstrap.OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, Spans(False), scratch)
        run = run_traced if args.trace else run_untraced
        results, metrics = run(wl, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = wl.problems + [p for r in results for p in r.problems]
    for p in problems[:50]:
        print(f"check failed: {p}", file=sys.stderr)
    if len(problems) > 50:
        print(f"... and {len(problems) - 50} more", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(results),
                      "failed": sum(r.failed for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
