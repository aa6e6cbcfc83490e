#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``, written as a BENCH file.

    python3 scripts/bench_pairs.py PARENT CHANGE --seed 2001 --traced-seed 2011 --out B.json

Each commit is exported with ``git archive`` into ``.bench_build/<commit>/``. For each
``BENCHMARK.json`` workload, pair k of ``PAIRS`` runs both sides for its ``run_seconds`` at
seed ``--seed`` + k, the parent first when k is even; one traced run per side follows.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PAIRS = 10


def export(rev: str) -> tuple[str, str]:
    """The full commit id of ``rev`` and a complete copy of its tracked files."""
    sha = subprocess.check_output(["git", "rev-parse", rev + "^{commit}"], cwd=ROOT,
                                  text=True).strip()
    tree = os.path.join(ROOT, ".bench_build", sha)
    if not os.path.isdir(tree):
        partial = tree + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        proc = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(partial)
        if proc.wait():
            sys.exit(f"git archive {sha} failed")
        os.rename(partial, tree)
    return sha, tree


def reject(const: str):
    raise ValueError(f"non-finite constant {const}")


def run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark process: its record, and its result unless that is not finite JSON."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines() or [""]
    record = {"exit": proc.returncode, "wall_s": round(time.perf_counter() - start, 1)}
    if trace:
        record["absent_line"] = next((x for x in lines if x.startswith('{"trace"')), None)
    record["result"] = lines[-1]
    try:
        return record, json.loads(lines[-1], parse_constant=reject)
    except ValueError:
        return record, None


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Medians and quartiles of each metric over each side's parsed runs, and the change's
    wins over every pair run: a pair with a side that did not parse is no win, nor is a tie."""
    runs = {s: [p[s]["metrics"] for p in pairs if p[s]] for s in SIDES}
    both = [(p["parent"]["metrics"], p["change"]["metrics"]) for p in pairs if all(p.values())]
    out = {}
    for metric, direction in better.items() if min(map(len, runs.values())) > 1 else ():
        values = {s: [m[metric]["value"] for m in ms] for s, ms in runs.items()}
        paired = [(p[metric]["value"], c[metric]["value"]) for p, c in both]
        wins = sum(c < p if direction == "lower" else c > p for p, c in paired)
        stats = {s: dict(zip(("q1", "median", "q3"), statistics.quantiles(
            v, n=4, method="inclusive")), n=len(v)) for s, v in values.items()}
        out[metric] = {**stats, "change_wins": f"{wins}/{len(pairs)}",
                       "median_change": stats["change"]["median"] / stats["parent"]["median"] - 1,
                       "parent_quartile_distance": stats["parent"]["q3"] - stats["parent"]["q1"]}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0].strip('"'))
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    ap.add_argument("--traced-seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    trees = dict(zip(SIDES, (export(args.parent), export(args.change))))
    description = (
        f"Alternating parent/change pairs of `python3 perfbench/run.py --workload W --seed N "
        f"--seconds {seconds} --trace 0` from `git archive` copies of the two commits, the "
        f"parent first in even pairs. Seeds {args.seed}-{args.seed + PAIRS - 1}; traced runs "
        f"at seed {args.traced_seed}. Quartiles: statistics.quantiles(values, n=4, "
        "method='inclusive'). Result lines were parsed rejecting NaN and Infinity.")
    doc = {"description": description, "parent": trees["parent"][0],
           "change": trees["change"][0], "workloads": {}, "traced_runs": []}
    for wl in (w["name"] for w in bench["workloads"]):
        runs, pairs = [], [{} for _ in range(PAIRS)]
        for k, pair in enumerate(pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                rec, pair[side] = run(trees[side][1], wl, args.seed + k, seconds, 0)
                runs.append({"seed": args.seed + k, "pair": k, "side": side,
                             "first": SIDES[k % 2], **rec})
                print(f"{wl} pair {k} {side}: exit {rec['exit']}", file=sys.stderr)
        parsed = {s: [p[s] or {} for p in pairs] for s in SIDES}
        doc["workloads"][wl] = {
            "summary": summarize(pairs, better),
            "unparsed_pairs": sum(not all(p.values()) for p in pairs),
            **{key + "_ops": {s: sum(r.get(key, 0) for r in parsed[s]) for s in SIDES}
               for key in ("failed", "attempted")},
            "all_correct": all(r.get("correct") is True for s in SIDES for r in parsed[s]),
            "all_strict_json": all(p[s] is not None for p in pairs for s in SIDES),
            "runs": runs}
        doc["traced_runs"] += [{"workload": wl, "seed": args.traced_seed, "side": s, "trace": 1,
                                **run(trees[s][1], wl, args.traced_seed, seconds, 1)[0]}
                               for s in SIDES]
    with open(args.out, "w") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
