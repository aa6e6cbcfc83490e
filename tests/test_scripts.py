import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_synergy_search_moves_both_ways():
    proc = run_script("synergy_search.py", "--steps", "30")
    assert proc.returncode == 0, proc.stderr
    found = dict((label, (float(a), float(b))) for label, a, b in re.findall(
        r"^(\w+) synergy: ([-+.\d]+) -> ([-+.\d]+) bits", proc.stdout, re.M))
    assert set(found) == {"maximize", "minimize"}
    assert found["maximize"][1] > found["maximize"][0]
    assert found["minimize"][1] < found["minimize"][0]


def test_reproduce_tables_runs():
    proc = run_script("reproduce_tables.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("=== ") == 7


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pair(parent, change):
    return {side: None if v is None else {"metrics": {"op_ref": {"value": v}}}
            for side, v in (("parent", parent), ("change", change))}


def test_bench_pairs_ties_win_for_neither_side():
    summary = _bench_pairs().summarize([_pair(1.0, 1.0)] * 4, {"op_ref": "lower"})
    assert summary["op_ref"]["change_wins"] == "0/4"
    assert summary["op_ref"]["median_change"] == 0


def test_bench_pairs_counts_an_unparsed_pair_as_no_win():
    pairs = [_pair(1.0, 0.9) for _ in range(9)] + [_pair(1.0, None)]
    for better, wins in (("lower", "9/10"), ("higher", "0/10")):
        summary = _bench_pairs().summarize(pairs, {"op_ref": better})["op_ref"]
        assert summary["change_wins"] == wins
        assert (summary["parent"]["n"], summary["change"]["n"]) == (10, 9)
