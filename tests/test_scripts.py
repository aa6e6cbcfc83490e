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
