import copy
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sxpid import cli, measures, report
from sxpid.builtins import builtin_distribution
from sxpid.dist import JointDistribution, Realization, dump_csv, dump_json
from sxpid.dist import Alphabet

XOR_CSV = "t,s1,s2,p\n0,0,0,0.25\n1,0,1,0.25\n1,1,0,0.25\n0,1,1,0.25\n"


def soft_xor_csv() -> str:
    rows = []
    for t in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                m = (Fraction(9, 10) * Fraction(1, 4) * (t == a ^ b)
                     + Fraction(1, 10) * Fraction(1, 8))
                rows.append((Realization(t=t, s=(a, b)), m))
    bit = lambda n: Alphabet(n, ("0", "1"))
    return dump_csv(JointDistribution.from_points(bit("t"), [bit("s1"), bit("s2")],
                                                  rows))


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_compute_builtin_table(capsys):
    code, out = run(capsys, "compute", "xor")
    assert code == 0
    assert "{1}{2}" in out and "-0.5850" in out


def test_compute_json_roundtrip(capsys):
    code, out = run(capsys, "compute", "pwunq", "--format", "json",
                    "--pointwise")
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["averages"]["{1}"]["Pi"] == pytest.approx(0.5)
    assert len(doc["pointwise"]) == 4
    block = doc["pointwise"][0]["nodes"]["{1}{2}"]
    assert set(block) >= {"i_plus", "i_minus", "i", "pi_plus", "pi_minus", "pi"}
    assert block["exact"]["pi_minus"] == "2"


def test_compute_misinformative_flag(capsys):
    _, out = run(capsys, "compute", "rnderr", "--format", "json")
    doc = json.loads(out)
    assert doc["averages"]["{2}"]["misinformative"] is True
    assert "misinformative" not in doc["averages"]["{1}"]


def test_compute_csv_file(tmp_path, capsys):
    f = tmp_path / "xor.csv"
    f.write_text(XOR_CSV)
    code, out = run(capsys, "compute", str(f))
    assert code == 0 and "0.4150" in out


def test_builtin_name_shadows_file(tmp_path, capsys, monkeypatch):
    # a file named like a builtin is read only through an explicit path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "xor").write_text(
        "t,s1,s2,p\n0,0,0,0.5\n1,1,1,0.5\n")  # the rnd distribution
    _, builtin = run(capsys, "compute", "xor", "--format", "json")
    _, from_file = run(capsys, "compute", "./xor", "--format", "json")
    assert json.loads(builtin)["averages"]["{1,2}"]["Pi"] == \
        pytest.approx(math.log2(4 / 3))
    assert json.loads(from_file)["averages"]["{1}{2}"]["Pi"] == \
        pytest.approx(1.0)


def test_compute_node_filter_and_precision(capsys):
    code, out = run(capsys, "compute", "xor", "--nodes", "{1,2}",
                    "--precision", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["averages"]) == ["{1,2}"]
    code, out = run(capsys, "compute", "xor", "--precision", "6")
    assert "0.415037" in out


def test_compute_node_filter_tables(capsys):
    for extra, sections in (([], 1), (["--pointwise"], 5)):
        code, out = run(capsys, "compute", "xor", "--nodes", "{1,2}",
                        "--nodes", "{1}", *extra)
        assert code == 0
        tables = out.strip().split("\n\n")
        assert len(tables) == sections  # each realization, then the averages
        for table in tables:
            nodes = [line.split()[0] for line in table.splitlines()
                     if line.startswith("{")]
            assert nodes == ["{1}", "{1,2}"]  # display order, not argument order


def test_node_filter_leaves_the_report_unchanged():
    d = builtin_distribution("xor")
    decs = measures.decompose_support(d)
    doc = report.decomposition_report(
        d, measures.average_decomposition(d, decompositions=decs), decs)
    before = copy.deepcopy(doc)
    kept = cli._filter_nodes(doc, {"{1}{2}"})
    assert doc == before
    assert kept["nodes"] == ["{1}{2}"] and list(kept["averages"]) == ["{1}{2}"]
    assert [list(r["nodes"]) for r in kept["pointwise"]] == [["{1}{2}"]] * 4
    assert [list(r) for r in kept["pointwise"]] == [list(r) for r in doc["pointwise"]]


def test_closed_stdout_exits_1_without_a_message():
    # 0.7 MB of JSON, far more than a pipe buffers: the writes after the
    # reader closes its end fail
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "sxpid.cli", "compute", "parity:4",
                             "--format", "json", "--pointwise"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b"{")
    proc.stdout.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_validation_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("t,s1,p\n0,0,0.5\n1,1,0.4\n")
    code = cli.main(["compute", str(f)])
    err = capsys.readouterr().err
    assert code == 2 and "tolerance" in err
    assert cli.main(["compute", "missing-builtin"]) == 2
    assert cli.main(["compute", "xor", "--nodes", "{7}"]) == 2


@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_nan_or_negative_tolerance_exits_2(tmp_path, capsys, tolerance):
    f = tmp_path / "heavy.csv"
    f.write_text("t,s1,p\n0,0,5\n1,1,3\n")  # sums to 8
    assert cli.main(["compute", str(f), "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"tolerance must be >= 0, got {float(tolerance)}" in captured.err


@pytest.mark.parametrize("name, text, where", [
    ("bad.json", '{"target_alphabet": {"name": "t", "symbols": ["0"]}, '
                 '"source_alphabets": [{"name": "s1", "symbols": ["0"]}], '
                 '"support": [{"t": "0", "s": 5, "p": "1"}]}', "support[0]"),
    ("huge.csv", "t,s1,p\n0,0,1e999999999\n", "row 2, field p"),
    ("tiny.csv", "t,s1,p\n0,0,1e-999999999\n", "row 2, field p"),
])
def test_hostile_input_exits_2_quickly(tmp_path, capsys, name, text, where):
    f = tmp_path / name
    f.write_text(text)
    start = time.perf_counter()
    code = cli.main(["compute", str(f)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert where in captured.err and elapsed < 1.0


def test_workers_environment_is_ignored(monkeypatch, capsys):
    monkeypatch.setenv("SXPID_WORKERS", "junk")
    assert run(capsys, "lattice", "2")[0] == 0
    assert run(capsys, "compute", "xor")[0] == 0


def test_package_exports_resolve():
    import sxpid
    assert [name for name in sxpid.__all__ if not hasattr(sxpid, name)] == []


def test_example_pass_and_fail(capsys, monkeypatch):
    assert cli.main(["example", "xor"]) == 0
    capsys.readouterr()
    monkeypatch.setitem(
        cli.__dict__, "_xor_checks",
        lambda d, decs, avg: [("forced failure", False, "injected")])
    code = cli.main(["example", "xor"])
    out = capsys.readouterr().out
    assert code == 3 and "FAIL" in out


def test_example_vchannel(capsys):
    code, out = run(capsys, "example", "vchannel")
    assert code == 0
    assert out.count("[x]") == 4 and out.count("[ok]") == 8


def test_example_parity_generic(capsys):
    assert cli.main(["example", "parity:2"]) == 0
    capsys.readouterr()


def test_lattice_json(capsys):
    code, out = run(capsys, "lattice", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["node_count"] == 18
    assert doc["bottom"] == "{1}{2}{3}"
    assert doc["children"]["{1,2,3}"] == ["{1,2}", "{1,3}", "{2,3}"]
    assert ["{1}{2}{3}", "{1}{2}"] in doc["cover_edges"]


def test_gradient_command(tmp_path, capsys):
    f = tmp_path / "soft.csv"
    f.write_text(soft_xor_csv())
    code, out = run(capsys, "gradient", str(f), "--atom", "{1,2}",
                    "--which", "plus", "--check-fd")
    doc = json.loads(out)
    assert code == 0 and doc["fd_ok"] and len(doc["partials"]) == 8
    # boundary input is a validation error
    g = tmp_path / "xor.csv"
    g.write_text(XOR_CSV)
    assert cli.main(["gradient", str(g), "--atom", "{1,2}"]) == 2
    capsys.readouterr()


def test_optimize_command_stream(tmp_path, capsys):
    f = tmp_path / "soft.csv"
    f.write_text(soft_xor_csv())
    code, out = run(capsys, "optimize", str(f), "--atom", "{1,2}",
                    "--steps", "3", "--lr", "0.01")
    assert code == 0
    lines = [json.loads(x) for x in out.strip().splitlines()]
    assert [x["step"] for x in lines] == [0, 1, 2, 3]
    assert all({"step", "objective", "grad_norm"} <= set(x) for x in lines)
    assert lines[-1]["objective"] >= lines[0]["objective"] - 1e-12


def test_optimize_has_no_maximize_option(capsys):
    # ascent is the default; --minimize is the only direction switch
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["optimize", "xor", "--atom", "{1,2}",
                                       "--maximize"])
    capsys.readouterr()


def test_optimize_mechanism_fixed(capsys):
    code, out = run(capsys, "optimize", "xor", "--atom", "{1,2}",
                    "--steps", "5", "--mechanism-fixed")
    assert code == 0
    first = json.loads(out.strip().splitlines()[0])
    assert first["objective"] == pytest.approx(math.log2(4 / 3), abs=1e-9)


def test_gradient_mix_moves_builtin_off_boundary(capsys):
    assert cli.main(["gradient", "xor", "--atom", "{1}{2}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not an interior point" in captured.err
    assert "--mix" in captured.err
    code, out = run(capsys, "gradient", "xor", "--atom", "{1}{2}", "--mix", "0.1",
                    "--check-fd")
    assert code == 0 and json.loads(out)["fd_ok"] is True
    code, out = run(capsys, "optimize", "xor", "--atom", "{1}{2}", "--mix", "0.1",
                    "--steps", "2")
    assert code == 0 and len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("argv, message", [
    (["gradient", "--mix", "1"], "--mix must be in [0, 1), got 1.0"),
    (["gradient", "--mix", "-0.1"], "--mix must be in [0, 1), got -0.1"),
    (["optimize", "--mix", "nan"], "--mix must be in [0, 1), got nan"),
    (["optimize", "--mix", "0.1", "--mechanism-fixed"],
     "--mix cannot be combined with --mechanism-fixed"),
    (["optimize", "--mechanism-fixed", "--lr", "nan"], "--lr must be finite, got nan"),
    (["optimize", "--mechanism-fixed", "--lr", "inf"], "--lr must be finite, got inf"),
    (["optimize", "--mechanism-fixed", "--steps", "-1"],
     "--steps must be >= 0, got -1"),
    (["optimize", "--mechanism-fixed", "--epsilon", "-1"],
     "--epsilon must be finite and > 0, got -1.0"),
    (["optimize", "--mechanism-fixed", "--epsilon", "0"],
     "--epsilon must be finite and > 0, got 0.0"),
    (["gradient", "--mix", "0.1", "--epsilon", "nan"],
     "--epsilon must be finite and > 0, got nan"),
    (["gradient", "--mix", "0.1", "--epsilon", "inf"],
     "--epsilon must be finite and > 0, got inf"),
])
def test_out_of_range_options_exit_2(capsys, argv, message):
    assert cli.main([argv[0], "xor", "--atom", "{1,2}", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["bench", "2", "--trials", "-1"], "--trials must be >= 1, got -1"),
    (["bench", "2", "--trials", "0"], "--trials must be >= 1, got 0"),
    (["compute", "xor", "--precision", "-1"], "--precision must be >= 0, got -1"),
    (["example", "xor", "--precision", "-2"], "--precision must be >= 0, got -2"),
    (["compute", "xor", "--precision", "100000000"],
     "--precision must be <= 17, got 100000000"),
])
def test_bad_count_options_exit_2(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_bench_deterministic_results(capsys):
    code, out1 = run(capsys, "bench", "2", "--trials", "2", "--seed", "5")
    assert code == 0
    _, out2 = run(capsys, "bench", "2", "--trials", "2", "--seed", "5")
    r1, r2 = json.loads(out1)["results"], json.loads(out2)["results"]
    assert r1 == r2
    assert r1["atoms"] == 4 and len(r1["digests"]) == 2
    timing = json.loads(out1)["timing"]
    for key in ("per_trial_s", "average_s", "report_s"):
        assert len(timing[key]) == 2 and all(t >= 0 for t in timing[key])


def test_builtins_are_exact_rationals():
    q = Fraction(1, 4)
    xor = builtin_distribution("xor")
    assert xor.masses == (q, q, q, q)
    assert {(r.t, r.s) for r in xor.support} == \
        {(0, (0, 0)), (1, (0, 1)), (1, (1, 0)), (0, (1, 1))}
    rnderr = builtin_distribution("rnderr")
    assert sorted(rnderr.masses) == [Fraction(1, 8), Fraction(1, 8),
                                     Fraction(3, 8), Fraction(3, 8)]
    parity5 = builtin_distribution("parity:5")
    assert len(parity5.support) == 32
    assert all(m == Fraction(1, 32) for m in parity5.masses)
    assert all(sum(r.s) % 2 == r.t for r in parity5.support)
    dup = builtin_distribution("xorduplicate")
    assert {(r.t, r.s) for r in dup.support} == \
        {(0, (0, 0, 0)), (1, (0, 1, 0)), (1, (1, 0, 1)), (0, (1, 1, 1))}
    with pytest.raises(KeyError):
        builtin_distribution("parity:9")
    with pytest.raises(KeyError):
        builtin_distribution("nope")


def test_parity_out_of_range_is_lookup_miss(capsys):
    for spec in ("parity:0", "parity:-1", "parity:9"):
        with pytest.raises(KeyError, match=r"1\.\.5"):
            builtin_distribution(spec)
    assert cli.main(["compute", "parity:9"]) == 2
    err = capsys.readouterr().err
    assert "parity:9" in err and "1..5" in err
