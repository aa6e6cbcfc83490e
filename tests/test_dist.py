import io
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import DEN_1E20_CSV, bits, rational_distribution, rational_weights
from sxpid.builtins import builtin_distribution
from sxpid.dist import (Alphabet, CylinderEvent, DistributionError,
                        DistributionFormatError, JointDistribution, Realization,
                        dump_csv, dump_json, event_plan, event_probability,
                        load_distribution, marginal, plan_event_masses)
from sxpid.lattice import enumerate_lattice, evaluate

XOR_CSV = "t,s1,s2,p\n0,0,0,0.25\n1,0,1,0.25\n1,1,0,0.25\n0,1,1,0.25\n"


def test_alphabet_validation():
    with pytest.raises(DistributionError):
        Alphabet("t", ())
    with pytest.raises(DistributionError):
        Alphabet("t", ("0", "0"))
    a = Alphabet("s1", ("a", "b"))
    assert a.index("b") == 1 and a.label(0) == "a"
    with pytest.raises(DistributionError):
        a.index("c")


def test_load_xor_csv():
    d = load_distribution(XOR_CSV, "csv")
    assert len(d.support) == 4
    assert d.n_sources == 2
    assert all(m == Fraction(1, 4) for m in d.masses)
    assert d.exact
    assert d.mass(Realization(t=0, s=(1, 1))) == Fraction(1, 4)


def test_load_point_mass():
    d = load_distribution("t,s1,p\nx,y,1\n", "csv")
    assert len(d.support) == 1 and d.masses[0] == 1


def test_nan_mass_rejected():
    # NaN compares false with everything, so neither the sign test nor the
    # normalization test may be left to catch it
    t, s1 = bits("t"), bits("s1")
    points = [(Realization(0, (0,)), 0.5), (Realization(1, (1,)), float("nan")),
              (Realization(1, (0,)), 0.5)]
    with pytest.raises(DistributionError, match=r"Realization\(t=1, s=\(1,\)\).*not a number"):
        JointDistribution.from_points(t, [s1], points)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -math.inf])
def test_nan_or_negative_tolerance_rejected(tol):
    # a NaN tolerance would accept any total, a negative one reject every total
    with pytest.raises(DistributionError, match=r"tolerance must be >= 0, got"):
        load_distribution(XOR_CSV, "csv", normalization_tolerance=tol)
    with pytest.raises(DistributionError, match=r"tolerance must be >= 0, got"):
        JointDistribution.from_points(bits("t"), [bits("s1")],
                                      [(Realization(0, (0,)), 1.0)], tol)
    assert load_distribution(XOR_CSV, "csv", normalization_tolerance=0.0).exact


def test_normalization_error_csv():
    bad = "t,s1,s2,p\n0,0,0,0.25\n1,0,1,0.25\n1,1,0,0.25\n0,1,1,0.15\n"
    with pytest.raises(DistributionError, match="sum"):
        load_distribution(bad, "csv")


def test_csv_error_locations():
    with pytest.raises(DistributionFormatError, match="row 1"):
        load_distribution("a,b,c\n", "csv")
    with pytest.raises(DistributionFormatError, match="row 3.*p"):
        load_distribution("t,s1,p\n0,0,0.5\n1,1,oops\n", "csv")
    with pytest.raises(DistributionFormatError, match="row 3"):
        load_distribution("t,s1,p\n0,0,0.5\n1,1\n", "csv")
    with pytest.raises(DistributionFormatError, match="row 3.*duplicate"):
        load_distribution("t,s1,p\n0,0,0.5\n0,0,0.5\n", "csv")
    with pytest.raises(DistributionFormatError, match="negative"):
        load_distribution("t,s1,p\n0,0,-0.5\n", "csv")


def test_json_symbol_outside_alphabet():
    doc = """{
      "target_alphabet": {"name": "t", "symbols": ["0", "1"]},
      "source_alphabets": [{"name": "s1", "symbols": ["0", "1"]}],
      "support": [{"t": "0", "s": ["2"], "p": "1"}]
    }"""
    with pytest.raises(DistributionFormatError,
                       match=r"^json input: support\[0\]: symbol '2' not in alphabet"):
        load_distribution(doc, "json")


JSON_XOR = {
    "target_alphabet": {"name": "t", "symbols": ["0", "1"]},
    "source_alphabets": [{"name": "s1", "symbols": ["0", "1"]},
                         {"name": "s2", "symbols": ["0", "1"]}],
    "support": [{"t": t, "s": [a, b], "p": "0.25"}
                for t, a, b in ("000", "101", "110", "011")],
}


def xor_json(**changes) -> str:
    doc = json.loads(json.dumps(JSON_XOR))
    doc.update(changes)
    return json.dumps(doc)


def json_entries(*entries) -> str:
    return xor_json(support=JSON_XOR["support"][:2] + list(entries))


@pytest.mark.parametrize("text, where", [
    (xor_json(support=5), "support"),
    (xor_json(support={"t": "0"}), "support"),
    (json_entries({"t": "0", "s": 5, "p": "0.5"}), r"support\[2\]"),
    (json_entries({"t": "0", "s": "00", "p": "0.5"}), r"support\[2\]"),
    (json_entries({"t": "0", "s": ["0"], "p": "0.5"}), r"support\[2\]"),
    (json_entries(5), r"support\[2\]"),
    (xor_json(source_alphabets=5), "source_alphabets"),
    (xor_json(source_alphabets={"s1": {"name": "s1", "symbols": ["0", "1"]}}),
     "source_alphabets: expected a list"),
    (xor_json(target_alphabet={"name": "t", "symbols": "01"}),
     "target_alphabet: symbols must be a list"),
    (xor_json(source_alphabets=[{"name": "s1", "symbols": {"0": 0, "1": 1}},
                                {"name": "s2", "symbols": ["0", "1"]}]),
     r"source_alphabets\[0\]: symbols must be a list"),
    ("[]", "target_alphabet"),
])
def test_json_wrong_shapes_name_their_location(text, where):
    with pytest.raises(DistributionFormatError, match=f"^json input: .*{where}"):
        load_distribution(text, "json")


def _csv_with(p: str, extra: str = "") -> str:
    return f"t,s1,s2,p\n0,0,0,0.25\n1,0,1,0.25\n1,1,0,{p}\n{extra}"


def _json_with(p: str, extra: dict | None = None) -> str:
    entries = JSON_XOR["support"][:2] + [{"t": "1", "s": ["1", "0"], "p": p}]
    return xor_json(support=entries + ([extra] if extra else []))


DUPLICATE_ROW = {"t": "1", "s": ["0", "1"], "p": "0.25"}


def _both(p: str, csv_extra: str = "", json_extra: dict | None = None) -> dict:
    return {"csv": _csv_with(p, csv_extra), "json": _json_with(p, json_extra)}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("docs, error, message", [
    (_both("oops"), DistributionFormatError, "{0}, field p: cannot parse mass 'oops'"),
    (_both("-0.5"), DistributionFormatError, "{0}, field p: negative mass -0.5"),
    (_both("0.25", "1,0,1,0.25\n", DUPLICATE_ROW), DistributionFormatError,
     "{1}: duplicate realization"),
    (_both("0.25"), DistributionError, "masses sum to 0.75, outside tolerance 1e-09"),
], ids=["bad-mass", "negative-mass", "duplicate", "sum"])
def test_csv_and_json_report_the_same_fault(fmt, docs, error, message):
    # the third point is CSV row 4 (the header is row 1) and JSON support[2]
    where = {"csv": ("row 4", "row 5"), "json": ("support[2]", "support[3]")}[fmt]
    with pytest.raises(error) as info:
        load_distribution(docs[fmt], fmt)
    assert type(info.value) is error
    assert str(info.value) == f"{fmt} input: " + message.format(*where)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("literal", [
    "1e999999999", "1e-999999999", "1E+4301", "1" * 4301, "0." + "0" * 4300 + "1",
    "1/" + "3" * 4301, "1e" + "9" * 5000])
def test_oversized_mass_literals_rejected(fmt, literal):
    doc = _csv_with(literal) if fmt == "csv" else _json_with(literal)
    where = "row 4, field p" if fmt == "csv" else r"support\[2\], field p"
    with pytest.raises(DistributionFormatError,
                       match=f"^{fmt} input: {where}: mass literal exceeds 4300"):
        load_distribution(doc, fmt)


def test_mass_literals_at_the_bound_parse():
    assert load_distribution("t,s1,p\n0,0,1e-4300\n1,1,1\n", "csv").masses[0] \
        == Fraction(1, 10**4300)
    assert load_distribution("t,s1,p\n0,0,1_0e-1\n", "csv").masses == (1,)
    with pytest.raises(DistributionError, match="masses sum to inf"):
        load_distribution("t,s1,p\n0,0,1e4300\n", "csv")


@pytest.mark.parametrize("name", ["pwunq", "rnd", "rnderr", "xor", "xorduplicate",
                                  "parity:1", "parity:2", "parity:3", "parity:4",
                                  "parity:5"])
def test_builtins_reload_from_both_dumps(name):
    d = builtin_distribution(name)
    assert d.exact
    assert load_distribution(dump_csv(d), "csv") == d
    assert load_distribution(dump_json(d), "json") == d


# ---------------------------------------------------------------------------
# one rule for exactness: a distribution is exact when no mass is a float
# ---------------------------------------------------------------------------

def test_masses_over_a_denominator_beyond_2_64_are_exact():
    # 10^20 > 2^64: still exact, with exact zeros for points off the support
    d = load_distribution(DEN_1E20_CSV, "csv")
    assert d.exact and d.mass_array[1] == 10**20
    missing = d.mass(Realization(t=0, s=(0, 1)))
    assert type(missing) is Fraction and missing == 0
    assert load_distribution(dump_csv(d), "csv") == d


def test_python_int_masses_are_exact():
    d = JointDistribution.from_points(bits("t"), [bits("s1")],
                                      [(Realization(t=1, s=(0,)), 1),
                                       (Realization(t=0, s=(1,)), 0)])
    assert d.masses == (1,) and d.exact
    masses, den = d.mass_array
    assert masses.tolist() == [1] and den == 1
    assert type(d.mass(Realization(t=0, s=(0,)))) is Fraction


def test_one_float_mass_makes_every_mass_a_float():
    # a Fraction next to a float is summed, stored and written as a float
    d = JointDistribution.from_points(bits("t"), [bits("s1")],
                                      [(Realization(t=0, s=(0,)), Fraction(1, 3)),
                                       (Realization(t=1, s=(1,)), np.float64(2 / 3))])
    assert not d.exact
    masses, den = d.mass_array
    assert masses.dtype == float and den is None
    assert d.mass(Realization(t=1, s=(0,))) == 0.0
    assert dump_csv(d).splitlines()[1:] == ["0,0,0.3333333333333333",
                                            "1,1,0.6666666666666666"]


def test_zero_mass_rows_dropped():
    d = load_distribution("t,s1,p\n0,0,1\n1,1,0\n", "csv")
    assert len(d.support) == 1


def test_duplicate_realization_rejected_in_constructor():
    r = Realization(t=0, s=(0,))
    with pytest.raises(DistributionError, match="duplicate"):
        JointDistribution(bits("t"), (bits("s1"),), (r, r),
                          (Fraction(1, 2), Fraction(1, 2)))


def test_csv_roundtrip_bit_exact():
    # pwunq lists s2 as "1" before "0" in support order, so a dump that
    # only writes the support would reload s2 with a permuted alphabet
    for d in (load_distribution(XOR_CSV, "csv"), builtin_distribution("pwunq")):
        again = load_distribution(dump_csv(d), "csv")
        assert again == d


def test_json_roundtrip_bit_exact():
    d = load_distribution(XOR_CSV, "csv")
    again = load_distribution(dump_json(d), "json")
    assert again.support == d.support and again.masses == d.masses


@settings(max_examples=60, deadline=None)
@given(rational_weights(8))
@example(weights=[0, 0, 0, 0, 0, 1, 1, 2])  # s2 first seen as "1", t never "0"
def test_roundtrip_random_rationals(weights):
    d = rational_distribution(2, weights)
    assert load_distribution(dump_csv(d), "csv") == d
    assert load_distribution(dump_json(d), "json") == d


def test_byte_stream_input():
    d = load_distribution(io.BytesIO(XOR_CSV.encode()), "csv")
    assert len(d.support) == 4


# ---------------------------------------------------------------------------
# event probabilities
# ---------------------------------------------------------------------------

def xor_dist():
    return load_distribution(XOR_CSV, "csv")


def test_event_probability_xor_union():
    d = xor_dist()
    events = [CylinderEvent(sources=((0, 1),)), CylinderEvent(sources=((1, 1),))]
    assert event_probability(d, events, "union") == Fraction(3, 4)
    assert event_probability(d, events, "intersection") == Fraction(1, 4)


def test_event_probability_unconstrained():
    d = xor_dist()
    assert event_probability(d, [CylinderEvent()], "union") == 1


def test_event_probability_parity4_union():
    # independent oracle: enumerate the 16 equiprobable outcomes directly
    rows = []
    for code in range(16):
        s = tuple(code >> i & 1 for i in range(4))
        rows.append((Realization(t=sum(s) % 2, s=s), Fraction(1, 16)))
    d = JointDistribution.from_points(
        bits("t"), [bits(f"s{i}") for i in range(1, 5)], rows)
    hits = sum(1 for r, _ in rows
               if (r.s[0] == 0 and r.s[1] == 0) or (r.s[2] == 1 and r.s[3] == 0))
    assert hits == 7
    events = [CylinderEvent(sources=((0, 0), (1, 0))),
              CylinderEvent(sources=((2, 1), (3, 0)))]
    assert event_probability(d, events, "union") == Fraction(7, 16)


def test_event_probability_validation():
    d = xor_dist()
    with pytest.raises(DistributionError):
        event_probability(d, [], "union")
    with pytest.raises(DistributionError):
        event_probability(d, [CylinderEvent()], "neither")
    with pytest.raises(DistributionError):
        event_probability(d, [CylinderEvent(sources=((5, 0),))], "union")
    with pytest.raises(DistributionError):
        CylinderEvent(sources=((0, 0), (0, 1)))


@settings(max_examples=60, deadline=None)
@given(rational_weights(8, positive=True), st.data())
def test_de_morgan_and_permutation(weights, data):
    d = rational_distribution(2, weights)
    events = data.draw(st.lists(
        st.builds(CylinderEvent,
                  sources=st.lists(st.tuples(st.sampled_from([0, 1]),
                                             st.sampled_from([0, 1])),
                                   max_size=2, unique_by=lambda c: c[0])
                  .map(tuple),
                  target=st.sampled_from([None, 0, 1])),
        min_size=1, max_size=3))
    union = event_probability(d, events, "union")
    none_match = d.mass_where(lambda r: not any(e.matches(r) for e in events))
    assert union == d.total_mass() - none_match  # exact: rational masses
    perm = data.draw(st.permutations(events))
    assert event_probability(d, perm, "union") == union
    assert event_probability(d, perm, "intersection") == \
        event_probability(d, events, "intersection")


@settings(max_examples=60, deadline=None)
@given(rational_weights(8, positive=True), st.data())
def test_event_monotonicity(weights, data):
    d = rational_distribution(2, weights)
    base = [CylinderEvent(sources=((0, data.draw(st.sampled_from([0, 1]))),))]
    extra = CylinderEvent(sources=((1, data.draw(st.sampled_from([0, 1]))),))
    assert event_probability(d, base + [extra], "union") >= \
        event_probability(d, base, "union")
    assert event_probability(d, base + [extra], "intersection") <= \
        event_probability(d, base, "intersection")


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

def test_marginal_xor_target():
    m = marginal(xor_dist(), ["t"])
    assert m.n_sources == 0
    assert sorted(m.masses) == [Fraction(1, 2), Fraction(1, 2)]


def test_marginal_point_mass():
    d = load_distribution("t,s1,s2,p\n0,1,1,1\n", "csv")
    for keep in (["t"], [1], [2], ["t", 1, 2]):
        m = marginal(d, keep)
        assert len(m.support) == 1 and m.masses[0] == 1


def test_marginal_rnderr_s2():
    # summing the four rows by the second source gives 1/2 each
    rows = "t,s1,s2,p\n0,0,0,0.375\n1,1,1,0.375\n0,0,1,0.125\n1,1,0,0.125\n"
    m = marginal(load_distribution(rows, "csv"), [2])
    assert sorted(m.masses) == [Fraction(1, 2), Fraction(1, 2)]


def test_marginal_validation_and_conservation():
    d = xor_dist()
    with pytest.raises(DistributionError):
        marginal(d, [])
    with pytest.raises(DistributionError):
        marginal(d, [7])
    assert marginal(d, [1, 2]).total_mass() == d.total_mass()


def test_mass_where_predicate():
    d = xor_dist()
    assert d.mass_where(lambda r: r.t == 0) == Fraction(1, 2)
    assert d.mass_where(lambda r: False) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_event_masses_do_not_depend_on_the_batch(n):
    # every realization's masses are one product of its own 2^n bins, its
    # logs are elementwise, so running the support rows in chunks of 1, 7
    # or all of them gives the same bits, masses and evaluated parts alike
    rng = np.random.default_rng(40 + n)
    grid = np.indices((2,) + (3,) * n).reshape(n + 1, -1).T
    points = grid[rng.choice(len(grid), size=16, replace=False)]
    ints = rng.integers(1, 10**6, size=len(points))
    up_sets = enumerate_lattice(n).up_sets
    for masses, den in ((ints / ints.sum(), None), (ints, int(ints.sum())),
                        (np.array([int(m) * 3**40 for m in ints], dtype=object),
                         int(ints.sum()) * 3**40)):
        whole = evaluate(up_sets, event_plan(points, points), masses, den)
        assert whole[0].dtype == masses.dtype and whole[2].dtype == complex
        for size in (1, 7, len(points)):
            sums, p_t, parts = zip(*(
                evaluate(up_sets, event_plan(points, points[i:i + size]), masses, den)
                for i in range(0, len(points), size)))
            assert np.array_equal(np.concatenate(sums), whole[0])
            assert np.array_equal(np.concatenate(p_t), whole[1])
            assert np.concatenate(parts, axis=1).tobytes() == whole[2].tobytes()


@pytest.mark.parametrize("n", [2, 4, 5])
def test_plan_and_mass_steps_give_the_kernel_bits(n):
    # the kernel's plan step then its mass step, and the evaluation's sums;
    # the lattice's float up-sets, read uncast, give the bits of the same
    # table as bools
    rng = np.random.default_rng(50 + n)
    grid = np.indices((3,) + (2,) * n).reshape(n + 1, -1).T
    points = grid[rng.permutation(len(grid))]
    masses = rng.exponential(size=len(points)) ** 3
    lat = enumerate_lattice(n)
    at = points[rng.choice(len(points), size=9, replace=False)]
    plan = event_plan(points, at)
    hist = np.zeros((len(at), 1 << n, 2))
    rows = np.arange(len(at))[:, None]
    np.add.at(hist[..., 0], (rows, plan.agree), masses)
    np.add.at(hist[..., 1], (rows, plan.agree),
              np.where(plan.same_target, masses, 0.0))
    want = np.matmul(lat.up_sets.astype(float), hist)
    for up_sets in (lat.up_sets, lat.up_sets.astype(bool)):
        assert plan_event_masses(up_sets, plan, masses)[0].tobytes() == want.tobytes()
    assert evaluate(lat.up_sets, plan, masses)[0].tobytes() == want.tobytes()
    # the float table meets exact masses: Python-int sums, those of int64
    ints = rng.integers(1, 10**6, size=len(points))
    exact = plan_event_masses(lat.up_sets, plan, ints.astype(object) * 3**40)
    for got, small in zip(exact, plan_event_masses(lat.up_sets, plan, ints)):
        assert {type(x) for x in got.flat} == {int}
        assert got.tolist() == (small.astype(object) * 3**40).tolist()


@pytest.mark.parametrize("r, m, message", [
    (Realization(0, (0, 0)), Fraction(-1, 4), "negative mass -1/4 at {r}"),
    (Realization(0, (0,)), Fraction(1, 4), "realization {r} has wrong arity"),
    (Realization(2, (0, 0)), Fraction(1, 4), "target index out of range at {r}"),
    (Realization(0, (0, 2)), Fraction(1, 4), "source 2 index out of range at {r}"),
])
def test_joint_distribution_names_a_bad_point(r, m, message):
    rest = [(Realization(1, (0, 1)), Fraction(1, 4)),
            (Realization(1, (1, 0)), Fraction(1, 4)),
            (Realization(0, (1, 1)), Fraction(1, 2) - m)]
    with pytest.raises(DistributionError, match=f"^{re.escape(message.format(r=r))}$"):
        JointDistribution.from_points(bits("t"), [bits("s1"), bits("s2")],
                                      [(r, m)] + rest)


@pytest.mark.parametrize("text, fmt, message", [
    (XOR_CSV, "xml", "^unknown format 'xml'$"),
    ("\n \n", "csv", "^csv input: row 1: empty input$"),
    ('{"target_alphabet": ', "json", "^json input: Expecting value: line 1 column 21"),
    (json.dumps({"target_alphabet": {"symbols": ["0"]}, "source_alphabets": [],
                 "support": []}), "json",
     "^json input: target_alphabet: need name and symbols$"),
])
def test_load_distribution_names_what_is_wrong(text, fmt, message):
    with pytest.raises(DistributionFormatError, match=message):
        load_distribution(text, fmt)
