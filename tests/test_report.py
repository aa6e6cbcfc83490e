"""The JSON writer against ``json.dumps(indent=2)``, and the array-backed
decompositions against a per-node reference evaluation."""

import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (DEN_1E20_CSV, bits, foreign_decompositions, grid_points,
                     random_grid_distribution)
from sxpid import measures as M
from sxpid import report
from sxpid.builtins import builtin_distribution, builtin_names
from sxpid.dist import (DistributionError, JointDistribution, Realization,
                        load_distribution)
from sxpid.lattice import enumerate_lattice, invert_array

SMALL_BUILTINS = [name for name in builtin_names() if ":" not in name] + [
    f"parity:{k}" for k in range(1, 5)]


def sparse_float_distribution(n: int, support: int, seed: int) -> JointDistribution:
    """Float masses on ``support`` random cells of the binary grid."""
    rng = np.random.default_rng(seed)
    points = grid_points(2, (2,) * n)
    cells = rng.choice(len(points), size=support, replace=False)
    raw = rng.uniform(0.05, 1.0, size=support)
    raw /= raw.sum()
    return JointDistribution.from_points(
        bits("t"), [bits(f"s{i + 1}") for i in range(n)],
        [(points[c], float(m)) for c, m in zip(cells, raw)],
        normalization_tolerance=1e-6)


def reports(d: JointDistribution, pointwise: bool = True):
    """The averages report and, if asked, the one with pointwise blocks."""
    decs = M.decompose_support(d)
    avg = M.average_decomposition(d, decompositions=decs)
    yield report.decomposition_report(d, avg)
    if pointwise:
        yield report.decomposition_report(d, avg, decs)


@pytest.mark.parametrize("name", SMALL_BUILTINS)
def test_render_json_equals_json_dumps_on_builtins(name):
    for doc in reports(builtin_distribution(name)):
        assert report.render_json(doc) == json.dumps(doc, indent=2)


def test_render_json_equals_json_dumps_on_float_n5():
    full = random_grid_distribution(5, np.random.default_rng(12))
    sparse = sparse_float_distribution(5, 3, seed=12)
    for doc in [*reports(full, pointwise=False), *reports(sparse)]:
        assert report.render_json(doc) == json.dumps(doc, indent=2)


def _block(keys, vals, **extra):
    return {**dict(zip(keys, vals)), **extra}


AVG, PW = M.AVERAGE_FIELDS, M.POINTWISE_FIELDS
FINITE = [0.1, -0.0, 1e-300, -2.5e17, 3.0, -1 / 3]
REPEATED = 0.1 + 0.2


class FloatSub(float):
    pass


class StrSub(str):
    pass


class LookAlike(str):
    """A str that equals, and hashes as, a text other than its own."""

    def __new__(cls, text, equal_to):
        self = super().__new__(cls, text)
        self.equal_to = equal_to
        return self

    def __eq__(self, other):
        return other == self.equal_to

    def __hash__(self):
        return hash(self.equal_to)


NAMES = ["{1}{2}", "{1}", "{2}", "{1,2}"]
#: Equal to NAMES as a tuple, so a cache keyed on the tuple would serve it.
SWAPPED = NAMES[:2] + [LookAlike("{3}", NAMES[2])] + NAMES[3:]


EXACT = {"i_plus": "1", "i_minus": "log2(3/2)", "pi_plus": "0", "pi_minus": "-1/2"}
CYCLIC = {"n_sources": 1, "pointwise": [{"nodes": {}}]}
CYCLIC["pointwise"][0]["nodes"]["{1}"] = CYCLIC


HAND_MADE = [
    {"n_sources": 2, "nodes": ["{1}{2}", "{α}"], "averages": {
        "{1}{2}": _block(AVG, FINITE, misinformative=True),
        "{α}": _block(AVG, FINITE),
        "nan": _block(AVG, [math.nan] + FINITE[1:]),
        "inf": _block(AVG, FINITE[:5] + [math.inf], misinformative=True),
        "-inf": _block(AVG, [-math.inf] + FINITE[1:]),
        "np": _block(AVG, FINITE[:2] + [np.float64(0.1)] + FINITE[3:]),
        "int": _block(AVG, FINITE[:3] + [1] + FINITE[4:]),
        "flag-int": _block(AVG, FINITE, misinformative=1),
        "flag-false": _block(AVG, FINITE, misinformative=False),
        "short": dict(zip(AVG[:5], FINITE)),
        "reordered": _block(AVG[::-1], FINITE),
        "not-a-block": [1.5, "x"],
    }},
    {"n_sources": 1, "nodes": [], "averages": {}, "pointwise": []},
    {"n_sources": 1, "nodes": ["{1}"], "averages": {1: _block(AVG, FINITE)}},
    {"n_sources": 1, "nodes": ["{1}"], "averages": {"{1}": _block(AVG, FINITE)},
     "pointwise": [
         {"t": "é", "s": ["0"], "weight": 0.5, "weight_exact": None,
          "nodes": {"{1}": _block(PW, FINITE, misinformative=True),
                    "{2}": _block(PW, FINITE, exact={"i_plus": "3/2"}),
                    "{3}": _block(AVG, FINITE), "{4}": {}}},
         {"t": "1", "s": [], "weight": 0.5, "nodes": {}},
         ["not", "a", "realization"],
     ]},
    {"n_sources": 1, "nodes": [], "averages": {},
     "pointwise": [{"weight": Fraction(1, 2), "nodes": {}}]},
    {"extra": {"a": [1, {"b": None}]}, "averages": None, "pointwise": {"x": 1}},
    [1, 2],
    # node lists: empty, or holding a str subclass, an int, a nested list
    # or names that need escaping
    {"n_sources": 1, "nodes": [], "averages": {}},
    {"n_sources": 1, "nodes": ["{1}", StrSub("{2}")]},
    {"n_sources": 1, "nodes": ["{1}", 2]},
    {"n_sources": 1, "nodes": ["{1}", ["{2}", "{3}"]]},
    {"n_sources": 1, "nodes": ['"q"', "back\\slash", "new\nline", "{α}", "\U0001d11e"],
     "pointwise": [{"nodes": ["{1}", "{2}"]}]},
    # node maps written whole: one value repeated across nodes and fields,
    # 0.0 and -0.0 side by side, flagged blocks among unflagged ones
    {"n_sources": 2, "nodes": ["{1}{2}", "{1}", "{2}", "{1,2}"], "averages": {
        "{1}{2}": _block(AVG, [REPEATED, 0.0, -0.0, REPEATED, 1e-300, -2.5],
                         misinformative=True),
        "{1}": _block(AVG, [REPEATED] * 6),
        "{2}": _block(AVG, [-0.0, 0.0, REPEATED, -0.0, 0.0, 3.0]),
        "{1,2}": _block(AVG, FINITE, misinformative=True),
    }, "pointwise": [{"t": "0", "s": ["0", "1"], "weight": REPEATED,
                      "weight_exact": None, "nodes": {
                          "{1}{2}": _block(PW, [-0.0] * 6, misinformative=True),
                          "{1}": _block(PW, [0.0] * 6),
                          "{2}": _block(PW, FINITE[::-1])}}]},
    # the same maps with one block that is not six plain floats
    {"averages": {"a": _block(AVG, FINITE), "b": _block(AVG, [True] + FINITE[1:]),
                  "c": _block(AVG, FINITE, misinformative=True)}},
    {"averages": {"a": _block(AVG, [REPEATED] * 6, misinformative=True),
                  "sub": _block(AVG, FINITE[:4] + [FloatSub(REPEATED)] + FINITE[5:])}},
    {"averages": {"a": _block(AVG, [0.0] * 6),
                  "np": _block(AVG, [np.float64(-0.0)] + FINITE[1:],
                               misinformative=True)}},
    {"averages": {"a": _block(AVG, FINITE, misinformative=True),
                  "flag": _block(AVG, FINITE, misinformative=REPEATED)}},
    {"averages": {"a": _block(AVG, [True] + FINITE[1:]),
                  "flag": _block(AVG, FINITE, misinformative=2.5)}},
    {"averages": {"a": _block(AVG, FINITE), "int": _block(AVG, [1] + FINITE[1:]),
                  "false": _block(AVG, FINITE[:5] + [False])}},
    {"averages": {"a": _block(AVG, FINITE), "nan": _block(AVG, FINITE[:5] + [math.nan])},
     "pointwise": [{"nodes": {"a": _block(PW, FINITE),
                              "inf": _block(PW, [-math.inf] + FINITE[1:])}}]},
    # paths follow the value's shape, not its key: a node map under an
    # unknown key and two levels deep, a list under "averages", lists of
    # str under other keys and inside a nested list
    {"extra": {"deeper": {"{1}": _block(AVG, FINITE),
                          "{2}": _block(PW, [REPEATED] * 6, misinformative=True)}}},
    {"averages": [_block(AVG, FINITE), {"{1}": _block(AVG, FINITE)}, 1.5, "x"]},
    {"names": ["{1}", "é"], "nested": [["a", "b"], [], ["c", 1], [["d"]]],
     "pointwise": [{"s": ["0", "1"], "tags": ["x"]}]},
    # a str-subclass key in an otherwise qualifying node map
    {"averages": {"a": _block(AVG, FINITE), StrSub("b"): _block(AVG, FINITE)}},
    # blocks a check that reads less than every key and flag must still
    # refuse: a numpy flag, a seventh key that is not the flag
    {"averages": {"a": _block(AVG, FINITE, misinformative=True),
                  "np-flag": _block(AVG, FINITE, misinformative=np.True_)}},
    {"averages": {"a": _block(AVG, FINITE, misinformative=True),
                  "other": _block(AVG, FINITE, other=True)}},
    # both field layouts in one map, flagged and not: written whole
    {"mixed": {"a": _block(AVG, FINITE), "b": _block(PW, FINITE, misinformative=True),
               "c": _block(PW, [REPEATED] * 6),
               "d": _block(AVG, FINITE[::-1], misinformative=True)}},
    # a node list, then an equal one holding a str subclass of other text
    {"nodes": NAMES, "again": SWAPPED, "averages": {
        name: _block(AVG, FINITE) for name in SWAPPED}},
    # pointwise blocks with exact sub-blocks, as n <= 3 reports carry them
    {"pointwise": [{"t": "0", "s": ["0", "1"], "weight": 0.25, "weight_exact": "1/4",
                    "nodes": {
                        "{1}{2}": _block(PW, FINITE, misinformative=True, exact=EXACT),
                        "{1}": _block(PW, [REPEATED] * 6, exact=EXACT)}}]},
    # cyclic, and nested deeper than the writer recurses
    CYCLIC,
    functools.reduce(lambda inner, _: [inner], range(600), ["deep"]),
]


def test_swapped_names_equal_the_names():
    # else the hand-made case with both lists could not catch a cache hit
    assert tuple(SWAPPED) == tuple(NAMES)
    assert json.dumps(SWAPPED[2]) == '"{3}"'


@pytest.mark.parametrize("doc", HAND_MADE)
def test_render_json_equals_json_dumps_on_hand_made_docs(doc):
    try:
        want = json.dumps(doc, indent=2)
    except (TypeError, ValueError) as e:  # a Fraction, a cycle: both refuse
        with pytest.raises(type(e), match=str(e)):
            report.render_json(doc)
        return
    assert report.render_json(doc) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_node_blocks_hold_the_block_columns_in_field_order(n):
    d = (random_grid_distribution(n, np.random.default_rng(70 + n)) if n < 5
         else sparse_float_distribution(5, 3, seed=70))
    decs = M.decompose_support(d)
    avg = M.average_decomposition(d, decompositions=decs)
    doc = report.decomposition_report(d, avg, decs)
    order = report.display_order(avg.lattice)
    assert doc["nodes"] == [avg.lattice.names[j] for j in order]
    flags = 0
    for fields, dec, nodes in [(AVG, avg, doc["averages"]),
                               *((PW, dec, r["nodes"])
                                 for dec, r in zip(decs, doc["pointwise"]))]:
        assert list(nodes) == doc["nodes"]
        for j, block in zip(order, nodes.values()):
            flagged = int(dec.block[-1, j] < 0)
            assert list(block) == list(fields) + ["misinformative"] * flagged
            assert list(block.values()) == dec.block[:, j].tolist() + [True] * flagged
            flags += flagged
    assert flags > 0


def _log2(x, float_log2=np.log2) -> float:
    if isinstance(x, Fraction):
        return math.log2(x.numerator) - math.log2(x.denominator)
    return float(float_log2(x))


def reference_pointwise(d, r, lat):
    """One log per node (np.log2 of a float node mass, math.log2 of P(t)),
    both parts inverted in one N x 2 matrix."""
    p_plus, p_minus, p_t = M.node_event_probabilities(d, r, lat)
    ip = [-_log2(p) for p in p_plus]
    im = [_log2(p_t, math.log2) - _log2(p) for p in p_minus]
    pi = invert_array(lat, np.array([ip, im]).T)
    pip, pim = pi[:, 0].tolist(), pi[:, 1].tolist()
    return {"i_plus": ip, "i_minus": im, "i": [a - b for a, b in zip(ip, im)],
            "pi_plus": pip, "pi_minus": pim, "pi": [a - b for a, b in zip(pip, pim)]}


@pytest.mark.parametrize("d", [
    *(builtin_distribution(name) for name in ("xor", "rnderr", "parity:3")),
    *(random_grid_distribution(n, np.random.default_rng(40 + n)) for n in (2, 3, 4)),
    sparse_float_distribution(5, 4, seed=3),
], ids=["xor", "rnderr", "parity3", "grid2", "grid3", "grid4", "sparse5"])
def test_array_fields_equal_per_node_reference(d):
    lat = enumerate_lattice(d.n_sources)
    decs = M.decompose_support(d, lat)
    refs = [reference_pointwise(d, dec.realization, lat) for dec in decs]
    for dec, ref in zip(decs, refs):
        assert not dec.block.flags.writeable
        for k, name in enumerate(M.POINTWISE_FIELDS):
            assert getattr(dec, name) == tuple(ref[name])
            assert dec.block[k].tolist() == ref[name]
    avg = M.average_decomposition(d, lat, decompositions=decs)
    for name, avg_name in zip(M.POINTWISE_FIELDS, M.AVERAGE_FIELDS):
        want = tuple(math.fsum(float(dec.weight) * ref[name][j]
                               for dec, ref in zip(decs, refs))
                     for j in range(len(lat)))
        assert getattr(avg, avg_name) == want
    assert avg == M.average_decomposition(d, lat)
    assert decs == M.decompose_support(d, lat)


# ---------------------------------------------------------------------------
# exact report fields: exact masses whose common denominator is at most
# measures.MAX_EXACT_DENOMINATOR
# ---------------------------------------------------------------------------

def xor_support_with(*masses) -> JointDistribution:
    return JointDistribution.from_points(
        bits("t"), [bits("s1"), bits("s2")],
        zip(builtin_distribution("xor").support, masses))


def pointwise_doc(d: JointDistribution) -> list[dict]:
    decs = M.decompose_support(d)
    return report.decomposition_report(
        d, M.average_decomposition(d, decompositions=decs), decs)["pointwise"]


def test_exact_fields_need_a_common_denominator_within_the_bound():
    q, a, b = Fraction(1, 4), Fraction(1, 2**40), Fraction(1, 3**30)
    within = xor_support_with(q + a, q - a, q + 2 * a, q - 2 * a)
    # each denominator is below 2^64, their least common multiple is not
    beyond = xor_support_with(q + a, q - a, q + b, q - b)
    assert max(m.denominator for m in beyond.masses) <= M.MAX_EXACT_DENOMINATOR
    assert beyond.mass_array[1] == 2**40 * 3**30 > M.MAX_EXACT_DENOMINATOR
    decimals = load_distribution(DEN_1E20_CSV, "csv")
    for d, has_fields in ((within, True), (beyond, False), (decimals, False)):
        assert d.exact
        for point, m in zip(pointwise_doc(d), d.masses):
            assert Fraction(point["weight_exact"]) == m
            assert all(("exact" in block) == has_fields
                       for block in point["nodes"].values())
    assert pointwise_doc(decimals)[0]["weight_exact"] == "0.24999999999999999999"


def test_python_int_masses_carry_exact_fields():
    d = JointDistribution.from_points(bits("t"), [bits("s1")],
                                      [(Realization(t=0, s=(1,)), 1)])
    (point,) = pointwise_doc(d)
    assert point["weight_exact"] == "1"
    assert all(block["exact"] == {"i_plus": "1", "i_minus": "1",
                                  "pi_plus": "1", "pi_minus": "1"}
               for block in point["nodes"].values())


@pytest.mark.parametrize("case", ["source count", "subset", "order", "weight"])
def test_report_of_foreign_decompositions_rejected(case):
    d, decs, message = foreign_decompositions()[case]
    avg = M.average_decomposition(d)
    with pytest.raises(DistributionError, match=message):
        report.decomposition_report(d, avg, decs)


def test_report_of_foreign_averages_rejected():
    avg = M.average_decomposition(builtin_distribution("xorduplicate"))
    with pytest.raises(DistributionError,
                       match="^averages over 3 sources, the distribution has 2$"):
        report.decomposition_report(builtin_distribution("xor"), avg)

