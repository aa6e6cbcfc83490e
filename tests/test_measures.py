import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from helpers import (bits, grid_points, random_grid_distribution,
                     rational_distribution)
from sxpid.builtins import (builtin_distribution, parity_distribution,
                            pwunq_distribution, rnd_distribution,
                            rnderr_distribution, xor_distribution,
                            xorduplicate_distribution)
from sxpid.dist import (Alphabet, CylinderEvent, DistributionError,
                        JointDistribution, Realization, event_probability,
                        plan_event_masses)
from sxpid.lattice import (Antichain, BoundaryError, _log2, enumerate_lattice,
                           invert_array, leq)
from sxpid import grad as G
from sxpid import lattice as L
from sxpid import measures as M

L2 = math.log2


def node(n, *colls):
    return Antichain.of(n, colls)


# ---------------------------------------------------------------------------
# pointwise values on the worked examples
# ---------------------------------------------------------------------------

class TestXor:
    d = xor_distribution()
    r = Realization(t=0, s=(1, 1))

    def test_parts_bottom(self):
        assert M.i_sx_plus(self.d, self.r, node(2, [1], [2])) == \
            pytest.approx(-L2(3 / 4), abs=1e-12)
        assert M.i_sx_minus(self.d, self.r, node(2, [1], [2])) == \
            pytest.approx(1.0, abs=1e-12)

    def test_signed_bottom(self):
        assert M.i_sx(self.d, self.r, node(2, [1], [2])) == \
            pytest.approx(L2(2 / 3), abs=1e-12)

    def test_single_source_is_marginal_surprisal(self):
        assert M.i_sx_plus(self.d, self.r, node(2, [1])) == pytest.approx(1.0)
        assert M.i_sx_minus(self.d, self.r, node(2, [1])) == pytest.approx(1.0)

    def test_local_mi(self):
        assert M.local_mi(self.d, self.r, [1, 2]) == pytest.approx(1.0)
        assert M.local_mi(self.d, self.r, [1]) == pytest.approx(0.0)

    def test_full_coalition_matches_local_mi(self):
        assert M.i_sx(self.d, self.r, node(2, [1, 2])) == \
            pytest.approx(M.local_mi(self.d, self.r, [1, 2]), abs=1e-12)

    def test_atom_table(self):
        dec = M.pointwise_decomposition(self.d, self.r)
        want = {"{1}{2}": L2(2 / 3), "{1}": L2(3 / 2), "{2}": L2(3 / 2),
                "{1,2}": L2(4 / 3)}
        for name, v in want.items():
            assert dec.pi_by_name(name) == pytest.approx(v, abs=1e-12)

    def test_exact_ratios(self):
        dec = M.pointwise_decomposition(self.d, self.r)
        lat = dec.lattice
        assert dec.exact_pi_plus[lat.index(lat.top)] == Fraction(4, 3)
        assert dec.exact_i_plus[lat.index(lat.bottom)] == Fraction(4, 3)
        assert dec.exact_pi_minus[lat.index(lat.bottom)] == Fraction(2, 1)

    def test_forms_agree(self):
        for a in enumerate_lattice(2).nodes:
            base = M.i_sx(self.d, self.r, a)
            assert M.i_sx_conditional_form(self.d, self.r, a) == \
                pytest.approx(base, abs=1e-12)
            assert M.i_sx_exclusion_form(self.d, self.r, a) == \
                pytest.approx(base, abs=1e-12)


class TestPwUnq:
    def test_rows_and_averages(self):
        d = pwunq_distribution()
        decs = M.decompose_support(d)
        lat = decs[0].lattice
        for dec in decs:
            informative_src = 2 if dec.realization.s[0] == 0 else 1
            want_plus = {"{1}{2}": 1, "{1,2}": 0,
                         "{1}": 1 if informative_src == 1 else 0,
                         "{2}": 1 if informative_src == 2 else 0}
            for name, v in want_plus.items():
                j = lat.index(lat.node_by_name(name))
                assert dec.pi_plus[j] == pytest.approx(v, abs=1e-12)
                assert dec.pi_minus[j] == pytest.approx(
                    1 if name == "{1}{2}" else 0, abs=1e-12)
        avg = M.average_decomposition(d, decompositions=decs)
        assert avg.pi_by_name("{1}{2}") == pytest.approx(0, abs=1e-12)
        assert avg.pi_by_name("{1}") == pytest.approx(0.5, abs=1e-12)
        assert avg.pi_by_name("{2}") == pytest.approx(0.5, abs=1e-12)
        assert avg.pi_by_name("{1,2}") == pytest.approx(0, abs=1e-12)

    def test_pointwise_parts_example(self):
        d = pwunq_distribution()
        r = Realization(t=0, s=(0, 1))  # labels t=1, s=(0,1)
        a = node(2, [1], [2])
        assert M.i_sx_plus(d, r, a) == pytest.approx(1.0, abs=1e-12)
        assert M.i_sx_minus(d, r, a) == pytest.approx(1.0, abs=1e-12)


class TestRndErr:
    d = rnderr_distribution()

    def test_redundant_row(self):
        dec = M.pointwise_decomposition(self.d, Realization(t=0, s=(0, 0)))
        assert dec.pi_by_name("{1}{2}") == pytest.approx(L2(8 / 5), abs=1e-12)
        assert dec.pi_by_name("{1}") == pytest.approx(
            L2(5 / 4) - 0, abs=1e-12)
        lat = dec.lattice
        assert dec.pi_plus[lat.index(lat.top)] == pytest.approx(L2(16 / 15),
                                                                abs=1e-12)
        assert dec.pi_minus[lat.index(lat.node_by_name("{2}"))] == \
            pytest.approx(L2(4 / 3), abs=1e-12)

    def test_faulty_row(self):
        dec = M.pointwise_decomposition(self.d, Realization(t=0, s=(0, 1)))
        lat = dec.lattice
        assert dec.pi_plus[lat.index(lat.bottom)] == pytest.approx(L2(8 / 7),
                                                                   abs=1e-12)
        assert dec.pi_plus[lat.index(lat.node_by_name("{1}"))] == \
            pytest.approx(L2(7 / 4), abs=1e-12)
        # the top informative atom is log2(16/7); the non-negativity theorem
        # pins the numerator (a published 16/17 there would be negative)
        assert dec.pi_plus[lat.index(lat.top)] == pytest.approx(L2(16 / 7),
                                                                abs=1e-12)
        assert dec.pi_minus[lat.index(lat.node_by_name("{2}"))] == \
            pytest.approx(2.0, abs=1e-12)

    def test_averages(self):
        avg = M.average_decomposition(self.d)
        assert avg.pi_by_name("{1}{2}") == pytest.approx(
            0.75 * L2(8 / 5) + 0.25 * L2(8 / 7), abs=1e-12)
        assert avg.pi_by_name("{2}") == pytest.approx(-0.367993, abs=5e-7)
        assert avg.pi_by_name("{1,2}") == pytest.approx(0.367993, abs=5e-7)


class TestParity3:
    def test_symmetry_across_realizations(self):
        d = parity_distribution(3)
        decs = M.decompose_support(d)
        for dec in decs[1:]:
            assert np.allclose(dec.pi, decs[0].pi, atol=1e-12)

    def test_table_values(self):
        avg = M.average_decomposition(parity_distribution(3))
        want = {"{1}{2}{3}": L2(8 / 7), "{1}{2}": L2(7 / 6) - L2(4 / 3),
                "{1}{2,3}": L2(36 / 35) - L2(9 / 8), "{1}": L2(5 / 4),
                "{1,2}{1,3}{2,3}": L2(875 / 864) - L2(32 / 27),
                "{1,2}": L2(9 / 8), "{1,2}{1,3}": L2(16 / 15),
                "{1,2,3}": L2(32 / 27)}
        for name, v in want.items():
            assert avg.pi_by_name(name) == pytest.approx(v, abs=1e-12), name


# ---------------------------------------------------------------------------
# the event-mass kernel against the support scan
# ---------------------------------------------------------------------------

BUILTINS_UP_TO_4 = ("xor", "pwunq", "rnd", "rnderr", "xorduplicate",
                    "parity:1", "parity:2", "parity:3", "parity:4")


def scanned_masses(d, r, alpha):
    """(P(E), P(t & E)) of alpha's union event by dist.event_probability."""
    def events(with_target):
        return [CylinderEvent.from_realization(r, [i - 1 for i in coll],
                                               with_target)
                for coll in alpha.collections]
    return event_probability(d, events(False)), event_probability(d, events(True))


def test_kernel_masses_equal_support_scan_exact():
    for name in BUILTINS_UP_TO_4:
        d = builtin_distribution(name)
        lat = enumerate_lattice(d.n_sources)
        for r in d.support:
            plus, minus, p_t = M.node_event_probabilities(d, r, lat)
            assert p_t == event_probability(d, [CylinderEvent(target=r.t)])
            for j, a in enumerate(lat.nodes):
                assert (plus[j], minus[j]) == scanned_masses(d, r, a), (name, r, a)


def test_kernel_masses_equal_support_scan_float():
    # n = 4, 3-symbol alphabets, 40 of the 243 grid cells
    rng = np.random.default_rng(31)
    cells = grid_points(3, (3,) * 4)
    picked = rng.choice(len(cells), size=40, replace=False)
    raw = rng.uniform(0.05, 1.0, size=40)
    trits = lambda name: Alphabet(name, ("0", "1", "2"))
    d = JointDistribution.from_points(
        trits("t"), [trits(f"s{i}") for i in range(1, 5)],
        [(cells[k], float(w)) for k, w in zip(picked, raw / raw.sum())],
        normalization_tolerance=1e-9)
    lat = enumerate_lattice(4)
    for r in d.support:
        plus, minus, p_t = M.node_event_probabilities(d, r, lat)
        assert abs(p_t - event_probability(d, [CylinderEvent(target=r.t)])) <= 1e-15
        for j, a in enumerate(lat.nodes):
            want_plus, want_minus = scanned_masses(d, r, a)
            assert abs(plus[j] - want_plus) <= 1e-15
            assert abs(minus[j] - want_minus) <= 1e-15


def test_kernel_masses_exact_beyond_int64():
    # numerators over 3^40 sum past the int64 range: the object-dtype path
    nums = (3**39 + 1, 3**38, 3**38 - 1, 3**40 - 3**39 - 2 * 3**38)
    d = JointDistribution.from_points(
        bits("t"), [bits("s1"), bits("s2")],
        [(r, Fraction(k, 3**40)) for r, k in zip(xor_distribution().support, nums)])
    assert d.exact and d.mass_array[0].dtype == object
    lat = enumerate_lattice(2)
    for r in d.support:
        plus, minus, p_t = M.node_event_probabilities(d, r, lat)
        assert p_t == event_probability(d, [CylinderEvent(target=r.t)])
        for j, a in enumerate(lat.nodes):
            assert (plus[j], minus[j]) == scanned_masses(d, r, a), (r, a)
    decs = M.decompose_support(d, lat)
    avg = M.average_decomposition(d, lat, decompositions=decs)
    assert avg.pi_by_name("{1,2}") == pytest.approx(math.fsum(
        float(dec.weight) * dec.pi_by_name("{1,2}") for dec in decs), abs=1e-15)
    assert M.child_meet_mass_identity_max_dev(d, lat) == 0


@pytest.mark.parametrize("n, seed", [(2, 3), (3, 5), (4, 7)])
def test_measures_and_grad_agree_in_bits(n, seed):
    # both modules take their logs from lattice.log_parts; at n = 4, seed 7,
    # np.log2 and math.log2 differ for 84 of the 10,624 atoms compared
    d = random_grid_distribution(n, np.random.default_rng(seed))
    lat = enumerate_lattice(n)
    shape, p = G.grid_shape(d), G.grid_from_distribution(d)
    cells = np.array([np.ravel_multi_index((r.t, *r.s), shape) for r in d.support])
    assert sorted(cells.tolist()) == list(range(p.size))
    want = np.stack([dec.block for dec in M.decompose_support(d, lat)])
    for j in range(len(lat)):
        for row, which in ((3, "plus"), (4, "minus")):
            got, _ = G._evaluate(p, shape, cells, j, "pi", which)
            assert got.tolist() == want[:, row, j].tolist(), (j, which)


def count_kernel_calls(monkeypatch) -> list[int]:
    """The realization count of each call of the kernel's mass step, which
    ``measures`` makes itself and through ``lattice.evaluate``."""
    calls = []

    def counted(up_sets, plan, masses):
        calls.append(len(plan.agree))
        return plan_event_masses(up_sets, plan, masses)

    for module in (M, L):
        monkeypatch.setattr(module, "plan_event_masses", counted)
    return calls


def test_support_checks_make_one_kernel_call(monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    rng = np.random.default_rng(19)
    for d in (random_grid_distribution(3, rng), xor_distribution()):
        assert d.exact == (d.n_sources == 2)
        M.pointwise_decomposition(d, d.support[-1])
        assert calls == [1]
        calls.clear()
        M.child_meet_mass_identity_max_dev(d)
        assert calls == [len(d.support)]
        calls.clear()
    small, big = xor_distribution(), random_grid_distribution(2, rng, t_card=4)
    counts = []
    for d in (small, big):
        M.form_equivalence_max_dev(d)
        counts.append(len(calls))
        calls.clear()
        M.axiom_suite(d)
        assert calls == [len(d.support)]
        calls.clear()
    assert (len(small.support), len(big.support)) == (4, 16)
    assert counts[0] == counts[1]
    d = xorduplicate_distribution()
    M.duplicate_invariance_check(d, (1, 3), {"{1}{3}": 0.5849})
    assert calls == [len(d.support)]


def multiplicative_recursion(lat, ratios):
    """Oracle: each atom's ratio divided by the atoms of its strict downset."""
    out = [None] * len(ratios)
    for j in lat.topological_order:
        acc = ratios[j]
        for k in lat.strict_lower(int(j)):
            acc /= out[k]
        out[j] = acc
    return out


def test_exact_atoms_equal_multiplicative_recursion():
    for name in BUILTINS_UP_TO_4[:-1]:
        d = builtin_distribution(name)
        lat = enumerate_lattice(d.n_sources)
        for r in d.support:
            dec = M.pointwise_decomposition(d, r, lat)
            assert list(dec.exact_pi_plus) == \
                multiplicative_recursion(lat, list(dec.exact_i_plus))
            assert list(dec.exact_pi_minus) == \
                multiplicative_recursion(lat, list(dec.exact_i_minus))


def test_parts_from_collections_validates_coalitions():
    d = xor_distribution()
    r = Realization(t=0, s=(1, 1))
    assert M.i_sx_parts_from_collections(d, r, [[2], [1], [1, 2]]) == \
        pytest.approx((M.i_sx_plus(d, r, node(2, [1], [2])),
                       M.i_sx_minus(d, r, node(2, [1], [2]))), abs=1e-12)
    with pytest.raises(DistributionError, match="source index 0"):
        M.i_sx_parts_from_collections(d, r, [[0]])
    with pytest.raises(DistributionError, match="source index 3"):
        M.i_sx_parts_from_collections(d, r, [[1], [3]])
    with pytest.raises(DistributionError, match="nonempty"):
        M.i_sx_parts_from_collections(d, r, [[]])


# ---------------------------------------------------------------------------
# vectorized logs and averages against per-node references
# ---------------------------------------------------------------------------

def per_node_log2(p, float_log2=np.log2):
    if isinstance(p, Fraction):
        return L2(p.numerator) - L2(p.denominator)
    return float(float_log2(p))


def reference_pointwise(d, r, lat):
    """The six fields from one log per node (np.log2 of a float node mass,
    math.log2 of P(t)), as Python float tuples."""
    plus, minus, p_t = M.node_event_probabilities(d, r, lat)
    ip = [-per_node_log2(p) for p in plus]
    im = [per_node_log2(p_t, L2) - per_node_log2(p) for p in minus]
    pi = invert_array(lat, np.array([ip, im]).T)
    pip, pim = pi[:, 0].tolist(), pi[:, 1].tolist()
    return {"i_plus": tuple(ip), "i_minus": tuple(im),
            "i": tuple(a - b for a, b in zip(ip, im)), "pi_plus": tuple(pip),
            "pi_minus": tuple(pim), "pi": tuple(a - b for a, b in zip(pip, pim))}


FIELDS = ("i_plus", "i_minus", "i", "pi_plus", "pi_minus", "pi")


@pytest.mark.parametrize("name", ["float-n4"] + list(BUILTINS_UP_TO_4[:-1]))
def test_pointwise_and_average_equal_per_node_reference(name):
    d = (random_grid_distribution(4, np.random.default_rng(17), s_card=3)
         if name == "float-n4" else builtin_distribution(name))
    lat = enumerate_lattice(d.n_sources)
    decs = M.decompose_support(d, lat)
    for dec in decs:
        want = reference_pointwise(d, dec.realization, lat)
        for f in FIELDS:
            assert getattr(dec, f) == want[f], (name, dec.realization, f)
            assert all(type(x) is float for x in getattr(dec, f))
    avg = M.average_decomposition(d, lat, decompositions=decs)
    for f in FIELDS:
        want = tuple(math.fsum(float(dec.weight) * getattr(dec, f)[j] for dec in decs)
                     for j in range(len(lat)))
        assert getattr(avg, f[0].upper() + f[1:]) == want, f


def assert_fsum_columns(lanes):
    """``M.fsum_columns`` on the lanes (equal-length term lists) as columns
    equals ``math.fsum`` of each lane in bits, zero signs and NaNs included."""
    got = M.fsum_columns(np.array(lanes, dtype=float).T)
    want = np.array([math.fsum(lane) for lane in lanes])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


TINY, ULP1, BIG = 2.0 ** -1074, 2.0 ** -52, sys.float_info.max
FSUM_LANES = {
    1: [[0.1], [-0.0], [0.0], [TINY], [-3e-310], [2.0 ** 1000], [-1e308],
        [math.inf], [math.nan]],
    2: [
        # exact half-ulp ties, rounding to even either way
        [1.0, ULP1 / 2], [1.0 + ULP1, ULP1 / 2], [2.0 ** 53, 1.0],
        [2.0 ** 53 + 2, 1.0], [-1.0, -ULP1 / 2], [3.0, ULP1],
        # nonzero terms that cancel to 0
        [0.1, -0.1], [-TINY, TINY], [1e308, -1e308],
        # all-zero lanes
        [0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0],
        # just below a power of two, and exactly at one
        [1.0, -ULP1 / 4], [1.0, -ULP1 / 2], [2.0, -ULP1 / 2], [4.0, -ULP1],
        [-1.0, ULP1 / 4], [0.75, 0.25], [0.5, 0.5 - ULP1 / 4],
        # subnormal results
        [2.0 ** -1070, 2.0 ** -1073], [TINY, TINY], [2.0 ** -1022, -TINY],
        [1e-310, -1e-311], [2.0 ** -1021, -2.0 ** -1022 - TINY],
        # |x| >= 2^1000
        [2.0 ** 1000, 1.0], [2.0 ** 1000, -2.0 ** 1000], [-2.0 ** 1023, 2.0 ** 970],
        [BIG, 2.0 ** 969], [-BIG, 2.0 ** 969], [BIG, -BIG],
        # non-finite terms that fsum sums
        [math.inf, 1.0], [-math.inf, -math.inf], [math.nan, 1.0],
        [math.inf, math.nan], [1.0, -math.inf],
    ],
    5: [
        [1.0, ULP1 / 2, 0.0, -0.0, 0.0], [1e16, 1.0, 1e-16, 0.0, 0.0],
        [1.0, 1e100, 1.0, -1e100, 0.0], [0.1, 0.2, -0.3, 0.0, 0.0],
        [2.0 ** 1000, 2.0 ** 1000, -2.0 ** 1000, 1.0, 0.0],
        # a hair either side of the midpoint below a power of two
        [1.0, -ULP1 / 4, -2.0 ** -110, 0.0, 0.0],
        [1.0, -ULP1 / 4, 2.0 ** -110, 0.0, 0.0],
        [-0.0, -0.0, -0.0, -0.0, -0.0], [-0.0, 0.0, -0.0, -0.0, -0.0],
        [TINY, TINY, TINY, -TINY, 2.0 ** -1060],
    ],
    7: [
        # the float sum of the errors drops the bit that decides the rounding
        [1.5, 2.0 ** 13, 2.0 ** -41, 2.0 ** -53 - 2.0 ** -93 + 2.0 ** -95,
         -2.0 ** -41, -2.0 ** 13, 2.0 ** -93 - 2.0 ** -100],
    ],
}


@pytest.mark.parametrize("rows", sorted(FSUM_LANES))
def test_fsum_columns_pinned_cases(rows):
    assert_fsum_columns(FSUM_LANES[rows])
    for lane in FSUM_LANES[rows]:  # alone, so no other lane can mask it
        assert_fsum_columns([lane])


@pytest.mark.parametrize("lane, error", [
    ([math.inf, -math.inf], ValueError),
    ([1.0, math.inf, 2.0, -math.inf], ValueError),
    ([1e308, 1e308], OverflowError),
    ([1.7e308, 1.7e308, -1.7e308], OverflowError),
    # the float sum is BIG, but the exact one is past the overflow midpoint
    ([BIG, 2.0 ** 970 - 2.0 ** 917] + [2.0 ** 915] * 5, OverflowError),
])
def test_fsum_columns_raises_what_fsum_raises(lane, error):
    with pytest.raises(error) as want:
        math.fsum(lane)
    finite = [0.5] * len(lane)
    with pytest.raises(error) as got:
        M.fsum_columns(np.array([finite, lane, finite]).T)
    assert str(got.value) == str(want.value)


def test_fsum_columns_seeded_sweep():
    rng = np.random.default_rng(2005)
    for rows in (1, 2, 3, 8, 17, 64):
        scale = 10.0 ** rng.integers(-30, 30, size=(2000, rows))
        plain = rng.standard_normal((2000, rows)) * scale
        cancelling = rng.standard_normal((2000, rows))
        cancelling[:, -1] = -cancelling[:, :-1].sum(axis=1)
        ties = (rng.integers(-2 ** 53, 2 ** 53, size=(2000, rows))
                * 2.0 ** -rng.integers(40, 70, size=(2000, 1)))
        sparse = rng.standard_normal((2000, rows))
        sparse[rng.random((2000, rows)) < 0.7] = 0.0
        sparse[rng.random((2000, rows)) < 0.3] *= -1
        for lanes in (plain, cancelling, ties, sparse):
            assert_fsum_columns(lanes.tolist())
    # the weighted terms of real decompositions, and their averages
    for d in (random_grid_distribution(4, rng), xorduplicate_distribution(),
              parity_distribution(3)):
        decs = M.decompose_support(d)
        terms = np.stack([dec.block for dec in decs])
        terms *= np.array([float(dec.weight) for dec in decs])[:, None, None]
        assert_fsum_columns(terms.reshape(len(decs), -1).T.tolist())
        avg = M.average_decomposition(d, decompositions=decs)
        assert np.array_equal(avg.block.view(np.int64),
                              M.fsum_columns(terms).view(np.int64))


# ---------------------------------------------------------------------------
# structural invariants on random distributions
# ---------------------------------------------------------------------------

def test_decomposition_invariants_random():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        lat = enumerate_lattice(n)
        for _ in range(5):
            d = random_grid_distribution(n, rng)
            for r in d.support[:3]:
                dec = M.pointwise_decomposition(d, r, lat)
                for j, a in enumerate(lat.nodes):
                    assert dec.i[j] == pytest.approx(
                        dec.i_plus[j] - dec.i_minus[j], abs=1e-12)
                    assert dec.pi[j] == pytest.approx(
                        dec.pi_plus[j] - dec.pi_minus[j], abs=1e-12)
                    assert dec.pi_plus[j] >= -1e-9
                    assert dec.pi_minus[j] >= -1e-9
                    # downset re-summation through the pairwise order
                    resum = sum(dec.pi_plus[k] for k, b in enumerate(lat.nodes)
                                if leq(b, a))
                    assert resum == pytest.approx(dec.i_plus[j], abs=1e-9)


def test_average_sign_structure():
    rng = np.random.default_rng(3)
    d = random_grid_distribution(2, rng)
    avg = M.average_decomposition(d)
    assert all(v >= -1e-9 for v in avg.Pi_plus)
    assert all(v >= -1e-9 for v in avg.Pi_minus)
    for j in range(len(avg.Pi)):
        assert avg.Pi[j] == pytest.approx(avg.Pi_plus[j] - avg.Pi_minus[j],
                                          abs=1e-12)


def test_top_node_total_is_local_mi():
    rng = np.random.default_rng(5)
    d = random_grid_distribution(3, rng)
    lat = enumerate_lattice(3)
    for r in d.support[:4]:
        dec = M.pointwise_decomposition(d, r, lat)
        assert math.fsum(dec.pi) == pytest.approx(
            M.local_mi(d, r, [1, 2, 3]), abs=1e-9)


def test_workers_bit_identical():
    d = parity_distribution(3)
    one = M.decompose_support(d, workers=1)
    two = M.decompose_support(d, workers=2)
    for a, b in zip(one, two):
        assert a.pi == b.pi and a.i_plus == b.i_plus
    avg1 = M.average_decomposition(d, decompositions=one)
    avg2 = M.average_decomposition(d, decompositions=two)
    assert avg1 == avg2


def test_realization_not_in_support():
    d = xor_distribution()
    with pytest.raises(DistributionError, match="support"):
        M.pointwise_decomposition(d, Realization(t=1, s=(1, 1)))


_XOR_R = Realization(t=0, s=(1, 1))


@pytest.mark.parametrize("call", [
    lambda d, lat: M.pointwise_decomposition(d, _XOR_R, lat),
    lambda d, lat: M.decompose_support(d, lat),
    lambda d, lat: M.average_decomposition(d, lat),
    lambda d, lat: M.average_decomposition(
        d, lat, decompositions=M.decompose_support(d)),
    lambda d, lat: M.node_event_probabilities(d, _XOR_R, lat),
    lambda d, lat: M.form_equivalence_max_dev(d, lat),
    lambda d, lat: M.child_meet_mass_identity_max_dev(d, lat),
    lambda d, lat: M.atom_via_closed_form(d, _XOR_R, node(2, [1], [2]), "plus", lat),
    lambda d, lat: M.axiom_suite(d, lat),
], ids=["pointwise", "support", "average", "average_of_given",
        "event_probabilities", "form_equivalence", "child_meet", "closed_form",
        "axiom_suite"])
@pytest.mark.parametrize("n", [1, 3])
def test_lattice_over_another_source_count_rejected(call, n):
    d = xor_distribution()
    with pytest.raises(DistributionError,
                       match=rf"^lattice over {n} sources, distribution has 2$"):
        call(d, enumerate_lattice(n))
    call(d, enumerate_lattice(2))


# ---------------------------------------------------------------------------
# composite targets
# ---------------------------------------------------------------------------

def composite_target_distribution(rng):
    """Random n=2 distribution whose 4 target symbols factor as 2 x 2."""
    return random_grid_distribution(2, rng, t_card=4)


def test_target_chain_rule_random():
    rng = np.random.default_rng(23)
    group_of = [0, 0, 1, 1]  # symbol index -> first factor
    for _ in range(10):
        d = composite_target_distribution(rng)
        for r in d.support[:6]:
            for a in enumerate_lattice(2).nodes:
                whole, first, second = M.target_chain_terms(d, r, a, group_of)
                assert whole == pytest.approx(first + second, abs=1e-9)


def test_conditional_independent_second_factor():
    # t2 independent of everything given t1: second chain term vanishes
    rng = np.random.default_rng(4)
    base = random_grid_distribution(2, rng, t_card=2)
    rows = []
    for r, m in zip(base.support, base.masses):
        for t2 in (0, 1):
            rows.append((Realization(t=2 * r.t + t2, s=r.s), m * 0.5))
    d = JointDistribution.from_points(
        Alphabet("t", ("00", "01", "10", "11")), base.source_alphabets, rows,
        normalization_tolerance=1e-6)
    group_of = [0, 0, 1, 1]
    for r in d.support[:4]:
        for a in enumerate_lattice(2).nodes:
            assert M.conditional_i_sx(d, r, a, group_of) == \
                pytest.approx(0.0, abs=1e-9)


def test_duplicated_target_conditional_zero():
    # duplicating the target as (T, T): the second factor adds nothing
    base = xor_distribution()
    rows = [(r, m) for r, m in zip(base.support, base.masses)]
    d = JointDistribution.from_points(base.target_alphabet,
                                      base.source_alphabets, rows)
    group_of = [0, 1]  # t1 = t: conditioning pins the fine target
    for r in d.support:
        assert M.conditional_i_sx(d, r, node(2, [1, 2]), group_of) == \
            pytest.approx(0.0, abs=1e-12)


def test_group_of_must_cover_the_target_alphabet():
    d = xor_distribution()
    r, a = d.support[-1], enumerate_lattice(2).top
    for group_of in ([0], [0, 1, 2]):
        for call in (lambda: M.coarsen_target(d, group_of),
                     lambda: M.condition_on_target_group(d, group_of, 0),
                     lambda: M.conditional_i_sx(d, r, a, group_of),
                     lambda: M.target_chain_terms(d, r, a, group_of)):
            with pytest.raises(DistributionError, match=f"{len(group_of)} entries for 2"):
                call()


# ---------------------------------------------------------------------------
# self-shared information
# ---------------------------------------------------------------------------

def test_self_shared_xor():
    d = xor_distribution()
    assert M.self_shared(d, (1, 1), node(2, [1], [2])) == \
        pytest.approx(-L2(3 / 4), abs=1e-12)


def test_self_shared_full_cover():
    # a union event that exhausts the support carries zero self-information
    d = JointDistribution.from_points(
        bits("t"), [bits("s1"), bits("s2")],
        [(Realization(t=0, s=(0, 0)), Fraction(1, 2)),
         (Realization(t=1, s=(0, 1)), Fraction(1, 2))])
    assert M.self_shared(d, (0, 0), node(2, [1], [2])) == pytest.approx(0.0)
    # while the rnd pair at s=(0,0) excludes half the mass: 1 bit
    assert M.self_shared(rnd_distribution(), (0, 0), node(2, [1])) == \
        pytest.approx(1.0)


def test_self_shared_rejects_symbol_out_of_range():
    d, lat = xor_distribution(), enumerate_lattice(2)
    for s, node_ in (((1, -1), lat.bottom), ((1, 2), lat.bottom), ((1, 2), lat.top)):
        with pytest.raises(DistributionError, match=rf"source 2 index {s[1]} out of range"):
            M.self_shared(d, s, node_)


def test_self_shared_upper_bound_random():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = random_grid_distribution(2, rng)
        lat = enumerate_lattice(2)
        for r in d.support:
            for a in lat.nodes:
                bound = M.self_shared(d, r.s, a)
                assert bound >= -1e-12
                for u in range(2):
                    val = M.i_sx(d, Realization(t=u, s=r.s), a)
                    assert bound + 1e-9 >= val


def self_shared_against_scan(d):
    """(self_shared, -log2 P(E) by the support scan, on support?) at every
    source outcome and node; a union of zero mass must raise in both."""
    on_support = {r.s for r in d.support}
    for s in itertools.product(*(range(len(a)) for a in d.source_alphabets)):
        for a in enumerate_lattice(d.n_sources).nodes:
            p = event_probability(d, [CylinderEvent(
                sources=tuple((i - 1, s[i - 1]) for i in coll)) for coll in a.collections])
            if p == 0:
                with pytest.raises(BoundaryError):
                    M.self_shared(d, s, a)
                continue
            yield M.self_shared(d, s, a), -_log2(p), s in on_support


def test_self_shared_equals_support_scan_exact():
    seen = set()
    for name in BUILTINS_UP_TO_4:
        for got, want, on_support in self_shared_against_scan(builtin_distribution(name)):
            assert got == want, name
            seen.add(on_support)
    assert seen == {True, False}


def test_self_shared_equals_support_scan_float():
    # the kernel sums in another order than the scan's math.fsum: the
    # largest deviation measured over seeded grids like these is 8.9e-16
    for n, seed in ((2, 3), (3, 5), (2, 11)):
        rng = np.random.default_rng(seed)
        full = random_grid_distribution(n, rng, t_card=3, s_card=3)
        dropped = {r.s for r in rng.choice(full.support, size=3, replace=False)}
        kept = [(r, m) for r, m in zip(full.support, full.masses) if r.s not in dropped]
        total = math.fsum(m for _, m in kept)
        d = JointDistribution.from_points(
            full.target_alphabet, full.source_alphabets,
            [(r, m / total) for r, m in kept], normalization_tolerance=1e-9)
        cases = list(self_shared_against_scan(d))
        assert max(abs(got - want) for got, want, _ in cases) <= 1e-14
        assert {on for *_, on in cases} == {True, False}


@pytest.mark.parametrize("mass", [Fraction(1, 2), 0.5])
def test_self_shared_of_a_zero_mass_union_raises(mass):
    trits = Alphabet("s1", ("0", "1", "2"))
    d = JointDistribution.from_points(
        bits("t"), [trits, bits("s2")],
        [(Realization(t=0, s=(0, 0)), mass), (Realization(t=1, s=(1, 1)), mass)])
    assert M.self_shared(d, (2, 1), node(2, [1], [2])) == 1.0
    for a in (node(2, [1]), node(2, [1, 2])):
        with pytest.raises(BoundaryError):
            M.self_shared(d, (2, 1), a)


# ---------------------------------------------------------------------------
# entropy decomposition
# ---------------------------------------------------------------------------

def test_entropy_two_independent_bits():
    ent = M.entropy_decomposition(xor_distribution())
    lat = ent.lattice
    assert ent.I[lat.index(lat.top)] == pytest.approx(2.0, abs=1e-9)
    # mechanistic shared entropy: nonzero even though the bits are independent
    assert ent.Pi[lat.index(lat.bottom)] == pytest.approx(L2(4 / 3), abs=1e-9)


def test_entropy_correlated_pair():
    d = rnd_distribution()
    ent = M.entropy_decomposition(d)
    lat = ent.lattice
    assert ent.Pi[lat.index(lat.bottom)] == pytest.approx(1.0, abs=1e-9)
    assert ent.I[lat.index(lat.top)] == pytest.approx(1.0, abs=1e-9)


def test_entropy_xor_triple():
    # sources (S1, S2, S1 xor S2): joint entropy 2 bits
    base = xor_distribution()
    rows = [(Realization(t=0, s=(r.s[0], r.s[1], r.t)), m)
            for r, m in zip(base.support, base.masses)]
    d = JointDistribution.from_points(
        Alphabet("t", ("0",)), [bits("s1"), bits("s2"), bits("s3")], rows)
    ent = M.entropy_decomposition(d)
    lat = ent.lattice
    assert ent.I[lat.index(lat.top)] == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# axiom suite, duplicates, V-channel
# ---------------------------------------------------------------------------

def test_axiom_suite_xor_passes():
    rep = M.axiom_suite(xor_distribution())
    assert rep.passed and rep.checks_run > 0


def test_axiom_suite_random_passes():
    rng = np.random.default_rng(29)
    for n in (2, 3):
        rep = M.axiom_suite(random_grid_distribution(n, rng))
        assert rep.passed, rep.violations[:2]


def test_failed_checks_keep_formatted_details():
    # a negative tolerance fails every tolerance-bound check
    rep = M.axiom_suite(xor_distribution(), tol=-1.0)
    assert not rep.passed
    assert all(type(v.detail) is str for v in rep.violations)
    full = enumerate_lattice(2).node_by_name("{1,2}")
    first = next(v for v in rep.violations if v.kind == "full-coalition-mi")
    dec = M.pointwise_decomposition(xor_distribution(), first.realization)
    j = dec.lattice.index(full)
    mi = M.local_mi(xor_distribution(), first.realization, [1, 2])
    assert first.detail == f"{dec.i_plus[j] - dec.i_minus[j]} vs local mi {mi}"


def test_corrupted_table_reports_edge():
    lat = enumerate_lattice(2)
    values = {a: float(j) for j, a in enumerate(lat.nodes)}
    # force a decrease along the cover edge bottom -> {1}
    values[lat.bottom] = 10.0
    bad = M.check_lattice_monotonicity(lat, values)
    assert bad and bad[0][0] == "{1}{2}"


def test_nan_value_reports_its_edges():
    lat = enumerate_lattice(2)
    values = {lat.nodes[j]: float(k) for k, j in enumerate(lat.topological_order)}
    assert M.check_lattice_monotonicity(lat, values) == []
    values[lat.top] = math.nan
    bad = M.check_lattice_monotonicity(lat, values)
    assert bad and all(hi == "{1,2}" and math.isnan(d) for _, hi, d in bad)


def test_duplicate_invariance_xorduplicate():
    rep = M.duplicate_invariance_check(
        xorduplicate_distribution(), pair=(1, 3),
        expected_pi={"{1}{3}": 0.5849, "{2}": 0.5849, "{1,2}{2,3}": 0.415,
                     "{1}{2}": 0.0, "{2}{3}": 0.0, "{2}{1,3}": 0.0,
                     "{1}{2}{3}": -0.5849})
    assert rep.passed, rep.violations[:2]


def test_duplicate_invariance_flags_non_duplicate():
    rep = M.duplicate_invariance_check(xor_distribution(), pair=(1, 2))
    assert not rep.passed
    assert rep.violations[0].kind == "duplicate-pair"


@pytest.mark.parametrize("pair", [(1, 9), (-1, 3), (0, 2), (3, 3)])
def test_duplicate_invariance_rejects_bad_pair(pair):
    with pytest.raises(DistributionError, match=rf"pair \({pair[0]}, {pair[1]}\)"):
        M.duplicate_invariance_check(xorduplicate_distribution(), pair)


def test_v_channel_table():
    rep = M.v_channel_xor()
    assert len(rep.rows) == 12
    assert rep.n_incorrect == 4 and rep.n_correct == 8
    assert all(row.carries_shared for row in rep.rows if not row.correct)
    assert rep.avg_info_all > 0
    assert rep.avg_info_shared == pytest.approx(L2(2 / 3), abs=1e-12)
    # the shared-row average is exactly the averaged bottom atom
    avg = M.average_decomposition(xor_distribution())
    assert rep.avg_info_shared == pytest.approx(avg.pi_by_name("{1}{2}"),
                                                abs=1e-12)


def test_v_channel_shared_rows_are_the_bottom_node(monkeypatch):
    # "S1 = a or S2 = b" on the shared row is the union event of {1}{2} at r
    calls = count_kernel_calls(monkeypatch)
    d = xor_distribution()
    shared = [row for row in M.v_channel_xor().rows if row.carries_shared]
    assert calls == [8]  # every (t, a, b) in one call
    assert [row.realization for row in shared] == list(d.support)
    for row in shared:
        assert row.statement == row.realization.s
        assert row.info_bits == M.i_sx(d, row.realization, node(2, [1], [2]))
