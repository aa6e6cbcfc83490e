import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_points, random_grid_distribution
from sxpid.dist import Alphabet
from sxpid.lattice import (Antichain, BoundaryError, LatticeError, NODE_COUNTS,
                           RedundancyLattice,
                           closed_form_atom, closed_form_plan, coalition_up_sets,
                           enumerate_lattice, invert_array, leq, log_parts,
                           meet, moebius_invert, node_passes,
                           normalize_antichain, parse_node_name, run_passes)
from sxpid.report import display_order


def test_node_counts_small():
    for n in (1, 2, 3, 4):
        assert len(enumerate_lattice(n)) == NODE_COUNTS[n]


def test_source_count_limits():
    with pytest.raises(LatticeError):
        enumerate_lattice(0)
    with pytest.raises(LatticeError):
        enumerate_lattice(6)


def test_antichain_canonical_form():
    a = Antichain.of(3, [[2, 3], [1]])
    b = Antichain.of(3, [[1], [3, 2]])
    assert a == b and hash(a) == hash(b)
    assert a.name == "{1}{2,3}"
    assert a.collections == ((1,), (2, 3))


def test_antichain_rejects_comparable():
    with pytest.raises(LatticeError):
        Antichain.of(3, [[1], [1, 2]])
    with pytest.raises(LatticeError):
        Antichain.of(3, [])
    with pytest.raises(LatticeError):
        Antichain.of(3, [[4]])
    with pytest.raises(LatticeError):
        Antichain.of(3, [[]])


def test_normalize_antichain_examples():
    assert normalize_antichain(3, [[1], [1, 2], [3]]) == Antichain.of(3, [[1], [3]])
    assert normalize_antichain(2, [[1, 2]]) == Antichain.of(2, [[1, 2]])
    assert normalize_antichain(3, [[1, 2], [2, 3], [1, 2, 3]]) == \
        Antichain.of(3, [[1, 2], [2, 3]])
    # duplicates collapse
    assert normalize_antichain(2, [[1], [1]]) == Antichain.of(2, [[1]])


def test_leq_examples():
    bot = Antichain.of(2, [[1], [2]])
    top = Antichain.of(2, [[1, 2]])
    assert leq(bot, top)
    assert not leq(top, bot)
    assert leq(Antichain.of(3, [[1]]), Antichain.of(3, [[1, 2], [1, 3]]))
    with pytest.raises(LatticeError):
        leq(bot, Antichain.of(3, [[1]]))


def test_partial_order_properties():
    # reflexive, antisymmetric, transitive; via the vectorized matrix for
    # n=4 and cross-checked against the pairwise definition for n<=3
    for n in (2, 3):
        lat = enumerate_lattice(n)
        nodes = lat.nodes
        L = lat.leq_matrix
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                assert bool(L[i, j]) == leq(a, b)
    lat = enumerate_lattice(4)
    L = lat.leq_matrix
    assert L.diagonal().all()
    assert not (L & L.T & ~np.eye(len(lat), dtype=bool)).any()
    reach = (L.astype(np.uint8) @ L.astype(np.uint8)) > 0
    assert not (reach & ~L).any()


def test_meet_examples():
    assert meet(Antichain.of(2, [[1]]), Antichain.of(2, [[2]])) == \
        Antichain.of(2, [[1], [2]])
    assert meet(Antichain.of(3, [[1, 2]]), Antichain.of(3, [[1, 3]])) == \
        Antichain.of(3, [[1, 2], [1, 3]])
    assert meet(Antichain.of(2, [[1]]), Antichain.of(2, [[1], [2]])) == \
        Antichain.of(2, [[1], [2]])


def test_meet_is_greatest_lower_bound():
    lat = enumerate_lattice(3)
    for a in lat.nodes:
        for b in lat.nodes:
            m = meet(a, b)
            assert leq(m, a) and leq(m, b)
            for c in lat.nodes:
                if leq(c, a) and leq(c, b):
                    assert leq(c, m)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_key_meets_match_meet_all_pairs(n):
    lat = enumerate_lattice(n)
    for i, a in enumerate(lat.nodes):
        for k in range(i, len(lat)):
            assert lat.subset_meets(i, [k]) == [i, lat.index(meet(a, lat.nodes[k]))]


def test_key_meets_match_meet_sampled_n5():
    lat = enumerate_lattice(5)
    rng = np.random.default_rng(2008)
    for i, k, m in rng.integers(0, len(lat), size=(2000, 3)).tolist():
        a, b, c = (lat.nodes[x] for x in (i, k, m))
        want = [a, meet(a, b), meet(a, c), meet(meet(a, b), c)]
        assert lat.subset_meets(i, [k, m]) == [lat.index(x) for x in want]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_nodes_strictly_increasing_in_sort_key(n):
    # the closed form breaks child ties by node index in place of sort_key
    keys = [a.sort_key() for a in enumerate_lattice(n).nodes]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def _python_meet_index(lat, j, members):
    """Oracle: meet of node j and the member nodes through ``meet``."""
    return lat.index(reduce(meet, [lat.nodes[c] for c in members], lat.nodes[j]))


def _reference_plan(lat, j, p_j, child_probs):
    kids = lat.children_table[j]
    order = sorted(zip(child_probs, [lat.nodes[c].sort_key() for c in kids], kids))
    p1, _, g1 = order[0]
    others = [c for _, _, c in order[1:]]
    terms = []
    for bits in range(1 << len(others)):
        members = [others[i] for i in range(len(others)) if bits >> i & 1]
        terms.append(((-1.0) ** len(members), _python_meet_index(lat, j, members)))
    return g1, p1 - p_j, terms


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_plan_matches_python_meets(n):
    lat = enumerate_lattice(n)
    rng = np.random.default_rng(300 + n)
    for j, kids in enumerate(lat.children_table):
        if not kids:
            continue
        # all tied, few distinct values (frequent ties), and distinct values
        for probs in ([Fraction(1, 2)] * len(kids),
                      rng.integers(1, 3, len(kids)).tolist(),
                      rng.uniform(size=len(kids)).tolist()):
            got = closed_form_plan(lat, j, Fraction(1, 4), probs)
            assert got == _reference_plan(lat, j, Fraction(1, 4), probs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_child_meet_plan_matches_python_meets(n):
    from sxpid.measures import _child_meet_plan

    lat = enumerate_lattice(n)
    want = []
    for j, kids in enumerate(lat.children_table):
        for g in kids:
            others = [c for c in kids if c != g]
            for bits in range(1 << len(others)):
                members = [others[i] for i in range(len(others)) if bits >> i & 1]
                want.append((j, g, _python_meet_index(lat, j, members),
                             _python_meet_index(lat, j, members + [g])))
    assert _child_meet_plan(lat) == want


def test_children_structure():
    lat2 = enumerate_lattice(2)
    assert [a.name for a in lat2.children(lat2.top)] == ["{1}", "{2}"]
    assert lat2.children(lat2.bottom) == ()
    lat3 = enumerate_lattice(3)
    assert [a.name for a in lat3.children(Antichain.of(3, [[1]]))] == ["{1}{2,3}"]
    kids = {a.name for a in lat3.children(lat3.top)}
    assert kids == {"{1,2}", "{1,3}", "{2,3}"}
    # every cover edge is a strict relation with nothing in between
    for c, p in lat3.cover_edges():
        leq = lat3.leq_matrix
        assert leq[c, p] and c != p
        between = [k for k in range(len(lat3))
                   if k not in (c, p) and leq[c, k] and leq[k, p]]
        assert between == []


def maximal_strict_lower(lat):
    """Oracle: children by maximality filtering of the order relation."""
    L = lat.leq_matrix
    table = []
    for j in range(len(lat)):
        low = lat.strict_lower(j)
        maximal = L[np.ix_(low, low)].sum(axis=1) == 1  # comparable to itself only
        table.append(tuple(int(i) for i in low[maximal]))
    return table


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_children_table_equals_maximality_filter(n):
    lat = enumerate_lattice(n)
    assert lat.children_table == maximal_strict_lower(lat)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_display_order_is_downset_size_then_canonical(n):
    # the definition reports had before they read the topological order
    lat = enumerate_lattice(n)
    sizes = lat.leq_matrix.sum(axis=0)
    want = sorted(range(len(lat)),
                  key=lambda j: (int(sizes[j]), lat.nodes[j].sort_key()))
    assert display_order(lat) == want


def test_topological_order_bottom_up():
    lat = enumerate_lattice(3)
    order = list(lat.topological_order)
    assert lat.nodes[order[0]] == lat.bottom
    assert lat.nodes[order[-1]] == lat.top
    seen = set()
    for j in order:
        assert all(int(k) in seen for k in lat.strict_lower(int(j)))
        seen.add(j)


def _dfs_antichains(n):
    """Oracle: every antichain by a DFS over coalition masks, each emitted
    once as an increasing mask sequence, in canonical order."""
    out = []

    def extend(chosen, start):
        if chosen:
            out.append(Antichain(n, tuple(chosen)))
        for m in range(start + 1, 1 << n):
            if all(m & c != c and m & c != m for c in chosen):
                chosen.append(m)
                extend(chosen, m)
                chosen.pop()

    extend([], 0)
    return sorted(out, key=Antichain.sort_key)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_key_enumeration_matches_antichain_dfs(n):
    lat = enumerate_lattice(n)
    want = _dfs_antichains(n)
    assert lat.nodes == tuple(want)
    assert [a.name for a in lat.nodes] == [a.name for a in want]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_up_sets_match_coalition_up_sets(n):
    lat = enumerate_lattice(n)
    want = coalition_up_sets(n, [a.masks for a in lat.nodes])
    assert lat.up_sets.dtype == want.dtype and np.array_equal(lat.up_sets, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_strict_lower_matches_leq_matrix(n):
    lat = enumerate_lattice(n)
    columns = np.ascontiguousarray(lat.leq_matrix.T)
    for j in range(len(lat)):
        want = np.flatnonzero(columns[j])
        assert np.array_equal(lat.strict_lower(j), want[want != j])


def _run_production_paths(with_moebius: bool = True) -> None:
    """Decompose, average, report and tabulate at n = 5; run the axiom
    suite, the closed form, the optimizer and the closed-form gradient (and
    ``moebius_invert`` if asked) at n = 2 and 3, on fresh lattices."""
    from sxpid import grad, lattice, measures, report
    from sxpid.dist import JointDistribution

    rng = np.random.default_rng(14)
    points = grid_points(2, (2,) * 5)
    chosen = rng.choice(len(points), size=8, replace=False)
    masses = rng.uniform(0.05, 1.0, size=8)
    bit = lambda name: Alphabet(name, ("0", "1"))
    d5 = JointDistribution.from_points(
        bit("t"), [bit(f"s{i + 1}") for i in range(5)],
        [(points[k], float(m)) for k, m in zip(chosen, masses / masses.sum())],
        normalization_tolerance=1e-6)
    decs = measures.decompose_support(d5)
    avg = measures.average_decomposition(d5, decompositions=decs)
    report.render_json(report.decomposition_report(d5, avg, decs))
    report.render_average_table(avg)

    for n in (2, 3):
        d = random_grid_distribution(n, rng)
        lat = enumerate_lattice(n)
        r = d.support[0]
        assert measures.axiom_suite(d, lat).passed
        measures.atom_via_closed_form(d, r, lat.top, "minus", lat)
        if with_moebius:
            lattice.moebius_invert(lat, {a: float(i) for i, a in enumerate(lat.nodes)},
                                   verify_tol=1e-9)
        point = grad.interior_mix(d, 0.1)
        grad.optimize_atom(point, lat.top, steps=2)
        grad.grad_atom_via_closed_form(point, r, lat.top)


def test_no_production_path_reads_leq_matrix(monkeypatch):
    from sxpid import lattice

    def forbidden(self):
        raise AssertionError("leq_matrix read on a production path")

    monkeypatch.setattr(lattice, "_LATTICES", {})
    monkeypatch.setattr(lattice.RedundancyLattice, "leq_matrix", property(forbidden))
    _run_production_paths()


def test_no_production_path_reads_strict_lower(monkeypatch):
    # moebius_invert's downset re-summation is the one documented reader
    from sxpid import lattice

    def forbidden(self, j):
        raise AssertionError("strict_lower read on a production path")

    monkeypatch.setattr(lattice, "_LATTICES", {})
    monkeypatch.setattr(lattice.RedundancyLattice, "strict_lower", forbidden)
    _run_production_paths(with_moebius=False)


# ---------------------------------------------------------------------------
# Moebius inversion
# ---------------------------------------------------------------------------

def test_moebius_constant_values():
    lat = enumerate_lattice(2)
    pi = moebius_invert(lat, {a: 3.25 for a in lat.nodes})
    for a, v in pi.items():
        assert v == pytest.approx(3.25 if a == lat.bottom else 0.0, abs=1e-12)


def test_moebius_xor_informative_values():
    lat = enumerate_lattice(2)
    vals = {lat.bottom: math.log2(8 / 6), Antichain.of(2, [[1]]): 1.0,
            Antichain.of(2, [[2]]): 1.0, lat.top: 2.0}
    pi = moebius_invert(lat, vals)
    assert pi[lat.bottom] == pytest.approx(0.4150, abs=1e-4)
    assert pi[Antichain.of(2, [[1]])] == pytest.approx(0.5850, abs=1e-4)
    assert pi[lat.top] == pytest.approx(0.4150, abs=1e-4)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.data())
def test_moebius_resummation_oracle(n, data):
    # oracle: direct downset summation through the pairwise order predicate
    lat = enumerate_lattice(n)
    values = {a: data.draw(st.floats(-5, 5, allow_nan=False, width=32))
              for a in lat.nodes}
    pi = moebius_invert(lat, values)
    for a in lat.nodes:
        resum = sum(pi[b] for b in lat.nodes if leq(b, a))
        assert resum == pytest.approx(values[a], abs=1e-9)


def _downset_recursion(lat, v):
    """Oracle: pi[j] = v[j] - sum of pi over the strict downset, bottom-up."""
    pi = np.empty(len(v))
    for j in lat.topological_order:
        pi[j] = v[j] - pi[lat.strict_lower(int(j))].sum()
    return pi


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_invert_array_matches_downset_recursion(n):
    lat = enumerate_lattice(n)
    rng = np.random.default_rng(n)
    v = rng.uniform(-5, 5, len(lat))
    assert np.max(np.abs(invert_array(lat, v) - _downset_recursion(lat, v))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_invert_array_matrix_is_columnwise_bit_for_bit(n):
    # in either memory order, since callers pass transposes
    lat = enumerate_lattice(n)
    rng = np.random.default_rng(10 + n)
    V = rng.standard_normal((len(lat), 7))
    for M in (V, np.asfortranarray(V)):
        got = invert_array(lat, M)
        assert got.shape == V.shape
        for c in range(V.shape[1]):
            assert got[:, c].tobytes() == invert_array(lat, V[:, c]).tobytes()
    # a complex pair (evaluate's i+ + 1j i-) stays complex, and each part
    # has the bits of its own real inversion, special lanes included
    for c, x in enumerate([np.nan, np.inf, -np.inf, -0.0]):
        V[rng.choice(len(lat), 1 + len(lat) // 3, replace=False), c] = x
    V[:, 5] = -0.0
    pairs = np.empty((len(lat), 6), dtype=complex)
    pairs.real, pairs.imag = V[:, :6], V[:, 1:]
    with np.errstate(invalid="ignore"):  # inf - inf
        got = invert_array(lat, pairs)
        assert got.dtype == complex
        assert got.real.tobytes() == invert_array(lat, V[:, :6]).tobytes()
        assert got.imag.tobytes() == invert_array(lat, V[:, 1:]).tobytes()


def _check_node_passes(lat, j, vectors):
    rows, passes, signs = node_passes(lat, j)
    kids = lat.children_table[j]
    # the rows are the meets of subsets B of the children, where mu is
    # (-1)^|B|; each row but j is the lower of one pair
    meets = lat.subset_meets(j, kids)
    assert rows[0] == j and len(rows) == 2 ** len(kids)
    assert set(rows.tolist()) == set(meets)
    at = {u: i for i, u in enumerate(rows.tolist())}
    assert signs[[at[m] for m in meets]].tolist() == [
        (-1.0) ** bin(b).count("1") for b in range(len(meets))]
    lowers = np.concatenate([[0]] + [lower for _, lower in passes])
    assert sorted(lowers.tolist()) == list(range(len(rows)))
    # row j only: the other rows are left where the pairs j reads leave them
    for v, full in vectors:
        got = run_passes(v[rows], passes)[0]
        assert got.tobytes() == full[j].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_node_passes_give_the_bits_of_the_whole_inversion(n):
    lat = enumerate_lattice(n)
    rng = np.random.default_rng(30 + n)
    vectors = [rng.uniform(-5, 5, len(lat)),
               rng.standard_normal((len(lat), 2 << n))]
    vectors = [(v, invert_array(lat, v)) for v in vectors]
    for j in range(len(lat)):
        _check_node_passes(lat, j, vectors)


def test_node_passes_give_the_bits_of_the_whole_inversion_n5():
    lat = enumerate_lattice(5)
    rng = np.random.default_rng(35)
    vectors = [rng.uniform(-5, 5, len(lat)), rng.standard_normal((len(lat), 64))]
    vectors = [(v, invert_array(lat, v)) for v in vectors]
    sample = rng.choice(len(lat), size=12, replace=False).tolist()
    most = max(range(len(lat)), key=lambda j: len(lat.children_table[j]))
    for j in sample + [lat.index(lat.bottom), lat.index(lat.top), most]:
        _check_node_passes(lat, j, vectors)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_invert_array_of_identity_is_moebius_function(n):
    # mu(k, j) sits at [j, k]: integers, 1 on the diagonal, 0 unless k <= j
    lat = enumerate_lattice(n)
    mu = invert_array(lat, np.eye(len(lat)))
    assert np.array_equal(mu, np.rint(mu))
    assert np.all(np.diag(mu) == 1)
    assert np.all(mu[~lat.leq_matrix.T] == 0)
    # mu inverts the zeta matrix L (L[k, j] = k <= j); mu[j, k] = mu(k, j)
    assert np.array_equal(mu @ lat.leq_matrix.T.astype(float), np.eye(len(lat)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_node_signs_are_row_of_inverted_identity(n):
    # the plan's rows are the support of mu(., j), and its signs mu there
    lat = enumerate_lattice(n)
    mu = invert_array(lat, np.eye(len(lat)))
    bottom = lat.index(lat.bottom)
    for j in range(len(lat)):
        rows, _, signs = node_passes(lat, j)
        assert sorted(rows.tolist()) == np.flatnonzero(mu[j]).tolist()
        assert np.array_equal(signs, mu[j, rows])
        assert signs.sum() == (1.0 if j == bottom else 0.0)


def test_node_signs_are_adjoint_of_invert_array_n5():
    lat = enumerate_lattice(5)
    v = np.random.default_rng(5).uniform(-5, 5, len(lat))
    pi = invert_array(lat, v)
    for j in (lat.index(lat.bottom), 1000, 4321, lat.index(lat.top)):
        rows, _, signs = node_passes(lat, j)
        assert abs(signs @ v[rows] - pi[j]) <= 1e-12
        assert signs.sum() == (1.0 if j == lat.index(lat.bottom) else 0.0)


def test_moebius_missing_node():
    lat = enumerate_lattice(2)
    with pytest.raises(LatticeError, match="missing"):
        moebius_invert(lat, {lat.bottom: 1.0})


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_closed_form_single_child():
    # one child: the atom is log2(P(child)/P(node))
    lat = enumerate_lattice(3)
    alpha = Antichain.of(3, [[1]])
    probs = {alpha: Fraction(1, 4), Antichain.of(3, [[1], [2, 3]]): Fraction(1, 2)}
    got = closed_form_atom(lat, alpha, lambda a: probs[a])
    assert got == pytest.approx(1.0, abs=1e-12)


def test_closed_form_childless_node():
    lat = enumerate_lattice(2)
    got = closed_form_atom(lat, lat.bottom, lambda a: Fraction(3, 4))
    assert got == pytest.approx(math.log2(4 / 3), abs=1e-12)


def test_closed_form_boundary_error():
    lat = enumerate_lattice(2)
    with pytest.raises(BoundaryError):
        closed_form_atom(lat, lat.top, lambda a: 0.0)


def test_closed_form_matches_recursion_random():
    from sxpid.measures import atom_via_closed_form, pointwise_decomposition

    rng = np.random.default_rng(7)
    for n in (2, 3):
        lat = enumerate_lattice(n)
        for _ in range(10):
            d = random_grid_distribution(n, rng)
            for r in d.support[:4]:
                dec = pointwise_decomposition(d, r, lat)
                for j, a in enumerate(lat.nodes):
                    assert atom_via_closed_form(d, r, a, "plus", lat) == \
                        pytest.approx(dec.pi_plus[j], abs=1e-9)
                    assert atom_via_closed_form(d, r, a, "minus", lat) == \
                        pytest.approx(dec.pi_minus[j], abs=1e-9)


def test_closed_form_tie_invariant():
    # XOR at (1,1,0): the top node's children tie at probability 1/2
    from sxpid.builtins import xor_distribution
    from sxpid.dist import Realization
    from sxpid.measures import atom_via_closed_form

    d = xor_distribution()
    r = Realization(t=0, s=(1, 1))
    lat = enumerate_lattice(2)
    assert atom_via_closed_form(d, r, lat.top, "plus") == \
        pytest.approx(math.log2(4 / 3), abs=1e-12)


# ---------------------------------------------------------------------------
# node names
# ---------------------------------------------------------------------------

def test_parse_node_name_grammar():
    assert parse_node_name(3, "{1,2}{3}") == Antichain.of(3, [[1, 2], [3]])
    assert parse_node_name(3, " { 3 } { 2 , 1 } ") == Antichain.of(3, [[3], [1, 2]])
    for bad in ("", "{}", "{1}{", "1,2", "{1;2}", "{1}{1,2}"):
        with pytest.raises(LatticeError):
            parse_node_name(3, bad)


def test_node_by_name_lookup():
    lat = enumerate_lattice(2)
    assert lat.node_by_name("{2} {1}") == lat.bottom
    with pytest.raises(LatticeError):
        lat.node_by_name("{4}")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_names_equal_per_collection_formula(n):
    lat = RedundancyLattice(n)
    assert "names" not in vars(lat)  # building names no node
    assert not any("name" in vars(a) for a in lat.nodes)
    want = tuple("".join("{" + ",".join(map(str, c)) + "}" for c in a.collections)
                 for a in lat.nodes)
    assert lat.names == want
    assert tuple(a.name for a in lat.nodes) == want


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.data())
def test_normalize_properties(n, data):
    masks = data.draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=5))
    colls = [[i + 1 for i in range(n) if m >> i & 1] for m in masks]
    a = normalize_antichain(n, colls)
    # idempotent and pairwise incomparable
    assert normalize_antichain(n, a.collections) == a
    for x in a.masks:
        for y in a.masks:
            assert x == y or (x & y != x and x & y != y)
    # appending a superset of an existing collection changes nothing
    extra = list(a.collections[0]) + [data.draw(st.integers(1, n))]
    assert normalize_antichain(n, list(a.collections) + [extra]) == a


def test_log_parts_one_policy():
    # float node masses take np.log2 of the array, P(t) math.log2; exact
    # numerators become reduced Fractions, each logged per part
    sums, p_t = np.array([[[0.7, 0.3], [0.9, 0.35]]]), np.array([0.4])
    plus, minus = log_parts(sums, p_t)
    assert plus.tolist() == (-np.log2(sums[..., 0])).tolist()
    assert minus.tolist() == (math.log2(0.4) - np.log2(sums[..., 1])).tolist()
    # 6/12, 2/12, 9/12, 3/12 and P(t) = 4/12 reduce to 1/2, 1/6, 3/4, 1/4, 1/3
    plus, minus = log_parts(np.array([[[6, 2], [9, 3]]]), np.array([4]), den=12)
    lg = lambda a, b: math.log2(a) - math.log2(b)  # noqa: E731
    assert plus.tolist() == [[-lg(1, 2), -lg(3, 4)]]
    assert minus.tolist() == [[lg(1, 3) - lg(1, 6), lg(1, 3) - lg(1, 4)]]
    assert np.isnan(log_parts(np.array([[[np.nan, 0.3]]]), p_t)[0]).all()
    for bad, den in ((np.array([[[0.5, 0.0]]]), None),
                     (np.array([[[0.5, -0.1]]]), None), (np.array([[[6, 0]]]), 12)):
        with pytest.raises(BoundaryError, match="nonpositive"):
            log_parts(bad, np.array([4]) if den else p_t, den)
