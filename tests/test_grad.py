import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sxpid.builtins import xor_distribution
from sxpid.dist import Realization, event_plan, plan_event_masses
from sxpid.lattice import (Antichain, BoundaryError, enumerate_lattice, evaluate,
                          invert_array)
from sxpid import grad as G


def soft_xor_point(lam=0.2):
    return G.interior_mix(xor_distribution(), lam)


def rand_point(n, rng, t_card=2):
    return G.random_interior((t_card,) + (2,) * n, rng)


def a_of(n, *colls):
    return Antichain.of(n, colls)


def test_simplex_point_validation():
    with pytest.raises(BoundaryError):
        G.interior_mix(xor_distribution(), 0.0)
    p = soft_xor_point()
    assert p.p.min() >= p.epsilon
    assert p.p.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        G.SimplexPoint((2, 2), np.full(8, 0.125))
    p = np.full(8, 0.125)
    p[5] = np.nan
    with pytest.raises(ValueError, match="coordinate 5 is NaN"):
        G.SimplexPoint((2, 2, 2), p)


def test_random_interior_bounds():
    rng = np.random.default_rng(0)
    pt = G.random_interior((2, 2, 2), rng)
    assert pt.p.min() > 0.01 and pt.p.sum() == pytest.approx(1.0)


def test_grad_locality_and_symmetry():
    pt = soft_xor_point()
    r = Realization(t=0, s=(1, 1))
    rec = G.grad_i_sx_parts(pt, r, a_of(2, [1], [2]), which="plus")
    cells = rec.by_cell()
    # i+ depends only on the union event: zero partials outside it
    for cell, v in cells.items():
        in_event = cell[1] == 1 or cell[2] == 1
        if in_event:
            assert v != 0
        else:
            assert v == 0
    # symmetric cells under swapping the two sources get equal partials
    for (t, s1, s2), v in cells.items():
        assert v == pytest.approx(cells[(t, s2, s1)], abs=1e-15)


def test_grad_i_matches_fd():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        lat = enumerate_lattice(n)
        for _ in range(5):
            pt = rand_point(n, rng)
            r = Realization(t=0, s=(0,) * n)
            for alpha in (lat.bottom, lat.top, lat.nodes[3]):
                for which in ("plus", "minus", "net"):
                    rec = G.grad_i_sx_parts(pt, r, alpha, which)
                    fd = G.central_difference(
                        lambda p: G.pointwise_value(p, pt.shape, r, alpha,
                                                    "i", which), pt.p)
                    assert G.fd_mismatch(rec.partials, fd) <= 1.0


def test_grad_atom_matches_fd_and_dual_path():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        lat = enumerate_lattice(n)
        for _ in range(4):
            pt = rand_point(n, rng)
            r = Realization(t=1, s=(0,) * n)
            for alpha in (lat.bottom, lat.nodes[2], lat.top):
                for which in ("plus", "minus", "net"):
                    rec = G.grad_atom_via_closed_form(pt, r, alpha, which)
                    rrec = G.grad_atom(pt, r, alpha, which)
                    assert np.max(np.abs(rec.partials - rrec.partials)) <= 1e-9
                    fd = G.central_difference(
                        lambda p: G.pointwise_value(p, pt.shape, r, alpha,
                                                    "pi", which), pt.p)
                    assert G.fd_mismatch(rec.partials, fd) <= 1.0


def test_grad_atom_bottom_equals_grad_i():
    rng = np.random.default_rng(3)
    pt = rand_point(2, rng)
    r = Realization(t=0, s=(1, 0))
    lat = enumerate_lattice(2)
    a = G.grad_atom(pt, r, lat.bottom, "plus").partials
    b = G.grad_i_sx_parts(pt, r, lat.bottom, "plus").partials
    assert np.array_equal(a, b)


def test_tie_auto_equals_recursion_without_warning():
    # the symmetric soft-XOR point ties the top node's children exactly; the
    # agreement-basis route needs no child order, the closed form does
    pt = soft_xor_point()
    r = Realization(t=0, s=(1, 1))
    lat = enumerate_lattice(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = G.grad_atom(pt, r, lat.top, "plus")
    fd = G.central_difference(
        lambda p: G.pointwise_value(p, pt.shape, r, lat.top, "pi", "plus"), pt.p)
    assert G.fd_mismatch(rec.partials, fd) <= 1.0
    with pytest.raises(ValueError, match="tied"):
        G.grad_atom_via_closed_form(pt, r, lat.top, "plus")


def test_grad_average_matches_fd():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        lat = enumerate_lattice(n)
        pt = rand_point(n, rng)
        for alpha in (lat.bottom, lat.top):
            for which in ("plus", "net"):
                rec = G.grad_average(pt, alpha, which)
                fd = G.central_difference(
                    lambda p: G.average_atom_value(p, pt.shape, alpha, which),
                    pt.p)
                assert G.fd_mismatch(rec.partials, fd) <= 1.0


def test_grad_average_symmetry():
    # the mixed XOR grid is invariant under swapping the sources
    pt = soft_xor_point()
    lat = enumerate_lattice(2)
    rec = G.grad_average(pt, lat.top, "net")
    g = rec.partials.reshape(pt.shape)
    assert np.allclose(g, np.swapaxes(g, 1, 2), atol=1e-12)


# ---------------------------------------------------------------------------
# per-realization oracle: the kernel's N x K indicator rows, inverted
# ---------------------------------------------------------------------------

def _reference(p, shape, k):
    """Values and gradient rows at grid cell k, one realization at a time:
    i-parts and their N x K gradient rows, and both inverted."""
    lat = enumerate_lattice(len(shape) - 1)
    points = np.indices(shape).reshape(len(shape), -1).T
    r = Realization(t=int(points[k, 0]), s=tuple(points[k, 1:].tolist()))
    plan = event_plan(points, points[[k]])
    (m,), (p_t,) = plan_event_masses(lat.up_sets, plan, p)
    inside = lat.up_sets[:, plan.agree[0]]
    p_t = float(p_t)
    target = points[:, 0] == r.t
    i = np.stack([-np.log2(m[:, 0]), math.log2(p_t) - np.log2(m[:, 1])], axis=1)
    g_plus = -(inside / (m[:, :1] * math.log(2.0)))
    g_minus = (target / (p_t * math.log(2.0))
               - (inside * target) / (m[:, 1:] * math.log(2.0)))
    out = {}
    for q, parts, gp, gm in (("i", i, g_plus, g_minus),
                             ("pi", invert_array(lat, i), invert_array(lat, g_plus),
                              invert_array(lat, g_minus))):
        out[q, "plus"] = (parts[:, 0], gp)
        out[q, "minus"] = (parts[:, 1], gm)
        out[q, "net"] = (parts[:, 0] - parts[:, 1], gp - gm)
    return r, out


def _reference_average(p, refs, j, which):
    """Averaged atom and its gradient from ``_reference`` at every cell k
    of ``refs``, summed in cell order."""
    total, g = 0.0, np.zeros_like(p)
    for k, (_, ref) in refs.items():
        v, rows = ref["pi", which]
        total += p[k] * v[j]
        g[k] += v[j]
        g += p[k] * rows[j]
    return total, g


def _reference_cases():
    rng = np.random.default_rng(12)
    for n, t_card in ((1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        pt = rand_point(n, rng, t_card)
        nodes = range(len(enumerate_lattice(n)))
        yield pt, nodes if n < 4 else list(nodes)[::15] + [165], None
    # n = 5 at 4 cells: the node with the most children (10, so 1,024 rows
    # in its plan), the top and {1,2}{3,4}
    lat = enumerate_lattice(5)
    most = max(range(len(lat)), key=lambda j: len(lat.children_table[j]))
    nodes = [most, lat.index(lat.top), lat.index(lat.node_by_name("{1,2}{3,4}"))]
    for t_card in (2, 3):
        pt = rand_point(5, rng, t_card)
        support = np.zeros(pt.p.size, dtype=bool)
        support[rng.choice(pt.p.size, 4, replace=False)] = True
        yield pt, nodes, support
    # mechanism-fixed joint of xor: half the grid cells have zero mass
    d = xor_distribution()
    mech, _ = G.mechanism_from_distribution(d)
    joint = (mech.reshape(2, 4) * np.array([0.4, 0.25, 0.2, 0.15])).reshape(-1)
    yield G.SimplexPoint((2, 2, 2), joint, 0.0), range(4), mech > 0


def test_values_equal_per_realization_reference():
    for pt, nodes, support in _reference_cases():
        lat = enumerate_lattice(pt.n_sources)
        cells = range(pt.p.size) if support is None else np.flatnonzero(support)
        refs = {k: _reference(pt.p, pt.shape, k) for k in cells}
        for j in nodes:
            alpha = lat.nodes[j]
            for which in ("plus", "minus", "net"):
                want = _reference_average(pt.p, refs, j, which)[0]
                assert G.average_atom_value(pt.p, pt.shape, alpha, which,
                                            support) == want
                for r, ref in refs.values():
                    for q in ("i", "pi"):
                        assert G.pointwise_value(pt.p, pt.shape, r, alpha, q,
                                                 which) == ref[q, which][0][j]


def test_gradients_match_per_realization_reference():
    for pt, nodes, support in _reference_cases():
        lat = enumerate_lattice(pt.n_sources)
        cells = range(pt.p.size) if support is None else np.flatnonzero(support)
        refs = {k: _reference(pt.p, pt.shape, k) for k in cells}
        for j in nodes:
            alpha = lat.nodes[j]
            for which in ("plus", "minus", "net"):
                want = _reference_average(pt.p, refs, j, which)[1]
                got = G._average_and_grad(pt.p, pt.shape, alpha, which, support)[1]
                assert np.max(np.abs(got - want)) <= 1e-13
                if support is None:
                    got = G.grad_average(pt, alpha, which).partials
                    assert np.max(np.abs(got - want)) <= 1e-13
                for r, ref in refs.values():
                    got = G.grad_atom(pt, r, alpha, which).partials
                    assert np.max(np.abs(got - ref["pi", which][1][j])) <= 1e-13
                    got = G.grad_i_sx_parts(pt, r, alpha, which).partials
                    assert np.max(np.abs(got - ref["i", which][1][j])) <= 1e-13


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_zero_learning_rate_identity():
    pt = soft_xor_point()
    lat = enumerate_lattice(2)
    traj = G.optimize_atom(pt, lat.top, steps=4, learning_rate=0.0)
    assert len(traj) == 5
    for step in traj:
        assert np.array_equal(step.point, pt.p)
        assert step.objective == pytest.approx(traj[0].objective, abs=1e-15)


def test_objective_monotone_for_small_steps():
    pt = G.interior_mix(xor_distribution(), 0.5)
    lat = enumerate_lattice(2)
    traj = G.optimize_atom(pt, lat.top, which="net", maximize=True,
                           steps=25, learning_rate=0.01)
    objs = [s.objective for s in traj]
    assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
    assert objs[-1] > objs[0]


def test_iterates_stay_interior():
    pt = G.interior_mix(xor_distribution(), 0.3)
    lat = enumerate_lattice(2)
    traj = G.optimize_atom(pt, lat.top, steps=40, learning_rate=0.2)
    for step in traj:
        assert step.point.min() >= pt.epsilon
        assert step.point.sum() == pytest.approx(1.0, abs=1e-12)


def test_mechanism_fixed_uniform_xor_stationary():
    d = xor_distribution()
    mech, q = G.mechanism_from_distribution(d)
    lat = enumerate_lattice(2)
    traj = G.optimize_atom_mechanism_fixed(mech, q, G.grid_shape(d), lat.top,
                                           steps=10)
    # uniform inputs are a stationary point by symmetry: stops immediately
    assert len(traj) == 1
    assert traj[0].grad_norm < 1e-9
    assert traj[0].objective == pytest.approx(math.log2(4 / 3), abs=1e-12)


def test_mechanism_fixed_moves_toward_uniform():
    d = xor_distribution()
    mech, _ = G.mechanism_from_distribution(d)
    q0 = np.array([0.4, 0.25, 0.2, 0.15])
    lat = enumerate_lattice(2)
    traj = G.optimize_atom_mechanism_fixed(mech, q0, G.grid_shape(d), lat.top,
                                           steps=60, learning_rate=0.05)
    objs = [s.objective for s in traj]
    assert all(b >= a - 1e-10 for a, b in zip(objs, objs[1:]))
    assert objs[-1] == pytest.approx(math.log2(4 / 3), abs=1e-3)


def test_mechanism_fixed_fd_on_source_block():
    # chain rule through p(t,s) = p(t|s) q(s), checked by perturbing q
    d = xor_distribution()
    mech, _ = G.mechanism_from_distribution(d)
    shape = G.grid_shape(d)
    n_t, src = shape[0], 4
    M = mech.reshape(n_t, src)
    rng = np.random.default_rng(9)
    q = rng.uniform(0.2, 1.0, src)
    q /= q.sum()
    support = mech > 0
    lat = enumerate_lattice(2)

    def objective_of_q(qv):
        joint = (M * qv[None, :]).reshape(-1)
        return G.average_atom_value(joint, shape, lat.top, "net", support)

    joint = (M * q[None, :]).reshape(-1)
    g_joint = G._average_and_grad(joint, shape, lat.top, "net", support)[1]
    g_q = (M * g_joint.reshape(n_t, src)).sum(axis=0)
    fd = G.central_difference(objective_of_q, q)
    assert G.fd_mismatch(g_q, fd) <= 1.0


def test_mechanism_validation():
    d = xor_distribution()
    mech, q = G.mechanism_from_distribution(d)
    lat = enumerate_lattice(2)
    with pytest.raises(ValueError, match="columns"):
        G.optimize_atom_mechanism_fixed(mech * 0.5, q, G.grid_shape(d), lat.top)
    with pytest.raises(BoundaryError):
        G.optimize_atom_mechanism_fixed(mech, np.array([1.0, 0.0, 0.0, 0.0]),
                                        G.grid_shape(d), lat.top)
    with pytest.raises(ValueError, match="source pmf coordinate 2 is NaN"):
        G.optimize_atom_mechanism_fixed(mech, np.array([0.25, 0.25, np.nan, 0.25]),
                                        G.grid_shape(d), lat.top)


def test_unknown_which_rejected_by_every_entry_point():
    pt = rand_point(2, np.random.default_rng(16))
    lat = enumerate_lattice(2)
    r = Realization(t=0, s=(1, 1))
    mech, q = G.mechanism_from_distribution(xor_distribution())
    calls = [
        lambda w: G.grad_i_sx_parts(pt, r, lat.top, w),
        lambda w: G.grad_atom(pt, r, lat.top, w),
        lambda w: G.grad_atom_via_closed_form(pt, r, lat.top, w),
        lambda w: G.average_atom_value(pt.p, pt.shape, lat.top, w),
        lambda w: G.grad_average(pt, lat.top, w),
        lambda w: G.pointwise_value(pt.p, pt.shape, r, lat.top, "pi", w),
        lambda w: G.optimize_atom(pt, lat.top, w, steps=1),
        lambda w: G.optimize_atom_mechanism_fixed(mech, q, pt.shape, lat.top, w,
                                                  steps=1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="'plus', 'minus' or 'net', got 'bogus'"):
            call("bogus")
        call("minus")


def test_one_kernel_call_per_evaluation(monkeypatch):
    """One ``evaluate`` call (the kernel's mass step, its logs) per
    evaluation; its plan step runs once per grid and cell set, on the first
    evaluation."""
    calls, plans = [], []

    def counted(up_sets, plan, masses, den=None, rows=None):
        calls.append(len(plan.agree))
        return evaluate(up_sets, plan, masses, den, rows)

    def planned(points, at):
        plans.append(len(at))
        return event_plan(points, at)

    monkeypatch.setattr(G, "evaluate", counted)
    monkeypatch.setattr(G, "event_plan", planned)
    G._grid_plan.cache_clear()
    pt = rand_point(3, np.random.default_rng(15))
    lat = enumerate_lattice(3)
    alpha = lat.node_by_name("{1,2}{3}")
    G.grad_average(pt, alpha)
    G.average_atom_value(pt.p, pt.shape, alpha)
    assert calls == [pt.p.size] * 2 and plans == [pt.p.size]
    calls.clear()
    G.optimize_atom(pt, alpha, steps=3)
    assert calls == [pt.p.size] * 4 and plans == [pt.p.size]
    mech, _ = G.mechanism_from_distribution(xor_distribution())
    calls.clear()
    G.optimize_atom_mechanism_fixed(mech, np.array([0.4, 0.25, 0.2, 0.15]),
                                    (2, 2, 2), enumerate_lattice(2).top, steps=3)
    assert calls == [4] * 4  # the support cells of the xor channel
    assert plans == [pt.p.size, 4]


@pytest.mark.parametrize("analytic, fd", [
    ([0.5, math.nan], [0.5, 0.1]),
    ([0.5, 0.1], [0.5, math.nan]),
    ([0.5, math.nan], [0.5, math.nan]),
    ([math.inf, 0.1], [math.inf, 0.1]),
    ([0.5, -math.inf], [0.5, 0.1]),
])
def test_fd_mismatch_fails_a_pair_that_is_not_finite(analytic, fd):
    assert G.fd_mismatch(np.array(analytic), np.array(fd)) == math.inf


def test_fd_mismatch_keeps_its_finite_values():
    rng = np.random.default_rng(21)
    a = rng.normal(size=40) * np.logspace(-4, 2, 40)
    b = a + rng.normal(size=40) * 1e-6
    worst = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        worst = max(worst, abs(x - y) / (1e-7 if abs(x) < 1e-2 else 1e-5 * abs(x)))
    assert G.fd_mismatch(a, b) == worst
    assert G.fd_mismatch(a, a) == 0.0
    assert G.fd_mismatch(np.array([]), np.array([])) == 0.0


def _fresh(p, shape, cells, j, quantity, which):
    """``_evaluate`` with empty plan caches."""
    G._grid_plan.cache_clear()
    G._node_plan.cache_clear()
    return G._evaluate(p, shape, cells, j, quantity, which)


def _same_bits(a, b):
    return all(x.tobytes() == y.tobytes() and x.shape == y.shape for x, y in zip(a, b))


def test_reused_plans_give_the_bits_of_fresh_ones():
    # the plans capture nothing of the pmf: another p on the same grid and
    # cells gets the bits of an evaluation that builds its plans anew
    rng = np.random.default_rng(41)
    shape = (3, 2, 2, 2)
    p1, p2 = (G.random_interior(shape, rng).p for _ in range(2))
    lat = enumerate_lattice(3)
    for cells in (np.arange(p1.size), np.sort(rng.choice(p1.size, 14, replace=False))):
        for j in (lat.index(lat.node_by_name("{1,2}{3}")), lat.index(lat.top)):
            for quantity in ("i", "pi"):
                for which in ("plus", "minus", "net"):
                    want = _fresh(p2, shape, cells, j, quantity, which)
                    _fresh(p1, shape, cells, j, quantity, which)
                    hits = G._grid_plan.cache_info().hits
                    got = G._evaluate(p2, shape, cells, j, quantity, which)
                    assert G._grid_plan.cache_info().hits == hits + 1
                    assert _same_bits(got, want)
    plan, bins = G._grid_plan(shape, np.arange(p1.size, dtype=np.intp).tobytes())
    rows, passes, signs = G._node_plan(3, j)
    assert not any(a.flags.writeable for a in (plan.agree, plan.same_target,
                                               bins, rows, signs, *passes[0]))


def test_plan_keys_tell_cells_dtype_and_grid_shape_apart():
    two = np.array([1, 0], dtype=np.int32)
    one = np.array([1], dtype=np.int64)
    assert two.tobytes() == one.tobytes()
    p = G.random_interior((2, 2, 2), np.random.default_rng(42)).p
    cases = [((2, 2, 2), two), ((2, 2, 2), one), ((2, 4), one), ((4, 2), one)]
    want = [_fresh(p, shape, cells, 0, "pi", "net") for shape, cells in cases]
    G._grid_plan.cache_clear()
    got = [G._evaluate(p, shape, cells, 0, "pi", "net") for shape, cells in cases]
    assert [len(v) for v, _ in got] == [2, 1, 1, 1]
    assert all(_same_bits(g, w) for g, w in zip(got, want))
    assert not _same_bits(got[2], got[3])


def test_plan_caches_are_bounded():
    for cache in (G._grid_plan, G._node_plan):
        assert cache.cache_info().maxsize is not None
    # a node plan holds one row, one sign and one pass pair per child
    # subset, so the node with the most children (10 at n = 5) has the
    # largest; the module docstring states 16 of them at n = 5
    lat = enumerate_lattice(5)
    most = max(range(len(lat)), key=lambda j: len(lat.children_table[j]))
    rows, passes, signs = G._node_plan(5, most)
    assert len(rows) == 1 << 10
    # each array owns its buffer, so nbytes is what the cache holds
    held = [rows, signs, *(x for pair in passes for x in pair)]
    assert all(x.base is None for x in held)
    size = sum(x.nbytes for x in held)
    assert size <= 33e3
    assert G._node_plan.cache_info().maxsize * size <= 0.53e6
    # a grid plan holds 17 bytes per (realization, cell), as the module
    # docstring states; two are kept, and an optimizer run reuses one
    assert G._grid_plan.cache_info().maxsize == 2
    for shape, size in (((2,) * 5, 17.5e3), ((3,) * 6, 9.1e6)):
        cells = np.arange(math.prod(shape), dtype=np.intp)
        plan, bins = G._grid_plan(shape, cells.tobytes())
        held = plan.agree.nbytes + plan.same_target.nbytes + bins.nbytes
        assert held == 17 * len(cells) ** 2 and held <= size
    G._grid_plan.cache_clear()


def test_importing_builds_no_lattice_and_no_plan():
    # plans are made on the first evaluation, never at import
    code = ("import sxpid, sxpid.grad, sxpid.cli\n"
            "from sxpid import grad, lattice\n"
            "assert not lattice._LATTICES, lattice._LATTICES\n"
            "for cache in (grad._grid_plan, grad._node_plan):\n"
            "    assert cache.cache_info().currsize == 0, cache\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(G.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
