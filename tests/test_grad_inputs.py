"""Hostile inputs to the gradient entry points fail with what is wrong:
the mechanism-fixed optimizer names the coordinate, and every entry point
checks the antichain and the pmf length against the grid. Raw vectors of
any real dtype are read as floats."""

import re

import numpy as np
import pytest

from sxpid import grad as G
from sxpid.builtins import xor_distribution
from sxpid.dist import Realization
from sxpid.lattice import BoundaryError, enumerate_lattice


def _run(mechanism, q0):
    d = xor_distribution()
    return G.optimize_atom_mechanism_fixed(mechanism, q0, G.grid_shape(d),
                                           enumerate_lattice(2).top, steps=2)


def test_negative_mechanism_entry_rejected():
    mech, q = G.mechanism_from_distribution(xor_distribution())
    mech = mech.reshape(2, 4).copy()
    mech[:, 0] = [1.5, -0.5]  # the column still sums to 1
    with pytest.raises(ValueError, match="mechanism entry 4 is -0.5"):
        _run(mech.ravel(), q)


@pytest.mark.parametrize("bad, shown", [(np.inf, "inf"), (-np.inf, "-inf"),
                                        (np.nan, "NaN")])
def test_non_finite_mechanism_entry_rejected(bad, shown):
    mech, q = G.mechanism_from_distribution(xor_distribution())
    mech = mech.copy()
    mech[6] = bad
    with pytest.raises(ValueError, match=f"mechanism entry 6 is {shown}$"):
        _run(mech, q)


@pytest.mark.parametrize("bad, shown", [(np.inf, "inf"), (-np.inf, "-inf")])
def test_non_finite_source_pmf_rejected(bad, shown):
    mech, _ = G.mechanism_from_distribution(xor_distribution())
    with pytest.raises(ValueError, match=f"source pmf coordinate 1 is {shown}$"):
        _run(mech, np.array([0.25, bad, 0.25, 0.25]))


_R = Realization(t=0, s=(1, 1))
_MECH, _Q = G.mechanism_from_distribution(xor_distribution())

#: Each public gradient entry point as ``call(p, shape, alpha)``; the point
#: based ones build their ``SimplexPoint`` from ``p``.
ENTRY_POINTS = {
    "grad_i_sx_parts": lambda p, sh, a: G.grad_i_sx_parts(G.SimplexPoint(sh, p), _R, a),
    "grad_atom": lambda p, sh, a: G.grad_atom(G.SimplexPoint(sh, p), _R, a),
    "grad_atom_via_closed_form":
        lambda p, sh, a: G.grad_atom_via_closed_form(G.SimplexPoint(sh, p), _R, a),
    "average_atom_value": lambda p, sh, a: G.average_atom_value(p, sh, a),
    "grad_average": lambda p, sh, a: G.grad_average(G.SimplexPoint(sh, p), a),
    "pointwise_value": lambda p, sh, a: G.pointwise_value(p, sh, _R, a, "pi", "net"),
    "optimize_atom": lambda p, sh, a: G.optimize_atom(G.SimplexPoint(sh, p), a, steps=1),
    "optimize_atom_mechanism_fixed":
        lambda p, sh, a: G.optimize_atom_mechanism_fixed(
            _MECH[:p.size], _Q, sh, a, steps=1),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_checks_antichain_and_pmf_length(entry):
    call = ENTRY_POINTS[entry]
    shape = (2, 2, 2)
    p = G.random_interior(shape, np.random.default_rng(5)).p
    call(p, shape, enumerate_lattice(2).top)
    with pytest.raises(ValueError, match="^antichain over 3 sources, grid has 2$"):
        call(p, shape, enumerate_lattice(3).top)
    with pytest.raises(ValueError, match="^pmf length does not match the outcome grid$"):
        call(p[:7], shape, enumerate_lattice(2).top)


@pytest.mark.parametrize("size", [5, 12])
def test_support_mask_of_the_wrong_length_rejected(size):
    pt = G.interior_mix(xor_distribution(), 0.2)
    top = enumerate_lattice(2).top
    G.average_atom_value(pt.p, pt.shape, top, support=np.ones(8, bool))
    with pytest.raises(ValueError, match=rf"^support mask of shape \({size},\) does "
                                         "not match the 8 cells of the outcome grid$"):
        G.average_atom_value(pt.p, pt.shape, top, support=np.ones(size, bool))


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_raw_vectors_of_any_real_dtype_read_as_floats(dtype):
    # counts need not be normalized; integer sums below 2^53 are exact in
    # float64, so an int64 count vector gets the bits of its float copy
    shape = (2, 2, 2)
    raw = np.random.default_rng(6).integers(1, 1000, size=8).astype(dtype)
    top = enumerate_lattice(2).top
    want = G.average_atom_value(raw.astype(float), shape, top)
    assert G.average_atom_value(raw, shape, top) == want
    assert G.average_atom_value(raw.tolist(), shape, top) == want
    want = G.pointwise_value(raw.astype(float), shape, _R, top, "pi", "net")
    assert G.pointwise_value(raw, shape, _R, top, "pi", "net") == want


@pytest.mark.parametrize("k, where", [(0, "t=0, s=(0, 0)"), (5, "t=0, s=(0, 1)")])
def test_negative_coordinate_names_the_first_realization_it_breaks(k, where):
    # the evaluation checks every event it sums at every realization, in
    # grid order, before it takes a log
    p = np.full(8, 0.125)
    p[k] = -0.2
    text = f"an event at Realization({where}) has nonpositive mass"
    with pytest.raises(BoundaryError, match=f"^{re.escape(text)}$"):
        G.average_atom_value(p, (2, 2, 2), enumerate_lattice(2).top)
