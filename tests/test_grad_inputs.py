"""Hostile inputs to the mechanism-fixed optimizer fail with the coordinate."""

import numpy as np
import pytest

from sxpid import grad as G
from sxpid.builtins import xor_distribution
from sxpid.lattice import enumerate_lattice


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
