"""Shared builders for the test suite."""

import dataclasses
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from sxpid.builtins import xor_distribution, xorduplicate_distribution
from sxpid.dist import Alphabet, JointDistribution, Realization
from sxpid.measures import decompose_support


#: The XOR support with masses over the denominator 10^20, beyond 2^64.
DEN_1E20_CSV = ("t,s1,s2,p\n0,0,0,0.24999999999999999999\n"
                "1,0,1,0.25000000000000000001\n1,1,0,0.25\n0,1,1,0.25\n")


def bits(name: str) -> Alphabet:
    return Alphabet(name, ("0", "1"))


def grid_points(t_card: int, s_cards: tuple[int, ...]):
    shape = (t_card,) + s_cards
    return [Realization(t=idx[0], s=tuple(idx[1:])) for idx in np.ndindex(*shape)]


def random_grid_distribution(n_sources: int, rng: np.random.Generator,
                             low: float = 0.05, t_card: int = 2,
                             s_card: int = 2) -> JointDistribution:
    """Full-support float-mass distribution, bounded away from zero."""
    points = grid_points(t_card, (s_card,) * n_sources)
    raw = rng.uniform(low, 1.0, size=len(points))
    raw /= raw.sum()
    alphabets = [Alphabet(f"s{i+1}", tuple(str(k) for k in range(s_card)))
                 for i in range(n_sources)]
    target = Alphabet("t", tuple(str(k) for k in range(t_card)))
    return JointDistribution.from_points(
        target, alphabets, zip(points, (float(x) for x in raw)),
        normalization_tolerance=1e-6)


def rational_distribution(n_sources: int, weights: list[int],
                          t_card: int = 2, s_card: int = 2) -> JointDistribution:
    """Exact distribution from nonnegative integer weights over the grid."""
    points = grid_points(t_card, (s_card,) * n_sources)
    assert len(weights) == len(points)
    total = sum(weights)
    alphabets = [Alphabet(f"s{i+1}", tuple(str(k) for k in range(s_card)))
                 for i in range(n_sources)]
    target = Alphabet("t", tuple(str(k) for k in range(t_card)))
    return JointDistribution.from_points(
        target, alphabets,
        [(r, Fraction(w, total)) for r, w in zip(points, weights) if w])


def rational_weights(n_cells: int, positive: bool = False):
    """Hypothesis strategy: integer weight vectors with at least one nonzero."""
    low = 1 if positive else 0
    return st.lists(st.integers(low, 12), min_size=n_cells,
                    max_size=n_cells).filter(lambda w: sum(w) > 0)


def foreign_decompositions():
    """Case -> (distribution, decompositions that are not its own, message)."""
    d = xor_distribution()
    decs = decompose_support(d)
    heavy = dataclasses.replace(decs[2], weight=Fraction(1, 2))
    return {
        "source count": (xorduplicate_distribution(), decs, "^decomposition 0 has "
                         "source count 2 where the distribution has 3$"),
        "subset": (d, decs[:1], "^1 decompositions for 4 support points$"),
        "order": (d, decs[1:] + decs[:1], r"^decomposition 0 has realization "
                  r"Realization\(t=0, s=\(1, 1\)\) where the distribution has "
                  r"Realization\(t=0, s=\(0, 0\)\)$"),
        "weight": (d, decs[:2] + [heavy] + decs[3:], "^decomposition 2 has "
                   "weight 1/2 where the distribution has 1/4$"),
    }
