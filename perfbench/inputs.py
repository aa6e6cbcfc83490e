"""Seeded inputs for the benchmark workloads.

Every input is a pmf given as integer weights over cells ``(t, s1..sn)`` of
symbol indices, so the same pmf exists both as exact fractions and as
floats. Symbols are the strings "0", "1", "2", ... The same seed always
gives the same inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sxpid.dist import Alphabet, JointDistribution, Realization

#: Decimal places of the masses written to the CSV inputs.
CSV_DECIMALS = 6


@dataclass(frozen=True)
class Pmf:
    """Integer weights over grid cells; mass of a cell is weight / total."""

    t_card: int
    s_cards: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]   # (t, s1, ..., sn) symbol indices
    weights: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.s_cards)

    @property
    def total(self) -> int:
        return sum(self.weights)

    def exact(self) -> dict[tuple[int, ...], Fraction]:
        return {c: Fraction(w, self.total) for c, w in zip(self.cells, self.weights)}

    def floats(self) -> dict[tuple[int, ...], float]:
        return {c: w / self.total for c, w in zip(self.cells, self.weights)}

    def dist(self, exact: bool) -> JointDistribution:
        """The pmf as a program distribution, masses as fractions or floats."""
        symbols = lambda name, k: Alphabet(name, tuple(str(x) for x in range(k)))
        masses = self.exact() if exact else self.floats()
        return JointDistribution.from_points(
            symbols("t", self.t_card),
            [symbols(f"s{i + 1}", k) for i, k in enumerate(self.s_cards)],
            [(Realization(t=c[0], s=c[1:]), m) for c, m in masses.items()])

    def grid(self) -> np.ndarray:
        """Float masses over the full grid, target axis first."""
        p = np.zeros((self.t_card,) + self.s_cards)
        for c, w in zip(self.cells, self.weights):
            p[c] = w / self.total
        return p

    def csv(self) -> str:
        """CSV text in the program's input format, masses as exact decimals."""
        header = ["t"] + [f"s{i}" for i in range(1, self.n + 1)] + ["p"]
        lines = [",".join(header)]
        scale = 10 ** CSV_DECIMALS
        for c, w in zip(self.cells, self.weights):
            num = w * scale // self.total
            if num * self.total != w * scale:
                raise ValueError("weights are not exact decimals")
            mass = f"0.{num:0{CSV_DECIMALS}d}" if num < scale else "1"
            lines.append(",".join([str(x) for x in c] + [mass]))
        return "\n".join(lines) + "\n"


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def full_support_pmf(rng: np.random.Generator, n: int,
                     low: int = 200, high: int = 1000) -> Pmf:
    """Binary target and sources, every one of the 2^(n+1) cells positive."""
    cells = tuple(itertools.product(range(2), repeat=n + 1))
    weights = tuple(int(x) for x in rng.integers(low, high + 1, size=len(cells)))
    return Pmf(2, (2,) * n, cells, weights)


def decimal_pmf(rng: np.random.Generator, cards: tuple[int, ...],
                support: int) -> Pmf:
    """Partial support of ``support`` cells with masses of CSV_DECIMALS digits.

    ``cards`` holds the alphabet sizes of the target and of each source. The
    first cells are the diagonal (k, k, ..., k), capped per column at its
    alphabet, so every symbol of every alphabet occurs and the program infers
    the full alphabets in order. The rest are drawn without replacement from
    the remaining grid.
    """
    diagonal = [tuple(min(k, c - 1) for c in cards) for k in range(max(cards))]
    rest = [c for c in itertools.product(*(range(k) for k in cards))
            if c not in set(diagonal)]
    picked = rng.choice(len(rest), size=support - len(diagonal), replace=False)
    cells = tuple(diagonal + [rest[int(k)] for k in sorted(picked)])
    raw = rng.integers(1, 1000, size=support)
    scale = 10 ** CSV_DECIMALS
    weights = [int(x) for x in raw * scale // raw.sum()]
    weights[0] += scale - sum(weights)
    return Pmf(cards[0], tuple(cards[1:]), cells, tuple(weights))


def parity_pmf(n: int) -> Pmf:
    """Uniform sources, target is their parity (the ``parity:n`` builtin)."""
    cells = tuple((sum(s) % 2,) + s for s in itertools.product(range(2), repeat=n))
    return Pmf(2, (2,) * n, cells, (1,) * len(cells))
