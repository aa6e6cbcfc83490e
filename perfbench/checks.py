"""Output checks, computed apart from the program.

Reference values come from the input pmf itself (numpy for float inputs,
``fractions`` for exact ones) or from properties the method must have. No
check calls into ``sxpid`` except where the property is an agreement
between two of its public functions. Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from inputs import Pmf

#: Absolute tolerance for values the program and the reference compute the
#: same way up to rounding (logs of sums of at most a few hundred masses).
TOL = 1e-9
#: pi+ and pi- may dip below zero only by rounding.
NONNEG_TOL = 1e-9

FIELDS = ("i_plus", "i", "pi_plus", "pi_minus", "pi")

_COALITION = re.compile(r"\{([^{}]*)\}")


def parse_node(name: str) -> tuple[frozenset[int], ...]:
    """``{1,2}{3}`` -> (frozenset({1, 2}), frozenset({3}))."""
    return tuple(frozenset(int(x) for x in body.split(","))
                 for body in _COALITION.findall(name))


def _log2(x) -> float:
    if isinstance(x, Fraction):
        return math.log2(x.numerator) - math.log2(x.denominator)
    return float(np.log2(x))


class Reference:
    """Marginals and information values of a pmf, computed without sxpid.

    With ``exact`` the marginals are sums of ``Fraction`` masses; otherwise
    they are numpy sums over the float grid.
    """

    def __init__(self, pmf: Pmf, exact: bool):
        self.n = pmf.n
        self.cells = pmf.cells
        coalitions = [frozenset(c) for k in range(1, self.n + 1)
                      for c in itertools.combinations(range(1, self.n + 1), k)]
        if exact:
            self.mass = pmf.exact()
            self.p_t = _sum_by(self.mass, lambda c: c[0])
            self.p_s = _sum_by(self.mass, lambda c: c[1:])
            self.marginal = {
                a: _sum_by(self.mass, _projector(a)) for a in coalitions}
        else:
            grid = pmf.grid()
            self.mass = {c: grid[c] for c in pmf.cells}
            p_t = grid.sum(axis=tuple(range(1, self.n + 1)))
            p_s = grid.sum(axis=0)
            self.p_t = {t: p_t[t] for t in range(pmf.t_card)}
            self.p_s = {c[1:]: p_s[c[1:]] for c in pmf.cells}
            self.marginal = {}
            for a in coalitions:
                drop = (0,) + tuple(i for i in range(1, self.n + 1) if i not in a)
                arr = grid.sum(axis=drop)
                self.marginal[a] = {_projector(a)(c): arr[_projector(a)(c)]
                                    for c in pmf.cells}

    def local_mi(self, cell) -> float:
        """i(t : s) = log2 p(t|s) / p(t), the value at the top node."""
        return _log2(self.mass[cell] / (self.p_t[cell[0]] * self.p_s[cell[1:]]))

    def neg_log_marginal(self, cell, coalition: frozenset[int]) -> float:
        """-log2 p(s_A), i+ at the single-coalition node {A}."""
        return -_log2(self.marginal[coalition][_projector(coalition)(cell)])

    def mutual_information(self) -> float:
        return math.fsum(float(m) * self.local_mi(c) for c, m in self.mass.items())


def _projector(coalition: frozenset[int]) -> Callable[[tuple], tuple]:
    picked = sorted(coalition)
    return lambda cell: tuple(cell[i] for i in picked)


def _sum_by(mass: Mapping, key: Callable) -> dict:
    out: dict = {}
    for c, m in mass.items():
        k = key(c)
        out[k] = out.get(k, 0) + m
    return out


@dataclass
class Realized:
    """One realization's pointwise values, arrays aligned with the node names."""

    cell: tuple[int, ...]
    values: dict[str, np.ndarray]   # FIELDS -> per-node array


def realized_from_decompositions(decs) -> list[Realized]:
    """Pointwise records from the program's PointwiseDecomposition objects."""
    return [Realized((dec.realization.t,) + tuple(dec.realization.s),
                     {f: np.asarray(getattr(dec, f)) for f in FIELDS})
            for dec in decs]


def check_decomposition(names: Sequence[str], realized: Sequence[Realized],
                        average_pi: np.ndarray, ref: Reference) -> list[str]:
    """Pointwise and averaged properties of a full decomposition.

    - every support cell is decomposed exactly once;
    - min pi+ and min pi- are at least -NONNEG_TOL;
    - the pi over all nodes sum to i at the top node, which equals
      log2 p(t|s)/p(t) from the reference;
    - i+ at each single-coalition node {A} equals -log2 p(s_A);
    - the averaged Pi over all nodes sum to I(T;S).
    """
    problems = []
    seen = sorted(r.cell for r in realized)
    if seen != sorted(ref.cells):
        problems.append(f"decomposed {len(seen)} realizations, support has "
                        f"{len(ref.cells)} (or they differ)")
    return (problems + check_pointwise(names, realized, ref)
            + check_average(average_pi, ref))


def check_pointwise(names: Sequence[str], realized: Sequence[Realized],
                    ref: Reference) -> list[str]:
    parsed = [parse_node(x) for x in names]
    full = frozenset(range(1, ref.n + 1))
    singles = {k: p[0] for k, p in enumerate(parsed) if len(p) == 1}
    tops = [k for k, a in singles.items() if a == full]
    if len(tops) != 1:
        return [f"expected one top node {{1..{ref.n}}}, found {len(tops)}"]
    top = tops[0]
    problems = []
    for r in realized:
        v = r.values
        for part in ("pi_plus", "pi_minus"):
            low = float(v[part].min())
            if low < -NONNEG_TOL:
                problems.append(f"{r.cell}: min {part} = {low:.3e} < 0")
        want = ref.local_mi(r.cell)
        if abs(v["i"][top] - want) > TOL:
            problems.append(f"{r.cell}: i at top = {v['i'][top]!r}, "
                            f"log2 p(t|s)/p(t) = {want!r}")
        total = math.fsum(v["pi"])
        if abs(total - want) > TOL:
            problems.append(f"{r.cell}: sum of pi = {total!r} != {want!r}")
        for k, a in singles.items():
            want_plus = ref.neg_log_marginal(r.cell, a)
            if abs(v["i_plus"][k] - want_plus) > TOL:
                problems.append(f"{r.cell}: i+ at {names[k]} = {v['i_plus'][k]!r}"
                                f" != -log2 p(s_A) = {want_plus!r}")
    return problems


def check_average(average_pi: Sequence[float], ref: Reference) -> list[str]:
    """The averaged Pi over all nodes sum to I(T;S)."""
    mi = ref.mutual_information()
    total = math.fsum(average_pi)
    if abs(total - mi) > TOL:
        return [f"sum of averaged Pi = {total!r} != I(T;S) = {mi!r}"]
    return []


def realized_from_report(doc: Mapping) -> tuple[list[str], list[Realized], np.ndarray]:
    """Names, pointwise records and averaged Pi from a JSON report.

    Symbols of every benchmark input are the strings "0", "1", ..., so a
    label is its own symbol index.
    """
    names = list(doc["nodes"])
    realized = []
    for block in doc["pointwise"]:
        nodes = block["nodes"]
        cell = (int(block["t"]),) + tuple(int(x) for x in block["s"])
        values = {f: np.array([nodes[x][f] for x in names]) for f in FIELDS}
        realized.append(Realized(cell, values))
    average_pi = np.array([doc["averages"][x]["Pi"] for x in names])
    return names, realized, average_pi


def check_parity_averages(doc: Mapping, n: int) -> list[str]:
    """Parity: I(T; S_A) is 0 for every proper coalition, 1 bit for all n."""
    problems = []
    full = frozenset(range(1, n + 1))
    for name, block in doc["averages"].items():
        parsed = parse_node(name)
        if len(parsed) != 1:
            continue
        want = 1.0 if parsed[0] == full else 0.0
        if abs(block["I"] - want) > TOL:
            problems.append(f"parity: I at {name} = {block['I']!r}, want {want}")
    return problems


# ---------------------------------------------------------------------------
# Lattice listing.
# ---------------------------------------------------------------------------

def antichain_names(n: int) -> set[tuple[frozenset[int], ...]]:
    """Every nonempty antichain of nonempty coalitions of {1..n}, brute force."""
    coalitions = [frozenset(c) for k in range(1, n + 1)
                  for c in itertools.combinations(range(1, n + 1), k)]
    out = set()
    for bits in range(1, 1 << len(coalitions)):
        chosen = [c for i, c in enumerate(coalitions) if bits >> i & 1]
        if all(not (a < b) for a in chosen for b in chosen):
            out.add(tuple(sorted(chosen, key=lambda c: (len(c), sorted(c)))))
    return out


def _leq(a: Sequence[frozenset[int]], b: Sequence[frozenset[int]]) -> bool:
    """a <= b iff every coalition of b contains one of a."""
    return all(any(x <= y for x in a) for y in b)


def hasse_edges(names: Sequence[str]) -> set[tuple[str, str]]:
    """(child, parent) cover pairs of the order defined on the names."""
    parsed = [parse_node(x) for x in names]
    size = len(parsed)
    lt = np.zeros((size, size), dtype=bool)
    for i, a in enumerate(parsed):
        for j, b in enumerate(parsed):
            lt[i, j] = i != j and _leq(a, b)
    path2 = (lt.astype(np.int64) @ lt.astype(np.int64)) > 0
    cover = lt & ~path2
    return {(names[i], names[j]) for i, j in zip(*np.nonzero(cover))}


def check_lattice(doc: Mapping, n: int) -> list[str]:
    """The ``sxpid lattice n`` listing against the order on its node names.

    The expected antichains are enumerated by brute force (n <= 4).
    """
    problems = []
    names = list(doc["nodes"])
    parsed = [parse_node(x) for x in names]
    if len(set(names)) != len(names):
        problems.append("duplicate node names")
    for name, a in zip(names, parsed):
        if not a or any(x < y for x in a for y in a) or len(set(a)) != len(a):
            problems.append(f"{name} is not an antichain")
    want = antichain_names(n)
    got = {tuple(sorted(a, key=lambda c: (len(c), sorted(c)))) for a in parsed}
    if got != want or doc["node_count"] != len(want):
        problems.append(f"{len(got)} distinct antichains listed "
                        f"(node_count {doc['node_count']}), expected {len(want)}")
    full = frozenset(range(1, n + 1))
    if parse_node(doc["bottom"]) != tuple(frozenset([i]) for i in range(1, n + 1)):
        problems.append(f"bottom is {doc['bottom']}")
    if parse_node(doc["top"]) != (full,):
        problems.append(f"top is {doc['top']}")
    edges = {tuple(e) for e in doc["cover_edges"]}
    if len(edges) != len(doc["cover_edges"]):
        problems.append("repeated cover edges")
    hasse = hasse_edges(names)
    if edges != hasse:
        problems.append(f"cover edges differ from the Hasse diagram: "
                        f"{len(edges - hasse)} extra, {len(hasse - edges)} missing")
    from_children = {(c, p) for p, kids in doc["children"].items() for c in kids}
    if from_children != edges or set(doc["children"]) != set(names):
        problems.append("children disagree with cover_edges")
    return problems


# ---------------------------------------------------------------------------
# Optimizer trajectories and gradients.
# ---------------------------------------------------------------------------

def fd_partials(f: Callable[[np.ndarray], float], p: np.ndarray,
                coords: Iterable[int], step: float = 1e-6) -> dict[int, float]:
    """Central differences on raw coordinates, no renormalization."""
    out = {}
    for k in coords:
        up = p.copy()
        up[k] += step
        down = p.copy()
        down[k] -= step
        out[k] = (f(up) - f(down)) / (2 * step)
    return out


def check_gradient(analytic: np.ndarray, fd: Mapping[int, float],
                   rel: float = 1e-5, abs_: float = 1e-7) -> list[str]:
    """Analytic partials agree with central differences at the given coords."""
    return [f"partial {k}: analytic {analytic[k]!r} vs central difference {v!r}"
            for k, v in fd.items()
            if abs(analytic[k] - v) > abs_ + rel * abs(v)]


def check_trajectory(points: Sequence[np.ndarray], steps: int, epsilon: float,
                     mechanism: np.ndarray | None = None) -> list[str]:
    """Every point is a pmf at or above the margin; the op ran every step.

    With ``mechanism`` (p(t|s) as a (|T|, |S|) array) the margin applies to
    the source pmf and every point must keep p(t|s).
    """
    problems = []
    if len(points) != steps + 1:
        problems.append(f"trajectory has {len(points)} points, want {steps + 1}")
    for k, x in enumerate(points):
        if abs(math.fsum(x) - 1.0) > TOL:
            problems.append(f"point {k} sums to {math.fsum(x)!r}")
        if mechanism is None:
            low = float(x.min())
        else:
            joint = x.reshape(mechanism.shape)
            q = joint.sum(axis=0)
            low = float(q.min())
            if np.abs(joint / q[None, :] - mechanism).max() > TOL:
                problems.append(f"point {k} changed p(t|s)")
        if low < epsilon * (1 - 1e-9):
            problems.append(f"point {k} has mass {low!r} below {epsilon}")
    return problems
