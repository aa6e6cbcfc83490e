"""Redundancy lattice of antichains over source coalitions.

Nodes are antichains of nonempty subsets of {1..n} (no subset contains
another). The lattice over n sources has d(n)-2 nodes where d is the
Dedekind number: 1, 4, 18, 166, 7579 for n = 1..5. Enumeration beyond
``MAX_SOURCES`` = 5 is not supported; the node count grows super
exponentially and this implementation targets exhaustive evaluation.

Coalitions are stored as bit masks (bit i-1 set <=> source i in the
coalition), antichains as tuples of masks sorted by (size, index list),
so equality and hashing are structural and cheap. Each antichain also has
an up-set over the coalition masks: the coalitions that contain one of its
members (``up_sets``), kept as one integer key per node from which the
lattice derives everything else: the nodes are the minimal members of the
up-closed coalition families, a <= b is inclusion of b's key in a's,
Moebius inversion runs one subtraction pass per coalition over them, and
the key of a meet is the OR of the keys (``subset_meets``). The N x N
``leq_matrix`` is an oracle only, built on each read and not kept.

``evaluate`` is the one evaluation of union masses and i+ + 1j i- behind
decompositions, gradients and checks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .dist import EventPlan, Mass, Realization, plan_event_masses

MAX_SOURCES = 5

#: d(n) - 2 for n = 1..5, used as an enumeration self-check.
NODE_COUNTS = {1: 1, 2: 4, 3: 18, 4: 166, 5: 7579}


class LatticeError(ValueError):
    """Invalid antichain input or unsupported source count."""


class BoundaryError(ValueError):
    """A required event probability is zero (boundary of the simplex)."""


def _mask_indices(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=1 << 10)
def _collection_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return (bin(mask).count("1"), _mask_indices(mask))


@lru_cache(maxsize=1 << 10)
def _coalition_name(mask: int) -> str:
    """The coalition's part of a node name, e.g. ``{1,2}``."""
    return "{" + ",".join(map(str, _mask_indices(mask))) + "}"


def _coalition_masks(n: int, collections: Iterable[Iterable[int]]) -> list[int]:
    """Bit masks of 1-based index collections, checked against 1..n."""
    masks = []
    for coll in map(tuple, collections):
        mask = 0
        for i in coll:
            if not 1 <= i <= n:
                raise LatticeError(f"source index {i} in coalition {coll} outside 1..{n}")
            mask |= 1 << (i - 1)
        if mask == 0:
            raise LatticeError("coalition must be nonempty")
        masks.append(mask)
    return masks


def _drop_supersets(masks: Sequence[int]) -> tuple[int, ...]:
    """The masks that strictly contain no other mask, without duplicates."""
    return tuple({a for a in masks if not any(b != a and a & b == b for b in masks)})


@dataclass(frozen=True)
class Antichain:
    """Canonical set of pairwise-incomparable coalitions of {1..n}."""

    n: int
    masks: tuple[int, ...]

    def __post_init__(self):
        if not self.masks:
            raise LatticeError("antichain must be nonempty")
        full = (1 << self.n) - 1
        for m in self.masks:
            if m == 0:
                raise LatticeError("empty coalition not allowed")
            if m & ~full:
                raise LatticeError(f"coalition outside 1..{self.n}")
        for a in self.masks:
            for b in self.masks:
                if a != b and a & b == a:
                    raise LatticeError(
                        f"{_mask_indices(a)} is a subset of {_mask_indices(b)}; "
                        "normalize_antichain removes supersets")
        canonical = tuple(sorted(set(self.masks), key=_collection_key))
        object.__setattr__(self, "masks", canonical)

    @classmethod
    def of(cls, n: int, collections: Iterable[Iterable[int]]) -> "Antichain":
        """Build from 1-based index collections, e.g. of(3, [[1], [2, 3]])."""
        return cls(n, tuple(_coalition_masks(n, collections)))

    @cached_property
    def collections(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_mask_indices(m) for m in self.masks)

    @cached_property
    def name(self) -> str:
        return "".join(map(_coalition_name, self.masks))

    def sort_key(self):
        return tuple(_collection_key(m) for m in self.masks)

    def __repr__(self) -> str:
        return f"Antichain({self.n}, {self.name})"


_NODE_TOKEN = re.compile(r"\{([^{}]*)\}")


def parse_node_name(n: int, text: str) -> Antichain:
    """Parse ``{1,2}{3}`` style names; whitespace-tolerant, canonicalizing."""
    compact = text.strip()
    if not compact or compact.replace(" ", "") != "".join(
            m.group(0) for m in _NODE_TOKEN.finditer(compact)).replace(" ", ""):
        raise LatticeError(f"cannot parse node name {text!r}")
    collections = []
    for m in _NODE_TOKEN.finditer(compact):
        body = m.group(1).strip()
        if not body:
            raise LatticeError(f"empty coalition in node name {text!r}")
        try:
            collections.append([int(tok) for tok in body.split(",")])
        except ValueError:
            raise LatticeError(f"bad coalition {body!r} in node name {text!r}") from None
    return Antichain.of(n, collections)


def normalize_antichain(n: int, collections: Iterable[Iterable[int]]) -> Antichain:
    """Remove every collection that strictly contains another, canonicalize.

    This is the reduction that makes redundancy queries over arbitrary
    collection sets equivalent to antichain queries: a superset never
    changes the union of coalition events.
    """
    masks = _coalition_masks(n, collections)
    if not masks:
        raise LatticeError("need at least one collection")
    return Antichain(n, _drop_supersets(masks))


def leq(a: Antichain, b: Antichain) -> bool:
    """Partial order: a <= b iff every coalition of b contains one of a."""
    if a.n != b.n:
        raise LatticeError("antichains over different source counts")
    return all(any(am & bm == am for am in a.masks) for bm in b.masks)


def meet(a: Antichain, b: Antichain) -> Antichain:
    """Greatest lower bound: the normalized union of the two antichains."""
    if a.n != b.n:
        raise LatticeError("antichains over different source counts")
    return Antichain(a.n, _drop_supersets(a.masks + b.masks))


def coalition_up_sets(n: int, mask_lists: Sequence[Sequence[int]]) -> np.ndarray:
    """Up-sets of coalition lists as rows over the masks 0..2^n-1.

    Entry [u, c] is 1.0 when coalition mask c contains a member of list u,
    that is, when the event of coalition c lies inside the union of the
    events of list u, else 0.0.
    """
    coalitions = np.arange(1 << n)
    rows = np.zeros((len(mask_lists), 1 << n))
    for row, masks in zip(rows, mask_lists):
        for m in masks:
            row[coalitions & m == m] = 1
    return rows


def _node_keys(n: int) -> dict[Antichain, int]:
    """Every node's antichain with its up-set key (bit c for coalition c).

    An up-closed family over m + 1 sources is a pair lo <= hi of families
    over m sources: the coalitions without source m + 1, and those with it
    shifted up by 2^m bits. Nodes are the families but the empty and the
    full one; their antichains are the families' minimal members."""
    keys = [0, 1]
    for m in range(n):
        keys = [lo | hi << (1 << m) for lo in keys for hi in keys if lo & ~hi == 0]
    without = [sum(1 << c for c in range(1 << n) if not c >> i & 1) for i in range(n)]
    key_of = {}
    for key in (k for k in keys if k and not k & 1):
        minimal = key & ~reduce(or_, [(key & w) << (1 << i) for i, w in enumerate(without)])
        key_of[Antichain(n, tuple(c for c in range(1 << n) if minimal >> c & 1))] = key
    return key_of


class RedundancyLattice:
    """All antichains of {1..n} with order, children and meets.

    The instance is immutable from the caller's perspective; internal
    caches (up-sets, children, inversion passes) are filled lazily and
    are safe to share across threads once built.
    """

    def __init__(self, n: int):
        if not 1 <= n <= MAX_SOURCES:
            raise LatticeError(f"n must be in 1..{MAX_SOURCES}, got {n}")
        self.n = n
        key_of = _node_keys(n)
        self.nodes: tuple[Antichain, ...] = tuple(sorted(key_of, key=Antichain.sort_key))
        if len(self.nodes) != NODE_COUNTS[n]:
            raise AssertionError(
                f"enumerated {len(self.nodes)} antichains for n={n}, "
                f"expected {NODE_COUNTS[n]}")
        self._key_index = {key_of[a]: i for i, a in enumerate(self.nodes)}
        self._up_keys = np.array(list(self._key_index), dtype=np.uint64)
        self._index = {a: i for i, a in enumerate(self.nodes)}
        self.bottom = Antichain.of(n, [[i] for i in range(1, n + 1)])
        self.top = Antichain.of(n, [range(1, n + 1)])

    def __len__(self) -> int:
        return len(self.nodes)

    def index(self, a: Antichain) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise LatticeError(f"{a!r} is not a node of this lattice") from None

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Node names in node order, made on first read."""
        return tuple(a.name for a in self.nodes)

    def node_by_name(self, name: str) -> Antichain:
        # every valid antichain over n sources is a node
        return parse_node_name(self.n, name)

    # -- order ------------------------------------------------------------

    @cached_property
    def up_sets(self) -> np.ndarray:
        """``coalition_up_sets`` of every node, rows in node order (float64
        0/1, 1.9 MB at n = 5), read by the event-mass kernel for every mass
        dtype and by gradient contractions."""
        bits = np.arange(1 << self.n, dtype=np.uint64)
        return (self._up_keys[:, None] >> bits & np.uint64(1)).astype(float)

    @property
    def leq_matrix(self) -> np.ndarray:
        """Boolean matrix L with L[i, j] = (nodes[i] <= nodes[j]); an oracle,
        built on each read and not kept (57 MB at n = 5)."""
        # i <= j iff the up-set of j is a subset of the up-set of i; rows in
        # blocks, so no N x N integer temporary is held (460 MB at n = 5)
        keys = self._up_keys
        leq = np.empty((len(keys), len(keys)), dtype=bool)
        for a in range(0, len(keys), 256):
            leq[a:a + 256] = (keys & ~keys[a:a + 256, None]) == 0
        return leq

    def strict_lower(self, j: int) -> np.ndarray:
        """Indices of nodes strictly below node j (their up-sets hold j's)."""
        keys = self._up_keys
        below = np.flatnonzero((keys[j] & ~keys) == 0)
        return below[below != j].astype(np.int32)

    @cached_property
    def moebius_passes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Index pairs (upper, lower) of the Moebius inversion, in run order.

        A node is the set D of coalitions outside its up-set, and a <= b
        iff D(a) is a subset of D(b): the lattice is that of the down-closed
        coalition sets other than the full one. Coalitions are taken
        largest first; for coalition p, ``upper`` lists the nodes whose D
        has p as a maximal element and ``lower`` the node with D - {p}.
        Subtracting lower from upper for every p undoes the zeta transform
        (summation over downsets) one coalition at a time. The pairs are the
        cover edges of the lattice.
        """
        full = (1 << self.n) - 1
        keys = self._up_keys
        order = np.argsort(keys)
        passes = []
        for p in sorted(range(1, full + 1), key=lambda c: -bin(c).count("1")):
            # p outside the up-set, every strict superset of p inside it
            above = sum(1 << q for q in range(p + 1, full + 1) if q & p == p)
            upper = np.flatnonzero(keys & np.uint64(above | 1 << p) == above)
            wanted = keys[upper] | np.uint64(1 << p)
            passes.append((upper, order[np.searchsorted(keys, wanted, sorter=order)]))
        return passes

    @cached_property
    def topological_order(self) -> np.ndarray:
        """Node indices sorted bottom-up (downsets before their nodes)."""
        # downset sizes: the zeta transform of ones, undoing the passes in reverse
        sizes = np.ones(len(self.nodes), dtype=np.int64)
        for upper, lower in reversed(self.moebius_passes):
            sizes[upper] += sizes[lower]
        return np.argsort(sizes, kind="stable")

    # -- children ----------------------------------------------------------

    @cached_property
    def children_table(self) -> list[tuple[int, ...]]:
        """children[j] = indices of the nodes covered by node j, ascending.

        These are the ``lower`` of the ``moebius_passes`` pairs whose
        ``upper`` is j: the pairs are exactly the cover edges.
        """
        upper, lower = (np.concatenate(x) for x in zip(*self.moebius_passes))
        order = np.lexsort((lower, upper))
        lows = lower[order].tolist()
        ends = np.searchsorted(upper[order], np.arange(len(self.nodes) + 1)).tolist()
        return [tuple(lows[a:b]) for a, b in zip(ends, ends[1:])]

    def children(self, a: Antichain) -> tuple[Antichain, ...]:
        return tuple(self.nodes[i] for i in self.children_table[self.index(a)])

    def cover_edges(self) -> list[tuple[int, int]]:
        """(child, parent) index pairs; the Hasse diagram of the order."""
        return [(c, j) for j, kids in enumerate(self.children_table) for c in kids]

    # -- meets -------------------------------------------------------------

    def subset_meets(self, j: int, members: Sequence[int]) -> list[int]:
        """Node index of meet({j} + B) for every subset B of ``members``.

        Subsets are in bit order (bit i selects members[i]), so the first
        entry is j and the subsets holding the last member are the second
        half. The up-set of a meet is the union of the up-sets, so its key
        is the OR of the members' keys; with members below j, as children
        are, meet({j} + B) is the meet of B alone for nonempty B.
        """
        subset_keys = [int(self._up_keys[j])]
        for c in members:
            key = int(self._up_keys[c])
            subset_keys += [k | key for k in subset_keys]
        return [self._key_index[k] for k in subset_keys]


_LATTICES: dict[int, RedundancyLattice] = {}


def enumerate_lattice(n: int) -> RedundancyLattice:
    """Build (or fetch the cached) redundancy lattice over n sources."""
    if n not in _LATTICES:
        _LATTICES[n] = RedundancyLattice(n)
    return _LATTICES[n]


# ---------------------------------------------------------------------------
# Moebius inversion and the inclusion-exclusion closed form.
# ---------------------------------------------------------------------------

def run_passes(pi: np.ndarray, passes: Sequence[tuple[np.ndarray, np.ndarray]],
               ) -> np.ndarray:
    """Subtract row ``lower`` from row ``upper`` of ``pi`` for each pair of
    each pass, in place and in pass order, and return ``pi``.

    Within a pass the rows are read before any is written, so a pass is
    elementwise: each column of a matrix gets the bits it gets alone.
    """
    for upper, lower in passes:
        pi[upper] -= pi[lower]
    return pi


def invert_array(lattice: RedundancyLattice, v: np.ndarray) -> np.ndarray:
    """Moebius inversion: pi with sum(pi[b] for b <= a) == v[a] for every a.

    ``v`` is indexed like ``lattice.nodes``: a vector, or a matrix whose rows
    are nodes, each column inverted on its own; real input is inverted as
    floats, complex input (``evaluate``'s pairs) stays complex. The inversion
    runs the ``moebius_passes`` (``run_passes``), each an elementwise
    subtraction of whole rows, so a column's result (and each part of a
    complex one) does not depend on the other columns, and applied to the
    identity matrix it gives the Moebius function, mu(k, j) at [j, k].
    """
    dtype = complex if np.iscomplexobj(v) else float
    return run_passes(np.array(v, dtype=dtype), lattice.moebius_passes)


def node_passes(lattice: RedundancyLattice, j: int,
                ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Node j's Moebius function as the part of the inversion its value reads.

    Returns ``(rows, passes, signs)``: node indices, j first,
    ``moebius_passes`` pairs as positions in ``rows``, in run order, and
    mu(rows, j). Walking the passes backwards from j, a pair is kept when
    its upper row is still to be read, and its lower row is then to be
    read too; a dropped pair writes a row that nothing after it reads. So
    ``run_passes(v[rows], passes)[0]`` makes the subtractions of
    ``invert_array(lattice, v)[j]`` on the same operands in the same
    order, and has the same bits. ``signs`` are the rows' weights in that
    sum: the pairs run backwards, ``upper`` and ``lower`` swapped, from 1
    at j (exact, as a pass's lower rows are distinct and not upper rows).

    The lattice is distributive, so mu(u, j) is nonzero only where [u, j]
    is Boolean, that is at the 2^k meets of subsets B of j's k children
    (``subset_meets``), where it is (-1)^|B|: those meets are the rows,
    and each row but j is the lower of one kept pair.
    """
    need = np.zeros(len(lattice.nodes), dtype=bool)
    need[j] = True
    kept = []
    for upper, lower in reversed(lattice.moebius_passes):
        hit = need[upper]
        if hit.any():
            kept.append((upper[hit], lower[hit]))
            need[lower[hit]] = True
    need[j] = False
    rows = np.concatenate([[j], np.flatnonzero(need)])
    at = np.empty(len(need), dtype=np.intp)
    at[rows] = np.arange(len(rows))
    signs = np.where(rows == j, 1.0, 0.0)
    for upper, lower in kept:
        signs[at[lower]] -= signs[at[upper]]
    return rows, [(at[upper], at[lower]) for upper, lower in reversed(kept)], signs


def moebius_invert(lattice: RedundancyLattice,
                   values: Mapping[Antichain, float],
                   verify_tol: float | None = 1e-9) -> dict[Antichain, float]:
    """Invert cumulative node values into per-node increments.

    Returns pi with sum(pi[b] for b <= a) == values[a] for every node a,
    computed by the subtraction passes of ``invert_array``. When
    ``verify_tol`` is set, the downset re-summation is checked against the
    inputs and a ValueError names the first violating node.
    """
    missing = [a for a in lattice.nodes if a not in values]
    if missing:
        raise LatticeError(f"values missing for node {missing[0].name}")
    v = np.array([float(values[a]) for a in lattice.nodes])
    pi = invert_array(lattice, v)
    if verify_tol is not None:
        for j in range(len(v)):
            below = lattice.strict_lower(j)
            resum = pi[j] + (pi[below].sum() if below.size else 0.0)
            if abs(resum - v[j]) > verify_tol:
                raise ValueError(
                    f"moebius inversion failed re-summation at node "
                    f"{lattice.nodes[j].name}: {resum} != {v[j]}")
    return {a: float(pi[i]) for i, a in enumerate(lattice.nodes)}


def _log2(x: Mass) -> float:
    # an exact type test: isinstance against Fraction's ABC metaclass costs
    # every float an ABC check
    if type(x) is Fraction:
        if x <= 0:
            raise BoundaryError("log of a nonpositive probability")
        return math.log2(x.numerator) - math.log2(x.denominator)
    if x <= 0.0:
        raise BoundaryError("log of a nonpositive probability")
    return math.log2(x)


def _as_masses(x: np.ndarray, den: int | None) -> np.ndarray:
    """Kernel sums as Python masses: floats, or reduced Fractions over den."""
    return x if den is None else np.frompyfunc(Fraction, 2, 1)(x.astype(object), den)


def log_parts(sums: np.ndarray, p_t: np.ndarray, den: int | None = None,
              ) -> tuple[np.ndarray, np.ndarray]:
    """i+ = -log2 P(E_u) and i- = log2 P(t) - log2 P(t & E_u), R x U each,
    from the sums and P(t) of ``dist.plan_event_masses`` (numerators over
    ``den`` if given). Float node masses take ``np.log2``, the rest ``_log2``
    (exact ones per distinct reduced Fraction); a nonpositive mass raises, NaN is NaN."""
    if den is None and (sums <= 0).any():
        raise BoundaryError("log of a nonpositive probability")
    if den is None:
        logs = np.log2(sums)
    else:
        nums, where = np.unique(sums, return_inverse=True)
        logs = np.array([_log2(Fraction(v, den)) for v in nums.tolist()])
        logs = logs[where].reshape(sums.shape)
    log_t = np.array([_log2(x) for x in _as_masses(p_t, den).tolist()])
    return -logs[..., 0], log_t[:, None] - logs[..., 1]


def evaluate(up_sets: np.ndarray, plan: EventPlan, masses: np.ndarray,
             den: int | None = None, rows: np.ndarray | None = None,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``dist.plan_event_masses`` call at a plan's R realizations, whose
    unions must all have positive mass (else a ``BoundaryError`` names the
    first realization with one that has not), and ``log_parts`` of the
    unions ``rows`` (all by default). Returns their sums (R x U x 2), P(t)
    (R) and parts[u, r] = i+ + 1j i- (U x R), which ``run_passes`` inverts
    in one call: numpy subtracts real and imaginary parts separately, so
    each part gets the bits it gets alone.
    """
    sums, p_t = plan_event_masses(up_sets, plan, masses)
    bad = (sums <= 0).any(axis=(1, 2))
    if bad.any():
        t, *s = plan.at[bad.argmax()].tolist()
        raise BoundaryError(f"an event at {Realization(t, tuple(s))} has "
                            "nonpositive mass")
    if rows is not None:
        sums = sums.take(rows, axis=1)
    plus, minus = log_parts(sums, p_t, den)
    parts = np.empty(plus.shape[::-1], dtype=complex)
    parts.real, parts.imag = plus.T, minus.T
    return sums, p_t, parts


def closed_form_plan(lattice: RedundancyLattice, j: int, p_j: Mass,
                     child_probs: Sequence[Mass],
                     ) -> tuple[int, Mass, list[tuple[float, int]]]:
    """Inclusion-exclusion terms of node j's atom (``closed_form_atom``).

    ``child_probs`` are the event probabilities of ``children_table[j]``,
    ordered by (probability, node index); nodes are stored in canonical
    order, so the index breaks ties as that order does. Returns g_1,
    d_1 = P(g_1) - p_j and ((-1)^|B|, meet(B)) for every subset B of the
    other children in bit order; meet(empty) is j.
    """
    (p1, g1), *rest = sorted(zip(child_probs, lattice.children_table[j]))
    signs = [1.0]
    for _ in rest:
        signs += [-s for s in signs]
    return g1, p1 - p_j, list(zip(signs, lattice.subset_meets(j, [c for _, c in rest])))


def closed_form_atom(lattice: RedundancyLattice, alpha: Antichain,
                     event_prob: Callable[[Antichain], Mass]) -> float:
    """Evaluate one atom directly from event probabilities of child meets.

    With children g_1..g_k of ``alpha`` ordered by increasing event
    probability and d_1 = P(g_1) - P(alpha), the atom is

        sum over B subset of {g_2..g_k} of (-1)^|B| * log2((P(^B) + d_1) / P(^B))

    where the meet over the empty subset is ``alpha`` itself. Probability
    mass differences are preserved along child meets, so every numerator
    P(^B) + d_1 equals the probability of an actual lattice event and the
    result matches the Moebius recursion. Ties among child probabilities
    are broken by canonical node order (``closed_form_plan``); the value is
    tie-invariant.

    ``event_prob`` must be positive on alpha and on all child meets;
    a zero raises BoundaryError.
    """
    return closed_form_atom_at(lattice, lattice.index(alpha),
                               lambda i: event_prob(lattice.nodes[i]))


def closed_form_atom_at(lattice: RedundancyLattice, j: int,
                        prob_at: Callable[[int], Mass]) -> float:
    """``closed_form_atom`` of node j; ``prob_at(i)`` is P(``lattice.nodes[i]``)."""
    def prob(i: int) -> Mass:
        p = prob_at(i)
        if p <= 0:
            raise BoundaryError(f"event probability of {lattice.nodes[i].name} "
                                "is not positive")
        return p

    p_alpha = prob(j)
    kids = lattice.children_table[j]
    if not kids:
        return -_log2(p_alpha)
    _, d1, terms = closed_form_plan(lattice, j, p_alpha, [prob(c) for c in kids])
    total = 0.0
    for sign, m in terms:
        p = p_alpha if m == j else prob(m)
        total += sign * (_log2(p + d1) - _log2(p))
    return total
