"""Analytic derivatives of the shared-information quantities on the simplex.

The joint pmf is treated as a raw coordinate vector over the full outcome
grid (target axis first). All quantities here are smooth functions of
event mass sums, so their partials are sums of indicator/mass-ratio terms;
normalization is *not* enforced during differentiation, which keeps the
central-difference oracle unambiguous: perturb one raw coordinate, do not
renormalize. The simplex-tangent projection appears only in the optimizer.

Derivatives per coordinate k (natural log divided out as 1/ln 2):

    d i+ / dp_k = -[k in E] / (P(E) ln2)
    d i- / dp_k =  [k in T] / (P(T) ln2) - [k in T&E] / (P(T&E) ln2)

Event masses and the indicators [k in E] come from the event-mass kernel
``dist.union_event_masses``, run over the grid cells with the raw
coordinates as masses, so they are matrix products rather than correctly
rounded sums. Atom gradients come either from Moebius inversion of the
gradient rows above (``lattice.invert_array``, the "recursion" path) or
from the inclusion-exclusion closed form, whose terms are logs of event
masses as well. The two paths agree wherever the closed form's child
ordering is stable; at ties the recursion value is used and a warning is
emitted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dist import JointDistribution, Realization, union_event_masses
from .lattice import (Antichain, BoundaryError, RedundancyLattice,
                      enumerate_lattice, invert_array)

_LN2 = math.log(2.0)

DEFAULT_FD_STEP = 1e-6
DEFAULT_INTERIOR_MARGIN = 1e-9
DEFAULT_LEARNING_RATE = 0.05
GRAD_NORM_STOP = 1e-8
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SimplexPoint:
    """Strictly positive pmf over the full outcome grid (target axis first)."""

    shape: tuple[int, ...]
    p: np.ndarray
    epsilon: float = DEFAULT_INTERIOR_MARGIN

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float).reshape(-1).copy()
        if arr.size != int(np.prod(self.shape)):
            raise ValueError("pmf length does not match the outcome grid")
        if arr.min() < self.epsilon:
            raise BoundaryError(
                f"not an interior point: min mass {arr.min()} < {self.epsilon}")
        if abs(arr.sum() - 1.0) > 1e-9:
            raise ValueError(f"masses sum to {arr.sum()!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    @property
    def n_sources(self) -> int:
        return len(self.shape) - 1


def grid_shape(d: JointDistribution) -> tuple[int, ...]:
    return (len(d.target_alphabet),) + tuple(len(a) for a in d.source_alphabets)


def grid_from_distribution(d: JointDistribution) -> np.ndarray:
    """Flat raw-mass vector over the full grid; zeros where unsupported."""
    shape = grid_shape(d)
    p = np.zeros(int(np.prod(shape)))
    for r, m in zip(d.support, d.masses):
        p[int(np.ravel_multi_index((r.t, *r.s), shape))] = float(m)
    return p


def simplex_point_from_distribution(d: JointDistribution,
                                    epsilon: float = DEFAULT_INTERIOR_MARGIN,
                                    ) -> SimplexPoint:
    return SimplexPoint(grid_shape(d), grid_from_distribution(d), epsilon)


def interior_mix(d: JointDistribution, lam: float,
                 epsilon: float = DEFAULT_INTERIOR_MARGIN) -> SimplexPoint:
    """Mix with the uniform grid distribution to move off the boundary."""
    shape = grid_shape(d)
    p = grid_from_distribution(d)
    return SimplexPoint(shape, (1 - lam) * p + lam / p.size, epsilon)


def random_interior(shape: Sequence[int], rng: np.random.Generator,
                    low: float = 0.2) -> SimplexPoint:
    """Random point bounded away from the boundary (masses >= low/size)."""
    raw = rng.uniform(low, 1.0, size=int(np.prod(tuple(shape))))
    return SimplexPoint(tuple(shape), raw / raw.sum())


@lru_cache(maxsize=8)
def _grid_points(shape: tuple[int, ...]) -> np.ndarray:
    """Every grid cell as a row (t, s_1, ..., s_n), in flat index order."""
    return np.indices(shape).reshape(len(shape), -1).T


class _Events(NamedTuple):
    """The kernel's output at one realization, over the grid cells.

    ``inside[j]`` marks the cells of node j's union event and ``target``
    those of the target symbol; ``masses[j]`` is (P(E_j), P(t & E_j)) and
    ``p_t`` is P(t), all under the raw coordinates.
    """

    lattice: RedundancyLattice
    inside: np.ndarray
    target: np.ndarray
    masses: np.ndarray
    p_t: float


def _events(p: np.ndarray, shape: tuple[int, ...], r: Realization) -> _Events:
    lat = enumerate_lattice(len(shape) - 1)
    points = _grid_points(shape)
    inside, masses, p_t = union_event_masses(lat.up_sets, points, p, r)
    if masses.min() <= 0:
        raise BoundaryError(f"an event at {r} has nonpositive mass")
    return _Events(lat, inside, points[:, 0] == r.t, masses, float(p_t))


def _select(parts: np.ndarray, which: str) -> np.ndarray:
    """The plus column, the minus column, or their difference for "net"."""
    if which == "net":
        return parts[:, 0] - parts[:, 1]
    return parts[:, 0 if which == "plus" else 1]


# ---------------------------------------------------------------------------
# Values and gradients on raw coordinate vectors.
# ---------------------------------------------------------------------------

def _i_parts(ev: _Events) -> np.ndarray:
    """Columns i+ and i- over the nodes."""
    return np.stack([-np.log2(ev.masses[:, 0]),
                     math.log2(ev.p_t) - np.log2(ev.masses[:, 1])], axis=1)


def _pi_parts(ev: _Events) -> np.ndarray:
    """Columns pi+ and pi- over the nodes."""
    return invert_array(ev.lattice, _i_parts(ev))


def _grad_i_all(ev: _Events, which: str) -> np.ndarray:
    """Gradients of i+ / i- / i for every node, rows in node order."""
    rows = np.zeros(ev.inside.shape)
    if which in ("plus", "net"):
        rows -= ev.inside / (ev.masses[:, :1] * _LN2)
    if which in ("minus", "net"):
        sign = -1.0 if which == "net" else 1.0
        rows += sign * (ev.target / (ev.p_t * _LN2)
                        - (ev.inside & ev.target) / (ev.masses[:, 1:] * _LN2))
    return rows


def _grad_pi_all(ev: _Events, which: str) -> np.ndarray:
    """Recursion-path gradients for every node, rows in node order."""
    return invert_array(ev.lattice, _grad_i_all(ev, which))


def _grad_pi_closed(ev: _Events, j: int, which: str) -> np.ndarray:
    """Closed-form-path gradient for one node (plus or minus only).

    Raises BoundaryError-adjacent ties to the caller via ValueError so it
    can fall back to the recursion path.
    """
    lat = ev.lattice
    kids = lat.children_table[j]
    if not kids:
        return _grad_i_all(ev, which)[j]
    col = 0 if which == "plus" else 1
    ind = (ev.inside if which == "plus" else ev.inside & ev.target).astype(float)
    mass = ev.masses[:, col]
    probs = [(mass[c], lat.nodes[c].sort_key(), c) for c in kids]
    vals = sorted(v for v, _, _ in probs)
    if any(b - a <= TIE_TOLERANCE for a, b in zip(vals, vals[1:])):
        raise ValueError("tied child event probabilities")
    probs.sort()
    gamma1 = probs[0][2]
    others = [c for _, _, c in probs[1:]]
    d1 = probs[0][0] - mass[j]

    g = np.zeros(ind.shape[1])
    for bits in range(1 << len(others)):
        members = [others[i] for i in range(len(others)) if bits >> i & 1]
        m = j
        if members:
            m = members[0]
            for c in members[1:]:
                m = lat.meet_idx(m, c)
        sign = -1.0 if bin(bits).count("1") % 2 else 1.0
        g += sign * ((ind[m] + ind[gamma1] - ind[j]) / (mass[m] + d1)
                     - ind[m] / mass[m]) / _LN2
    return g


@dataclass(frozen=True)
class GradientRecord:
    """Partials of one quantity w.r.t. every raw grid coordinate."""

    quantity: str                 # e.g. "i_plus", "pi_net", "avg_pi_plus"
    node: Antichain
    realization: Realization | None
    shape: tuple[int, ...]
    partials: np.ndarray

    def by_cell(self) -> dict[tuple[int, ...], float]:
        return {tuple(idx): float(v)
                for idx, v in zip(np.ndindex(*self.shape), self.partials)}


def _check_point(point: SimplexPoint, alpha: Antichain) -> None:
    if alpha.n != point.n_sources:
        raise ValueError(f"antichain over {alpha.n} sources, grid has "
                         f"{point.n_sources}")


def grad_i_sx_parts(point: SimplexPoint, r: Realization, alpha: Antichain,
                    which: str = "net") -> GradientRecord:
    """Analytic gradient of i+ / i- / i at one realization and node."""
    _check_point(point, alpha)
    ev = _events(point.p, point.shape, r)
    g = _grad_i_all(ev, which)[ev.lattice.index(alpha)]
    return GradientRecord(f"i_{which}", alpha, r, point.shape, g)


def grad_atom(point: SimplexPoint, r: Realization, alpha: Antichain,
              which: str = "net", path: str = "auto") -> GradientRecord:
    """Analytic gradient of an atom.

    ``path`` is "closed" (inclusion-exclusion chain rule), "recursion"
    (signed sum of i-part gradients over the downset), or "auto": the
    closed form with a recursion fallback when child event probabilities
    tie, in which case a warning is emitted — the ordering in the closed
    form is not differentiable across a tie, the measure itself is.
    """
    _check_point(point, alpha)
    ev = _events(point.p, point.shape, r)
    j = ev.lattice.index(alpha)
    if path == "recursion":
        g = _grad_pi_all(ev, which)[j]
        return GradientRecord(f"pi_{which}", alpha, r, point.shape, g)
    try:
        if which == "net":
            g = _grad_pi_closed(ev, j, "plus") - _grad_pi_closed(ev, j, "minus")
        else:
            g = _grad_pi_closed(ev, j, which)
    except ValueError:
        if path == "closed":
            raise
        warnings.warn(f"tied child event probabilities at {alpha.name}; "
                      "using the recursion-path gradient", RuntimeWarning,
                      stacklevel=2)
        g = _grad_pi_all(ev, which)[j]
    return GradientRecord(f"pi_{which}", alpha, r, point.shape, g)


def _support_realizations(shape: tuple[int, ...],
                          mask: np.ndarray | None) -> list[tuple[int, Realization]]:
    out = []
    for k, idx in enumerate(np.ndindex(*shape)):
        if mask is None or mask[k]:
            out.append((k, Realization(t=idx[0], s=tuple(idx[1:]))))
    return out


def average_atom_value(p: np.ndarray, shape: tuple[int, ...], alpha: Antichain,
                       which: str = "net",
                       support: np.ndarray | None = None) -> float:
    """Mass-weighted atom average over the grid (or a support mask)."""
    lat = enumerate_lattice(len(shape) - 1)
    j = lat.index(alpha)
    total = 0.0
    for k, r in _support_realizations(shape, support):
        total += p[k] * _select(_pi_parts(_events(p, shape, r)), which)[j]
    return total


def grad_average(point: SimplexPoint, alpha: Antichain,
                 which: str = "net") -> GradientRecord:
    """Gradient of the averaged atom: weight term plus measure term."""
    _check_point(point, alpha)
    g = _grad_average_raw(point.p, point.shape, alpha, which, None)
    return GradientRecord(f"avg_pi_{which}", alpha, None, point.shape, g)


def _grad_average_raw(p: np.ndarray, shape: tuple[int, ...], alpha: Antichain,
                      which: str, support: np.ndarray | None) -> np.ndarray:
    lat = enumerate_lattice(len(shape) - 1)
    j = lat.index(alpha)
    g = np.zeros_like(p)
    for k, r in _support_realizations(shape, support):
        ev = _events(p, shape, r)
        g[k] += _select(_pi_parts(ev), which)[j]     # d weight / dp_k
        g += p[k] * _grad_pi_all(ev, which)[j]       # weight * d atom / dp
    return g


# ---------------------------------------------------------------------------
# Finite differences.
# ---------------------------------------------------------------------------

def central_difference(f: Callable[[np.ndarray], float], p: np.ndarray,
                       step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central differences on raw coordinates, no renormalization."""
    g = np.zeros_like(p)
    for k in range(p.size):
        up = p.copy()
        up[k] += step
        down = p.copy()
        down[k] -= step
        g[k] = (f(up) - f(down)) / (2 * step)
    return g


def fd_mismatch(analytic: np.ndarray, fd: np.ndarray,
                rel_tol: float = 1e-5, abs_tol: float = 1e-7,
                small: float = 1e-2) -> float:
    """Worst tolerance-normalized deviation (<= 1 means within tolerance).

    Partials below ``small`` in magnitude are held to the absolute
    tolerance, everything else to the relative one.
    """
    worst = 0.0
    for a, b in zip(analytic, fd):
        err = abs(a - b)
        bound = abs_tol if abs(a) < small else rel_tol * abs(a)
        worst = max(worst, err / bound)
    return worst


def pointwise_value(p: np.ndarray, shape: tuple[int, ...], r: Realization,
                    alpha: Antichain, quantity: str, which: str) -> float:
    """Raw-vector evaluator matching the gradient conventions.

    ``p`` need not be normalized; finite-difference oracles call this on
    singly-perturbed coordinate vectors.
    """
    if quantity not in ("i", "pi"):
        raise ValueError("quantity must be 'i' or 'pi'")
    ev = _events(p, shape, r)
    parts = _i_parts(ev) if quantity == "i" else _pi_parts(ev)
    return float(_select(parts, which)[ev.lattice.index(alpha)])


# ---------------------------------------------------------------------------
# Projected gradient optimization on the simplex interior.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryStep:
    step: int
    point: np.ndarray
    objective: float
    grad_norm: float


def _project_step(x: np.ndarray, g: np.ndarray, lr: float,
                  epsilon: float) -> np.ndarray:
    x = x + lr * (g - g.mean())
    # clip to the interior margin; renormalize over the unclipped block so
    # clipped coordinates stay exactly at epsilon and the total is exactly 1
    floored = x < epsilon
    for _ in range(x.size):
        x = np.where(floored, epsilon, x)
        free = ~floored
        budget = 1.0 - floored.sum() * epsilon
        x[free] *= budget / x[free].sum()
        newly = free & (x < epsilon)
        if not newly.any():
            break
        floored |= newly
    return x


def optimize_atom(start: SimplexPoint, alpha: Antichain, which: str = "net",
                  maximize: bool = True, steps: int = 100,
                  learning_rate: float = DEFAULT_LEARNING_RATE,
                  grad_tol: float = GRAD_NORM_STOP) -> list[TrajectoryStep]:
    """Projected gradient ascent/descent of an averaged atom.

    Each iteration projects the raw gradient onto the sum-zero tangent,
    steps, clips to the interior margin and renormalizes. The trajectory
    (including the start) is returned; iteration stops after ``steps`` or
    once the projected-gradient norm drops below ``grad_tol``.
    """
    _check_point(start, alpha)
    sign = 1.0 if maximize else -1.0
    x = start.p.copy()
    traj = []
    for it in range(steps + 1):
        obj = average_atom_value(x, start.shape, alpha, which)
        g = sign * _grad_average_raw(x, start.shape, alpha, which, None)
        g_proj = g - g.mean()
        norm = float(np.linalg.norm(g_proj))
        traj.append(TrajectoryStep(it, x.copy(), obj, norm))
        if it == steps or norm < grad_tol:
            break
        x = _project_step(x, g, learning_rate, start.epsilon)
    return traj


def optimize_atom_mechanism_fixed(mechanism: np.ndarray, q0: np.ndarray,
                                  shape: tuple[int, ...], alpha: Antichain,
                                  which: str = "net", maximize: bool = True,
                                  steps: int = 100,
                                  learning_rate: float = DEFAULT_LEARNING_RATE,
                                  epsilon: float = DEFAULT_INTERIOR_MARGIN,
                                  grad_tol: float = GRAD_NORM_STOP,
                                  ) -> list[TrajectoryStep]:
    """Optimize over the input block with the channel p(t|s) held fixed.

    ``mechanism`` is the flat conditional grid p(t|s) (columns over the
    target axis sum to 1), ``q0`` the starting source pmf. The joint is
    the product p(t,s) = p(t|s) q(s); gradients chain through it, so only
    the source block moves. Cells where the mechanism is zero stay zero;
    pointwise terms are evaluated on the fixed support only.
    """
    n_t = shape[0]
    src_size = int(np.prod(shape[1:]))
    M = np.asarray(mechanism, dtype=float).reshape(n_t, src_size)
    col = M.sum(axis=0)
    if not np.allclose(col, 1.0, atol=1e-9):
        raise ValueError("mechanism columns must sum to 1")
    q = np.asarray(q0, dtype=float).reshape(-1).copy()
    if q.size != src_size:
        raise ValueError("source pmf length does not match the grid")
    if q.min() < epsilon:
        raise BoundaryError("source pmf is not interior")
    q /= q.sum()
    support = (M.reshape(-1) > 0)

    sign = 1.0 if maximize else -1.0
    traj = []
    for it in range(steps + 1):
        joint = (M * q[None, :]).reshape(-1)
        obj = average_atom_value(joint, shape, alpha, which, support)
        g_joint = _grad_average_raw(joint, shape, alpha, which, support)
        g_q = sign * (M * g_joint.reshape(n_t, src_size)).sum(axis=0)
        g_proj = g_q - g_q.mean()
        norm = float(np.linalg.norm(g_proj))
        traj.append(TrajectoryStep(it, joint.copy(), obj, norm))
        if it == steps or norm < grad_tol:
            break
        q = _project_step(q, g_q, learning_rate, epsilon)
    return traj


def mechanism_from_distribution(d: JointDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Split a joint into (p(t|s) grid, p(s) vector); needs p(s) > 0."""
    shape = grid_shape(d)
    joint = grid_from_distribution(d).reshape(shape[0], -1)
    q = joint.sum(axis=0)
    if q.min() <= 0:
        raise BoundaryError("some source outcome has zero probability")
    return (joint / q[None, :]).reshape(-1), q
