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

Agreement basis. Cell k lies in the union event E_u of realization r iff
the mask c = agree(k, r) of the sources on which k agrees with r is in the
up-set of u, so [k in E_u] = up_sets[u, c]. An atom is pi_j = sum_u
mu(u, j) i_u over node j's Moebius support, the 2^k meets of subsets of
its k children, where mu(., j) = +-1: ``lattice.node_passes`` gives those
``rows`` (j first) and their ``signs``. Its partials therefore depend on
k only through c and [t_k = t_r]:

    d pi+_j / dp_k = W+[c],  W+ = -(signs / P(E)) @ up_sets[rows] / ln2
    d pi-_j / dp_k = [t_k = t_r] W-[c],
                     W- = -(signs / P(T&E)) @ up_sets[rows] / ln2
                          + sum(signs) / (P(T) ln2)

one product and one gather per realization, with no inversion of gradient
rows; an i-part is the same on the one-row plan of j with sign 1. The
route is exact at ties, where the inclusion-exclusion closed form
(``grad_atom_via_closed_form``, kept as the independent check) has no
stable child order.

Plans. What an evaluation reads of the grid alone is made on the first
evaluation and kept: per grid shape and cell set, the kernel's plan
(``dist.event_plan``: agreement masks, target matches and the
realizations' rows, which name one in a ``BoundaryError``) and the mask
bins that are the gather indices above, and per node, its
``node_passes``: its rows, their signs and one pass pair per row but j.
A plan holds nothing of the pmf. An optimizer run reuses one grid plan,
so 2 are kept; besides its rows, each holds 17 bytes per (realization,
cell), 17 kB on the binary n = 4 grid and 9 MB on a (3,) * 6 one, about
what one evaluation's gradient rows take while it runs. 16 node plans
are kept, at 16 bytes per row and per pair; the largest, that of an
n = 5 node with 10 children (1,024 rows, 1,023 pairs), is 33 kB, so
they hold at most 0.53 MB.

Numerics. One ``lattice.evaluate`` call on the plan, for all realizations
of an evaluation, gives the event masses (cell masses binned by agreement
mask in grid order, one 2^n-term product per realization over every node,
with the lattice's ``kernel_up_sets``), checks that each is positive, and
takes the logs of the plan's rows' masses with ``lattice.log_parts`` as for
``measures``. One ``run_passes`` call on the complex pairs i+ + 1j i- of
those rows makes the subtractions that ``invert_array`` makes on the way to
node j, on the same operands in the same order, so the bits are those of
inverting the whole lattice; no value depends on the other realizations,
and averages are summed sequentially in grid order. Gradients are
contracted over the plan's rows only, so they differ from inverting the
gradient rows in the order of summation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .dist import EventPlan, JointDistribution, Realization, event_plan
from .lattice import (Antichain, BoundaryError, closed_form_plan,
                      enumerate_lattice, evaluate, node_passes, run_passes)

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
        if np.isnan(arr).any():
            raise ValueError(f"pmf coordinate {np.isnan(arr).argmax()} is NaN")
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


def _read_only(*arrays: np.ndarray) -> None:
    """Cached plans are shared by every later evaluation: none may write them."""
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=2)
def _grid_plan(shape: tuple[int, ...], cells: bytes) -> tuple[EventPlan, np.ndarray]:
    """The kernel's plan for the realizations on the grid cells ``cells``
    (the bytes of an intp vector) over every cell of the grid, and the
    gather index bins[r, k] = r * 2^n + agree[r, k] of cell k's mask in a
    flat table of one 2^n-row per realization."""
    points = np.indices(shape).reshape(len(shape), -1).T
    plan = event_plan(points, points[np.frombuffer(cells, dtype=np.intp)])
    bins = plan.agree + (np.arange(len(plan.agree)) << (len(shape) - 1))[:, None]
    _read_only(plan.agree, plan.same_target, plan.at, bins)
    return plan, bins


@lru_cache(maxsize=16)
def _node_plan(n: int, j: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Node j's atom plan: its ``node_passes``, read-only."""
    rows, passes, signs = node_passes(enumerate_lattice(n), j)
    _read_only(rows, signs, *(x for pair in passes for x in pair))
    return rows, tuple(passes), signs


def _check_which(which: str) -> None:
    if which not in ("plus", "minus", "net"):
        raise ValueError(f"which must be 'plus', 'minus' or 'net', got {which!r}")


def _cell(shape: tuple[int, ...], r: Realization) -> int:
    return int(np.ravel_multi_index((r.t, *r.s), shape))


# ---------------------------------------------------------------------------
# Values and gradients on raw coordinate vectors.
# ---------------------------------------------------------------------------

def _evaluate(p: np.ndarray, shape: tuple[int, ...], cells: np.ndarray, j: int,
              quantity: str, which: str) -> tuple[np.ndarray, np.ndarray]:
    """Node j's i-part ("i") or atom ("pi") at the realizations on the grid
    ``cells``, from its node plan (for an i-part, the one row j, no pass,
    sign 1), and its partials in the agreement basis (module docstring).

    Returns ``(values, rows)``: values[r] at the realization on cells[r],
    and rows[r, k], its partial with respect to raw coordinate k.
    """
    _check_which(which)
    lat = enumerate_lattice(len(shape) - 1)
    rows, passes, signs = (_node_plan(lat.n, j) if quantity == "pi"
                           else (np.array([j]), (), np.ones(1)))
    plan, bins = _grid_plan(shape, np.asarray(cells, dtype=np.intp).tobytes())
    sums, p_t, parts = evaluate(lat.kernel_up_sets(p), plan, p, rows=rows)
    pi = run_passes(parts, passes)[0]
    plus, minus = pi.real, pi.imag

    p_e, p_te = sums.transpose(2, 1, 0)
    up = lat.float_up_sets[rows]
    d_plus = (-(signs[:, None] / p_e).T @ up / _LN2).take(bins)
    w_minus = (-(signs[:, None] / p_te).T @ up / _LN2
               + (signs.sum() / (p_t * _LN2))[:, None])
    d_minus = np.where(plan.same_target, w_minus.take(bins), 0.0)
    if which == "net":
        return plus - minus, d_plus - d_minus
    return (plus, d_plus) if which == "plus" else (minus, d_minus)


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


def _node_index(p: np.ndarray, shape: tuple[int, ...], alpha: Antichain) -> int:
    """``alpha``'s lattice index, once ``alpha`` and the pmf ``p`` fit the grid."""
    if alpha.n != len(shape) - 1:
        raise ValueError(f"antichain over {alpha.n} sources, grid has "
                         f"{len(shape) - 1}")
    if np.size(p) != math.prod(shape):
        raise ValueError("pmf length does not match the outcome grid")
    return enumerate_lattice(len(shape) - 1).index(alpha)


def grad_i_sx_parts(point: SimplexPoint, r: Realization, alpha: Antichain,
                    which: str = "net") -> GradientRecord:
    """Analytic gradient of i+ / i- / i at one realization and node."""
    j = _node_index(point.p, point.shape, alpha)
    _, rows = _evaluate(point.p, point.shape, [_cell(point.shape, r)], j, "i", which)
    return GradientRecord(f"i_{which}", alpha, r, point.shape, rows[0])


def grad_atom(point: SimplexPoint, r: Realization, alpha: Antichain,
              which: str = "net") -> GradientRecord:
    """Analytic gradient of an atom: the agreement-basis contraction of the
    i-part gradients of its Moebius support, weighted by mu (module
    docstring), exact at ties."""
    j = _node_index(point.p, point.shape, alpha)
    g = _evaluate(point.p, point.shape, [_cell(point.shape, r)], j, "pi", which)[1][0]
    return GradientRecord(f"pi_{which}", alpha, r, point.shape, g)


def grad_atom_via_closed_form(point: SimplexPoint, r: Realization,
                              alpha: Antichain, which: str = "net") -> GradientRecord:
    """``grad_atom`` through the inclusion-exclusion chain rule; an
    independent check, like ``measures.atom_via_closed_form``.

    Raises ValueError when child event probabilities tie: the ordering in
    the closed form is not differentiable across a tie, the measure is.
    """
    j = _node_index(point.p, point.shape, alpha)
    _check_which(which)
    if which == "net":
        plus, minus = (grad_atom_via_closed_form(point, r, alpha, w).partials
                       for w in ("plus", "minus"))
        return GradientRecord("pi_net", alpha, r, point.shape, plus - minus)
    lat = enumerate_lattice(point.n_sources)
    plan, _ = _grid_plan(point.shape, np.intp(_cell(point.shape, r)).tobytes())
    (sums,), (p_t,), _ = evaluate(lat.kernel_up_sets(point.p), plan, point.p)
    target = plan.same_target[0]
    ind = lat.up_sets[:, plan.agree[0]]
    ind = (ind if which == "plus" else ind & target).astype(float)
    mass = sums[:, 0 if which == "plus" else 1]
    kids = lat.children_table[j]
    probs = [mass[c] for c in kids]
    vals = sorted(probs)
    if any(b - a <= TIE_TOLERANCE for a, b in zip(vals, vals[1:])):
        raise ValueError("tied child event probabilities")
    if not kids:
        g = -ind[j] / (mass[j] * _LN2)
        g = g + target / (p_t * _LN2) if which == "minus" else g
    else:
        gamma1, d1, terms = closed_form_plan(lat, j, mass[j], probs)
        g = np.zeros(ind.shape[1])
        for sign, m in terms:
            g += sign * ((ind[m] + ind[gamma1] - ind[j]) / (mass[m] + d1)
                         - ind[m] / mass[m]) / _LN2
    return GradientRecord(f"pi_{which}", alpha, r, point.shape, g)


def _average_and_grad(p: np.ndarray, shape: tuple[int, ...], alpha: Antichain,
                      which: str, support: np.ndarray | None,
                      ) -> tuple[float, np.ndarray]:
    """Mass-weighted atom average over the grid (or a support mask) and its
    gradient, weight term plus measure term, from one evaluation."""
    p = np.asarray(p, dtype=float)
    j = _node_index(p, shape, alpha)
    if support is not None and np.shape(support) != (p.size,):
        raise ValueError(f"support mask of shape {np.shape(support)} does not "
                         f"match the {p.size} cells of the outcome grid")
    cells = np.arange(p.size) if support is None else np.flatnonzero(support)
    values, rows = _evaluate(p, shape, cells, j, "pi", which)
    total = 0.0
    for pk, v in zip(p[cells].tolist(), values.tolist()):
        total += pk * v
    g = p[cells] @ rows
    g[cells] += values
    return total, g


def average_atom_value(p: np.ndarray, shape: tuple[int, ...], alpha: Antichain,
                       which: str = "net",
                       support: np.ndarray | None = None) -> float:
    """Mass-weighted atom average over the grid (or a support mask)."""
    return _average_and_grad(p, shape, alpha, which, support)[0]


def grad_average(point: SimplexPoint, alpha: Antichain,
                 which: str = "net") -> GradientRecord:
    """Gradient of the averaged atom: weight term plus measure term."""
    g = _average_and_grad(point.p, point.shape, alpha, which, None)[1]
    return GradientRecord(f"avg_pi_{which}", alpha, None, point.shape, g)


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
    tolerance, everything else to the relative one. A pair that is not
    finite (NaN, or inf even against inf) reads as ``inf``.
    """
    a, b = np.asarray(analytic, dtype=float), np.asarray(fd, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf
    bound = np.where(np.abs(a) < small, abs_tol, rel_tol * np.abs(a))
    return float((np.abs(a - b) / bound).max(initial=0.0))


def pointwise_value(p: np.ndarray, shape: tuple[int, ...], r: Realization,
                    alpha: Antichain, quantity: str, which: str) -> float:
    """Raw-vector evaluator matching the gradient conventions.

    ``p`` need not be normalized; finite-difference oracles call this on
    singly-perturbed coordinate vectors.
    """
    if quantity not in ("i", "pi"):
        raise ValueError("quantity must be 'i' or 'pi'")
    p = np.asarray(p, dtype=float)
    j = _node_index(p, shape, alpha)
    return float(_evaluate(p, shape, [_cell(shape, r)], j, quantity, which)[0][0])

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


def _ascend(x: np.ndarray, evaluate: Callable, maximize: bool, steps: int,
            learning_rate: float, epsilon: float,
            grad_tol: float) -> list[TrajectoryStep]:
    """Projected gradient ascent (descent unless ``maximize``) from ``x``,
    where ``evaluate(x)`` gives the joint pmf at x, the objective and its
    gradient in x's coordinates: each step moves along the gradient's
    sum-zero projection, clips to the interior margin and renormalizes
    (``_project_step``). The trajectory (start included) ends after
    ``steps`` or below the projected-gradient norm ``grad_tol``."""
    sign = 1.0 if maximize else -1.0
    traj = []
    for it in range(steps + 1):
        joint, obj, g = evaluate(x)
        g = sign * g
        norm = float(np.linalg.norm(g - g.mean()))
        traj.append(TrajectoryStep(it, joint, obj, norm))
        if it == steps or norm < grad_tol:
            break
        x = _project_step(x, g, learning_rate, epsilon)
    return traj


def optimize_atom(start: SimplexPoint, alpha: Antichain, which: str = "net",
                  maximize: bool = True, steps: int = 100,
                  learning_rate: float = DEFAULT_LEARNING_RATE,
                  grad_tol: float = GRAD_NORM_STOP) -> list[TrajectoryStep]:
    """Projected gradient ascent/descent of an averaged atom over the
    whole grid (``_ascend``)."""
    def evaluate(x):
        return (x, *_average_and_grad(x, start.shape, alpha, which, None))

    return _ascend(start.p.copy(), evaluate, maximize, steps, learning_rate,
                   start.epsilon, grad_tol)


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
    the source block moves (``_ascend``). Cells where the mechanism is zero
    stay zero; pointwise terms are evaluated on the fixed support only.
    """
    _node_index(mechanism, shape, alpha)
    n_t = shape[0]
    src_size = int(np.prod(shape[1:]))
    M = np.asarray(mechanism, dtype=float).reshape(n_t, src_size)
    q = np.asarray(q0, dtype=float).reshape(-1).copy()
    if q.size != src_size:
        raise ValueError("source pmf length does not match the grid")
    for what, x, ok in (("mechanism entry", M.ravel(), np.isfinite(M) & (M >= 0)),
                        ("source pmf coordinate", q, np.isfinite(q))):
        if not ok.all():
            k = (~ok).argmax()
            raise ValueError(f"{what} {k} is {'NaN' if np.isnan(x[k]) else x[k]}")
    if not np.allclose(M.sum(axis=0), 1.0, atol=1e-9):
        raise ValueError("mechanism columns must sum to 1")
    if q.min() < epsilon:
        raise BoundaryError("source pmf is not interior")
    q /= q.sum()
    support = (M.reshape(-1) > 0)

    def evaluate(q):
        joint = (M * q[None, :]).reshape(-1)
        obj, g = _average_and_grad(joint, shape, alpha, which, support)
        return joint, obj, (M * g.reshape(n_t, src_size)).sum(axis=0)

    return _ascend(q, evaluate, maximize, steps, learning_rate, epsilon, grad_tol)


def mechanism_from_distribution(d: JointDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Split a joint into (p(t|s) grid, p(s) vector); needs p(s) > 0."""
    shape = grid_shape(d)
    joint = grid_from_distribution(d).reshape(shape[0], -1)
    q = joint.sum(axis=0)
    if q.min() <= 0:
        raise BoundaryError("some source outcome has zero probability")
    return (joint / q[None, :]).reshape(-1), q
