"""Pointwise and average information quantities on the redundancy lattice.

For a realization (t, s) and an antichain alpha = {a_1..a_m}, the coalition
event of a_j is the cylinder {S_i = s_i for i in a_j}; E_alpha is the union
of coalition events. Everything in this module reduces to probabilities of
E_alpha and of its intersection with the target event:

    informative part      i+ = -log2 P(E_alpha)
    misinformative part   i- =  log2 P(t) - log2 P(t & E_alpha)
    shared information    i  = i+ - i-

Both probabilities come from the event-mass kernel
``dist.plan_event_masses``, one call per table of unions at one
realization, and one in all for each check that scans the support; so do
the self-shared information (one row, which ignores the target) and the
statement channel (one call for all its statements). Exact masses are
summed as integer numerators; float masses are binned by agreement mask in
support order, and each union sums its bins in one product, which is not
correctly rounded. ``lattice.evaluate``, as for ``grad``, makes that call
and takes the logs, giving i+ and i- as one complex pair i+ + 1j i-. The
per-mass logs of the derived forms remain as independent checks.

The per-node increments pi+/pi-/pi are recovered by Moebius inversion of
the pair over the lattice (``lattice.invert_array``, one call for both);
both are nonnegative, pi = pi+ - pi- may not be. Averages weight the
pointwise values by the realization masses over the support; each is the
correctly rounded sum that ``math.fsum`` gives, bit for bit, computed for
all nodes and fields at once by ``fsum_columns`` (a TwoSum cascade with a
rounding certificate; lanes it cannot certify go to ``math.fsum``). A
decomposition keeps its six fields as one read-only 6 x N float block;
the tuple accessors are built on first read. All logarithms are base 2;
every quantity is in bits.

When the distribution is exact (``JointDistribution.exact``: no mass is a
float), pointwise quantities are logs of rationals; for small lattices
(``EXACT_RATIO_NODE_LIMIT``) and masses whose common denominator is at most
``MAX_EXACT_DENOMINATOR`` the exact log-arguments are carried along so
reports can print them (paper-style tables are exact logs of small
fractions). Their atoms are products of the log-arguments raised to the
Moebius function, which ``lattice.node_passes`` gives as each node's
signs over its Moebius support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .dist import (Alphabet, DistributionError, EventPlan, JointDistribution,
                   Mass, Realization, _sum_masses, event_plan, marginal,
                   plan_event_masses, regroup)
from .lattice import (Antichain, LatticeError, RedundancyLattice, _as_masses,
                      _coalition_masks, _log2, closed_form_atom_at,
                      coalition_up_sets, enumerate_lattice, evaluate,
                      invert_array, log_parts, node_passes)

#: Exact rational log-arguments are carried only for lattices this small
#: (beyond n=3 the fractions grow without bound through the recursion), and
#: only while the common denominator of the masses (``mass_array``) is at
#: most ``MAX_EXACT_DENOMINATOR``.
EXACT_RATIO_NODE_LIMIT = 18
MAX_EXACT_DENOMINATOR = 2**64


def _plan(d: JointDistribution, rs: Sequence[Realization],
          ) -> tuple[EventPlan, np.ndarray, int | None]:
    """``evaluate``'s arguments after the up-sets at the support points
    ``rs``: the kernel's plan over d's support, d's masses and their
    denominator (None for float masses)."""
    for r in rs:
        if d.mass(r) == 0:
            raise DistributionError(f"realization {r} not in support")
    masses, den = d.mass_array
    return event_plan(d.support_array, np.array([(r.t, *r.s) for r in rs])), masses, den


def _masses_at(d: JointDistribution, r: Realization, up_sets: np.ndarray,
               ) -> tuple[list[Mass], list[Mass], Mass]:
    """P(E_u) and P(t & E_u) for every up-set row u at r, and P(t)."""
    plan, masses, den = _plan(d, [r])
    sums, p_t = plan_event_masses(up_sets, plan, masses)
    return *_as_masses(sums[0].T, den).tolist(), *_as_masses(p_t, den).tolist()


def _check_alpha(d: JointDistribution, alpha: Antichain) -> np.ndarray:
    """The up-set row of ``alpha``, once it is known to fit ``d``."""
    if alpha.n != d.n_sources:
        raise DistributionError(
            f"antichain over {alpha.n} sources, distribution has {d.n_sources}")
    lat = enumerate_lattice(alpha.n)
    return lat.up_sets[[lat.index(alpha)]]


def _lattice_of(d: JointDistribution,
                lattice: RedundancyLattice | None) -> RedundancyLattice:
    """``lattice`` once it is over d's sources, or the cached lattice."""
    if lattice is None:
        return enumerate_lattice(d.n_sources)
    if lattice.n != d.n_sources:
        raise DistributionError(
            f"lattice over {lattice.n} sources, distribution has {d.n_sources}")
    return lattice


# ---------------------------------------------------------------------------
# Pointwise quantities at a single (realization, node).
# ---------------------------------------------------------------------------

def i_sx_plus(d: JointDistribution, r: Realization, alpha: Antichain) -> float:
    """Informative shared information: -log2 of the union-event probability."""
    return evaluate(_check_alpha(d, alpha), *_plan(d, [r]))[2].real.item()


def i_sx_minus(d: JointDistribution, r: Realization, alpha: Antichain) -> float:
    """Misinformative shared information: log2 P(t) / P(t & union event)."""
    return evaluate(_check_alpha(d, alpha), *_plan(d, [r]))[2].imag.item()


def i_sx(d: JointDistribution, r: Realization, alpha: Antichain) -> float:
    """Signed shared information, the difference of the two parts."""
    part = evaluate(_check_alpha(d, alpha), *_plan(d, [r]))[2].item()
    return part.real - part.imag


def i_sx_conditional_form(d: JointDistribution, r: Realization,
                          alpha: Antichain) -> float:
    """The OR-statement form log2 p(t | some coalition fully matches) / p(t).

    Derived check only; must equal :func:`i_sx` to float precision.
    """
    (p_e,), (p_te,), p_t = _masses_at(d, r, _check_alpha(d, alpha))
    return _log2(p_te) - _log2(p_e) - _log2(p_t)


def i_sx_exclusion_form(d: JointDistribution, r: Realization,
                        alpha: Antichain) -> float:
    """The remove/rescale/compare form over complement-intersection masses.

    Removes the mass excluded by every coalition event, rescales, and
    compares the target mass before and after. Derived check only; equals
    :func:`i_sx` up to the De Morgan identity, which holds exactly for
    rational masses and to float precision otherwise, since the excluded
    masses are summed over the excluded points themselves.
    """
    (p_excl,), (p_t_excl,), p_t = _masses_at(d, r, ~_check_alpha(d, alpha))
    return _log2(p_t - p_t_excl) - _log2(d.total_mass() - p_excl) - _log2(p_t)


def i_sx_parts_from_collections(d: JointDistribution, r: Realization,
                                collections: Sequence[Iterable[int]],
                                ) -> tuple[float, float]:
    """(i+, i-) for a raw, un-normalized list of coalitions.

    The list is used exactly as given (duplicates and supersets allowed),
    which is what the symmetry and monotonicity checks need. A source
    index outside 1..n or an empty coalition raises DistributionError.
    """
    try:
        masks = _coalition_masks(d.n_sources, collections)
    except LatticeError as exc:
        raise DistributionError(str(exc)) from None
    part = evaluate(coalition_up_sets(d.n_sources, [masks]), *_plan(d, [r]))[2].item()
    return part.real, part.imag


def local_mi(d: JointDistribution, r: Realization,
             coalition: Iterable[int]) -> float:
    """Plain pointwise mutual information of one coalition about the target."""
    try:
        masks = _coalition_masks(d.n_sources, [coalition])
    except LatticeError as exc:
        raise DistributionError(str(exc)) from None
    (p_a,), (p_ta,), p_t = _masses_at(d, r, coalition_up_sets(d.n_sources, [masks]))
    return _log2(p_ta) - _log2(p_a) - _log2(p_t)


def self_shared(d: JointDistribution, s: Sequence[int], alpha: Antichain) -> float:
    """Self-shared information of the coalition events at source outcome s.

    Equals -log2 of the union-event probability; nonnegative, and an upper
    bound on i_sx(u : alpha) for every target symbol u. Nonzero even for
    independent sources whenever the union event is not almost sure, which
    is how mechanistic shared information arises. The event ignores the
    target, so its mass is the kernel's at the row (0, *s), which need not
    be a support point.
    """
    up_set = _check_alpha(d, alpha)
    if len(s) != d.n_sources:
        raise DistributionError("source outcome has wrong arity")
    for i, (si, alph) in enumerate(zip(s, d.source_alphabets)):
        if not 0 <= si < len(alph):
            raise DistributionError(f"source {i + 1} index {si} out of range in {tuple(s)}")
    masses, den = d.mass_array
    sums, _ = plan_event_masses(up_set, event_plan(d.support_array, np.array([(0, *s)])),
                                masses)
    return -_log2(_as_masses(sums[:, 0, 0], den).item())


# ---------------------------------------------------------------------------
# Full decompositions.
# ---------------------------------------------------------------------------

#: Rows of ``PointwiseDecomposition.block`` and ``AverageDecomposition.block``.
POINTWISE_FIELDS = ("i_plus", "i_minus", "i", "pi_plus", "pi_minus", "pi")
AVERAGE_FIELDS = ("I_plus", "I_minus", "I", "Pi_plus", "Pi_minus", "Pi")


def _read_only(block: np.ndarray) -> np.ndarray:
    block.flags.writeable = False
    return block


def _row(k: int) -> cached_property:
    """Row ``k`` of the block as a tuple of Python floats, built on first read."""
    return cached_property(lambda self: tuple(self.block[k].tolist()))


class _Decomposition:
    """Lattice accessors, atom lookup and equality (equal fields and blocks)."""

    @property
    def lattice(self) -> RedundancyLattice:
        return enumerate_lattice(self.n)

    @property
    def nodes(self) -> tuple[Antichain, ...]:
        return self.lattice.nodes

    def pi_by_name(self, name: str) -> float:
        """The signed atom (row 5 of ``block``) at the named node."""
        return self.block[5].item(self.lattice.index(self.lattice.node_by_name(name)))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (all(getattr(self, f.name) == getattr(other, f.name)
                    for f in fields(self) if f.name != "block")
                and np.array_equal(self.block, other.block))


@dataclass(frozen=True, eq=False)
class PointwiseDecomposition(_Decomposition):
    """Per-node values at one support realization, in canonical node order.

    ``block`` holds the rows ``POINTWISE_FIELDS`` (6 x N float64, read-only);
    ``i_plus`` ... ``pi`` are its rows as tuples. ``exact_pi_plus`` etc.
    hold the rational log-arguments (value = log2(fraction)) when the
    distribution is exact and the lattice small enough; otherwise None.
    """

    realization: Realization
    weight: Mass
    n: int
    block: np.ndarray
    exact_i_plus: tuple[Fraction, ...] | None = None
    exact_i_minus: tuple[Fraction, ...] | None = None
    exact_pi_plus: tuple[Fraction, ...] | None = None
    exact_pi_minus: tuple[Fraction, ...] | None = None

    i_plus, i_minus, i, pi_plus, pi_minus, pi = map(_row, range(6))


@dataclass(frozen=True, eq=False)
class AverageDecomposition(_Decomposition):
    """Support-weighted averages of the pointwise fields, per node.

    ``block`` holds the rows ``AVERAGE_FIELDS`` (6 x N float64, read-only);
    ``I_plus`` ... ``Pi`` are its rows as tuples.
    """

    n: int
    block: np.ndarray

    I_plus, I_minus, I, Pi_plus, Pi_minus, Pi = map(_row, range(6))


def _exact_atoms(lattice: RedundancyLattice,
                 *ratios: list[Fraction]) -> list[tuple[Fraction, ...]]:
    """Multiplicative Moebius inversion of each list of ratios: atom j is
    the product of ratios[u] ** mu(u, j) over j's ``node_passes`` rows."""
    supports = [node_passes(lattice, j)[::2] for j in range(len(lattice))]
    return [tuple(math.prod(r[u] ** int(e) for u, e in zip(*support))
                  for support in supports) for r in ratios]


def pointwise_decomposition(d: JointDistribution, r: Realization,
                            lattice: RedundancyLattice | None = None,
                            ) -> PointwiseDecomposition:
    """Evaluate i+/i- at every node and Moebius-invert both lattices."""
    lat = _lattice_of(d, lattice)
    plan, masses, den = _plan(d, [r])
    sums, p_t, parts = evaluate(lat.kernel_up_sets(masses), plan, masses, den)
    ip, im = parts.real[:, 0], parts.imag[:, 0]
    pi = invert_array(lat, parts[:, 0])
    pip, pim = pi.real, pi.imag

    exact = {}
    if (d.exact and len(lat.nodes) <= EXACT_RATIO_NODE_LIMIT
            and den <= MAX_EXACT_DENOMINATOR):
        p_plus, p_minus = _as_masses(sums[0].T, den).tolist()
        (p_t,) = _as_masses(p_t, den).tolist()
        ri_plus = [1 / p for p in p_plus]
        ri_minus = [p_t / p for p in p_minus]
        exact_plus, exact_minus = _exact_atoms(lat, ri_plus, ri_minus)
        exact = {
            "exact_i_plus": tuple(ri_plus),
            "exact_i_minus": tuple(ri_minus),
            "exact_pi_plus": exact_plus,
            "exact_pi_minus": exact_minus,
        }

    return PointwiseDecomposition(
        realization=r, weight=d.mass(r), n=d.n_sources,
        block=_read_only(np.stack([ip, im, ip - im, pip, pim, pip - pim])),
        **exact)


def decompose_support(d: JointDistribution,
                      lattice: RedundancyLattice | None = None,
                      workers: int = 1) -> list[PointwiseDecomposition]:
    """Pointwise decomposition at every support point, in support order.

    Evaluation runs in this process; ``workers`` (at least 1) is accepted
    for compatibility and does not change the result.
    """
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    lat = _lattice_of(d, lattice)
    return [pointwise_decomposition(d, r, lat) for r in d.support]


def average_decomposition(d: JointDistribution,
                          lattice: RedundancyLattice | None = None,
                          decompositions: Sequence[PointwiseDecomposition] | None = None,
                          ) -> AverageDecomposition:
    """Mass-weighted averages over the support (zero-mass outcomes carry
    no weight and are never evaluated)."""
    lat = _lattice_of(d, lattice)
    decs = decompositions or decompose_support(d, lat)
    weights = np.array([float(dec.weight) for dec in decs])
    # the products are those of a per-term fsum, so each sum is the
    # correctly rounded one
    terms = np.stack([dec.block for dec in decs])
    terms *= weights[:, None, None]
    return AverageDecomposition(n=d.n_sources,
                                block=_read_only(fsum_columns(terms)))


#: The significand bits of a float64.
_MANTISSA = (1 << 52) - 1


def fsum_columns(terms: np.ndarray) -> np.ndarray:
    """``math.fsum`` down axis 0 of ``terms`` (R x ...), bit for bit.

    One TwoSum cascade down the R rows gives each lane's float sum s and
    the exact error of every addition (Ogita, Rump & Oishi 2005). The
    errors are summed in floats to c, and y = fl(s + c) with its exact
    error z, so the exact sum is y + z + (errors - c). That last term is at
    most (R - 2) u times the sum of |errors| (u = 2^-53); the bound used
    is twice that. When |z| + bound is below half the spacing of floats
    next to y (the spacing below when |y| is a power of two), the exact
    sum lies strictly inside y's rounding interval and y is ``fsum``'s
    result. Lanes whose terms sum in magnitude to 2^1000 or more (which
    includes any lane with a term that is not finite) are not certified:
    below that no partial sum, here or in ``fsum``, can overflow. Nor is
    an exact tie, or a zero or subnormal y (half its spacing rounds to 0).
    Those lanes are summed by ``math.fsum``, which also raises what it
    raises, except the lanes of +0.0 alone, which take the zero ``fsum``
    returns for them. Besides lane-sized vectors, the temporaries are
    column subsets of ``terms``, no larger than it.
    """
    rows, shape = len(terms), terms.shape[1:]
    terms = terms.reshape(rows, -1)
    s = terms[0].copy()
    t, b, e = (np.empty_like(s) for _ in range(3))
    c = np.zeros_like(s)
    err_abs = np.zeros_like(s)
    abs_sum = np.abs(s)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in terms[1:]:
            abs_sum += np.abs(x, out=t)
            np.add(s, x, out=t)
            np.subtract(t, s, out=b)
            np.subtract(t, b, out=e)
            np.subtract(s, e, out=e)
            np.subtract(x, b, out=b)
            e += b
            c += e
            err_abs += np.abs(e, out=e)
            s, t = t, s
        y = s + c
        np.subtract(y, s, out=b)
        np.subtract(y, b, out=e)
        np.subtract(s, e, out=e)
        c -= b
        e += c  # z
        half = np.abs(y, out=t)
        power_of_two = (half.view(np.int64) & _MANTISSA) == 0
        np.spacing(half, out=half)
        half *= np.where(power_of_two, 0.25, 0.5)
        err_abs *= rows * 2.0 ** -52
        err_abs += np.abs(e, out=e)
        certified = err_abs < half
        certified &= abs_sum < 2.0 ** 1000
    # the lanes of +0.0 alone (all bits clear) are one and the same input
    zero = np.flatnonzero(y == 0)
    plus_zero = zero[~terms[:, zero].view(np.int64).any(axis=0)]
    y[plus_zero] = math.fsum([0.0] * rows)
    certified[plus_zero] = True
    rest = np.flatnonzero(~certified)
    y[rest] = list(map(math.fsum, terms[:, rest].T.tolist()))
    return y.reshape(shape)


def node_event_probabilities(d: JointDistribution, r: Realization,
                             lattice: RedundancyLattice | None = None,
                             ) -> tuple[list[Mass], list[Mass], Mass]:
    """(P(E_node), P(t & E_node)) per node in lattice order, plus P(t).

    One call of the event-mass kernel ``dist.plan_event_masses`` on the
    lattice's up-sets: exact for rational masses, a matrix product for
    float masses.
    """
    lat = _lattice_of(d, lattice)
    return _masses_at(d, r, lat.kernel_up_sets(d.mass_array[0]))


def form_equivalence_max_dev(d: JointDistribution,
                             lattice: RedundancyLattice | None = None) -> float:
    """Largest disagreement between the three arithmetic routes to i_sx.

    Compares the primary difference-of-parts value against the conditional
    (OR-statement) form and against the remove/rescale/compare form that
    works through complement-intersection masses, over every support
    realization and node.
    """
    up = _lattice_of(d, lattice).up_sets
    plan, masses, den = _plan(d, d.support)
    sums, p_t = plan_event_masses(np.concatenate([up, ~up]), plan, masses)
    plus, minus = log_parts(sums[:, :len(up)], p_t, den)
    worst, total = 0.0, d.total_mass()
    masses = (_as_masses(x, den).tolist() for x in (sums, p_t))
    for bases, row, p_t in zip((plus - minus).tolist(), *masses):
        for base, (p_e, p_te), (p_x, p_tx) in zip(bases, row, row[len(up):]):
            cond = _log2(p_te) - _log2(p_e) - _log2(p_t)
            excl_form = _log2(p_t - p_tx) - _log2(total - p_x) - _log2(p_t)
            worst = max(worst, abs(base - cond), abs(base - excl_form))
    return worst


def _child_meet_plan(lat: RedundancyLattice) -> list[tuple[int, int, int, int]]:
    """(node, child, meet(B), meet(B + child)) for every child and every
    subset B of the node's remaining children; meet(empty) is the node."""
    plan = []
    for j, kids in enumerate(lat.children_table):
        for gi, g in enumerate(kids):
            meets = lat.subset_meets(j, kids[:gi] + kids[gi + 1:] + (g,))
            half = len(meets) // 2
            plan += [(j, g, mb, mbg) for mb, mbg in zip(meets[:half], meets[half:])]
    return plan


def child_meet_mass_identity_max_dev(d: JointDistribution,
                                     lattice: RedundancyLattice | None = None,
                                     ) -> float:
    """Mass differences are preserved along child meets.

    For every node a with child g and subset B of the remaining children,
    P(meet(B) ^ g) = P(meet(B)) + P(g) - P(a) in both the plain and the
    target-intersected measure. Returns the largest absolute violation
    over the support; this is what makes the closed-form atom a telescoping
    product of actual event probabilities.
    """
    lat = _lattice_of(d, lattice)
    j, g, mb, mbg = np.array(_child_meet_plan(lat), dtype=np.intp).reshape(-1, 4).T
    plan, masses, den = _plan(d, d.support)
    sums, _ = plan_event_masses(lat.kernel_up_sets(masses), plan, masses)
    worst = max(np.abs(s[mbg] - (s[mb] + s[g] - s[j])).max(initial=0) for s in sums)
    return float(worst) / (den or 1)


def atom_via_closed_form(d: JointDistribution, r: Realization, alpha: Antichain,
                         which: str = "plus",
                         lattice: RedundancyLattice | None = None) -> float:
    """One atom through the inclusion-exclusion closed form.

    Independent of the Moebius recursion: only child orderings, meets and
    event probabilities enter. ``which`` selects the informative part
    ("plus") or the misinformative part ("minus"); the latter runs the
    same formula under the target-conditioned measure.
    """
    lat = _lattice_of(d, lattice)
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    plus, minus, p_t = node_event_probabilities(d, r, lat)
    prob_at = plus.__getitem__ if which == "plus" else lambda i: minus[i] / p_t
    return closed_form_atom_at(lat, lat.index(alpha), prob_at)


# ---------------------------------------------------------------------------
# Composite targets: chain rule and the entropy decomposition.
# ---------------------------------------------------------------------------

def _check_groups(d: JointDistribution, group_of: Sequence[int]) -> None:
    if len(group_of) != len(d.target_alphabet):
        raise DistributionError(f"group_of has {len(group_of)} entries for "
                                f"{len(d.target_alphabet)} target symbols")


def coarsen_target(d: JointDistribution, group_of: Sequence[int],
                   group_labels: Sequence[str] | None = None) -> JointDistribution:
    """Merge target symbols that share a group id (first chain-rule factor)."""
    _check_groups(d, group_of)
    groups = sorted(set(group_of))
    if group_labels is None:
        group_labels = [str(g) for g in groups]
    remap = {g: i for i, g in enumerate(groups)}
    acc = regroup(d, lambda r: Realization(t=remap[group_of[r.t]], s=r.s))
    target = Alphabet(d.target_alphabet.name, tuple(group_labels))
    return JointDistribution.from_points(target, d.source_alphabets, acc.items(),
                                         normalization_tolerance=d.normalization_tolerance)


def condition_on_target_group(d: JointDistribution, group_of: Sequence[int],
                              group) -> JointDistribution:
    """Restrict to target symbols in a group and renormalize."""
    _check_groups(d, group_of)
    sel = [(r, m) for r, m in zip(d.support, d.masses) if group_of[r.t] == group]
    if not sel:
        raise DistributionError(f"target group {group!r} has zero probability")
    total = _sum_masses(d.exact, (m for _, m in sel))
    points = [(r, m / total) for r, m in sel]
    return JointDistribution.from_points(
        d.target_alphabet, d.source_alphabets, points,
        normalization_tolerance=max(d.normalization_tolerance, 1e-12))


def conditional_i_sx(d: JointDistribution, r: Realization, alpha: Antichain,
                     group_of: Sequence[int]) -> float:
    """Shared information about the fine target given its group: the second
    chain-rule factor, evaluated with every probability conditioned on the
    group event of r's target symbol."""
    _check_alpha(d, alpha)
    _check_groups(d, group_of)
    cond = condition_on_target_group(d, group_of, group_of[r.t])
    return i_sx(cond, r, alpha)


def target_chain_terms(d: JointDistribution, r: Realization, alpha: Antichain,
                       group_of: Sequence[int]) -> tuple[float, float, float]:
    """(i(t:alpha), i(t1:alpha), i(t2:alpha | t1)) for a factored target.

    The first value must equal the sum of the other two (the target chain
    rule); t1 is the group of r's target symbol under ``group_of``.
    """
    whole = i_sx(d, r, alpha)
    coarse = coarsen_target(d, group_of)
    groups = sorted(set(group_of))
    r1 = Realization(t=groups.index(group_of[r.t]), s=r.s)
    first = i_sx(coarse, r1, alpha)
    second = conditional_i_sx(d, r, alpha, group_of)
    return whole, first, second


def joint_source_distribution(d: JointDistribution) -> JointDistribution:
    """Composite-target distribution: the target is the full source tuple."""
    acc = regroup(d, lambda r: r.s)
    combos = sorted(acc)
    labels = tuple(
        ",".join(a.label(si) for a, si in zip(d.source_alphabets, combo))
        for combo in combos)
    target = Alphabet("joint", labels)
    points = [(Realization(t=i, s=combo), acc[combo])
              for i, combo in enumerate(combos)]
    return JointDistribution.from_points(target, d.source_alphabets, points,
                                         normalization_tolerance=d.normalization_tolerance)


def entropy_decomposition(d: JointDistribution) -> AverageDecomposition:
    """Entropy atoms: decompose the self-information of the source tuple.

    The average at the full coalition equals the joint source entropy.
    """
    return average_decomposition(joint_source_distribution(d))


# ---------------------------------------------------------------------------
# Property-check surface: axioms, lattice monotonicity, duplicates, V-channel.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    realization: Realization | None
    detail: str


@dataclass
class CheckReport:
    checks_run: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, ok: bool, kind: str, realization: Realization | None,
               detail: str | Callable[[], str]) -> None:
        """Count one check; a failure keeps ``detail``, which may be a
        zero-argument callable so that passing checks format nothing."""
        self.checks_run += 1
        if not ok:
            if callable(detail):
                detail = detail()
            self.violations.append(Violation(kind, realization, detail))


def check_lattice_monotonicity(lattice: RedundancyLattice,
                               values: Mapping[Antichain, float],
                               tol: float = 1e-9) -> list[tuple[str, str, float]]:
    """Cover edges where the value decreases going up; empty if monotone."""
    bad = []
    for child, parent in lattice.cover_edges():
        lo, hi = lattice.nodes[child], lattice.nodes[parent]
        delta = values[hi] - values[lo]
        if not delta >= -tol:  # NaN included
            bad.append((lo.name, hi.name, float(delta)))
    return bad


def axiom_suite(d: JointDistribution,
                lattice: RedundancyLattice | None = None,
                tol: float = 1e-9) -> CheckReport:
    """Run the axiom battery at every support realization.

    Checks: (a) invariance of i+/i- under permutation of the collection
    list, (b) monotone decrease when a collection is appended, with
    equality when a subset-collection already exists, (c) self-redundancy
    against independently computed marginal surprisals, and (d) monotone
    increase of i+/i- along every lattice cover edge.
    """
    lat = _lattice_of(d, lattice)
    report = CheckReport()
    n, nodes = d.n_sources, lat.nodes
    all_colls = [tuple(i + 1 for i in range(n) if m >> i & 1)
                 for m in range(1, 1 << n)]

    # independent surprisal oracle: -log2 of marginal masses
    coll_marginal = {coll: marginal(d, coll) for coll in all_colls}
    coll_t_marginal = {coll: marginal(d, ["t", *coll]) for coll in all_colls}
    t_marginal = marginal(d, ["t"])

    def h_marginal(coll: tuple[int, ...], r: Realization) -> float:
        key = Realization(t=r.s[coll[0] - 1], s=tuple(r.s[i - 1] for i in coll[1:]))
        return -_log2(coll_marginal[coll].mass(key))

    def h_conditional(coll: tuple[int, ...], r: Realization) -> float:
        joint = Realization(t=r.t, s=tuple(r.s[i - 1] for i in coll))
        return (-_log2(coll_t_marginal[coll].mass(joint))
                + _log2(t_marginal.mass(Realization(t=r.t, s=()))))

    singles = [(coll, lat.index(Antichain.of(n, [coll]))) for coll in all_colls]
    top = lat.index(lat.top)  # its event is the full coalition's
    # the reordered and extended coalition lists are the same at every r
    reordered = [(j, a, variant) for j, a in enumerate(nodes) if len(a.masks) > 1
                 for variant in (tuple(reversed(a.masks)), a.masks[1:] + a.masks[:1])]
    extended = [(j, a, extra) for j, a in enumerate(nodes) for extra in range(1, 1 << n)]
    plan, masses, den = _plan(d, d.support)
    sums, p_t, parts = evaluate(np.concatenate([
        lat.up_sets, coalition_up_sets(n, [v for *_, v in reordered]
                                       + [a.masks + (e,) for _, a, e in extended])]),
        plan, masses, den)
    mis = [_log2(p_ts) - _log2(p_s) - _log2(p_t) for (p_s, p_ts), p_t in zip(
        _as_masses(sums[:, top], den).tolist(), _as_masses(p_t, den).tolist())]

    # per realization: [i+, i-] of each node, then of each variant
    tables = np.stack([parts.real.T, parts.imag.T], 2).tolist()
    for r, table, mi in zip(d.support, tables, mis):
        # (a) permutation invariance
        for (j, a, _), got in zip(reordered, table[len(nodes):]):
            want = table[j]
            ok = abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12
            report.record(ok, "permutation", r,
                          lambda: f"{a.name} reordered: {got} vs {tuple(want)}")

        # (b) appending a collection never increases i+/i-
        for (j, a, extra_mask), got in zip(extended, table[len(nodes) + len(reordered):]):
            base = table[j]
            ok = got[0] <= base[0] + 1e-12 and got[1] <= base[1] + 1e-12
            report.record(ok, "monotone-append", r,
                          lambda: f"{a.name} + {extra_mask:b}: {got} > {tuple(base)}")
            if any(m & extra_mask == m for m in a.masks):
                ok = (abs(got[0] - base[0]) <= 1e-12
                      and abs(got[1] - base[1]) <= 1e-12)
                report.record(ok, "append-equality", r,
                              lambda: f"{a.name} + superset {extra_mask:b}: "
                                      f"{got} != {tuple(base)}")

        # (c) self-redundancy against the marginal oracle
        for coll, j in singles:
            want_plus = h_marginal(coll, r)
            want_minus = h_conditional(coll, r)
            got_plus, got_minus = table[j]
            ok = abs(got_plus - want_plus) <= tol and abs(got_minus - want_minus) <= tol
            report.record(ok, "self-redundancy", r,
                          lambda: f"{nodes[j].name}: ({got_plus}, {got_minus}) vs "
                                  f"({want_plus}, {want_minus})")
        got = table[top][0] - table[top][1]
        report.record(abs(got - mi) <= tol, "full-coalition-mi", r,
                      lambda: f"{got} vs local mi {mi}")

        # (d) monotone increase along cover edges
        for which, col in (("plus", 0), ("minus", 1)):
            bad = check_lattice_monotonicity(
                lat, {a: v[col] for a, v in zip(nodes, table)}, tol)
            report.record(not bad, f"lattice-monotone-{which}", r,
                          lambda: str(bad))

    return report


def duplicate_invariance_check(d: JointDistribution,
                               pair: tuple[int, int],
                               expected_pi: Mapping[str, float] | None = None,
                               tol: float = 1e-3) -> CheckReport:
    """Check that a duplicated source changes no information content.

    ``pair`` names the two identical sources (1-based). For every support
    realization and every node, replacing one twin by the other in the
    node's coalitions must leave i_sx unchanged. When ``expected_pi`` maps
    node names to values, the pointwise atoms are additionally checked
    against them at every realization (tolerance ``tol``).
    """
    n, (i, j) = d.n_sources, pair
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise DistributionError(f"pair {pair} must name two different sources in 1..{n}")
    report = CheckReport()
    for r in d.support:
        if r.s[i - 1] != r.s[j - 1]:
            report.record(False, "duplicate-pair", r,
                          f"sources {i} and {j} differ on support")
            return report
    lat = enumerate_lattice(n)
    swaps = coalition_up_sets(n, [_coalition_masks(
        n, [[i if x == j else x for x in coll] for coll in a.collections])
        for a in lat.nodes])
    parts = evaluate(np.concatenate([lat.up_sets, swaps]), *_plan(d, d.support))[2]
    if expected_pi:
        pi = invert_array(lat, parts[:len(swaps)])
        pi = pi.real - pi.imag
    tables = np.stack([parts.real.T, parts.imag.T], 2).tolist()
    for k, (r, row) in enumerate(zip(d.support, tables)):
        for a, want, got in zip(lat.nodes, row, row[len(swaps):]):
            ok = abs(got[0] - want[0]) <= 1e-9 and abs(got[1] - want[1]) <= 1e-9
            report.record(ok, "twin-swap", r,
                          lambda: f"{a.name}: {got} vs {tuple(want)}")
        for name, want_pi in (expected_pi or {}).items():
            got_pi = pi[lat.index(lat.node_by_name(name)), k].item()
            report.record(abs(got_pi - want_pi) <= tol, "expected-atom", r,
                          lambda: f"pi({name}) = {got_pi}, expected {want_pi}")
    return report


# ---------------------------------------------------------------------------
# The statement channel for XOR: why a negative average is operationally
# meaningful. Fixed construction; see v_channel_xor.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelRow:
    realization: Realization
    statement: tuple[int, int]  # claimed symbols (a, b) in (S1=a) v (S2=b)
    carries_shared: bool        # both claims true for this realization
    predicted_t: int
    correct: bool
    info_bits: float


@dataclass(frozen=True)
class VChannelReport:
    rows: tuple[ChannelRow, ...]
    avg_info_all: float      # over every statement the channel can emit
    avg_info_shared: float   # over the shared-information rows only

    @property
    def n_correct(self) -> int:
        return sum(row.correct for row in self.rows)

    @property
    def n_incorrect(self) -> int:
        return len(self.rows) - self.n_correct


def v_channel_xor() -> VChannelReport:
    """Reproduce the XOR statement-channel table.

    For each XOR realization the channel emits one of three equiprobable
    true OR-statements (S1=a) v (S2=b); exactly one of them has both
    claims true and therefore carries the shared information. A receiver
    performing Bayes-optimal inference from the statement mispredicts on
    exactly the shared rows, so the channel as a whole is informative on
    average while the shared contribution is negative.
    """
    from .builtins import xor_distribution

    d = xor_distribution()
    # "S1 = a or S2 = b" is the union event V of {1}{2} at s = (a, b), so one
    # kernel call at every row (t, a, b) gives each P(V), P(t & V) and P(t)
    grid = [(t, a, b) for t in range(2) for a in range(2) for b in range(2)]
    masses, den = d.mass_array
    sums, p_t = plan_event_masses(coalition_up_sets(2, [[0b01, 0b10]]),
                                  event_plan(d.support_array, np.array(grid)), masses)
    # (t, a, b) -> (P(t | V), P(t))
    at = {row: (p_tv / p_v, p) for row, (p_v, p_tv), p in zip(
        grid, _as_masses(sums[:, 0], den).tolist(), _as_masses(p_t, den).tolist())}
    rows, weighted_all, weighted_shared = [], [], []
    for r, m in zip(d.support, d.masses):
        s1, s2 = r.s
        statements = [(s1, s2), (s1, 1 - s2), (1 - s1, s2)]
        for idx, (a, b) in enumerate(statements):
            predicted = max(range(2), key=lambda t: (at[t, a, b][0], -t))
            info = _log2(at[r.t, a, b][0]) - _log2(at[r.t, a, b][1])
            row = ChannelRow(realization=r, statement=(a, b),
                             carries_shared=(idx == 0), predicted_t=predicted,
                             correct=(predicted == r.t), info_bits=info)
            rows.append(row)
            weighted_all.append(float(m) / len(statements) * info)
            if row.carries_shared:
                weighted_shared.append(float(m) * info)
    return VChannelReport(rows=tuple(rows),
                          avg_info_all=math.fsum(weighted_all),
                          avg_info_shared=math.fsum(weighted_shared))
