"""Discrete joint distributions over a target and n sources.

This module is the probability oracle for the rest of the package.
Probabilities of compound events (unions/intersections of cylinder events)
are sums of the masses of the points inside them, never inclusion-exclusion
over floats, so no cancellation error can reach the logarithms taken
downstream. ``plan_event_masses`` is the event-mass kernel behind every
union mass the package computes, for many realizations at once: it adds the
masses in point order into one bin per agreement mask, then each union sums
its bins in one 2^n-term product per realization. ``event_plan`` bins the
points at the realizations first, once per set of points and rows (a
gradient keeps it across evaluations); ``lattice.evaluate`` turns the
kernel's masses into i+ and i-. Exact masses enter it as integer
numerators (``mass_array``), so their sums are exact; float sums are not
correctly rounded (off by up to about K + 2^n units in the last place for K
masses). ``event_probability``, ``mass_where`` and ``CylinderEvent`` scan
the support with Python predicates; nothing else in the package calls
them, and they serve the tests as the independent check.

A distribution is exact when no mass is a float (``JointDistribution.exact``,
the one test): its masses are ``fractions.Fraction``s (file input, builtin
generators) or ints. With one float mass, ``mass_array`` gives every mass
as a float, sums are ``math.fsum`` and the dumps write floats. Zero-mass
realizations are dropped at construction time: pointwise quantities are
only ever evaluated at support points, which guarantees every event
containing the realization has positive mass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

Mass = Union[Fraction, float]

DEFAULT_NORMALIZATION_TOLERANCE = 1e-9

#: Mass literals with more digits, or a larger exponent magnitude, are
#: rejected: ``Fraction`` would build the full integer. 4,300 is Python's
#: default int-to-string digit limit.
MAX_MASS_DIGITS = 4300


class DistributionError(ValueError):
    """Invalid distribution data (negative mass, bad symbol, sum != 1, ...)."""


class DistributionFormatError(DistributionError):
    """Unparseable input; message carries the row/field location."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite alphabet; symbols are labels, indices are positions."""

    name: str
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise DistributionError(f"alphabet {self.name!r}: no symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise DistributionError(f"alphabet {self.name!r}: duplicate symbols")

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise DistributionError(
                f"symbol {symbol!r} not in alphabet {self.name!r}"
            ) from None

    def label(self, index: int) -> str:
        return self.symbols[index]


@dataclass(frozen=True, order=True)
class Realization:
    """One full outcome: target symbol index plus one index per source."""

    t: int
    s: tuple[int, ...]


@dataclass(frozen=True)
class CylinderEvent:
    """Partial assignment of source positions (and optionally the target).

    ``sources`` maps 0-based source position -> required symbol index. An
    event with no constraints matches everything and has probability 1.
    """

    sources: tuple[tuple[int, int], ...] = ()
    target: int | None = None

    def __post_init__(self):
        positions = [pos for pos, _ in self.sources]
        if len(set(positions)) != len(positions):
            raise DistributionError("cylinder event constrains a position twice")
        object.__setattr__(self, "sources", tuple(sorted(self.sources)))

    @classmethod
    def from_realization(cls, r: Realization, collection: Iterable[int],
                         with_target: bool = False) -> "CylinderEvent":
        """Event {S_i = r.s[i] for i in collection}, 0-based positions."""
        return cls(sources=tuple((i, r.s[i]) for i in collection),
                   target=r.t if with_target else None)

    def matches(self, r: Realization) -> bool:
        if self.target is not None and r.t != self.target:
            return False
        return all(r.s[pos] == sym for pos, sym in self.sources)


def _sum_masses(exact: bool, masses: Iterable[Mass]) -> Mass:
    return sum(masses, Fraction(0)) if exact else math.fsum(masses)


@dataclass(frozen=True)
class JointDistribution:
    """Validated joint pmf over target x sources, immutable after build.

    Construction validates the tolerance (a number >= 0), nonnegativity,
    normalization within ``normalization_tolerance``, index bounds, and
    uniqueness of support points; zero masses are dropped.
    """

    target_alphabet: Alphabet
    source_alphabets: tuple[Alphabet, ...]
    support: tuple[Realization, ...]
    masses: tuple[Mass, ...]
    normalization_tolerance: float = DEFAULT_NORMALIZATION_TOLERANCE

    def __post_init__(self):
        if not self.normalization_tolerance >= 0:  # NaN fails this too
            raise DistributionError("normalization tolerance must be >= 0, got "
                                    f"{self.normalization_tolerance}")
        seen = set()
        for r, m in zip(self.support, self.masses):
            if m != m:
                raise DistributionError(f"mass at {r} is not a number: {m}")
            if m < 0:
                raise DistributionError(f"negative mass {m} at {r}")
            if len(r.s) != len(self.source_alphabets):
                raise DistributionError(f"realization {r} has wrong arity")
            if not 0 <= r.t < len(self.target_alphabet):
                raise DistributionError(f"target index out of range at {r}")
            for i, (si, alph) in enumerate(zip(r.s, self.source_alphabets)):
                if not 0 <= si < len(alph):
                    raise DistributionError(f"source {i + 1} index out of range at {r}")
            if r in seen:
                raise DistributionError(f"duplicate realization {r}")
            seen.add(r)
        try:
            total = float(_sum_masses(self.exact, self.masses))
        except OverflowError:  # a rational sum beyond the float range
            total = math.inf
        if abs(total - 1.0) > self.normalization_tolerance:
            raise DistributionError(f"masses sum to {total!r}, outside tolerance "
                                    f"{self.normalization_tolerance}")

    @classmethod
    def from_points(cls, target_alphabet: Alphabet,
                    source_alphabets: Sequence[Alphabet],
                    points: Iterable[tuple[Realization, Mass]],
                    normalization_tolerance: float = DEFAULT_NORMALIZATION_TOLERANCE,
                    ) -> "JointDistribution":
        """Build from (realization, mass) pairs, dropping zero masses."""
        kept = sorted((r, m) for r, m in points if m != 0)
        return cls(
            target_alphabet=target_alphabet,
            source_alphabets=tuple(source_alphabets),
            support=tuple(r for r, _ in kept),
            masses=tuple(m for _, m in kept),
            normalization_tolerance=normalization_tolerance,
        )

    @property
    def n_sources(self) -> int:
        return len(self.source_alphabets)

    @cached_property
    def _lookup(self) -> dict[Realization, Mass]:
        return dict(zip(self.support, self.masses))

    @cached_property
    def exact(self) -> bool:
        """The one test of exactness: no mass is a float, so all are rationals
        (``Fraction``s or ints) and are read and summed exactly."""
        return not any(isinstance(m, float) for m in self.masses)

    @cached_property
    def support_array(self) -> np.ndarray:
        """The support as rows (t, s_1, ..., s_n) of symbol indices."""
        return np.array([(r.t, *r.s) for r in self.support],
                        dtype=np.intp).reshape(-1, 1 + self.n_sources)

    @cached_property
    def mass_array(self) -> tuple[np.ndarray, int | None]:
        """The support masses as an array, and the denominator under it.

        The masses of an inexact distribution come as float64 with
        denominator None. Exact masses are integer numerators over their
        least common denominator, as int64 when their total fits and as
        Python ints when it does not, so every sum of them is exact.
        """
        if not self.exact:
            return np.array(self.masses, dtype=float), None
        masses = [Fraction(m) for m in self.masses]
        den = math.lcm(*(m.denominator for m in masses))
        nums = [m.numerator * (den // m.denominator) for m in masses]
        dtype = np.int64 if sum(nums) <= np.iinfo(np.int64).max else object
        return np.array(nums, dtype=dtype), den

    def mass(self, r: Realization) -> Mass:
        zero = Fraction(0) if self.exact else 0.0
        return self._lookup.get(r, zero)

    def mass_where(self, predicate: Callable[[Realization], bool]) -> Mass:
        """Total mass of support points satisfying ``predicate``."""
        return _sum_masses(self.exact, (m for r, m in zip(self.support, self.masses)
                                        if predicate(r)))

    def total_mass(self) -> Mass:
        return _sum_masses(self.exact, self.masses)


def event_probability(d: JointDistribution, events: Sequence[CylinderEvent],
                      mode: str = "union") -> Mass:
    """Probability of the union or intersection of cylinder events.

    Evaluated as an exact sum of pmf masses over the support (one scan,
    no inclusion-exclusion), so De Morgan identities hold to machine
    precision and exactly for rational masses.
    """
    if not events:
        raise DistributionError("event list must be nonempty")
    for ev in events:
        if ev.target is not None and not 0 <= ev.target < len(d.target_alphabet):
            raise DistributionError("event target index out of range")
        for pos, sym in ev.sources:
            if not 0 <= pos < d.n_sources:
                raise DistributionError(f"event constrains unknown source {pos}")
            if not 0 <= sym < len(d.source_alphabets[pos]):
                raise DistributionError(f"event symbol index {sym} out of range")
    if mode == "union":
        return d.mass_where(lambda r: any(ev.matches(r) for ev in events))
    if mode == "intersection":
        return d.mass_where(lambda r: all(ev.matches(r) for ev in events))
    raise DistributionError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class EventPlan:
    """What ``plan_event_masses`` reads of the points and realizations
    alone, for R realization rows over K points (``event_plan``)."""

    #: agree[r, k]: the mask of sources on which point k agrees with row r.
    agree: np.ndarray
    #: same_target[r, k]: point k has row r's target symbol.
    same_target: np.ndarray
    #: at[r]: realization row r itself, (t, s_1, ..., s_n).
    at: np.ndarray


def event_plan(points: np.ndarray, at: np.ndarray) -> EventPlan:
    """The agreement masks and target matches of ``points`` at each
    realization row of ``at``; both are rows (t, s_1, ..., s_n) of symbol
    indices."""
    agree = (points[None, :, 1:] == at[:, None, 1:]) @ (1 << np.arange(at.shape[1] - 1))
    return EventPlan(agree, points[None, :, 0] == at[:, None, 0], at)


def plan_event_masses(up_sets: np.ndarray, plan: EventPlan, masses: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Masses of unions of coalition events at each realization row of a plan.

    ``masses`` holds the plan's points' masses (float, int64 or Python-int
    object array). Row u of ``up_sets`` marks the agreement masks (the
    sources on which a point agrees with the realization) of the points
    inside union u (``lattice.coalition_up_sets``), so a union's mass is a
    sum of mask bins, and no realization's sums depend on the others.
    ``up_sets`` is the boolean matrix or a copy already of the masses'
    dtype (``RedundancyLattice.kernel_up_sets``), which is read without a
    cast. Masses are added into their bins in point order.

    Returns ``(sums, p_t)``: ``sums[r, u]`` is (mass of union u, mass of
    union u within the target event T = t_r) and ``p_t[r]`` is the mass of T.
    """
    if up_sets.dtype not in (bool, masses.dtype):
        # a float copy would turn exact Python-int sums into floats
        raise TypeError(f"{up_sets.dtype} up-sets for {masses.dtype} masses")
    in_target = np.where(plan.same_target, masses, 0)
    hist = np.zeros((len(plan.agree), up_sets.shape[1], 2), dtype=masses.dtype)
    rows = np.arange(len(plan.agree))[:, None]
    np.add.at(hist[..., 0], (rows, plan.agree), masses)
    np.add.at(hist[..., 1], (rows, plan.agree), in_target)
    sums = np.matmul(up_sets.astype(masses.dtype, copy=False), hist)
    return sums, in_target.sum(axis=1)


def regroup(d: JointDistribution, key: Callable[[Realization], object]) -> dict:
    """Support masses summed by ``key(r)``, keys and sums in support order."""
    acc: dict = {}
    for r, m in zip(d.support, d.masses):
        k = key(r)
        acc[k] = acc[k] + m if k in acc else m
    return acc


def marginal(d: JointDistribution, keep: Iterable[Union[str, int]]) -> JointDistribution:
    """Sum out everything not in ``keep``.

    ``keep`` contains the string ``"t"`` for the target and/or 1-based
    source indices. If the target is dropped, the first kept source takes
    the target slot of the returned distribution (a distribution needs a
    target variable; the choice is positional and documented here).
    """
    keep = list(keep)
    if not keep:
        raise DistributionError("keep set must be nonempty")
    keep_target = "t" in keep
    src_positions = sorted(k - 1 for k in keep if k != "t")
    for pos in src_positions:
        if not 0 <= pos < d.n_sources:
            raise DistributionError(f"source index {pos + 1} out of range")

    acc = regroup(d, lambda r: ((r.t,) if keep_target else ())
                  + tuple(r.s[i] for i in src_positions))
    kept_alphabets = ([d.target_alphabet] if keep_target else []) + \
        [d.source_alphabets[i] for i in src_positions]
    target_alphabet, *source_alphabets = kept_alphabets
    points = [(Realization(t=key[0], s=key[1:]), m) for key, m in acc.items()]
    return JointDistribution.from_points(
        target_alphabet, source_alphabets, points,
        normalization_tolerance=d.normalization_tolerance)


# ---------------------------------------------------------------------------
# I/O. CSV header is t,s1,...,sn,p with one support point per row; JSON
# declares alphabets explicitly. Masses are written as exact decimal strings
# (or num/den) so both formats round-trip bit-exactly for rational masses.
# ---------------------------------------------------------------------------

def _parse_mass(text: str, where: str) -> Fraction:
    text = text.strip()
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)", text)
    if (sum(c.isdigit() for c in text) > MAX_MASS_DIGITS
            or exponent and abs(int(exponent.group(1))) > MAX_MASS_DIGITS):
        raise DistributionFormatError(
            f"{where}: mass literal exceeds {MAX_MASS_DIGITS} digits or "
            f"an exponent of magnitude {MAX_MASS_DIGITS}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DistributionFormatError(f"{where}: cannot parse mass {text!r}") from None


def _format_mass(m: Mass, exact: bool) -> str:
    """A mass as text: its float's repr, or exactly if the distribution is."""
    if not exact:
        return repr(float(m))
    den = m.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:  # terminating decimal
        k = max(twos, fives)
        scaled = m.numerator * 10**k // m.denominator
        if k == 0:
            return str(scaled)
        digits = str(scaled).rjust(k + 1, "0")
        return f"{digits[:-k]}.{digits[-k:]}"
    return f"{m.numerator}/{m.denominator}"


def _as_text(source: Union[bytes, str, io.IOBase]) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def load_distribution(source: Union[bytes, str, io.IOBase], format: str,
                      normalization_tolerance: float = DEFAULT_NORMALIZATION_TOLERANCE,
                      ) -> JointDistribution:
    """Parse a CSV or JSON distribution; errors carry row/field locations."""
    reader = {"csv": _csv_rows, "json": _json_rows}.get(format)
    if reader is None:
        raise DistributionFormatError(f"unknown format {format!r}")
    try:
        return _from_rows(*reader(_as_text(source)), normalization_tolerance)
    except DistributionError as exc:
        raise type(exc)(f"{format} input: {exc}") from None


Row = tuple[str, str, Sequence[str], str]  # (where, t, s, p): labels and mass text


def _from_rows(target: Alphabet, sources: tuple[Alphabet, ...],
               rows: Iterable[Row], tol: float) -> JointDistribution:
    seen: set[Realization] = set()
    points = []
    for where, t, s, p in rows:
        mass = _parse_mass(p, f"{where}, field p")
        if mass < 0:
            raise DistributionFormatError(f"{where}, field p: negative mass {p}")
        try:
            r = Realization(t=target.index(t),
                            s=tuple(a.index(x) for a, x in zip(sources, s)))
        except DistributionError as exc:
            raise DistributionFormatError(f"{where}: {exc}") from None
        if r in seen:
            raise DistributionFormatError(f"{where}: duplicate realization")
        seen.add(r)
        points.append((r, mass))
    return JointDistribution.from_points(target, sources, points,
                                         normalization_tolerance=tol)


def _csv_rows(text: str) -> tuple[Alphabet, tuple[Alphabet, ...], list[Row]]:
    rows = list(csv.reader(io.StringIO(text)))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DistributionFormatError("row 1: empty input")
    header = [h.strip() for h in rows[0]]
    n = len(header) - 2
    if n < 1 or header != ["t", *(f"s{i}" for i in range(1, n + 1)), "p"]:
        raise DistributionFormatError(f"row 1: header must be t,s1,...,sn,p, got {header}")

    # Alphabets are inferred column-wise, symbols in order of first appearance.
    columns: list[dict[str, None]] = [{} for _ in range(n + 1)]
    parsed = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != n + 2:
            raise DistributionFormatError(f"row {lineno}: expected {n + 2} fields, got {len(row)}")
        *labels, p = (cell.strip() for cell in row)
        for column, label in zip(columns, labels):
            column.setdefault(label)
        parsed.append((f"row {lineno}", labels[0], labels[1:], p))
    target, *sources = (Alphabet(name, tuple(column))
                        for name, column in zip(header, columns))
    return target, tuple(sources), parsed


def _json_rows(text: str) -> tuple[Alphabet, tuple[Alphabet, ...], list[Row]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DistributionFormatError(str(exc)) from None

    def alphabet(obj: Mapping, where: str) -> Alphabet:
        try:
            name, symbols = obj["name"], obj["symbols"]
        except (KeyError, TypeError):
            raise DistributionFormatError(f"{where}: need name and symbols") from None
        if not isinstance(symbols, list):
            raise DistributionFormatError(f"{where}: symbols must be a list")
        return Alphabet(str(name), tuple(str(x) for x in symbols))

    try:
        target, source_docs, entries = (doc["target_alphabet"],
                                        doc["source_alphabets"], doc["support"])
    except (KeyError, TypeError):
        raise DistributionFormatError(
            "need target_alphabet, source_alphabets, support") from None
    if not isinstance(source_docs, list):
        raise DistributionFormatError("source_alphabets: expected a list of alphabets")
    if not isinstance(entries, list):
        raise DistributionFormatError("support: expected a list of points")
    target = alphabet(target, "target_alphabet")
    sources = tuple(alphabet(a, f"source_alphabets[{i}]")
                    for i, a in enumerate(source_docs))

    rows = []
    for i, entry in enumerate(entries):
        where = f"support[{i}]"
        try:
            t, s, p = entry["t"], entry["s"], entry["p"]
        except (KeyError, TypeError):
            raise DistributionFormatError(f"{where}: need t, s, p") from None
        if not isinstance(s, list) or len(s) != len(sources):
            raise DistributionFormatError(
                f"{where}: s must be a list of {len(sources)} symbols")
        rows.append((where, str(t), [str(x) for x in s], str(p)))
    return target, sources, rows


def dump_csv(d: JointDistribution) -> str:
    """Write ``d`` as CSV that ``load_distribution(..., "csv")`` reads back equal.

    The loader infers each alphabet in order of first appearance, so leading
    rows k = 0, 1, ... below the largest alphabet size declare the symbols:
    every column of row k holds its symbol ``min(k, size - 1)``. A leading row
    that is a support point carries its mass and is not written again; any
    other leading row carries mass 0. The support follows in index order.
    Float masses do not round-trip: the loader parses every mass as a
    rational, so they reload as exact ``Fraction``s unequal to the floats.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t"] + [f"s{i}" for i in range(1, d.n_sources + 1)] + ["p"])

    def write(r: Realization, m: Mass) -> None:
        writer.writerow([d.target_alphabet.label(r.t)]
                        + [a.label(si) for a, si in zip(d.source_alphabets, r.s)]
                        + [_format_mass(m, d.exact)])

    sizes = [len(d.target_alphabet)] + [len(a) for a in d.source_alphabets]
    leading = [Realization(t=min(k, sizes[0] - 1),
                           s=tuple(min(k, size - 1) for size in sizes[1:]))
               for k in range(max(sizes))]
    for r in leading:
        write(r, d.mass(r))
    written = set(leading)
    for r, m in zip(d.support, d.masses):
        if r not in written:
            write(r, m)
    return out.getvalue()


def dump_json(d: JointDistribution) -> str:
    doc = {
        "target_alphabet": {"name": d.target_alphabet.name,
                            "symbols": list(d.target_alphabet.symbols)},
        "source_alphabets": [{"name": a.name, "symbols": list(a.symbols)}
                             for a in d.source_alphabets],
        "support": [
            {"t": d.target_alphabet.label(r.t),
             "s": [a.label(si) for a, si in zip(d.source_alphabets, r.s)],
             "p": _format_mass(m, d.exact)}
            for r, m in zip(d.support, d.masses)
        ],
    }
    return json.dumps(doc, indent=2)
