"""Built-in example distributions with exact rational masses.

Each generator reproduces the support and masses of a standard PID test
case exactly; they double as fixtures for the acceptance suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .dist import Alphabet, JointDistribution, Realization

MAX_PARITY_BITS = 5


def _bits(name: str) -> Alphabet:
    return Alphabet(name, ("0", "1"))


def _build(target: Alphabet, sources: list[Alphabet],
           rows: list[tuple[int, tuple[int, ...], Fraction]]) -> JointDistribution:
    points = [(Realization(t=t, s=s), p) for t, s, p in rows]
    return JointDistribution.from_points(target, sources, points)


def xor_distribution() -> JointDistribution:
    """Two independent uniform bits, target is their exclusive OR."""
    q = Fraction(1, 4)
    rows = [(a ^ b, (a, b), q) for a in (0, 1) for b in (0, 1)]
    return _build(_bits("t"), [_bits("s1"), _bits("s2")], rows)


def pwunq_distribution() -> JointDistribution:
    """At every realization exactly one source determines the target."""
    q = Fraction(1, 4)
    tri = lambda name: Alphabet(name, ("0", "1", "2"))
    rows = [(0, (0, 1), q), (0, (1, 0), q), (1, (0, 2), q), (1, (2, 0), q)]
    # target symbols "1" and "2"
    return _build(Alphabet("t", ("1", "2")), [tri("s1"), tri("s2")], rows)


def rnd_distribution() -> JointDistribution:
    """Fully redundant pair: both sources always equal the target."""
    h = Fraction(1, 2)
    rows = [(0, (0, 0), h), (1, (1, 1), h)]
    return _build(_bits("t"), [_bits("s1"), _bits("s2")], rows)


def rnderr_distribution() -> JointDistribution:
    """Redundant pair where the second source errs a quarter of the time."""
    rows = [(0, (0, 0), Fraction(3, 8)), (1, (1, 1), Fraction(3, 8)),
            (0, (0, 1), Fraction(1, 8)), (1, (1, 0), Fraction(1, 8))]
    return _build(_bits("t"), [_bits("s1"), _bits("s2")], rows)


def xorduplicate_distribution() -> JointDistribution:
    """XOR of the first two sources with a third source copying the first."""
    q = Fraction(1, 4)
    rows = [(a ^ b, (a, b, a), q) for a in (0, 1) for b in (0, 1)]
    return _build(_bits("t"), [_bits("s1"), _bits("s2"), _bits("s3")], rows)


def parity_distribution(k: int) -> JointDistribution:
    """k independent uniform bits, target is their parity (k <= 5)."""
    if not 1 <= k <= MAX_PARITY_BITS:
        raise ValueError(f"parity bit count must be in 1..{MAX_PARITY_BITS}")
    q = Fraction(1, 2**k)
    codes = (tuple(code >> i & 1 for i in range(k)) for code in range(2**k))
    rows = [(sum(s) % 2, s, q) for s in codes]
    return _build(_bits("t"), [_bits(f"s{i + 1}") for i in range(k)], rows)


BUILTINS: dict[str, Callable[[], JointDistribution]] = {
    "xor": xor_distribution,
    "pwunq": pwunq_distribution,
    "rnd": rnd_distribution,
    "rnderr": rnderr_distribution,
    "xorduplicate": xorduplicate_distribution,
}


def builtin_names() -> list[str]:
    return sorted(BUILTINS) + [f"parity:k (k<={MAX_PARITY_BITS})"]


def builtin_distribution(name: str) -> JointDistribution:
    """Look up a builtin by name; ``parity:k`` selects the k-bit parity.

    Raises ``KeyError`` for any name that is not a builtin: an unknown name,
    a malformed ``parity:`` spec, or ``parity:k`` with k outside
    ``1..MAX_PARITY_BITS``. Callers rely on exactly this exception to fall
    back to reading ``name`` as a file path.
    """
    key = name.strip().lower()
    if key.startswith("parity:"):
        try:
            k = int(key.split(":", 1)[1])
        except ValueError:
            raise KeyError(f"bad parity spec {name!r}") from None
        if not 1 <= k <= MAX_PARITY_BITS:
            raise KeyError(f"bad parity spec {name!r}: "
                           f"parity bit count must be in 1..{MAX_PARITY_BITS}")
        return parity_distribution(k)
    if key in BUILTINS:
        return BUILTINS[key]()
    raise KeyError(f"unknown builtin {name!r}; choose from {builtin_names()}")
