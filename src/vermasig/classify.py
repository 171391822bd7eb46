"""Classification of definite multiplicity spaces from floor data alone.

For generic weights the multiplicity-space signatures of
M_{lam_1} x ... x M_{lam_n} depend only on the integer tuple
< floor(lam), floor(lam_1), ..., floor(lam_n) > (weights sorted descending).
This module classifies which levels carry definite spaces directly from that
tuple, and can cross-verify the answer against exact character peeling with
randomized fractional parts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .quantum import multiplicity_signature
from .sigchar import (
    DomainError,
    InvariantError,
    RationalLike,
    fractionize,
    peel_decompose,
)

# Prime denominator for representative fractional parts: partial sums of
# k/1009 cannot collide with integers unless 1009 divides the numerator sum.
_FRAC_DENOMINATOR = 1009


@dataclass(frozen=True)
class ExplicitType:
    """Floor tuple of a generic weight tuple, factors sorted descending."""

    total_floor: int
    factor_floors: tuple[int, ...]

    def __post_init__(self):
        floors = tuple(int(f) for f in self.factor_floors)
        object.__setattr__(self, "factor_floors", floors)
        if len(floors) < 2:
            raise DomainError("need at least two tensor factors")
        if any(floors[i] < floors[i + 1] for i in range(len(floors) - 1)):
            raise DomainError("factor floors must be sorted descending")
        lo = sum(floors)
        if not lo <= self.total_floor <= lo + len(floors) - 1:
            raise DomainError(
                f"total floor {self.total_floor} inconsistent with factor "
                f"floors {floors} (must lie in [{lo}, {lo + len(floors) - 1}])"
            )

    @property
    def n(self) -> int:
        return len(self.factor_floors)

    @property
    def p(self) -> int:
        """Number of positive weights; lam_i > 0 iff floor(lam_i) >= 0."""
        return sum(1 for f in self.factor_floors if f >= 0)


@dataclass(frozen=True)
class DefiniteReport:
    """Definite levels with signs, complete for all levels <= complete_up_to."""

    entries: tuple[tuple[int, int], ...]
    complete_up_to: int

    def __post_init__(self):
        levels = [lv for lv, _ in self.entries]
        if levels != sorted(set(levels)):
            raise DomainError("levels must be strictly increasing")
        if any(s not in (-1, 1) for _, s in self.entries):
            raise DomainError("signs must be +1 or -1")

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


def _ensure_nonintegral(x: Fraction, name: str) -> Fraction:
    if x.denominator == 1:
        raise DomainError(f"{name} = {x} must be non-integral")
    return x


def two_factor_sign(x1: RationalLike, x2: RationalLike, k: int) -> int:
    """Sign of the level-k multiplicity space of M_{x1} x M_{x2}.

    Defined for non-integral x1 > x2 and k >= 0; the pair must be generic,
    i.e. x1 + x2 is allowed to be integral only when negative.  This is the
    signature formula at n = 2: the sign of
    (x2 choose k) / (x1 choose k) * (x1 + x2 + 1 - k choose k) at q = 1.
    """
    x1 = _ensure_nonintegral(fractionize(x1), "x1")
    x2 = _ensure_nonintegral(fractionize(x2), "x2")
    if not x1 > x2:
        raise DomainError(f"need x1 > x2, got {x1} <= {x2}")
    s = x1 + x2
    if s.denominator == 1 and s >= 0:
        raise DomainError(f"x1 + x2 = {s} is a nonnegative integer (not generic)")
    if k < 0:
        raise DomainError("level k must be nonnegative")
    return multiplicity_signature((x1, x2), k)


def default_level_bound(t: ExplicitType) -> int:
    """Bound past which no definite space can occur; covers every exceptional family."""
    return 2 * max(t.factor_floors[0], 0) + 6


def _pair_representatives(t: ExplicitType) -> tuple[Fraction, Fraction]:
    # Any fractional parts consistent with the floor data give the same signs:
    # the n = 2 formula reads only the floors of x1, x2 and x1 + x2.
    f1, f2 = t.factor_floors
    carry = t.total_floor - (f1 + f2)
    if carry == 0:
        r1, r2 = Fraction(3, 5), Fraction(1, 5)
    else:
        r1, r2 = Fraction(4, 5), Fraction(3, 5)
    return f1 + r1, f2 + r2


def _merge(levels: dict[int, int], new: Sequence[tuple[int, int]]) -> None:
    for level, sign in new:
        if levels.get(level, sign) != sign:
            raise InvariantError(f"sign conflict at level {level}")
        levels[level] = sign


def _case6_exceptions(t: ExplicitType) -> list[tuple[int, int]]:
    total, floors, n = t.total_floor, t.factor_floors, t.n
    out: list[tuple[int, int]] = []
    if n == 3:
        f1, f2, f3 = floors
        if f1 == f2 == f3:
            d = f1
            if total == 3 * d:
                out += [(2 * d + 1, 1), (2 * d + 2, 1)]
            elif total == 3 * d + 2:
                out += [(2 * d + 2, -1), (2 * d + 3, -1)]
        elif f1 == f2 == f3 + 1:
            d = f1
            if total == 3 * d - 1:
                out += [(2 * d + 1, 1)]
            elif total == 3 * d + 1:
                out += [(2 * d + 2, -1)]
        elif f1 == f2 + 1 == f3 + 1:
            d = f1
            if total == 3 * d - 2:
                out += [(2 * d, 1)]
            elif total == 3 * d:
                out += [(2 * d + 1, -1)]
    if n == 4:
        if total == 3 and floors == (0, 0, 0, 0):
            out += [(3, -1)]
        if total == 4 and floors == (1, 1, 1, 1):
            out += [(4, 1)]
    if n >= 4:
        if total == 0 and not any(floors):
            out += [(2, 1)]
        if total == 1 and floors == (1,) + (0,) * (n - 1):
            out += [(2, 1)]
    return out


def classify_definite(t: ExplicitType, level_bound: int | None = None) -> DefiniteReport:
    """Definite multiplicity-space levels and signs for an explicit type.

    Cases, dispatched in order:
      all weights negative          -> every level definite, sign (-1)^m;
      two factors                   -> every level definite, sign from
                                       two_factor_sign on representatives;
      one positive (n >= 3)         -> alternating signs on levels 0 through
                                       max(0, ceil(lam/2));
      2 <= p <= n-2 (n >= 4)        -> only level 0, positive;
      one negative (n >= 3)         -> positive blocks keyed to ceil(lam+1)
                                       vs ceil(lam_p), one exceptional type;
      all positive (n >= 3)         -> levels 0..ceil(lam_p) positive plus a
                                       finite list of exceptional families.
    """
    bound = default_level_bound(t) if level_bound is None else level_bound
    if bound < 0:
        raise DomainError("level bound must be nonnegative")
    n, p = t.n, t.p
    total = t.total_floor
    levels: dict[int, int] = {}

    if p == 0:
        _merge(levels, [(m, -1 if m % 2 else 1) for m in range(bound + 1)])
    elif n == 2:
        x1, x2 = _pair_representatives(t)
        _merge(levels, [(m, two_factor_sign(x1, x2, m)) for m in range(bound + 1)])
    elif p == 1:
        # ceil(lam/2) = floor(total_floor/2) + 1 for non-integral lam; the
        # max(0, .) clamp makes the same value correct for integral lam < 0.
        top = max(0, total // 2 + 1)
        _merge(levels, [(m, -1 if m % 2 else 1) for m in range(min(top, bound) + 1)])
    elif p == n:
        ceil_min = t.factor_floors[-1] + 1
        _merge(levels, [(m, 1) for m in range(min(ceil_min, bound) + 1)])
        _merge(levels, [(lv, s) for lv, s in _case6_exceptions(t) if lv <= bound])
    elif p == n - 1:
        _merge(levels, [(0, 1)])
        ceil_p = t.factor_floors[p - 1] + 1
        if total <= -1:
            _merge(levels, [(m, 1) for m in range(min(ceil_p, bound) + 1)])
        elif total + 2 <= ceil_p:
            _merge(levels, [(m, 1) for m in range(total + 2, min(ceil_p, bound) + 1)])
        elif (total, t.factor_floors) == (1, (0, 0, -1)) and bound >= 2:
            _merge(levels, [(2, -1)])
    else:  # 2 <= p <= n - 2, n >= 4
        _merge(levels, [(0, 1)])

    entries = tuple(sorted(levels.items()))
    return DefiniteReport(entries, bound)


def representative_weights(
    t: ExplicitType,
    rng: random.Random | None = None,
    denominator: int = _FRAC_DENOMINATOR,
) -> tuple[Fraction, ...]:
    """Random generic weights realizing the explicit type, sorted descending."""
    rng = rng or random.Random(0)
    n = t.n
    carry = t.total_floor - sum(t.factor_floors)
    lo = max(carry * denominator + 1, n)
    hi = min((carry + 1) * denominator - 1, n * (denominator - 1))
    if lo > hi:
        raise DomainError(f"no fractional parts with denominator {denominator} realize {t}")
    total = rng.randint(lo, hi)
    parts = []
    remaining = total
    for i in range(n):
        slots_left = n - 1 - i
        low = max(1, remaining - slots_left * (denominator - 1))
        high = min(denominator - 1, remaining - slots_left)
        part = rng.randint(low, high)
        parts.append(part)
        remaining -= part
    lams = sorted(
        (f + Fraction(a, denominator) for f, a in zip(t.factor_floors, parts)),
        reverse=True,
    )
    return tuple(lams)


def definite_levels_of(lams: Sequence[RationalLike], bound: int) -> tuple[tuple[int, int], ...]:
    """Definite (level, sign) pairs extracted from exact character peeling."""
    return peel_decompose(lams, bound).definite_levels(bound)


def verify_type(
    t: ExplicitType,
    level_bound: int | None = None,
    rng: random.Random | None = None,
) -> bool:
    """Check the classified definite set against the peeling oracle."""
    bound = default_level_bound(t) if level_bound is None else level_bound
    lams = representative_weights(t, rng)
    return definite_levels_of(lams, bound) == classify_definite(t, bound).entries


def explicit_type_of(lams: Sequence[RationalLike]) -> ExplicitType:
    """Explicit type of a generic weight tuple (factors sorted descending)."""
    lams = sorted((fractionize(l) for l in lams), reverse=True)
    return ExplicitType(
        total_floor=math.floor(sum(lams)),
        factor_floors=tuple(math.floor(l) for l in lams),
    )


def consistent_types(n: int, floor_min: int, floor_max: int) -> Iterator[ExplicitType]:
    """All explicit types with the given factor count and floor range."""
    def descending_tuples(length: int, top: int) -> Iterator[tuple[int, ...]]:
        if length == 0:
            yield ()
            return
        for f in range(floor_min, top + 1):
            for rest in descending_tuples(length - 1, f):
                yield (f,) + rest

    for floors in descending_tuples(n, floor_max):
        base = sum(floors)
        for total in range(base, base + n):
            yield ExplicitType(total, floors)
