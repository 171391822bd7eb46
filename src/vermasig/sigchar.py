"""Signature characters of generic sl2 Verma modules and their tensor products.

A signature character records, weight space by weight space, the inertia of a
nondegenerate contravariant Hermitian form: the coefficient ``a + s*b`` at a
weight means the form restricted to that weight space has ``a`` positive and
``b`` negative squares.  Coefficients live in Z[s]/(s^2 - 1); characters of
tensor products multiply like ordinary series in e^{weight}.

Everything here is exact: weights are rationals, coefficients are integers.
``asymptotic_signature``, a closed form in the level, equals peeling's
signature from the proved level ``asymptotic_threshold`` on.
A weight is *generic* when it is not a nonnegative integer (negative integers
are allowed); tuples additionally need a generic total.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence, Union

RationalLike = Union[Fraction, int, str]


class GenericityError(ValueError):
    """A weight (or a total weight) lies in Z_{>=0}, where forms degenerate."""


class DomainError(ValueError):
    """Arguments outside an operation's admissible domain."""


class InvariantError(RuntimeError):
    """A guaranteed identity failed (a bug, not bad input); raised, not asserted, to survive -O."""


def fractionize(x: RationalLike) -> Fraction:
    """Coerce ints, strings like ``"-7/10"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise DomainError(f"not an exact rational: {x!r}")


def is_generic(lam: RationalLike) -> bool:
    lam = fractionize(lam)
    return not (lam.denominator == 1 and lam >= 0)


def ensure_generic(lam: RationalLike, name: str = "weight") -> Fraction:
    lam = fractionize(lam)
    if not is_generic(lam):
        raise GenericityError(f"{name} {lam} is a nonnegative integer")
    return lam


def ensure_int(value, name: str, least: int | None = None) -> int:
    """value as an int, at least ``least`` if given: ints and numpy integers pass, 2.5 does not."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    return value


class SCoeff(NamedTuple):
    """Element a + s*b of Z[s]/(s^2 - 1), with s-parity already reduced."""

    plain: int
    twisted: int

    def __add__(self, other: "SCoeff") -> "SCoeff":
        return SCoeff(self.plain + other.plain, self.twisted + other.twisted)

    def __mul__(self, other: "SCoeff") -> "SCoeff":
        a, b = self
        c, d = other
        return SCoeff(a * c + b * d, a * d + b * c)


_ONE = SCoeff(1, 0)
_S = SCoeff(0, 1)


@dataclass(frozen=True)
class SignatureSeries:
    """Truncated signature character: sum_k coeffs[k] * e^{base - 2k}.

    ``coeffs[k]`` is attached to weight ``base - 2k``; indices run 0..depth.
    """

    base: Fraction
    coeffs: tuple[SCoeff, ...]

    @property
    def depth(self) -> int:
        return len(self.coeffs) - 1

    def weight(self, k: int) -> Fraction:
        return self.base - 2 * k

    def at_minus_one(self) -> tuple[int, ...]:
        return tuple(c.plain - c.twisted for c in self.coeffs)


def verma_character(lam: RationalLike, depth: int) -> SignatureSeries:
    """Signature character of the Verma module with generic highest weight.

    For lam < 0 the level-j coefficient is s^j.  For lam > 0 it is 1 for
    j <= floor(lam) and s^{j + ceil(lam)} for j >= ceil(lam).  Only the parity
    of the s-exponent survives in Z[s]/(s^2 - 1).
    """
    lam = ensure_generic(lam)
    depth = ensure_int(depth, "depth", 0)
    if lam < 0:
        coeffs = tuple(_ONE if j % 2 == 0 else _S for j in range(depth + 1))
    else:
        fl = math.floor(lam)
        cl = fl + 1  # lam > 0 generic is non-integral
        coeffs = tuple(
            _ONE if j <= fl or (j + cl) % 2 == 0 else _S
            for j in range(depth + 1)
        )
    return SignatureSeries(lam, coeffs)


def multiply(x: SignatureSeries, y: SignatureSeries) -> SignatureSeries:
    """Convolution product; output truncated at min(x.depth, y.depth)."""
    depth = min(x.depth, y.depth)
    xs, ys = x.coeffs, y.coeffs
    out = (sum((xs[i] * ys[k - i] for i in range(k + 1)), SCoeff(0, 0)) for k in range(depth + 1))
    return SignatureSeries(x.base + y.base, tuple(out))


@dataclass(frozen=True)
class DecompositionEntry:
    """One multiplicity space: ``pos + neg`` is its dimension, pos - neg its signature."""

    level: int
    pos: int
    neg: int

    @property
    def dim(self) -> int:
        return self.pos + self.neg

    @property
    def signature(self) -> int:
        return self.pos - self.neg

    @property
    def is_definite(self) -> bool:
        return self.pos == 0 or self.neg == 0

    @property
    def definite_sign(self) -> int:
        """+1 / -1 for definite spaces, 0 otherwise."""
        if self.neg == 0:
            return 1
        if self.pos == 0:
            return -1
        return 0


@dataclass(frozen=True)
class Decomposition:
    """Peeled decomposition of a tensor product character into Verma characters."""

    n: int
    lambda_total: Fraction
    entries: tuple[DecompositionEntry, ...]

    def entry(self, m: int) -> DecompositionEntry:
        if not 0 <= (m := ensure_int(m, "level")) < len(self.entries):
            raise DomainError(f"level {m} outside 0..{len(self.entries) - 1}")
        return self.entries[m]

    def definite_levels(self, bound: int | None = None) -> tuple[tuple[int, int], ...]:
        """Sorted (level, sign) pairs of the definite spaces up to ``bound``."""
        last = len(self.entries) - 1
        top = last if bound is None else min(ensure_int(bound, "bound", 0), last)
        return tuple(
            (e.level, e.definite_sign)
            for e in self.entries[: top + 1]
            if e.is_definite
        )


def multiplicity_dim(n: int, m: int) -> int:
    """Dimension C(m+n-2, n-2) of the level-m multiplicity space of n generic factors."""
    return math.comb(m + n - 2, n - 2)


def ensure_generic_tuple(lams: Iterable[RationalLike]) -> tuple[list[Fraction], Fraction]:
    """At least two generic weights with a generic sum: the weights and the sum, as Fractions."""
    out = [ensure_generic(l) for l in lams]
    if len(out) < 2:
        raise DomainError("need at least two tensor factors")
    return out, ensure_generic(sum(out), "total weight")


def _numerator_product(lams: Sequence[Fraction], depth: int | None = None) -> tuple[list, list]:
    """(plain, twisted), coefficient k of prod_i N_{lam_i} being plain[k] + s*twisted[k], up to
    x^depth (all of them for None), where N_lam = (1 - s x) ch(M_lam) is 1 for lam < 0 and
    1 + (1 - s)(x + ... + x^ceil(lam)) for lam > 0.  As (1 - s)(p + s t) = (p - t)(1 - s),
    a factor adds to coefficient k, and takes from its t, the sum of p - t over k - ceil(lam)
    .. k - 1: a difference of two running sums.  Coefficients past depth are cut."""
    plain, twisted = [1], [0]
    for lam in lams:
        if (width := math.ceil(lam)) <= 0:
            continue
        size = len(plain) + width if depth is None else min(len(plain) + width, depth + 1)
        pad = [0] * (size - len(plain))
        plain, twisted = plain + pad, twisted + pad
        sums = [0] * width + list(accumulate(map(operator.sub, plain, twisted), initial=0))
        windows = list(map(operator.sub, sums[width:], sums))
        plain = list(map(operator.add, plain, windows))
        twisted = list(map(operator.sub, twisted, windows))
    return plain, twisted


def peel_decompose(lams: Sequence[RationalLike], depth: int) -> Decomposition:
    """Decompose prod_i ch(M_{lam_i}) as sum_m (pos + s*neg) ch(M_{lam-2m}).

    In x = e^{-2} the c_m = pos + s*neg solve sum_m c_m x^m N_{lam-2m} =
    prod_i N_{lam_i} / (1 - s x)^(n-1) (see ``_numerator_product``).  With each
    coefficient k times s^k (plain and twisted swapped at odd k), a division by
    (1 - s x) is a running sum.  As N_{lam-2m'} adds (1 - s) c_{m'} to levels
    m' + 1 .. ceil(lam) - m', c_m is that series' coefficient less (1 - s)
    times the summed pos - neg of the levels m' < m with m' <= ceil(lam) - m.
    Dimension and nonnegativity of every entry are hard internal checks: a
    failure means an arithmetic bug, not bad input.
    """
    lams, total = ensure_generic_tuple(lams)
    depth = ensure_int(depth, "depth", 0)
    n = len(lams)
    plain, twisted = (c + [0] * (depth + 1 - len(c)) for c in _numerator_product(lams, depth))
    plain[1::2], twisted[1::2] = twisted[1::2], plain[1::2]
    for _ in range(n - 1):
        plain, twisted = list(accumulate(plain)), list(accumulate(twisted))
    plain[1::2], twisted[1::2] = twisted[1::2], plain[1::2]
    top = math.ceil(total)
    signatures = [0]  # signatures[i]: summed pos - neg of the levels below i
    entries = []
    for m, (p, t) in enumerate(zip(plain, twisted)):
        correction = signatures[max(0, min(m, top + 1 - m))]
        pos, neg = p - correction, t + correction
        expected = multiplicity_dim(n, m)
        if not (pos >= 0 and neg >= 0 and pos + neg == expected):
            raise InvariantError(
                f"peeling invariant broken at level {m}: ({pos}, {neg}) "
                f"should be nonnegative with sum {expected}"
            )
        entries.append(DecompositionEntry(m, pos, neg))
        signatures.append(signatures[-1] + pos - neg)
    return Decomposition(n, total, tuple(entries))


def _binom_poly(x: int, r: int) -> int:
    """Binomial coefficient as the degree-r polynomial x(x-1)...(x-r+1)/r!."""
    num = 1
    for j in range(r):
        num *= x - j
    quotient, remainder = divmod(num, math.factorial(r))
    if remainder:
        raise InvariantError(f"x(x-1)...(x-{r - 1}) with x = {x} is not divisible by {r}!")
    return quotient


def asymptotic_signature(lams: Sequence[RationalLike], m: int) -> int:
    """Signature of the level-m multiplicity space, valid for large m.

    Expands the numerator product of ``peel_decompose`` at s = -1, the product
    over positive weights of (1 + 2x + ... + 2x^{ceil(lam_i)}), into
    coefficients c_i and returns
    (-1)^m * sum_i binom(m + n - 2 - i, n - 2) * (-1)^i * c_i,
    with the binomial read as a polynomial in m.  It equals peel_decompose's
    signature from ``asymptotic_threshold(lams)`` on.
    """
    lams, m = ensure_generic_tuple(lams)[0], ensure_int(m, "level", 0)
    n = len(lams)
    total = 0
    for i, (p, t) in enumerate(zip(*_numerator_product(lams))):
        total += _binom_poly(m + n - 2 - i, n - 2) * (-1) ** i * (p - t)
    return (-1) ** m * total


def asymptotic_threshold(lams: Sequence[RationalLike]) -> int:
    """Level from which ``asymptotic_signature`` equals peeling's signature:
    max(0, ceil(lam) + 1, sum_{lam_i > 0} ceil(lam_i) - n + 2).

    Proof.  From m >= ceil(lam) + 1 peeling's correction index is 0, so its level-m
    signature is coefficient m of the numerator product at s = -1 over (1 + x)^(n-1):
    the sum over i <= m of c_i (-1)^(m-i) binom(m + n - 2 - i, n - 2).  From
    m >= sum ceil(lam_i^+) - n + 2 every ``_binom_poly`` argument m + n - 2 - i is
    >= 0, so each binomial polynomial is a true binomial, 0 for i > m: the sums agree.
    """
    lams, total = ensure_generic_tuple(lams)
    width = sum(math.ceil(l) for l in lams if l > 0)
    return max(0, math.ceil(total) + 1, width - len(lams) + 2)


def e_decomposition_check(mu: RationalLike, depth: int) -> bool:
    """Self-test: a single weight line e^mu decomposes into Verma characters.

    Checks, as truncated series evaluated at s = -1, that e^mu equals
    ch(M_mu) - sign(mu) ch(M_{mu-2}) + (sign(1-mu) - 1) ch(M_{mu-2*ceil(mu)}).
    The third coefficient vanishes unless mu > 1, in which case its shift
    ceil(mu) is at least 2.
    """
    mu = ensure_generic(mu)
    depth = ensure_int(depth, "depth", 0)
    total = [0] * (depth + 1)

    def accumulate(coeff: int, shift: int, lam: Fraction) -> None:
        if coeff == 0 or shift > depth:
            return
        for k, v in enumerate(verma_character(lam, depth - shift).at_minus_one()):
            total[shift + k] += coeff * v

    accumulate(1, 0, mu)
    accumulate(-1 if mu > 0 else 1, 1, mu - 2)
    third = (1 if mu < 1 else -1) - 1
    accumulate(third, math.ceil(mu), mu - 2 * math.ceil(mu))
    return total[0] == 1 and not any(total[1:])
