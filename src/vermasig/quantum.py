"""Quantum integer/binomial signs at unit-circle q and multiplicity signatures.

Signs of quantum integers [y] = sin(y*pi*t)/sin(pi*t) at q = e^{i*pi*t}, t = p/D,
are computed by integer arithmetic on y*den*p mod 2*den*D for y with
denominator den, so the combinatorial signature formula is exact: for tensor
products of the (a+1)-dimensional simple modules, and at q = 1 with generic
rational arguments for Verma-module multiplicity signatures.  One kernel signs
a product of binomials (one, or a transfer step's three) from their tops'
floors and remainders, at q = 1 by counting negative factors and at generic q
by brackets.  The formula is a transfer pass over prefix sums whose middle
steps do not depend on the level, so ``multiplicity_signatures`` answers every
level of a range 0..top in one pass.
A separate floating-point path builds the coefficients of the highest weight
vectors and the coboundary-twisted form on a two-factor product to verify the
closed form the signature formula rests on; the tests apply the coproduct
raising operator to those vectors to check that they are highest weight vectors.
It uses math and cmath alone, like the rest of this module.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import integer_row
from .sigchar import DomainError, RationalLike, ensure_generic_tuple, ensure_int, fractionize


class RootOfUnityError(ValueError):
    """A quantum integer needed by the computation vanishes at this q."""


@dataclass(frozen=True)
class QParam:
    """q = e^{i*pi*t} for exact rational t = numer/denom in (0, 1)."""

    numer: int
    denom: int

    def __post_init__(self):
        numer, denom = ensure_int(self.numer, "numer"), ensure_int(self.denom, "denom")
        if not 0 < numer < denom:
            raise DomainError("need 0 < t < 1")
        g = math.gcd(numer, denom)
        object.__setattr__(self, "numer", numer // g)
        object.__setattr__(self, "denom", denom // g)

    @property
    def t(self) -> Fraction:
        return Fraction(self.numer, self.denom)

    @property
    def q(self) -> complex:
        return cmath.exp(1j * math.pi * self.numer / self.denom)

    def power(self, exponent) -> complex:
        """q^exponent = e^{i*pi*t*exponent}, defined for any real exponent.

        Fractional exponents (the coboundary scalar needs q^{ab/2}) take the
        branch determined by the exponent itself, not by a complex root.
        """
        return cmath.exp(1j * math.pi * float(self.t) * float(exponent))


def _bracket_sign(y: int, den: int, qp: QParam) -> int:
    # sign of [y/den] = sin(pi*t*y/den)/sin(pi*t): reduce y*p modulo 2*den*D
    period = den * qp.denom
    r = (y * qp.numer) % (2 * period)
    if r % period == 0:
        raise RootOfUnityError(f"[{Fraction(y, den)}] vanishes at t = {qp.t}")
    return 1 if r < period else -1


def q_int_sign(j: int, qp: QParam) -> int:
    """Exact sign of [j] at q = e^{i*pi*t}: reduce j*p modulo 2D."""
    return _bracket_sign(ensure_int(j, "j"), 1, qp)


def _binomial_sign(bottom: int, tops: Sequence[tuple], den: int, qp: QParam | None) -> int:
    # sign of the product over tops = floor + rem/den, each given as (floor, rem) with
    # 0 <= rem < den, of (top choose bottom)_q; 0 once a top is an integer in [0, bottom),
    # and the tops after it are never evaluated, so they cannot raise
    if qp is None:
        # q = 1: one flip per negative factor top - i, 0 <= i < bottom
        flips = 0
        for floor, rem in tops:
            if floor < 0:
                flips += bottom
            elif floor < bottom:
                if not rem:
                    return 0
                flips += bottom - 1 - floor
        return -1 if flips % 2 else 1
    # generic q: the product of the signs of [top - j + 1] / [j], in units of 1/den
    sign = 1
    for floor, rem in tops:
        if not rem and 0 <= floor < bottom:
            return 0
        y = floor * den + rem
        for j in range(1, bottom + 1):
            sign *= _bracket_sign(y - (j - 1) * den, den, qp) * _bracket_sign(j, 1, qp)
    return sign


def q_binomial_sign(top, bottom: int, qp: QParam | None = None) -> int:
    """Sign of the quantum binomial (top choose bottom)_q; 0 if it vanishes.

    top may be any rational.  With qp=None the evaluation is at q = 1, where
    the binomial is the generalized one.  At generic q it is the product of
    [top - j + 1] / [j] over j = 1..bottom, with [y] = sin(y*pi*t)/sin(pi*t)
    for rational y (the Verma-weight extension of the integer case).
    """
    bottom, top = ensure_int(bottom, "bottom index", 0), fractionize(top)
    return _binomial_sign(bottom, (divmod(top.numerator, top.denominator),), top.denominator, qp)


def _transfer(weights: Sequence, top: int, qp: QParam | None, every_level: bool) -> dict:
    # the transfer pass of multiplicity_signature: the middle steps run to level top,
    # and the last one ends at every level <= top, or at top alone
    a = [fractionize(w) for w in weights]
    n = len(a)
    if n < 2:
        raise DomainError("need at least two tensor factors")
    top = ensure_int(top, "level", 0)
    d, scaled = integer_row(a)
    prefix_cuts = [divmod(v, d) for v in itertools.accumulate(scaled, initial=0)]
    weight_cuts = [divmod(v, d) for v in scaled]
    if qp is None:
        # peeling's domain, read off the cuts: only a refused tuple pays for the Fraction
        # sum of ensure_generic_tuple, which raises with peeling's message
        if any(f >= 0 and not r for f, r in (*weight_cuts, prefix_cuts[-1])):
            ensure_generic_tuple(a)
    elif d == 1 and any(x < 0 for x in scaled):
        raise DomainError("generic-q integer mode needs nonnegative weights")

    # live prefix sums -> summed terms of the prefixes ending there
    states = {0: 1}
    for j in range(1, n):
        (f1, r1), (f2, r2), weight = prefix_cuts[j + 1], prefix_cuts[j], weight_cuts[j]
        reached: dict[int, int] = {}
        for lo, total in states.items():
            low = (f2 - 2 * lo, r2)
            for hi in (top,) if j == n - 1 and not every_level else range(lo, top + 1):
                if hi == lo:  # sign 1, and no tops to build
                    reached[hi] = reached.get(hi, 0) + total
                elif sign := _binomial_sign(hi - lo, ((f1 + 1 - lo - hi, r1), low, weight), d, qp):
                    reached[hi] = reached.get(hi, 0) + sign * total
        states = reached
    return states


def multiplicity_signature(
    weights: Sequence[RationalLike], m: int, qp: QParam | None = None
) -> int:
    """Signature of the level-m multiplicity space of a tensor product.

    Fusing factors left to right, a composition (m_1, ..., m_{n-1}) of m
    tracks the running component b_j = A_j - 2*M_{j-1} (A, M prefix sums of
    the weights and of the composition) fused with a_{j+1} at level m_j; that
    step's multiplicity line has norm

        (a_{j+1} choose m_j)_q / (b_j choose m_j)_q *
        (b_j + a_{j+1} + 1 - m_j choose m_j)_q,

    and the composition contributes the product of the step-norm signs (+1,
    -1, or 0 when a binomial vanishes).  At generic q with nonnegative
    integer weights the sum over compositions is the signature of the induced
    coboundary form on the finite-dimensional multiplicity space; at q = 1
    with generic rational weights (GenericityError otherwise, as in peeling)
    it is the Verma-module signature pos_m - neg_m.

    A step's sign depends only on (M_{j-1}, M_j), so the sum is a transfer
    matrix: one vector over M = 0..m, updated n - 1 times.  Every binomial
    top is an A_j or a_j shifted by an integer, so the step signs read the
    floors and remainders of those over a common denominator, in integer
    arithmetic at every q.  At generic q a state that a nonzero term reaches
    stays live even if its terms cancel, so RootOfUnityError is raised
    exactly where such a term meets a zero [k].
    """
    return _transfer(weights, m, qp, False).get(m, 0)


def multiplicity_signatures(
    weights: Sequence[RationalLike], top: int, qp: QParam | None = None
) -> list[int]:
    """multiplicity_signature at levels 0..top from one pass: no prefix sum exceeds
    its level, so the middle steps run to top once and the last ends at each level.
    RootOfUnityError is raised exactly when some level 0..top alone raises it."""
    states = _transfer(weights, top, qp, True)
    return [states.get(m, 0) for m in range(top + 1)]


def crystal_multiplicity(a: Sequence[int], m: int) -> int:
    """Classical multiplicity of the weight-(sum(a) - 2m) simple summand.

    Counting lattice points: K(m) - K(m-1) with K(m) the number of integer
    tuples 0 <= k_i <= a_i summing to m, for 0 <= m <= sum(a)/2.  Above that
    the summand does not exist and the multiplicity is 0.
    """
    a, m = [ensure_int(x, "weight", 0) for x in a], ensure_int(m, "level", 0)
    if m > sum(a) // 2:
        return 0

    # counts[s] = K(s) for s <= m, one bounded factor at a time
    counts = [1] + [0] * m
    for bound in a:
        new = [0] * (m + 1)
        running = 0
        for s in range(m + 1):
            running += counts[s]
            if s - bound - 1 >= 0:
                running -= counts[s - bound - 1]
            new[s] = running
        counts = new
    return counts[m] - (counts[m - 1] if m else 0)


# ---------------------------------------------------------------------------
# numeric verification path: explicit vectors in V_a x V_b at concrete q
# ---------------------------------------------------------------------------


def q_int_value(k: int, qp: QParam) -> float:
    """[k] = sin(k*pi*t)/sin(pi*t) as a float."""
    t = float(qp.t)
    return math.sin(k * math.pi * t) / math.sin(math.pi * t)


def q_binomial_value(n: int, k: int, qp: QParam) -> float:
    """(n choose k)_q = prod_{j=1}^{k} [n-j+1]/[j], any integer n, k >= 0."""
    n, k = ensure_int(n, "top index"), ensure_int(k, "bottom index", 0)
    value = 1.0
    for j in range(1, k + 1):
        value *= q_int_value(n - j + 1, qp) / q_int_value(j, qp)
    return value


def _two_factor_level(a: int, b: int, m: int) -> tuple[int, int, int]:
    """(a, b, m) as ints, m a level of V_a x V_b: 0 <= m <= min(a, b), else DomainError."""
    a, b, m = ensure_int(a, "a"), ensure_int(b, "b"), ensure_int(m, "level")
    if not 0 <= m <= min(a, b):
        raise DomainError(f"need 0 <= m <= min(a, b), got m={m}")
    return a, b, m


def unit_normalized_hwv(a: int, b: int, m: int, qp: QParam) -> tuple[complex, ...]:
    """Highest weight vector u of the weight-(a+b-2m) summand of V_a x V_b.

    Returns its coefficients on v_i x w_{m-i}, i = 0..m, normalized so the
    v_0 x w_m one is 1: the i-th is
    (-1)^i q^{ai-i^2+i} (b-m+i choose i)_q / (a choose i)_q.
    """
    a, b, m = _two_factor_level(a, b, m)
    return tuple(
        (-1) ** i
        * qp.power(a * i - i * i + i)
        * q_binomial_value(b - m + i, i, qp)
        / q_binomial_value(a, i, qp)
        for i in range(m + 1)
    )


def coboundary_norm(a: int, b: int, m: int, qp: QParam) -> complex:
    """(u, u) for the unit-normalized highest weight vector, computed the long way.

    Builds the braided image of u, rescales by the inverse square root of the
    double-braiding scalar q^{ab-2am-2bm+2m^2-2m} (branch: the monomial
    q^{ab/2-am-bm+m^2-m}), and pairs against u through the diagonal
    single-factor norms (v_i, v_i) = (a choose i)_q.
    """
    u = unit_normalized_hwv(a, b, m, qp)
    c0 = (
        (-1) ** m
        * qp.power(Fraction(a * b, 2) - a * m - b * m + m * m - m)
        * q_binomial_value(b, m, qp)
        / q_binomial_value(a, m, qp)
    )
    # the braiding swaps the factors: the same coefficients with a and b exchanged
    braided = [c0 * v for v in unit_normalized_hwv(b, a, m, qp)]
    scalar = qp.power(-Fraction(a * b, 2) + a * m + b * m - m * m + m)
    paired = sum(
        braided[m - i]
        * u[i].conjugate()
        * q_binomial_value(a, i, qp)
        * q_binomial_value(b, m - i, qp)
        for i in range(m + 1)
    )
    return scalar * paired


def closed_form_norm(a: int, b: int, m: int, qp: QParam) -> float:
    """(u, u) = (b choose m)_q / (a choose m)_q * (a+b+1-m choose m)_q."""
    a, b, m = _two_factor_level(a, b, m)
    return (
        q_binomial_value(b, m, qp)
        / q_binomial_value(a, m, qp)
        * q_binomial_value(a + b + 1 - m, m, qp)
    )


def q_vandermonde_check(a: int, b: int, m: int, qp: QParam) -> bool:
    """Convolution identity the closed form rests on, checked numerically to a relative 1e-10."""
    a, b, m = _two_factor_level(a, b, m)
    lhs = qp.power(b * m - m * m + m) * sum(
        qp.power(-(a + b + 2 - 2 * m) * i)
        * q_binomial_value(m - b - 1, i, qp)
        * q_binomial_value(m - a - 1, m - i, qp)
        for i in range(m + 1)
    )
    rhs = q_binomial_value(2 * m - a - b - 2, m, qp)
    return abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
