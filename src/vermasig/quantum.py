"""Quantum integer/binomial signs at unit-circle q and multiplicity signatures.

Signs of quantum integers [k] = sin(k*pi*t)/sin(pi*t) at q = e^{i*pi*t} are
computed by integer arithmetic on k*p mod 2D for t = p/D, so the combinatorial
signature formula for tensor products of the (a+1)-dimensional simple modules
is exact.  The same formula evaluated at q = 1 with rational arguments gives
Verma-module multiplicity signatures.  A separate floating-point path builds
the actual highest weight vectors and the coboundary-twisted form on a
two-factor product to verify the closed form the signature formula rests on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .shapovalov import lex_compositions
from .sigchar import DomainError, RationalLike, fractionize


class RootOfUnityError(ValueError):
    """A quantum integer needed by the computation vanishes at this q."""


@dataclass(frozen=True)
class QParam:
    """q = e^{i*pi*t} for exact rational t = numer/denom in (0, 1)."""

    numer: int
    denom: int

    def __post_init__(self):
        if not 0 < self.numer < self.denom:
            raise DomainError("need 0 < t < 1")
        g = math.gcd(self.numer, self.denom)
        object.__setattr__(self, "numer", self.numer // g)
        object.__setattr__(self, "denom", self.denom // g)

    @classmethod
    def from_t(cls, t: RationalLike) -> "QParam":
        t = fractionize(t)
        return cls(t.numerator, t.denominator)

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


def q_int_sign(j: int, qp: QParam) -> int:
    """Exact sign of [j] at q = e^{i*pi*t}: reduce j*p modulo 2D."""
    if j == 0:
        raise RootOfUnityError("[0] = 0")
    r = (j * qp.numer) % (2 * qp.denom)
    if r % qp.denom == 0:
        raise RootOfUnityError(f"[{j}] vanishes at t = {qp.t}")
    return 1 if r < qp.denom else -1


def _real_index_sign(y: Fraction, qp: QParam) -> int:
    # sign of sin(y*pi*t) for rational y: reduce y*t modulo 2 exactly
    r = (y * qp.t) % 2
    if r.denominator == 1:
        raise RootOfUnityError(f"[{y}] vanishes at t = {qp.t}")
    return 1 if r < 1 else -1


def _rational_binomial_sign(top: Fraction, bottom: int) -> int:
    # sign of top*(top-1)*...*(top-bottom+1)/bottom! at q = 1
    sign = 1
    for i in range(bottom):
        if top == i:
            return 0
        if top < i:
            sign = -sign
    return sign


def q_binomial_sign(top, bottom: int, qp: QParam | None = None) -> int:
    """Sign of the quantum binomial (top choose bottom)_q; 0 if it vanishes.

    With qp=None the evaluation is at q = 1, where top may be any rational and
    the binomial is the generalized one.  At generic q an integer top < 0 is
    reduced through (l1 choose l2)_q = (-1)^{l2} (l2-l1-1 choose l2)_q; a
    rational top at generic q uses signs of sin(y*pi*t) with real index y
    (the Verma-weight extension of the integer case).
    """
    if bottom < 0:
        raise DomainError("bottom index must be nonnegative")
    if bottom == 0:
        return 1
    top = fractionize(top)
    if qp is None:
        return _rational_binomial_sign(top, bottom)
    if top.denominator == 1:
        n = int(top)
        if n < 0:
            return (-1) ** bottom * q_binomial_sign(bottom - n - 1, bottom, qp)
        if n < bottom:
            return 0
        sign = 1
        for j in range(1, bottom + 1):
            sign *= q_int_sign(n - j + 1, qp) * q_int_sign(j, qp)
        return sign
    sign = 1
    for j in range(1, bottom + 1):
        sign *= _real_index_sign(top - j + 1, qp) * q_int_sign(j, qp)
    return sign


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
    with generic rational weights it is the Verma-module signature
    pos_m - neg_m.
    """
    a = [fractionize(w) for w in weights]
    n = len(a)
    if n < 2:
        raise DomainError("need at least two tensor factors")
    if m < 0:
        raise DomainError("level must be nonnegative")
    if qp is not None and all(x.denominator == 1 for x in a):
        if any(x < 0 for x in a):
            raise DomainError("generic-q integer mode needs nonnegative weights")
    prefix = [Fraction(0)]
    for x in a:
        prefix.append(prefix[-1] + x)

    total = 0
    for comp in lex_compositions(m, n - 1):
        mk = [0]
        for part in comp:
            mk.append(mk[-1] + part)
        term = 1
        for j in range(1, n):
            mj = comp[j - 1]
            if mj == 0:
                continue
            term *= q_binomial_sign(1 + prefix[j + 1] - mk[j - 1] - mk[j], mj, qp)
            if term == 0:
                break
            term *= q_binomial_sign(prefix[j] - 2 * mk[j - 1], mj, qp)
            if term == 0:
                break
            term *= q_binomial_sign(a[j], mj, qp)
            if term == 0:
                break
        total += term
    return total


def crystal_multiplicity(a: Sequence[int], m: int) -> int:
    """Classical multiplicity of the weight-(sum(a) - 2m) simple summand.

    Counting lattice points: K(m) - K(m-1) with K(m) the number of integer
    tuples 0 <= k_i <= a_i summing to m.  Meaningful for 0 <= m <= sum(a)/2.
    """

    def bounded_count(target: int) -> int:
        if target < 0:
            return 0
        counts = [1] + [0] * target
        for bound in a:
            new = [0] * (target + 1)
            running = 0
            for s in range(target + 1):
                running += counts[s]
                if s - bound - 1 >= 0:
                    running -= counts[s - bound - 1]
                new[s] = running
            counts = new
        return counts[target]

    return bounded_count(m) - bounded_count(m - 1)


# ---------------------------------------------------------------------------
# numeric verification path: explicit vectors in V_a x V_b at concrete q
# ---------------------------------------------------------------------------


def q_int_value(k: int, qp: QParam) -> float:
    """[k] = sin(k*pi*t)/sin(pi*t) as a float."""
    t = float(qp.t)
    return math.sin(k * math.pi * t) / math.sin(math.pi * t)


def q_binomial_value(n: int, k: int, qp: QParam) -> float:
    """(n choose k)_q = prod_{j=1}^{k} [n-j+1]/[j], any integer n, k >= 0."""
    if k < 0:
        raise DomainError("bottom index must be nonnegative")
    value = 1.0
    for j in range(1, k + 1):
        value *= q_int_value(n - j + 1, qp) / q_int_value(j, qp)
    return value


@dataclass(frozen=True)
class QTensorState:
    """Vector in V_a x V_b: coeffs[i, j] multiplies v_i x w_j."""

    a: int
    b: int
    coeffs: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def unit_normalized_hwv(a: int, b: int, m: int, qp: QParam) -> QTensorState:
    """Highest weight vector of the weight-(a+b-2m) summand of V_a x V_b.

    Normalized so the v_0 x w_m coefficient is 1; the v_i x w_{m-i}
    coefficient is (-1)^i q^{ai-i^2+i} (b-m+i choose i)_q / (a choose i)_q.
    """
    if not 0 <= m <= min(a, b):
        raise DomainError(f"need 0 <= m <= min(a, b), got m={m}")
    coeffs = np.zeros((a + 1, b + 1), dtype=complex)
    for i in range(m + 1):
        coeffs[i, m - i] = (
            (-1) ** i
            * qp.power(a * i - i * i + i)
            * q_binomial_value(b - m + i, i, qp)
            / q_binomial_value(a, i, qp)
        )
    return QTensorState(a, b, coeffs)


def raising_action(state: QTensorState, qp: QParam) -> np.ndarray:
    """Coproduct raising operator E x 1 + K x E applied to a two-factor state."""
    a, b, c = state.a, state.b, state.coeffs
    out = np.zeros_like(c)
    for i in range(a + 1):
        for j in range(b + 1):
            if c[i, j] == 0:
                continue
            if i >= 1:
                out[i - 1, j] += q_int_value(a - i + 1, qp) * c[i, j]
            if j >= 1:
                out[i, j - 1] += qp.power(a - 2 * i) * q_int_value(b - j + 1, qp) * c[i, j]
    return out


def coboundary_norm(a: int, b: int, m: int, qp: QParam) -> complex:
    """(u, u) for the unit-normalized highest weight vector, computed the long way.

    Builds the braided image of u, rescales by the inverse square root of the
    double-braiding scalar q^{ab-2am-2bm+2m^2-2m} (branch: the monomial
    q^{ab/2-am-bm+m^2-m}), and pairs against u through the diagonal
    single-factor norms (v_i, v_i) = (a choose i)_q.
    """
    if not 0 <= m <= min(a, b):
        raise DomainError(f"need 0 <= m <= min(a, b), got m={m}")
    u = [
        (-1) ** i
        * qp.power(a * i - i * i + i)
        * q_binomial_value(b - m + i, i, qp)
        / q_binomial_value(a, i, qp)
        for i in range(m + 1)
    ]
    c0 = (
        (-1) ** m
        * qp.power(Fraction(a * b, 2) - a * m - b * m + m * m - m)
        * q_binomial_value(b, m, qp)
        / q_binomial_value(a, m, qp)
    )
    braided = [
        c0
        * (-1) ** i
        * qp.power(b * i - i * i + i)
        * q_binomial_value(a - m + i, i, qp)
        / q_binomial_value(b, i, qp)
        for i in range(m + 1)
    ]
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
    return (
        q_binomial_value(b, m, qp)
        / q_binomial_value(a, m, qp)
        * q_binomial_value(a + b + 1 - m, m, qp)
    )


def q_vandermonde_check(a: int, b: int, m: int, qp: QParam, rtol: float = 1e-10) -> bool:
    """Convolution identity the closed form rests on, checked numerically."""
    lhs = qp.power(b * m - m * m + m) * sum(
        qp.power(-(a + b + 2 - 2 * m) * i)
        * q_binomial_value(m - b - 1, i, qp)
        * q_binomial_value(m - a - 1, m - i, qp)
        for i in range(m + 1)
    )
    rhs = q_binomial_value(2 * m - a - b - 2, m, qp)
    return abs(lhs - rhs) <= rtol * max(1.0, abs(rhs))
