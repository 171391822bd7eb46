"""References for the closed forms, kept as the tests' independent oracles.

These are the algorithms the library used before its recurrences and its
one binomial-sign kernel:

- ``composition_sum`` sums the signature formula over every composition of m
  (``multiplicity_signature`` now runs a transfer matrix over prefix sums);
- ``binomial_sign_loop`` walks the factors of a q = 1 binomial one by one
  (the library reads its sign off the floor of the top);
- ``q_binomial_sign_loop`` is the generic-q sign over ``Fraction`` tops, with
  its own reduction of j*p mod 2D and a reflection for negative integer tops
  (the library reads every top as an integer floor plus a remainder);
- ``two_factor_piecewise`` is the piecewise recursion for the two-factor sign
  (``two_factor_sign`` is now the signature formula at n = 2);
- ``greedy_peel`` multiplies truncated Verma characters and peels them level
  by level (``peel_decompose`` now divides one numerator series).

``lex_compositions`` is the enumerator behind ``composition_sum`` and the
Bethe references.  Nothing here calls the library's sign code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from vermasig.quantum import QParam, RootOfUnityError
from vermasig.sigchar import (
    Decomposition,
    DecompositionEntry,
    DomainError,
    InvariantError,
    SCoeff,
    ensure_generic_tuple,
    fractionize,
    multiplicity_dim,
    multiply,
    verma_character,
)


def lex_compositions(total: int, slots: int):
    """Compositions of total into slots >= 1 nonnegative parts, in lexicographic order."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in lex_compositions(total - first, slots - 1):
            yield (first,) + rest


def binomial_sign_loop(top: Fraction, bottom: int) -> int:
    """Sign of top*(top-1)*...*(top-bottom+1)/bottom! at q = 1, factor by factor."""
    sign = 1
    for i in range(bottom):
        if top == i:
            return 0
        if top < i:
            sign = -sign
    return sign


def _q_int_sign(j: int, qp: QParam) -> int:
    # sign of [j] at q = e^{i*pi*t}: reduce j*p modulo 2D
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


def q_binomial_sign_loop(top, bottom: int, qp: QParam) -> int:
    """Sign of (top choose bottom)_q at generic q, factor by factor.

    An integer top < 0 is reduced through
    (l1 choose l2)_q = (-1)^{l2} (l2-l1-1 choose l2)_q; a rational top uses
    signs of sin(y*pi*t) with real index y.
    """
    if bottom < 0:
        raise DomainError("bottom index must be nonnegative")
    if bottom == 0:
        return 1
    top = fractionize(top)
    if top.denominator == 1:
        n = int(top)
        if n < 0:
            return (-1) ** bottom * q_binomial_sign_loop(bottom - n - 1, bottom, qp)
        if n < bottom:
            return 0
        sign = 1
        for j in range(1, bottom + 1):
            sign *= _q_int_sign(n - j + 1, qp) * _q_int_sign(j, qp)
        return sign
    sign = 1
    for j in range(1, bottom + 1):
        sign *= _real_index_sign(top - j + 1, qp) * _q_int_sign(j, qp)
    return sign


def _sign(top, bottom, qp):
    if qp is None:
        return 1 if bottom == 0 else binomial_sign_loop(fractionize(top), bottom)
    return q_binomial_sign_loop(top, bottom, qp)


def composition_sum(weights, m: int, qp=None) -> int:
    """The signature formula summed over all C(m+n-2, n-2) compositions of m.

    Each composition stops at its first vanishing step sign, so a
    RootOfUnityError is raised only by a quantum integer that a nonzero
    partial term reaches.
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
            term *= _sign(1 + prefix[j + 1] - mk[j - 1] - mk[j], mj, qp)
            if term == 0:
                break
            term *= _sign(prefix[j] - 2 * mk[j - 1], mj, qp)
            if term == 0:
                break
            term *= _sign(a[j], mj, qp)
            if term == 0:
                break
        total += term
    return total


def two_factor_piecewise(x1: Fraction, x2: Fraction, k: int) -> int:
    """Level-k sign of M_{x1} x M_{x2} for a generic non-integral pair x1 > x2.

    Piecewise in k, with one self-recursive branch that shifts x2 below zero;
    the additive correction in that branch is 0 or -2 depending on whether
    the fractional parts of x1 and x2 sum to less or more than 1.
    """
    s = x1 + x2
    if x1 < 0:  # 0 > x1 > x2
        return -1 if k % 2 else 1
    if x2 < 0 and s < 0:
        return binomial_sign_loop(x1, k)
    if x2 < 0:  # x1 > 0 > x2 with x1 + x2 > 0
        half_up = math.ceil(s / 2)
        half1_up = math.ceil((s + 1) / 2)
        if k <= math.floor(s / 2):
            return (-1) ** k
        if k <= math.floor((s + 1) / 2):
            return (-1) ** half_up
        if k <= math.ceil(s):
            return (-1) ** (half_up + half1_up + k)
        if k <= math.ceil(x1):
            return 1
        return (-1) ** (k - math.ceil(x1))
    # x1 > x2 > 0
    c1, c2 = math.ceil(x1), math.ceil(x2)
    if k <= math.floor(x2):
        return 1
    # The plain-recursion range must extend to floor(x1+x2) - floor(x2): when
    # the fractional parts sum past 1 this is ceil(x1), one more than
    # floor(x1), and stopping early would push the -2 correction onto a level
    # where it produces |sign| = 3.  Verified against exact peeling.
    if k <= max(c2, math.floor(s) - math.floor(x2)):
        return two_factor_piecewise(x1, x2 - 2 * c2, k - c2)
    if k <= c1 + c2:
        correction = 2 * (math.floor(x1) + math.floor(x2) - math.floor(s))
        return two_factor_piecewise(x1, x2 - 2 * c2, k - c2) + correction
    return (-1) ** (k - c1 - c2)


def greedy_peel(lams, depth: int) -> Decomposition:
    """Peel prod_i ch(M_{lam_i}) into Verma characters, one level at a time.

    At step m the remainder's level-m coefficient is the multiplicity
    coefficient of ch(M_{lam-2m}), so subtracting its shifted multiple zeroes
    level m exactly.
    """
    lams = ensure_generic_tuple(lams)
    n = len(lams)
    total = sum(lams)
    product = reduce(multiply, (verma_character(l, depth) for l in lams))
    rem = list(product.coeffs)
    entries = []
    for m in range(depth + 1):
        pos, neg = rem[m]
        expected = multiplicity_dim(n, m)
        if not (pos >= 0 and neg >= 0 and pos + neg == expected):
            raise InvariantError(
                f"peeling invariant broken at level {m}: ({pos}, {neg}) "
                f"should be nonnegative with sum {expected}"
            )
        beta = verma_character(total - 2 * m, depth - m)
        for k, (c, d) in enumerate(beta.coeffs):
            p, t = rem[m + k]
            rem[m + k] = SCoeff(p - (pos * c + neg * d), t - (pos * d + neg * c))
        entries.append(DecompositionEntry(m, pos, neg))
    return Decomposition(n, total, tuple(entries))
