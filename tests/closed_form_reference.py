"""References for the closed forms, kept as the tests' independent oracles.

These are the enumerations the library used before its recurrences:
``composition_sum`` sums the signature formula over every composition of m
(``multiplicity_signature`` now runs a transfer matrix over prefix sums),
``binomial_sign_loop`` walks the factors of a q = 1 binomial one by one (the
library now reads its sign off the floor of the top), and ``greedy_peel``
multiplies truncated Verma characters and peels them level by level
(``peel_decompose`` now divides one numerator series).  ``lex_compositions``
is the enumerator behind ``composition_sum`` and the Bethe references.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from vermasig.quantum import q_binomial_sign
from vermasig.sigchar import (
    Decomposition,
    DecompositionEntry,
    DomainError,
    InvariantError,
    SCoeff,
    _ensure_generic_tuple,
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


def _sign(top, bottom, qp):
    if qp is None:
        return 1 if bottom == 0 else binomial_sign_loop(fractionize(top), bottom)
    return q_binomial_sign(top, bottom, qp)


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


def greedy_peel(lams, depth: int) -> Decomposition:
    """Peel prod_i ch(M_{lam_i}) into Verma characters, one level at a time.

    At step m the remainder's level-m coefficient is the multiplicity
    coefficient of ch(M_{lam-2m}), so subtracting its shifted multiple zeroes
    level m exactly.
    """
    lams = _ensure_generic_tuple(lams)
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
