"""Brute-force oracle: exact Shapovalov forms on truncated Verma tensor products.

Works in the weight-(lam - 2m) space of M_{lam_1} x ... x M_{lam_n}, spanned by
vectors F^{k_1}v_1 x ... x F^{k_n}v_n indexed by compositions of m.  The
raising operator acts factorwise, its exact rational nullspace is the level-m
multiplicity space, and the product Shapovalov form restricted to that
nullspace is diagonalized by congruence to read off inertia.  No floating
point anywhere in this module; it is the trust anchor for the other modules'
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import exact
from .exact import Matrix, express_in_basis  # express_in_basis is part of this module's API
from .sigchar import DomainError, GenericityError, RationalLike, ensure_generic, multiplicity_dim


def compositions(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Compositions of m into n nonnegative parts, in colexicographic order.

    Colex: compare at the last index where two compositions differ, so the
    last part varies slowest.  The ordering is part of the module contract so
    Gram matrices are reproducible.
    """
    if m < 0 or n < 1:
        raise DomainError("need m >= 0 and n >= 1")
    if n == 1:
        return ((m,),)
    return tuple(c + (last,) for last in range(m + 1) for c in compositions(m - last, n - 1))


def shapovalov_norm(lam: RationalLike, k: int) -> Fraction:
    """(F^k v, F^k v) = prod_{j=1}^{k} j*(lam - j + 1), normalized by (v, v) = 1."""
    lam = ensure_generic(lam)
    if k < 0:
        raise DomainError("k must be nonnegative")
    value = Fraction(1)
    for j in range(1, k + 1):
        value *= j * (lam - j + 1)
    return value


def raising_matrix(lams: Sequence[Fraction], m: int) -> Matrix:
    """Matrix of the coproduct raising operator, level m -> level m - 1.

    On a basis vector indexed by (k_1, ..., k_n) the image has coefficient
    k_i*(lam_i - k_i + 1) on the composition with k_i decremented.
    """
    n = len(lams)
    src = compositions(m, n)
    dst = compositions(m - 1, n) if m >= 1 else ()
    index = {c: r for r, c in enumerate(dst)}
    mat = [[Fraction(0)] * len(src) for _ in dst]
    for c, comp in enumerate(src):
        for i, k in enumerate(comp):
            if k == 0:
                continue
            target = comp[:i] + (k - 1,) + comp[i + 1 :]
            mat[index[target]][c] += k * (lams[i] - k + 1)
    return mat


def lowering_matrix(lams: Sequence[Fraction], m: int) -> Matrix:
    """Matrix of the coproduct lowering operator, level m -> level m + 1."""
    n = len(lams)
    src = compositions(m, n)
    dst = compositions(m + 1, n)
    index = {c: r for r, c in enumerate(dst)}
    mat = [[Fraction(0)] * len(src) for _ in dst]
    for c, comp in enumerate(src):
        for i, k in enumerate(comp):
            target = comp[:i] + (k + 1,) + comp[i + 1 :]
            mat[index[target]][c] += 1
    return mat


@dataclass(frozen=True)
class SingularBasis:
    """Exact basis of the weight-(lam - 2m) vectors killed by the raising operator."""

    lams: tuple[Fraction, ...]
    m: int
    compositions: tuple[tuple[int, ...], ...]
    vectors: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def singular_basis(lams: Sequence[RationalLike], m: int) -> SingularBasis:
    lams = tuple(ensure_generic(l) for l in lams)
    if len(lams) < 2:
        raise DomainError("need at least two tensor factors")
    if m < 0:
        raise DomainError("level must be nonnegative")
    n = len(lams)
    comps = compositions(m, n)
    basis = exact.nullspace(raising_matrix(lams, m), len(comps))
    expected = multiplicity_dim(n, m)
    if len(basis) != expected:
        raise GenericityError(
            f"kernel dimension {len(basis)} != {expected}; weights are degenerate"
        )
    return SingularBasis(lams, m, comps, tuple(tuple(v) for v in basis))


@dataclass(frozen=True)
class GramMatrix:
    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)


def weight_space_norms(lams: Sequence[Fraction], m: int) -> list[Fraction]:
    """Diagonal of the product form on the level-m composition basis."""
    table = [[shapovalov_norm(lam, k) for k in range(m + 1)] for lam in lams]
    return [
        math.prod((row[k] for row, k in zip(table, comp)), start=Fraction(1))
        for comp in compositions(m, len(lams))
    ]


def pair_vectors(
    lams: Sequence[Fraction], m: int, x: Sequence, y: Sequence
):
    """Product-form pairing of two coefficient vectors at the same level."""
    diag = weight_space_norms(lams, m)
    return sum(a * d * b for a, d, b in zip(x, diag, y))


def gram_on_multiplicity(lams: Sequence[RationalLike], m: int) -> GramMatrix:
    """Gram matrix of the induced form on the level-m multiplicity space."""
    return _gram_on_basis(singular_basis(lams, m))


def _gram_on_basis(basis: SingularBasis) -> GramMatrix:
    entries, singular = exact.gram(basis.vectors, weight_space_norms(basis.lams, basis.m))
    if singular:
        raise GenericityError("induced form is degenerate; weights not generic")
    return GramMatrix(tuple(tuple(row) for row in entries))


def exact_signature(gram: GramMatrix) -> tuple[int, int]:
    """Inertia (pos, neg) by exact congruence diagonalization.

    Symmetric pivoting; when every remaining diagonal entry vanishes, a
    row-plus-column addition exposes 2*A[i][j] as a usable pivot.  Raises on
    exactly singular input (the signal for non-generic weights).
    """
    entries = gram.entries
    size = len(entries)
    if any(len(row) != size for row in entries):
        raise DomainError("matrix must be square")
    for i in range(size):
        for j in range(i + 1, size):
            if entries[i][j] != entries[j][i]:
                raise DomainError("matrix must be symmetric")
    return exact.inertia(entries)
