"""Brute-force oracle: exact Shapovalov forms on truncated Verma tensor products.

Works in the weight-(lam - 2m) space of M_{lam_1} x ... x M_{lam_n}, spanned by
vectors F^{k_1}v_1 x ... x F^{k_n}v_n indexed by compositions of m.  The
raising operator acts factorwise, its exact rational nullspace is the level-m
multiplicity space, and the product Shapovalov form restricted to that
nullspace is diagonalized by congruence to read off inertia.  The weights are
cleared once to integers over a common denominator D; the raising matrix
times D, its kernel (a positive scale and an integer vector per free column),
the norms times D^m and the Gram matrix are integers, and one elimination of
that Gram matrix decides both nondegeneracy and inertia.  No floating point
anywhere in this module; it is the trust anchor for the other modules' tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import exact
from .exact import Matrix, express_in_basis  # express_in_basis is part of this module's API
from .sigchar import DomainError, GenericityError, RationalLike, ensure_generic, multiplicity_dim

_ZERO = Fraction(0)


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
    den = lam.denominator
    return Fraction(_norm_numerators(den, [lam.numerator], k)[0], den**k)


def _raising_columns(
    den: int, nums: Sequence[int], m: int
) -> tuple[int, list[list[tuple[int, int]]]]:
    """D times the raising matrix (level m -> m - 1) for lams = nums / D: its row count, and
    one sparse column per level-m composition k of (row, entry) pairs, mapping k to
    k_i*(lam_i - k_i + 1) times k with k_i decremented."""
    n = len(nums)
    index = {c: r for r, c in enumerate(compositions(m - 1, n))} if m >= 1 else {}
    return len(index), [
        [(index[comp[:i] + (k - 1,) + comp[i + 1 :]], k * (nums[i] - (k - 1) * den))
         for i, k in enumerate(comp) if k]
        for comp in compositions(m, n)
    ]


def _raising_rows(den: int, nums: Sequence[int], m: int) -> list[list[int]]:
    """_raising_columns as dense integer rows."""
    size, cols = _raising_columns(den, nums, m)
    rows = [[0] * len(cols) for _ in range(size)]
    for c, col in enumerate(cols):
        for r, x in col:
            rows[r][c] = x
    return rows


def raising_matrix(lams: Sequence[Fraction], m: int) -> Matrix:
    """Matrix of the coproduct raising operator, level m -> level m - 1."""
    den, nums = exact._integer_row(lams)
    return [[Fraction(x, den) for x in row] for row in _raising_rows(den, nums, m)]


@dataclass(frozen=True)
class SingularBasis:
    """Exact basis of the weight-(lam - 2m) vectors killed by the raising operator."""

    lams: tuple[Fraction, ...]
    m: int
    compositions: tuple[tuple[int, ...], ...]
    # (D, D * lams) and per vector v its canonical (s, s * v), s > 0 least; vector f is 1
    # at free_columns[f], 0 at every other free column; vectors decodes them on first read
    integral_weights: tuple[int, tuple[int, ...]] = field(compare=False, repr=False)
    integral_vectors: tuple[tuple[int, tuple[int, ...]], ...]
    free_columns: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.integral_vectors)

    @functools.cached_property
    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        kernel = self.integral_vectors
        return tuple(tuple(Fraction(x, s) if x else _ZERO for x in u) for s, u in kernel)


def singular_basis(lams: Sequence[RationalLike], m: int) -> SingularBasis:
    lams = tuple(ensure_generic(l) for l in lams)
    if len(lams) < 2:
        raise DomainError("need at least two tensor factors")
    if m < 0:
        raise DomainError("level must be nonnegative")
    n = len(lams)
    comps = compositions(m, n)
    den, nums = exact._integer_row(lams)
    free, kernel = exact.nullspace(_raising_rows(den, nums, m), len(comps))
    expected = multiplicity_dim(n, m)
    if len(kernel) != expected:
        raise GenericityError(
            f"kernel dimension {len(kernel)} != {expected}; weights are degenerate"
        )
    return SingularBasis(lams, m, comps, (den, tuple(nums)), tuple(kernel), tuple(free))


@dataclass(frozen=True)
class GramMatrix:
    entries: tuple[tuple[Fraction, ...], ...]
    # (pos, neg), when the builder already found it; else exact_signature eliminates
    inertia: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.entries)


def _norm_numerators(den: int, nums: Sequence[int], m: int) -> list[int]:
    """D^m times the diagonal of the product form on the level-m compositions, lams = nums / D."""
    table = []
    for a in nums:
        row = [1]
        for j in range(1, m + 1):
            row.append(row[-1] * j * (a - (j - 1) * den))
        table.append(row)
    return [math.prod(row[k] for row, k in zip(table, comp)) for comp in compositions(m, len(nums))]


def weight_space_norms(lams: Sequence[Fraction], m: int) -> list[Fraction]:
    """Diagonal of the product form on the level-m composition basis."""
    den, nums = exact._integer_row(lams)
    return [Fraction(w, den**m) for w in _norm_numerators(den, nums, m)]


def gram_on_multiplicity(lams: Sequence[RationalLike], m: int) -> GramMatrix:
    """Gram matrix of the induced form on the level-m multiplicity space."""
    return _gram_on_basis(singular_basis(lams, m))[0]


def _gram_on_basis(basis: SingularBasis) -> tuple[GramMatrix, list[list[int]]]:
    """The induced form from the basis's integers, with its inertia from one elimination.

    Entry (u, v) is G[u][v] / (s_u * s_v * D^m) for the integer Gram matrix G,
    a congruence by a positive diagonal, so G has the inertia of the form; returns both.
    """
    (den, nums), kernel = basis.integral_weights, basis.integral_vectors
    g = exact.gram([u for _, u in kernel], _norm_numerators(den, nums, basis.m))
    try:
        inertia = exact.inertia(g)
    except DomainError:
        raise GenericityError("induced form is degenerate; weights not generic") from None
    dm = den**basis.m
    entries = [[_ZERO] * len(g) for _ in g]
    for i, row in enumerate(g):
        for j in range(i, len(g)):
            entries[i][j] = entries[j][i] = Fraction(row[j], kernel[i][0] * kernel[j][0] * dm)
    return GramMatrix(tuple(map(tuple, entries)), inertia), g


def exact_signature(gram: GramMatrix) -> tuple[int, int]:
    """Inertia (pos, neg) by exact congruence diagonalization.

    Symmetric pivoting; when every remaining diagonal entry vanishes, a
    row-plus-column addition exposes 2*A[i][j] as a usable pivot.  Raises on
    exactly singular input (the signal for non-generic weights).  A Gram
    matrix from ``gram_on_multiplicity`` carries its inertia, which is then
    returned after the shape checks.
    """
    entries = gram.entries
    size = len(entries)
    if any(len(row) != size for row in entries):
        raise DomainError("matrix must be square")
    for i in range(size):
        for j in range(i + 1, size):
            if entries[i][j] != entries[j][i]:
                raise DomainError("matrix must be symmetric")
    return gram.inertia if gram.inertia is not None else exact.inertia(entries)
