"""Brute-force oracle: exact Shapovalov forms on truncated Verma tensor products.

Works in the weight-(lam - 2m) space of M_{lam_1} x ... x M_{lam_n}, spanned by
vectors F^{k_1}v_1 x ... x F^{k_n}v_n indexed by compositions of m.  The
raising operator acts factorwise, its kernel is the level-m multiplicity
space, and the product Shapovalov form restricted to that kernel is
diagonalized by congruence to read off inertia.  The weights are cleared once
to integers over a common denominator D.  The raising equations are
triangular in the first factor, so the kernel comes from an integer recursion
over the first part, without elimination, and is then checked exactly against
the raising operator.  The kernel (a positive scale and an integer vector per
free column), the norms times D^m and the Gram matrix are integers, and one
elimination of that Gram matrix decides both nondegeneracy and inertia, which
the GramMatrix stores.  No floating point anywhere in this module; it is the
trust anchor for the other modules' tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import exact
from .exact import Matrix, express_in_basis  # express_in_basis is part of this module's API
from .sigchar import DomainError, GenericityError, InvariantError, RationalLike, ensure_generic

_ZERO = Fraction(0)


# cached: a basis, its kernel check and its norms enumerate the same few levels
@functools.lru_cache(maxsize=256)
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


def _check_killed(den: int, nums: Sequence[int], m: int, vectors, what: str) -> None:
    """Raise InvariantError unless D times the raising operator, applied column by
    column, kills each integer level-m vector; ``what`` names the vectors."""
    size, columns = _raising_columns(den, nums, m)
    for w in vectors:
        raised = [0] * size
        for x, column in zip(w, columns):
            if x:
                for row, e in column:
                    raised[row] += e * x
        if any(raised):
            raise InvariantError(f"{what} not killed by the raising operator: arithmetic bug")


def raising_matrix(lams: Sequence[Fraction], m: int) -> Matrix:
    """Matrix of the coproduct raising operator, level m -> level m - 1."""
    den, nums = exact._integer_row(lams)
    size, cols = _raising_columns(den, nums, m)
    rows = [[_ZERO] * len(cols) for _ in range(size)]
    for c, col in enumerate(cols):
        for r, x in col:
            rows[r][c] = Fraction(x, den)
    return rows


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
    comps = compositions(m, len(lams))
    den, nums = exact._integer_row(lams)
    free, kernel = _kernel(den, nums, m)
    _check_killed(den, nums, m, (u for _, u in kernel), "a singular vector is")
    return SingularBasis(lams, m, comps, (den, tuple(nums)), tuple(kernel), tuple(free))


def _kernel(
    den: int, nums: Sequence[int], m: int
) -> tuple[list[int], list[tuple[int, tuple[int, ...]]]]:
    """The free columns and each kernel vector v of the raising operator as (s, s * v).

    Equation j (a level-(m - 1) composition) of E v = 0 holds one unknown with first
    part j_1 + 1, and its coefficient (j_1 + 1)(lam_1 - j_1) is nonzero for generic
    lam_1, so the kernel is fixed by its values at the compositions with k_1 = 0: the
    free columns of the reduced row echelon form.  Vector f is 1 at free column f and
    0 at the others.  With lams = a / D and M_1(t) = prod_{t' < t} (t' + 1)(a_1 - t'D),
    y = M_1(k_1) v is integral:

        y(j + e_1) = -sum_{i >= 2} (j_i + 1)(a_i - j_i D) y(j + e_i).

    y is nonzero only at k = f + |d| e_1 - d for 0 <= d <= f on parts 2..n; they are
    visited in an order that reaches d - e_i before d.  M_1(m) v =
    y M_1(m) / M_1(k_1) is divided by its gcd, so s > 0 is the least scale.
    """
    comps = compositions(m, len(nums))
    index = {c: r for r, c in enumerate(comps)}
    # coef[i][t] = (t + 1)(a_i - tD), the entry of D E at a part i equal to t + 1
    coef = [[(t + 1) * (a - t * den) for t in range(m)] for a in nums]
    tail = [1] * (m + 1)  # tail[t] = M_1(m) / M_1(t)
    for t in range(m - 1, -1, -1):
        tail[t] = tail[t + 1] * coef[0][t]
    sign = 1 if tail[0] > 0 else -1  # so that s = tail[0] / (gcd * sign) > 0
    free, kernel = [], []
    for col, f in enumerate(comps):
        if f[0]:
            continue
        rest = f[1:]
        # y[pos] at the flat position of d = rest - k in the box d <= rest, last part fastest
        strides = [math.prod(x + 1 for x in rest[i + 1 :]) for i in range(len(rest))]
        parts = list(zip(coef[1:], rest, strides))
        y, cols, vals = [], [], []
        for krest in itertools.product(*[range(x, -1, -1) for x in rest]):
            pos = len(y)
            value = 0 if pos else 1
            for (c, x, stride), k in zip(parts, krest):
                if k < x:
                    value -= c[k] * y[pos - stride]
            y.append(value)
            k1 = m - sum(krest)
            cols.append(index[(k1,) + krest])
            vals.append(value * tail[k1])
        g = math.gcd(*vals) * sign
        vec = [0] * len(comps)
        for c, v in zip(cols, vals):
            vec[c] = v // g
        free.append(col)
        kernel.append((tail[0] // g, tuple(vec)))
    return free, kernel


@dataclass(frozen=True)
class GramMatrix:
    """The induced form on a multiplicity space, stored as integers with its inertia."""

    # (d, scales, G): entry (u, v) is G[u][v] / (s_u * s_v * d) for the symmetric integer
    # Gram G, the kernel scales s_u > 0 and d = D^m; entries decodes it on first read
    integral_gram: tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]
    # (pos, neg) of G, which is the form's: it differs by a positive diagonal congruence
    inertia: tuple[int, int] = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.integral_gram[1])

    @functools.cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        d, scales, g = self.integral_gram
        return tuple(
            tuple(Fraction(x, su * sv * d) for x, sv in zip(row, scales))
            for row, su in zip(g, scales)
        )


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
    return _gram_on_basis(singular_basis(lams, m))


def _gram_on_basis(basis: SingularBasis) -> GramMatrix:
    """The induced form from the basis's integers, with its inertia from one elimination."""
    (den, nums), kernel = basis.integral_weights, basis.integral_vectors
    g = exact.gram([u for _, u in kernel], _norm_numerators(den, nums, basis.m))
    try:
        inertia = exact.inertia(g)
    except DomainError:
        raise GenericityError("induced form is degenerate; weights not generic") from None
    return GramMatrix((den**basis.m, tuple(s for s, _ in kernel), tuple(map(tuple, g))), inertia)


def exact_signature(gram: GramMatrix) -> tuple[int, int]:
    """Inertia (pos, neg) of the induced form: the pair that ``gram_on_multiplicity`` found by
    one congruence diagonalization of the integer Gram matrix, raising on a degenerate form."""
    return gram.inertia
