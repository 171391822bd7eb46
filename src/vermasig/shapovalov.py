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
free column), the norms times D^m and the Gram matrix (``exact.pairing`` of the
kernel through the norms) are integers, and one elimination of that Gram matrix
decides both nondegeneracy and inertia, which the GramMatrix stores.  Each basis keeps
one integer ``Level``: the compositions, their index, the steps k(a_i - (k - 1)D) of
E F^k v = k(lam - k + 1) F^(k-1) v over D, and from them the sparse raising operator and
the norms, which every kernel check, Gram matrix and Gaudin image of the basis reads.
No floating point anywhere in this module; it is the trust anchor for the other modules' tests.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import exact
from .exact import express_in_basis  # express_in_basis is part of this module's API
from .sigchar import (
    DomainError, GenericityError, InvariantError, RationalLike, ensure_generic,
    ensure_generic_tuple, ensure_int,
)

_ZERO = Fraction(0)


# cached: the recursion and the levels of many bases share (m, n); typed, so 1.0 is not served as 1
@functools.lru_cache(maxsize=256, typed=True)
def compositions(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Compositions of m into n nonnegative parts, in colexicographic order.

    Colex: compare at the last index where two compositions differ, so the
    last part varies slowest.  The ordering is part of the module contract so
    Gram matrices are reproducible.
    """
    m, n = ensure_int(m, "m", 0), ensure_int(n, "n", 1)
    if n == 1:
        return ((m,),)
    return tuple(c + (last,) for last in range(m + 1) for c in compositions(m - last, n - 1))


def shapovalov_norm(lam: RationalLike, k: int) -> Fraction:
    """(F^k v, F^k v) = prod_{j=1}^{k} j*(lam - j + 1), normalized by (v, v) = 1."""
    lam, k = ensure_generic(lam), ensure_int(k, "k", 0)
    return Fraction(Level(lam.denominator, (lam.numerator,), k).norms[0], lam.denominator**k)


@dataclass(frozen=True)
class Level:
    """The level-m weight space of the product of Vermas with weights nums / D, on integers;
    each table is built on first use."""

    den: int
    nums: tuple[int, ...]
    m: int

    @functools.cached_property
    def compositions(self) -> tuple[tuple[int, ...], ...]:
        return compositions(self.m, len(self.nums))

    @functools.cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {c: r for r, c in enumerate(self.compositions)}

    @functools.cached_property
    def steps(self) -> list[list[int]]:
        """steps[i][k - 1] = k(a_i - (k - 1)D), k = 1..m: D E F^k v_i over F^(k-1) v_i."""
        return [[k * (a - (k - 1) * self.den) for k in range(1, self.m + 1)] for a in self.nums]

    @functools.cached_property
    def raising(self) -> tuple[int, exact.Columns]:
        """D times the raising operator into level m - 1: its row count, and per composition
        k the sparse column of (k with k_i decremented, steps[i][k_i - 1]) over k_i > 0."""
        below = compositions(self.m - 1, len(self.nums)) if self.m else ()
        steps, index = self.steps, {c: r for r, c in enumerate(below)}
        return len(index), [
            [(index[comp[:i] + (k - 1,) + comp[i + 1 :]], steps[i][k - 1])
             for i, k in enumerate(comp) if k]
            for comp in self.compositions
        ]

    @functools.cached_property
    def norms(self) -> list[int]:
        """D^m times the product form's diagonal: per k, prod_i of steps[i][:k_i]."""
        running = [list(itertools.accumulate(row, operator.mul, initial=1)) for row in self.steps]
        return [math.prod(r[k] for r, k in zip(running, comp)) for comp in self.compositions]

    def check_killed(self, vectors, what: str) -> None:
        """Raise InvariantError unless the raising operator kills each vector, named ``what``."""
        size, columns = self.raising
        if any(map(any, exact.apply(columns, size, vectors))):
            raise InvariantError(f"{what} not killed by the raising operator: arithmetic bug")


@dataclass(frozen=True)
class SingularBasis:
    """Exact basis of the weight-(lam - 2m) vectors killed by the raising operator."""

    level: Level  # the cleared weights and m, whose tables every reader of the basis shares
    # per vector v its canonical (s, s * v), s > 0 least; vector f is 1 at free_columns[f],
    # 0 at every other free column; vectors decodes them on first read
    integral_vectors: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def lams(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.level.den) for a in self.level.nums)

    @property
    def free_columns(self) -> tuple[int, ...]:
        """The compositions with k_1 = 0, where the kernel vectors are free."""
        return tuple(c for c, comp in enumerate(self.level.compositions) if not comp[0])

    @property
    def dim(self) -> int:
        return len(self.integral_vectors)

    @functools.cached_property
    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        kernel = self.integral_vectors
        return tuple(tuple(Fraction(x, s) if x else _ZERO for x in u) for s, u in kernel)


def singular_basis(lams: Sequence[RationalLike], m: int) -> SingularBasis:
    lams = ensure_generic_tuple(lams)[0]
    return basis_of(Level(*exact.integer_row(lams), ensure_int(m, "level", 0)))


def basis_of(level: Level) -> SingularBasis:
    """The singular basis of a level of generic weights, its kernel checked exactly."""
    kernel = _kernel(level)
    level.check_killed([u for _, u in kernel], "a singular vector is")
    return SingularBasis(level, tuple(kernel))


def _kernel(level: Level) -> list[tuple[int, tuple[int, ...]]]:
    """Each kernel vector v of the raising operator as (s, s * v).

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
    m, comps, index, steps = level.m, level.compositions, level.index, level.steps
    tail = [1] * (m + 1)  # tail[t] = M_1(m) / M_1(t)
    for t in range(m - 1, -1, -1):
        tail[t] = tail[t + 1] * steps[0][t]
    sign = 1 if tail[0] > 0 else -1  # so that s = tail[0] / (gcd * sign) > 0
    kernel = []
    for f in comps:
        if f[0]:
            continue
        rest = f[1:]
        # y[pos] at the flat position of d = rest - k in the box d <= rest, last part fastest
        strides = [math.prod(x + 1 for x in rest[i + 1 :]) for i in range(len(rest))]
        parts = list(zip(steps[1:], rest, strides))
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
        kernel.append((tail[0] // g, tuple(vec)))
    return kernel


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


def gram_on_multiplicity(lams: Sequence[RationalLike], m: int) -> GramMatrix:
    """Gram matrix of the induced form on the level-m multiplicity space: the integer
    pairing of the kernel vectors through the norms, with its inertia from one elimination."""
    basis = singular_basis(lams, m)
    scales, vectors = zip(*basis.integral_vectors)
    g = exact.pairing(vectors, basis.level.norms, vectors)
    try:
        inertia = exact.inertia(g)
    except DomainError:
        raise GenericityError("induced form is degenerate; weights not generic") from None
    return GramMatrix((basis.level.den**basis.level.m, scales, tuple(map(tuple, g))), inertia)


def exact_signature(gram: GramMatrix) -> tuple[int, int]:
    """Inertia (pos, neg) of the induced form: the pair that ``gram_on_multiplicity`` found by
    one congruence diagonalization of the integer Gram matrix, raising on a degenerate form."""
    return gram.inertia
