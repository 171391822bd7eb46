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
free column), the norms times D^m and the Gram matrix (the pairing of the kernel
through the norms, kept as its upper triangle) are integers, and one elimination
of that triangle decides both nondegeneracy and inertia, which the GramMatrix
stores.  What depends on (m, n) alone is built once per shape into a cached
``Shape``: the compositions, their index, the free columns, the raising
operator's moves (which ``bethe``'s Bethe vectors and Z/Y check read too) and the
kernel recursion's program.  Each basis keeps one integer ``Level`` of its weights:
the steps k(a_i - (k - 1)D) of E F^k v = k(lam - k + 1) F^(k-1) v over D, and from
them and its Shape the sparse raising operator and the norms, which every kernel
check, Gram matrix and Gaudin image of the basis reads.
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


@dataclass(frozen=True, eq=False)
class Shape:
    """The index arithmetic of the level-m weight space of n factors, which every Level of
    that (m, n) shares whatever its weights; built once per (m, n) by ``shape``."""

    compositions: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]
    # the compositions with k_1 = 0, where the kernel vectors are free
    free_columns: tuple[int, ...]
    # the raising operator's row count, and per composition k its (row of k - e_i, flat
    # step i*m + k_i - 1) over k_i > 0
    below: int
    moves: tuple[tuple[tuple[int, int], ...], ...]
    # per free column, the kernel recursion (_kernel) over its box: the flat positions'
    # columns and first parts, and from position 1 on their (flat step, back position) terms
    program: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[tuple, ...]], ...]


# cached like compositions; nothing is built at import
@functools.lru_cache(maxsize=256, typed=True)
def shape(m: int, n: int) -> Shape:
    """The Shape of level m over n factors."""
    comps = compositions(m, n)
    index = {c: r for r, c in enumerate(comps)}
    below = {c: r for r, c in enumerate(compositions(m - 1, n))} if m else {}
    moves = tuple(
        tuple((below[comp[:i] + (k - 1,) + comp[i + 1 :]], i * m + k - 1)
              for i, k in enumerate(comp) if k)
        for comp in comps
    )
    free = tuple(c for c, comp in enumerate(comps) if not comp[0])
    program = tuple(_program(comps[f][1:], m, index) for f in free)
    return Shape(comps, index, free, len(below), moves, program)


def _program(rest: tuple[int, ...], m: int, index: dict) -> tuple:
    """The kernel recursion over the box of free column (0,) + rest: its positions k_rest =
    rest - d, 0 <= d <= rest, last part fastest, with their columns and first parts
    m - |k_rest|, and from position 1 on their terms (i*m + k_i, position of k + e_i) over
    the factors i > 0 (counted from 0) with k_i < rest_i:
    y(k) = -sum steps[i*m + k_i] y(k + e_i)."""
    strides = [math.prod(x + 1 for x in rest[i + 1 :]) for i in range(len(rest))]
    cols, firsts, terms = [], [], []
    for pos, krest in enumerate(itertools.product(*[range(x, -1, -1) for x in rest])):
        first = m - sum(krest)
        cols.append(index[(first,) + krest])
        firsts.append(first)
        terms.append(tuple(
            ((i + 1) * m + k, pos - stride)
            for i, (x, k, stride) in enumerate(zip(rest, krest, strides)) if k < x
        ))
    return tuple(cols), tuple(firsts), tuple(terms[1:])


@dataclass(frozen=True)
class Level:
    """The level-m weight space of the product of Vermas with weights nums / D, on integers:
    the tables of these weights, built with the level from the Shape of (m, n)."""

    den: int
    nums: tuple[int, ...]
    m: int
    shape: Shape = field(init=False, repr=False, compare=False)
    # steps[i*m + k - 1] = k(a_i - (k - 1)D), k = 1..m: D E F^k v_i over F^(k-1) v_i
    steps: list[int] = field(init=False, repr=False, compare=False)
    # D times the raising operator into level m - 1: its row count, and per composition k
    # the sparse column of (k with k_i decremented, its step) over k_i > 0
    raising: tuple[int, exact.Columns] = field(init=False, repr=False, compare=False)
    # D^m times the product form's diagonal: per k, prod_i of the first k_i steps of i
    norms: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        den, nums, m = self.den, self.nums, self.m
        grid = shape(m, len(nums))
        steps = [k * (a - (k - 1) * den) for a in nums for k in range(1, m + 1)]
        running = [list(itertools.accumulate(steps[i * m : (i + 1) * m], operator.mul, initial=1))
                   for i in range(len(nums))]
        tables = {
            "shape": grid,
            "steps": steps,
            "raising": (grid.below, [[(row, steps[s]) for row, s in moves] for moves in grid.moves]),
            "norms": [math.prod(map(operator.getitem, running, comp)) for comp in grid.compositions],
        }
        for name, table in tables.items():
            object.__setattr__(self, name, table)  # frozen: set once, here

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
        return self.level.shape.free_columns

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

    y is nonzero only at k = f + |d| e_1 - d for 0 <= d <= f on parts 2..n; the shape's
    program visits them in an order that reaches d - e_i before d.  M_1(m) v =
    y M_1(m) / M_1(k_1) is divided by its gcd, so s > 0 is the least scale.
    """
    m, steps, shape = level.m, level.steps, level.shape
    tail = [1] * (m + 1)  # tail[t] = M_1(m) / M_1(t)
    for t in range(m - 1, -1, -1):
        tail[t] = tail[t + 1] * steps[t]
    sign = 1 if tail[0] > 0 else -1  # so that s = tail[0] / (gcd * sign) > 0
    kernel, size = [], len(shape.compositions)
    for cols, firsts, terms in shape.program:
        y = [1]
        for term in terms:
            value = 0
            for s, back in term:
                value -= steps[s] * y[back]
            y.append(value)
        vals = [v * tail[k] for v, k in zip(y, firsts)]
        g = math.gcd(*vals) * sign
        vec = [0] * size
        for c, v in zip(cols, vals):
            vec[c] = v // g
        kernel.append((tail[0] // g, tuple(vec)))
    return kernel


@dataclass(frozen=True)
class GramMatrix:
    """The induced form on a multiplicity space, stored as integers with its inertia."""

    # (d, scales, T): row u of T is row u of the symmetric integer Gram G from its diagonal
    # on, T[u][v - u] = G[u][v]; entry (u, v) is G[u][v] / (s_u * s_v * d) for the kernel
    # scales s_u > 0 and d = D^m; entries decodes it on first read
    integral_gram: tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]
    # (pos, neg) of G, which is the form's: it differs by a positive diagonal congruence
    inertia: tuple[int, int] = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.integral_gram[1])

    @functools.cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        d, scales, t = self.integral_gram
        return tuple(
            tuple(Fraction(t[min(u, v)][abs(v - u)], su * sv * d) for v, sv in enumerate(scales))
            for u, su in enumerate(scales)
        )


def gram_on_multiplicity(lams: Sequence[RationalLike], m: int) -> GramMatrix:
    """Gram matrix of the induced form on the level-m multiplicity space: the integer
    pairing of the kernel vectors through the norms, upper triangle only, with its inertia
    from one elimination of that triangle."""
    basis = singular_basis(lams, m)
    scales, vectors = zip(*basis.integral_vectors)
    norms, size = basis.level.norms, len(vectors)
    # vectors are visited last first, so column k lists (v, norms[k] v[k]) for v >= u only
    columns, rows = [[] for _ in norms], []
    for u in range(size - 1, -1, -1):
        support = [(k, x) for k, x in enumerate(vectors[u]) if x]
        for k, x in support:
            columns[k].append((u, norms[k] * x))
        row = [0] * (size - u)
        for k, x in support:
            for v, e in columns[k]:
                row[v - u] += x * e
        rows.append(tuple(row))
    triangle = tuple(reversed(rows))
    try:
        inertia = exact.inertia(triangle)
    except DomainError:
        raise GenericityError("induced form is degenerate; weights not generic") from None
    return GramMatrix((basis.level.den**basis.level.m, scales, triangle), inertia)


def exact_signature(gram: GramMatrix) -> tuple[int, int]:
    """Inertia (pos, neg) of the induced form: the pair that ``gram_on_multiplicity`` found by
    one congruence diagonalization of the integer Gram matrix, raising on a degenerate form."""
    return gram.inertia
