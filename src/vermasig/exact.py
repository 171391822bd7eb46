"""Exact linear algebra over Q on integer rows: solves, Gram matrices, inertia.

Rows are cleared to integers (a row over a positive denominator is the same
rational row), then eliminated fraction-free: ``pivot * row - factor *
pivot_row``, divided by the gcd of its entries and denominator, so numbers
stay as small as the reduced rationals of a Fraction elimination.  Unlike
Bareiss's exact-division update this leaves rows with a zero in the pivot
column untouched, so sparse rows stay sparse.  Results equal a Fraction
elimination's exactly; nothing here uses floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .sigchar import DomainError

Matrix = list[list[Fraction]]


def _integer_row(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(s, s * values) with s the lcm of the denominators, so s * values is integral."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _gauss_jordan(rows: list[list[int]], ncols: int) -> list[int]:
    """Integer Gauss-Jordan in place; returns the pivot columns.

    Afterwards row k, divided by its entry at pivots[k], is row k of the
    reduced row echelon form of the input; the rows past the pivots vanish.
    """
    pivots: list[int] = []
    nrows = len(rows)
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                new = [piv * a - f * b for a, b in zip(row, prow)]
                g = math.gcd(*new)
                rows[i] = [a // g for a in new] if g > 1 else new
        pivots.append(c)
    return pivots


def express_in_basis(
    targets: Sequence[Sequence[Fraction]], basis: Sequence[Sequence[Fraction]]
) -> Matrix:
    """Coefficients C with targets = C * basis.

    One shared elimination of the transposed system [basis^T | targets^T];
    raises DomainError unless the basis rows are independent and every
    target row lies in their span.
    """
    r, k = len(basis), len(targets)
    rows = [
        _integer_row([b[c] for b in basis] + [t[c] for t in targets])[1]
        for c in range(len(basis[0]))
    ]
    if _gauss_jordan(rows, r + k) != list(range(r)):
        raise DomainError("target vectors do not lie in the span of independent basis rows")
    return [[Fraction(rows[u][r + v], rows[u][u]) for u in range(r)] for v in range(k)]


def gram(vectors: Sequence[Sequence[int]], weights: Sequence[int]) -> list[list[int]]:
    """Integer Gram matrix G[u][v] = sum_k vectors[u][k] * weights[k] * vectors[v][k]."""
    size = len(vectors)
    g = [[0] * size for _ in range(size)]
    for i, ui in enumerate(vectors):
        weighted = list(map(mul, ui, weights))
        for j in range(i, size):
            g[i][j] = g[j][i] = sum(map(mul, weighted, vectors[j]))
    return g


def inertia(entries: Sequence[Sequence[Fraction]]) -> tuple[int, int]:
    """(pos, neg) of a nonsingular symmetric rational matrix, by congruence.

    Symmetric pivoting on the diagonal; when every remaining diagonal entry
    vanishes, adding row and column j to row and column i exposes 2*a[i][j]
    as a pivot.  Row i is held as integers over a positive denominator, so
    every zero test and pivot sign is read off the integers.  The numerators
    are first divided by their common gcd, a positive scalar that keeps the
    inertia.  Raises DomainError on singular input.
    """
    size = len(entries)
    cleared = [_integer_row(row) for row in entries]
    dens = [s for s, _ in cleared]
    content = math.gcd(*(math.gcd(*row) for _, row in cleared)) or 1
    a = [[x // content for x in row] for _, row in cleared]

    def swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        dens[i], dens[j] = dens[j], dens[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    pos = 0
    for i in range(size):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, size) if a[j][j] != 0), None)
            if j is not None:
                swap(i, j)
            else:
                if not any(a[i][i:]):
                    k = next((k for k in range(i + 1, size) if any(a[k][i:])), None)
                    if k is None:
                        raise DomainError("matrix is singular")
                    swap(i, k)
                j = next(j for j in range(i + 1, size) if a[i][j] != 0)
                # congruence by (row i += row j, col i += col j): the new
                # diagonal entry is 2*a[i][j] since both old diagonals vanish
                di, dj = dens[i], dens[j]
                a[i] = [x * dj + y * di for x, y in zip(a[i], a[j])]
                dens[i] = di * dj
                for row in a:
                    row[i] += row[j]
        prow = a[i]
        piv = prow[i]
        pos += piv > 0
        for r in range(i + 1, size):
            row = a[r]
            f = row[i]
            if not f:
                continue
            # rational row r minus (a_ri / a_ii) * row i, over dens[r] * piv
            new = [piv * x - f * y for x, y in zip(row[i + 1 :], prow[i + 1 :])]
            den = dens[r] * piv
            g = math.gcd(den, *new)
            if den < 0:
                g = -g
            a[r] = [0] * (i + 1) + [x // g for x in new]
            dens[r] = den // g
    return pos, size - pos

