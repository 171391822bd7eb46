"""Exact linear algebra over Q on integers: solves, one pairing, inertia.

Rows are cleared to integers (a row over a positive denominator is the same
rational row), then eliminated fraction-free: ``pivot * row - factor *
pivot_row``, divided by the gcd of its entries, so numbers stay as small as
the reduced rationals of a Fraction elimination.  Unlike Bareiss's
exact-division update this leaves rows with a zero in the pivot column
untouched, so sparse rows stay sparse.  ``inertia`` takes a symmetric integer
matrix as its upper triangle, the one form it reads, and eliminates that
triangle alone, dividing each pivot step only by divisors proved exact in
advance.  With pivot p, off-diagonal pivot row f and c = gcd(f), the update
p*x_kl - f_k*f_l of entry x_kl is divided by d0 = gcd(p, c^2) = a*b, a = gcd(d0, c),
b = d0/a, as (p/d0)*x_kl - (f_k/a)*(f_l/b): at each prime v(d0) <= 2v(c), so
v(a) = min(v(d0), v(c)) and v(b) = v(d0) - v(a) are at most v(c), and a, b divide c.
The update is a 2x2 minor of the block.  If the step before, with pivot p', divided
its update of the integer block A by delta, Sylvester's two-step identity (Bareiss,
Math. Comp. 22, 1968) makes that minor p'*M/delta^2 for a 3x3 minor M of A; it is an
integer, so delta^2/g divides M for g = gcd(p', delta^2), and q = p'/g divides it.  So
the update is also divided by the carry e = q/gcd(q, d0), and lcm(d0, q) = d0*e is the
next delta.  Results equal a Fraction elimination's exactly; nothing here uses floating
point.  The one sparse integer product, ``apply``, runs the raising operator, the
Gaudin Casimirs and, through ``pairing``, the exact Gaudin checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .sigchar import DomainError

Matrix = list[list[Fraction]]
IntRows = Sequence[Sequence[int]]
# a sparse integer matrix: column c lists its nonzero entries as (row, entry) pairs
Columns = Sequence[Sequence[tuple[int, int]]]


def integer_row(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(s, s * values) with s the lcm of the denominators, so s * values is integral."""
    scale = math.lcm(*[v.denominator for v in values])
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


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
        integer_row([b[c] for b in basis] + [t[c] for t in targets])[1]
        for c in range(len(basis[0]))
    ]
    if _gauss_jordan(rows, r + k) != list(range(r)):
        raise DomainError("target vectors do not lie in the span of independent basis rows")
    return [[Fraction(rows[u][r + v], rows[u][u]) for u in range(r)] for v in range(k)]


def apply(columns: Columns, size: int, vectors: IntRows) -> list[list[int]]:
    """A u for each vector u, A the sparse integer matrix with ``size`` rows and the given
    columns, summed over the nonzero entries of u only."""
    out = []
    for u in vectors:
        image = [0] * size
        for x, column in zip(u, columns):
            if x:
                for row, e in column:
                    image[row] += e * x
        out.append(image)
    return out


def pairing(vectors: IntRows, weights: Sequence[int], others: IntRows) -> list[list[int]]:
    """P[u][v] = sum_k vectors[u][k] * weights[k] * others[v][k]: ``apply`` on the sparse
    columns k of the nonzero weights[k] * others[v][k]; kernel vectors are sparse."""
    pairs = zip(weights, zip(*others))
    columns = [[(v, e) for v, y in enumerate(col) if (e := w * y)] for w, col in pairs]
    return apply(columns, len(others), vectors)


def inertia(rows: IntRows) -> tuple[int, int]:
    """(pos, neg) of a nonsingular symmetric integer matrix given by its upper triangle, row
    r from its diagonal on, by congruence; the rows are left as they are.

    The matrix is divided by its content, a positive scalar that keeps the inertia.
    Pivot p turns each later row into p * row - f_k * pivot row (f read off the pivot row,
    by symmetry), divided by d0 * e > 0, so the block left is a positive multiple of p
    times the Schur complement: a negative pivot flips the signs of the pivots after it.
    d0 = gcd(p, gcd(f)^2) = a * b with a, b dividing every f_k (the per-prime bound of the
    module docstring), so the update is (p/d0) * x - (f_k/a) * (f_l/b) and needs no
    division; e = q/gcd(q, d0) > 1 divides it too, where q = p'/gcd(p', delta^2) for the
    previous pivot p' and divisor delta (Sylvester's identity), and then delta = d0 * e.
    A zero pivot is swapped for a later nonzero diagonal entry; when every remaining one
    vanishes, adding row and column j to row and column i exposes 2*a[i][j]; either way
    q restarts at 1.  Raises DomainError on singular input, or unless row r holds
    size - r entries.
    """
    size = len(rows)
    if [len(row) for row in rows] != list(range(size, 0, -1)):
        raise DomainError("rows are not an upper triangle: row r must hold size - r entries")
    # star-args over lists, not generators: a generator's argument tuple is resized, and
    # each call then parks one tuple in CPython's free list of its final size
    content = math.gcd(*[math.gcd(*row) for row in rows])
    # every update below makes new rows, so the caller's rows are never written
    t = [[x // content for x in row] for row in rows] if content > 1 else list(rows)
    pos, flip, carry = 0, False, 1
    for i in range(size):
        if not t[i][0]:
            t[i:] = _expose_pivot(t[i:])
            carry = 1
        prow = t[i]
        piv = prow[0]
        pos += (piv > 0) != flip
        flip ^= piv < 0
        f = prow[1:]
        c = math.gcd(*f)
        d0 = math.gcd(piv, c * c)
        a = math.gcd(d0, c)
        b, e, p = d0 // a, carry // math.gcd(carry, d0), piv // d0
        fa = [x // a for x in f] if a > 1 else f
        fb = [x // b for x in f] if b > 1 else f
        for k in range(1, size - i):
            fk, row, tail = fa[k - 1], t[i + k], fb[k - 1 :]
            if not fk:
                t[i + k] = [p * x // e for x in row] if e > 1 else [p * x for x in row]
            elif e > 1:
                t[i + k] = [(p * x - fk * y) // e for x, y in zip(row, tail)]
            else:
                t[i + k] = [p * x - fk * y for x, y in zip(row, tail)]
        carry = abs(piv) // math.gcd(piv, (d0 * e) ** 2)
    return pos, size - pos


def _expose_pivot(t: list[list[int]]) -> list[list[int]]:
    """A congruent symmetric block, as upper-triangle rows, whose first diagonal entry is
    nonzero: swap in the first nonzero diagonal entry, or else add row and column j to the
    first row and column, whose new diagonal entry is 2*a[0][j]."""
    size = len(t)
    a = [[t[min(r, c)][abs(c - r)] for c in range(size)] for r in range(size)]
    j = next((j for j in range(size) if a[j][j]), None)
    if j is not None:
        a[0], a[j] = a[j], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
    else:
        j = next((j for j, x in enumerate(a[0]) if x), None)
        if j is None:
            raise DomainError("matrix is singular")
        a[0] = [x + y for x, y in zip(a[0], a[j])]
        for row in a:
            row[0] += row[j]
    return [row[r:] for r, row in enumerate(a)]
