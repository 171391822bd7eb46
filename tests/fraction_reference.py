"""Reference exact linear algebra over Fraction, kept as the oracle for ``vermasig.exact``.

This is the elimination the library used before its integer core: plain
Gauss-Jordan and congruence diagonalization on ``fractions.Fraction``
entries, the raising matrix and the diagonal of the product form with each
factor multiplied out in Fractions, and Gram entries as sums of Fraction
products.  The tests require the library to return exactly these values.
``integer_nullspace`` is the integer Gauss-Jordan kernel the oracle used
before its singular vectors came from a triangular recursion; it is the
second reference for that recursion.  ``pairing`` and ``raise_vectors`` are the
integer product loops the library ran before its one sparse product
``exact.apply``.  ``triangle`` is the front end its integer ``inertia`` no longer
has: it clears Fractions, checks that a full matrix is square and symmetric and
keeps its upper triangle, the one form ``inertia`` reads.  ``kernel`` is the
singular-vector recursion as the oracle ran it before its index arithmetic was
built once per shape.  ``content_inertia`` is the integer inertia as it ran before
each pivot step divided only by divisors known in advance: every remaining block
divided by its content.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from vermasig.exact import _expose_pivot, _gauss_jordan
from vermasig.shapovalov import compositions
from vermasig.sigchar import DomainError


def rref(mat):
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def nullspace(mat, ncols):
    if not mat:
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
            for i in range(ncols)
        ]
    rows, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][f]
        basis.append(vec)
    return basis


def integer_nullspace(rows, ncols):
    """Exact kernel of integer rows (eliminated in place), one vector per free column.

    The vector of free column f has 1 at f and minus the RREF entry of column
    f at each pivot column, so the basis is canonical for the matrix.  Returns
    the free columns in order, and each vector as (s, u): u = s * vector is
    integral, with s > 0 the least such.
    """
    pivots = _gauss_jordan(rows, ncols)
    free = sorted(set(range(ncols)) - set(pivots))
    basis = []
    for f in free:
        scale = math.lcm(*(row[pc] // math.gcd(row[f], row[pc]) for row, pc in zip(rows, pivots)))
        vec = [0] * ncols
        vec[f] = scale
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[f] * scale // row[pc]
        basis.append((scale, tuple(vec)))
    return free, basis


def express_in_basis(targets, basis):
    """Coefficients C with targets = C * basis, or None if a target is outside the span."""
    ncols = len(basis[0])
    r = len(basis)
    k = len(targets)
    augmented = [
        [basis[u][c] for u in range(r)] + [targets[v][c] for v in range(k)]
        for c in range(ncols)
    ]
    rows, pivots = rref(augmented)
    if any(p >= r for p in pivots):
        return None
    coords = [[Fraction(0)] * r for _ in range(k)]
    for row_idx, p in enumerate(pivots):
        for v in range(k):
            coords[v][p] = rows[row_idx][r + v]
    for row in rows[len(pivots) :]:
        if any(row[r:][v] != 0 for v in range(k)):
            return None
    return coords


def raising_matrix(lams, src, dst):
    """E from the compositions src of m to the compositions dst of m - 1.

    E sends the basis vector k to sum_i k_i (lam_i - k_i + 1) times the basis
    vector k - e_i, the raising operator acting factorwise.
    """
    mat = [[Fraction(0)] * len(src) for _ in dst]
    for c, comp in enumerate(src):
        for i, k in enumerate(comp):
            if k:
                target = comp[:i] + (k - 1,) + comp[i + 1 :]
                mat[dst.index(target)][c] = k * (Fraction(lams[i]) - k + 1)
    return mat


def weight_space_norms(lams, comps):
    """prod_i prod_{j=1}^{k_i} j*(lam_i - j + 1) for each composition k in comps."""
    diag = []
    for comp in comps:
        value = Fraction(1)
        for lam, k in zip(lams, comp):
            for j in range(1, k + 1):
                value *= j * (lam - j + 1)
        diag.append(value)
    return diag


def gram(vectors, diag):
    """Entries sum_k u[k] * diag[k] * v[k], each computed once over the nonzeros of u."""
    size = len(vectors)
    out = [[Fraction(0)] * size for _ in range(size)]
    for i, u in enumerate(vectors):
        weighted = [(k, a * d) for k, (a, d) in enumerate(zip(u, diag)) if a]
        for j in range(i, size):
            v = vectors[j]
            out[i][j] = out[j][i] = sum((x * v[k] for k, x in weighted), Fraction(0))
    return out


def pairing(vectors, weights, others):
    """P[u][v] = sum_k vectors[u][k] weights[k] others[v][k]: for each nonzero
    vectors[u][k] weights[k], one dense pass over column k of others."""
    columns, out = list(zip(*others)), []
    for u in vectors:
        row = [0] * len(others)
        for x, w, column in zip(u, weights, columns):
            if xw := x * w:
                row = [p + xw * y for p, y in zip(row, column)]
        out.append(row)
    return out


def raise_vectors(columns, size, vectors):
    """The size-row matrix given by sparse (row, entry) columns applied to each vector,
    column by column over the vector's nonzero entries."""
    out = []
    for w in vectors:
        raised = [0] * size
        for x, column in zip(w, columns):
            if x:
                for row, e in column:
                    raised[row] += e * x
        out.append(raised)
    return out


def triangle(entries):
    """The upper triangle, row r from its diagonal on, of entries times the lcm of their
    denominators: an integer form with the inertia of entries, the one input
    ``vermasig.exact.inertia`` takes.  Raises DomainError unless entries is square and
    symmetric."""
    if [list(col) for col in zip(*entries)] != [list(row) for row in entries]:
        raise DomainError("matrix is not square and symmetric")
    scale = math.lcm(*[x.denominator for row in entries for x in row])
    return [[int(x * scale) for x in row[r:]] for r, row in enumerate(entries)]


def upper(matrix):
    """Row r of a square matrix from its diagonal on."""
    return [list(row[r:]) for r, row in enumerate(matrix)]


def kernel(level):
    """The singular vectors of a ``vermasig.shapovalov.Level`` as (s, s * v), by the
    triangular recursion over the first factor that the oracle ran before its index
    arithmetic was built once per (m, n) into a ``Shape``: per free column f, the box
    d <= f on parts 2..n walked with ``itertools.product``, each y looked up by its
    composition, with y(j + e_1) = -sum_{i >= 2} (j_i + 1)(a_i - j_i D) y(j + e_i)."""
    m, n = level.m, len(level.nums)
    comps = compositions(m, n)
    index = {c: r for r, c in enumerate(comps)}
    steps = [[k * (a - (k - 1) * level.den) for k in range(1, m + 1)] for a in level.nums]
    tail = [1] * (m + 1)  # tail[t] = M_1(m) / M_1(t)
    for t in range(m - 1, -1, -1):
        tail[t] = tail[t + 1] * steps[0][t]
    sign = 1 if tail[0] > 0 else -1
    out = []
    for f in comps:
        if f[0]:
            continue
        rest = f[1:]
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
        out.append((tail[0] // g, tuple(vec)))
    return out


def is_singular(mat):
    _, pivots = rref([list(r) for r in mat])
    return len(pivots) < len(mat)


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def inertia(entries):
    """(pos, neg) by Fraction congruence diagonalization; None on singular input."""
    size = len(entries)
    a = [[Fraction(v) for v in row] for row in entries]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    pos = neg = 0
    for i in range(size):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, size) if a[j][j] != 0), None)
            if j is not None:
                swap(i, j)
            else:
                if all(a[i][c] == 0 for c in range(i, size)):
                    k = next(
                        (
                            k
                            for k in range(i + 1, size)
                            if any(a[k][c] != 0 for c in range(i, size))
                        ),
                        None,
                    )
                    if k is None:
                        return None
                    swap(i, k)
                j = next(j for j in range(i + 1, size) if a[i][j] != 0)
                for c in range(size):
                    a[i][c] += a[j][c]
                for r in range(size):
                    a[r][i] += a[r][j]
        pivot = a[i][i]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        col = [a[r][i] for r in range(size)]
        for r in range(i + 1, size):
            if col[r] == 0:
                continue
            f = col[r] / pivot
            for c in range(i, size):
                a[r][c] -= f * a[i][c]
        for r in range(i + 1, size):
            a[r][i] = Fraction(0)
            a[i][r] = Fraction(0)
    return pos, neg


def content_inertia(rows):
    """(pos, neg) of a nonsingular symmetric integer matrix given by its upper triangle, by
    fraction-free congruence: pivot i turns each later row into piv * row - f * pivot row,
    and the block left is divided by its content.  Raises DomainError on singular input."""
    size = len(rows)
    content = math.gcd(*[math.gcd(*row) for row in rows])
    t = [[x // content for x in row] for row in rows] if content > 1 else list(rows)
    pos, flip = 0, False
    for i in range(size):
        if not t[i][0]:
            t[i:] = _expose_pivot(t[i:])
        prow = t[i]
        piv = prow[0]
        pos += (piv > 0) != flip
        flip ^= piv < 0
        for k in range(1, size - i):
            f, row = prow[k], t[i + k]
            t[i + k] = [piv * x - f * y for x, y in zip(row, prow[k:])]
        g = math.gcd(*[math.gcd(*row) for row in t[i + 1 :]])
        if g > 1:
            t[i + 1 :] = [[x // g for x in row] for row in t[i + 1 :]]
    return pos, size - pos
