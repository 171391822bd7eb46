"""Reference exact linear algebra over Fraction, kept as the oracle for ``vermasig.exact``.

This is the elimination the library used before its integer core: plain
Gauss-Jordan and congruence diagonalization on ``fractions.Fraction``
entries, Gram entries as sums of Fraction products, and the diagonal of the
product form with each factor norm multiplied out per composition.  The tests
require the library to return exactly these values.
"""

from __future__ import annotations

from fractions import Fraction


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
