"""The integer core ``vermasig.exact`` against the Fraction reference in ``fraction_reference``.

Every comparison is exact equality of rationals: the core must return the
same coordinates, Gram entries and inertia as plain Fraction elimination, and
the oracle's singular vectors must equal the kernel vectors of both the
integer and the Fraction Gauss-Jordan reference, not merely equivalent ones.
"""

import math
import operator
import random
from fractions import Fraction as F

import numpy as np
import pytest

import fraction_reference as ref
from bethe_reference import hamiltonian_matrices_per_factor
from test_shapovalov import ORACLE_LEVEL_CAP
from vermasig import (
    DomainError,
    GenericityError,
    MasterConfig,
    count_real_by_spectrum,
    exact_signature,
    gaudin_system,
    gram_on_multiplicity,
    singular_basis,
)
from vermasig import bethe, exact, shapovalov
from vermasig.shapovalov import compositions, express_in_basis
from vermasig.sigchar import is_generic


def random_rational(rng, span=9, denoms=(1, 2, 3, 5, 7)):
    if rng.random() < 0.3:
        return F(0)
    return F(rng.randint(-span, span), rng.choice(denoms))


def random_matrix(rng, nrows, ncols, rank):
    """nrows x ncols rational matrix of rank at most `rank` (product of two factors)."""
    left = [[random_rational(rng) for _ in range(rank)] for _ in range(nrows)]
    right = [[random_rational(rng) for _ in range(ncols)] for _ in range(rank)]
    return ref.matmul(left, right)


def random_symmetric(rng, size, zero_diagonal=False):
    a = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            if i == j and zero_diagonal:
                continue
            a[i][j] = a[j][i] = random_rational(rng)
    return a


def rational_kernel(mat, ncols):
    """The integer reference kernel of the cleared rows of a rational matrix, as rational vectors."""
    out = []
    free, kernel = ref.integer_nullspace([exact.integer_row(row)[1] for row in mat], ncols)
    assert len(free) == len(kernel)
    for f, (scale, vec) in zip(free, kernel):
        rational = [F(x, scale) for x in vec]
        # the scale is positive and the least one that makes the vector integral
        assert scale > 0 and scale == math.lcm(*(x.denominator for x in rational))
        # 1 at its own free column, 0 at the others
        assert [rational[g] for g in free] == [F(g == f) for g in free]
        out.append(rational)
    return out


def test_nullspace_matches_reference_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        mat = random_matrix(rng, nrows, ncols, rng.randint(1, min(nrows, ncols)))
        assert rational_kernel(mat, ncols) == ref.nullspace(mat, ncols), mat
    zero = [[F(0)] * 4 for _ in range(3)]
    assert rational_kernel(zero, 4) == ref.nullspace(zero, 4)


def test_nullspace_of_no_rows_is_identity():
    assert rational_kernel([], 3) == ref.nullspace([], 3)


def test_express_in_basis_matches_reference():
    rng = random.Random(77)
    for _ in range(100):
        r, ncols = rng.randint(1, 5), rng.randint(5, 9)
        basis = random_matrix(rng, r, ncols, r)
        if ref.is_singular(ref.matmul(basis, [list(col) for col in zip(*basis)])):
            continue  # dependent rows
        coeffs = [[random_rational(rng) for _ in range(r)] for _ in range(rng.randint(1, 4))]
        targets = ref.matmul(coeffs, basis)
        got = express_in_basis(targets, basis)
        assert got == ref.express_in_basis(targets, basis) == coeffs


def test_express_in_basis_rejects_target_outside_span():
    basis = [[F(1), F(0), F(0)], [F(0), F(1), F(1)]]
    assert ref.express_in_basis([[F(0), F(1), F(2)]], basis) is None
    with pytest.raises(DomainError):
        express_in_basis([[F(0), F(1), F(2)]], basis)
    with pytest.raises(DomainError):
        express_in_basis([[F(2), F(3), F(3)], [F(0), F(0), F(1, 2)]], basis)


def test_inertia_matches_reference_on_random_symmetric_matrices():
    rng = random.Random(99)
    checked = 0
    for _ in range(300):
        size = rng.randint(1, 7)
        a = random_symmetric(rng, size, zero_diagonal=rng.random() < 0.5)
        want = ref.inertia(a)
        if want is None:
            with pytest.raises(DomainError):
                exact.inertia(ref.triangle(a))
            continue
        assert exact.inertia(ref.triangle(a)) == want, a
        # -A negates every pivot, so the sign flip must carry through all later pivots
        assert exact.inertia(ref.triangle([[-x for x in row] for row in a])) == want[::-1], a
        checked += 1
    assert checked > 150


def test_inertia_zero_diagonal_uses_row_column_addition():
    # no usable diagonal pivot anywhere: the 2*a[i][j] congruence step
    for a in (
        [[F(0), F(3, 2)], [F(3, 2), F(0)]],
        [[F(0), F(1), F(2)], [F(1), F(0), F(-1, 3)], [F(2), F(-1, 3), F(0)]],
        # after the first pivot the Schur complement is [[0, 1], [1, 0]]
        [[F(1), F(1), F(0)], [F(1), F(1), F(1, 7)], [F(0), F(1, 7), F(0)]],
        # a negative first pivot, then the block -[[0, 1], [1, 0]]: (1, 2)
        [[F(-1), F(1), F(0)], [F(1), F(-1), F(1)], [F(0), F(1), F(0)]],
    ):
        assert exact.inertia(ref.triangle(a)) == ref.inertia(a)
        assert exact.inertia(ref.triangle([[-x for x in row] for row in a])) == ref.inertia(a)[::-1]
    rng = random.Random(5)
    for _ in range(60):
        a = random_symmetric(rng, rng.randint(2, 6), zero_diagonal=True)
        want = ref.inertia(a)
        if want is not None:
            assert exact.inertia(ref.triangle(a)) == want


def test_inertia_of_the_oracles_largest_grams():
    """The stored integer Gram triangles of gram_on_multiplicity at n = 5, m = 4 (35 x 35)
    and n = 4, m = 5 (21 x 21), with their Fraction entries, against the Fraction reference."""
    rng = random.Random(35)
    for n, m, size in ((5, 4, 35), (4, 5, 21)):
        for _ in range(3):
            lams = random_generic_tuple(rng, n, denoms=(2, 3, 5, 7, 97), span=200)
            gram = gram_on_multiplicity(lams, m)
            t = gram.integral_gram[2]
            assert [len(row) for row in t] == list(range(size, 0, -1))
            full = [[t[min(u, v)][abs(v - u)] for v in range(size)] for u in range(size)]
            want = ref.inertia(full)
            assert exact.inertia(t) == gram.inertia == want, (lams, m)
            assert exact.inertia(ref.triangle(gram.entries)) == want, (lams, m)


def test_inertia_rejects_a_ragged_triangle():
    # the triangle is the one intake: row r holds size - r entries, so a full matrix, a
    # short or long row and a lower triangle are refused before any elimination
    for rows in (
        [[1, 2], [2, 1]],
        [[1, 2, 3], [1]],
        [[1, 2], [3, 4], [5]],
        [[1], [2, 3]],
        [[1, 0]],
        [[]],
    ):
        with pytest.raises(DomainError, match="upper triangle"):
            exact.inertia(rows)
    # the full-matrix front end of the tests checks symmetry before it keeps the triangle
    for a in (
        [[1, 2], [3, 4]],
        [[F(1), F(1, 2)], [F(1, 3), F(1)]],
        [[0, 1, 2], [1, 0, 3], [2, 4, 0]],  # only the lower triangle is off
        [[1, 2, 3], [2, 1, 0]],
        [[1, 2], [2]],
        [[1, 0]],
    ):
        with pytest.raises(DomainError, match="square and symmetric"):
            ref.triangle(a)


def test_inertia_leaves_its_rows_unchanged():
    # a GramMatrix keeps the rows it passed, so inertia must not write them: with a
    # content above 1 and with content 1, lists and tuples, a zero diagonal and a swap
    for rows in (
        [[2, 4, 6], [-8, 2], [4]],
        [[1, 2, 3], [5, 7], [-1]],
        [[0, 3, 1], [0, 2], [5]],
        [[0, 1], [0]],
    ):
        for form in (list, tuple):
            given = [form(row) for row in rows]
            kept = [list(row) for row in given]
            ids = [id(row) for row in given]
            exact.inertia(given)
            assert [list(row) for row in given] == kept and [id(row) for row in given] == ids
    gram = gram_on_multiplicity((F(23, 10), F(17, 10), F(-2, 5), F(-31, 7)), 3)
    stored = gram.integral_gram[2]
    copy = [list(row) for row in stored]
    assert exact.inertia(stored) == gram.inertia and [list(row) for row in stored] == copy


def test_inertia_equals_both_references_on_every_oracle_shape():
    """The stored Gram triangle of every (n, m) under the oracle workload's level caps, and
    of n = 6, m = 3, three generic tuples each: the inertia equals the content elimination's
    and the Fraction elimination's, and that of the negated triangle their reversal."""
    rng = random.Random(29)
    shapes = [(n, m) for n, cap in ORACLE_LEVEL_CAP.items() for m in range(cap + 1)] + [(6, 3)]
    for n, m in shapes * 3:
        lams = random_generic_tuple(rng, n, denoms=(2, 3, 5, 7, 97), span=200)
        t = gram_on_multiplicity(lams, m).integral_gram[2]
        full = [[t[min(u, v)][abs(v - u)] for v in range(len(t))] for u in range(len(t))]
        want = ref.inertia(full)
        assert exact.inertia(t) == ref.content_inertia(t) == want, (lams, m)
        negated = [[-x for x in row] for row in t]
        assert exact.inertia(negated) == ref.content_inertia(negated) == want[::-1], (lams, m)


def assert_inertia_matches_both_references(a):
    """exact.inertia of the symmetric integer matrix a, on its upper triangle as lists and as
    tuples, equals the content and Fraction references' (or raises with them on singular
    input) and leaves the rows as they were."""
    want = ref.inertia(a)
    for form in (list, tuple):
        given = [form(row[r:]) for r, row in enumerate(a)]
        kept = [list(row) for row in given]
        if want is None:
            with pytest.raises(DomainError):
                exact.inertia(given)
            with pytest.raises(DomainError):
                ref.content_inertia(given)
        else:
            assert exact.inertia(given) == ref.content_inertia(given) == want, a
        assert [list(row) for row in given] == kept


def random_int_symmetric(rng, size, bits):
    a = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            a[i][j] = a[j][i] = rng.randint(-(2**bits), 2**bits)
    return a


def test_inertia_takes_each_divisor_path():
    rng = random.Random(61)
    # dense 60-bit entries: the pivot row shares almost nothing with the pivot, so
    # gcd(p, gcd(f)^2) is 1 and the carry of the step before divides the update
    unit = 0
    for _ in range(150):
        a = random_int_symmetric(rng, rng.randint(2, 10), 60)
        unit += math.gcd(a[0][0], math.gcd(*a[0][1:]) ** 2) == 1
        assert_inertia_matches_both_references(a)
    assert unit > 120
    # singular dense ones, M diag(+-1) M^T of rank size - 1 or size - 2: the exact elimination
    # must reach a zero block, which one division by a non-divisor would leave nonzero
    for _ in range(60):
        size = rng.randint(3, 10)
        rank = size - rng.randint(1, 2)
        m = [[rng.randint(-(2**30), 2**30) for _ in range(rank)] for _ in range(size)]
        d = [rng.choice((-1, 1)) for _ in range(rank)]
        a = ref.matmul(m, [[d[k] * row[k] for row in m] for k in range(rank)])
        assert ref.inertia(a) is None
        assert_inertia_matches_both_references(a)
    # a starting content above 1, with and without a usable diagonal
    for g in (6, 2**61 - 1, 3**40):
        for _ in range(10):
            a = random_int_symmetric(rng, rng.randint(1, 8), 20)
            if rng.random() < 0.5:
                for i in range(len(a)):
                    a[i][i] = 0
            if ref.inertia(a) is not None:
                assert_inertia_matches_both_references([[g * x for x in row] for row in a])
    # a zero pivot reached after two steps: with X = P Y the Schur complement of the 2 x 2
    # block P in [[P, X], [X^T, S + Y^T P Y]] is S, whose first diagonal entry is 0, so the
    # third pivot is exposed by a swap or, when all of S's diagonal is 0, an addition
    for size, diagonal in ((4, (0, 0)), (5, (0, 0, 0)), (5, (0, 7, 0)), (6, (0, 0, -3, 0))):
        for _ in range(10):
            k = size - 2
            p = random_int_symmetric(rng, 2, 60)
            if not p[0][0] or p[0][0] * p[1][1] == p[0][1] ** 2:
                continue
            y = [[rng.randint(-(2**30), 2**30) for _ in range(k)] for _ in range(2)]
            s = random_int_symmetric(rng, k, 60)
            for i, d in enumerate(diagonal):
                s[i][i] = d
            x = ref.matmul(p, y)
            yt = [list(col) for col in zip(*y)]
            corner = ref.matmul(yt, x)
            a = [p[r] + x[r] for r in range(2)]
            a += [[x[0][r], x[1][r]] + [s[r][c] + corner[r][c] for c in range(k)] for r in range(k)]
            assert_inertia_matches_both_references(a)


def test_singular_input_is_detected():
    rng = random.Random(8)
    for _ in range(40):
        size = rng.randint(2, 6)
        half = random_matrix(rng, size, size, size - 1)
        a = ref.matmul(half, [list(col) for col in zip(*half)])  # symmetric, rank < size
        assert ref.inertia(a) is None
        with pytest.raises(DomainError):
            exact.inertia(ref.triangle(a))
        # the integer Gram of the same rank-deficient rows: inertia decides singularity
        cleared = [exact.integer_row(row)[1] for row in half]
        with pytest.raises(DomainError):
            exact.inertia(ref.upper(exact.pairing(cleared, [1] * size, cleared)))


def random_int_rows(rng, nrows, size, density):
    """nrows integer rows of length size, each entry nonzero with probability about density."""
    return [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(size)] for _ in range(nrows)]


# all-zero, sparse (about the 13% of the oracle's largest kernels), half and fully dense rows
DENSITIES = (0.0, 0.15, 0.5, 1.0)


def test_pairing_is_the_triple_sum():
    rng = random.Random(18)
    for _ in range(160):
        rows, cols, size = rng.randint(0, 5), rng.randint(0, 5), rng.randint(1, 7)
        # others differs from vectors, and about half the weights are zero
        vectors = random_int_rows(rng, rows, size, rng.choice(DENSITIES))
        weights = [rng.choice([0, rng.randint(-5, 5)]) for _ in range(size)]
        others = random_int_rows(rng, cols, size, rng.choice(DENSITIES))
        want = [
            [sum(vectors[u][k] * weights[k] * others[v][k] for k in range(size)) for v in range(cols)]
            for u in range(rows)
        ]
        assert exact.pairing(vectors, weights, others) == ref.pairing(vectors, weights, others) == want
    # no others: one empty row per vector
    vectors, weights = [[1, 2], [0, 0]], [3, 0]
    assert exact.pairing(vectors, weights, []) == ref.pairing(vectors, weights, []) == [[], []]


def test_apply_is_the_dense_product():
    rng = random.Random(19)
    for _ in range(160):
        size, ncols, count = rng.randint(0, 6), rng.randint(1, 7), rng.randint(0, 4)
        dense = random_int_rows(rng, size, ncols, rng.choice(DENSITIES))
        columns = [[(r, row[c]) for r, row in enumerate(dense) if row[c]] for c in range(ncols)]
        vectors = random_int_rows(rng, count, ncols, rng.choice(DENSITIES))
        want = [[sum(a * x for a, x in zip(row, u)) for row in dense] for u in vectors]
        assert exact.apply(columns, size, vectors) == ref.raise_vectors(columns, size, vectors) == want


def test_degenerate_form_raises_genericity_error():
    # (1/2, -1/2) has integral total 0: the level-1 form vanishes
    with pytest.raises(GenericityError):
        gram_on_multiplicity((F(1, 2), F(-1, 2)), 1)
    with pytest.raises(GenericityError):
        gaudin_system(MasterConfig((F(0), F(1)), (F(1, 2), F(-1, 2)), 1))


def random_generic_tuple(rng, n, denoms, span):
    while True:
        lams = [F(rng.randint(-span, span), rng.choice(denoms)) for _ in range(n)]
        if all(is_generic(l) for l in lams) and is_generic(sum(lams)):
            return lams


def criterion2_instances():
    """The (lams, m) pairs of acceptance criterion 2, in the same order."""
    rng = random.Random(97)
    out = []
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        lams = random_generic_tuple(rng, n, denoms=(2, 3, 5, 7, 97), span=200)
        out.append((lams, rng.randint(0, 6)))
    rng = random.Random(5097)
    for _ in range(20):
        lams = random_generic_tuple(rng, 5, denoms=(2, 3, 5, 7, 97), span=200)
        out.append((lams, rng.randint(1, 4)))
    return out


def test_oracle_matches_reference_on_criterion2_instances():
    # inertia on these instances is also checked against peeling by criterion 2
    for lams, m in criterion2_instances():
        basis = singular_basis(lams, m)
        gram = gram_on_multiplicity(lams, m)
        assert exact_signature(gram) == ref.inertia(gram.entries), (lams, m)
        if m == 0:
            assert basis.vectors == ((F(1),),) and gram.entries == ((F(1),),)
            continue
        comps = compositions(m, len(lams))
        emat = ref.raising_matrix(basis.lams, comps, compositions(m - 1, len(lams)))
        # the integer raising columns and norms the oracle uses, decoded
        den = basis.level.den
        size, columns = basis.level.raising
        dense = [[F(0)] * len(comps) for _ in range(size)]
        for c, column in enumerate(columns):
            for row, x in column:
                dense[row][c] = F(x, den)
        assert dense == emat, (lams, m)
        want = ref.nullspace(emat, len(comps))
        assert [list(v) for v in basis.vectors] == want, (lams, m)
        diag = ref.weight_space_norms(basis.lams, comps)
        norms = basis.level.norms
        assert [F(x, den**m) for x in norms] == diag, (lams, m)
        want_gram = ref.gram(want, diag)
        assert [list(row) for row in gram.entries] == want_gram, (lams, m)


def census_like_configs():
    """Six generic configs as the census draws them: n = 3, 4 with m <= 4."""
    rng = random.Random(31)
    out = []
    for n, m in ((3, 1), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)):
        lams = random_generic_tuple(rng, n, denoms=(7, 10, 11, 13), span=30)
        z = [F(0)] + [F(k) + F(rng.randint(1, 9), 10) for k in range(1, n)]
        out.append(MasterConfig(tuple(z), tuple(lams), m))
    return out


def test_gaudin_gram_carries_reference_inertia():
    for cfg in census_like_configs():
        gram = gram_on_multiplicity(cfg.weights, cfg.m)
        assert exact_signature(gram) == ref.inertia(gram.entries), cfg
        # the stored inertia is the one a fresh elimination of the entries finds
        assert gram.inertia == exact.inertia(ref.triangle(gram.entries)), cfg


def basis_instances():
    """(lams, m) for n = 2..5 and m <= 6 (m <= 4 at n = 5): unsorted weights, lam_1 = -3,
    lam_1 with denominator 97, and m = 0 among them."""
    rng = random.Random(15)
    out = [
        ((F(-3), F(5, 2), F(-7, 3)), 4),
        ((F(-3), F(-1, 2)), 6),
        ((F(-3), F(11, 97), F(-2, 5), F(9, 2)), 0),
        ((F(150, 97), F(-1, 2), F(7, 3)), 5),
        ((F(-13, 97), F(-3), F(5, 7), F(1, 2), F(-9, 2)), 4),
        ((F(9, 2), F(-1, 3), F(5, 2), F(-7, 5)), 3),  # sorted neither way
    ]
    for n in range(2, 6):
        for m in range(0, (4 if n == 5 else 6) + 1):
            lams = random_generic_tuple(rng, n, denoms=(1, 2, 3, 7, 97), span=60)
            out.append((tuple(lams), m))
    return out


def test_singular_basis_matches_both_references():
    """The triangular recursion gives the kernel vectors of integer and Fraction Gauss-Jordan."""
    instances = basis_instances()
    assert {len(lams) for lams, _ in instances} == {2, 3, 4, 5}
    assert any(m == 0 for _, m in instances)
    assert any(list(lams) != sorted(lams) and list(lams) != sorted(lams, reverse=True) for lams, _ in instances)
    for lams, m in instances:
        basis = singular_basis(lams, m)
        comps, n = compositions(m, len(lams)), len(lams)
        emat = ref.raising_matrix(lams, comps, compositions(m - 1, n)) if m else []
        den = math.lcm(*(lam.denominator for lam in lams))
        free, kernel = ref.integer_nullspace([[int(den * x) for x in row] for row in emat], len(comps))
        assert basis.integral_vectors == tuple(kernel), (lams, m)
        assert basis.free_columns == tuple(free), (lams, m)
        assert [list(v) for v in basis.vectors] == ref.nullspace(emat, len(comps)), (lams, m)
        # the free columns are the compositions with no unit in the first factor
        assert basis.free_columns == tuple(c for c, comp in enumerate(comps) if comp[0] == 0)


def test_one_elimination_per_gram(monkeypatch):
    """The oracle runs no Gauss-Jordan and one integer inertia per Gram matrix, on the
    Gram's upper triangle, which the GramMatrix stores."""
    calls = {"inertia": [], "gauss_jordan": []}
    real_inertia, real_gauss_jordan = exact.inertia, exact._gauss_jordan

    def inertia(rows):
        calls["inertia"].append(rows)
        return real_inertia(rows)

    def gauss_jordan(rows, ncols):
        calls["gauss_jordan"].append([list(row) for row in rows])
        return real_gauss_jordan(rows, ncols)

    monkeypatch.setattr(exact, "inertia", inertia)
    monkeypatch.setattr(exact, "_gauss_jordan", gauss_jordan)
    lams = (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7))
    for m in range(5):
        calls["inertia"].clear()
        gram = gram_on_multiplicity(lams, m)
        got = exact_signature(gram)
        assert calls["gauss_jordan"] == [] and len(calls["inertia"]) == 1, m
        (rows,) = calls["inertia"]
        assert rows is gram.integral_gram[2], m
        # an upper triangle with no Fraction in it
        assert [len(row) for row in rows] == list(range(gram.size, 0, -1)), m
        assert all(type(x) is int for row in rows for x in row)
        assert got == ref.inertia(gram.entries)


def restriction_configs():
    """Generic configs with n = 2..5 and m = 1..4 (m <= 3 at n = 5); z has
    denominators and is unsorted, so zeta_i - zeta_j takes both signs."""
    rng = random.Random(12)
    out = [MasterConfig((F(0), F(1), F(3), F(7, 2)), (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7)), 2)]
    for n, m in [(n, m) for n in range(2, 6) for m in range(1, 5) if (n, m) != (5, 4)]:
        lams = random_generic_tuple(rng, n, denoms=(1, 2, 3, 7, 10), span=30)
        z = rng.sample([F(p, q) for p in range(-9, 10) for q in (1, 2, 3, 5) if math.gcd(p, q) == 1], n)
        out.append(MasterConfig(tuple(z), tuple(lams), m))
    return out


def test_gaudin_restriction_matches_reference(monkeypatch):
    eigs = []
    real_eig = np.linalg.eig

    def eig(mat):
        eigs.append(mat.copy())
        return real_eig(mat)

    monkeypatch.setattr(np.linalg, "eig", eig)
    for seed, cfg in enumerate(restriction_configs()):
        system = gaudin_system(cfg)
        vectors = [list(v) for v in system.basis.vectors]
        for mat, got in zip(hamiltonian_matrices_per_factor(cfg, cfg.m), system.matrices):
            images = ref.matmul(vectors, [list(col) for col in zip(*mat)])
            assert [list(row) for row in got] == ref.express_in_basis(images, vectors), cfg
        # the float Hamiltonians of the Rayleigh quotients, bit for bit the Fractions' floats
        want = np.array(system.matrices, dtype=float)
        floats = np.array(bethe._decode(system, system.integral_matrices[2], operator.truediv))
        assert floats.tobytes() == want.tobytes(), cfg
        # the first combination count_real_by_spectrum diagonalises, bit for bit
        # the float of the Fraction sum
        eigs.clear()
        count_real_by_spectrum(cfg, seed=seed)
        rng = random.Random(seed)
        combo = [rng.randint(1, 10**6) for _ in range(cfg.n)]
        r = system.basis.dim
        combined = [
            [sum(c * h[u][w] for c, h in zip(combo, system.matrices)) for w in range(r)]
            for u in range(r)
        ]
        want = np.array(combined, dtype=float)
        assert eigs[0].dtype == want.dtype and eigs[0].tobytes() == want.tobytes(), cfg
