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
from vermasig import bethe, exact
from vermasig.bethe import hamiltonian_matrices
from vermasig.shapovalov import (
    compositions,
    express_in_basis,
    raising_matrix,
    weight_space_norms,
)
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
    free, kernel = ref.integer_nullspace([exact._integer_row(row)[1] for row in mat], ncols)
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
                exact.inertia(a)
            continue
        assert exact.inertia(a) == want, a
        checked += 1
    assert checked > 150


def test_inertia_zero_diagonal_uses_row_column_addition():
    # no usable diagonal pivot anywhere: the 2*a[i][j] congruence step
    for a in (
        [[F(0), F(3, 2)], [F(3, 2), F(0)]],
        [[F(0), F(1), F(2)], [F(1), F(0), F(-1, 3)], [F(2), F(-1, 3), F(0)]],
        # after the first pivot the Schur complement is [[0, 1], [1, 0]]
        [[F(1), F(1), F(0)], [F(1), F(1), F(1, 7)], [F(0), F(1, 7), F(0)]],
    ):
        assert exact.inertia(a) == ref.inertia(a)
    rng = random.Random(5)
    for _ in range(60):
        a = random_symmetric(rng, rng.randint(2, 6), zero_diagonal=True)
        want = ref.inertia(a)
        if want is not None:
            assert exact.inertia(a) == want


def test_singular_input_is_detected():
    rng = random.Random(8)
    for _ in range(40):
        size = rng.randint(2, 6)
        half = random_matrix(rng, size, size, size - 1)
        a = ref.matmul(half, [list(col) for col in zip(*half)])  # symmetric, rank < size
        assert ref.inertia(a) is None
        with pytest.raises(DomainError):
            exact.inertia(a)
        # the integer Gram of the same rank-deficient rows: inertia decides singularity
        cleared = [exact._integer_row(row)[1] for row in half]
        with pytest.raises(DomainError):
            exact.inertia(exact.gram(cleared, [1] * size))


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
        assert raising_matrix(basis.lams, m) == emat, (lams, m)
        want = ref.nullspace(emat, len(comps))
        assert [list(v) for v in basis.vectors] == want, (lams, m)
        diag = ref.weight_space_norms(basis.lams, comps)
        assert weight_space_norms(basis.lams, m) == diag, (lams, m)
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
        gram = gaudin_system(cfg).gram
        assert exact_signature(gram) == ref.inertia(gram.entries), cfg
        # the stored inertia is the one a fresh elimination of the entries finds
        assert gram.inertia == exact.inertia(gram.entries), cfg


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
    """The oracle runs no Gauss-Jordan and one integer inertia per Gram matrix."""
    calls = {"inertia": [], "gauss_jordan": []}
    real_inertia, real_gauss_jordan = exact.inertia, exact._gauss_jordan

    def inertia(entries):
        calls["inertia"].append([list(row) for row in entries])
        return real_inertia(entries)

    def gauss_jordan(rows, ncols):
        calls["gauss_jordan"].append([list(row) for row in rows])
        return real_gauss_jordan(rows, ncols)

    monkeypatch.setattr(exact, "inertia", inertia)
    monkeypatch.setattr(exact, "_gauss_jordan", gauss_jordan)
    lams = (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7))
    for m in range(5):
        calls["inertia"].clear()
        got = exact_signature(gram_on_multiplicity(lams, m))
        assert calls["gauss_jordan"] == [] and len(calls["inertia"]) == 1, m
        # no Fraction reaches the elimination
        assert all(type(x) is int for row in calls["inertia"][0] for x in row)
        assert got == ref.inertia(calls["inertia"][0])


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
        for mat, got in zip(hamiltonian_matrices(cfg), system.matrices):
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
