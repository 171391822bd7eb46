"""The integer core ``vermasig.exact`` against the Fraction reference in ``fraction_reference``.

Every comparison is exact equality of rationals: the core must return the
same kernel vectors, coordinates, Gram entries and inertia as plain Fraction
elimination, not merely equivalent ones.
"""

import random
from fractions import Fraction as F

import pytest

import fraction_reference as ref
from vermasig import (
    DomainError,
    GenericityError,
    GramMatrix,
    MasterConfig,
    exact_signature,
    gaudin_system,
    gram_on_multiplicity,
    singular_basis,
)
from vermasig import exact
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


def test_nullspace_matches_reference_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        mat = random_matrix(rng, nrows, ncols, rng.randint(1, min(nrows, ncols)))
        assert exact.nullspace(mat, ncols) == ref.nullspace(mat, ncols), mat
    zero = [[F(0)] * 4 for _ in range(3)]
    assert exact.nullspace(zero, 4) == ref.nullspace(zero, 4)


def test_nullspace_of_no_rows_is_identity():
    assert exact.nullspace([], 3) == ref.nullspace([], 3)


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
                exact_signature(GramMatrix(tuple(map(tuple, a))))
            continue
        assert exact_signature(GramMatrix(tuple(map(tuple, a)))) == want, a
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
        got = exact_signature(GramMatrix(tuple(map(tuple, a))))
        assert got == ref.inertia(a)
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
        with pytest.raises(DomainError):
            exact_signature(GramMatrix(tuple(map(tuple, a))))
        assert exact.gram(half, [F(1)] * size)[1]


def test_degenerate_form_raises_genericity_error():
    # (1/2, -1/2) has integral total 0: the level-1 form vanishes
    with pytest.raises(GenericityError):
        gram_on_multiplicity((F(1, 2), F(-1, 2)), 1)


def test_matmul_matches_reference():
    rng = random.Random(3)
    for _ in range(40):
        k, l, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[random_rational(rng) for _ in range(l)] for _ in range(k)]
        b = [[random_rational(rng) for _ in range(n)] for _ in range(l)]
        assert exact.matmul(a, b) == ref.matmul(a, b)


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
    # inertia on these instances is checked against peeling by criterion 2
    for lams, m in criterion2_instances():
        basis = singular_basis(lams, m)
        gram = gram_on_multiplicity(lams, m)
        if m == 0:
            assert basis.vectors == ((F(1),),) and gram.entries == ((F(1),),)
            continue
        want = ref.nullspace(raising_matrix(basis.lams, m), len(compositions(m, len(lams))))
        assert [list(v) for v in basis.vectors] == want, (lams, m)
        diag = ref.weight_space_norms(basis.lams, compositions(m, len(lams)))
        assert weight_space_norms(basis.lams, m) == diag, (lams, m)
        want_gram = ref.gram(want, diag)
        assert [list(row) for row in gram.entries] == want_gram, (lams, m)


def test_gaudin_restriction_matches_reference():
    cfg = MasterConfig((F(0), F(1), F(3), F(7, 2)), (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7)), 2)
    system = gaudin_system(cfg)
    vectors = [list(v) for v in system.basis.vectors]
    for mat, got in zip(hamiltonian_matrices(cfg), system.matrices):
        images = ref.matmul(vectors, [list(col) for col in zip(*mat)])
        assert [list(row) for row in got] == ref.express_in_basis(images, vectors)
