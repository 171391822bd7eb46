import math
import os
import random
import runpy
from fractions import Fraction as F

import pytest

from vermasig import (
    DomainError,
    GenericityError,
    compositions,
    exact_signature,
    gram_on_multiplicity,
    peel_decompose,
    shapovalov_norm,
    singular_basis,
)
from vermasig import exact
from vermasig.sigchar import is_generic

import fraction_reference as ref
from closed_form_reference import lex_compositions


def random_generic_tuple(rng, n, denoms=(2, 3, 5, 7, 97), span=200):
    while True:
        lams = [F(rng.randint(-span, span), rng.choice(denoms)) for _ in range(n)]
        if all(is_generic(l) for l in lams) and is_generic(sum(lams)):
            return lams


def test_compositions_colex_order():
    assert compositions(1, 2) == ((1, 0), (0, 1))
    assert compositions(2, 2) == ((2, 0), (1, 1), (0, 2))
    comps = compositions(3, 3)
    assert len(comps) == math.comb(5, 2)
    # colex: the last differing coordinate decides
    for a, b in zip(comps, comps[1:]):
        last = max(i for i in range(3) if a[i] != b[i])
        assert a[last] < b[last]


def test_compositions_reject_non_integers():
    # 1.5 once raised a raw TypeError; 1.0 was served from the cache entry of 1
    assert compositions(2, 1) == ((2,),)
    for m, n in ((1.5, 3), (2, 1.0), (-1, 2), (2, 0)):
        with pytest.raises(DomainError):
            compositions(m, n)


def test_compositions_are_sorted_lex_compositions():
    # Gram matrices depend on this order
    for m in range(9):
        for n in range(1, 6):
            want = tuple(sorted(lex_compositions(m, n), key=lambda c: c[::-1]))
            assert compositions(m, n) == want, (m, n)


def test_shapovalov_norm_values():
    assert shapovalov_norm(F(-1, 2), 0) == 1
    assert shapovalov_norm(F(-1, 2), 1) == F(-1, 2)
    assert shapovalov_norm(F(5, 2), 3) == F(45, 4)  # 1*(5/2) * 2*(3/2) * 3*(1/2)


def test_singular_basis_level0_and_counts():
    lams = (F(-1, 2), F(-3, 4), F(-7, 5))
    sb = singular_basis(lams, 0)
    assert sb.vectors == ((F(1),),)
    assert singular_basis(lams, 2).dim == math.comb(3, 1)
    for m in range(5):
        assert singular_basis(lams, m).dim == math.comb(m + 1, 1)


def test_singular_basis_stores_integers_and_decodes_vectors_on_read():
    lams = (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7))
    sb, again = singular_basis(lams, 3), singular_basis(lams, 3)
    assert "vectors" not in vars(sb)
    assert sb == again and hash(sb) == hash(again)
    assert singular_basis(lams[:3] + (F(-32, 7),), 3) != sb
    assert sb.vectors is sb.vectors
    assert sb.vectors == again.vectors


def test_singular_basis_n2_closed_form():
    lam1, lam2 = F(5, 2), F(-7, 10)
    sb = singular_basis((lam1, lam2), 1)
    ((a, b),) = sb.vectors
    # vector proportional to lam2*(Fv x v) - lam1*(v x Fv) in basis ((1,0),(0,1))
    assert a * lam1 + b * lam2 == 0


def test_singular_vectors_annihilated_exactly():
    rng = random.Random(0)
    for _ in range(6):
        n = rng.choice([2, 3])
        lams = random_generic_tuple(rng, n)
        m = rng.randint(1, 4)
        sb = singular_basis(lams, m)
        mat = ref.raising_matrix(sb.lams, compositions(m, n), compositions(m - 1, n))
        for vec in sb.vectors:
            image = [sum(row[c] * vec[c] for c in range(len(vec))) for row in mat]
            assert all(v == 0 for v in image)


def test_gram_level0_and_case1():
    assert gram_on_multiplicity((F(-1, 2), F(-1, 2)), 0).entries == ((F(1),),)
    g = gram_on_multiplicity((F(-1, 2), F(-1, 2)), 1)
    assert g.size == 1 and g.entries[0][0] < 0
    g3 = gram_on_multiplicity((F(-1, 2), F(-3, 4), F(-7, 5)), 1)
    assert exact_signature(g3) == (0, 2)


def test_exact_signature_basics():
    one = F(1)
    ident = [[one if i == j else F(0) for j in range(3)] for i in range(3)]
    assert exact.inertia(ref.triangle(ident)) == ref.inertia(ident) == (3, 0)
    diag = [[F(2), F(0)], [F(0), F(-5)]]
    assert exact.inertia(ref.triangle(diag)) == ref.inertia(diag) == (1, 1)
    # zero-diagonal path
    hyperbolic = [[F(0), F(1)], [F(1), F(0)]]
    assert exact.inertia(ref.triangle(hyperbolic)) == ref.inertia(hyperbolic) == (1, 1)


def test_carried_inertia_matches_a_fresh_elimination():
    lams, m = (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7)), 3
    gram = gram_on_multiplicity(lams, m)
    # the Fraction entries are decoded once, on first read; equality is on the integers
    assert gram.entries is gram.entries
    assert gram_on_multiplicity(lams, m) == gram
    assert exact_signature(gram) == gram.inertia == ref.inertia(gram.entries)


def test_exact_signature_errors():
    zero = [[F(0), F(0)], [F(0), F(0)]]
    assert ref.inertia(zero) is None
    with pytest.raises(DomainError):
        exact.inertia(ref.triangle(zero))


def test_exact_signature_random_congruence_invariance():
    # congruence by a random unimodular matrix preserves inertia
    rng = random.Random(13)
    for _ in range(10):
        k = rng.randint(2, 4)
        diag = [F(rng.choice([-3, -1, 1, 2, 5])) for _ in range(k)]
        a = [[diag[i] if i == j else F(0) for j in range(k)] for i in range(k)]
        for _ in range(6):
            i, j = rng.randrange(k), rng.randrange(k)
            if i == j:
                continue
            c = F(rng.randint(-2, 2))
            for col in range(k):
                a[i][col] += c * a[j][col]
            for row in range(k):
                a[row][i] += c * a[row][j]
        want = (sum(1 for d in diag if d > 0), sum(1 for d in diag if d < 0))
        assert exact.inertia(ref.triangle(a)) == ref.inertia(a) == want


def lowering_matrix(lams, m):
    """F from level m to m + 1: composition k maps to the sum of k + e_i."""
    src, dst = compositions(m, len(lams)), compositions(m + 1, len(lams))
    mat = [[F(0)] * len(src) for _ in dst]
    for c, comp in enumerate(src):
        for i, k in enumerate(comp):
            mat[dst.index(comp[:i] + (k + 1,) + comp[i + 1 :])][c] += 1
    return mat


def pair_vectors(lams, m, x, y):
    """Product-form pairing of two coefficient vectors at level m."""
    norms = ref.weight_space_norms(lams, compositions(m, len(lams)))
    return sum(a * d * b for a, d, b in zip(x, norms, y))


def test_contravariance():
    # (F x, y) = (x, E y) for the product form, exactly
    rng = random.Random(5)
    lams = tuple(random_generic_tuple(rng, 3))
    for m in range(3):
        comps_m = compositions(m, 3)
        comps_up = compositions(m + 1, 3)
        fmat = lowering_matrix(lams, m)
        emat = ref.raising_matrix(lams, comps_up, comps_m)
        x = [F(rng.randint(-5, 5)) for _ in comps_m]
        y = [F(rng.randint(-5, 5)) for _ in comps_up]
        fx = [sum(row[c] * x[c] for c in range(len(x))) for row in fmat]
        ey = [sum(row[c] * y[c] for c in range(len(y))) for row in emat]
        assert pair_vectors(lams, m + 1, fx, y) == pair_vectors(lams, m, x, ey)


def test_oracle_equivalence_with_peeling():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        lams = random_generic_tuple(rng, n)
        m = rng.randint(0, 5)
        entry = peel_decompose(lams, m).entry(m)
        assert exact_signature(gram_on_multiplicity(lams, m)) == (entry.pos, entry.neg)


def test_degenerate_weights_detected():
    with pytest.raises(GenericityError):
        singular_basis((F(1), F(-1, 2)), 2)


def test_oracle_refuses_a_non_generic_total_like_peeling():
    # each weight is generic but the total 1 is not; the oracle once answered a 1x1 Gram
    for lams in ((F(1, 2), F(1, 2)), (F(3, 2), F(-1, 2), F(-1, 3), F(1, 3))):
        for call in (peel_decompose, singular_basis, gram_on_multiplicity):
            with pytest.raises(GenericityError, match="total weight"):
                call(lams, 1)
    with pytest.raises(DomainError, match="two tensor factors"):
        singular_basis((F(-1, 2),), 1)


# the oracle workload's level caps (perfbench's Oracle.LEVEL_CAP): every (n, m) it runs
ORACLE_LEVEL_CAP = {2: 12, 3: 7, 4: 5, 5: 4}


def test_shape_program_matches_the_reference_recursion():
    """Kernel, Gram triangle and inertia of every oracle shape, m = 0 and an n = 6 shape,
    against the recursion the oracle ran before its Shape and against the full pairing."""
    rng = random.Random(28)
    shapes = [(n, m) for n, cap in ORACLE_LEVEL_CAP.items() for m in range(cap + 1)] + [(6, 3)]
    assert (5, 4) in shapes and (2, 0) in shapes
    for n, m in shapes * 3:
        lams = random_generic_tuple(rng, n)
        basis = singular_basis(lams, m)
        level = basis.level
        assert basis.integral_vectors == tuple(ref.kernel(level)), (lams, m)
        gram = gram_on_multiplicity(lams, m)
        scales, vectors = zip(*basis.integral_vectors)
        full = exact.pairing(vectors, level.norms, vectors)
        assert gram.integral_gram == (level.den**m, scales, tuple(map(tuple, ref.upper(full)))), (lams, m)
        assert gram.inertia == ref.inertia(full), (lams, m)


def test_oracle_demo_prints_the_golden_report(capsys):
    # the singular vectors, a Gram matrix, an inertia and six peel cross-checks, byte for byte
    here = os.path.dirname(__file__)
    runpy.run_path(os.path.join(here, "..", "demos", "03_shapovalov_oracle.py"))
    with open(os.path.join(here, "golden", "oracle_demo.txt"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
