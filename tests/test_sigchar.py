import math
import random
from fractions import Fraction as F

import pytest

from vermasig import (
    DomainError,
    GenericityError,
    SCoeff,
    asymptotic_signature,
    e_decomposition_check,
    multiply,
    peel_decompose,
    verma_character,
)
from vermasig.classify import consistent_types, representative_weights
from vermasig.sigchar import is_generic

from closed_form_reference import greedy_peel


def random_generic_tuple(rng, n, denoms=(3, 7, 10, 11, 13), span=40):
    while True:
        lams = [F(rng.randint(-span, span), rng.choice(denoms)) for _ in range(n)]
        if all(is_generic(l) for l in lams) and is_generic(sum(lams)):
            return lams


def test_genericity():
    assert is_generic(F(-1, 2))
    assert is_generic(F(-3))  # negative integers are generic
    assert not is_generic(F(0))
    assert not is_generic(F(4))
    with pytest.raises(GenericityError):
        verma_character(F(2), 3)


def test_scoeff_ring():
    # s^2 = 1: (a+sb)(c+sd) = (ac+bd) + s(ad+bc)
    assert SCoeff(1, 2) * SCoeff(3, 4) == SCoeff(11, 10)
    assert SCoeff(0, 1) * SCoeff(0, 1) == SCoeff(1, 0)
    assert SCoeff(2, 5) + SCoeff(1, -1) == SCoeff(3, 4)


def test_verma_character_negative_weight():
    ch = verma_character(F(-3, 2), 3)
    assert [tuple(c) for c in ch.coeffs] == [(1, 0), (0, 1), (1, 0), (0, 1)]
    assert ch.weight(2) == F(-3, 2) - 4


def test_verma_character_positive_weight():
    # floor 2; levels 0..2 carry 1, level 3 carries s^{3+3} = 1, level 4 s^7 = s
    ch = verma_character(F(5, 2), 4)
    assert [tuple(c) for c in ch.coeffs] == [(1, 0), (1, 0), (1, 0), (1, 0), (0, 1)]


def test_verma_character_truncation_at_top():
    assert [tuple(c) for c in verma_character(F(-1, 2), 0).coeffs] == [(1, 0)]


def test_multiply_hand_convolution():
    x = verma_character(F(-1, 2), 2)
    prod = multiply(x, x)
    assert prod.base == F(-1)
    assert [tuple(c) for c in prod.coeffs] == [(1, 0), (0, 2), (3, 0)]


def test_multiply_identity_and_commutativity():
    rng = random.Random(0)
    from vermasig import SignatureSeries

    identity = SignatureSeries(F(0), (SCoeff(1, 0),))
    for _ in range(20):
        (lam,) = random_generic_tuple(rng, 2)[:1]
        x = verma_character(lam, 5)
        assert multiply(x, identity).coeffs == (x.coeffs[0],)
        (mu,) = random_generic_tuple(rng, 2)[:1]
        y = verma_character(mu, 5)
        assert multiply(x, y).coeffs == multiply(y, x).coeffs


def test_peel_case1_alternates():
    dec = peel_decompose([F(-1, 2), F(-1, 2)], 6)
    for e in dec.entries:
        assert (e.pos, e.neg) == ((1, 0) if e.level % 2 == 0 else (0, 1))


def test_peel_dimensions_random():
    rng = random.Random(4)
    for _ in range(15):
        n = rng.choice([2, 3, 4, 5])
        lams = random_generic_tuple(rng, n)
        dec = peel_decompose(lams, 7)
        for e in dec.entries:
            assert e.pos >= 0 and e.neg >= 0
            assert e.dim == math.comb(e.level + n - 2, n - 2)


def test_peel_reconstructs_product():
    rng = random.Random(9)
    depth = 6
    lams = random_generic_tuple(rng, 3)
    dec = peel_decompose(lams, depth)
    product = verma_character(lams[0], depth)
    for lam in lams[1:]:
        product = multiply(product, verma_character(lam, depth))
    total = [SCoeff(0, 0)] * (depth + 1)
    for e in dec.entries:
        beta = verma_character(dec.lambda_total - 2 * e.level, depth - e.level)
        for k, c in enumerate(beta.coeffs):
            total[e.level + k] = total[e.level + k] + SCoeff(e.pos, e.neg) * c
    assert tuple(total) == product.coeffs


def test_signature_depends_only_on_floors():
    # same floor data, randomized fractional parts -> identical inertia lists
    rng = random.Random(21)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        floors = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
        seqs = set()
        base = None
        for _ in range(4):
            while True:
                lams = [f + F(rng.randint(1, 1008), 1009) for f in floors]
                lams.sort(reverse=True)
                if is_generic(sum(lams)):
                    break
            total_floor = math.floor(sum(lams))
            if base is None:
                base = total_floor
            if total_floor != base:
                continue  # compare only tuples sharing the full explicit type
            dec = peel_decompose(lams, 8)
            seqs.add(tuple((e.pos, e.neg) for e in dec.entries))
        assert len(seqs) == 1


def test_peel_rejects_bad_input():
    with pytest.raises(GenericityError):
        peel_decompose([F(1, 2), F(1, 2)], 4)  # total = 1 not generic
    with pytest.raises(DomainError):
        peel_decompose([F(-1, 2)], 4)


def test_asymptotic_empty_product():
    lams = [F(-1, 2), F(-1, 2), F(-1, 2)]
    for m in range(10):
        assert asymptotic_signature(lams, m) == (-1) ** m * math.comb(m + 1, 1)


def test_asymptotic_leading_coefficient_is_unit():
    # the coefficient alternating sum equals the product of V_n(-1) = +-1
    for lams in ([F(23, 10), F(17, 10), F(-2, 5)], [F(7, 2), F(9, 4), F(5, 3), F(-1, 2)]):
        n = len(lams)
        coeffs = [1]
        for lam in lams:
            if lam > 0:
                v = [1] + [2] * math.ceil(lam)
                out = [0] * (len(coeffs) + len(v) - 1)
                for i, a in enumerate(coeffs):
                    for j, b in enumerate(v):
                        out[i + j] += a * b
                coeffs = out
        alternating = sum((-1) ** i * c for i, c in enumerate(coeffs))
        assert abs(alternating) == 1
        # consequence: |asymptotic| ~ m^{n-2}/(n-2)! for large m
        m = 400
        expected = math.comb(m + n - 2, n - 2)
        assert abs(abs(asymptotic_signature(lams, m)) / expected - 1) < 0.2


def test_asymptotic_matches_peeling_eventually():
    lams = [F(23, 10), F(17, 10), F(-2, 5)]
    dec = peel_decompose(lams, 120)
    signatures = [e.signature for e in dec.entries]
    asymptotic = [asymptotic_signature(lams, m) for m in range(121)]
    threshold = next(
        m for m in range(121) if all(asymptotic[k] == signatures[k] for k in range(m, 121))
    )
    assert threshold <= 40
    assert asymptotic[threshold:] == signatures[threshold:]


@pytest.mark.parametrize("mu", [F(-1, 2), F(1, 2), F(7, 2)])
def test_e_decomposition_examples(mu):
    assert e_decomposition_check(mu, 8)


def test_e_decomposition_random():
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        mu = F(rng.randint(-5000, 5000), 1009)
        if not is_generic(mu) or not (-5 < mu < 5):
            continue
        assert e_decomposition_check(mu, 10), mu
        checked += 1


def test_peel_matches_greedy_on_criterion1_sample():
    # every 30th input of acceptance criterion 1, at its level bound
    rng = random.Random(1009)
    checked = 0
    for n in (2, 3, 4, 5):
        for index, t in enumerate(consistent_types(n, -4, 4)):
            lams = representative_weights(t, rng)
            if index % 30:
                continue
            bound = 2 * sum(f + 1 for f in t.factor_floors if f >= 0) + 2 * n
            assert peel_decompose(lams, bound) == greedy_peel(lams, bound), (lams, bound)
            checked += 1
    assert checked >= 250


@pytest.mark.parametrize(
    "lams, depth",
    [([F(-7, 3), F(11, 5), F(-1, 2), F(17, 7)], 200), ([F(9, 2), F(-3), F(5, 3), F(-13, 7)], 400)],
)
def test_peel_matches_greedy_at_depth(lams, depth):
    assert peel_decompose(lams, depth) == greedy_peel(lams, depth)


def test_peel_rejects_negative_depth():
    with pytest.raises(DomainError):
        peel_decompose([F(-1, 2), F(-1, 3)], -1)


def test_entry_rejects_levels_outside_the_depth():
    dec = peel_decompose(["-1/2", "-3/4"], 3)
    assert [dec.entry(m).level for m in range(4)] == [0, 1, 2, 3]
    for m in (-1, 4):
        with pytest.raises(DomainError):
            dec.entry(m)
