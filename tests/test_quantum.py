import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from vermasig import (
    DomainError,
    GenericityError,
    QParam,
    RootOfUnityError,
    closed_form_norm,
    coboundary_norm,
    crystal_multiplicity,
    multiplicity_signature,
    multiplicity_signatures,
    peel_decompose,
    q_binomial_sign,
    q_int_sign,
    q_vandermonde_check,
    unit_normalized_hwv,
)
from vermasig.quantum import q_binomial_value, q_int_value
from vermasig.sigchar import is_generic

from closed_form_reference import binomial_sign_loop, composition_sum, q_binomial_sign_loop


def random_generic_tuple(rng, n, denoms=(3, 7, 10, 11, 13), span=40):
    while True:
        lams = [F(rng.randint(-span, span), rng.choice(denoms)) for _ in range(n)]
        if all(is_generic(l) for l in lams) and is_generic(sum(lams)):
            return lams


def random_split(rng, total, n):
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return tuple(hi - lo for lo, hi in zip((0, *cuts), (*cuts, total)))


def outcome(weights, m, qp, signature):
    try:
        return signature(weights, m, qp)
    except RootOfUnityError:
        return RootOfUnityError


def test_qparam_validation_and_reduction():
    qp = QParam(2, 46)
    assert (qp.numer, qp.denom) == (1, 23)
    assert abs(qp.q - complex(math.cos(math.pi / 23), math.sin(math.pi / 23))) < 1e-15
    with pytest.raises(DomainError):
        QParam(5, 3)
    with pytest.raises(DomainError):
        QParam(0, 3)
    for numer, denom in ((1.5, 3), (1, 3.0), ("1", 3), (1, "3")):
        with pytest.raises(DomainError, match="must be an integer"):
            QParam(numer, denom)


def test_q_int_sign_small_cases():
    qp = QParam(1, 7)
    assert q_int_sign(3, qp) == 1   # sin(3*pi/7) > 0
    assert q_int_sign(8, qp) == -1  # sin(8*pi/7) < 0
    with pytest.raises(RootOfUnityError):
        q_int_sign(7, qp)
    with pytest.raises(RootOfUnityError):
        q_int_sign(14, qp)


def test_q_int_sign_against_floats():
    rng = random.Random(1)
    checked = 0
    while checked < 500:
        den = rng.randint(3, 400)
        num = rng.randint(1, den - 1)
        j = rng.randint(1, 1000)
        if (j * num) % den == 0:
            continue
        value = math.sin(j * math.pi * num / den) / math.sin(math.pi * num / den)
        assert q_int_sign(j, QParam(num, den)) == (1 if value > 0 else -1)
        checked += 1


def test_q_binomial_sign_generic_q():
    qp = QParam(1, 20)
    assert q_binomial_sign(5, 0, qp) == 1
    assert q_binomial_sign(5, 2, qp) == 1      # all [j] > 0 for j <= 5 at t = 1/20
    assert q_binomial_sign(-3, 2, qp) == 1     # reflection to (-1)^2 * binom(4,2)
    assert q_binomial_sign(1, 2, qp) == 0      # genuinely vanishing binomial
    # numeric cross-check including negative tops
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(-12, 12)
        k = rng.randint(0, 6)
        qp = QParam(rng.choice([1, 2, 3]), rng.choice([29, 31, 37]))
        value = q_binomial_value(n, k, qp)
        want = 0 if abs(value) < 1e-9 else (1 if value > 0 else -1)
        assert q_binomial_sign(n, k, qp) == want, (n, k, qp)


def test_q_binomial_sign_q1_rational():
    # sign of the generalized binomial
    assert q_binomial_sign(F(5, 2), 3) == 1    # (5/2)(3/2)(1/2)/6 > 0
    assert q_binomial_sign(F(-1, 2), 1) == -1
    assert q_binomial_sign(F(1, 2), 2) == -1   # (1/2)(-1/2)/2 < 0
    assert q_binomial_sign(F(2), 3) == 0


def test_multiplicity_signature_level0_and_bounds():
    qp = QParam(1, 23)
    assert multiplicity_signature([2, 3], 0, qp) == 1
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice([2, 3])
        a = [rng.randint(0, 4) for _ in range(n)]
        m = rng.randint(0, 5)
        qp = QParam(rng.choice([1, 3]), rng.choice([41, 53]))
        sig = multiplicity_signature(a, m, qp)
        dim = math.comb(m + n - 2, n - 2)
        assert abs(sig) <= dim
        assert isinstance(sig, int)


def test_levels_must_be_nonnegative_integers():
    # a fractional level once gave a sign (n = 2) or a raw TypeError (n >= 3)
    two, three = [F(-1, 2), F(1, 3)], [F(-1, 2), F(1, 3), F(-2, 7)]
    for bad in (F(3, 2), 1.5, 2.5, -1):
        with pytest.raises(DomainError):
            q_binomial_sign(F(7, 2), bad)
        for weights in (two, three):
            with pytest.raises(DomainError):
                multiplicity_signature(weights, bad)
    # numpy integers are integers
    assert q_binomial_sign(F(7, 2), np.int64(1)) == q_binomial_sign(F(7, 2), 1)
    assert multiplicity_signature(three, np.int64(2)) == multiplicity_signature(three, 2)


def test_multiplicity_signature_rejects_negative_integer_weights_at_generic_q():
    with pytest.raises(DomainError):
        multiplicity_signature([2, -1], 1, QParam(1, 23))


def test_classical_limit_counts_dimension():
    # as q -> 1+ all quantum binomial signs turn positive, so the signature
    # formula counts the surviving fusion paths: the classical multiplicity
    qp = QParam(1, 100003)
    rng = random.Random(2)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        a = [rng.randint(0, 5) for _ in range(n)]
        for m in range(sum(a) // 2 + 1):
            assert multiplicity_signature(a, m, qp) == crystal_multiplicity(a, m)


def test_signature_parity_matches_dimension():
    # each composition contributes +-1 when nothing vanishes, so the sum has
    # the same parity as the composition count C(m+n-2, n-2)
    rng = random.Random(17)
    trials = 0
    while trials < 30:
        n = rng.choice([2, 3])
        lams = [F(rng.randint(-40, 40), rng.choice([7, 11, 13])) for _ in range(n)]
        if not all(is_generic(l) for l in lams) or not is_generic(sum(lams)):
            continue
        # non-integral prefix sums guarantee no vanishing generalized binomial
        prefix = F(0)
        ok = True
        for lam in lams:
            prefix += lam
            if prefix.denominator == 1:
                ok = False
        if not ok:
            continue
        m = rng.randint(0, 6)
        dim = math.comb(m + n - 2, n - 2)
        sig = multiplicity_signature(lams, m)
        assert abs(sig) <= dim
        assert (sig - dim) % 2 == 0
        trials += 1


def test_q1_matches_peeling():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        while True:
            lams = [F(rng.randint(-40, 40), rng.choice([3, 7, 10, 11])) for _ in range(n)]
            if all(is_generic(l) for l in lams) and is_generic(sum(lams)):
                break
        dec = peel_decompose(lams, 8)
        for m in range(9):
            assert multiplicity_signature(lams, m) == dec.entry(m).signature


def test_crystal_multiplicity_values():
    assert crystal_multiplicity([2, 2], 0) == 1
    assert crystal_multiplicity([2, 2], 1) == 1
    assert crystal_multiplicity([2, 2], 2) == 1
    assert crystal_multiplicity([1, 1, 1], 1) == 2
    assert crystal_multiplicity([2, 2], 3) == 0  # no weight -2 summand
    with pytest.raises(DomainError):
        crystal_multiplicity([2, 2], -1)
    with pytest.raises(DomainError):
        crystal_multiplicity([2, -1], 0)
    # a fractional level or weight once raised a raw TypeError or returned a count
    for a, m in (([2, 2], 1.5), ([2.5, 2], 1)):
        with pytest.raises(DomainError):
            crystal_multiplicity(a, m)


def test_signature_bounded_by_crystal_multiplicity_past_top_level():
    # |sgn| <= dim with dim - sgn even, also above sum(a)//2 where dim is 0;
    # D prime past every top keeps all quantum integers nonzero
    rng = random.Random(5)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        a = [rng.randint(0, 5) for _ in range(n)]
        qp = QParam(rng.choice([1, 2, 3, 5]), rng.choice([41, 53]))
        for m in range(sum(a) + 3):
            sig = multiplicity_signature(a, m, qp)
            dim = crystal_multiplicity(a, m)
            assert abs(sig) <= dim and (dim - sig) % 2 == 0, (a, m, qp)


def test_hwv_small_case():
    qp = QParam(1, 23)
    u = unit_normalized_hwv(1, 1, 1, qp)
    assert u[0] == 1
    assert abs(u[1] + qp.q) < 1e-14
    with pytest.raises(DomainError):
        unit_normalized_hwv(2, 2, 3, qp)
    # fractional indices once raised a raw TypeError or returned a value
    for call in (
        lambda: unit_normalized_hwv(2.5, 2, 1, qp), lambda: unit_normalized_hwv(2, 2, 1.0, qp),
        lambda: closed_form_norm(2, 2, 1.5, qp), lambda: q_binomial_value(5, 1.5, qp),
        lambda: q_binomial_value(5.5, 1, qp), lambda: q_int_sign(1.5, qp),
    ):
        with pytest.raises(DomainError):
            call()


def test_both_sides_of_the_norm_identity_refuse_the_same_levels():
    # closed_form_norm(2, 2, 3) once raised ZeroDivisionError where coboundary_norm refused
    qp = QParam(1, 23)
    for a, b, m in (
        (2, 2, 3), (2, 2, -1), (1, 3, 2), (3, 1, 2), (2.5, 2, 1), (2, 2, 1.0), (2, 2, 1.5),
    ):
        for side in (coboundary_norm, closed_form_norm, q_vandermonde_check):
            with pytest.raises(DomainError):
                side(a, b, m, qp)
    assert abs(coboundary_norm(3, 2, 2, qp) - closed_form_norm(3, 2, 2, qp)) < 1e-12


def raising_action(a: int, b: int, m: int, u: tuple[complex, ...], qp: QParam) -> np.ndarray:
    """Coproduct raising operator E x 1 + K x E applied to sum_i u[i] v_i x w_{m-i}."""
    c = np.zeros((a + 1, b + 1), dtype=complex)
    for i, value in enumerate(u):
        c[i, m - i] = value
    out = np.zeros_like(c)
    for i in range(a + 1):
        for j in range(b + 1):
            if c[i, j] == 0:
                continue
            if i >= 1:
                out[i - 1, j] += q_int_value(a - i + 1, qp) * c[i, j]
            if j >= 1:
                out[i, j - 1] += qp.power(a - 2 * i) * q_int_value(b - j + 1, qp) * c[i, j]
    return out


def test_hwv_is_annihilated():
    qp = QParam(2, 31)
    for a in range(7):
        for b in range(7):
            for m in range(min(a, b) + 1):
                u = unit_normalized_hwv(a, b, m, qp)
                residual = np.linalg.norm(raising_action(a, b, m, u, qp))
                assert residual <= 1e-12 * np.linalg.norm(u)


def test_coboundary_norm_simplest_case():
    qp = QParam(1, 23)
    value = coboundary_norm(1, 1, 1, qp)
    assert abs(value - 2 * math.cos(math.pi / 23)) < 1e-12
    assert coboundary_norm(3, 2, 0, qp) == 1


def test_coboundary_matches_closed_form_grid():
    for t in (F(1, 23), F(2, 31), F(5, 47)):
        qp = QParam(t.numerator, t.denominator)
        for a in range(9):
            for b in range(9):
                for m in range(min(a, b) + 1):
                    direct = coboundary_norm(a, b, m, qp)
                    closed = closed_form_norm(a, b, m, qp)
                    assert abs(direct.imag) <= 1e-10 * (1 + abs(direct))
                    assert abs(direct - closed) <= 1e-10 * max(1.0, abs(closed))
                    assert multiplicity_signature([a, b], m, qp) == (
                        1 if direct.real > 0 else -1
                    )


def test_q_vandermonde_identity_grid():
    for t in (F(1, 23), F(2, 31), F(5, 47)):
        qp = QParam(t.numerator, t.denominator)
        for a in range(7):
            for b in range(7):
                for m in range(min(a, b) + 1):
                    assert q_vandermonde_check(a, b, m, qp)


def test_verma_weight_extension_at_generic_q():
    # rational tops at generic q: sin-product signs; spot-check against floats
    rng = random.Random(9)
    for _ in range(100):
        qp = QParam(1, rng.choice([101, 211]))
        top = F(rng.randint(-50, 50), rng.choice([3, 7, 10]))
        if top.denominator == 1:
            continue
        k = rng.randint(1, 4)
        t = float(qp.t)
        value = 1.0
        for j in range(1, k + 1):
            value *= math.sin(float(top - j + 1) * math.pi * t) / math.sin(j * math.pi * t)
        assert q_binomial_sign(top, k, qp) == (1 if value > 0 else -1)


def test_generic_q_binomial_sign_matches_loop():
    # same sign, or RootOfUnityError from both
    checked = raised = 0
    for p, d in ((1, 5), (2, 7), (3, 8), (1, 23), (5, 47), (4, 9)):
        qp = QParam(p, d)
        for denom in (1, 2, 3, 7):
            for numer in range(-40 * denom, 40 * denom + 1):
                top = F(numer, denom)
                for k in range(10):
                    want = outcome(top, k, qp, q_binomial_sign_loop)
                    assert outcome(top, k, qp, q_binomial_sign) == want, (top, k, qp)
                    checked += 1
                    raised += want is RootOfUnityError
    assert checked == 1044 * 10 * 6 and raised


def test_closed_binomial_sign_matches_loop():
    checked = 0
    for denom in (1, 2, 3, 7):
        for numer in range(-60, 61):
            top = F(numer, denom)
            for k in range(15):
                assert q_binomial_sign(top, k) == binomial_sign_loop(top, k), (top, k)
                checked += 1
    assert checked == 484 * 15


def test_formula_matches_composition_sum_on_criterion3_inputs():
    # the inputs of acceptance criterion 3
    rng = random.Random(31)
    for _ in range(100):
        lams = random_generic_tuple(rng, rng.choice([2, 3, 4]))
        for m in range(9):
            assert multiplicity_signature(lams, m) == composition_sum(lams, m), (lams, m)


def test_formula_matches_composition_sum_on_unit_circle_classes():
    # every q-item class of the formulas benchmark: t, n = 2..4, sum(a)
    rng = random.Random(47)
    for p, d in ((1, 23), (2, 31), (5, 47), (3, 29)):
        qp = QParam(p, d)
        for n in (2, 3, 4):
            for total in range(2, 22, 3):
                a = random_split(rng, total, n)
                for m in range(total // 2 + 1):
                    assert multiplicity_signature(a, m, qp) == composition_sum(a, m, qp), (a, m, qp)


def test_q1_step_signs_match_composition_sum_on_a_grid_of_vanishing_binomials():
    # at q = 1 a step sign counts the negative factors of its three binomials, and is 0
    # when an integral top lies in [0, k): integral prefix sums A_j (1/2 + 1/2, 1/3 - 4/3),
    # negative integral weights and negative integral totals; a nonnegative integral
    # weight (0, 2) or total is outside the formula's domain, as it is outside peeling's
    values = (-3, -1, 0, 2, F(-1, 2), F(1, 2), F(1, 3), F(-4, 3))
    rng = random.Random(24)
    draws = {2: list(itertools.product(values, repeat=2))}
    for n, count in ((3, 150), (4, 60), (5, 30)):
        # draw until count tuples are generic; the others are refused on the way
        draws[n], generic = [], 0
        while generic < count:
            draws[n].append(weights := rng.choices(values, k=n))
            generic += all(map(is_generic, (*weights, sum(weights))))
    kinds = set()
    refused = 0
    for n, grid in draws.items():
        for weights in grid:
            prefix = list(itertools.accumulate(weights))
            if not all(is_generic(x) for x in (*weights, prefix[-1])):
                for m in range(9):
                    with pytest.raises(GenericityError):
                        multiplicity_signature(weights, m)
                refused += 1
                continue
            kinds.add((n, any(F(x).denominator == 1 for x in prefix[:-1]),
                       F(prefix[-1]).denominator == 1 and prefix[-1] < 0))
            for m in range(9):
                assert multiplicity_signature(weights, m) == composition_sum(weights, m), (weights, m)
    # every n meets integral prefix sums, and negative integral totals, with and without
    assert len(kinds) == 4 * 2 * 2 and refused


def test_formula_matches_composition_sum_on_large_cases():
    rng = random.Random(8)
    for n, m in ((5, 12), (6, 14), (8, 10)):
        lams = random_generic_tuple(rng, n)
        assert multiplicity_signature(lams, m) == composition_sum(lams, m), (lams, m)


def root_of_unity_inputs():
    """(a, qp, top): sum(a) up to and past D, where some quantum integers vanish."""
    rng = random.Random(58)
    for p, d in ((1, 5), (2, 7), (3, 8)):
        qp = QParam(p, d)
        for n in (2, 3, 4):
            for total in range(d + 4):
                for _ in range(3):
                    yield random_split(rng, total, n), qp, total // 2 + 1


# rational weights at generic q where the terms of all prefixes reaching
# some prefix sum cancel, and a step from that prefix sum raises
CANCELLING_ROOT_OF_UNITY_CASES = (
    ((1, 5), ("-7/2", 1, "9/2", -2, 5), 2),
    ((2, 7), (9, -5, -3, "7/2"), 3),
    ((3, 8), ("9/2", "-15/2", 4, -8), 3),
)


def test_root_of_unity_error_where_composition_sum_raises():
    raised = returned = 0
    for a, qp, top in root_of_unity_inputs():
        for m in range(top + 1):
            want = outcome(a, m, qp, composition_sum)
            assert outcome(a, m, qp, multiplicity_signature) == want, (a, m, qp)
            raised += want is RootOfUnityError
            returned += want is not RootOfUnityError
    assert raised and returned
    for (p, d), weights, m in CANCELLING_ROOT_OF_UNITY_CASES:
        assert outcome(weights, m, QParam(p, d), composition_sum) is RootOfUnityError
        with pytest.raises(RootOfUnityError):
            multiplicity_signature(weights, m, QParam(p, d))


def test_range_pass_equals_the_level_calls_at_q1():
    rng = random.Random(26)
    for n in (2, 3, 4, 5):
        for _ in range(25):
            lams = random_generic_tuple(rng, n)
            top = rng.randint(0, 8)
            want = [multiplicity_signature(lams, m) for m in range(top + 1)]
            assert multiplicity_signatures(lams, top) == want, (lams, top)


def test_range_pass_raises_exactly_when_some_level_raises():
    # the range 0..k is undefined when any of its levels is, and is every level's sign
    # otherwise; a level may be defined above an undefined one
    raised = returned = 0
    for a, qp, top in root_of_unity_inputs():
        for k in range(top + 1):
            levels = [outcome(a, m, qp, multiplicity_signature) for m in range(k + 1)]
            want = RootOfUnityError if RootOfUnityError in levels else levels
            assert outcome(a, k, qp, multiplicity_signatures) == want, (a, k, qp)
            raised += want is RootOfUnityError
            returned += want is not RootOfUnityError
    assert raised and returned
    for (p, d), weights, m in CANCELLING_ROOT_OF_UNITY_CASES:
        with pytest.raises(RootOfUnityError):
            multiplicity_signatures(weights, m, QParam(p, d))
    # at t = 1/4, [4] = 0: level 1 of V_0 x V_4 is undefined, and level 2 is not
    qp = QParam(1, 4)
    levels = [outcome([0, 4], m, qp, multiplicity_signature) for m in range(3)]
    assert levels == [1, RootOfUnityError, 0]
    with pytest.raises(RootOfUnityError):
        multiplicity_signatures([0, 4], 2, qp)


def test_q1_formula_refuses_what_peeling_refuses():
    # a nonnegative integral weight or total once got a sign (1 at level 1 for both)
    for weights in ([F(1, 2), F(1, 2)], [1, 2], [F(1, 3), 0, F(-5, 2)], [F(1, 3), F(2, 3), -1]):
        with pytest.raises(GenericityError) as peeled:
            peel_decompose(weights, 1)
        for call in (multiplicity_signature, multiplicity_signatures):
            with pytest.raises(GenericityError) as formula:
                call(weights, 1)
            assert str(formula.value) == str(peeled.value)
    # generic-q integer mode keeps its nonnegative integer weights
    assert multiplicity_signature([1, 2], 1, QParam(1, 23)) == 1
