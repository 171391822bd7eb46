import random
from fractions import Fraction as F

import numpy as np
import pytest

from vermasig import (
    DomainError,
    ExplicitType,
    classify_definite,
    explicit_type_of,
    peel_decompose,
    two_factor_sign,
    verify_type,
)
from vermasig.classify import (
    consistent_types,
    default_level_bound,
    definite_levels_of,
    representative_weights,
)

from closed_form_reference import two_factor_piecewise


def test_explicit_type_validation():
    ExplicitType(1, (0, 0, -1))
    with pytest.raises(DomainError):
        ExplicitType(0, (0, 1))  # not descending
    with pytest.raises(DomainError):
        ExplicitType(5, (0, 0))  # total too large
    with pytest.raises(DomainError):
        ExplicitType(-2, (0, -1))  # total too small
    with pytest.raises(DomainError):
        ExplicitType(0, (0,))  # n >= 2


def test_explicit_type_rejects_non_integral_floors():
    for total, floors in ((1, (1.7, 0.2)), (0.5, (0, 0)), (F(1), (1, 0)), (1, "10")):
        with pytest.raises(DomainError):
            ExplicitType(total, floors)
    t = ExplicitType(np.int64(1), (np.int64(1), np.int32(0)))
    assert t == ExplicitType(1, (1, 0))
    assert type(t.total_floor) is int and all(type(f) is int for f in t.factor_floors)


def test_explicit_type_of_sorts():
    t = explicit_type_of([F(-7, 10), F(5, 2)])
    assert t.factor_floors == (2, -1)
    assert t.total_floor == 1
    assert t.p == 1


def test_two_factor_sign_both_negative():
    assert two_factor_sign(F(-1, 2), F(-3, 2), 3) == -1
    assert two_factor_sign(F(-1, 2), F(-3, 2), 0) == 1


def test_two_factor_sign_mixed():
    # positive/negative with positive sum: level 2 sits in the alternating
    # middle band
    assert two_factor_sign(F(5, 2), F(-7, 10), 2) == -1


def test_two_factor_sign_level0_always_positive():
    rng = random.Random(3)
    for _ in range(50):
        x1 = F(rng.randint(-40, 40), rng.choice([7, 11, 13]))
        x2 = F(rng.randint(-40, 40), rng.choice([7, 11, 13]))
        if x1.denominator == 1 or x2.denominator == 1 or x1 <= x2:
            continue
        s = x1 + x2
        if s.denominator == 1 and s >= 0:
            continue
        assert two_factor_sign(x1, x2, 0) == 1


def test_two_factor_sign_domain_errors():
    with pytest.raises(DomainError):
        two_factor_sign(F(1), F(-1, 2), 1)
    with pytest.raises(DomainError):
        two_factor_sign(F(-1, 2), F(1, 2), 1)  # not ordered
    with pytest.raises(DomainError):
        two_factor_sign(F(3, 2), F(1, 2), 1)  # sum = 2 not generic


def test_two_factor_sign_is_unit_valued():
    # the recursion's additive correction must never leave {+1, -1}
    rng = random.Random(8)
    trials = 0
    while trials < 300:
        x1 = F(rng.randint(-60, 60), rng.choice([7, 9, 11, 13, 17]))
        x2 = F(rng.randint(-60, 60), rng.choice([7, 9, 11, 13, 17]))
        if x1.denominator == 1 or x2.denominator == 1 or x1 <= x2:
            continue
        s = x1 + x2
        if s.denominator == 1 and s >= 0:
            continue
        for k in range(0, 14):
            assert two_factor_sign(x1, x2, k) in (-1, 1)
        trials += 1


def test_two_factor_sign_equals_peeling():
    rng = random.Random(11)
    trials = 0
    while trials < 60:
        x1 = F(rng.randint(-40, 40), rng.choice([7, 10, 13]))
        x2 = F(rng.randint(-40, 40), rng.choice([7, 10, 13]))
        if x1.denominator == 1 or x2.denominator == 1 or x1 <= x2:
            continue
        s = x1 + x2
        if s.denominator == 1 and s >= 0:
            continue
        dec = peel_decompose([x1, x2], 12)
        for m in range(13):
            assert two_factor_sign(x1, x2, m) == dec.entry(m).signature
        trials += 1


def test_two_factor_sign_matches_piecewise_grid():
    checked = 0
    for denom in (2, 3, 7):
        xs = [F(n, denom) for n in range(-6 * denom + 1, 6 * denom) if n % denom]
        for x1 in xs:
            for x2 in xs:
                s = x1 + x2
                if x1 <= x2 or (s.denominator == 1 and s >= 0):
                    continue
                for k in range(16):
                    want = two_factor_piecewise(x1, x2, k)
                    assert two_factor_sign(x1, x2, k) == want, (x1, x2, k)
                    checked += 1
    assert checked == 40800


def test_classify_all_negative():
    rep = classify_definite(ExplicitType(-3, (-1, -2)), 5)
    assert rep.entries == tuple((m, -1 if m % 2 else 1) for m in range(6))


def test_classify_exceptional_cases():
    assert classify_definite(ExplicitType(1, (0, 0, -1)), 6).entries == ((0, 1), (2, -1))
    assert classify_definite(ExplicitType(0, (0, 0, 0)), 6).entries == ((0, 1), (1, 1), (2, 1))
    assert classify_definite(ExplicitType(4, (1, 1, 1, 1)), 8).entries == (
        (0, 1), (1, 1), (2, 1), (4, 1),
    )
    assert classify_definite(ExplicitType(3, (0, 0, 0, 0)), 8).entries == (
        (0, 1), (1, 1), (3, -1),
    )


def test_classify_case4_only_level0():
    rep = classify_definite(ExplicitType(0, (1, 0, -1, -2)), 8)
    assert rep.entries == ((0, 1),)


def test_representative_weights_realize_type():
    rng = random.Random(5)
    for t in (
        ExplicitType(1, (0, 0, -1)),
        ExplicitType(4, (1, 1, 1, 1)),
        ExplicitType(-6, (2, -3, -3, -4)),
    ):
        for _ in range(5):
            lams = representative_weights(t, rng)
            assert explicit_type_of(lams) == t
    # with denominator 2 every fractional part is 1/2, and five of them carry 2, not 0
    with pytest.raises(DomainError):
        representative_weights(ExplicitType(0, (0, 0, 0, 0, 0)), rng, denominator=2)


@pytest.mark.parametrize(
    "t",
    [
        ExplicitType(1, (0, 0, -1)),
        ExplicitType(-4, (-1, -1, -2)),
        ExplicitType(3, (0, 0, 0, 0)),
        ExplicitType(0, (0, 0, 0)),
        ExplicitType(2, (0, 0, 0)),  # <3d+2,d,d,d> at d=0
        ExplicitType(4, (2, 1, 1)),  # <3d-2,d,d-1,d-1> at d=2
    ],
)
def test_verify_type_exceptional_families(t):
    assert verify_type(t, rng=random.Random(1))


def test_verify_level0_always_definite_positive():
    rng = random.Random(2)
    for t in consistent_types(3, -2, 2):
        rep = classify_definite(t, default_level_bound(t))
        assert rep.entries[0] == (0, 1)


def test_n2_all_levels_definite():
    rng = random.Random(14)
    for t in consistent_types(2, -2, 2):
        bound = default_level_bound(t)
        rep = classify_definite(t, bound)
        assert len(rep.entries) == bound + 1
        assert verify_type(t, bound, rng)


def test_exhaustive_small_floors():
    rng = random.Random(6)
    for n in (3, 4):
        for t in consistent_types(n, -2, 2):
            assert verify_type(t, rng=rng), t


def test_definiteness_absent_beyond_claimed(tmp_path):
    # the classification claims completeness: peeling may not produce extra
    # definite levels inside the checked bound
    rng = random.Random(10)
    t = ExplicitType(2, (1, 1, -1))
    bound = default_level_bound(t)
    lams = representative_weights(t, rng)
    got = dict(definite_levels_of(lams, bound))
    claimed = classify_definite(t, bound).as_dict()
    assert got == claimed
