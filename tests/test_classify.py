import random
from fractions import Fraction as F

import numpy as np
import pytest

from vermasig import (
    DomainError,
    ExplicitType,
    GenericityError,
    classify_definite,
    explicit_type_of,
    multiplicity_signature,
    multiplicity_signatures,
    peel_decompose,
    verify_type,
)
from vermasig import classify
from vermasig.classify import consistent_types, default_level_bound, representative_weights

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
    assert multiplicity_signature((F(-1, 2), F(-3, 2)), 3) == -1
    assert multiplicity_signature((F(-1, 2), F(-3, 2)), 0) == 1


def test_two_factor_sign_mixed():
    # positive/negative with positive sum: level 2 sits in the alternating
    # middle band
    assert multiplicity_signature((F(5, 2), F(-7, 10)), 2) == -1


def random_generic_pair(rng, denominators, span):
    """A pair for the two-factor sign, the signature formula at n = 2: generic, in
    either order, negative integral weights included."""
    while True:
        pair = [F(rng.randint(-span, span), rng.choice(denominators)) for _ in range(2)]
        if all(x.denominator > 1 or x < 0 for x in (*pair, sum(pair))):
            return pair


def test_two_factor_sign_level0_always_positive():
    rng = random.Random(3)
    for _ in range(50):
        assert multiplicity_signature(random_generic_pair(rng, [1, 7, 11, 13], 40), 0) == 1


def test_two_factor_sign_domain_errors():
    # the formula's domain is peeling's: a nonnegative integral weight or total is
    # refused, while a negative integral weight and either order are allowed
    for pair in ((F(1), F(-1, 2)), (F(3, 2), F(1, 2)), (0, F(-7, 2))):
        with pytest.raises(GenericityError):
            multiplicity_signature(pair, 1)
    assert multiplicity_signature((F(-7, 10), F(5, 2)), 2) == -1
    for m, entry in enumerate(peel_decompose([-2, F(13, 3)], 6).entries):
        assert multiplicity_signature((-2, F(13, 3)), m) == entry.signature
    for k in (1.5, F(3, 2), -1):  # 1.5 once gave -1
        with pytest.raises(DomainError):
            multiplicity_signature((F(5, 2), F(-7, 10)), k)


def test_classify_definite_rejects_bad_level_bounds():
    t = ExplicitType(1, (0, 0, -1))
    for bound in (2.5, F(5, 2), -1):  # 2.5 was reported as complete_up_to=2.5
        with pytest.raises(DomainError):
            classify_definite(t, bound)
    assert classify_definite(t, np.int64(6)) == classify_definite(t, 6)


def test_two_factor_sign_is_unit_valued():
    # every two-factor multiplicity space is a line, so no level's sign may leave {+1, -1}
    rng = random.Random(8)
    for _ in range(300):
        pair = random_generic_pair(rng, [1, 7, 9, 11, 13, 17], 60)
        assert all(s in (-1, 1) for s in multiplicity_signatures(pair, 13)), pair


def test_two_factor_sign_equals_peeling():
    rng = random.Random(11)
    for _ in range(60):
        x1, x2 = random_generic_pair(rng, [1, 7, 10, 13], 40)
        peeled = [e.signature for e in peel_decompose([x1, x2], 12).entries]
        assert multiplicity_signatures((x1, x2), 12) == peeled, (x1, x2)
        assert multiplicity_signatures((x2, x1), 12) == peeled, (x2, x1)
        assert [multiplicity_signature((x1, x2), m) for m in range(13)] == peeled, (x1, x2)


def test_two_factor_sign_matches_piecewise_grid():
    checked = 0
    for denom in (2, 3, 7):
        xs = [F(n, denom) for n in range(-6 * denom + 1, 6 * denom) if n % denom]
        for x1 in xs:
            for x2 in xs:
                s = x1 + x2
                if x1 <= x2 or (s.denominator == 1 and s >= 0):
                    continue
                want = [two_factor_piecewise(x1, x2, k) for k in range(16)]
                assert multiplicity_signatures((x1, x2), 15) == want, (x1, x2)
                checked += len(want)
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
    # 1,009 fractional parts of at least 1/1009 sum to at least 1, so a carry of 0 has
    # no representative; it is refused before any draw
    state = rng.getstate()
    with pytest.raises(DomainError, match="denominator 1009"):
        representative_weights(ExplicitType(-1009, (-1,) * 1009), rng)
    assert rng.getstate() == state


def test_representative_weights_draws_are_pinned():
    # the benchmark's digests and every seeded check rest on these draws
    rng = random.Random(7)
    assert [
        representative_weights(t, rng)
        for t in (ExplicitType(1, (0, 0, -1)), ExplicitType(-6, (2, -3, -3, -4)))
    ] == [
        (F(955, 1009), F(488, 1009), F(-102, 1009)),
        (F(2859, 1009), F(-2478, 1009), F(-2930, 1009), F(-3430, 1009)),
    ]
    assert rng.random() == 0.5827880059033551


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


def test_n2_reads_fixed_representatives_and_draws_nothing(monkeypatch):
    # the floors decide n = 2: classify_definite draws no random weights there
    def no_draw(*args):
        raise AssertionError("classify_definite drew representative weights")

    monkeypatch.setattr(classify, "representative_weights", no_draw)
    rep = classify_definite(ExplicitType(1, (2, -2)), 12)
    assert rep.entries == ((0, 1), (1, -1)) + tuple((m, 1 if m % 2 else -1) for m in range(2, 13))
    for t in consistent_types(2, -8, 8):
        if t.p:  # both weights negative is the p = 0 branch
            assert len(classify_definite(t, 4).entries) == 5


def test_n2_signs_equal_the_formula_on_random_representatives():
    # the random weights of the verification route are the independent reference
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        for t in consistent_types(2, -8, 8):
            x1, x2 = representative_weights(t, rng)
            for bound in (3, default_level_bound(t)):
                want = tuple((m, multiplicity_signature((x1, x2), m)) for m in range(bound + 1))
                assert classify_definite(t, bound).entries == want, (t, seed)


def test_consistent_types_refuses_bad_arguments_on_call():
    # these once recursed until RecursionError, or raised a raw TypeError
    for args in ((-1, 0, 1), (2.5, 0, 1), (1, 0, 1), (2, 0.5, 1), (2, 0, 0.5), (2, F(0), 1)):
        with pytest.raises(DomainError):
            consistent_types(*args)
    assert len(list(consistent_types(np.int64(2), -1, 1))) == 12


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
    got = dict(peel_decompose(lams, bound).definite_levels(bound))
    claimed = classify_definite(t, bound).as_dict()
    assert got == claimed
