"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

from vermasig import (
    MasterConfig,
    QParam,
    asymptotic_signature,
    bound_check,
    classify_definite,
    closed_form_norm,
    coboundary_norm,
    count_real_by_spectrum,
    e_decomposition_check,
    exact_signature,
    find_critical_points,
    gaudin_system,
    gram_on_multiplicity,
    multiplicity_signature,
    peel_decompose,
    q_vandermonde_check,
)
from vermasig.bethe import (
    bethe_vector,
    hamiltonian_eigenvalue,
    hamiltonian_matrices,
    raising_residual,
)
from vermasig.classify import consistent_types, definite_levels_of, representative_weights
from vermasig.sigchar import is_generic

from bethe_reference import bethe_vector_closed_form, search_critical_points


def random_generic_tuple(rng, n, denoms, span):
    while True:
        lams = [F(rng.randint(-span, span), rng.choice(denoms)) for _ in range(n)]
        if all(is_generic(l) for l in lams) and is_generic(sum(lams)):
            return lams


def report(k, label, detail):
    print(f"ACCEPTANCE {k} ({label}): PASS  [{detail}]")


def test_criterion_1_classification_fidelity():
    start = time.time()
    rng = random.Random(1009)
    count = 0
    for n in (2, 3, 4, 5):
        for t in consistent_types(n, -4, 4):
            bound = 2 * sum(f + 1 for f in t.factor_floors if f >= 0) + 2 * n
            lams = representative_weights(t, rng)
            got = definite_levels_of(lams, bound)
            want = classify_definite(t, bound).entries
            assert got == want, (t, got, want)
            count += 1
    elapsed = time.time() - start
    assert elapsed < 300
    report(1, "classification fidelity", f"{count} explicit types, {elapsed:.1f}s")


def test_criterion_2_gram_oracle_equivalence():
    start = time.time()
    rng = random.Random(97)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        lams = random_generic_tuple(rng, n, denoms=(2, 3, 5, 7, 97), span=200)
        m = rng.randint(0, 6)
        entry = peel_decompose(lams, m).entry(m)
        inertia = exact_signature(gram_on_multiplicity(lams, m))
        assert inertia == (entry.pos, entry.neg), (lams, m)
    rng = random.Random(5097)
    for _ in range(20):
        lams = random_generic_tuple(rng, 5, denoms=(2, 3, 5, 7, 97), span=200)
        m = rng.randint(1, 4)
        entry = peel_decompose(lams, m).entry(m)
        inertia = exact_signature(gram_on_multiplicity(lams, m))
        assert inertia == (entry.pos, entry.neg), (lams, m)
    elapsed = time.time() - start
    assert elapsed < 300
    report(2, "Shapovalov Gram inertia = peeling", f"200 tuples n<=4 + 20 tuples n=5, {elapsed:.1f}s")


def test_criterion_3_signature_formula_at_q1():
    start = time.time()
    rng = random.Random(31)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        lams = random_generic_tuple(rng, n, denoms=(3, 7, 10, 11, 13), span=40)
        dec = peel_decompose(lams, 8)
        for m in range(9):
            assert multiplicity_signature(lams, m) == dec.entry(m).signature, (lams, m)
    elapsed = time.time() - start
    assert elapsed < 120
    report(3, "composition formula at q=1 = peeling", f"100 tuples x levels 0..8, {elapsed:.1f}s")


def test_criterion_4_coboundary_closed_form():
    start = time.time()
    checked = 0
    for t in (F(1, 23), F(2, 31), F(5, 47)):
        qp = QParam(t.numerator, t.denominator)
        for a in range(9):
            for b in range(9):
                for m in range(min(a, b) + 1):
                    direct = coboundary_norm(a, b, m, qp)
                    closed = closed_form_norm(a, b, m, qp)
                    assert abs(direct - closed) <= 1e-10 * max(1.0, abs(closed)), (a, b, m, t)
                    assert multiplicity_signature([a, b], m, qp) == (
                        1 if direct.real > 0 else -1
                    ), (a, b, m, t)
                    assert q_vandermonde_check(a, b, m, qp, rtol=1e-10), (a, b, m, t)
                    checked += 1
    elapsed = time.time() - start
    assert elapsed < 60
    report(4, "two-factor norm closed form + convolution identity", f"{checked} cells, {elapsed:.1f}s")


def _criterion5_instances():
    rng = random.Random(5005)
    out = []
    for trial in range(20):
        m = rng.randint(1, 3)
        lams = tuple(random_generic_tuple(rng, 3, denoms=(7, 10, 11, 13), span=30))
        zs = []
        while len(zs) < 3:
            c = F(rng.randint(-8, 8), rng.choice([1, 2, 3]))
            if c not in zs:
                zs.append(c)
        out.append((MasterConfig(tuple(zs), lams, m), 5005 + trial))
    return out


def test_criterion_5_gaudin_bethe_structure():
    start = time.time()
    # exact structure: commutation, invariance, self-adjointness (asserted
    # inside gaudin_system) for n <= 4, m <= 4
    structural = [
        ((F(0), F(1)), (F(-1, 2), F(5, 7))),
        ((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5))),
        ((F(0), F(1), F(3), F(7, 2)), (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7))),
    ]
    for zs, lams in structural:
        for m in range(1, 5):
            gaudin_system(MasterConfig(zs, lams, m))

    # eigenvector relations at every converged critical point
    cfg = MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 2)
    pts = find_critical_points(cfg, count_real_by_spectrum(cfg, seed=77)[1])
    assert len(pts) == cfg.dim
    hmats = [
        np.array([[float(v) for v in row] for row in h]) for h in hamiltonian_matrices(cfg)
    ]
    for p in pts:
        roots = np.roots(np.array(p.qpoly))
        b = bethe_vector(cfg, roots)
        assert raising_residual(cfg, b) < 1e-8
        for i in range(cfg.n):
            mu = hamiltonian_eigenvalue(cfg, i, p.qpoly)
            image = hmats[i] @ b
            assert np.linalg.norm(image - mu * b) <= 1e-8 * np.linalg.norm(image)

    # two independent pipelines agree on 20 random instances (the reference
    # search takes no input from the spectrum), and the eigenvector relations
    # hold at every converged point of each
    points_checked = 0
    for cfg, seed in _criterion5_instances():
        pts = search_critical_points(cfg, seed=seed)
        n_real, _ = count_real_by_spectrum(cfg, seed=seed)
        assert len(pts) == cfg.dim, (cfg, len(pts))
        assert n_real == sum(1 for p in pts if p.is_real), (cfg, n_real)
        hmats = [
            np.array([[float(v) for v in row] for row in h])
            for h in hamiltonian_matrices(cfg)
        ]
        for p in pts:
            b = bethe_vector(cfg, np.roots(np.array(p.qpoly)))
            assert raising_residual(cfg, b) < 1e-8, (cfg, p)
            for i in range(cfg.n):
                mu = hamiltonian_eigenvalue(cfg, i, p.qpoly)
                image = hmats[i] @ b
                assert np.linalg.norm(image - mu * b) <= 1e-8 * np.linalg.norm(image)
            points_checked += 1
    elapsed = time.time() - start
    assert elapsed < 600
    report(
        5,
        "Gaudin/Bethe structure + dual-pipeline counts",
        f"20 instances, {points_checked} points, {elapsed:.1f}s",
    )


def test_criterion_6_signature_bound():
    start = time.time()
    for cfg, seed in _criterion5_instances():
        rep = bound_check(cfg, seed=seed)
        assert abs(rep.signature) <= rep.n_real <= rep.dim
    for m in (1, 2, 3):
        rep = bound_check(
            MasterConfig((F(0), F(1), F(3)), (F(-1, 2), F(-3, 4), F(-7, 5)), m), seed=2
        )
        assert abs(rep.signature) == rep.n_real == rep.dim
    elapsed = time.time() - start
    report(6, "|sgn| <= N <= dim, tight on all-negative", f"23 instances, {elapsed:.1f}s")


def test_criterion_7_asymptotic_trend():
    start = time.time()
    for lams in (
        [F(23, 10), F(17, 10), F(-2, 5)],
        [F(7, 2), F(9, 4), F(5, 3), F(-31, 7)],
    ):
        n = len(lams)
        dec = peel_decompose(lams, 200)
        signatures = [e.signature for e in dec.entries]
        asymptotic = [asymptotic_signature(lams, m) for m in range(201)]
        threshold = next(
            m for m in range(201) if all(asymptotic[k] == signatures[k] for k in range(m, 201))
        )
        assert threshold < 100, threshold
        assert asymptotic[threshold:] == signatures[threshold:]
        for m in range(100, 201):
            dim = math.comb(m + n - 2, n - 2)
            assert abs(signatures[m]) / dim >= 0.8, (lams, m)
        # leading coefficient of the large-m polynomial is +-1/(n-2)! * m^{n-2}
        big = 10**6
        ratio = abs(asymptotic_signature(lams, big)) * math.factorial(n - 2) / big ** (n - 2)
        assert abs(ratio - 1) < 0.01
    elapsed = time.time() - start
    assert elapsed < 120
    report(7, "asymptotic signature formula + trend to 1", f"thresholds found, {elapsed:.1f}s")


def test_criterion_8_expansion_identities():
    start = time.time()
    rng = random.Random(4004)
    checked = 0
    while checked < 100:
        mu = F(rng.randint(-5000, 5000), 1009)
        if not is_generic(mu) or not (-5 < mu < 5):
            continue
        assert e_decomposition_check(mu, 10), mu
        checked += 1
    for _ in range(25):
        n = rng.choice([2, 3])
        m = rng.randint(1, 3)
        lams = tuple(random_generic_tuple(rng, n, denoms=(7, 10, 11), span=20))
        zs = []
        while len(zs) < n:
            c = F(rng.randint(-6, 6), rng.choice([1, 2]))
            if c not in zs:
                zs.append(c)
        cfg = MasterConfig(tuple(zs), lams, m)
        t = [complex(rng.uniform(-4, 4), rng.uniform(-2, 2)) for _ in range(m)]
        direct = bethe_vector(cfg, t)
        expanded = bethe_vector_closed_form(cfg, t)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(direct - expanded)) <= 1e-12 * scale
    elapsed = time.time() - start
    assert elapsed < 60
    report(8, "weight-line decomposition + assignment-sum expansion", f"{elapsed:.1f}s")
