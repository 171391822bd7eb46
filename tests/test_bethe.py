import math
import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from vermasig import (
    DomainError,
    MasterConfig,
    bethe_residual,
    bethe_vector,
    bound_check,
    count_real_by_spectrum,
    find_critical_points,
    gaudin_system,
    master_value,
    zy_commutator_check,
)
from vermasig.bethe import (
    hamiltonian_eigenvalue,
    hamiltonian_matrices,
    highest_vector_eigenvalue,
    raising_residual,
)
from vermasig.sigchar import is_generic

from bethe_reference import bethe_vector_closed_form, search_critical_points
from test_acceptance import _criterion5_instances


def random_config(rng, n=3, m_max=3, span=30):
    m = rng.randint(1, m_max)
    while True:
        lams = tuple(F(rng.randint(-span, span), rng.choice([7, 10, 11, 13])) for _ in range(n))
        if all(is_generic(l) for l in lams) and is_generic(sum(lams)):
            break
    zs = []
    while len(zs) < n:
        c = F(rng.randint(-8, 8), rng.choice([1, 2, 3]))
        if c not in zs:
            zs.append(c)
    return MasterConfig(tuple(zs), lams, m)


def test_config_validation():
    with pytest.raises(DomainError):
        MasterConfig((F(0), F(0)), (F(-1, 2), F(-1, 2)), 1)
    with pytest.raises(DomainError):
        MasterConfig((F(0), F(1)), (F(-1, 2),), 1)
    with pytest.raises(DomainError):
        MasterConfig((F(0), F(1)), (F(-1, 2), F(-1, 2)), 0)


def test_master_value_m1():
    cfg = MasterConfig((F(0), F(1)), (F(1, 2), F(1, 2)), 1)
    assert abs(master_value(cfg, [0.5]) - 2.0) < 1e-12
    # doubling the weights squares the non-discriminant factor (m = 1)
    cfg2 = MasterConfig((F(0), F(1)), (F(1), F(1)), 1)
    assert abs(master_value(cfg2, [0.5]) - 4.0) < 1e-12
    with pytest.raises(DomainError):
        master_value(cfg, [0.0])


def test_bethe_residual_closed_form_root():
    lam1, lam2, z1, z2 = F(1, 2), F(1, 3), F(0), F(1)
    cfg = MasterConfig((z1, z2), (lam1, lam2), 1)
    tstar = (lam1 * z2 + lam2 * z1) / (lam1 + lam2)
    assert bethe_residual(cfg, [float(tstar)]) < 1e-14
    sym = MasterConfig((F(-1), F(1)), (F(1, 2), F(1, 2)), 1)
    assert bethe_residual(sym, [0.0]) == 0.0


def test_bethe_residual_permutation_invariant():
    cfg = MasterConfig((F(0), F(1), F(3)), (F(-1, 2), F(-3, 4), F(-7, 5)), 2)
    t = [0.4 + 0.2j, 2.1 - 0.7j]
    assert abs(bethe_residual(cfg, t) - bethe_residual(cfg, t[::-1])) < 1e-14


def test_find_critical_points_n2():
    cfg = MasterConfig((F(0), F(1)), (F(1, 2), F(1, 3)), 1)
    pts = find_critical_points(cfg, count_real_by_spectrum(cfg, seed=1)[1])
    assert len(pts) == 1 and pts[0].is_real
    tstar = float((F(1, 2) * 1) / (F(1, 2) + F(1, 3)))
    assert abs(-pts[0].qpoly[1].real - tstar) < 1e-9


def test_find_critical_points_n3_m1():
    cfg = MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 1)
    pts = find_critical_points(cfg, count_real_by_spectrum(cfg, seed=1)[1])
    assert len(pts) == 2  # dim E_1 = C(2,1)
    for p in pts:
        assert p.residual < 1e-10


def test_all_negative_all_points_real():
    cfg = MasterConfig((F(0), F(1), F(3)), (F(-1, 2), F(-3, 4), F(-7, 5)), 2)
    pts = find_critical_points(cfg, count_real_by_spectrum(cfg, seed=5)[1])
    assert len(pts) == cfg.dim == 3
    assert all(p.is_real for p in pts)


def test_gaudin_system_invariants_checked_exactly():
    # construction itself asserts commutation, invariance, self-adjointness
    cfg = MasterConfig((F(0), F(1), F(3), F(7, 2)), (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7)), 3)
    system = gaudin_system(cfg)
    assert system.basis.dim == cfg.dim == math.comb(5, 2)
    gram = system.gram
    r = gram.size
    assert all(gram.entries[i][j] == gram.entries[j][i] for i in range(r) for j in range(r))


def test_gaudin_level_structure_n2():
    cfg = MasterConfig((F(0), F(1)), (F(1, 2), F(1, 3)), 1)
    system = gaudin_system(cfg)
    assert all(len(mat) == 1 for mat in system.matrices)
    # the 1x1 Hamiltonian matches the eigenvalue formula at the unique point
    pts = find_critical_points(cfg, count_real_by_spectrum(cfg, seed=0)[1])
    mu = hamiltonian_eigenvalue(cfg, 0, pts[0].qpoly)
    assert abs(complex(system.matrices[0][0][0]) - mu) < 1e-9


def test_highest_vector_is_joint_eigenvector():
    # the level-0 weight space is spanned by the highest vector; each exact
    # 1x1 Hamiltonian matrix there must equal the stated eigenvalue
    cfg = MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 1)
    level0 = hamiltonian_matrices(cfg, level=0)
    for i in range(3):
        assert len(level0[i]) == 1
        assert level0[i][0][0] == highest_vector_eigenvalue(cfg, i)


def test_bethe_vector_m1_coefficients():
    cfg = MasterConfig((F(0), F(1), F(3)), (F(-1, 2), F(-3, 4), F(-7, 5)), 1)
    vec = bethe_vector(cfg, [0.5 + 0.5j])
    # coefficient of F_i v is 1/(t - z_i), composition order colex
    z = [0.0, 1.0, 3.0]
    comps_coeff = [1.0 / (0.5 + 0.5j - zi) for zi in z]
    assert np.allclose(vec, comps_coeff)


def test_bethe_vector_two_routes_agree():
    rng = random.Random(3)
    for _ in range(10):
        cfg = random_config(rng, m_max=3)
        t = [complex(rng.uniform(-4, 4), rng.uniform(-2, 2)) for _ in range(cfg.m)]
        direct = bethe_vector(cfg, t)
        expanded = bethe_vector_closed_form(cfg, t)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(direct - expanded)) <= 1e-12 * scale


def test_bethe_vector_relations_at_critical_points():
    cfg = MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 2)
    pts = find_critical_points(cfg, count_real_by_spectrum(cfg, seed=3)[1])
    assert len(pts) == cfg.dim
    hmats = [
        np.array([[float(v) for v in row] for row in h])
        for h in hamiltonian_matrices(cfg)
    ]
    for p in pts:
        roots = np.roots(np.array(p.qpoly))
        b = bethe_vector(cfg, roots)
        assert raising_residual(cfg, b) < 1e-10
        for i in range(cfg.n):
            mu = hamiltonian_eigenvalue(cfg, i, p.qpoly)
            image = hmats[i] @ b
            assert np.linalg.norm(image - mu * b) <= 1e-8 * np.linalg.norm(image)


def test_spectrum_count_n2_is_one():
    rng = random.Random(11)
    for m in (1, 2, 4):
        cfg = MasterConfig((F(0), F(1)), (F(-1, 2), F(5, 7)), m)
        n_real, witnesses = count_real_by_spectrum(cfg, seed=7)
        assert n_real == 1 and len(witnesses) == 1


def test_spectrum_matches_root_search():
    rng = random.Random(29)
    for trial in range(8):
        cfg = random_config(rng, m_max=3)
        pts = search_critical_points(cfg, seed=50 + trial)
        n_real, _ = count_real_by_spectrum(cfg, seed=50 + trial)
        assert len(pts) == cfg.dim
        assert n_real == sum(1 for p in pts if p.is_real)


def test_reality_flag_matches_joint_eigenvalue():
    rng = random.Random(31)
    cfg = random_config(rng, m_max=3)
    pts = search_critical_points(cfg, seed=8)
    n_real, witnesses = count_real_by_spectrum(cfg, seed=8)
    # match each found point to its witness through the joint eigenvalues
    for p in pts:
        mus = np.array([hamiltonian_eigenvalue(cfg, i, p.qpoly) for i in range(cfg.n)])
        best = min(
            witnesses, key=lambda w: float(np.max(np.abs(np.array(w.joint) - mus)))
        )
        assert float(np.max(np.abs(np.array(best.joint) - mus))) < 1e-6
        assert best.is_real == p.is_real


def test_spectral_points_match_reference_search():
    # the criterion-5 instances plus a few with n = 4, 5: the points from the
    # spectrum and from the independent search match one to one
    rng = random.Random(4242)
    larger = [
        (replace(random_config(rng, n=n, m_max=1), m=m), 7)
        for n, m in ((4, 1), (4, 2), (4, 2), (5, 2))
    ]
    for cfg, seed in _criterion5_instances() + larger:
        spectral = find_critical_points(cfg, count_real_by_spectrum(cfg, seed=seed)[1])
        reference = search_critical_points(cfg, seed=seed)
        assert len(spectral) == len(reference) == cfg.dim, cfg
        for p in reference:
            q = np.array(p.qpoly)
            scale = float(np.max(np.abs(q)))
            dist = [float(np.max(np.abs(np.array(s.qpoly) - q))) / scale for s in spectral]
            k = int(np.argmin(dist))
            assert dist[k] < 1e-8, (cfg, dist[k])
            assert spectral.pop(k).is_real == p.is_real, cfg


def test_find_critical_points_rejects_another_configs_witnesses():
    zs, lams = (F(0), F(1), F(3)), (F(-1, 2), F(-3, 4), F(-7, 5))
    _, witnesses = count_real_by_spectrum(MasterConfig(zs, lams, 2), seed=3)
    # one level up: dim 4 against 3 witnesses
    with pytest.raises(DomainError):
        find_critical_points(MasterConfig(zs, lams, 3), witnesses)
    # n = 4 at m = 1 also has dim 3, but its joint tuples have 4 entries
    other = MasterConfig(zs + (F(7, 2),), lams + (F(-31, 7),), 1)
    assert other.dim == len(witnesses)
    with pytest.raises(DomainError):
        find_critical_points(other, witnesses)


def test_bound_check_cases():
    rep = bound_check(MasterConfig((F(0), F(1)), (F(-1, 2), F(5, 7)), 2), seed=3)
    assert (abs(rep.signature), rep.n_real, rep.dim) == (1, 1, 1)
    rep = bound_check(
        MasterConfig((F(0), F(1), F(3)), (F(-1, 2), F(-3, 4), F(-7, 5)), 2), seed=3
    )
    assert (abs(rep.signature), rep.n_real, rep.dim) == (3, 3, 3)
    rep = bound_check(
        MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 2), seed=3
    )
    assert rep.satisfies and abs(rep.signature) <= rep.n_real <= rep.dim == 3


def test_zy_commutator_identity():
    cfg2 = MasterConfig((F(0), F(1)), (F(1, 2), F(1, 3)), 1)
    assert zy_commutator_check(cfg2, F(7, 3), F(-5, 2), 2)
    cfg3 = MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 1)
    assert zy_commutator_check(cfg3, F(9, 2), F(-13, 7), 3)
    with pytest.raises(DomainError):
        zy_commutator_check(cfg2, F(1, 2), F(1, 2), 2)
    with pytest.raises(DomainError):
        zy_commutator_check(cfg2, F(0), F(1, 2), 2)
