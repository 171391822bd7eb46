import functools
import math
import random
import warnings
from dataclasses import fields, replace
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
    gram_on_multiplicity,
    master_value,
    singular_basis,
    zy_commutator_check,
)
from vermasig import bethe, exact, shapovalov
from vermasig.bethe import hamiltonian_matrices, highest_vector_eigenvalue
from vermasig.sigchar import is_generic

import bethe_reference
from bethe_reference import (
    bethe_vector_closed_form,
    census_configs,
    check_every_hamiltonian,
    critical_points_per_witness,
    hamiltonian_eigenvalue,
    hamiltonian_matrices_per_factor,
    heine_stieltjes_roots,
    raising_residual,
    restricted_per_factor,
    search_critical_points,
)
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
    with pytest.raises(DomainError):
        MasterConfig((F(0), F(1)), (F(-1, 2), F(-1, 2)), 1.5)  # built, and failed later
    assert type(MasterConfig((F(0), F(1)), (F(-1, 2), F(-1, 2)), np.int64(2)).m) is int


def test_master_value_m1():
    cfg = MasterConfig((F(0), F(1)), (F(1, 2), F(1, 2)), 1)
    assert abs(master_value(cfg, [0.5]) - 2.0) < 1e-12
    # doubling the weights squares the non-discriminant factor (m = 1)
    cfg2 = MasterConfig((F(0), F(1)), (F(1), F(1)), 1)
    assert abs(master_value(cfg2, [0.5]) - 4.0) < 1e-12
    with pytest.raises(DomainError):
        master_value(cfg, [0.0])


def test_collision_rule_is_the_polish_rule():
    # 5e-13 from z = 0, or between two coordinates, with |t| <= 1 is farther than
    # _too_close's 1e-13 (1 + max|t|), so the polish keeps such a point, and the
    # public entry points accept it; 5e-14 collides for all of them.  The diagonal
    # t_i - t_i is no pair: far-apart coordinates of size 1e14 do not collide
    cfg = MasterConfig((F(0), F(1), F(3)), (F(-1, 2), F(-3, 4), F(-7, 5)), 2)
    public = (bethe_residual, bethe_vector, master_value)
    for t in ([5e-13, 0.5], [0.5, 0.5 + 5e-13], [1e14, 2e14]):
        stack = np.array([t], dtype=complex)
        assert not bethe._too_close(stack, *bethe._differences(cfg, stack))[0]
        assert math.isfinite(bethe_residual(cfg, t))
        assert np.isfinite(bethe_vector(cfg, t)).all() and master_value(cfg, t) > 0
    collisions = ([5e-14, 0.5], [0.5, 0.5 + 5e-14], [1.0, 0.5], [0.5, 0.5], [1e14, 1e14])
    for t in collisions:
        stack = np.array([t], dtype=complex)
        assert bethe._too_close(stack, *bethe._differences(cfg, stack))[0]
    # a real or imaginary part that is not finite is refused before any arithmetic, so
    # with no RuntimeWarning (an error under this suite's warning filter)
    non_finite = ([math.nan, 0.5], [math.inf, 0.5], [0.5, complex(1, math.inf)])
    for t in collisions + non_finite:
        for entry in public:
            with pytest.raises(DomainError):
                entry(cfg, t)


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
    gram = gram_on_multiplicity(cfg.weights, cfg.m)
    r = gram.size
    assert all(gram.entries[i][j] == gram.entries[j][i] for i in range(r) for j in range(r))


def test_gaudin_system_builds_no_gram_matrix(monkeypatch):
    # dim 35 (n = 5, m = 4): both exact checks are pairings, and no inertia is taken
    def no_inertia(entries):
        raise AssertionError("the Gaudin path eliminated a Gram matrix")

    monkeypatch.setattr(exact, "inertia", no_inertia)
    cfg = MasterConfig(
        (F(0), F(1), F(3), F(7, 2), F(5)), (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7), F(-13, 9)), 4
    )
    system = gaudin_system(cfg)
    assert system.basis.dim == cfg.dim == 35
    assert "gram" not in {f.name for f in fields(system)}
    n_real, witnesses = count_real_by_spectrum(cfg)
    assert len(witnesses) == 35 and n_real <= 35


def counted_builds(monkeypatch, cls, name) -> list:
    """Replace the cached property ``cls.name`` by one that lists each instance it builds for."""
    real, calls = vars(cls)[name].func, []

    def counted(self):
        calls.append(self)
        return real(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls


def test_gaudin_system_builds_the_raising_operator_once(monkeypatch):
    # the basis's kernel check and the images' invariance check share one raising operator:
    # a Level builds it with its other tables, and the system builds one Level
    real, calls = shapovalov.Level.__post_init__, []

    def counted(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(shapovalov.Level, "__post_init__", counted)
    cfg = MasterConfig((F(0), F(1), F(3), F(7, 2)), (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7)), 3)
    system = gaudin_system(cfg)
    level = system.basis.level
    assert len(calls) == 1 and calls[0] is level
    assert level.raising == shapovalov.Level(level.den, level.nums, level.m).raising


def test_each_shape_is_built_once_and_each_config_clears_its_points_once(monkeypatch):
    # the compositions, their index, the raising moves and the kernel program depend on
    # (m, n) alone: two bases of other weights and a Gaudin system of one shape build one
    # Shape through the cache; the float view, the restriction, the basis and the
    # highest-vector eigenvalues read one integer view of z and one of the weights
    cleared = counted_builds(monkeypatch, MasterConfig, "integral_points")
    weighed = counted_builds(monkeypatch, MasterConfig, "integral_weights")
    clear, rows = exact.integer_row, []
    monkeypatch.setattr(exact, "integer_row", lambda values: rows.append(values) or clear(values))
    cfg = MasterConfig((F(0), F(1), F(3), F(7, 2)), (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7)), 3)
    shapovalov.shape.cache_clear()
    _, witnesses = count_real_by_spectrum(cfg)
    assert len(find_critical_points(cfg, witnesses)) == cfg.dim
    assert float(highest_vector_eigenvalue(cfg, 3)) == cfg.floats[2][3]
    hamiltonian_matrices(cfg)
    assert cleared == weighed == [cfg]
    assert len(rows) == 2 and rows.count(cfg.weights) == rows.count(cfg.z) == 1
    first = gram_on_multiplicity((F(-1, 2), F(-3, 4), F(-7, 5), F(5, 3)), 3)
    second = singular_basis((F(5, 2), F(-7, 10), F(1, 3), F(-9, 7)), 3)
    system = gaudin_system(cfg)
    assert shapovalov.shape.cache_info().misses == 1
    built = shapovalov.shape(cfg.m, cfg.n)
    assert second.level.shape is system.basis.level.shape is built
    assert built.compositions == shapovalov.compositions(3, 4) and first.size == cfg.dim


def test_gaudin_system_stores_integers_and_decodes_matrices_on_read():
    cfg = MasterConfig((F(0), F(1), F(3), F(7, 2)), (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7)), 2)
    system = gaudin_system(cfg)
    # no Fraction copy is built beside the integer forms
    assert "matrices" not in vars(system) and "vectors" not in vars(system.basis)
    again = gaudin_system(cfg)
    assert system == again and hash(system) == hash(again)
    assert gaudin_system(replace(cfg, z=(F(0), F(1), F(3), F(9, 2)))) != system
    assert gaudin_system(replace(cfg, weights=cfg.weights[:3] + (F(-32, 7),))) != system
    assert system.matrices is system.matrices
    assert system.basis.vectors is system.basis.vectors


DIM35 = MasterConfig(
    (F(0), F(1), F(3), F(7, 2), F(5)), (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7), F(-13, 9)), 4
)


def test_gaudin_system_passes_the_check_on_every_hamiltonian():
    # gaudin_system checks two relations and n - 2 Hamiltonians; the reference checks
    # all n, and the restriction equals the per-factor Hamiltonians' on the basis
    n2 = [MasterConfig((F(0), F(1)), (F(1, 2), F(1, 3)), m) for m in (1, 2, 5)]
    cfgs = census_configs(1, range(3)) + n2 + [DIM35]
    assert len(cfgs) == 37 and {(c.n, c.m) for c in cfgs} >= {(3, 4), (4, 3), (2, 5), (5, 4)}
    for cfg in cfgs:
        system = gaudin_system(cfg)
        check_every_hamiltonian(system)
        want = restricted_per_factor(cfg, system.basis)
        assert [[list(row) for row in mat] for mat in system.matrices] == want, cfg


def test_census_configs_rebuild_the_benchmark_rounds():
    # two census items of seed 1, round 0, as the benchmark's repro lines give them:
    # vermasig bethe --weights -11/5,-27/11,12/13 --z 4/3,-8,7 -m 1 ...
    # vermasig bethe --weights -17/10,8/5,19/13,-1/2 --z 2,2/3,-2,5/2 -m 3 ...
    cfgs = census_configs(1, [0])
    assert sorted((c.n, c.m) for c in cfgs) == sorted(
        [(3, m) for m in range(1, 5)] * 2 + [(4, m) for m in range(1, 4)]
    )
    assert cfgs[0] == MasterConfig((F(4, 3), -8, 7), (F(-11, 5), F(-27, 11), F(12, 13)), 1)
    assert cfgs[-1] == MasterConfig(
        (2, F(2, 3), -2, F(5, 2)), (F(-17, 10), F(8, 5), F(19, 13), F(-1, 2)), 3
    )


def test_gaudin_system_checks_n_minus_2_hamiltonians(monkeypatch):
    calls = {"commute": 0, "self_adjoint": 0, "relations": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        attr = f"_check_{name}"
        monkeypatch.setattr(bethe, attr, counted(name, getattr(bethe, attr)))
    lams = (F(-1, 2), F(-3, 4), F(-7, 5), F(23, 10), F(-13, 9))
    zs = (F(0), F(1), F(3), F(7, 2), F(5))
    # (commutators, self-adjointness checks) at n = 2..5: C(n - 2, 2) and n - 2
    for n, want in ((2, (0, 0)), (3, (0, 1)), (4, (1, 2)), (5, (3, 3))):
        for key in calls:
            calls[key] = 0
        gaudin_system(MasterConfig(zs[:n], lams[:n], 2))
        assert (calls["commute"], calls["self_adjoint"], calls["relations"]) == (*want, 1), n


def test_gaudin_level_structure_n2():
    cfg = MasterConfig((F(0), F(1)), (F(1, 2), F(1, 3)), 1)
    system = gaudin_system(cfg)
    assert all(len(mat) == 1 for mat in system.matrices)
    # the 1x1 Hamiltonian matches the eigenvalue formula at the unique point
    pts = find_critical_points(cfg, count_real_by_spectrum(cfg, seed=0)[1])
    mu = hamiltonian_eigenvalue(cfg, 0, pts[0].qpoly)
    assert abs(complex(system.matrices[0][0][0]) - mu) < 1e-9


def test_hamiltonians_match_per_factor_reference():
    rng = random.Random(20)
    for n in range(2, 6):
        for _ in range(3):
            cfg = random_config(rng, n=n)
            for level in range(4):
                assert hamiltonian_matrices(cfg, level=level) == hamiltonian_matrices_per_factor(
                    cfg, level
                )


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
    # the CI config, n = 5, m = 4 (dim 35), after ten random ones
    ci = MasterConfig(
        (F(0), F(1), F(3), F(7, 2), F(5)), (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7), F(-13, 9)), 4
    )
    for cfg in [random_config(rng, m_max=3) for _ in range(10)] + [ci]:
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
        for h in hamiltonian_matrices_per_factor(cfg, cfg.m)
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


def assert_same_points(batched, reference):
    """Same count and is_real sequence, Q within 1e-10 relative, every residual gated."""
    assert len(batched) == len(reference)
    assert [p.is_real for p in batched] == [p.is_real for p in reference]
    for p, q in zip(batched, reference):
        a, b = np.array(p.qpoly), np.array(q.qpoly)
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))
        assert p.residual <= bethe.RESIDUAL_TOL


def test_batched_points_match_per_witness_reference():
    # two configs per (n, m), n = 2..5, m = 1..4 (m <= 3 at n = 5); z unsorted with denominators
    rng = random.Random(77)
    for n, m in [(n, m) for n in range(2, 6) for m in range(1, 5) if (n, m) != (5, 4)] * 2:
        cfg = replace(random_config(rng, n=n, m_max=1), m=m)
        _, witnesses = count_real_by_spectrum(cfg, seed=n * 10 + m)
        batched = find_critical_points(cfg, witnesses)
        assert_same_points(batched, critical_points_per_witness(cfg, witnesses))
        assert len(batched) == cfg.dim, cfg


def test_batched_polish_matches_per_start_reference():
    # Heine-Stieltjes roots from perturbed joint tuples (a few Newton steps from
    # a point) and free complex starts (steps that stall, collide or diverge):
    # each row of the stack polishes bit for bit as the reference polishes it alone
    rng, starts_rng = random.Random(5), np.random.default_rng(5)
    for n, m in [(n, m) for n in (2, 3, 4) for m in (1, 2, 3, 4)]:
        cfg = replace(random_config(rng, n=n, m_max=1), m=m)
        _, witnesses = count_real_by_spectrum(cfg, seed=1)
        starts = [heine_stieltjes_roots(cfg, [mu * (1 + 1e-6) for mu in w.joint]) for w in witnesses]
        starts += list(4 * (starts_rng.standard_normal((10, m)) + 1j * starts_rng.standard_normal((10, m))))
        best, residual = bethe._polish(cfg, np.array(starts))
        for t, got, res in zip(starts, best, residual):
            want, want_res = bethe_reference._polish(cfg, t)
            assert np.array_equal(got, want) and res == want_res, (cfg, t)


def test_repeated_witness_gives_one_point_less():
    cfg = MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 2)
    _, witnesses = count_real_by_spectrum(cfg, seed=3)
    repeated = [witnesses[0], witnesses[0]] + witnesses[2:]
    points = find_critical_points(cfg, repeated)
    assert len(points) == cfg.dim - 1
    assert_same_points(points, critical_points_per_witness(cfg, repeated))


def test_polish_mask_stops_failed_rows_only(monkeypatch):
    # z_0 = 0, so an iterate t is dtz[..., 0] exactly.  Witness 1's Jacobian is
    # singular at its first iterate; witness 2's first Newton step lands t_0
    # exactly on z_0 = 0, so evaluating that row would divide by zero.
    # Perturbed joint tuples make every row need Newton steps to pass the gate.
    cfg = MasterConfig((F(0), F(1), F(3), F(7, 2)), (F(23, 10), F(17, 10), F(-2, 5), F(-31, 7)), 2)
    _, spectrum = count_real_by_spectrum(cfg, seed=1)
    witnesses = [replace(w, joint=tuple(mu * (1 + 1e-7) for mu in w.joint)) for w in spectrum]
    clean = find_critical_points(cfg, witnesses)
    assert len(clean) == cfg.dim
    singular, onto_z = (np.sort(heine_stieltjes_roots(cfg, witnesses[k].joint)) for k in (1, 2))

    def fault(t):
        for target, kind in ((singular, "singular"), (onto_z, "onto_z")):
            if np.max(np.abs(np.sort(t) - target)) < 1e-8:
                return kind
        return None

    def faulty_g(t, g):
        if fault(t) == "onto_z":
            g = np.zeros_like(g)
            g[0] = t[0]
        return g

    def faulty_jac(t, jac):
        kind = fault(t)
        if kind == "singular":
            return np.zeros_like(jac)
        return np.eye(len(t), dtype=complex) if kind == "onto_z" else jac

    system = bethe._bethe_system

    def batched_system(cfg, dtz, dtt):
        g, jac = system(cfg, dtz, dtt)
        for k, t in enumerate(dtz[:, :, 0]):
            g[k], jac[k] = faulty_g(t, g[k]), faulty_jac(t, jac[k])
        return g, jac

    equations, jacobian = bethe_reference._bethe_equations, bethe_reference._bethe_jacobian
    monkeypatch.setattr(bethe, "_bethe_system", batched_system)
    monkeypatch.setattr(bethe_reference, "_bethe_equations", lambda cfg, t: faulty_g(t, equations(cfg, t)))
    monkeypatch.setattr(bethe_reference, "_bethe_jacobian", lambda cfg, t: faulty_jac(t, jacobian(cfg, t)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = find_critical_points(cfg, witnesses)
        reference = critical_points_per_witness(cfg, witnesses)
    assert_same_points(points, reference)
    # both faulted rows keep their unpolished iterates, which fail the gate: witness 1's
    # is off by the perturbation, and witness 2's faulted residual is |t_0|
    assert len(points) == cfg.dim - 2
    # the other witnesses polish as without the faults, bit for bit
    for k in (0, 3, 4, 5):
        assert clean[k] in points


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


def test_highest_vector_eigenvalue_rejects_a_factor_outside_0_to_n():
    cfg = MasterConfig((F(0), F(1), F(3)), (F(-1, 2), F(-3, 4), F(-7, 5)), 2)
    assert highest_vector_eigenvalue(cfg, 2) == F(91, 240)
    # -1 would read the last factor's eigenvalue, 3 and 1.5 would fail on the list index
    for i in (-1, 3, 1.5):
        with pytest.raises(DomainError):
            highest_vector_eigenvalue(cfg, i)


def test_spectrum_count_rejects_a_seed_that_cannot_be_replayed():
    cfg = MasterConfig((F(0), F(1), F(3)), (F(-1, 2), F(-3, 4), F(-7, 5)), 2)
    # None would draw from OS entropy, 1.5 would be hashed
    for seed in (None, 1.5):
        with pytest.raises(DomainError):
            count_real_by_spectrum(cfg, seed=seed)
        with pytest.raises(DomainError):
            bound_check(cfg, seed=seed)


def test_degenerate_spectrum_takes_every_retry_then_raises(monkeypatch):
    cfg = MasterConfig((F(0), F(1), F(3)), (F(-1, 2), F(-3, 4), F(-7, 5)), 2)
    draws, real_eig = [], np.linalg.eig

    def doubled(mat):
        draws.append(np.array(mat))
        evals, evecs = real_eig(mat)
        evals[1] = evals[0]
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eig", doubled)
    with pytest.raises(RuntimeError, match="stayed degenerate") as error:
        count_real_by_spectrum(cfg, seed=5)
    # a fresh combination per draw, and the config and the last gap in the message
    assert len(draws) == bethe.SPECTRUM_RETRIES
    assert len({d.tobytes() for d in draws}) == bethe.SPECTRUM_RETRIES
    assert f"config {cfg}" in str(error.value) and "(last gap 0.0)" in str(error.value)


def test_float_view_is_built_once_and_read_only():
    cfg = MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 2)
    z, lam, c = cfg.floats
    assert cfg.floats is cfg.floats
    assert z.tolist() == [0.0, 1.0, 3.0]
    assert lam.tolist() == [2.3, 1.7, -0.4]
    assert c.tolist() == [float(highest_vector_eigenvalue(cfg, k)) for k in range(cfg.n)]
    for arr in cfg.floats:
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_find_critical_points_converts_no_fractions(monkeypatch):
    cfg = MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 2)
    _, witnesses = count_real_by_spectrum(cfg, seed=0)
    calls = []
    original = F.__float__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(F, "__float__", counting)
    # the counter sees the view's own conversions: z and weights, once each; c is
    # divided on integers, and bit for bit the float of the Fraction eigenvalue
    cfg.floats
    assert len(calls) == 2 * cfg.n
    calls.clear()
    assert cfg.floats[2].tolist() == [original(highest_vector_eigenvalue(cfg, k)) for k in range(cfg.n)]
    points = find_critical_points(cfg, witnesses)
    assert len(points) == cfg.dim
    assert calls == []


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
    for depth in (-1, 1.5):  # -1 checked no level and returned True
        with pytest.raises(DomainError):
            zy_commutator_check(cfg2, F(7, 3), F(-5, 2), depth)


def test_zy_commutator_check_fails_for_a_wrong_z(monkeypatch):
    # Z(t) without the last factor's term: [Z(t_a), Y(t_b)] then misses the
    # F_n part of 2/(t_a-t_b) (Y(t_a) - Y(t_b)), already on the moves into level 1
    def z_without_last(cfg, t, comp):
        return sum((cfg.weights[i] - 2 * comp[i]) / (t - cfg.z[i]) for i in range(cfg.n - 1))

    cfg = MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 1)
    assert zy_commutator_check(cfg, F(9, 2), F(-13, 7), 2)
    monkeypatch.setattr(bethe, "_z_value", z_without_last)
    assert not zy_commutator_check(cfg, F(9, 2), F(-13, 7), 2)


def test_a_wrong_move_fails_the_zy_check_and_the_bethe_vector(monkeypatch):
    # the last move of level 2 names the next factor, at the same k and row: the
    # Z/Y check and the Bethe vector read the move table the raising operator reads
    def wrong_shape(m, n):
        grid = shape(m, n)
        if m != 2:
            return grid
        *rows, last = grid.moves
        (r, s), *rest = last
        return replace(grid, moves=(*rows, ((r, (s + m) % (n * m)), *rest)))

    shape = shapovalov.shape
    cfg = MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 2)
    t = [0.5 + 0.5j, -1.5 + 0.25j]
    assert zy_commutator_check(cfg, F(9, 2), F(-13, 7), 1)
    assert np.allclose(bethe_vector(cfg, t), bethe_vector_closed_form(cfg, t), rtol=0, atol=1e-12)
    monkeypatch.setattr(bethe.shapovalov, "shape", wrong_shape)
    assert not zy_commutator_check(cfg, F(9, 2), F(-13, 7), 1)
    assert not np.allclose(bethe_vector(cfg, t), bethe_vector_closed_form(cfg, t))
