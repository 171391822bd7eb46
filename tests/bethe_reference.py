"""References used only by the tests, independent of the code they check.

Nothing numeric is shared with ``vermasig.bethe``: the Bethe equations, their
Jacobian, the Newton polish and the realness test are this module's own
copies, so the two pipelines polish and classify points independently.

``critical_points_per_witness`` is the critical-point step one witness at a
time: a Heine-Stieltjes least-squares solve, ``np.roots``, this module's
polish and ``np.poly`` per witness, then the same greedy duplicate test as the
library's batched pass.

``bethe_vector_closed_form`` expands a Bethe vector as an exponential-time
assignment sum.  ``hamiltonian_matrices_per_factor`` builds each Gaudin
Hamiltonian H_i on its own in Fractions, with every Casimir Omega_ij built
again for H_j; it is the reference for both ``gaudin_system`` and
``hamiltonian_matrices``, which share the library's integer images.
``check_every_hamiltonian`` is the exact check ``gaudin_system`` once ran on all
n Hamiltonians: commutation on every pair, self-adjointness on each; the library
now checks two linear relations and n - 2 Hamiltonians.  ``census_configs``
rebuilds the configs of the benchmark's census rounds.
``hamiltonian_eigenvalue`` is the joint eigenvalue a critical polynomial
predicts, and ``raising_residual`` measures a Bethe vector against the
Fraction raising matrix.  ``search_critical_points`` finds critical points by a
numeric search that takes no input from the Gaudin spectrum: multistart
guarded Newton, then weight continuation from the all-negative chamber
retried over several detour scales, then more multistart.  The acceptance
criteria compare spectrum counting against it.
"""

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

import numpy as np

from vermasig.bethe import POLISH_ROUNDS, REAL_TOL, RESIDUAL_TOL, CriticalPoint, MasterConfig
from vermasig.shapovalov import compositions
from vermasig.sigchar import is_generic

import fraction_reference
from closed_form_reference import lex_compositions


def _bethe_equations(cfg: MasterConfig, t: np.ndarray, lam: np.ndarray | None = None) -> np.ndarray:
    """sum_{j != i} 2/(t_i - t_j) - sum_k lam_k/(t_i - z_k); lam defaults to cfg's."""
    z = cfg.floats[0]
    lam = cfg.floats[1] if lam is None else lam
    dtz = t[:, None] - z[None, :]
    g = -np.sum(lam[None, :] / dtz, axis=1)
    if len(t) > 1:
        dtt = t[:, None] - t[None, :]
        np.fill_diagonal(dtt, 1.0)
        inv = 2.0 / dtt
        np.fill_diagonal(inv, 0.0)
        g = g + np.sum(inv, axis=1)
    return g


def _bethe_jacobian(cfg: MasterConfig, t: np.ndarray, lam: np.ndarray | None = None) -> np.ndarray:
    z = cfg.floats[0]
    lam = cfg.floats[1] if lam is None else lam
    m = len(t)
    dtz = t[:, None] - z[None, :]
    jac = np.zeros((m, m), dtype=complex)
    if m > 1:
        dtt = t[:, None] - t[None, :]
        np.fill_diagonal(dtt, 1.0)
        off = 2.0 / dtt**2
        np.fill_diagonal(off, 0.0)
        jac += off
        np.fill_diagonal(jac, -np.sum(off, axis=1))
    jac[np.diag_indices(m)] += np.sum(lam[None, :] / dtz**2, axis=1)
    return jac


def _is_real_poly(coeffs: np.ndarray, tol: float) -> bool:
    """Every coefficient has |imag| <= tol (1 + |coefficient|)."""
    return bool(np.all(np.abs(coeffs.imag) <= tol * (1.0 + np.abs(coeffs))))


def _too_close(cfg: MasterConfig, t: np.ndarray) -> bool:
    """Some t_i sits on a z_k or on another t_j, relative to the tuple's size."""
    scale = 1.0 + float(np.max(np.abs(t)))
    z = cfg.floats[0]
    if np.min(np.abs(t[:, None] - z[None, :])) < 1e-13 * scale:
        return True
    if cfg.m > 1:
        dtt = np.abs(t[:, None] - t[None, :]) + np.eye(cfg.m)
        if np.min(dtt) < 1e-13 * scale:
            return True
    return False


def _polish(cfg: MasterConfig, t: np.ndarray, rounds: int = POLISH_ROUNDS) -> tuple[np.ndarray, float]:
    """Plain Newton at cfg's weights, keeping the iterate of least residual."""
    best, best_res = t, float(np.max(np.abs(_bethe_equations(cfg, t))))
    for _ in range(rounds):
        try:
            step = np.linalg.solve(_bethe_jacobian(cfg, t), -_bethe_equations(cfg, t))
        except np.linalg.LinAlgError:
            break
        t = t + step
        if not np.all(np.isfinite(t)) or _too_close(cfg, t):
            break
        res = float(np.max(np.abs(_bethe_equations(cfg, t))))
        if res >= best_res:
            break
        best, best_res = t, res
    return best, best_res


def heine_stieltjes_roots(cfg: MasterConfig, joint) -> np.ndarray:
    """Unpolished roots of Q from one joint eigenvalue tuple: R from the tuple, then
    P0 Q'' - P1 Q' + R Q = 0 solved for Q's lower coefficients by least squares."""
    n, m = cfg.n, cfg.m
    z, lam, c = cfg.floats
    # coefficients lowest degree first; cofactors[k] = P0/(x - z_k)
    p0 = np.poly(z)[::-1]
    cofactors = np.array([np.poly(np.delete(z, k))[::-1] for k in range(n)])
    p1 = lam @ cofactors
    r = ((c - np.array(joint)) @ cofactors)[:-1]
    r[-1] = m * lam.sum() - m * (m - 1)
    # column j holds P0 (x^j)'' - P1 (x^j)' + R x^j
    op = np.zeros((n + m - 1, m + 1), dtype=complex)
    for j in range(m + 1):
        for poly, shift, factor in ((p0, 2, j * (j - 1)), (p1, 1, -j), (r, 0, 1)):
            if j >= shift:
                op[j - shift : j - shift + len(poly), j] += factor * poly
    lower = np.linalg.lstsq(op[:, :m], -op[:, m], rcond=None)[0]
    return np.roots(np.concatenate(([1.0], lower[::-1])))


def critical_points_per_witness(cfg: MasterConfig, witnesses) -> list[CriticalPoint]:
    """One witness at a time: roots, polish, residual gate, then the greedy duplicate
    test against the points already kept."""
    points: list[CriticalPoint] = []
    for witness in witnesses:
        t, residual = _polish(cfg, heine_stieltjes_roots(cfg, witness.joint))
        if not residual <= RESIDUAL_TOL:
            continue
        qpoly = np.atleast_1d(np.poly(t))
        scale = 1e-6 * (1.0 + np.max(np.abs(qpoly)))
        if any(np.max(np.abs(qpoly - np.array(p.qpoly))) < scale for p in points):
            continue
        points.append(CriticalPoint(tuple(qpoly.tolist()), residual, _is_real_poly(qpoly, REAL_TOL)))
    return points


def bethe_vector_closed_form(cfg, t):
    """b_Q from the assignment-sum expansion: the coefficient of the basis
    vector with multiplicities (a_1, ..., a_n) is
    sum over maps sigma (with |sigma^{-1}(i)| = a_i) of prod_j 1/(t_j - z_{sigma(j)})."""
    n, m = cfg.n, cfg.m
    z = [complex(v) for v in cfg.z]
    tv = [complex(x) for x in t]
    comps = compositions(m, n)
    out = np.zeros(len(comps), dtype=complex)
    for idx, comp in enumerate(comps):
        total = 0.0 + 0.0j
        for word in itertools.product(range(n), repeat=m):
            counts = [0] * n
            for w in word:
                counts[w] += 1
            if tuple(counts) != comp:
                continue
            prod = 1.0 + 0.0j
            for j, w in enumerate(word):
                prod /= tv[j] - z[w]
            total += prod
        out[idx] = total
    return out


def hamiltonian_matrices_per_factor(cfg: MasterConfig, level: int) -> list[list[list[Fraction]]]:
    """H_i = sum_{j != i} (E_i F_j + F_i E_j + H_i H_j / 2)/(z_i - z_j), one i at a
    time, on the level's composition basis (the library builds each pair once)."""
    n = cfg.n
    comps = compositions(level, n)
    index = {c: r for r, c in enumerate(comps)}
    lam, z = cfg.weights, cfg.z
    mats = []
    for i in range(n):
        mat = [[Fraction(0)] * len(comps) for _ in comps]
        for c, comp in enumerate(comps):
            for j in range(n):
                if j == i:
                    continue
                w = 1 / (z[i] - z[j])
                # E_i F_j, then F_i E_j: one unit moves from factor a to factor b
                for a, b in ((i, j), (j, i)):
                    k = comp[a]
                    if k > 0:
                        target = list(comp)
                        target[a] -= 1
                        target[b] += 1
                        mat[index[tuple(target)]][c] += w * k * (lam[a] - k + 1)
                mat[c][c] += w * (lam[i] - 2 * comp[i]) * (lam[j] - 2 * comp[j]) / 2
        mats.append(mat)
    return mats


def check_every_hamiltonian(system) -> None:
    """Assert, on the stored integers, that the restricted R_i commute pairwise over all
    C(n, 2) pairs and that each of the n is self-adjoint for the induced form.

    R_i = Dz S^-1 V_i / L with S = diag(s_f), so R_a R_b = R_b R_a iff V_a Sigma V_b is
    symmetric in a, b, Sigma = diag(lcm(s) / s_f).  The Gram matrix of the v_f is
    G[f][h] / (s_f s_h D^m), with G the pairing of the integer kernel vectors through
    D^m times the reference norms, so (v_f, H_i v_g) is symmetric iff G Sigma V_i^T is.
    Products are numpy object arrays of Python ints, so they stay exact.
    """
    basis = system.basis
    scales = [s for s, _ in basis.integral_vectors]
    big = math.lcm(*scales)
    sigma = np.array([big // s for s in scales], dtype=object)
    mats = [np.array(v, dtype=object).reshape(len(scales), len(scales)) for v in system.integral_matrices[2]]
    for a, b in itertools.combinations(mats, 2):
        assert ((a * sigma) @ b == (b * sigma) @ a).all()
    d = basis.level.den ** basis.level.m
    norms = [d * x for x in fraction_reference.weight_space_norms(basis.lams, basis.level.shape.compositions)]
    assert all(x.denominator == 1 for x in norms)
    kernel = np.array([u for _, u in basis.integral_vectors], dtype=object)
    gram = (kernel * np.array([int(x) for x in norms], dtype=object)) @ kernel.T
    for v in mats:
        pair = (gram * sigma) @ v.T
        assert (pair == pair.T).all()


def restricted_per_factor(cfg: MasterConfig, basis) -> list[list[list[Fraction]]]:
    """R_i with H_i v_f = sum_g R_i[f][g] v_g, from hamiltonian_matrices_per_factor on the
    integer kernel vectors u_f = s_f v_f; asserts that each H_i u_f lies in their span."""
    kernel = basis.integral_vectors
    big = math.lcm(*[s for s, _ in kernel])
    out = []
    for mat in hamiltonian_matrices_per_factor(cfg, cfg.m):
        den = math.lcm(*[x.denominator for row in mat for x in row])
        columns = [[(r, int(x * den)) for r, x in enumerate(col) if x] for col in zip(*mat)]
        rows = []
        for s, u in kernel:
            image = [0] * len(u)  # den H_i u_f
            for x, column in zip(u, columns):
                if x:
                    for r, e in column:
                        image[r] += e * x
            coords = [image[c] for c in basis.free_columns]
            # v_g is 1 at free column g and 0 at the others: den H_i u_f =
            # sum_g coords[g] v_g, here times lcm(s)
            span = [0] * len(u)
            for y, (sg, ug) in zip(coords, kernel):
                span = [a + y * (big // sg) * b for a, b in zip(span, ug)]
            assert span == [big * x for x in image]
            rows.append([Fraction(y, den * s) for y in coords])
        out.append(rows)
    return out


def census_configs(seed: int, rounds) -> list[MasterConfig]:
    """The configs of the census rounds of ``perfbench/workloads.py`` for one seed: the
    same random stream and draws, rebuilt here so the tests import nothing from perfbench."""
    out = []
    for k in rounds:
        rng = random.Random(f"census:{seed}:{k}")
        for n, m in [(3, m) for m in range(1, 5)] * 2 + [(4, m) for m in range(1, 4)]:
            while True:
                lams = [Fraction(rng.randint(-30, 30), rng.choice((7, 10, 11, 13))) for _ in range(n)]
                if all(is_generic(x) for x in lams) and is_generic(sum(lams)):
                    break
            zs: list[Fraction] = []
            while len(zs) < n:
                c = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3)))
                if c not in zs:
                    zs.append(c)
            rng.randrange(10**6)  # the item's --seed
            out.append(MasterConfig(tuple(zs), tuple(lams), m))
    return out


def hamiltonian_eigenvalue(cfg: MasterConfig, i: int, qpoly: Sequence[complex]) -> complex:
    """Joint eigenvalue of H_i on the Bethe line of a critical polynomial Q."""
    z, lam, c = cfg.floats
    q = np.array(qpoly, dtype=complex)
    value = -lam[i] * np.polyval(np.polyder(q), z[i]) / np.polyval(q, z[i]) + c[i]
    return complex(value)


def raising_residual(cfg: MasterConfig, vec: np.ndarray) -> float:
    """|E b| / |b| for a level-m coefficient vector (zero at critical points)."""
    src, dst = compositions(cfg.m, cfg.n), compositions(cfg.m - 1, cfg.n)
    mat = np.array(fraction_reference.raising_matrix(cfg.weights, src, dst), dtype=float)
    return float(np.linalg.norm(mat @ vec) / np.linalg.norm(vec))


def _escape_radius(cfg: MasterConfig) -> float:
    zs = [abs(float(v)) for v in cfg.z]
    return 1e4 * (1.0 + max(zs))


def _newton(
    cfg: MasterConfig,
    start: np.ndarray,
    tol: float,
    iters: int = 120,
    lam: np.ndarray | None = None,
) -> np.ndarray | None:
    # Guarded Newton: undamped steps flow to infinity (the equations vanish
    # there), so a step is only accepted if it shrinks the residual; diverging
    # iterates are additionally cut off far beyond where genuine critical
    # points of fixed data can live.
    radius = _escape_radius(cfg)
    t = start.astype(complex)
    if _too_close(cfg, t):
        return None
    g = _bethe_equations(cfg, t, lam)
    res = float(np.max(np.abs(g)))
    for _ in range(iters):
        if not np.isfinite(res):
            return None
        if res < tol:
            return t
        if np.max(np.abs(t)) > radius:
            return None
        try:
            step = np.linalg.solve(_bethe_jacobian(cfg, t, lam), -g)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        alpha = 1.0
        for _ in range(30):
            t_new = t + alpha * step
            if not _too_close(cfg, t_new):
                g_new = _bethe_equations(cfg, t_new, lam)
                res_new = float(np.max(np.abs(g_new)))
                if np.isfinite(res_new) and res_new < res * (1.0 - 0.25 * alpha):
                    break
            alpha *= 0.5
        else:
            return None
        t, g, res = t_new, g_new, res_new
    return None


def _starts(cfg: MasterConfig, rng: np.random.Generator):
    """Endless stream of Newton starts mixing three templates.

    Real iterates stay real, so each solution flavor gets its own template:
    purely real gap-occupancy starts for all-real-root points (occupancy
    patterns of the bounded gaps biject with the generic point count),
    conjugate-pair starts for real polynomials with complex roots, and free
    complex clouds for the rest.
    """
    m = cfg.m
    zs = sorted(float(v) for v in cfg.z)
    spread = max(zs[-1] - zs[0], 1.0)
    lo, hi = zs[0] - 0.8 * spread, zs[-1] + 0.8 * spread
    center = 0.5 * (zs[0] + zs[-1])
    gaps = [(zs[i], zs[i + 1]) for i in range(len(zs) - 1)]
    gaps += [(lo, zs[0]), (zs[-1], hi)]

    def fill_gap(gap: tuple[float, float], count: int) -> list[float]:
        a, b = gap
        return [
            a + (b - a) * (i + 0.5 + 0.35 * rng.uniform(-1, 1)) / count
            for i in range(count)
        ]

    occupancies = list(lex_compositions(m, len(gaps)))
    pair_splits = [(m - 2 * c, c) for c in range(1, m // 2 + 1)]
    while True:
        for occ in occupancies:
            t = []
            for gap, count in zip(gaps, occ):
                if count:
                    t.extend(fill_gap(gap, count))
            yield np.array(t, dtype=complex)
        for r, c in pair_splits:
            t = [rng.uniform(lo, hi) + 0j for _ in range(r)]
            for _ in range(c):
                x = rng.uniform(lo, hi)
                y = rng.uniform(0.1, 1.2) * spread
                t.extend([x + 1j * y, x - 1j * y])
            yield np.array(t, dtype=complex)
        for scale in (0.5, 1.5, 4.0):
            yield center + scale * spread * (
                rng.standard_normal(m) + 1j * rng.standard_normal(m)
            )


# criterion 5 and the spectral comparison in test_bethe.py search the same
# instances; sharing the results keeps the suite's wall time down (callers
# must not mutate the returned list)
@functools.lru_cache(maxsize=None)
def search_critical_points(
    cfg: MasterConfig,
    attempts: int | None = None,
    tol: float = 1e-10,
    seed: int = 0,
    real_tol: float = 1e-7,
) -> list[CriticalPoint]:
    """Find all critical points, deduplicated by the polynomial Q.

    Two phases.  Multistart guarded Newton runs first; if it has not
    exhausted the known count dim = binom(m+n-2, n-2) within its attempt
    budget, a continuation phase shifts every positive weight down by an even
    integer (where all critical points are real, one per occupancy pattern of
    the bounded gaps between the z's) and tracks each point back to the
    requested weights along a complex-detour path.  Finding fewer than dim
    points is reported by the shorter list, not an exception.
    """
    cfg.require_generic()
    budget = 200 * cfg.dim if attempts is None else attempts
    rng = np.random.default_rng(seed)
    points: list[CriticalPoint] = []

    def record(t: np.ndarray) -> None:
        t, residual = _polish(cfg, t)
        if residual > tol:
            return
        qpoly = np.atleast_1d(np.poly(t))
        for p in points:
            if np.max(np.abs(qpoly - np.array(p.qpoly))) < 1e-6 * (1.0 + np.max(np.abs(qpoly))):
                return
        points.append(
            CriticalPoint(tuple(qpoly.tolist()), residual, _is_real_poly(qpoly, real_tol))
        )
        # the data are real, so the conjugate tuple is a critical point too
        record(np.conj(t))

    first_pass = min(budget, 40 * cfg.dim)
    for start in itertools.islice(_starts(cfg, rng), first_pass):
        t = _newton(cfg, start, tol)
        if t is not None:
            record(t)
        if len(points) == cfg.dim:
            return points

    # which detour geometry keeps every track separated is instance-specific,
    # so retry rounds vary the scale until the count is exhausted
    for detour_scale in (1.0, 0.5, 2.0, 1.5, 3.0, 0.75, 2.5, 1.25):
        for t in _continuation_points(cfg, tol, rng, detour_scale):
            record(t)
        if len(points) == cfg.dim:
            return points

    for start in itertools.islice(_starts(cfg, rng), budget - first_pass):
        t = _newton(cfg, start, tol)
        if t is not None:
            record(t)
        if len(points) == cfg.dim:
            break
    return points


def _all_negative_points(
    cfg: MasterConfig, lam: np.ndarray, tol: float, rng: np.random.Generator
) -> list[np.ndarray]:
    """All critical points for strictly negative weights: the master function
    vanishes on the boundary of every bounded cell of the real arrangement,
    so each occupancy of the n-1 bounded gaps holds exactly one (real) point.

    Weights of small magnitude push the cell maximum into a thin boundary
    layer where mid-gap Newton basins are tiny, so the occupancy system is
    first solved with every weight lowered by 2 and each point is then
    tracked back along a real path; inside the all-negative chamber the
    points stay in their cells, so the real path is degeneration-free.
    """
    zs = sorted(float(v) for v in cfg.z)
    gaps = [(zs[i], zs[i + 1]) for i in range(len(zs) - 1)]
    lam_base = lam - 2.0
    found: list[np.ndarray] = []
    for occ in lex_compositions(cfg.m, len(gaps)):
        for attempt in range(20):
            start = []
            for (a, b), count in zip(gaps, occ):
                width = b - a
                for i in range(count):
                    u = (i + 1) / (count + 1) + (0.3 / (count + 1)) * rng.uniform(-1, 1)
                    start.append(a + width * u)
            t = _newton(cfg, np.array(start, dtype=complex), tol, lam=lam_base)
            if t is not None and np.max(np.abs(t.imag)) < 1e-6:
                t = _track_path(cfg, t, lambda s: lam_base + s * (lam - lam_base), tol)
                if t is not None:
                    found.append(t)
                    break
    deduped: list[np.ndarray] = []
    for t in found:
        q = np.poly(t)
        if all(
            np.max(np.abs(q - np.poly(s))) > 1e-6 * (1.0 + np.max(np.abs(q)))
            for s in deduped
        ):
            deduped.append(t)
    return deduped


def _track_path(cfg: MasterConfig, t: np.ndarray, lam_at, tol: float) -> np.ndarray | None:
    """Follow one critical point along a weight path lam_at: [0, 1] -> C^n.

    Adaptive stepping; a Newton correction jumping further than the step size
    warrants is treated as a basin hop and retried shorter.  Returns None for
    tracks that cannot be continued.
    """
    s, ds = 0.0, 1.0 / 8.0
    while s < 1.0:
        target = min(1.0, s + ds)
        t_next = _newton(cfg, t, max(tol, 1e-12), iters=60, lam=lam_at(target))
        hop = t_next is not None and float(np.max(np.abs(t_next - t))) > max(
            0.5, 60.0 * ds
        ) * (1.0 + float(np.max(np.abs(t))))
        if t_next is None or hop:
            ds *= 0.5
            if ds < 1.0 / 4096.0:
                return None
        else:
            t, s = t_next, target
            ds = min(ds * 1.5, 1.0 / 8.0)
    return t


def _continuation_points(
    cfg: MasterConfig, tol: float, rng: np.random.Generator, detour_scale: float = 1.0
) -> list[np.ndarray]:
    """Track critical points from the all-negative weight chamber to cfg.weights.

    The path interpolates the even-integer weight shift and takes an
    imaginary detour (vanishing at both ends) so it stays away from the real
    weight values where Bethe roots degenerate.  A step whose Newton
    correction jumps further than the step size warrants is treated as a
    basin hop and retried shorter; tracks that cannot be continued are
    dropped.
    """
    lam_end = cfg.floats[1]
    shift = np.array([2 * max(0, math.ceil(w)) for w in cfg.weights], dtype=float)
    lam_start = lam_end - shift
    tracks = _all_negative_points(cfg, lam_start.astype(complex), tol, rng)
    if not np.any(shift):
        return tracks
    detour = rng.standard_normal(cfg.n)
    detour *= (
        detour_scale
        * max(1.0, float(np.max(np.abs(shift))))
        / max(np.max(np.abs(detour)), 1e-9)
    )

    def lam_at(s: float) -> np.ndarray:
        return lam_start + s * shift + 1j * math.sin(math.pi * s) * detour

    finished = []
    for t in tracks:
        t_end = _track_path(cfg, t, lam_at, tol)
        if t_end is None:
            continue
        t_final = _newton(cfg, t_end, tol, iters=60)
        if t_final is not None:
            finished.append(t_final)
    return finished
