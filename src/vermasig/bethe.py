"""Master function critical points, Gaudin Hamiltonians, and Bethe vectors.

The master function prod_{i<j}(t_i-t_j)^2 * prod_{i,k}|t_i-z_k|^{-lam_k} has
critical points given by the rational system

    sum_{j != i} 2/(t_i - t_j) = sum_k lam_k/(t_i - z_k),

which we solve by multistart Newton iteration over the complex numbers.  Each
critical point, encoded by the monic polynomial Q with the t_i as roots, spans
a joint eigenspace of the commuting Gaudin Hamiltonians on the level-m
multiplicity space, and the point is real (Q has real coefficients) exactly
when its joint eigenvalue tuple is real.  Counting real joint eigenvalues of
the exactly-constructed Hamiltonians is therefore an independent, search-free
route to the number of real critical points, and the multiplicity-space
signature from character peeling bounds that number from below.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import exact
from .sigchar import (
    DomainError,
    InvariantError,
    RationalLike,
    ensure_generic,
    fractionize,
    peel_decompose,
)
from .shapovalov import (
    GramMatrix,
    Matrix,
    SingularBasis,
    _gram_on_basis,
    compositions,
    express_in_basis,
    lex_compositions,
    raising_matrix,
    singular_basis,
)


class FalsificationError(RuntimeError):
    """A proved inequality failed numerically; carries full reproduction data."""


@dataclass(frozen=True)
class MasterConfig:
    """Evaluation points z, weights, and the number m of moving coordinates.

    The master function itself is defined for arbitrary real weights, so only
    exactness and distinctness are checked here; operations that rely on the
    multiplicity-space structure (Gaudin systems, point counting, the bound)
    require a generic tuple and check it themselves.
    """

    z: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]
    m: int

    def __post_init__(self):
        z = tuple(fractionize(v) for v in self.z)
        weights = tuple(fractionize(w) for w in self.weights)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "weights", weights)
        if len(z) != len(weights):
            raise DomainError("z and weights must have equal length")
        if len(z) < 2:
            raise DomainError("need at least two points")
        if len(set(z)) != len(z):
            raise DomainError("z values must be pairwise distinct")
        if self.m < 1:
            raise DomainError("m must be positive")

    def require_generic(self) -> None:
        for w in self.weights:
            ensure_generic(w)
        ensure_generic(sum(self.weights))

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def dim(self) -> int:
        return math.comb(self.m + self.n - 2, self.n - 2)


def _check_arrangement(cfg: MasterConfig, t: Sequence[complex], eps: float = 1e-12) -> None:
    tv = [complex(x) for x in t]
    if len(tv) != cfg.m:
        raise DomainError(f"expected {cfg.m} coordinates, got {len(tv)}")
    for i, ti in enumerate(tv):
        for zk in cfg.z:
            if abs(ti - complex(zk)) <= eps:
                raise DomainError(f"t[{i}] collides with z = {zk}")
        for j in range(i + 1, len(tv)):
            if abs(ti - tv[j]) <= eps:
                raise DomainError(f"t[{i}] collides with t[{j}]")


def master_value(cfg: MasterConfig, t: Sequence[float]) -> float:
    """Value of the master function at a real tuple t off the arrangement."""
    _check_arrangement(cfg, t)
    tv = [complex(x) for x in t]
    if any(abs(x.imag) > 1e-12 for x in tv):
        raise DomainError("master_value is real-valued; pass a real tuple")
    ts = [x.real for x in tv]
    value = 1.0
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            value *= (ts[i] - ts[j]) ** 2
    for ti in ts:
        for zk, lam in zip(cfg.z, cfg.weights):
            value *= abs(ti - float(zk)) ** float(-lam)
    return value


def bethe_residual(cfg: MasterConfig, t: Sequence[complex]) -> float:
    """max_i |sum_{j != i} 2/(t_i-t_j) - sum_k lam_k/(t_i-z_k)|."""
    _check_arrangement(cfg, t)
    tv = np.asarray([complex(x) for x in t])
    return float(np.max(np.abs(_bethe_equations(cfg, tv))))


def _z_array(cfg: MasterConfig) -> np.ndarray:
    return np.array([complex(v) for v in cfg.z])


def _lam_array(cfg: MasterConfig) -> np.ndarray:
    return np.array([float(w) for w in cfg.weights])


def _bethe_equations(cfg: MasterConfig, t: np.ndarray, lam: np.ndarray | None = None) -> np.ndarray:
    z = _z_array(cfg)
    lam = _lam_array(cfg) if lam is None else lam
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
    z = _z_array(cfg)
    lam = _lam_array(cfg) if lam is None else lam
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


@dataclass(frozen=True)
class CriticalPoint:
    """Monic Q(x) = prod(x - t_i) as coefficients, highest degree first."""

    qpoly: tuple[complex, ...]
    residual: float
    is_real: bool

    @property
    def roots(self) -> np.ndarray:
        return np.roots(np.array(self.qpoly))


def _is_real_poly(coeffs: np.ndarray, tol: float) -> bool:
    return bool(np.all(np.abs(coeffs.imag) < tol * (1.0 + np.abs(coeffs))))


def _escape_radius(cfg: MasterConfig) -> float:
    zs = [abs(float(v)) for v in cfg.z]
    return 1e4 * (1.0 + max(zs))


def _too_close(cfg: MasterConfig, t: np.ndarray) -> bool:
    scale = 1.0 + float(np.max(np.abs(t)))
    z = np.array([complex(v) for v in cfg.z])
    if np.min(np.abs(t[:, None] - z[None, :])) < 1e-13 * scale:
        return True
    if cfg.m > 1:
        dtt = np.abs(t[:, None] - t[None, :]) + np.eye(cfg.m)
        if np.min(dtt) < 1e-13 * scale:
            return True
    return False


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


def find_critical_points(
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
    lam_end = _lam_array(cfg)
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


def _polish(cfg: MasterConfig, t: np.ndarray, rounds: int = 4) -> tuple[np.ndarray, float]:
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


# ---------------------------------------------------------------------------
# Gaudin Hamiltonians
# ---------------------------------------------------------------------------


def hamiltonian_matrices(cfg: MasterConfig, level: int | None = None) -> list[Matrix]:
    """Exact matrices of the n Gaudin Hamiltonians on a weight space.

    H_i = sum_{j != i} (E_i F_j + F_i E_j + H_i H_j / 2)/(z_i - z_j), acting on
    the composition basis F^{k_1}v_1 x ... x F^{k_n}v_n of the given level
    (default: cfg.m).
    """
    n, m = cfg.n, cfg.m if level is None else level
    comps = compositions(m, n)
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


@dataclass(frozen=True)
class GaudinSystem:
    """Hamiltonians restricted to the multiplicity space, with its Gram matrix."""

    config: MasterConfig
    basis: SingularBasis
    matrices: tuple[tuple[tuple[Fraction, ...], ...], ...]
    gram: GramMatrix

    def float_matrices(self) -> list[np.ndarray]:
        return [np.array([[float(v) for v in row] for row in mat]) for mat in self.matrices]


def gaudin_system(cfg: MasterConfig) -> GaudinSystem:
    """Restrict the Hamiltonians to the singular vectors and check them exactly.

    Exact checks: the restriction exists (the subspace is invariant), the
    restricted matrices commute pairwise, and each is self-adjoint for the
    induced Gram matrix.
    """
    cfg.require_generic()
    basis = singular_basis(cfg.weights, cfg.m)
    gram = _gram_on_basis(basis)
    restricted = []
    for mat in hamiltonian_matrices(cfg):
        images = exact.matmul(basis.vectors, list(zip(*mat)))
        coords = express_in_basis(images, basis.vectors)
        restricted.append(tuple(tuple(row) for row in coords))

    for a, b in itertools.combinations(restricted, 2):
        _check_commute(a, b)
    for mat in restricted:
        _check_self_adjoint(mat, gram)
    return GaudinSystem(cfg, basis, tuple(restricted), gram)


def _check_commute(a, b) -> None:
    if exact.matmul(a, b) != exact.matmul(b, a):
        raise InvariantError("Gaudin Hamiltonians fail to commute: arithmetic bug")


def _check_self_adjoint(mat, gram: GramMatrix) -> None:
    # operator rows act on coordinates: restriction matrix R with H s_u = sum R[u][w] s_w,
    # self-adjointness for gram G reads (G R^T) symmetric
    gr = exact.matmul(gram.entries, list(zip(*mat)))
    if any(gr[i][j] != gr[j][i] for i in range(len(gr)) for j in range(i)):
        raise InvariantError(
            "Hamiltonian is not self-adjoint for the induced form: arithmetic bug"
        )


def hamiltonian_eigenvalue(cfg: MasterConfig, i: int, qpoly: Sequence[complex]) -> complex:
    """Joint eigenvalue of H_i on the Bethe line of a critical polynomial Q."""
    z = [complex(v) for v in cfg.z]
    lam = [float(w) for w in cfg.weights]
    q = np.array(qpoly, dtype=complex)
    dq = np.polyder(q)
    value = -lam[i] * np.polyval(dq, z[i]) / np.polyval(q, z[i])
    value += (lam[i] / 2.0) * sum(
        lam[j] / (z[i] - z[j]) for j in range(cfg.n) if j != i
    )
    return complex(value)


def highest_vector_eigenvalue(cfg: MasterConfig, i: int) -> Fraction:
    """Exact H_i-eigenvalue of the highest weight line (lam_i/2) sum lam_j/(z_i-z_j)."""
    lam, z = cfg.weights, cfg.z
    return (lam[i] / 2) * sum(
        (lam[j] / (z[i] - z[j]) for j in range(cfg.n) if j != i), Fraction(0)
    )


# ---------------------------------------------------------------------------
# Bethe vectors
# ---------------------------------------------------------------------------


def bethe_vector(cfg: MasterConfig, t: Sequence[complex]) -> np.ndarray:
    """b_Q by iterated application of Y(t_j) = sum_i F_i/(t_j - z_i) to v.

    Coefficient vector over the level-m compositions in colex order.
    """
    _check_arrangement(cfg, t)
    n = cfg.n
    z = [complex(v) for v in cfg.z]
    state: dict[tuple[int, ...], complex] = {(0,) * n: 1.0 + 0.0j}
    for tj in t:
        new: dict[tuple[int, ...], complex] = {}
        for comp, coef in state.items():
            for i in range(n):
                target = comp[:i] + (comp[i] + 1,) + comp[i + 1 :]
                new[target] = new.get(target, 0.0) + coef / (complex(tj) - z[i])
        state = new
    comps = compositions(cfg.m, n)
    return np.array([state.get(c, 0.0) for c in comps])


def raising_residual(cfg: MasterConfig, vec: np.ndarray) -> float:
    """|E b| / |b| for a level-m coefficient vector (zero at critical points)."""
    mat = np.array(
        [[float(v) for v in row] for row in raising_matrix(cfg.weights, cfg.m)]
    )
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat @ vec) / np.linalg.norm(vec))


# ---------------------------------------------------------------------------
# spectrum counting and the lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumWitness:
    joint: tuple[complex, ...]
    is_real: bool
    max_imag: float


def count_real_by_spectrum(
    cfg: MasterConfig,
    tol: float = 1e-7,
    seed: int = 0,
    retries: int = 6,
) -> tuple[int, list[SpectrumWitness]]:
    """Count joint eigenvectors of the Hamiltonians with real joint eigenvalue.

    Diagonalizes a random integer combination of the restricted Hamiltonians
    (exact matrix, then floating eigensolver) and reads each joint tuple off
    by Rayleigh quotients.  Real joint tuples biject with real critical
    points.  Retries with a fresh combination on near-degenerate spectra.
    """
    system = gaudin_system(cfg)
    floats = system.float_matrices()
    r = system.basis.dim
    rng = random.Random(seed)
    last_gap = None
    for _ in range(retries):
        combo = [rng.randint(1, 10**6) for _ in range(cfg.n)]
        exact = [
            [
                sum(combo[i] * system.matrices[i][u][w] for i in range(cfg.n))
                for w in range(r)
            ]
            for u in range(r)
        ]
        mat = np.array([[float(v) for v in row] for row in exact])
        evals, evecs = np.linalg.eig(mat)
        scale = max(1.0, float(np.max(np.abs(evals))))
        if r == 1:
            gap = np.inf
        else:
            pair = np.abs(evals[:, None] - evals[None, :]) + np.diag([np.inf] * r)
            gap = float(np.min(pair))
        last_gap = gap
        if gap > 1e-8 * scale:
            break
    else:
        raise RuntimeError(
            f"spectrum of random Hamiltonian combinations stayed degenerate "
            f"(last gap {last_gap}); config {cfg}"
        )
    witnesses = []
    for col in range(r):
        w = evecs[:, col]
        denom = complex(np.vdot(w, w))
        joint = tuple(complex(np.vdot(w, h @ w) / denom) for h in floats)
        max_imag = max(abs(mu.imag) for mu in joint)
        is_real = all(abs(mu.imag) <= tol * (1.0 + abs(mu)) for mu in joint)
        witnesses.append(SpectrumWitness(joint, is_real, max_imag))
    return sum(1 for w in witnesses if w.is_real), witnesses


@dataclass(frozen=True)
class BoundReport:
    config: MasterConfig
    dim: int
    signature: int
    n_real: int
    witnesses: tuple[SpectrumWitness, ...] = field(repr=False)

    @property
    def satisfies(self) -> bool:
        return abs(self.signature) <= self.n_real <= self.dim


def bound_check(cfg: MasterConfig, tol: float = 1e-7, seed: int = 0) -> BoundReport:
    """Signature lower bound |sgn| <= N <= dim, with N from spectrum counting."""
    dec = peel_decompose(cfg.weights, cfg.m)
    signature = dec.entry(cfg.m).signature
    n_real, witnesses = count_real_by_spectrum(cfg, tol=tol, seed=seed)
    report = BoundReport(cfg, cfg.dim, signature, n_real, tuple(witnesses))
    if not report.satisfies:
        raise FalsificationError(
            f"bound violated: |{signature}| <= {n_real} <= {cfg.dim} is false "
            f"for z={cfg.z}, weights={cfg.weights}, m={cfg.m}, seed={seed}, tol={tol}"
        )
    return report


# ---------------------------------------------------------------------------
# exact operator identities on the truncated tensor algebra
# ---------------------------------------------------------------------------


def _y_apply(cfg: MasterConfig, tval: Fraction, state: dict) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for comp, coef in state.items():
        for i in range(cfg.n):
            target = comp[:i] + (comp[i] + 1,) + comp[i + 1 :]
            out[target] = out.get(target, Fraction(0)) + coef / (tval - cfg.z[i])
    return out


def _z_apply(cfg: MasterConfig, tval: Fraction, state: dict) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for comp, coef in state.items():
        factor = sum(
            ((cfg.weights[i] - 2 * comp[i]) / (tval - cfg.z[i]) for i in range(cfg.n)),
            Fraction(0),
        )
        if factor != 0:
            out[comp] = out.get(comp, Fraction(0)) + coef * factor
    return out


def zy_commutator_check(
    cfg: MasterConfig, t_a: RationalLike, t_b: RationalLike, depth: int
) -> bool:
    """Exact check of [Z(t_a), Y(t_b)] = 2/(t_a-t_b) * (Y(t_a) - Y(t_b)).

    Verified on every basis vector of the truncated tensor product up to the
    given level; both sides raise level by one, so levels <= depth suffice.
    """
    t_a, t_b = fractionize(t_a), fractionize(t_b)
    if t_a == t_b:
        raise DomainError("need distinct spectral parameters")
    for val in (t_a, t_b):
        if val in cfg.z:
            raise DomainError(f"spectral parameter {val} collides with z")
    factor = 2 / (t_a - t_b)
    for level in range(depth + 1):
        for comp in compositions(level, cfg.n):
            state = {comp: Fraction(1)}
            lhs = _sub(
                _z_apply(cfg, t_a, _y_apply(cfg, t_b, state)),
                _y_apply(cfg, t_b, _z_apply(cfg, t_a, state)),
            )
            rhs = _scale(
                _sub(_y_apply(cfg, t_a, state), _y_apply(cfg, t_b, state)), factor
            )
            if _sub(lhs, rhs):
                return False
    return True


def _sub(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, Fraction(0)) - v
    return {k: v for k, v in out.items() if v != 0}


def _scale(x: dict, factor: Fraction) -> dict:
    return {k: v * factor for k, v in x.items() if v * factor != 0}
