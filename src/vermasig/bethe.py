"""Master function critical points, Gaudin Hamiltonians, and Bethe vectors.

The master function prod_{i<j}(t_i-t_j)^2 * prod_{i,k}|t_i-z_k|^{-lam_k} has
critical points given by the rational system

    sum_{j != i} 2/(t_i - t_j) = sum_k lam_k/(t_i - z_k).

Each critical point, encoded by the monic polynomial Q with the t_i as
roots, spans a joint eigenspace of the commuting Gaudin Hamiltonians on the
level-m multiplicity space, and the point is real (Q has real coefficients)
exactly when its joint eigenvalue tuple is real.  The Hamiltonians are built
exactly, and a random integer combination of them (seeded by ``seed``) is
diagonalized to read off the joint tuples.  Counting the real ones counts the
real critical points; each tuple also fixes its critical point through a
Heine-Stieltjes equation for Q, solved by one linear solve and a Newton
polish, so finding the points needs no search.  The multiplicity-space
signature from character peeling bounds the real count from below.
"""

from __future__ import annotations

import functools
import itertools
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
    ensure_generic_tuple,
    fractionize,
    multiplicity_dim,
    peel_decompose,
)
from .shapovalov import (
    GramMatrix,
    Matrix,
    SingularBasis,
    _gram_on_basis,
    compositions,
    express_in_basis,
    raising_matrix,
    singular_basis,
)


# a joint tuple, and a polished Q, is real when every imaginary part is at
# most REAL_TOL relative to its magnitude
REAL_TOL = 1e-7
# a critical point is kept only if its polished Bethe residual is at most this
RESIDUAL_TOL = 1e-10
# fresh random combinations tried before a degenerate spectrum is an error
SPECTRUM_RETRIES = 6


class FalsificationError(RuntimeError):
    """A proved inequality failed numerically; carries full reproduction data."""


@dataclass(frozen=True)
class MasterConfig:
    """Evaluation points z, weights, and the number m of moving coordinates.

    The master function itself is defined for arbitrary real weights, so only
    exactness and distinctness are checked here; operations that rely on the
    multiplicity-space structure (Gaudin systems, point counting, the bound)
    require a generic tuple and check it themselves.  Numeric code reads the
    config only through ``floats``.
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
        ensure_generic_tuple(self.weights)

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def dim(self) -> int:
        return multiplicity_dim(self.n, self.m)

    @functools.cached_property
    def floats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only float64 arrays (z, lam, c), built once per config.

        c[k] is the exact highest_vector_eigenvalue(self, k), rounded once.
        """
        c = [highest_vector_eigenvalue(self, k) for k in range(self.n)]
        arrays = tuple(np.array(v, dtype=float) for v in (self.z, self.weights, c))
        for a in arrays:
            a.flags.writeable = False
        return arrays


def _check_arrangement(cfg: MasterConfig, t: Sequence[complex], eps: float = 1e-12) -> None:
    tv = [complex(x) for x in t]
    if len(tv) != cfg.m:
        raise DomainError(f"expected {cfg.m} coordinates, got {len(tv)}")
    z = cfg.floats[0]
    for i, ti in enumerate(tv):
        hits = np.flatnonzero(np.abs(ti - z) <= eps)
        if hits.size:
            raise DomainError(f"t[{i}] collides with z = {cfg.z[hits[0]]}")
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
    z, lam, _ = cfg.floats
    value = 1.0
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            value *= (ts[i] - ts[j]) ** 2
    for ti in ts:
        for zk, lk in zip(z.tolist(), lam.tolist()):
            value *= abs(ti - zk) ** -lk
    return value


def bethe_residual(cfg: MasterConfig, t: Sequence[complex]) -> float:
    """max_i |sum_{j != i} 2/(t_i-t_j) - sum_k lam_k/(t_i-z_k)|."""
    _check_arrangement(cfg, t)
    tv = np.asarray([complex(x) for x in t])
    return float(np.max(np.abs(_bethe_equations(cfg, tv))))


def _bethe_equations(cfg: MasterConfig, t: np.ndarray) -> np.ndarray:
    z, lam, _ = cfg.floats
    dtz = t[:, None] - z[None, :]
    g = -np.sum(lam[None, :] / dtz, axis=1)
    if len(t) > 1:
        dtt = t[:, None] - t[None, :]
        np.fill_diagonal(dtt, 1.0)
        inv = 2.0 / dtt
        np.fill_diagonal(inv, 0.0)
        g = g + np.sum(inv, axis=1)
    return g


def _bethe_jacobian(cfg: MasterConfig, t: np.ndarray) -> np.ndarray:
    z, lam, _ = cfg.floats
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
    """Every entry (Q's coefficients, or a joint tuple) has |imag| <= tol (1 + |entry|)."""
    return bool(np.all(np.abs(coeffs.imag) <= tol * (1.0 + np.abs(coeffs))))


def _too_close(cfg: MasterConfig, t: np.ndarray) -> bool:
    scale = 1.0 + float(np.max(np.abs(t)))
    z = cfg.floats[0]
    if np.min(np.abs(t[:, None] - z[None, :])) < 1e-13 * scale:
        return True
    if cfg.m > 1:
        dtt = np.abs(t[:, None] - t[None, :]) + np.eye(cfg.m)
        if np.min(dtt) < 1e-13 * scale:
            return True
    return False


def find_critical_points(
    cfg: MasterConfig, witnesses: Sequence[SpectrumWitness]
) -> list[CriticalPoint]:
    """All critical points, one per joint eigenvector of the Gaudin Hamiltonians.

    ``witnesses`` is the spectrum of cfg, as count_real_by_spectrum or
    bound_check returns it.  By the Bethe equations, Q = prod(x - t_i) solves
    the Heine-Stieltjes equation P0 Q'' - P1 Q' + R Q = 0 with
    P0 = prod_k (x - z_k), P1 = P0 sum_k lam_k/(x - z_k) and deg R = n - 2.
    The point's joint eigenvalue tuple mu fixes R: R(z_k) = P0'(z_k) (c_k - mu_k),
    where c_k is the highest-vector eigenvalue, and R has leading coefficient
    m sum(lam) - m(m-1).  Each witness thus gives Q by one least-squares
    solve, and Newton polishing finishes its roots.  A point is dropped when
    its polished residual exceeds RESIDUAL_TOL or it repeats a point already
    found, so a list shorter than dim means a point failed a check.
    """
    if len(witnesses) != cfg.dim or any(len(w.joint) != cfg.n for w in witnesses):
        raise DomainError(
            f"witnesses are not the spectrum of this config: need {cfg.dim} "
            f"joint tuples of length {cfg.n}"
        )
    n, m = cfg.n, cfg.m
    z, lam, c = cfg.floats
    # coefficients lowest degree first; cofactors[k] = P0/(x - z_k)
    p0 = np.poly(z)[::-1]
    cofactors = np.array([np.poly(np.delete(z, k))[::-1] for k in range(n)])
    p1 = lam @ cofactors
    points: list[CriticalPoint] = []
    for witness in witnesses:
        # Lagrange form through the values R(z_k); its x^(n-1) coefficient
        # sum(c - mu) vanishes, and the next one is known exactly
        r = ((c - np.array(witness.joint)) @ cofactors)[:-1]
        r[-1] = m * lam.sum() - m * (m - 1)
        # column j holds P0 (x^j)'' - P1 (x^j)' + R x^j
        op = np.zeros((n + m - 1, m + 1), dtype=complex)
        for j in range(m + 1):
            for poly, shift, factor in ((p0, 2, j * (j - 1)), (p1, 1, -j), (r, 0, 1)):
                if j >= shift:
                    op[j - shift : j - shift + len(poly), j] += factor * poly
        lower = np.linalg.lstsq(op[:, :m], -op[:, m], rcond=None)[0]
        t, residual = _polish(cfg, np.roots(np.concatenate(([1.0], lower[::-1]))))
        if not residual <= RESIDUAL_TOL:
            continue
        qpoly = np.atleast_1d(np.poly(t))
        scale = 1e-6 * (1.0 + np.max(np.abs(qpoly)))
        if any(np.max(np.abs(qpoly - np.array(p.qpoly))) < scale for p in points):
            continue
        points.append(
            CriticalPoint(tuple(qpoly.tolist()), residual, _is_real_poly(qpoly, REAL_TOL))
        )
    return points


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
    z, lam, c = cfg.floats
    q = np.array(qpoly, dtype=complex)
    value = -lam[i] * np.polyval(np.polyder(q), z[i]) / np.polyval(q, z[i]) + c[i]
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
    z = cfg.floats[0].tolist()
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
    mat = np.array(raising_matrix(cfg.weights, cfg.m), dtype=float)
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
    cfg: MasterConfig, seed: int = 0
) -> tuple[int, list[SpectrumWitness]]:
    """Count joint eigenvectors of the Hamiltonians with real joint eigenvalue.

    Diagonalizes a random integer combination of the restricted Hamiltonians
    (exact matrix, then floating eigensolver) and reads each joint tuple off
    by Rayleigh quotients.  Real joint tuples biject with real critical
    points.  Retries with a fresh combination on near-degenerate spectra.
    """
    system = gaudin_system(cfg)
    hams = [np.array(mat, dtype=float) for mat in system.matrices]
    r = system.basis.dim
    rng = random.Random(seed)
    last_gap = None
    for _ in range(SPECTRUM_RETRIES):
        combo = [rng.randint(1, 10**6) for _ in range(cfg.n)]
        combined = [
            [
                sum(combo[i] * system.matrices[i][u][w] for i in range(cfg.n))
                for w in range(r)
            ]
            for u in range(r)
        ]
        mat = np.array(combined, dtype=float)
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
        joint = tuple(complex(np.vdot(w, h @ w) / denom) for h in hams)
        max_imag = max(abs(mu.imag) for mu in joint)
        is_real = _is_real_poly(np.array(joint), REAL_TOL)
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


def bound_check(cfg: MasterConfig, seed: int = 0) -> BoundReport:
    """Signature lower bound |sgn| <= N <= dim, with N from spectrum counting."""
    dec = peel_decompose(cfg.weights, cfg.m)
    signature = dec.entry(cfg.m).signature
    n_real, witnesses = count_real_by_spectrum(cfg, seed=seed)
    report = BoundReport(cfg, cfg.dim, signature, n_real, tuple(witnesses))
    if not report.satisfies:
        raise FalsificationError(
            f"bound violated: |{signature}| <= {n_real} <= {cfg.dim} is false "
            f"for z={cfg.z}, weights={cfg.weights}, m={cfg.m}, seed={seed}, tol={REAL_TOL}"
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
