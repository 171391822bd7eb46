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
Heine-Stieltjes equation for Q.  The tuples of a config share n and m, so one
batched Heine-Stieltjes solve and Newton polish over all witnesses finds every
point, with no search.  The multiplicity-space signature from character
peeling bounds the real count from below.

One integer builder (``_images``) applies the Casimirs Omega_ij by ``exact.apply``,
one sparse column per composition and pair: to the kernel vectors for the restricted
Hamiltonians, and to the unit vectors of a weight space for ``hamiltonian_matrices``.
On the multiplicity space sum_i H_i = 0 and sum_i z_i H_i = sum_{i<j} Omega_ij is the
Casimir scalar c = (C(mu) - sum_i C(lam_i))/2, C(x) = x + x^2/2, mu = sum(lam) - 2m,
so I and H_1, ..., H_{n-2} span the algebra (Mukhin-Tarasov-Varchenko, Ann. Math.
170, 2009).  ``gaudin_system`` checks those two relations on integers, then
commutation and self-adjointness (``exact.pairing``, with no Gram matrix) on
H_1, ..., H_{n-2} alone; that proves both for all n.  One integer formula gives
the highest-vector eigenvalues c_k.  One collision rule (``_too_close``)
decides whether t meets a z or itself.  Bethe vectors Y(t_1)...Y(t_m)v and the exact
Z/Y commutation check read the raising operator's move table, ``shapovalov.Shape.moves``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, truediv
from typing import Sequence

import numpy as np

# peel_decompose and basis_of are read through their modules, not bound
# here: this module is imported on first use, and a tracer that wrapped them
# before that would leave its wrappers in a by-name binding after it uninstalls
from . import exact, shapovalov, sigchar
from .sigchar import (
    DomainError,
    InvariantError,
    RationalLike,
    ensure_generic_tuple,
    ensure_int,
    fractionize,
    multiplicity_dim,
)
from .shapovalov import SingularBasis


# a joint tuple, and a polished Q, is real when every imaginary part is at
# most REAL_TOL relative to its magnitude
REAL_TOL = 1e-7
# a critical point is kept only if its polished Bethe residual is at most this
RESIDUAL_TOL = 1e-10
# fresh random combinations tried before a degenerate spectrum is an error
SPECTRUM_RETRIES = 6
# Newton steps a critical point's polish takes at most
POLISH_ROUNDS = 4


class FalsificationError(RuntimeError):
    """A proved inequality failed numerically; carries full reproduction data."""


@dataclass(frozen=True)
class MasterConfig:
    """Evaluation points z, weights, and the number m of moving coordinates.

    The master function itself is defined for arbitrary real weights, so only
    exactness and distinctness are checked here; operations that rely on the
    multiplicity-space structure (Gaudin systems, point counting, the bound)
    require a generic tuple and check it themselves.  Numeric code reads the
    config only through ``floats``, and integer code its weights and z through
    ``integral_weights`` and ``integral_points``.
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
        object.__setattr__(self, "m", ensure_int(self.m, "m", 1))

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

        c[k] is the exact highest_vector_eigenvalue(self, k), rounded once: int / int
        rounds correctly, as float(Fraction) does.
        """
        nums, big = _highest_numerators(self)
        c = [x / big for x in nums]
        arrays = tuple(np.array(v, dtype=float) for v in (self.z, self.weights, c))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @functools.cached_property
    def integral_weights(self) -> tuple[int, tuple[int, ...]]:
        """(D, a), built once per config: weights = a / D."""
        return exact.integer_row(self.weights)

    @functools.cached_property
    def integral_points(self) -> tuple[int, tuple[int, ...], int]:
        """(Dz, zeta, P), built once per config: z = zeta / Dz, and P = lcm_{i<j} |zeta_i -
        zeta_j| is divisible by every zeta_i - zeta_j."""
        dz, zeta = exact.integer_row(self.z)
        return dz, zeta, math.lcm(*[zi - zj for zi, zj in itertools.combinations(zeta, 2)])


def _check_arrangement(cfg: MasterConfig, t: Sequence[complex]) -> np.ndarray:
    """t as a one-row complex stack; a wrong length, a real or imaginary part that is not
    finite, or a collision by the rule the polish applies (_too_close), is a DomainError."""
    tv = np.array([[complex(x) for x in t]])
    if tv.shape[1] != cfg.m:
        raise DomainError(f"expected {cfg.m} coordinates, got {tv.shape[1]}")
    if not np.isfinite(tv).all():
        raise DomainError(f"t = {tv[0].tolist()} has a coordinate that is not finite")
    if _too_close(tv, *_differences(cfg, tv))[0]:
        raise DomainError(f"t = {tv[0].tolist()} collides with a z or with another coordinate")
    return tv


def master_value(cfg: MasterConfig, t: Sequence[float]) -> float:
    """Value of the master function at a real tuple t off the arrangement."""
    tv = _check_arrangement(cfg, t)[0]
    if np.any(np.abs(tv.imag) > 1e-12):
        raise DomainError("master_value is real-valued; pass a real tuple")
    ts = tv.real.tolist()
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
    tv = _check_arrangement(cfg, t)
    return float(np.max(np.abs(_bethe_system(cfg, *_differences(cfg, tv))[0])))


def _differences(cfg: MasterConfig, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a stack t of shape (r, m): t_i - z_k, and t_i - t_j with 1.0 on the diagonal."""
    dtt = t[:, :, None] - t[:, None, :]
    diag = np.arange(t.shape[1])
    dtt[:, diag, diag] = 1.0
    return t[:, :, None] - cfg.floats[0], dtt


def _bethe_system(cfg: MasterConfig, dtz, dtt) -> tuple[np.ndarray, np.ndarray]:
    """The Bethe equations g (r, m), as in bethe_residual, and their Jacobians (r, m, m)."""
    lam = cfg.floats[1]
    diag = np.arange(dtt.shape[1])
    inv, jac = 2.0 / dtt, 2.0 / dtt**2
    inv[:, diag, diag] = 0.0
    jac[:, diag, diag] = 0.0
    g = -(lam / dtz).sum(2) + inv.sum(2)
    jac[:, diag, diag] = (lam / dtz**2).sum(2) - jac.sum(2)
    return g, jac


@dataclass(frozen=True)
class CriticalPoint:
    """Monic Q(x) = prod(x - t_i) as coefficients, highest degree first."""

    qpoly: tuple[complex, ...]
    residual: float
    is_real: bool


def _is_real_rows(rows: np.ndarray) -> np.ndarray:
    """Per row (Q's coefficients, or a joint tuple): every |imag| <= REAL_TOL (1 + |entry|)."""
    return (np.abs(rows.imag) <= REAL_TOL * (1.0 + np.abs(rows))).all(1)


def _too_close(t: np.ndarray, dtz, dtt) -> np.ndarray:
    """Per row of the stack: an entry of dtz, or off the diagonal of dtt, below
    1e-13 (1 + max|t|); dtt's diagonal holds a placeholder, so it is read as infinite."""
    eps = 1e-13 * (1.0 + np.abs(t).max(1))
    pairs = np.abs(dtt) + np.diag(np.full(t.shape[1], np.inf))
    return (np.abs(dtz).min((1, 2)) < eps) | (pairs.min((1, 2)) < eps)


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
    m sum(lam) - m(m-1).  All witnesses share n and m, so they are solved as
    one stack: one batched least-squares solve gives every Q, one batched
    companion eigensolve its roots, and one batched Newton polish finishes
    them.  A point is dropped when its polished residual exceeds RESIDUAL_TOL
    or it repeats a point already found (in witness order), so a list shorter
    than dim means a point failed a check.
    """
    if len(witnesses) != cfg.dim or any(len(w.joint) != cfg.n for w in witnesses):
        raise DomainError(
            f"witnesses are not the spectrum of this config: need {cfg.dim} "
            f"joint tuples of length {cfg.n}"
        )
    n, m = cfg.n, cfg.m
    z, lam, c = cfg.floats
    # coefficients lowest degree first; cofactors[k] = P0/(x - z_k)
    others = np.tile(z, (n, 1))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    p0, cofactors = _from_roots(z[None])[0, ::-1], _from_roots(others)[:, ::-1]
    p1 = lam @ cofactors
    # column j holds P0 (x^j)'' - P1 (x^j)' + R x^j; the R part differs per witness
    base = np.zeros((n + m - 1, m + 1))
    for j in range(2, m + 1):
        base[j - 2 : j - 1 + n, j] += j * (j - 1) * p0
    for j in range(1, m + 1):
        base[j - 1 : j - 1 + n, j] -= j * p1
    # Lagrange form through the values R(z_k); its x^(n-1) coefficient
    # sum(c - mu) vanishes, and the next one is known exactly
    r = ((c - np.array([w.joint for w in witnesses])) @ cofactors)[:, :-1]
    r[:, -1] = m * lam.sum() - m * (m - 1)
    # R x^j fills rows j..j+n-2 of column j
    cols = np.arange(m + 1)[:, None]
    op = np.repeat(base[None].astype(complex), len(witnesses), axis=0)
    op[:, cols + np.arange(n - 1), cols] += r[:, None, :]
    # Q's lower coefficients, the least-squares solution through a stacked QR
    q, upper = np.linalg.qr(op[:, :, :m])
    lower = np.linalg.solve(upper, q.conj().transpose(0, 2, 1) @ -op[:, :, m:])[:, :, 0]
    companion = np.zeros((len(witnesses), m, m), dtype=complex)
    companion[:, 0, :] = -lower[:, ::-1]
    companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
    t, residual = _polish(cfg, np.linalg.eigvals(companion))
    kept = np.flatnonzero(residual <= RESIDUAL_TOL)
    t, residual = t[kept], residual[kept]
    # as np.poly does, a root set closed under conjugation gives real coefficients
    qpoly = _from_roots(t)
    conjugate_closed = (np.sort(t, axis=1) == np.sort(t.conj(), axis=1)).all(1)
    qpoly[conjugate_closed] = qpoly[conjugate_closed].real
    is_real = _is_real_rows(qpoly)
    scale = 1e-6 * (1.0 + np.abs(qpoly).max(1))
    repeats = (np.abs(qpoly[:, None] - qpoly[None]).max(2) < scale[:, None]).tolist()
    points: list[CriticalPoint] = []
    found: list[int] = []
    for i in range(len(kept)):
        if any(repeats[i][f] for f in found):
            continue
        found.append(i)
        coeffs = qpoly[i].real if conjugate_closed[i] else qpoly[i]
        points.append(CriticalPoint(tuple(coeffs.tolist()), float(residual[i]), bool(is_real[i])))
    return points


def _from_roots(roots: np.ndarray) -> np.ndarray:
    """Coefficients of prod_i (x - roots[:, i]) for each row, highest degree first."""
    coeffs = np.zeros((len(roots), roots.shape[1] + 1), dtype=roots.dtype)
    coeffs[:, 0] = 1.0
    for k in range(roots.shape[1]):
        coeffs[:, 1 : k + 2] -= coeffs[:, : k + 1] * roots[:, k : k + 1]
    return coeffs


def _polish(cfg: MasterConfig, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps on a stack t (r, m); each row keeps its iterate of least residual.

    A row stops at a singular Jacobian, at a non-finite or colliding iterate,
    or when its residual stops falling.  The finiteness and closeness tests
    come before any reciprocal, and only the rows that pass are evaluated.
    """
    # one evaluation per iterate gives both its residual and its Newton step
    g, jac = _bethe_system(cfg, *_differences(cfg, t))
    best, best_res = t.copy(), np.abs(g).max(1)
    live = np.arange(len(t))
    for _ in range(POLISH_ROUNDS):
        # an exactly zero pivot, where solve would raise, stops the row
        ok = np.linalg.slogdet(jac)[0] != 0
        live, t = live[ok], t[ok] + np.linalg.solve(jac[ok], -g[ok, :, None])[:, :, 0]
        ok = np.isfinite(t).all(1)
        live, t = live[ok], t[ok]
        dtz, dtt = _differences(cfg, t)
        ok = ~_too_close(t, dtz, dtt)
        live, t = live[ok], t[ok]
        g, jac = _bethe_system(cfg, dtz[ok], dtt[ok])
        res = np.abs(g).max(1)
        # not res >= best, so that a NaN first residual (a start on a z) is replaced
        ok = ~(res >= best_res[live])
        live, t, g, jac = live[ok], t[ok], g[ok], jac[ok]
        best[live], best_res[live] = t, res[ok]
        if not live.size:
            break
    return best, best_res


# ---------------------------------------------------------------------------
# Gaudin Hamiltonians
# ---------------------------------------------------------------------------


def hamiltonian_matrices(cfg: MasterConfig, level: int | None = None) -> list[exact.Matrix]:
    """Exact matrices of the n Gaudin Hamiltonians on a weight space.

    H_i = sum_{j != i} Omega_ij/(z_i - z_j), Omega_ij = E_i F_j + F_i E_j + H_i H_j / 2,
    acting on the composition basis F^{k_1}v_1 x ... x F^{k_n}v_n of the given
    level (default: cfg.m).  Column c of H_i is Dz w / (2 D^2 P) for the integer image
    w of unit vector c under _images, the builder gaudin_system uses.
    """
    space = shapovalov.Level(*cfg.integral_weights, cfg.m if level is None else level)
    (dz, zeta, p), size = cfg.integral_points, len(space.shape.compositions)
    units = [[int(r == c) for r in range(size)] for c in range(size)]
    big = 2 * space.den**2 * p
    # images[i][c], the image of unit vector c, is column c of H_i times big / Dz
    images = _images(space, units, zeta, p)
    return [[[Fraction(dz * x, big) for x in row] for row in zip(*per_i)] for per_i in images]


@dataclass(frozen=True)
class GaudinSystem:
    """Hamiltonians restricted to the multiplicity space."""

    config: MasterConfig
    basis: SingularBasis
    # (Dz, L, (V_1, ..., V_n)), R_i[f][g] = Dz V_i[f][g] / (L s_f) with s_f the scale of
    # basis.integral_vectors[f], all integers, Dz, L > 0; matrices decodes it on first read
    integral_matrices: tuple[int, int, tuple[tuple[tuple[int, ...], ...], ...]]

    @functools.cached_property
    def matrices(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        return _decode(self, self.integral_matrices[2], Fraction)


def _decode(system: GaudinSystem, ints, div) -> tuple:
    """div(Dz x, L s_f) at each x in row f of each integer matrix: the V_i give the R_i,
    sum c_i V_i gives sum c_i R_i; int / int (truediv) rounds as float(Fraction) does."""
    dz, big, _ = system.integral_matrices
    scales = [s for s, _ in system.basis.integral_vectors]
    return tuple(
        tuple(tuple(div(dz * x, big * s) for x in row) for s, row in zip(scales, mat))
        for mat in ints
    )


def gaudin_system(cfg: MasterConfig) -> GaudinSystem:
    """Restrict the Hamiltonians to the singular vectors and check them exactly, on integers.

    With z = zeta/Dz, lams = a/D, P = lcm_{i<j} |zeta_i - zeta_j| and L = 2 D^2 P, the image
    w = (L / Dz) H_i u_f of a kernel vector u_f = s_f v_f is integral (_images).  Kernel
    vector g is 1 at free column g and 0 at the other free columns, so V_i[f] = w read
    there.  Exact checks, in this order:

    - every image of all n Hamiltonians is killed by the raising operator, so it is
      fixed by its values at the free columns, the only ones the relations read;
    - the two relations sum_i V_i = 0 and sum_i zeta_i V_i = c L diag(s_f) (_check_relations);
    - the R_i of H_1, ..., H_{n-2} commute pairwise;
    - (u_f, H_i u_g), a pairing of the full images, is symmetric for H_1, ..., H_{n-2}.

    By the relations, H_{n-1} and H_n are combinations of I and H_1, ..., H_{n-2}
    (zeta_{n-1} != zeta_n), so they commute with every H_i and are self-adjoint too.  At
    n = 3 no commutator is formed; at n = 2 (E_m is a line) only the relations run.
    """
    cfg.require_generic()
    basis = shapovalov.basis_of(shapovalov.Level(*cfg.integral_weights, cfg.m))
    level, free, (scales, vectors) = basis.level, basis.free_columns, zip(*basis.integral_vectors)
    dz, zeta, p = cfg.integral_points
    images = _images(level, vectors, zeta, p)
    level.check_killed(
        itertools.chain.from_iterable(images),
        "a Gaudin Hamiltonian leaves the multiplicity space: an image is",
    )
    restricted = tuple(tuple(tuple(w[g] for g in free) for w in per_i) for per_i in images)
    den, nums = level.den, level.nums
    # with mu = A / D, A = sum(a) - 2mD, and C(a / D) = (2aD + a^2) / (2D^2): 2 c L
    total = sum(nums) - 2 * cfg.m * den
    casimir = p * (2 * total * den + total * total - sum(2 * a * den + a * a for a in nums))
    _check_relations(restricted, zeta, scales, casimir)
    independent = cfg.n - 2
    big = math.lcm(*scales)
    sigma = [big // s for s in scales]
    for a, b in itertools.combinations(restricted[:independent], 2):
        _check_commute(a, b, sigma)
    for per_i in images[:independent]:
        _check_self_adjoint(exact.pairing(vectors, level.norms, per_i))
    return GaudinSystem(cfg, basis, (dz, 2 * den * den * p, restricted))


def _images(
    level: shapovalov.Level, vectors: Sequence[Sequence[int]], zeta: Sequence[int], p: int
) -> list[list[list[int]]]:
    """images[i][f] = sum_{j != i} P/(zeta_i - zeta_j) 2D^2 Omega_ij u_f, once per pair i < j,
    for integer vectors u_f over the level's compositions, lams = a / D.

    2D^2 Omega_ij moves a unit from factor a to b, {a, b} = {i, j}, by 2D steps[a*m + k_a - 1],
    and scales by (a_i - 2 k_i D)(a_j - 2 k_j D).  Each pair's sparse columns (per
    composition its diagonal term, then its moves) are applied to every vector at once.
    """
    den, nums, steps, m = level.den, level.nums, level.steps, level.m
    comps, index = level.shape.compositions, level.shape.index
    out = [[[0] * len(comps) for _ in vectors] for _ in nums]
    for i, j in itertools.combinations(range(len(nums)), 2):
        columns = []
        for c, comp in enumerate(comps):
            column = [(c, (nums[i] - 2 * comp[i] * den) * (nums[j] - 2 * comp[j] * den))]
            for a, b in ((i, j), (j, i)):
                if k := comp[a]:
                    target = list(comp)
                    target[a], target[b] = k - 1, comp[b] + 1
                    column.append((index[tuple(target)], 2 * den * steps[a * m + k - 1]))
            columns.append(column)
        # P/(zeta_j - zeta_i) = -wt: P is divisible by zeta_i - zeta_j
        wt = p // (zeta[i] - zeta[j])
        for f, omega in enumerate(exact.apply(columns, len(comps), vectors)):
            out[i][f] = [y + wt * o for y, o in zip(out[i][f], omega)]
            out[j][f] = [y - wt * o for y, o in zip(out[j][f], omega)]
    return out


def _check_relations(restricted, zeta: Sequence[int], scales: Sequence[int], casimir: int) -> None:
    # R_i[f][g] = Dz V_i[f][g] / (L s_f) and z_i = zeta_i / Dz, so sum_i H_i = 0 iff
    # sum_i V_i = 0, and sum_i z_i H_i = c iff 2 sum_i zeta_i V_i[f][g] = 2 c L s_f delta_fg
    for f, (s, rows) in enumerate(zip(scales, zip(*restricted))):
        columns = list(zip(*rows))
        if any(map(sum, columns)):
            raise InvariantError("Gaudin Hamiltonians fail sum_i H_i = 0: arithmetic bug")
        weighted = [2 * sum(map(mul, zeta, col)) for col in columns]
        if weighted != [casimir * s if g == f else 0 for g in range(len(columns))]:
            raise InvariantError(
                "Gaudin Hamiltonians fail sum_i z_i H_i = the Casimir scalar: arithmetic bug"
            )


def _check_commute(a, b, sigma: Sequence[int]) -> None:
    # R_i = c S^-1 V_i with S = diag(s_f) and a scalar c, so R_a R_b = R_b R_a
    # iff V_a Sigma V_b = V_b Sigma V_a, Sigma = diag(lcm(s) / s_f)
    if exact.pairing(a, sigma, list(zip(*b))) != exact.pairing(b, sigma, list(zip(*a))):
        raise InvariantError("Gaudin Hamiltonians fail to commute: arithmetic bug")


def _check_self_adjoint(pair) -> None:
    # pair[f][g] = D^m (L / Dz) s_f s_g (v_f, H_i v_g): H_i is self-adjoint for the
    # induced form iff this integer matrix is symmetric
    if any(pair[i][j] != pair[j][i] for i in range(len(pair)) for j in range(i)):
        raise InvariantError("Hamiltonian is not self-adjoint for the induced form: arithmetic bug")


def highest_vector_eigenvalue(cfg: MasterConfig, i: int) -> Fraction:
    """Exact H_i-eigenvalue of the highest weight line (lam_i/2) sum lam_j/(z_i-z_j), 0 <= i < n."""
    if (i := ensure_int(i, "i", 0)) >= cfg.n:
        raise DomainError(f"i must be below n = {cfg.n}, got {i}")
    nums, big = _highest_numerators(cfg)
    return Fraction(nums[i], big)


def _highest_numerators(cfg: MasterConfig) -> tuple[list[int], int]:
    """([a_k Dz S_k], 2 D^2 P) with S_k = sum_{j != k} a_j P / (zeta_k - zeta_j), lams = a / D:
    numerator k over the common denominator is the highest-vector eigenvalue c_k."""
    (den, nums), (dz, zeta, p) = cfg.integral_weights, cfg.integral_points
    return [
        a * dz * sum(b * (p // (zk - zj)) for b, zj in zip(nums, zeta) if zj != zk)
        for a, zk in zip(nums, zeta)
    ], 2 * den * den * p


# ---------------------------------------------------------------------------
# Bethe vectors
# ---------------------------------------------------------------------------


def bethe_vector(cfg: MasterConfig, t: Sequence[complex]) -> np.ndarray:
    """b_Q by iterated application of Y(t_l) = sum_i F_i/(t_l - z_i) to v, one level at a
    time: composition c of level l gathers b[r] / (t_l - z_i) over its moves (r, s) in
    ``Shape.moves``, with i = s // l and b the level l - 1 vector.

    Coefficient vector over the level-m compositions in colex order.
    """
    tv = _check_arrangement(cfg, t)[0].tolist()
    z = cfg.floats[0].tolist()
    state = [1]
    for level, tl in enumerate(tv, 1):
        moves = shapovalov.shape(level, cfg.n).moves
        state = [sum(state[r] / (tl - z[s // level]) for r, s in row) for row in moves]
    return np.array(state)


# ---------------------------------------------------------------------------
# spectrum counting and the lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumWitness:
    joint: tuple[complex, ...]
    is_real: bool


def count_real_by_spectrum(cfg: MasterConfig, seed: int = 0) -> tuple[int, list[SpectrumWitness]]:
    """Count joint eigenvectors of the Hamiltonians with real joint eigenvalue.

    Diagonalizes a random integer combination of the restricted Hamiltonians
    (exact matrix, then floating eigensolver) and reads each joint tuple off
    by Rayleigh quotients.  Real joint tuples biject with real critical
    points.  Retries with a fresh combination on near-degenerate spectra.  The int ``seed``
    fixes the combinations, so every count can be replayed.
    """
    seed = ensure_int(seed, "seed")
    system = gaudin_system(cfg)
    r = system.basis.dim
    ints = system.integral_matrices[2]
    hams = np.array(_decode(system, ints, truediv))
    rng = random.Random(seed)
    last_gap = None
    for _ in range(SPECTRUM_RETRIES):
        combo = [rng.randint(1, 10**6) for _ in range(cfg.n)]
        combined = [[sum(map(mul, combo, col)) for col in zip(*rows)] for rows in zip(*ints)]
        mat = np.array(_decode(system, [combined], truediv)[0])
        evals, evecs = np.linalg.eig(mat)
        scale = max(1.0, float(np.max(np.abs(evals))))
        pair = np.abs(evals[:, None] - evals[None, :]) + np.diag([np.inf] * r)
        last_gap = float(np.min(pair))
        if last_gap > 1e-8 * scale:
            break
    else:
        raise RuntimeError(
            f"spectrum of random Hamiltonian combinations stayed degenerate "
            f"(last gap {last_gap}); config {cfg}"
        )
    # the Rayleigh quotients of every eigenvector under every H_i, one row per eigenvector
    conj = evecs.conj()
    joints = ((conj[None] * (hams @ evecs)).sum(1) / (conj * evecs).sum(0)).T.astype(complex)
    witnesses = [
        SpectrumWitness(tuple(joint), is_real)
        for joint, is_real in zip(joints.tolist(), _is_real_rows(joints).tolist())
    ]
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
    dec = sigchar.peel_decompose(cfg.weights, cfg.m)
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


def _z_value(cfg: MasterConfig, t: Fraction, comp: Sequence[int]) -> Fraction:
    """Z(t) = sum_i H_i/(t - z_i) on the composition comp: sum_i (lam_i - 2 k_i)/(t - z_i)."""
    return sum(((w - 2 * k) / (t - z) for w, k, z in zip(cfg.weights, comp, cfg.z)), Fraction(0))


def zy_commutator_check(
    cfg: MasterConfig, t_a: RationalLike, t_b: RationalLike, depth: int
) -> bool:
    """Exact check of [Z(t_a), Y(t_b)] = 2/(t_a-t_b) * (Y(t_a) - Y(t_b)).

    Both sides raise the level by one, Z(t) is diagonal and Y(t) is nonzero only on
    ``Shape.moves``, so the sides are compared entry by entry: for each move (r, s) of
    each composition c of levels l = 1..depth + 1, with i = s // l, (Z(t_a)(c) -
    Z(t_a)(r)) / (t_b - z_i) against 2/(t_a-t_b) * (1/(t_a - z_i) - 1/(t_b - z_i)).
    """
    t_a, t_b = fractionize(t_a), fractionize(t_b)
    if t_a == t_b:
        raise DomainError("need distinct spectral parameters")
    for val in (t_a, t_b):
        if val in cfg.z:
            raise DomainError(f"spectral parameter {val} collides with z")
    factor = 2 / (t_a - t_b)
    y_a, y_b = ([1 / (t - z) for z in cfg.z] for t in (t_a, t_b))
    below: list[Fraction] = []  # Z(t_a) on the level below; level 0 has no moves
    for level in range(ensure_int(depth, "depth", 0) + 2):
        grid = shapovalov.shape(level, cfg.n)
        values = [_z_value(cfg, t_a, comp) for comp in grid.compositions]
        for value, moves in zip(values, grid.moves):
            for r, s in moves:
                i = s // level
                if (value - below[r]) * y_b[i] != factor * (y_a[i] - y_b[i]):
                    return False
        below = values
    return True
