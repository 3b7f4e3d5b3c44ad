"""Forward maps R^p -> R^q with Jacobian access and identity augmentation.

Maps must be pure functions.  A map either supplies an analytic Jacobian or
falls back to central finite differences with per-coordinate step
max(1e-6, 1e-6*|theta_i|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .densities import Support, unbounded_support
from .errors import DomainError, RankDeficiencyError
from .sampling import KIND_PROBE, rng_for

RANK_REL_TOL = 1e-8
FD_STEP = 1e-6


@dataclass(frozen=True)
class ForwardMap:
    """Deterministic map from parameter space (dim p) to observable space (dim q).

    ``func`` maps a (p,) point to a (q,) value; when ``vectorized`` it must
    also accept (n, p) -> (n, q), and ``jac`` (n, p) -> (n, q, p).
    """

    p: int
    q: int
    func: object
    domain: Support
    jac: object = None
    vectorized: bool = False
    matrix: np.ndarray = None  # set for linear maps, enables closed forms
    name: str = ""

    def __post_init__(self):
        if self.p < self.q:
            raise ValueError(f"need p >= q, got p={self.p} < q={self.q}")
        if self.domain.dim != self.p:
            raise ValueError("domain dimension does not match p")


def evaluate(fmap: ForwardMap, theta) -> np.ndarray:
    """Evaluate the map at a single in-domain point."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if not fmap.domain.contains(theta.reshape(1, -1))[0]:
        raise DomainError(f"theta={theta} outside domain of map {fmap.name!r}")
    return np.atleast_1d(np.asarray(fmap.func(theta), dtype=float))


def eval_batch(fmap: ForwardMap, pts: np.ndarray) -> np.ndarray:
    """Evaluate the map at (n, p) points without domain checking."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if fmap.vectorized:
        return np.asarray(fmap.func(pts), dtype=float).reshape(pts.shape[0], fmap.q)
    out = np.empty((pts.shape[0], fmap.q))
    for i, row in enumerate(pts):
        out[i] = fmap.func(row)
    return out


def _fd_jacobian(fmap: ForwardMap, theta: np.ndarray) -> np.ndarray:
    jacobian = np.empty((fmap.q, fmap.p))
    for i in range(fmap.p):
        h = max(FD_STEP, FD_STEP * abs(theta[i]))
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += h
        lo[i] -= h
        jacobian[:, i] = (
            np.atleast_1d(fmap.func(hi)) - np.atleast_1d(fmap.func(lo))
        ) / (2.0 * h)
    return jacobian


def jacobian_at(fmap: ForwardMap, theta) -> np.ndarray:
    """(q, p) Jacobian at one point: analytic when available, else central FD."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if fmap.jac is not None:
        return np.asarray(fmap.jac(theta), dtype=float).reshape(fmap.q, fmap.p)
    return _fd_jacobian(fmap, theta)


def jacobian_batch(fmap: ForwardMap, pts: np.ndarray) -> np.ndarray:
    """(n, q, p) Jacobians at (n, p) points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if fmap.jac is not None and fmap.vectorized:
        return np.asarray(fmap.jac(pts), dtype=float).reshape(pts.shape[0], fmap.q, fmap.p)
    out = np.empty((pts.shape[0], fmap.q, fmap.p))
    for i, row in enumerate(pts):
        out[i] = jacobian_at(fmap, row)
    return out


def row_rank(matrix: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Numerical row rank: singular values above rel_tol times the largest."""
    s = np.linalg.svd(np.atleast_2d(matrix), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def domain_probe_points(fmap: ForwardMap, count: int = 8) -> np.ndarray:
    """Deterministic in-domain points for rank/invertibility probes.

    Draws from the domain box clipped to [-1, 1] per coordinate (so
    unbounded domains still yield finite probes) and keeps points passing
    the domain indicator.
    """
    lo = np.maximum(fmap.domain.lower, -1.0)
    hi = np.minimum(fmap.domain.upper, 1.0)
    width = hi - lo
    rng = rng_for(0, KIND_PROBE, fmap.p * 1000 + fmap.q)
    raw = lo + rng.random((4 * count, fmap.p)) * width
    mid = 0.5 * (lo + hi)
    raw = np.vstack([mid, raw])
    keep = fmap.domain.contains(raw)
    pts = raw[keep][:count]
    if pts.shape[0] == 0:
        raise DomainError(f"could not find probe points inside domain of {fmap.name!r}")
    return pts


@dataclass(frozen=True)
class AugmentedMap:
    """A p >= q map extended to a square map by trailing identity coordinates."""

    base: ForwardMap
    full: ForwardMap

    @property
    def n_aux(self) -> int:
        return self.base.p - self.base.q


def _permutation_hint(jacobian: np.ndarray, q: int) -> str:
    _, _, piv = scipy.linalg.qr(jacobian, pivoting=True, mode="economic")
    cols = [int(c) for c in piv[:q]]
    return (
        "left q x q Jacobian block is singular; permute coordinates so that "
        f"columns {cols} come first"
    )


def augment_identity(fmap: ForwardMap) -> AugmentedMap:
    """Extend g with identity maps on the trailing p - q coordinates.

    The augmented Jacobian is block triangular, so its determinant equals
    the determinant of the left q x q block of the base Jacobian; this is
    verified at deterministic probe points during construction.
    """
    p, q = fmap.p, fmap.q
    probes = domain_probe_points(fmap)
    for theta in probes:
        jacobian = jacobian_at(fmap, theta)
        left = jacobian[:, :q]
        s = np.linalg.svd(left, compute_uv=False)
        if s.size == 0 or s[-1] <= RANK_REL_TOL * max(s[0], 1e-300):
            if row_rank(jacobian) == q:
                raise RankDeficiencyError(_permutation_hint(jacobian, q))
            raise RankDeficiencyError(
                f"Jacobian of {fmap.name!r} is rank deficient at probe {theta}"
            )

    if p == q:
        return AugmentedMap(base=fmap, full=fmap)

    def aug_func(theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 1:
            return np.concatenate([np.atleast_1d(fmap.func(theta)), theta[q:]])
        return np.hstack([eval_batch(fmap, theta), theta[:, q:]])

    def aug_jac(theta):
        theta = np.asarray(theta, dtype=float)
        single = theta.ndim == 1
        pts = theta.reshape(1, -1) if single else theta
        base_jac = jacobian_batch(fmap, pts)
        n = pts.shape[0]
        out = np.zeros((n, p, p))
        out[:, :q, :] = base_jac
        out[:, q:, q:] = np.eye(p - q)
        return out[0] if single else out

    full = ForwardMap(p=p, q=p, func=aug_func, jac=aug_jac, domain=fmap.domain,
                      vectorized=fmap.vectorized, name=f"{fmap.name}+identity")

    for theta in probes:
        det_full = np.linalg.det(jacobian_at(full, theta))
        det_left = np.linalg.det(jacobian_at(fmap, theta)[:, :q])
        scale = max(1.0, abs(det_left))
        if abs(det_full - det_left) > 1e-10 * scale:
            raise RankDeficiencyError(
                f"block-determinant identity violated at probe {theta}: "
                f"{det_full} vs {det_left}"
            )
    return AugmentedMap(base=fmap, full=full)


def null_space_rows(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal (p - q, p) basis of the null space of the rows of ``matrix``.

    Computed from the SVD right singular vectors; rows are mutually
    orthonormal and orthogonal to every row of ``matrix``.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    q, p = matrix.shape
    if q > p:
        raise RankDeficiencyError(f"matrix is {q} x {p}; need q <= p")
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size and s[-1] <= RANK_REL_TOL * max(s[0], 1e-300):
        raise RankDeficiencyError("matrix does not have full row rank")
    _, _, vt = np.linalg.svd(matrix, full_matrices=True)
    return vt[q:]


# ---------------------------------------------------------------------------
# Built-in maps
# ---------------------------------------------------------------------------


def linear_map(matrix, domain: Support = None, name: str = "linear") -> ForwardMap:
    """g(theta) = A theta with constant Jacobian A."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    q, p = matrix.shape
    domain = domain if domain is not None else unbounded_support(p)

    def func(theta):
        return np.asarray(theta) @ matrix.T

    def jac(theta):
        theta = np.asarray(theta)
        if theta.ndim == 1:
            return matrix
        return np.broadcast_to(matrix, (theta.shape[0], q, p))

    return ForwardMap(p=p, q=q, func=func, jac=jac, domain=domain,
                      vectorized=True, matrix=matrix, name=name)


def identity_map(p: int, domain: Support = None) -> ForwardMap:
    return linear_map(np.eye(p), domain=domain, name="identity")


def square_map(lo: float = 0.0, hi: float = 1.0) -> ForwardMap:
    """g(theta) = theta^2 on the interval (lo, hi)."""

    def func(theta):
        theta = np.asarray(theta)
        return theta * theta

    def jac(theta):
        theta = np.asarray(theta)
        if theta.ndim == 1:
            return np.array([[2.0 * theta[0]]])
        return (2.0 * theta).reshape(-1, 1, 1)

    return ForwardMap(p=1, q=1, func=func, jac=jac, domain=Support([lo], [hi]),
                      vectorized=True, name="square")


def polar_quadratic_map() -> ForwardMap:
    """g(theta1, theta2) = (theta1^2 + theta2^2) / 2 on the unit square."""

    def func(theta):
        theta = np.asarray(theta)
        if theta.ndim == 1:
            return np.array([0.5 * (theta[0] ** 2 + theta[1] ** 2)])
        return 0.5 * np.sum(theta * theta, axis=1, keepdims=True)

    def jac(theta):
        theta = np.asarray(theta)
        if theta.ndim == 1:
            return theta.reshape(1, 2)
        return theta.reshape(-1, 1, 2)

    return ForwardMap(p=2, q=1, func=func, jac=jac,
                      domain=Support([0.0, 0.0], [1.0, 1.0]),
                      vectorized=True, name="polar_quadratic")
