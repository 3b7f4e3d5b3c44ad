"""Forward maps R^p -> R^q with Jacobian access and null-space bases.

Maps must be pure functions and implement the batch form only; single
points are evaluated as one-row batches.  A map either supplies an analytic
Jacobian or falls back to central finite differences with per-coordinate
step max(1e-6, 1e-6*|theta_i|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import Support, unbounded_support
from .errors import DomainError, RankDeficiencyError
from .sampling import KIND_PROBE, rng_for

RANK_REL_TOL = 1e-8
FD_STEP = 1e-6


@dataclass(frozen=True)
class ForwardMap:
    """Deterministic map from parameter space (dim p) to observable space (dim q).

    ``func`` maps (n, p) points to (n, q) values and ``jac`` to (n, q, p)
    Jacobians; neither is called with a single (p,) point.
    """

    p: int
    q: int
    func: object
    domain: Support
    jac: object = None
    matrix: np.ndarray = None  # set for linear maps, enables closed forms
    name: str = ""

    def __post_init__(self):
        if self.p < self.q:
            raise ValueError(f"need p >= q, got p={self.p} < q={self.q}")
        if self.domain.dim != self.p:
            raise ValueError("domain dimension does not match p")


def eval_batch(fmap: ForwardMap, pts: np.ndarray) -> np.ndarray:
    """Evaluate the map at (n, p) points without domain checking."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.asarray(fmap.func(pts), dtype=float).reshape(pts.shape[0], fmap.q)


def _fd_jacobian(fmap: ForwardMap, pts: np.ndarray) -> np.ndarray:
    """Central differences at (n, p) points, all 2np shifted points in one batch."""
    n, p = pts.shape
    h = np.maximum(FD_STEP, FD_STEP * np.abs(pts))
    diag = np.arange(p)
    # hi[k, i] (lo[k, i]) is point k with coordinate i moved by +h (-h)
    lo = np.repeat(pts[:, None, :], p, axis=1)
    hi = lo.copy()
    hi[:, diag, diag] += h
    lo[:, diag, diag] -= h
    values = eval_batch(fmap, np.concatenate([hi, lo]).reshape(-1, p))
    values = values.reshape(2, n, p, fmap.q)
    return ((values[0] - values[1]) / (2.0 * h[:, :, None])).transpose(0, 2, 1)


def jacobian_at(fmap: ForwardMap, theta) -> np.ndarray:
    """(q, p) Jacobian at one point: one row of :func:`jacobian_batch`."""
    return jacobian_batch(fmap, theta)[0]


def jacobian_batch(fmap: ForwardMap, pts: np.ndarray) -> np.ndarray:
    """(n, q, p) Jacobians at (n, p) points: analytic when available, else central FD."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if fmap.jac is None:
        return _fd_jacobian(fmap, pts)
    return np.asarray(fmap.jac(pts), dtype=float).reshape(pts.shape[0], fmap.q, fmap.p)


def domain_probe_points(fmap: ForwardMap, count: int = 8) -> np.ndarray:
    """Deterministic in-domain points for probing a map (rank, branch membership).

    Draws from the domain box clipped to [-1, 1] per coordinate (so
    unbounded domains still yield finite probes) and keeps points inside
    the domain.
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


def null_space_rows(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal (p - q, p) basis of the null space of the rows of ``matrix``.

    Computed from the SVD right singular vectors; rows are mutually
    orthonormal and orthogonal to every row of ``matrix``.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    q, p = matrix.shape
    if q > p:
        raise RankDeficiencyError(f"matrix is {q} x {p}; need q <= p")
    _, s, vt = np.linalg.svd(matrix, full_matrices=True)
    if s.size and s[-1] <= RANK_REL_TOL * max(s[0], 1e-300):
        raise RankDeficiencyError("matrix does not have full row rank")
    return vt[q:]


# ---------------------------------------------------------------------------
# Built-in maps
# ---------------------------------------------------------------------------


def linear_map(matrix) -> ForwardMap:
    """g(theta) = A theta on all of R^p, with constant Jacobian A."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    q, p = matrix.shape

    def func(theta):
        return theta @ matrix.T

    def jac(theta):
        return np.broadcast_to(matrix, (theta.shape[0], q, p))

    return ForwardMap(p=p, q=q, func=func, jac=jac, domain=unbounded_support(p),
                      matrix=matrix, name="linear")


def square_map(lo: float = 0.0, hi: float = 1.0) -> ForwardMap:
    """g(theta) = theta^2 on the interval (lo, hi)."""

    def func(theta):
        return theta * theta

    def jac(theta):
        return (2.0 * theta).reshape(-1, 1, 1)

    return ForwardMap(p=1, q=1, func=func, jac=jac, domain=Support([lo], [hi]),
                      name="square")


def polar_quadratic_map() -> ForwardMap:
    """g(theta1, theta2) = (theta1^2 + theta2^2) / 2 on the unit square."""

    def func(theta):
        return 0.5 * np.sum(theta * theta, axis=1, keepdims=True)

    def jac(theta):
        return theta.reshape(-1, 1, 2)

    return ForwardMap(p=2, q=1, func=func, jac=jac,
                      domain=Support([0.0, 0.0], [1.0, 1.0]), name="polar_quadratic")
