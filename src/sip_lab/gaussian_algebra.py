"""Closed-form Gaussian results: linear pullbacks, ratio-form updates, and
the replicate-mean special case.

All symmetric positive-definite inversions go through numpy's Cholesky
factor after projecting onto the symmetric part; possibly indefinite
symmetric combinations use a plain LU solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import GaussianParams
from .errors import NotPositiveDefiniteError, RankDeficiencyError

_SYM_TOL = 1e-10


def _sym(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    resid = np.max(np.abs(matrix - matrix.T))
    if resid > _SYM_TOL * max(1.0, np.max(np.abs(matrix))):
        raise ValueError(f"matrix expected symmetric; asymmetry {resid:.3e}")
    return 0.5 * (matrix + matrix.T)


def chol_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky."""
    sym = _sym(matrix)
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(sym))
    except np.linalg.LinAlgError as err:
        eigval = np.linalg.eigvalsh(sym)[0]
        raise NotPositiveDefiniteError(
            f"matrix not positive definite (smallest eigenvalue {eigval:.6g})"
        ) from err
    return _sym(chol_inv.T @ chol_inv)


def _sym_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric (possibly indefinite) matrix."""
    return np.linalg.inv(_sym(matrix))


def sigma_tilde_precision(A: np.ndarray, Sigma_y: np.ndarray,
                          Sigma_theta: np.ndarray) -> np.ndarray:
    """Updated covariance from the three-term precision form."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    sy_inv = chol_inverse(Sigma_y)
    st_inv = chol_inverse(Sigma_theta)
    push_inv = chol_inverse(A @ _sym(Sigma_theta) @ A.T)
    precision = _sym(A.T @ sy_inv @ A - A.T @ push_inv @ A + st_inv)
    eigvals = np.linalg.eigvalsh(precision)
    if eigvals[0] <= 0.0:
        raise NotPositiveDefiniteError(
            "updated covariance is indefinite (predictability failure): "
            f"precision eigenvalue {eigvals[0]:.6g} <= 0"
        )
    return chol_inverse(precision)


def sigma_tilde_woodbury(A: np.ndarray, Sigma_y: np.ndarray,
                         Sigma_theta: np.ndarray) -> np.ndarray:
    """Updated covariance from the rank-q downdate form.

    Equal to :func:`sigma_tilde_precision` where ``Sigma_y^-1 - (A Sigma_theta
    A^T)^-1`` is invertible, which fails when an update leaves a direction
    as it was; so only the test suite checks the two forms against each other.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Sigma_theta = _sym(Sigma_theta)
    push = _sym(A @ Sigma_theta @ A.T)
    middle = _sym_inverse(chol_inverse(Sigma_y) - chol_inverse(push)) + push
    correction = Sigma_theta @ A.T @ np.linalg.solve(_sym(middle), A @ Sigma_theta)
    return _sym(Sigma_theta - correction)


def update_gain(A: np.ndarray, Sigma_theta: np.ndarray) -> np.ndarray:
    """``K = Sigma A^T (A Sigma A^T)^-1``, the regression of theta on ``A theta``."""
    return Sigma_theta @ A.T @ chol_inverse(A @ Sigma_theta @ A.T)


def bjw_gaussian_linear(A, mu_y, Sigma_y, mu_theta, Sigma_theta) -> GaussianParams:
    """Exact ratio-form update of a Gaussian initial density under a linear map.

    Returns the Gaussian whose image under ``A`` is exactly
    ``N(mu_y, Sigma_y)``.  The covariance is computed from the precision
    form and cross-checked against the change-of-variables form
    ``Sigma + K (Sigma_y - A Sigma A^T) K^T`` with ``K`` of :func:`update_gain`:
    the initial's conditional law given ``A theta``, with ``A theta``
    redrawn from ``N(mu_y, Sigma_y)``.  The
    pushforward identities ``A mu = mu_y`` and ``A Sigma A^T = Sigma_y``
    are verified before returning.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    mu_y = np.atleast_1d(np.asarray(mu_y, dtype=float))
    mu_theta = np.atleast_1d(np.asarray(mu_theta, dtype=float))
    Sigma_y = np.atleast_2d(np.asarray(Sigma_y, dtype=float))
    Sigma_theta = np.atleast_2d(np.asarray(Sigma_theta, dtype=float))
    q, p = A.shape
    if np.linalg.matrix_rank(A) < q:
        raise RankDeficiencyError("map matrix must have full row rank")

    sigma = sigma_tilde_precision(A, Sigma_y, Sigma_theta)
    gain = update_gain(A, Sigma_theta)
    sigma_alt = Sigma_theta + gain @ (Sigma_y - A @ Sigma_theta @ A.T) @ gain.T
    # internal guards are loose sanity checks (wrong algebra errs at O(1));
    # the tight 1e-10 identities are asserted by the test suite on
    # well-conditioned instances
    scale = max(1.0, np.max(np.abs(sigma)))
    mismatch = np.max(np.abs(sigma - sigma_alt))
    if mismatch > 1e-6 * scale:
        raise ArithmeticError(
            f"covariance forms disagree by {mismatch:.3e}; inputs are ill-conditioned"
        )

    sy_inv = chol_inverse(Sigma_y)
    mu = sigma @ (A.T @ (sy_inv @ (mu_y - A @ mu_theta))) + mu_theta

    push_mu = A @ mu
    push_sigma = A @ sigma @ A.T
    if np.max(np.abs(push_mu - mu_y)) > 1e-6 * max(1.0, np.max(np.abs(mu_y))):
        raise ArithmeticError("pushforward mean identity violated")
    if np.max(np.abs(push_sigma - Sigma_y)) > 1e-6 * max(1.0, np.max(np.abs(Sigma_y))):
        raise ArithmeticError("pushforward covariance identity violated")
    return GaussianParams(mean=mu, cov=sigma)


def pushforward_gaussian_linear(initial: GaussianParams, A) -> GaussianParams:
    """Image N(A mu, A Sigma A^T) of a Gaussian under a full-row-rank linear map."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if np.linalg.matrix_rank(A) < A.shape[0]:
        raise RankDeficiencyError("pushforward covariance would be singular")
    return GaussianParams(mean=A @ initial.mean, cov=_sym(A @ initial.cov @ A.T))


# ---------------------------------------------------------------------------
# Replicate-mean estimation through an augmented noise map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StochasticMapSpec:
    """Inputs for mean estimation with n replicate observables.

    The unknowns are (M, E_1, ..., E_n); the map sends them to
    M * 1_n + E.  ``mu_y`` holds the n observable means; all three
    variances are scalar.
    """

    n: int
    mu_y: np.ndarray
    sigma_y2: float
    mu0: float
    sigma02: float
    sigma_eps2: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1 replicates, got {self.n}")
        mu_y = np.atleast_1d(np.asarray(self.mu_y, dtype=float))
        if mu_y.shape != (self.n,):
            raise ValueError(f"mu_y must have length n={self.n}, got {mu_y.shape}")
        for label, value in (("sigma_y2", self.sigma_y2), ("sigma02", self.sigma02),
                             ("sigma_eps2", self.sigma_eps2)):
            if value <= 0:
                raise ValueError(f"{label} must be positive, got {value}")
        object.__setattr__(self, "mu_y", mu_y)


def mean_replicate_matrix(n: int) -> np.ndarray:
    """The n x (n+1) map matrix [1_n | I_n] sending (m, e) to m*1 + e."""
    return np.hstack([np.ones((n, 1)), np.eye(n)])


def stochastic_map_constants(spec: StochasticMapSpec) -> dict:
    """The seven scalar constants of the closed-form replicate-mean solution.

    Written in precisions (tau = 1/sigma^2), mirroring the derivation term
    by term so the comparison against the generic matrix formula is a
    genuine two-route check.
    """
    n = spec.n
    tau_eps = 1.0 / spec.sigma_eps2
    tau_0 = 1.0 / spec.sigma02
    tau_y = 1.0 / spec.sigma_y2
    sigma_y2 = spec.sigma_y2

    c1 = tau_eps**2 / (n * tau_eps + tau_0)
    c2 = tau_eps * tau_0 / (n * tau_eps + tau_0)
    c3 = tau_y - c2
    c4 = tau_eps**2 / (n * tau_eps + tau_0) - c3**2 / (n * c3 + tau_0)
    c5 = sigma_y2**2 * c4 / (n * sigma_y2 * c4 + 1.0)
    c6 = -c3 * (sigma_y2 - n * c5) / (n * c3 + tau_0)
    c7 = 1.0 / (n * c3 + tau_0) + n * c3**2 * (sigma_y2 - n * c5) / (n * c3 + tau_0) ** 2
    return {"c1": c1, "c2": c2, "c3": c3, "c4": c4, "c5": c5, "c6": c6, "c7": c7,
            "tau_eps": tau_eps, "tau_0": tau_0, "tau_y": tau_y}


def stochastic_map_mean_solution(spec: StochasticMapSpec) -> GaussianParams:
    """Closed-form (n+1)-dimensional solution for (M, E_1, ..., E_n)."""
    n = spec.n
    c = stochastic_map_constants(spec)
    tau_y, tau_0 = c["tau_y"], c["tau_0"]
    sigma_y2 = spec.sigma_y2
    ones = np.ones(n)

    cov = np.empty((n + 1, n + 1))
    cov[0, 0] = c["c7"]
    cov[0, 1:] = c["c6"]
    cov[1:, 0] = c["c6"]
    cov[1:, 1:] = sigma_y2 * np.eye(n) - c["c5"] * np.outer(ones, ones)

    mu_bar = float(spec.mu_y.mean())
    mean = np.empty(n + 1)
    mean[0] = (n * c["c6"] + n * c["c7"]) * tau_y * mu_bar + (
        -n * c["c2"] * c["c6"] + c["c7"] * (tau_0 - n * c["c2"])
    ) * spec.mu0
    mean[1:] = (
        spec.mu_y
        + (n * c["c6"] - n * c["c5"]) * tau_y * mu_bar * ones
        + (-c["c2"] * sigma_y2 + n * c["c2"] * c["c5"] + c["c6"] * (tau_0 - n * c["c2"]))
        * spec.mu0
        * ones
    )
    return GaussianParams(mean=mean, cov=cov)


# ---------------------------------------------------------------------------
# Linear pullbacks and the flat-prior regression comparison
# ---------------------------------------------------------------------------


def cov_linear_gaussian(A_aug, y_dist: GaussianParams) -> GaussianParams:
    """Exact Gaussian pullback N(A^-1 mu, A^-1 Sigma A^-T) through a square map."""
    A_aug = np.atleast_2d(np.asarray(A_aug, dtype=float))
    if A_aug.shape[0] != A_aug.shape[1]:
        raise ValueError(f"augmented matrix must be square, got {A_aug.shape}")
    try:
        inv = np.linalg.inv(A_aug)
    except np.linalg.LinAlgError as err:
        raise RankDeficiencyError("augmented matrix is singular") from err
    return GaussianParams(mean=inv @ y_dist.mean, cov=_sym(inv @ y_dist.cov @ inv.T))


def flat_prior_regression_posterior(X, y_obs, sigma2: float) -> GaussianParams:
    """Gaussian posterior under a flat prior: N((X'X)^-1 X'y, sigma^2 (X'X)^-1)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y_obs = np.atleast_1d(np.asarray(y_obs, dtype=float))
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise RankDeficiencyError("design matrix must have full column rank")
    xtx_inv = chol_inverse(X.T @ X)
    return GaussianParams(mean=xtx_inv @ (X.T @ y_obs), cov=_sym(sigma2 * xtx_inv))


def regression_predictive(posterior: GaussianParams, x_star: float) -> GaussianParams:
    """One-dimensional image of a 2-d intercept/slope Gaussian at covariate x_star."""
    if posterior.dim != 2:
        raise ValueError(f"posterior must be 2-dimensional, got dim {posterior.dim}")
    v = np.array([1.0, float(x_star)])
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = v @ posterior.mean, v @ posterior.cov @ v
    if not np.isfinite(var):
        raise ValueError(f"predictive variance at x_star = {x_star} is not finite ({var})")
    return GaussianParams(mean=np.array([mean]), cov=np.array([[var]]))
