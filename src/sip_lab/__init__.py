"""Parameter densities that push forward to a prescribed observable density.

Library layout:

- ``densities``: density abstraction and concrete families (Gaussian,
  truncated Gaussian, beta, uniform, KDE)
- ``forward_maps``: maps evaluated in batches, with Jacobian access and
  null-space bases
- ``solvers``: exact change-of-variables (single branch and weighted
  branch families), independent-trailing-coordinate Monte Carlo,
  contour-slab / polar-arc constructions, and ratio-form updates, drawn
  as a change of variables when exact and linear-Gaussian, else by
  rejection
- ``gaussian_algebra``: every closed-form Gaussian result
- ``verification``: KS / energy-distance goodness of fit, grid comparison,
  quadrature normalization
- ``cli``: runnable examples writing CSV/JSON artifacts
"""

from .densities import (
    Density,
    GaussianParams,
    MixtureWeights,
    Support,
    draw,
    fit_kde,
    make_beta,
    make_gaussian,
    make_truncated_gaussian,
    make_uniform,
)
from .errors import (
    DomainError,
    NonConvergenceError,
    NoSolutionError,
    NotPositiveDefiniteError,
    PredictabilityError,
    RankDeficiencyError,
    SipLabError,
)
from .forward_maps import (
    ForwardMap,
    jacobian_at,
    linear_map,
    null_space_rows,
    polar_quadratic_map,
    square_map,
)
from .gaussian_algebra import (
    StochasticMapSpec,
    bjw_gaussian_linear,
    cov_linear_gaussian,
    flat_prior_regression_posterior,
    pushforward_gaussian_linear,
    regression_predictive,
    stochastic_map_mean_solution,
)
from .solvers import (
    Branch,
    SipSolution,
    bbe_linear,
    bbe_polar,
    bjw_density,
    bjw_rejection_sample,
    bjw_sequential_update,
    cov_exact,
    cov_mixture_family,
    intuitive_sample,
    kde_pushforward,
    newton_solve,
    pushforward_density,
)
from .verification import (
    CheckReport,
    GridSpec,
    energy_distance_test,
    grid_compare,
    ks_test_1d,
    normalization_check,
    pushforward_check,
)

__version__ = "0.1.0"
