"""Solution classes for pushforward-matching inverse problems.

Four routes to a parameter density whose image under the forward map equals
a prescribed observable density: exact change-of-variables for square maps
(with the mixture family over many-to-one branches), Monte Carlo sampling
with trailing coordinates drawn independently, contour-slab and polar-arc
constructions for the two linear/quadratic worked examples, and ratio-form
updates of an initial density (exact or KDE-approximated) with rejection
sampling.

Every solution draws through ``sample(n, seed) -> (n, p)``, which records its
counters in ``diagnostics``: row by row for the root-solving and contour
solutions (:func:`_row_sampler`), by lockstep rejection for ratio-form ones
(:func:`bjw_density`).  Row i draws from its own generator stream
(seed, kind, i), so results depend only on (seed, row count).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .densities import (
    Density,
    MixtureWeights,
    Support,
    fit_kde,
    make_gaussian,
)
from .errors import (
    DomainError,
    NonConvergenceError,
    NoSolutionError,
    PredictabilityError,
)
from .forward_maps import (
    ForwardMap,
    domain_probe_points,
    eval_batch,
    jacobian_at,
    jacobian_batch,
    null_space_rows,
)
from .gaussian_algebra import pushforward_gaussian_linear
from .sampling import (
    KIND_FIT,
    KIND_PILOT,
    KIND_PROBE,
    KIND_ROWS,
    SampleBatch,
    rng_for,
    theta_labels,
)

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
ROW_RETRIES = 10
PILOT_SIZE = 512
REJECTION_MAX_PROPOSALS = 100_000  # per row
FAILURE_WARN_RATE = 0.05


@dataclass
class SipSolution:
    """A solved inverse problem: a density, provenance, and diagnostics.

    ``sample`` is set by every solver: a callable ``(n, seed) -> (n, p)
    array`` with deterministic per-row streams, which records the counters
    of its last draw in ``diagnostics``.  Ratio-form solutions keep their
    building blocks in ``parts`` so the rejection sampler can reuse them.
    """

    density: Density
    method: str
    sample: object = None
    diagnostics: dict = field(default_factory=dict)
    parts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Newton machinery
# ---------------------------------------------------------------------------


def newton_solve(fmap: ForwardMap, y_target, theta_tail=None, theta0=None,
                 tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAX_ITER,
                 return_iterations: bool = False):
    """Solve g(theta_head, theta_tail) = y_target for the leading q coordinates.

    Damped Newton iteration on the left q x q Jacobian block with step
    halving; converged when the residual infinity norm is below
    ``tol * (1 + ||y||_inf)``.  Raises ``NonConvergenceError`` when the
    iteration budget is exhausted or the iterate leaves the domain, so
    callers can retry from a new start.
    """
    q = fmap.q
    y_target = np.atleast_1d(np.asarray(y_target, dtype=float))
    tail = np.atleast_1d(np.asarray(theta_tail, dtype=float)) if theta_tail is not None \
        else np.empty(0)
    if tail.shape[0] != fmap.p - q:
        raise ValueError(f"theta_tail must have length {fmap.p - q}, got {tail.shape[0]}")
    if theta0 is None:
        lo = np.maximum(fmap.domain.lower[:q], -1.0)
        hi = np.minimum(fmap.domain.upper[:q], 1.0)
        head = 0.5 * (lo + hi)
    else:
        head = np.array(np.atleast_1d(theta0)[:q], dtype=float)

    target_scale = 1.0 + np.max(np.abs(y_target))
    theta = np.concatenate([head, tail])
    resid = y_target - np.atleast_1d(fmap.func(theta))
    norm = np.max(np.abs(resid))
    iterations = 0
    while not (norm <= tol * target_scale):
        if iterations >= max_iter or not np.isfinite(norm):
            raise NonConvergenceError(
                f"no convergence after {iterations} iterations (residual {norm:.3e})"
            )
        jac_head = jacobian_at(fmap, theta)[:, :q]
        try:
            delta = np.linalg.solve(jac_head, resid)
        except np.linalg.LinAlgError as err:
            raise NonConvergenceError("singular Jacobian block at iterate") from err
        step = 1.0
        for _ in range(30):
            cand = theta.copy()
            cand[:q] = theta[:q] + step * delta
            cand_resid = y_target - np.atleast_1d(fmap.func(cand))
            cand_norm = np.max(np.abs(cand_resid))
            if np.isfinite(cand_norm) and cand_norm < norm:
                theta, resid, norm = cand, cand_resid, cand_norm
                break
            step *= 0.5
        else:
            raise NonConvergenceError("step halving failed to reduce the residual")
        iterations += 1

    if not fmap.domain.contains(theta.reshape(1, -1))[0]:
        raise NonConvergenceError("converged to a point outside the domain")
    if return_iterations:
        return theta[:q], iterations
    return theta[:q]


def _draw_start(rng: np.random.Generator, fmap: ForwardMap, q: int) -> np.ndarray:
    # uniform on the head block of the domain box; standard normal on
    # unbounded coordinates
    lo = fmap.domain.lower[:q]
    hi = fmap.domain.upper[:q]
    finite = np.isfinite(lo) & np.isfinite(hi)
    out = np.empty(q)
    u = rng.random(q)
    z = rng.standard_normal(q)
    out[finite] = lo[finite] + u[finite] * (hi[finite] - lo[finite])
    out[~finite] = z[~finite]
    return out


def _solve_rows(attempt, m: int, seed: int, retries: int = ROW_RETRIES,
                pilot: int = PILOT_SIZE, label: str = "solver"):
    """Run ``attempt(rng) -> row | None`` per row with retry/drop bookkeeping."""

    def row_fn(rng):
        for k in range(retries):
            row = attempt(rng)
            if row is not None:
                return row, k
        return None, retries

    if pilot:
        pilot_rows = [row_fn(rng_for(seed, KIND_PILOT, i)) for i in range(pilot)]
        bad = sum(1 for row, _ in pilot_rows if row is None)
        if bad:
            raise NoSolutionError(
                f"{label}: {bad}/{pilot} pilot draws from the observable density "
                "had no solvable pre-image; the map range may not cover the support"
            )

    results = [row_fn(rng_for(seed, KIND_ROWS, i)) for i in range(m)]
    rows = [row for row, _ in results]
    retries_used = sum(k for _, k in results)
    kept = [r for r in rows if r is not None]
    failures = m - len(kept)
    failure_rate = failures / m if m else 0.0
    if failure_rate > FAILURE_WARN_RATE:
        warnings.warn(
            f"{label}: {failures}/{m} rows dropped after {retries} retries each",
            RuntimeWarning,
        )
    data = np.vstack(kept) if kept else np.empty((0, 0))
    diag = {
        "rows_requested": m,
        "rows_returned": len(kept),
        "failures": failures,
        "failure_rate": failure_rate,
        "retries": retries_used,
        "seed": seed,
    }
    return data, diag


def _row_sampler(solution: SipSolution, attempt, label: str,
                 pilot: int = PILOT_SIZE) -> SipSolution:
    """Attach ``sample(n, seed)``, which solves n rows with ``attempt``."""

    def sample(n, seed):
        # looked up by module-global name, so perfbench's tracer sees each draw
        data, diag = _solve_rows(attempt, n, seed, pilot=pilot, label=label)
        solution.diagnostics.update(diag)
        return data

    solution.sample = sample
    return solution


# ---------------------------------------------------------------------------
# Exact change-of-variables solutions (p = q)
# ---------------------------------------------------------------------------


def cov_exact(fmap: ForwardMap, f_y: Density) -> SipSolution:
    """Exact pullback density f_Y(g(theta)) |det dg/dtheta| for square maps.

    Requires the map to be one-to-one on its domain (the density is only
    normalized in that case; many-to-one maps belong to
    :func:`cov_mixture_family`).  The sampler draws an observable value
    and root-solves the map from a uniform start in the domain box.
    """
    if fmap.p != fmap.q:
        raise ValueError(
            f"exact pullback needs p = q (got p={fmap.p}, q={fmap.q}); "
            "use intuitive_sample or a ratio-form update instead"
        )

    def log_pdf_fn(pts):
        dets = np.abs(np.linalg.det(jacobian_batch(fmap, pts)))
        with np.errstate(divide="ignore"):
            return f_y.log_pdf(eval_batch(fmap, pts)) + np.log(dets)

    density = Density(fmap.p, fmap.domain, log_pdf_fn=log_pdf_fn,
                      name=f"cov[{fmap.name}]")

    def attempt(rng):
        y = f_y.sample(rng, 1)[0]
        start = _draw_start(rng, fmap, fmap.q)
        try:
            return newton_solve(fmap, y, theta0=start)
        except NonConvergenceError:
            return None

    return _row_sampler(SipSolution(density, "CoV"), attempt, "cov_exact")


@dataclass(frozen=True)
class Branch:
    """One invertible piece of a many-to-one map.

    ``member`` takes (n, p) points to a boolean mask; ``inverse`` maps one
    observable point back into this piece.  One-to-one pieces (weight
    fixed at 1) are marked ``weighted=False``.
    """

    member: object
    inverse: object
    weighted: bool = True


@dataclass(frozen=True)
class DomainPartition:
    branches: tuple

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))

    @property
    def n_weighted(self) -> int:
        return sum(1 for b in self.branches if b.weighted)


def cov_mixture_family(fmap: ForwardMap, f_y: Density, partition: DomainPartition,
                       w: MixtureWeights) -> SipSolution:
    """The weighted family of exact solutions over a many-to-one partition.

    Pieces whose images overlap share the mixture weights; pieces where the
    map is one-to-one carry weight 1.  Every member of the family pushes
    forward to the same observable density.
    """
    if fmap.p != fmap.q:
        raise ValueError("mixture family requires a square map")
    if not isinstance(w, MixtureWeights):
        w = MixtureWeights(np.asarray(w, dtype=float))
    if len(w) != partition.n_weighted:
        raise ValueError(
            f"{len(w)} weights for {partition.n_weighted} weighted branches"
        )

    branch_weight = []
    idx = 0
    for branch in partition.branches:
        if branch.weighted:
            branch_weight.append(float(w.weights[idx]))
            idx += 1
        else:
            branch_weight.append(1.0)

    probes = domain_probe_points(fmap, count=32)
    membership = np.stack([np.asarray(b.member(probes), dtype=bool)
                           for b in partition.branches])
    if np.any(membership.sum(axis=0) > 1):
        raise ValueError("branch membership predicates overlap on probe points")

    def log_pdf_fn(pts):
        weight = np.zeros(pts.shape[0])
        for wt, branch in zip(branch_weight, partition.branches):
            mask = np.asarray(branch.member(pts), dtype=bool)
            weight[mask] = wt
        dets = np.abs(np.linalg.det(jacobian_batch(fmap, pts)))
        with np.errstate(divide="ignore"):
            return f_y.log_pdf(eval_batch(fmap, pts)) + np.log(dets) + np.log(weight)

    density = Density(fmap.p, fmap.domain, log_pdf_fn=log_pdf_fn,
                      name=f"cov_mixture[{fmap.name}]")

    def attempt(rng):
        y = f_y.sample(rng, 1)[0]
        candidates = []
        weights = []
        for wt, branch in zip(branch_weight, partition.branches):
            theta = np.atleast_1d(np.asarray(branch.inverse(y), dtype=float))
            pt = theta.reshape(1, -1)
            if branch.member(pt)[0] and fmap.domain.contains(pt)[0]:
                candidates.append(theta)
                weights.append(wt)
        if not candidates:
            return None
        weights = np.asarray(weights)
        total = weights.sum()
        if total <= 0:  # this family member puts no mass on y's pre-images
            return None
        pick = rng.choice(len(candidates), p=weights / total)
        return candidates[pick]

    return _row_sampler(SipSolution(density, "CoV-mixture"), attempt, "cov_mixture")


# ---------------------------------------------------------------------------
# Intuitive Monte Carlo solutions (p >= q)
# ---------------------------------------------------------------------------


def intuitive_sample(fmap: ForwardMap, f_y: Density,
                     f_aux: Density | None) -> SipSolution:
    """The solution whose trailing p - q coordinates are drawn freely.

    Per row of ``sample(n, seed)``: draw the observable value and the
    trailing coordinates independently, then root-solve for the leading
    block.  The observable image of the output is independent of the
    trailing coordinates by construction.  Rows that fail Newton after
    retries (fresh draws each time) are dropped and counted; a 512-draw
    pilot makes ``sample`` raise ``NoSolutionError`` early when the
    observable support is unreachable.
    """
    p, q = fmap.p, fmap.q
    n_aux = p - q
    if n_aux == 0:
        if f_aux is not None:
            raise ValueError("map is square; f_aux must be None")
    elif f_aux is None or f_aux.dim != n_aux:
        got = None if f_aux is None else f_aux.dim
        raise ValueError(f"f_aux must have dimension p - q = {n_aux}, got {got}")

    def attempt(rng):
        y = f_y.sample(rng, 1)[0]
        tail = f_aux.sample(rng, 1)[0] if n_aux else np.empty(0)
        start = _draw_start(rng, fmap, q)
        try:
            head = newton_solve(fmap, y, theta_tail=tail, theta0=start)
        except NonConvergenceError:
            return None
        return np.concatenate([head, tail])

    def log_pdf_fn(pts):
        jac_head = jacobian_batch(fmap, pts)[:, :, :q]
        dets = np.abs(np.linalg.det(jac_head))
        with np.errstate(divide="ignore"):
            out = f_y.log_pdf(eval_batch(fmap, pts)) + np.log(dets)
        if n_aux:
            out = out + f_aux.log_pdf(pts[:, q:])
        return out

    density = Density(p, fmap.domain, log_pdf_fn=log_pdf_fn,
                      name=f"intuitive[{fmap.name}]")
    return _row_sampler(SipSolution(density, "Intuitive"), attempt, "intuitive_sample")


# ---------------------------------------------------------------------------
# Contour-slab (linear) and polar-arc (quadratic) constructions
# ---------------------------------------------------------------------------


def bbe_linear(A, f_y: Density, bounds=None) -> SipSolution:
    """Solution for g(theta) = A theta with uniform mass on contour slabs.

    The observable coordinate is t = A theta; the null-space coordinate
    c = A_perp theta is uniform on the box [l, u].  With constant bounds
    the density is fully normalized:
    f(theta) = f_Y(A theta) * prod(u - l)^-1 * |det [A; A_perp]| on the slab.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    q, p = A.shape
    perp = null_space_rows(A)
    n_aux = p - q
    if n_aux == 0:
        aug = A
        lower = np.empty(0)
        upper = np.empty(0)
    else:
        if bounds is None:
            raise ValueError("bounds (l, u) required when p > q")
        lower = np.atleast_1d(np.asarray(bounds[0], dtype=float))
        upper = np.atleast_1d(np.asarray(bounds[1], dtype=float))
        if lower.shape[0] != n_aux or upper.shape[0] != n_aux:
            raise ValueError(f"bounds must have length p - q = {n_aux}")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("slab bounds must be finite")
        if np.any(lower >= upper):
            raise ValueError("need l < u in every contour coordinate")
        aug = np.vstack([A, perp])

    log_det = float(np.log(np.abs(np.linalg.det(aug))))
    log_slab = -float(np.sum(np.log(upper - lower))) if n_aux else 0.0
    # precomputed inverse: [A; A_perp] is well conditioned by construction,
    # so one matvec per row is as accurate as a solve
    aug_inv = np.linalg.inv(aug)

    def indicator(pts):
        if n_aux == 0:
            return np.ones(pts.shape[0], dtype=bool)
        c = pts @ perp.T
        return np.all((c >= lower) & (c <= upper), axis=1)

    support = Support(np.full(p, -np.inf), np.full(p, np.inf), indicator=indicator)

    def log_pdf_fn(pts):
        return f_y.log_pdf(pts @ A.T) + log_slab + log_det

    density = Density(p, support, log_pdf_fn=log_pdf_fn, name="bbe_linear")

    def attempt(rng):
        y = f_y.sample(rng, 1)[0]
        if n_aux:
            c = lower + rng.random(n_aux) * (upper - lower)
            rhs = np.concatenate([y, c])
        else:
            rhs = y
        return aug_inv @ rhs

    return _row_sampler(SipSolution(density, "BBE"), attempt, "bbe_linear", pilot=0)


def polar_arc(r):
    """Admissible polar-angle interval (phi1, phi2) at radius r on the unit square.

    The full quarter arc (0, pi/2) for r <= 1; the corner-clipped arc for
    1 < r <= sqrt(2), collapsing to a point at r = sqrt(2).
    """
    r = np.asarray(r, dtype=float)
    excess = np.sqrt(np.maximum(r * r - 1.0, 0.0))
    phi1 = np.where(r <= 1.0, 0.0, np.arctan2(excess, 1.0))
    phi2 = np.where(r <= 1.0, 0.5 * np.pi, np.arctan2(1.0, excess))
    return phi1, phi2


def angular_conditional(phi, r):
    """Uniform-on-arc conditional density of the polar angle given the radius.

    Evaluates to the closed-boundary limit on the arc endpoints (the square's
    edges), which keeps quadrature over the closed square accurate.
    """
    phi = np.asarray(phi, dtype=float)
    r = np.asarray(r, dtype=float)
    phi1, phi2 = polar_arc(r)
    width = phi2 - phi1
    inside = (phi >= phi1) & (phi <= phi2) & (r > 0) & (r <= math.sqrt(2.0)) & (width > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where(inside, 1.0 / np.where(width > 0, width, 1.0), 0.0)
    return dens


def bbe_polar(f_y: Density) -> SipSolution:
    """Solution for g(theta) = (theta1^2 + theta2^2)/2 on the unit square.

    Radius plays the observable-indexing coordinate, polar angle the
    contour coordinate with a uniform distribution on the admissible arc.
    """
    if f_y.dim != 1:
        raise ValueError("observable density must be one-dimensional")
    if f_y.support.lower[0] < 0.0 or f_y.support.upper[0] > 1.0:
        raise DomainError(
            "observable support must lie within (0, 1): the map's range on "
            f"the unit square is (0, 1], got [{f_y.support.lower[0]}, "
            f"{f_y.support.upper[0]}]"
        )

    support = Support([0.0, 0.0], [1.0, 1.0])

    def log_pdf_fn(pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        y = 0.5 * r * r
        with np.errstate(divide="ignore"):
            return f_y.log_pdf(y) + np.log(angular_conditional(phi, r))

    density = Density(2, support, log_pdf_fn=log_pdf_fn, name="bbe_polar")

    def attempt(rng):
        y = f_y.sample(rng, 1)[0, 0]
        r = math.sqrt(2.0 * y)
        phi1, phi2 = polar_arc(r)
        phi = phi1 + rng.random() * (phi2 - phi1)
        return np.array([r * math.cos(phi), r * math.sin(phi)])

    return _row_sampler(SipSolution(density, "BBE"), attempt, "bbe_polar", pilot=0)


# ---------------------------------------------------------------------------
# Ratio-form updates of an initial density
# ---------------------------------------------------------------------------


def pushforward_density(initial: Density, fmap: ForwardMap) -> Density:
    """Analytic pushforward of the initial density, when one is available."""
    if initial.gaussian is not None and fmap.matrix is not None:
        return make_gaussian(pushforward_gaussian_linear(initial.gaussian, fmap.matrix))
    raise ValueError(
        "no analytic pushforward for this (density, map) pair; estimate one "
        "with kde_pushforward instead"
    )


def kde_pushforward(initial: Density, fmap: ForwardMap, m: int, seed: int,
                    bandwidth=None) -> Density:
    """KDE estimate of the pushforward from m mapped draws of the initial density.

    The draws come from the stream (seed, KIND_FIT, 0), so they are
    independent of the row streams that rejection sampling of the updated
    density proposes from.
    """
    theta = initial.sample(rng_for(seed, KIND_FIT, 0), m)
    return fit_kde(eval_batch(fmap, theta), bandwidth=bandwidth)


def bjw_density(initial: Density, fmap: ForwardMap, f_y: Density,
                pushforward: Density, method: str = None,
                proposal: Density = None) -> SipSolution:
    """Ratio-form solution: initial(theta) * f_Y(g(theta)) / pushforward(g(theta)).

    Exact when ``pushforward`` is the true image of the initial density;
    approximate when it is a KDE estimate.  The returned density is left
    unnormalized (it integrates to one only in the exact case).  Its
    ``sample(n, seed)`` draws by :func:`bjw_rejection_sample` against
    ``proposal``, which defaults to ``initial``; a chained update, whose
    initial is itself ratio-form and has no sampler, passes a sampleable
    ancestor instead.
    """
    if method is None:
        method = "BJW-KDE" if pushforward.name == "kde" else "BJW-analytic"

    def pdf_fn(pts):
        images = eval_batch(fmap, pts)
        numer = initial.pdf(pts) * f_y.pdf(images)
        denom = pushforward.pdf(images)
        bad = (numer > 0) & (denom <= 0)
        if np.any(bad):
            where = pts[np.argmax(bad)]
            raise PredictabilityError(
                f"pushforward density vanishes where the numerator is positive "
                f"(theta={where}); the observable density is not predictable "
                "from the initial one"
            )
        out = np.zeros(pts.shape[0])
        ok = numer > 0
        out[ok] = numer[ok] / denom[ok]
        return out

    density = Density(initial.dim, initial.support, pdf_fn=pdf_fn,
                      name=f"bjw[{fmap.name}]")
    solution = SipSolution(density=density, method=method,
                           parts={"proposal": initial if proposal is None else proposal,
                                  "f_y": f_y, "pushforward": pushforward})
    solution.sample = lambda n, seed: bjw_rejection_sample(solution, n, seed).data
    return solution


def bjw_rejection_sample(solution: SipSolution, m: int, seed: int,
                         pilot: int = PILOT_SIZE) -> SampleBatch:
    """Draw from a ratio-form solution by rejection against its proposal density.

    The proposal is ``solution.parts["proposal"]``, set by
    :func:`bjw_density`: the initial density, or the sampleable ancestor
    given there for a chained update.  The bound is 1.2 times the largest
    pilot ratio; if a later proposal exceeds it, the bound is doubled and
    the whole run redone (with a warning), keeping the output deterministic
    in (seed, m).

    Row i proposes and accepts from its own stream (seed, KIND_ROWS, i).  All
    pending rows advance in lockstep: each round draws one proposal per
    row, scores the round with one ratio evaluation, and draws one
    uniform per row, so every stream is consumed exactly as if the rows
    ran one after another.
    """
    parts = solution.parts
    if not {"proposal", "f_y", "pushforward"} <= parts.keys():
        raise ValueError("solution was not built by bjw_density")
    proposal = parts["proposal"]
    if not proposal.has_sampler:
        raise ValueError(
            "proposal density has no sampler; pass a sampleable proposal to "
            "bjw_density (e.g. the original initial density of a chained update)"
        )
    f_y, pushforward = parts["f_y"], parts["pushforward"]

    def ratio(theta_rows):
        numer = solution.density.pdf(theta_rows)  # raises on predictability violation
        denom = proposal.pdf(theta_rows)
        out = np.zeros(theta_rows.shape[0])
        ok = denom > 0
        out[ok] = numer[ok] / denom[ok]
        return out

    # predictability probe on observable draws
    if f_y.has_sampler:
        probe_y = f_y.sample(rng_for(seed, KIND_PROBE, 0), pilot)
        mass = pushforward.pdf(probe_y)
        if np.any(mass <= 0):
            raise PredictabilityError(
                "observable draws fall outside the pushforward support "
                f"({int(np.sum(mass <= 0))}/{pilot} probe draws)"
            )

    pilot_ratios = ratio(proposal.sample(rng_for(seed, KIND_PILOT, 0), pilot))
    peak = float(pilot_ratios.max())
    if peak <= 0:
        raise PredictabilityError(
            "all pilot ratios are zero; the observable density has no mass "
            "on the initial pushforward"
        )
    bound = 1.2 * peak

    while True:
        accepted, n_proposals, over = _reject_rows(proposal, ratio, bound, m, seed)
        if not over:
            break
        warnings.warn(
            f"observed ratio exceeded bound {bound:.6g}; doubling and "
            "redoing the run",
            RuntimeWarning,
        )
        bound *= 2.0

    solution.diagnostics.update({
        "acceptance_rate": m / n_proposals if n_proposals else float("nan"),
        "proposals": n_proposals,
        "bound": bound,
        "seed": seed,
    })
    return SampleBatch(data=accepted, labels=theta_labels(proposal.dim), seed=seed)


def _reject_rows(proposal: Density, ratio, bound: float, m: int, seed: int):
    """One rejection pass over m rows; returns (rows, proposals, over bound).

    A row ends at its first accepted proposal, or at its first proposal
    whose ratio exceeds the bound (which flags the whole pass as over).
    """
    rngs = [rng_for(seed, KIND_ROWS, i) for i in range(m)]
    out = np.empty((m, proposal.dim))
    pending = list(range(m))
    n_proposals = 0
    over = False
    for _ in range(REJECTION_MAX_PROPOSALS):
        if not pending:
            break
        theta = np.vstack([proposal.sample(rngs[i], 1) for i in pending])
        n_proposals += len(pending)
        still = []
        for i, row, r in zip(pending, theta, ratio(theta).tolist()):
            if r > bound:
                over = True
                out[i] = row
            elif rngs[i].random() * bound <= r:
                out[i] = row
            else:
                still.append(i)
        pending = still
    if pending:
        raise NonConvergenceError(
            f"rejection sampler gave up: {len(pending)} of {m} rows accepted none "
            f"of {REJECTION_MAX_PROPOSALS} proposals at bound {bound:.6g}; the "
            "ratio is likely unbounded under the proposal, so no finite bound "
            "accepts at a usable rate"
        )
    return out, n_proposals, over


def bjw_sequential_update(initial: Density, fmap: ForwardMap, f_y1: Density,
                          f_y2: Density, initial_pushforward: Density = None):
    """Update twice (first with f_y1, then f_y2) and once (f_y2 only).

    The intermediate solution pushes forward exactly to f_y1, so the second
    update divides it out again: the double update equals the single update
    with the last observable density, pointwise.  Returns (single, double).
    """
    if initial_pushforward is None:
        initial_pushforward = pushforward_density(initial, fmap)
    single = bjw_density(initial, fmap, f_y2, initial_pushforward)
    intermediate = bjw_density(initial, fmap, f_y1, initial_pushforward)
    double = bjw_density(intermediate.density, fmap, f_y2, f_y1,
                         method=intermediate.method, proposal=initial)
    return single, double
