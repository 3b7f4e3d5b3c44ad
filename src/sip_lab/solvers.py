"""Solution classes for pushforward-matching inverse problems.

Four routes to a parameter density whose image under the forward map equals
a prescribed observable density: exact change-of-variables for square maps
(with the mixture family over many-to-one branches), Monte Carlo sampling
with trailing coordinates drawn independently, contour-slab and polar-arc
constructions for the two linear/quadratic worked examples, and ratio-form
updates of an initial density (exact or KDE-approximated).  The first three,
and the exact ratio-form update of a Gaussian initial under a linear map, are
one change of variables, :func:`_change_of_variables`: each declares a map
theta -> (y, c) with its log Jacobian, a law f_C of c, and an inverse that
maps a block of drawn (y, c) rows back to theta at once (one damped Newton
where a root is needed).  Every other ratio-form update, such as one with an
estimated pushforward, draws by rejection against its initial density.

Every solution keeps the problem it solves, ``fmap`` and ``f_y``; ratio-form
ones (:func:`bjw_density`) also keep the ``initial`` density that rejection
proposes from and the ``pushforward`` it divides by.  Each draws through
``sample(n, seed) -> (n, p)``, which records its counters in ``diagnostics``;
results depend only on (seed, row count).  The row solvers advance the
pending rows of a block of ``ROW_BLOCK`` rows in lockstep through one loop,
:func:`_solve_rows`: a block draws its targets in one sampler call per
density, row i from stream (seed, KIND_ROWS, i), and block b's Newton starts
or branch picks come from stream (seed, KIND_INVERSE, b); a run's first
``PILOT_SIZE`` rows are its pilot.  Rejection (:func:`bjw_rejection_sample`)
draws block b from the one stream (seed, KIND_ROWS, b), one call of each kind
per round.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .densities import (
    Density,
    GaussianParams,
    MixtureWeights,
    fit_kde,
    make_gaussian,
    make_uniform,
)
from .errors import (
    DomainError,
    NonConvergenceError,
    NoSolutionError,
    NotPositiveDefiniteError,
    PredictabilityError,
)
from .forward_maps import (
    ForwardMap,
    domain_probe_points,
    eval_batch,
    jacobian_batch,
    linear_map,
    null_space_rows,
    polar_quadratic_map,
)
from .gaussian_algebra import bjw_gaussian_linear, pushforward_gaussian_linear, update_gain
from .sampling import (
    KIND_FIT,
    KIND_INVERSE,
    KIND_PILOT,
    KIND_PROBE,
    KIND_ROWS,
    RowStreams,
    rng_for,
    rng_streams,
)

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_HALVINGS = 30
ROW_RETRIES = 10
ROW_BLOCK = 4096  # rows whose target generators are live at once; one inverse or rejection stream
PILOT_SIZE = 512  # leading rows of a run that must each solve; rejection's pilot
REJECTION_MAX_PROPOSALS = 100_000  # proposals per row of a block before it gives up
REJECTION_MAX_DOUBLINGS = 10  # of the pilot bound, in all
FAILURE_WARN_RATE = 0.05
IMAGE_RTOL = 1e-12  # a Gaussian pushforward this close to the initial's image is exact


@dataclass
class SipSolution:
    """A solved inverse problem: a density, the problem it solves, and the
    change of variables it draws from.

    ``density.name`` names the solution.  Every solver sets ``fmap`` and
    ``f_y``, the forward map and the observable density that ``density``
    pushes forward to (up to the estimate, for an estimated pushforward).  A
    change of variables (:func:`_change_of_variables`) also sets ``forward``,
    ``(n, p) theta -> (y (n, q), c (n, p - q), log|det| (n,))``, its
    ``inverse``, ``(y, c, rng) -> (theta (k, p), ok (k,))``, the law ``f_c``
    of c (None when p = q) and the attempts per row, ``retries``.  Ratio-form
    solutions (:func:`bjw_density`) also keep the ``initial`` density that
    rejection proposes from, also when they draw directly, and the
    ``pushforward`` it divides by; the other routes leave both None.
    :meth:`sample` draws; each draw replaces ``diagnostics`` with its counters.
    """

    density: Density
    fmap: ForwardMap
    f_y: Density
    f_c: Density | None = None
    forward: object = None
    inverse: object = None
    retries: int = 1
    diagnostics: dict = field(default_factory=dict)
    initial: Density | None = None
    pushforward: Density | None = None

    def targets(self, rng, k: int):
        """A block's (y (k, q), c (k, p - q)): every y from f_Y, then every c from f_C."""
        y = self.f_y.sample(rng, k)
        return y, np.empty((k, 0)) if self.f_c is None else self.f_c.sample(rng, k)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """The (n, p) rows for ``seed``: through ``inverse`` row by row, or by
        :func:`bjw_rejection_sample` where there is none."""
        # both looked up by module-global name, so perfbench's tracer sees each draw
        if self.inverse is None:
            return bjw_rejection_sample(self, n, seed)
        data, self.diagnostics = _solve_rows(self.targets, self.inverse, n, seed,
                                             retries=self.retries, label=self.density.name)
        return data.reshape(-1, self.fmap.p)  # (0, p) when n is 0


# ---------------------------------------------------------------------------
# Newton machinery
# ---------------------------------------------------------------------------


def newton_solve(fmap: ForwardMap, y_target, theta_tail=None, theta0=None):
    """Solve g(theta_head, theta_tail) = y_target for the leading q coordinates.

    One row of :func:`_newton_rows`, started from ``theta0`` (by default the
    middle of the domain box clipped to [-1, 1]), to ``NEWTON_TOL`` within
    ``NEWTON_MAX_ITER`` iterations.  Raises ``NonConvergenceError`` when that
    row fails, so callers can retry from a new start.
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

    heads, ok, iterations = _newton_rows(fmap, y_target[None], tail[None], head[None])
    if not ok[0]:
        raise NonConvergenceError(
            f"damped Newton found no in-domain root of g = {y_target} from "
            f"{head} (stopped after {iterations[0]} iterations)"
        )
    return heads[0]


def _newton_rows(fmap: ForwardMap, y: np.ndarray, tail: np.ndarray, start: np.ndarray):
    """Damped Newton for k rows in lockstep: g(head_i, tail_i) = y_i.

    ``y`` is (k, q), ``tail`` (k, p - q) and ``start`` (k, q).  Each row runs
    Newton on the left q x q Jacobian block with step halving, converged
    when its residual infinity norm is below ``NEWTON_TOL * (1 + ||y_i||_inf)``.
    Every test is a mask over rows, so a row iterates exactly as it would
    alone: it fails when its iteration budget runs out, its residual is not
    finite, its Jacobian block is singular, ``NEWTON_HALVINGS`` halvings do
    not reduce its residual, or it converges outside the domain.  Returns (heads (k, q),
    ok (k,), iterations (k,)).
    """
    q = fmap.q
    theta = np.hstack([start, tail])
    threshold = NEWTON_TOL * (1.0 + np.max(np.abs(y), axis=1))
    resid = y - eval_batch(fmap, theta)
    norm = np.max(np.abs(resid), axis=1)
    ok = np.ones(theta.shape[0], dtype=bool)
    iterations = np.zeros(theta.shape[0], dtype=int)
    live = np.flatnonzero(~(norm <= threshold))
    while live.size:
        stuck = (iterations[live] >= NEWTON_MAX_ITER) | ~np.isfinite(norm[live])
        ok[live[stuck]] = False
        live = live[~stuck]
        if not live.size:
            break
        delta, solved = _solve_blocks(jacobian_batch(fmap, theta[live])[:, :, :q],
                                      resid[live])
        ok[live[~solved]] = False
        live, delta = live[solved], delta[solved]
        # step halving: rows leave ``search`` at their first improving step
        search = np.arange(live.size)
        step = 1.0
        for _ in range(NEWTON_HALVINGS):
            rows = live[search]
            cand = theta[rows]
            cand[:, :q] = theta[rows, :q] + step * delta[search]
            cand_resid = y[rows] - eval_batch(fmap, cand)
            cand_norm = np.max(np.abs(cand_resid), axis=1)
            better = np.isfinite(cand_norm) & (cand_norm < norm[rows])
            accepted = rows[better]
            theta[accepted], resid[accepted], norm[accepted] = \
                cand[better], cand_resid[better], cand_norm[better]
            search = search[~better]
            if not search.size:
                break
            step *= 0.5
        ok[live[search]] = False
        stepped = np.delete(live, search)
        iterations[stepped] += 1
        live = stepped[~(norm[stepped] <= threshold[stepped])]
    done = np.flatnonzero(ok)
    ok[done] = fmap.domain.contains(theta[done])
    return theta[:, :q], ok, iterations


def _solve_blocks(jac: np.ndarray, resid: np.ndarray):
    """Solve each (q, q) system of a stack; a singular one fails only its row."""
    try:
        return np.linalg.solve(jac, resid[:, :, None])[:, :, 0], \
            np.ones(jac.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        # det runs solve's LU, so an exact zero pivot, which fails solve, gives det 0
        solved = np.abs(np.linalg.det(jac)) > 0
        delta = np.zeros_like(resid)
        delta[solved] = np.linalg.solve(jac[solved], resid[solved][:, :, None])[:, :, 0]
        return delta, solved


def _solve_rows(draw, attempt, m: int, seed: int, retries: int = ROW_RETRIES,
                label: str = "solver"):
    """Solve m rows in lockstep with retry/drop bookkeeping.

    ``draw(rng, k)`` draws a block's k targets once, a tuple of (k, ...)
    arrays, from a :class:`RowStreams` over the streams ``rng_for(seed,
    KIND_ROWS, i)`` of its rows.  ``attempt(*targets, rng) -> (rows (k, p), ok (k,))``
    tries the k pending rows of block b, in row order, and may draw from
    ``rng``, the block's one stream ``rng_for(seed, KIND_INVERSE, b)``.  Only
    failed rows try again, with the same target, up to ``retries`` attempts, so
    a target with no pre-image is dropped, never swapped.  If any of the first
    ``PILOT_SIZE`` rows fails every attempt, it raises ``NoSolutionError``
    before attempting a row past the first block.  Returns (rows, diagnostics);
    a row that fails every attempt counts ``retries`` retries.
    """
    rows = None
    solved = np.zeros(m, dtype=bool)
    retries_used = 0
    for b, first in enumerate(range(0, m, ROW_BLOCK)):
        stop = min(first + ROW_BLOCK, m)
        inputs = draw(RowStreams(rng_streams(seed, KIND_ROWS, first, stop)), stop - first)
        rng = rng_for(seed, KIND_INVERSE, b)
        pending = np.arange(stop - first)
        for _ in range(retries):
            if not pending.size:
                break
            out, ok = attempt(*(a[pending] for a in inputs), rng)
            if rows is None:
                rows = np.empty((m, out.shape[1]))
            rows[first + pending[ok]] = out[ok]
            solved[first + pending[ok]] = True
            pending = pending[~ok]
            retries_used += pending.size
        if first == 0:  # the pilot: the leading rows of the first block
            pilot = solved[:min(PILOT_SIZE, ROW_BLOCK)]
            bad = pilot.size - int(pilot.sum())
            if bad:
                raise NoSolutionError(
                    f"{label}: {bad} of the first {pilot.size} draws from the observable "
                    "density had no solvable pre-image; the map range may not cover the "
                    "support, or the leading q x q block of the Jacobian may be singular "
                    "(reorder theta so that the coordinates the map depends on come first)"
                )
    kept = int(solved.sum())
    failures = m - kept
    failure_rate = failures / m if m else 0.0
    if failure_rate > FAILURE_WARN_RATE:
        warnings.warn(
            f"{label}: {failures}/{m} rows dropped after {retries} attempts each",
            RuntimeWarning,
        )
    data = rows[solved] if m else np.empty((0, 0))
    diag = {
        "rows_requested": m,
        "rows_returned": kept,
        "failures": failures,
        "failure_rate": failure_rate,
        "retries": retries_used,
        "seed": seed,
    }
    return data, diag


def _change_of_variables(fmap: ForwardMap, f_y: Density, f_c: Density | None,
                         forward, inverse, name: str, retries: int = 1) -> SipSolution:
    """The solution that a reparameterization theta <-> (y, c) makes of f_Y f_C,
    with y = g(theta) for the map ``fmap``; it keeps all five as fields.

    ``forward((n, p) theta) -> (y (n, q), c (n, p - q), log|det d(y, c)/d theta| (n,))``
    gives the observable value, the contour coordinates and the log Jacobian;
    the density, on the map's domain, is f_Y(y) f_C(c) |det|, summed in log
    space in that order.  ``f_c=None`` means there are no contour coordinates,
    and c is (n, 0).  :meth:`SipSolution.sample` draws a block's y from f_Y,
    then its c from f_C, one call each, and row i's from its own stream;
    ``inverse(y, c, rng) -> (theta (k, p), ok (k,))`` maps a block's pending
    rows back at once and may draw Newton starts or branch picks from the
    block's one generator.  Rows that are not ok retry with their y and c, up
    to ``retries`` attempts, which only a fresh Newton start can use.
    """
    p, q = fmap.p, fmap.q
    n_c = 0 if f_c is None else f_c.dim
    if f_y.dim != q:
        raise ValueError(f"{name}: observable density has dimension {f_y.dim}, expected q = {q}")
    if n_c != p - q:
        raise ValueError(f"{name}: contour density has dimension {n_c}, expected p - q = {p - q}")

    def log_pdf_fn(pts):
        y, c, log_det = forward(pts)
        out = f_y.log_pdf(y)
        if f_c is not None:
            out = out + f_c.log_pdf(c)
        return out + log_det

    return SipSolution(Density(p, fmap.domain, log_pdf_fn=log_pdf_fn, name=name), fmap, f_y,
                       f_c, forward, inverse, retries)


# ---------------------------------------------------------------------------
# Root-solving solutions: T = (g(theta), theta_tail), inverted by Newton
# ---------------------------------------------------------------------------


def _newton_solution(fmap: ForwardMap, f_y: Density, f_aux: Density | None,
                     name: str) -> SipSolution:
    """T = (g(theta), theta_tail) with f_C = f_aux, inverted by damped Newton
    on the leading block from a random start in the domain box."""
    q = fmap.q
    lo, hi = fmap.domain.lower[:q], fmap.domain.upper[:q]
    finite = np.isfinite(lo) & np.isfinite(hi)

    def forward(pts):
        dets = np.abs(np.linalg.det(jacobian_batch(fmap, pts)[:, :, :q]))
        with np.errstate(divide="ignore"):
            return eval_batch(fmap, pts), pts[:, q:], np.log(dets)

    def inverse(y, tail, rng):
        # starts: uniform on the head block of the domain box, standard
        # normal on unbounded coordinates; k x q uniforms, then k x q normals
        u = rng.random(y.shape)
        start = rng.standard_normal(y.shape)
        start[:, finite] = lo[finite] + u[:, finite] * (hi[finite] - lo[finite])
        heads, ok, _ = _newton_rows(fmap, y, tail, start)
        return np.hstack([heads, tail]), ok

    return _change_of_variables(fmap, f_y, f_aux, forward, inverse, name, retries=ROW_RETRIES)


def intuitive_sample(fmap: ForwardMap, f_y: Density,
                     f_aux: Density | None) -> SipSolution:
    """The solution whose trailing p - q coordinates are drawn freely.

    Per row of ``sample(n, seed)``: draw the observable value and the
    trailing coordinates independently, then root-solve for the leading
    block.  The observable image of the output is independent of the
    trailing coordinates by construction.  Rows that fail Newton after
    retries (a fresh start each time) are dropped and counted; ``sample``
    raises ``NoSolutionError`` when any of its first 512 rows fails, as it
    does when the observable support is unreachable or the leading q x q
    Jacobian block is singular.
    """
    return _newton_solution(fmap, f_y, f_aux, f"intuitive[{fmap.name}]")


def cov_exact(fmap: ForwardMap, f_y: Density) -> SipSolution:
    """Exact pullback density f_Y(g(theta)) |det dg/dtheta| for square maps.

    Requires the map to be one-to-one on its domain (the density is only
    normalized in that case; many-to-one maps belong to
    :func:`cov_mixture_family`).  This is :func:`intuitive_sample` with no
    trailing coordinates: the sampler draws an observable value and
    root-solves the map from a uniform start in the domain box.
    """
    if fmap.p != fmap.q:
        raise ValueError(
            f"exact pullback needs p = q (got p={fmap.p}, q={fmap.q}); "
            "use intuitive_sample or a ratio-form update instead"
        )
    return _newton_solution(fmap, f_y, None, f"cov[{fmap.name}]")


# ---------------------------------------------------------------------------
# Branch mixtures of exact solutions (p = q, many-to-one maps)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Branch:
    """One invertible piece of a many-to-one map.

    ``member`` takes (n, p) points to a boolean mask; ``inverse`` maps
    (k, q) observable points back into this piece as (k, p) points.
    One-to-one pieces (weight fixed at 1) are marked ``weighted=False``.
    """

    member: object
    inverse: object
    weighted: bool = True


def cov_mixture_family(fmap: ForwardMap, f_y: Density, branches,
                       w: MixtureWeights) -> SipSolution:
    """The weighted family of exact solutions over the ``branches`` (a
    sequence of :class:`Branch`) that partition a many-to-one map's domain.

    Pieces whose images overlap share the mixture weights; pieces where the
    map is one-to-one carry weight 1.  Every member of the family pushes
    forward to the same observable density.  T = g has no contour
    coordinates; the branch weight joins the log Jacobian.  The sampler
    inverts every branch and tests membership and the domain for all
    pending rows at once; the rows with a pre-image of mass then pick one by
    weight, from one uniform each, drawn in one call on the block's stream.
    """
    if fmap.p != fmap.q:
        raise ValueError("mixture family requires a square map")
    if not isinstance(w, MixtureWeights):
        w = MixtureWeights(np.asarray(w, dtype=float))
    branches = tuple(branches)
    n_weighted = sum(b.weighted for b in branches)
    if len(w) != n_weighted:
        raise ValueError(f"{len(w)} weights for {n_weighted} weighted branches")

    weighted = iter(w.weights.tolist())
    branch_weight = np.array([next(weighted) if b.weighted else 1.0 for b in branches])

    probes = domain_probe_points(fmap)
    membership = np.stack([np.asarray(b.member(probes), dtype=bool) for b in branches])
    if np.any(membership.sum(axis=0) > 1):
        raise ValueError("branch membership predicates overlap on probe points")

    def forward(pts):
        weight = np.zeros(pts.shape[0])
        for wt, branch in zip(branch_weight, branches):
            weight[np.asarray(branch.member(pts), dtype=bool)] = wt
        dets = np.abs(np.linalg.det(jacobian_batch(fmap, pts)))
        with np.errstate(divide="ignore"):
            return eval_batch(fmap, pts), np.empty((len(pts), 0)), np.log(dets) + np.log(weight)

    def inverse(y, c, rng):
        k = y.shape[0]
        pieces = np.stack([np.asarray(b.inverse(y), dtype=float).reshape(k, fmap.p)
                           for b in branches])
        valid = np.stack([np.asarray(b.member(theta), dtype=bool) & fmap.domain.contains(theta)
                          for b, theta in zip(branches, pieces)], axis=1)
        weights = np.where(valid, branch_weight, 0.0)
        total = weights.sum(axis=1)  # the zeros leave each row's sum as it was
        ok = total > 0  # else no pre-image, or this family member puts no mass on them
        # rng.choice(pre-images, p=weights / total) for every ok row, one uniform each
        u = rng.random(int(ok.sum()))
        cdf = np.cumsum(weights[ok] / total[ok, None], axis=1)
        pick = np.argmax(cdf / cdf[:, -1:] > u[:, None], axis=1)
        rows = np.empty((k, fmap.p))
        rows[ok] = pieces[pick, np.flatnonzero(ok)]
        return rows, ok

    return _change_of_variables(fmap, f_y, None, forward, inverse, f"cov_mixture[{fmap.name}]")


# ---------------------------------------------------------------------------
# Contour-slab (linear) and polar-arc (quadratic) constructions
# ---------------------------------------------------------------------------


def bbe_linear(A, f_y: Density, bounds=None) -> SipSolution:
    """Solution for g(theta) = A theta with uniform mass on contour slabs.

    T = (A theta, A_perp theta): the observable coordinate is t = A theta
    and the null-space coordinate c = A_perp theta is uniform on the box
    [l, u].  With constant bounds the density is fully normalized:
    f(theta) = f_Y(A theta) * prod(u - l)^-1 * |det [A; A_perp]| on the slab.
    A square A has no c, and its ``bounds`` go unused.
    """
    fmap = linear_map(A)
    perp = null_space_rows(fmap.matrix)
    if bounds is None and fmap.p > fmap.q:
        raise ValueError("bounds (l, u) required when p > q")
    f_c = None if fmap.p == fmap.q else make_uniform(*bounds)
    return _linear_solution(fmap, np.vstack([fmap.matrix, perp]), f_y, f_c, "bbe_linear")


def _linear_solution(fmap: ForwardMap, T: np.ndarray, f_y: Density, f_c: Density | None,
                     name: str) -> SipSolution:
    """The change of variables by an invertible matrix: (y, c) = T theta.

    The first q rows of T, the linear map ``fmap``'s matrix, give y and the
    rest give c; the log Jacobian is log|det T|, and every row inverts.
    """
    log_det = float(np.log(np.abs(np.linalg.det(T))))
    # precomputed inverse: both callers' T are well conditioned by
    # construction, so one matvec per row is as accurate as a solve
    T_inv = np.linalg.inv(T)
    head, rest = T[:fmap.q], T[fmap.q:]

    def forward(pts):
        return pts @ head.T, pts @ rest.T, np.full(len(pts), log_det)

    def inverse(y, c, rng=None):
        # a stack of matrix-vector products rounds as the one-row product does
        rows = np.matmul(T_inv, np.hstack([y, c])[:, :, None])[:, :, 0]
        return rows, np.ones(len(rows), dtype=bool)

    return _change_of_variables(fmap, f_y, f_c, forward, inverse, name)


def polar_arc(r):
    """Admissible polar-angle interval (phi1, phi2) at radius r on the unit square.

    The full quarter arc (0, pi/2) for r <= 1; the corner-clipped arc for
    1 < r <= sqrt(2), collapsing to a point at r = sqrt(2).  The width
    phi2 - phi1 is also the density of r^2 / 2 under the uniform law on the
    square.  phi2 is held at phi1 or above, so the width is 0, not
    negative, past sqrt(2) and at sqrt(2) itself, whose square rounds past 2
    (-2.2e-16 unclamped).  ``arctan2`` runs where r is not <= 1 (NaN too),
    and ``bbe_polar`` needs one arc per point.
    """
    r = np.asarray(r, dtype=float)
    radii = np.atleast_1d(r)
    outer = np.nonzero(~(radii <= 1.0))
    excess = np.sqrt(np.square(radii[outer]) - 1.0)
    phi1, phi2 = np.zeros(radii.shape), np.full(radii.shape, 0.5 * np.pi)
    phi1[outer] = np.arctan2(excess, 1.0)
    phi2[outer] = np.maximum(np.arctan2(1.0, excess), phi1[outer])
    return phi1.reshape(r.shape), phi2.reshape(r.shape)


def bbe_polar(f_y: Density) -> SipSolution:
    """Solution for g(theta) = (theta1^2 + theta2^2)/2 on the unit square.

    T = (r^2 / 2, (phi - phi1(r)) / (phi2(r) - phi1(r))): radius plays the
    observable-indexing coordinate, polar angle the contour coordinate with
    a uniform distribution on the admissible arc, so the log Jacobian is
    -log(phi2 - phi1).  A point of the closed square with 0 < r < sqrt(2) is
    on its arc, so ``forward`` only clips c, which rounding can put an ulp
    past either end, into [0, 1]; the density is 0 at the corner, where the
    arc has no width.  The inverse draws nothing.
    """

    def forward(pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        phi1, phi2 = polar_arc(r)
        width = np.where(phi2 > phi1, phi2 - phi1, np.inf)  # none at the corner
        c = np.clip((phi - phi1) / width, 0.0, 1.0)
        return (0.5 * r * r)[:, None], c[:, None], -np.log(width)

    def inverse(y, c, rng):
        r = np.sqrt(2.0 * y[:, 0])
        phi1, phi2 = polar_arc(r)
        phi = phi1 + c[:, 0] * (phi2 - phi1)
        return np.column_stack([r * np.cos(phi), r * np.sin(phi)]), np.ones(len(r), dtype=bool)

    solution = _change_of_variables(polar_quadratic_map(), f_y, make_uniform(0.0, 1.0),
                                    forward, inverse, "bbe_polar")
    if f_y.support.lower[0] < 0.0 or f_y.support.upper[0] > 1.0:
        raise DomainError(
            "observable support must lie within (0, 1): the map's range on "
            f"the unit square is (0, 1], got [{f_y.support.lower[0]}, "
            f"{f_y.support.upper[0]}]"
        )
    return solution


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


def kde_pushforward(initial: Density, fmap: ForwardMap, m: int, seed: int) -> Density:
    """KDE estimate of the pushforward from m mapped draws of the initial density.

    The draws come from the stream (seed, KIND_FIT, 0), so they are
    independent of the row streams that rejection sampling of the updated
    density proposes from.
    """
    theta = initial.sample(rng_for(seed, KIND_FIT, 0), m)
    return fit_kde(eval_batch(fmap, theta))


def bjw_density(initial: Density, fmap: ForwardMap, f_y: Density,
                pushforward: Density) -> SipSolution:
    """Ratio-form solution: initial(theta) * f_Y(g(theta)) / pushforward(g(theta)).

    Exact when ``pushforward`` is the true image of the initial density;
    approximate when it is a KDE estimate.  The returned density is left
    unnormalized (it integrates to one only in the exact case), and is
    evaluated in log space, so it stays finite far into the tails; it raises
    ``PredictabilityError`` where the pushforward vanishes under a positive
    numerator.

    When the initial density is Gaussian, the map linear and ``pushforward``
    the initial's image (to ``IMAGE_RTOL``), the update is f_Y(A theta) times
    the initial's conditional law given A theta, a change of variables
    (:func:`_gaussian_update_map`): ``sample(n, seed)`` draws y from f_Y and
    the rest of theta from that conditional, with no rejection.  The density
    draws the same way from one generator, so a later update can reject
    against it, and it carries the closed-form update as ``gaussian`` when
    f_Y is Gaussian and :func:`bjw_gaussian_linear` finds it, so a chained
    update of it draws directly.  Any other update draws by
    :func:`bjw_rejection_sample` against ``initial``.
    """
    for role, density in (("observable", f_y), ("pushforward", pushforward)):
        if density.dim != fmap.q:
            raise ValueError(f"{role} density has dimension {density.dim}, "
                             f"expected q = {fmap.q}")

    def log_pdf_fn(pts):
        images = eval_batch(fmap, pts)
        numer = initial.log_pdf(pts) + f_y.log_pdf(images)
        denom = pushforward.log_pdf(images)
        ok = numer > -np.inf
        _check_predictable(ok, denom, pts)
        out = np.full(pts.shape[0], -np.inf)
        out[ok] = numer[ok] - denom[ok]
        return out

    name = f"bjw[{fmap.name}]"
    linear = _gaussian_update_map(initial, fmap, pushforward)
    if linear is None:
        solution = SipSolution(Density(initial.dim, initial.support, log_pdf_fn=log_pdf_fn,
                                       name=name), fmap, f_y)
    else:
        T, f_c = linear
        solution = _linear_solution(fmap, T, f_y, f_c, name)
        gaussian = None
        if f_y.gaussian is not None:
            # optional: an ill-conditioned update that fails its guards still draws
            with contextlib.suppress(ArithmeticError, NotPositiveDefiniteError):
                gaussian = bjw_gaussian_linear(fmap.matrix, f_y.gaussian.mean, f_y.gaussian.cov,
                                               initial.gaussian.mean, initial.gaussian.cov)
        # the ratio form on this route too, not f_Y f_C |det T|; it draws as the rows do
        solution.density = Density(
            fmap.p, fmap.domain, log_pdf_fn=log_pdf_fn, name=name, gaussian=gaussian,
            sample_fn=lambda rng, n: solution.inverse(*solution.targets(rng, n))[0])
    solution.initial, solution.pushforward = initial, pushforward
    return solution


def _check_predictable(positive: np.ndarray, log_pushforward: np.ndarray, pts: np.ndarray):
    """Raise where the pushforward vanishes at a row of ``pts`` whose numerator is positive."""
    bad = positive & (log_pushforward == -np.inf)
    if np.any(bad):
        raise PredictabilityError(
            f"pushforward density vanishes where the numerator is positive (theta="
            f"{pts[np.argmax(bad)]}); the observable density is not predictable from the "
            "initial one"
        )


def _gaussian_update_map(initial: Density, fmap: ForwardMap, pushforward: Density):
    """(T, f_C) of the exact update of a Gaussian initial under a linear map, else None.

    T = (A theta, M theta), M = A_perp (I - K A), K = Sigma A^T (A Sigma A^T)^-1:
    c = M theta is the part of theta that y = A theta does not explain, so
    under the initial it is N(M mu, M Sigma M^T) and independent of y, and
    initial f_Y / pushforward = f_Y(y) f_C(c) |det T|.
    """
    if initial.gaussian is None or fmap.matrix is None or pushforward.gaussian is None:
        return None
    A = fmap.matrix
    mean, cov = initial.gaussian.mean, initial.gaussian.cov
    image_mean, image_cov = A @ mean, A @ cov @ A.T
    given = pushforward.gaussian
    gap = max(np.max(np.abs(given.mean - image_mean)), np.max(np.abs(given.cov - image_cov)))
    if gap > IMAGE_RTOL * max(np.max(np.abs(image_mean)), np.max(np.abs(image_cov))):
        return None
    q, p = A.shape
    M = null_space_rows(A) @ (np.eye(p) - update_gain(A, cov) @ A)
    f_c = make_gaussian(GaussianParams(M @ mean, M @ cov @ M.T)) if p > q else None
    return np.vstack([A, M]), f_c


def bjw_rejection_sample(solution: SipSolution, m: int, seed: int) -> np.ndarray:
    """Draw from a ratio-form solution by rejection against its initial density.

    Returns the (m, p) rows, as ``solution.sample(m, seed)`` does.  The proposal is
    ``solution.initial``, set by :func:`bjw_density`.  It cancels from the
    ratio, so a proposal theta scores
    exp(log f_Y(g(theta)) - log pushforward(g(theta))).  Every call first probes
    ``PILOT_SIZE`` observable draws on stream (seed, KIND_PROBE, 0) and raises
    ``PredictabilityError`` if any falls outside the pushforward's support; an
    observable without a sampler raises ValueError there, before any row is drawn.
    The bound is 1.2 times the largest of ``PILOT_SIZE`` pilot ratios on stream
    (seed, KIND_PILOT, 0), whatever m is.  Block b of ``ROW_BLOCK`` rows draws from
    stream (seed, KIND_ROWS, b): each round draws one proposal per pending row, at
    least ``PILOT_SIZE``, in one call, with one ratio evaluation and one uniform
    call; its first acceptances fill the pending rows, and ``proposals`` counts up
    to the one that fills the block.  A block that has drawn
    ``REJECTION_MAX_PROPOSALS`` proposals per row with rows still pending raises
    ``NonConvergenceError``.  A pass stops at its first ratio over the bound, which
    is doubled as often as that ratio needs before the run is redone (with a
    warning); a ratio that needs more than ``REJECTION_MAX_DOUBLINGS`` doublings in
    all, or that overflows, raises ``PredictabilityError`` naming theta.
    """
    if solution.initial is None:
        raise ValueError("solution was not built by bjw_density")
    proposal = solution.initial  # Density.sample raises if it has no sampler
    fmap, f_y, pushforward = solution.fmap, solution.f_y, solution.pushforward

    def ratio(theta_rows):
        images = eval_batch(fmap, theta_rows)
        log_f_y, log_push = f_y.log_pdf(images), pushforward.log_pdf(images)
        positive = log_f_y > -np.inf
        _check_predictable(positive, log_push, theta_rows)
        out = np.zeros(theta_rows.shape[0])
        # an overflow is reported below as a typed error, not as a warning
        with np.errstate(over="ignore"):
            out[positive] = np.exp(log_f_y[positive] - log_push[positive])
        finite = np.isfinite(out)
        if not finite.all():
            raise PredictabilityError(
                "ratio to the proposal is not finite "
                f"(theta={theta_rows[np.argmin(finite)]}); the pushforward "
                "density is too narrow for the observable density"
            )
        return out

    # predictability probe on observable draws, in log space: a pushforward
    # density that only underflows there still has those draws in its support
    outside = pushforward.log_pdf(f_y.sample(rng_for(seed, KIND_PROBE, 0),
                                             PILOT_SIZE)) == -np.inf
    if outside.any():
        raise PredictabilityError(
            "observable draws fall outside the pushforward support "
            f"({int(outside.sum())}/{PILOT_SIZE} probe draws)"
        )

    peak = float(ratio(proposal.sample(rng_for(seed, KIND_PILOT, 0), PILOT_SIZE)).max())
    if peak <= 0:
        raise PredictabilityError(
            "all pilot ratios are zero; the observable density has no mass "
            "on the initial pushforward"
        )

    def run(bound):
        """One pass: (rows, proposals, None), or (None, None, (theta, ratio))
        at its first proposal whose ratio exceeds ``bound``."""
        rows = np.empty((m, proposal.dim))
        proposals = 0
        for b, first in enumerate(range(0, m, ROW_BLOCK)):
            rng = rng_for(seed, KIND_ROWS, b)
            filled, stop = first, min(first + ROW_BLOCK, m)
            drawn, budget = 0, REJECTION_MAX_PROPOSALS * (stop - first)
            while filled < stop:
                if drawn >= budget:
                    raise NonConvergenceError(
                        f"rejection sampler gave up: {stop - filled} of {m} rows still "
                        f"pending after {drawn} proposals for a block of {stop - first} "
                        f"rows at bound {bound:.6g}; the ratio is likely unbounded under "
                        "the proposal, so no finite bound accepts at a usable rate"
                    )
                n = max(stop - filled, PILOT_SIZE)
                drawn += n
                theta = proposal.sample(rng, n)
                r = ratio(theta)
                u = rng.random(n)
                high = r > bound
                if high.any():
                    i = np.argmax(high)
                    return None, None, (theta[i], float(r[i]))
                accepted = np.flatnonzero(u * bound <= r)[:stop - filled]
                rows[filled:filled + accepted.size] = theta[accepted]
                filled += accepted.size
                proposals += int(accepted[-1]) + 1 if filled == stop else n
        return rows, proposals, None

    bound, doublings = 1.2 * peak, 0
    while True:
        rows, proposals, over = run(bound)
        if over is None:
            break
        theta, r = over
        extra = 1
        while bound * 2.0 ** extra < r:
            extra += 1
        doublings += extra
        if doublings > REJECTION_MAX_DOUBLINGS:
            raise PredictabilityError(
                f"ratio {r:.6g} at theta={theta} needs {doublings} doublings of the pilot "
                f"bound {1.2 * peak:.6g}, more than {REJECTION_MAX_DOUBLINGS}; the ratio "
                "is likely unbounded under the proposal"
            )
        warnings.warn(
            f"ratio {r:.6g} exceeded bound {bound:.6g}; doubling it {extra} "
            "times and redoing the run",
            RuntimeWarning,
        )
        bound *= 2.0 ** extra

    solution.diagnostics = {
        "acceptance_rate": m / proposals if proposals else float("nan"),
        "proposals": proposals,
        "bound": bound,
        "seed": seed,
    }
    # perfbench reads m as ``.data.shape[0]``: an array's memoryview has its shape, strided too
    return rows


def bjw_sequential_update(initial: Density, fmap: ForwardMap, f_y1: Density,
                          f_y2: Density):
    """Update twice (first with f_y1, then f_y2) and once (f_y2 only).

    The intermediate solution pushes forward exactly to f_y1, so the second
    update divides it out again: the double update equals the single update
    with the last observable density, pointwise.  With a Gaussian f_y1 the
    intermediate is a Gaussian, so the double update draws directly; with
    any other f_y1 it rejects against the intermediate, which draws
    directly.  Returns (single, double).
    """
    initial_pushforward = pushforward_density(initial, fmap)
    single = bjw_density(initial, fmap, f_y2, initial_pushforward)
    intermediate = bjw_density(initial, fmap, f_y1, initial_pushforward)
    double = bjw_density(intermediate.density, fmap, f_y2, f_y1)
    return single, double
