"""Forward maps: evaluation, Jacobians, identity augmentation, null spaces."""

import dataclasses

import numpy as np
import pytest

from sip_lab import (
    GaussianParams,
    NoSolutionError,
    RankDeficiencyError,
    cov_exact,
    intuitive_sample,
    jacobian_at,
    linear_map,
    make_gaussian,
    newton_solve,
    null_space_rows,
    polar_quadratic_map,
    square_map,
)
from sip_lab.densities import unbounded_support
from sip_lab.forward_maps import ForwardMap, domain_probe_points, eval_batch, jacobian_batch


class TestEvaluate:
    def test_linear_slab_instance(self):
        fmap = linear_map([[-1.0 / 3.0, 4.0 / 3.0]])
        assert eval_batch(fmap, [1.0, 1.0])[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_polar_at_corner(self):
        assert eval_batch(polar_quadratic_map(), [1.0, 1.0])[0, 0] == pytest.approx(1.0)

    def test_identity(self):
        np.testing.assert_array_equal(
            eval_batch(linear_map(np.eye(2)), [0.3, 0.7]), [[0.3, 0.7]]
        )

    def test_repeated_calls_identical(self):
        fmap = polar_quadratic_map()
        theta = np.array([[0.4, 0.9]])
        assert eval_batch(fmap, theta)[0, 0] == eval_batch(fmap, theta)[0, 0]


class TestJacobian:
    def test_linear_constant(self):
        A = np.array([[-1.0 / 3.0, 4.0 / 3.0]])
        fmap = linear_map(A)
        for theta in ([0.0, 0.0], [3.0, -2.0]):
            np.testing.assert_array_equal(jacobian_at(fmap, theta), A)

    def test_polar_hand_derivative(self):
        # d/dtheta of (t1^2+t2^2)/2 is (t1, t2)
        fmap = polar_quadratic_map()
        np.testing.assert_allclose(jacobian_at(fmap, [1.0, 1.0]), [[1.0, 1.0]])

    def test_finite_difference_matches_analytic(self):
        fmap = polar_quadratic_map()
        fd_map = dataclasses.replace(fmap, jac=None)
        theta = np.array([0.5, 0.2])
        np.testing.assert_allclose(jacobian_at(fd_map, theta),
                                   jacobian_at(fmap, theta), rtol=1e-6)

    @pytest.mark.parametrize("builder", [polar_quadratic_map,
                                         lambda: square_map(-2.0, 2.0),
                                         lambda: linear_map([[0.7, -1.2], [0.1, 2.0]])])
    def test_fd_agreement_at_random_points(self, builder):
        fmap = builder()
        fd_map = dataclasses.replace(fmap, jac=None)
        rng = np.random.default_rng(42)
        lo = np.maximum(fmap.domain.lower, -2.0)
        hi = np.minimum(fmap.domain.upper, 2.0)
        pts = lo + rng.random((100, fmap.p)) * (hi - lo)
        for theta in pts:
            analytic = jacobian_at(fmap, theta)
            numeric = jacobian_at(fd_map, theta)
            np.testing.assert_allclose(numeric, analytic, rtol=1e-6,
                                       atol=1e-6 * max(1.0, np.abs(analytic).max()))


def _batch_only(fn):
    """``fn`` refusing a single (p,) point, as any map may."""

    def wrapped(theta):
        if np.ndim(theta) != 2:
            raise ValueError(f"batch-only map called with shape {np.shape(theta)}")
        return fn(theta)

    return wrapped


def _random_quadratic_map(rng, p, q):
    """Batch-only map with linear + quadratic parts and an exact Jacobian."""
    A = rng.normal(size=(q, p))
    B = rng.normal(size=(q, p, p)) * 0.3

    def func(theta):
        return theta @ A.T + 0.5 * np.einsum("kij,ni,nj->nk", B, theta, theta)

    def jac(theta):
        return A + 0.5 * np.einsum("kij,ni->nkj", B + B.transpose(0, 2, 1), theta)

    return ForwardMap(p=p, q=q, func=_batch_only(func), jac=_batch_only(jac),
                      domain=unbounded_support(p))


def _batch_only_cubic(analytic=True):
    """g(theta) = theta_1^3 + theta_1 + theta_2 / 2, increasing in theta_1."""

    def func(theta):
        return theta[:, :1] ** 3 + theta[:, :1] + 0.5 * theta[:, 1:]

    def jac(theta):
        d1 = 3.0 * theta[:, 0] ** 2 + 1.0
        return np.stack([d1, np.full_like(d1, 0.5)], axis=1)[:, None, :]

    return ForwardMap(p=2, q=1, func=_batch_only(func),
                      jac=_batch_only(jac) if analytic else None,
                      domain=unbounded_support(2), name="cubic")


def _gaussian(dim):
    return make_gaussian(GaussianParams(np.zeros(dim), np.eye(dim)))


class TestAugmentIdentity:
    """The identity augmentation T(theta) = (g(theta), theta_tail), as the
    change-of-variables engine builds it for intuitive_sample and cov_exact."""

    def test_square_map_unchanged(self):
        # no trailing coordinates: T is g, and intuitive_sample is cov_exact
        fmap = linear_map(np.array([[2.0, 1.0], [0.0, 1.0]]))
        f_y = _gaussian(2)
        intuitive, exact = intuitive_sample(fmap, f_y, None), cov_exact(fmap, f_y)
        pts = np.random.default_rng(3).normal(size=(50, 2))
        np.testing.assert_array_equal(intuitive.density.log_pdf(pts),
                                      exact.density.log_pdf(pts))
        np.testing.assert_array_equal(intuitive.sample(100, 1), exact.sample(100, 1))

    def test_sum_map(self):
        f_y = make_gaussian(GaussianParams([0.0], [[2.0]]))
        f_aux = _gaussian(1)
        density = intuitive_sample(linear_map([[1.0, 1.0]]), f_y, f_aux).density
        # hand determinant of [[1, 1], [0, 1]] is 1
        assert density.log_pdf([0.3, 0.5]) == pytest.approx(
            f_y.log_pdf(0.8) + f_aux.log_pdf(0.5), rel=1e-14)

    def test_singular_left_block_suggests_permutation(self):
        # g = theta_2 has a zero leading block; [[1, 1], [2, 2]] is singular
        for solution in (intuitive_sample(linear_map([[0.0, 1.0]]), _gaussian(1), _gaussian(1)),
                         cov_exact(linear_map([[1.0, 1.0], [2.0, 2.0]]), _gaussian(2))):
            with pytest.raises(NoSolutionError, match="reorder theta"):
                solution.sample(10, 1)

    def test_rank_deficient_map_rejected(self):
        solution = intuitive_sample(linear_map([[0.0, 0.0]]), _gaussian(1), _gaussian(1))
        with pytest.raises(NoSolutionError, match="no solvable pre-image"):
            solution.sample(10, 1)

    @pytest.mark.parametrize("trial", range(12))
    def test_block_determinant_identity(self, trial):
        """log density = log f_Y(g) + log f_aux(theta_tail) + log|det [J; 0 I]|."""
        rng = np.random.default_rng(1000 + trial)
        p = int(rng.integers(1, 7))
        q = int(rng.integers(1, p + 1))
        fmap = _random_quadratic_map(rng, p, q)
        f_y = _gaussian(q)
        f_aux = _gaussian(p - q) if p > q else None
        theta = rng.normal(size=(20, p))
        augmented = np.zeros((20, p, p))
        augmented[:, :q] = jacobian_batch(fmap, theta)
        augmented[:, q:, q:] = np.eye(p - q)
        expected = f_y.log_pdf(eval_batch(fmap, theta)) \
            + np.log(np.abs(np.linalg.det(augmented)))
        if f_aux is not None:
            expected += f_aux.log_pdf(theta[:, q:])
        actual = intuitive_sample(fmap, f_y, f_aux).density.log_pdf(theta)
        np.testing.assert_allclose(actual, expected, rtol=1e-10, atol=1e-10)


class TestBatchOnlyMap:
    """A map implements only the batch form: single points go through it as
    one-row batches, and so do finite differences."""

    @pytest.mark.parametrize("analytic", [True, False], ids=["jac", "fd"])
    def test_point_views(self, analytic):
        fmap = _batch_only_cubic(analytic)
        np.testing.assert_array_equal(eval_batch(fmap, [1.0, 2.0]), [[3.0]])
        np.testing.assert_allclose(jacobian_at(fmap, [1.0, 2.0]), [[4.0, 0.5]], rtol=1e-7)

    def test_finite_differences_make_one_batch_call(self):
        base = _batch_only_cubic(analytic=False)
        calls = []

        def func(theta):
            calls.append(theta.shape)
            return base.func(theta)

        pts = np.array([[1.0, 2.0], [0.0, -1.0], [2.0, 0.5]])
        jac = jacobian_batch(dataclasses.replace(base, func=func), pts)
        assert calls == [(12, 2)]  # 3 points x 2 coordinates x (+h, -h)
        np.testing.assert_allclose(jac[:, 0, 0], [4.0, 1.0, 13.0], rtol=1e-7)
        np.testing.assert_allclose(jac[:, 0, 1], 0.5, rtol=1e-7)

    @pytest.mark.parametrize("analytic", [True, False], ids=["jac", "fd"])
    def test_newton_solve(self, analytic):
        head = newton_solve(_batch_only_cubic(analytic), [3.0], theta_tail=[2.0])
        np.testing.assert_allclose(head, [1.0], rtol=1e-9)

    @pytest.mark.parametrize("analytic", [True, False], ids=["jac", "fd"])
    def test_intuitive_sample(self, analytic):
        fmap = _batch_only_cubic(analytic)
        f_y = make_gaussian(GaussianParams([0.0], [[4.0]]))
        f_aux = _gaussian(1)
        solution = intuitive_sample(fmap, f_y, f_aux)
        rows = solution.sample(200, 1)
        assert rows.shape == (200, 2)
        expected = f_y.log_pdf(eval_batch(fmap, rows)) + f_aux.log_pdf(rows[:, 1]) \
            + np.log(3.0 * rows[:, 0] ** 2 + 1.0)
        np.testing.assert_allclose(solution.density.log_pdf(rows), expected, rtol=1e-7)


class TestNullSpaceRows:
    def test_reference_slab_matrix(self):
        A = np.array([[-1.0 / 3.0, 4.0 / 3.0]])
        perp = null_space_rows(A)
        assert perp.shape == (1, 2)
        assert abs(A @ perp.T).max() < 1e-12
        assert np.linalg.norm(perp[0]) == pytest.approx(1.0, rel=1e-12)
        # direction proportional to (4/3, 1/3)
        direction = np.array([4.0 / 3.0, 1.0 / 3.0])
        cosine = perp[0] @ direction / np.linalg.norm(direction)
        assert abs(abs(cosine) - 1.0) < 1e-12

    def test_square_matrix_empty(self):
        perp = null_space_rows(np.eye(2))
        assert perp.shape == (0, 2)

    def test_all_ones_row(self):
        perp = null_space_rows([[1.0, 1.0, 1.0]])
        assert perp.shape == (2, 3)
        np.testing.assert_allclose(perp @ perp.T, np.eye(2), atol=1e-12)
        assert np.abs(perp.sum(axis=1)).max() < 1e-12

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficiencyError):
            null_space_rows([[1.0, 0.0], [2.0, 0.0]])

    @pytest.mark.parametrize("trial", range(10))
    def test_random_stacks_invertible(self, trial):
        rng = np.random.default_rng(500 + trial)
        p = int(rng.integers(2, 13))
        q = int(rng.integers(1, min(p, 8) + 1))
        A = rng.normal(size=(q, p))
        perp = null_space_rows(A)
        assert abs(A @ perp.T).max() < 1e-12
        np.testing.assert_allclose(perp @ perp.T, np.eye(p - q), atol=1e-12)
        stack = np.vstack([A, perp])
        assert np.isfinite(np.linalg.cond(stack))
        assert abs(np.linalg.det(stack)) > 1e-12


class TestHelpers:
    @pytest.mark.parametrize("builder", [polar_quadratic_map,
                                         lambda: linear_map(np.eye(2)),
                                         lambda: linear_map([[-1 / 3, 4 / 3]])])
    def test_full_row_rank_at_probe_points(self, builder):
        fmap = builder()
        for theta in domain_probe_points(fmap):
            assert np.linalg.matrix_rank(jacobian_at(fmap, theta)) == fmap.q

    def test_probe_points_respect_domain(self):
        fmap = square_map(0.25, 1.0)
        pts = domain_probe_points(fmap)
        assert fmap.domain.contains(pts).all()

    def test_p_less_than_q_rejected(self):
        with pytest.raises(ValueError):
            linear_map(np.ones((3, 2)))
