"""The numpy special functions against scipy.special as the oracle.

Each function must agree with scipy to 1e-14 relative on the stated range.
Where scipy's own error exceeds that, the test says so and checks against
mpmath at 40 digits instead.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
import scipy.special as sc

from sip_lab._special import betainc, kolmogorov, log_beta, ndtr, ndtri

REL = 1e-14


def _rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.max(np.abs(got - want) / np.abs(want))


def _mp(func, xs):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    return np.array([float(func(mpmath, mpmath.mpf(float(v)))) for v in xs])


class TestNdtr:
    def test_matches_scipy_on_upper_range(self):
        x = np.linspace(-6.0, 9.0, 150_001)
        assert _rel_err(ndtr(x), sc.ndtr(x)) <= REL

    def test_lower_tail_against_mpmath(self):
        # scipy rounds x / sqrt(2) before its erfc and exp(-a * a); the
        # rounding grows to about x^2 eps / 2 relative (1.6e-13 at x = -38),
        # past the bound below x = -6.  This ndtr keeps x^2 / 2 exact.
        x = np.linspace(-37.5, -6.0, 2_001)
        assert _rel_err(ndtr(x), _mp(lambda mp, v: mp.ncdf(v), x)) <= REL
        assert np.all(np.abs(ndtr(x) - sc.ndtr(x)) / sc.ndtr(x) <= 2.5e-16 * x * x)

    def test_subnormal_outputs(self):
        # below x = -37.5 the CDF is under the smallest normal double, so
        # only an absolute bound of a few subnormal units can hold
        x = np.linspace(-38.5, -37.5, 101)
        ref = _mp(lambda mp, v: mp.ncdf(v), x)
        assert np.max(np.abs(ndtr(x) - ref)) <= 1e-323

    def test_cody_intervals_meet(self):
        # |x| / sqrt(2) = 0.46875 and 4 are where the rational forms change
        edges = np.array([0.46875, 4.0]) * math.sqrt(2.0)
        x = np.concatenate([edges + d for d in (-1e-12, 0.0, 1e-12)])
        x = np.concatenate([x, -x])
        assert _rel_err(ndtr(x), _mp(lambda mp, v: mp.ncdf(v), x)) <= REL

    def test_special_values_and_shapes(self):
        out = ndtr(np.array([-np.inf, np.inf, np.nan, 0.0]))
        np.testing.assert_array_equal(out, [0.0, 1.0, np.nan, 0.5])
        assert isinstance(ndtr(1.5), float) and ndtr(1.5) == pytest.approx(sc.ndtr(1.5), REL)
        assert ndtr(np.zeros((3, 2))).shape == (3, 2)


class TestNdtri:
    def test_matches_scipy(self):
        p = np.concatenate([np.logspace(-300, -1, 20_000), np.linspace(0.1, 0.9, 20_000),
                            1.0 - np.logspace(-16, -1, 20_000)])
        got, want = ndtri(p), sc.ndtri(p)
        centre = np.abs(want) > 0
        assert _rel_err(got[centre], want[centre]) <= REL
        assert np.all(got[~centre] == 0.0)

    def test_bit_equal_to_the_standard_library(self):
        # AS 241's branches meet at p = 0.075, 0.925 and where -log(min(p, 1 - p)) = 25
        rng = np.random.default_rng(5)
        ends = [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0), 5e-324, 1.0 - 2**-53]
        # dense in the tails, where math.log and np.log differ by an ulp on a few values
        p = np.concatenate([rng.random(60_000), 0.075 * rng.random(100_000),
                            1.0 - 0.075 * rng.random(100_000), 1e-10 * rng.random(20_000),
                            1.0 - 1e-10 * rng.random(20_000), np.exp(-700.0 * rng.random(50_000)),
                            [np.nextafter(v, t) for v in ends for t in (0.0, 1.0)], ends])
        p = p[(p > 0.0) & (p < 1.0)]
        want = np.array([NormalDist().inv_cdf(v) for v in p.tolist()])
        np.testing.assert_array_equal(ndtri(p).view(np.int64), want.view(np.int64))
        assert ndtri(p[7]) == want[7] and isinstance(ndtri(p[7]), float)

    def test_edges_and_shapes(self):
        out = ndtri(np.array([0.0, -0.0, 1.0, -0.5, 1.5, np.nan, -np.inf, np.inf, 1e300]))
        np.testing.assert_array_equal(out, [-np.inf, -np.inf, np.inf] + [np.nan] * 6)
        assert ndtri(0.5) == 0.0 and np.ndim(ndtri(0.25)) == 0
        assert ndtri(np.full((2, 3), 0.3)).shape == (2, 3)

    def test_inverts_ndtr(self):
        # above the mean ndtr rounds to 1 - eps-sized steps, so stop at 4
        x = np.linspace(-8.0, 4.0, 1_001)
        np.testing.assert_allclose(ndtri(ndtr(x)), x, rtol=1e-12, atol=1e-11)


class TestKolmogorov:
    def test_matches_scipy(self):
        x = np.linspace(0.02, 10.0, 40_001)
        x = x[(x <= 0.82) | (x > 0.9)]
        got = np.array([kolmogorov(v) for v in x])
        assert _rel_err(got, sc.kolmogorov(x)) <= REL

    def test_just_above_the_series_switch_against_mpmath(self):
        # on (0.82, 0.9] scipy's own error reaches 9.8e-15 against mpmath
        x = np.linspace(0.8201, 0.9, 101)
        ref = _mp(lambda mp, v: 2 * mp.nsum(
            lambda k: (-1) ** (k - 1) * mp.exp(-2 * k * k * v * v), [1, mp.inf]), x)
        assert _rel_err([kolmogorov(v) for v in x], ref) <= REL

    def test_small_and_nonpositive_arguments(self):
        assert kolmogorov(0.0) == 1.0 and kolmogorov(-1.0) == 1.0
        assert kolmogorov(0.03) == 1.0 == sc.kolmogorov(0.03)


class TestBetainc:
    X = np.concatenate([np.linspace(0.0, 1.0, 4_001), np.logspace(-30, -1, 300),
                        1.0 - np.logspace(-15, -1, 300)])

    @pytest.mark.parametrize("a,b", [(8.0, 12.0), (12.0, 8.0), (2.0, 5.0), (0.3, 4.0),
                                     (1.0, 1.0), (3.0, 1.0)])
    def test_matches_scipy(self, a, b):
        # Below log_beta's switch, min(a, b) < 12, lgamma(a) + lgamma(b) -
        # lgamma(a + b) cancels, and its rounding, about ulp(lgamma(a + b)),
        # becomes relative error (2e-14 at (100, 3)).  sip_lab uses (8, 12).
        # Below 1e-300 the factor x^a is subnormal before 1 / B(a, b) scales
        # it up, and scipy flushes subnormal results to 0: compare absolutely.
        got, want = betainc(a, b, self.X), sc.betainc(a, b, self.X)
        big = want >= 1e-300
        assert np.all(np.abs(got[~big] - want[~big]) < 1e-300)
        assert _rel_err(got[big], want[big]) <= REL

    def test_arcsine_law_near_one_against_mpmath(self):
        # scipy's betainc(0.5, 0.5, x) is off by 1e-9 relative at x = 1 - 1e-15;
        # the closed form (2 / pi) asin(sqrt(x)) settles it
        x = 1.0 - np.logspace(-15, -1, 50)
        ref = _mp(lambda mp, v: 2 / mp.pi * mp.asin(mp.sqrt(v)), x)
        assert _rel_err(betainc(0.5, 0.5, x), ref) <= REL

    def test_endpoints_and_scalar(self):
        np.testing.assert_array_equal(betainc(8.0, 12.0, np.array([0.0, 1.0])), [0.0, 1.0])
        assert np.ndim(betainc(8.0, 12.0, 0.4)) == 0

    @pytest.mark.parametrize("a", [700.0, 1e3, 1e4])
    def test_large_equal_shapes_match_scipy(self, a):
        # x^a underflows where exp(-log B(a, a)) overflows: 2,504 of these
        # points were NaN at a = 700 when the two were formed apart.  Formed
        # as x^a (1 - x)^a exp(-log B), the rounding of log B (-1.4e4 at
        # a = 1e4) became relative error, 1.3e-12 here; the one-log1p front
        # factor gives 6.5e-15, 6.1e-15 and 1.4e-14.  Compare absolutely.
        x = np.linspace(0.0, 1.0, 4_001)
        got = betainc(a, a, x)
        assert np.max(np.abs(got - sc.betainc(a, a, x))) <= 1e-13

    @pytest.mark.parametrize("a,b", [(1e3, 1e3), (1e5, 1e5), (1e5, 2e5)])
    def test_large_shapes_take_log_beta_from_stirling(self, a, b):
        # lgamma(a) + lgamma(b) - lgamma(a + b) gave 8.3e-13, 3.2e-10 and
        # 1.4e-10 here, the Stirling log B 4.3e-14, 8.6e-12 and 4.3e-12, and
        # the front factor from its Stirling terms 6.1e-15, 4.8e-14 and
        # 6.1e-14.  scipy is within 2e-14 of mpmath at a = b = 1e5.
        x = np.linspace(0.0, 1.0, 4_001)
        assert np.max(np.abs(betainc(a, b, x) - sc.betainc(a, b, x))) <= 1e-13

    def test_log_beta_against_mpmath(self):
        # within 2 ulps of log B where both shapes reach the switch, and the
        # lgamma form, bit for bit, below it: Beta(8, 12) keeps its bits
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for a, b in [(12.0, 12.0), (12.0, 3e4), (16.1, 79277.3), (1e3, 1e3), (1e5, 1e5),
                     (2e5, 1e5), (1e8, 1e8)]:
            want = mpmath.log(mpmath.beta(a, b))
            assert abs(float(log_beta(a, b) - want)) <= 2 * math.ulp(float(want)), (a, b)
        for a, b in [(8.0, 12.0), (12.0, 8.0), (100.0, 3.0), (11.9, 1e5)]:
            assert log_beta(a, b) == math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def test_unconverged_fraction_raises(self):
        # at a = b = 1e6 the fraction needs about 530 terms near x = 1/2
        from sip_lab import NonConvergenceError

        with pytest.raises(NonConvergenceError, match="300 terms"):
            betainc(1e6, 1e6, np.array([0.1, 0.5]))


def test_lgamma_matches_scipy_gammaln():
    # the densities use math.lgamma directly; near its zeros at 1 and 2 a
    # relative bound cannot hold for any rounding, so there it is absolute
    x = np.concatenate([np.linspace(0.01, 50.0, 20_000), np.logspace(-300, 300, 601)])
    got = np.array([math.lgamma(v) for v in x])
    near_zero = (x > 0.9) & (x < 2.2)
    assert _rel_err(got[~near_zero], sc.gammaln(x[~near_zero])) <= REL
    assert np.max(np.abs(got[near_zero] - sc.gammaln(x[near_zero]))) <= 2e-15

