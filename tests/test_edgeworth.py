import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import bisect

from cltdioph import distkit as K
from cltdioph import edgeworth as E
from cltdioph.dioph import AlphaSpec

SQRT2 = AlphaSpec.surd(0, 1, 1, 2)


def params(a: float, n: int = 1, beta4=None) -> E.EdgeworthParams:
    """Params with sigma = 1 so that a = alpha3 / 6 / sqrt(n)."""
    return E.EdgeworthParams(alpha3=6.0 * a * math.sqrt(n), sigma=1.0,
                             n=n, beta4=beta4)


class TestNormal:
    def test_cdf_values(self):
        assert E.std_normal_cdf(0.0) == 0.5
        assert abs(E.std_normal_cdf(-1.0) - 0.15865525393145707) < 1e-16

    def test_pdf_at_zero(self):
        assert abs(E.std_normal_pdf(0.0) - 0.3989422804014327) < 1e-16

    def test_cdf_quadrature_oracle(self):
        for x in (-2.5, -0.7, 0.3, 1.9):
            ref = quad(E.std_normal_pdf, -20.0, x, epsabs=1e-14)[0]
            assert abs(E.std_normal_cdf(x) - ref) < 1e-13

    def test_vectorized(self):
        xs = np.linspace(-5, 5, 11)
        assert np.allclose(E.std_normal_cdf(xs),
                           [E.std_normal_cdf(float(x)) for x in xs])


class TestParams:
    def test_coefficient(self):
        p = E.EdgeworthParams(alpha3=2.0, sigma=math.sqrt(2.0), n=9)
        assert abs(p.a - 2.0 / (6.0 * 2.0 ** 1.5 * 3.0)) < 1e-16

    def test_admissibility_flag(self):
        p = E.EdgeworthParams(alpha3=1.0, sigma=1.0, n=4, beta4=3.0)
        assert p.admissible is True
        q = E.EdgeworthParams(alpha3=1.0, sigma=1.0, n=2, beta4=3.0)
        assert q.admissible is False
        assert E.EdgeworthParams(alpha3=1.0, sigma=1.0, n=2).admissible is None

    def test_validation(self):
        with pytest.raises(ValueError):
            E.EdgeworthParams(alpha3=0.0, sigma=0.0, n=1)
        with pytest.raises(ValueError):
            E.EdgeworthParams(alpha3=0.0, sigma=1.0, n=0)

    def test_from_dist(self):
        d = K.DiscreteDist(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3]))
        p = E.EdgeworthParams.from_dist(d, 4)
        assert abs(p.sigma - math.sqrt(2.0)) < 1e-15
        assert abs(p.alpha3 - 2.0) < 1e-14
        assert p.admissible is not None


class TestPhi3:
    def test_zero_skew_is_phi(self):
        p = params(0.0)
        xs = np.linspace(-10, 10, 2001)
        assert np.max(np.abs(E.phi3(xs, p) - E.std_normal_cdf(xs))) < 1e-15

    def test_value_at_origin(self):
        # correction at x = 0 is +a * phi(0)
        p = params(0.1)
        assert abs(E.phi3(0.0, p) - (0.5 + 0.1 * E.std_normal_pdf(0.0))) < 1e-16

    def test_correction_vanishes_at_unit(self):
        p = params(0.37)
        for x in (1.0, -1.0):
            assert E.phi3(x, p) == E.std_normal_cdf(x)

    def test_derivative_matches_difference_quotient(self):
        p = params(0.08)
        h = 1e-6
        for x in (-2.3, -0.5, 0.9, 3.1):
            dq = (E.phi3(x + h, p) - E.phi3(x - h, p)) / (2 * h)
            assert abs(E.phi3_deriv(x, p) - dq) < 1e-8

    def test_upper_tail_envelope(self):
        # 1 - Phi3(x) <= 0.57 exp(-x^2/4) for x >= 0 under admissibility
        d = K.zn_dist(K.product_bernoulli([SQRT2]), 1)
        m = K.moments(d)
        for n in (4, 16, 64):
            p = E.EdgeworthParams(m.alpha3, math.sqrt(m.sigma2), n, m.beta4)
            assert p.admissible
            xs = np.linspace(0.0, 12.0, 600)
            assert np.all(1.0 - E.phi3(xs, p)
                          <= 0.57 * np.exp(-xs * xs / 4.0) + 1e-15)


class TestStationaryPoints:
    def bisect_oracle(self, a):
        g = lambda x: 1.0 + a * (x ** 3 - 3.0 * x)
        xs = np.linspace(-6, 6, 20001)
        vals = g(xs)
        roots = []
        for i in range(len(xs) - 1):
            if vals[i] == 0.0:
                roots.append(xs[i])
            elif vals[i] * vals[i + 1] < 0:
                roots.append(bisect(g, xs[i], xs[i + 1], xtol=1e-13))
        return roots

    def test_zero_coefficient_empty(self):
        assert E.phi3_stationary_points(params(0.0)) == []

    @pytest.mark.parametrize("a", [1.0, -1.0, 0.45, 0.3851, -0.3851, 2.5, 0.2])
    def test_against_bisection(self, a):
        got = E.phi3_stationary_points(params(a))
        want = self.bisect_oracle(a)
        assert len(got) == len(want)
        for g, w in zip(got, sorted(want)):
            assert abs(g - w) < 1e-9

    def test_known_cubic(self):
        got = E.phi3_stationary_points(params(1.0))
        assert np.allclose(got, [-1.8794, 0.3473, 1.5321], atol=5e-5)

    def test_small_a_single_root(self):
        # for |a| < 1/2 the local extrema of 1 + a (x^3 - 3x) at x = -/+1
        # stay positive, leaving exactly one real root far in the tail
        roots = E.phi3_stationary_points(params(0.1))
        assert len(roots) == 1
        assert abs(roots[0] + 2.612887864717545) < 1e-10

    def test_tangency_case(self):
        # a = 1/2 gives a double root at x = 1 and a simple root at x = -2
        got = E.phi3_stationary_points(params(0.5))
        assert np.allclose(got, [-2.0, 1.0], atol=1e-12)
        got = E.phi3_stationary_points(params(-0.5))
        assert np.allclose(got, [-1.0, 2.0], atol=1e-12)

    def test_residual_tiny(self):
        for a in (0.9, -0.6, 1.7):
            for r in E.phi3_stationary_points(params(a)):
                assert abs(1.0 + a * (r ** 3 - 3.0 * r)) < 1e-10


class TestFourier:
    def test_at_zero(self):
        assert E.phi3_fourier(0.0, params(0.3)) == 1.0

    def test_gaussian_case(self):
        assert abs(E.phi3_fourier(1.0, params(0.0)) - math.exp(-0.5)) < 1e-16

    def test_conjugate_symmetry(self):
        p = params(0.2)
        for t in (0.5, 1.7, 9.3):
            assert E.phi3_fourier(-t, p) == E.phi3_fourier(t, p).conjugate()

    def test_envelope_under_admissibility(self):
        d = K.mixture_bernoulli([0.5, 0.5], [SQRT2])
        m = K.moments(d)
        n = max(4, math.ceil(m.beta4 / m.sigma2 ** 2))
        p = E.EdgeworthParams(m.alpha3, math.sqrt(m.sigma2), n, m.beta4)
        assert p.admissible
        ts = np.concatenate(([0.0], np.logspace(-3, np.log10(50.0), 400)))
        for t in ts:
            assert abs(E.phi3_fourier(float(t), p)) \
                <= 1.3 * math.exp(-t * t / 8.0) + 1e-15

    def test_matches_stieltjes_integral(self):
        # g3(t) = int exp(itx) dPhi3(x), checked by quadrature
        p = params(0.12)
        for t in (0.7, 2.0):
            re = quad(lambda x: math.cos(t * x) * E.phi3_deriv(x, p),
                      -12, 12, epsabs=1e-12, limit=200)[0]
            im = quad(lambda x: math.sin(t * x) * E.phi3_deriv(x, p),
                      -12, 12, epsabs=1e-12, limit=200)[0]
            assert abs(complex(re, im) - E.phi3_fourier(t, p)) < 1e-9


class TestFsTransform:
    def test_at_zero(self):
        assert E.fs_transform(K.bernoulli_pm(1), 0.0) == 1.0

    def test_bernoulli_is_cosine(self):
        b = K.bernoulli_pm(1)
        for t in (0.3, 1.0, 7.7):
            assert abs(E.fs_transform(b, t) - math.cos(t)) < 1e-15

    def test_product_factorizes(self):
        d = K.convolve(K.bernoulli_pm(1), K.bernoulli_pm(SQRT2))
        for t in (0.5, 2.9):
            want = math.cos(t) * math.cos(math.sqrt(2) * t)
            assert abs(E.fs_transform(d, t) - want) < 1e-14

    def test_modulus_bounded(self):
        d = K.zn_dist(K.product_bernoulli([SQRT2]), 8)
        for t in np.linspace(-30, 30, 61):
            assert abs(E.fs_transform(d, float(t))) <= 1.0 + 1e-12

    @pytest.mark.parametrize("n", [2, 8, 32, 64])
    def test_power_identity(self, n):
        base = K.product_bernoulli([SQRT2])
        sigma = math.sqrt(K.moments(base).sigma2)
        z = K.zn_dist(base, n)
        for t in (0.4, 1.0, 5.0, 17.3):
            lhs = E.fs_transform(z, t)
            rhs = E.fs_transform(base, t / (sigma * math.sqrt(n))) ** n
            assert abs(lhs - rhs) < 1e-10


class TestEnvelopes:
    def test_constants(self):
        assert (E.NORMAL_ENVELOPE.A, E.NORMAL_ENVELOPE.B) == (0.5, 2.0)
        assert (E.EDGEWORTH_ENVELOPE.A, E.EDGEWORTH_ENVELOPE.B) == (0.57, 4.0)

    def test_amplitude_floor(self):
        with pytest.raises(ValueError):
            E.TailEnvelope(0.4, 2.0)
        with pytest.raises(ValueError):
            E.TailEnvelope(1.0, 0.0)

    def test_normal_envelope_holds(self):
        # min(Phi(x), 1 - Phi(x)) <= (1/2) exp(-x^2/2)
        xs = np.linspace(-10, 10, 2001)
        phi = E.std_normal_cdf(xs)
        assert np.all(np.minimum(phi, 1 - phi) <= 0.5 * np.exp(-xs * xs / 2) + 1e-15)


class TestClosedFormBounds:
    def test_nonuniform_value(self):
        got = E.nonuniform_bound(1.0, E.NORMAL_ENVELOPE)
        assert abs(got - 13.0 * math.log(math.e + 1.0)) < 1e-12

    def test_nonuniform_phi_specialization(self):
        for d in (0.3, 0.01):
            assert abs(E.nonuniform_bound(d, E.NORMAL_ENVELOPE)
                       - 13.0 * d * math.log(math.e + 1.0 / d)) < 1e-14

    def test_w1_value(self):
        got = E.w1_bound(0.01, E.NORMAL_ENVELOPE)
        want = 16.02 * 0.01 * math.sqrt(math.log(math.e + 100.0))
        assert abs(got - want) < 1e-12
        assert abs(got - 0.3448) < 5e-4

    def test_cf_deviation_values(self):
        got = E.cf_deviation_bound(1.0, 0.1)
        assert abs(got - 24.2 * 0.1 * math.sqrt(math.log(math.e + 10.0))) < 1e-12
        assert abs(got - 3.859) < 2e-3
        assert E.cf_deviation_bound(0.0, 0.1) == 0.0
        sym = E.cf_deviation_bound(1.0, 0.1, symmetric=True)
        assert abs(sym / got - 16.02 / 24.2) < 1e-12

    def test_domain_errors(self):
        for fn in (E.nonuniform_bound, E.w1_bound):
            with pytest.raises(ValueError):
                fn(0.0, E.NORMAL_ENVELOPE)
            with pytest.raises(ValueError):
                fn(1.5, E.NORMAL_ENVELOPE)
        with pytest.raises(ValueError):
            E.cf_deviation_bound(1.0, -0.1)

    def test_monotone_to_zero(self):
        deltas = np.logspace(-8, 0, 30)
        vals = [E.w1_bound(float(d), E.NORMAL_ENVELOPE) for d in deltas]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[0] < 1e-6


def riemann_w1(d, G, lo=-15.0, hi=15.0, points=10 ** 7):
    xs = np.linspace(lo, hi, points)
    cum = np.cumsum(d.weights)
    idx = np.searchsorted(d.positions, xs, side="right")
    f = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
    return float(np.trapezoid(np.abs(f - G(xs)), xs))


class TestW1Exact:
    def test_bernoulli_vs_riemann_oracle(self):
        d = K.bernoulli_pm(1)
        G = E.comparison_for("phi", d, 1)
        assert abs(E.w1_exact(d, G) - riemann_w1(d, G)) < 1e-5

    def test_zn_vs_riemann_oracle(self):
        base = K.product_bernoulli([SQRT2])
        d = K.zn_dist(base, 4)
        G = E.comparison_for("phi", base, 4)
        assert abs(E.w1_exact(d, G) - riemann_w1(d, G)) < 1e-5

    def test_bound_41_holds(self):
        base = K.product_bernoulli([SQRT2])
        for n in (2, 4, 8, 16):
            d = K.zn_dist(base, n)
            G = E.comparison_for("phi", base, n)
            delta = K.kolmogorov_distance(d, G).delta
            assert E.w1_exact(d, G) <= E.w1_bound(delta, E.NORMAL_ENVELOPE)

    def test_edgeworth_target(self):
        d = K.zn_dist(K.DiscreteDist(np.array([-1.0, 2.0]),
                                     np.array([2 / 3, 1 / 3])), 8)
        p = E.EdgeworthParams.from_dist(
            K.DiscreteDist(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3])), 8)
        G = E.EdgeworthComparison(p)
        assert abs(E.w1_exact(d, G) - riemann_w1(d, G)) < 1e-5


class TestEmpiricalInequalities:
    def setup_method(self):
        self.base = K.DiscreteDist(np.array([-1.0, 2.0]),
                                   np.array([2 / 3, 1 / 3]))

    def test_nonuniform_36(self):
        # sup over atoms and grid of x^2 |F_n - Phi3| <= 13 A B Delta log(e+1/Delta)
        for n in (8, 16, 32):
            d = K.zn_dist(self.base, n)
            p = E.EdgeworthParams.from_dist(self.base, n)
            if not p.admissible:
                continue
            G = E.EdgeworthComparison(p)
            delta = K.kolmogorov_distance(d, G).delta
            xs = np.concatenate((d.positions, np.linspace(-12, 12, 4001)))
            cum = np.cumsum(d.weights)
            idx = np.searchsorted(d.positions, xs, side="right")
            f = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
            sup = np.max(xs ** 2 * np.abs(f - E.phi3(xs, p)))
            assert sup <= E.nonuniform_bound(delta, E.EDGEWORTH_ENVELOPE)

    def test_cf_deviation_43(self):
        for n in (8, 16, 32):
            p = E.EdgeworthParams.from_dist(self.base, n)
            if not p.admissible:
                continue
            d = K.zn_dist(self.base, n)
            G = E.EdgeworthComparison(p)
            delta = K.kolmogorov_distance(d, G).delta
            for t in np.linspace(-30, 30, 121):
                lhs = abs(E.fs_transform(d, float(t))
                          - E.phi3_fourier(float(t), p))
                if t == 0.0:
                    assert lhs < 1e-14
                else:
                    assert lhs <= E.cf_deviation_bound(float(t), delta)

    def test_cf_deviation_symmetric_variant(self):
        base = K.product_bernoulli([SQRT2])
        for n in (4, 16):
            d = K.zn_dist(base, n)
            delta = K.kolmogorov_distance(
                d, E.comparison_for("phi", base, n)).delta
            for t in np.linspace(-30, 30, 121):
                if t == 0.0:
                    continue
                lhs = abs(E.fs_transform(d, float(t))
                          - math.exp(-t * t / 2.0))
                assert lhs <= E.cf_deviation_bound(float(t), delta,
                                                   symmetric=True)


class TestComparisonApi:
    def test_factory(self):
        base = K.DiscreteDist(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3]))
        phi = E.comparison_for("phi", base, 16)
        xs = np.linspace(-8.0, 8.0, 1001)
        assert np.array_equal(phi(xs), E.std_normal_cdf(xs))
        assert phi.stationary_points() == []
        G = E.comparison_for("phi3", base, 16)
        assert isinstance(G, E.EdgeworthComparison)
        assert G.params == E.EdgeworthParams.from_dist(base, 16)
        assert G.params.a != 0.0
        with pytest.raises(ValueError):
            E.comparison_for("uniform", base, 16)

    def test_stationary_points_feed_kolmogorov(self):
        # a large enough to create interior stationary points of Phi3
        p = params(0.6)
        G = E.EdgeworthComparison(p)
        pts = G.stationary_points()
        assert len(pts) == 3
        d = K.DiscreteDist(np.array([-4.0, 4.0]), np.array([0.5, 0.5]))
        res = K.kolmogorov_distance(d, G)
        xs = np.linspace(-6, 6, 10 ** 6)
        cum = np.cumsum(d.weights)
        idx = np.searchsorted(d.positions, xs, side="right")
        f = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        brute = np.max(np.abs(f - np.asarray(G(xs))))
        assert res.delta >= brute - 1e-10

    @pytest.mark.parametrize("n, target, delta, argmax", [
        (64, "phi", 0.05871755863273537, -0.08838834764831843),
        (64, "phi3", 0.05290923082225257, -0.08838834764831843),
        (8, "phi3", 0.14868172754010922, None),
    ])
    def test_skewed_base_distances(self, n, target, delta, argmax):
        # pins the a != 0 path of Phi3 on the one skewed base at hand
        base = K.DiscreteDist(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3]))
        res = K.kolmogorov_distance(K.zn_dist(base, n),
                                    E.comparison_for(target, base, n))
        assert res.delta == delta
        if argmax is not None:
            assert (res.argmax, res.side) == (argmax, "right")
