import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from cltdioph import charfn as C
from cltdioph import dioph as D
from cltdioph.dioph import AlphaSpec
from cltdioph.errors import InsufficientPeaks

SQRT2 = AlphaSpec.surd(0, 1, 1, 2)
SQRT3 = AlphaSpec.surd(0, 1, 1, 3)


class TestCharSpec:
    def test_mixture_weight_length(self):
        with pytest.raises(ValueError):
            C.CharSpec.mixture([0.5, 0.25, 0.25], [SQRT2])

    def test_mixture_weight_sum(self):
        with pytest.raises(ValueError):
            C.CharSpec.mixture([0.5, 0.6], [SQRT2])
        with pytest.raises(ValueError):
            C.CharSpec.mixture([1.2, -0.2], [SQRT2])

    def test_parse_product(self):
        spec = C.CharSpec.parse("prod:surd:0,1,1,2,surd:0,1,1,3")
        assert spec.weights is None and len(spec.alphas) == 2
        assert abs(spec.alphas[0].to_float() - math.sqrt(2)) < 1e-15
        assert abs(spec.alphas[1].to_float() - math.sqrt(3)) < 1e-15

    def test_parse_mixture(self):
        spec = C.CharSpec.parse("mix:0.5:surd:0,1,1,2=0.25,rat:1/3=0.25")
        assert spec.weights == (0.5, 0.25, 0.25)
        assert abs(spec.alphas[1].to_float() - 1 / 3) < 1e-15

    def test_parse_rejects_garbage(self):
        for text in ("sum:1,2", "mix:0.5", "mix:0.5:surd:0,1,1,2"):
            with pytest.raises(ValueError):
                C.CharSpec.parse(text)


class TestEval:
    def test_at_zero(self):
        for spec in (C.CharSpec.product([SQRT2]),
                     C.CharSpec.mixture([0.5, 0.5], [SQRT2]),
                     C.CharSpec.product([])):
            assert C.eval(spec, 0.0) == 1.0

    def test_empty_product_is_cos(self):
        spec = C.CharSpec.product([])
        for t in (0.3, 2.9, 17.0):
            assert C.eval(spec, t) == math.cos(t)

    def test_sqrt2_at_pi(self):
        # 50-digit reference for cos(pi) cos(sqrt(2) pi)
        mpmath.mp.dps = 50
        want = float(mpmath.cos(mpmath.pi) * mpmath.cos(mpmath.sqrt(2) * mpmath.pi))
        assert abs(C.eval(C.CharSpec.product([SQRT2]), math.pi) - want) < 1e-14

    def test_product_factorizes(self):
        spec = C.CharSpec.product([SQRT2, SQRT3])
        singles = [C.CharSpec.product([a]) for a in (SQRT2, SQRT3)]
        for t in (0.7, 5.0, 123.456):
            prod = math.cos(t)
            for s in singles:
                prod *= C.eval(s, t) / math.cos(t)
            assert abs(C.eval(spec, t) - prod) < 1e-14

    def test_bounded_by_one(self):
        spec = C.CharSpec.mixture([0.3, 0.3, 0.4], [SQRT2, SQRT3])
        for t in np.linspace(-100, 100, 501):
            assert abs(C.eval(spec, float(t))) <= 1.0 + 1e-15

    def test_large_t_against_mpmath(self):
        # extended-precision argument handling at t near the float128 limit
        mpmath.mp.dps = 60
        spec = C.CharSpec.product([SQRT2])
        for t in (1.0e5, 7.7e5):
            want = float(mpmath.cos(t) * mpmath.cos(mpmath.sqrt(2) * t))
            assert abs(C.eval(spec, t) - want) < 1e-10

    def test_beyond_f128_limit_falls_back(self):
        # |t alpha| > _F128_LIMIT: the arbitrary-precision branch, against
        # a reference that builds each alpha from its definition
        golden = AlphaSpec.parse("cf:1;periodic:1")
        mix = C.CharSpec.mixture([0.25, 0.5, 0.25], [SQRT3, golden])
        with mpmath.workdps(60):
            phi = (1 + mpmath.sqrt(5)) / 2
            t = 3.0e6
            want = float(mpmath.cos(t) * mpmath.cos(mpmath.sqrt(2) * t))
            assert abs(C.eval(C.CharSpec.product([SQRT2]), t) - want) < 1e-9
            for t in (2.5e6, 1.3e7):
                assert abs(t * phi) > C._F128_LIMIT
                want = float(0.25 * mpmath.cos(t)
                             + 0.5 * mpmath.cos(mpmath.sqrt(3) * t)
                             + 0.25 * mpmath.cos(phi * t))
                assert abs(C.eval(mix, t) - want) < 1e-9


    def test_decimal_step_is_its_value_at_every_t(self):
        # a dec: step with 35 certified bits is evaluated from its decimal
        # value on both sides of _F128_LIMIT, against mpmath and against
        # the rat: spec of the same value
        dec = C.CharSpec.parse("prod:dec:1.41421356237")
        rat = C.CharSpec.parse("prod:rat:141421356237/100000000000")
        with mpmath.workdps(60):
            a = mpmath.mpf(141421356237) / 10 ** 11
            for t in (1.0e5, 1.0e7, 3.0e9):
                want = float(mpmath.cos(t) * mpmath.cos(a * t))
                assert C.eval(dec, t) == C.eval(rat, t)
                assert abs(C.eval(dec, t) - want) < 1e-9


class TestProfile:
    def test_local_minima_at_convergent_denominators(self):
        # near t = pi q_k the profile 1 - |f| dips, and the dips shrink
        # with q_k
        spec = C.CharSpec.product([SQRT2])
        dips = []
        for q in (2, 5, 12, 29):
            ts = np.linspace(math.pi * q - 1, math.pi * q + 1, 400)
            dips.append(min(1.0 - abs(C.eval(spec, t)) for t in ts))
        assert all(a > b for a, b in zip(dips, dips[1:]))
        assert dips[-1] < 1e-2

    def test_rational_periodicity(self):
        spec = C.CharSpec.mixture([0.5, 0.5], [AlphaSpec.rational(1, 1)])
        assert 1.0 - abs(C.eval(spec, 2 * math.pi)) < 1e-15


class TestIneq61:
    def test_at_zero_all_equalities(self):
        res = C.ineq61_check(0.0)
        assert res.passed
        assert abs(res.exp_margin) < 1e-15
        assert abs(res.lower_margin) < 1e-15
        assert abs(res.upper_margin) < 1e-15

    def test_half_integer_extreme(self):
        res = C.ineq61_check(0.5)
        assert res.passed
        assert abs(res.exp_margin - math.exp(-math.pi ** 2 / 8)) < 1e-15
        # 4 ||x||^2 = 1 = 1 - |cos(pi/2)|: the lower bound is tight
        assert abs(res.lower_margin) < 1e-15
        assert abs(res.upper_margin - (math.pi ** 2 / 8 - 1.0)) < 1e-15

    def test_interior_point(self):
        res = C.ineq61_check(0.3)
        assert res.passed
        assert res.exp_margin > 0 and res.lower_margin > 0 and res.upper_margin > 0

    @settings(max_examples=500)
    @given(st.floats(-10, 10))
    def test_random_points(self, x):
        assert C.ineq61_check(x).passed

    def test_dense_grid(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-10, 10, 10 ** 5):
            d = C.frac_dist(float(x))
            c = abs(math.cos(math.pi * x))
            assert c <= math.exp(-math.pi ** 2 * d * d / 2) + 1e-12
            assert 4 * d * d <= 1 - c + 1e-12 <= math.pi ** 2 / 2 * d * d + 2e-12

    def test_one_pass_equals_the_scalar_loop(self):
        # the cosine and the exponential go through numpy here and through
        # the C library in the loop, so margins may differ by an ulp or two
        xs = np.random.default_rng(0).uniform(-10, 10, 10 ** 4)
        xs[:6] = [0.0, 0.5, -0.5, 2.5, -2.5, 7.0]
        got = C.ineq61_check(xs)
        for i, x in enumerate(xs.tolist()):
            n = math.floor(x + 0.5)
            if x + 0.5 == n and n > x:
                n -= 1
            d = abs(x - n)
            c = abs(math.cos(math.pi * x))
            want = (math.exp(-math.pi ** 2 * d * d / 2.0) - c,
                    (1.0 - c) - 4.0 * d * d,
                    (math.pi ** 2 / 2.0) * d * d - (1.0 - c))
            assert got.passed[i] == (min(want) >= -1e-12)
            for g, w in zip(got[:3], want):
                assert abs(g[i] - w) <= 1e-15


class TestNearestInt:
    def test_half_rounds_down(self):
        assert C.nearest_int_float(2.5) == 2
        assert C.nearest_int_float(-2.5) == -3
        assert C.nearest_int_float(2.4) == 2
        assert C.nearest_int_float(2.6) == 3

    def test_dist(self):
        assert C.frac_dist(2.5) == 0.5
        assert C.frac_dist(-0.25) == 0.25
        assert C.frac_dist(7.0) == 0.0


class TestGrowthFit:
    def test_product_sqrt2(self):
        fit = C.growth_fit(C.CharSpec.product([SQRT2]), 1e4)
        assert not fit.degenerate
        assert 1.7 <= fit.p_hat <= 2.3
        assert fit.q_hat is not None
        assert len(fit.sample) == 8

    def test_mixture_parity(self):
        p = C.growth_fit(C.CharSpec.product([SQRT2]), 1e4).p_hat
        m = C.growth_fit(C.CharSpec.mixture([0.5, 0.5], [SQRT2]), 1e4).p_hat
        assert abs(p - m) < 0.3

    def test_mixture_uneven_weights_parity(self):
        m = C.growth_fit(C.CharSpec.mixture([0.2, 0.8], [SQRT2]), 1e4).p_hat
        assert 1.7 <= m <= 2.3

    def test_mixture_scans_odd_multiples_of_pi(self):
        # at an odd multiple of pi cos t = -1, and |f| is near 1 where
        # cos(sqrt2 t) is near -1 as well: records at 29 pi and 169 pi
        fit = C.growth_fit(C.CharSpec.mixture([0.5, 0.5], [SQRT2]), 1e4)
        ks = {round(t / math.pi) for t, _ in fit.sample}
        assert {29, 169} <= ks

    def test_degenerate_pure_cosine(self):
        fit = C.growth_fit(C.CharSpec.product([]), 1e3)
        assert fit.degenerate and math.isnan(fit.p_hat)

    def test_degenerate_rational(self):
        fit = C.growth_fit(C.CharSpec.product([AlphaSpec.rational(1, 2)]),
                           1e3)
        assert fit.degenerate

    def test_sample_on_lower_envelope(self):
        fit = C.growth_fit(C.CharSpec.product([SQRT2]), 1e4)
        oms = [om for _, om in fit.sample]
        assert all(a > b for a, b in zip(oms, oms[1:]))

    def test_q_not_identifiable_short_range(self):
        # golden ratio: Fibonacci convergents are dense enough for eight
        # record peaks inside a range too short to identify the log power
        golden = AlphaSpec.surd(1, 1, 2, 5)
        fit = C.growth_fit(C.CharSpec.product([golden]), 900.0)
        assert fit.q_hat is None
        assert 1.7 <= fit.p_hat <= 2.3

    def test_insufficient_peaks(self):
        with pytest.raises(InsufficientPeaks):
            C.growth_fit(C.CharSpec.product([SQRT2]), 20.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            C.growth_fit(C.CharSpec.product([SQRT2]), 5.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and exceed 10"):
                C.growth_fit(C.CharSpec.product([SQRT2]), bad)


def _full_scan(monkeypatch, spec, t_max):
    # the reference runs _refine_peak at every candidate: no bound skips
    with monkeypatch.context() as m:
        m.setattr(C, "_record_floor",
                  lambda spec, n_hi, n_lo=1: np.zeros(n_hi - n_lo + 1))
        return _fit_or_error(spec, t_max)


def _fit_or_error(spec, t_max):
    try:
        return C.growth_fit(spec, t_max)
    except InsufficientPeaks as exc:
        return repr(exc)


_SURD_DS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)


@st.composite
def _char_specs(draw):
    k = draw(st.integers(1, 3))
    alphas = []
    for _ in range(k):
        if draw(st.booleans()):
            alphas.append(AlphaSpec.surd(
                draw(st.integers(-3, 3)), draw(st.integers(1, 3)),
                draw(st.integers(1, 4)), draw(st.sampled_from(_SURD_DS))))
        else:
            alphas.append(AlphaSpec.rational(draw(st.integers(-40, 40)),
                                             draw(st.integers(1, 40))))
    if draw(st.booleans()):
        return C.CharSpec.product(alphas)
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(k + 1)]
    total = math.fsum(raw)
    return C.CharSpec.mixture([r / total for r in raw], alphas)


class TestRecordSkip:
    @pytest.mark.parametrize("text, t_max", [
        ("prod:surd:0,1,1,2", 3e4),
        ("prod:surd:0,1,1,15", 3e4),
        ("prod:surd:0,1,1,2,surd:0,1,1,3", 1e4),
        ("mix:0.5:surd:0,1,1,2=0.5", 1e4),
        ("mix:0.2:surd:0,1,1,2=0.8", 1e4),
        ("prod:cf:0;2,30,periodic:1", 1e4),
        ("prod:rat:1/2", 1e3),                  # degenerate exit
        ("prod:dec:1.41421356237", 1e3),        # fewer than 64 digit bits
        ("prod:surd:0,1,1,5", 3e4),             # InsufficientPeaks
        ("prod:rat:1" + "0" * 300 + "/3", 100.0),  # |alpha| > 2^500
    ])
    def test_equals_full_scan(self, monkeypatch, text, t_max):
        spec = C.CharSpec.parse(text)
        assert _fit_or_error(spec, t_max) == _full_scan(monkeypatch, spec,
                                                        t_max)

    def test_runs_few_searches(self, monkeypatch):
        calls = []
        refine = C._refine_peak

        def counted(spec, center):
            calls.append(center)
            return refine(spec, center)

        monkeypatch.setattr(C, "_refine_peak", counted)
        C.growth_fit(C.CharSpec.product([SQRT2]), 3e4)
        assert int(3e4 / math.pi) == 9549
        assert 0 < len(calls) < 95

    def test_floor_in_blocks(self, monkeypatch):
        spec = C.CharSpec.parse("prod:surd:0,1,1,2,surd:0,1,1,3")
        whole = C._record_floor(spec, 9549)
        parts = [C._record_floor(spec, min(lo + 999, 9549), lo)
                 for lo in range(1, 9550, 1000)]
        assert np.array_equal(np.concatenate(parts), whole)
        fit = C.growth_fit(spec, 3e4)
        monkeypatch.setattr(C, "_FLOOR_BLOCK", 1000)
        assert C.growth_fit(spec, 3e4) == fit

    def test_decimal_step_skips_like_its_value(self, monkeypatch):
        # a dec: step has fewer than 64 certified bits, but the floor reads
        # the value eval uses, so it skips as for any other step
        spec = C.CharSpec.parse("prod:dec:1.41421356237")
        full = _full_scan(monkeypatch, spec, 1e4)
        calls = []
        refine = C._refine_peak

        def counted(spec, center):
            calls.append(center)
            return refine(spec, center)

        monkeypatch.setattr(C, "_refine_peak", counted)
        assert C.growth_fit(spec, 1e4) == full
        assert int(1e4 / math.pi) == 3183
        assert 0 < len(calls) < 32

    @settings(max_examples=300, deadline=None)
    @given(_char_specs(), st.integers(1, 20000),
           st.floats(-1.0, 1.0))
    def test_bound_holds_on_bracket(self, spec, n, u):
        s = math.pi * n + u * C._BRACKET
        floor = C._record_floor(spec, n)[n - 1]
        assert 1.0 - abs(C.eval(spec, s)) >= floor - 1e-12


class TestCompositionWithDioph:
    def test_cos_pi_n_alpha_bound(self):
        # |f(pi n)| for the single-factor product is |cos(pi n alpha)|
        # and obeys the exponential bound through ||n alpha||
        spec = C.CharSpec.product([SQRT2])
        for n in range(1, 1001):
            v, err = D.nearest_int_dist(SQRT2, n)
            lhs = abs(C.eval(spec, math.pi * n))
            # cos(pi n) = +/-1 exactly at integer n
            assert lhs <= math.exp(-math.pi ** 2 * v * v / 2) + 1e-10


class TestFminbound:
    """_fminbound returns the point and value of scipy's bounded
    minimize_scalar to the bit."""

    @staticmethod
    def _compared(monkeypatch):
        own, searches = C._fminbound, []

        def both(func, x1, x2, xatol):
            got = own(func, x1, x2, xatol)
            res = minimize_scalar(func, bounds=(x1, x2), method="bounded",
                                  options={"xatol": xatol})
            searches.append(([float(v).hex() for v in got],
                             [float(v).hex() for v in (res.x, res.fun)]))
            return got

        monkeypatch.setattr(C, "_fminbound", both)
        return searches

    @pytest.mark.parametrize("text, t_max, full", [
        ("prod:surd:0,1,1,2", 3e4, False),    # the pinned cf output
        ("prod:surd:0,1,1,2", 3e3, True),
        ("prod:surd:0,1,1,2,surd:0,1,1,3", 3e3, True),
        ("mix:0.5:surd:0,1,1,2=0.5", 3e3, True),
        ("prod:cf:0;2,30,periodic:1", 3e3, True),
        ("prod:rat:1/3", 100.0, True),        # degenerate exit
    ])
    def test_growth_fit_peaks(self, monkeypatch, text, t_max, full):
        # full: a search at every candidate, none skipped by the floor
        spec = C.CharSpec.parse(text)
        searches = self._compared(monkeypatch)
        if full:
            monkeypatch.setattr(
                C, "_record_floor",
                lambda spec, n_hi, n_lo=1: np.zeros(n_hi - n_lo + 1))
        _fit_or_error(spec, t_max)
        assert searches
        assert [got for got, _ in searches] == [want for _, want in searches]

    def test_brackets_and_tolerances(self):
        # parabolic steps, golden sections, minima at either end and flat
        # stretches, over brackets and tolerances far from growth_fit's
        cases = []
        for c in (-2.0, 0.1, 0.5, 0.999, 3.0):
            for w in (1e-3, 0.1, 2.0):
                cases += [lambda x, c=c: (x - c) ** 2,
                          lambda x, c=c: abs(x - c),
                          lambda x, c=c, w=w: -math.exp(-((x - c) / w) ** 2),
                          lambda x, w=w: math.cos(x / w),
                          lambda x, c=c: float(x > c)]
        for f in cases:
            for x1, x2 in ((0.0, 1.0), (-3.0, 4.0), (0.49, 0.51)):
                for xatol in (1e-12, 1e-9, 1e-5, 1e-2):
                    got = C._fminbound(f, x1, x2, xatol)
                    res = minimize_scalar(f, bounds=(x1, x2),
                                          method="bounded",
                                          options={"xatol": xatol})
                    assert [v.hex() for v in got] == \
                        [float(v).hex() for v in (res.x, res.fun)]
