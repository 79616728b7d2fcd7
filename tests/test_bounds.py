import math

import numpy as np
import pytest

from cltdioph import bounds as B
from cltdioph import distkit as K
from cltdioph.dioph import AlphaSpec
from cltdioph.errors import InadmissibleT, QuadratureFailure

SQRT2 = AlphaSpec.surd(0, 1, 1, 2)


def abs_cf_grid(d, ts):
    """|fs transform| on a grid, vectorized over atoms."""
    arg = np.outer(ts, d.positions)
    re = np.cos(arg) @ d.weights
    im = np.sin(arg) @ d.weights
    return np.hypot(re, im)


def simpson_tail(d, n, t_lo, t_hi, points=2 ** 20 + 1):
    """Dense-Simpson oracle for the tail integral of |f|^n / t."""
    ts = np.linspace(t_lo, t_hi, points)
    v = abs_cf_grid(d, ts)
    with np.errstate(divide="ignore"):
        y = np.exp(n * np.log1p(np.minimum(v, 1.0) - 1.0)) / ts
    y[~np.isfinite(y)] = 0.0
    from scipy.integrate import simpson
    return float(simpson(y, x=ts))


class TestSmoothing:
    def test_eval_budget_enforced(self):
        counted = B._CountingFn(lambda t: 1.0, budget=10)
        for _ in range(10):
            counted(0.5)
        with pytest.raises(QuadratureFailure):
            counted(0.5)


class TestLemma21:
    def test_moment_term_quarters(self):
        base = K.product_bernoulli([SQRT2])
        r1 = B.lemma21_rhs(base, 64, 8.0)
        r2 = B.lemma21_rhs(base, 256, 8.0)
        assert r2.moment_term == pytest.approx(r1.moment_term / 4.0)

    def test_boundary_T_empty_tail(self):
        base = K.product_bernoulli([SQRT2])
        m = K.moments(base)
        t_lo = math.sqrt(m.sigma2) / math.sqrt(m.beta4)
        rep = B.lemma21_rhs(base, 16, t_lo)
        assert rep.tail_integral == 0.0
        assert rep.rhs_total == pytest.approx(rep.moment_term + rep.cutoff_term)

    def test_inadmissible_T(self):
        base = K.product_bernoulli([SQRT2])
        with pytest.raises(InadmissibleT):
            B.lemma21_rhs(base, 16, 0.01)

    def test_quadrature_error_checked(self, monkeypatch):
        # a tail integral whose error estimate swamps it is not reported
        monkeypatch.setattr(B, "quad", lambda *args, **kwargs: (0.0, 1.0))
        with pytest.raises(QuadratureFailure):
            B.lemma21_rhs(K.product_bernoulli([SQRT2]), 64, 8.0)

    def test_T0_definition(self):
        base = K.product_bernoulli([SQRT2])
        m = K.moments(base)
        rep = B.lemma21_rhs(base, 49, 5.0)
        assert rep.T0 == pytest.approx(m.sigma2 * 7.0 / math.sqrt(m.beta4))

    def test_term_monotonicity_and_unimodality(self):
        base = K.product_bernoulli([SQRT2])
        Ts = np.logspace(0, 2.0, 17)
        reps = [B.lemma21_rhs(base, 256, float(T)) for T in Ts]
        cut = [r.cutoff_term for r in reps]
        tail = [r.tail_integral for r in reps]
        assert all(a > b for a, b in zip(cut, cut[1:]))
        assert all(b >= a * (1 - 1e-6) - 1e-15 for a, b in zip(tail, tail[1:]))
        # the total dips to an interior minimum; resonance spikes arriving
        # one by one make it locally jagged on both flanks, so the
        # assertion is an interior minimum with clearly higher endpoints
        total = [r.rhs_total for r in reps]
        k = int(np.argmin(total))
        assert 0 < k < len(total) - 1
        assert total[0] > 1.2 * total[k]
        assert total[-1] > 1.2 * total[k]

    def test_lattice_tail_non_decaying(self):
        rep = B.lemma21_rhs(K.bernoulli_pm(1), 64, 16.0)
        assert rep.non_decaying_tail
        bigger = B.lemma21_rhs(K.bernoulli_pm(1), 64, 64.0)
        assert bigger.tail_integral > rep.tail_integral * 1.5

    def test_irrational_tail_decays_flagless(self):
        base = K.product_bernoulli([SQRT2])
        rep = B.lemma21_rhs(base, 256, 16.0)
        assert not rep.non_decaying_tail

    @pytest.mark.parametrize("seed", range(20))
    def test_tail_matches_simpson_oracle(self, seed):
        rng = np.random.default_rng(seed)
        alpha = AlphaSpec.decimal(f"0.{rng.integers(10**8, 10**9)}")
        n = int(rng.integers(4, 64))
        T = float(rng.uniform(3.0, 8.0))
        base = K.product_bernoulli([alpha])
        rep = B.lemma21_rhs(base, n, T)
        m = K.moments(base)
        t_lo = math.sqrt(m.sigma2) / math.sqrt(m.beta4)
        oracle = simpson_tail(base, n, t_lo, T)
        assert rep.tail_integral == pytest.approx(oracle, rel=1e-8, abs=1e-12)

    def test_rhs_tracks_delta_across_sweep(self):
        # shape check: rhs_total / Delta_n stays bounded (constant in the
        # inequality is unspecified, so only the ratio spread is asserted)
        base = K.product_bernoulli([SQRT2])
        ratios = []
        for k in range(4, 10):
            n = 2 ** k
            T = B.prop22_cutoff(2.0, 0.0, n, 1.0)
            rep = B.lemma21_rhs(base, n, max(T, 1.0))
            z = K.zn_dist(base, n)
            from cltdioph.edgeworth import comparison_for
            delta = K.kolmogorov_distance(
                z, comparison_for("phi", base, n)).delta
            ratios.append(rep.rhs_total / delta)
        assert max(ratios) / min(ratios) < 6.0

    def test_sweep_decay_exponent(self):
        base = K.product_bernoulli([SQRT2])
        ns, ys = [], []
        for k in range(4, 12):
            n = 2 ** k
            T = B.prop22_cutoff(2.0, 0.0, n, 1.0)
            rep = B.lemma21_rhs(base, n, max(T, 1.0))
            ns.append(n)
            ys.append(rep.rhs_total)
        design = np.column_stack([np.ones(len(ns)), np.log(ns)])
        coef, *_ = np.linalg.lstsq(design, np.log(ys), rcond=None)
        # target: decay at least 1/2 + 1/p - 0.1 with p = 2
        assert coef[1] <= -0.9


class TestProp22Cutoff:
    def test_reference_values(self):
        t_n = B.prop22_cutoff(2.0, 0.0, 1000, 1.0)
        assert t_n == pytest.approx(
            math.sqrt(1000.0 / 3.0) / math.sqrt(math.log(1000.0)))

    def test_no_log_correction(self):
        # q = -1: r = 0 and b = a / (3 p), so T_n = sqrt(b n)
        t_n = B.prop22_cutoff(2.0, -1.0, 100, 1.0)
        assert t_n == pytest.approx(math.sqrt(100.0 / 6.0))

    def test_domain(self):
        with pytest.raises(ValueError):
            B.prop22_cutoff(0.0, 0.0, 100, 1.0)
        with pytest.raises(ValueError):
            B.prop22_cutoff(2.0, 0.0, 2, 1.0)
        with pytest.raises(ValueError):
            B.prop22_cutoff(2.0, 0.0, 100, 0.0)


class TestProp51:
    def test_symmetric_base_no_violations(self):
        base = K.product_bernoulli([SQRT2])
        rep = B.prop51_check(base, [64, 256, 1024], 2.0, 0.0)
        assert rep.symmetric
        assert all(r.violations == 0 for r in rep.rows)
        assert rep.c_spread < 3.0

    def test_asymmetric_base_uses_edgeworth(self):
        base = K.DiscreteDist(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3]))
        rep = B.prop51_check(base, [32, 64], 2.0, 0.0)
        assert not rep.symmetric
        assert all(r.violations == 0 for r in rep.rows)

    def test_rows_carry_exact_deltas(self):
        base = K.product_bernoulli([SQRT2])
        rep = B.prop51_check(base, [64], 2.0, 0.0)
        from cltdioph.edgeworth import comparison_for
        want = K.kolmogorov_distance(K.zn_dist(base, 64),
                                     comparison_for("phi", base, 64)).delta
        assert rep.rows[0].delta_n == pytest.approx(want, abs=0)

