import math

import numpy as np
import pytest
from scipy.special import ndtr

from cltdioph import distkit as K
from cltdioph import rates as R
from cltdioph.dioph import AlphaSpec
from cltdioph.errors import PrecisionExhausted, TooFewPoints

SQRT2 = AlphaSpec.surd(0, 1, 1, 2)
GOLDEN = AlphaSpec.surd(1, 1, 2, 5)


def sweep_fit(sweep):
    return R.rate_fit([r.n for r in sweep.rows],
                      [r.delta_phi for r in sweep.rows])


class TestDeltaSweep:
    def test_b1_n1_closed_form(self):
        sweep = R.delta_sweep(K.bernoulli_pm(1), [1])
        assert abs(sweep.rows[0].delta_phi - (0.5 - ndtr(-1.0))) < 1e-15

    def test_matches_direct_computation(self):
        base = K.product_bernoulli([SQRT2])
        sweep = R.delta_sweep(base, [16])
        from cltdioph.edgeworth import comparison_for
        want = K.kolmogorov_distance(K.zn_dist(base, 16),
                                     comparison_for("phi", base, 16))
        assert sweep.rows[0].delta_phi == want.delta
        assert sweep.rows[0].argmax == want.argmax

    def test_atom_at_zero_lower_bound(self):
        # P{Z_n = 0} = (C(n, n/2) / 2^n)^2 for even n, and the distance to
        # any continuous CDF is at least half that jump
        base = K.product_bernoulli([SQRT2])
        sweep = R.delta_sweep(base, [4, 8, 16, 32])
        for row in sweep.rows:
            n = row.n
            z = K.zn_dist(base, n)
            want = (math.comb(n, n // 2) / 2 ** n) ** 2
            i = np.searchsorted(z.positions, 0.0)
            assert z.positions[i] == 0.0
            assert z.weights[i] == pytest.approx(want, rel=1e-12)
            assert row.delta_phi >= want / 2

    def test_phi3_column_for_asymmetric_base(self):
        base = K.DiscreteDist(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3]))
        sweep = R.delta_sweep(base, [8, 16])
        assert all(r.delta_phi3 is not None for r in sweep.rows)
        assert all(0 < r.delta_phi3 <= 1 for r in sweep.rows)
        # skewness correction helps at these n
        assert sweep.rows[-1].delta_phi3 < sweep.rows[-1].delta_phi

    def test_symmetric_base_skips_phi3(self):
        sweep = R.delta_sweep(K.product_bernoulli([SQRT2]), [8])
        assert sweep.rows[0].delta_phi3 is None

    def test_rejects_non_increasing_n(self):
        with pytest.raises(ValueError):
            R.delta_sweep(K.bernoulli_pm(1), [8, 8])

    def test_deterministic(self):
        base = K.product_bernoulli([SQRT2])
        a = R.delta_sweep(base, [16, 32]).rows
        b = R.delta_sweep(base, [16, 32]).rows
        assert [r.delta_phi for r in a] == [r.delta_phi for r in b]


class TestRateFit:
    def test_synthetic_recovery(self):
        ns = [2 ** k for k in range(4, 12)]
        deltas = [n ** -1.0 * math.log(n) ** 0.5 for n in ns]
        fit = R.rate_fit(ns, deltas)
        assert abs(fit.exponent + 1.0) < 1e-6
        assert abs(fit.logpow - 0.5) < 1e-6
        assert fit.r2 > 1 - 1e-12

    def test_constrained_variant(self):
        ns = [2 ** k for k in range(4, 12)]
        deltas = [n ** -1.0 * math.log(n) ** 0.5 for n in ns]
        fit = R.rate_fit(ns, deltas, eta_hint=1.0)
        assert fit.constrained_exponent == -1.0
        assert abs(fit.constrained_logpow - 0.5) < 1e-6

    def test_too_few_points(self):
        ns = [16, 32, 64, 128]
        with pytest.raises(TooFewPoints):
            R.rate_fit(ns, [1 / n for n in ns])

    def test_sqrt2_sweep_rate(self):
        base = K.product_bernoulli([SQRT2])
        sweep = R.delta_sweep(base, [2 ** k for k in range(4, 10)])
        fit = sweep_fit(sweep)
        assert -1.15 <= fit.exponent <= -0.85
        assert fit.r2 >= 0.98

    def test_b1_lattice_rate(self):
        sweep = R.delta_sweep(K.bernoulli_pm(1), [2 ** k for k in range(4, 12)])
        fit = sweep_fit(sweep)
        assert -0.6 <= fit.exponent <= -0.4

    def test_window(self):
        ns = [16, 32, 64, 128, 256]
        fit = R.rate_fit(ns, [1 / n for n in ns])
        assert fit.window == (16, 256)


class TestAvgDelta:
    def test_single_point_half(self):
        avg, ratio = R.avg_delta(8, 1)
        assert 0.0 < avg <= 1.0
        assert ratio == pytest.approx(avg * 8 / math.log(9))

    def test_n1_positivity(self):
        avg, _ = R.avg_delta(1, 8)
        assert 0.0 < avg <= 1.0

    def test_ratio_bounded_across_n(self):
        ratios = [R.avg_delta(n, 32)[1] for n in (64, 128, 256, 512)]
        assert max(ratios) / min(ratios) < 4.0

    def test_grid_matches_untagged_float_pipeline(self):
        # the exact integer-lattice construction agrees with the generic
        # tolerance-merging convolution pipeline on small n
        avg, _ = R.avg_delta(16, 2)
        from cltdioph.edgeworth import comparison_for
        total = 0.0
        for num in (1, 3):
            a = num / 4
            base = K.DiscreteDist(
                np.array(sorted([-1 - a, -1 + a, 1 - a, 1 + a])),
                np.full(4, 0.25))
            z = K.zn_dist(base, 16)
            total += K.kolmogorov_distance(
                z, comparison_for("phi", base, 16)).delta
        assert avg == pytest.approx(total / 2, rel=1e-9)


def _avg_loop(n, grid_size):
    """The one-loop average that avg_delta must reproduce bit for bit."""
    from cltdioph.edgeworth import comparison_for
    total = 0.0
    for i in range(grid_size):
        base = K.product_bernoulli(
            [AlphaSpec.rational(2 * i + 1, 2 * grid_size)])
        total += K.kolmogorov_distance(
            K.zn_slabs(base, n), comparison_for("phi", base, n)).delta
    average = total / grid_size
    return average, average * n / math.log(n + 1.0)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(R.os, "sched_getaffinity",
                        lambda pid: set(range(count)))


class TestAvgShares:
    """avg_delta splits its grid over forked workers; no test here asks
    for more than 4 CPUs, so at most 3 workers."""

    @pytest.mark.parametrize("n, grid", [(16, 1), (16, 3), (256, 128)])
    def test_one_cpu_equals_all(self, monkeypatch, n, grid):
        many = R.avg_delta(n, grid)
        _cpus(monkeypatch, 1)
        one = R.avg_delta(n, grid)
        assert one == many
        assert one == _avg_loop(n, grid)

    @pytest.mark.parametrize("grid", [2, 5, 7])
    def test_four_shares_equal_loop(self, monkeypatch, grid):
        _cpus(monkeypatch, 4)
        assert R.avg_delta(32, grid) == _avg_loop(32, grid)

    def test_no_children_left(self, monkeypatch):
        import multiprocessing
        _cpus(monkeypatch, 2)
        R.avg_delta(16, 4)
        assert multiprocessing.active_children() == []
        with pytest.raises(ValueError, match="n must be >= 1"):
            R.avg_delta(0, 4)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_first_error_on_the_grid_wins(self, monkeypatch, cpus):
        # alphas 5/16 and 7/16 (i = 2, 3) fail; with 2 or 4 shares i = 2
        # is a worker's, and the loop would meet it first
        slabs = R.zn_slabs

        def failing(base, n):
            alpha = base.spec.alphas[0].exact_fraction()
            if alpha.denominator == 16 and alpha.numerator in (5, 7):
                raise PrecisionExhausted(f"alpha {alpha}")
            return slabs(base, n)

        monkeypatch.setattr(R, "zn_slabs", failing)
        _cpus(monkeypatch, cpus)
        with pytest.raises(PrecisionExhausted, match=r"^alpha 5/16$"):
            R.avg_delta(8, 8)

    def test_worker_without_result(self, monkeypatch):
        import multiprocessing
        import os
        monkeypatch.setattr(R, "_share_worker", lambda *args: os._exit(7))
        _cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="exited with code 7"):
            R.avg_delta(8, 4)
        assert multiprocessing.active_children() == []


class TestStarDiscrepancy:
    def test_single_point(self):
        assert R.star_discrepancy(SQRT2, 1) == pytest.approx(0.585786437626905)

    def test_perfect_grid(self):
        for n in (4, 7, 16):
            assert R.star_discrepancy(AlphaSpec.rational(1, n), n) \
                == pytest.approx(1.0 / n)

    def test_elementary_bounds(self):
        for n in (1, 5, 37, 256, 1000):
            d = R.star_discrepancy(SQRT2, n)
            assert 1.0 / (2 * n) <= d <= 1.0

    def test_sqrt2_rate(self):
        rows = [(2 ** k, R.star_discrepancy(SQRT2, 2 ** k))
                for k in range(4, 15)]
        fit = R.rate_fit([n for n, _ in rows], [d for _, d in rows],
                         logpow=False)
        assert -1.1 <= fit.exponent <= -0.85

    def test_precondition(self):
        with pytest.raises(ValueError):
            R.star_discrepancy(SQRT2, 0)

    @pytest.mark.parametrize("text", [
        "surd:0,1,1,2", "surd:-3,-1,7,11", "cf:7;1,2,periodic:3", "rat:3/7",
        "rat:-5/3", "dec:0." + "1415926535" * 7])
    def test_equals_sorted_points_loop(self, text):
        alpha = AlphaSpec.parse(text)
        frac = alpha.approx(64)
        num, den = frac.numerator, frac.denominator
        for n in (1, 2, 37, 1000, 4096):
            pts = sorted((k * num % den) / den for k in range(1, n + 1))
            best = 0.0
            for i, x in enumerate(pts, start=1):
                best = max(best, i / n - x, x - (i - 1) / n)
            assert R.star_discrepancy(alpha, n) == best

    def test_bench_value(self):
        assert R.star_discrepancy(AlphaSpec.surd(0, 1, 1, 5), 65536) \
            == 6.015483097485119e-05

    def test_short_budget_raises(self):
        with pytest.raises(PrecisionExhausted,
                           match="decimal spec certifies at most 35 bits, "
                                 "64 requested"):
            R.star_discrepancy(AlphaSpec.parse("dec:1.41421356237"), 16)


class TestCompare:
    def test_sqrt2_pipelines_agree(self):
        rep = R.compare_16_vs_17(
            SQRT2,
            [2 ** k for k in range(4, 10)],
            [2 ** k for k in range(4, 13)])
        assert -1.15 <= rep.delta_fit.exponent <= -0.85
        assert -1.1 <= rep.dstar_fit.exponent <= -0.85
        assert abs(rep.delta_fit.exponent - rep.dstar_fit.exponent) < 0.3

    def test_golden_pipelines_agree(self):
        rep = R.compare_16_vs_17(
            GOLDEN,
            [2 ** k for k in range(4, 10)],
            [2 ** k for k in range(4, 13)])
        assert abs(rep.delta_fit.exponent - rep.dstar_fit.exponent) < 0.3

