import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from cltdioph import bounds as B
from cltdioph import cli
from cltdioph import distkit as K
from cltdioph.dioph import AlphaSpec
from cltdioph.errors import InadmissibleT, QuadratureFailure

SQRT2 = AlphaSpec.surd(0, 1, 1, 2)
BENCH = Path(__file__).resolve().parents[1] / "bench"


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
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                B.prop22_cutoff(bad, 0.0, 100, 1.0)
            with pytest.raises(ValueError, match="positive and finite"):
                B.prop22_cutoff(2.0, 0.0, 100, bad)


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



def _bits(pair):
    return [float(v).hex() for v in pair[:2]]


def _bench_bounds_argvs(monkeypatch):
    """The benchmark's bounds operation, once for every surd it draws."""
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    op = next(op for op in run.workload_ops("analysis", 0)
              if op.name == "bounds")
    at = op.args.index("--base") + 1
    return [op.args[:at] + (f"prod:{run.surd(d)}",) + op.args[at + 1:]
            for d in run.SURDS]


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestQuadIsQuadpack:
    """bounds.quad returns the value and the error estimate of
    scipy.integrate.quad to the bit."""

    def test_every_lemma21_panel(self, monkeypatch, capsys):
        argvs = _bench_bounds_argvs(monkeypatch) + [
            # the pinned outputs of the CLI and bench-layer tests
            ("bounds", "--base", "prod:surd:0,1,1,2", "--n", "64,256"),
            ("bounds", "--base", "prod:surd:0,1,1,2", "--n", "64,128",
             "--p", "1", "--a-const", "3"),
            # a mixture, a rational step and two irrational steps
            ("bounds", "--base", "mix:0.5:surd:0,1,1,2=0.5", "--n", "64,256"),
            ("bounds", "--base", "prod:rat:1/3", "--n", "64,256"),
            ("bounds", "--base", "prod:surd:0,1,1,2,surd:0,1,1,3",
             "--n", "64,256"),
        ]
        own, panels = B.quad, []

        def both(f, a, b, epsabs, limit):
            got = own(f, a, b, epsabs, limit)
            want = scipy_quad(f, a, b, epsabs=epsabs, limit=limit)
            panels.append((_bits(got), _bits(want)))
            return got

        monkeypatch.setattr(B, "quad", both)
        for argv in argvs:
            assert cli.main(list(argv)) == 0, argv
        capsys.readouterr()
        assert len(panels) > 200
        assert [got for got, _ in panels] == [want for _, want in panels]

    @pytest.mark.parametrize("limit", [7, 50, 200])
    @pytest.mark.parametrize("epsabs", [0.0, 1e-12, 1e-6])
    def test_singular_and_peaked_integrands(self, monkeypatch, limit,
                                            epsabs):
        # 1/sqrt|x - c|, |x - c|^-0.9 and log|x - c| go through Wynn's
        # epsilon extrapolation (dqelg); narrow peaks and sin(1/|x - c|)
        # raise the error of a bisected interval, which dqpsrt moves down
        # the list, and a small limit shortens the ordered part of it
        extrapolations = []
        qelg = B._qelg
        monkeypatch.setattr(B, "_qelg", lambda *args: extrapolations.append(
            args[0]) or qelg(*args))
        fs = []
        for c in (0.0, 0.3, 1 / 3, 0.71, 1.0):
            fs += [lambda x, c=c: 1.0 / math.sqrt(abs(x - c)) if x != c
                   else 0.0,
                   lambda x, c=c: abs(x - c) ** -0.9 if x != c else 0.0,
                   lambda x, c=c: math.log(abs(x - c)) if x != c else 0.0]
            for w in (1e-4, 1e-2):
                fs += [lambda x, c=c, w=w: math.exp(-((x - c) / w) ** 2),
                       lambda x, c=c, w=w: w / ((x - c) ** 2 + w * w),
                       lambda x, c=c, w=w: math.sin(1.0 / (abs(x - c) + w))]
        for f in fs:
            for a, b in ((0.0, 1.0), (-0.5, 2.0)):
                assert _bits(B.quad(f, a, b, epsabs, limit)) == \
                    _bits(scipy_quad(f, a, b, epsabs=epsabs, limit=limit))
        # tables of up to limit - 1 partial sums
        assert max(extrapolations) >= min(limit - 1, 20)
