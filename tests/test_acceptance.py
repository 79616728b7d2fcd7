"""End-to-end acceptance gate.

Each test covers one headline claim, prints a single PASS/FAIL line, and
asserts the stated tolerance. Oracles here are deliberately independent
of the library internals (dense grids, closed forms, brute convolution).
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from cltdioph import bounds as B
from cltdioph import charfn as C
from cltdioph import distkit as K
from cltdioph import rates as R
from cltdioph.dioph import AlphaSpec
from cltdioph.edgeworth import EDGEWORTH_ENVELOPE, NORMAL_ENVELOPE, \
    EdgeworthComparison, EdgeworthParams, comparison_for, \
    cf_deviation_bound, fs_transform, nonuniform_bound, phi3_fourier, \
    w1_bound, w1_exact

SQRT2 = AlphaSpec.surd(0, 1, 1, 2)


def verdict(name: str, ok: bool, detail: str = "") -> bool:
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    return ok


def oracle_kolmogorov(d: K.DiscreteDist, G) -> float:
    """Dense grid plus both one-sided limits at every atom."""
    lo = float(d.positions[0]) - 5.0
    hi = float(d.positions[-1]) + 5.0
    grid = np.linspace(lo, hi, 200001)
    cdf_grid = np.searchsorted(d.positions, grid, side="right")
    cum = np.concatenate([[0.0], np.cumsum(d.weights)])
    best = float(np.max(np.abs(cum[cdf_grid] - np.asarray(G(grid)))))
    g_at = np.asarray(G(d.positions))
    right = cum[1:]
    left = cum[:-1]
    best = max(best, float(np.max(np.abs(right - g_at))),
               float(np.max(np.abs(left - g_at))))
    return best


def sup_x2_gap(d: K.DiscreteDist, G) -> float:
    """Exact sup of x^2 |F(x) - G(x)|: checked at both atom limits and on
    a dense grid between atoms."""
    grid = np.linspace(float(d.positions[0]) - 8.0,
                       float(d.positions[-1]) + 8.0, 400001)
    cum = np.concatenate([[0.0], np.cumsum(d.weights)])
    f_grid = cum[np.searchsorted(d.positions, grid, side="right")]
    best = float(np.max(np.square(grid) * np.abs(f_grid - np.asarray(G(grid)))))
    g_at = np.asarray(G(d.positions))
    x2 = np.square(d.positions)
    best = max(best,
               float(np.max(x2 * np.abs(cum[1:] - g_at))),
               float(np.max(x2 * np.abs(cum[:-1] - g_at))))
    return best


def test_criterion_01_exact_distance_oracle():
    bases = {
        "b1": K.bernoulli_pm(1),
        "b1*b_sqrt2": K.product_bernoulli([SQRT2]),
        "mix_half_sqrt2": K.mixture_bernoulli([0.5, 0.5], [SQRT2]),
    }
    worst = 0.0
    for name, base in bases.items():
        for n in (1, 2, 4, 8):
            z = K.zn_dist(base, n)
            G = comparison_for("phi", base, n)
            got = K.kolmogorov_distance(z, G).delta
            worst = max(worst, abs(got - oracle_kolmogorov(z, G)))
    assert verdict("criterion 01 exact distances match grid+atom oracle",
                   worst < 1e-12, f"max deviation {worst:.3g}")


def test_criterion_02_n1_closed_form():
    base = K.bernoulli_pm(1)
    got = K.kolmogorov_distance(K.zn_dist(base, 1),
                                comparison_for("phi", base, 1)).delta
    want = 0.5 - ndtr(-1.0)
    assert verdict("criterion 02 Delta_1(B1) = 1/2 - Phi(-1)",
                   abs(got - want) < 1e-12, f"got {got:.15f}")


def test_criterion_03_inequality_suites():
    failures = []

    # cosine comparison inequalities on random points
    rng = np.random.default_rng(20260823)
    for x in rng.uniform(-50.0, 50.0, 10 ** 5):
        if not C.ineq61_check(float(x)).passed:
            failures.append(f"cosine ineq at x={x}")

    # transform envelope |g3(t)| <= 1.3 exp(-t^2/8) under admissibility
    base_skew = K.DiscreteDist(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3]))
    m = K.moments(base_skew)
    for n in (16, 64, 256):
        p = EdgeworthParams(m.alpha3, math.sqrt(m.sigma2), n, m.beta4)
        assert p.admissible
        for t in np.linspace(-12.0, 12.0, 4001):
            if abs(phi3_fourier(float(t), p)) > 1.3 * math.exp(-t * t / 8.0):
                failures.append(f"g3 envelope at n={n}, t={t}")

    # weighted-gap bound vs the exact sup of x^2 |F_n - G|
    sym = K.product_bernoulli([SQRT2])
    for n in (16, 64, 256):
        z = K.zn_dist(sym, n)
        G = comparison_for("phi", sym, n)
        delta = K.kolmogorov_distance(z, G).delta
        if sup_x2_gap(z, G) > nonuniform_bound(delta, NORMAL_ENVELOPE):
            failures.append(f"x^2 gap vs normal at n={n}")
        p = EdgeworthParams.from_dist(sym, n)
        G3 = EdgeworthComparison(p)
        d3 = K.kolmogorov_distance(z, G3).delta
        if sup_x2_gap(z, G3) > nonuniform_bound(d3, EDGEWORTH_ENVELOPE):
            failures.append(f"x^2 gap vs corrected CDF at n={n}")

    # exact W1 against its Kolmogorov-controlled bound
    for n in (16, 64):
        z = K.zn_dist(sym, n)
        G = comparison_for("phi", sym, n)
        delta = K.kolmogorov_distance(z, G).delta
        if w1_exact(z, G) > w1_bound(delta, NORMAL_ENVELOPE):
            failures.append(f"W1 bound at n={n}")

    # transform deviation bound on t in [-30, 30]
    for n in (16, 64, 256):
        z = K.zn_dist(sym, n)
        delta = K.kolmogorov_distance(z, comparison_for("phi", sym, n)).delta
        for t in np.linspace(-30.0, 30.0, 2401):
            t = float(t)
            gap = abs(fs_transform(z, t) - math.exp(-t * t / 2.0))
            if t != 0.0 and gap > cf_deviation_bound(t, delta, symmetric=True):
                failures.append(f"cf deviation at n={n}, t={t}")

    assert verdict("criterion 03 explicit-constant inequality suites",
                   not failures,
                   failures[0] if failures else "0 violations")


@pytest.fixture(scope="module")
def sqrt2_sweep():
    base = K.product_bernoulli([SQRT2])
    return R.delta_sweep(base, [2 ** k for k in range(4, 12)])


def test_criterion_04_sqrt2_rate(sqrt2_sweep):
    rows = sqrt2_sweep.rows
    fit = R.rate_fit([r.n for r in rows], [r.delta_phi for r in rows],
                     eta_hint=1.0)
    ok = (-1.15 <= fit.exponent <= -0.85 and fit.r2 >= 0.98
          and 0.0 <= fit.constrained_logpow <= 1.5)
    assert verdict("criterion 04 sqrt(2) distance decays like 1/n", ok,
                   f"exponent {fit.exponent:.3f}, r2 {fit.r2:.5f}, "
                   f"pinned logpow {fit.constrained_logpow:.3f}")


def test_criterion_05_lattice_rate():
    sweep = R.delta_sweep(K.bernoulli_pm(1), [2 ** k for k in range(4, 12)])
    fit = R.rate_fit([r.n for r in sweep.rows],
                     [r.delta_phi for r in sweep.rows])
    assert verdict("criterion 05 lattice base stays at 1/sqrt(n)",
                   -0.6 <= fit.exponent <= -0.4,
                   f"exponent {fit.exponent:.3f}")


@pytest.fixture(scope="module")
def product_growth():
    return C.growth_fit(C.CharSpec.product([SQRT2]), 1e4)


def test_criterion_06_growth_exponent(product_growth):
    assert verdict("criterion 06 resonance growth exponent near 2",
                   1.7 <= product_growth.p_hat <= 2.3,
                   f"p_hat {product_growth.p_hat:.3f}")


def test_criterion_07_average_over_alpha():
    ratios = [R.avg_delta(n, 256)[1] for n in (64, 128, 256, 512)]
    spread = max(ratios) / min(ratios)
    assert verdict("criterion 07 averaged distance tracks log(n)/n",
                   spread < 4.0, f"ratio spread {spread:.3f}")


def test_criterion_08_discrepancy_pipeline():
    ns = [2 ** k for k in range(4, 15)]
    fit = R.rate_fit(ns, [R.star_discrepancy(SQRT2, n) for n in ns],
                     logpow=False)
    rep = R.compare_16_vs_17(SQRT2,
                             [2 ** k for k in range(4, 12)],
                             ns)
    gap = abs(rep.delta_fit.exponent - rep.dstar_fit.exponent)
    ok = -1.1 <= fit.exponent <= -0.85 and gap < 0.3
    assert verdict("criterion 08 discrepancy rate matches distance rate", ok,
                   f"D* exponent {fit.exponent:.3f}, pipeline gap {gap:.3f}")


def test_criterion_09_product_vs_mixture(product_growth):
    mix = C.growth_fit(
        C.CharSpec.mixture([0.5, 0.5], [SQRT2]), 1e4)
    gap = abs(product_growth.p_hat - mix.p_hat)
    assert verdict("criterion 09 product and mixture share the exponent",
                   gap < 0.3,
                   f"{product_growth.p_hat:.3f} vs {mix.p_hat:.3f}")


def test_criterion_10_transform_and_convolution_identities():
    base = K.product_bernoulli([SQRT2])
    m = K.moments(base)
    bad = []
    for n in range(1, 11):
        z = K.zn_dist(base, n)
        if abs(float(np.sum(z.weights)) - 1.0) > 1e-12:
            bad.append(f"mass at n={n}")
        scale = math.sqrt(m.sigma2 * n)
        for t in (0.3, 1.0, 4.7, 11.0):
            lhs = fs_transform(z, t)
            rhs = fs_transform(base, t / scale) ** n
            if abs(lhs - rhs) > 1e-12:
                bad.append(f"power identity at n={n}, t={t}")
        direct = base
        for _ in range(n - 1):
            direct = K.convolve(direct, base)
        want = K.DiscreteDist(direct.positions / scale, direct.weights)
        if len(want.positions) != len(z.positions) \
                or np.max(np.abs(want.positions - z.positions)) > 1e-14 \
                or np.max(np.abs(want.weights - z.weights)) > 1e-14:
            bad.append(f"fast path vs iterated convolution at n={n}")
    assert verdict("criterion 10 transform and convolution identities",
                   not bad, bad[0] if bad else "n = 1..10")


def test_criterion_11_reverse_cf_bound():
    rep = B.prop51_check(K.product_bernoulli([SQRT2]),
                         [64, 256, 1024], 2.0, 0.0)
    ok = all(r.violations == 0 for r in rep.rows) and rep.c_spread < 3.0
    assert verdict("criterion 11 transform chain bound with stable constant",
                   ok, f"constant spread {rep.c_spread:.4f}")
