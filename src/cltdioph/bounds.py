"""Berry-Esseen smoothing machinery with explicit term-by-term reports.

Implements the generic smoothing inequality (integral of |f - g|/t up to a
cutoff plus D/T), the fourth-moment bound splitting the right side into a
moment term, a cutoff term, and a tail integral of |f(t)|^n / t, the
power-law cutoff choice T_n = (bn)^(1/p) (log n)^(-r), and the reverse
characteristic-function check that caps |f(t/sigma)|^n by a fitted
constant times t n^(-1/p) (log(n+1))^(q+1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .distkit import DiscreteDist, kolmogorov_distance, moments, zn_dist
from .edgeworth import cf_deviation_bound, comparison_for, fs_transform
from .errors import InadmissibleT, QuadratureFailure

_MAX_EVALS = 10 ** 6


@dataclass(frozen=True)
class SmoothingReport:
    integral_term: float
    dt_term: float
    T: float
    rhs_total: float
    quadrature_error_estimate: float


@dataclass(frozen=True)
class Lemma21Report:
    moment_term: float
    cutoff_term: float
    tail_integral: float
    rhs_total: float
    T: float
    T0: float
    n: int
    non_decaying_tail: bool


class _CountingFn:
    """Wraps a callable and raises once a call budget is exhausted."""

    def __init__(self, fn: Callable[[float], float], budget: int):
        self.fn = fn
        self.budget = budget
        self.calls = 0

    def __call__(self, t: float) -> float:
        self.calls += 1
        if self.calls > self.budget:
            raise QuadratureFailure(
                f"exceeded {self.budget} integrand evaluations")
        return self.fn(t)


def _panelized_quad(h: Callable[[float], float], lo: float, hi: float,
                    breakpoints, epsabs: float) -> tuple[float, float]:
    """Sum of adaptive panels split at the given interior breakpoints;
    raises QuadratureFailure if the error estimate exceeds 1e-9 (1 + |sum|)."""
    cuts = [lo] + [b for b in sorted(set(breakpoints)) if lo < b < hi] + [hi]
    total = 0.0
    err = 0.0
    for a, b in zip(cuts, cuts[1:]):
        v, e = quad(h, a, b, epsabs=epsabs / max(1, len(cuts) - 1),
                    limit=200)
        total += v
        err += e
    if err > 1e-9 * (1.0 + abs(total)):
        raise QuadratureFailure(
            f"error estimate {err} exceeds target for integral {total}")
    return total, err


def smoothing_rhs(f: Callable[[float], complex], g: Callable[[float], complex],
                  T: float, D: float) -> SmoothingReport:
    """Integral of |f(t) - g(t)|/t over (0, T] plus D/T.

    The integrand is bounded at 0 because both transforms equal 1 there;
    the first panel starts at a tiny positive offset where the integrand
    is already smooth.
    """
    if T <= 0 or D <= 0:
        raise ValueError("T and D must be positive")
    counted_f = _CountingFn(f, _MAX_EVALS)
    counted_g = _CountingFn(g, _MAX_EVALS)

    def h(t: float) -> float:
        if t == 0.0:
            t = 1e-300
        return abs(counted_f(t) - counted_g(t)) / t

    integral, err = _panelized_quad(h, 0.0, T, (), 1e-10)
    dt_term = D / T
    return SmoothingReport(integral, dt_term, T, integral + dt_term, err)


def lemma21_rhs(base: DiscreteDist, n: int, T: float) -> Lemma21Report:
    """Moment term + cutoff term + tail integral of |f(t)|^n / t.

    f is the Fourier-Stieltjes transform of ``base``.  The integration
    runs from sigma/sqrt(beta4) to T; |f|^n is evaluated as
    exp(n log1p(|f| - 1)) so near-resonance values survive underflow, and
    panels are split at multiples of pi, where Bernoulli steps resonate,
    so the adaptive rule cannot step over the O(1/sqrt(n))-wide spikes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    abs_f = lambda t: abs(fs_transform(base, t))
    m = moments(base)
    sigma = math.sqrt(m.sigma2)
    t_lo = sigma / math.sqrt(m.beta4)
    if T < t_lo:
        raise InadmissibleT(f"T={T} below sigma/sqrt(beta4)={t_lo}")

    counted = _CountingFn(abs_f, _MAX_EVALS)

    def integrand(t: float) -> float:
        v = counted(t)
        if v >= 1.0:
            return 1.0 / t
        if v - 1.0 <= -1.0:
            return 0.0
        return math.exp(n * math.log1p(v - 1.0)) / t

    ks = np.arange(max(1, math.floor(t_lo / math.pi)),
                   math.ceil(T / math.pi) + 1)
    breaks = list(math.pi * ks)
    tail, _ = _panelized_quad(integrand, t_lo, T, breaks, 1e-12)

    # a lattice base returns to |f| = 1 at every resonance, so the tail
    # integral keeps growing with T instead of decaying
    non_decaying = any(
        abs_f(math.pi * k) > 1.0 - 1e-12
        for k in range(1, int(T / math.pi) + 1))

    moment_term = m.beta4 / (m.sigma2 ** 2 * n)
    cutoff_term = 1.0 / (T * sigma * math.sqrt(n))
    t0 = m.sigma2 * math.sqrt(n) / math.sqrt(m.beta4)
    return Lemma21Report(
        moment_term=moment_term,
        cutoff_term=cutoff_term,
        tail_integral=tail,
        rhs_total=moment_term + cutoff_term + tail,
        T=T,
        T0=t0,
        n=n,
        non_decaying_tail=non_decaying,
    )


def prop22_cutoff(p: float, q: float, n: int,
                  a_const: float) -> tuple[float, float, float]:
    """Cutoff T_n = (bn)^(1/p) (log n)^(-r) with r = (q+1)/p, b = a p^q / 3."""
    if p <= 0 or a_const <= 0:
        raise ValueError("p and a_const must be positive")
    if n < 3:
        raise ValueError("n must be >= 3 so log n > 1")
    r = (q + 1.0) / p
    b = a_const * p ** q / 3.0
    t_n = (b * n) ** (1.0 / p) * math.log(n) ** (-r)
    return t_n, r, b


@dataclass(frozen=True)
class Prop51Row:
    n: int
    delta_n: float
    violations: int
    c_fit: float


@dataclass(frozen=True)
class Prop51Report:
    rows: tuple[Prop51Row, ...]
    symmetric: bool
    c_spread: float  # max/min of the fitted constants across n


def prop51_check(base: DiscreteDist, n_list, p: float, q: float,
                 t_grid=None) -> Prop51Report:
    """Chain check |f_n(t)| <= 1.3 e^(-t^2/8) + c |t| Delta_n log^(1/2)(e + 1/Delta_n).

    c is 24.2 in general and 16.02 when the base is symmetric (Delta_n
    then taken against the plain normal CDF). For t >= sqrt(n) the
    implied constant in |f(t/sigma)|^n <= c t n^(-1/p) (log(n+1))^(q+1/2)
    is fitted per n with s = t/sqrt(n) as the rescaled abscissa. The
    fitted constant divides the chain bound, not |f_n| itself: off
    resonance |f_n| is doubly exponentially small, so the raw ratio says
    nothing about the transfer constant, while the chain bound is the
    quantity the argument actually propagates and it is n-stable exactly
    when Delta_n follows the assumed rate.
    """
    symmetric = abs(moments(base).alpha3) < 1e-12
    target = "phi" if symmetric else "phi3"
    rows = []
    for n in n_list:
        z = zn_dist(base, n)
        delta = kolmogorov_distance(z, comparison_for(target, base, n)).delta
        grid = t_grid if t_grid is not None \
            else np.linspace(math.sqrt(n), 4.0 * math.sqrt(n), 200)
        violations = 0
        c_fit = 0.0
        for t in grid:
            t = float(t)
            fn = abs(fs_transform(z, t))
            bound = 1.3 * math.exp(-t * t / 8.0) \
                + cf_deviation_bound(t, delta, symmetric)
            if fn > bound + 1e-12:
                violations += 1
            if t >= math.sqrt(n):
                s = t / math.sqrt(n)
                denom = s * n ** (-1.0 / p) \
                    * math.log(n + 1.0) ** (q + 0.5)
                c_fit = max(c_fit, bound / denom)
        rows.append(Prop51Row(n=int(n), delta_n=delta,
                              violations=violations, c_fit=c_fit))
    fits = [r.c_fit for r in rows if r.c_fit > 0]
    spread = max(fits) / min(fits) if fits else math.inf
    return Prop51Report(tuple(rows), symmetric, spread)

