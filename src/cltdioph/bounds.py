"""Berry-Esseen smoothing machinery with explicit term-by-term reports.

Implements the fourth-moment bound splitting the right side of the
smoothing inequality into a moment term, a cutoff term, and a tail
integral of |f(t)|^n / t, the power-law cutoff choice
T_n = (bn)^(1/p) (log n)^(-r), and the reverse characteristic-function
check that caps |f(t/sigma)|^n by a fitted constant times
t n^(-1/p) (log(n+1))^(q+1/2).
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
    cuts = [t_lo] + [b for b in math.pi * ks if t_lo < b < T] + [T]
    tail = err = 0.0
    for a, b in zip(cuts, cuts[1:]):
        v, e = quad(integrand, a, b, epsabs=1e-12 / (len(cuts) - 1),
                    limit=200)
        tail += v
        err += e
    if err > 1e-9 * (1.0 + abs(tail)):
        raise QuadratureFailure(
            f"error estimate {err} exceeds target for integral {tail}")

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


def prop22_cutoff(p: float, q: float, n: int, a_const: float) -> float:
    """Cutoff T_n = (bn)^(1/p) (log n)^(-r) with r = (q+1)/p, b = a p^q / 3."""
    if p <= 0 or a_const <= 0:
        raise ValueError("p and a_const must be positive")
    if n < 3:
        raise ValueError("n must be >= 3 so log n > 1")
    r = (q + 1.0) / p
    b = a_const * p ** q / 3.0
    return (b * n) ** (1.0 / p) * math.log(n) ** (-r)


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


def prop51_check(base: DiscreteDist, n_list, p: float,
                 q: float) -> Prop51Report:
    """Chain check |f_n(t)| <= 1.3 e^(-t^2/8) + c |t| Delta_n log^(1/2)(e + 1/Delta_n).

    c is 24.2 in general and 16.02 when the base is symmetric (Delta_n
    then taken against the plain normal CDF). Both are checked at 200
    points t in [sqrt(n), 4 sqrt(n)], where the implied constant in
    |f(t/sigma)|^n <= c t n^(-1/p) (log(n+1))^(q+1/2) is fitted per n
    with s = t/sqrt(n) as the rescaled abscissa. The
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
        violations = 0
        c_fit = 0.0
        for t in np.linspace(math.sqrt(n), 4.0 * math.sqrt(n), 200):
            t = float(t)
            fn = abs(fs_transform(z, t))
            bound = 1.3 * math.exp(-t * t / 8.0) \
                + cf_deviation_bound(t, delta, symmetric)
            if fn > bound + 1e-12:
                violations += 1
            s = t / math.sqrt(n)
            denom = s * n ** (-1.0 / p) * math.log(n + 1.0) ** (q + 0.5)
            c_fit = max(c_fit, bound / denom)
        rows.append(Prop51Row(n=int(n), delta_n=delta,
                              violations=violations, c_fit=c_fit))
    fits = [r.c_fit for r in rows if r.c_fit > 0]
    spread = max(fits) / min(fits) if fits else math.inf
    return Prop51Report(tuple(rows), symmetric, spread)

