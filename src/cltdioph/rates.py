"""Experiment harness: Kolmogorov-distance sweeps, rate regressions,
the averaged-over-alpha bound, and the equidistribution comparison.

All distances are computed exactly from the discrete support; the only
estimated quantities are the regression coefficients.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dioph import AlphaSpec, orbit_residues
from .distkit import DiscreteDist, kolmogorov_distance, moments, \
    product_bernoulli, zn_slabs
# not called here: bench/replay.py rebinds rates.zn_dist with the other
# layer entry points
from .distkit import zn_dist  # noqa: F401
from .edgeworth import comparison_for
from .errors import TooFewPoints


@dataclass(frozen=True)
class SweepRow:
    n: int
    delta_phi: float
    delta_phi3: Optional[float]
    argmax: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n values must be strictly increasing")
        for r in self.rows:
            if not 0.0 < r.delta_phi <= 1.0:
                raise ValueError(f"delta out of (0, 1] at n={r.n}")


@dataclass(frozen=True)
class RateFit:
    exponent: float
    logpow: float
    r2: float
    window: tuple[int, int]
    constrained_exponent: Optional[float] = None
    constrained_logpow: Optional[float] = None


def delta_sweep(base: DiscreteDist, n_list) -> SweepResult:
    """Exact Kolmogorov distances of Z_n to the normal CDF (and to the
    skewness-corrected CDF for asymmetric bases) over the given n values."""
    skewed = abs(moments(base).alpha3) > 1e-12
    rows = []
    for n in n_list:
        n = int(n)
        z = zn_slabs(base, n)
        res = kolmogorov_distance(z, comparison_for("phi", base, n))
        d3 = None
        if skewed:
            d3 = kolmogorov_distance(z, comparison_for("phi3", base, n)).delta
        rows.append(SweepRow(n=n, delta_phi=res.delta, delta_phi3=d3,
                             argmax=res.argmax))
    return SweepResult(tuple(rows))


def rate_fit(ns, deltas, eta_hint: Optional[float] = None,
             logpow: bool = True) -> RateFit:
    """Least-squares fit of log delta on log n, with a log log n column
    when ``logpow``.

    The discrepancy pipeline fits without that column: its values
    fluctuate with the continued-fraction phase of n, and a joint
    (log n, log log n) fit is too ill conditioned there to report a
    meaningful exponent.
    """
    if len(ns) < 5:
        raise TooFewPoints(f"rate fit needs >= 5 points, got {len(ns)}")
    ln = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(deltas, dtype=float))
    columns = [np.ones_like(ln), ln] + ([np.log(ln)] if logpow else [])
    design = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    c_exp = c_logpow = None
    if eta_hint is not None:
        if eta_hint <= 0:
            raise ValueError("eta_hint must be positive")
        c_exp = -0.5 - 0.5 / eta_hint
        pinned = y - c_exp * ln
        qdesign = np.column_stack([np.ones_like(ln), np.log(ln)])
        qcoef, *_ = np.linalg.lstsq(qdesign, pinned, rcond=None)
        c_logpow = float(qcoef[1])
    return RateFit(exponent=float(coef[1]),
                   logpow=float(coef[2]) if logpow else 0.0, r2=r2,
                   window=(int(min(ns)), int(max(ns))),
                   constrained_exponent=c_exp, constrained_logpow=c_logpow)


def _avg_share(n: int, grid_size: int, first: int, step: int):
    """Delta_n(alpha_i) for i = first, first + step, ... below grid_size,
    and the exception that stopped the scan (None if it ran through)."""
    deltas: list[float] = []
    try:
        for i in range(first, grid_size, step):
            base = product_bernoulli(
                [AlphaSpec.rational(2 * i + 1, 2 * grid_size)])
            G = comparison_for("phi", base, n)
            deltas.append(kolmogorov_distance(zn_slabs(base, n), G).delta)
    except Exception as exc:  # handed to avg_delta, which re-raises it
        return deltas, exc
    return deltas, None


def _share_worker(conn, n: int, grid_size: int, first: int,
                  step: int) -> None:
    conn.send(_avg_share(n, grid_size, first, step))
    conn.close()


def _received(proc, conn):
    """The share a forked worker sent through conn."""
    try:
        return conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"avg_delta worker exited with code "
                           f"{proc.exitcode} before sending its share") \
            from None


def avg_delta(n: int, grid_size: int) -> tuple[float, float]:
    """Midpoint-grid average of Delta_n(alpha) over alpha in (0, 1).

    Each alpha is the rational midpoint (2i+1)/(2 grid_size); the base is
    the four-atom sum of a unit Bernoulli and an alpha-scaled one. The
    returned ratio is average * n / log(n+1).

    The grid is split into k = min(CPUs in the affinity mask, grid_size)
    interleaved shares, i mod k.  Shares 0..k-2 run in workers forked
    from this process, so they start with its imports (a spawned worker
    would import the package again, which takes longer than a 128-point
    grid at n = 256) and nothing is pickled but their results; this
    process scans share k-1 meanwhile.
    The Delta_n are then put back in grid order and added left to right,
    so the result is bit for bit that of one loop over the grid, whatever
    k.  An exception re-raises here as that loop would meet it: the one
    at the smallest i.  With one CPU, or without the fork start method,
    k is 1 and this process scans the one share.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    # imported here, so that importing the package starts no pool machinery
    import multiprocessing

    k = 1
    if hasattr(os, "sched_getaffinity") and \
            "fork" in multiprocessing.get_all_start_methods():
        k = min(len(os.sched_getaffinity(0)), grid_size)
    ctx = multiprocessing.get_context("fork") if k > 1 else None
    workers = []
    try:
        for first in range(k - 1):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_share_worker,
                               args=(send, n, grid_size, first, k),
                               daemon=True)
            proc.start()
            send.close()
            workers.append((proc, recv))
        own = _avg_share(n, grid_size, k - 1, k)
        shares = [_received(proc, recv) for proc, recv in workers] + [own]
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, recv in workers:
            recv.close()
            proc.join()
    stops = [first + len(deltas) * k
             for first, (deltas, exc) in enumerate(shares) if exc is not None]
    if stops:
        raise shares[min(stops) % k][1]
    total = 0.0
    for i in range(grid_size):
        total += shares[i % k][0][i // k]
    average = total / grid_size
    return average, average * n / math.log(n + 1.0)


def star_discrepancy(alpha: AlphaSpec, n: int) -> float:
    """sup over (0,1) of |empirical CDF of {k alpha}, k=1..n, minus x|.

    Uses the sorted-points formula max_i max(i/n - x_i, x_i - (i-1)/n).
    The points x_k = r_k / 2^64 come from the 64-bit residues
    r_k = k*M mod 2^64 of ``dioph.orbit_residues`` and are within k 2^-64
    of {k alpha}; they are not certified entry by entry.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.sort(orbit_residues(alpha, n)) / 2.0 ** 64
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - x, x - (i - 1) / n)))


@dataclass(frozen=True)
class ComparisonReport:
    delta_fit: RateFit
    dstar_fit: RateFit


def compare_16_vs_17(alpha: AlphaSpec, n_list_delta,
                     n_list_dstar=None) -> ComparisonReport:
    """Side-by-side rate fits for the CLT distance and the star
    discrepancy of the orbit of alpha; for badly approximable alpha both
    targets are 1/n."""
    if n_list_dstar is None:
        n_list_dstar = n_list_delta
    sweep = delta_sweep(product_bernoulli([alpha]), n_list_delta)
    return ComparisonReport(
        delta_fit=rate_fit([r.n for r in sweep.rows],
                           [r.delta_phi for r in sweep.rows]),
        dstar_fit=rate_fit(n_list_dstar,
                           [star_discrepancy(alpha, int(n))
                            for n in n_list_dstar], logpow=False),
    )
