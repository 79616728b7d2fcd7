"""Characteristic functions of weighted Bernoulli families.

Covers the product form cos(t) cos(a1 t) ... cos(am t), the mixture form
p0 cos(t) + sum pk cos(ak t), the elementary cosine inequalities linking
1 - |cos(pi x)| to the distance-to-integer function, and power-law
fitting of 1/(1 - |f(t)|) at near-maximal points of |f|.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .dioph import AlphaSpec, orbit_residues
from .errors import InsufficientPeaks

#: above this |t * alpha| the extended-precision path is no longer certified
#: to 1e-12 and evaluation falls back to arbitrary precision
_F128_LIMIT = 1.0e6

#: half-width of the bracket around pi n that _refine_peak searches; the
#: skip bound of growth_fit (_record_floor) covers the same bracket and
#: needs it inside |s - pi n| < pi / 2, where ||s / pi - n|| = |s / pi - n|
_BRACKET = 1.0
assert _BRACKET < math.pi / 2

#: growth_fit builds its skip bound for this many candidates at a time
_FLOOR_BLOCK = 1 << 16

#: growth_fit fits the last this many records
_N_PEAKS = 8

_LONG = np.longdouble
_TWO = _LONG(2.0)
_BITS = 128  # mantissa width read by _alpha_longdouble


def _exact(alpha: AlphaSpec) -> AlphaSpec:
    """The spec a step is evaluated from.  A dec: step is its decimal
    value, so it is read as the rat: spec of that value, whose oracle gives
    every bit count (a dec: oracle certifies only as many bits as its
    digits do)."""
    if alpha.kind != "dec":
        return alpha
    value = alpha.exact_fraction()
    return AlphaSpec.rational(value.numerator, value.denominator)


def _alpha_longdouble(alpha: AlphaSpec) -> np.longdouble:
    """Alpha as a long double via a hi/lo split of the 128-bit mantissa."""
    hi, lo = divmod(_exact(alpha).mantissa(_BITS), 1 << 64)
    return _LONG(hi) * _TWO ** -64 + _LONG(lo) * _TWO ** -_BITS


def _cos_scaled(alpha: AlphaSpec, alpha_ld: np.longdouble, t: float) -> float:
    """cos(alpha t) with the product formed in extended precision."""
    arg = alpha_ld * _LONG(t)
    if abs(float(arg)) <= _F128_LIMIT:
        return float(np.cos(arg))
    import mpmath  # here, not at module level: no other path needs it

    bits = 128 + max(0, int(math.log2(abs(t))))
    frac = _exact(alpha).approx(bits)
    with mpmath.workdps(int(bits * 0.302) + 20):
        a = mpmath.mpf(frac.numerator) / frac.denominator
        return float(mpmath.cos(a * t))


def nearest_int_float(x):
    """Closest integer to x, as a float, rounding exact halves down;
    elementwise."""
    x = np.asarray(x, dtype=np.float64)
    n = np.floor(x + 0.5)
    return n - ((x + 0.5 == n) & (n > x))


def frac_dist(x):
    """Distance from x to the nearest integer, elementwise."""
    return np.abs(x - nearest_int_float(x))


@dataclass(frozen=True)
class CharSpec:
    """Product (``weights is None``) or mixture of cosines over
    (1, alpha_1, ..., alpha_m)."""

    alphas: tuple[AlphaSpec, ...]
    weights: Optional[tuple[float, ...]] = None
    _alpha_ld: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.weights is not None:
            if len(self.weights) != len(self.alphas) + 1:
                raise ValueError("mixture needs weights p0..pm")
            if not all(p > 0 for p in self.weights):  # NaN too
                raise ValueError("mixture weights must be positive")
            if abs(math.fsum(self.weights) - 1.0) > 2.0 ** -45:
                raise ValueError("mixture weights must sum to 1")
        object.__setattr__(
            self, "_alpha_ld",
            tuple(_alpha_longdouble(a) for a in self.alphas))

    @classmethod
    def product(cls, alphas) -> "CharSpec":
        return cls(tuple(alphas))

    @classmethod
    def mixture(cls, weights, alphas) -> "CharSpec":
        return cls(tuple(alphas), tuple(float(p) for p in weights))

    @classmethod
    def parse(cls, text: str) -> "CharSpec":
        """`prod:<alpha>[,<alpha>...]` or `mix:p0:<alpha>=p1[,...]`."""
        if text.startswith("prod:"):
            body = text[len("prod:"):]
            parts = _split_alphas(body) if body else []
            return cls.product(AlphaSpec.parse(p) for p in parts)
        if text.startswith("mix:"):
            head, sep, body = text[len("mix:"):].partition(":")
            if not sep:
                raise ValueError(f"malformed mixture spec {text!r}")
            weights = [float(head)]
            alphas = []
            for part in _split_alphas(body):
                a_text, sep, p_text = part.rpartition("=")
                if not sep:
                    raise ValueError(f"missing weight in {part!r}")
                alphas.append(AlphaSpec.parse(a_text))
                weights.append(float(p_text))
            return cls.mixture(weights, alphas)
        raise ValueError(f"char spec must start with prod: or mix:, got {text!r}")


def _split_alphas(body: str) -> list[str]:
    # alpha grammars contain commas, so split only before a kind prefix
    return re.split(r",(?=(?:surd|cf|dec|rat):)", body)


def eval(spec: CharSpec, t: float) -> float:  # noqa: A001 (domain name)
    t = float(t)
    if spec.weights is None:
        val = math.cos(t)
        for a, a_ld in zip(spec.alphas, spec._alpha_ld):
            val *= _cos_scaled(a, a_ld, t)
        return val
    val = spec.weights[0] * math.cos(t)
    for p, a, a_ld in zip(spec.weights[1:], spec.alphas, spec._alpha_ld):
        val += p * _cos_scaled(a, a_ld, t)
    return val


class Ineq61Result(NamedTuple):
    """Margins of the three cosine inequalities at x (>= 0 means holds),
    elementwise."""

    exp_margin: float     # exp(-pi^2 ||x||^2 / 2) - |cos(pi x)|
    lower_margin: float   # (1 - |cos(pi x)|) - 4 ||x||^2
    upper_margin: float   # (pi^2/2) ||x||^2 - (1 - |cos(pi x)|)
    passed: bool


def ineq61_check(x) -> Ineq61Result:
    """The cosine inequalities at each x of an array, in one pass."""
    x = np.asarray(x, dtype=np.float64)
    d = frac_dist(x)
    c = np.abs(np.cos(math.pi * x))
    one_minus = 1.0 - c
    m1 = np.exp(-math.pi ** 2 * d * d / 2.0) - c
    m2 = one_minus - 4.0 * d * d
    m3 = (math.pi ** 2 / 2.0) * d * d - one_minus
    return Ineq61Result(m1, m2, m3,
                        np.minimum(np.minimum(m1, m2), m3) >= -1e-12)


@dataclass(frozen=True)
class GrowthFit:
    """Power-law fit 1/(1 - |f(t)|) ~ t^p (log t)^q at the peaks of |f|."""

    p_hat: float
    q_hat: Optional[float]
    sample: tuple[tuple[float, float], ...]
    residual: float
    degenerate: bool = False


def _refine_peak(spec: CharSpec, center: float) -> tuple[float, float]:
    x, fx = _fminbound(lambda s: -abs(eval(spec, s)),
                       center - _BRACKET, center + _BRACKET, 1e-9)
    return x, -fx


def _fminbound(func, x1: float, x2: float,
               xatol: float) -> tuple[float, float]:
    """(x, func(x)) at a minimum of func on [x1, x2] by Brent's bounded
    method (Brent, 1973): golden sections and parabolic steps, at most 500
    evaluations.  A port of scipy.optimize's _minimize_scalar_bounded,
    the same operations in the same order, so it returns the bits of
    ``minimize_scalar(func, bounds=(x1, x2), method="bounded",
    options={"xatol": xatol})`` without importing scipy.optimize."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) \
                    and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    # numpy's sign(d) + (d == 0): -1 below 0, else 1
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def _record_floor(spec: CharSpec, n_hi: int, n_lo: int = 1) -> np.ndarray:
    """L_n, n = n_lo..n_hi, with L_n <= 1 - |f(s)| for every
    |s - pi n| <= _BRACKET.

    Put s = pi (n + x) with |x| < 1/2 and d_k = ||n alpha_k||, read off the
    64-bit residues of ``orbit_residues`` less their error n 2^-64; then
    ||alpha_k s / pi|| >= max(0, d_k - |alpha_k| |x|).  For a product
    |cos(pi y)| <= exp(-pi^2 ||y||^2 / 2) on cos(s) and the k-th factor,
    minimised over x, gives 1 - |f| >= -expm1(-(pi^2/2) d_k^2 / (1 +
    alpha_k^2)); for a mixture 1 - |cos(pi y)| >= 4 ||y||^2 gives 1 - |f|
    >= 4 p0 pk d_k^2 / (p0 + pk alpha_k^2) - |sum p - 1|.  L_n is the
    largest over k.  Each alpha_k is read from the spec ``eval`` uses
    (``_exact``), so a dec: step has all 64 bits.
    """
    mixture = spec.weights is not None
    ns = np.arange(n_lo, n_hi + 1, dtype=np.uint64)
    top = np.zeros(ns.size)
    for k, alpha in enumerate(spec.alphas):
        alpha = _exact(alpha)
        m = alpha.mantissa(64)
        if abs(m) >> (64 + 500):
            continue  # |alpha| >= 2^500: alpha^2 may overflow, term < 2^-995
        a2 = math.ldexp(m, -64) ** 2
        if mixture:
            p0, pk = spec.weights[0], spec.weights[k + 1]
            c = 4.0 * p0 * pk / (p0 + pk * a2)
        else:
            c = math.pi ** 2 / 2.0 / (1.0 + a2)
        r = orbit_residues(alpha, n_hi, n_lo)
        d = np.minimum(r, -r)
        d = np.where(d > ns, d - ns, 0) / 2.0 ** 64
        top = np.maximum(top, c * d * d)
    if mixture:
        return top - abs(math.fsum(spec.weights) - 1.0)
    return -np.expm1(-top)


def growth_fit(spec: CharSpec, t_max: float) -> GrowthFit:
    """Fit log(1/(1 - |f|)) against log t at the last ``_N_PEAKS`` record
    resonances of |f|.

    Candidate peaks sit at multiples of pi: |f| is near 1 only where
    |cos t| is, for products and mixtures alike.  The retained sample is
    the sequence of records, peaks whose 1 - |f| undercuts every earlier
    peak. Records trace the lower envelope of 1 - |f|, which is the object
    the growth law describes, and they space themselves along the log-t
    axis; taking literally the largest maxima would cluster the sample at
    the single sharpest resonance and leave the exponent unidentifiable.

    Most candidates cannot be records, and their searches are skipped:
    over the search bracket around pi n, 1 - |f| >= L_n, a bound from the
    64-bit residues of n alpha_k (``dioph.orbit_residues``) through the
    cosine inequalities; _record_floor gives L_n for a block of
    ``_FLOOR_BLOCK`` n at a time, so memory stays flat in t_max.  A
    search is run unless L_n - 1e-12 >= the current record level.  The
    search returns |f| at a point of its bracket, so a skipped candidate
    could be neither a record nor an exact return to |f| = 1 (the margin
    covers rounding in f and L_n): the records, the fit and the errors
    are those of the search at every candidate.
    """
    if not 10.0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and exceed 10, got {t_max}")
    if spec.weights is None and not spec.alphas:
        # pure cos(t): |f(pi n)| = 1 exactly, no growth law to fit
        return GrowthFit(math.nan, None, (), math.nan, degenerate=True)

    n_hi = int(t_max / math.pi)
    if n_hi < _N_PEAKS:
        raise InsufficientPeaks(
            f"only {n_hi} candidate peaks below t_max={t_max}")
    records: list[tuple[float, float]] = []
    best = 0.5  # near-peak regime cutoff doubles as the first record level
    for n_lo in range(1, n_hi + 1, _FLOOR_BLOCK):
        floor = _record_floor(spec, min(n_lo + _FLOOR_BLOCK - 1, n_hi), n_lo)
        for n, low in enumerate(floor.tolist(), start=n_lo):
            if low - 1e-12 >= best:
                continue
            t_peak, f_peak = _refine_peak(spec, math.pi * n)
            one_minus = 1.0 - f_peak
            if one_minus < 1e-15:
                # an exact return to |f| = 1: rational lattice resonance
                return GrowthFit(math.nan, None, (), math.nan,
                                 degenerate=True)
            if t_peak >= 2.0 and one_minus < best:
                best = one_minus
                records.append((t_peak, one_minus))
    if len(records) < _N_PEAKS:
        raise InsufficientPeaks(
            f"found {len(records)} record peaks, need {_N_PEAKS}")
    sample = tuple(records[-_N_PEAKS:])
    ts = np.array([t for t, _ in sample])
    ys = np.log([1.0 / om for _, om in sample])
    logt = np.log(ts)
    # the exponent comes from a log-t-only regression; fitting log t and
    # log log t jointly is ill conditioned because the two regressors are
    # nearly affine over any feasible t range
    design = np.column_stack([np.ones_like(logt), logt])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid_vec = ys - design @ coef
    resid = float(np.sqrt(np.mean(resid_vec ** 2)))
    if t_max >= 1e3:
        qdesign = np.column_stack([np.ones_like(logt), np.log(logt)])
        qcoef, *_ = np.linalg.lstsq(qdesign, resid_vec, rcond=None)
        q_hat = float(qcoef[1])
    else:
        q_hat = None
    return GrowthFit(float(coef[1]), q_hat, sample, resid)
