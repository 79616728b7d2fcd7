"""Normal and third-order Edgeworth approximants with explicit-constant bounds.

Provides the corrected CDF Phi3, its Fourier-Stieltjes transform, the
non-uniform (x^2-weighted) bound, the Wasserstein-1 bound, and the
characteristic-function deviation bound, all with the numeric constants
13, 16.02, 24.2, (A, B) = (1/2, 2) for the normal CDF and (0.57, 4) for
the corrected one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distkit import DiscreteDist, moments

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


#: Cephes ``ndtr`` (Moshier, *Methods and Programs for Mathematical
#: Functions*, 1989) as scipy.special compiles it.  With s = x / sqrt 2 and
#: z = |s|, the erf branch (z < 1) is s T(z^2) / U(z^2), the erfc branch
#: exp(-z^2) P(z) / Q(z) for z < 8 and exp(-z^2) R(z) / S(z) beyond.
#: _NDTR_COEFS[k, 0, b] and [k, 1, b] are the k-th coefficients, highest
#: first, of branch b's numerator and denominator, padded with leading
#: zeros to one length: 0 v + c = c, and the leading 1 of the monic Q, S
#: and U is exact, so each Horner step rounds as Cephes' polevl and p1evl
_NDTR_COEFS = np.zeros((9, 2, 3))
for _b, (_num, _den) in enumerate((
        ((9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4),
         (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)),
        ((2.46196981473530512524E-10, 5.64189564831068821977E-1,
          7.46321056442269912687E0, 4.86371970985681366614E1,
          1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3,
          5.57535335369399327526E2),
         (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
          3.54937778887819891062E2, 9.75708501743205489753E2,
          1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)),
        ((5.64189583547755073984E-1, 1.27536670759978104416E0,
          5.01905042251180477414E0, 6.16021097993053585195E0,
          7.40974269950448939160E0, 2.97886665372100240670E0),
         (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
          1.20489539808096656605E1, 1.70814450747565897222E1,
          9.60896809063285878198E0, 3.36907645100081516050E0)))):
    _NDTR_COEFS[9 - len(_num):, 0, _b] = _num
    _NDTR_COEFS[9 - len(_den):, 1, _b] = _den
del _b, _num, _den

#: erfc(z) is 0 once -z^2 < -MAXLOG (Cephes' underflow cut, |x| > 37.68)
_MAXLOG = 7.09782712893383996843E2


def std_normal_cdf(x):
    """Standard normal CDF, elementwise; a scalar gives a numpy float64.

    A numpy port of Cephes ``ndtr`` that returns the bits of
    ``scipy.special.ndtr``: the same branches, coefficients and operation
    order.  exp(-z^2) is taken in complex128, whose numpy loop calls the C
    library's exp; numpy's own float64 exp is a SIMD kernel that differs
    from it in the last bit on some arguments."""
    x = np.asarray(x, dtype=np.float64)
    s = x * math.sqrt(0.5)
    # z^2 passes MAXLOG at z = 26.65, so a z clamped to 27 is still cut,
    # and inf stays out of the polynomials; NaN passes through
    z = np.minimum(np.abs(s), 27.0)
    zz = z * z
    erf = z < 1.0
    branch = (z >= 8.0) + (~erf).astype(np.intp)
    v = np.where(erf, zz, z)
    acc = np.take(_NDTR_COEFS[0], branch, axis=1)
    for k in range(1, 9):
        acc *= v
        acc += np.take(_NDTR_COEFS[k], branch, axis=1)
    e = -zz
    scale = np.where(erf, s, np.exp(e.astype(np.complex128)).real)
    y = np.where(e < -_MAXLOG, 0.0, scale * acc[0] / acc[1])
    half = 0.5 * y
    out = np.where(erf, 0.5 + half, np.where(s > 0.0, 1.0 - half, half))
    return out[()]


def std_normal_pdf(x):
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-np.square(x) / 2.0) / SQRT_TWO_PI


#: Phi on the grid k / 1024, |k| <= 10240, for
#: ``EdgeworthComparison.enclose``.  Linear interpolation on it is within
#: h^2 / 8 max|Phi''| = 2^-23 phi(1) < 2.9e-8 of Phi, and so are its end
#: values beyond [-10, 10], where Phi is within 7.7e-24 of 0 or 1
_PHI_GRID = np.arange(-10240, 10241) / 1024.0
_PHI_TABLE = std_normal_cdf(_PHI_GRID)
_ENCLOSE_PAD = 2.0 ** -24


@dataclass(frozen=True)
class EdgeworthParams:
    """(alpha3, sigma, n) triple; a = alpha3 / (6 sigma^3 sqrt(n))."""

    alpha3: float
    sigma: float
    n: int
    beta4: Optional[float] = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def a(self) -> float:
        return self.alpha3 / (6.0 * self.sigma ** 3 * math.sqrt(self.n))

    @property
    def admissible(self) -> Optional[bool]:
        """n >= beta4 / sigma^4, which forces |alpha3| / (sigma^3 sqrt n) <= 1."""
        if self.beta4 is None:
            return None
        return self.n >= self.beta4 / self.sigma ** 4

    @classmethod
    def from_dist(cls, d: DiscreteDist, n: int) -> "EdgeworthParams":
        m = moments(d)
        return cls(alpha3=m.alpha3, sigma=math.sqrt(m.sigma2), n=n,
                   beta4=m.beta4)


@dataclass(frozen=True)
class TailEnvelope:
    """Gaussian tail envelope |G| <= A exp(-x^2/B) on the relevant side."""

    A: float
    B: float

    def __post_init__(self):
        if self.A < 0.5:
            raise ValueError("amplitude A must be >= 1/2")
        if self.B <= 0:
            raise ValueError("decay scale B must be positive")


#: envelope constants for the normal CDF and the corrected CDF
NORMAL_ENVELOPE = TailEnvelope(0.5, 2.0)
EDGEWORTH_ENVELOPE = TailEnvelope(0.57, 4.0)


def phi3(x, p: EdgeworthParams):
    """Phi(x) - a (x^2 - 1) phi(x), the third-order corrected CDF."""
    a = p.a
    if a == 0.0:
        return std_normal_cdf(x)
    x = np.asarray(x, dtype=np.float64)
    return std_normal_cdf(x) - _phi3_term(x, a)


def _phi3_term(x: np.ndarray, a: float) -> np.ndarray:
    """a (x^2 - 1) phi(x), the correction that Phi3 subtracts."""
    return a * (np.square(x) - 1.0) * std_normal_pdf(x)


def phi3_deriv(x, p: EdgeworthParams):
    """d/dx Phi3 = phi(x) (1 + a (x^3 - 3x))."""
    x = np.asarray(x, dtype=np.float64)
    return std_normal_pdf(x) * (1.0 + p.a * (x ** 3 - 3.0 * x))


def phi3_stationary_points(p: EdgeworthParams) -> list[float]:
    """Real roots of 1 + a (x^3 - 3x) = 0, ascending.

    Solved by discriminant classification of the depressed cubic
    x^3 - 3x + 1/a, each root polished by one Newton step.
    """
    a = p.a
    if a == 0.0:
        return []
    q = 1.0 / a  # x^3 - 3x + q = 0, i.e. p_coef = -3
    disc = -4.0 * (-3.0) ** 3 - 27.0 * q * q  # = 108 - 27 q^2
    roots: list[float]
    if disc > 0.0:
        # three real roots (|q| < 2): trigonometric form
        phi = math.acos(max(-1.0, min(1.0, -q / 2.0)))
        roots = [2.0 * math.cos((phi - 2.0 * math.pi * k) / 3.0)
                 for k in range(3)]
    elif disc < 0.0:
        # one real root: Cardano
        half_q = q / 2.0
        s = math.sqrt(half_q * half_q - 1.0)
        u = -half_q + s
        v = -half_q - s
        roots = [math.copysign(abs(u) ** (1 / 3), u)
                 + math.copysign(abs(v) ** (1 / 3), v)]
    else:
        # double root at +/-1, simple root at -/+2
        roots = [2.0, -1.0] if q < 0 else [-2.0, 1.0]

    def polish(x):
        f = x ** 3 - 3.0 * x + q
        df = 3.0 * x * x - 3.0
        return x - f / df if abs(df) > 1e-9 else x

    return sorted(polish(r) for r in roots)


def phi3_fourier(t: float, p: EdgeworthParams) -> complex:
    """g3(t) = exp(-t^2/2) (1 + a (it)^3)."""
    a = p.a
    return cmath.exp(-t * t / 2.0) * (1.0 + a * (1j * t) ** 3)


def fs_transform(d: DiscreteDist, t: float) -> complex:
    """Fourier-Stieltjes transform sum_k w_k exp(i t x_k)."""
    arg = t * d.positions
    re = float(np.dot(d.weights, np.cos(arg)))
    im = float(np.dot(d.weights, np.sin(arg)))
    return complex(re, im)


# ---------------------------------------------------------------------------
# comparison functions (for kolmogorov_distance and the bound suite)


class EdgeworthComparison:
    """Third-order corrected CDF Phi3 as a comparison function G; the
    normal CDF is Phi3 with alpha3 = 0."""

    def __init__(self, params: EdgeworthParams):
        self.params = params

    def __call__(self, x):
        return phi3(x, self.params)

    def enclose(self, x):
        """(lo, hi) with lo <= self(x) <= hi elementwise, at a fraction
        of the cost of self(x): Phi interpolated in a table, less the
        correction term that self(x) subtracts, widened on each side by
        2^-24, over twice the table's error."""
        x = np.asarray(x, dtype=np.float64)
        lo = np.interp(x, _PHI_GRID, _PHI_TABLE)
        if self.params.a != 0.0:
            lo -= _phi3_term(x, self.params.a)
        hi = lo + _ENCLOSE_PAD
        lo -= _ENCLOSE_PAD
        return lo, hi

    def stationary_points(self):
        return phi3_stationary_points(self.params)


def comparison_for(target: str, base: DiscreteDist, n: int):
    """The comparison function G for Z_n of ``base``: the normal CDF
    (``"phi"``) or its Edgeworth correction Phi3 (``"phi3"``), whose
    parameters come from the moments of ``base``."""
    if target == "phi":
        return EdgeworthComparison(EdgeworthParams(0.0, 1.0, n))
    if target == "phi3":
        return EdgeworthComparison(EdgeworthParams.from_dist(base, n))
    raise ValueError(f"unknown comparison target {target!r}")


# ---------------------------------------------------------------------------
# explicit-constant bounds


def nonuniform_bound(delta: float, env: TailEnvelope) -> float:
    """13 A B Delta log(e + 1/Delta): bound on sup_x x^2 |F - G|."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return 13.0 * env.A * env.B * delta * math.log(math.e + 1.0 / delta)


def w1_bound(delta: float, env: TailEnvelope) -> float:
    """16.02 sqrt(AB) Delta log^(1/2)(e + 1/Delta): W1 bound."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return (16.02 * math.sqrt(env.A * env.B) * delta
            * math.sqrt(math.log(math.e + 1.0 / delta)))


def cf_deviation_bound(t: float, delta_n: float, symmetric: bool = False) -> float:
    """24.2 |t| Delta log^(1/2)(e + 1/Delta) (16.02 when alpha3 = 0)."""
    if not 0.0 < delta_n <= 1.0:
        raise ValueError(f"delta_n must be in (0, 1], got {delta_n}")
    const = 16.02 if symmetric else 24.2
    return const * abs(t) * delta_n * math.sqrt(math.log(math.e + 1.0 / delta_n))


# ---------------------------------------------------------------------------
# exact Wasserstein-1 distance


def w1_exact(d: DiscreteDist, G) -> float:
    """int |F(x) - G(x)| dx for the step CDF F of d and continuous G.

    Splits at atoms and at sign changes of F - G inside each gap so every
    quadrature panel has a single-signed integrand.  Needs scipy, which
    the package does not otherwise depend on.
    """
    # here, not at module level: no command needs them, and importing
    # them would add to every command's start-up
    from scipy.integrate import quad
    from scipy.optimize import brentq

    abs_tol = 1e-10  # split over the two tails and the gaps between atoms
    x = d.positions
    cum = np.concatenate(([0.0], np.asarray(d._cum, dtype=np.float64)))
    total = 0.0
    # left tail: F = 0, integrand |G|
    total += quad(lambda s: abs(float(G(s))), -np.inf, x[0],
                  epsabs=abs_tol / 4)[0]
    # right tail: F = 1
    total += quad(lambda s: abs(1.0 - float(G(s))), x[-1], np.inf,
                  epsabs=abs_tol / 4)[0]
    stationary = G.stationary_points()
    for i in range(len(x) - 1):
        lo, hi = float(x[i]), float(x[i + 1])
        if hi - lo <= 0:
            continue
        level = float(cum[i + 1])
        cuts = [lo] + [s for s in stationary if lo < s < hi] + [hi]
        for j in range(len(cuts) - 1):
            a, b = cuts[j], cuts[j + 1]
            fa = level - float(G(a))
            fb = level - float(G(b))
            pieces = [a, b]
            if fa * fb < 0:
                root = brentq(lambda s: level - float(G(s)), a, b)
                pieces = [a, root, b]
            for k in range(len(pieces) - 1):
                total += abs(quad(lambda s: level - float(G(s)),
                                  pieces[k], pieces[k + 1],
                                  epsabs=abs_tol / (4 * len(x)))[0])
    return total
