"""Certified-precision Diophantine toolkit.

Real numbers are described by an AlphaSpec (quadratic surd, continued
fraction, decimal string, or exact rational) that can produce, for any
requested bit count B, an integer mantissa M with |alpha - M/2^B| < 2^-B.
Everything downstream (distance to the nearest integer, irrationality-type
scans) consumes that oracle and either certifies its answer or raises
PrecisionExhausted.  Scans over n = 1..N read the orbit off one 64-bit
mantissa in numpy passes (``orbit_residues``, ``_orbit_blocks``); only the
entries that the 64-bit pass cannot certify go back to the scalar
``nearest_int_dist``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import PrecisionExhausted

#: hard ceiling for the doubling precision protocol (bits)
MAX_BITS = 4096

#: 2^64 - 1; ``M & _MASK64`` is M mod 2^64, for negative M too
_MASK64 = (1 << 64) - 1


def _round_div(a: int, b: int) -> int:
    """Nearest integer to a/b, ties toward -inf (b > 0)."""
    if b < 0:
        a, b = -a, -b
    return (2 * a + b) // (2 * b)


def _floor_surd(p: int, d: int, q: int) -> int:
    """floor((p + sqrt(d)) / q) for non-square d > 0 and q != 0."""
    s = isqrt(d)  # sqrt(d) irrational, so floor(p + sqrt(d)) = p + s
    if q > 0:
        return (p + s) // q
    # x/q = -(x/|q|); x irrational, so floor(-y) = -floor(y) - 1
    return -((p + s) // (-q)) - 1


class AlphaSpec:
    """A real number with a certified-precision rational oracle.

    Construct through the classmethods ``surd``, ``from_cf``, ``decimal``,
    ``rational`` or ``parse``.  Instances are immutable; the mantissa cache
    is guarded by a lock so oracles are safe to share across threads.
    """

    def __init__(self, kind: str, text: str):
        self.kind = kind
        self.text = text
        self._cache: dict[int, int] = {}
        self._lock = threading.Lock()

    # -- constructors ------------------------------------------------------

    @classmethod
    def surd(cls, a: int, b: int, c: int, d: int) -> "AlphaSpec":
        """(a + b*sqrt(d)) / c with integer a, b, c, d."""
        if c == 0:
            raise ValueError("surd: c must be nonzero")
        if d < 0:
            raise ValueError("surd: d must be nonnegative")
        r = isqrt(d)
        if b == 0 or r * r == d:
            # degenerate surd; collapses to the rational (a + b*r)/c
            return cls.rational(a + b * r, c)
        self = cls("surd", f"surd:{a},{b},{c},{d}")
        self._a, self._b, self._c, self._d = a, b, c, d
        return self

    @classmethod
    def from_cf(cls, a0: int, quotients: Sequence[int],
                periodic: Sequence[int] = ()) -> "AlphaSpec":
        """Explicit continued fraction a0 + 1/(a1 + 1/(a2 + ...)).

        ``quotients`` is a finite prefix; ``periodic`` (optional) repeats
        forever after it.  All partial quotients must be positive.
        """
        quotients = list(quotients)
        periodic = list(periodic)
        if any(a <= 0 for a in quotients + periodic):
            raise ValueError("cf: partial quotients a1, a2, ... must be positive")
        if not quotients and not periodic:
            return cls.rational(a0, 1)
        if not periodic and len(quotients) >= 1:
            # finite CF: exact rational
            val = Fraction(quotients[-1])
            for a in reversed(quotients[:-1]):
                val = a + 1 / val
            return cls.rational(*(a0 + 1 / val).as_integer_ratio())
        body = ",".join(map(str, quotients))
        tail = ("periodic:" + ",".join(map(str, periodic))) if periodic else ""
        sep = "," if body and tail else ""
        self = cls("cf", f"cf:{a0};{body}{sep}{tail}")
        self._a0 = a0
        self._prefix = quotients
        self._period = periodic
        return self

    @classmethod
    def decimal(cls, digits: str) -> "AlphaSpec":
        """Decimal string; certified to +/- one unit in the last place."""
        s = digits.strip()
        sign = 1
        if s.startswith(("+", "-")):
            sign = -1 if s[0] == "-" else 1
            s = s[1:]
        if "." in s:
            intpart, fracpart = s.split(".", 1)
        else:
            intpart, fracpart = s, ""
        if not (intpart + fracpart).isdigit() or not (intpart or fracpart):
            raise ValueError(f"bad decimal string: {digits!r}")
        k = len(fracpart)
        v = sign * Fraction(int((intpart or "0") + fracpart), 10 ** k)
        self = cls("dec", f"dec:{digits}")
        self._value = v
        self._ulp = Fraction(1, 10 ** k)
        # largest B with 2^-(B+1) + ulp < 2^-B, i.e. 2^-(B+1) > ulp
        self._max_bits = max(0, int(k * math.log2(10)) - 1)
        return self

    @classmethod
    def rational(cls, p: int, q: int) -> "AlphaSpec":
        if q == 0:
            raise ValueError("rational: zero denominator")
        self = cls("rat", f"rat:{p}/{q}")
        self._frac = Fraction(p, q)
        return self

    @classmethod
    def parse(cls, text: str) -> "AlphaSpec":
        """Parse the text grammar surd:a,b,c,d | cf:a0;... | dec:... | rat:p/q."""
        head, _, body = text.partition(":")
        if head == "surd":
            parts = [int(x) for x in body.split(",")]
            if len(parts) != 4:
                raise ValueError(f"surd wants 4 integers, got {text!r}")
            return cls.surd(*parts)
        if head == "cf":
            a0_s, _, rest = body.partition(";")
            a0 = int(a0_s)
            pre: list[int] = []
            per: list[int] = []
            if rest:
                if "periodic:" in rest:
                    pre_s, per_s = rest.split("periodic:", 1)
                    pre = [int(x) for x in pre_s.strip(",").split(",") if x]
                    per = [int(x) for x in per_s.split(",") if x]
                else:
                    pre = [int(x) for x in rest.split(",") if x]
            return cls.from_cf(a0, pre, per)
        if head == "dec":
            return cls.decimal(body)
        if head == "rat":
            p_s, _, q_s = body.partition("/")
            return cls.rational(int(p_s), int(q_s) if q_s else 1)
        raise ValueError(f"unknown alpha spec {text!r}")

    # -- oracle ------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.kind == "rat"

    def exact_fraction(self) -> Fraction:
        """The value of a rat: spec, or the decimal of a dec: spec."""
        if self.kind == "dec":
            return self._value
        if not self.is_rational:
            raise ValueError("exact_fraction only for rat: and dec: specs")
        return self._frac

    def mantissa(self, bits: int) -> int:
        """Integer M with |alpha - M/2^bits| < 2^-bits."""
        if bits < 1:
            raise ValueError("bits must be positive")
        with self._lock:
            m = self._cache.get(bits)
        if m is not None:
            return m
        m = self._mantissa_uncached(bits)
        with self._lock:
            self._cache[bits] = m
        return m

    def approx(self, bits: int) -> Fraction:
        """Exact rational r with |alpha - r| < 2^-bits (monotone in bits)."""
        return Fraction(self.mantissa(bits), 1 << bits)

    def to_float(self) -> float:
        if self.is_rational:
            return float(self._frac)
        if self.kind == "dec":
            return float(self._value)
        return self.mantissa(80) / float(1 << 80)

    def _mantissa_uncached(self, bits: int) -> int:
        if self.kind == "rat":
            f = self._frac
            return _round_div(f.numerator << bits, f.denominator)
        if self.kind == "dec":
            if bits > self._max_bits:
                raise PrecisionExhausted(
                    f"decimal spec certifies at most {self._max_bits} bits, "
                    f"{bits} requested")
            f = self._value
            return _round_div(f.numerator << bits, f.denominator)
        if self.kind == "surd":
            a, b, c, d = self._a, self._b, self._c, self._d
            slack = (abs(b) // abs(c) + 3).bit_length() + 4
            w = bits + slack
            s = isqrt(d << (2 * w))  # |s - 2^w sqrt(d)| < 1
            num = a * (1 << w) + b * s  # |num - 2^w c alpha| < |b| ... (alpha*c)
            return _round_div(num << bits, c << w)
        # cf kind: convergents certify |alpha - p/q| < 1/q^2
        p0, q0 = 1, 0
        p1, q1 = self._a0, 1
        for a in self._cf_quotients():
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
            if q1 * q1 >= (1 << (bits + 2)):
                return _round_div(p1 << bits, q1)
        raise PrecisionExhausted("finite CF exhausted (should be rational)")

    def _cf_quotients(self):
        """Yield a1, a2, ... (prefix then cycling periodic block)."""
        yield from self._prefix
        if self._period:
            while True:
                yield from self._period

    def __repr__(self) -> str:  # pragma: no cover
        return f"AlphaSpec({self.text!r})"


# ---------------------------------------------------------------------------
# continued fractions


@dataclass
class ContinuedFraction:
    """Partial quotients [a0; a1, a2, ...] with exact convergents."""

    a0: int
    quotients: list[int]            # a1, a2, ... (positive)
    convergents: list[Fraction] = field(default_factory=list)
    terminated: bool = False        # rational input ended before `depth`
    period: Optional[int] = None    # cycle length for quadratic surds
    certified: Optional[int] = None  # quotients certified (decimal kind)

    def __post_init__(self):
        if not self.convergents:
            self.convergents = _convergent_list(self.a0, self.quotients)
        for k in range(1, len(self.convergents)):
            p1, q1 = self.convergents[k].numerator, self.convergents[k].denominator
            p0, q0 = self.convergents[k - 1].numerator, self.convergents[k - 1].denominator
            if p1 * q0 - p0 * q1 != (-1) ** (k - 1):
                raise AssertionError("convergent determinant identity broken")


def _convergent_list(a0: int, quotients: Sequence[int]) -> list[Fraction]:
    convs = [Fraction(a0, 1)]
    p0, q0, p1, q1 = 1, 0, a0, 1
    for a in quotients:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        convs.append(Fraction(p1, q1))
    return convs


def _cf_rational(frac: Fraction, depth: int) -> ContinuedFraction:
    p, q = frac.numerator, frac.denominator
    a0 = p // q
    p, q = q, p - a0 * q
    quots: list[int] = []
    while q != 0 and len(quots) < depth - 1:
        a = p // q
        quots.append(a)
        p, q = q, p - a * q
    return ContinuedFraction(a0, quots, terminated=(q == 0))


def _cf_surd(alpha: AlphaSpec, depth: int) -> ContinuedFraction:
    a, b, c, d = alpha._a, alpha._b, alpha._c, alpha._d
    # normalize to (P + sqrt(D))/Q with Q | D - P^2
    if b > 0:
        P, Q, D = a, c, b * b * d
    else:
        P, Q, D = -a, -c, b * b * d
    if (D - P * P) % Q != 0:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    quots: list[int] = []
    a0 = _floor_surd(P, D, Q)
    x_a = a0
    seen: dict[tuple[int, int], int] = {}
    period = None
    i = 0
    while len(quots) < depth - 1:
        P = x_a * Q - P
        Q = (D - P * P) // Q
        state = (P, Q)
        if state in seen and period is None:
            period = i - seen[state]
        elif state not in seen:
            seen[state] = i
        x_a = _floor_surd(P, D, Q)
        quots.append(x_a)
        i += 1
    return ContinuedFraction(a0, quots, period=period)


def _cf_interval(lo: Fraction, hi: Fraction, depth: int) -> tuple[int, list[int], int]:
    """CF quotients certified by the interval [lo, hi]; returns (a0, quots, count)."""
    a0_lo, a0_hi = lo.numerator // lo.denominator, hi.numerator // hi.denominator
    if a0_lo != a0_hi:
        return a0_lo, [], 0
    a0 = a0_lo
    lo, hi = lo - a0, hi - a0
    quots: list[int] = []
    certified = 1
    while len(quots) < depth - 1:
        if lo <= 0 or hi <= 0:
            break
        lo, hi = 1 / hi, 1 / lo
        a_lo, a_hi = lo.numerator // lo.denominator, hi.numerator // hi.denominator
        if a_lo != a_hi:
            break
        quots.append(a_lo)
        certified += 1
        lo, hi = lo - a_lo, hi - a_lo
    return a0, quots, certified


def cf_expand(alpha: AlphaSpec, depth: int, partial: bool = False) -> ContinuedFraction:
    """First `depth` partial quotients of alpha (exact integer algorithms).

    For decimal specs only quotients certified by the digit budget are
    produced; fewer than `depth` raises PrecisionExhausted unless
    ``partial`` is set.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if alpha.kind == "rat":
        return _cf_rational(alpha._frac, depth)
    if alpha.kind == "surd":
        return _cf_surd(alpha, depth)
    if alpha.kind == "cf":
        quots = []
        gen = alpha._cf_quotients()
        for _ in range(depth - 1):
            quots.append(next(gen))
        period = len(alpha._period) if alpha._period else None
        return ContinuedFraction(alpha._a0, quots, period=period)
    # decimal: interval arithmetic on [v - ulp, v + ulp]
    a0, quots, certified = _cf_interval(alpha._value - alpha._ulp,
                                        alpha._value + alpha._ulp, depth)
    if certified == 0 or (certified < depth and not partial):
        raise PrecisionExhausted(
            f"decimal digits certify only {certified} of {depth} quotients")
    return ContinuedFraction(a0, quots, certified=certified)


# ---------------------------------------------------------------------------
# nearest-integer distance


def _certified(d, n, bits: int):
    """Whether d = min(r, 2^bits - r), r = n*M mod 2^bits for a mantissa M
    of alpha, certifies ||n alpha|| = d / 2^bits within n 2^-bits: n*alpha
    is then strictly between the same integer and half-integer as n*M /
    2^bits.  Takes Python ints, or ``np.uint64`` arrays elementwise."""
    return (n < d) & (d < (1 << (bits - 1)) - n)


def nearest_int_dist(alpha: AlphaSpec, n: int) -> tuple[float, float]:
    """(||n*alpha||, certified absolute error bound < 2^-40).

    Doubles the oracle bit budget B, from max(64, 41 + n.bit_length()),
    until the residue d = min(r, 2^B - r) of r = n*M mod 2^B passes
    ``_certified``, and returns d / 2^B and n / 2^B.  Raises
    PrecisionExhausted at the budget ceiling.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha.is_rational:
        f = n * alpha.exact_fraction()
        frac = f - (f.numerator // f.denominator)
        dist = min(frac, 1 - frac)
        return float(dist), 0.0
    cap = MAX_BITS
    if alpha.kind == "dec":
        cap = min(cap, alpha._max_bits)
    bits = max(64, 41 + n.bit_length())
    if bits > cap:
        raise PrecisionExhausted(
            f"need {bits} bits to certify ||{n}*alpha||, budget is {cap}")
    while True:
        one = 1 << bits
        r = n * alpha.mantissa(bits) % one
        d = min(r, one - r)
        if _certified(d, n, bits):
            return d / one, n / one
        if bits >= cap:
            raise PrecisionExhausted(
                f"cannot separate {n}*alpha from 0 or 1/2 within {cap} bits")
        bits = min(2 * bits, cap)


def orbit_residues(alpha: AlphaSpec, n_max: int, n_min: int = 1) -> np.ndarray:
    """r_n = n*M mod 2^64 for n = n_min..n_max, M = ``alpha.mantissa(64)``.

    One wrapping ``np.uint64`` multiply gives the exact residues (M is
    taken mod 2^64, which is right for negative alpha too).  Since
    |n*alpha - n*M/2^64| < n 2^-64, r_n / 2^64 is {n alpha} and
    min(r_n, 2^64 - r_n) / 2^64 is ||n alpha||, each within n 2^-64.
    Raises PrecisionExhausted when alpha has no 64-bit mantissa.
    """
    m = np.uint64(alpha.mantissa(64) & _MASK64)
    return np.arange(n_min, n_max + 1, dtype=np.uint64) * m


#: from n = 2^23 on, 41 + n.bit_length() > 64: nearest_int_dist starts
#: above 64 bits, so the 64-bit pass stops below it
_N64 = 1 << 23
#: orbit scans run on blocks of this many n
_BLOCK = 1 << 16
#: rational alpha = p/q with q below this is scanned in exact uint64
#: arithmetic: n (p mod q) < 2^23 2^31 fits, and d / q is one rounding
_Q_EXACT = 1 << 31


def _dists_64(alpha: AlphaSpec, n_min: int, n_max: int) -> np.ndarray:
    """||n alpha|| for n = n_min..n_max, NaN where one numpy pass cannot
    give the value of ``nearest_int_dist`` and at every n >= 2^23.

    Irrational alpha: d_n / 2^64 where the 64-bit residue d_n passes
    ``_certified``.  Rational p/q with q < 2^31: min(r, q - r) / q, r = n p
    mod q, the correctly rounded value of that Fraction, as
    ``nearest_int_dist`` returns it.
    """
    ns = np.arange(n_min, n_max + 1, dtype=np.uint64)
    if alpha.is_rational:
        f = alpha.exact_fraction()
        q = f.denominator
        if q >= _Q_EXACT:
            return np.full(ns.size, math.nan)
        r = ns * np.uint64(f.numerator % q) % np.uint64(q)
        d = np.minimum(r, np.uint64(q) - r) / float(q)
        return np.where(ns < _N64, d, np.nan)
    try:
        r = orbit_residues(alpha, n_max, n_min)
    except PrecisionExhausted:
        # the scalar path reports the budget
        return np.full(ns.size, math.nan)
    d = np.minimum(r, -r)
    ok = _certified(d, ns, 64) & (ns < _N64)
    return np.where(ok, d / 2.0 ** 64, np.nan)


def _orbit_blocks(alpha: AlphaSpec, n_max: int) -> Iterator[np.ndarray]:
    """||n alpha|| for n = 1..n_max in consecutive arrays of up to
    ``_BLOCK`` values, each equal to ``nearest_int_dist(alpha, n)[0]``.

    Each block is ``_dists_64`` with its NaN entries computed by
    ``nearest_int_dist``, in increasing n.  When one of those raises, the
    block up to the entry before it is yielded first, so a consumer meets
    every value below the failing n before the error, as in a loop over n.
    """
    for lo in range(1, n_max + 1, _BLOCK):
        d = _dists_64(alpha, lo, min(lo + _BLOCK - 1, n_max))
        for j in np.flatnonzero(np.isnan(d)).tolist():
            try:
                d[j] = nearest_int_dist(alpha, lo + j)[0]
            except PrecisionExhausted:
                yield d[:j]
                raise
        yield d


# ---------------------------------------------------------------------------
# irrationality-type estimate


@dataclass
class TypeEstimate:
    """Finite-horizon proxy for the irrationality type eta(alpha)."""

    eta_hat: float
    witnesses: list[tuple[int, float, float]]  # (n, ||n alpha||, n^eta * ||n alpha||)
    n_max: int
    degenerate: bool = False  # rational alpha: ||n alpha|| = 0 occurred


def type_estimate(alpha: AlphaSpec, n_max: int) -> TypeEstimate:
    """Empirical exponent max_n log(1/(2||n alpha||)) / log n over the horizon.

    The scan is restricted to sqrt(n_max) <= n <= n_max so the estimate
    tracks the asymptotic regime: a plain max over all n >= 2 is monotone
    in the horizon and stays pinned to small-n artifacts forever, whereas
    the windowed max converges to 1 from above for badly approximable
    alpha.  Records the chain of running maxima as witnesses.  Rational
    alpha is reported with the degenerate flag (an exact hit
    ||n alpha|| = 0 anywhere on the horizon) and the chain up to that hit.

    The distances come from the blocks of ``_orbit_blocks``.  In each
    block, the n that can set a record are found with ``np.log``: the
    candidates are the n whose ratio is within a margin of 1e-9 relative,
    far above the few-ulp error of ``np.log``, of the running maximum.
    Each candidate is then taken in increasing n with ``math.log``, as
    a loop over every n would take it, so the maximum and the witness
    chain are that loop's.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    n_min = max(2, isqrt(n_max))
    eta_hat = float("-inf")
    chain: list[tuple[int, float, float]] = []
    lo = 1
    for d in _orbit_blocks(alpha, n_max):
        zeros = np.flatnonzero(d == 0.0)
        end = int(zeros[0]) if zeros.size else d.size
        start = min(max(n_min - lo, 0), end)
        run = d[start:end]
        if run.size:
            with np.errstate(over="ignore", invalid="ignore"):
                approx = np.log(1.0 / (2.0 * run)) / np.log(
                    np.arange(lo + start, lo + end, dtype=float))
                prev = np.maximum.accumulate(np.r_[eta_hat, approx[:-1]])
                near = approx > prev - 1e-9 * (1.0 + np.abs(prev))
            for j in np.flatnonzero(near).tolist():
                n, dist = lo + start + j, float(run[j])
                eta_n = math.log(1.0 / (2.0 * dist)) / math.log(n)
                if eta_n > eta_hat:
                    eta_hat = eta_n
                    chain.append((n, dist, n ** eta_n * dist))
        if zeros.size:
            return TypeEstimate(math.inf, chain, n_max, degenerate=True)
        lo += d.size
    return TypeEstimate(eta_hat, chain, n_max)
