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
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    The tail integral is good to QUADPACK's error budget, not to its 17
    printed digits: ``quad`` stops on a panel once its error estimate is
    at most max(1e-12 / panels, 1.49e-8 |panel|), or when it gives up,
    and the estimates must add up to at most 1e-9 (1 + |tail|).
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
    if not (0.0 < p < math.inf and 0.0 < a_const < math.inf):
        raise ValueError(f"p and a_const must be positive and finite, got "
                         f"p = {p}, a_const = {a_const}")
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


# ---------------------------------------------------------------------------
# QUADPACK QAGS (Piessens et al., 1983), ported operation for operation from
# dqagse, dqk21, dqpsrt and dqelg, so ``quad`` returns the bits of
# scipy.integrate.quad without importing scipy.integrate.  The lists are
# indexed from 1, as the Fortran arrays are, so each line reads against
# its original.  Only the value and the error estimate are returned: the
# branches that do nothing but set the error flag ier are left out.

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min       # d1mach(1)
_OFLOW = sys.float_info.max       # d1mach(2)

#: relative tolerance of ``quad``: scipy.integrate.quad's default, fixed
#: because the error bound errbnd = max(epsabs, epsrel |result|) reads it
_EPSREL = 1.49e-8

# 21-point Kronrod abscissae xgk (odd index: the 10-point Gauss nodes)
# and weights wgk, 10-point Gauss weights wg; the centre, 0, is left out
# of xgk and weighs wgk[10]
_XGK = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077958109831074,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def quad(f: Callable[[float], float], a: float, b: float, epsabs: float,
         limit: int) -> tuple[float, float]:
    """(integral of f over [a, b], error estimate), a <= b, by QUADPACK's
    QAGS: adaptive 21-point Gauss-Kronrod bisection with Wynn's epsilon
    extrapolation, to max(epsabs, 1.49e-8 |integral|) on at most
    ``limit`` subintervals.  Bit for bit the value and error of
    ``scipy.integrate.quad(f, a, b, epsabs=epsabs, limit=limit)``."""
    epsrel = _EPSREL
    alist, blist, rlist, elist = ([0.0] * (limit + 1) for _ in range(4))
    iord = [0] * (limit + 1)
    alist[1], blist[1] = a, b
    # first approximation to the integral
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    rlist[1], elist[1], iord[1] = result, abserr, 1
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) \
            or abserr == 0.0:
        return result, abserr
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax, maxerr, area, errsum = abserr, 1, result, abserr
    abserr = _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = ierro = 0
    small = erlarg = ertest = correc = 0.0
    summed = False  # leave by label 115: result is the sum over rlist
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        # roundoff, the subinterval limit, or a point of bad behaviour
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= \
                (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord,
                                       nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before
            # bisecting, lower erlarg by the larger intervals and
            # extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum
    if not summed:
        # label 100: keep the extrapolated result unless the sum is better
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            else:
                summed = abserr > errsum
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return result, abserr


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21: the 21-point Kronrod value over [a, b], its error estimate,
    and the integrals of |f| and of |f - mean f|."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    # the Gauss nodes first (xgk(2), xgk(4), ...), then the others
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j & 1:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh)
                                     + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r^1.5) without the OverflowError of a huge r: r >= 1
        # gives 1 either way
        r = 200.0 * abserr / resasc
        abserr = resasc * (r ** 1.5 if r < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple[int, float, int]:
    """dqpsrt: keep iord(1..) ordering the error estimates downward, and
    return the next interval to bisect (maxerr), its error and nrmax."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        # subdivision raised the error: start the insertion higher
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only as many as can still be bisected are kept in order
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax top-down
        i = nrmax + 1
        while i <= jbnd:
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
            i += 1
        if i > jbnd:
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:
            # and errmin bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    break
                iord[k + 1] = isucc
                k -= 1
            iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list,
          nres: int) -> tuple[int, float, float, int]:
    """dqelg: Wynn's epsilon algorithm on the n partial sums in epstab.
    Returns the new table length n, the extrapolated value, its error
    estimate and the call count nres; res3la holds the last three
    values."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two elements very close, or irregular behaviour: omit a
            # part of the table (every delta is nonzero past this test)
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        if not converged:
            # shift the table
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:
                abserr = abs(result - res3la[3]) \
                    + abs(result - res3la[2]) + abs(result - res3la[1])
                res3la[1], res3la[2], res3la[3] = \
                    res3la[2], res3la[3], result
    abserr = max(abserr, 5.0 * _EPMACH * abs(result))
    return n, result, abserr, nres
