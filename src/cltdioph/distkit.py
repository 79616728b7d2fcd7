"""Finitely supported distributions and exact Kolmogorov distances.

A DiscreteDist is an immutable sorted atom/weight table.  A product or
mixture of symmetric Bernoulli steps is described by one ``CharSpec``, the
same description its characteristic function is evaluated from;
``bernoulli_base(spec)`` turns it into a base with a lattice tag: integer
coordinates against the coefficient vector (1, alpha_1, ..., alpha_m), so
atoms that coincide merge exactly and distinct atoms cannot silently
collide.  For these bases ``zn_dist`` builds Z_n with one lattice builder,
on integer coordinates from exact binomial rows, for products, mixtures
and rational step heights alike; every other base goes through
convolution powers.  The binomial rows are cut to a Hoeffding window, and
a bound on the mass left out (``tail_mass``) is carried through
convolutions and mixtures to ``KolmogorovResult.error_bound``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .charfn import CharSpec
from .dioph import AlphaSpec
from .errors import PrecisionExhausted, SupportOverflow

#: atom-count ceiling for convolutions and Z_n grids (desk-scale memory cap)
ATOM_CAP = 30_000_000

#: probability mass a binomial row may leave out of its Hoeffding window
TAIL_EPS = 2.0 ** -64

_MASS_TOL = 2.0 ** -45
_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class LatticeTag:
    """Integer coordinates over the coefficient vector (1, alpha_1..alpha_m)."""

    alphas: tuple[AlphaSpec, ...]
    coords: np.ndarray  # shape (n_atoms, m + 1), int64
    scale: float = 1.0  # position = (coords @ (1, alphas)) * scale

    @property
    def m(self) -> int:
        return len(self.alphas)

    def compatible(self, other: "LatticeTag") -> bool:
        return (self.scale == other.scale
                and len(self.alphas) == len(other.alphas)
                and all(a.text == b.text for a, b in zip(self.alphas, other.alphas)))


class DiscreteDist:
    """Sorted finitely supported probability measure."""

    #: the steps a base was built from (set by bernoulli_base), for zn_dist
    spec: Optional[CharSpec] = None
    #: upper bound on the probability mass the lattice builder left out of
    #: Z_n (the weights sum to 1 minus at most this), carried through
    #: convolve and mixture; 0.0 for every other constructor
    tail_mass: float = 0.0

    def __init__(self, positions: np.ndarray, weights: np.ndarray,
                 lattice: Optional[LatticeTag] = None):
        positions = np.asarray(positions, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if positions.ndim != 1 or positions.shape != weights.shape:
            raise ValueError("positions and weights must be matching 1-d arrays")
        if positions.size == 0:
            raise ValueError("distribution needs at least one atom")
        if not (np.all(np.isfinite(positions)) and np.all(weights >= 0)):
            raise ValueError("positions must be finite and weights "
                             "nonnegative")
        if np.any(weights == 0.0):
            # drop atoms whose weight underflowed to an exact zero
            keep = weights > 0.0
            positions, weights = positions[keep], weights[keep]
            if lattice is not None:
                lattice = LatticeTag(lattice.alphas, lattice.coords[keep],
                                     lattice.scale)
        order = np.argsort(positions, kind="stable")
        positions, weights = positions[order], weights[order]
        if lattice is not None:
            lattice = LatticeTag(lattice.alphas, lattice.coords[order],
                                 lattice.scale)
        positions, weights, lattice = _merge_atoms(positions, weights, lattice)
        total = float(np.sum(weights, dtype=np.float128))
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        self.positions = positions
        self.weights = weights
        self.lattice = lattice
        self.positions.setflags(write=False)
        self.weights.setflags(write=False)
        self._cum = np.asarray(np.cumsum(weights.astype(np.float128)),
                               dtype=np.float64)

    def __len__(self) -> int:
        return self.positions.size

    # -- CDF queries --------------------------------------------------------

    def cdf(self, x: float) -> float:
        """P{X <= x} (right-continuous)."""
        i = np.searchsorted(self.positions, x, side="right")
        return float(self._cum[i - 1]) if i > 0 else 0.0

    def cdf_left(self, x: float) -> float:
        """P{X < x} (left limit of the CDF)."""
        i = np.searchsorted(self.positions, x, side="left")
        return float(self._cum[i - 1]) if i > 0 else 0.0


def _merge_atoms(positions, weights, lattice):
    """Merge coincident atoms after sorting.

    Lattice-tagged atoms merge only when their coordinate tuples match;
    float positions merge when they agree within _MERGE_TOL relative.  A
    near-collision of distinct lattice tuples cannot be ordered reliably in
    doubles and raises PrecisionExhausted, unless the unit coordinate is
    the only one: its positions are a monotone function of it.
    """
    if positions.size <= 1:
        return positions, weights, lattice
    scale = max(1.0, float(np.max(np.abs(positions))))
    close = np.diff(positions) <= _MERGE_TOL * scale
    if not np.any(close):
        return positions, weights, lattice
    if lattice is not None:
        coords = lattice.coords
        same = np.all(coords[1:] == coords[:-1], axis=1)
        if lattice.m and np.any(close & ~same):
            raise PrecisionExhausted(
                "distinct lattice atoms collide at double precision")
        group_break = ~(close & same)
    else:
        group_break = ~close
    idx = np.concatenate(([0], np.nonzero(group_break)[0] + 1))
    merged_w = np.add.reduceat(weights, idx)
    merged_x = positions[idx]
    new_lattice = None
    if lattice is not None:
        new_lattice = LatticeTag(lattice.alphas, lattice.coords[idx], lattice.scale)
    return merged_x, merged_w, new_lattice


# ---------------------------------------------------------------------------
# constructors


def delta(position: float = 0.0) -> DiscreteDist:
    return DiscreteDist(np.array([position]), np.array([1.0]))


def bernoulli_pm(scale) -> DiscreteDist:
    """Symmetric two-point distribution on {-scale, +scale}.

    ``scale`` may be a float or an AlphaSpec (evaluated at oracle
    precision); the sign of the scale is irrelevant.
    """
    s = abs(scale.to_float() if isinstance(scale, AlphaSpec) else float(scale))
    if s == 0.0:
        raise ValueError("degenerate scale 0")
    return DiscreteDist(np.array([-s, s]), np.array([0.5, 0.5]))


def bernoulli_base(spec: CharSpec) -> DiscreteDist:
    """The step distribution of a product or mixture spec, with a lattice
    tag over (1, alphas); ``prod:`` with no steps is the unit Bernoulli on
    {-1, +1}."""
    # one step is Z_1 before normalization
    base = _lattice_zn(spec, 1, 1.0)
    base.spec = spec
    return base


def product_bernoulli(alphas: Sequence[AlphaSpec]) -> DiscreteDist:
    """B_1 * B_{alpha_1} * ... * B_{alpha_m} with a lattice tag."""
    return bernoulli_base(CharSpec.product(alphas))


def mixture_bernoulli(weights: Sequence[float],
                      alphas: Sequence[AlphaSpec]) -> DiscreteDist:
    """p_0 B_1 + sum_k p_k B_{alpha_k} with a lattice tag over (1, alphas)."""
    return bernoulli_base(CharSpec.mixture(weights, alphas))


def mixture(components: Sequence[tuple[float, DiscreteDist]]) -> DiscreteDist:
    """Weighted union of distributions (weights positive, summing to 1)."""
    if not components:
        raise ValueError("empty mixture")
    ws = [w for w, _ in components]
    if any(w <= 0 for w in ws) or abs(sum(ws) - 1.0) > _MASS_TOL:
        raise ValueError(f"mixture weights must be positive and sum to 1, got {ws}")
    positions = np.concatenate([d.positions for _, d in components])
    weights = np.concatenate([w * d.weights for w, d in components])
    tags = [d.lattice for _, d in components]
    lattice = None
    if all(t is not None for t in tags) and all(tags[0].compatible(t) for t in tags):
        lattice = LatticeTag(tags[0].alphas,
                             np.concatenate([t.coords for t in tags]),
                             tags[0].scale)
    dist = DiscreteDist(positions, weights, lattice=lattice)
    dist.tail_mass = sum(w * d.tail_mass for w, d in components)
    return dist


# ---------------------------------------------------------------------------
# convolution and normalized sums


def convolve(d1: DiscreteDist, d2: DiscreteDist) -> DiscreteDist:
    """Distribution of X1 + X2 for independent X1 ~ d1, X2 ~ d2.

    Each input omits at most its ``tail_mass``, so by the union bound the
    result omits at most their sum.
    """
    k = len(d1) * len(d2)
    if k > ATOM_CAP:
        raise SupportOverflow(f"convolution support {k} exceeds cap {ATOM_CAP}")
    positions = np.add.outer(d1.positions, d2.positions).ravel()
    weights = np.multiply.outer(d1.weights, d2.weights).ravel()
    lattice = None
    if (d1.lattice is not None and d2.lattice is not None
            and d1.lattice.compatible(d2.lattice)):
        c1, c2 = d1.lattice.coords, d2.lattice.coords
        coords = (c1[:, None, :] + c2[None, :, :]).reshape(k, c1.shape[1])
        lattice = LatticeTag(d1.lattice.alphas, coords, d1.lattice.scale)
    dist = DiscreteDist(positions, weights, lattice=lattice)
    dist.tail_mass = d1.tail_mass + d2.tail_mass
    return dist


def _binom_row(n: int) -> tuple[np.ndarray, np.ndarray]:
    """P{S = s} for a sum S of n +/-1 coin flips, and the support s.

    Only the Hoeffding window |s| <= t, t = sqrt(2 n ln(2 / TAIL_EPS)), is
    kept: P{|S| > t} <= 2 exp(-t^2 / 2n) = TAIL_EPS, so the row leaves out
    at most TAIL_EPS of its mass (none for n <= 90, where t > n).  Each
    kept weight is the correctly rounded double of the exact rational
    C(n,k)/2^n: the coefficients come from the exact integer recurrence
    C(n,k+1) = C(n,k)(n-k)/(k+1), started at C(n,k0) for the first kept
    k0, and int true division rounds correctly.  Tails that underflow to
    0.0 are cut as well.
    """
    t = math.sqrt(2 * n * math.log(2 / TAIL_EPS))
    k0 = max(0, math.ceil((n - t) / 2))  # first k with n - 2k <= t
    denom = 1 << n
    row = np.empty(n + 1 - 2 * k0)
    c = math.comb(n, k0)
    for k in range(k0, n // 2 + 1):
        row[k - k0] = row[n - k - k0] = c / denom
        c = c * (n - k) // (k + 1)
    lo = int(np.argmax(row > 0.0))
    edge = n - 2 * (k0 + lo)
    support = np.arange(-edge, edge + 1, 2, dtype=np.int64)
    return row[lo:row.size - lo], support


def zn_dist(base: DiscreteDist, n: int) -> DiscreteDist:
    """Distribution of Z_n = (X_1 + ... + X_n) / (sigma sqrt(n)).

    Bases built by bernoulli_base go through the lattice builder;
    everything else goes through iterated convolution by binary powering.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    mom = moments(base, n)
    if mom.sigma2 <= 0:
        raise ValueError("base distribution is degenerate")
    scale = 1.0 / (math.sqrt(mom.sigma2) * math.sqrt(n))
    if base.spec is not None:
        return _lattice_zn(base.spec, n, scale)

    # binary powering on the raw sum, rescale once at the end
    result: Optional[DiscreteDist] = None
    power = base
    k = n
    while k:
        if k & 1:
            result = power if result is None else convolve(result, power)
        k >>= 1
        if k:
            power = convolve(power, power)
    assert result is not None
    z = DiscreteDist(result.positions * scale, result.weights)
    z.tail_mass = result.tail_mass
    return z


def _lattice_zn(spec: CharSpec, n: int, scale: float) -> DiscreteDist:
    """Z_n of Bernoulli steps, with positions multiplied by ``scale``.

    The weights live on the integer coordinates (c_0, ..., c_m) of the raw
    sum against (1, alpha_1, ..., alpha_m).  A product's grid is the outer
    product of m + 1 binomial n-rows.  A mixture's is the sum, over the
    component counts (k_0, ..., k_m) adding up to n, of their multinomial
    probability times the outer product of the k_j-rows.

    Each binomial row is cut to its Hoeffding window (``_binom_row``) and
    leaves out at most TAIL_EPS of its mass.  A product grid is the outer
    product of m + 1 rows, so by the union bound it leaves out at most
    (m + 1) * TAIL_EPS; a mixture averages such products, so the same
    bound holds for it.  That bound is recorded as ``tail_mass``; it is
    0.0 when the n-row, and so every shorter row, is whole.
    """
    m = len(spec.alphas)
    row, support = _binom_row(n)
    tail_mass = (m + 1) * TAIL_EPS if support[0] > -n else 0.0
    if spec.weights is not None:
        support = np.arange(-n, n + 1, dtype=np.int64)
    if support.size ** (m + 1) > ATOM_CAP:
        raise SupportOverflow(
            f"Z_n grid for n = {n}, m = {m}: row window {support.size}, "
            f"{support.size ** (m + 1)} atoms exceed cap {ATOM_CAP}")
    if spec.weights is None:
        grid = row
        for _ in range(m):
            grid = np.multiply.outer(grid, row)
    else:
        # mixture weights over a common denominator: normalized exactly,
        # although the floats p_j need not add up to exactly 1
        common = math.lcm(*(Fraction(p).denominator for p in spec.weights))
        ints = [int(Fraction(p) * common) for p in spec.weights]
        total = sum(ints) ** n
        grid = np.zeros((support.size,) * (m + 1))
        rows = [_binom_row(k) for k in range(n + 1)]
        for counts, weight in _multinomials(n, ints):
            block = weight / total
            cells = []
            for k in counts:
                row, at = rows[k]
                block = np.multiply.outer(block, row)
                cells.append(slice(at[0] + n, at[-1] + n + 1, 2))
            grid[tuple(cells)] += block
    # cells of weight 0.0 (unreachable or underflowed) are dropped by
    # DiscreteDist
    dist = _lattice_dist(spec.alphas, np.ix_(*([support] * (m + 1))), grid,
                         scale, n)
    dist.tail_mass = tail_mass
    return dist


def _compositions(n: int, parts: int):
    """Every tuple of ``parts`` nonnegative integers that add up to n."""
    for bars in itertools.combinations(range(n + parts - 1), parts - 1):
        edges = (-1,) + bars + (n + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _multinomials(n: int, ints):
    """Each composition (k_0, ..., k_m) of n, in ``_compositions`` order,
    with n!/(k_0! ... k_m!) * w_0^k_0 ... w_m^k_m for the positive integer
    weights ints = (w_0, ..., w_m).

    Each value comes from the one before it: going from counts k to k'
    multiplies it by the product over j of (k_j! / k'_j!) w_j^(k'_j - k_j),
    done as one multiplication and one exact division of integers.
    """
    prev = (0,) * (len(ints) - 1) + (n,)  # the first composition
    value = ints[-1] ** n
    for counts in _compositions(n, len(ints)):
        up = down = 1
        for k0, k1, w in zip(prev, counts, ints):
            if k1 > k0:
                up *= w ** (k1 - k0)
                down *= math.perm(k1, k1 - k0)
            elif k1 < k0:
                up *= math.perm(k0, k0 - k1)
                down *= w ** (k0 - k1)
        value = value * up // down
        prev = counts
        yield counts, value


def _lattice_dist(alphas, cols, weights, scale, n) -> DiscreteDist:
    """The distribution with atoms at (c_0 + sum_j c_j alpha_j) * scale.

    ``weights`` is a grid and ``cols`` holds the integer coordinates
    c_0, ..., c_m broadcast against it, of a sum of n steps (|c_j| <= n).
    Rational alphas fold into the unit coordinate over their common
    denominator q; the other coordinates are multiplied by q and the scale
    is divided by it.  Atoms with equal coordinate tuples merge exactly in
    ``DiscreteDist``.
    """
    fracs = [a.exact_fraction() if a.is_rational else None for a in alphas]
    if any(f is not None for f in fracs):
        q = math.lcm(*(f.denominator for f in fracs if f is not None))
        fold = [q] + [0 if f is None else int(q * f) for f in fracs]
        if n * sum(map(abs, fold)) >= 1 << 62:
            raise SupportOverflow(
                f"rational steps over denominator {q} overflow the lattice")
        unit = sum(h * c for h, c in zip(fold, cols) if h)
        cols = [unit] + [q * c for c, f in zip(cols[1:], fracs) if f is None]
        alphas = tuple(a for a in alphas if not a.is_rational)
        scale = scale / q
    coords = np.stack(np.broadcast_arrays(weights, *cols)[1:], axis=-1)
    coords, weights = coords.reshape(-1, len(cols)), weights.ravel()
    vals = np.array([1.0] + [a.to_float() for a in alphas])
    positions = (coords @ vals) * scale
    return DiscreteDist(positions, weights,
                        lattice=LatticeTag(alphas, coords, scale))


def zn_dist_exact(alphas: Sequence[AlphaSpec], n: int) -> dict[tuple[int, ...], Fraction]:
    """Exact big-rational Z_n weights for a product-of-Bernoullis base.

    Keyed by integer coordinate tuples; intended as a test oracle
    (n <= 64).
    """
    if n > 64:
        raise ValueError("exact mode is capped at n = 64")
    m = len(alphas)
    support = list(range(-n, n + 1, 2))
    binom = [Fraction(math.comb(n, (n + i) // 2), 2 ** n) for i in support]
    out: dict[tuple[int, ...], Fraction] = {}

    def rec(prefix: tuple[int, ...], w: Fraction, depth: int):
        if depth == m + 1:
            out[prefix] = out.get(prefix, Fraction(0)) + w
            return
        for i, wi in zip(support, binom):
            rec(prefix + (i,), w * wi, depth + 1)

    rec((), Fraction(1), 0)
    return out


# ---------------------------------------------------------------------------
# moments


class Moments(NamedTuple):
    mean: float
    sigma2: float   # variance
    alpha3: float   # E X^3
    beta3: float    # E |X|^3
    beta4: float    # E X^4
    lyapunov3: float  # L_3 = beta3 / sigma^3 / sqrt(n)
    lyapunov4: float  # L_4 = beta4 / sigma^4 / n


def moments(d: DiscreteDist, n: int = 1) -> Moments:
    x, w = d.positions, d.weights
    mean = math.fsum(w * x)
    sigma2 = math.fsum(w * (x - mean) ** 2)
    alpha3 = math.fsum(w * x ** 3)
    beta3 = math.fsum(w * np.abs(x) ** 3)
    beta4 = math.fsum(w * x ** 4)
    sigma = math.sqrt(sigma2) if sigma2 > 0 else 0.0
    l3 = beta3 / sigma ** 3 / math.sqrt(n) if sigma > 0 else math.inf
    l4 = beta4 / sigma ** 4 / n if sigma > 0 else math.inf
    return Moments(mean, sigma2, alpha3, beta3, beta4, l3, l4)


# ---------------------------------------------------------------------------
# Kolmogorov distance


class KolmogorovResult(NamedTuple):
    delta: float
    argmax: float
    side: str  # "left" or "right"
    error_bound: float = 0.0  # |delta - exact Delta_n| <= this


def kolmogorov_distance(d: DiscreteDist, G) -> KolmogorovResult:
    """sup_x |F(x) - G(x)| for the step CDF F of d and a continuous G.

    The sup is attained either one-sided at an atom or at a stationary
    point of G inside a gap of the support (G's monotone tails cannot beat
    the boundary atoms, which are included two-sided).

    ``error_bound`` is tau = ``d.tail_mass``, a bound on the mass the
    lattice builder left out.  Let F* be the CDF of the untruncated Z_n.
    F*(x) - F(x) is the omitted mass at or below x, so
    0 <= F*(x) - F(x) <= tau for every x, and likewise for the left limits
    F*(x-) - F(x-).  Hence |F*(x) - G(x)| and |F(x) - G(x)| differ by at
    most tau at every x, and so do their sups: the reported delta is
    within tau of the exact Delta_n = sup_x |F*(x) - G(x)|.
    """
    x = d.positions
    cum = d._cum
    gx = np.asarray(G(x), dtype=np.float64)
    right = np.abs(cum - gx)                       # F(x_k) vs G(x_k)
    left = np.abs(np.concatenate(([0.0], cum[:-1])) - gx)  # F(x_k-) vs G(x_k)
    i_r = int(np.argmax(right))
    i_l = int(np.argmax(left))
    best = KolmogorovResult(float(right[i_r]), float(x[i_r]), "right")
    if left[i_l] > best.delta:
        best = KolmogorovResult(float(left[i_l]), float(x[i_l]), "left")
    for s in G.stationary_points():
        v = abs(d.cdf(s) - float(G(s)))
        if v > best.delta:
            best = KolmogorovResult(v, float(s), "right")
    return best._replace(error_bound=d.tail_mass)
