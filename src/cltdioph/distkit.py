"""Finitely supported distributions and exact Kolmogorov distances.

A DiscreteDist is an immutable sorted atom/weight table.  A product or
mixture of symmetric Bernoulli steps is described by one ``CharSpec``, the
same description its characteristic function is evaluated from;
``bernoulli_base(spec)`` turns it into a base that keeps the spec.  For
these bases Z_n is a ``LatticeZn``: one lattice builder, on integer
coordinates against (1, alpha_1, ..., alpha_m) from exact binomial rows,
for products, mixtures and rational step heights alike, that walks Z_n
bucket by bucket and yields it as slabs in increasing position order,
without sorting its atoms.  The coordinates live only there: atoms merge
where they are made (``_merge_atoms``), so atoms that coincide merge
exactly and distinct atoms cannot silently collide.
``kolmogorov_distance`` scans the slabs without ever holding Z_n whole;
``zn_dist`` concatenates them into a DiscreteDist, and every other base
goes through convolution powers.  The binomial rows are cut to a
Hoeffding window, and a bound on the mass left out (``tail_mass``) is
carried through convolutions to ``KolmogorovResult.error_bound``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .charfn import CharSpec
from .dioph import AlphaSpec
from .errors import PrecisionExhausted, SupportOverflow

#: bytes that a convolution, a whole Z_n and the streamed scan's tuples
#: and slab may take (desk-scale memory cap)
MEMORY_BUDGET = 1 << 30

#: working bytes of one slab of the streamed scan, sized to stay in a
#: core's L2 cache: about 6500 cells at two lattice coordinates
SLAB_BYTES = 1 << 20

#: probability mass a binomial row may leave out of its Hoeffding window
TAIL_EPS = 2.0 ** -64

_MASS_TOL = 2.0 ** -45
_MERGE_TOL = 1e-12


def _atom_bytes(width: int) -> int:
    """Bytes per atom of a DiscreteDist (position, weight, cumulative
    weight) and of the ``width`` integer coordinates that built it."""
    return 24 + 8 * width


def _over_budget(what: str, need: int) -> None:
    if need > MEMORY_BUDGET:
        raise SupportOverflow(f"{what} need {need} B, over the "
                              f"{MEMORY_BUDGET} B memory budget")


class DiscreteDist:
    """Sorted finitely supported probability measure; equal positions merge."""

    #: the steps a base was built from (set by bernoulli_base), for zn_dist
    spec: Optional[CharSpec] = None
    #: upper bound on the probability mass the lattice builder left out of
    #: Z_n (the weights sum to 1 minus at most this), carried through
    #: convolve; 0.0 for every other constructor
    tail_mass: float = 0.0

    def __init__(self, positions: np.ndarray, weights: np.ndarray):
        positions = np.asarray(positions, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if positions.ndim != 1 or positions.shape != weights.shape:
            raise ValueError("positions and weights must be matching 1-d arrays")
        if positions.size == 0:
            raise ValueError("distribution needs at least one atom")
        if not (np.all(np.isfinite(positions)) and np.all(weights >= 0)):
            raise ValueError("positions must be finite and weights "
                             "nonnegative")
        positions, weights, _ = _merge_atoms(
            *_drop_zeros_and_sort(positions, weights), None, 0.0)
        total = float(np.sum(weights, dtype=np.float128))
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        self.positions = positions
        self.weights = weights
        self.positions.setflags(write=False)
        self.weights.setflags(write=False)
        self._cum = np.asarray(np.cumsum(weights.astype(np.float128)),
                               dtype=np.float64)

    def __len__(self) -> int:
        return self.positions.size

    @property
    def heaviest(self) -> float:
        """The weight of the heaviest atom."""
        return float(np.max(self.weights))

    def slabs(self):
        """The distribution as the one slab ``kolmogorov_distance`` scans."""
        yield self.positions, self.weights


def _drop_zeros_and_sort(positions, weights):
    """The atoms of nonzero weight, stably sorted by position."""
    keep = np.flatnonzero(weights)
    order = keep[np.argsort(positions[keep], kind="stable")]
    return positions[order], weights[order]


def _merge_atoms(positions, weights, coords, spread):
    """Merge coincident atoms after sorting.

    Three merges, one per maker of atoms: ``LatticeZn.slabs`` passes one
    row of integer coordinates per atom (``coords``), and atoms merge only
    when their coordinate tuples match; ``convolve`` passes ``spread`` =
    max(1, the largest |position| of its result), and atoms merge when
    they agree within _MERGE_TOL * ``spread``; the DiscreteDist
    constructor passes ``spread`` = 0, so only equal positions merge.  A
    near-collision of distinct lattice tuples cannot be ordered reliably
    in doubles and raises PrecisionExhausted, unless the unit coordinate
    is the only one: its positions are a monotone function of it.
    """
    if positions.size <= 1:
        return positions, weights, coords
    close = np.diff(positions) <= _MERGE_TOL * spread
    if not np.any(close):
        return positions, weights, coords
    if coords is not None:
        same = np.all(coords[1:] == coords[:-1], axis=1)
        if coords.shape[1] > 1 and np.any(close & ~same):
            raise PrecisionExhausted(
                "distinct lattice atoms collide at double precision")
        group_break = ~(close & same)
    else:
        group_break = ~close
    idx = np.concatenate(([0], np.nonzero(group_break)[0] + 1))
    return (positions[idx], np.add.reduceat(weights, idx),
            None if coords is None else np.take(coords, idx, axis=0))


# ---------------------------------------------------------------------------
# constructors


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
    """The step distribution of a product or mixture spec, built by the
    lattice builder as Z_1 and keeping the spec for ``zn_dist``; ``prod:``
    with no steps is the unit Bernoulli on {-1, +1}."""
    # one step is Z_1 before normalization
    base = LatticeZn(spec, 1, 1.0).whole()
    base.spec = spec
    return base


def product_bernoulli(alphas: Sequence[AlphaSpec]) -> DiscreteDist:
    """B_1 * B_{alpha_1} * ... * B_{alpha_m}, as ``bernoulli_base``."""
    return bernoulli_base(CharSpec.product(alphas))


def mixture_bernoulli(weights: Sequence[float],
                      alphas: Sequence[AlphaSpec]) -> DiscreteDist:
    """p_0 B_1 + sum_k p_k B_{alpha_k}, as ``bernoulli_base``."""
    return bernoulli_base(CharSpec.mixture(weights, alphas))


# ---------------------------------------------------------------------------
# convolution and normalized sums


def convolve(d1: DiscreteDist, d2: DiscreteDist) -> DiscreteDist:
    """Distribution of X1 + X2 for independent X1 ~ d1, X2 ~ d2.

    Atoms within _MERGE_TOL * max(1, the largest |position|) merge.  Each
    input omits at most its ``tail_mass``, so by the union bound the
    result omits at most their sum.
    """
    k = len(d1) * len(d2)
    _over_budget(f"convolution support of {k} atoms would", k * _atom_bytes(0))
    x, w = _drop_zeros_and_sort(
        np.add.outer(d1.positions, d2.positions).ravel(),
        np.multiply.outer(d1.weights, d2.weights).ravel())
    spread = max(1.0, float(np.max(np.abs(x), initial=0.0)))
    dist = DiscreteDist(*_merge_atoms(x, w, None, spread)[:2])
    dist.tail_mass = d1.tail_mass + d2.tail_mass
    return dist


def _row_edge(n: int) -> int:
    """The largest |s| that ``_binom_row(n)`` keeps: the largest s <= n,
    of the parity of n, with s <= t = sqrt(2 n ln(2 / TAIL_EPS)).  t grows
    with n, so the edge grows with n within each parity."""
    t = math.sqrt(2 * n * math.log(2 / TAIL_EPS))
    return n - 2 * max(0, math.ceil((n - t) / 2))


def _binom_row(n: int) -> tuple[np.ndarray, np.ndarray]:
    """P{S = s} for a sum S of n +/-1 coin flips, and the support s.

    Only the Hoeffding window |s| <= t, t = sqrt(2 n ln(2 / TAIL_EPS)), is
    kept (``_row_edge``): P{|S| > t} <= 2 exp(-t^2 / 2n) = TAIL_EPS, so the
    row leaves out at most TAIL_EPS of its mass (none for n <= 90, where
    t > n).  Each kept weight is the correctly rounded double of the exact
    rational C(n,k)/2^n: the coefficients come from the exact integer
    recurrence C(n,k+1) = C(n,k)(n-k)/(k+1), started at C(n,k0) for the
    first kept k0, and int true division rounds correctly.  No kept weight
    underflows: it is at least 2^-90 in a whole row, and about
    2^-65 / sqrt(n) at the edge of a cut one.
    """
    edge = _row_edge(n)
    k0 = (n - edge) // 2
    denom = 1 << n
    row = np.empty(edge + 1)
    c = math.comb(n, k0)
    for k in range(k0, n // 2 + 1):
        row[k - k0] = row[n - k - k0] = c / denom
        c = c * (n - k) // (k + 1)
    return row, np.arange(-edge, edge + 1, 2, dtype=np.int64)


def _zn_scale(base: DiscreteDist, n: int) -> float:
    """1 / (sigma sqrt(n)), the factor from the raw sum to Z_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mom = moments(base)
    if mom.sigma2 <= 0:
        raise ValueError("base distribution is degenerate")
    return 1.0 / (math.sqrt(mom.sigma2) * math.sqrt(n))


def zn_slabs(base: DiscreteDist, n: int):
    """Z_n as slabs for ``kolmogorov_distance``: a LatticeZn, which never
    holds Z_n whole, for bases built by bernoulli_base, and the one-slab
    DiscreteDist of ``zn_dist`` for every other base.

    The lattice's n-row (``_binom_row``) holds 2^n and C(n, k0) as exact
    integers, n / 8 B each.  They are charged first, in integers, so that
    an n past the budget is refused before anything takes its float,
    which overflows for n >= 2^1024."""
    if base.spec is None:
        return zn_dist(base, n)
    _over_budget(f"Z_n for n = {n}: the binomial n-row's integers 2^n and "
                 "C(n, k0) would", 2 * -(-n // 8))
    return LatticeZn(base.spec, n, _zn_scale(base, n))


def zn_dist(base: DiscreteDist, n: int) -> DiscreteDist:
    """Distribution of Z_n = (X_1 + ... + X_n) / (sigma sqrt(n)).

    Bases built by bernoulli_base go through the lattice builder;
    everything else goes through iterated convolution by binary powering.
    """
    scale = _zn_scale(base, n)
    if base.spec is not None:
        return LatticeZn(base.spec, n, scale).whole()

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


class LatticeZn:
    """Z_n of Bernoulli steps, with positions multiplied by ``scale``, as
    merged slabs of atoms in increasing position order (``slabs``).

    The weights live on the integer coordinates (c_0, ..., c_m) of the raw
    sum against (1, alpha_1, ..., alpha_m).  A product's grid is the outer
    product of m + 1 binomial n-rows, each over ``support``, the n-row's
    window in steps of 2.  A mixture's is the sum, over the component
    counts (k_0, ..., k_m) adding up to n, of their multinomial
    probability times the outer product of the k_j-rows; its ``support``
    is the widest window of the k-rows, k <= n, in steps of 1 (a k-row
    for k < n can reach one cell past the n-row's window).  Rational
    alphas fold into the unit coordinate over their common denominator q:
    the lattice coordinates are the raw ones times the integer matrix
    ``fold``, the other coordinates are multiplied by q and the scale is
    divided by it.  Atoms with equal lattice coordinates merge exactly.
    Every atom's position is (coords @ (1, alphas)) * scale, the same
    operations on every path.

    Each binomial row is cut to its Hoeffding window (``_binom_row``) and
    leaves out at most TAIL_EPS of its mass.  A product grid is the outer
    product of m + 1 rows, so by the union bound it leaves out at most
    (m + 1) * TAIL_EPS; a mixture averages such products, so the same
    bound holds for it.  That bound is ``tail_mass``; it is 0.0 when the
    n-row, and so every shorter row, is whole.
    """

    #: a lower bound on the weight of the heaviest atom, set by ``slabs``
    #: before its first slab: the weight of the cell at the peak of every
    #: row for a product, the largest cell of the weight grid for a mixture
    heaviest: float = 0.0

    def __init__(self, spec: CharSpec, n: int, scale: float):
        self.spec, self.n = spec, n
        m = len(spec.alphas)
        if spec.weights is None:
            e, gap = _row_edge(n), 2
        else:
            # the widest k-row window, k <= n: the n-row's or the (n-1)-row's
            e, gap = max(_row_edge(n - 1), _row_edge(n)), 1
        self.support = np.arange(-e, e + 1, gap, dtype=np.int64)
        self.tail_mass = (m + 1) * TAIL_EPS if self.support[0] > -n else 0.0
        fracs = [a.exact_fraction() if a.is_rational else None
                 for a in spec.alphas]
        q = math.lcm(*(f.denominator for f in fracs if f is not None))
        unit = [q] + [0 if f is None else int(q * f) for f in fracs]
        if n * sum(map(abs, unit)) >= 1 << 62:
            raise SupportOverflow(
                f"rational steps over denominator {q} overflow the lattice")
        own = [j for j, f in enumerate(fracs, start=1) if f is None]
        self.fold = np.zeros((m + 1, len(own) + 1), dtype=np.int64)
        self.fold[:, 0] = unit
        for k, j in enumerate(own, start=1):
            self.fold[j, k] = q
        self.vals = np.array([1.0] + [spec.alphas[j - 1].to_float()
                                      for j in own])
        self.scale = scale / q

    def whole(self) -> DiscreteDist:
        """Z_n as one DiscreteDist: the slabs concatenated."""
        atoms = self.support.size ** (len(self.spec.alphas) + 1)
        self._budget("atoms", atoms, atoms * _atom_bytes(self.fold.shape[1]))
        x, w, _ = zip(*self.slabs())
        dist = DiscreteDist(np.concatenate(x), np.concatenate(w))
        dist.tail_mass = self.tail_mass
        return dist

    def slabs(self):
        """Yield Z_n as (positions, weights, lattice coordinates) slabs,
        each merged, in increasing position order, without sorting atoms.

        The walk streams the raw coordinate c_s whose coefficient
        fold[s] @ (1, alphas) is largest in size; the L^m tuples of the
        other raw coordinates (L = ``support.size``) each hold their
        lattice coordinates at c_s = 0.  A product's c_s steps by gap 2
        over the n-row's window, and the weight at (tuple, c_s) is the
        product of the rows in raw coordinate order; a mixture's c_s steps
        by gap 1 over ±E, and the weight is the cell of its weight grid.
        Taken in the direction of increasing position, the atoms of one
        tuple lie on a progression of pitch p = gap |fold[s] @ (1, alphas)|,
        the structure behind the three-distance theorem.  Write a tuple's
        offset in units of p as q + phi, with q an integer bucket and phi
        in [0, 1): its j-th atom then lies in bucket q + j.  For a rational
        stream, q and phi come from an exact integer divmod of the unit
        coordinate by p, so tuples whose atoms coincide get bit-equal
        phases.  The tuples are sorted once, by (phi, coordinates before s,
        c_s, coordinates after s).  Walking the buckets upward and, inside
        each, the tuples in that order visits every atom in position order,
        and coinciding atoms in the grid's C order, so each merge adds
        their weights as a stable sort of the whole grid would.  A slab is
        a run of whole buckets of about ``SLAB_BYTES`` of working memory,
        at least one bucket.  Cells of weight 0.0 (unreachable or
        underflowed) are dropped.  A computed position that decreases along
        the walk is two distinct atoms within rounding of each other (with
        the unit coordinate alone the walk is exact), a negative gap that
        the merge's near-collision test refuses, as sorting would.  That
        test uses max |position| over the grid, taken at its corners, and
        also compares the atoms on either side of each slab edge.
        """
        support, width = self.support, self.fold.shape[1]
        m, size, e = len(self.spec.alphas), support.size, int(support[-1])
        tuples = size ** m
        product = self.spec.weights is None
        # the charge, as tracemalloc measures it where every cell is an
        # atom: the tuple arrays while they are built and sorted, 24w + 96
        # B a tuple, and one slab, 32w + 96 B a (bucket, tuple) cell.  A
        # slab holds about SLAB_BYTES of cells, but at least one bucket and
        # at most every bucket the walk can span: m (L - 1) + 1 tuple
        # offsets plus L atoms.  A mixture adds its weight grid at 8 B a
        # cell, its k-rows at 8 B an entry and 128 B a row, and its largest
        # composition block: a k-row has at most g(k) = min(k, t(k)) + 1
        # entries (t of ``_row_edge``), concave in k, so g(n / (m + 1))^(m + 1)
        # cells bound a block.  t(k) = sqrt(2 k ln(2 / TAIL_EPS)) grows with
        # k, so the integral of t up to n + 1 bounds the entries of the
        # k-rows, k <= n, with no loop over k
        cell_bytes = 32 * width + 96
        per = min(max(1, round(SLAB_BYTES / cell_bytes / tuples)),
                  (m + 1) * size)
        need = tuples * (24 * width + 96 + per * cell_bytes)
        if not product:
            share = self.n / (m + 1)
            ln = math.log(2 / TAIL_EPS)
            g = min(share, math.sqrt(2 * share * ln)) + 1
            entries = 2 / 3 * math.sqrt(2 * ln) * (self.n + 1) ** 1.5
            need += (8 * size ** (m + 1)
                     + math.ceil(8 * (g ** (m + 1) + entries))
                     + 128 * (self.n + 1))
        self._budget("tuples", tuples, need)
        if product:
            row, gap = _binom_row(self.n)[0], 2
            # the walk multiplies a cell's m + 1 row factors left to right
            self.heaviest = math.prod([float(row.max())] * (m + 1))
        else:
            # mixture weights over a common denominator: normalized
            # exactly, although the floats p_j need not add up to exactly 1
            common = math.lcm(*(Fraction(p).denominator
                                for p in self.spec.weights))
            ints = [int(Fraction(p) * common) for p in self.spec.weights]
            total = sum(ints) ** self.n
            rows = [_binom_row(k)[0] for k in range(self.n + 1)]
            grid, gap = np.zeros((size,) * (m + 1)), 1
            for counts, weight in _multinomials(self.n, ints):
                block = weight / total
                cells = []
                for k in counts:
                    block = np.multiply.outer(block, rows[k])
                    edge = rows[k].size - 1
                    cells.append(slice(e - edge, e + edge + 1, 2))
                grid[tuple(cells)] += block
            grid = grid.ravel()
            self.heaviest = float(grid.max())
            # the walk needs the grid alone
            del rows, block
        coef = self.fold @ self.vals
        s = int(np.argmax(np.abs(coef)))
        up = coef[s] > 0
        # the one lattice coordinate that c_s moves: 0 for a rational step
        ks = int(np.flatnonzero(self.fold[s])[0])
        # the tuples in C order over the raw coordinates other than c_s;
        # a product's row factors before c_s are multiplied out, those
        # after it stay apart, and a mixture keeps its grid index
        at = np.arange(tuples)
        base = np.zeros((tuples, width), dtype=np.int64)
        pre, post, cell = np.ones(tuples), [], np.zeros(tuples, dtype=np.int64)
        for p, k in enumerate(k for k in range(m + 1) if k != s):
            i = at // size ** (m - 1 - p) % size
            base += support[i][:, None] * self.fold[k]
            if not product:
                cell += i * size ** (m - k)
            elif k < s:
                pre = pre * row[i]
            else:
                post.append(row[i])
        # each tuple's offset q0 + u in units of the pitch; a rational
        # stream takes q0 and the unit coordinate's share of u exactly
        if ks:
            q0, rem = 0, base[:, 0]
        else:
            q0, rem = np.divmod(base[:, 0], gap * abs(int(self.fold[s, 0])))
        u = (rem + base[:, 1:] @ self.vals[1:]) / (gap * abs(coef[s]))
        floor = np.floor(u)
        q = q0 + floor.astype(np.int64)
        # by phase, coordinates before c_s, c_s (j = bucket - q), and by
        # the stable sort, coordinates after c_s
        order = np.lexsort((-q if up else q, at // size ** (m - s),
                            u - floor))
        q, base = q[order], np.take(base, order, axis=0)
        pre, cell, post = pre[order], cell[order], [f[order] for f in post]
        del at, q0, rem, u, floor, order
        stride = size ** (m - s)
        corners = np.array(list(itertools.product((-e, e), repeat=m + 1)))
        spread = max(1.0, float(np.max(np.abs(
            ((corners @ self.fold) @ self.vals) * self.scale))))
        last, visited = -np.inf, 0
        first, stop = int(q.min()), int(q.max()) + size
        for b in range(first, stop, per):
            j = np.subtract.outer(np.arange(b, min(b + per, stop)), q).ravel()
            t = np.flatnonzero((j >= 0) & (j < size))
            visited += t.size
            j = np.take(j, t)
            t %= tuples
            if not up:
                j = size - 1 - j
            w = np.take(pre, t) * np.take(row, j) if product \
                else np.take(grid, np.take(cell, t) + j * stride)
            for f in post:
                w *= np.take(f, t)
            keep = np.flatnonzero(w > 0.0)
            if keep.size < w.size:
                t, j, w = t[keep], j[keep], w[keep]
            if w.size == 0:
                continue
            # np.take: fancy indexing of 2-d rows is several times slower
            coords = np.take(base, t, axis=0)
            coords[:, ks] += np.take(support, j) * self.fold[s, ks]
            # BLAS takes one row through ddot, which rounds differently
            # from the gemv that every longer slab goes through
            x = (coords @ self.vals if t.size > 1
                 else (np.repeat(coords, 2, axis=0) @ self.vals)[:1]) \
                * self.scale
            try:
                x, w, coords = _merge_atoms(x, w, coords, spread)
            except PrecisionExhausted:
                raise self._collision() from None
            if width > 1 and x[0] - last <= _MERGE_TOL * spread:
                raise self._collision()
            last = x[-1]
            yield x, w, coords
        if visited != tuples * size:
            raise RuntimeError(f"the walk visited {visited} of "
                               f"{tuples * size} cells")

    def _collision(self) -> PrecisionExhausted:
        steps = ", ".join(["1"] + [a.text for a in self.spec.alphas])
        # bernoulli_base builds the step distribution itself as Z_1
        where = (f"steps {steps} already collide within one step"
                 if self.n == 1
                 else f"Z_n for n = {self.n} with steps {steps}")
        return PrecisionExhausted(
            f"{where}: two atoms with "
            "different lattice coordinates fall within double rounding of "
            "each other; the steps may be rationally dependent (not reduced "
            "yet) or too close to order in doubles")

    def _budget(self, what: str, count: int, need: int) -> None:
        _over_budget(f"Z_n for n = {self.n}, m = {len(self.spec.alphas)}: "
                     f"row window {self.support.size}, {count} {what} would",
                     need)


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
    beta4: float    # E X^4


def moments(d: DiscreteDist) -> Moments:
    x, w = d.positions, d.weights
    mean = math.fsum(w * x)
    return Moments(mean, math.fsum(w * (x - mean) ** 2),
                   math.fsum(w * x ** 3), math.fsum(w * x ** 4))


# ---------------------------------------------------------------------------
# Kolmogorov distance


class KolmogorovResult(NamedTuple):
    delta: float
    argmax: float
    side: str  # "left" or "right"
    error_bound: float = 0.0  # |delta - exact Delta_n| <= this


def kolmogorov_distance(z, G) -> KolmogorovResult:
    """sup_x |F(x) - G(x)| for the step CDF F of z and a continuous G.

    ``z`` is a DiscreteDist, which is one slab, or a LatticeZn (see
    ``zn_slabs``): its ``slabs()`` yield sorted, merged (positions,
    weights, ...) in increasing position order.  The sup is attained
    either one-sided at an atom or at a stationary point of G inside a gap
    of the support (G's monotone tails cannot beat the boundary atoms,
    which are included two-sided).  From slab to slab the scan carries the
    float128 running sum of the weights, so F at every atom is the float64
    of one cumulative sum however Z_n is cut; the first atom that attains
    each one-sided maximum; and F at G's stationary points.  At the end
    the weights must add up to 1 within 2^-45.

    ``error_bound`` is tau = ``z.tail_mass``, a bound on the mass the
    lattice builder left out.  Let F* be the CDF of the untruncated Z_n.
    F*(x) - F(x) is the omitted mass at or below x, so
    0 <= F*(x) - F(x) <= tau for every x, and likewise for the left limits
    F*(x-) - F(x-).  Hence |F*(x) - G(x)| and |F(x) - G(x)| differ by at
    most tau at every x, and so do their sups: the reported delta is
    within tau of the exact Delta_n = sup_x |F*(x) - G(x)|.

    G is evaluated only at the atoms whose deviation could reach the sup,
    when it has ``enclose(x)``, which gives (lo, hi) with
    lo <= G(x) <= hi.  Let F_k = F(x_k) and F'_k = F(x_k-) <= F_k as
    computed.  Both computed deviations |F_k - G| and |F'_k - G| are at
    most b_k = max(F_k - lo, hi - F'_k) as computed, since rounding is
    monotone.  At the heaviest atom F jumps by its weight and G is
    continuous, so one of its two deviations is at least half the weight:
    the largest deviation at an atom, D, is at least the floor, half of
    ``z.heaviest`` (a lower bound on that weight) shaved for the rounding
    of F.  So the threshold max(running maximum, floor) never exceeds D.
    An atom with b_k below it has both deviations below D, so it can
    neither attain D nor come first among the atoms that do; skipping it
    leaves (delta, argmax, side) as they are.  A G without ``enclose`` is
    evaluated at every atom.
    """
    stationary = list(G.stationary_points())
    enclose = G.enclose if hasattr(G, "enclose") else None
    f_at = np.zeros(len(stationary))
    right = left = (-np.inf, 0.0)
    carry = mass = np.float128(0.0)
    for x, w, *_ in z.slabs():
        # pairwise: the running sum absorbs weights below half its ulp
        mass += np.sum(w, dtype=np.float128)
        run = np.empty(x.size + 1, dtype=np.float128)
        run[0] = carry
        run[1:] = w
        np.cumsum(run, out=run)
        carry = run[-1]
        cum = run.astype(np.float64)  # cum[0] is F just left of x[0]
        if stationary:
            i = np.searchsorted(x, stationary, side="right")
            f_at = np.where(i > 0, cum[i], f_at)
        at, before = cum[1:], cum[:-1]  # F(x_k) and F(x_k-)
        if enclose is not None:
            lo, hi = enclose(x)
            # a LatticeZn knows its heaviest atom once its first slab is out
            floor = z.heaviest / 2 * (1 - 2.0 ** -40) - 2.0 ** -50
            # b_k, in place: a slab may hold millions of atoms
            bound = np.maximum(np.subtract(at, lo, out=lo),
                               np.subtract(hi, before, out=hi), out=lo)
            keep = np.flatnonzero(bound >= max(right[0], left[0], floor))
            if keep.size == 0:
                continue
            x, at, before = x[keep], at[keep], before[keep]
        gx = np.asarray(G(x), dtype=np.float64)
        right = _first_max(np.abs(at - gx), x, right)
        left = _first_max(np.abs(before - gx), x, left)
    total = float(mass)
    if abs(total - 1.0) > _MASS_TOL:
        raise ValueError(f"weights sum to {total}, not 1")
    best = KolmogorovResult(*right, "right")
    if left[0] > best.delta:
        best = KolmogorovResult(*left, "left")
    for s, f in zip(stationary, f_at.tolist()):
        v = abs(f - float(G(s)))
        if v > best.delta:
            best = KolmogorovResult(v, float(s), "right")
    return best._replace(error_bound=z.tail_mass)


def _first_max(dev: np.ndarray, x: np.ndarray, best: tuple) -> tuple:
    """(value, position) of the first maximum of ``dev`` if it beats
    ``best``, else ``best``."""
    i = int(np.argmax(dev))
    return (float(dev[i]), float(x[i])) if dev[i] > best[0] else best
