import gc
import math
import re
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from cltdioph import distkit as K
from cltdioph.charfn import CharSpec
from cltdioph.dioph import AlphaSpec
from cltdioph.edgeworth import EdgeworthComparison, EdgeworthParams, \
    comparison_for
from cltdioph.errors import PrecisionExhausted, SupportOverflow

SQRT2 = AlphaSpec.surd(0, 1, 1, 2)


class PhiFn:
    """Standard normal CDF as a comparison function (test double)."""

    def __call__(self, x):
        return ndtr(x)

    def stationary_points(self):
        return []


def grid_oracle(d, G, lo=-12.0, hi=12.0, points=10 ** 6):
    """Brute-force sup |F - G| over a dense grid plus all atoms two-sided."""
    xs = np.linspace(lo, hi, points)
    cum = np.cumsum(d.weights)
    idx = np.searchsorted(d.positions, xs, side="right")
    f_grid = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
    best = np.max(np.abs(f_grid - G(xs)))
    gx = G(d.positions)
    best = max(best, np.max(np.abs(cum - gx)))
    left = np.concatenate(([0.0], cum[:-1]))
    best = max(best, np.max(np.abs(left - gx)))
    return float(best)


def lattice_weights(z):
    """{lattice coordinate tuple: weight} over the slabs of a LatticeZn."""
    return {tuple(map(int, row)): w for _, weights, coords in z.slabs()
            for row, w in zip(coords, weights)}


class TestConstructors:
    def test_bernoulli(self):
        b = K.bernoulli_pm(1)
        assert list(b.positions) == [-1.0, 1.0]
        assert list(b.weights) == [0.5, 0.5]

    def test_bernoulli_sqrt2(self):
        b = K.bernoulli_pm(SQRT2)
        assert abs(b.positions[1] - math.sqrt(2)) < 1e-15

    def test_bernoulli_canonical_sign(self):
        assert list(K.bernoulli_pm(-1).positions) == [-1.0, 1.0]

    def test_bernoulli_degenerate(self):
        with pytest.raises(ValueError):
            K.bernoulli_pm(0)

    @pytest.mark.parametrize("positions, weights", [
        ([0.0, 1.0], [0.5, math.nan]),
        ([0.0, math.nan], [0.5, 0.5]),
        ([0.0, math.inf], [0.5, 0.5]),
        # an exact zero must not hide a negative weight
        ([0.0, 1.0, 2.0], [0.0, 1.0 + 1e-14, -1e-14]),
        ([0.0, 1.0], [1.5, -0.5]),
    ])
    def test_rejects_bad_atoms(self, positions, weights):
        with pytest.raises(ValueError, match="finite .* nonnegative"):
            K.DiscreteDist(np.array(positions), np.array(weights))

    def test_drops_exact_zero_weights(self):
        d = K.DiscreteDist(np.array([0.0, 1.0, 2.0]),
                           np.array([0.5, 0.0, 0.5]))
        assert d.positions.tolist() == [0.0, 2.0]

    def test_merges_equal_positions_only(self):
        d = K.DiscreteDist(np.array([1.0, 1e-13, 0.0, 0.0]),
                           np.array([0.25, 0.25, 0.125, 0.375]))
        assert d.positions.tolist() == [0.0, 1e-13, 1.0]
        assert d.weights.tolist() == [0.5, 0.25, 0.25]

    def test_close_lattice_atoms_stay_apart(self):
        # -1 - 1/q and -1 + 1/q lie 1e-12 apart, inside convolve's merge
        # tolerance, but are distinct lattice atoms
        base = K.bernoulli_base(CharSpec.parse("prod:rat:1/2000000000003"))
        assert len(base) == 4
        m = K.moments(base)
        assert m.mean == 0.0 and m.alpha3 == 0.0


class TestConvolve:
    def test_binomial(self):
        c = K.convolve(K.bernoulli_pm(1), K.bernoulli_pm(1))
        assert np.allclose(c.positions, [-2, 0, 2])
        assert np.allclose(c.weights, [0.25, 0.5, 0.25])

    def test_no_collision_irrational(self):
        c = K.convolve(K.bernoulli_pm(1), K.bernoulli_pm(SQRT2))
        assert len(c) == 4 and np.allclose(c.weights, 0.25)

    def test_delta_identity(self):
        d = K.product_bernoulli([SQRT2])
        c = K.convolve(K.DiscreteDist(np.array([0.0]), np.array([1.0])), d)
        assert np.allclose(c.positions, d.positions)
        assert np.allclose(c.weights, d.weights)

    def test_overflow_guard(self, monkeypatch):
        d = K.zn_dist(K.product_bernoulli([SQRT2]), 8)
        # room for 100 atoms with two lattice coordinates, far below the
        # 81^2 atoms of the convolution
        monkeypatch.setattr(K, "MEMORY_BUDGET", 100 * K._atom_bytes(2))
        with pytest.raises(SupportOverflow):
            K.convolve(d, d)

    @pytest.mark.parametrize("gap, atoms", [(1e-13, [0.0]),
                                            (1e-11, [0.0, 1e-11])])
    def test_merges_within_tolerance(self, gap, atoms):
        # _MERGE_TOL = 1e-12 of max(1, the largest |position|)
        d = K.DiscreteDist(np.array([0.0, gap]), np.array([0.5, 0.5]))
        c = K.convolve(d, K.DiscreteDist(np.array([0.0]), np.array([1.0])))
        assert c.positions.tolist() == atoms
        assert np.sum(c.weights) == 1.0

    def test_lattice_merge_exact(self):
        base = K.product_bernoulli([SQRT2])
        c = K.convolve(base, base)
        # atoms at i + j sqrt 2 with i, j in {-2, 0, 2}: 9 atoms
        assert len(c) == 9
        assert abs(float(np.sum(c.weights)) - 1.0) < 2 ** -45


class TestZnDist:
    @pytest.mark.parametrize("ints", [(7,), (3, 7), (2, 3, 5),
                                      (5404319552844595, 12609, 1, 98)])
    def test_running_multinomials(self, ints):
        for n in (0, 1, 2, 9, 40):
            got = list(K._multinomials(n, ints))
            assert [c for c, _ in got] == list(K._compositions(n, len(ints)))
            for counts, value in got:
                want, total = 1, 0
                for k, w in zip(counts, ints):
                    total += k
                    want *= math.comb(total, k) * w ** k
                assert value == want

    def test_n1(self):
        z = K.zn_dist(K.bernoulli_pm(1), 1)
        assert np.allclose(z.positions, [-1, 1])

    def test_binomial_n4(self):
        z = K.zn_dist(K.bernoulli_pm(1), 4)
        assert np.allclose(z.positions, [-2, -1, 0, 1, 2])
        assert np.allclose(z.weights * 16, [1, 4, 6, 4, 1])

    def test_product_n2_atom_at_zero(self):
        z = K.zn_dist(K.product_bernoulli([SQRT2]), 2)
        assert len(z) == 9
        w0 = z.weights[np.argmin(np.abs(z.positions))]
        assert abs(w0 - 0.25) < 1e-15  # C(2,1)^2 / 16

    def test_fast_path_equals_iterated_convolution(self):
        base = K.product_bernoulli([SQRT2])
        sigma = math.sqrt(K.moments(base).sigma2)
        for n in range(2, 11):
            fast = K.zn_dist(base, n)
            slow = base
            for _ in range(n - 1):
                slow = K.convolve(slow, base)
            scale = 1.0 / (sigma * math.sqrt(n))
            assert len(fast) == len(slow)
            assert np.max(np.abs(fast.positions - slow.positions * scale)) < 1e-11
            assert np.max(np.abs(fast.weights - slow.weights)) < 1e-12

    def test_exact_oracle_n8(self):
        # product-of-binomials weights against the big-rational oracle
        base = K.product_bernoulli([SQRT2])
        exact = K.zn_dist_exact([SQRT2], 8)
        lookup = lattice_weights(K.zn_slabs(base, 8))
        assert set(lookup) == set(exact)
        for key, frac in exact.items():
            assert abs(lookup[key] - float(frac)) < 1e-15

    def test_mass_conservation_large_n(self):
        z = K.zn_dist(K.product_bernoulli([SQRT2]), 512)
        assert abs(float(np.sum(z.weights, dtype=np.float128)) - 1.0) < 2 ** -45

    def test_variance_one(self):
        for base in (K.bernoulli_pm(1), K.product_bernoulli([SQRT2]),
                     K.mixture_bernoulli([0.5, 0.5], [SQRT2])):
            for n in (1, 4, 16):
                assert abs(K.moments(K.zn_dist(base, n)).sigma2 - 1.0) < 1e-10

    def test_symmetry(self):
        z = K.zn_dist(K.product_bernoulli([SQRT2]), 8)
        assert np.max(np.abs(z.positions + z.positions[::-1])) < 1e-12
        assert np.max(np.abs(z.weights - z.weights[::-1])) < 1e-15
        assert abs(K.moments(z).alpha3) < 1e-12

    def test_overflow(self, monkeypatch):
        monkeypatch.setattr(K, "MEMORY_BUDGET", 1000 * K._atom_bytes(2))
        with pytest.raises(SupportOverflow, match=r"n = 100\b"):
            K.zn_dist(K.product_bernoulli([SQRT2]), 100)

    @pytest.mark.parametrize("n", [1, 60, 1100, 4096])
    def test_binomial_rows_correctly_rounded(self, n):
        # rows are cut to their Hoeffding window on purpose (n = 1100 and
        # 4096): every kept entry is the correctly rounded C(n,k)/2^n, and
        # what is left out weighs at most TAIL_EPS
        row, support = K._binom_row(n)
        ks = (support + n) // 2
        assert np.array_equal(support, -support[::-1])
        assert np.all(np.diff(support) == 2)
        want = [float(Fraction(math.comb(n, k), 2 ** n)) for k in ks]
        assert row.tolist() == want
        assert np.all(row > 0.0)
        kept = sum(math.comb(n, k) for k in ks)
        assert Fraction(2 ** n - kept, 2 ** n) <= K.TAIL_EPS

    def test_window_within_error_bound(self):
        # n = 256 cuts the rows; the reference is the whole product built
        # from full math.comb rows
        n = 256
        base = K.product_bernoulli([SQRT2])
        z = K.zn_dist(base, n)
        assert len(z) < (n + 1) ** 2
        assert 0.0 < z.tail_mass == 2 * K.TAIL_EPS
        i = np.arange(-n, n + 1, 2)
        full = np.array([float(Fraction(math.comb(n, k), 2 ** n))
                         for k in range(n + 1)])
        coords = np.stack(np.meshgrid(i, i, indexing="ij"), axis=-1)
        coords = coords.reshape(-1, 2)
        ref = K.DiscreteDist(
            coords @ np.array([1.0, math.sqrt(2)]) * K.zn_slabs(base, n).scale,
            np.multiply.outer(full, full).ravel())
        assert ref.tail_mass == 0.0
        res = K.kolmogorov_distance(z, PhiFn())
        exact = K.kolmogorov_distance(ref, PhiFn())
        assert res.error_bound == z.tail_mass
        assert exact.error_bound == 0.0
        assert abs(res.delta - exact.delta) <= res.error_bound

    def test_error_bound_zero_without_cut(self):
        # rows are whole up to n = 90; convolution-built bases are never cut
        for base in (K.product_bernoulli([SQRT2]),
                     K.mixture_bernoulli([0.5, 0.5], [SQRT2])):
            assert K.zn_dist(base, 64).tail_mass == 0.0
        plain = K.zn_dist(K.bernoulli_pm(SQRT2), 256)
        assert K.kolmogorov_distance(plain, PhiFn()).error_bound == 0.0
        mixed = K.zn_dist(K.mixture_bernoulli([0.5, 0.5], [SQRT2]), 256)
        assert mixed.tail_mass == 2 * K.TAIL_EPS

    def test_tail_mass_carried_through_convolution(self):
        # the union bound: a convolution omits at most the sum of what its
        # inputs omit
        base = K.product_bernoulli([SQRT2])
        z = K.zn_dist(base, 256)
        assert z.tail_mass == 2 * K.TAIL_EPS
        conv = K.convolve(z, base)
        assert conv.tail_mass == 2 * K.TAIL_EPS
        assert K.kolmogorov_distance(conv, PhiFn()).error_bound \
            == 2 * K.TAIL_EPS

    def test_tail_mass_carried_through_powering(self):
        d = K.bernoulli_pm(1)
        d.tail_mass = K.TAIL_EPS
        assert K.zn_dist(d, 5).tail_mass == 5 * K.TAIL_EPS

    @pytest.mark.parametrize("weights", [[1.0], [0.5, 0.25, 0.25],
                                         [1.0, 0.0], [1.5, -0.5],
                                         [0.5, 0.4], [math.nan, 0.5],
                                         [0.5, math.nan]])
    def test_mixture_rejects_bad_weights(self, weights):
        # wrong length, non-positive, not normalized, not a number
        with pytest.raises(ValueError, match="weights"):
            K.mixture_bernoulli(weights, [SQRT2])

    def test_mixture_weights_against_fraction_convolution(self):
        # the doubles 0.3 and 0.7 add up to 1 - 2^-54 exactly; the mixture
        # is their normalization
        p, n = (0.3, 0.7), 24
        p0, p1 = (Fraction(x) / (Fraction(p[0]) + Fraction(p[1])) for x in p)
        step = {(-1, 0): p0 / 2, (1, 0): p0 / 2, (0, -1): p1 / 2, (0, 1): p1 / 2}
        exact = {(0, 0): Fraction(1)}
        for _ in range(n):
            nxt: dict = {}
            for (a, b), w in exact.items():
                for (da, db), v in step.items():
                    key = (a + da, b + db)
                    nxt[key] = nxt.get(key, 0) + w * v
            exact = nxt
        got = lattice_weights(K.zn_slabs(K.mixture_bernoulli(p, [SQRT2]), n))
        assert set(got) == set(exact)
        err = max(abs(Fraction(got[key]) - w) / w for key, w in exact.items())
        assert err <= 1e-15

    @pytest.mark.parametrize("alpha, atoms", [("rat:1/3", [-4, -2, 2, 4]),
                                              ("rat:1/1", [-6, 0, 0, 6])])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_rational_step_matches_untagged_pipeline(self, alpha, atoms, n):
        # rational steps fold into the unit coordinate; the reference is the
        # tolerance-merging convolution of the same atoms without a tag
        z = K.zn_dist(K.product_bernoulli([AlphaSpec.parse(alpha)]), n)
        plain = K.DiscreteDist(np.array(atoms) / 3, np.full(4, 0.25))
        ref = K.zn_dist(plain, n)
        assert len(z) == len(ref)
        assert np.max(np.abs(z.positions - ref.positions)) < 1e-12
        assert np.max(np.abs(z.weights - ref.weights) / ref.weights) < 1e-12
        assert abs(K.kolmogorov_distance(z, PhiFn()).delta
                   - K.kolmogorov_distance(ref, PhiFn()).delta) < 1e-12

    def test_hand_built_sign_vector_base(self):
        # sign-vector atoms with unequal weights are not B_1 * B_sqrt2: a
        # base built by hand goes through convolution
        signs = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])
        base = K.DiscreteDist(signs @ np.array([1.0, math.sqrt(2)]),
                              np.array([0.1, 0.2, 0.3, 0.4]))
        assert base.spec is None
        z3 = K.zn_dist(base, 3)
        raw = K.convolve(base, K.convolve(base, base))
        scale = K._zn_scale(base, 3)
        assert np.array_equal(z3.positions, raw.positions * scale)
        assert np.array_equal(z3.weights, raw.weights)
        z1 = K.zn_dist(base, 1)
        assert K.kolmogorov_distance(z1, PhiFn()).delta \
            == pytest.approx(0.335, abs=1e-3)
        assert K.moments(z1).mean == pytest.approx(0.429, abs=1e-3)


class TestMoments:
    def test_b1(self):
        m = K.moments(K.bernoulli_pm(1))
        assert (m.sigma2, m.alpha3, m.beta4) == (1, 0, 1)

    def test_product_formula(self):
        # sigma^2 = 1 + a^2, beta4 = 1 + 6a^2 + a^4
        for a in (math.sqrt(2), 0.3, 2.5):
            m = K.moments(K.convolve(K.bernoulli_pm(1), K.bernoulli_pm(a)))
            assert abs(m.sigma2 - (1 + a * a)) < 1e-12
            assert abs(m.alpha3) < 1e-12
            assert abs(m.beta4 - (1 + 6 * a * a + a ** 4)) < 1e-10

    def test_asymmetric_hand_computed(self):
        d = K.DiscreteDist(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3]))
        m = K.moments(d)
        assert abs(m.mean) < 1e-15
        assert abs(m.sigma2 - 2.0) < 1e-15
        assert abs(m.alpha3 - 2.0) < 1e-15


class TestKolmogorovDistance:
    def test_closed_form_b1(self):
        res = K.kolmogorov_distance(K.bernoulli_pm(1), PhiFn())
        assert abs(res.delta - (0.5 - ndtr(-1.0))) < 1e-15
        assert res.argmax == -1.0 and res.side == "right"

    def test_midpoint_interpolant_attains_half_jump(self):
        # continuous G through the jump midpoints: sup |F - G| = max jump / 2
        d = K.bernoulli_pm(1)

        class Midpoints:
            def __call__(self, x):
                x = np.asarray(x, dtype=float)
                return np.interp(x, [-1.0, 1.0], [0.25, 0.75])

            def stationary_points(self):
                return []

        res = K.kolmogorov_distance(d, Midpoints())
        assert abs(res.delta - 0.25) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_grid_oracle_product(self, n):
        d = K.zn_dist(K.product_bernoulli([SQRT2]), n)
        res = K.kolmogorov_distance(d, PhiFn())
        assert abs(res.delta - grid_oracle(d, PhiFn())) < 1e-12

    def test_grid_oracle_mixture(self):
        d = K.zn_dist(K.mixture_bernoulli([0.5, 0.5], [SQRT2]), 8)
        res = K.kolmogorov_distance(d, PhiFn())
        assert abs(res.delta - grid_oracle(d, PhiFn())) < 1e-12


def test_exact_rational_mode_mass():
    exact = K.zn_dist_exact([SQRT2], 12)
    assert sum(exact.values()) == Fraction(1)


def dense_mixture(spec, n):
    """A mixture's weight grid on every raw coordinate tuple in
    [-n, n]^(m + 1), as a dense-grid engine builds it: the sum, over the
    component counts (k_0, ..., k_m) in composition order, of their
    multinomial probability times the outer product of the k_j-rows, with
    the mixture weights normalized over a common denominator.  Returns the
    grid and the support of each raw coordinate."""
    common = math.lcm(*(Fraction(p).denominator for p in spec.weights))
    ints = [int(Fraction(p) * common) for p in spec.weights]
    total = sum(ints) ** n
    grid = np.zeros((2 * n + 1,) * len(ints))
    rows = [K._binom_row(k) for k in range(n + 1)]
    for counts, weight in K._multinomials(n, ints):
        block = weight / total
        cells = []
        for k in counts:
            row, at = rows[k]
            block = np.multiply.outer(block, row)
            cells.append(slice(at[0] + n, at[-1] + n + 1, 2))
        grid[tuple(cells)] += block
    return grid, np.arange(-n, n + 1)


def grid_atoms(spec, n):
    """Every cell of Z_n's whole grid, unsorted: positions, weights and
    lattice coordinates.  A product's grid is the outer product of the binomial
    rows in C order, a mixture's is ``dense_mixture``; rational steps fold
    into the unit coordinate over their common denominator q, and the
    positions are (coords @ (1, alphas)) * scale."""
    if spec.weights is None:
        row, support = K._binom_row(n)
        grid = row
        for _ in spec.alphas:
            grid = np.multiply.outer(grid, row)
    else:
        grid, support = dense_mixture(spec, n)
    raw = np.meshgrid(*[support] * grid.ndim, indexing="ij")
    fracs = [a.exact_fraction() if a.is_rational else None
             for a in spec.alphas]
    q = math.lcm(*(f.denominator for f in fracs if f is not None))
    cols = [q * raw[0]]
    for c, f in zip(raw[1:], fracs):
        if f is None:
            cols.append(q * c)
        else:
            cols[0] = cols[0] + int(q * f) * c
    vals = [1.0] + [a.to_float() for a, f in zip(spec.alphas, fracs)
                    if f is None]
    coords = np.stack(cols, axis=-1).reshape(-1, len(cols))
    base = K.bernoulli_base(spec)
    scale = 1.0 / (math.sqrt(K.moments(base).sigma2) * math.sqrt(n)) / q
    return (coords @ np.array(vals)) * scale, grid.ravel(), coords


def whole_grid(spec, n):
    """Z_n as a whole-grid engine builds it: ``grid_atoms``, cells of
    weight 0.0 dropped, one stable sort and a merge of equal coordinates.
    Returns Z_n and the lattice coordinates of its atoms."""
    x, w, coords = grid_atoms(spec, n)
    keep = w > 0.0
    x, w, coords = x[keep], w[keep], coords[keep]
    order = np.argsort(x, kind="stable")
    x, w, coords = K._merge_atoms(x[order], w[order], coords[order],
                                  max(1.0, float(np.max(np.abs(x)))))
    z = K.DiscreteDist(x, w)
    if K._binom_row(n)[1][0] > -n:  # each cut row leaves out at most TAIL_EPS
        z.tail_mass = (len(spec.alphas) + 1) * K.TAIL_EPS
    return z, coords


def charged(z):
    """The bytes MEMORY_BUDGET charges for scanning z, as the error of a
    budget of 0 B names them."""
    with mock.patch.object(K, "MEMORY_BUDGET", 0):
        with pytest.raises(SupportOverflow) as err:
            next(z.slabs())
    return int(re.search(r"would need (\d+) B", str(err.value)).group(1))


def _or_collision(build):
    """build(), or None if it refuses a collision."""
    try:
        return build()
    except PrecisionExhausted:
        return None


class TestStreamedScan:
    """Delta_n from the slabs of Z_n equals Delta_n of the whole Z_n."""

    SMALL = 1 << 16  # a slab budget of a few buckets at m = 1, one at m >= 2

    @pytest.mark.parametrize("text, n", [
        ("prod:surd:0,1,1,2", 300),
        ("prod:surd:0,1,1,2,surd:0,1,1,3", 40),
        ("prod:rat:3/7,surd:0,1,1,2", 200),   # folds, and atoms merge
        ("prod:cf:0;2,30,periodic:1", 500),
        ("mix:0.5:surd:0,1,1,2=0.5", 91),     # a k-row for k < n is wider
        ("mix:0.5:surd:0,1,1,2=0.5", 256),    # than the n-row
        ("mix:0.5:rat:1/3=0.25,surd:0,1,1,2=0.25", 64),  # folds and merges
        ("mix:0.2:surd:0,1,1,2=0.3,surd:0,1,1,5=0.5", 40),
        ("prod:rat:1/3,rat:1/5", 100),        # >= 3-way merges, no irrational
        ("prod:rat:-2/7", 200),               # a rational stream, downward
        ("prod:surd:0,-1,1,2", 200),          # an irrational stream, downward
        ("prod:surd:0,1,10,2", 300),          # 0.14: the unit coordinate streams
        ("prod:surd:0,1,1,2,surd:0,1,1,3,surd:0,1,1,5", 16),
    ])
    @pytest.mark.parametrize("skewed", [False, True])
    def test_many_slabs_bit_identical(self, monkeypatch, text, n, skewed):
        base = K.bernoulli_base(CharSpec.parse(text))
        if skewed:
            # a = alpha3 / (6 sqrt n) = 2/3: three stationary points in
            # the bulk of Z_n, where the slabs are narrow
            G = EdgeworthComparison(EdgeworthParams(4.0 * math.sqrt(n), 1.0,
                                                    n))
        else:
            G = comparison_for("phi", base, n)
        whole, coords = whole_grid(base.spec, n)
        want = K.kolmogorov_distance(whole, G)
        monkeypatch.setattr(K, "SLAB_BYTES", self.SMALL)
        slabs, walked = zip(*[(x, c) for x, _, c in
                              K.zn_slabs(base, n).slabs()])
        assert np.array_equal(np.concatenate(walked), coords)
        assert len(slabs) >= 10
        for s in G.stationary_points():
            assert sum(x[-1] < s for x in slabs) >= 2
            assert sum(x[0] > s for x in slabs) >= 2
        assert K.kolmogorov_distance(K.zn_slabs(base, n), G) == want
        glued = K.zn_dist(base, n)
        assert np.array_equal(glued.positions, whole.positions)
        assert np.array_equal(glued.weights, whole.weights)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(
        st.builds("surd:{},{},{},{}".format, st.integers(-2, 2),
                  st.integers(-3, 3).filter(bool), st.integers(1, 5),
                  st.sampled_from([2, 3, 5, 6, 7, 8])),
        st.builds("rat:{}/{}".format, st.integers(-5, 5).filter(bool),
                  st.integers(1, 7)),
        st.builds("cf:0;{},periodic:{}".format, st.integers(1, 9),
                  st.integers(1, 9))), min_size=1, max_size=3),
        st.integers(1, 30), st.sampled_from([1, 1 << 12, 1 << 16]))
    def test_walk_equals_whole_grid(self, steps, n, slab_bytes):
        # the concatenated slabs are the whole grid's sorted and merged
        # arrays, bit for bit, or both refuse a collision
        spec = CharSpec.parse("prod:" + ",".join(steps))
        n = min(n, (30, 16, 8)[len(steps) - 1])

        def walk():
            with mock.patch.object(K, "SLAB_BYTES", slab_bytes):
                z = K.zn_slabs(K.bernoulli_base(spec), n)
                return [np.concatenate(a) for a in zip(*z.slabs())]

        def whole():
            z, coords = whole_grid(spec, n)
            return [z.positions, z.weights, coords]

        got, want = (_or_collision(f) for f in (walk, whole))
        if want is None:
            assert got is None
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_collision_straddling_a_slab_edge(self, monkeypatch):
        # sqrt 8 = 2 sqrt 2: distinct coordinate tuples at one point, whose
        # computed positions can differ by an ulp; with one bucket per slab
        # such a pair shares a bucket or straddles a slab edge
        monkeypatch.setattr(K, "SLAB_BYTES", 1)
        for text in ("prod:surd:0,1,1,2,surd:0,1,1,8",
                     "mix:0.5:surd:0,1,1,2=0.25,surd:0,1,1,8=0.25"):
            z = K.zn_slabs(K.bernoulli_base(CharSpec.parse(text)), 64)
            with pytest.raises(PrecisionExhausted):
                K.kolmogorov_distance(z, PhiFn())

    def test_collision_test_crosses_every_edge(self, monkeypatch):
        # neighbouring atoms 1/q apart in the unit coordinate collide at
        # double precision.  At c_0 = 0 their tuple offsets straddle 0, so
        # with one bucket per slab a colliding pair lies on either side of
        # a slab edge; with the merge inside each slab switched off, only
        # the comparison across slab edges can see it
        base = K.bernoulli_base(
            CharSpec.parse("prod:rat:1/100000000003,surd:0,1,1,2"))
        with pytest.raises(PrecisionExhausted):
            K.zn_dist(base, 16)
        monkeypatch.setattr(K, "SLAB_BYTES", 1)
        monkeypatch.setattr(K, "_merge_atoms", lambda x, w, c, spread:
                            (x, w, c))
        with pytest.raises(PrecisionExhausted):
            for _ in K.zn_slabs(base, 16).slabs():
                pass

    @pytest.mark.parametrize("text, n", [
        ("prod:surd:0,1,1,2", 16),
        ("prod:surd:0,1,1,3", 24),
        ("mix:0.5:surd:0,1,1,2=0.5", 16),
        ("prod:surd:0,1,1,2,surd:0,1,1,3", 6),
    ])
    def test_atoms_on_slab_edges(self, monkeypatch, text, n):
        # one bucket per slab: every slab edge sits between two buckets
        base = K.bernoulli_base(CharSpec.parse(text))
        G = comparison_for("phi", base, n)
        want = K.kolmogorov_distance(whole_grid(base.spec, n)[0], G)
        monkeypatch.setattr(K, "SLAB_BYTES", 1)
        z = K.zn_slabs(base, n)
        assert sum(1 for _ in z.slabs()) >= 10
        assert K.kolmogorov_distance(z, G) == want

    def test_scan_sorts_no_atoms(self, monkeypatch):
        # only the L^m tuples are sorted, once; the walk hands the atoms
        # over in position order
        base = K.product_bernoulli([SQRT2])
        n = 4096
        G = comparison_for("phi", base, n)
        seen = []
        for name in ("argsort", "sort", "lexsort"):
            def counted(a, *args, real=getattr(np, name), **kwargs):
                seen.append(np.shape(a)[-1])
                return real(a, *args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        K.kolmogorov_distance(K.zn_slabs(base, n), G)
        assert seen and max(seen) <= K.zn_slabs(base, n).support.size

    def test_scan_memory_is_set_by_the_slab_budget(self):
        # numpy's buffers are traced by tracemalloc; at n = 16384 the scan
        # holds the walk's 1215 tuples and one slab of about SLAB_BYTES,
        # Z_n whole is 1.5M atoms
        base = K.product_bernoulli([SQRT2])
        n = 16384
        z = K.zn_slabs(base, n)
        tracemalloc.start()
        try:
            K.kolmogorov_distance(z, PhiFn())
            scan_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            whole = K.zn_dist(base, n)
            whole_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(whole) > 10 ** 6
        assert scan_peak < charged(z) < whole_peak

    @pytest.mark.parametrize("text, n", [
        ("prod:surd:0,1,1,2", 4096),
        ("prod:surd:0,1,10,2", 4096),        # every cell of a bucket is an atom
        ("prod:surd:0,1,1,2,surd:0,1,1,3", 256),
        ("prod:surd:0,1,10,2,surd:0,1,10,3", 256),
        ("prod:rat:1/3,surd:0,1,1,2", 256),
        ("prod:surd:0,1,1,2,surd:0,1,1,3,surd:0,1,1,5", 40),
        ("prod:surd:0,1,10,2,surd:0,1,10,3,surd:0,1,10,5", 40),
    ])
    def test_scan_stays_within_its_charge(self, text, n):
        # MEMORY_BUDGET charges the tuple arrays and one slab, so any input
        # that passes it fits
        base = K.bernoulli_base(CharSpec.parse(text))
        z = K.zn_slabs(base, n)
        G = comparison_for("phi", base, n)
        tracemalloc.start()
        try:
            K.kolmogorov_distance(z, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < charged(z)

    def test_mixture_scan_memory_is_set_by_its_window(self, monkeypatch):
        # a mixture's scan holds what it is charged: its weight grid on the
        # widest window of its k-rows, (2E + 1)^2 cells (the grid of every
        # raw coordinate pair would be (2n + 1)^2), its n + 1 k-rows, the
        # largest block of its composition loop, the tuples and one slab.
        # The k-rows are computed before tracing, which would slow their
        # big-integer recurrence several times over, and handed out as
        # copies, so the traced scan still allocates every row
        rows = {k: K._binom_row(k) for k in range(3001)}
        monkeypatch.setattr(K, "_binom_row",
                            lambda k: tuple(a.copy() for a in rows[k]))
        base = K.mixture_bernoulli([0.5, 0.5], [SQRT2])
        for n in (1024, 3000):
            z = K.zn_slabs(base, n)
            tracemalloc.start()
            try:
                K.kolmogorov_distance(z, PhiFn())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < charged(z) < 8 * (2 * n + 1) ** 2

    def test_mixture_weight_grid_is_charged(self, monkeypatch):
        # the budget holds the weight grid at 8 B a cell, but not the grid
        # and the tuple table together
        z = K.zn_slabs(K.mixture_bernoulli([0.5, 0.5], [SQRT2]), 256)
        monkeypatch.setattr(K, "MEMORY_BUDGET", 8 * z.support.size ** 2)
        with pytest.raises(SupportOverflow, match=r"tuples would need \d+ B"):
            K.kolmogorov_distance(z, PhiFn())

    def test_mixture_budget_before_rows(self, monkeypatch):
        # the 3-part mixture at n = 4096 is over budget; that must be found
        # before any of its n + 1 binomial k-rows is built
        base = K.mixture_bernoulli([0.4, 0.3, 0.3],
                                   [SQRT2, AlphaSpec.surd(0, 1, 1, 3)])

        def no_rows(n):
            raise AssertionError(f"built the {n}-row")

        monkeypatch.setattr(K, "_binom_row", no_rows)
        with pytest.raises(SupportOverflow, match=r"tuples would need \d+ B"):
            K.kolmogorov_distance(K.zn_slabs(base, 4096), PhiFn())

    def test_product_budget_before_row(self, monkeypatch):
        # an over-budget product is refused before its binomial n-row,
        # which grows with n, is built
        base = K.product_bernoulli([SQRT2])

        def no_rows(n):
            raise AssertionError(f"built the {n}-row")

        monkeypatch.setattr(K, "_binom_row", no_rows)
        monkeypatch.setattr(K, "MEMORY_BUDGET", 1 << 20)
        with pytest.raises(SupportOverflow, match=r"tuples would need \d+ B"):
            K.kolmogorov_distance(K.zn_slabs(base, 4096), PhiFn())

    def test_n_row_integers_are_charged(self):
        # the n-row's 2^n and C(n, k0) take n / 8 B each: at n = 10^12 that
        # is 250 GB, refused before LatticeZn takes any float of n
        base = K.bernoulli_base(CharSpec.parse("prod:"))
        with pytest.raises(SupportOverflow, match=(
                r"n = 1000000000000: the binomial n-row's integers 2\^n and "
                r"C\(n, k0\) would need 250000000000 B")):
            K.zn_slabs(base, 10 ** 12)
        assert K.zn_slabs(base, 1 << 32).n == 1 << 32

    def test_mixture_releases_its_k_rows(self, monkeypatch):
        # once the weight grid is built, the walk holds neither the n + 1
        # k-rows nor the last composition block
        made = []

        def tracked(k, real=K._binom_row):
            row, support = real(k)
            made.append(weakref.ref(row))
            return row, support

        z = K.zn_slabs(K.mixture_bernoulli([0.5, 0.5], [SQRT2]), 1024)
        monkeypatch.setattr(K, "_binom_row", tracked)
        walk = z.slabs()
        next(walk)
        gc.collect()
        assert len(made) == 1025 and all(r() is None for r in made)
        assert "block" not in walk.gi_frame.f_locals
        walk.close()

    def test_tuple_table_over_budget(self):
        base = K.product_bernoulli(
            [AlphaSpec.surd(0, 1, 1, d) for d in (2, 3, 5, 7)])
        with pytest.raises(SupportOverflow, match=r"tuples would need \d+ B"):
            K.kolmogorov_distance(K.zn_slabs(base, 4096), PhiFn())


class Bare:
    """A comparison function G without ``enclose``: the scan evaluates
    it at every atom."""

    def __init__(self, G):
        self.G = G
        self.points = 0

    def __call__(self, x):
        self.points += np.size(x)
        return self.G(x)

    def stationary_points(self):
        return self.G.stationary_points()


class Enclosed(Bare):
    """The same G with its ``enclose``, counting the points G sees."""

    def enclose(self, x):
        return self.G.enclose(x)


#: skewed bases with mean 0, for a Phi3 with a != 0; they go through
#: convolution, as one slab
SKEWED = (K.DiscreteDist(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3])),
          K.DiscreteDist(np.array([-3.0, 1.0]), np.array([0.25, 0.75])))


class TestPrunedScan:
    """Evaluating G only where an atom's deviation can reach the sup
    returns the bits of evaluating it at every atom."""

    STEP = st.one_of(
        st.builds("surd:{},{},{},{}".format, st.integers(-2, 2),
                  st.integers(-3, 3).filter(bool), st.integers(1, 5),
                  st.sampled_from([2, 3, 5, 6, 7])),
        st.builds("rat:{}/{}".format, st.integers(-5, 5).filter(bool),
                  st.integers(1, 7)),
        st.builds("cf:0;{},periodic:{}".format, st.integers(1, 9),
                  st.integers(1, 9)))

    @staticmethod
    def both(z, G):
        """The scan with and without ``enclose``, or None for both if the
        walk refuses a collision."""
        return [_or_collision(lambda: K.kolmogorov_distance(z, g))
                for g in (Enclosed(G), Bare(G))]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["prod", "mix"]),
           st.lists(STEP, min_size=1, max_size=2), st.integers(1, 256),
           st.sampled_from(["phi", "phi3"]),
           st.sampled_from([1, 1 << 12, K.SLAB_BYTES]))
    def test_grammar_bases(self, form, steps, n, target, slab_bytes):
        if form == "prod":
            text = "prod:" + ",".join(steps)
            n = min(n, (256, 40)[len(steps) - 1])
        else:
            share = 1 / (len(steps) + 1)
            text = f"mix:{share}:" + ",".join(f"{s}={share}" for s in steps)
            n = min(n, (96, 16)[len(steps) - 1])
        base = _or_collision(lambda: K.bernoulli_base(CharSpec.parse(text)))
        if base is None:
            return
        G = comparison_for(target, base, n)
        with mock.patch.object(K, "SLAB_BYTES", slab_bytes):
            pruned, full = self.both(K.zn_slabs(base, n), G)
        # repr tells -0.0 from 0.0, and round-trips every other float
        assert repr(pruned) == repr(full)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SKEWED), st.integers(1, 200),
           st.sampled_from(["phi", "phi3"]))
    def test_skewed_base(self, base, n, target):
        G = comparison_for(target, base, n)
        assert target == "phi" or G.params.a != 0.0
        pruned, full = self.both(K.zn_slabs(base, n), G)
        assert repr(pruned) == repr(full)

    def test_midpoint_interpolant_keeps_the_heaviest_atom(self):
        # G through the midpoint of every jump: every deviation is the
        # floor, half the heaviest weight, so no atom may be left out
        class Midpoints:
            def __call__(self, x):
                return np.interp(x, [-1.0, 1.0], [0.25, 0.75])

            def enclose(self, x):
                g = self(x)
                return g, g.copy()

            def stationary_points(self):
                return []

        res = K.kolmogorov_distance(K.bernoulli_pm(1), Midpoints())
        assert res == (0.25, -1.0, "right", 0.0)

    def test_G_sees_few_atoms(self):
        base = K.product_bernoulli([SQRT2])
        n = 4096
        G = Enclosed(comparison_for("phi3", base, n))
        want = K.kolmogorov_distance(K.zn_slabs(base, n), Bare(G.G))
        assert K.kolmogorov_distance(K.zn_slabs(base, n), G) == want
        atoms = sum(x.size for x, *_ in K.zn_slabs(base, n).slabs())
        assert atoms > 3 * 10 ** 5 and G.points < atoms // 100
