import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from cltdioph import dioph as D
from cltdioph.errors import PrecisionExhausted

SQRT2 = D.AlphaSpec.surd(0, 1, 1, 2)
GOLDEN = D.AlphaSpec.surd(1, 1, 2, 5)
SQRT3 = D.AlphaSpec.surd(0, 1, 1, 3)


def nearest_dist(x):
    """Reference ||x|| for an mpmath real."""
    f = x - mpmath.floor(x)
    return float(min(f, 1 - f))


class TestAlphaSpec:
    def test_oracle_certifies(self):
        mpmath.mp.dps = 80
        targets = {
            SQRT2: mpmath.sqrt(2),
            GOLDEN: (1 + mpmath.sqrt(5)) / 2,
            D.AlphaSpec.from_cf(1, [], [2]): mpmath.sqrt(2),
            D.AlphaSpec.rational(-7, 3): mpmath.mpf(-7) / 3,
        }
        for spec, val in targets.items():
            for bits in (48, 64, 200):
                r = spec.approx(bits)
                assert abs(float(mpmath.mpf(r.numerator) / r.denominator - val)) < 2.0 ** -bits

    def test_oracle_monotone(self):
        mpmath.mp.dps = 80
        val = mpmath.sqrt(2)
        errs = [abs(mpmath.mpf(SQRT2.approx(b).numerator) / SQRT2.approx(b).denominator - val)
                for b in (32, 64, 128)]
        assert errs[0] > errs[1] > errs[2]

    def test_surd_rejects_bad_input(self):
        with pytest.raises(ValueError):
            D.AlphaSpec.surd(0, 1, 0, 2)
        with pytest.raises(ValueError):
            D.AlphaSpec.surd(0, 1, 1, -2)
        # perfect square collapses to a rational
        assert D.AlphaSpec.surd(1, 2, 3, 4).is_rational

    def test_decimal_budget(self):
        a = D.AlphaSpec.decimal("1.41421")
        with pytest.raises(PrecisionExhausted):
            a.mantissa(200)

    def test_decimal_to_float_is_its_value(self):
        assert D.AlphaSpec.parse("dec:1").to_float() == 1.0
        assert abs(D.AlphaSpec.parse("dec:1.3").to_float()
                   - D.AlphaSpec.parse("rat:13/10").to_float()) < 1e-15

    def test_parse_roundtrip(self):
        for text in ["surd:0,1,1,2", "rat:5/3", "dec:0.125",
                     "cf:1;periodic:2", "cf:0;1,2,periodic:3,4"]:
            spec = D.AlphaSpec.parse(text)
            assert isinstance(spec.to_float(), float)
        assert abs(D.AlphaSpec.parse("cf:1;periodic:2").to_float() - math.sqrt(2)) < 1e-12

    def test_finite_cf_is_rational(self):
        spec = D.AlphaSpec.from_cf(1, [1, 2])
        assert spec.is_rational
        assert spec.exact_fraction() == Fraction(5, 3)


class TestCfExpand:
    def test_sqrt2(self):
        cf = D.cf_expand(SQRT2, 6)
        assert cf.a0 == 1 and cf.quotients == [2, 2, 2, 2, 2]
        assert cf.period == 1

    def test_rational_terminates(self):
        cf = D.cf_expand(D.AlphaSpec.rational(5, 3), 10)
        assert cf.a0 == 1 and cf.quotients == [1, 2]
        assert cf.terminated

    def test_golden(self):
        cf = D.cf_expand(GOLDEN, 5)
        assert cf.a0 == 1 and cf.quotients == [1, 1, 1, 1]

    def test_negative_surd(self):
        # -sqrt(2) = [-2; 1, 1, 2, 2, 2, ...]
        cf = D.cf_expand(D.AlphaSpec.surd(0, -1, 1, 2), 7)
        assert cf.a0 == -2 and cf.quotients == [1, 1, 2, 2, 2, 2]

    def test_decimal_certification(self):
        # pi to 15 digits certifies a good prefix, but not 40 quotients
        pi = D.AlphaSpec.decimal("3.141592653589793")
        cf = D.cf_expand(pi, 5)
        assert cf.a0 == 3 and cf.quotients == [7, 15, 1, 292]
        with pytest.raises(PrecisionExhausted):
            D.cf_expand(pi, 40)
        partial = D.cf_expand(pi, 40, partial=True)
        assert partial.certified < 40

    def test_periodicity_detection(self):
        cf = D.cf_expand(D.AlphaSpec.surd(0, 1, 1, 7), 12)
        # sqrt(7) = [2; 1,1,1,4 repeating]
        assert cf.quotients[:8] == [1, 1, 1, 4, 1, 1, 1, 4]
        assert cf.period == 4


class TestConvergents:
    def test_sqrt2_values(self):
        cf = D.cf_expand(SQRT2, 8)
        assert D.convergents(cf, 4) == [Fraction(1), Fraction(3, 2),
                                        Fraction(7, 5), Fraction(17, 12),
                                        Fraction(41, 29)]

    def test_base_case(self):
        cf = D.cf_expand(D.AlphaSpec.rational(7, 2), 5)
        assert D.convergents(cf, 0) == [Fraction(3, 1)]

    def test_golden_fibonacci(self):
        cf = D.cf_expand(GOLDEN, 8)
        assert D.convergents(cf, 5) == [Fraction(1), Fraction(2), Fraction(3, 2),
                                        Fraction(5, 3), Fraction(8, 5), Fraction(13, 8)]

    def test_determinant_identity(self):
        cf = D.cf_expand(SQRT3, 25)
        cs = D.convergents(cf, 24)
        for k in range(1, len(cs)):
            p1, q1 = cs[k].numerator, cs[k].denominator
            p0, q0 = cs[k - 1].numerator, cs[k - 1].denominator
            assert p1 * q0 - p0 * q1 == (-1) ** (k - 1)

    def test_q_increasing(self):
        cf = D.cf_expand(SQRT2, 20)
        qs = [c.denominator for c in cf.convergents]
        assert all(qs[k] > qs[k - 1] for k in range(2, len(qs)))

    def test_out_of_range(self):
        cf = D.cf_expand(SQRT2, 3)
        with pytest.raises(ValueError):
            D.convergents(cf, 10)


class TestNearestIntDist:
    def test_rational_exact(self):
        v, err = D.nearest_int_dist(D.AlphaSpec.rational(9, 4), 1)
        assert v == 0.25 and err == 0.0

    def test_sqrt2_12(self):
        mpmath.mp.dps = 50
        v, err = D.nearest_int_dist(SQRT2, 12)
        assert err < 2.0 ** -40
        assert abs(v - nearest_dist(12 * mpmath.sqrt(2))) < 1e-12
        assert abs(v - 0.029437) < 1e-6

    def test_convergent_denominators_decrease(self):
        cf = D.cf_expand(SQRT2, 12)
        mpmath.mp.dps = 60
        prev = 1.0
        for conv in cf.convergents[1:]:
            q, p = conv.denominator, conv.numerator
            v, _ = D.nearest_int_dist(SQRT2, q)
            exact = abs(float(q * mpmath.sqrt(2) - p))
            assert abs(v - exact) < 2.0 ** -40
            assert v < prev
            prev = v

    def test_convergent_quality(self):
        # ||q_k alpha|| < 1/q_{k+1}
        cf = D.cf_expand(SQRT2, 14)
        cs = cf.convergents
        for k in range(1, len(cs) - 1):
            v, _ = D.nearest_int_dist(SQRT2, cs[k].denominator)
            assert v < 1.0 / cs[k + 1].denominator

    def test_half_integer_tie_exact(self):
        v, err = D.nearest_int_dist(D.AlphaSpec.rational(1, 2), 3)
        assert v == 0.5 and err == 0.0

    def test_range(self):
        for n in range(1, 50):
            v, _ = D.nearest_int_dist(GOLDEN, n)
            assert 0.0 < v <= 0.5

    def test_near_half_integer(self):
        # the residue test certifies ||133 alpha|| at 128 bits; it lies
        # below 1/2 by less than half an ulp of 1/2, so it rounds to 0.5
        v, err = D.nearest_int_dist(D.AlphaSpec.parse(NEAR_HALF), 133)
        assert v == 0.5 and 0.0 < err < 2.0 ** -40


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_nearest_dist_metric_properties(x, y):
    def nd(v):
        f = v - math.floor(v)
        return min(f, 1 - f)

    assert nd(x) <= abs(x) + 1e-12
    assert nd(x + y) <= nd(x) + nd(y) + 1e-12
    assert abs(nd(x) - nd(y)) <= nd(x - y) + 1e-12


# a partial quotient near 10^15 after the convergent 131/303 makes
# ||303 j alpha|| fall below the 64-bit error 303 j 2^-64
BIG_QUOTIENT = "cf:0;2,3,5,8,1000000000000000,periodic:1"
# 1/2800 + sqrt(2)/2^65: 1400 alpha is within the 64-bit error of 1/2
HALF_GAP = "surd:36893488147419103232,2800,103301766812773489049600,2"
# about 115/266: 133 alpha is within 2^-54 of a half-integer, so a float
# test of |dist - 1/2| never separates it
NEAR_HALF = "cf:0;2,3,5,7,1000000000000000,periodic:1"
ORBIT_SPECS = ["surd:0,1,1,2", "surd:0,1,1,10", "cf:1;periodic:1", "rat:3/7",
               "dec:0." + "1415926535" * 7, BIG_QUOTIENT, HALF_GAP,
               "surd:-3,-1,7,11", NEAR_HALF]
DEC35 = "dec:1.41421356237"  # certifies 35 bits


def type_estimate_loop(alpha, n_max):
    """The scalar scan type_estimate must reproduce: one nearest_int_dist
    and one math.log ratio per n."""
    n_min = max(2, math.isqrt(n_max))
    eta_hat, chain = float("-inf"), []
    for n in range(1, n_max + 1):
        dist, _ = D.nearest_int_dist(alpha, n)
        if dist == 0.0:
            return D.TypeEstimate(math.inf, chain, n_max, degenerate=True)
        if n < n_min:
            continue
        eta_n = math.log(1.0 / (2.0 * dist)) / math.log(n)
        if eta_n > eta_hat:
            eta_hat = eta_n
            chain.append((n, dist, n ** eta_n * dist))
    return D.TypeEstimate(eta_hat, chain, n_max)


def fails_64_bit_test(alpha, n):
    """Whether nearest_int_dist cannot certify ||n alpha|| at 64 bits."""
    r = n * alpha.mantissa(64) % (1 << 64)
    dist, err = min(r, (1 << 64) - r) / 2.0 ** 64, n / 2.0 ** 64
    return not (41 + n.bit_length() <= 64 and dist > err
                and abs(dist - 0.5) > err)


class TestOrbitKernel:
    @pytest.mark.parametrize("text", ORBIT_SPECS)
    def test_equals_scalar(self, text):
        alpha = D.AlphaSpec.parse(text)
        assert list(D.orbit_dists(alpha, 3000)) == \
            [D.nearest_int_dist(alpha, n)[0] for n in range(1, 3001)]

    @pytest.mark.parametrize("text, failing", [
        (BIG_QUOTIENT, list(range(303, 3001, 303))),
        (HALF_GAP, [1400, 2800]),
    ])
    def test_failed_entries_take_scalar_redo(self, monkeypatch, text,
                                             failing):
        alpha = D.AlphaSpec.parse(text)
        want = [D.nearest_int_dist(alpha, n)[0] for n in range(1, 3001)]
        calls = []
        scalar = D.nearest_int_dist

        def counted(a, n):
            calls.append(n)
            return scalar(a, n)

        monkeypatch.setattr(D, "nearest_int_dist", counted)
        got = list(D.orbit_dists(alpha, 3000))
        assert [n for n in range(1, 3001)
                if fails_64_bit_test(alpha, n)] == failing
        assert calls == failing
        assert got == want

    @pytest.mark.parametrize("text", [BIG_QUOTIENT, "surd:0,1,1,2"])
    def test_block_edges(self, monkeypatch, text):
        # blocks of 7, and the 64-bit pass cut at 200 instead of 2^23:
        # every n from the cut on takes the scalar path
        alpha = D.AlphaSpec.parse(text)
        want = [D.nearest_int_dist(alpha, n)[0] for n in range(1, 301)]
        calls = []
        scalar = D.nearest_int_dist

        def counted(a, n):
            calls.append(n)
            return scalar(a, n)

        monkeypatch.setattr(D, "nearest_int_dist", counted)
        monkeypatch.setattr(D, "_BLOCK", 7)
        monkeypatch.setattr(D, "_N64", 200)
        assert list(D.orbit_dists(alpha, 300)) == want
        assert calls == [n for n in range(1, 200)
                         if fails_64_bit_test(alpha, n)] + \
            list(range(200, 301))

    @pytest.mark.parametrize("text", [
        "rat:3/7", "rat:-5/3", "rat:4", "rat:3/1009", "rat:1/2147483647",
        "rat:-1234567/2147483648", "rat:" + "9" * 30 + "/13"])
    def test_rational_takes_integer_residues(self, monkeypatch, text):
        # below 2^31 the denominator is scanned without the scalar path;
        # 2^31 and up go back to it
        alpha = D.AlphaSpec.parse(text)
        want = [D.nearest_int_dist(alpha, n)[0] for n in range(1, 3001)]
        calls = []
        scalar = D.nearest_int_dist

        def counted(a, n):
            calls.append(n)
            return scalar(a, n)

        monkeypatch.setattr(D, "nearest_int_dist", counted)
        assert list(D.orbit_dists(alpha, 3000)) == want
        big = alpha.exact_fraction().denominator >= 1 << 31
        assert calls == (list(range(1, 3001)) if big else [])

    def test_residues_are_exact(self):
        for text in ("surd:0,1,1,2", "surd:-3,-1,7,11", "rat:-5/3",
                     "cf:7;1,2,periodic:3"):
            alpha = D.AlphaSpec.parse(text)
            m = alpha.mantissa(64)
            assert D.orbit_residues(alpha, 500).tolist() == \
                [n * m % (1 << 64) for n in range(1, 501)]


class TestTypeEstimate:
    @pytest.mark.parametrize("text", ORBIT_SPECS + [
        "rat:3/1009", "cf:0;1,1000000,periodic:2"])
    def test_equals_scalar_scan(self, text):
        alpha = D.AlphaSpec.parse(text)
        for n_max in (2, 3, 50, 2000):
            assert D.type_estimate(alpha, n_max) == \
                type_estimate_loop(alpha, n_max)

    @pytest.mark.parametrize("text", [
        "surd:0,1,1,2", "cf:0;2,30,periodic:1", "rat:3/1009", "rat:5/4096",
        BIG_QUOTIENT, "dec:0." + "1415926535" * 7, DEC35,
        "dec:0." + "3" * 20])
    def test_equals_scalar_scan_in_small_blocks(self, monkeypatch, text):
        # blocks of 7 and the 64-bit pass cut at 500: records, zeros and
        # scalar errors fall inside and across block edges
        alpha = D.AlphaSpec.parse(text)
        monkeypatch.setattr(D, "_BLOCK", 7)
        monkeypatch.setattr(D, "_N64", 500)
        for n_max in (2, 50, 700, 5000):
            try:
                want = type_estimate_loop(alpha, n_max)
            except PrecisionExhausted as exc:
                with pytest.raises(PrecisionExhausted) as got:
                    D.type_estimate(alpha, n_max)
                assert str(got.value) == str(exc)
            else:
                assert D.type_estimate(alpha, n_max) == want

    @pytest.mark.parametrize("d, eta_hat, count, last", [
        (10, 1.158847334666887, 10,
         (1405, 0.00011253657296149048, 0.5000000000000002)),
        (2, 1.0576541236875896, 5,
         (408, 0.0008665517772200823, 0.49999999999999994)),
    ])
    def test_bench_values(self, d, eta_hat, count, last):
        est = D.type_estimate(D.AlphaSpec.surd(0, 1, 1, d), 10 ** 5)
        assert est.eta_hat == eta_hat and not est.degenerate
        assert len(est.witnesses) == count and est.witnesses[-1] == last
        assert est.n_max == 10 ** 5

    def test_rational_chain_stops_at_first_hit(self):
        assert D.type_estimate(D.AlphaSpec.rational(3, 7), 100) == \
            D.TypeEstimate(math.inf, [], 100, degenerate=True)
        est = D.type_estimate(D.AlphaSpec.rational(3, 1009), 2000)
        assert est.degenerate and len(est.witnesses) == 23
        assert est.witnesses[0] == (44, 0.13082259663032705, 0.5)
        assert est.witnesses[-1] == (336, 0.0009910802775024777, 0.5)

    def test_errors(self):
        for n_max in (1, 0, -1):
            with pytest.raises(ValueError, match="n_max must be >= 2"):
                D.type_estimate(SQRT2, n_max)
        with pytest.raises(PrecisionExhausted,
                           match=r"need 64 bits to certify \|\|1\*alpha\|\|, "
                                 r"budget is 35"):
            D.type_estimate(D.AlphaSpec.parse(DEC35), 100)

    def test_sqrt2(self):
        est = D.type_estimate(SQRT2, 10 ** 4)
        assert 1.0 <= est.eta_hat <= 1.15
        for n, dist, scaled in est.witnesses:
            assert 1 <= n <= est.n_max
            assert 0.0 < dist <= 0.5

    def test_rational_degenerate(self):
        est = D.type_estimate(D.AlphaSpec.rational(3, 7), 100)
        assert est.degenerate

    def test_liouville_truncation(self):
        # 5-term truncation of sum 10^-k!; within the 10^4 horizon the
        # dominant witness is n = 100 against the 10^-6 digit block.
        digits = ["0"] * 120
        for k in (1, 2, 6, 24, 120):
            digits[k - 1] = "1"
        li = D.AlphaSpec.decimal("0." + "".join(digits))
        est = D.type_estimate(li, 10 ** 4)
        assert est.eta_hat > 1.5
        assert est.eta_hat > D.type_estimate(SQRT2, 10 ** 4).eta_hat


class TestEpsProfile:
    def test_sqrt2_values(self):
        prof = D.eps_profile([SQRT2], 3)
        expected = [0.41421, 0.17157, 0.24264]
        for got, want in zip(prof.values, expected):
            assert abs(got - want) < 1e-5

    def test_rational_zero(self):
        prof = D.eps_profile([D.AlphaSpec.rational(1, 2)], 2)
        assert prof.values[1] == 0.0

    def test_two_alphas_max(self):
        prof = D.eps_profile([SQRT2, SQRT3], 2)
        assert abs(prof.values[0] - 0.41421) < 1e-5
        assert abs(prof.values[1] - 0.46410) < 1e-5

    def test_diagnostic(self):
        prof = D.eps_profile([SQRT2], 10, eta=1.0, eta_prime=0.0)
        assert prof.diagnostic is not None
        for n, (v, d) in enumerate(zip(prof.values, prof.diagnostic), start=1):
            assert abs(d - n * v) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            D.eps_profile([], 5)

    def test_equals_scalar_max(self):
        alphas = [D.AlphaSpec.parse(t) for t in ORBIT_SPECS]
        prof = D.eps_profile(alphas, 2000)
        assert prof.values == [
            max(D.nearest_int_dist(a, n)[0] for a in alphas)
            for n in range(1, 2001)]

    def test_short_budget_raises(self):
        # the quarter fails at n = 2 (2 alpha is 1e-22 above 1/2, below
        # its 72-bit error), DEC35 at n = 1: a scan over n meets DEC35 first
        quarter = D.AlphaSpec.parse("dec:0.2500000000000000000001")
        with pytest.raises(PrecisionExhausted, match="within 72 bits"):
            D.eps_profile([quarter], 10)
        for alphas in ([D.AlphaSpec.parse(DEC35)],
                       [quarter, D.AlphaSpec.parse(DEC35)]):
            with pytest.raises(PrecisionExhausted,
                               match=r"need 64 bits to certify "
                                     r"\|\|1\*alpha\|\|, budget is 35"):
                D.eps_profile(alphas, 10)


class TestKhinchineR:
    def test_single_term(self):
        psi = D.KhinchinePsi(lambda n: 1.0)
        v, arg = D.khinchine_r(SQRT2, psi, 1)
        assert abs(v - 0.41421) < 1e-5 and arg == 1

    def test_argmin_at_convergent_denominator(self):
        psi = D.KhinchinePsi(lambda n: 1.0 / (n * math.log(n + 1) ** 1.5))
        v, arg = D.khinchine_r(SQRT2, psi, 1000)
        assert v > 0
        qs = {c.denominator for c in D.cf_expand(SQRT2, 20).convergents}
        assert arg in qs

    def test_rational_hits_zero(self):
        psi = D.KhinchinePsi(lambda n: 1.0)
        v, arg = D.khinchine_r(D.AlphaSpec.rational(2, 5), psi, 10)
        assert v == 0.0 and arg == 5

    def test_monotone_in_horizon(self):
        psi = D.KhinchinePsi(lambda n: 1.0 / n)
        vals = [D.khinchine_r(SQRT2, psi, n)[0] for n in (5, 50, 500)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_psi_positive_enforced(self):
        psi = D.KhinchinePsi(lambda n: -1.0)
        with pytest.raises(ValueError):
            D.khinchine_r(SQRT2, psi, 3)

    def test_psi_error_before_later_short_budget(self):
        # 3 alpha is 1e-20 below 1, inside the error of the 65 bits
        # that 20 digits certify: the scan fails at n = 3
        third = D.AlphaSpec.parse("dec:0." + "3" * 20)
        with pytest.raises(PrecisionExhausted,
                           match=r"cannot separate 3\*alpha .* 65 bits"):
            D.khinchine_r(third, D.KhinchinePsi(lambda n: 1.0), 10)
        psi = D.KhinchinePsi(lambda n: 1.0 if n < 2 else -1.0)
        with pytest.raises(ValueError, match=r"psi\(2\) = -1.0"):
            D.khinchine_r(third, psi, 10)

    def test_horizon_checked(self):
        psi = D.KhinchinePsi(lambda n: 1.0)
        for n_max in (0, -1):
            with pytest.raises(ValueError, match="n_max must be >= 1"):
                D.khinchine_r(SQRT2, psi, n_max)

    @pytest.mark.parametrize("text", ORBIT_SPECS)
    def test_equals_scalar_scan(self, text):
        alpha = D.AlphaSpec.parse(text)
        psi = D.KhinchinePsi(lambda n: 1.0 / (n * math.log(n + 1) ** 1.5))
        best, arg = math.inf, 0
        for n in range(1, 2001):
            v = D.nearest_int_dist(alpha, n)[0] / psi(n)
            if v < best:
                best, arg = v, n
            if best == 0.0:
                break
        assert D.khinchine_r(alpha, psi, 2000) == (best, arg)


def test_oracle_thread_safety():
    import concurrent.futures
    spec = D.AlphaSpec.surd(0, 1, 1, 2)
    with concurrent.futures.ThreadPoolExecutor(8) as pool:
        results = list(pool.map(lambda _: spec.mantissa(512), range(32)))
    assert len(set(results)) == 1
