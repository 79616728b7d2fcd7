import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from scipy.special import ndtr

import cltdioph
from cltdioph.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDelta:
    def test_b1_n1_closed_form(self, capsys):
        code, out, _ = run(capsys, "delta", "--base", "prod:",
                           "--n", "1", "--target", "phi")
        assert code == 0
        n, delta, argmax, side = out.split()
        assert n == "1" and side == "right"
        assert abs(float(delta) - (0.5 - ndtr(-1.0))) < 1e-15
        assert float(argmax) == -1.0

    def test_phi3_target(self, capsys):
        code, out, _ = run(capsys, "delta", "--base", "prod:surd:0,1,1,2",
                           "--n", "256", "--target", "phi3")
        assert code == 0
        assert 0.0 < float(out.split()[1]) < 0.01

    def test_json_out(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        code, out, _ = run(capsys, "delta", "--base", "prod:", "--n", "4",
                           "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["n"] == 4
        assert f"{payload['delta']:.17g}" == out.split()[1]
        assert payload["side"] in ("left", "right")
        assert payload["error_bound"] == 0.0
        assert len(payload["config"]) == 12
        assert out.count("\n") == 1 and len(out.split()) == 4
        assert path.read_bytes() == (
            b'{\n "n": 4,\n "delta": 0.1875,\n "argmax": 0.0,\n'
            b' "side": "right",\n "error_bound": 0.0,\n "target": "phi",\n'
            b' "base": "prod:",\n "config": "61c165ea847e"\n}\n')

    def test_decimal_step_is_its_value(self, capsys):
        # the decimal's own value, not one rounded to its certified bits
        deltas = []
        for base in ("prod:dec:1.3", "prod:rat:13/10"):
            code, out, _ = run(capsys, "delta", "--base", base, "--n", "4")
            assert code == 0
            deltas.append(float(out.split()[1]))
        assert abs(deltas[0] - deltas[1]) < 1e-15

    def test_windowed_product_output_unchanged(self, capsys):
        code, out, _ = run(capsys, "delta", "--base", "prod:surd:0,1,1,11",
                           "--n", "4096", "--target", "phi3")
        assert code == 0
        assert out == ("4096 8.0217877179433739e-05 -0.23650047368996271"
                       " right\n")

    def test_product_n32768(self, capsys):
        # the whole grid would be 6937^2 atoms, over the cap; the Hoeffding
        # window keeps 1719^2
        code, out, _ = run(capsys, "delta", "--base", "prod:surd:0,1,1,2",
                           "--n", "32768")
        assert code == 0
        assert 0.0 < 32768 * float(out.split()[1]) < 1.0

    def test_mixture_n256(self, capsys):
        code, out, _ = run(capsys, "delta", "--base",
                           "mix:0.5:surd:0,1,1,2=0.5", "--n", "256")
        assert code == 0
        assert out == "256 0.0017038622020335015 -0.26391072316645653 right\n"

    @pytest.mark.parametrize("args, want", [
        (("--base", "mix:0.5:surd:0,1,1,11=0.5", "--n", "96"),
         "96 0.0041348766684291549 0.16666666666666669 left\n"),
        (("--base", "mix:0.5:surd:0,1,1,2=0.5", "--n", "91", "--target",
          "phi3"),
         "91 0.0046159138447664505 -0.18586947944339191 right\n"),
    ])
    def test_mixture_output_unchanged(self, capsys, args, want):
        code, out, _ = run(capsys, "delta", *args)
        assert code == 0
        assert out == want

    def test_rational_step(self, capsys):
        code, out, _ = run(capsys, "delta", "--base", "prod:rat:1/3",
                           "--n", "64")
        assert code == 0
        assert 0.0 < float(out.split()[1]) < 0.1

    @pytest.mark.parametrize("base, n, want", [
        ("prod:rat:1/3", "4096",
         "4096 0.0019712317730902207 -0.0098821176880261857 right\n"),
        # neighbouring atoms 5e-14 apart relative: ordered, not a collision
        ("prod:rat:1/100000000003", "2000",
         "2000 0.0089195055464229567 6.4845971345548531e-11 right\n"),
    ])
    def test_rational_step_output_unchanged(self, capsys, base, n, want):
        code, out, _ = run(capsys, "delta", "--base", base, "--n", n)
        assert code == 0
        assert out == want

    def test_atoms_within_merge_tolerance_output_unchanged(self, capsys):
        # the step's atoms -1 - 1/q and -1 + 1/q lie 1e-12 apart, inside
        # convolve's merge tolerance: merged, alpha3 would read -1.5e-12
        # and Phi3 would move Delta
        code, out, _ = run(capsys, "delta", "--base",
                           "prod:rat:1/2000000000003", "--n", "64",
                           "--target", "phi3")
        assert code == 0
        assert out == "64 0.049673376872642283 3.2499999999951259e-12 right\n"

    def test_config_error(self, capsys):
        code, _, err = run(capsys, "delta", "--base", "bogus", "--n", "4")
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_support_overflow_exit_code(self, capsys):
        base = "prod:" + ",".join(
            f"dec:0.{k}2345678901234" for k in range(1, 7))
        code, _, err = run(capsys, "delta", "--base", base, "--n", "4096")
        assert code == 3
        assert err.startswith("resource error:") and err.count("\n") == 1

    def test_three_steps_over_budget_exit_at_once(self, capsys):
        # 215^3 tuples: their arrays and one slab are over MEMORY_BUDGET,
        # which must be seen before any of them is built
        start = time.perf_counter()
        code, _, err = run(capsys, "delta", "--base",
                           "prod:surd:0,1,1,2,surd:0,1,1,3,surd:0,1,1,5",
                           "--n", "512")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert re.search(r"tuples would need \d+ B", err)

    @pytest.mark.parametrize("base, n", [
        ("prod:surd:0,1,1,2", 200000000000),
        ("mix:0.5:surd:0,1,1,2=0.5", 100000000)])
    def test_large_n_over_budget_exit_at_once(self, capsys, base, n):
        # the budget is checked before any binomial row is built, and a
        # mixture's k-rows are charged without a loop over k
        start = time.perf_counter()
        code, _, err = run(capsys, "delta", "--base", base, "--n", str(n))
        assert time.perf_counter() - start < 2.0
        assert code == 3
        assert re.search(r"tuples would need \d+ B", err)

    def test_collision_names_n_and_steps(self, capsys):
        # 2 sqrt2 = sqrt8: the atoms that collide are the same point, so the
        # error must not claim they are distinct; steps that collide
        # already in the base are named as such, not as Z_n for n = 1
        for base, where in [
                ("prod:surd:0,1,1,2,surd:0,1,1,8",
                 "Z_n for n = 64 with steps 1, surd:0,1,1,2, surd:0,1,1,8"),
                ("prod:surd:0,1,1,2,surd:0,1,1,2",
                 "steps 1, surd:0,1,1,2, surd:0,1,1,2 already collide "
                 "within one step")]:
            code, _, err = run(capsys, "delta", "--base", base, "--n", "64")
            assert code == 3
            assert err.startswith(f"resource error: {where}:")
            assert "rationally dependent" in err and "distinct" not in err

    def test_bad_flag_exit_code(self, capsys):
        assert run(capsys, "delta", "--nope")[0] == 2
        assert run(capsys, "no-such-command")[0] == 2


class TestSweepAndFit:
    def test_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--base", "prod:surd:0,1,1,2",
                           "--n", "16,32,64,128,256", "--out", str(tmp_path))
        assert code == 0
        csv_path = tmp_path / "sweep.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "n,delta_phi,delta_phi3,argmax"
        assert len(lines) == 7
        assert csv_path.read_bytes() == (
            b"# config=0f76206e236c cltdioph=0.1.0\n"
            b"n,delta_phi,delta_phi3,argmax\n"
            b"16,0.019445847263713456,,-0.40824829046386307\n"
            b"32,0.010141904272911506,,-0.28867513459481287\n"
            b"64,0.0049447404960546448,,-0.14433756729740646\n"
            b"128,0.0025884861517076474,,-0.20412414523193148\n"
            b"256,0.001270639632235504,,-0.14433756729740646\n")

        fit_path = tmp_path / "fit.json"
        code, out, _ = run(capsys, "fit", "--in", str(csv_path),
                           "--eta", "1.0", "--out", str(fit_path))
        assert code == 0
        assert out.startswith("exponent ")
        exponent = float(out.split()[1])
        assert -1.3 <= exponent <= -0.7
        loaded = json.loads(fit_path.read_text())
        assert loaded["constrained_exponent"] == -1.0
        fit_head = (b'{\n "exponent": -1.0455072317015568,\n'
                    b' "logpow": 0.2467398036895948,\n'
                    b' "r2": 0.9997717907516053,\n'
                    b' "window": [\n  16,\n  256\n ],\n')
        assert fit_path.read_bytes() == fit_head + (
            b' "constrained_exponent": -1.0,\n'
            b' "constrained_logpow": 0.06554440546564162\n}\n')
        run(capsys, "fit", "--in", str(csv_path), "--out", str(fit_path))
        assert fit_path.read_bytes() == fit_head + (
            b' "constrained_exponent": null,\n'
            b' "constrained_logpow": null\n}\n')

    def test_deterministic_output_bytes(self, capsys, tmp_path):
        args = ["sweep", "--base", "prod:surd:0,1,1,2",
                "--n", "8,16,32,64,128"]
        for sub in ("a", "b"):
            d = tmp_path / sub
            run(capsys, *args, "--out", str(d))

        assert (tmp_path / "a/sweep.csv").read_bytes() \
            == (tmp_path / "b/sweep.csv").read_bytes()

    def test_fit_missing_file(self, capsys):
        assert run(capsys, "fit", "--in", "/nonexistent.csv")[0] == 2


class TestDisc:
    def test_bench_output_unchanged(self, capsys):
        code, out, _ = run(capsys, "disc", "--alpha", "surd:0,1,1,2",
                           "--n", "16,256,4096,65536")
        assert code == 0
        assert out.splitlines() == [
            "16 0.088203435596425739", "256 0.0055693965738417006",
            "4096 0.00069836850802573736", "65536 3.6367147464133609e-05"]

    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "disc", "--alpha", "surd:0,1,1,2",
                           "--n", "1")
        assert code == 0
        assert abs(float(out.split()[1]) - 0.58579) < 5e-6

    def test_csv_out(self, capsys, tmp_path):
        path = tmp_path / "dstar.csv"
        code, _, _ = run(capsys, "disc", "--alpha", "surd:0,1,1,2",
                         "--n", "16,32,64", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "n,dstar" and len(lines) == 4
        assert path.read_bytes() == (
            b"n,dstar\n16,0.088203435596425739\n"
            b"32,0.045968625761429682\n64,0.025811754568578205\n")


class TestAvg:
    def test_prints_average_and_ratio(self, capsys):
        code, out, _ = run(capsys, "avg", "--n", "16", "--grid", "4")
        assert code == 0
        n, avg, ratio = out.split()
        assert n == "16" and 0.0 < float(avg) <= 1.0
        import math
        assert float(ratio) == pytest.approx(
            float(avg) * 16 / math.log(17.0), rel=1e-12)


    def test_bad_n_is_a_config_error(self, capsys):
        code, out, err = run(capsys, "avg", "--n", "0", "--grid", "4")
        assert code == 2 and out == ""
        assert err == "config error: n must be >= 1\n"


class TestCf:
    def test_growth_fit_and_spot_suite(self, capsys):
        code, out, _ = run(capsys, "cf", "--spec", "prod:surd:0,1,1,2",
                           "--tmax", "1e4")
        assert code == 0
        assert out.startswith("p_hat ")
        assert 1.7 <= float(out.split()[1]) <= 2.3
        assert "0 violations" in out

    def test_growth_fit_output_unchanged(self, capsys):
        code, out, _ = run(capsys, "cf", "--spec", "prod:surd:0,1,1,2",
                           "--tmax", "3e4")
        assert code == 0
        assert out.splitlines()[0] == (
            "p_hat 1.9952381913845509 q_hat 0.0026067999712271511"
            " residual 0.0081085691947101884 peaks 8")

    def test_non_finite_tmax_is_a_config_error(self, capsys):
        for tmax in ("inf", "nan"):
            code, out, err = run(capsys, "cf", "--spec", "prod:surd:0,1,1,2",
                                 "--tmax", tmax)
            assert code == 2 and out == ""
            assert err == ("config error: t_max must be finite and exceed "
                           f"10, got {tmax}\n")

    def test_degenerate_lattice(self, capsys):
        code, out, _ = run(capsys, "cf", "--spec", "prod:", "--tmax", "100")
        assert code == 0
        assert "degenerate" in out


def test_delta_does_not_import_mpmath():
    # only charfn's arbitrary-precision branch needs mpmath; importing it
    # eagerly would add its import time to every command
    code = ("import sys\n"
            "from cltdioph import cli\n"
            "assert cli.main(['delta', '--base', 'prod:surd:0,1,1,2',"
            " '--n', '64']) == 0\n"
            "sys.exit('mpmath' in sys.modules)\n")
    src = str(Path(cltdioph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("64 ")


def test_exit_hook_registered_once():
    # main freezes the heap at exit; calling it twice registers that once
    code = ("import gc\n"
            "from cltdioph import cli\n"
            "gc.freeze = lambda: print('frozen')\n"
            "cli.main(['delta', '--nope'])\n"
            "cli.main(['delta', '--nope'])\n")
    src = str(Path(cltdioph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "frozen\n"


def test_import_starts_no_pool_machinery():
    # avg imports multiprocessing when it runs, so no command pays for it
    # in its import
    code = ("import sys\n"
            "import cltdioph.cli\n"
            "sys.exit('multiprocessing' in sys.modules)\n")
    src = str(Path(cltdioph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestBounds:
    def test_report(self, capsys, tmp_path):
        path = tmp_path / "bounds.json"
        code, out, _ = run(capsys, "bounds", "--base", "prod:surd:0,1,1,2",
                           "--n", "64,256", "--out", str(path))
        assert code == 0
        loaded = json.loads(path.read_text())
        assert len(loaded) == 2
        # the bound must actually dominate the exact distance
        assert all(rec["ratio"] > 1.0 for rec in loaded)
        assert path.read_bytes() == (
            b'[\n {\n  "moment_term": 0.02951388888888888,\n'
            b'  "cutoff_term": 0.031864593442775285,\n'
            b'  "tail_integral": 4.443394483424247e-10,\n'
            b'  "rhs_total": 0.061378482776003614,\n'
            b'  "T": 2.264858134101384,\n  "T0": 5.820855000871992,\n'
            b'  "n": 64,\n  "non_decaying_tail": false,\n'
            b'  "delta_n": 0.004944740496054645,\n'
            b'  "ratio": 12.41288250110938\n },\n'
            b' {\n  "moment_term": 0.00737847222222222,\n'
            b'  "cutoff_term": 0.009198515800902148,\n'
            b'  "tail_integral": 6.658475003337454e-34,\n'
            b'  "rhs_total": 0.016576988023124368,\n'
            b'  "T": 3.9228493601992427,\n  "T0": 11.641710001743984,\n'
            b'  "n": 256,\n  "non_decaying_tail": false,\n'
            b'  "delta_n": 0.001270639632235504,\n'
            b'  "ratio": 13.046175801993197\n }\n]\n')

    def test_non_finite_constants_are_config_errors(self, capsys):
        for flag, value, want in [("--p", "inf", "p = inf, a_const = 1.0"),
                                  ("--p", "nan", "p = nan, a_const = 1.0"),
                                  ("--a-const", "inf", "p = 2.0, a_const = inf"),
                                  ("--a-const", "nan", "p = 2.0, a_const = nan")]:
            code, out, err = run(capsys, "bounds", "--base",
                                 "prod:surd:0,1,1,2", "--n", "64", flag, value)
            assert code == 2 and out == ""
            assert err == ("config error: p and a_const must be positive and "
                           f"finite, got {want}\n")
