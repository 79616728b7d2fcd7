"""Command-line front end for every pipeline in the package.

Exit codes: 0 success, 2 configuration error, 3 resource or precision
exhaustion, 4 internal error. All floating output uses 17 significant
digits. Only this module writes files; sweep.csv starts with a
config-hash header line and the delta JSON has the hash under "config".
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, bounds, charfn, rates
from .charfn import CharSpec
from .dioph import AlphaSpec
from .distkit import bernoulli_base, kolmogorov_distance, zn_slabs
# not called here: bench/replay.py rebinds cli.moments and cli.zn_dist with
# the other layer entry points, and tests/test_bench_layers.py checks that
# the names exist
from .distkit import moments, zn_dist  # noqa: F401
from .edgeworth import comparison_for
from .errors import PrecisionExhausted, QuadratureFailure, SupportOverflow

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _config_hash(args: argparse.Namespace) -> str:
    # the hash covers the scientific configuration only, so identical runs
    # sent to different destinations produce identical headers
    skip = {"func", "out", "infile"}
    items = [(k, v) for k, v in sorted(vars(args).items()) if k not in skip]
    return hashlib.sha256(repr(items).encode()).hexdigest()[:12]


def _header_line(args: argparse.Namespace) -> str:
    return f"# config={_config_hash(args)} cltdioph={__version__}"


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=1) + "\n")


def _n_list(text: str) -> list[int]:
    ns = [int(part) for part in text.split(",") if part]
    if not ns or any(n < 1 for n in ns):
        raise ValueError("n values must be positive integers")
    return ns


def cmd_delta(args) -> int:
    if args.n < 1:
        raise ValueError("n must be >= 1")
    base = bernoulli_base(CharSpec.parse(args.base))
    res = kolmogorov_distance(zn_slabs(base, args.n),
                              comparison_for(args.target, base, args.n))
    print(f"{args.n} {_fmt(res.delta)} {_fmt(res.argmax)} {res.side}")
    if args.out:
        payload = {"n": args.n, "delta": res.delta, "argmax": res.argmax,
                   "side": res.side, "error_bound": res.error_bound,
                   "target": args.target,
                   "base": args.base, "config": _config_hash(args)}
        _write_json(args.out, payload)
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = bernoulli_base(CharSpec.parse(args.base))
    ns = _n_list(args.n)
    sweep = rates.delta_sweep(base, ns)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    with open(path, "w", newline="") as fh:
        fh.write(_header_line(args) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "delta_phi", "delta_phi3", "argmax"])
        for r in sweep.rows:
            w.writerow([r.n, _fmt(r.delta_phi),
                        "" if r.delta_phi3 is None else _fmt(r.delta_phi3),
                        _fmt(r.argmax)])
    for r in sweep.rows:
        print(f"{r.n} {_fmt(r.delta_phi)}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    ns, deltas = [], []
    with open(args.infile) as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader)
        n_col = header.index("n")
        d_col = header.index("delta_phi")
        for row in reader:
            ns.append(int(row[n_col]))
            deltas.append(float(row[d_col]))
    fit = rates.rate_fit(ns, deltas, args.eta)
    print(f"exponent {_fmt(fit.exponent)} logpow {_fmt(fit.logpow)} "
          f"r2 {_fmt(fit.r2)}")
    if fit.constrained_logpow is not None:
        print(f"constrained_exponent {_fmt(fit.constrained_exponent)} "
              f"constrained_logpow {_fmt(fit.constrained_logpow)}")
    if args.out:
        _write_json(args.out, asdict(fit))
    return EXIT_OK


def cmd_avg(args) -> int:
    average, ratio = rates.avg_delta(args.n, args.grid)
    print(f"{args.n} {_fmt(average)} {_fmt(ratio)}")
    return EXIT_OK


def cmd_disc(args) -> int:
    alpha = AlphaSpec.parse(args.alpha)
    rows = [(n, rates.star_discrepancy(alpha, n)) for n in _n_list(args.n)]
    for n, d in rows:
        print(f"{n} {_fmt(d)}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [("n", "dstar")] + [(n, _fmt(d)) for n, d in rows])
    return EXIT_OK


def cmd_cf(args) -> int:
    spec = CharSpec.parse(args.spec)
    fit = charfn.growth_fit(spec, args.tmax)
    if fit.degenerate:
        print("degenerate lattice: |f| returns to 1, no growth law")
        return EXIT_OK
    q_text = "not_identifiable" if fit.q_hat is None else _fmt(fit.q_hat)
    print(f"p_hat {_fmt(fit.p_hat)} q_hat {q_text} "
          f"residual {_fmt(fit.residual)} peaks {len(fit.sample)}")
    xs = np.random.default_rng(0).uniform(-10, 10, 10 ** 4)
    failures = sum(not charfn.ineq61_check(float(x)).passed for x in xs)
    print(f"cosine inequality spot suite: {failures} violations "
          f"out of {xs.size}")
    return EXIT_OK if failures == 0 else EXIT_INTERNAL


def cmd_bounds(args) -> int:
    base = bernoulli_base(CharSpec.parse(args.base))
    records = []
    for n in _n_list(args.n):
        t_n = bounds.prop22_cutoff(args.p, 0.0, n, args.a_const)
        rep = bounds.lemma21_rhs(base, n, max(t_n, 1.0))
        delta = kolmogorov_distance(zn_slabs(base, n),
                                    comparison_for("phi", base, n)).delta
        ratio = rep.rhs_total / delta
        record = dict(asdict(rep), delta_n=delta, ratio=ratio)
        records.append(record)
        print(f"{n} rhs {_fmt(rep.rhs_total)} delta {_fmt(delta)} "
              f"ratio {_fmt(ratio)}")
    if args.out:
        _write_json(args.out, records)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cltdioph",
        description="exact CLT-rate and Diophantine-approximation pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="one-shot Kolmogorov distance")
    p.add_argument("--base", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", choices=["phi", "phi3"], default="phi")
    p.add_argument("--out")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("sweep", help="distance sweep over n")
    p.add_argument("--base", required=True)
    p.add_argument("--n", required=True, help="comma-separated n values")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="rate regression on a sweep CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eta", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("avg", help="average distance over an alpha grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=256)
    p.set_defaults(func=cmd_avg)

    p = sub.add_parser("disc", help="star discrepancy of {k alpha}")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", required=True, help="comma-separated n values")
    p.add_argument("--out")
    p.set_defaults(func=cmd_disc)

    p = sub.add_parser("cf", help="characteristic-function growth fit")
    p.add_argument("--spec", required=True)
    p.add_argument("--tmax", type=float, default=1e4)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("bounds", help="smoothing-bound sweep diagnostics")
    p.add_argument("--base", required=True)
    p.add_argument("--n", required=True, help="comma-separated n values")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--a-const", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    # at exit, freeze the heap rather than collect it object by object;
    # every file written here is closed by then, so no finalizer is lost
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SupportOverflow, PrecisionExhausted, QuadratureFailure) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
