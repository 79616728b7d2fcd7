"""Benchmark of the cltdioph command line: seeded closed-loop workloads.

    python3 bench/run.py --workload {zn_product,zn_mixture,analysis}
                         --seed N --seconds S --trace {0,1}
                         [--write-reference]

Run it from the root of a source checkout; the package is imported from
``src/``.  A workload is a fixed list of operations that one client runs
one after another (closed loop, no concurrency).  Each operation is a
fresh interpreter (``bench/child.py``) that imports ``cltdioph.cli`` and
calls ``cli.main(argv)`` or the library call ``dioph.type_estimate``.  The
seed picks the step height of every operation among the square-free
surds sqrt(d); for irrational steps the grid sizes, and so the work, do
not depend on which one is drawn.

``--trace 0`` runs passes over the workload until ``--seconds`` is spent
and prints the end-to-end metrics: wall and compute time as the sum over
the operations of each one's fastest run, set-up time as the sum of their
median runs, and the largest median peak memory.  Each time leaves out
the host steal time that accrued during it (``bench/hoststeal.py``), and
the three are scaled by the median time of a fixed calibration load
(``bench/calibrate.py``) that runs after every pass, so that slow phases
of a shared host cancel out.
``--trace 1`` follows each pass with an in-process replay
(``bench/replay.py``) that runs every operation once to warm up, then
untraced and traced, and prints the per-layer metrics, medians over the replays; the
spans are written to ``bench/out/`` as JSON lines.

Every output is checked against invariants (0 < Delta_n <= the
Berry-Esseen bound, no spot-check violations, ...) and, where
``bench/reference.json`` holds the same operation, against the stored
values at 1e-12 relative.  The reference was written with
``--seed 0 --write-reference``.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hoststeal import steal_seconds

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("zn_product", "zn_mixture", "analysis")
SURDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15)
# below t = 3e4 the characteristic functions of sqrt(5), sqrt(10) and
# sqrt(11) have fewer than the eight record peaks growth_fit needs (it
# stops with InsufficientPeaks, exit 2), so the cf operation skips them
CF_SURDS = tuple(d for d in SURDS if d not in (5, 10, 11))
BERRY_ESSEEN = 0.4748
REL_TOL = 1e-12
OP_TIMEOUT = 60.0
# end-to-end times are scaled to a host on which bench/calibrate.py takes
# this long, host steal left out (about its median on the 2-vCPU Xeon VM
# the benchmark was written on)
NOMINAL_CALIBRATION_S = 1.0
# accepted by the spec grammar but ending in exit 3 ("distinct lattice
# atoms collide"); mixture n = 256 (SupportOverflow) is left out only
# because it takes about 14 s before it fails
PROBES = (("delta", "--base", "prod:rat:1/3", "--n", "64"),
          ("delta", "--base", "prod:surd:0,1,1,2,surd:0,1,1,2", "--n", "64"))


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv, or the type_estimate library call."""

    id: str
    kind: str  # "cli" or "type_estimate"
    args: tuple[str, ...]
    d: int | None = None  # the step height is sqrt(d)
    form: str = "prod"  # base form, for the Berry-Esseen bound

    @property
    def name(self) -> str:
        return self.args[0] if self.kind == "cli" else self.kind

    @property
    def key(self) -> str:
        return " ".join((self.kind,) + self.args)

    def flag(self, name: str) -> str:
        return dict(zip(self.args[1::2], self.args[2::2]))[name]


@dataclass
class OpResult:
    op: Op
    wall: float
    setup: float = 0.0
    compute: float = 0.0
    rss_mb: float = 0.0
    steal: float = 0.0  # host steal time taken out of wall
    stdout: str = ""
    problems: list[str] = field(default_factory=list)


def surd(d: int) -> str:
    return f"surd:0,1,1,{d}"


def workload_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(seed)
    if workload == "zn_product":
        d = rng.choice(SURDS)
        return [Op("zn_product.delta", "cli",
                   ("delta", "--base", f"prod:{surd(d)}", "--n", "4096",
                    "--target", "phi3"), d)]
    if workload == "zn_mixture":
        d = rng.choice(SURDS)
        return [Op("zn_mixture.delta", "cli",
                   ("delta", "--base", f"mix:0.5:{surd(d)}=0.5", "--n", "96"),
                   d, "mix")]
    d_cf = rng.choice(CF_SURDS)
    d_bounds, d_sweep, d_disc, d_type = (rng.choice(SURDS) for _ in range(4))
    return [
        Op("analysis.cf", "cli",
           ("cf", "--spec", f"prod:{surd(d_cf)}", "--tmax", "3e4"), d_cf),
        Op("analysis.bounds", "cli",
           ("bounds", "--base", f"prod:{surd(d_bounds)}",
            "--n", "64,128,256,512", "--p", "1", "--a-const", "3"), d_bounds),
        Op("analysis.sweep", "cli",
           ("sweep", "--base", f"prod:{surd(d_sweep)}",
            "--n", "64,128,256,512,1024", "--out", "bench/out/sweep"),
           d_sweep),
        Op("analysis.avg", "cli", ("avg", "--n", "256", "--grid", "128")),
        Op("analysis.disc", "cli",
           ("disc", "--alpha", surd(d_disc), "--n", "16,256,4096,65536"),
           d_disc),
        Op("analysis.type_estimate", "type_estimate",
           (surd(d_type), str(10 ** 5)), d_type),
    ]


# ---------------------------------------------------------------------------
# output checks


def value_lines(stdout: str) -> list[str]:
    """The printed values of an operation, without output-file paths."""
    return [line for line in stdout.splitlines()
            if line and not line.startswith("wrote ")]


def close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def same_values(expected: list[str], got: list[str]) -> bool:
    """Token-wise equality, numbers within REL_TOL relative."""
    if len(expected) != len(got):
        return False
    for line_e, line_g in zip(expected, got):
        tok_e, tok_g = line_e.split(), line_g.split()
        if len(tok_e) != len(tok_g):
            return False
        for a, b in zip(tok_e, tok_g):
            if a == b:
                continue
            try:
                if not close(float(a), float(b)):
                    return False
            except ValueError:
                return False
    return True


def berry_esseen(op: Op, n: int) -> float:
    """0.4748 beta3 / (sigma^3 sqrt n) for the operation's symmetric base."""
    a = math.sqrt(op.d)
    if op.form == "prod":  # atoms +-1 +- a
        sigma2, beta3 = 1.0 + a * a, ((1.0 + a) ** 3 + abs(1.0 - a) ** 3) / 2
    else:  # equal mixture of B_1 and B_a
        sigma2, beta3 = (1.0 + a * a) / 2, (1.0 + a ** 3) / 2
    return BERRY_ESSEEN * beta3 / (sigma2 ** 1.5 * math.sqrt(n))


def delta_problems(op: Op, n: int, delta: float) -> list[str]:
    if not 0.0 < delta <= 1.0:
        return [f"Delta_{n} = {delta} outside (0, 1]"]
    if op.d is not None and delta > berry_esseen(op, n):
        return [f"Delta_{n} = {delta} above the Berry-Esseen bound "
                f"{berry_esseen(op, n)}"]
    return []


def n_values(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def invariant_problems(op: Op, lines: list[str]) -> list[str]:
    rows = [line.split() for line in lines]
    name = op.name
    if name == "delta":
        (n, delta, argmax, side), = rows
        problems = delta_problems(op, int(n), float(delta))
        if int(n) != int(op.flag("--n")) or side not in ("left", "right") \
                or not math.isfinite(float(argmax)):
            problems.append(f"malformed delta line {lines[0]!r}")
        return problems
    if name == "sweep":
        problems = []
        if [int(r[0]) for r in rows] != n_values(op.flag("--n")):
            problems.append("sweep rows do not match --n")
        for n, delta in rows:
            problems += delta_problems(op, int(n), float(delta))
        with open(ROOT / op.flag("--out") / "sweep.csv", newline="") as fh:
            table = list(csv.reader(l for l in fh if not l.startswith("#")))
        if [r[:2] for r in table[1:]] != rows:
            problems.append("sweep.csv does not match the printed values")
        return problems
    if name == "bounds":
        problems = []
        for n, _, rhs, _, delta, _, ratio in rows:
            problems += delta_problems(op, int(n), float(delta))
            if not (0.0 < float(rhs) < math.inf
                    and close(float(ratio), float(rhs) / float(delta))):
                problems.append(f"inconsistent bounds row n={n}")
        return problems
    if name == "avg":
        (n, average, ratio), = rows
        n, average, grid = int(n), float(average), int(op.flag("--grid"))
        # base +-1 +- a: sigma^2 = 1 + a^2, beta3 = 1 + 3 a^2 for a < 1
        bound = max(BERRY_ESSEEN * (1 + 3 * a * a) / ((1 + a * a) ** 1.5
                                                       * math.sqrt(n))
                    for a in ((2 * i + 1) / (2 * grid) for i in range(grid)))
        if not (0.0 < average <= min(1.0, bound)
                and close(float(ratio), average * n / math.log(n + 1.0))):
            return [f"avg {average} outside (0, {bound}] or bad ratio"]
        return []
    if name == "disc":
        if [int(r[0]) for r in rows] != n_values(op.flag("--n")):
            return ["disc rows do not match --n"]
        return [f"D*_{n} = {d} outside [1/(2n), 1]" for n, d in rows
                if not 1.0 / (2 * int(n)) - 1e-15 <= float(d) <= 1.0]
    if name == "cf":
        p_hat, peaks = float(rows[0][1]), int(rows[0][7])
        problems = []
        if not math.isfinite(p_hat) or peaks != 8:
            problems.append(f"bad growth fit {lines[0]!r}")
        if rows[1][4] != "0" or rows[1][5] != "violations":
            problems.append(f"spot check failed: {lines[1]!r}")
        return problems
    if name == "type_estimate":
        (_, eta, _, _, _, _, _, degenerate), = rows
        n_max = int(op.args[1])
        # a convergent denominator q in [sqrt(n_max), n_max] has
        # ||q alpha|| < 1/q, so the windowed exponent exceeds this
        floor = 1.0 - math.log(2.0) / math.log(math.isqrt(n_max))
        if degenerate != "0" or not floor < float(eta) < math.inf:
            return [f"type estimate {lines[0]!r} not above {floor}"]
        return []
    return [f"no check for operation {name!r}"]


def check(op: Op, rc: int, stdout: str, stderr: str,
          reference: dict) -> list[str]:
    if rc != 0:
        return [f"exit {rc}: {stderr.strip()[-300:]}"]
    lines = value_lines(stdout)
    try:
        problems = invariant_problems(op, lines)
    except (ValueError, IndexError, KeyError, OSError) as exc:
        problems = [f"unreadable output ({exc!r}): {lines!r}"]
    if op.key in reference and not same_values(reference[op.key], lines):
        problems.append(f"differs from reference {reference[op.key]!r}")
    return problems


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


@dataclass
class Spawned:
    start: float
    end: float
    rc: int
    out: str
    err: str
    steal_start: float
    steal_end: float

    def result(self):
        """The JSON object on the last output line, None if there is none."""
        lines = self.out.strip().splitlines()
        if self.rc != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except ValueError:
            return None


def spawn(argv: list[str]) -> Spawned:
    """Run the interpreter with argv, wait for it to end, time it."""
    steal_start = steal_seconds()
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nkilled after {OP_TIMEOUT} s"
    end = time.monotonic()
    return Spawned(start, end, proc.returncode, out, err, steal_start,
                   steal_seconds())


def run_op(op: Op, reference: dict) -> OpResult:
    s = spawn([str(BENCH / "child.py"), op.kind, *op.args])
    steal = s.steal_end - s.steal_start
    result = OpResult(op, s.end - s.start - steal, steal=steal)
    rep = s.result()
    if rep is None:
        result.problems = [f"child exit {s.rc}: {s.err.strip()[-300:]}"]
        return result
    result.setup = (rep["imported"] - s.start
                    - (rep["steal_imported"] - s.steal_start))
    result.compute = (rep["done"] - rep["imported"]
                      - (rep["steal_done"] - rep["steal_imported"]))
    result.rss_mb = rep["maxrss_kb"] / 1024.0
    result.stdout = rep["stdout"]
    result.problems = check(op, rep["rc"], rep["stdout"], rep["stderr"],
                            reference)
    return result


def warm_up() -> None:
    """Check that src/ holds the package and compile it once, untimed."""
    cli = SRC / "cltdioph" / "cli.py"
    if not cli.is_file():
        raise SetupError(f"no package source at {cli}")
    s = spawn(["-c", "import cltdioph.cli as c; print(c.__file__)"])
    if s.rc != 0 or Path(s.out.strip()).resolve() != cli.resolve():
        raise SetupError(f"cannot import cltdioph.cli from {SRC}: "
                         f"{s.err.strip()[-300:]}")


def import_split() -> dict[str, float]:
    """Import time of cltdioph.cli, own modules vs dependencies.

    From ``python -X importtime`` in a fresh interpreter; the marker keeps
    the interpreter's own start-up imports out of the sum.
    """
    s = spawn(["-X", "importtime", "-c",
               "import sys; sys.stderr.write('MARK\\n'); import cltdioph.cli"])
    if s.rc != 0:
        raise SetupError(f"import failed: {s.err.strip()[-300:]}")
    rows = []
    for line in s.err.split("MARK\n", 1)[1].splitlines():
        if line.startswith("import time:") and "|" in line:
            own, cumulative, name = line[len("import time:"):].split("|")
            if own.strip().isdigit():
                rows.append((int(own), int(cumulative), name))
    top = min(len(name) - len(name.lstrip()) for _, _, name in rows)
    total = sum(cum for _, cum, name in rows
                if len(name) - len(name.lstrip()) == top)
    own = sum(self_us for self_us, _, name in rows
              if name.strip().split(".")[0] == "cltdioph")
    return {"cli.import_s": total / 1e6, "cli.import_self_s": own / 1e6,
            "cli.import_deps_s": (total - own) / 1e6}


# ---------------------------------------------------------------------------
# passes


def traced_pass(ops: list[Op], untraced: list[OpResult], path: Path,
                index: int):
    """Replay the pass in one interpreter, untraced and traced.

    Returns the per-layer metrics (None if the replay failed), the spans,
    and one problem per operation whose replay went wrong.  ``index`` is
    the pass number; it decides whether the untraced or the traced run of
    each operation comes first.
    """
    path.write_text(json.dumps({
        "untraced_first": index % 2 == 0,
        "ops": [{"id": op.id, "kind": op.kind, "args": list(op.args)}
                for op in ops]}))
    s = spawn([str(BENCH / "replay.py"), str(path)])
    rep = s.result()
    if rep is None:
        return None, [], [f"{op.id}: replay exit {s.rc}: "
                          f"{s.err.strip()[-300:]}" for op in ops]
    problems = [f"{r.op.id}: replay exit {got['rc']} or values that "
                f"differ from the CLI run"
                for r, got in zip(untraced, rep["ops"])
                if got["rc"] != 0
                or value_lines(got["stdout"]) != value_lines(r.stdout)]
    m = dict(rep["self_times"], **rep["counts"])
    m["trace.compute_s"] = sum(o["compute"] for o in rep["ops"])
    m["trace.untraced_compute_s"] = sum(o["untraced"] for o in rep["ops"])
    m["trace.overhead_s"] = (m["trace.compute_s"]
                             - m["trace.untraced_compute_s"])
    grid = m["distkit.grid_atoms"]
    m["distkit.atom_yield"] = m["distkit.atoms"] / grid if grid else 0.0
    m["distkit.rss_bytes_per_atom"] = (rep["maxrss_kb"] * 1024.0
                                       / rep["max_atoms"]
                                       if rep["max_atoms"] else 0.0)
    return m, rep["spans"], problems


def calibrate() -> float:
    """Time of the calibration load, host steal left out."""
    s = spawn([str(BENCH / "calibrate.py")])
    if s.rc != 0:
        raise SetupError(f"calibration failed: {s.err.strip()[-300:]}")
    return s.end - s.start - (s.steal_end - s.steal_start)


def probe_failures(reference: dict) -> int:
    """Run the grammar probes, untimed; count those without a valid answer."""
    failures = 0
    for args in PROBES:
        result = run_op(Op("probe", "cli", args), reference)
        if result.problems:
            failures += 1
            print(f"probe {' '.join(args)}: {result.problems[0]}")
    return failures


def l3_bytes() -> int | None:
    """Size of the level-3 cache, from sysfs; None where it is not listed."""
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            continue
    return None


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def end_to_end(passes: list[list[OpResult]],
               calibration: list[float]) -> dict[str, float]:
    """The end-to-end metrics of a run from the results of its passes.

    On a shared host, other load only ever adds time.  The part of it
    that the host counts as steal is already out of every time.  The
    rest comes in bursts, which the fastest of several runs of an
    operation leaves out, and in phases of slower execution that last
    minutes, which the calibration load slows down with.  So ``wall_s``
    and ``compute_s`` add up the fastest time of each operation and
    ``setup_s`` the median set-up time of each operation, all three
    scaled by NOMINAL_CALIBRATION_S over the median calibration of the
    run; ``peak_rss_mb`` is the largest median peak RSS of an operation.
    """
    runs = [[p[i] for p in passes if i < len(p)]
            for i in range(len(passes[0]))]
    steal = [r.steal for p in passes for r in p]
    scale = NOMINAL_CALIBRATION_S / statistics.median(calibration)
    e2e = {"setup_s": sum(statistics.median(r.setup for r in rs)
                          for rs in runs),
           "wall_s": sum(min(r.wall for r in rs) for rs in runs),
           "compute_s": sum(min(r.compute for r in rs) for rs in runs)}
    print("runs of each op: " + "/".join(str(len(rs)) for rs in runs)
          + f"; host steal taken out: {sum(steal):.4g} s in all, at most"
          f" {max(steal):.4g} s from one run")
    print(f"calibration: median {statistics.median(calibration):.4g} s of "
          f"{len(calibration)}, scale {scale:.4g}; unscaled: "
          + ", ".join(f"{k} {v:.4g} s" for k, v in e2e.items()))
    e2e = {k: v * scale for k, v in e2e.items()}
    e2e["peak_rss_mb"] = max(statistics.median(r.rss_mb for r in rs)
                             for rs in runs)
    return e2e


def report(metrics: dict[str, float], declared: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, in its order, with units."""
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


@dataclass
class Measurement:
    """Everything one run measured, before medians are taken."""

    untraced: list[list[OpResult]] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)
    traced: list[dict[str, float]] = field(default_factory=list)
    imports: list[dict[str, float]] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure(ops: list[Op], workload: str, seconds: float, trace: bool,
            reference: dict) -> Measurement:
    """Run passes over ops until the next step would overrun ``seconds``.

    A step is one operation, and the calibration after the last one of a
    pass, so that little of the time goes unused; the last pass may be
    cut short.  Traced, a step is a whole pass and its replay.
    """
    run = Measurement()
    start = time.monotonic()
    longest = 0.0
    while True:
        pass_began = time.monotonic()
        results: list[OpResult] = []
        run.untraced.append(results)
        for op in ops:
            began = time.monotonic()
            result = run_op(op, reference)
            results.append(result)
            run.attempted += 1
            run.failed += bool(result.problems)
            for problem in result.problems:
                print(f"FAILED {op.id}: {problem}", file=sys.stderr)
            if len(run.untraced) == 1:
                print(f"value {op.id} | {op.key} | "
                      + " ; ".join(value_lines(result.stdout)))
            if trace:
                continue
            if len(results) == len(ops):
                run.calibration.append(calibrate())
            now = time.monotonic()
            longest = max(longest, now - began)
            if len(run.untraced[0]) == len(ops) \
                    and now - start + longest > seconds:
                print(f"{run.attempted} operations over {now - start:.1f} s")
                return run
        if not trace:
            continue
        run.imports.append(import_split())
        layer, spans, problems = traced_pass(
            ops, results, OUT / f"ops_{workload}.json", len(run.imports))
        run.attempted += len(ops)
        run.failed += min(len(problems), len(ops))
        for problem in problems:
            print(f"FAILED traced {problem}", file=sys.stderr)
        if layer is not None:
            run.traced.append(layer)
            index = len(run.untraced) - 1
            run.spans += [dict(s, **{"pass": index}) for s in spans]
        now = time.monotonic()
        longest = max(longest, now - pass_began)
        if now - start + longest > seconds:
            print(f"passes {len(run.untraced)} over {now - start:.1f} s")
            return run


def layer_metrics(run: Measurement, probes: int) -> dict[str, float]:
    """Per-layer medians over the traced replays."""
    layer = medians(run.traced)
    layer.update(medians(run.imports))
    layer["probe_failures"] = probes
    # time that no layer span covers lands in cli.self_s; a large share
    # means a layer entry point is missing from bench/replay.py
    print(f"cli self time {layer['cli.self_s']:.4g} s, "
          f"{layer['cli.self_s'] / layer['trace.compute_s']:.1%} "
          f"of the traced compute")
    l3 = l3_bytes()
    grid = layer["distkit.grid_bytes"]
    print(f"working set: largest grid {grid:.0f} B (computed)"
          + (f", L3 {l3} B, ratio {grid / l3:.3g}" if l3 else
             ", L3 size unknown"))
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs in reference.json")
    args = parser.parse_args(argv)
    try:
        warm_up()
        spec = json.loads(SPEC.read_text())
    except (SetupError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = {} if args.write_reference else stored
    ops = workload_ops(args.workload, args.seed)
    probes = probe_failures(reference) if args.trace else 0
    run = measure(ops, args.workload, args.seconds, bool(args.trace),
                  reference)

    print(f"ops attempted {run.attempted}, failed {run.failed}, "
          f"failed_frac {run.failed / run.attempted:.6g}")
    if args.write_reference:
        stored.update({r.op.key: value_lines(r.stdout)
                       for r in run.untraced[0] if not r.problems})
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True)
                             + "\n")
    if not args.trace:
        e2e = end_to_end(run.untraced, run.calibration)
        e2e["ok_frac"] = (run.attempted - run.failed) / run.attempted
        metrics = report(e2e, spec["end_to_end"])
    elif not run.traced:
        print("bench: no traced replay succeeded", file=sys.stderr)
        return 1
    else:
        metrics = report(layer_metrics(run, probes),
                         spec["per_layer"])
        span_file = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
        span_file.write_text("".join(json.dumps(s) + "\n" for s in run.spans))
        print(f"spans written to {span_file.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
