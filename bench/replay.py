"""Traced replay of benchmark operations, all in one interpreter.

    python3 bench/replay.py <ops.json>

``ops.json`` holds the operations of one pass, as bench/run.py writes
it.  Each operation is run here through the same entry point the
benchmark's child process calls (``child.capture``: ``cli.main(argv)`` or
``dioph.type_estimate``): once as it is, and once with a span around
every call into a layer.  The last line of standard output is one JSON
object with each operation's output and times, the spans, and the
per-layer self times and counts they add up to.

Layers are traced by rebinding their entry points in the namespaces the
program looks them up in (``cli.zn_dist``, ``rates.delta_sweep``,
``CharSpec.parse``, ...), in this process only and only for the traced
run, so the program's own code path is the one that is timed.  Spans are
named after the per-layer metrics of BENCHMARK.json (span
``distkit.zn_dist`` gives ``distkit.zn_dist_s``).  The root span of each
operation is ``cli``; time inside it that no other span covers is the
``cli`` self time.  The tracing overhead is the traced minus the untraced
time of the same operation.  Both are timed after one unmeasured run,
and which of the two comes first alternates with the pass.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from collections import defaultdict

import numpy as np
from cltdioph import bounds, charfn, cli, dioph, distkit, edgeworth, rates
from cltdioph.charfn import CharSpec
from cltdioph.dioph import AlphaSpec

from child import capture

#: span name -> per-layer metric that collects its self time
TIME_METRICS = {
    "cli": "cli.self_s",
    "dioph.parse": "dioph.parse_s",
    "dioph.type_estimate": "dioph.type_estimate_s",
    "distkit.zn_dist": "distkit.zn_dist_s",
    "distkit.moments": "distkit.moments_s",
    "distkit.kolmogorov": "distkit.kolmogorov_self_s",
    "edgeworth.G": "edgeworth.G_s",
    "edgeworth.stationary": "edgeworth.stationary_s",
    "charfn.growth_fit": "charfn.growth_fit_s",
    "charfn.spot_check": "charfn.spot_check_s",
    "bounds.lemma21": "bounds.lemma21_s",
    "rates.delta_sweep": "rates.delta_sweep_s",
    "rates.avg_delta": "rates.avg_delta_s",
    "rates.star_discrepancy": "rates.star_discrepancy_s",
}

COUNT_METRICS = (
    "dioph.type_estimate_n", "distkit.atoms", "distkit.grid_atoms",
    "distkit.bytes", "distkit.grid_bytes", "edgeworth.G_points",
    "charfn.peaks_scanned", "bounds.panels", "bounds.cutoff_T",
    "rates.avg_alphas",
)


class Tracer:
    """Spans and counts of one replay, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span duration minus its direct children."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(TIME_METRICS.values(), 0.0)
        for s, inner in zip(self.spans, child_time):
            out[TIME_METRICS[s["name"]]] += s["end"] - s["start"] - inner
        return out


class TracedComparison:
    """A comparison function G whose evaluations are edgeworth spans."""

    def __init__(self, G, tracer: Tracer):
        self._G = G
        self._tracer = tracer

    def __call__(self, x):
        self._tracer.counts["edgeworth.G_points"] += np.size(x)
        with self._tracer.span("edgeworth.G"):
            return self._G(x)

    def stationary_points(self):
        with self._tracer.span("edgeworth.stationary"):
            return self._G.stationary_points()


class Layers:
    """Traced stand-ins for the layer entry points the program calls."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.max_atoms = 0
        span = self._spanned
        zn = self._zn_dist(distkit.zn_dist)
        mom = span("distkit.moments", distkit.moments)
        kol = self._kolmogorov(distkit.kolmogorov_distance)
        parse = {cls: staticmethod(span("dioph.parse", cls.parse))
                 for cls in (CharSpec, AlphaSpec)}
        #: (namespace, name, traced stand-in); originals kept for uninstall
        self.bindings = [
            (CharSpec, "parse", parse[CharSpec]),
            (AlphaSpec, "parse", parse[AlphaSpec]),
            (dioph, "type_estimate",
             span("dioph.type_estimate", dioph.type_estimate,
                  self._count_type_estimate)),
            (cli, "zn_dist", zn), (rates, "zn_dist", zn),
            (bounds, "zn_dist", zn),
            (cli, "moments", mom), (rates, "moments", mom),
            (bounds, "moments", mom), (edgeworth, "moments", mom),
            (cli, "kolmogorov_distance", kol),
            (rates, "kolmogorov_distance", kol),
            (bounds, "kolmogorov_distance", kol),
            (distkit, "convolve", self._counted(distkit.convolve,
                                                self._count_convolve)),
            (charfn, "growth_fit",
             span("charfn.growth_fit", charfn.growth_fit)),
            (charfn, "_refine_peak",
             self._counted(charfn._refine_peak, self._count_peak)),
            (charfn, "ineq61_check",
             span("charfn.spot_check", charfn.ineq61_check)),
            (bounds, "lemma21_rhs",
             span("bounds.lemma21", bounds.lemma21_rhs, self._count_T)),
            (bounds, "quad", self._counted(bounds.quad, self._count_panel)),
            (rates, "delta_sweep",
             span("rates.delta_sweep", rates.delta_sweep)),
            (rates, "avg_delta", self._avg_delta(rates.avg_delta)),
            (rates, "star_discrepancy",
             span("rates.star_discrepancy", rates.star_discrepancy)),
        ]
        self.originals = [(ns, name, ns.__dict__[name])
                          for ns, name, _ in self.bindings]

    def install(self) -> None:
        for ns, name, stand_in in self.bindings:
            setattr(ns, name, stand_in)

    def uninstall(self) -> None:
        for ns, name, original in self.originals:
            setattr(ns, name, original)

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn, count=None):
        def traced(*args, **kwargs):
            with self.t.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(result, *args, **kwargs)
            return result
        return traced

    def _counted(self, fn, count):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(result, *args, **kwargs)
            return result
        return counted

    def _kolmogorov(self, fn):
        def traced(d, G):
            with self.t.span("distkit.kolmogorov"):
                return fn(d, TracedComparison(G, self.t))
        return traced

    def _zn_dist(self, fn):
        def traced(base, n, *args, **kwargs):
            grid_before = self.t.counts["distkit.grid_atoms"]
            with self.t.span("distkit.zn_dist"):
                z = fn(base, n, *args, **kwargs)
            if self.t.counts["distkit.grid_atoms"] == grid_before:
                # no convolution: the product-of-binomials path builds the
                # full (n+1)^(m+1) grid
                m = z.lattice.m if z.lattice is not None else 0
                self._count_grid((n + 1) ** (m + 1), m + 1)
            arrays = [z.positions, z.weights, z._cum]
            if z.lattice is not None:
                arrays.append(z.lattice.coords)
            self.t.counts["distkit.atoms"] += len(z)
            self.t.counts["distkit.bytes"] += sum(a.nbytes for a in arrays)
            self.max_atoms = max(self.max_atoms, len(z))
            return z
        return traced

    def _avg_delta(self, fn):
        def traced(*args, **kwargs):
            first = len(self.t.spans)
            with self.t.span("rates.avg_delta"):
                result = fn(*args, **kwargs)
            # one Kolmogorov distance per alpha of the grid
            self.t.counts["rates.avg_alphas"] += sum(
                s["name"] == "distkit.kolmogorov"
                for s in self.t.spans[first:])
            return result
        return traced

    # -- counts ---------------------------------------------------------------

    def _count_type_estimate(self, te, *args, **kwargs):
        self.t.counts["dioph.type_estimate_n"] += te.n_max

    def _count_grid(self, atoms: int, width: int) -> None:
        # computed bytes of one grid: positions, weights, integer coordinates
        self.t.counts["distkit.grid_atoms"] += atoms
        self.t.counts["distkit.grid_bytes"] = max(
            self.t.counts["distkit.grid_bytes"], atoms * (16 + 8 * width))

    def _count_convolve(self, result, d1, d2, *args, **kwargs):
        # the outer product is built in full before the exact merge
        width = d1.lattice.coords.shape[1] if d1.lattice is not None else 0
        self._count_grid(len(d1) * len(d2), width)

    def _count_peak(self, result, *args, **kwargs):
        self.t.counts["charfn.peaks_scanned"] += 1

    def _count_T(self, report, *args, **kwargs):
        self.t.counts["bounds.cutoff_T"] += report.T

    def _count_panel(self, result, *args, **kwargs):
        self.t.counts["bounds.panels"] += 1


def main() -> None:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    tracer = Tracer()
    layers = Layers(tracer)
    results = []
    for op in spec["ops"]:
        tracer.op = op["id"]
        # the first run of an operation in a process is slower (fresh
        # memory, first calls) by more than the tracing costs; leave it out
        capture(op["kind"], op["args"])
        for traced in ((False, True) if spec["untraced_first"]
                       else (True, False)):
            if traced:
                layers.install()
                root = len(tracer.spans)
                try:
                    with tracer.span("cli"):
                        rc, stdout, stderr = capture(op["kind"], op["args"])
                finally:
                    layers.uninstall()
                span = tracer.spans[root]
                compute = span["end"] - span["start"]
            else:
                start = time.perf_counter()
                capture(op["kind"], op["args"])
                untraced = time.perf_counter() - start
        results.append({"id": op["id"], "rc": rc, "stdout": stdout,
                        "stderr": stderr, "compute": compute,
                        "untraced": untraced})
    counts = {name: tracer.counts[name] for name in COUNT_METRICS}
    print(json.dumps({
        "ops": results, "spans": tracer.spans,
        "self_times": tracer.self_times(), "counts": counts,
        "max_atoms": layers.max_atoms,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))


if __name__ == "__main__":
    main()
