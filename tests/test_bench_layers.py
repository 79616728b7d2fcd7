"""The traced benchmark replay rebinds layer entry points by name
(``cli.moments``, ``rates.zn_dist``, ``distkit.convolve``, ``bounds.quad``,
...) and wraps the comparison function G in ``TracedComparison``.
Building its layer table and running a distance through its G here makes
removing or renaming one of those names, or reading a member of G that
the wrapper does not forward, fail the test suite, not only a traced
benchmark run."""

import importlib
from pathlib import Path

import numpy as np

from cltdioph import distkit as K
from cltdioph import edgeworth as E

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _replay(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("replay")


def test_traced_layers_bind_existing_names(monkeypatch):
    replay = _replay(monkeypatch)
    layers = replay.Layers(replay.Tracer())
    assert all(name in vars(ns) for ns, name, _ in layers.bindings)


def test_traced_comparison_gives_the_same_distance(monkeypatch):
    replay = _replay(monkeypatch)
    # a = 0.6: Phi3 has three stationary points
    G = E.EdgeworthComparison(E.EdgeworthParams(6.0 * 0.6, 1.0, 1))
    assert len(G.stationary_points()) == 3
    d = K.DiscreteDist(np.array([-4.0, 4.0]), np.array([0.5, 0.5]))
    want = K.kolmogorov_distance(d, G)
    assert want.argmax in G.stationary_points()
    traced = replay.TracedComparison(G, replay.Tracer())
    assert K.kolmogorov_distance(d, traced) == want


def test_traced_operations_give_the_untraced_output(monkeypatch, tmp_path):
    # one small operation of each kind the benchmark replays through
    # child.capture, run as it is and then with the layers installed
    replay = _replay(monkeypatch)
    child = importlib.import_module("child")
    ops = [
        ("cli", ["delta", "--base", "prod:surd:0,1,1,2", "--n", "64",
                 "--target", "phi3"]),
        ("cli", ["delta", "--base", "mix:0.5:surd:0,1,1,3=0.5", "--n", "16"]),
        ("cli", ["bounds", "--base", "prod:surd:0,1,1,2", "--n", "64,128",
                 "--p", "1", "--a-const", "3"]),
        ("cli", ["sweep", "--base", "prod:surd:0,1,1,7", "--n", "16,32",
                 "--out", str(tmp_path / "sweep")]),
        ("cli", ["avg", "--n", "16", "--grid", "4"]),
        ("cli", ["disc", "--alpha", "surd:0,1,1,2", "--n", "16,256"]),
        ("cli", ["cf", "--spec", "prod:surd:0,1,1,2", "--tmax", "3e3"]),
        ("type_estimate", ["surd:0,1,1,2", "1000"]),
    ]
    tracer = replay.Tracer()
    layers = replay.Layers(tracer)
    untraced, traced = [], []
    for kind, args in ops:
        untraced.append(child.capture(kind, args))
        layers.install()
        try:
            traced.append(child.capture(kind, args))
        finally:
            layers.uninstall()
    assert all(ns.__dict__[name] is original
               for ns, name, original in layers.originals)
    assert [rc for rc, _, _ in untraced] == [0] * len(ops)
    assert traced == untraced
    assert "distkit.kolmogorov" in {s["name"] for s in tracer.spans}
