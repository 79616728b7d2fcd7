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
