"""The traced benchmark replay rebinds layer entry points by name
(``cli.moments``, ``rates.zn_dist``, ``distkit.convolve``, ``bounds.quad``,
...).  Building its layer table here makes removing or renaming one of
those names fail the test suite, not only a traced benchmark run."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_layers_bind_existing_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    replay = importlib.import_module("replay")
    layers = replay.Layers(replay.Tracer())
    assert all(name in vars(ns) for ns, name, _ in layers.bindings)
