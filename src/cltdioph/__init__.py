"""Exact Kolmogorov distances for normalized i.i.d. sums, explicit
Berry-Esseen smoothing bounds, and Diophantine growth diagnostics for
trigonometric characteristic functions."""

__version__ = "0.1.0"

from . import bounds, charfn, dioph, distkit, edgeworth, rates
from .dioph import AlphaSpec
from .distkit import DiscreteDist, kolmogorov_distance, moments, zn_dist
from .edgeworth import EdgeworthParams, EdgeworthComparison
from .charfn import CharSpec

__all__ = [
    "__version__",
    "AlphaSpec", "CharSpec", "DiscreteDist",
    "EdgeworthParams", "EdgeworthComparison",
    "kolmogorov_distance", "moments", "zn_dist",
    "bounds", "charfn", "dioph", "distkit", "edgeworth", "rates",
]
