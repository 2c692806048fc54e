"""Provenance-trace analytics for production ML pipelines.

Parse pipeline provenance traces, segment them into per-model graphlets,
quantify data reuse and drift between training runs, predict which runs will
not deploy a model, and evaluate execution policies that trade wasted
computation against model freshness.
"""

__version__ = "0.1.0"

from .segmentation import Graphlet, StopSet, extract_graphlets
from .trace import Trace, parse_trace, valid_traces, validate_trace

__all__ = [
    "__version__",
    "Trace",
    "Graphlet",
    "StopSet",
    "parse_trace",
    "validate_trace",
    "valid_traces",
    "extract_graphlets",
]
