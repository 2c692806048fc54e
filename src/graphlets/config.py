"""Run configuration for the command-line interface.

A config file is a JSON object with optional sections; every key has a
default, so an empty file (or no file) is valid:

    {
      "lsh":     {"k": 4, "w": 0.5, "seed": 42},
      "weights": {"alpha": 0.5, "beta": 0.5},
      "window":  {"w": 3},
      "forest":  {"n_trees": 100, "max_depth": 16, "min_leaf": 5, "seed": 42},
      "stop_set": ["transform", "trainer"],
      "gen":     {"preset": "default", "n_pipelines": 150, "seed": 42, ...}
    }

The CLI --seed flag fills every seed that the file does not set explicitly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

from .features import WindowConfig
from .forest import ForestConfig
from .segmentation import StopSet
from .similarity import LshParams, SimWeights
from .synth import GenConfig, preset
from .trace import OperatorKind

__all__ = ["RunConfig", "load_config"]


@dataclass(frozen=True)
class RunConfig:
    lsh: LshParams
    weights: SimWeights
    window: WindowConfig
    forest: ForestConfig
    stop: StopSet
    gen: GenConfig
    split_seed: int


def _section(payload: dict[str, Any], name: str) -> dict[str, Any]:
    value = payload.get(name, {})
    if not isinstance(value, dict):
        raise ValueError(f"config section {name!r} must be an object")
    return dict(value)


def _fits(value: Any, default: Any) -> bool:
    """Whether a JSON value may replace ``default``: same type, an int for a
    float, a list of fitting items for a tuple."""
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(map(_fits, value, default)))
    kinds = (int, float) if type(default) is float else type(default)
    return isinstance(value, kinds) and isinstance(value, bool) == isinstance(default, bool)


def _apply(name: str, base: Any, overrides: dict[str, Any]) -> Any:
    """``base`` with a section's keys replaced; errors name the section and key."""
    known = {f.name: getattr(base, f.name) for f in fields(base)}
    for key, value in overrides.items():
        if key not in known:
            raise ValueError(f"config section {name!r}: unknown key {key!r}")
        if not _fits(value, known[key]):
            kind = type(known[key]).__name__
            raise ValueError(f"config section {name!r}: {key!r} must be {kind}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"config section {name!r}: {key!r} must be finite")
    try:
        return replace(base, **{k: tuple(v) if isinstance(v, list) else v
                                for k, v in overrides.items()})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config section {name!r}: {exc}") from None


def load_config(path: str | Path | None, seed: int = 42) -> RunConfig:
    """The run configuration in ``path``; a bad section, key or value raises
    ``ValueError`` naming it."""
    payload: dict[str, Any] = {}
    if path is not None:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("config file must hold a JSON object")
    unknown = set(payload) - {"lsh", "weights", "window", "forest", "stop_set", "gen", "split_seed"}
    if unknown:
        raise ValueError(f"config file: unknown section {sorted(unknown)[0]!r}")

    stop_kinds = payload.get("stop_set")
    if stop_kinds is None:
        stop = StopSet()
    elif not isinstance(stop_kinds, list):
        raise ValueError("config section 'stop_set' must be a list of operator kinds")
    else:
        stop = StopSet(kinds=frozenset(OperatorKind(k) for k in stop_kinds))
    gen_kw = _section(payload, "gen")
    gen = preset(gen_kw.pop("preset", "default"), seed=seed)
    split_seed = payload.get("split_seed", seed)
    if not _fits(split_seed, seed):
        raise ValueError(f"config key 'split_seed' must be int, got {split_seed!r}")

    return RunConfig(
        lsh=_apply("lsh", LshParams(seed=seed), _section(payload, "lsh")),
        weights=_apply("weights", SimWeights(), _section(payload, "weights")),
        window=_apply("window", WindowConfig(), _section(payload, "window")),
        forest=_apply("forest", ForestConfig(seed=seed), _section(payload, "forest")),
        stop=stop,
        gen=_apply("gen", gen, gen_kw),
        split_seed=split_seed,
    )
