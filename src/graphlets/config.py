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
The model layers' config types live here, so that reading a config imports
none of those layers, and ``RunConfig.gen`` imports ``synth`` only when read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from .segmentation import StopSet
from .similarity import LshParams, SimWeights
from .trace import OperatorGroup, OperatorKind

if TYPE_CHECKING:
    from .synth import GenConfig

__all__ = ["FeatureStage", "WindowConfig", "ForestConfig", "RunConfig", "load_config"]


class FeatureStage(str, Enum):
    """Scheduler intervention points, declared in pipeline order."""

    INPUT = "input"
    INPUT_PRE = "input_pre"
    INPUT_PRE_TRAINER = "input_pre_trainer"
    VALIDATION = "validation"


STAGES = tuple(FeatureStage)


@dataclass(frozen=True)
class WindowConfig:
    """History window: how many preceding graphlets to compare against."""

    w: int = 3

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError("window must be at least 1")


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 16
    min_leaf: int = 5
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("forest hyperparameters must be positive")


@dataclass(frozen=True)
class RunConfig:
    lsh: LshParams
    weights: SimWeights
    window: WindowConfig
    forest: ForestConfig
    stop: StopSet
    split_seed: int
    seed: int
    gen_section: dict[str, Any]

    @cached_property
    def gen(self) -> GenConfig:
        """The ``gen`` section's keys over its preset."""
        overrides = {k: v for k, v in self.gen_section.items() if k != "preset"}
        mix = overrides.get("cost_mix")
        if isinstance(mix, dict):  # JSON keys are strings; GenConfig's are groups
            groups = {g.value: g for g in OperatorGroup}
            overrides["cost_mix"] = {groups.get(k, k): v for k, v in mix.items()}
        return _apply("gen", _preset(self.gen_section, self.seed), overrides)


def _preset(gen_section: dict[str, Any], seed: int) -> GenConfig:
    from .synth import preset

    try:
        return preset(gen_section.get("preset", "default"), seed=seed)
    except ValueError as exc:
        raise ValueError(f"config section 'gen': {exc}") from None


def _section(payload: dict[str, Any], name: str) -> dict[str, Any]:
    value = payload.get(name, {})
    if not isinstance(value, dict):
        raise ValueError(f"config section {name!r} must be an object")
    return dict(value)


def numbers_fit(values: Iterable[Any], kind: type) -> bool:
    """Whether each JSON value may stand for ``kind``: an int, never a bool,
    for int; an int or a float for float.  Config and model files alike."""
    return set(map(type, values)) <= ({int} if kind is int else {int, float})


def check_numbers(where: str, section: dict[str, Any], **kinds: type) -> dict[str, Any]:
    """``section`` once each named key it holds is a number of its kind by
    ``numbers_fit``; a key it lacks is left to the caller."""
    for key, kind in kinds.items():
        if key in section and not numbers_fit([section[key]], kind):
            raise ValueError(f"{where} {key!r} must be {kind.__name__}, got {section[key]!r}")
    return section


def _fits(value: Any, default: Any) -> bool:
    """Whether a JSON value may replace ``default``: same type, a number by
    ``numbers_fit``, a list of fitting items for a tuple."""
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(map(_fits, value, default)))
    if type(default) in (int, float):
        return numbers_fit([value], type(default))
    return isinstance(value, type(default))


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
        try:
            stop = StopSet(kinds=frozenset(OperatorKind(k) for k in stop_kinds))
        except ValueError as exc:
            raise ValueError(f"config section 'stop_set': {exc}") from None
    gen_section = _section(payload, "gen")
    if "gen" in payload:
        _preset(gen_section, seed)  # ahead of the later sections, as before
    split_seed = payload.get("split_seed", seed)
    if not _fits(split_seed, seed):
        raise ValueError(f"config key 'split_seed' must be int, got {split_seed!r}")

    cfg = RunConfig(
        lsh=_apply("lsh", LshParams(seed=seed), _section(payload, "lsh")),
        weights=_apply("weights", SimWeights(), _section(payload, "weights")),
        window=_apply("window", WindowConfig(), _section(payload, "window")),
        forest=_apply("forest", ForestConfig(seed=seed), _section(payload, "forest")),
        stop=stop,
        split_seed=split_seed,
        seed=seed,
        gen_section=gen_section,
    )
    if "gen" in payload:
        cfg.gen  # built here, so that every command rejects a bad gen section
    return cfg
