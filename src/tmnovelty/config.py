"""Run configuration: a flat key=value file with CLI overrides on top.

The file format is one ``key = value`` pair per line, ``#`` comments, no
sections.  A setting is declared once, as a ``RunConfig`` field, and
``parse_setting`` reads its text, from a config line or a flag alike, by
the field's type.  Parsing then serializing then parsing is the identity,
which makes configs safe to check into experiment directories.
"""

from __future__ import annotations

import dataclasses
import typing
from collections.abc import Iterable
from dataclasses import dataclass

from .tsetlin import TMParams

# Hyperparameter profiles: the published full-scale settings and a
# desk-scale profile for quick experiments and tests.
PROFILES: dict[str, dict[str, float | int]] = {
    "full": {"clauses": 10_000, "vote_margin": 50, "sensitivity": 25.0, "epochs": 100},
    "desk": {"clauses": 200, "vote_margin": 15, "sensitivity": 5.0, "epochs": 50},
}


@dataclass
class RunConfig:
    # Corpus source: either the two class directories, a grouped tree, or a CSV.
    known_dir: str | None = None
    novel_dir: str | None = None
    data_root: str | None = None
    known_groups: str | None = None  # ';'-separated folder names under data_root
    novel_groups: str | None = None
    csv_path: str | None = None
    # Preprocessing.
    stoplist_path: str | None = None
    stemming: bool = True
    min_df: int = 1
    max_features: int | None = None
    # Machine hyperparameters: the full profile by default.
    clauses: int = PROFILES["full"]["clauses"]
    vote_margin: int = PROFILES["full"]["vote_margin"]
    sensitivity: float = PROFILES["full"]["sensitivity"]
    state_count: int = TMParams.state_count
    epochs: int = PROFILES["full"]["epochs"]
    seed: int = 0
    # Output.
    output_dir: str = "out"

    def tm_params(self) -> TMParams:
        return TMParams(
            clause_count=self.clauses,
            vote_margin=self.vote_margin,
            sensitivity=self.sensitivity,
            state_count=self.state_count,
            seed=self.seed,
        )

    def apply_profile(self, name: str) -> None:
        try:
            profile = PROFILES[name]
        except KeyError:
            raise ValueError(f"unknown profile {name!r}; expected one of {sorted(PROFILES)}") from None
        for key, value in profile.items():
            setattr(self, key, value)


_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True), **dict.fromkeys(("false", "0", "no", "off"), False)}
_TYPES = typing.get_type_hints(RunConfig)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """The config ``text`` describes, over ``base`` (the defaults when None); a key may be set once."""
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno} is not 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _TYPES:
            raise ValueError(f"unknown config key {key!r} (line {lineno})")
        if key in set_on:
            raise ValueError(f"config key {key!r} is set twice (lines {set_on[key]} and {lineno})")
        set_on[key] = lineno
        try:
            values[key] = parse_setting(key, value.strip())
        except ValueError as err:
            raise ValueError(f"{err} (line {lineno})") from None
    return dataclasses.replace(base or RunConfig(), **values)


def parse_setting(key: str, text: str, name: str = "") -> object:
    """The value ``text`` spells for setting ``key``, of its field's type; a refusal calls the setting ``name``.

    ``none`` unsets an optional setting; one that must be set refuses it.
    Every setting refuses empty text.  ``name`` is the config key unless given.
    """
    name = name or f"config key {key!r}"
    kind, *rest = typing.get_args(_TYPES[key]) or (_TYPES[key],)
    if text == "none" and type(None) in rest:
        return None
    if text in ("none", ""):
        raise ValueError(f"{name} cannot be {text or 'empty'}")
    if kind is bool:
        if text.lower() not in _BOOLS:
            raise ValueError(f"{name}: expected a boolean, got {text!r}")
        return _BOOLS[text.lower()]
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name}: expected {'an integer' if kind is int else 'a number'}, got {text!r}") from None


def serialize_config(config: RunConfig, names: Iterable[str]) -> str:
    """``key = value`` lines for the named settings, sorted by key."""
    lines = []
    for name in sorted(names):
        value = getattr(config, name)
        if value is None:
            rendered = "none"
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        else:
            rendered = str(value)
        lines.append(f"{name} = {rendered}\n")
    return "".join(lines)
