"""Run configuration: a flat key=value file with CLI overrides on top.

The file format is one ``key = value`` pair per line, ``#`` comments, no
sections.  Parsing then serializing then parsing is the identity, which
makes configs safe to check into experiment directories.
"""

from __future__ import annotations

import dataclasses
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


_BOOL_TRUE = {"true", "1", "yes", "on"}
_BOOL_FALSE = {"false", "0", "no", "off"}


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """The config ``text`` describes, over ``base`` (the defaults when None); a key may be set once."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line {lineno}: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in fields:
            raise ValueError(f"unknown config key {key!r} (line {lineno})")
        if key in set_on:
            raise ValueError(f"config key {key!r} is set twice (lines {set_on[key]} and {lineno})")
        set_on[key] = lineno
        values[key] = _coerce(key, value, fields[key].type, lineno)
    return dataclasses.replace(base or RunConfig(), **values)


def _coerce(key: str, value: str, type_hint: str | type, lineno: int) -> object:
    hint = type_hint if isinstance(type_hint, str) else getattr(type_hint, "__name__", str(type_hint))
    if value == "none":
        if "None" not in hint:
            raise ValueError(f"config key {key!r} cannot be none (line {lineno})")
        return None
    if "bool" in hint:
        low = value.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"config key {key!r}: expected a boolean, got {value!r} (line {lineno})")
    for kind, name in ((int, "an integer"), (float, "a number")):
        if kind.__name__ in hint:
            try:
                return kind(value)
            except ValueError:
                raise ValueError(f"config key {key!r}: expected {name}, got {value!r} (line {lineno})") from None
    return value


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
