"""Run configuration: typed schema, `key = value` files, CLI overrides.

Built-in defaults are the full-scale training values; the bundled
``configs/desk.cfg`` overlays the small-model preset that trains in
minutes on one core.  Unknown keys are rejected rather than ignored so a
typo cannot silently fall back to a default.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np


class ConfigError(Exception):
    """Bad config file, override syntax, key or value."""


@dataclass(frozen=True)
class KeySpec:
    """One config key: python type, full-scale default, help, and the
    rule a value must meet (`valid`, described by `rule`)."""

    type: type
    full: object
    help: str
    valid: Callable[[object], bool] = lambda value: True
    rule: str = ""


_AT_LEAST_1 = {"valid": lambda v: v >= 1, "rule": "at least 1"}
_POSITIVE = {"valid": lambda v: v > 0.0, "rule": "positive"}


SCHEMA: dict[str, KeySpec] = {
    "seed": KeySpec(int, 0, "master seed; every RNG stream derives from it",
                    lambda v: v >= 0, "at least 0"),
    "dtype": KeySpec(str, "f64", "parameter/activation precision: f64 or f32",
                     lambda v: v in ("f32", "f64"), "f32 or f64"),
    "d": KeySpec(int, 512, "encoder feature and memory dimension (multiple of 8)",
                 lambda v: v > 0 and v % 8 == 0, "a positive multiple of 8"),
    "d_emb": KeySpec(int, 32, "token embedding size", **_AT_LEAST_1),
    "hidden": KeySpec(int, 512, "LSTM hidden size per decoder layer", **_AT_LEAST_1),
    "attn_dim": KeySpec(int, 512, "attention projection width", **_AT_LEAST_1),
    "out_dim": KeySpec(int, 512, "output head width, fed back to the next step",
                       **_AT_LEAST_1),
    "dropout": KeySpec(float, 0.4, "dropout rate in the decoder",
                       lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "standard_cell_output": KeySpec(
        bool, False, "use h = o * tanh(c) instead of the literal h = o * c"),
    "attend_current_hidden": KeySpec(
        bool, False, "attention query is the current top hidden state "
                     "instead of the previous one"),
    "bn_momentum": KeySpec(float, 0.1, "batch-norm running-statistics momentum",
                           lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "timescale": KeySpec(float, 10000.0, "positional-encoding timescale", **_POSITIVE),
    "lr": KeySpec(float, 0.1, "Adam learning rate for the mle phase", **_POSITIVE),
    "rl_lr": KeySpec(float, 5e-05, "Adam learning rate for the rl phase", **_POSITIVE),
    "steps": KeySpec(int, 100000, "total optimizer steps for the run", **_AT_LEAST_1),
    "batch_size": KeySpec(int, 16, "examples per batch within a bucket", **_AT_LEAST_1),
    "validate_every": KeySpec(int, 1000, "steps between validation passes", **_AT_LEAST_1),
    "patience": KeySpec(int, 3, "stale validations tolerated before early stop",
                        **_AT_LEAST_1),
    "max_len": KeySpec(int, 200, "decoding and sampling length cap, in tokens",
                       **_AT_LEAST_1),
    "k": KeySpec(int, 20, "sampled rollouts per image in the rl phase",
                 lambda v: v >= 2, "at least 2"),
    "clip_norm": KeySpec(float, 5.0, "global gradient-norm clip", **_POSITIVE),
    "leave_one_out": KeySpec(
        bool, False, "exclude each rollout from its own reward baseline"),
}


@dataclass
class ModelConfig:
    """The model's shape, seed and precision: the keys of a checkpoint's
    meta["config"].  Every field but vocab_size is a SCHEMA key, and
    must meet that key's rule (ValueError), so a checkpoint's meta is held
    to the rules a config file is."""

    vocab_size: int
    d: int
    d_emb: int
    hidden: int
    attn_dim: int
    out_dim: int
    dropout: float
    standard_cell_output: bool
    attend_current_hidden: bool
    bn_momentum: float
    timescale: float
    dtype: str
    seed: int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "vocab_size" and not SCHEMA[f.name].valid(value):
                raise ValueError(f"{f.name} must be {SCHEMA[f.name].rule}, got {value!r}")

    @classmethod
    def from_cfg(cls, cfg: dict, vocab_size: int) -> "ModelConfig":
        return cls(vocab_size=vocab_size, **{
            f.name: SCHEMA[f.name].type(cfg[f.name])
            for f in fields(cls) if f.name != "vocab_size"})

    def np_dtype(self):
        return np.float32 if self.dtype == "f32" else np.float64


def full_defaults() -> dict:
    return {key: spec.full for key, spec in SCHEMA.items()}


def coerce(key: str, raw: str, where: str = "") -> object:
    """Parse a raw string for a known key; raise ConfigError otherwise."""
    prefix = f"{where}: " if where else ""
    spec = SCHEMA.get(key)
    if spec is None:
        raise ConfigError(f"{prefix}unknown config key {key!r}")
    text = raw.strip()
    if spec.type is bool:
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{prefix}key {key!r} expects a boolean, got {raw!r}")
    try:
        value = spec.type(text)
    except ValueError:
        raise ConfigError(
            f"{prefix}key {key!r} expects {spec.type.__name__}, got {raw!r}") from None
    if not spec.valid(value):
        raise ConfigError(f"{prefix}key {key!r} must be {spec.rule}, got {raw!r}")
    return value


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines; '#' starts a comment, blanks ignored."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        where = f"{path}:{lineno}"
        if "=" not in text:
            raise ConfigError(f"{where}: expected 'key = value', got {line.strip()!r}")
        key, raw = text.split("=", 1)
        key = key.strip()
        values[key] = coerce(key, raw, where)
    return values


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply `key=value` strings from the command line, highest precedence."""
    out = dict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        out[key] = coerce(key, raw, f"--set {key}")
    return out


def load_config(path: str | None = None, overrides=()) -> dict:
    """Full-scale defaults, overlaid by an optional file, then overrides."""
    cfg = full_defaults()
    if path is not None:
        cfg.update(parse_config_file(path))
    return apply_overrides(cfg, overrides)


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_effective(cfg: dict) -> str:
    """One `key = value` line per key; parseable back as a config file."""
    return "\n".join(f"{key} = {format_value(cfg[key])}" for key in sorted(cfg))


def format_help() -> str:
    """Per-key listing with the full-scale defaults, for --help output."""
    lines = ["config keys (full-scale default; configs/desk.cfg is the desk preset):"]
    for key, spec in SCHEMA.items():
        lines.append(f"  {key} (default {format_value(spec.full)}): {spec.help}")
    return "\n".join(lines)
