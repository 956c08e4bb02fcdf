"""Typed INI configuration with defaults, overrides, and hashing.

Every key lives in a fixed schema; unknown sections or keys are rejected so
typos fail loudly instead of silently running defaults. Command-line
overrides use ``section.key=value`` and pass through the same validation.
The [hyper] keys are ``LearnerConfig``'s fields and the [eval] corpus keys
``CorpusShape``'s, with their types, defaults and ranges; ``load_config``
builds each once. The config hash stamped into output artifacts is the
SHA-256 of the sorted key=value rendering of [hyper] and [eval].
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, fields

from .baselines import ALL_KINDS, BASELINE_KINDS
from .harness import DEFAULT_PERTURBATION_RATES, DEFAULT_SPARSITIES
from .learner import LearnerConfig
from .perf import MAX_PERTURBATION_RATE
from .synth import CorpusShape


class ConfigError(ValueError):
    pass


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip() != "")


def _auto_float(text: str) -> float | None:
    return None if text.strip().lower() == "auto" else float(text)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip() != "")


# (section, key) -> (parser, default, validator or None)
SCHEMA: dict[tuple[str, str], tuple] = {
    ("paths", "graph_dir"): (str, "", None),
    ("paths", "graph_file"): (str, "", None),
    ("paths", "features_csv"): (str, "", None),
    ("paths", "performance_csv"): (str, "", None),
    ("paths", "bundle"): (str, "", None),
    ("paths", "output_dir"): (str, ".", None),

    ("features", "workers"): (int, 4, lambda v: v >= 1),

    # [hyper] is LearnerConfig, which checks its own ranges;
    # ridge_lambda "auto" = leave-one-out selection
    **{("hyper", f.name): (_auto_float if f.name == "ridge_lambda" else type(f.default),
                           f.default, None) for f in fields(LearnerConfig)},

    ("eval", "folds"): (int, 5, lambda v: v >= 2),
    ("eval", "selectors"): (_str_list, ALL_KINDS, None),
    ("eval", "sweep_selectors"): (_str_list, BASELINE_KINDS, None),
    ("eval", "sparsities"): (_float_list, DEFAULT_SPARSITIES,
                             lambda v: all(0 <= x < 1 for x in v)),
    ("eval", "perturbation_rates"): (_float_list, DEFAULT_PERTURBATION_RATES,
                                     lambda v: all(0 <= x <= MAX_PERTURBATION_RATE for x in v)),
    ("eval", "run_sweeps"): (_bool, "true", None),
    ("eval", "synthetic"): (_bool, "true", None),
    # the synthetic corpus shape, which checks its own ranges
    **{("eval", f.name): (type(f.default), f.default, None) for f in fields(CorpusShape)},
}


@dataclass
class RunConfig:
    values: dict[tuple[str, str], object]
    learner: LearnerConfig
    corpus_shape: CorpusShape

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    def hash(self) -> str:
        lines = [f"{s}.{k}={v!r}" for (s, k), v in sorted(self.values.items())
                 if s in ("hyper", "eval")]      # what the outputs depend on
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _parse_value(section: str, key: str, raw) :
    if (section, key) not in SCHEMA:
        raise ConfigError(f"unknown config key [{section}] {key}")
    parser, _, validator = SCHEMA[(section, key)]
    try:
        value = parser(raw) if isinstance(raw, str) else raw
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from None
    if validator is not None and not validator(value):
        raise ConfigError(f"value out of range for [{section}] {key}: {value!r}")
    return value


def load_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    values = {sk: _parse_value(*sk, default) for sk, (_, default, _) in SCHEMA.items()}
    if path is not None:
        cp = configparser.ConfigParser()
        try:
            read = cp.read(path)
            items = {section: cp.items(section) for section in cp.sections()}
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path!r}: {exc}") from None
        except UnicodeDecodeError as exc:
            # str, not repr: a decode error's repr carries the file's bytes
            raise ConfigError(f"cannot decode config file {path!r}: {exc}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        for section, pairs in items.items():
            for key, raw in pairs:
                values[(section, key)] = _parse_value(section, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        values[(section, key)] = _parse_value(section, key, raw)

    def build(cls, section: str):
        return cls(**{f.name: values[(section, f.name)] for f in fields(cls)})

    try:
        return RunConfig(values, build(LearnerConfig, "hyper"), build(CorpusShape, "eval"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
