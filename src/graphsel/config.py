"""Typed INI configuration with defaults, overrides, and hashing.

Every key lives in a fixed schema; unknown sections or keys are rejected so
typos fail loudly instead of silently running defaults. Command-line
overrides use ``section.key=value`` and pass through the same validation.
The config hash stamped into output artifacts is the SHA-256 of the
canonical sorted key=value rendering.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

from .learner import LearnerConfig


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


_HYPER = LearnerConfig()      # the [hyper] defaults are the library's own

# (section, key) -> (parser, default, validator or None)
SCHEMA: dict[tuple[str, str], tuple] = {
    ("paths", "graph_dir"): (str, "", None),
    ("paths", "graph_file"): (str, "", None),
    ("paths", "features_csv"): (str, "", None),
    ("paths", "performance_csv"): (str, "", None),
    ("paths", "bundle"): (str, "", None),
    ("paths", "output_dir"): (str, ".", None),

    ("features", "workers"): (int, 4, lambda v: v >= 1),

    ("hyper", "k"): (int, _HYPER.k, lambda v: v >= 1),
    ("hyper", "top_k"): (int, _HYPER.top_k, lambda v: v >= 1),
    ("hyper", "layers"): (int, _HYPER.layers, lambda v: v >= 1),
    ("hyper", "heads"): (int, _HYPER.heads, lambda v: v >= 1),
    ("hyper", "lr"): (float, _HYPER.lr, lambda v: v > 0),
    ("hyper", "weight_decay"): (float, _HYPER.weight_decay, lambda v: v >= 0),
    ("hyper", "max_epochs"): (int, _HYPER.max_epochs, lambda v: v >= 0),
    ("hyper", "patience"): (int, _HYPER.patience, lambda v: v >= 1),
    ("hyper", "min_epochs"): (int, _HYPER.min_epochs, lambda v: v >= 0),
    # "auto" = leave-one-out selection
    ("hyper", "ridge_lambda"): (_auto_float, _HYPER.ridge_lambda, lambda v: v is None or v > 0),
    ("hyper", "nmf_mean_prior"): (float, _HYPER.nmf_mean_prior, lambda v: 0 <= v <= 1),
    ("hyper", "seed"): (int, _HYPER.seed, lambda v: v >= 0),

    ("eval", "folds"): (int, 5, lambda v: v >= 2),
    ("eval", "selectors"): (_str_list,
                            "random,gb_avgperf,gb_avgrank,isac,argosmart,surrogate,alors,metalearner",
                            None),
    ("eval", "sweep_selectors"): (_str_list,
                                  "random,gb_avgperf,gb_avgrank,isac,argosmart,surrogate,alors",
                                  None),
    ("eval", "sparsities"): (_float_list, "0,0.2,0.4,0.6,0.8,0.9",
                             lambda v: all(0 <= x < 1 for x in v)),
    ("eval", "perturbation_rates"): (_float_list, "0,0.1,0.2,0.4",
                                     lambda v: all(x >= 0 for x in v)),
    ("eval", "run_sweeps"): (_bool, "true", None),
    ("eval", "synthetic"): (_bool, "true", None),
    ("eval", "n_graphs"): (int, 60, lambda v: v >= 3),
    ("eval", "families"): (int, 3, lambda v: 1 <= v <= 3),
    ("eval", "n_models"): (int, 8, lambda v: v >= 2),
    ("eval", "noise"): (float, 0.05, lambda v: 0 <= v <= 0.2),
}


@dataclass
class RunConfig:
    values: dict[tuple[str, str], object]

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    def hash(self) -> str:
        lines = [f"{s}.{k}={self.values[(s, k)]!r}" for s, k in sorted(self.values)]
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
        read = cp.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        for section in cp.sections():
            for key, raw in cp.items(section):
                values[(section, key)] = _parse_value(section, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        values[(section, key)] = _parse_value(section, key, raw)
    return RunConfig(values)
