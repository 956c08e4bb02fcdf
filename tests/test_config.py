"""Typed config: defaults, file loading, overrides, validation, hashing."""

import re
from pathlib import Path

import pytest

from graphsel.cli import main
from graphsel.config import SCHEMA, ConfigError, load_config
from graphsel.synth import CorpusShape


def test_defaults():
    cfg = load_config()
    assert cfg.get("hyper", "k") == 32
    assert cfg.get("hyper", "lr") == 0.00075
    assert cfg.get("hyper", "ridge_lambda") is None
    assert cfg.get("hyper", "min_epochs") == 75
    assert cfg.get("hyper", "nmf_mean_prior") == 0.1
    assert cfg.get("features", "workers") == 4
    assert cfg.get("paths", "output_dir") == "."
    assert cfg.get("paths", "graph_dir") == ""
    assert cfg.get("eval", "folds") == 5
    assert cfg.get("eval", "run_sweeps") is True
    assert cfg.get("eval", "synthetic") is True
    assert cfg.get("eval", "selectors") == (
        "random", "gb_avgperf", "gb_avgrank", "isac", "argosmart",
        "surrogate", "alors", "metalearner")
    assert "metalearner" not in cfg.get("eval", "sweep_selectors")
    assert cfg.get("eval", "sparsities") == (0.0, 0.2, 0.4, 0.6, 0.8, 0.9)
    assert cfg.get("eval", "perturbation_rates") == (0.0, 0.1, 0.2, 0.4)


def test_overrides_parse_and_validate():
    cfg = load_config(overrides=["hyper.k=8", "eval.folds=3",
                                 "hyper.ridge_lambda=0.5",
                                 "eval.run_sweeps=off",
                                 "eval.sparsities=0,0.5",
                                 "paths.output_dir=/tmp/x"])
    assert cfg.get("hyper", "k") == 8
    assert cfg.get("eval", "folds") == 3
    assert cfg.get("hyper", "ridge_lambda") == 0.5
    assert cfg.get("eval", "run_sweeps") is False
    assert cfg.get("eval", "sparsities") == (0.0, 0.5)
    assert cfg.get("paths", "output_dir") == "/tmp/x"


def test_ridge_lambda_auto_keyword():
    assert load_config(overrides=["hyper.ridge_lambda=auto"]).get("hyper", "ridge_lambda") is None
    assert load_config(overrides=["hyper.ridge_lambda=AUTO"]).get("hyper", "ridge_lambda") is None
    with pytest.raises(ConfigError, match="out of range"):
        load_config(overrides=["hyper.ridge_lambda=0"])


def test_override_format_errors():
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(overrides=["hyper.k"])
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(overrides=["k=8"])


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(overrides=["hyper.kk=8"])
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(overrides=["nosection.k=8"])


@pytest.mark.parametrize("bad", [
    "hyper.lr=-1", "hyper.lr=0", "eval.folds=1",
    "eval.noise=0.5", "eval.sparsities=0,1.0", "hyper.heads=0",
    "eval.families=4", "hyper.nmf_mean_prior=1.5", "hyper.patience=0",
])
def test_validators_reject_out_of_range(bad):
    with pytest.raises(ConfigError):
        load_config(overrides=[bad])


@pytest.mark.parametrize("shape", [
    {"n_graphs": 2}, {"n_graphs": 3}, {"families": 0}, {"families": 4},
    {"n_models": 2, "families": 3}, {"n_models": 3, "families": 3},
    {"noise": -0.1}, {"noise": 0.2}, {"noise": 0.3},
], ids=lambda shape: ",".join(f"{k}={v}" for k, v in shape.items()))
def test_the_library_and_the_config_refuse_the_same_corpus_shapes(shape):
    try:
        CorpusShape(**shape)
        library_refuses = False
    except ValueError:
        library_refuses = True
    try:
        load_config(overrides=[f"eval.{key}={value}" for key, value in shape.items()])
        config_refuses = False
    except ConfigError:
        config_refuses = True
    assert config_refuses == library_refuses


def test_unparseable_values_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        load_config(overrides=["hyper.k=eight"])
    with pytest.raises(ConfigError, match="bad value"):
        load_config(overrides=["eval.run_sweeps=maybe"])


def test_hash_is_stable_and_value_sensitive():
    a = load_config()
    b = load_config()
    assert a.hash() == b.hash()
    assert a.hash() == "8b927b2f572e19ef"
    c = load_config(overrides=["hyper.k=8"])
    assert c.hash() != a.hash()
    # where the outputs go and how many workers write them leave the hash alone
    assert load_config(overrides=["paths.output_dir=elsewhere"]).hash() == a.hash()
    assert load_config(overrides=["features.workers=1"]).hash() == a.hash()
    # an override equal to the default hashes identically
    d = load_config(overrides=["hyper.k=32"])
    assert d.hash() == a.hash()


def test_ini_file_loading(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[hyper]\nk = 16\nseed = 9\n\n[eval]\nfolds = 4\n"
                   "selectors = random, argosmart\n")
    cfg = load_config(str(ini))
    assert cfg.get("hyper", "k") == 16
    assert cfg.get("hyper", "seed") == 9
    assert cfg.get("eval", "folds") == 4
    assert cfg.get("eval", "selectors") == ("random", "argosmart")
    assert cfg.get("hyper", "lr") == 0.00075          # untouched default

    cfg2 = load_config(str(ini), overrides=["hyper.k=64"])
    assert cfg2.get("hyper", "k") == 64               # override beats file

    bad = tmp_path / "bad.ini"
    bad.write_text("[hyper]\nmystery = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(str(bad))


@pytest.mark.parametrize("text", [
    "k = 16\n",                                   # no section header
    "[hyper]\nk = 16\n[hyper]\nseed = 2\n",       # repeated section
    "[paths]\noutput_dir = out%dir\n",            # bad % interpolation
], ids=["no_section", "repeated_section", "bad_interpolation"])
def test_unparseable_file_is_a_config_error(tmp_path, text):
    ini = tmp_path / "broken.ini"
    ini.write_text(text)
    with pytest.raises(ConfigError, match="broken.ini"):
        load_config(str(ini))
    assert main(["--config", str(ini), "features"]) == 2


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, caplog):
    ini = tmp_path / "latin.ini"
    ini.write_bytes(b"[hyper]\nk = 16\n# caf\xe9 " + b"x" * 4000 + b"\n")
    with pytest.raises(ConfigError, match="cannot decode config file .*latin.ini"):
        load_config(str(ini))
    assert main(["--config", str(ini), "features"]) == 2
    # the log line names the file and the byte, not the file's text
    line = next(ln for ln in caplog.text.splitlines() if "event=config_error" in ln)
    assert "latin.ini" in line and "0xe9" in line and len(line) < 500


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.ini"))


def test_readme_configuration_table_names_every_key_outside_paths():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    named = {tuple(name.split(".", 1))
             for row in section.splitlines() if row.startswith("| `")
             for name in re.findall(r"`([a-z_]+\.[a-z_]+)`", row.split("|")[1])}
    assert named <= set(SCHEMA)
    assert {sk for sk in SCHEMA if sk[0] != "paths"} <= named
