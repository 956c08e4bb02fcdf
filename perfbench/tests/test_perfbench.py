"""Tests of the benchmark itself: statistics, span arithmetic, patching,
output checks and the contract of the entry point.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, inputs, run, spans

ROOT = Path(__file__).resolve().parents[2]


# --- percentile selection -----------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 51)]          # 50 samples
    value, beyond = run.tail_percentile(samples, 0.8)
    assert (value, beyond) == (40.0, 10)
    with pytest.raises(ValueError, match="10 samples beyond"):
        run.tail_percentile(samples[:49], 0.8)
    with pytest.raises(ValueError):
        run.tail_percentile(samples, 0.9)                # p90 needs 100
    assert run.tail_percentile([1.0] * 100, 0.9) == (1.0, 10)


def test_end_to_end_prints_the_sample_count(capsys):
    r = run.Run(cli=None, work=Path("."), workers=2, attempted=102, failed=0,
                features_s=[2.0], train_s=[3.0], select_s=[0.1 * i for i in range(1, 101)],
                reciprocal={"a": 1.0, "b": 0.5})
    metrics = run.end_to_end(r, [1.0, 3.0, 2.0])
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["setup_s"] == 2.0
    assert metrics["select_p90_s"] == pytest.approx(9.0)
    err = capsys.readouterr().err
    assert "100 select samples, 10 beyond p90" in err
    assert "holdout MRR 0.7500 over 2 graphs" in err


# --- span arithmetic -----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    with rec.request("cli.train"):           # 0 .. 10
        clock.now = 1.0
        with rec.span("outer"):              # 1 .. 7
            clock.now = 2.0
            with rec.span("inner"):          # 2 .. 5
                clock.now = 5.0
            clock.now = 7.0
        clock.now = 10.0
    by_name = {s.name: s for s in rec.spans}
    own = spans.self_times(rec.spans)
    assert own[by_name["inner"].ident] == 3.0
    assert own[by_name["outer"].ident] == 3.0
    assert own[by_name["cli.train"].ident] == 4.0
    assert by_name["inner"].parent == by_name["outer"].ident
    assert by_name["outer"].parent == by_name["cli.train"].ident
    assert {s.request for s in rec.spans} == {by_name["cli.train"].ident}
    assert sum(own.values()) == by_name["cli.train"].duration


def test_self_time_counts_overlapping_thread_children_once():
    parent = spans.Span(1, "cli.features", 0.0, 10.0, None, 1, 0)
    a = spans.Span(2, "extract", 1.0, 6.0, 1, 1, 100)
    b = spans.Span(3, "extract", 4.0, 8.0, 1, 1, 200)
    own = spans.self_times([parent, a, b])
    assert own[1] == pytest.approx(3.0)      # 10 minus the union [1, 8]
    assert spans.covered(0.0, 5.0, [(4.0, 9.0), (-1.0, 1.0)]) == pytest.approx(2.0)


def test_thread_pool_spans_take_the_request_as_parent():
    rec = spans.Recorder()
    barrier = threading.Barrier(4)

    def work():
        barrier.wait(timeout=10)
        with rec.span("extract"):
            with rec.span("inner"):
                pass

    with rec.request("cli.features"):
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    root = next(s for s in rec.spans if s.name == "cli.features")
    extracts = [s for s in rec.spans if s.name == "extract"]
    assert len(extracts) == 4 and all(s.parent == root.ident for s in extracts)
    inner_parents = {s.parent for s in rec.spans if s.name == "inner"}
    assert inner_parents == {s.ident for s in extracts}
    assert len({s.ident for s in rec.spans}) == len(rec.spans)


def test_nothing_is_recorded_outside_a_request():
    rec = spans.Recorder()
    with rec.span("checks"):
        rec.count("autodiff.tensors")
    assert rec.spans == [] and not rec.counters


# --- patching -------------------------------------------------------------------------------

def _bindings():
    from graphsel import autodiff, cli, extractors, features, learner
    owners = [cli, extractors, features, learner, autodiff.Tensor]
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)
            or k == "csgraph"}


def test_traced_block_patches_callers_and_restores_every_binding():
    from graphsel import autodiff, cli, extractors, learner
    before = _bindings()
    rec = spans.Recorder()
    with spans.traced(rec):
        assert cli.load_edge_list is not before[(id(cli), "load_edge_list")]
        assert learner.factorize.__wrapped__ is before[(id(learner), "factorize")]
        assert autodiff.Tensor.backward is not before[(id(autodiff.Tensor), "backward")]
        assert extractors.csgraph is not before[(id(extractors), "csgraph")]
        with rec.request("cli.select"):
            autodiff.Tensor(np.ones(2))
    assert rec.counters["autodiff.tensors"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_bindings_are_restored_when_the_traced_block_raises():
    from graphsel import learner
    original = learner.train
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Recorder()):
            raise RuntimeError("boom")
    assert learner.train is original


# --- inputs and output checks ------------------------------------------------------------

def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a = inputs.planted_inputs(tmp_path / "a", 3, n_graphs=6, holdout=3)
    b = inputs.planted_inputs(tmp_path / "b", 3, n_graphs=6, holdout=3)
    c = inputs.planted_inputs(tmp_path / "c", 4, n_graphs=6, holdout=3)
    assert _files(a.root) == _files(b.root)
    assert _files(a.root) != _files(c.root)
    assert np.array_equal(a.truth, b.truth)
    assert [p.family for p in a.props[:3]] == ["gnp", "ba", "ws"]
    assert all(0 < p.largest_component <= p.nodes for p in a.props)


def test_crossed_grid_puts_every_family_at_every_size():
    cells = inputs.crossed_grid(np.random.default_rng(0), 5, 100, 100_000, inputs.WIDE_FAMILIES)
    assert len(cells) == len(set(cells)) == 20
    sizes = sorted({s for s, _ in cells})
    assert sizes == pytest.approx([10 ** (2 + 3 * (i + 0.5) / 5) for i in range(5)])
    for size in sizes:
        assert {f for s, f in cells if s == size} == set(inputs.WIDE_FAMILIES)
    again = inputs.crossed_grid(np.random.default_rng(1), 5, 100, 100_000, inputs.WIDE_FAMILIES)
    assert sorted(again) == sorted(cells) and again != cells


def test_ranking_checks():
    models = ["m0", "m1", "m2"]
    good = "# config_hash=x\n# schema_version=1\nrank,model_id,score\n1,m2,0.9\n2,m0,0.5\n3,m1,0.1\n"
    order, problems = checks.read_ranking(good, models)
    assert order == ["m2", "m0", "m1"] and problems == []
    assert checks.reciprocal_rank(order, models, np.array([0.2, 0.1, 0.3])) == 1.0
    assert checks.reciprocal_rank(order, models, np.array([0.2, 0.9, 0.3])) == pytest.approx(1 / 3)
    assert checks.read_ranking(good.replace("# schema_version=1\n", ""), models)[1]
    assert checks.read_ranking(good.replace("m1,0.1", "m2,0.1"), models)[1]
    assert checks.read_ranking(good.replace("0.1", "nan"), models)[1]
    assert checks.read_ranking(good.replace("0.5", "0.95"), models)[1]
    assert checks.digest(good) == checks.digest(good.replace("hash=x", "hash=y"))


TINY = run.Workload(lambda root, seed: inputs.planted_inputs(root, seed, n_graphs=8, holdout=3),
                    ("hyper.max_epochs=2", "hyper.min_epochs=2"), repeat_build=True)


def _tiny_run(tmp_path):
    cli = run.import_program()
    inp = TINY.make_inputs(tmp_path / "inputs", 5)
    return run.Run(cli, tmp_path / "work", workers=2), inp


def test_a_clean_op_passes_every_check_and_repeats_identically(tmp_path):
    r, inp = _tiny_run(tmp_path)
    TINY.unit(r, inp, 0)
    first = dict(r.digests)
    TINY.unit(r, inp, 1)
    assert r.failed == 0 and r.attempted == 2 * (2 + 3)
    assert r.digests == first and len(first) == 1 + 3
    assert len(r.select_s) == 6 and len(r.reciprocal) == 3


def test_a_failed_output_check_lowers_ok_ratio_and_exits_non_zero(tmp_path, monkeypatch, capsys):
    from graphsel import cli
    r, inp = _tiny_run(tmp_path)
    real_select = cli.COMMANDS["select"]

    def unstamped(cfg):
        rc = real_select(cfg)
        out = Path(cfg.get("paths", "output_dir")) / "ranking.csv"
        out.write_text("".join(ln for ln in out.read_text().splitlines(True)
                               if not ln.startswith("# schema_version=")))
        return rc

    monkeypatch.setitem(cli.COMMANDS, "select", unstamped)
    TINY.unit(r, inp, 0)
    assert r.failed == 3 and r.attempted == 5
    assert "lacks the # schema_version stamp" in capsys.readouterr().err
    ok_ratio = (r.attempted - r.failed) / r.attempted
    assert run.report(r, {"ok_ratio": (ok_ratio, "1")}) == 1
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 3
    assert line["metrics"]["ok_ratio"]["value"] == pytest.approx(0.4)


# --- contract --------------------------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in run.PER_LAYER.items()}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_planted", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
