"""graphsel benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The inputs come from ``--seed``
only; the program sees nothing but the generated files. One closed-loop
client calls ``graphsel.cli.main`` in-process, one command at a time, with
``features.workers`` set to the number of usable cores. Every command's
output is checked. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
The exit code is 0 only when every check passed.

Work files go to ``.perfbench_out/`` in the checkout; the inputs are deleted
at exit, the property table and the traced spans are kept.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs, spans  # noqa: E402

SETUP_MIN_REPS = 3       # set-up runs at least 3 times and 1 s; setup_s is
SETUP_MIN_S = 1.0        # the median
TAIL_Q = 0.9
MIN_SELECTS = 100        # p90 needs 10 samples beyond it
TIME_CAP_S = 120.0       # stop measuring at the next boundary after this
WIDE_LEVELS = 25         # wide corpus: 25 sizes x 4 families = 100 graphs
REQUEST_LEVELS = 5       # select_mixed: 20 request files, in whole passes
WARM_TRAINS = 5          # the warm-start train takes 0.5 s; time it 5 times

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "select_p50_s": ("s", "lower"),
    "select_p90_s": ("s", "lower"),
    "features_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("1", "higher"),
}

SELECT_TAIL = "select_p90_s on select_mixed"
FEATURES = "features_s on both workloads"
PER_LAYER = {
    # name: (unit, better, the end-to-end metric and workload it should move)
    "graphs.load_edge_list.s": ("s", "lower", f"{SELECT_TAIL}; {FEATURES}"),
    **{f"extractors.{x}.s": ("s", "lower", f"{SELECT_TAIL}; {FEATURES}") for x in spans.EXTRACTORS},
    "extractors.eccentricity.sweeps": ("count", "lower", f"{SELECT_TAIL}; select_p50_s near the 1024-node limit"),
    "extractors.adjacency_matrix.calls": ("1/graph", "lower", f"{SELECT_TAIL}; {FEATURES}"),
    "summaries.summarize.s": ("s", "lower", "features_s on offline_planted; select_p50_s"),
    "summaries.summarize.calls": ("count", "lower", "features_s on offline_planted; select_p50_s"),
    "features.global_stats.s": ("s", "lower", SELECT_TAIL),
    "cli.features.busy_s": ("s", "lower", FEATURES),
    "cli.features.parallel_eff": ("1", "higher", FEATURES),
    "perf.factorize.s": ("s", "lower", "train_s on select_mixed (300 models); setup_s unchanged"),
    "perf.factorize.iters": ("count", "lower", "train_s on select_mixed"),
    "perf.fit_factor_estimator.s": ("s", "lower", "train_s on select_mixed"),
    "gmnet.build_train_network.s": ("s", "lower", "train_s on both workloads"),
    "gmnet.extend_with_test.s": ("s", "lower", "train_s on offline_planted; select_p50_s"),
    "gmnet.extend_with_test.calls": ("count", "lower", "train_s on offline_planted; select_p50_s"),
    "learner.train.epochs": ("count", "lower", "train_s on offline_planted; learner.holdout_mrr must not drop"),
    "learner.holdout_mrr": ("1", "higher", "none; ranking quality, must not drop when train_s or select_p50_s improve"),
    "learner.embed_network.base_s": ("s", "lower", "train_s on offline_planted"),
    "learner.embed_network.base_calls": ("count", "lower", "train_s on offline_planted"),
    "learner.embed_network.extended_s": ("s", "lower", "train_s on offline_planted (validation); select_p50_s"),
    "learner.embed_network.extended_calls": ("count", "lower", "train_s on offline_planted; select_p50_s"),
    "learner.select_model.s": ("s", "lower", "select_p50_s"),
    "learner.load_state.s": ("s", "lower", "select_p50_s"),
    "learner.save_state.s": ("s", "lower", "train_s"),
    "autodiff.Tensor.backward.s": ("s", "lower", "train_s on offline_planted; none on select_mixed"),
    "autodiff.tensors": ("count", "lower", "train_s on offline_planted"),
    "cli.select.self_s": ("s", "lower", "select_p50_s"),
    "trace.untraced_s": ("s", "lower", "none; command time of the untraced pass"),
    "trace.top_level_s": ("s", "lower", "none; top-level span time of the traced pass"),
    "trace.overhead_pct": ("%", "lower", "none; reported per workload"),
}


def import_program():
    """Import graphsel from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "graphsel" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no graphsel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphsel.cli
    if Path(graphsel.cli.__file__).resolve().parents[2] != ROOT:
        raise SystemExit("perfbench: imported graphsel from outside the checkout")
    return graphsel.cli


# --- statistics -------------------------------------------------------------------

def tail_percentile(samples: list[float], q: float, beyond: int = 10) -> tuple[float, int]:
    """Nearest-rank ``q`` quantile and the number of samples above its rank.

    Raises ValueError when fewer than ``beyond`` samples lie above it: a
    tail estimate resting on fewer points is not reported.
    """
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < beyond:
        raise ValueError(f"p{round(q * 100)} needs {beyond} samples beyond it; "
                         f"{n} samples give {max(n - rank, 0)}")
    return sorted(samples)[rank - 1], n - rank


# --- one run -------------------------------------------------------------------------

@dataclass
class Run:
    """Samples and check results of one benchmark process."""

    cli: object
    work: Path
    workers: int
    recorder: spans.Recorder | None = None
    attempted: int = 0
    failed: int = 0
    features_s: list[float] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)
    select_s: list[float] = field(default_factory=list)
    command_s: float = 0.0
    reciprocal: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def command(self, kind: str, argv: list[str]) -> tuple[int, float, str]:
        out = io.StringIO()
        request = self.recorder.request(f"cli.{kind}") if self.recorder else contextlib.nullcontext()
        started = time.perf_counter()
        with request, contextlib.redirect_stdout(out):
            rc = self.cli.main(argv)
        seconds = time.perf_counter() - started
        self.command_s += seconds
        return rc, seconds, out.getvalue()

    def mrr(self) -> float:
        """Mean reciprocal rank of the true best model over the ranked graphs."""
        return statistics.fmean(self.reciprocal.values())

    def outcome(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: FAILED {what}: {p}", file=sys.stderr)
        return not problems

    def same(self, key: str, value: str) -> list[str]:
        """Identical output for identical input, within the run."""
        seen = self.digests.setdefault(key, value)
        return [] if seen == value else [f"{key} differs from its earlier output"]

    # commands ---------------------------------------------------------------------

    def features(self, inp: inputs.Inputs, out: Path, graph_dir: Path | None = None,
                 timed: bool = True) -> Path:
        graph_dir = graph_dir or inp.corpus_dir
        rc, secs, _ = self.command("features", [
            "--set", f"features.workers={self.workers}", "features",
            "--graph-dir", str(graph_dir), "--output-dir", str(out)])
        csv = out / "features.csv"
        problems = [f"exit code {rc}"] if rc else checks.check_features(
            csv, {p.stem for p in graph_dir.iterdir()})
        if not problems and timed:
            problems = self.same("features.csv", checks.digest(csv.read_text()))
        if self.outcome("features", problems) and timed:
            self.features_s.append(secs)
        return csv

    def train(self, inp: inputs.Inputs, features_csv: Path, out: Path, settings) -> Path:
        argv = [a for s in settings for a in ("--set", s)]
        rc, secs, _ = self.command("train", argv + [
            "train", "--features-csv", str(features_csv),
            "--performance-csv", str(inp.perf_csv), "--output-dir", str(out)])
        bundle = out / "model.bundle"
        problems = [f"exit code {rc}"] if rc else checks.check_bundle(bundle, inp.model_ids)
        if self.outcome("train", problems):
            self.train_s.append(secs)
        return bundle

    def select(self, inp: inputs.Inputs, bundle: Path, i: int, out: Path, timed: bool = True):
        graph = inp.ranked[i]
        rc, secs, stdout = self.command("select", [
            "select", "--bundle", str(bundle), "--graph-file", str(graph),
            "--output-dir", str(out)])
        problems = [f"exit code {rc}"] if rc else []
        if not problems:
            text = (out / "ranking.csv").read_text()
            order, problems = checks.read_ranking(text, inp.model_ids)
            if stdout != text:
                problems.append("stdout differs from ranking.csv")
            problems += self.same(f"ranking:{graph.name}", checks.digest(text))
        if self.outcome(f"select {graph.name}", problems) and timed:
            self.select_s.append(secs)
            self.reciprocal[graph.name] = checks.reciprocal_rank(order, inp.model_ids, inp.truth[i])

    def warm_up(self, inp: inputs.Inputs):
        """One untimed features call on one graph, so lazy imports settle."""
        one = self.work / "warmup"
        one.mkdir(parents=True, exist_ok=True)
        first = sorted(inp.corpus_dir.iterdir())[0]
        shutil.copy(first, one / first.name)
        self.features(inp, self.work / "warmup_out", graph_dir=one, timed=False)


# --- workloads -----------------------------------------------------------------------

class Workload:
    """`features` over the corpus and `train` build a bundle, then `select`
    ranks every graph in ``inp.ranked``: one op. offline_planted repeats
    whole ops; select_mixed builds its bundle once, ranks one untimed
    warm-up request, then repeats whole passes over its requests."""

    def __init__(self, make_inputs, settings, repeat_build: bool, train_reps: int = 1):
        self.make_inputs = make_inputs
        self.settings = settings
        self.repeat_build = repeat_build
        self.train_reps = train_reps

    def build(self, run: Run, inp: inputs.Inputs, out: Path) -> Path:
        csv = run.features(inp, out / "features")
        for _ in range(self.train_reps):
            bundle = run.train(inp, csv, out / "train", self.settings)
        return bundle

    def rank_all(self, run: Run, inp: inputs.Inputs, bundle: Path, out: Path):
        for i in range(len(inp.ranked)):
            run.select(inp, bundle, i, out)

    def unit(self, run: Run, inp: inputs.Inputs, k: int):
        out = run.work / f"op{k}"
        self.rank_all(run, inp, self.build(run, inp, out), out / "select")
        shutil.rmtree(out)

    def measure(self, run: Run, inp: inputs.Inputs, done):
        if self.repeat_build:
            k = 0
            while True:
                self.unit(run, inp, k)
                k += 1
                if done():
                    return
        bundle = self.build(run, inp, run.work / "bundle")
        smallest = min(range(len(inp.ranked)), key=lambda i: inp.ranked[i].stat().st_size)
        run.select(inp, bundle, smallest, run.work / "warmup", timed=False)
        while True:
            self.rank_all(run, inp, bundle, run.work / "select")
            if done():
                return


WORKLOADS = {
    "select_mixed": Workload(
        lambda root, seed: inputs.wide_inputs(root, seed, WIDE_LEVELS, REQUEST_LEVELS),
        ("hyper.max_epochs=0",), repeat_build=False, train_reps=WARM_TRAINS),
    "offline_planted": Workload(
        lambda root, seed: inputs.planted_inputs(root, seed), (), repeat_build=True),
}


# --- metrics ---------------------------------------------------------------------------

def end_to_end(run: Run, setup_s: list[float]) -> dict[str, float]:
    tail, beyond = tail_percentile(run.select_s, TAIL_Q)
    print(f"perfbench: {len(run.select_s)} select samples, {beyond} beyond p90; "
          f"{len(run.features_s)} features, {len(run.train_s)} train; "
          f"holdout MRR {run.mrr():.4f} over {len(run.reciprocal)} graphs", file=sys.stderr)
    return {
        "setup_s": statistics.median(setup_s),
        "select_p50_s": statistics.median(run.select_s),
        "select_p90_s": tail,
        "features_s": statistics.median(run.features_s),
        "train_s": statistics.median(run.train_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(run: Run, untraced_s: float) -> dict[str, float]:
    rec = run.recorder
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in rec.spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
    own = spans.self_times(rec.spans)
    top_level = sum(s.duration for s in rec.spans if s.parent is None)
    c = rec.counters
    features_wall = total.get("cli.features", 0.0)
    busy = total.get("cli.features.extract", 0.0)
    graphs = calls.get("features.meta_graph_features", 0)
    out = {
        "graphs.load_edge_list.s": total.get("graphs.load_edge_list", 0.0),
        **{f"extractors.{x}.s": total.get(f"extractors.{x}", 0.0) for x in spans.EXTRACTORS},
        "extractors.eccentricity.sweeps": c["extractors.eccentricity.sweeps"],
        "extractors.adjacency_matrix.calls": c["extractors.adjacency_matrix.calls"] / max(graphs, 1),
        "summaries.summarize.s": total.get("summaries.summarize", 0.0),
        "summaries.summarize.calls": calls.get("summaries.summarize", 0),
        "features.global_stats.s": total.get("features.global_stats", 0.0),
        "cli.features.busy_s": busy,
        "cli.features.parallel_eff": busy / (features_wall * run.workers) if features_wall else 0.0,
        "perf.factorize.s": total.get("perf.factorize", 0.0),
        "perf.factorize.iters": c["perf.factorize.iters"],
        "perf.fit_factor_estimator.s": total.get("perf.fit_factor_estimator", 0.0),
        "gmnet.build_train_network.s": total.get("gmnet.build_train_network", 0.0),
        "gmnet.extend_with_test.s": total.get("gmnet.extend_with_test", 0.0),
        "gmnet.extend_with_test.calls": calls.get("gmnet.extend_with_test", 0),
        "learner.train.epochs": c["learner.train.epochs"],
        "learner.holdout_mrr": run.mrr(),
        "learner.embed_network.base_s": total.get("learner.embed_network.base", 0.0),
        "learner.embed_network.base_calls": calls.get("learner.embed_network.base", 0),
        "learner.embed_network.extended_s": total.get("learner.embed_network.extended", 0.0),
        "learner.embed_network.extended_calls": calls.get("learner.embed_network.extended", 0),
        "learner.select_model.s": total.get("learner.select_model", 0.0),
        "learner.load_state.s": total.get("learner.load_state", 0.0),
        "learner.save_state.s": total.get("learner.save_state", 0.0),
        "autodiff.Tensor.backward.s": total.get("autodiff.Tensor.backward", 0.0),
        "autodiff.tensors": c["autodiff.tensors"],
        "cli.select.self_s": sum(own[s.ident] for s in rec.spans if s.name == "cli.select"),
        "trace.untraced_s": untraced_s,
        "trace.top_level_s": top_level,
        "trace.overhead_pct": 100.0 * (top_level - untraced_s) / untraced_s,
    }
    print("perfbench: layer                                   calls    total_s     self_s",
          file=sys.stderr)
    self_by_name: dict[str, float] = {}
    for s in rec.spans:
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + own[s.ident]
    for name in sorted(total, key=lambda n: -total[n]):
        print(f"perfbench: {name:38s} {calls[name]:7d} {total[name]:10.4f} "
              f"{self_by_name[name]:10.4f}", file=sys.stderr)
    print(f"perfbench: top-level spans {top_level:.4f} s against untraced commands "
          f"{untraced_s:.4f} s (overhead {out['trace.overhead_pct']:+.2f}%)", file=sys.stderr)
    return out


# --- entry point -------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workers = len(os.sched_getaffinity(0))
    run = Run(cli, work, workers)
    try:
        setup_s = []
        while not setup_s or (not args.trace and (
                len(setup_s) < SETUP_MIN_REPS or sum(setup_s) < SETUP_MIN_S)):
            shutil.rmtree(work / "inputs", ignore_errors=True)
            started = time.perf_counter()
            inp = workload.make_inputs(work / "inputs", args.seed)
            setup_s.append(time.perf_counter() - started)
        name = f"{args.workload}-seed{args.seed}"
        inp.write_props(out_dir / f"{name}-props.csv")
        print(f"perfbench: {len(inp.props)} graphs; {inp.share_over_exact_limit():.3f} of "
              f"ranked graphs have a largest component over {inputs.ECC_EXACT_NODE_LIMIT} nodes",
              file=sys.stderr)

        run.warm_up(inp)
        if args.trace:
            run.command_s = 0.0
            workload.unit(run, inp, 0)
            untraced = run.command_s
            run.recorder = spans.Recorder()
            run.command_s = 0.0
            with spans.traced(run.recorder):
                workload.unit(run, inp, 1)
            (out_dir / f"{name}-trace.json").write_text(json.dumps(run.recorder.to_json()))
            metrics = {k: (v, PER_LAYER[k][0])
                       for k, v in per_layer(run, untraced).items()}
        else:
            started = time.perf_counter()

            def done() -> bool:
                elapsed = time.perf_counter() - started
                return elapsed >= TIME_CAP_S or (
                    elapsed >= args.seconds and len(run.select_s) >= MIN_SELECTS)

            workload.measure(run, inp, done)
            metrics = {k: (v, END_TO_END[k][0]) for k, v in end_to_end(run, setup_s).items()}
            print("digest " + checks.digest("".join(
                f"{k}={v}\n" for k, v in sorted(run.digests.items()))))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(run, metrics)


def report(run: Run, metrics: dict[str, tuple[float, str]]) -> int:
    """Print the result line; the exit code is 0 only if every check passed."""
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
