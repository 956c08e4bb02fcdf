"""Output checks. Each returns a list of problems; empty means correct.

The checks read only what the commands wrote, and compute ranking quality
with their own code, so a change to the program's metrics cannot move
``learner.holdout_mrr``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

FEATURE_DIM = 818


def digest(text: str) -> str:
    """SHA-256 of an artifact without its ``# config_hash`` line: the hash
    covers the input and output paths, which differ from op to op."""
    kept = [ln for ln in text.splitlines(True) if not ln.startswith("# config_hash=")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def check_features(path: Path, graph_ids: set[str]) -> list[str]:
    """One row per graph, 818 finite values each."""
    if not path.is_file():
        return [f"{path.name} missing"]
    problems, seen = [], []
    header = None
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            if cells[0] != "graph_id" or len(cells) != FEATURE_DIM + 1:
                problems.append(f"features header has {len(cells) - 1} columns")
            continue
        seen.append(cells[0])
        try:
            values = [float(c) for c in cells[1:]]
        except ValueError:
            problems.append(f"non-numeric feature in row {cells[0]}")
            continue
        if len(values) != FEATURE_DIM or not all(math.isfinite(v) for v in values):
            problems.append(f"row {cells[0]}: {len(values)} values or a non-finite one")
    if sorted(seen) != sorted(graph_ids):
        problems.append(f"features rows {len(seen)} do not match {len(graph_ids)} graphs")
    return problems


def read_ranking(text: str, model_ids: list[str]) -> tuple[list[str], list[str]]:
    """(models best first, problems). A ranking carries the schema stamp,
    ranks 1..m in order, every model id once, and finite non-increasing
    scores."""
    problems = []
    lines = text.splitlines()
    if not any(ln.startswith("# schema_version=") for ln in lines):
        problems.append("ranking lacks the # schema_version stamp")
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    if not rows or rows[0] != ["rank", "model_id", "score"]:
        return [], problems + ["ranking header missing"]
    order, scores = [], []
    for pos, row in enumerate(rows[1:], start=1):
        if len(row) != 3 or row[0] != str(pos):
            problems.append(f"ranking row {pos} malformed")
            continue
        order.append(row[1])
        try:
            scores.append(float(row[2]))
        except ValueError:
            problems.append(f"ranking score {row[2]!r} not a number")
    if sorted(order) != sorted(model_ids):
        problems.append("ranking is not a permutation of the bundle's models")
    if not all(math.isfinite(s) for s in scores):
        problems.append("non-finite ranking score")
    elif any(b > a for a, b in zip(scores, scores[1:])):
        problems.append("ranking scores increase")
    return order, problems


def reciprocal_rank(order: list[str], model_ids: list[str], truth: np.ndarray) -> float:
    """1 / position of the first truly best model in ``order``."""
    best = {model_ids[j] for j in np.flatnonzero(truth == truth.max())}
    for pos, model in enumerate(order, start=1):
        if model in best:
            return 1.0 / pos
    return 0.0


def check_bundle(path: Path, model_ids: list[str]) -> list[str]:
    """The bundle loads through the program's own loader."""
    from graphsel import learner
    try:
        state = learner.load_state(str(path))
    except Exception as exc:  # noqa: BLE001 - any load failure is a failed check
        return [f"bundle does not load: {exc!r}"]
    if list(state.model_ids) != list(model_ids):
        return ["bundle model ids differ from the performance csv"]
    return []
