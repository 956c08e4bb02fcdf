"""Span recorder for traced benchmark runs.

Spans are measured from outside the program: the recorder swaps the
bindings that callers look up (``cli.load_edge_list``,
``learner.factorize``, ``autodiff.Tensor.backward``, ...) for timing
wrappers and puts every original back when the traced block ends, so an
untraced run executes unmodified code.

Each span records its name, start, end, parent and request id. A request is
one top-level span opened by the benchmark around one command. Spans opened
in other threads (the ``features`` thread pool) take the open request as
their parent. Spans live in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    ident: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans and counters, safe to use from several threads.

    Nothing is recorded outside a request, so the benchmark's own checks
    never show up as program time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.by_request: Counter = Counter()     # "request name:counter" -> total
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._request: int | None = None
        self._request_name = ""

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, ident, name, start, parent, request):
        span = Span(ident, name, start, self.clock(), parent, request, threading.get_ident())
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def request(self, name: str):
        """Top-level span around one command; one at a time."""
        if self._request is not None:
            raise RuntimeError("requests do not nest")
        ident = next(self._ids)
        self._request, self._request_name = ident, name
        stack = self._stack()
        stack.append(ident)
        start = self.clock()
        try:
            yield
        finally:
            stack.pop()
            self._request = None
            self._close(ident, name, start, None, ident)

    @contextmanager
    def span(self, name: str):
        request = self._request
        if request is None:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else request
        ident = next(self._ids)
        stack.append(ident)
        start = self.clock()
        try:
            yield
        finally:
            stack.pop()
            self._close(ident, name, start, parent, request)

    def count(self, name: str, n: int = 1):
        if self._request is None:
            return
        with self._lock:
            self.counters[name] += n
            self.by_request[f"{self._request_name}:{name}"] += n

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans],
                "counters": dict(self.counters), "by_request": dict(self.by_request)}


# --- span arithmetic ------------------------------------------------------------

def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover. Children
    that overlap each other (threads) count once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.ident: s.duration - covered(s.start, s.end, children.get(s.ident, ()))
            for s in spans}


# --- patching ----------------------------------------------------------------------

class Patches:
    """Swap attributes and put every original back, last in first out."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def timed(rec: Recorder, name: str, fn, on_result=None, name_of=None):
    """Wrapper that records a span around ``fn``; ``name_of(args)`` picks
    the span name per call, ``on_result(result)`` records counters."""
    def wrapper(*args, **kwargs):
        with rec.span(name_of(args) if name_of else name):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def counted(rec: Recorder, name: str, fn, amount=None):
    def wrapper(*args, **kwargs):
        rec.count(name, amount(args, kwargs) if amount else 1)
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


class _ModuleProxy:
    """Stands in for a module binding: one attribute replaced, the rest
    forwarded, so patching a caller's view leaves the module itself alone."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


EXTRACTORS = ("degree", "wedges_per_node", "triangles_per_node", "triangles_per_edge",
              "eccentricity", "pagerank", "kcore")


def _sources(args, kwargs) -> int:
    """BFS sources of one ``dijkstra(csgraph, directed, indices, ...)`` call."""
    indices = kwargs.get("indices", args[2] if len(args) > 2 else None)
    if indices is None:
        return int(args[0].shape[0])
    return int(getattr(indices, "size", 1))


def install(rec: Recorder, patches: Patches):
    """Patch every layer boundary the benchmark traces."""
    from graphsel import autodiff, cli, extractors, features, learner

    def wrap(owner, attr, name, **kw):
        patches.replace(owner, attr, timed(rec, name, getattr(owner, attr), **kw))

    def count_calls(owner, attr, name, amount=None):
        patches.replace(owner, attr, counted(rec, name, getattr(owner, attr), amount))

    wrap(cli, "load_edge_list", "graphs.load_edge_list")
    wrap(cli, "meta_graph_features", "features.meta_graph_features")
    wrap(cli, "_extract_one", "cli.features.extract")
    for name in EXTRACTORS:
        wrap(extractors, name, f"extractors.{name}")
    count_calls(extractors, "adjacency_matrix", "extractors.adjacency_matrix.calls")
    count_calls(features, "adjacency_matrix", "extractors.adjacency_matrix.calls")
    patches.replace(extractors, "csgraph", _ModuleProxy(
        extractors.csgraph, dijkstra=counted(rec, "extractors.eccentricity.sweeps",
                                             extractors.csgraph.dijkstra, _sources)))
    wrap(features, "summarize", "summaries.summarize")
    wrap(features, "global_stats", "features.global_stats")

    wrap(learner, "factorize", "perf.factorize",
         on_result=lambda r: rec.count("perf.factorize.iters", len(r.objective_trace) - 1))
    wrap(learner, "fit_factor_estimator", "perf.fit_factor_estimator")
    wrap(learner, "build_train_network", "gmnet.build_train_network")
    wrap(learner, "extend_with_test", "gmnet.extend_with_test")
    wrap(learner, "embed_network", "learner.embed_network",
         name_of=lambda args: ("learner.embed_network.extended" if args[1].extension_nodes
                               else "learner.embed_network.base"))
    wrap(learner, "train", "learner.train",
         on_result=lambda state: rec.count("learner.train.epochs", len(state.training_log)))
    for name in ("select_model", "load_state", "save_state"):
        wrap(learner, name, f"learner.{name}")
    wrap(autodiff.Tensor, "backward", "autodiff.Tensor.backward")
    count_calls(autodiff.Tensor, "__init__", "autodiff.tensors")


@contextmanager
def traced(rec: Recorder):
    patches = Patches()
    try:
        install(rec, patches)
        yield rec
    finally:
        patches.restore()
