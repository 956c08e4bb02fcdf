"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough ops for an attention message-passing network and a listwise
loss: broadcast arithmetic, matmul, two-operand einsum, exp/log, reductions,
row gather with scatter-add backward, and segment sums. Values are float64
throughout; the backward pass walks a topologically sorted tape of closures.
Scatters are one ``np.bincount`` and segment maxima one sorted
``np.maximum.reduceat``; no op goes through ``ufunc.at``.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _scatter_rows(values: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum the rows of ``values`` into ``num_rows`` buckets by ``index``.

    One ``np.bincount`` over the flattened (bucket, column) ids. Each bucket
    adds its rows in row order, starting from 0, so the result has the same
    bits as ``np.add.at`` into zeros.
    """
    index = np.asarray(index, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    tail = values.shape[index.ndim:]
    index = index.ravel()
    cols = int(np.prod(tail, dtype=np.int64))
    ids = (index[:, None] * cols + np.arange(cols)).ravel()
    out = np.bincount(ids, weights=values.reshape(-1), minlength=num_rows * cols)
    # with no ids at all, bincount returns int64 zeros
    return out.astype(np.float64, copy=False).reshape((num_rows,) + tail)


def _segment_max(values: np.ndarray, segments: np.ndarray, num_segments: int) -> np.ndarray:
    """Per-segment max of the rows of ``values``; empty segments and
    non-finite maxima read 0. The rows are grouped by a stable sort of
    ``segments`` and reduced with ``np.maximum.reduceat``."""
    segments = np.asarray(segments, dtype=np.int64)
    out = np.zeros((num_segments,) + values.shape[1:])
    if segments.size:
        order = np.argsort(segments, kind="stable")
        ordered = segments[order]
        starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
        out[ordered[starts]] = np.maximum.reduceat(values[order], starts, axis=0)
    out[~np.isfinite(out)] = 0.0
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor.const(x)


def _op(value, *operands) -> Tensor:
    """The one place an op records itself on the tape.

    ``operands`` are ``(tensor, grad_fn)`` pairs, where ``grad_fn(g)`` maps
    the output's gradient ``g`` to that operand's gradient. Operands that
    need no gradient are dropped; when none is left the result is a plain
    constant with no parents and no closure, so a forward pass over
    constants records no tape. Otherwise one backward function accumulates
    each kept operand's gradient in operand order.
    """
    taped = [(t, fn) for t, fn in operands if t.requires_grad]
    if not taped:
        return Tensor(value)
    out = Tensor(value, parents=tuple(t for t, _ in taped))

    def backward(g):
        for t, fn in taped:
            t._accumulate(fn(g))
    out.backward_fn = backward
    return out


class Tensor:
    __slots__ = ("value", "grad", "parents", "backward_fn", "requires_grad")

    def __init__(self, value, requires_grad: bool = False, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.backward_fn = None
        self.requires_grad = requires_grad or bool(parents)

    @staticmethod
    def const(value) -> "Tensor":
        return Tensor(value, requires_grad=False)

    @staticmethod
    def param(value) -> "Tensor":
        return Tensor(np.array(value, dtype=np.float64), requires_grad=True)

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += grad

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        return _op(self.value + other.value,
                   (self, lambda g: _unbroadcast(g, self.value.shape)),
                   (other, lambda g: _unbroadcast(g, other.value.shape)))

    def __sub__(self, other):
        other = _as_tensor(other)
        return _op(self.value - other.value,
                   (self, lambda g: _unbroadcast(g, self.value.shape)),
                   (other, lambda g: _unbroadcast(-g, other.value.shape)))

    def __mul__(self, other):
        other = _as_tensor(other)
        return _op(self.value * other.value,
                   (self, lambda g: _unbroadcast(g * other.value, self.value.shape)),
                   (other, lambda g: _unbroadcast(g * self.value, other.value.shape)))

    def __truediv__(self, other):
        other = _as_tensor(other)
        return _op(self.value / other.value,
                   (self, lambda g: _unbroadcast(g / other.value, self.value.shape)),
                   (other, lambda g: _unbroadcast(
                       -g * self.value / (other.value * other.value), other.value.shape)))

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        return _op(self.value @ other.value,
                   (self, lambda g: g @ other.value.T),
                   (other, lambda g: self.value.T @ g))

    # elementwise ----------------------------------------------------------

    def exp(self):
        val = np.exp(self.value)
        return _op(val, (self, lambda g: g * val))

    def log(self):
        return _op(np.log(self.value), (self, lambda g: g / self.value))

    # shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        return _op(self.value.reshape(*shape), (self, lambda g: g.reshape(self.value.shape)))

    def transpose(self):
        return _op(self.value.T, (self, lambda g: g.T))

    # reductions and indexing ------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def grad(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.value.shape).copy()
        return _op(self.value.sum(axis=axis, keepdims=keepdims), (self, grad))

    def gather(self, index: np.ndarray):
        """Rows (axis 0) selected by integer index; backward scatter-adds."""
        index = np.asarray(index, dtype=np.int64)
        rows = self.value.shape[0]
        return _op(self.value[index], (self, lambda g: _scatter_rows(g, index, rows)))

    def segment_sum(self, segments: np.ndarray, num_segments: int):
        """Sum rows (axis 0) into segment buckets."""
        segments = np.asarray(segments, dtype=np.int64)
        return _op(_scatter_rows(self.value, segments, num_segments),
                   (self, lambda g: g[segments]))

    # graph traversal --------------------------------------------------------

    def backward(self):
        if self.value.size != 1:
            raise ValueError("backward() expects a scalar output")
        topo: list[Tensor] = []
        seen = set()

        def visit(t: Tensor):
            stack = [(t, iter(t.parents))]
            seen.add(id(t))
            while stack:
                node, it = stack[-1]
                advanced = False
                for p in it:
                    if id(p) not in seen:
                        seen.add(id(p))
                        stack.append((p, iter(p.parents)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(node)
                    stack.pop()

        visit(self)
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node.backward_fn is not None and node.grad is not None:
                node.backward_fn(node.grad)

    def item(self) -> float:
        return float(self.value)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    vals = [t.value for t in tensors]
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])
    lead = (slice(None),) * (axis % vals[0].ndim)
    return _op(np.concatenate(vals, axis=axis),
               *[(t, lambda g, part=slice(a, b): g[lead + (part,)])
                 for t, a, b in zip(tensors, offsets[:-1], offsets[1:])])


def einsum(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand ``np.einsum`` with explicit output, e.g. "nhi,rhij->rnhj".

    Each operand's gradient is one more einsum of the output gradient with
    the other operand, so every index of an operand must appear in the other
    operand or in the output, and no operand may repeat an index; numpy
    rejects the gradient spec otherwise.
    """
    operands, out_idx = spec.split("->")
    a_idx, b_idx = operands.split(",")
    return _op(np.einsum(spec, a.value, b.value),
               (a, lambda g: np.einsum(f"{out_idx},{b_idx}->{a_idx}", g, b.value)),
               (b, lambda g: np.einsum(f"{out_idx},{a_idx}->{b_idx}", g, a.value)))


def segment_softmax(logits: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over groups of rows of ``logits`` (shape (E,) or (E, H); each
    column is normalized on its own), numerically shifted by the per-segment
    max (a constant, so gradients stay exact)."""
    segments = np.asarray(segments, dtype=np.int64)
    seg_max = _segment_max(logits.value, segments, num_segments)
    shifted = logits - Tensor.const(seg_max[segments])
    e = shifted.exp()
    denom = e.segment_sum(segments, num_segments)
    return e / denom.gather(segments)
