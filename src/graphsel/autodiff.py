"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough ops for an attention message-passing network and a listwise
loss: broadcast arithmetic, matmul, two-operand einsum, exp/log, reductions,
row gather with scatter-add backward, and segment sums. Values are float64
throughout; the backward pass walks a topologically sorted tape of closures.
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


class Tensor:
    __slots__ = ("value", "grad", "parents", "backward_fn", "requires_grad")

    def __init__(self, value, requires_grad: bool = False, parents=(), backward_fn=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

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
        other = other if isinstance(other, Tensor) else Tensor.const(other)
        out = Tensor(self.value + other.value, parents=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.value.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.value.shape))
        out.backward_fn = backward
        return out

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor.const(other)
        out = Tensor(self.value - other.value, parents=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.value.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.value.shape))
        out.backward_fn = backward
        return out

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor.const(other)
        out = Tensor(self.value * other.value, parents=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.value, self.value.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.value, other.value.shape))
        out.backward_fn = backward
        return out

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor.const(other)
        out = Tensor(self.value / other.value, parents=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.value, self.value.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(
                    -g * self.value / (other.value * other.value), other.value.shape))
        out.backward_fn = backward
        return out

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        out = Tensor(self.value @ other.value, parents=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.value.T)
            if other.requires_grad:
                other._accumulate(self.value.T @ g)
        out.backward_fn = backward
        return out

    # elementwise ----------------------------------------------------------

    def exp(self):
        val = np.exp(self.value)
        out = Tensor(val, parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * val)
        out.backward_fn = backward
        return out

    def log(self):
        out = Tensor(np.log(self.value), parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g / self.value)
        out.backward_fn = backward
        return out

    # shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        out = Tensor(self.value.reshape(*shape), parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.value.shape))
        out.backward_fn = backward
        return out

    def transpose(self):
        out = Tensor(self.value.T, parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.T)
        out.backward_fn = backward
        return out

    # reductions and indexing ------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.value.sum(axis=axis, keepdims=keepdims), parents=(self,))

        def backward(g):
            if not self.requires_grad:
                return
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.value.shape).copy())
        out.backward_fn = backward
        return out

    def gather(self, index: np.ndarray):
        """Rows (axis 0) selected by integer index; backward scatter-adds."""
        index = np.asarray(index, dtype=np.int64)
        out = Tensor(self.value[index], parents=(self,))

        def backward(g):
            if self.requires_grad:
                full = np.zeros_like(self.value)
                np.add.at(full, index, g)
                self._accumulate(full)
        out.backward_fn = backward
        return out

    def segment_sum(self, segments: np.ndarray, num_segments: int):
        """Sum rows (axis 0) into segment buckets."""
        segments = np.asarray(segments, dtype=np.int64)
        shape = (num_segments,) + self.value.shape[1:]
        val = np.zeros(shape)
        np.add.at(val, segments, self.value)
        out = Tensor(val, parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g[segments])
        out.backward_fn = backward
        return out

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
                    if id(p) not in seen and p.requires_grad:
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
    out = Tensor(np.concatenate(vals, axis=axis), parents=tuple(tensors))
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(a, b)
                t._accumulate(g[tuple(sl)])
    out.backward_fn = backward
    return out


def einsum(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand ``np.einsum`` with explicit output, e.g. "nhi,rhij->rnhj".

    Each operand's gradient is one more einsum of the output gradient with
    the other operand, so every index of an operand must appear in the other
    operand or in the output, and no operand may repeat an index; numpy
    rejects the gradient spec otherwise.
    """
    operands, out_idx = spec.split("->")
    a_idx, b_idx = operands.split(",")
    out = Tensor(np.einsum(spec, a.value, b.value), parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.einsum(f"{out_idx},{b_idx}->{a_idx}", g, b.value))
        if b.requires_grad:
            b._accumulate(np.einsum(f"{out_idx},{a_idx}->{b_idx}", g, a.value))
    out.backward_fn = backward
    return out


def segment_softmax(logits: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over groups of rows of ``logits`` (shape (E,) or (E, H); each
    column is normalized on its own), numerically shifted by the per-segment
    max (a constant, so gradients stay exact)."""
    segments = np.asarray(segments, dtype=np.int64)
    seg_max = np.full((num_segments,) + logits.shape[1:], -np.inf)
    np.maximum.at(seg_max, segments, logits.value)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = logits - Tensor.const(seg_max[segments])
    e = shifted.exp()
    denom = e.segment_sum(segments, num_segments)
    return e / denom.gather(segments)
