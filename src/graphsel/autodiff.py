"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough ops for an attention message-passing network and a listwise
loss: broadcast arithmetic, matmul, two-operand einsum, exp/log, reductions,
row gather with scatter-add backward, segment sums and attention-weighted
segment sums. Values are float64 throughout; the backward pass walks a
topologically sorted tape of closures and drops each interior gradient once
it is spent.

Every row index an op reads is a ``Segments`` plan: gathers are one
``np.take``, scatter-adds one product with a CSR matrix of ones, and
segment maxima one ``np.maximum.reduceat`` over a stable sort kept in the
plan (a radix sort of a uint16 copy when the index has at most 2**16
buckets); no op goes through ``ufunc.at``. A plain integer index is wrapped
in a plan for one call; a caller that reads the same index again (every
epoch of training reads the same edge table) builds the plan once and
passes it. Attention aggregation is one fused op, ``weighted_segment_sum``,
over an ``Edges`` plan that keeps two planned head-blocked CSR matrices,
one per direction: the forward sum and the messages' gradient are each one
sparse product, with the bits of the gather, weight and segment-sum chain
it replaces. The attention logits are another, ``edge_scores``: its
gradients are products with the same kind of matrices, and its forward
pass gathers the edges' rows in chunks under EDGE_CHUNK_BYTES, so no op
holds a per-edge (E, H, dk) copy.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Segments:
    """A fixed 1-D row index into ``size`` buckets, planned once for every
    op that reads it.

    ``take`` gathers the indexed rows with ``np.take``. ``sum`` adds rows
    into their buckets with one sparse product by the CSR matrix that holds
    a one at (index[e], e): each bucket adds its rows in row order,
    starting from 0, so the sums have the bits of ``np.add.at`` into zeros.
    ``max`` reduces each bucket with ``np.maximum.reduceat`` over the
    index's stable sort order. The sort order and the matrix are built on
    first use and kept, so an index that every epoch reads is planned once.
    """

    __slots__ = ("index", "size", "_order", "_indptr", "_matrix")

    def __init__(self, index, size: int):
        self.index = np.asarray(index, dtype=np.int64)
        self.size = int(size)
        if self.index.ndim != 1:
            raise ValueError("a segment index must be 1-D")
        if self.index.size and (self.index.min() < 0 or self.index.max() >= self.size):
            raise IndexError(f"segment index out of range for {self.size} buckets")
        self._order = self._indptr = self._matrix = None

    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """The stable sort order of the index and each bucket's start in it.

        An index into at most 2**16 buckets is sorted as a uint16 copy, which
        numpy's stable sort orders by radix; the permutation is the same."""
        if self._order is None:
            index = self.index.astype(np.uint16) if self.size <= 1 << 16 else self.index
            self._order = np.argsort(index, kind="stable")
            self._indptr = np.searchsorted(self.index[self._order], np.arange(self.size + 1))
        return self._order, self._indptr

    def take(self, values: np.ndarray) -> np.ndarray:
        """The indexed rows (axis 0) of ``values``."""
        return np.take(values, self.index, axis=0)

    def sum(self, values: np.ndarray) -> np.ndarray:
        """The rows of ``values``, one per index entry, summed into their buckets."""
        if self._matrix is None:
            order, indptr = self._sorted()
            self._matrix = sparse.csr_array((np.ones(order.size), order, indptr),
                                            shape=(self.size, order.size))
        values = np.asarray(values, dtype=np.float64)
        tail = values.shape[1:]
        cols = values.reshape(values.shape[0], int(np.prod(tail, dtype=np.int64)))
        return (self._matrix @ cols).reshape((self.size,) + tail)

    def max(self, values: np.ndarray) -> np.ndarray:
        """Per-bucket max of the rows of ``values``; empty buckets and
        non-finite maxima read 0."""
        order, indptr = self._sorted()
        out = np.zeros((self.size,) + values.shape[1:])
        filled = np.flatnonzero(indptr[1:] > indptr[:-1])
        if filled.size:
            out[filled] = np.maximum.reduceat(values.take(order, axis=0), indptr[filled], axis=0)
        out[~np.isfinite(out)] = 0.0
        return out


def _segments(index, size: int) -> Segments:
    """``index`` itself when it is a plan for ``size`` buckets already,
    else a new plan over it."""
    if not isinstance(index, Segments):
        return Segments(index, size)
    if index.size != size:
        raise ValueError(f"a plan over {index.size} buckets used for {size}")
    return index


class Edges:
    """A fixed edge list ``src -> dst``, planned for ``weighted_segment_sum``
    and ``edge_scores``. The two ends may index different row counts: ``src``
    rows of one array (n_s = ``src.size``) and ``dst`` rows of another
    (n_d = ``dst.size``).

    Each direction of a product over the edges is one block-diagonal CSR
    matrix, one block per head, built on first use for a head count and
    kept. The forward matrix, (heads · n_d) × (heads · n_s), holds edge e of
    head h at (h·n_d + dst[e], h·n_s + src[e]) in the stable order of
    ``dst``; the transposed one, which only a backward pass builds, holds it
    at (h·n_s + src[e], h·n_d + dst[e]) in the stable order of ``src``. A
    pass writes the (E, heads) weights into the matrix's data, head by head
    in that order, just before its product; the order is the one the rows'
    plan keeps, so a matrix adds no per-entry index of its own beyond its
    CSR structure.
    """

    __slots__ = ("src", "dst", "_blocks")

    def __init__(self, src: Segments, dst: Segments):
        if src.index.size != dst.index.size:
            raise ValueError("edge endpoints disagree on the edge count")
        self.src, self.dst = src, dst
        self._blocks = {}

    def blocks(self, heads: int, transposed: bool):
        """The matrix of one direction for ``heads``, and the stable edge
        order of its rows, in which its data lists each head's edges."""
        key = heads, transposed
        rows, cols = (self.src, self.dst) if transposed else (self.dst, self.src)
        if key not in self._blocks:
            self._blocks[key] = _head_blocks(rows, cols, heads)
        return self._blocks[key], rows._sorted()[0]


def _head_blocks(rows: Segments, cols: Segments, heads: int) -> sparse.csr_array:
    """A CSR matrix whose head-h block holds edge e at (rows[e], cols[e]), in
    the stable order of ``rows``.

    Its indices are int32 when the entry count and both sides fit, and int64
    otherwise; scipy keeps either as given. Each is written in its dtype as
    it is computed, with no int64 copy of the (heads, E) block."""
    order, indptr = rows._sorted()
    e = order.size
    fits = heads * max(e, rows.size, cols.size) <= np.iinfo(np.int32).max
    dtype = np.int32 if fits else np.int64
    shift = np.arange(heads)[:, None]
    at = np.add(cols.index[order], shift * cols.size, dtype=dtype)
    starts = np.empty(heads * rows.size + 1, dtype=dtype)
    np.add(indptr[:-1], shift * e, out=starts[:-1].reshape(heads, rows.size))
    starts[-1] = heads * e
    return sparse.csr_array((np.zeros(at.size), at.ravel(), starts),
                            shape=(heads * rows.size, heads * cols.size))


def _head_product(edges: Edges, weights: np.ndarray, transposed: bool,
                  rows: np.ndarray) -> np.ndarray:
    """One direction of the planned head-blocked matrix of ``edges``, holding
    the (E, H) ``weights``, times ``rows`` (one (H, dk) row per column node)
    seen head-major as (H · nodes, dk): one (H, dk) row per row node, which
    adds its weighted rows in its stable edge order from 0."""
    heads, dk = rows.shape[1:]
    matrix, order = edges.blocks(heads, transposed)
    matrix.data.reshape(heads, -1)[:] = np.take(weights, order, axis=0).T
    head_major = rows.transpose(1, 0, 2).reshape(-1, dk)
    return (matrix @ head_major).reshape(heads, -1, dk).transpose(1, 0, 2)


EDGE_CHUNK_BYTES = 1 << 20      # cap on one gathered (edges, H, dk) chunk


def _edge_reduce(reduce, a: np.ndarray, a_rows: np.ndarray, b: np.ndarray,
                 b_rows: np.ndarray) -> np.ndarray:
    """``reduce(a[a_rows], b[b_rows])``, an (E, H) array, computed over chunks
    of the edges whose gathered rows of ``a`` stay under EDGE_CHUNK_BYTES. A
    reduction that treats each edge's rows on their own gives the bits of
    the one whole gather, without its (E, H, dk) copies."""
    step = max(1, EDGE_CHUNK_BYTES // (a.itemsize * int(np.prod(a.shape[1:]))))
    out = np.empty((a_rows.size, a.shape[1]))
    for lo in range(0, a_rows.size, step):
        at = slice(lo, lo + step)
        out[at] = reduce(np.take(a, a_rows[at], axis=0), np.take(b, b_rows[at], axis=0))
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

    def gather(self, index):
        """Rows (axis 0) selected by an integer index or a ``Segments`` plan
        over this tensor's rows; backward scatter-adds."""
        plan = _segments(index, self.value.shape[0])
        return _op(plan.take(self.value), (self, plan.sum))

    def segment_sum(self, segments, num_segments: int):
        """Sum rows (axis 0) into segment buckets, given as an integer index
        or a ``Segments`` plan."""
        plan = _segments(segments, num_segments)
        return _op(plan.sum(self.value), (self, plan.take))

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
                # every consumer ran before this node: its gradient is spent;
                # a leaf (a parameter) has no backward_fn and keeps its own
                node.grad = None

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
    """Two-operand ``np.einsum`` with explicit output, e.g. "khi,rhij->krhj".

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


def segment_softmax(logits: Tensor, segments, num_segments: int) -> Tensor:
    """Softmax over groups of rows of ``logits`` (shape (E,) or (E, H); each
    column is normalized on its own), numerically shifted by the per-segment
    max (a constant, so gradients stay exact). ``segments`` is an integer
    index or a ``Segments`` plan.

    Untaped, no (E, H) array outlives its last read here: the logits and
    their shifted copy go once they are exponentiated, so the quotient
    holds three at a time. A taped pass keeps what its backward reads."""
    plan = _segments(segments, num_segments)
    shifted = logits - Tensor.const(plan.take(plan.max(logits.value)))
    del logits
    e = shifted.exp()
    del shifted
    return e / e.segment_sum(plan, num_segments).gather(plan)


def edge_scores(keys: Tensor, queries: Tensor, edges: Edges) -> Tensor:
    """``out[e, h] = keys[src[e], h] · queries[dst[e], h]`` over dk, for
    ``keys`` of shape (``edges.src.size``, H, dk) and ``queries``
    (``edges.dst.size``, H, dk).

    The forward pass runs ``np.einsum("ehi,ehi->eh")`` on edge chunks of the
    gathered rows (``_edge_reduce``). Each operand's gradient is one product
    of a planned head-blocked matrix of ``edges``, holding the output
    gradient, with the other operand. Every result has the bits of
    ``einsum("ehi,ehi->eh", keys.gather(src), queries.gather(dst))`` and of
    its backward pass, without the (E, H, dk) temporaries.
    """
    return _op(_edge_reduce(lambda k, q: np.einsum("ehi,ehi->eh", k, q), keys.value,
                            edges.src.index, queries.value, edges.dst.index),
               (keys, lambda g: _head_product(edges, g, True, queries.value)),
               (queries, lambda g: _head_product(edges, g, False, keys.value)))


def weighted_segment_sum(msgs: Tensor, weights: Tensor, edges: Edges) -> Tensor:
    """``out[d, h] = Σ weights[e, h] · msgs[src[e], h]`` over the in-edges e
    of each node d, for ``msgs`` of shape (n, H, dk) and ``weights`` (E, H).

    The forward pass and the messages' gradient are one product each with
    the planned head-blocked matrices of ``edges`` over the head-major
    (H·n, dk) rows; the weights' gradient is ``(g[dst] · msgs[src])``
    summed over dk, on edge chunks (``_edge_reduce``). Each bucket adds its
    weighted rows in edge order from 0, so every result has the bits of
    ``(msgs.gather(src) * weights.reshape(-1, H, 1)).segment_sum(dst, n)``
    and of its backward pass, without the (E, H, dk) temporaries.
    """
    return _op(_head_product(edges, weights.value, False, msgs.value),
               (msgs, lambda g: _head_product(edges, weights.value, True, g)),
               (weights, lambda g: _edge_reduce(lambda a, b: (a * b).sum(axis=2), g,
                                                edges.dst.index, msgs.value, edges.src.index)))
