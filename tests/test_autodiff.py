"""Reverse-mode autodiff: every op against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsel import autodiff
from graphsel.autodiff import (Edges, Segments, Tensor, concat, edge_scores, einsum,
                               segment_softmax, weighted_segment_sum)
from oracles import (edge_scores_chain, head_blocks_int64, param, scatter_rows_bincount,
                     segment_max_argsort, weighted_segment_sum_chain)


def fd_grad(loss_fn, x, step=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = loss_fn()
        flat[i] = orig - step
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return g


def check_op(build, *shapes, seed=0, positive=False, tol=1e-6):
    """build(tensors) -> output Tensor; loss is a fixed random projection."""
    rng = np.random.default_rng(seed)
    arrays = [rng.uniform(0.5, 1.5, size=s) if positive else rng.normal(size=s)
              for s in shapes]
    tensors = [param(a) for a in arrays]
    out = build(*tensors)
    coeff = np.random.default_rng(seed + 1).normal(size=out.value.shape)

    loss = (out * Tensor.const(coeff)).sum()
    loss.backward()

    for t, a in zip(tensors, arrays):
        def loss_fn(t=t):
            fresh = build(*[Tensor.const(x.value) for x in tensors])
            return float((fresh.value * coeff).sum())
        want = fd_grad(loss_fn, t.value)
        assert t.grad is not None
        err = np.abs(t.grad - want) / np.maximum(np.abs(want), 1.0)
        assert err.max() < tol, err.max()


def test_broadcast_arithmetic_grads():
    check_op(lambda a, b: a + b, (3, 4), (4,))
    check_op(lambda a, b: a - b, (3, 4), (1, 4))
    check_op(lambda a, b: a * b, (3, 4), (3, 1))
    check_op(lambda a, b: a / b, (3, 4), (4,), positive=True)
    check_op(lambda a: -a, (5,))
    check_op(lambda a: a + 2.5, (3, 2))
    check_op(lambda a: a * 3.0, (3, 2))


def test_matmul_exp_log_grads():
    check_op(lambda a, b: a @ b, (3, 4), (4, 2))
    check_op(lambda a: a.exp(), (4, 3))
    check_op(lambda a: a.log(), (4, 3), positive=True)
    check_op(lambda a, b: (a @ b).exp(), (2, 3), (3, 2))


def test_einsum_values_and_grads():
    rng = np.random.default_rng(5)
    k, att = rng.normal(size=(4, 2, 3)), rng.normal(size=(5, 2, 3, 3))
    out = einsum("nhi,rhij->rnhj", Tensor.const(k), Tensor.const(att))
    want = np.array([[[k[n, h] @ att[r, h] for h in range(2)] for n in range(4)]
                     for r in range(5)])
    assert np.allclose(out.value, want, atol=1e-12)

    check_op(lambda a, b: einsum("nhi,rhij->rnhj", a, b), (4, 2, 3), (5, 2, 3, 3))
    check_op(lambda a, b: einsum("ij,jk->ik", a, b), (3, 4), (4, 2))
    check_op(lambda a, b: einsum("ij,j->i", a, b), (3, 4), (4,))
    # a reused operand collects both gradients
    check_op(lambda a: einsum("ij,kj->ik", a, a), (3, 4))


def test_shape_op_grads():
    check_op(lambda a: a.reshape(6, 2), (3, 4))
    check_op(lambda a: a.transpose(), (3, 4))
    check_op(lambda a: a.sum(), (3, 4))
    check_op(lambda a: a.sum(axis=0), (3, 4))
    check_op(lambda a: a.sum(axis=1, keepdims=True), (3, 4))


def test_gather_scatter_grads():
    idx = np.array([0, 2, 2, 1, 0])       # repeats must accumulate
    check_op(lambda a: a.gather(idx), (3, 4))

    seg = np.array([0, 0, 2, 1, 2])
    check_op(lambda a: a.segment_sum(seg, 3), (5, 2))

    check_op(lambda a, b: concat([a, b], axis=0), (2, 3), (4, 3))
    check_op(lambda a, b: concat([a, b], axis=1), (3, 2), (3, 4))


BROADCAST_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                 "*": lambda a, b: a * b, "/": lambda a, b: a / b}


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.data())
def test_random_shape_grads(data):
    """Broadcast arithmetic and row gather / segment sums on drawn shapes."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**16))
    other = data.draw(st.sampled_from([(rows, cols), (cols,), (1, cols), (rows, 1), ()]))
    shapes = [(rows, cols), other]
    if data.draw(st.booleans()):
        shapes.reverse()                 # the broadcast operand on either side
    op = data.draw(st.sampled_from(sorted(BROADCAST_OPS)))
    check_op(BROADCAST_OPS[op], *shapes, seed=seed, positive=op == "/")

    index = np.array(data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=6)))
    check_op(lambda a: a.gather(index), (rows, cols), seed=seed)
    n_seg = data.draw(st.integers(1, 4))
    segments = np.array(data.draw(
        st.lists(st.integers(0, n_seg - 1), min_size=rows, max_size=rows)))
    check_op(lambda a: a.segment_sum(segments, n_seg), (rows, cols), seed=seed)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_scatters_match_ufunc_at_bit_for_bit(data):
    """gather backward and segment_sum equal an np.add.at scatter, and the
    segment_softmax shift equals an np.maximum.at max, to the last bit, on
    drawn shapes: no rows, repeated indices, empty segments, (E,), (E, H)
    and (E, H, dk). The same holds with the index passed as a kept plan,
    and the plan's sums and maxima equal the former bincount scatter and
    per-call argsort max."""
    n_seg = data.draw(st.integers(1, 6))
    segments = np.array(data.draw(st.lists(st.integers(0, n_seg - 1), max_size=12)),
                        dtype=np.int64)
    tail = data.draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    # magnitudes spread over many decades, so the summation order shows in the bits
    shape = (segments.size,) + tail
    rows = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)

    want = np.zeros((n_seg,) + tail)
    np.add.at(want, segments, rows)
    got = Tensor.const(rows).segment_sum(segments, n_seg).value
    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    # the output gradient of this sum is `rows` itself
    table = param(rng.normal(size=(n_seg,) + tail))
    (table.gather(segments) * Tensor.const(rows)).sum().backward()
    assert table.grad.tobytes() == want.tobytes()

    logits = rng.normal(size=(segments.size,) + tail[:1]) * 50.0
    shift = np.full((n_seg,) + logits.shape[1:], -np.inf)
    np.maximum.at(shift, segments, logits)
    shift[~np.isfinite(shift)] = 0.0
    assert Segments(segments, n_seg).max(logits).tobytes() == shift.tobytes()

    # one kept plan serves every op, before and after its sort and matrix exist
    plan = Segments(segments, n_seg)
    for _ in range(2):
        assert plan.sum(rows).tobytes() == want.tobytes()
        assert scatter_rows_bincount(rows, segments, n_seg).tobytes() == want.tobytes()
        assert Tensor.const(rows).segment_sum(plan, n_seg).value.tobytes() == want.tobytes()
        table.grad = None
        (table.gather(plan) * Tensor.const(rows)).sum().backward()
        assert table.grad.tobytes() == want.tobytes()
        assert table.gather(plan).value.tobytes() == table.value[segments].tobytes()
        assert plan.max(logits).tobytes() == shift.tobytes()
        wide = rng.normal(size=shape) * 50.0
        assert plan.max(wide).tobytes() == segment_max_argsort(wide, segments, n_seg).tobytes()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_weighted_segment_sum_matches_the_chain_bit_for_bit(data):
    """The fused op's output, message gradient and weight gradient equal the
    gather -> weight -> segment_sum chain to the last bit, on drawn edge
    lists (none, repeated, self-loops) over nodes of which the last is always
    an empty bucket, for dk 1, 2 and 8, with the weight gradient's gathers in
    chunks of 1 to 3 edges or whole; one kept plan serves twice, before and
    after its matrices exist."""
    n = data.draw(st.integers(1, 6))
    count = data.draw(st.integers(0, 16))
    src, dst = (np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=count,
                                            max_size=count)), dtype=np.int64)
                for _ in range(2))
    heads, dk = data.draw(st.integers(1, 4)), data.draw(st.sampled_from([1, 2, 8]))
    chunk = data.draw(st.sampled_from([1, 2, 3, None]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    nodes = n + 1

    def spread(*shape):
        # magnitudes over many decades, so the summation order shows in the bits
        return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    msgs, weights, out_grad = spread(nodes, heads, dk), rng.uniform(size=(count, heads)), \
        spread(nodes, heads, dk)

    def run(op, edges):
        m, w = param(msgs), param(weights)
        out = op(m, w, edges)
        (out * Tensor.const(out_grad)).sum().backward()
        return [np.ascontiguousarray(a) for a in (out.value, m.grad, w.grad)]

    def plan():
        return Edges(Segments(src, nodes), Segments(dst, nodes))
    want = run(weighted_segment_sum_chain, plan())
    kept = plan()
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(autodiff, "EDGE_CHUNK_BYTES", chunk * heads * dk * 8)
        for _ in range(2):
            got = run(weighted_segment_sum, kept)
            assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes())
                                                             for a in want]
            assert not got[0][-1].any()          # the empty bucket


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.data())
def test_edge_scores_match_the_chain_bit_for_bit(data):
    """The fused op's scores and both gradients equal the gather -> einsum ->
    scatter chain to the last bit, on drawn edge lists (none, repeated)
    from n_s key rows to n_d query rows, of which the last of each is never
    read, for dk 1, 2 and 8, with the gathers in chunks of 1 to 3 edges or
    whole; one kept plan serves twice, before and after its matrices exist."""
    n_s, n_d = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6))
    count = data.draw(st.integers(0, 24))
    src, dst = (np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=count,
                                            max_size=count)), dtype=np.int64)
                for n in (n_s, n_d))
    heads, dk = data.draw(st.integers(1, 4)), data.draw(st.sampled_from([1, 2, 8]))
    chunk = data.draw(st.sampled_from([1, 2, 3, None]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))

    def spread(*shape):
        # magnitudes over many decades, so the summation order shows in the bits
        return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    keys, queries, out_grad = spread(n_s + 1, heads, dk), spread(n_d + 1, heads, dk), \
        spread(count, heads)

    def run(op, edges):
        k, q = param(keys), param(queries)
        out = op(k, q, edges)
        (out * Tensor.const(out_grad)).sum().backward()
        return [np.ascontiguousarray(a) for a in (out.value, k.grad, q.grad)]

    def plan():
        return Edges(Segments(src, n_s + 1), Segments(dst, n_d + 1))
    want = run(edge_scores_chain, plan())
    kept = plan()
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(autodiff, "EDGE_CHUNK_BYTES", chunk * heads * dk * 8)
        for _ in range(2):
            got = run(edge_scores, kept)
            assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes())
                                                             for a in want]
            assert not got[1][-1].any() and not got[2][-1].any()     # the unread rows


def test_head_blocks_hold_int32_indices_and_the_products_of_an_int64_build():
    """Each direction's matrix keeps int32 indices, with the structure of an
    int64 build of the same plan, and its products give that build's bytes;
    past the int32 range the indices are int64."""
    rng = np.random.default_rng(3)
    n_s, n_d, count, heads, dk = 9, 7, 60, 3, 2
    src, dst = rng.integers(0, n_s, count), rng.integers(0, n_d - 1, count)
    edges = Edges(Segments(src, n_s), Segments(dst, n_d))
    weights = rng.normal(size=(count, heads)) * 10.0 ** rng.integers(-8, 9, size=(count, heads))
    for transposed, rows, n_rows, cols, n_cols in ((False, dst, n_d, src, n_s),
                                                   (True, src, n_s, dst, n_d)):
        x = rng.normal(size=(n_cols, heads, dk)) * 10.0 ** rng.integers(-8, 9, size=(n_cols, 1, 1))
        got = autodiff._head_product(edges, weights, transposed, x)
        matrix, _ = edges.blocks(heads, transposed)
        wide, flat = head_blocks_int64(rows, cols, n_rows, n_cols, heads)
        assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
        assert wide.indices.dtype == wide.indptr.dtype == np.int64
        assert np.array_equal(matrix.indices, wide.indices)
        assert np.array_equal(matrix.indptr, wide.indptr)
        wide.data[:] = weights.ravel()[flat]
        want = (wide @ x.transpose(1, 0, 2).reshape(-1, dk)).reshape(heads, -1, dk)
        assert got.shape == (n_rows, heads, dk)
        assert got.tobytes() == want.transpose(1, 0, 2).tobytes()

    # 2 heads over 2**30 columns pass the int32 range; no row holds them all
    big = autodiff._head_blocks(Segments(dst, n_d), Segments(src, 1 << 30), 2)
    assert big.indices.dtype == big.indptr.dtype == np.int64
    wide, _ = head_blocks_int64(dst, src, n_d, 1 << 30, 2)
    assert np.array_equal(big.indices, wide.indices) and np.array_equal(big.indptr, wide.indptr)


def test_edge_scores_of_a_network_sized_table_keep_the_bits_of_one_gather(monkeypatch):
    """26,280 edges, the size of a `select_mixed` network, scored in one
    chunk and in chunks of 1,000 edges: the same bits as the whole chain."""
    rng = np.random.default_rng(11)
    n, relations, heads, dk, count = 391, 5, 4, 8, 26_280
    edges = Edges(Segments(rng.integers(0, n * relations, count), n * relations),
                  Segments(rng.integers(0, n, count), n))
    keys = Tensor.const(rng.normal(size=(n * relations, heads, dk)))
    queries = Tensor.const(rng.normal(size=(n, heads, dk)))
    want = edge_scores_chain(keys, queries, edges).value.tobytes()
    for chunk_bytes in (1 << 30, 1000 * heads * dk * 8):
        monkeypatch.setattr(autodiff, "EDGE_CHUNK_BYTES", chunk_bytes)
        assert edge_scores(keys, queries, edges).value.tobytes() == want


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_segment_sort_is_the_stable_argsort(data):
    """A plan's order equals the int64 stable argsort of its index, whether it
    sorts a uint16 copy (at most 2**16 buckets) or the index itself."""
    size = data.draw(st.sampled_from([1, 5, 400, 1 << 16, (1 << 16) + 1]))
    values = st.integers(max(0, size - 3), size - 1) | st.integers(0, size - 1)
    index = np.array(data.draw(st.lists(values, max_size=40)), dtype=np.int64)
    order, indptr = Segments(index, size)._sorted()
    assert np.array_equal(order, np.argsort(index, kind="stable"))
    assert np.array_equal(indptr, np.r_[0, np.cumsum(np.bincount(index, minlength=size))])


def test_segment_sort_on_many_ties_and_past_the_uint16_range():
    rng = np.random.default_rng(4)
    # 26,280 edge targets over 401 nodes, and a plan of 65,537 buckets whose
    # top bucket a uint16 copy would wrap to 0
    past = np.r_[rng.integers(0, 1 << 16, 5_000), [1 << 16, 0, 1 << 16]]
    for index, size in ((rng.integers(0, 401, 26_280), 401), (past, (1 << 16) + 1)):
        order, _ = Segments(index, size)._sorted()
        assert np.array_equal(order, np.argsort(index, kind="stable"))


def test_segment_plan_rejects_a_mismatched_index():
    plan = Segments(np.array([0, 2, 2]), 3)
    with pytest.raises(ValueError, match="3 buckets used for 4"):
        Tensor.const(np.ones((4, 2))).gather(plan)
    with pytest.raises(ValueError, match="3 buckets used for 2"):
        Tensor.const(np.ones(3)).segment_sum(plan, 2)
    for bad in (np.array([0, 3]), np.array([-1, 0])):
        with pytest.raises(IndexError):
            Segments(bad, 3)
    with pytest.raises(ValueError, match="1-D"):
        Segments(np.zeros((2, 2), dtype=np.int64), 3)
    for other in (Segments(np.array([0, 1]), 3), Segments(np.array([0, 1, 1, 0]), 4)):
        with pytest.raises(ValueError, match="disagree"):
            Edges(plan, other)
    # the ends may index different row counts, as keys and queries do
    Edges(plan, Segments(np.array([0, 1, 1]), 4))


def test_segment_softmax_values_and_grads():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=7)
    seg = np.array([0, 0, 0, 1, 1, 2, 2])
    out = segment_softmax(Tensor.const(logits), seg, 3)
    for s in range(3):
        rows = seg == s
        e = np.exp(logits[rows] - logits[rows].max())
        assert np.allclose(out.value[rows], e / e.sum(), atol=1e-12)
        assert out.value[rows].sum() == pytest.approx(1.0)

    check_op(lambda a: segment_softmax(a, seg, 3), (7,))
    # empty segments are allowed: num_segments larger than used labels
    check_op(lambda a: segment_softmax(a, seg, 5), (7,))

    # (E, H) logits: each column is its own softmax over the same groups
    wide = rng.normal(size=(7, 3))
    out = segment_softmax(Tensor.const(wide), seg, 3)
    for h in range(3):
        col = segment_softmax(Tensor.const(wide[:, h]), seg, 3)
        assert np.allclose(out.value[:, h], col.value, atol=1e-15)
    check_op(lambda a: segment_softmax(a, seg, 3), (7, 3))
    check_op(lambda a: segment_softmax(a, seg, 5), (7, 2))


def test_diamond_reuse_accumulates():
    x = param(np.array([0.7, -0.3]))
    y = x * x + x.exp()
    loss = y.sum()
    loss.backward()
    want = 2 * x.value + np.exp(x.value)
    assert np.allclose(x.grad, want, atol=1e-12)


def test_reused_tensor_through_two_paths():
    a = param(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = a @ a.transpose()            # a appears twice
    loss = b.sum()
    loss.backward()

    def f():
        return float((a.value @ a.value.T).sum())
    want = fd_grad(f, a.value)
    assert np.allclose(a.grad, want, atol=1e-5)


def test_backward_requires_scalar():
    t = param(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_constants_are_not_differentiated():
    c = Tensor.const(np.ones(3))
    p = param(np.ones(3))
    out = (c * p).sum()
    out.backward()
    assert c.grad is None
    assert np.allclose(p.grad, 1.0)
    assert not Tensor.const(1.0).requires_grad
    assert (c + c).requires_grad is False
    assert (c + p).requires_grad is True


def test_ops_over_constants_record_no_tape():
    c, p = Tensor.const(np.ones((2, 2))), param(np.ones((2, 2)))
    assert (c * p).parents == (p,)
    assert (p - c).parents == (p,)
    idx = np.array([0, 1, 1])
    for out in (c + c, c - c, c * c, c / c, -c, c @ c, c.exp(), c.log(), c.reshape(4),
                c.transpose(), c.sum(), c.gather(idx), c.segment_sum(idx[:2], 2),
                concat([c, c]), einsum("ij,jk->ik", c, c), segment_softmax(c, idx[:2], 2)):
        assert out.parents == () and out.backward_fn is None and not out.requires_grad


def test_item_and_shape():
    t = Tensor.const(np.arange(6.0).reshape(2, 3))
    assert t.shape == (2, 3)
    assert Tensor.const(2.5).item() == 2.5
