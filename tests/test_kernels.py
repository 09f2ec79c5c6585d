"""The sparse push kernels against naive references.

Each op has one implementation, whose scatter-adds are np.bincount calls
summing in edge order.  The np.add.at loops in oracles.py sum in the same
order, so every output must match them bit for bit, not just within
tolerance.  The kernels assume in-range indices, which RelationGraph checks
when it is built.
"""

import numpy as np
import pytest

import oracles
from hoptrace import kernels

OPS = [
    "push_forward",
    "push_backward",
    "push_batch_forward",
    "push_batch_backward",
    "push_max_forward",
    "push_max_backward",
    "col_scatter_add",
]


def random_edges(rng, n_entities=None, n_edges=None):
    n = n_entities or int(rng.integers(3, 40))
    m = n_edges or int(rng.integers(1, 6 * n))
    heads = rng.integers(0, n, size=m).astype(np.int64)
    tails = rng.integers(0, n, size=m).astype(np.int64)
    w = rng.random(m)
    a = rng.random(n)
    return n, heads, tails, w, a


def group_pairs(heads, tails, w):
    """Regroup edges by (head, tail) pair the way the model does: contiguous
    runs addressed by a ptr array."""
    order = np.lexsort((np.arange(len(heads)), tails, heads))
    h, t, ww = heads[order], tails[order], w[order]
    pair_heads, pair_tails, ptr = [], [], []
    for i in range(len(h)):
        if i == 0 or (h[i], t[i]) != (h[i - 1], t[i - 1]):
            pair_heads.append(h[i])
            pair_tails.append(t[i])
            ptr.append(i)
    ptr.append(len(h))
    return (
        np.array(pair_heads, dtype=np.int64),
        np.array(pair_tails, dtype=np.int64),
        np.array(ptr, dtype=np.int64),
        ww,
    )


def edge_cases(rng):
    """(n, heads, tails, w, a): random graphs, a graph of parallel edges whose
    weights tie often, the disjoint union of three such graphs, and an empty
    edge list."""
    for _ in range(20):
        yield random_edges(rng)
    heads = rng.integers(0, 2, size=40)
    tails = rng.integers(0, 2, size=40)
    yield 3, heads, tails, rng.choice([0.25, 0.75], size=40), rng.random(3)
    # a batch of 3 as forward_batch pushes it: row b's ids shifted by b*n
    n, heads, tails, _, _ = random_edges(rng, 5, 30)
    shift = np.repeat(np.arange(3), heads.size) * n
    yield 3 * n, np.tile(heads, 3) + shift, np.tile(tails, 3) + shift, rng.choice([0.25, 0.75], size=90), rng.random(3 * n)
    empty = np.zeros(0, dtype=np.int64)
    yield 3, empty, empty, np.zeros(0), rng.random(3)


def op_args(op, rng, n, heads, tails, w, a, B=4):
    """Arguments for one call of op on the given edges; batched ops get B
    rows, the first of which reuses w and a."""
    W = np.vstack([w, rng.random((B - 1, w.size))])
    A = np.vstack([a, rng.random((B - 1, n))])
    G = rng.standard_normal((B, n))
    ph, pt, ptr, ww = group_pairs(heads, tails, w)
    argmax = oracles.push_max_forward(ph, pt, ptr, ww, a, n)[1]
    return {
        "push_forward": (heads, tails, w, a, n),
        "push_backward": (heads, tails, w, a, G[0]),
        "push_batch_forward": (heads, tails, W, A, n),
        "push_batch_backward": (heads, tails, W, A, G),
        "push_max_forward": (ph, pt, ptr, ww, a, n),
        "push_max_backward": (ph, pt, argmax, ww, a, G[0]),
        "col_scatter_add": (rng.integers(0, 6, size=w.size), W, 6),
    }[op]


@pytest.mark.parametrize("op", OPS)
def test_kernel_bit_identical_to_oracle(rng, op):
    for case in edge_cases(rng):
        args = op_args(op, rng, *case)
        got, want = getattr(kernels, op)(*args), getattr(oracles, op)(*args)
        got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("order", ["C", "F"])
def test_batch_kernels_fold_c_ordered_rows(rng, monkeypatch, order):
    """Whatever the layout of w, a and g, the (B, E) arrays the batched
    kernels fold and the d/dw they return are C-ordered, so np.bincount
    reads each row as one contiguous run.  A gather x[:, idx] returns F
    order, and F-ordered inputs would carry it through."""
    folded = []
    fold = kernels._fold

    def recording_fold(index, src, num_out):
        folded.append(src.flags.c_contiguous)
        return fold(index, src, num_out)

    monkeypatch.setattr(kernels, "_fold", recording_fold)
    n, heads, tails, _, _ = random_edges(rng, 20, 60)
    B = 4
    W, A, G = (
        np.asarray(x, order=order) for x in (rng.random((B, heads.size)), rng.random((B, n)), rng.random((B, n)))
    )
    kernels.push_batch_forward(heads, tails, W, A, n)
    _, grad_w = kernels.push_batch_backward(heads, tails, W, A, G)
    assert folded == [True, True]
    assert grad_w.flags.c_contiguous


def test_push_forward_matches_dense(rng):
    for _ in range(50):
        n, heads, tails, w, a = random_edges(rng)
        dense = np.zeros((n, n))
        for h, t, ww in zip(heads, tails, w):
            dense[h, t] += ww
        out = kernels.push_forward(heads, tails, w, a, n)
        np.testing.assert_allclose(out, a @ dense, atol=1e-12)


def test_push_backward_is_transpose(rng):
    # <g, push(a)> must equal <push_backward(g), a> plus the w term
    for _ in range(20):
        n, heads, tails, w, a = random_edges(rng)
        g = rng.standard_normal(n)
        out = kernels.push_forward(heads, tails, w, a, n)
        grad_a, grad_w = kernels.push_backward(heads, tails, w, a, g)
        np.testing.assert_allclose(np.dot(g, out), np.dot(grad_a, a), atol=1e-10)
        np.testing.assert_allclose(np.dot(g, out), np.dot(grad_w, w), atol=1e-10)


def test_push_max_forward_keeps_strongest_parallel_edge(rng):
    n = 4
    heads = np.array([0, 0, 0, 1], dtype=np.int64)
    tails = np.array([2, 2, 3, 3], dtype=np.int64)
    w = np.array([0.3, 0.9, 0.5, 0.2])
    a = np.array([1.0, 0.5, 0.0, 0.0])
    ph, pt, ptr, ww = group_pairs(heads, tails, w)
    out, argmax = kernels.push_max_forward(ph, pt, ptr, ww, a, n)
    np.testing.assert_allclose(out, [0.0, 0.0, 0.9, 0.5 + 0.1])
    assert ww[argmax[0]] == 0.9


def test_push_max_ties_keep_first_edge(rng):
    heads = np.array([0, 0], dtype=np.int64)
    tails = np.array([1, 1], dtype=np.int64)
    w = np.array([0.7, 0.7])
    ph, pt, ptr, ww = group_pairs(heads, tails, w)
    _, argmax = kernels.push_max_forward(ph, pt, ptr, ww, np.array([1.0, 0.0]), 2)
    assert argmax[0] == 0


def test_push_max_backward_routes_to_argmax_only(rng):
    n, heads, tails, w, a = random_edges(rng, 6, 20)
    ph, pt, ptr, ww = group_pairs(heads, tails, w)
    out, argmax = kernels.push_max_forward(ph, pt, ptr, ww, a, n)
    g = rng.standard_normal(n)
    grad_a, grad_w = kernels.push_max_backward(ph, pt, argmax, ww, a, g)
    non_argmax = np.setdiff1d(np.arange(len(ww)), argmax)
    assert np.all(grad_w[non_argmax] == 0.0)
    np.testing.assert_allclose(np.dot(g, out), np.dot(grad_w, ww), atol=1e-10)


def test_push_max_one_edge_pairs_match_the_reduceat_path(rng):
    """When every pair has one edge, both max kernels skip their reduceat
    scan.  They give what the oracles give, and what the reduceat path
    gives, reached by appending one two-edge pair on an entity of its own,
    for weights that hold a NaN, a +0 and a -0 and heads that score 0.
    (assert_array_equal does not tell -0.0 from +0.0: d/dw is a plain
    product here, as in push_backward, where the reduceat path adds it into
    zeros.)"""
    n, E = 12, 30
    ph, pt = np.divmod(np.sort(rng.choice(n * n, size=E, replace=False)), n)  # distinct pairs
    ptr = np.arange(E + 1)
    w = rng.random(E)
    w[[3, 7, 11]] = [np.nan, 0.0, -0.0]
    a = rng.random(n)
    a[[ph[5], ph[20]]] = 0.0
    g = rng.standard_normal(n)
    out, argmax = kernels.push_max_forward(ph, pt, ptr, w, a, n)
    grad_a, grad_w = kernels.push_max_backward(ph, pt, argmax, w, a, g)
    want_out, want_argmax = oracles.push_max_forward(ph, pt, ptr, w, a, n)
    want_grad_a, want_grad_w = oracles.push_max_backward(ph, pt, want_argmax, w, a, g)

    xh, xt, xptr = np.append(ph, n), np.append(pt, n), np.append(ptr, E + 2)
    xw, xa, xg = np.append(w, [0.25, 0.5]), np.append(a, 1.0), np.append(g, 1.0)
    r_out, r_argmax = kernels.push_max_forward(xh, xt, xptr, xw, xa, n + 1)
    r_grad_a, r_grad_w = kernels.push_max_backward(xh, xt, r_argmax, xw, xa, xg)
    assert r_argmax[-1] == E + 1
    cases = [
        (out, want_out, r_out[:n]),
        (argmax, want_argmax, r_argmax[:-1]),
        (grad_a, want_grad_a, r_grad_a[:n]),
        (grad_w, want_grad_w, r_grad_w[:-2]),
    ]
    for got, oracle, reduceat in cases:
        assert got.dtype == oracle.dtype == reduceat.dtype
        np.testing.assert_array_equal(got, oracle)
        np.testing.assert_array_equal(got, reduceat)
    np.testing.assert_array_equal(argmax, np.arange(E))
    assert np.isnan(out[pt[3]]) and np.isnan(grad_w).sum() == 0 and np.isnan(grad_a[ph[3]])


def test_col_scatter_add_matches_dense(rng):
    """Folding columns by index must equal multiplying by the expansion
    matrix's transpose."""
    for _ in range(10):
        num_out = int(rng.integers(2, 8))
        E = int(rng.integers(1, 40))
        index = rng.integers(0, num_out, size=E)
        src = rng.standard_normal((3, E))
        expand = np.zeros((num_out, E))
        expand[index, np.arange(E)] = 1.0
        np.testing.assert_allclose(
            kernels.col_scatter_add(index, src, num_out), src @ expand.T, atol=1e-12
        )


def test_empty_edge_list(rng):
    empty = np.array([], dtype=np.int64)
    out = kernels.push_forward(empty, empty, np.array([]), np.array([0.5, 0.5]), 2)
    np.testing.assert_array_equal(out, [0.0, 0.0])
