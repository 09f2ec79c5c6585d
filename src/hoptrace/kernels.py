"""Sparse score-transfer kernels.

Each op pushes entity scores along an explicit edge list, and each has one
numpy implementation.  Every scatter-add is a single ``np.bincount``, which
adds its weights one by one in edge order, so the results are fixed by the
inputs alone.  ``np.bincount`` does not reject an index past ``n`` (it
returns a longer vector), so callers pass in-range indices: ``RelationGraph``
checks every id it holds when it is built.  The max ops run only where a
pair has parallel edges: elsewhere max is sum, and ``model.transfer_batch``
calls push_forward and push_backward.
"""

from __future__ import annotations

import numpy as np


def _scatter(index, weights, size):
    """out[index[e]] += weights[e], in edge order, into float64 zeros(size)."""
    # np.bincount hands back int64 zeros when there are no edges
    return np.bincount(index, weights=weights, minlength=size).astype(np.float64, copy=False)


def _fold(index, src, num_out):
    """out[b, index[e]] += src[b, e], in edge order: (B, E) -> (B, num_out).

    np.bincount reads each row of src; a row of a C-ordered src is one
    contiguous run, where x[:, idx] would hand back an F-ordered array whose
    rows are strided.  push_batch_forward and push_batch_backward therefore
    gather with np.take(x, idx, axis=1), which returns C order.  The model
    no longer calls the (B, E) ops (its label transfer is a flat push over
    the frontier); the benchmark's spans and checks and the tests still do.
    """
    out = np.empty((src.shape[0], num_out))
    for b, row in enumerate(src):
        out[b] = np.bincount(index, weights=row, minlength=num_out)
    return out


def push_forward(heads: np.ndarray, tails: np.ndarray, w: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """out[j] = sum over edges e=(i -> j) of a[i] * w[e]."""
    return _scatter(tails, a[heads] * w, n)


def push_backward(heads, tails, w, a, g):
    """Adjoints of push_forward: (d/da, d/dw) contracted with upstream g.
    The gathered g[tails] becomes d/dw in place, one (E,) temporary fewer."""
    g_tail = g[tails]
    grad_a = _scatter(heads, g_tail * w, a.shape[0])
    g_tail *= a[heads]
    return grad_a, g_tail


def push_batch_forward(heads, tails, w, a, n):
    """push_forward for B problems over one edge list: w is (B, E), a is
    (B, n); row b uses weights w[b]."""
    src = np.take(a, heads, axis=1)
    src *= w  # in place: one (B, E) temporary, not two
    return _fold(tails, src, n)


def push_batch_backward(heads, tails, w, a, g):
    """Adjoints of push_batch_forward contracted with upstream g (B, n)."""
    g_tail = np.take(g, tails, axis=1)
    grad_a = _fold(heads, g_tail * w, a.shape[1])
    g_tail *= np.take(a, heads, axis=1)  # becomes d/dw
    return grad_a, g_tail


def push_max_forward(pair_heads, pair_tails, pair_ptr, w, a, n):
    """Like push_forward but parallel edges of one (i, j) pair contribute
    max(w) instead of sum(w).  Edges must be grouped by pair via pair_ptr.
    Returns (out, argmax edge index per pair); ties keep the lowest index.
    """
    starts, ends = pair_ptr[:-1], pair_ptr[1:]
    best = np.repeat(np.maximum.reduceat(w, starts), ends - starts)
    hits = np.where(w == best, np.arange(w.shape[0]), w.shape[0])
    # the first edge equal to its pair's max; a NaN pair matches no edge,
    # so clamp the argmax back inside the pair
    argmax = np.minimum(np.minimum.reduceat(hits, starts), ends - 1)
    return _scatter(pair_tails, a[pair_heads] * w[argmax], n), argmax


def push_max_backward(pair_heads, pair_tails, argmax, w, a, g):
    """Adjoints of push_max_forward; gradient w.r.t. w flows only to the
    argmax edge of each pair."""
    g_tail = g[pair_tails]
    grad_a = _scatter(pair_heads, g_tail * w[argmax], a.shape[0])
    return grad_a, _scatter(argmax, g_tail * a[pair_heads], w.shape[0])


def col_scatter_add(index, src, num_out):
    """out[b, index[e]] += src[b, e]: fold the columns of src (B, E) into
    (B, num_out) groups.  Adjoint of a column gather x[:, index]."""
    return _fold(index, src, num_out)
