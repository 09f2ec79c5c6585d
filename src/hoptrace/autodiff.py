"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray plus the closure needed to push
gradients back to its parents.  ``backward()`` walks the graph in reverse
topological order, keeping per-node adjoints in a dict and accumulating into
``.grad`` only on leaves created with ``requires_grad=True``.  That makes it
safe to reuse a cached subgraph (e.g. an encoded relation shared by many
examples in a batch) across several backward calls: each call contributes
its share to the leaf gradients and nothing else is mutated.

Only the ops this package needs are implemented; all of them support the
shapes they are actually used with (0-, 1- and 2-d arrays, numpy-style
broadcasting for the elementwise ones).  A gather's backward pass (take)
adds through kernels._scatter, the package's one scatter-add.
"""

from __future__ import annotations

import numpy as np

from .kernels import _scatter

_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction (for evaluation)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None

    # -- graph plumbing ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def backward(self, seed=None):
        """Accumulate d(self)/d(leaf) into ``leaf.grad`` for every
        requires_grad leaf reachable from this node.

        ``seed`` defaults to ones (the usual scalar-loss case).
        """
        if seed is None:
            seed = np.ones_like(self.data)
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        adj = {id(self): np.asarray(seed, dtype=np.float64)}
        for node in reversed(topo):
            g = adj.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    if node.grad is None:
                        node.grad = np.zeros_like(node.data)
                    node.grad += g
                continue
            for p, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not p.requires_grad:
                    continue
                if id(p) in adj:
                    adj[id(p)] = adj[id(p)] + pg
                else:
                    adj[id(p)] = pg

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def node(data, parents, vjp) -> Tensor:
    """Build an interior graph node; drops the tape when grads are off or no
    parent needs them.  Custom ops elsewhere in the package go through this.
    """
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g, shape):
    """Sum g down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise


def add(a, b):
    a, b = _ensure(a), _ensure(b)
    return node(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def mul(a, b):
    a, b = _ensure(a), _ensure(b)
    return node(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a, b):
    a, b = _ensure(a), _ensure(b)
    out = a.data / b.data
    return node(
        out,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * out / b.data, b.data.shape),
        ),
    )


def log(a):
    a = _ensure(a)
    return node(np.log(a.data), (a,), lambda g: (g / a.data,))


def tanh(a):
    a = _ensure(a)
    out = np.tanh(a.data)
    return node(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid_array(x):
    """Logistic function of an ndarray that never overflows: 1/(1+e^-x) for
    x >= 0 and e^x/(1+e^x) below, both from e = exp(-|x|) <= 1.  -|x| is
    taken as min(x, -x), which keeps a NaN's sign as exp(x) would."""
    e = np.exp(np.minimum(x, -x))
    den = 1.0 + e
    return np.where(x >= 0, 1.0 / den, e / den)


def sigmoid(a):
    a = _ensure(a)
    out = sigmoid_array(a.data)
    return node(out, (a,), lambda g: (g * out * (1.0 - out),))


# ---------------------------------------------------------------------------
# reductions and shape ops


def sum_(a, axis=None, keepdims=False):
    a = _ensure(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return node(out, (a,), vjp)


def matmul(a, b):
    a, b = _ensure(a), _ensure(b)
    ad, bd = a.data, b.data
    out = ad @ bd

    def vjp(g):
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 2 and bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return bd @ g, np.outer(ad, g)
        return g * bd, g * ad  # 1-d dot: scalar upstream

    return node(out, (a, b), vjp)


def softmax(a):
    """Numerically stable softmax over the last axis."""
    a = _ensure(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (out * (g - (g * out).sum(axis=-1, keepdims=True)),)

    return node(out, (a,), vjp)


def reshape(a, shape):
    a = _ensure(a)
    return node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def take(a, key):
    """Indexing (``a[key]``); supports basic slicing and integer-array
    gathers.  Repeated indices accumulate on the backward pass: a gather's
    vjp indexes the flat positions of a with the same key and adds g back
    with one kernels._scatter, in the gather's order.
    """
    a = _ensure(a)
    advanced = isinstance(key, (np.ndarray, list)) or (
        isinstance(key, tuple) and any(isinstance(k, (np.ndarray, list)) for k in key)
    )

    def vjp(g):
        if advanced:
            flat = np.arange(a.data.size).reshape(a.data.shape)[key]
            return (_scatter(flat.ravel(), g.ravel(), a.data.size).reshape(a.data.shape),)
        full = np.zeros_like(a.data)
        full[key] += g
        return (full,)

    return node(a.data[key], (a,), vjp)


def concat(tensors, axis=0):
    tensors = [_ensure(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return node(out, tuple(tensors), vjp)

