"""Gradient checks for every reverse-mode op against central differences."""

import warnings

import numpy as np
import pytest

import hoptrace.autodiff as ad
from hoptrace.autodiff import Tensor

from oracles import gradcheck, take_grad


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_add_broadcast(rng):
    a = leaf(rng, 3, 4)
    b = leaf(rng, 4)
    gradcheck(lambda: ad.sum_((a + b) * (a + b)), [a, b])


def test_mul_broadcast(rng):
    a = leaf(rng, 2, 5)
    b = leaf(rng, 1, 5)
    gradcheck(lambda: ad.sum_(a * b + a), [a, b])


def test_scalar_arithmetic(rng):
    a = leaf(rng, 6)
    gradcheck(lambda: ad.sum_(2.0 * a - 0.5 + a / 3.0), [a])


def test_rsub_and_neg(rng):
    a = leaf(rng, 4)
    gradcheck(lambda: ad.sum_((1.0 - a) * (-a)), [a])


def test_div(rng):
    a = leaf(rng, 5)
    b = Tensor(rng.random(5) + 1.5, requires_grad=True)
    gradcheck(lambda: ad.sum_(a / b), [a, b])


def test_exp_log(rng):
    a = Tensor(np.exp(rng.standard_normal(7)), requires_grad=True)
    gradcheck(lambda: ad.sum_(ad.log(a) * a), [a])


def test_tanh(rng):
    a = leaf(rng, 3, 3)
    gradcheck(lambda: ad.sum_(ad.tanh(a) * a), [a])


def test_sigmoid(rng):
    a = leaf(rng, 8)
    gradcheck(lambda: ad.sum_(ad.sigmoid(a) * a), [a])


def _two_branch_sigmoid(x):
    """The logistic function as written before sigmoid_array: masked gathers
    and scatters of the two overflow-safe branches."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_array_is_bit_identical_to_two_branch_formula(rng):
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 1e308, -1e308]
    x = np.concatenate([edges, rng.standard_normal(4000) * np.exp(rng.uniform(-20, 7, 4000))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning either
        got = ad.sigmoid_array(x)
    want = _two_branch_sigmoid(x)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    np.testing.assert_array_equal(ad.sigmoid(Tensor(x)).data, want)


def test_matmul(rng):
    a = leaf(rng, 3, 4)
    b = leaf(rng, 4, 2)
    gradcheck(lambda: ad.sum_(a @ b), [a, b])


def test_matvec(rng):
    a = leaf(rng, 5, 3)
    v = leaf(rng, 3)
    gradcheck(lambda: ad.sum_((a @ v) * (a @ v)), [a, v])


def test_sum_axis_keepdims(rng):
    a = leaf(rng, 2, 3, 4)
    gradcheck(lambda: ad.sum_(ad.sum_(a, axis=1, keepdims=True) * a), [a])


def test_sum_axis_dropdims(rng):
    a = leaf(rng, 4, 3)
    gradcheck(lambda: ad.sum_(ad.sum_(a, axis=0) * ad.sum_(a, axis=0)), [a])


def test_softmax_rows(rng):
    a = leaf(rng, 3, 5)
    w = Tensor(rng.standard_normal((3, 5)))
    gradcheck(lambda: ad.sum_(ad.softmax(a) * w), [a])


def test_softmax_matches_dense_jacobian(rng):
    x = rng.standard_normal(6)
    a = Tensor(x, requires_grad=True)
    g = rng.standard_normal(6)
    out = ad.softmax(a)
    (out * Tensor(g)).sum().backward()
    s = np.exp(x - x.max())
    s /= s.sum()
    jac = np.diag(s) - np.outer(s, s)
    np.testing.assert_allclose(a.grad, jac @ g, atol=1e-12)


def test_reshape(rng):
    a = leaf(rng, 6)
    gradcheck(lambda: ad.sum_(ad.reshape(a, (2, 3)) * ad.reshape(a, (2, 3))), [a])


def test_take_basic_row(rng):
    a = leaf(rng, 4, 3)
    gradcheck(lambda: ad.sum_(a[1] * a[1]), [a])


def test_take_advanced_repeated_indices(rng):
    # same row gathered twice: adjoints must accumulate, not overwrite
    a = leaf(rng, 5, 2)
    idx = np.array([1, 3, 1, 1])
    out = ad.take(a, idx)
    ad.sum_(out).backward()
    expected = np.zeros((5, 2))
    np.add.at(expected, idx, 1.0)
    np.testing.assert_allclose(a.grad, expected)


# each non-empty key hits one position five or more times, so a sum taken
# in another order than the gather's would show in the last bits
TAKE_CASES = {
    "rows-with-repeats": ((9, 4), np.array([3, 0, 3, 8, 3, 1, 3, 3, 3])),
    "row-col-pairs-with-repeats": (
        (5, 6),
        (np.array([0, 4, 0, 2, 0, 0, 0, 0, 0]), np.array([1, 5, 1, 1, 1, 3, 1, 1, 1])),
    ),
    "negative-indices": ((7, 3), np.array([-1, 2, -7, 6, -1, 0, -1, 6, -1])),
    "slice-and-array": ((4, 6), (slice(1, None), np.array([5, 0, 5, 2, 5, 5, 5, 5]))),
    "empty-index": ((6, 2), np.array([], dtype=np.int64)),
}


@pytest.mark.parametrize("case", list(TAKE_CASES))
def test_take_gradient_is_bit_identical_to_add_at(rng, case):
    shape, key = TAKE_CASES[case]
    a = leaf(rng, *shape)
    out = ad.take(a, key)
    np.testing.assert_array_equal(out.data, a.data[key])
    g = rng.standard_normal(out.shape)
    out.backward(g)
    np.testing.assert_array_equal(a.grad, take_grad(shape, key, g))


def test_take_gradcheck(rng):
    a = leaf(rng, 6)
    idx = np.array([0, 2, 2, 5])
    gradcheck(lambda: ad.sum_(ad.take(a, idx) * ad.take(a, idx)), [a])


def test_concat(rng):
    a = leaf(rng, 2, 3)
    b = leaf(rng, 2, 2)
    gradcheck(lambda: ad.sum_(ad.concat([a, b], axis=1) * ad.concat([a, b], axis=1)), [a, b])


def test_getitem_scalar_chain(rng):
    a = leaf(rng, 5)
    out = a[2] * 3.0
    out.backward()
    expected = np.zeros(5)
    expected[2] = 3.0
    np.testing.assert_allclose(a.grad, expected)


def test_backward_accumulates_through_diamond(rng):
    # y = x*x + x*x reuses the same parent twice
    x = Tensor(np.array([2.0]), requires_grad=True)
    m = x * x
    (m + m).sum().backward()
    np.testing.assert_allclose(x.grad, [8.0])


def test_backward_seed(rng):
    x = leaf(rng, 3)
    y = x * 2.0
    y.backward(seed=np.array([1.0, 0.0, -1.0]))
    np.testing.assert_allclose(x.grad, [2.0, 0.0, -2.0])


def test_no_grad_blocks_graph(rng):
    x = leaf(rng, 3)
    with ad.no_grad():
        y = ad.sum_(x * x)
    y.backward()  # nothing to propagate: the graph was never recorded
    assert x.grad is None


def test_grad_requires_flag(rng):
    x = Tensor(rng.standard_normal(3))
    y = ad.sum_(x * x)
    y.backward()
    assert x.grad is None


def test_leaf_grad_accumulates_across_backward_calls(rng):
    x = leaf(rng, 3)
    ad.sum_(x).backward()
    ad.sum_(x).backward()
    np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])


def test_deep_chain_does_not_overflow(rng):
    # iterative topological order, so thousands of nodes are fine
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.0001
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [1.0])


def test_float64_everywhere(rng):
    a = Tensor(np.array([1, 2, 3], dtype=np.int64))
    assert a.data.dtype == np.float64
    b = Tensor([0.5, 0.25])
    assert b.data.dtype == np.float64


def test_composed_attention_block(rng):
    """End-to-end check through softmax attention + tanh projection."""
    d, L = 4, 6
    h = leaf(rng, L, d)
    q = leaf(rng, d)
    w = leaf(rng, d, d)

    def f():
        qk = ad.tanh(q @ w)
        att = ad.softmax(h @ qk)
        pooled = ad.sum_(ad.reshape(att, (L, 1)) * h, axis=0)
        return ad.sum_(pooled * pooled)

    gradcheck(f, [h, q, w])
