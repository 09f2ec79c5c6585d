"""Gradient checks for every reverse-mode op against central differences."""

import warnings
import weakref

import numpy as np
import pytest

import hoptrace.autodiff as ad
from hoptrace.autodiff import Tensor

from oracles import gradcheck, sum_axis, take_grad


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
    gradcheck(lambda: ad.sum_(2.0 * a + a), [a])


def test_rsub_and_neg(rng):
    a = leaf(rng, 4)
    gradcheck(lambda: ad.sum_(a * (-a)), [a])


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


def test_sigmoid_array_numerator_is_bit_identical_to_where(rng):
    """max(e, x >= 0) against the where(x >= 0, 1, e) it replaced, at the
    shapes of the GRU gates and the text mask and on NaN, +-inf and +-0."""
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 1e-300, -1e-300])
    for shape in ((2, 64, 128), (64, 502)):
        x = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 7, shape))
        x.flat[: edges.size] = edges
        e = np.exp(np.minimum(x, -x))
        want = np.divide(np.where(x >= 0, 1.0, e), 1.0 + e)
        got = ad.sigmoid_array(x)
        assert got.shape == shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_matmul(rng):
    a = leaf(rng, 3, 4)
    b = leaf(rng, 4, 2)
    gradcheck(lambda: ad.sum_(a @ b), [a, b])


@pytest.mark.parametrize("shapes", [((5, 3), (3,)), ((3,), (3, 2)), ((3,), (3,)), ((2, 3, 4), (4, 2))])
def test_matmul_refuses_other_operands(rng, shapes):
    """Only matrix @ matrix and stack @ stack have a vjp, so any other
    product fails before it computes anything."""
    a, b = (leaf(rng, *shape) for shape in shapes)
    with pytest.raises(ValueError, match="two 2-d or two 3-d operands"):
        a @ b


def test_batched_matmul(rng):
    a = leaf(rng, 3, 2, 4)
    b = leaf(rng, 3, 4, 5)
    w = Tensor(rng.standard_normal((3, 2, 5)))
    gradcheck(lambda: ad.sum_((a @ b) * w), [a, b])


def test_batched_matmul_matches_per_item_products(rng):
    a, b = leaf(rng, 4, 3, 5), leaf(rng, 4, 5, 2)
    g = rng.standard_normal((4, 3, 2))
    out = a @ b
    out.backward(g)
    for i in range(4):
        ai, bi = Tensor(a.data[i], requires_grad=True), Tensor(b.data[i], requires_grad=True)
        oi = ai @ bi
        oi.backward(g[i])
        np.testing.assert_allclose(out.data[i], oi.data, rtol=0, atol=1e-14)
        np.testing.assert_allclose(a.grad[i], ai.grad, rtol=0, atol=1e-14)
        np.testing.assert_allclose(b.grad[i], bi.grad, rtol=0, atol=1e-14)


@pytest.mark.parametrize("axes", [(0, 2, 1), (1, 2, 0), (2, 0, 1)])
def test_transpose(rng, axes):
    a = leaf(rng, 2, 3, 4)
    out = ad.transpose(a, axes)
    np.testing.assert_array_equal(out.data, a.data.transpose(axes))
    w = Tensor(rng.standard_normal(out.shape))
    gradcheck(lambda: ad.sum_(ad.transpose(a, axes) * w), [a])


def test_sum_axis_dropdims(rng):
    a = leaf(rng, 4, 3)
    gradcheck(lambda: ad.sum_(sum_axis(a, 0) * sum_axis(a, 0)), [a])


def test_softmax_rows(rng):
    a = leaf(rng, 3, 5)
    w = Tensor(rng.standard_normal((3, 5)))
    gradcheck(lambda: ad.sum_(ad.softmax(a) * w), [a])


def test_softmax_matches_dense_jacobian(rng):
    x = rng.standard_normal(6)
    a = Tensor(x, requires_grad=True)
    g = rng.standard_normal(6)
    out = ad.softmax(a)
    ad.sum_(out * Tensor(g)).backward()
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


# each non-empty key but the permutation hits one position five or more
# times, so a sum taken in another order than the gather's would show in the
# last bits; the 1-D cases take the vjp's own 1-D path
TAKE_CASES = {
    "1-d-permutation": ((50_000,), np.random.default_rng(0).permutation(50_000)),
    "1-d-repeats-and-negatives": ((7,), np.array([-1, 2, -7, 6, -1, 0, -1, 6, -1, 6])),
    "rows-with-repeats": ((9, 4), np.array([3, 0, 3, 8, 3, 1, 3, 3, 3])),
    "row-col-pairs-with-repeats": (
        (5, 6),
        (np.array([0, 4, 0, 2, 0, 0, 0, 0, 0]), np.array([1, 5, 1, 1, 1, 3, 1, 1, 1])),
    ),
    "negative-indices": ((7, 3), np.array([-1, 2, -7, 6, -1, 0, -1, 6, -1])),
    "slice-and-array": ((4, 6), (slice(1, None), np.array([5, 0, 5, 2, 5, 5, 5, 5]))),
    "empty-index": ((6, 2), np.array([], dtype=np.int64)),
    # one integer array per axis, broadcast to (4, 3) as the encoder's pooled
    # gather is: the vjp's ravel_multi_index path
    "broadcast-per-axis-repeats-and-negatives": (
        (3, 4, 5),
        (np.array([[0], [-3], [0], [2]]),
         np.array([[1, -3, 1], [3, -1, 3], [1, 1, -3], [0, 0, 0]]),
         np.array([4, -1, 4])),
    ),
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
    ad.sum_(m + m).backward()
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


def test_backward_frees_the_graph_and_refuses_a_second_walk(rng):
    """The walk drops each interior node's parents and vjp: an interior node
    that only the graph holds is freed by backward, not by the loss going
    out of scope, and a second backward through the walked graph raises."""
    x = leaf(rng, 3)
    mid = x * 2.0  # no vjp closure holds mid's array, only mid itself
    alive = weakref.ref(mid.data)
    y = ad.sum_(mid)
    del mid
    assert alive() is not None
    y.backward()
    assert alive() is None
    np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])
    with pytest.raises(RuntimeError, match="already walked"):
        y.backward()


def test_deep_chain_does_not_overflow(rng):
    # iterative topological order, so thousands of nodes are fine
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.0001
    ad.sum_(y).backward()
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
    q = leaf(rng, 1, d)
    w = leaf(rng, d, d)

    def f():
        qk = ad.tanh(q @ w)
        att = ad.softmax(qk @ ad.transpose(h, (1, 0)))
        pooled = sum_axis(ad.reshape(att, (L, 1)) * h, 0)
        return ad.sum_(pooled * pooled)

    gradcheck(f, [h, q, w])
