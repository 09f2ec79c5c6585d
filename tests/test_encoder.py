"""Tokenizer, vocabulary, BiGRU encoders, and the relation-encoding cache."""

import numpy as np
import pytest

import hoptrace.autodiff as ad
from hoptrace.autodiff import Tensor
from hoptrace.encoder import (
    OBJ,
    PAD,
    SUB,
    UNK,
    EncoderParams,
    RelationEncodingCache,
    Vocabulary,
    _gru_direction,
    encode_question,
    encode_question_batch,
    encode_relation_batch,
    split_tokens,
)

from oracles import bigru_reference, gradcheck, gru_direction_tape


# -- tokenizer -----------------------------------------------------------------


def test_split_tokens_lowercases_and_splits_punctuation():
    assert split_tokens("Who directed Blade?") == ["who", "directed", "blade", "?"]


def test_split_tokens_keeps_placeholders_whole():
    assert split_tokens("<sub> stars <obj>.") == ["<sub>", "stars", "<obj>", "."]


def test_split_tokens_empty():
    assert split_tokens("   ") == []


# -- vocabulary ------------------------------------------------------------------


def test_vocabulary_reserved_slots():
    v = Vocabulary()
    assert len(v) == 4
    assert v.token(PAD) == "<pad>" and v.token(UNK) == "<unk>"
    assert v.token(SUB) == "<sub>" and v.token(OBJ) == "<obj>"


def test_vocabulary_encode_unknown_and_empty():
    v = Vocabulary(["who", "directed"])
    np.testing.assert_array_equal(v.encode("who directed blade"), [4, 5, UNK])
    np.testing.assert_array_equal(v.encode(""), [UNK])


def test_vocabulary_placeholders_encode_to_reserved_ids():
    v = Vocabulary()
    np.testing.assert_array_equal(v.encode("<sub> x <obj>"), [SUB, UNK, OBJ])


def test_vocabulary_add_text_and_decode():
    v = Vocabulary()
    v.add_text("Alpha likes Beta.")
    ids = v.encode("alpha likes beta .")
    assert v.decode(ids) == "alpha likes beta ."


def test_vocabulary_save_load_roundtrip(tmp_path):
    v = Vocabulary(["who", "directed", "movie_3"])
    p = tmp_path / "vocab.txt"
    v.save(p)
    w = Vocabulary.load(p)
    assert w.tokens == v.tokens
    np.testing.assert_array_equal(w.encode("who directed movie_3"), v.encode("who directed movie_3"))


# -- encoders --------------------------------------------------------------------


def small_params(rng, vocab_size=12, d=6):
    return EncoderParams(vocab_size, d, rng, prefix="q")


def test_encode_question_shapes(rng):
    p = small_params(rng)
    enc = encode_question(p, np.array([4, 5, 6, 7]))
    assert enc.q.shape == (1, 6)
    assert enc.h.shape == (1, 4, 6)
    np.testing.assert_array_equal(enc.alive, np.ones((1, 4)))


def test_encode_question_deterministic(rng):
    p = small_params(rng)
    ids = np.array([4, 5, 6])
    a = encode_question(p, ids)
    b = encode_question(p, ids)
    np.testing.assert_array_equal(a.q.data, b.q.data)
    np.testing.assert_array_equal(a.h.data, b.h.data)


def test_encode_question_rejects_empty(rng):
    with pytest.raises(ValueError):
        encode_question(small_params(rng), np.array([], dtype=np.int64))


def test_encoder_order_sensitivity(rng):
    p = small_params(rng)
    a = encode_question(p, np.array([4, 5, 6])).q.data[0]
    b = encode_question(p, np.array([6, 5, 4])).q.data[0]
    assert np.abs(a - b).max() > 1e-8


def _ragged_alive(lengths):
    L = max(lengths)
    return (np.arange(L)[None, :] < np.array(lengths)[:, None]).astype(np.float64)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
def test_gru_direction_matches_composed_primitives(rng, reverse):
    """The fused direction agrees with the per-step tape recurrence on a
    ragged batch with a length-1 row: values within 1e-14 and every
    gradient within 1e-12.  Each row alone, unpadded, gives its batch row."""
    d, lengths = 5, [4, 1, 3, 4]
    alive = _ragged_alive(lengths)
    K, L = alive.shape
    gx = Tensor(rng.standard_normal((K, L, 3 * d)), requires_grad=True)
    w_h = Tensor(rng.standard_normal((d, 3 * d)), requires_grad=True)
    b = Tensor(rng.standard_normal(3 * d), requires_grad=True)
    weight = Tensor(rng.standard_normal((K, L, d)))

    fused = _gru_direction(gx, w_h, b, alive, reverse)
    ref = gru_direction_tape(gx, w_h, b, alive, reverse)
    assert fused.shape == (K, L, d)
    np.testing.assert_allclose(fused.data, ref.data, rtol=0, atol=1e-14)
    for k, n in enumerate(lengths):
        row = _gru_direction(Tensor(gx.data[k : k + 1, :n]), w_h, b, np.ones((1, n)), reverse)
        np.testing.assert_allclose(fused.data[k, :n], row.data[0], rtol=0, atol=1e-14)

    grads = []
    for out in (fused, ref):
        for t in (gx, w_h, b):
            t.grad = None
        ad.sum_(out * weight).backward()
        grads.append([t.grad.copy() for t in (gx, w_h, b)])
    for name, f, r in zip(("gx", "w_h", "b"), *grads):
        np.testing.assert_allclose(f, r, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
def test_gru_direction_gradcheck_through_pad_positions(rng, reverse):
    """Backprop through time against central differences, with an upstream
    gradient that is nonzero at pad positions, where a row carries its state."""
    d, lengths = 3, [3, 1, 2]
    alive = _ragged_alive(lengths)
    K, L = alive.shape
    gx = Tensor(0.5 * rng.standard_normal((K, L, 3 * d)), requires_grad=True)
    w_h = Tensor(0.5 * rng.standard_normal((d, 3 * d)), requires_grad=True)
    b = Tensor(0.5 * rng.standard_normal(3 * d), requires_grad=True)
    weight = Tensor(rng.standard_normal((K, L, d)))
    assert np.all(weight.data[alive == 0] != 0)

    gradcheck(lambda: ad.sum_(_gru_direction(gx, w_h, b, alive, reverse) * weight), [gx, w_h, b])


def test_encoder_gradcheck(rng):
    p = small_params(rng, vocab_size=8, d=4)
    ids = np.array([4, 5, 6])
    weight = Tensor(rng.standard_normal((1, 4)))
    leaves = list(p.named().values())

    def f():
        return (encode_question(p, ids).q * weight).sum()

    gradcheck(f, leaves, step=1e-5, tol=1e-4)


def test_encoder_per_token_gradcheck(rng):
    p = small_params(rng, vocab_size=8, d=4)
    ids = np.array([4, 5])
    weight = Tensor(rng.standard_normal((1, 2, 4)))

    def f():
        return ad.sum_(encode_question(p, ids).h * weight)

    gradcheck(f, list(p.named().values()), step=1e-5, tol=1e-4)


# -- batched encoders ----------------------------------------------------------------


def test_encode_question_batch_matches_reference(rng):
    """Ragged lengths: every row's pooled vector and real-token states match
    the unmasked single-sequence oracle."""
    p = small_params(rng, vocab_size=20, d=6)
    seqs = [
        np.array([4, 5, 6, 7, 8]),
        np.array([9]),
        np.array([10, 11, 12]),
        np.array([4, 4, 4, 4]),
    ]
    be = encode_question_batch(p, seqs)
    assert be.q.shape == (4, 6)
    assert be.h.shape == (4, 5, 6)
    np.testing.assert_array_equal(be.alive.sum(axis=1), [5, 1, 3, 4])
    for k, s in enumerate(seqs):
        pooled, per_token = bigru_reference(p, s)
        np.testing.assert_allclose(be.q.data[k], pooled, rtol=0, atol=1e-12)
        np.testing.assert_allclose(be.h.data[k, : len(s)], per_token, rtol=0, atol=1e-12)


def test_encode_question_batch_gradients_match_single(rng):
    p = small_params(rng, vocab_size=20, d=6)
    seqs = [np.array([4, 5, 6]), np.array([7, 8])]
    w = rng.standard_normal(6)

    be = encode_question_batch(p, seqs)
    ad.sum_(be.q * Tensor(np.stack([w, w]))).backward()
    batch_grads = {k: t.grad.copy() for k, t in p.named().items()}
    for t in p.named().values():
        t.grad = None

    total = None
    for s in seqs:
        y = (encode_question(p, s).q * Tensor(w[None, :])).sum()
        total = y if total is None else total + y
    total.backward()
    for k, t in p.named().items():
        np.testing.assert_allclose(batch_grads[k], t.grad, atol=1e-12, err_msg=k)


def test_encode_question_batch_rejects_empty(rng):
    p = small_params(rng)
    with pytest.raises(ValueError):
        encode_question_batch(p, [])
    with pytest.raises(ValueError):
        encode_question_batch(p, [np.array([4]), np.array([], dtype=np.int64)])


def test_encode_relation_batch_matches_reference(rng):
    p = small_params(rng, vocab_size=15, d=5)
    seqs = [np.array([4, 5]), np.array([6, 7, 8, 9]), np.array([10])]
    table = encode_relation_batch(p, seqs)
    assert table.shape == (3, 5)
    for k, s in enumerate(seqs):
        np.testing.assert_allclose(table.data[k], bigru_reference(p, s)[0], rtol=0, atol=1e-12)


def test_encode_relation_batch_empty(rng):
    p = small_params(rng)
    assert encode_relation_batch(p, []).shape == (0, 6)


# -- relation-encoding cache ------------------------------------------------------------


def test_cache_consistent_with_direct_encoding(rng):
    p = small_params(rng, vocab_size=30, d=5)
    v = Vocabulary(["alpha", "beta", "stars", "likes"])
    texts = ["<sub> stars <obj> .", "<sub> likes beta .", "alpha likes <obj> ."]
    cache = RelationEncodingCache(p, v, texts)
    rows = cache.get_many(np.array([2, 0, 0]))
    assert rows.shape == (3, 5)
    np.testing.assert_allclose(rows.data[1], rows.data[2], atol=0)
    np.testing.assert_allclose(rows.data[0], bigru_reference(p, v.encode(texts[2]))[0], rtol=0, atol=1e-12)


def test_cache_reuses_table_until_invalidated(rng):
    p = small_params(rng, vocab_size=30, d=5)
    v = Vocabulary(["a", "b"])
    cache = RelationEncodingCache(p, v, ["a b .", "b a ."])
    first = cache.get_many(np.array([0]))
    again = cache.get_many(np.array([0]))
    assert cache._table is not None
    np.testing.assert_array_equal(first.data, again.data)

    p.emb.data += 0.05  # parameter change: stale until invalidated
    stale = cache.get_many(np.array([0]))
    np.testing.assert_array_equal(stale.data, first.data)
    cache.invalidate()
    fresh = cache.get_many(np.array([0]))
    assert np.abs(fresh.data - first.data).max() > 1e-9


def test_cache_rows_carry_gradient(rng):
    p = small_params(rng, vocab_size=30, d=5)
    v = Vocabulary(["a", "b"])
    cache = RelationEncodingCache(p, v, ["a b .", "b a ."])
    rows = cache.get_many(np.array([0, 1, 0]))
    ad.sum_(rows * rows).backward()
    assert p.emb.grad is not None and np.abs(p.emb.grad).max() > 0
