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
    _packed_bigru,
    _sigmoid_of_half,
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
    assert v.name(PAD) == "<pad>" and v.name(UNK) == "<unk>"
    assert v.name(SUB) == "<sub>" and v.name(OBJ) == "<obj>"


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
    assert [v.name(i) for i in ids] == ["alpha", "likes", "beta", "."]


def test_vocabulary_save_load_roundtrip(tmp_path):
    v = Vocabulary(["who", "directed", "movie_3"])
    p = tmp_path / "vocab.txt"
    v.save(p)
    w = Vocabulary.load(p)
    assert w.names == v.names
    np.testing.assert_array_equal(w.encode("who directed movie_3"), v.encode("who directed movie_3"))


def test_vocabulary_ids_and_file_are_pinned(tmp_path):
    # repeated and reserved tokens keep their first id; the file must not
    # drift
    v = Vocabulary(["who", "directed", "movie_3", "<unk>", "who"])
    v.add_text("Alpha likes <sub> beta. Who directed <obj>?")
    v.save(tmp_path / "vocab.txt")
    assert (tmp_path / "vocab.txt").read_bytes() == (
        b"<pad>\n<unk>\n<sub>\n<obj>\nwho\ndirected\nmovie_3\nalpha\nlikes\nbeta\n.\n?\n"
    )
    assert Vocabulary.load(tmp_path / "vocab.txt").names == v.names


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


# real tokens draw from a vocabulary this small, so ids repeat within and
# across rows and the embedding gradient adds several tokens into one row
GRU_VOCAB = 4


def _ragged_gru_inputs(rng, lengths, d, scale=1.0):
    """Right-padded (K, L) token ids, an embedding table, and input weights,
    recurrent weights and biases stacked by direction, (2, d, 3d), (2, d, 3d)
    and (2, 3d), all requiring grad, plus the (K, L) alive mask.  Real tokens
    repeat ids below GRU_VOCAB; every pad reads row GRU_VOCAB, which no real
    token reads."""
    alive = _ragged_alive(lengths)
    ids = np.where(alive > 0, rng.integers(0, GRU_VOCAB, size=alive.shape), GRU_VOCAB)
    emb = Tensor(scale * rng.standard_normal((GRU_VOCAB + 1, d)), requires_grad=True)
    w_x = Tensor(scale * rng.standard_normal((2, d, 3 * d)), requires_grad=True)
    w_h = Tensor(scale * rng.standard_normal((2, d, 3 * d)), requires_grad=True)
    b = Tensor(scale * rng.standard_normal((2, 3 * d)), requires_grad=True)
    return ids, emb, w_x, w_h, b, alive


def _tape_projection(emb, ids, w_x):
    """The (K, L, 3d) input projection emb[ids] @ w_x of the padded batch,
    built on the tape; w_x is one direction's (d, 3d) weights."""
    K, L = ids.shape
    return ad.reshape(emb[ids.ravel()] @ w_x, (K, L, w_x.shape[1]))


def test_tanh_form_gates_match_sigmoid_array(rng):
    """The GRU's gates, tanh(x/2)/2 + 1/2 of the halved pre-activation,
    agree with autodiff.sigmoid_array within 2^-51 absolutely, stay in
    [0, 1], and carry inf and NaN as it does."""
    x = np.concatenate(
        [
            rng.standard_normal(200_000) * np.exp(rng.uniform(-20, 4, 200_000)),
            np.linspace(-60.0, 60.0, 100_001),
            [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e308, -1e308],
        ]
    )
    got = _sigmoid_of_half(0.5 * x)
    np.testing.assert_allclose(got, ad.sigmoid_array(x), rtol=0, atol=2.0**-51)
    assert got.min() >= 0.0 and got.max() <= 1.0
    edges = np.array([np.inf, -np.inf, np.nan])
    np.testing.assert_array_equal(_sigmoid_of_half(0.5 * edges), ad.sigmoid_array(edges))


GRU_LENGTHS = {
    # tied lengths and a length-1 row
    "ragged": [4, 1, 3, 4],
    # one row outlives every other, so the last steps run one live row
    "one-longest": [2, 6, 1, 2, 3],
    "one-row": [5],
}


@pytest.mark.parametrize("lengths", GRU_LENGTHS.values(), ids=GRU_LENGTHS.keys())
def test_packed_bigru_matches_composed_primitives(rng, lengths):
    """Each half of the packed node agrees with the per-step tape recurrence
    of its direction over the padded batch, fed emb[ids] @ w_x[i] with its
    weights sliced from the stacked ones: values within 1e-14 and every
    gradient within 1e-12, for an upstream gradient that is nonzero at pad
    positions in both halves.  Every pad is exactly 0 in both halves, and
    each row alone gives its batch row."""
    d = 5
    ids, emb, w_x, w_h, b, alive = _ragged_gru_inputs(rng, lengths, d)
    K, L = alive.shape
    weight = rng.standard_normal((K, L, 2 * d))
    assert np.all(weight[alive == 0] != 0)
    lens = alive.sum(axis=1).astype(np.int64)

    out = _packed_bigru(emb, ids[alive > 0], w_x, w_h, b, lens)
    assert out.shape == (K, L, 2 * d)
    refs = [
        gru_direction_tape(_tape_projection(emb, ids, w_x[i]), w_h[i], b[i], alive, reverse=bool(i))
        for i in range(2)
    ]
    for half, ref in zip((out.data[..., :d], out.data[..., d:]), refs):
        np.testing.assert_allclose(half, ref.data, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(out.data[alive == 0], 0.0)
    for k, n in enumerate(lengths):
        row = _packed_bigru(emb, ids[k, :n], w_x, w_h, b, np.array([n]))
        np.testing.assert_allclose(out.data[k, :n], row.data[0], rtol=0, atol=1e-14)

    leaves = [emb, w_x, w_h, b]
    ad.sum_(out * Tensor(weight)).backward()
    grads = [t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    (ad.sum_(refs[0] * Tensor(weight[..., :d])) + ad.sum_(refs[1] * Tensor(weight[..., d:]))).backward()
    for g, t, name in zip(grads, leaves, ("emb", "w_x", "w_h", "b")):
        np.testing.assert_allclose(g, t.grad, rtol=0, atol=1e-12, err_msg=name)
    # the tape gives a pad's input exactly no gradient, and the node never reads one
    np.testing.assert_array_equal(emb.grad[GRU_VOCAB], 0.0)
    np.testing.assert_array_equal(grads[0][GRU_VOCAB], 0.0)


DIRECTIONS = {"forward": 0, "backward": 1}


@pytest.mark.parametrize("half", DIRECTIONS.values(), ids=DIRECTIONS.keys())
def test_gru_direction_matches_composed_primitives(rng, half):
    """One half of the packed node, with upstream gradient on that half only,
    agrees with the tape recurrence of its direction: values within 1e-14 and
    its gradients within 1e-12, while the other direction's slice of each
    stacked weight gets exactly no gradient."""
    d, lengths = 5, [4, 1, 3, 4]
    ids, emb, w_x, w_h, b, alive = _ragged_gru_inputs(rng, lengths, d)
    K, L = alive.shape
    weight = np.zeros((K, L, 2 * d))
    cols = slice(half * d, (half + 1) * d)
    weight[..., cols] = rng.standard_normal((K, L, d))

    out = _packed_bigru(emb, ids[alive > 0], w_x, w_h, b, alive.sum(axis=1).astype(np.int64))
    ref = gru_direction_tape(_tape_projection(emb, ids, w_x[half]), w_h[half], b[half], alive, reverse=bool(half))
    np.testing.assert_allclose(out.data[..., cols], ref.data, rtol=0, atol=1e-14)

    leaves = [emb, w_x, w_h, b]
    ad.sum_(out * Tensor(weight)).backward()
    got = [t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    ad.sum_(ref * Tensor(weight[..., cols])).backward()
    np.testing.assert_allclose(got[0], emb.grad, rtol=0, atol=1e-12, err_msg="emb")
    for name, g, t in zip(("w_x", "w_h", "b"), got[1:], leaves[1:]):
        np.testing.assert_allclose(g[half], t.grad[half], rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_array_equal(g[1 - half], 0.0, err_msg=name)


@pytest.mark.parametrize("half", DIRECTIONS.values(), ids=DIRECTIONS.keys())
def test_gru_direction_gradcheck_through_pad_positions(rng, half):
    """Backprop through time of one half of the packed node against central
    differences, with an upstream gradient that is nonzero at pad positions,
    where both halves are 0."""
    d, lengths = 3, [3, 1, 2, 3]
    ids, emb, w_x, w_h, b, alive = _ragged_gru_inputs(rng, lengths, d, scale=0.5)
    K, L = alive.shape
    weight = np.zeros((K, L, 2 * d))
    weight[..., half * d : (half + 1) * d] = rng.standard_normal((K, L, d))
    assert np.all(weight[..., half * d : (half + 1) * d][alive == 0] != 0)
    weight = Tensor(weight)
    tokens, lengths = ids[alive > 0], np.array(lengths)

    gradcheck(
        lambda: ad.sum_(_packed_bigru(emb, tokens, w_x, w_h, b, lengths) * weight),
        [emb, w_x, w_h, b],
    )


def test_pad_gradient_reaches_no_parameter(rng):
    """An upstream gradient that is nonzero only at pad positions, in both
    halves, gives every parameter exactly zero gradient: a pad holds no
    cell's state."""
    d, lengths = 4, [4, 1, 3, 4, 2]
    ids, emb, w_x, w_h, b, alive = _ragged_gru_inputs(rng, lengths, d)
    weight = rng.standard_normal((*alive.shape, 2 * d)) * (alive == 0)[..., None]
    out = _packed_bigru(emb, ids[alive > 0], w_x, w_h, b, np.array(lengths))
    ad.sum_(out * Tensor(weight)).backward()
    for name, t in zip(("emb", "w_x", "w_h", "b"), [emb, w_x, w_h, b]):
        np.testing.assert_array_equal(t.grad, 0.0, err_msg=name)


def test_encoder_gradcheck(rng):
    p = small_params(rng, vocab_size=8, d=4)
    ids = np.array([4, 5, 6])
    weight = Tensor(rng.standard_normal((1, 4)))
    leaves = list(p.named().values())

    def f():
        return ad.sum_(encode_question(p, ids).q * weight)

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
        y = ad.sum_(encode_question(p, s).q * Tensor(w[None, :]))
        total = y if total is None else total + y
    total.backward()
    for k, t in p.named().items():
        np.testing.assert_allclose(batch_grads[k], t.grad, atol=1e-12, err_msg=k)


def test_encodings_permute_with_the_batch(rng):
    """Permuting a batch's rows permutes its pooled and per-token encodings,
    pads included: the packed order never leaks into a row."""
    p = small_params(rng, vocab_size=20, d=6)
    seqs = [rng.integers(4, 20, size=n) for n in (3, 5, 1, 5, 2, 4)]
    perm = rng.permutation(len(seqs))
    be = encode_question_batch(p, seqs)
    moved = encode_question_batch(p, [seqs[k] for k in perm])
    np.testing.assert_allclose(moved.q.data, be.q.data[perm], rtol=0, atol=1e-14)
    np.testing.assert_allclose(moved.h.data, be.h.data[perm], rtol=0, atol=1e-14)
    np.testing.assert_array_equal(moved.alive, be.alive[perm])
    table = encode_relation_batch(p, [seqs[k] for k in perm])
    np.testing.assert_allclose(table.data, encode_relation_batch(p, seqs).data[perm], rtol=0, atol=1e-14)


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
    table = cache.table()
    assert table.shape == (3, 5)
    for k, text in enumerate(texts):
        np.testing.assert_allclose(table.data[k], bigru_reference(p, v.encode(text))[0], rtol=0, atol=1e-12)


def test_cache_reuses_table_until_invalidated(rng):
    p = small_params(rng, vocab_size=30, d=5)
    v = Vocabulary(["a", "b"])
    cache = RelationEncodingCache(p, v, ["a b .", "b a ."])
    first = cache.table()
    assert cache.table() is first

    p.emb.data += 0.05  # parameter change: stale until invalidated
    stale = cache.table()
    assert stale is first
    np.testing.assert_array_equal(stale.data, first.data)
    cache.invalidate()
    fresh = cache.table()
    assert np.abs(fresh.data - first.data).max() > 1e-9


def test_cache_rows_carry_gradient(rng):
    p = small_params(rng, vocab_size=30, d=5)
    v = Vocabulary(["a", "b"])
    cache = RelationEncodingCache(p, v, ["a b .", "b a ."])
    rows = cache.table()[np.array([0, 1, 0])]
    ad.sum_(rows * rows).backward()
    assert p.emb.grad is not None and np.abs(p.emb.grad).max() > 0
