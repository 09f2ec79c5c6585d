"""Reasoning-step semantics: attention, relation scoring, sparse transfer,
truncation, hop mixture, mask, ranking, and the full forward pass."""

import numpy as np
import pytest

import hoptrace.autodiff as ad
from hoptrace import kernels
from hoptrace.autodiff import Tensor
from hoptrace.config import TrainConfig
from hoptrace.encoder import BatchQuestionEncoding, EncoderParams, RelationEncodingCache, Vocabulary, encode_question_batch, encode_relation_batch
from hoptrace.errors import GraphError
from hoptrace.graph import RelationGraph, Vocab, add_reverse_relations, build_from_triples, mix_label_into_text
from hoptrace.model import (
    ModelParams,
    forward,
    forward_batch,
    hop_mixture,
    label_relation_scores,
    rank_answers,
    step_attention,
    text_relation_scores,
    top_answers,
    transfer_batch,
)
from hoptrace.training import compute_loss

import oracles
from conftest import random_label_graph, random_text_graph
from oracles import (
    bfs_answers,
    brute_select,
    dense_label_transfer,
    dense_text_transfer,
    gradcheck,
    truncate_reference,
)


def label_cfg(**kw):
    return TrainConfig(form="label", **kw).validate()


def text_cfg(**kw):
    return TrainConfig(form="text", **kw).validate()


def make_params(cfg, vocab_size=30, n=10, num_predicates=4, d=8):
    cfg = TrainConfig(**{**vars(cfg), "d": d})
    return ModelParams(vocab_size, n, num_predicates, cfg)


def make_cache(params, g):
    v = Vocabulary()
    for t in g.texts:
        v.add_text(t)
    return RelationEncodingCache(params.r_enc, v, g.texts)


def transfer_label_batch(g, a, p, aggregation="sum"):
    """transfer_batch of the (B, n) scores a over their frontier edges, as
    the model lists them, under (B, P) predicate scores p."""
    edges, rows = g.frontier_edge_ids(a.data)
    return transfer_batch(g, a, edges, rows, p, aggregation)


def transfer_label_row(g, a, p, aggregation="sum"):
    """The label transfer of one (n,) row under (P,) predicate scores."""
    out = transfer_label_batch(g, ad.reshape(a, (1, g.n)), ad.reshape(p, (1, -1)), aggregation)
    return ad.reshape(out, (g.n,))


def transfer_text_row(g, a, rel_ids, scores, aggregation):
    """transfer_batch on one (n,) row over the given relations, under (X,)
    scores, one per unique text."""
    rows = np.zeros(len(rel_ids), dtype=np.int64)
    out = transfer_batch(g, ad.reshape(a, (1, g.n)), rel_ids, rows, ad.reshape(scores, (1, -1)), aggregation)
    return ad.reshape(out, (g.n,))


# -- attention and heads ---------------------------------------------------------


def test_step_attention_normalized(chain_graph):
    g = add_reverse_relations(chain_graph)
    cfg = label_cfg()
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    steps = forward(g, np.array([4, 5, 6, 7]), 0, params, cfg).trace.steps
    assert len(steps) == 3
    for s in steps:
        assert s.attention.shape == (4,)
        assert abs(s.attention.sum() - 1.0) <= 1e-6


def test_step_attention_differs_per_step(chain_graph):
    g = add_reverse_relations(chain_graph)
    cfg = label_cfg()
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    steps = forward(g, np.array([4, 5, 6]), 0, params, cfg).trace.steps
    assert np.abs(steps[0].attention - steps[1].attention).max() > 1e-9


def _encoding(rng, lengths, d):
    """Encoder outputs for rows of the given lengths: (B, d) pooled and
    (B, L, d) per-token states, both requiring grad, with the alive mask."""
    B, L = len(lengths), max(lengths)
    return BatchQuestionEncoding(
        q=Tensor(rng.standard_normal((B, d)), requires_grad=True),
        h=Tensor(rng.standard_normal((B, L, d)), requires_grad=True),
        alive=(np.arange(L)[None, :] < np.array(lengths)[:, None]).astype(np.float64),
    )


def test_step_attention_matches_per_step_reference(rng):
    """All T attentions from batched products agree with the composed
    one-step-at-a-time reference: weights (exactly 0 on pads) and step
    vectors within 1e-12, and so do the gradients of the encodings and of
    the stacked step weights, for upstream gradients on both outputs."""
    d = 6
    enc = _encoding(rng, [5, 2, 4], d)
    (B, L), params = enc.alive.shape, make_params(label_cfg(T=3), d=d)
    w_att, w_q = rng.standard_normal((B, params.T, L)), rng.standard_normal((B, params.T, d))
    leaves = [enc.q, enc.h, params.step_w, params.step_b]

    att, q = step_attention(enc, params)
    assert att.shape == (B, params.T, L) and q.shape == (B, params.T, d)
    np.testing.assert_array_equal(att.data[np.broadcast_to(enc.alive[:, None, :], att.shape) == 0], 0.0)
    (ad.sum_(att * Tensor(w_att)) + ad.sum_(q * Tensor(w_q))).backward()
    got = [t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None

    total = None
    for t, (ref_att, ref_q) in enumerate(oracles.step_attention_composed(enc, params)):
        np.testing.assert_allclose(att.data[:, t], ref_att.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q.data[:, t], ref_q.data, rtol=0, atol=1e-12)
        y = ad.sum_(ref_att * Tensor(w_att[:, t])) + ad.sum_(ref_q * Tensor(w_q[:, t]))
        total = y if total is None else total + y
    total.backward()
    for name, g, t in zip(["q", "h", "step.w", "step.b"], got, leaves):
        np.testing.assert_allclose(g, t.grad, rtol=0, atol=1e-12, err_msg=name)


def test_step_attention_gradcheck(rng):
    enc = _encoding(rng, [3, 1, 2], 3)
    params = make_params(label_cfg(T=2), d=3)
    weight = Tensor(rng.standard_normal((3, 2, 3)))
    gradcheck(
        lambda: ad.sum_(step_attention(enc, params)[1] * weight), [enc.q, enc.h, params.step_w, params.step_b]
    )


def test_topic_ids_are_checked_in_row_order(chain_graph):
    """One check over every row's ids reports the first bad id in row order."""
    g = add_reverse_relations(chain_graph)
    cfg = label_cfg()
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    seqs = [np.array([4])] * 3
    with pytest.raises(GraphError, match=f"topic entity id {g.n + 2} out of range"):
        forward_batch(g, seqs, [0, [1, g.n + 2], g.n + 5], params, cfg)
    with pytest.raises(GraphError, match="topic entity id -1 out of range"):
        forward_batch(g, seqs, [np.array([0, 1]), -1, [g.n]], params, cfg)


def test_batch_rows_start_from_one_or_several_topics(chain_graph):
    """A batch may mix rows of one topic id (int, numpy int or 0-d array)
    and of several (list, tuple or array); each row matches forward() on it."""
    g = add_reverse_relations(chain_graph)
    cfg = label_cfg()
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    topics = [[1, 3], 2, np.array([0, 2]), np.int64(3), (0,), np.array(1)]
    seqs = [np.array([4, 5, 6])] * len(topics)
    batch = forward_batch(g, seqs, topics, params, cfg)
    for i, t in enumerate(topics):
        single = forward(g, seqs[i], t, params, cfg, want_trace=False)
        np.testing.assert_allclose(batch.final.data[i], single.final.data, rtol=0, atol=1e-14)
    one = forward(g, np.array([4]), [1, 3], params, label_cfg(T=1), want_trace=True)
    assert one.trace.topics == [1, 3]


def test_label_scores_softmax_head(rng):
    params = make_params(label_cfg(head="softmax"))
    q_t = Tensor(rng.standard_normal((1, 8)))
    p = label_relation_scores(q_t, params)
    assert abs(p.data.sum() - 1.0) <= 1e-6
    assert np.all(p.data > 0)


def test_label_scores_sigmoid_head(rng):
    params = make_params(label_cfg(head="sigmoid"))
    q_t = Tensor(rng.standard_normal((1, 8)))
    p = label_relation_scores(q_t, params)
    assert np.all((0 < p.data) & (p.data < 1))
    params.head = "argmax"
    with pytest.raises(ValueError):
        label_relation_scores(q_t, params)


def test_text_scores_in_unit_interval(rng):
    """One score per row and unique text, like label form's per predicate."""
    params = make_params(text_cfg())
    q_t = Tensor(rng.standard_normal((3, 8)))
    enc = Tensor(rng.standard_normal((7, 8)))
    s = text_relation_scores(q_t, enc, params)
    assert s.shape == (3, 7)
    assert np.all((0 < s.data) & (s.data < 1))


# -- sparse transfer against dense oracles -----------------------------------------


def test_transfer_label_matches_dense(rng):
    for _ in range(25):
        g = random_label_graph(rng)
        a = Tensor(rng.random(g.n))
        p = Tensor(rng.random(g.num_predicates))
        got = transfer_label_row(g, a, p)
        want = dense_label_transfer(
            g.n, g.edge_heads, g.edge_preds, g.edge_tails, g.num_predicates, a.data, p.data
        )
        np.testing.assert_allclose(got.data, want, atol=1e-10)


def _frontier_case(rng):
    """A label graph with a sink entity (no out-edges) and a (5, n) batch of
    scores: a one-hot row, an all-zero row, the sink alone, a fully dense
    row and a second one-hot row."""
    g = random_label_graph(rng, n=12, num_predicates=3)
    triples = [
        (g.entities.name(int(h)), g.predicates.name(int(k)), g.entities.name(int(t)))
        for h, k, t in zip(g.edge_heads, g.edge_preds, g.edge_tails)
    ]
    g = build_from_triples(triples + [("e3", "p1", "sink"), ("e7", "p0", "sink")])
    sink = g.entities.id("sink")
    a = np.zeros((5, g.n))
    a[0, 2] = a[2, sink] = a[4, 9] = 1.0
    a[3] = rng.random(g.n) + 0.1
    p = rng.random((5, g.num_predicates))
    return g, a, p


def _oracle_pairs(heads, tails):
    """The oracles' own grouping of an edge list: the order that sorts it by
    (head, tail), then listed position, and each pair's head, tail and
    run, as (order, pair_heads, pair_tails, pair_ptr)."""
    order = np.lexsort((np.arange(heads.size), tails, heads))
    h, t = heads[order], tails[order]
    starts = np.flatnonzero((np.diff(h, prepend=-1) != 0) | (np.diff(t, prepend=-1) != 0))
    return order, h[starts], t[starts], np.append(starts, heads.size)


def _assert_frontier_matches_oracles(g, a0, p0, upstream):
    """transfer_label_batch against the np.add.at oracles over every edge.
    Sum: the output and the p gradient bit for bit, and the a_prev gradient
    on a_prev's nonzero entries, 0 elsewhere.  Max: the output bit for bit,
    row by row over the graph's (head, tail) pairs."""
    a, p = Tensor(a0.copy(), requires_grad=True), Tensor(p0.copy(), requires_grad=True)
    out = transfer_label_batch(g, a, p)
    ad.sum_(out * Tensor(upstream)).backward()

    w = p0[:, g.edge_preds]
    np.testing.assert_array_equal(out.data, oracles.push_batch_forward(g.edge_heads, g.edge_tails, w, a0, g.n))
    grad_a, grad_w = oracles.push_batch_backward(g.edge_heads, g.edge_tails, w, a0, upstream)
    np.testing.assert_array_equal(p.grad, oracles.col_scatter_add(g.edge_preds, grad_w, g.num_predicates))
    live = a0 != 0
    np.testing.assert_array_equal(a.grad[live], grad_a[live])
    assert not np.any(a.grad[~live])

    order, ph, pt, pptr = _oracle_pairs(g.edge_heads, g.edge_tails)
    out_max = transfer_label_batch(g, Tensor(a0), Tensor(p0), "max")
    for b in range(a0.shape[0]):
        want, _ = oracles.push_max_forward(ph, pt, pptr, w[b, order], a0[b], g.n)
        np.testing.assert_array_equal(out_max.data[b], want)
    return out.data


def test_transfer_label_batch_frontier_matches_oracles(rng):
    """The frontier push against the np.add.at oracles over every edge, on
    one-hot, all-zero, sink-only and dense rows."""
    g, a0, p0 = _frontier_case(rng)
    assert not np.any(g.edge_heads == g.entities.id("sink"))
    out = _assert_frontier_matches_oracles(g, a0, p0, rng.standard_normal(a0.shape))
    assert not np.any(out[[1, 2]])  # nothing to push from a zero row or a sink


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["all-zero-batch", "disjoint-rows"])
def test_transfer_label_batch_frontier_edge_cases(rng, monkeypatch, case):
    """A batch with no active head anywhere (no candidate edge), and rows
    whose frontiers are disjoint, so that most of the batch's candidate
    edges are unused by any one row: both match the oracles, warn about
    nothing and push one weight per nonzero-head pair.  The frontier has
    one edge per (head, tail) pair, so push_forward serves max as well."""
    g = random_label_graph(rng, n=16, num_predicates=3)
    a0 = np.zeros((4, g.n))
    if case == "disjoint-rows":
        for b, ids in enumerate(([0], [4, 5], [9], [13, 15])):
            a0[b, ids] = rng.random(len(ids)) + 0.1
    p0 = rng.random((4, g.num_predicates))
    pushed = []
    push = kernels.push_forward

    def recording_push(*args):
        pushed.append(args[-3].size)
        return push(*args)

    monkeypatch.setattr(kernels, "push_forward", recording_push)

    out = _assert_frontier_matches_oracles(g, a0, p0, rng.standard_normal(a0.shape))
    frontier = np.count_nonzero(a0[:, g.edge_heads])
    assert g.pair_start[g.frontier_edge_ids(a0)[0]].all()
    assert pushed == [frontier, frontier]  # sum, then max
    if case == "all-zero-batch":
        assert frontier == 0 and not np.any(out)
    else:  # each candidate edge belongs to one row alone
        assert frontier == np.count_nonzero(a0.any(axis=0)[g.edge_heads]) > 0


def test_transfer_label_batch_frontier_max_matches_dense(rng):
    g, a0, p0 = _frontier_case(rng)
    out = transfer_label_batch(g, Tensor(a0), Tensor(p0), "max")
    for b in range(a0.shape[0]):
        want = dense_text_transfer(g.n, g.edge_heads, g.edge_tails, p0[b, g.edge_preds], a0[b], "max")
        np.testing.assert_allclose(out.data[b], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("aggregation", ["sum", "max"])
def test_transfer_label_batch_pushes_only_the_frontier(rng, monkeypatch, aggregation):
    """The push gets one weight per (row, edge) pair whose head scores
    nonzero in that row, not one per row and edge."""
    g, a0, p0 = _frontier_case(rng)
    pushed = []
    name = "push_forward" if aggregation == "sum" else "push_max_forward"
    push = getattr(kernels, name)

    def recording_push(*args):
        pushed.append(args[-3].size)
        return push(*args)

    monkeypatch.setattr(kernels, name, recording_push)
    transfer_label_batch(g, Tensor(a0), Tensor(p0), aggregation)
    frontier = np.count_nonzero(a0[:, g.edge_heads])
    assert pushed == [frontier] and 0 < frontier < a0.shape[0] * g.num_edges


# (head, tail, predicates) joined by parallel edges in _parallel_edge_case
PARALLEL = [(0, 5, (1, 3)), (0, 6, (0, 2, 3)), (3, 5, (1, 2)), (9, 2, (0, 3)), (13, 0, (1, 2, 3))]


def _parallel_edge_case(rng):
    """A random label graph whose PARALLEL pairs are joined by two or three
    predicates each, and a (5, n) batch: two rows on heads of parallel
    pairs, a dense row, an all-zero row and a one-hot row.  Rows 0 and 2
    score predicates 1 and 3 equally, a tie on pair (0, 5)."""
    g = random_label_graph(rng, n=14, num_predicates=4)
    triples = [
        (g.entities.name(int(h)), g.predicates.name(int(k)), g.entities.name(int(t)))
        for h, k, t in zip(g.edge_heads, g.edge_preds, g.edge_tails)
    ]
    triples += [(f"e{h}", f"p{k}", f"e{t}") for h, t, preds in PARALLEL for k in preds]
    g = build_from_triples(triples)
    a = np.zeros((5, g.n))
    a[0, g.entities.id("e0")] = 1.0
    a[1, [g.entities.id("e3"), g.entities.id("e13")]] = rng.random(2) + 0.1
    a[2] = rng.random(g.n) + 0.1
    a[4, g.entities.id("e9")] = 1.0
    p = rng.random((5, g.num_predicates))
    p1, p3 = g.predicates.id("p1"), g.predicates.id("p3")
    p[[0, 2], p3] = p[[0, 2], p1]
    return g, a, p


def test_transfer_label_batch_max_over_parallel_edges_matches_oracles(rng):
    """Label max over a graph with parallel edges against the per-pair loop
    oracles, row by row over every edge: the output, the p gradient and the
    a_prev gradient on a_prev's nonzero entries (0 elsewhere) bit for bit,
    and the output against the dense max reference."""
    g, a0, p0 = _parallel_edge_case(rng)
    assert np.count_nonzero(g.pair_start) < g.num_edges
    upstream = rng.standard_normal(a0.shape)
    a, p = Tensor(a0.copy(), requires_grad=True), Tensor(p0.copy(), requires_grad=True)
    out = transfer_label_batch(g, a, p, "max")
    ad.sum_(out * Tensor(upstream)).backward()

    h, t, E = g.edge_heads, g.edge_tails, g.num_edges
    order, ph, pt, ptr = _oracle_pairs(h, t)
    live = a0 != 0
    for b in range(a0.shape[0]):
        w = p0[b, g.edge_preds]
        want, argmax = oracles.push_max_forward(ph, pt, ptr, w[order], a0[b], g.n)
        grad_a, grad_w = oracles.push_max_backward(ph, pt, argmax, w[order], a0[b], upstream[b])
        grad_edges = np.zeros(E)
        grad_edges[order] = grad_w
        np.testing.assert_array_equal(out.data[b], want)
        np.testing.assert_array_equal(p.grad[b], oracles.col_scatter_add(g.edge_preds, grad_edges[None], g.num_predicates)[0])
        np.testing.assert_array_equal(a.grad[b, live[b]], grad_a[live[b]])
        assert not np.any(a.grad[b, ~live[b]])
        dense = dense_text_transfer(g.n, h, t, w, a0[b], "max")
        np.testing.assert_allclose(out.data[b], dense, rtol=0, atol=1e-12)
    # in rows 0 and 2 the oracle's argmax on (0, 5) is a tie that went to
    # the lower predicate id, and the p gradients above agreed with it
    tie = ptr[np.flatnonzero((ph == g.entities.id("e0")) & (pt == g.entities.id("e5")))[0]]
    first, second = g.edge_preds[order[tie : tie + 2]]
    assert first < second and {first, second} == {g.predicates.id("p1"), g.predicates.id("p3")}
    assert p0[0, g.edge_preds[order[tie]]] == p0[0, g.edge_preds[order[tie + 1]]]
    assert not np.any(out.data[3])


def _push_both(g, a0, p0, upstream):
    """Output, a_prev gradient and p gradient of the label transfer under
    sum and under max."""
    results = {}
    for aggregation in ("sum", "max"):
        a, p = Tensor(a0.copy(), requires_grad=True), Tensor(p0.copy(), requires_grad=True)
        out = transfer_label_batch(g, a, p, aggregation)
        ad.sum_(out * Tensor(upstream)).backward()
        results[aggregation] = (out.data, a.grad, p.grad)
    return results


def test_push_sends_one_edge_pairs_to_the_sum_kernels(rng, monkeypatch):
    """Max over a listing whose (head, tail) pairs have one edge each is sum:
    the max kernels are not called, and the output and both gradients equal
    sum's bit for bit.  A listing with one parallel pair calls them."""
    calls = []
    for name in ("push_max_forward", "push_max_backward"):
        kernel = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *args, name=name, kernel=kernel: calls.append(name) or kernel(*args))

    pairs = [(h, t) for h in range(12) for t in range(12) if h != t and rng.random() < 0.3]
    g = build_from_triples([(f"e{h}", f"p{rng.integers(3)}", f"e{t}") for h, t in pairs])
    assert g.pair_start.all()
    a0 = rng.random((3, g.n)) * (rng.random((3, g.n)) < 0.5)
    p0 = rng.random((3, g.num_predicates))
    results = _push_both(g, a0, p0, rng.standard_normal(a0.shape))
    assert calls == []
    for got, want in zip(results["max"], results["sum"]):
        np.testing.assert_array_equal(got, want)

    g, a0, p0 = _parallel_edge_case(rng)
    results = _push_both(g, a0[:1], p0[:1], rng.standard_normal((1, g.n)))  # row 0 sits on e0's parallel pairs
    assert calls == ["push_max_forward", "push_max_backward"]
    assert not np.array_equal(results["max"][0], results["sum"][0])


def _refuse_sorts(m):
    """Patch numpy's sorts to raise for the rest of the context m."""

    def refuse(*args, **kwargs):
        raise AssertionError("the max path sorted its edges")

    for name in ("argsort", "lexsort", "sort"):
        m.setattr(np, name, refuse)


def test_label_max_path_neither_groups_nor_sorts(rng, monkeypatch):
    """Label max reads its pairs off the graph: the transfer and its
    backward sort nothing."""
    g, a0, p0 = _parallel_edge_case(rng)
    p = Tensor(p0, requires_grad=True)
    with monkeypatch.context() as m:
        _refuse_sorts(m)
        out = transfer_label_batch(g, Tensor(a0), p, "max")
        ad.sum_(out).backward()
    assert np.any(p.grad)


# (head, tail, text ids) joined by parallel relations in _parallel_text_case
PARALLEL_TEXT = [(0, 5, (1, 3)), (0, 6, (0, 2, 3)), (3, 5, (1, 2)), (9, 2, (0, 3)), (13, 0, (1, 2, 3))]


def _parallel_text_case(rng):
    """A random text graph whose PARALLEL_TEXT pairs are joined by two or
    three relations each, a (5, n) batch like _parallel_edge_case's, its
    selection (tau 0, no omega) and a (5, X) score per row and text.  Rows
    0 and 2 score texts 1 and 3, the two relations of pair (0, 5), equally:
    a tie."""
    base = random_text_graph(rng, n=14, num_rels=30)
    texts = [f"<sub> rel{k} <obj> ." for k in range(5)]  # random_text_graph's texts
    trels = [(h, t, texts.index(base.texts[x])) for h, t, x in zip(base.trel_heads, base.trel_tails, base.trel_text)]
    trels += [(h, t, x) for h, t, xs in PARALLEL_TEXT for x in xs]
    g = RelationGraph(base.entities, Vocab(), [], texts, trels, form="text")
    a = np.zeros((5, g.n))
    a[0, 0] = 1.0
    a[1, [3, 13]] = rng.random(2) + 0.1
    a[2] = rng.random(g.n) + 0.1
    a[4, 9] = 1.0
    ids, rows = g.select_text_relation_ids(a, 0.0, None)
    scores = rng.random((5, len(texts)))
    scores[[0, 2], 3] = scores[[0, 2], 1]
    return g, a, ids, rows, scores


def test_transfer_text_batch_max_over_parallel_relations_matches_oracles(rng):
    """Text max over a selection with parallel relations against the
    per-pair loop oracles, row by row: the output, the gradient of the
    (B, X) scores (each relation's gradient added to its row and text) and
    the a_prev gradient on a_prev's nonzero entries bit for bit, and the
    output against the dense max reference."""
    g, a0, ids, rows, s0 = _parallel_text_case(rng)
    assert np.count_nonzero(g.trel_pair_start) < g.num_text_relations
    upstream = rng.standard_normal(a0.shape)
    a, scores = Tensor(a0.copy(), requires_grad=True), Tensor(s0.copy(), requires_grad=True)
    out = transfer_batch(g, a, ids, rows, scores, "max")
    ad.sum_(out * Tensor(upstream)).backward()

    live = a0 != 0
    for b in range(a0.shape[0]):
        mine = np.flatnonzero(rows == b)
        h, t, x = g.trel_heads[ids[mine]], g.trel_tails[ids[mine]], g.trel_text[ids[mine]]
        w = s0[b, x]
        order, ph, pt, ptr = _oracle_pairs(h, t)
        want, argmax = oracles.push_max_forward(ph, pt, ptr, w[order], a0[b], g.n)
        grad_a, grad_w = oracles.push_max_backward(ph, pt, argmax, w[order], a0[b], upstream[b])
        grad_rel = np.zeros(mine.size)
        grad_rel[order] = grad_w
        np.testing.assert_array_equal(out.data[b], want)
        np.testing.assert_array_equal(scores.grad[b], oracles.col_scatter_add(x, grad_rel[None], s0.shape[1])[0])
        np.testing.assert_array_equal(a.grad[b, live[b]], grad_a[live[b]])
        np.testing.assert_allclose(out.data[b], dense_text_transfer(g.n, h, t, w, a0[b], "max"), rtol=0, atol=1e-12)
        if b in (0, 2):
            # the tie on (0, 5) went to the relation listed first, the lower
            # text id, and the score gradients above agreed with it
            tie = np.flatnonzero((h == 0) & (t == 5))
            assert x[tie].tolist() == [1, 3] and w[tie[0]] == w[tie[1]]
            assert grad_rel[tie[1]] == 0.0 and grad_rel[tie[0]] == upstream[b, 5] * a0[b, 0] != 0.0
    assert not np.any(out.data[3])


def test_text_max_path_sorts_nothing(rng, monkeypatch):
    """Text max reads its pairs off the graph's trel_pair_start: the
    transfer and its backward sort nothing."""
    g, a0, ids, rows, s0 = _parallel_text_case(rng)
    scores = Tensor(s0, requires_grad=True)
    with monkeypatch.context() as m:
        _refuse_sorts(m)
        out = transfer_batch(g, Tensor(a0), ids, rows, scores, "max")
        ad.sum_(out).backward()
    assert np.any(scores.grad)


def test_transfer_label_gradcheck(rng):
    g = random_label_graph(rng, n=8, num_predicates=3)
    a = Tensor(rng.random(g.n), requires_grad=True)
    p = Tensor(rng.random(g.num_predicates), requires_grad=True)
    w = Tensor(rng.standard_normal(g.n))
    gradcheck(lambda: ad.sum_(transfer_label_row(g, a, p) * w), [a, p])


def test_transfer_text_matches_dense_sum(rng):
    for _ in range(25):
        g = random_text_graph(rng)
        a = Tensor(rng.random(g.n))
        omega = int(rng.integers(1, g.num_text_relations + 1))
        rel_ids, _ = g.select_text_relation_ids(a.data[None], float(rng.choice([0.0, 0.5])), omega)
        scores = Tensor(rng.random(len(g.texts)))
        got = transfer_text_row(g, a, rel_ids, scores, "sum")
        want = dense_text_transfer(
            g.n, g.trel_heads[rel_ids], g.trel_tails[rel_ids], scores.data[g.trel_text[rel_ids]], a.data, "sum"
        )
        np.testing.assert_allclose(got.data, want, atol=1e-10)


def test_transfer_text_matches_dense_max(rng):
    for _ in range(25):
        g = random_text_graph(rng)
        a = Tensor(rng.random(g.n))
        rel_ids = np.arange(g.num_text_relations)
        scores = Tensor(rng.random(len(g.texts)))
        got = transfer_text_row(g, a, rel_ids, scores, "max")
        want = dense_text_transfer(g.n, g.trel_heads, g.trel_tails, scores.data[g.trel_text], a.data, "max")
        np.testing.assert_allclose(got.data, want, atol=1e-10)


def test_transfer_text_gradcheck_sum(rng):
    g = random_text_graph(rng, n=6, num_rels=12)
    a = Tensor(rng.random(g.n), requires_grad=True)
    scores = Tensor(rng.random(len(g.texts)), requires_grad=True)
    w = Tensor(rng.standard_normal(g.n))
    rel_ids = np.arange(g.num_text_relations)
    gradcheck(lambda: ad.sum_(transfer_text_row(g, a, rel_ids, scores, "sum") * w), [a, scores])


def test_transfer_text_max_gradient_reaches_argmax_only(rng):
    # two parallel relations 0->1 of texts t0 and t1; only the stronger
    # one's text gets gradient
    g = RelationGraph(
        Vocab(["e0", "e1"]), Vocab(), [], ["t0", "t1"], [(0, 1, 0), (0, 1, 1)], form="text"
    )
    a = Tensor(np.array([1.0, 0.0]))
    scores = Tensor(np.array([0.3, 0.8]), requires_grad=True)
    out = transfer_text_row(g, a, np.arange(2), scores, "max")
    np.testing.assert_allclose(out.data, [0.0, 0.8])
    ad.sum_(out).backward()
    np.testing.assert_allclose(scores.grad, [0.0, 1.0])


def test_transfer_rejects_unknown_aggregation(rng):
    g = random_label_graph(rng, n=5)
    with pytest.raises(ValueError):
        transfer_label_row(g, Tensor(np.zeros(5)), Tensor(np.zeros(g.num_predicates)), "median")


# -- truncation ----------------------------------------------------------------------

# (head, tail, kind) of the truncation case; entities 0 and 1 are joined twice
TRUNCATION_RELATIONS = [(0, 1, 0), (0, 1, 1), (0, 2, 0), (3, 2, 1), (4, 3, 0), (3, 0, 1), (4, 5, 0), (6, 5, 1), (7, 6, 0)]


def _truncation_case(form):
    """A graph of TRUNCATION_RELATIONS in the given form, (2, 8) scores
    before the step and (2, 2) relation scores whose transfer reaches scores
    above 1 (1 + 2**-52 and 6e299 among them), exactly 1 (row 1's entity 0,
    and row 0's entity 1 under max), below 1 and NaN (row 0's entity 5),
    and the relations listed: the frontier in label form, every relation of
    every row in text form."""
    entities = Vocab([f"e{i}" for i in range(8)])
    if form == "label":
        g = RelationGraph(entities, Vocab(["p0", "p1"]), [(h, k, t) for h, t, k in TRUNCATION_RELATIONS], [], [], form="label")
    else:
        g = RelationGraph(entities, Vocab(), [], ["t0", "t1"], TRUNCATION_RELATIONS, form="text")
    a0 = np.array([[1.0, 0.0, 0.0, 0.25, 2.0, 0.0, np.nan, 1.0 + 2**-52], [0.5, 0.0, 0.0, 1.0, 1e300, 0.0, 0.3, 0.0]])
    s0 = np.array([[1.0, 0.5], [0.6, 1.0]])
    if form == "label":
        ids, rows = g.frontier_edge_ids(a0)
    else:
        ids, rows = np.tile(np.arange(g.num_text_relations), 2), np.repeat([0, 1], g.num_text_relations)
    return g, a0, s0, ids, rows


TRUNCATION_FORMS = [(form, aggregation) for form in ("label", "text") for aggregation in ("sum", "max")]


def test_transfer_is_one_node():
    """The transfer, truncation included, is one graph node whose parents
    are the scores before the step and the relation scores, in every form
    and aggregation."""
    for form, aggregation in TRUNCATION_FORMS:
        g, a0, s0, ids, rows = _truncation_case(form)
        a, scores = Tensor(a0, requires_grad=True), Tensor(s0, requires_grad=True)
        for truncation in (True, False):
            out = transfer_batch(g, a, ids, rows, scores, aggregation, truncation)
            assert len(out._parents) == 2
            assert out._parents[0] is a and out._parents[1] is scores


def test_truncate_values():
    """The truncated transfer is the untruncated reference push with every
    score above 1 set to 1, NaN kept, for sum and max in both forms."""
    for form, aggregation in TRUNCATION_FORMS:
        g, a0, s0, ids, rows = _truncation_case(form)
        raw = oracles.transfer_composed(g, Tensor(a0), ids, rows, Tensor(s0), aggregation).data
        out = transfer_batch(g, Tensor(a0), ids, rows, Tensor(s0), aggregation, truncation=True)
        np.testing.assert_array_equal(out.data, truncate_reference(raw))
        assert np.all((out.data <= 1.0) | np.isnan(out.data))
        assert np.any(raw > 1.0) and np.any(raw == 1.0) and np.any((0.0 < raw) & (raw < 1.0)) and np.any(np.isnan(raw))


def test_truncate_gradient_slopes():
    """Below 1 the slope through the transfer is the relation score, above
    1 the score over the raw value (the divisor held constant).  The
    division leaves the upstream gradient, which a sum hands to its other
    term as well, untouched."""
    g = RelationGraph(Vocab([f"e{i}" for i in range(4)]), Vocab(["p"]), [(0, 0, 2), (1, 0, 3)], [], [], form="label")
    for aggregation in ("sum", "max"):
        a = Tensor(np.array([[0.3, 4.0, 0.0, 0.0]]), requires_grad=True)
        scores = Tensor(np.array([[0.5]]), requires_grad=True)
        other = Tensor(np.zeros((1, 4)), requires_grad=True)
        ids, rows = g.frontier_edge_ids(a.data)
        out = transfer_batch(g, a, ids, rows, scores, aggregation, truncation=True)
        ad.sum_(out + other).backward()
        np.testing.assert_array_equal(other.grad, np.ones((1, 4)))
        np.testing.assert_allclose(out.data, [[0.0, 0.0, 0.15, 1.0]])
        np.testing.assert_allclose(a.grad, [[0.5, 0.5 / 2.0, 0.0, 0.0]])
        np.testing.assert_allclose(scores.grad, [[0.3 + 4.0 / 2.0]])


def test_truncate_gradcheck_away_from_kink(rng):
    """Random scores pushed one to one under a relation score of 1.  The
    divisor is frozen, so the analytic gradient g / z matches finite
    differences only on the identity branch: check values there and
    slopes directly above."""
    m = 12
    g = RelationGraph(Vocab([f"e{i}" for i in range(2 * m)]), Vocab(["p"]), [(i, 0, m + i) for i in range(m)], [], [],
                      form="label")
    vals = rng.random(m) * 2.0
    vals[np.abs(vals - 1.0) < 0.1] += 0.2  # finite differences lie at the kink
    a0 = np.concatenate([vals, np.zeros(m)])[None]
    a, scores = Tensor(a0, requires_grad=True), Tensor(np.array([[1.0]]), requires_grad=True)
    w = rng.standard_normal((1, 2 * m))
    ids, rows = g.frontier_edge_ids(a0)
    ad.sum_(transfer_batch(g, a, ids, rows, scores, "sum", truncation=True) * Tensor(w)).backward()
    below = vals <= 1.0
    np.testing.assert_allclose(a.grad[0, :m][below], w[0, m:][below], atol=1e-12)
    np.testing.assert_allclose(a.grad[0, :m][~below], w[0, m:][~below] / vals[~below], atol=1e-12)
    numeric = oracles.finite_difference(
        lambda x: np.sum(transfer_batch(g, Tensor(x), ids, rows, scores, "sum", truncation=True).data * w), a0.copy()
    )
    np.testing.assert_allclose(a.grad[0, :m][below], numeric[0, :m][below], rtol=0, atol=1e-8)


def test_truncate_matches_the_divide_bit_for_bit(rng):
    """The truncated transfer and its vjp equal the reference push followed
    by a / z with z held constant, on scores above, at and below 1 and NaN:
    the output, its zeros' signs and the gradients of both parents, for sum
    and max in both forms."""
    for form, aggregation in TRUNCATION_FORMS:
        g, a0, s0, ids, rows = _truncation_case(form)
        got_a, got_s = Tensor(a0.copy(), requires_grad=True), Tensor(s0.copy(), requires_grad=True)
        want_a, want_s = Tensor(a0.copy(), requires_grad=True), Tensor(s0.copy(), requires_grad=True)
        got = transfer_batch(g, got_a, ids, rows, got_s, aggregation, truncation=True)
        want = oracles.truncate_composed(oracles.transfer_composed(g, want_a, ids, rows, want_s, aggregation))
        np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(np.signbit(got.data), np.signbit(want.data))
        upstream = rng.standard_normal(a0.shape)
        got.backward(upstream)
        want.backward(upstream)
        np.testing.assert_array_equal(got_a.grad, want_a.grad)
        np.testing.assert_array_equal(got_s.grad, want_s.grad)


def test_hop_mixture_node_matches_the_chain_bit_for_bit(rng):
    """The fused mixture node against take/reshape/mul/add: forward and the
    gradients of c and of every step, through a shared downstream use."""
    B, T, n = 5, 3, 7
    for _ in range(3):
        c = Tensor(ad.softmax(Tensor(rng.standard_normal((B, T)))).data, requires_grad=True)
        steps = [Tensor(rng.random((B, n)) * (rng.random((B, n)) < 0.6), requires_grad=True) for _ in range(T)]
        w = rng.standard_normal((B, n))
        results = []
        for mix in (hop_mixture, oracles.hop_mixture_composed):
            for x in (c, *steps):
                x.grad = None
            out = mix(c, steps)
            # steps and c feed other nodes too, as in training
            loss = ad.sum_(out * w) + ad.sum_(c * c) + ad.sum_(steps[0] * steps[1])
            loss.backward()
            results.append((out.data, c.grad.copy(), [s.grad.copy() for s in steps]))
        (out, gc, gs), (want_out, want_gc, want_gs) = results
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(gc, want_gc)
        for got, want in zip(gs, want_gs):
            np.testing.assert_array_equal(got, want)


# -- mixture, mask, ranking ------------------------------------------------------------


def test_hop_mixture_blends(chain_graph):
    g = add_reverse_relations(chain_graph)
    cfg = label_cfg()
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    tr = forward(g, np.array([4, 5, 6]), 0, params, cfg).trace
    c = tr.hop_distribution
    assert abs(c.sum() - 1.0) <= 1e-6
    want = sum(c[t] * tr.steps[t].entity_scores for t in range(3))
    np.testing.assert_allclose(tr.final, want, atol=1e-12)  # label form: no mask


def test_language_mask_gates(rng):
    g = add_reverse_relations(random_text_graph(rng, n=10, num_rels=20))
    cfg = text_cfg()
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    tr = forward(g, np.array([4, 5]), 2, params, cfg, cache=make_cache(params, g)).trace
    m = tr.mask
    assert m.shape == (g.n,)
    assert np.all((0 < m) & (m < 1))
    mixture = sum(c_t * s.entity_scores for c_t, s in zip(tr.hop_distribution, tr.steps))
    np.testing.assert_allclose(tr.final, m * mixture, atol=1e-12)


def test_text_forward_without_the_mask_is_the_mixture(rng):
    """use_mask=False: a text forward traces no mask, and its answer
    scores are the hop mixture itself."""
    g = add_reverse_relations(random_text_graph(rng, n=10, num_rels=20))
    cfg = text_cfg(use_mask=False)
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    tr = forward(g, np.array([4, 5]), 2, params, cfg, cache=make_cache(params, g)).trace
    assert tr.mask is None
    mixture = sum(c_t * s.entity_scores for c_t, s in zip(tr.hop_distribution, tr.steps))
    np.testing.assert_allclose(tr.final, mixture, atol=1e-12)


def test_rank_answers_ties_break_by_id():
    ranked, degenerate = rank_answers(np.array([0.1, 0.9, 0.9, 0.3]))
    assert not degenerate
    assert ranked.tolist() == [1, 2, 3, 0]


def test_rank_answers_degenerate():
    ranked, degenerate = rank_answers(np.zeros(5))
    assert degenerate and ranked.size == 0


TOP_ROWS = {
    "tie-at-max": [0.1, 0.9, 0.9, 0.3, 0.9],
    "max-at-first-id": [0.8, 0.2, 0.8, 0.0, 0.1],
    "max-at-last-id": [0.0, 0.2, 0.1, 0.3, 0.5],
    "all-zero": [0.0, 0.0, 0.0, 0.0, 0.0],
    "negative-zero-only": [0.0, -0.0, 0.0, -0.0, 0.0],
    "negative-zero-ties-zero": [-0.0, -1.0, 0.0, -2.0, 0.0],
    "inf": [0.5, np.inf, 0.0, np.inf, 1.0],
}


def _assert_top_matches_ranking(scores):
    top, degenerate = top_answers(scores)
    assert top.shape == degenerate.shape == (scores.shape[0],)
    for row, t, d in zip(scores, top, degenerate):
        ranked, want_degenerate = rank_answers(row)
        assert d == want_degenerate
        if not d:
            assert t == ranked[0]


@pytest.mark.parametrize("name", sorted(TOP_ROWS))
def test_top_answers_matches_rank_answers_on_one_row(name):
    _assert_top_matches_ranking(np.array([TOP_ROWS[name]]))


def test_top_answers_matches_rank_answers_on_a_batch(rng):
    """Every special row at once, then rows drawn mostly from 0 so that
    ties at the maximum and all-zero rows are common."""
    special = np.array(list(TOP_ROWS.values()))
    _assert_top_matches_ranking(special)
    top, degenerate = top_answers(special)
    assert degenerate.tolist() == [name in ("all-zero", "negative-zero-only") for name in TOP_ROWS]
    assert top[~degenerate].tolist() == [1, 0, 4, 0, 1]
    drawn = rng.choice([0.0, 0.5, 1.0], p=[0.6, 0.2, 0.2], size=(200, 5))
    assert np.any(~drawn.any(axis=1)) and np.any((drawn == drawn.max(axis=1, keepdims=True)).sum(axis=1) > 1)
    _assert_top_matches_ranking(drawn)


# -- full forward -----------------------------------------------------------------------


def test_forward_label_trace_complete(chain_graph, rng):
    g = add_reverse_relations(chain_graph)
    cfg = label_cfg()
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    res = forward(g, np.array([4, 5, 6]), g.entities.id("a"), params, cfg, question="probe")
    tr = res.trace
    assert tr is not None and len(tr.steps) == cfg.T
    for s in tr.steps:
        assert abs(s.attention.sum() - 1.0) <= 1e-6
        assert s.relation_ids is None
        assert s.relation_scores.shape == (g.num_predicates,)
        assert s.entity_scores.shape == (g.n,)
        assert np.all((0.0 <= s.entity_scores) & (s.entity_scores <= 1.0))
    assert abs(tr.hop_distribution.sum() - 1.0) <= 1e-6
    assert tr.mask is None
    assert tr.ranked.size == g.n


def test_forward_initial_scores_one_hot(chain_graph):
    g = add_reverse_relations(chain_graph)
    cfg = label_cfg()
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    res = forward(g, np.array([4]), [1, 3], params, cfg, want_trace=False)
    # multi-topic: both entities start at 1; check via a zero-step readout
    # by forcing all predicate scores through: a^1's support is exactly the
    # out-neighborhoods of entities 1 and 3
    assert res.final.shape == (g.n,)


def test_forward_validates_topic_and_form(chain_graph, rng):
    g = add_reverse_relations(chain_graph)
    cfg = label_cfg()
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    with pytest.raises(GraphError):
        forward(g, np.array([4]), g.n + 3, params, cfg)
    tg = add_reverse_relations(random_text_graph(rng, n=4))
    with pytest.raises(GraphError):
        forward(tg, np.array([4]), 0, params, cfg)


@pytest.mark.parametrize("n, num_predicates", [(1, 0), (0, 1)], ids=["entities", "predicates"])
def test_forward_rejects_a_graph_of_another_size(chain_graph, n, num_predicates):
    """Scores and predicate weights are indexed with the graph's ids, so a
    graph with more or fewer entities or predicates than the model's fails."""
    g = add_reverse_relations(chain_graph)
    cfg = label_cfg()
    params = make_params(cfg, n=g.n + n, num_predicates=g.num_predicates + num_predicates)
    with pytest.raises(GraphError, match="model built for a graph of"):
        forward_batch(g, [np.array([4])], [0], params, cfg)


def test_forward_text_requires_cache(rng):
    g = add_reverse_relations(random_text_graph(rng, n=5))
    cfg = text_cfg()
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    with pytest.raises(GraphError):
        forward(g, np.array([4]), 0, params, cfg, cache=None)


def test_forward_text_trace_records_selected_relations(rng):
    g = add_reverse_relations(random_text_graph(rng, n=6, num_rels=10))
    cfg = text_cfg()
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    cache = make_cache(params, g)
    res = forward(g, np.array([4, 5]), 2, params, cfg, cache=cache)
    s1 = res.trace.steps[0]
    want, _ = g.select_text_relation_ids(np.eye(g.n)[2:3], cfg.tau, cfg.omega)
    np.testing.assert_array_equal(np.sort(s1.relation_ids), np.sort(want))
    assert s1.relation_scores.shape == s1.relation_ids.shape
    assert res.trace.mask is not None


def _trace_case(kind, rng):
    if kind == "text":
        # tau low enough that several entities stay active after step 1
        g = add_reverse_relations(random_text_graph(rng, n=8, num_rels=20))
        cfg = text_cfg(tau=0.2)
        params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
        return g, cfg, params, make_cache(params, g)
    g = add_reverse_relations(random_label_graph(rng, n=12, num_predicates=3))
    cfg = label_cfg(aggregation=kind.split("-")[1], head="sigmoid")
    return g, cfg, make_params(cfg, n=g.n, num_predicates=g.num_predicates), None


def oracle_step(g, cfg, step, a_prev):
    """One reasoning step recomputed from the entity scores before it and
    the step's relation scores: brute-force selection (text forms, checked
    against the step's relation ids), the dense transfer oracles and
    truncation."""
    if step.relation_ids is not None:
        want_ids = brute_select(a_prev, cfg.tau, cfg.omega, g.trel_heads)
        np.testing.assert_array_equal(np.sort(step.relation_ids), want_ids)
        heads, tails = g.trel_heads[step.relation_ids], g.trel_tails[step.relation_ids]
        raw = dense_text_transfer(g.n, heads, tails, step.relation_scores, a_prev, cfg.aggregation)
    elif cfg.aggregation == "sum":
        raw = dense_label_transfer(
            g.n, g.edge_heads, g.edge_preds, g.edge_tails, g.num_predicates, a_prev, step.relation_scores
        )
    else:  # each (head, tail) pair carries its strongest edge
        weights = step.relation_scores[g.edge_preds]
        raw = dense_text_transfer(g.n, g.edge_heads, g.edge_tails, weights, a_prev, "max")
    return truncate_reference(raw) if cfg.use_truncation else raw


def oracle_final(g, cfg, trace):
    """A question's answer scores from its traced relation scores, hop
    distribution and mask alone: every step chained through oracle_step
    from the topic one-hot, mixed by the hop distribution, then masked."""
    a_prev = np.zeros(g.n)
    a_prev[trace.topics] = 1.0
    a_star = np.zeros(g.n)
    for c_t, step in zip(trace.hop_distribution, trace.steps):
        a_prev = oracle_step(g, cfg, step, a_prev)
        a_star = a_star + c_t * a_prev
    return a_star if trace.mask is None else trace.mask * a_star


@pytest.mark.parametrize("kind", ["label-sum", "label-max", "text"])
def test_forward_trace_steps_match_oracles(rng, kind):
    """Every traced step, recomputed from the step before it with the dense
    transfer oracles, truncation, and (text form) brute-force selection."""
    g, cfg, params, cache = _trace_case(kind, rng)
    for topic in range(g.n):
        tr = forward(g, np.array([4, 5, 6]), topic, params, cfg, cache=cache).trace
        a_prev = np.eye(g.n)[topic]
        for s in tr.steps:
            np.testing.assert_allclose(s.entity_scores, oracle_step(g, cfg, s, a_prev), rtol=0, atol=1e-12)
            a_prev = s.entity_scores


def test_reachability_support_matches_bfs(rng):
    """With every predicate score forced to 1 and no truncation, the support
    of a^t is the exactly-t-step reachable set."""
    for _ in range(10):
        g = random_label_graph(rng, n=12)
        triples = [
            (int(h), int(p), int(t))
            for h, p, t in zip(g.edge_heads, g.edge_preds, g.edge_tails)
        ]
        topic = int(rng.integers(g.n))
        a = Tensor(np.eye(g.n)[topic])
        ones = Tensor(np.ones(g.num_predicates))
        for hops in (1, 2, 3):
            a = transfer_label_row(g, a, ones)
            want = bfs_answers(triples, topic, hops)
            assert set(np.flatnonzero(a.data > 0).tolist()) == want


def test_forward_scores_stay_in_unit_interval(rng):
    """Random parameters, random graphs: truncated step scores and the final
    mixture never escape [0, 1]."""
    for trial in range(50):
        seed = int(rng.integers(1 << 30))
        g = add_reverse_relations(random_label_graph(np.random.default_rng(seed)))
        cfg = label_cfg(seed=seed, d=8)
        params = ModelParams(20, g.n, g.num_predicates, cfg)
        tokens = np.array([4 + seed % 3, 5, 6 + seed % 5])
        res = forward(g, tokens, seed % g.n, params, cfg)
        for s in res.trace.steps:
            assert np.all((0.0 <= s.entity_scores) & (s.entity_scores <= 1.0))
        assert np.all((0.0 <= res.final.data) & (res.final.data <= 1.0))


def assert_rows_match_oracles(g, cfg, batch, singles):
    """Row i of forward_batch against the dense oracles, recomputed from the
    relation scores of forward()'s trace for question i, and against that
    forward() itself, so no row leaks into another."""
    assert batch.final.shape[0] == len(singles)
    for i, single in enumerate(singles):
        np.testing.assert_allclose(batch.final.data[i], oracle_final(g, cfg, single.trace), rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.final.data[i], single.final.data, atol=1e-12)
        np.testing.assert_allclose(batch.c.data[i], single.c.data, atol=1e-12)


def test_forward_batch_matches_forward_label(rng):
    g = add_reverse_relations(random_label_graph(rng, n=15, num_predicates=3))
    cfg = label_cfg(d=8)
    params = ModelParams(25, g.n, g.num_predicates, cfg)
    seqs = [np.array([4, 5, 6]), np.array([7, 8]), np.array([9, 10, 11, 12])]
    topics = [2, 0, 7]
    batch = forward_batch(g, seqs, topics, params, cfg)
    assert_rows_match_oracles(g, cfg, batch, [forward(g, s, e, params, cfg) for s, e in zip(seqs, topics)])


def test_forward_batch_matches_forward_text(rng):
    g = add_reverse_relations(random_text_graph(rng, n=8, num_rels=14))
    cfg = text_cfg(d=8)
    params = ModelParams(40, g.n, g.num_predicates, cfg)
    cache = make_cache(params, g)
    seqs = [np.array([4, 5]), np.array([6, 7, 8])]
    topics = [1, 3]
    batch = forward_batch(g, seqs, topics, params, cfg, cache=cache)
    singles = [forward(g, s, e, params, cfg, cache=cache) for s, e in zip(seqs, topics)]
    assert_rows_match_oracles(g, cfg, batch, singles)


def _weighted_total(final, w):
    """sum(final * w) over a (n,) row or every row of a (B, n) batch."""
    return ad.sum_(final * Tensor(np.broadcast_to(w, final.shape)))


def test_forward_batch_gradients_match_per_example(rng):
    g = add_reverse_relations(random_label_graph(rng, n=10, num_predicates=2))
    cfg = label_cfg(d=6)
    params = ModelParams(20, g.n, g.num_predicates, cfg)
    seqs = [np.array([4, 5]), np.array([6, 7, 8])]
    topics = [0, 3]
    w = rng.standard_normal(g.n)

    batch = forward_batch(g, seqs, topics, params, cfg)
    _weighted_total(batch.final, w).backward()
    got = {k: t.grad.copy() for k, t in params.named().items() if t.grad is not None}
    for t in params.named().values():
        t.grad = None

    singles = [forward(g, s, e, params, cfg) for s, e in zip(seqs, topics)]
    assert_rows_match_oracles(g, cfg, batch, singles)
    total = None
    for res in singles:
        y = _weighted_total(res.final, w)
        total = y if total is None else total + y
    total.backward()
    for k, t in params.named().items():
        if t.grad is None:
            assert k not in got
            continue
        np.testing.assert_allclose(got[k], t.grad, atol=1e-12, err_msg=k)


def test_ambiguous_topic_surface_activates_both(rng):
    """Two entities with the same role: starting from both (multi-topic
    one-hot) reaches both answer sets."""
    g = add_reverse_relations(
        build_from_triples(
            [
                ("m1", "directed_by", "alice"),
                ("m2", "directed_by", "bob"),
                ("m1", "year", "1999"),
                ("m2", "year", "2004"),
            ]
        )
    )
    cfg = label_cfg(d=8, use_truncation=True)
    params = ModelParams(15, g.n, g.num_predicates, cfg)
    topics = [g.entities.id("m1"), g.entities.id("m2")]
    res = forward(g, np.array([4, 5, 6]), topics, params, cfg)
    a1 = res.trace.steps[0].entity_scores
    reach = set(np.flatnonzero(a1 > 0).tolist())
    assert g.entities.id("alice") in reach and g.entities.id("bob") in reach


# -- forward_batch against per-example forward on every transfer path ------------------


def _label_sum_case(rng):
    g = add_reverse_relations(random_label_graph(rng, n=12, num_predicates=3))
    cfg = label_cfg(d=6, head="sigmoid")
    return g, cfg, ModelParams(20, g.n, g.num_predicates, cfg), None, [0, 5, 11]


def _label_max_case(rng):
    """Parallel edges under predicates whose scores tie exactly."""
    triples = [(f"e{h}", f"p{k}", f"e{t}") for h, t in [(0, 1), (1, 2), (2, 3), (0, 2), (3, 1)] for k in (0, 1, 2)]
    g = add_reverse_relations(build_from_triples(triples))
    cfg = label_cfg(d=6, aggregation="max", head="sigmoid")
    params = ModelParams(20, g.n, g.num_predicates, cfg)
    # p0 and p1 (ids 0 and 2, reverses 1 and 3) score identically
    for w in (params.pred_w.data.T, params.pred_b.data):
        w[2], w[3] = w[0], w[1]
    return g, cfg, params, None, [0, 1, 3]


def _text_case(aggregation, **cfg_kw):
    def build(rng):
        g = add_reverse_relations(random_text_graph(rng, n=6, num_rels=24))  # many parallel relations
        cfg = text_cfg(d=6, aggregation=aggregation, **cfg_kw)
        params = ModelParams(40, g.n, g.num_predicates, cfg)
        return g, cfg, params, make_cache(params, g), [1, 3, 5]

    return build


def _mixed_case(rng):
    """A text graph with label triples mixed in as one-word texts."""
    g = add_reverse_relations(random_text_graph(rng, n=6, num_rels=24))
    triples = [(f"e{i}", f"p{i % 2}", f"e{(i + 3) % g.n}") for i in range(g.n)]
    g = mix_label_into_text(g, triples, 0.5, seed=1)
    cfg = text_cfg(d=6)
    params = ModelParams(40, g.n, g.num_predicates, cfg)
    return g, cfg, params, make_cache(params, g), [0, 2, 4]


def _empty_selection_case(rng):
    # e0 has no relations: a row starting there selects nothing at step 1,
    # and its all-zero scores fall back to argmax = e0 again at later steps
    g = add_reverse_relations(random_text_graph(rng, n=6, num_rels=24, isolated=(0,)))
    cfg = text_cfg(d=6, aggregation="max")
    params = ModelParams(40, g.n, g.num_predicates, cfg)
    return g, cfg, params, make_cache(params, g), [0, 3, 0]


def _no_edges_case(aggregation):
    def build(rng):
        g = RelationGraph(Vocab(["e0", "e1", "e2"]), Vocab(["p0", "p1"]), [], [], [], form="label")
        cfg = label_cfg(d=6, aggregation=aggregation)
        return g, cfg, ModelParams(20, g.n, g.num_predicates, cfg), None, [0, 2]

    return build


BATCH_CASES = {
    "label-sum": _label_sum_case,
    "label-max-tied-parallel": _label_max_case,
    "text-max": _text_case("max"),
    "mixed": _mixed_case,
    "text-omega-cut": _text_case("sum", tau=0.0, omega=2),
    "text-empty-selection": _empty_selection_case,
    "label-sum-no-edges": _no_edges_case("sum"),
    "label-max-no-edges": _no_edges_case("max"),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_forward_batch_matches_forward_with_gradients(rng, case):
    g, cfg, params, cache, topics = BATCH_CASES[case](rng)
    seqs = [np.array([4, 5, 6]), np.array([7, 8]), np.array([9, 10, 11, 12])][: len(topics)]
    w = rng.standard_normal(g.n)

    batch = forward_batch(g, seqs, topics, params, cfg, cache=cache)
    _weighted_total(batch.final, w).backward()
    got = {k: t.grad for k, t in params.named().items()}
    for t in params.named().values():
        t.grad = None

    if cache is not None:  # the backward above walked the cached table's graph
        cache.invalidate()
    singles = [forward(g, s, e, params, cfg, cache=cache, question="q") for s, e in zip(seqs, topics)]
    assert_rows_match_oracles(g, cfg, batch, singles)
    total = None
    for res in singles:
        y = _weighted_total(res.final, w)
        total = y if total is None else total + y
    total.backward()
    for k, t in params.named().items():
        # a path that never ran leaves no gradient where the other has zeros
        zeros = np.zeros_like(t.data)
        np.testing.assert_allclose(
            zeros if got[k] is None else got[k], zeros if t.grad is None else t.grad, atol=1e-12, err_msg=k
        )

    if case == "text-omega-cut":
        a_prev = [np.eye(g.n)[topics[0]]] + [s.entity_scores for s in singles[0].trace.steps]
        cut = [
            g.select_text_relation_ids(a[None], cfg.tau, None)[0].size > s.relation_ids.size
            for a, s in zip(a_prev, singles[0].trace.steps)
        ]
        assert any(cut)
    if case == "text-empty-selection":
        assert singles[0].trace.steps[0].relation_ids.size == 0
    if case == "label-max-tied-parallel":
        assert np.any(batch.final.data[0] > 0)


@pytest.mark.parametrize("case", ["text-max", "mixed"])
def test_text_scores_match_the_per_relation_oracle(rng, case):
    """The (B, X) text scores, read at each selected relation's row and
    text, against the paper's per-relation sigmoid((r * q) . w + b), on a
    batch whose first row selects several relations of one text; and the
    gradients of every parameter against that formula on the tape."""
    g, cfg, params, cache, _topics = BATCH_CASES[case](rng)

    def query_and_table():
        """q_t and the text table on a fresh graph: a backward walks its graph once."""
        enc = encode_question_batch(params.q_enc, [np.array([4, 5, 6]), np.array([7, 8])])
        cache.invalidate()
        return step_attention(enc, params)[1][:, 0], cache.table()

    q_t, table = query_and_table()
    a = np.zeros((2, g.n))
    a[0] = 1.0
    a[1, 2] = 1.0
    ids, rows = g.select_text_relation_ids(a, cfg.tau, None)
    texts = g.trel_text[ids]
    assert np.bincount(texts[rows == 0]).max() > 1
    scores = text_relation_scores(q_t, table, params)
    assert scores.shape == (2, len(g.texts))
    want = oracles.text_scores_per_relation(table.data, q_t.data, texts, rows, params.text_w.data, params.text_b.data)
    np.testing.assert_allclose(scores.data[rows, texts], want, rtol=0, atol=1e-12)

    upstream = Tensor(rng.standard_normal(ids.size))
    ad.sum_(scores[rows, texts] * upstream).backward()
    got = {k: t.grad.copy() for k, t in params.named().items() if t.grad is not None}
    for t in params.named().values():
        t.grad = None
    q_t, table = query_and_table()
    per_relation = oracles.sum_axis(table[texts] * q_t[rows] * params.text_w, 1) + params.text_b
    ad.sum_(ad.sigmoid(per_relation) * upstream).backward()
    assert got.keys() == {k for k, t in params.named().items() if t.grad is not None}
    for k, t in params.named().items():
        if k in got:
            np.testing.assert_allclose(got[k], t.grad, rtol=1e-10, atol=1e-12, err_msg=k)


def test_text_trace_scores_are_the_batch_matrix_at_row_and_text(rng, monkeypatch):
    """forward()'s text trace keeps one score per selected relation, and
    it is forward_batch's (B, X) score matrix at that relation's row and
    text, step by step."""
    g, cfg, params, cache, topics = BATCH_CASES["text-omega-cut"](rng)
    seqs = [np.array([4, 5, 6]), np.array([7, 8]), np.array([9, 10, 11, 12])]
    matrices = []
    score = text_relation_scores

    def recording(*args):
        out = score(*args)
        matrices.append(out.data)
        return out

    with monkeypatch.context() as m:
        m.setattr("hoptrace.model.text_relation_scores", recording)
        forward_batch(g, seqs, topics, params, cfg, cache=cache)
    assert len(matrices) == cfg.T and matrices[0].shape == (len(seqs), len(g.texts))
    for i, (s, e) in enumerate(zip(seqs, topics)):
        for t, step in enumerate(forward(g, s, e, params, cfg, cache=cache).trace.steps):
            assert step.relation_scores.shape == step.relation_ids.shape
            want = matrices[t][i, g.trel_text[step.relation_ids]]
            np.testing.assert_allclose(step.relation_scores, want, rtol=0, atol=1e-12)


def _tape_size(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


@pytest.mark.parametrize("case", ["label-max-tied-parallel", "label-sum", "text-max"])
def test_training_tape_does_not_grow_with_batch(rng, case):
    """A training batch's tape, forward_batch through compute_loss, has as
    many nodes for eight rows as for two: no per-example transfer or loss
    node hides in the batch path."""
    g, cfg, params, cache, topics = BATCH_CASES[case](rng)

    def size(B):
        seqs = [np.array([4 + b % 5, 5, 6]) for b in range(B)]  # equal lengths: same encoder tape
        res = forward_batch(g, seqs, [topics[b % len(topics)] for b in range(B)], params, cfg, cache=cache)
        ys = np.zeros((B, g.n))
        ys[:, 0] = 1.0
        hops = [1 + b % cfg.T for b in range(B)]
        return _tape_size(compute_loss(res.final, ys, res.c, hops).total)

    assert size(8) == size(2)


def test_encoder_tape_does_not_grow_with_question_length(rng):
    """The encoders' tape has as many nodes for twelve tokens as for three:
    each GRU direction is one node, not one per position."""
    p = EncoderParams(20, 4, rng, prefix="q")

    def size(L):
        seqs = [4 + np.arange(L) % 16, np.array([5])]  # ragged, with a length-1 row
        enc = encode_question_batch(p, seqs)
        return _tape_size(ad.sum_(enc.q) + ad.sum_(enc.h)), _tape_size(ad.sum_(encode_relation_batch(p, seqs)))

    assert size(3) == size(12)
