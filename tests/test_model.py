"""Reasoning-step semantics: attention, relation scoring, sparse transfer,
truncation, hop mixture, mask, ranking, and the full forward pass."""

import numpy as np
import pytest

import hoptrace.autodiff as ad
from hoptrace import graph, kernels, model
from hoptrace.autodiff import Tensor
from hoptrace.config import TrainConfig
from hoptrace.encoder import EncoderParams, RelationEncodingCache, Vocabulary, encode_question_batch, encode_relation_batch
from hoptrace.errors import GraphError
from hoptrace.graph import RelationGraph, Vocab, add_reverse_relations, build_from_triples, mix_label_into_text
from hoptrace.model import (
    ModelParams,
    forward,
    forward_batch,
    label_relation_scores,
    rank_answers,
    text_relation_scores,
    top_answers,
    transfer_label_batch,
    transfer_text_batch,
    truncate,
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


def transfer_label_row(g, a, p, aggregation="sum"):
    """transfer_label_batch on one (n,) row under (P,) predicate scores."""
    out = transfer_label_batch(g, ad.reshape(a, (1, g.n)), ad.reshape(p, (1, -1)), aggregation)
    return ad.reshape(out, (g.n,))


def transfer_text_row(g, a, rel_ids, scores, aggregation):
    """transfer_text_batch on one (n,) row over the given relations."""
    rows = np.zeros(len(rel_ids), dtype=np.int64)
    out = transfer_text_batch(g, ad.reshape(a, (1, g.n)), rel_ids, rows, scores, aggregation)
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


def test_label_scores_softmax_head(rng):
    params = make_params(label_cfg(head="softmax"))
    q_t = Tensor(rng.standard_normal(8))
    p = label_relation_scores(q_t, params)
    assert abs(p.data.sum() - 1.0) <= 1e-6
    assert np.all(p.data > 0)


def test_label_scores_sigmoid_head(rng):
    params = make_params(label_cfg(head="sigmoid"))
    q_t = Tensor(rng.standard_normal(8))
    p = label_relation_scores(q_t, params)
    assert np.all((0 < p.data) & (p.data < 1))
    params.head = "argmax"
    with pytest.raises(ValueError):
        label_relation_scores(q_t, params)


def test_text_scores_in_unit_interval(rng):
    params = make_params(text_cfg())
    q_t = Tensor(rng.standard_normal(8))
    enc = Tensor(rng.standard_normal((7, 8)))
    s = text_relation_scores(q_t, enc, params)
    assert s.shape == (7,)
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

    order, ph, pt, pptr = graph.pair_groups(g.edge_heads, g.edge_tails)
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
    nothing and push one weight per nonzero-head pair."""
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
    assert pushed == [frontier]
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
        m = g.num_text_relations
        k = int(rng.integers(1, m + 1))
        rel_ids = rng.choice(m, size=k, replace=False)
        scores = Tensor(rng.random(k))
        got = transfer_text_row(g, a, rel_ids, scores, "sum")
        want = dense_text_transfer(
            g.n, g.trel_heads[rel_ids], g.trel_tails[rel_ids], scores.data, a.data, "sum"
        )
        np.testing.assert_allclose(got.data, want, atol=1e-10)


def test_transfer_text_matches_dense_max(rng):
    for _ in range(25):
        g = random_text_graph(rng)
        a = Tensor(rng.random(g.n))
        m = g.num_text_relations
        rel_ids = np.arange(m)
        scores = Tensor(rng.random(m))
        got = transfer_text_row(g, a, rel_ids, scores, "max")
        want = dense_text_transfer(g.n, g.trel_heads, g.trel_tails, scores.data, a.data, "max")
        np.testing.assert_allclose(got.data, want, atol=1e-10)


def test_transfer_text_gradcheck_sum(rng):
    g = random_text_graph(rng, n=6, num_rels=12)
    a = Tensor(rng.random(g.n), requires_grad=True)
    scores = Tensor(rng.random(g.num_text_relations), requires_grad=True)
    w = Tensor(rng.standard_normal(g.n))
    rel_ids = np.arange(g.num_text_relations)
    gradcheck(lambda: ad.sum_(transfer_text_row(g, a, rel_ids, scores, "sum") * w), [a, scores])


def test_transfer_text_max_gradient_reaches_argmax_only(rng):
    # two parallel relations 0->1; only the stronger one gets gradient
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


def test_truncate_values(rng):
    a = Tensor(np.array([0.0, 0.4, 1.0, 1.7, 25.0]))
    out = truncate(a)
    np.testing.assert_allclose(out.data, truncate_reference(a.data))
    assert np.all(out.data <= 1.0)


def test_truncate_gradient_slopes():
    # below 1: slope exactly 1; above 1: slope 1/value (divisor held constant)
    a = Tensor(np.array([0.3, 4.0]), requires_grad=True)
    truncate(a).sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 0.25])


def test_truncate_gradcheck_away_from_kink(rng):
    vals = rng.random(12) * 2.0
    vals[np.abs(vals - 1.0) < 0.1] += 0.2  # finite differences lie at the kink
    a = Tensor(vals, requires_grad=True)
    w = Tensor(rng.standard_normal(12))
    # frozen divisor: analytic gradient g/z only matches finite differences
    # on the identity branch, so check values there and slopes directly above
    below = vals <= 1.0
    out = truncate(a)
    ad.sum_(out * w).backward()
    np.testing.assert_allclose(a.grad[below], w.data[below], atol=1e-12)
    np.testing.assert_allclose(a.grad[~below], w.data[~below] / vals[~below], atol=1e-12)


# -- mixture, mask, ranking ------------------------------------------------------------


def test_hop_mixture_blends(chain_graph):
    g = add_reverse_relations(chain_graph)
    cfg = label_cfg()
    params = make_params(cfg, n=g.n, num_predicates=g.num_predicates)
    tr = forward(g, np.array([4, 5, 6]), 0, params, cfg).trace
    c = tr.hop_distribution
    assert abs(c.sum() - 1.0) <= 1e-6
    want = sum(c[t] * tr.steps[t].entity_scores for t in range(3))
    np.testing.assert_allclose(tr.a_star, want, atol=1e-12)
    np.testing.assert_array_equal(tr.final, tr.a_star)  # label form: no mask


def test_language_mask_gates(rng):
    g = add_reverse_relations(random_text_graph(rng, n=10, num_rels=20))
    cfg = text_cfg()
    params = make_params(cfg, n=g.n, num_predicates=1)
    tr = forward(g, np.array([4, 5]), 2, params, cfg, cache=make_cache(params, g)).trace
    m = tr.mask
    assert m.shape == (g.n,)
    assert np.all((0 < m) & (m < 1))
    np.testing.assert_allclose(tr.final, m * tr.a_star)


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


def test_forward_text_requires_cache(rng):
    g = add_reverse_relations(random_text_graph(rng, n=5))
    cfg = text_cfg()
    params = make_params(cfg, n=g.n, num_predicates=1)
    with pytest.raises(GraphError):
        forward(g, np.array([4]), 0, params, cfg, cache=None)


def test_forward_text_trace_records_selected_relations(rng):
    g = add_reverse_relations(random_text_graph(rng, n=6, num_rels=10))
    cfg = text_cfg()
    params = make_params(cfg, n=g.n, num_predicates=1)
    cache = make_cache(params, g)
    res = forward(g, np.array([4, 5]), 2, params, cfg, cache=cache)
    s1 = res.trace.steps[0]
    want, _ = g.select_text_relation_ids(np.eye(g.n)[2], cfg.tau, cfg.omega)
    np.testing.assert_array_equal(np.sort(s1.relation_ids), np.sort(want))
    assert s1.relation_scores.shape == s1.relation_ids.shape
    assert res.trace.mask is not None


def _trace_case(kind, rng):
    if kind == "text":
        # tau low enough that several entities stay active after step 1
        g = add_reverse_relations(random_text_graph(rng, n=8, num_rels=20))
        cfg = text_cfg(tau=0.2)
        params = make_params(cfg, n=g.n, num_predicates=1)
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
    params = ModelParams(40, g.n, 1, cfg)
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
        params = ModelParams(40, g.n, 1, cfg)
        return g, cfg, params, make_cache(params, g), [1, 3, 5]

    return build


def _mixed_case(rng):
    g = add_reverse_relations(random_text_graph(rng, n=6, num_rels=24))
    triples = [(f"e{i}", f"p{i % 2}", f"e{(i + 3) % g.n}") for i in range(g.n)]
    g = mix_label_into_text(g, triples, 0.5, seed=1)
    cfg = TrainConfig(form="mixed", d=6).validate()
    params = ModelParams(40, g.n, g.num_predicates, cfg)
    return g, cfg, params, make_cache(params, g), [0, 2, 4]


def _empty_selection_case(rng):
    # e0 has no relations: a row starting there selects nothing at step 1,
    # and its all-zero scores fall back to argmax = e0 again at later steps
    g = add_reverse_relations(random_text_graph(rng, n=6, num_rels=24, isolated=(0,)))
    cfg = text_cfg(d=6, aggregation="max")
    params = ModelParams(40, g.n, 1, cfg)
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
            g.select_text_relation_ids(a, cfg.tau, None)[0].size > s.relation_ids.size
            for a, s in zip(a_prev, singles[0].trace.steps)
        ]
        assert any(cut)
    if case == "text-empty-selection":
        assert singles[0].trace.steps[0].relation_ids.size == 0
    if case == "label-max-tied-parallel":
        assert np.any(batch.final.data[0] > 0)


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
