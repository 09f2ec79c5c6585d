"""The multi-hop reasoner.

A forward pass starts from a one-hot entity score vector at the topic,
then for each of T steps: attend over question tokens to build a step
query, score relations with it (a predicate head in label form, a
per-relation sigmoid in text/mixed form), push scores across the scored
edges, and truncate back into [0,1].  A hop-mixture head blends the per-step
score vectors and, on text graphs, a question-conditioned mask gates the
result.

There is one implementation, _reason, and it always runs a batch: each step
is one transfer over the (B, n) score matrix, pushed as a disjoint union of
the B rows through the same flat push, in every graph form and aggregation.
Label form pushes only the edges leaving the frontier (the entities a row
scores nonzero), listed from the edges whose head is active in some row of
the batch; text form pushes the relations selected per row.
forward_batch() runs it for training and evaluation; forward() runs it on a
batch of one question and records every intermediate in a ReasoningTrace.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor
from .encoder import BatchQuestionEncoding, EncoderParams, encode_question, encode_question_batch
from .errors import GraphError
from .graph import RelationGraph, pair_groups
from .trace import ReasoningTrace, StepTrace


def _uniform(rng, shape, scale):
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


class ModelParams:
    """Every trainable tensor, addressable by name for the optimizer,
    gradient checking, and checkpoints."""

    def __init__(self, vocab_size: int, n: int, num_predicates: int, cfg):
        self.vocab_size = vocab_size
        self.n = n
        self.num_predicates = num_predicates
        self.T = cfg.T
        self.d = cfg.d
        self.form = cfg.form
        self.head = cfg.head
        d, T = cfg.d, cfg.T
        s = 1.0 / np.sqrt(d)
        rng = np.random.default_rng(cfg.seed)
        self.q_enc = EncoderParams(vocab_size, d, rng, "q_enc")
        self.step_w = [_uniform(rng, (d, d), s) for _ in range(T)]
        self.step_b = [_zeros(d) for _ in range(T)]
        # score heads are plain linear maps; attention and gating supply
        # all the nonlinearity this model needs
        self.hop_w = _uniform(rng, (d, T), s)
        self.hop_b = _zeros(T)
        if cfg.form == "label":
            self.pred_w = _uniform(rng, (d, num_predicates), s)
            self.pred_b = _zeros(num_predicates)
        else:
            self.r_enc = EncoderParams(vocab_size, d, rng, "r_enc")
            self.text_w = _uniform(rng, (d,), s)
            self.text_b = _zeros(())
            self.mask_w = _uniform(rng, (d, n), s)
            self.mask_b = _zeros(n)

    def named(self) -> dict[str, Tensor]:
        out = dict(self.q_enc.named())
        for t, (w, b) in enumerate(zip(self.step_w, self.step_b), 1):
            out[f"step{t}.w"] = w
            out[f"step{t}.b"] = b
        for group in ("hop", "pred", "text", "mask"):
            for leaf in ("w", "b"):
                key = f"{group}_{leaf}"
                if hasattr(self, key):
                    out[f"{group}.{leaf}"] = getattr(self, key)
        if hasattr(self, "r_enc"):
            out.update(self.r_enc.named())
        return out


def label_relation_scores(q_t: Tensor, params: ModelParams) -> Tensor:
    """Score every predicate against the step query with params.head:
    softmax gives a distribution, sigmoid scores predicates independently."""
    logits = q_t @ params.pred_w + params.pred_b
    if params.head == "softmax":
        return ad.softmax(logits)
    if params.head == "sigmoid":
        return ad.sigmoid(logits)
    raise ValueError(f"unknown relation head {params.head!r}")


def text_relation_scores(q_t: Tensor, rel_enc: Tensor, params: ModelParams) -> Tensor:
    """Sigmoid score per relation from the elementwise product of the
    relation encoding with the step query; rel_enc is (K, d)."""
    prod = rel_enc * q_t
    return ad.sigmoid(prod @ params.text_w + params.text_b)


# ---------------------------------------------------------------------------
# sparse transfer
#
# A batch of B score vectors over n entities is pushed as one disjoint
# union: row b's entities become b*n .. b*n + n - 1 of a flat (B*n,) vector
# and its edges are offset to match.  Rows share no entity, so every row's
# scatter-adds run in the same edge order as they would on their own.  The
# label transfer lists only its frontier edges, and text form only the
# selected relations, so a step's work grows with the reached part of the
# graph, not with B times its edges.


def _push_max(pair_heads, pair_tails, pair_ptr, w: Tensor, a_prev: Tensor, n: int) -> Tensor:
    """Differentiable max push over edges grouped by (head, tail) pair, with
    w in that grouped order: parallel edges contribute only their maximum
    weight, and the gradient flows to the argmax edge alone."""
    out, argmax = kernels.push_max_forward(pair_heads, pair_tails, pair_ptr, w.data, a_prev.data, n)

    def vjp(g):
        return kernels.push_max_backward(pair_heads, pair_tails, argmax, w.data, a_prev.data, g)

    return ad.node(out, (a_prev, w), vjp)


def _push(heads, tails, w: Tensor, a_prev: Tensor, n: int, aggregation: str) -> Tensor:
    """Differentiable score push along explicit edges.

    sum: parallel edges between a pair add up (the default).
    max: parallel edges contribute only their maximum weight.
    """
    if aggregation == "sum":
        out = kernels.push_forward(heads, tails, w.data, a_prev.data, n)

        def vjp(g):
            return kernels.push_backward(heads, tails, w.data, a_prev.data, g)

        return ad.node(out, (a_prev, w), vjp)
    if aggregation == "max":
        order, ph, pt, pptr = pair_groups(heads, tails)
        return _push_max(ph, pt, pptr, w[order], a_prev, n)
    raise ValueError(f"unknown aggregation {aggregation!r}")


def transfer_label_batch(g: RelationGraph, a_prev: Tensor, p: Tensor, aggregation: str = "sum") -> Tensor:
    """Label-form transfer for a whole batch: a_prev is (B, n), p is
    (B, num_predicates).  Every edge, weighted by row b's score for its
    predicate, pushes row b's head activation onto the tail; the n x n score
    matrix is never materialized.

    Only the frontier is pushed: the (row, edge) pairs whose head scores
    nonzero in that row, listed row by row in edge order.  They are listed
    from the candidate edges, whose head is active in some row of the batch,
    so the listing reads B flags per candidate rather than per edge.  Scores
    are finite and >= 0, so a skipped pair would add exactly +0.0, and each
    output sums the same terms in the same order as a push over every edge.
    The pairs' weights are one gather from p by flat key row * P + pred,
    whose vjp adds them back in that order; numpy's (rows, preds) fancy
    index reads the same entries at about 1.7x the cost.  The gradient
    w.r.t. a_prev is returned only on a_prev's nonzero entries, as for a
    sparse tensor: elsewhere it reads 0.  Parameter gradients do not
    change, since a dropped entry could feed only a relation scoring
    exactly 0.
    """
    B, n, P = a_prev.data.shape[0], g.n, p.data.shape[1]
    active = a_prev.data != 0
    cand = np.flatnonzero(active.any(axis=0)[g.edge_heads])
    rows, k = np.divmod(np.flatnonzero(np.take(active, g.edge_heads[cand], axis=1)), cand.size)
    edges = cand[k]
    heads = g.edge_heads[edges] + rows * n
    tails = g.edge_tails[edges] + rows * n
    w = ad.take(ad.reshape(p, (B * P,)), rows * P + g.edge_preds[edges])
    out = _push(heads, tails, w, ad.reshape(a_prev, (B * n,)), B * n, aggregation)
    return ad.reshape(out, (B, n))


def transfer_text_batch(
    g: RelationGraph, a_prev: Tensor, rel_ids: np.ndarray, rows: np.ndarray, scores: Tensor, aggregation: str
) -> Tensor:
    """Text-form transfer for a whole batch: a_prev is (B, n) and relation
    rel_ids[k], scored scores[k], moves row rows[k]; relations not listed
    for a row carry score 0 there."""
    B, n = a_prev.data.shape
    off = rows * n
    flat = ad.reshape(a_prev, (B * n,))
    out = _push(g.trel_heads[rel_ids] + off, g.trel_tails[rel_ids] + off, scores, flat, B * n, aggregation)
    return ad.reshape(out, (B, n))


def truncate(a: Tensor) -> Tensor:
    """Rescale entries above 1 back to 1.

    The divisor is treated as a constant when differentiating, so the slope
    through a truncated coordinate is 1/z rather than 0.
    """
    z = np.where(a.data > 1.0, a.data, 1.0)
    return ad.node(a.data / z, (a,), lambda g: (g / z,))


def rank_answers(scores: np.ndarray):
    """Entity ids sorted by score descending, ties broken by ascending id.

    All-zero scores cannot express a preference: returns an empty ranking
    plus a degenerate flag.
    """
    scores = np.asarray(scores)
    if not np.any(scores != 0.0):
        return np.zeros(0, dtype=np.int64), True
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return order.astype(np.int64), False


def top_answers(scores: np.ndarray):
    """The top-ranked entity of each row of (B, n) scores, by rank_answers'
    rule (highest score, lowest id on ties), and a flag per row that is set
    when the row is all zero and so ranks nothing.

    A row holding NaN may pick a different id than rank_answers would; such
    a row never counts as a hit, since the loss over it raises NumericError.
    """
    scores = np.asarray(scores)
    return np.argmax(scores, axis=1), ~np.any(scores != 0.0, axis=1)


class ForwardResult(NamedTuple):
    final: Tensor  # (n,) answer scores after the mask (if any)
    c: Tensor  # (T,) hop distribution
    trace: ReasoningTrace | None


class BatchResult:
    """forward_batch's output, kept whole for the loss and the ranking.
    Iterating yields each row as a ForwardResult (final[i], c[i], no trace)."""

    __slots__ = ("final", "c")

    def __init__(self, final: Tensor, c: Tensor):
        self.final = final  # (B, n) answer scores
        self.c = c  # (B, T) hop distributions

    def __iter__(self):
        return (ForwardResult(self.final[i], self.c[i], None) for i in range(self.final.shape[0]))


class _Step(NamedTuple):
    attention: Tensor  # (B, L) over question tokens, 0 on pads
    relation_ids: np.ndarray | None  # text form: every row's selected relations, concatenated
    relation_scores: Tensor  # (B, num_predicates) in label form, one per relation_ids entry in text form
    a_t: Tensor  # (B, n) entity scores after the step


class _Pass(NamedTuple):
    steps: list[_Step]
    c: Tensor  # (B, T) hop distribution
    a_star: Tensor  # (B, n) hop mixture
    mask: Tensor | None  # (B, n) language mask, text forms only
    final: Tensor  # (B, n) answer scores


def _reason(
    g: RelationGraph, enc: BatchQuestionEncoding, topic_lists: list, params: ModelParams, cfg, cache
) -> _Pass:
    """The reasoning pass over a batch of encoded questions.

    Everything runs once for the batch: the step attention and score heads,
    one transfer per step over the (B, n) score matrix, the hop mixture and
    the mask.  Text relations are selected per row (tau/omega and their
    tie-breaking are per question), then scored in one call and pushed
    together as a disjoint union, so a row's numbers do not depend on the
    other rows and the tape does not grow with B.
    """
    text_form = g.form != "label"
    if params.form != g.form:
        raise GraphError(f"model built for {params.form!r} graphs, got {g.form!r}")
    if text_form and cache is None:
        raise GraphError("text/mixed forward needs a relation encoding cache")
    n, d = g.n, params.d
    B, L = enc.alive.shape

    a0 = np.zeros((B, n))
    for i, topics in enumerate(topic_lists):
        ids = np.atleast_1d(topics).astype(np.int64)  # one entity or several
        bad = ids[(ids < 0) | (ids >= n)]
        if bad.size:
            raise GraphError(f"topic entity id {bad[0]} out of range [0, {n})")
        a0[i, ids] = 1.0

    pad_penalty = Tensor((enc.alive - 1.0) * 1e9)  # 0 on real tokens, -1e9 on pads
    a_prev = Tensor(a0)
    steps = []
    for t in range(params.T):
        qk = ad.tanh(enc.q @ params.step_w[t] + params.step_b[t])  # (B, d)
        logits = ad.sum_(enc.h * ad.reshape(qk, (B, 1, d)), axis=2) + pad_penalty
        att = ad.softmax(logits)  # (B, L)
        q_t = ad.sum_(ad.reshape(att, (B, L, 1)) * enc.h, axis=1)  # (B, d)
        if text_form:
            picked = [g.select_text_relation_ids(row, cfg.tau, cfg.omega)[0] for row in a_prev.data]
            rel_ids = np.concatenate(picked)
            rows = np.repeat(np.arange(B), [ids.size for ids in picked])
            scores = text_relation_scores(q_t[rows], cache.get_many(g.trel_text[rel_ids]), params)
            raw = transfer_text_batch(g, a_prev, rel_ids, rows, scores, cfg.aggregation)
        else:
            rel_ids = None
            scores = label_relation_scores(q_t, params)
            raw = transfer_label_batch(g, a_prev, scores, cfg.aggregation)
        a_t = truncate(raw) if cfg.use_truncation else raw
        steps.append(_Step(att, rel_ids, scores, a_t))
        a_prev = a_t

    c = ad.softmax(enc.q @ params.hop_w + params.hop_b)  # (B, T)
    a_star = None
    for t, step in enumerate(steps):
        term = ad.reshape(ad.take(c, (slice(None), t)), (B, 1)) * step.a_t
        a_star = term if a_star is None else a_star + term
    mask = ad.sigmoid(enc.q @ params.mask_w + params.mask_b) if text_form and cfg.use_mask else None
    final = a_star if mask is None else mask * a_star
    return _Pass(steps, c, a_star, mask, final)


def forward_batch(
    g: RelationGraph,
    token_seqs: list[np.ndarray],
    topic_lists: list,
    params: ModelParams,
    cfg,
    cache=None,
) -> BatchResult:
    """Reasoning pass over a whole batch of questions, for training and
    evaluation; row i matches forward() on question i."""
    run = _reason(g, encode_question_batch(params.q_enc, token_seqs), topic_lists, params, cfg, cache)
    return BatchResult(final=run.final, c=run.c)


def forward(
    g: RelationGraph,
    token_ids: np.ndarray,
    topics,
    params: ModelParams,
    cfg,
    cache=None,
    question: str = "",
    want_trace: bool = True,
) -> ForwardResult:
    """Run the full T-step reasoning pass for one question from the topic
    entity (or entities — every surface match starts at score 1)."""
    run = _reason(g, encode_question(params.q_enc, token_ids), [topics], params, cfg, cache)
    final = run.final[0]
    trace = None
    if want_trace:
        ranked, degenerate = rank_answers(final.data)
        trace = ReasoningTrace(
            question=question,
            tokens=np.array(token_ids),
            topics=np.atleast_1d(topics).astype(np.int64).tolist(),
            steps=[
                StepTrace(
                    attention=s.attention.data[0],
                    relation_ids=s.relation_ids,
                    # label scores are (1, P); text scores hold row 0's relations alone
                    relation_scores=s.relation_scores.data[0] if s.relation_ids is None else s.relation_scores.data,
                    entity_scores=s.a_t.data[0],
                )
                for s in run.steps
            ],
            hop_distribution=run.c.data[0],
            mask=None if run.mask is None else run.mask.data[0],
            a_star=run.a_star.data[0],
            final=final.data,
            ranked=ranked,
            degenerate=degenerate,
        )
    return ForwardResult(final=final, c=run.c[0], trace=trace)
