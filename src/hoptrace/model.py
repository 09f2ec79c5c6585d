"""The multi-hop reasoner.

A forward pass starts from a one-hot entity score vector at the topic,
then for each of T steps: attend over question tokens to build a step
query, score relations with it (a predicate head in label form, a
per-relation sigmoid in text/mixed form), push scores across the scored
edges, and truncate back into [0,1].  A hop-mixture head blends the per-step
score vectors and, on text graphs, a question-conditioned mask gates the
result.

forward() runs one question and records every intermediate in a
ReasoningTrace.  forward_batch() runs a batch for training and evaluation:
each step is one transfer over the (B, n) score matrix, pushed as a disjoint
union of the B rows, in every graph form and aggregation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor
from .encoder import EncoderParams, QuestionEncoding, encode_question, encode_question_batch
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


class StepQuery(NamedTuple):
    qk: Tensor  # step-projected question key (d,)
    b: Tensor  # attention over question tokens (|q|,)
    q_t: Tensor  # attended step query (d,)


def step_attention(q_enc: QuestionEncoding, t: int, params: ModelParams) -> StepQuery:
    """Attend over question tokens for step t (1-based)."""
    qk = ad.tanh(q_enc.q @ params.step_w[t - 1] + params.step_b[t - 1])
    b = ad.softmax(q_enc.h @ qk)
    q_t = b @ q_enc.h
    return StepQuery(qk, b, q_t)


def label_relation_scores(q_t: Tensor, params: ModelParams, head: str | None = None) -> Tensor:
    """Score every predicate against the step query: softmax gives a
    distribution, sigmoid scores predicates independently."""
    head = head or params.head
    logits = q_t @ params.pred_w + params.pred_b
    if head == "softmax":
        return ad.softmax(logits)
    if head == "sigmoid":
        return ad.sigmoid(logits)
    raise ValueError(f"unknown relation head {head!r}")


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
# scatter-adds run in the same edge order as they would on their own.


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


def _offset_rows(ids: np.ndarray, B: int, size: int) -> np.ndarray:
    """ids repeated for each of B rows, row b shifted by b*size, flattened."""
    return (np.arange(B, dtype=np.int64)[:, None] * size + ids).ravel()


def _expand(p: Tensor, preds: np.ndarray) -> Tensor:
    """Per-edge weights p[:, preds] (B, E) from predicate scores (B, P)."""
    num_preds = p.data.shape[1]

    def vjp(gw):
        return (kernels.col_scatter_add(preds, gw, num_preds),)

    return ad.node(p.data[:, preds], (p,), vjp)


def transfer_label_batch(g: RelationGraph, a_prev: Tensor, p: Tensor, aggregation: str = "sum") -> Tensor:
    """transfer_label for a whole batch at once: a_prev is (B, n), p is
    (B, num_predicates), row b moves under row b's predicate scores."""
    B, n, E = p.data.shape[0], g.n, g.num_edges
    if aggregation == "sum":
        w = _expand(p, g.edge_preds)
        out = kernels.push_batch_forward(g.edge_heads, g.edge_tails, w.data, a_prev.data, n)

        def vjp(gg):
            return kernels.push_batch_backward(g.edge_heads, g.edge_tails, w.data, a_prev.data, gg)

        return ad.node(out, (a_prev, w), vjp)
    if aggregation == "max":
        w = _expand(p, g.edge_preds[g.pair_order])  # weights in pair-grouped edge order
        out = _push_max(
            _offset_rows(g.pair_heads, B, n),
            _offset_rows(g.pair_tails, B, n),
            np.append(_offset_rows(g.pair_ptr[:-1], B, E), B * E),
            ad.reshape(w, (B * E,)),
            ad.reshape(a_prev, (B * n,)),
            B * n,
        )
        return ad.reshape(out, (B, n))
    raise ValueError(f"unknown aggregation {aggregation!r}")


def transfer_text_batch(
    g: RelationGraph, a_prev: Tensor, rel_ids: np.ndarray, rows: np.ndarray, scores: Tensor, aggregation: str
) -> Tensor:
    """Text-form transfer for a whole batch: a_prev is (B, n) and relation
    rel_ids[k], scored scores[k], moves row rows[k]."""
    B, n = a_prev.data.shape
    off = rows * n
    flat = ad.reshape(a_prev, (B * n,))
    out = _push(g.trel_heads[rel_ids] + off, g.trel_tails[rel_ids] + off, scores, flat, B * n, aggregation)
    return ad.reshape(out, (B, n))


def transfer_label(g: RelationGraph, a_prev: Tensor, p: Tensor, aggregation: str = "sum") -> Tensor:
    """One label-form transfer: every edge is weighted by its predicate's
    score and pushes the head's activation onto the tail.  The n x n score
    matrix is never materialized."""
    out = transfer_label_batch(g, ad.reshape(a_prev, (1, g.n)), ad.reshape(p, (1, -1)), aggregation)
    return ad.reshape(out, (g.n,))


def transfer_text(
    g: RelationGraph, a_prev: Tensor, rel_ids: np.ndarray, scores: Tensor, aggregation: str = "sum"
) -> Tensor:
    """One text-form transfer over the selected relations; unselected
    relations implicitly carry score 0."""
    rows = np.zeros(len(rel_ids), dtype=np.int64)
    out = transfer_text_batch(g, ad.reshape(a_prev, (1, g.n)), rel_ids, rows, scores, aggregation)
    return ad.reshape(out, (g.n,))


def truncate(a: Tensor) -> Tensor:
    """Rescale entries above 1 back to 1.

    The divisor is treated as a constant when differentiating, so the slope
    through a truncated coordinate is 1/z rather than 0.
    """
    z = np.where(a.data > 1.0, a.data, 1.0)
    return ad.node(a.data / z, (a,), lambda g: (g / z,))


def hop_mixture(q: Tensor, a_steps: list[Tensor], params: ModelParams):
    """Blend the per-step score vectors with a softmax over hop counts."""
    c = ad.softmax(q @ params.hop_w + params.hop_b)
    a_star = None
    for t, a_t in enumerate(a_steps):
        term = c[t] * a_t
        a_star = term if a_star is None else a_star + term
    return c, a_star


def language_mask(q: Tensor, a_star: Tensor, params: ModelParams):
    """Question-conditioned per-entity sigmoid gate over the final scores."""
    m = ad.sigmoid(q @ params.mask_w + params.mask_b)
    return m * a_star, m


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


class ForwardResult(NamedTuple):
    final: Tensor  # answer scores after the mask (if any)
    a_star: Tensor  # hop-mixture scores before the mask
    c: Tensor  # hop distribution
    mask: Tensor | None
    a_steps: list[Tensor]
    trace: ReasoningTrace | None


class BatchResult(NamedTuple):
    final: Tensor  # (n,) answer scores for one example
    c: Tensor  # (T,) hop distribution row


def forward_batch(
    g: RelationGraph,
    token_seqs: list[np.ndarray],
    topic_lists: list,
    params: ModelParams,
    cfg,
    cache=None,
) -> list[BatchResult]:
    """Reasoning pass over a whole batch of questions.

    Everything runs once for the batch: the encoder, the step attention and
    score heads, one transfer per step over the (B, n) score matrix, the hop
    mixture and the mask.  Text relations are still selected per example
    (tau/omega and their tie-breaking are per question), then scored in one
    call and pushed together as a disjoint union.  Matches forward() per
    question, with a tape whose size does not grow with B.
    """
    text_form = g.form != "label"
    if params.form != g.form:
        raise GraphError(f"model built for {params.form!r} graphs, got {g.form!r}")
    if text_form and cache is None:
        raise GraphError("text/mixed forward needs a relation encoding cache")
    n, T, d = g.n, params.T, params.d
    B = len(token_seqs)

    be = encode_question_batch(params.q_enc, token_seqs)
    L = be.h.data.shape[1]
    pad_penalty = Tensor((be.alive - 1.0) * 1e9)  # 0 on real tokens, -1e9 on pads

    a0_rows = np.zeros((B, n))
    for i, topics in enumerate(topic_lists):
        topics = [int(topics)] if np.isscalar(topics) else [int(x) for x in topics]
        for e in topics:
            if not 0 <= e < n:
                raise GraphError(f"topic entity id {e} out of range [0, {n})")
        a0_rows[i, topics] = 1.0

    a_prev = Tensor(a0_rows)
    a_steps = []
    for t in range(T):
        qk = ad.tanh(be.q @ params.step_w[t] + params.step_b[t])  # (B, d)
        logits = ad.sum_(be.h * ad.reshape(qk, (B, 1, d)), axis=2) + pad_penalty
        att = ad.softmax(logits)  # (B, L)
        q_t = ad.sum_(ad.reshape(att, (B, L, 1)) * be.h, axis=1)  # (B, d)
        if text_form:
            picked = [g.select_text_relation_ids(row, cfg.tau, cfg.omega)[0] for row in a_prev.data]
            rel_ids = np.concatenate(picked)
            rows = np.repeat(np.arange(B), [ids.size for ids in picked])
            scores = text_relation_scores(q_t[rows], cache.get_many(g.trel_text[rel_ids]), params)
            raw = transfer_text_batch(g, a_prev, rel_ids, rows, scores, cfg.aggregation)
        else:
            raw = transfer_label_batch(g, a_prev, label_relation_scores(q_t, params, cfg.head), cfg.aggregation)
        a_t = truncate(raw) if cfg.use_truncation else raw
        a_steps.append(a_t)
        a_prev = a_t

    c_all = ad.softmax(be.q @ params.hop_w + params.hop_b)  # (B, T)
    final = None
    for t, a_t in enumerate(a_steps):
        term = ad.reshape(ad.take(c_all, (slice(None), t)), (B, 1)) * a_t
        final = term if final is None else final + term
    if text_form and cfg.use_mask:
        final = ad.sigmoid(be.q @ params.mask_w + params.mask_b) * final  # (B, n) gate
    return [BatchResult(final=final[i], c=c_all[i]) for i in range(B)]


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
    """Run the full T-step reasoning pass from the topic entity (or
    entities — every surface match starts at score 1)."""
    n = g.n
    topics = [int(topics)] if np.isscalar(topics) else [int(x) for x in topics]
    for e in topics:
        if not 0 <= e < n:
            raise GraphError(f"topic entity id {e} out of range [0, {n})")
    if params.form != g.form:
        raise GraphError(f"model built for {params.form!r} graphs, got {g.form!r}")
    text_form = g.form != "label"
    if text_form and cache is None:
        raise GraphError("text/mixed forward needs a relation encoding cache")

    a0 = np.zeros(n)
    a0[topics] = 1.0
    a_prev = Tensor(a0)
    q_enc = encode_question(params.q_enc, token_ids)

    a_steps: list[Tensor] = []
    steps: list[StepTrace] = []
    for t in range(1, params.T + 1):
        sq = step_attention(q_enc, t, params)
        if text_form:
            rel_ids, _subj = g.select_text_relation_ids(a_prev.data, cfg.tau, cfg.omega)
            scores = text_relation_scores(sq.q_t, cache.get_many(g.trel_text[rel_ids]), params)
            raw = transfer_text(g, a_prev, rel_ids, scores, cfg.aggregation)
            rel_scores = scores.data
        else:
            rel_ids = None
            p = label_relation_scores(sq.q_t, params, cfg.head)
            raw = transfer_label(g, a_prev, p, cfg.aggregation)
            rel_scores = p.data
        a_t = truncate(raw) if cfg.use_truncation else raw
        if want_trace:
            steps.append(
                StepTrace(
                    attention=sq.b.data.copy(),
                    relation_ids=None if rel_ids is None else rel_ids.copy(),
                    relation_scores=rel_scores.copy(),
                    entity_scores=a_t.data.copy(),
                )
            )
        a_steps.append(a_t)
        a_prev = a_t

    c, a_star = hop_mixture(q_enc.q, a_steps, params)
    if text_form and cfg.use_mask:
        final, m = language_mask(q_enc.q, a_star, params)
    else:
        final, m = a_star, None

    trace = None
    if want_trace:
        ranked, degenerate = rank_answers(final.data)
        trace = ReasoningTrace(
            question=question,
            tokens=token_ids.copy(),
            topics=list(topics),
            steps=steps,
            hop_distribution=c.data.copy(),
            mask=None if m is None else m.data.copy(),
            a_star=a_star.data.copy(),
            final=final.data.copy(),
            ranked=ranked,
            degenerate=degenerate,
        )
    return ForwardResult(final=final, a_star=a_star, c=c, mask=m, a_steps=a_steps, trace=trace)
