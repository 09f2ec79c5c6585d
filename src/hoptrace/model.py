"""The multi-hop reasoner.

A forward pass starts from a one-hot entity score vector at the topic,
then for each of T steps: attend over question tokens to build a step
query, score relations with it (a predicate head in label form, a
sigmoid per unique relation text in text form), push scores across
the scored edges, and truncate back into [0,1].  A hop-mixture head blends
the per-step score vectors and, on text graphs, a question-conditioned mask
gates the result.  The attention reads the question alone, so
step_attention runs it for all T steps before the transfer loop, as batched
products over a (B, T, .) stack.

There is one implementation, _reason, and it always runs a batch: each step
scores every row against every relation kind (predicate or text) in one
(B, kinds) matrix and makes one transfer, transfer_batch, pushed as a
disjoint union of the B rows, in every graph form and aggregation.  The
transfer, truncation included, is one graph node: for its vjp it keeps the
listed relations' arrays, the positions truncation cut and their raw
scores, and no dense pre-truncation copy of the scores.  Label
form pushes the edges leaving the frontier (the entities a row scores
nonzero), text form the relations selected per row.  Both are listed by
one CSR expansion over the graph's head-sorted storage, so the parallel
relations of each (head, tail) pair come out side by side and max
aggregation reads the pair boundaries off the graph's per-relation flags,
with no sort.  forward_batch() runs it for training and evaluation;
forward() runs it on a batch of one question and records every
intermediate in a ReasoningTrace.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor
from .encoder import BatchQuestionEncoding, EncoderParams, _uniform, encode_question, encode_question_batch
from .errors import GraphError
from .graph import RelationGraph
from .trace import ReasoningTrace, StepTrace


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


class ModelParams:
    """Every trainable tensor, addressable by name for the optimizer,
    gradient checking, and checkpoints.  The initial values are drawn from
    a generator seeded with cfg.seed; fill=False leaves the drawn tensors
    unfilled instead, for load_checkpoint, which overwrites every one.

    The T step query projections are one (d, T*d) matrix step_w and one
    (T*d,) bias step_b: step t (1-based) owns columns (t-1)*d .. t*d - 1 of
    both.  Their initial values are drawn one (d, d) step at a time."""

    def __init__(self, vocab_size: int, n: int, num_predicates: int, cfg, fill: bool = True):
        self.vocab_size = vocab_size
        self.n = n
        self.num_predicates = num_predicates
        self.T = cfg.T
        self.d = cfg.d
        self.form = cfg.form
        self.head = cfg.head
        d, T = cfg.d, cfg.T
        s = 1.0 / np.sqrt(d)
        rng = np.random.default_rng(cfg.seed) if fill else None
        self.q_enc = EncoderParams(vocab_size, d, rng, "q_enc")
        steps = _uniform(rng, (T, d, d), s).data  # drawn step by step
        self.step_w = Tensor(steps.transpose(1, 0, 2).reshape(d, T * d), requires_grad=True)
        self.step_b = _zeros(T * d)
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
        for group in ("step", "hop", "pred", "text", "mask"):
            for leaf in ("w", "b"):
                key = f"{group}_{leaf}"
                if hasattr(self, key):
                    out[f"{group}.{leaf}"] = getattr(self, key)
        if hasattr(self, "r_enc"):
            out.update(self.r_enc.named())
        return out


def step_attention(enc: BatchQuestionEncoding, params: ModelParams) -> tuple[Tensor, Tensor]:
    """Every step's attention over the question tokens, (B, T, L) and 0 on
    pads, and the step vectors it pools from the token states, (B, T, d).

    Step t's query tanh(q W_t + b_t) depends on the question alone, not on
    the entity scores, so all T attentions run before the transfers: one
    product with the stacked step_w gives every step's query, one batched
    product the logits and one the step vectors.
    """
    B, L = enc.alive.shape
    queries = ad.reshape(ad.tanh(enc.q @ params.step_w + params.step_b), (B, params.T, params.d))
    pad_penalty = ((enc.alive - 1.0) * 1e9).reshape(B, 1, L)  # 0 on real tokens, -1e9 on pads
    att = ad.softmax(queries @ ad.transpose(enc.h, (0, 2, 1)) + pad_penalty)
    return att, att @ enc.h


def label_relation_scores(q_t: Tensor, params: ModelParams) -> Tensor:
    """Score every predicate against the step query with params.head:
    softmax gives a distribution, sigmoid scores predicates independently."""
    logits = q_t @ params.pred_w + params.pred_b
    if params.head == "softmax":
        return ad.softmax(logits)
    if params.head == "sigmoid":
        return ad.sigmoid(logits)
    raise ValueError(f"unknown relation head {params.head!r}")


def text_relation_scores(q_t: Tensor, table: Tensor, params: ModelParams) -> Tensor:
    """Every row's sigmoid score for every unique relation text, (B, X),
    from the (B, d) step queries and the (X, d) text encoding table.  A
    relation r scores sigmoid((r * q) . w + b) = sigmoid(q . (r * w) + b),
    which depends on its row and text alone: table * text_w plays the part
    of label form's predicate weights."""
    return ad.sigmoid(q_t @ ad.transpose(table * params.text_w, (1, 0)) + params.text_b)


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


def transfer_batch(
    g: RelationGraph,
    a_prev: Tensor,
    rel_ids: np.ndarray,
    rows: np.ndarray,
    scores: Tensor,
    aggregation: str = "sum",
    truncation: bool = False,
) -> Tensor:
    """One transfer for a whole batch, in every graph form, as one graph
    node with parents (a_prev, scores): a_prev is (B, n), scores is
    (B, kinds), and the listed relation rel_ids[k] pushes row rows[k] with
    that row's score for its kind, a label edge's predicate or a text
    relation's text id.  Relations not listed for a row carry score 0
    there; the n x n score matrix is never materialized.  The weights are
    one gather from scores by flat key row * kinds + kind, and the vjp
    adds their gradients back in that order with one kernels._scatter;
    numpy's (rows, kinds) fancy index reads the same entries at about 1.7x
    the cost.

    sum: parallel relations between a pair add up (the default).
    max: parallel relations contribute only their maximum weight, the first
    listed on a tie, and the gradient flows to that relation alone.  Where
    no listed pair has parallel relations, max is pushed as sum.

    With truncation, scores above 1 are cut back to 1 in place, as
    a / max(a, 1) would be for finite scores (a / a is exactly 1.0); NaN
    passes through.  The divisor is held constant when differentiating, so
    the slope through a truncated score is 1/a rather than 0: the vjp
    divides the upstream gradient by the raw score at those positions alone,
    the same bits as g / fmax(raw, 1) over the whole batch.

    For its vjp the node keeps the listed relations' offset heads and tails,
    their weights and gather keys (and, for max, each pair's argmax), and
    the flat positions that truncation cut with their raw scores; it keeps
    no dense pre-truncation copy of the output.

    The relations must be listed row by row in storage order, as
    g.frontier_edge_ids and g.select_text_relation_ids list them: the
    parallel relations of a (head, tail) pair then come out side by side,
    lowest kind first, and max aggregation reads the pair boundaries off
    g.pair_start or g.trel_pair_start, with no sort; a tie goes to the
    lowest kind.  Label form lists only the frontier, so the gradient
    w.r.t. a_prev is returned only on a_prev's nonzero entries, as for a
    sparse tensor; parameter gradients do not change, since a dropped entry
    could feed only a relation scoring exactly 0.
    """
    B, n = a_prev.data.shape
    kinds = scores.data.shape[1]
    if g.form == "label":
        heads, tails, kind, pair_start = g.edge_heads, g.edge_tails, g.edge_preds, g.pair_start
    else:
        heads, tails, kind, pair_start = g.trel_heads, g.trel_tails, g.trel_text, g.trel_pair_start
    off = rows * n
    heads, tails = heads[rel_ids] + off, tails[rel_ids] + off
    key = rows * kinds + kind[rel_ids]
    w = scores.data.reshape(B * kinds)[key]
    a = a_prev.data.reshape(B * n)
    if aggregation == "sum" or (aggregation == "max" and pair_start[rel_ids].all()):
        out = kernels.push_forward(heads, tails, w, a, B * n)

        def push_vjp(g_out):
            return kernels.push_backward(heads, tails, w, a, g_out)

    elif aggregation == "max":
        new = np.flatnonzero(pair_start[rel_ids])  # the listing's first relation of each pair
        heads, tails = heads[new], tails[new]
        out, argmax = kernels.push_max_forward(heads, tails, np.append(new, rel_ids.size), w, a, B * n)

        def push_vjp(g_out):
            return kernels.push_max_backward(heads, tails, argmax, w, a, g_out)

    else:
        raise ValueError(f"unknown aggregation {aggregation!r}")
    over = np.flatnonzero(out > 1.0) if truncation else np.zeros(0, np.int64)
    raw = out[over]
    out[over] = 1.0

    def vjp(g_out):
        g_out = g_out.reshape(B * n)
        if over.size:
            g_out = g_out.copy()  # the upstream array may be another node's gradient too
            g_out[over] /= raw
        grad_a, grad_w = push_vjp(g_out)
        return grad_a.reshape(B, n), kernels._scatter(key, grad_w, B * kinds).reshape(B, kinds)

    return ad.node(out.reshape(B, n), (a_prev, scores), vjp)


def hop_mixture(c: Tensor, steps: list[Tensor]) -> Tensor:
    """sum_t c[:, t] * steps[t] for a (B, T) hop distribution c and T (B, n)
    step scores, as one node.  The terms are added in step order, and the
    gradients are the products and row sums that a chain of elementwise
    nodes would compute, so the bits are the same as that chain's."""
    out = c.data[:, :1] * steps[0].data
    for t in range(1, len(steps)):
        out += c.data[:, t : t + 1] * steps[t].data

    def vjp(g):
        grad_c = np.zeros_like(c.data)
        for t, a_t in enumerate(steps):
            grad_c[:, t] += (g * a_t.data).sum(axis=1)
        return (grad_c, *(g * c.data[:, t : t + 1] for t in range(len(steps))))

    return ad.node(out, (c, *steps), vjp)


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
    attention: np.ndarray  # (B, L) over question tokens, 0 on pads
    relation_ids: np.ndarray | None  # text forms: every row's selected relations, concatenated
    relation_scores: Tensor  # (B, kinds): per predicate in label form, per unique text otherwise
    a_t: Tensor  # (B, n) entity scores after the step


class _Pass(NamedTuple):
    steps: list[_Step]
    c: Tensor  # (B, T) hop distribution
    mask: Tensor | None  # (B, n) language mask, text forms only
    final: Tensor  # (B, n) answer scores


def _reason(
    g: RelationGraph, enc: BatchQuestionEncoding, topic_lists: list, params: ModelParams, cfg, cache
) -> _Pass:
    """The reasoning pass over a batch of encoded questions.

    Everything runs once for the batch: the step attention and score heads,
    one transfer per step over the (B, n) score matrix, the hop mixture and
    the mask.  Text relations are selected for the whole batch in one call
    (tau/omega and their tie-breaking are per question), scored in one call
    and pushed together as a disjoint union, so a row's numbers do not
    depend on the other rows and the tape does not grow with B.
    """
    text_form = g.form != "label"
    if params.form != g.form:
        raise GraphError(f"model built for {params.form!r} graphs, got {g.form!r}")
    if (params.n, params.num_predicates) != (g.n, g.num_predicates):
        raise GraphError(
            f"model built for a graph of {params.n} entities and {params.num_predicates} predicates,"
            f" got one of {g.n} entities and {g.num_predicates} predicates"
        )
    if text_form and cache is None:
        raise GraphError("text-form forward needs a relation encoding cache")
    n, B = g.n, enc.alive.shape[0]

    # one entity or several per row; an ndarray, 0-d included, goes by its ndim
    per_row = [t if getattr(t, "ndim", hasattr(t, "__len__")) else (t,) for t in topic_lists]
    ids = np.fromiter(chain.from_iterable(per_row), np.int64)
    bad = ids[(ids < 0) | (ids >= n)]
    if bad.size:
        raise GraphError(f"topic entity id {bad[0]} out of range [0, {n})")
    a0 = np.zeros((B, n))
    a0[np.repeat(np.arange(B), [len(t) for t in per_row]), ids] = 1.0

    att, q = step_attention(enc, params)
    table = cache.table() if text_form else None
    a_prev = Tensor(a0)
    steps = []
    for t in range(params.T):
        q_t = q[:, t]
        if text_form:
            rel_ids, rows = g.select_text_relation_ids(a_prev.data, cfg.tau, cfg.omega)
            scores = text_relation_scores(q_t, table, params)
        else:
            rel_ids, rows = g.frontier_edge_ids(a_prev.data)
            scores = label_relation_scores(q_t, params)
        a_t = transfer_batch(g, a_prev, rel_ids, rows, scores, cfg.aggregation, cfg.use_truncation)
        steps.append(_Step(att.data[:, t], rel_ids if text_form else None, scores, a_t))
        a_prev = a_t

    c = ad.softmax(enc.q @ params.hop_w + params.hop_b)  # (B, T)
    a_star = hop_mixture(c, [step.a_t for step in steps])
    mask = ad.sigmoid(enc.q @ params.mask_w + params.mask_b) if text_form and cfg.use_mask else None
    final = a_star if mask is None else mask * a_star
    return _Pass(steps, c, mask, final)


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
                    attention=s.attention[0],
                    relation_ids=s.relation_ids,
                    # one score per predicate in label form, per selected relation otherwise
                    relation_scores=s.relation_scores.data[0]
                    if s.relation_ids is None
                    else s.relation_scores.data[0, g.trel_text[s.relation_ids]],
                    entity_scores=s.a_t.data[0],
                )
                for s in run.steps
            ],
            hop_distribution=run.c.data[0],
            mask=None if run.mask is None else run.mask.data[0],
            final=final.data,
            ranked=ranked,
            degenerate=degenerate,
        )
    return ForwardResult(final=final, c=run.c[0], trace=trace)
