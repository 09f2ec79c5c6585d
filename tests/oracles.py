"""Independent reference implementations used as test oracles.

Everything here is deliberately naive — dense matrices, python loops,
brute-force scans — so that agreement with the optimized code under test
is meaningful.  Nothing in this module imports from hoptrace except its
autodiff primitives, which gradient checking and the composed-primitive
BiGRU reference are built from, the question record the reference
loader builds, and the errors the references raise.
"""

import logging
import re
from pathlib import Path

import numpy as np

import hoptrace.autodiff as ad
from hoptrace.data import QAExample
from hoptrace.errors import DataError, GraphError


def finite_difference(f, x, step=1e-5):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up = float(f(x))
        flat[i] = keep - step
        down = float(f(x))
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * step)
    return g


def gradcheck(f, tensors, step=1e-5, tol=1e-4, skip_below=1e-8):
    """Compare analytic gradients of scalar-valued f against central
    differences for every tensor in `tensors`.

    Returns the worst relative error seen.  Entries where both the
    numeric and analytic gradients are below `skip_below` in combined
    magnitude are skipped (relative error is meaningless at zero).
    """
    out = f()
    out.backward()
    worst = 0.0
    for t in tensors:
        assert t.grad is not None, "no gradient reached a checked tensor"
        analytic = t.grad.copy()
        numeric = finite_difference(lambda _x, _t=t: f().data, t.data, step)
        denom = np.abs(analytic) + np.abs(numeric)
        mask = denom >= skip_below
        if not mask.any():
            continue
        rel = np.abs(analytic - numeric)[mask] / denom[mask]
        worst = max(worst, float(rel.max()))
    assert worst <= tol, f"gradient mismatch: worst rel err {worst:.3e} > {tol}"
    return worst


def sum_axis(a, axis):
    """a summed over one axis, on the tape: the reduction the composed
    references below are built from, where the package uses products."""
    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(),)

    return ad.node(a.data.sum(axis=axis), (a,), vjp)


def concat(tensors, axis):
    """np.concatenate on the tape; its vjp splits the gradient back into
    the parts.  The package never concatenates on the tape: its weights are
    stored as its products read them."""
    out = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return ad.node(out, tuple(tensors), lambda g: tuple(np.split(g, splits, axis=axis)))


def dense_predicate_matrices(n, heads, preds, tails, num_predicates):
    """One dense n×n adjacency per predicate; M[p][h, t] = 1."""
    mats = [np.zeros((n, n)) for _ in range(num_predicates)]
    for h, p, t in zip(heads, preds, tails):
        mats[p][h, t] = 1.0
    return mats


def dense_label_transfer(n, heads, preds, tails, num_predicates, a, p_scores):
    """Reference for one label-form transfer: sum_p p_scores[p] * (a @ M_p)."""
    mats = dense_predicate_matrices(n, heads, preds, tails, num_predicates)
    out = np.zeros(n)
    for k, m in enumerate(mats):
        out += p_scores[k] * (a @ m)
    return out


def dense_text_transfer(n, rel_heads, rel_tails, scores, a, aggregation="sum"):
    """Reference for one text-form transfer over an explicit relation list.

    `aggregation` mirrors the sum/max switch: with "max", parallel
    relations between the same (head, tail) pair contribute only their
    strongest score instead of adding up.
    """
    out = np.zeros(n)
    if aggregation == "sum":
        for h, t, s in zip(rel_heads, rel_tails, scores):
            out[t] += a[h] * s
        return out
    best = {}
    for h, t, s in zip(rel_heads, rel_tails, scores):
        key = (int(h), int(t))
        best[key] = max(best.get(key, 0.0), a[h] * s)
    for (h, t), v in best.items():
        out[t] += v
    return out


def text_scores_per_relation(enc, q, texts, rows, w, b):
    """The paper's text relation score, one relation at a time: relation k,
    of text texts[k] in batch row rows[k], scores
    sigmoid((enc[texts[k]] * q[rows[k]]) @ w + b) for the (X, d) text
    encodings enc, (B, d) step queries q and the head's (d,) w and scalar b."""
    out = np.empty(len(texts))
    for k, (x, r) in enumerate(zip(texts, rows)):
        out[k] = 1.0 / (1.0 + np.exp(-((enc[x] * q[r]) @ w + b)))
    return out


# -- transfer kernels ------------------------------------------------------------
# One naive version of each op in hoptrace.kernels, under the same name and
# signature: np.add.at scatters and a per-pair loop.  np.add.at adds in index
# order, as np.bincount does, so the kernels must match these bit for bit.


def push_forward(heads, tails, w, a, n):
    out = np.zeros(n)
    np.add.at(out, tails, a[heads] * w)
    return out


def push_backward(heads, tails, w, a, g):
    grad_a = np.zeros(a.shape[0])
    g_tail = g[tails]
    np.add.at(grad_a, heads, g_tail * w)
    return grad_a, g_tail * a[heads]


def push_batch_forward(heads, tails, w, a, n):
    out = np.zeros((a.shape[0], n))
    np.add.at(out, (np.arange(a.shape[0])[:, None], tails[None, :]), a[:, heads] * w)
    return out


def push_batch_backward(heads, tails, w, a, g):
    grad_a = np.zeros_like(a)
    g_tail = g[:, tails]
    np.add.at(grad_a, (np.arange(a.shape[0])[:, None], heads[None, :]), g_tail * w)
    return grad_a, g_tail * a[:, heads]


def push_max_forward(pair_heads, pair_tails, pair_ptr, w, a, n):
    """Scan each pair's edges; a later edge wins only if strictly heavier."""
    out = np.zeros(n)
    argmax = np.zeros(pair_heads.shape[0], dtype=np.int64)
    for p in range(pair_heads.shape[0]):
        lo, hi = pair_ptr[p], pair_ptr[p + 1]
        best = lo
        for e in range(lo + 1, hi):
            if w[e] > w[best]:
                best = e
        argmax[p] = best
        out[pair_tails[p]] += a[pair_heads[p]] * w[best]
    return out, argmax


def push_max_backward(pair_heads, pair_tails, argmax, w, a, g):
    grad_a = np.zeros(a.shape[0])
    grad_w = np.zeros(w.shape[0])
    g_tail = g[pair_tails]
    np.add.at(grad_a, pair_heads, g_tail * w[argmax])
    np.add.at(grad_w, argmax, g_tail * a[pair_heads])
    return grad_a, grad_w


def transfer_composed(g, a_prev, rel_ids, rows, scores, aggregation):
    """model.transfer_batch without truncation, as the chain of autodiff
    nodes it once was, over the push oracles above: a gather of the listed
    weights by flat key row * kinds + kind, a push of the flat (B*n,)
    scores as a disjoint union of the rows, and reshapes around them.  Max
    groups the listing by its own sort on (head, tail, listed position), so
    a tie goes to the relation listed first."""
    B, n = a_prev.shape
    kinds = scores.shape[1]
    if g.form == "label":
        heads, tails, kind = g.edge_heads, g.edge_tails, g.edge_preds
    else:
        heads, tails, kind = g.trel_heads, g.trel_tails, g.trel_text
    heads, tails = heads[rel_ids] + rows * n, tails[rel_ids] + rows * n
    w = ad.take(ad.reshape(scores, (B * kinds,)), rows * kinds + kind[rel_ids])
    a = ad.reshape(a_prev, (B * n,))
    if aggregation == "sum":
        out = push_forward(heads, tails, w.data, a.data, B * n)

        def vjp(g_out):
            return push_backward(heads, tails, w.data, a.data, g_out)

    else:
        order = np.lexsort((np.arange(heads.size), tails, heads))
        h, t = heads[order], tails[order]
        starts = np.flatnonzero((np.diff(h, prepend=-1) != 0) | (np.diff(t, prepend=-1) != 0))
        ph, pt, w_sorted = h[starts], t[starts], w.data[order]
        out, argmax = push_max_forward(ph, pt, np.append(starts, h.size), w_sorted, a.data, B * n)

        def vjp(g_out):
            grad_a, grad_sorted = push_max_backward(ph, pt, argmax, w_sorted, a.data, g_out)
            grad_w = np.zeros(heads.size)
            grad_w[order] = grad_sorted
            return grad_a, grad_w

    return ad.reshape(ad.node(out, (a, w), vjp), (B, n))


def col_scatter_add(index, src, num_out):
    out = np.zeros((src.shape[0], num_out))
    np.add.at(out, (np.arange(src.shape[0])[:, None], index[None, :]), src)
    return out


def take_grad(shape, key, g):
    """Adjoint of a[key] for an integer-array key: each g entry added into
    zeros at its position, in the gather's order."""
    full = np.zeros(shape)
    np.add.at(full, key, g)
    return full


# -- loss ------------------------------------------------------------------------


def loss_reference(final, y, c, gold_hop, aux_weight):
    """One example's training loss, ||final - y||_2 plus aux_weight x
    -log c[gold_hop - 1] (no hop term when gold_hop is None), with its
    gradients (d/dfinal, d/dc); the norm's gradient is 0 at distance 0."""
    diff = [float(f) - float(t) for f, t in zip(final, y)]
    norm = sum(d * d for d in diff) ** 0.5
    d_final = np.array([d / norm if norm > 0.0 else 0.0 for d in diff])
    d_c = np.zeros(len(c))
    value = norm
    if gold_hop is not None:
        value += aux_weight * -np.log(c[gold_hop - 1])
        d_c[gold_hop - 1] = -aux_weight / c[gold_hop - 1]
    return value, d_final, d_c


# -- encoder ---------------------------------------------------------------------


def _gru_step(x_proj, h, w_h, b, d):
    """One GRU step on (d,) vectors; gates stacked as (reset, update, candidate)."""
    gh = h @ w_h
    pre = x_proj + b
    r = 1.0 / (1.0 + np.exp(-(pre[:d] + gh[:d])))
    z = 1.0 / (1.0 + np.exp(-(pre[d : 2 * d] + gh[d : 2 * d])))
    cand = np.tanh(pre[2 * d :] + r * gh[2 * d :])
    return z * h + (1.0 - z) * cand


def bigru_reference(p, token_ids):
    """Reference for the question and relation encoders: one sequence, no
    padding and no mask, numpy arrays only.  p is an EncoderParams (only
    its arrays are read; index 0 of its stacked GRU weights is the forward
    direction).  Returns (pooled (d,), per-token states (L, d))."""
    d = p.d
    xs = p.emb.data[np.asarray(token_ids)]
    (w_xf, w_xb), (w_hf, w_hb), (b_f, b_b) = p.w_x.data, p.w_h.data, p.b.data
    fwd, h = [], np.zeros(d)
    for x in xs:
        h = _gru_step(x @ w_xf, h, w_hf, b_f, d)
        fwd.append(h)
    bwd, h = [], np.zeros(d)
    for x in xs[::-1]:
        h = _gru_step(x @ w_xb, h, w_hb, b_b, d)
        bwd.append(h)
    bwd.reverse()
    w_out, b_out = p.w_out.data, p.b_out.data
    per_token = np.concatenate([np.stack(fwd), np.stack(bwd)], axis=1) @ w_out + b_out
    pooled = np.concatenate([fwd[-1], bwd[0]]) @ w_out + b_out
    return pooled, per_token


def gru_direction_tape(gx, w_h, b, alive, reverse):
    """Reference for one direction of the masked BiGRU, built on the tape one
    step at a time from autodiff primitives (take, matmul, sigmoid, tanh,
    mul, add, and the test-local concat).  gx is the (K, L, 3d) padded
    input projection, w_h and b the direction's (d, 3d) and (3d,) weights
    and alive the (K, L) 0/1 mask; at a pad position a row keeps its state,
    but outputs 0.
    Returns the (K, L, d) state after each position, the half of
    hoptrace.encoder._packed_bigru's output for this direction; gradients
    come from the tape walk, not from hand-written backprop."""
    K, L, d3 = gx.shape
    d = d3 // 3

    def gate(x, k):
        return ad.take(x, (slice(None), slice(k * d, (k + 1) * d)))

    h = ad.Tensor(np.zeros((K, d)))
    states = [None] * L
    for i in range(L - 1, -1, -1) if reverse else range(L):
        m = alive[:, i : i + 1]
        pre = ad.take(gx, (slice(None), i)) + b
        gh = h @ w_h
        r = ad.sigmoid(gate(pre, 0) + gate(gh, 0))
        z = ad.sigmoid(gate(pre, 1) + gate(gh, 1))
        cand = ad.tanh(gate(pre, 2) + r * gate(gh, 2))
        nh = z * h + (-z + 1.0) * cand
        h = ad.Tensor(m) * nh + ad.Tensor(1.0 - m) * h
        states[i] = ad.reshape(ad.Tensor(m) * h, (K, 1, d))
    return concat(states, axis=1)


def step_attention_composed(enc, params):
    """Reference for model.step_attention: one step at a time, each from a
    (B, L, d) broadcast product summed over d for the logits and a (B, L, d)
    product summed over L for the step vector, built on the tape from
    autodiff primitives, with step t's weights sliced from its columns of
    the stacked step_w and step_b.  Returns T (attention (B, L), step vector
    (B, d)) pairs."""
    B, L = enc.alive.shape
    d = params.d
    pad_penalty = ad.Tensor((enc.alive - 1.0) * 1e9)
    steps = []
    for t in range(params.T):
        cols = slice(t * d, (t + 1) * d)
        qk = ad.tanh(enc.q @ params.step_w[:, cols] + params.step_b[cols])
        att = ad.softmax(sum_axis(enc.h * ad.reshape(qk, (B, 1, d)), 2) + pad_penalty)
        steps.append((att, sum_axis(ad.reshape(att, (B, L, 1)) * enc.h, 1)))
    return steps


def truncate_reference(a):
    out = a.copy()
    out[out > 1.0] = 1.0
    return out


def truncate_composed(a):
    """Truncation as a divide: a / z with z = a above 1 and 1 elsewhere,
    z held constant by the vjp."""
    z = np.where(a.data > 1.0, a.data, 1.0)
    return ad.node(a.data / z, (a,), lambda g: (g / z,))


def hop_mixture_composed(c, steps):
    """sum_t c[:, t] * steps[t] as a chain of take, reshape, mul and add
    nodes, added in step order."""
    B = c.shape[0]
    out = None
    for t, a_t in enumerate(steps):
        term = ad.reshape(ad.take(c, (slice(None), t)), (B, 1)) * a_t
        out = term if out is None else out + term
    return out


def bfs_answers(triples, topic, hops):
    """Entities reachable from `topic` in exactly `hops` steps following
    (head, tail) pairs of the given triples.  Pure python BFS."""
    frontier = {topic}
    for _ in range(hops):
        nxt = set()
        for h, _p, t in triples:
            if h in frontier:
                nxt.add(t)
        frontier = nxt
    return frontier


def path_answers_reference(triples, topic, path):
    """Entities reached from `topic` along the predicate path, over the
    triples and their reverses (predicate + "_rev"), one scan of every
    triple per hop.  Pure python."""
    aug = list(triples) + [(t, p + "_rev", h) for h, p, t in triples]
    frontier = {topic}
    for pred in path:
        frontier = {t for h, p, t in aug if p == pred and h in frontier}
    return frontier


def build_from_triples_reference(triples):
    """graph.build_from_triples as the per-row loop it once was: (entity
    names, predicate names, (head, pred, tail) id rows).  Each row numbers
    its head, predicate and tail in first-seen order, and a row seen before
    adds no edge; a malformed row is a GraphError naming its index."""
    entities, predicates, edges, seen = {}, {}, [], set()
    for i, row in enumerate(triples):
        try:
            h, p, t = () if isinstance(row, str) else row  # a string's characters are not fields
        except (TypeError, ValueError):
            raise GraphError(f"triple row {i}: expected 3 fields, got {row!r}") from None
        if not (h and p and t) or not all(isinstance(x, str) for x in (h, p, t)):
            raise GraphError(f"triple row {i}: names must be non-empty strings, got {row!r}")
        ids = (entities.setdefault(h, len(entities)), predicates.setdefault(p, len(predicates)),
               entities.setdefault(t, len(entities)))
        if (h, p, t) not in seen:
            seen.add((h, p, t))
            edges.append(ids)
    return list(entities), list(predicates), edges


def eager_units(forms, pools, reach, hop, ambiguous=(), pairs=()):
    """Every answerable unit of one hop as one list, built up front: a
    single-question unit [(phrasing, topic, path, hop)] per (path, kind,
    phrasings) form, topic of the kind's pool in reach(path) and phrasing,
    in that order; then, for each movie in `ambiguous` that reaches both
    release_year and in_language, one two-question unit per (when, where)
    phrasing pair of `pairs`."""
    units = []
    for path, kind, phrasings in forms:
        units += [[(phr, topic, path, hop)] for topic in pools[kind] if topic in reach(path) for phr in phrasings]
    when, where = ("release_year",), ("in_language",)
    pairs = list(pairs)
    units += [
        [(qw, topic, when, hop), (ql, topic, where, hop)]
        for topic in pools.get("movie", ())
        if topic in ambiguous and topic in reach(when) and topic in reach(where)
        for qw, ql in pairs
    ]
    return units


def brute_select(a, tau, omega, rel_heads, rel_ids=None):
    """Reference for sparse text-relation selection.

    Relations whose subject entity scores above tau, capped at the omega
    highest subject scores; ties broken by lower entity id then lower
    relation id.  Falls back to the argmax entity when nothing clears tau.
    """
    if rel_ids is None:
        rel_ids = list(range(len(rel_heads)))
    active = [e for e in range(len(a)) if a[e] > tau]
    if not active:
        active = [int(np.argmax(a))]
    chosen = [(r, h) for r, h in zip(rel_ids, rel_heads) if h in set(active)]
    chosen.sort(key=lambda rh: (-a[rh[1]], rh[1], rh[0]))
    if omega is not None:
        chosen = chosen[:omega]
    return sorted(r for r, _h in chosen)


def load_questions_reference(path):
    """Question-file parse with a set and a sort per answer field and
    records built by keyword.  A line has 2 fields, or 3 with the hop count
    last; a line whose fields name no topic or no answer is skipped with the
    same warning as the program's, and a hop field that is not ASCII digits
    of a value at least 1 raises a DataError naming its line."""
    path = Path(path)
    out = []
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            m = re.search(r"\[([^\]]+)\]", parts[0]) if len(parts) in (2, 3) else None
            answers = set(parts[1].split("|")) - {""} if m else set()
            if not answers:
                logging.getLogger("hoptrace").warning("%s:%d: malformed question line skipped", path, i)
                continue
            hop = None
            if len(parts) == 3:
                if not re.fullmatch(r"[0-9]+", parts[2]) or int(parts[2]) < 1:
                    raise DataError(f"{path}:{i}: bad hop field {parts[2]!r}")
                hop = int(parts[2])
            out.append(QAExample(question=parts[0], topic=m.group(1), answers=tuple(sorted(answers)), hop=hop))
    return out
