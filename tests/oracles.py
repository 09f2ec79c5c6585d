"""Independent reference implementations used as test oracles.

Everything here is deliberately naive — dense matrices, python loops,
brute-force scans — so that agreement with the optimized code under test
is meaningful.  Nothing in this module imports from hoptrace except its
autodiff primitives, which gradient checking and the composed-primitive
BiGRU reference are built from.
"""

import numpy as np

import hoptrace.autodiff as ad


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
    its arrays are read).  Returns (pooled (d,), per-token states (L, d))."""
    d = p.d
    xs = p.emb.data[np.asarray(token_ids)]
    fwd, h = [], np.zeros(d)
    for x in xs:
        h = _gru_step(x @ p.w_xf.data, h, p.w_hf.data, p.b_f.data, d)
        fwd.append(h)
    bwd, h = [], np.zeros(d)
    for x in xs[::-1]:
        h = _gru_step(x @ p.w_xb.data, h, p.w_hb.data, p.b_b.data, d)
        bwd.append(h)
    bwd.reverse()
    w_out, b_out = p.w_out.data, p.b_out.data
    per_token = np.concatenate([np.stack(fwd), np.stack(bwd)], axis=1) @ w_out + b_out
    pooled = np.concatenate([fwd[-1], bwd[0]]) @ w_out + b_out
    return pooled, per_token


def gru_direction_tape(gx, w_h, b, alive, reverse):
    """Reference for one direction of the masked BiGRU, built on the tape one
    step at a time from autodiff primitives (take, matmul, sigmoid, tanh,
    mul, add).  Same arguments and result as hoptrace.encoder._gru_direction;
    gradients come from the tape walk, not from hand-written backprop."""
    K, L, d3 = gx.shape
    d = d3 // 3

    def gate(x, k):
        return ad.take(x, (slice(None), slice(k * d, (k + 1) * d)))

    h = ad.Tensor(np.zeros((K, d)))
    states = [None] * L
    for i in range(L - 1, -1, -1) if reverse else range(L):
        m = ad.Tensor(alive[:, i : i + 1])
        pre = ad.take(gx, (slice(None), i)) + b
        gh = h @ w_h
        r = ad.sigmoid(gate(pre, 0) + gate(gh, 0))
        z = ad.sigmoid(gate(pre, 1) + gate(gh, 1))
        cand = ad.tanh(gate(pre, 2) + r * gate(gh, 2))
        nh = z * h + (1.0 - z) * cand
        h = m * nh + (1.0 - m) * h
        states[i] = ad.reshape(h, (K, 1, d))
    return ad.concat(states, axis=1)


def truncate_reference(a):
    out = a.copy()
    out[out > 1.0] = 1.0
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
