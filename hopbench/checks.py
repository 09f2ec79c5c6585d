"""Correctness checks computed apart from the program.

Every check recomputes a result from first principles (generated triples,
breadth-first walks, ``np.bincount`` transfers, brute-force selection,
finite differences) and raises :class:`CheckFailed` on disagreement.  None
of them calls the hoptrace function it checks; they only read the
program's outputs and its public data structures.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

# tolerance for a transfer step recomputed in another summation order
TRANSFER_RTOL = 1e-9
TRANSFER_ATOL = 1e-12
# forward_batch promises per-example forward's numbers to this absolute tolerance
BATCH_ATOL = 1e-12
MIXTURE_RTOL = 1e-12
# central differences with step 1e-6 in float64: ~1e-10 rounding, ~1e-12 truncation
GRAD_RTOL = 1e-5
GRAD_ATOL = 1e-8
KERNEL_RTOL = 1e-12


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own reference."""


def _close(got, want, rtol, atol, what):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != reference {want.shape}")
    err = np.abs(got - want)
    bad = err > atol + rtol * np.abs(want)
    if bad.any():
        i = int(np.flatnonzero(bad.reshape(-1))[0])
        raise CheckFailed(
            f"{what}: element {i} is {got.reshape(-1)[i]!r}, reference {want.reshape(-1)[i]!r}"
        )


# ---------------------------------------------------------------------------
# inputs


def check_graph(g, triples):
    """The loaded graph's relations equal the generated triples plus their
    reverse twins.  Label form compares (head, predicate, tail) names; text
    form compares (head, tail) pairs, one sentence per triple."""
    ent = g.entities.names
    if g.form == "label":
        pred = g.predicates.names
        got = Counter(
            (ent[h], pred[p], ent[t]) for h, p, t in zip(g.edge_heads, g.edge_preds, g.edge_tails)
        )
        want = Counter()
        for h, p, t in set(triples):
            want[(h, p, t)] += 1
            want[(t, p + "_rev", h)] += 1
    else:
        got = Counter((ent[h], ent[t]) for h, t in zip(g.trel_heads, g.trel_tails))
        want = Counter()
        for h, _p, t in triples:
            want[(h, t)] += 1
            want[(t, h)] += 1
    if got != want:
        missing = list((want - got).elements())[:3]
        extra = list((got - want).elements())[:3]
        raise CheckFailed(f"graph relations differ from the triples: missing {missing}, extra {extra}")


def check_gold_answers(triples, examples):
    """Every gold answer is reachable from its topic in exactly `hop` steps
    over the triples taken in both directions.  examples: (topic, answers, hop)."""
    nbrs: dict = {}
    for h, _p, t in triples:
        nbrs.setdefault(h, set()).add(t)
        nbrs.setdefault(t, set()).add(h)
    for topic, answers, hop in examples:
        frontier = {topic}
        for _ in range(hop):
            frontier = set().union(*(nbrs.get(e, ()) for e in frontier))
        stray = set(answers) - frontier
        if not answers or stray:
            raise CheckFailed(f"{topic!r}: gold answers {sorted(stray)[:3]} not {hop} steps away")


# ---------------------------------------------------------------------------
# model outputs


def reference_transfer(heads, tails, weights, a_prev, n, aggregation):
    """out[j] = sum over edges (i -> j) of a[i] * w; with "max", parallel
    edges of one (i, j) pair contribute only their largest weight."""
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if aggregation == "sum":
        return np.bincount(tails, weights=a_prev[heads] * weights, minlength=n)
    pairs, inverse = np.unique(heads * n + tails, return_inverse=True)
    best = np.full(pairs.size, -np.inf)
    np.maximum.at(best, inverse, weights)
    return np.bincount(pairs % n, weights=a_prev[pairs // n] * best, minlength=n)


def brute_select(a_prev, tau, omega, rel_heads):
    """Relation ids whose subject scores above tau (else the argmax entity's),
    the omega best by subject score, ties to lower entity then lower id."""
    active = {e for e in range(len(a_prev)) if a_prev[e] > tau}
    if not active:
        active = {int(np.argmax(a_prev))}
    chosen = [(r, int(h)) for r, h in enumerate(rel_heads) if int(h) in active]
    chosen.sort(key=lambda rh: (-a_prev[rh[1]], rh[1], rh[0]))
    if omega is not None:
        chosen = chosen[:omega]
    return sorted(r for r, _h in chosen)


def check_transfer_steps(g, cfg, topics, steps):
    """Recompute every step of a traced forward: selection (text form),
    transfer along the scored relations, then truncation."""
    a_prev = np.zeros(g.n)
    a_prev[list(topics)] = 1.0
    for t, step in enumerate(steps, 1):
        if g.form == "label":
            w = np.asarray(step.relation_scores)[g.edge_preds]
            raw = reference_transfer(g.edge_heads, g.edge_tails, w, a_prev, g.n, cfg.aggregation)
        else:
            ids = np.asarray(step.relation_ids, dtype=np.int64)
            want = brute_select(a_prev, cfg.tau, cfg.omega, g.trel_heads)
            if sorted(ids.tolist()) != want:
                raise CheckFailed(f"step {t}: selected {ids.size} relations, brute force selects {len(want)}")
            raw = reference_transfer(
                g.trel_heads[ids], g.trel_tails[ids], step.relation_scores, a_prev, g.n, cfg.aggregation
            )
        ref = np.minimum(raw, 1.0) if cfg.use_truncation else raw
        _close(step.entity_scores, ref, TRANSFER_RTOL, TRANSFER_ATOL, f"step {t} entity scores")
        a_prev = np.asarray(step.entity_scores)


def check_hop_mixture(trace):
    """final = sum_t c_t * a_t, times the language mask when there is one."""
    mix = sum(c * np.asarray(s.entity_scores) for c, s in zip(trace.hop_distribution, trace.steps))
    if trace.mask is not None:
        mix = np.asarray(trace.mask) * mix
    _close(trace.final, mix, MIXTURE_RTOL, 0.0, "hop mixture")


def check_batch_matches_forward(batch_finals, forward_finals):
    for i, (b, f) in enumerate(zip(batch_finals, forward_finals)):
        _close(b, f, 0.0, BATCH_ATOL, f"forward_batch row {i} vs forward")
    if len(batch_finals) != len(forward_finals):
        raise CheckFailed("forward_batch returned a different number of rows")


def top_answer(scores):
    """The documented ranking rule: highest score, ties to the lowest id;
    None when every score is 0 (a degenerate ranking)."""
    scores = np.asarray(scores)
    if not np.any(scores != 0.0):
        return None
    return int(np.flatnonzero(scores == scores.max())[0])


def check_hits(finals, answer_sets, reported):
    hits = sum(top_answer(f) in answers for f, answers in zip(finals, answer_sets))
    recount = hits / len(finals)
    if abs(recount - reported) > 1e-12:
        raise CheckFailed(f"hits@1 recounted as {recount!r}, evaluate reported {reported!r}")


def check_gradients(analytic, numeric):
    """analytic and numeric: coordinate -> derivative of the loss."""
    for key, want in numeric.items():
        got = analytic[key]
        if abs(got - want) > GRAD_ATOL + GRAD_RTOL * max(abs(got), abs(want)):
            raise CheckFailed(f"gradient at {key}: backward {got!r}, finite difference {want!r}")


def check_checkpoint_roundtrip(saved, loaded, first_bytes, second_bytes):
    """Parameters read back are bit-identical and saving them again
    reproduces the file byte for byte."""
    if set(saved) != set(loaded):
        raise CheckFailed(f"checkpoint parameter names differ: {sorted(set(saved) ^ set(loaded))}")
    for name, arr in saved.items():
        back = loaded[name]
        if arr.shape != back.shape or arr.tobytes() != back.tobytes():
            raise CheckFailed(f"checkpoint block {name!r} changed in the round trip")
    if first_bytes != second_bytes:
        raise CheckFailed("re-saving a loaded checkpoint gives different bytes")


def check_answer_cli(returncode, stdout, expected_top):
    """`hoptrace answer` exits 0, prints JSON that lists answers by descending
    score, and its top answer is the in-process argmax (None: a degenerate
    ranking)."""
    if returncode != 0:
        raise CheckFailed(f"answer exited {returncode}")
    try:
        answers = json.loads(stdout)["answers"]
    except (ValueError, KeyError, TypeError) as e:
        raise CheckFailed(f"answer printed no answer list: {e}") from None
    scores = [a["score"] for a in answers]
    if any(x < y for x, y in zip(scores, scores[1:])):
        raise CheckFailed(f"answer scores are not in descending order: {scores}")
    top = answers[0]["entity"] if answers else None
    if top != expected_top:
        raise CheckFailed(f"answer's top entity is {top!r}, in-process argmax is {expected_top!r}")


def check_repeats(values, what):
    """Rounds repeat the same work, so their outputs must be identical."""
    if any(v != values[0] for v in values):
        raise CheckFailed(f"{what} differs between rounds: {values}")


# ---------------------------------------------------------------------------
# kernels


def kernel_references(name, args):
    """Reference results for one public kernel call, from np.bincount and
    a per-pair maximum."""
    if name == "push_forward":
        heads, tails, w, a, n = args
        return (np.bincount(tails, weights=a[heads] * w, minlength=n),)
    if name == "push_backward":
        heads, tails, w, a, g = args
        return (np.bincount(heads, weights=g[tails] * w, minlength=a.shape[0]), g[tails] * a[heads])
    if name == "push_batch_forward":
        heads, tails, w, a, n = args
        return (np.stack([np.bincount(tails, weights=a[b, heads] * w[b], minlength=n) for b in range(a.shape[0])]),)
    if name == "push_batch_backward":
        heads, tails, w, a, g = args
        rows = [np.bincount(heads, weights=g[b, tails] * w[b], minlength=a.shape[1]) for b in range(a.shape[0])]
        return (np.stack(rows), g[:, tails] * a[:, heads])
    if name == "push_max_forward":
        pair_heads, pair_tails, pair_ptr, w, a, n = args
        argmax = np.array(
            [lo + int(np.argmax(w[lo:hi])) for lo, hi in zip(pair_ptr[:-1], pair_ptr[1:])], dtype=np.int64
        )
        out = np.bincount(pair_tails, weights=a[pair_heads] * w[argmax], minlength=n)
        return (out, argmax)
    if name == "col_scatter_add":
        index, src, num_out = args
        return (np.stack([np.bincount(index, weights=row, minlength=num_out) for row in src]),)
    raise ValueError(f"no reference for kernel {name!r}")


def check_kernel(name, got, args):
    got = got if isinstance(got, tuple) else (got,)
    want = kernel_references(name, args)
    if len(got) != len(want):
        raise CheckFailed(f"{name}: {len(got)} outputs, reference has {len(want)}")
    for k, (x, y) in enumerate(zip(got, want)):
        _close(x, y, KERNEL_RTOL, 1e-15, f"kernel {name} output {k}")
