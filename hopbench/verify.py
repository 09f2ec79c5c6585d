"""Collect the program's outputs after the timed rounds and run every check
of :mod:`checks` on them.  Nothing here is timed."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np

import checks
from hoptrace import autodiff, encoder, kernels, model, training
from hoptrace.config import TrainConfig
from workloads import relation_cache

FD_STEP = 1e-6
FD_EXAMPLES = 4
FD_COORDINATES = 8
TRACED_FORWARDS = 4
HITS_SAMPLE = 64


def _gold_answers(w, p, params, rounds):
    examples = [(ex.topic, ex.answers, ex.hop) for ex in p.train_examples + p.dev_examples]
    checks.check_gold_answers(p.dataset.triples, examples)


def _model_outputs(w, p, params, rounds):
    """Traced forwards step by step, their hop mixture, forward_batch against
    them, and evaluate's hits@1 against a recount."""
    cache = relation_cache(p, params)
    sample = p.dev_prep[:HITS_SAMPLE]
    with autodiff.no_grad():
        rows = model.forward_batch(
            p.g, [e.tokens for e in sample], [e.topic for e in sample], params, p.cfg, cache=cache
        )
        reported = training.evaluate(p.g, params, sample, p.cfg, cache=cache)["overall"]
        traced = [
            model.forward(p.g, e.tokens, e.topic, params, p.cfg, cache=cache, question=e.uid)
            for e in sample[:TRACED_FORWARDS]
        ]
    finals = [r.final.data for r in rows]
    for res, ex in zip(traced, sample):
        checks.check_transfer_steps(p.g, p.cfg, [ex.topic], res.trace.steps)
        checks.check_hop_mixture(res.trace)
    checks.check_batch_matches_forward(finals[:TRACED_FORWARDS], [r.final.data for r in traced])
    checks.check_hits(finals, [e.answers for e in sample], reported)


def _gradients(w, p, params, rounds):
    """Central differences on the coordinates with the largest gradient in a
    seeded choice of parameter tensors, with truncation off (its backward is
    deliberately not its derivative)."""
    cfg = replace(p.cfg, use_truncation=False)
    batch = training.prepare_examples(p.train_examples[:FD_EXAMPLES], p.vocab)
    named = params.named()
    cache = relation_cache(p, params)

    def loss():
        if cache is not None:
            cache.invalidate()
        results = model.forward_batch(
            p.g, [e.tokens for e in batch], [e.topic for e in batch], params, cfg, cache=cache
        )
        total = None
        for ex, res in zip(batch, results):
            y = training.build_target(ex.answers, p.g.n)
            lb = training.compute_loss(res.final, y, res.c, ex.gold_hop, cfg.use_aux_hop_loss)
            total = lb.total if total is None else total + lb.total
        return total

    for t in named.values():
        t.grad = None
    loss().backward()
    with_grad = sorted(k for k, t in named.items() if t.grad is not None and np.any(t.grad))
    rng = np.random.default_rng(p.cfg.seed)
    picked = rng.choice(with_grad, size=min(FD_COORDINATES, len(with_grad)), replace=False)
    analytic, numeric = {}, {}
    for name in picked:
        t = named[name]
        idx = np.unravel_index(int(np.argmax(np.abs(t.grad))), t.grad.shape)
        analytic[(name, idx)] = float(t.grad[idx])
        keep = float(t.data[idx])
        with autodiff.no_grad():
            t.data[idx] = keep + FD_STEP
            up = loss().item()
            t.data[idx] = keep - FD_STEP
            down = loss().item()
        t.data[idx] = keep
        numeric[(name, idx)] = (up - down) / (2 * FD_STEP)
    for t in named.values():
        t.grad = None
    checks.check_gradients(analytic, numeric)


def _checkpoint(w, p, params, rounds):
    first, second = p.work / "roundtrip_1.bin", p.work / "roundtrip_2.bin"
    training.save_checkpoint(first, params, p.cfg, p.vocab)
    loaded, meta = training.load_checkpoint(first)
    training.save_checkpoint(second, loaded, TrainConfig(**meta["config"]), p.vocab)
    checks.check_checkpoint_roundtrip(
        {k: t.data for k, t in params.named().items()},
        {k: t.data for k, t in loaded.named().items()},
        first.read_bytes(),
        second.read_bytes(),
    )


def _answer_cli(w, p, params, rounds):
    """Every round's cold answer against in-process forward on the checkpoint
    it read (the rounds write the same checkpoint)."""
    served, meta = training.load_checkpoint(p.checkpoint)
    cfg = TrainConfig(**meta["config"])
    vocab = encoder.Vocabulary.load(p.checkpoint.with_name("vocab.txt"))
    topics = [p.g.entities.id(name) for name in re.findall(r"\[([^\]]+)\]", p.question)]
    tokens = vocab.encode(p.question.replace("[", "").replace("]", ""))
    with autodiff.no_grad():
        res = model.forward(p.g, tokens, topics, served, cfg, cache=relation_cache(p, served), want_trace=False)
    top = checks.top_answer(res.final.data)
    expected = None if top is None else p.g.entities.name(top)
    for r in rounds:
        checks.check_answer_cli(r.answer_returncode, r.answer_stdout, expected)


def _kernels(w, p, params, rounds):
    """The six public kernels on this workload's own edge list and batch
    size, with seeded weights and scores, against np.bincount references."""
    g = p.g
    if g.form == "label":
        heads, tails, groups, num_groups = g.edge_heads, g.edge_tails, g.edge_preds, g.num_predicates
    else:
        heads, tails, groups, num_groups = g.trel_heads, g.trel_tails, g.trel_text, len(g.texts)
    rng = np.random.default_rng(p.cfg.seed)
    n, E, B = g.n, heads.size, w.batch_size
    wv, a, gv = rng.random(E), rng.random(n), rng.random(n)
    wb, ab, gb = rng.random((B, E)), rng.random((B, n)), rng.random((B, n))
    order = np.lexsort((tails, heads))
    h, t = heads[order], tails[order]
    starts = np.flatnonzero(np.concatenate(([True], (h[1:] != h[:-1]) | (t[1:] != t[:-1]))))
    ptr = np.append(starts, E).astype(np.int64)
    cases = {
        "push_forward": (heads, tails, wv, a, n),
        "push_backward": (heads, tails, wv, a, gv),
        "push_batch_forward": (heads, tails, wb, ab, n),
        "push_batch_backward": (heads, tails, wb, ab, gb),
        "push_max_forward": (h[starts], t[starts], ptr, wv[order], a, n),
        "col_scatter_add": (groups, wb, num_groups),
    }
    for name, args in cases.items():
        checks.check_kernel(name, getattr(kernels, name)(*args), args)


def _repeats(w, p, params, rounds):
    checks.check_repeats([(r.dev_hits1, r.dev_loss) for r in rounds], "dev hits@1 and loss")
    checks.check_repeats([(r.answer_returncode, r.answer_stdout) for r in rounds], "answer exit code and output")


CHECKS = {
    "graph": lambda w, p, params, rounds: checks.check_graph(p.g, p.dataset.triples),
    "gold_answers": _gold_answers,
    "model_outputs": _model_outputs,
    "gradients": _gradients,
    "checkpoint": _checkpoint,
    "answer_cli": _answer_cli,
    "kernels": _kernels,
    "rounds_repeat": _repeats,
}


def run_checks(w, p, params, rounds) -> dict:
    """Check name -> "ok" or the reason it failed."""
    out = {}
    for name, check in CHECKS.items():
        try:
            check(w, p, params, rounds)
            out[name] = "ok"
        except checks.CheckFailed as e:
            out[name] = str(e)
    return out
