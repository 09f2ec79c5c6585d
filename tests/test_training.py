"""Loss arithmetic, the optimizer, the training loop, and checkpoints."""

import numpy as np
import pytest

import hoptrace.autodiff as ad
from hoptrace.autodiff import Tensor
from hoptrace.config import TrainConfig
from hoptrace.data import QAExample, resolve_examples
from hoptrace.encoder import RelationEncodingCache
from hoptrace.errors import DataError, NumericError
from hoptrace.graph import add_reverse_relations, build_from_text_corpus, build_from_triples
from hoptrace.model import ModelParams, forward_batch, rank_answers
from hoptrace.training import (
    AUX_WEIGHT,
    RAdam,
    batch_targets,
    build_target,
    build_vocabulary,
    compute_loss,
    euclid_distance,
    evaluate,
    load_checkpoint,
    prepare_examples,
    save_checkpoint,
    train,
    vocab_sha256,
)

from oracles import finite_difference, loss_reference


def tiny_qa_setup():
    """Four-movie graph plus a handful of 1/2-hop questions."""
    triples = [
        ("m0", "directed_by", "alice"),
        ("m1", "directed_by", "alice"),
        ("m2", "directed_by", "bob"),
        ("m3", "directed_by", "carol"),
        ("m0", "release_year", "1999"),
        ("m1", "release_year", "2004"),
        ("m2", "release_year", "1999"),
        ("m3", "release_year", "2004"),
    ]
    g = add_reverse_relations(build_from_triples(triples))
    qs = []
    for m, d in (("m0", "alice"), ("m1", "alice"), ("m2", "bob"), ("m3", "carol")):
        qs.append(QAExample(f"who directed [{m}]", m, (d,), 1))
    for m, y in (("m0", "1999"), ("m1", "2004"), ("m2", "1999"), ("m3", "2004")):
        qs.append(QAExample(f"when was [{m}] released", m, (y,), 1))
    for d, ms in (("alice", ("m0", "m1")), ("bob", ("m2",)), ("carol", ("m3",))):
        qs.append(QAExample(f"what movies did [{d}] direct", d, tuple(sorted(ms)), 1))
    for m, tw in (("m0", ("m0", "m1")), ("m1", ("m0", "m1"))):
        qs.append(QAExample(f"what movies have the same director as [{m}]", m, tuple(sorted(tw)), 2))
    return g, resolve_examples(qs, g)


# -- targets and loss -------------------------------------------------------------


def test_build_target():
    y = build_target({1, 3}, 5)
    np.testing.assert_array_equal(y, [0, 1, 0, 1, 0])
    with pytest.raises(DataError):
        build_target(set(), 5)
    with pytest.raises(DataError):
        build_target({7}, 5)


def test_euclid_distance_value_and_gradient(rng):
    pred = Tensor(rng.random(6), requires_grad=True)
    y = rng.random(6)
    out = euclid_distance(pred, y)
    assert out.item() == pytest.approx(float(np.linalg.norm(pred.data - y)))
    out.backward()
    numeric = finite_difference(lambda x: np.linalg.norm(x - y), pred.data.copy())
    np.testing.assert_allclose(pred.grad, numeric, atol=1e-7)


def test_euclid_distance_zero_error_zero_gradient():
    y = np.array([0.25, 0.75])
    pred = Tensor(y.copy(), requires_grad=True)
    out = euclid_distance(pred, y)
    assert out.item() == 0.0
    out.backward()
    np.testing.assert_array_equal(pred.grad, [0.0, 0.0])


def test_compute_loss_arithmetic():
    final = Tensor(np.array([0.9, 0.1, 0.0]), requires_grad=True)
    y = np.array([1.0, 0.0, 0.0])
    c = Tensor(np.array([1 / 3, 1 / 3, 1 / 3]), requires_grad=True)
    lb = compute_loss(final, y, c, gold_hop=1, use_aux=True)
    main = float(np.linalg.norm(final.data - y))
    assert lb.main.item() == pytest.approx(main)
    assert lb.aux_hop.item() == pytest.approx(-np.log(1 / 3))
    assert lb.total.item() == pytest.approx(main + AUX_WEIGHT * -np.log(1 / 3))


def test_compute_loss_without_aux():
    final = Tensor(np.array([0.5, 0.5]))
    c = Tensor(np.array([0.5, 0.5]))
    lb = compute_loss(final, np.array([1.0, 0.0]), c, gold_hop=1, use_aux=False)
    assert lb.aux_hop is None and lb.total is lb.main
    lb2 = compute_loss(final, np.array([1.0, 0.0]), c, gold_hop=None, use_aux=True)
    assert lb2.aux_hop is None


def test_compute_loss_validates():
    c = Tensor(np.array([0.5, 0.5]))
    with pytest.raises(NumericError):
        compute_loss(Tensor(np.array([np.nan, 0.0])), np.array([1.0, 0.0]), c, None)
    with pytest.raises(DataError):
        compute_loss(Tensor(np.array([0.5, 0.5])), np.array([1.0, 0.0]), c, gold_hop=5)


def test_batch_loss_matches_per_row_reference(rng):
    """(B, n) finals, (B, T) hop distributions and per-row gold hops (some
    missing, one row at zero distance): the summed loss and its gradients
    against the per-example reference, row by row."""
    B, n, T = 6, 9, 3
    final = Tensor(rng.random((B, n)), requires_grad=True)
    ys = (rng.random((B, n)) < 0.3).astype(float)
    ys[2] = final.data[2]
    c = Tensor(rng.random((B, T)) + 0.05, requires_grad=True)
    hops = [1, None, 3, 2, 2, None]
    lb = compute_loss(final, ys, c, hops)
    lb.total.backward()
    refs = [loss_reference(final.data[i], ys[i], c.data[i], hops[i], AUX_WEIGHT) for i in range(B)]
    assert abs(lb.total.item() - sum(r[0] for r in refs)) <= 1e-12
    np.testing.assert_allclose(final.grad, np.stack([r[1] for r in refs]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(c.grad, np.stack([r[2] for r in refs]), rtol=0, atol=1e-12)
    with pytest.raises(DataError):
        compute_loss(final, ys, c, [1, None, 4, 2, 2, None])
    assert compute_loss(final, ys, c, [None] * B).aux_hop is None


@pytest.mark.parametrize("form", ["label", "text"])
def test_batch_loss_matches_per_row_calls(form):
    """On a real forward_batch: the one batch loss node against the sum of
    per-row compute_loss calls on final[i] and c[i], in value and in every
    parameter gradient."""
    g, resolved = tiny_qa_setup()
    if form == "text":
        docs = [("m0", "m0 was directed by alice."), ("m1", "m1 was directed by alice. m1 came out in 2004.")]
        g = add_reverse_relations(build_from_text_corpus(docs, [g.entities.name(i) for i in range(g.n)]))
    cfg = TrainConfig(form=form, d=8, seed=2).validate()
    vocab = build_vocabulary(resolved, g)
    params = ModelParams(len(vocab), g.n, g.num_predicates, cfg)
    cache = RelationEncodingCache(params.r_enc, vocab, g.texts) if form == "text" else None
    batch = prepare_examples(resolved, vocab)
    hops = [ex.gold_hop if i % 3 else None for i, ex in enumerate(batch)]
    ys = batch_targets(batch, g.n)
    named = params.named()

    def run(per_row):
        if cache is not None:
            cache.invalidate()
        res = forward_batch(g, [ex.tokens for ex in batch], [ex.topic for ex in batch], params, cfg, cache=cache)
        if per_row:
            total = None
            for i, row in enumerate(res):
                lb = compute_loss(row.final, ys[i], row.c, hops[i])
                total = lb.total if total is None else total + lb.total
        else:
            total = compute_loss(res.final, ys, res.c, hops).total
        for t in named.values():
            t.grad = None
        total.backward()
        return total.item(), {k: t.grad for k, t in named.items()}

    (value, grads), (want_value, want_grads) = run(False), run(True)
    assert abs(value - want_value) <= 1e-12
    for k in named:
        zeros = np.zeros_like(named[k].data)
        got, want = grads[k], want_grads[k]
        np.testing.assert_allclose(
            zeros if got is None else got, zeros if want is None else want, rtol=0, atol=1e-12, err_msg=k
        )


# -- optimizer -------------------------------------------------------------------


def test_radam_momentum_only_during_warmup():
    # rho_t stays below the threshold for the first few steps: the update
    # must be plain lr * m_hat with no variance normalization
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = RAdam({"p": p}, lr=0.1)
    p.grad = np.array([2.0])
    opt.step()
    # m = 0.2, m_hat = m / (1 - 0.9) = 2.0 -> update = 0.1 * 2.0
    np.testing.assert_allclose(p.data, [1.0 - 0.2])


def test_radam_switches_to_adaptive_step():
    def rho(t, beta2=0.999):
        b2t = beta2**t
        return (2.0 / (1.0 - beta2) - 1.0) - 2.0 * t * b2t / (1.0 - b2t)

    assert rho(4) <= RAdam.RHO_THRESHOLD  # still warmup at t=4
    assert rho(5) > RAdam.RHO_THRESHOLD  # rectified step kicks in at t=5

    # adaptive updates are invariant to gradient scale; warmup ones are not
    p1 = Tensor(np.array([0.0]), requires_grad=True)
    p2 = Tensor(np.array([0.0]), requires_grad=True)
    o1 = RAdam({"p": p1}, lr=0.01)
    o2 = RAdam({"p": p2}, lr=0.01)
    for t in range(1, 9):
        p1.grad, p2.grad = np.array([1.0]), np.array([100.0])
        before = (p1.data[0], p2.data[0])
        o1.step()
        o2.step()
        d1, d2 = p1.data[0] - before[0], p2.data[0] - before[1]
        if t <= 4:
            assert abs(d2 / d1 - 100.0) < 1e-6  # momentum-only: scales with g
        else:
            assert abs(d2 / d1 - 1.0) < 1e-6  # variance-normalized


def test_radam_rectified_step_scale_ramps_toward_lr():
    # with a constant gradient the adaptive step is lr * r(t) regardless of
    # gradient magnitude; r grows from ~0 toward 1 over thousands of steps
    p = Tensor(np.array([0.0]), requires_grad=True)
    lr = 0.001
    opt = RAdam({"p": p}, lr=lr)
    marks = {}
    for t in range(1, 1001):
        p.grad = np.array([3.7])
        before = p.data[0]
        opt.step()
        if t in (10, 100, 1000):
            marks[t] = -(p.data[0] - before) / lr
    assert 0.01 < marks[10] < 0.1
    assert 0.1 < marks[100] < 0.4
    assert 0.5 < marks[1000] < 0.8


def test_radam_skips_missing_gradients():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([1.0]), requires_grad=True)
    opt = RAdam({"p": p, "q": q}, lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert q.data[0] == 1.0 and p.data[0] != 1.0


def test_radam_zero_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = RAdam({"p": p})
    p.grad = np.array([1.0])
    opt.zero_grad()
    assert p.grad is None


# -- vocabulary and preparation -----------------------------------------------------


def test_build_vocabulary_covers_questions_and_texts():
    g, resolved = tiny_qa_setup()
    vocab = build_vocabulary(resolved, g)
    assert "directed" in vocab and "m0" in vocab
    prep = prepare_examples(resolved, vocab)
    assert prep[0].uid == resolved[0].question
    assert prep[0].topic == resolved[0].topic_id
    assert prep[0].answers == frozenset(resolved[0].answer_ids)


def test_vocab_hash_changes_with_content():
    g, resolved = tiny_qa_setup()
    v1 = build_vocabulary(resolved, g)
    v2 = build_vocabulary(resolved[:3], g)
    assert vocab_sha256(v1) != vocab_sha256(v2)


# -- training loop --------------------------------------------------------------------


def test_overfit_tiny_label_dataset():
    """Training on a trivial dataset (dev = train) must fit it: hits@1
    reaches 1 and the loss drops.  A raised lr keeps the test fast; the
    default 0.001 under the slow rectifier ramp would need thousands of
    steps."""
    g, resolved = tiny_qa_setup()
    cfg = TrainConfig(form="label", epochs=40, d=16, seed=3, lr=0.05, batch_size=4).validate()
    result = train(cfg, g, resolved, resolved)
    assert result.best_dev["overall"] == 1.0
    train_rows = [h for h in result.history if h["split"] == "train"]
    assert train_rows[-1]["loss"] < train_rows[0]["loss"]


def test_train_restores_best_dev_epoch():
    g, resolved = tiny_qa_setup()
    cfg = TrainConfig(form="label", epochs=8, d=8, seed=0, batch_size=4).validate()
    result = train(cfg, g, resolved, resolved)
    prep = prepare_examples(resolved, result.vocab)
    m = evaluate(g, result.params, prep, cfg)
    assert m["overall"] == pytest.approx(result.best_dev["overall"])


def test_train_deterministic_given_seed():
    g, resolved = tiny_qa_setup()
    cfg = TrainConfig(form="label", epochs=2, d=8, seed=11, batch_size=4).validate()
    r1 = train(cfg, g, resolved, resolved)
    r2 = train(cfg, g, resolved, resolved)
    for k, t in r1.params.named().items():
        np.testing.assert_array_equal(t.data, r2.params.named()[k].data, err_msg=k)
    assert r1.history == r2.history


def test_train_limit_train_subsamples():
    g, resolved = tiny_qa_setup()
    cfg = TrainConfig(form="label", epochs=1, d=8, seed=0, batch_size=4, limit_train=0.5).validate()
    result = train(cfg, g, resolved, resolved)
    assert result.best_dev["overall"] >= 0.0  # ran end to end on the subset


def test_evaluate_matches_per_row_recount():
    """evaluate's one top_answers call per chunk counts the same hits as
    rank_answers row by row, in any chunking.  The graph has no reverse
    relations, so 'paris' has no out-edges: its question scores all zero
    and must count as a miss, although its answers hold entity 0, the id
    an argmax over zeros returns."""
    born = [("alice", "born_in", "paris"), ("bob", "born_in", "rome"), ("carol", "born_in", "paris")]
    directed = [("m0", "directed_by", "alice"), ("m1", "directed_by", "alice"), ("m2", "directed_by", "bob")]
    g = build_from_triples(born + directed + [("m3", "directed_by", "carol")])
    assert g.entities.id("alice") == 0
    qs = [QAExample(f"who directed [{m}]", m, (d,), 1) for m, _, d in directed]
    qs += [QAExample(f"where was [{d}] born", d, (c,), 1) for d, _, c in born]
    qs += [QAExample(f"where was the director of [{m}] born", m, (c,), 2) for m, c in (("m0", "paris"), ("m2", "rome"))]
    qs += [QAExample("who was born in [paris]", "paris", ("alice", "carol"), 1)]
    qs += [QAExample("who directed [m3]", "m3", ("carol",), None)]
    resolved = resolve_examples(qs, g)
    cfg = TrainConfig(form="label", epochs=6, d=8, seed=2, lr=0.05, batch_size=4).validate()
    result = train(cfg, g, resolved, resolved)
    prep = prepare_examples(resolved, result.vocab)

    with ad.no_grad():
        res = forward_batch(g, [ex.tokens for ex in prep], [ex.topic for ex in prep], result.params, cfg)
    hits, degenerate_rows = {}, 0
    for ex, row in zip(prep, res.final.data):
        ranked, degenerate = rank_answers(row)
        degenerate_rows += degenerate
        hits.setdefault(ex.gold_hop, []).append((not degenerate) and int(ranked[0]) in ex.answers)
    assert degenerate_rows == 1 and not np.any(res.final.data[-2])
    flat = [h for v in hits.values() for h in v]
    hops = [ex.gold_hop for ex in prep]
    loss = compute_loss(res.final, batch_targets(prep, g.n), res.c, hops, cfg.use_aux_hop_loss).main.item()

    for chunk in (64, 5, 1):
        m = evaluate(g, result.params, prep, cfg, chunk=chunk)
        assert m["overall"] == np.mean(flat) > 0
        assert m["per_hop"] == {h: np.mean(v) for h, v in hits.items() if h is not None}
        assert m["count"] == len(prep)
        assert m["mean_loss"] == pytest.approx(loss / len(prep), rel=0, abs=1e-12)


def test_effective_batch_size_defaults():
    assert TrainConfig(form="label").effective_batch_size == 64
    assert TrainConfig(form="text").effective_batch_size == 16
    assert TrainConfig(form="mixed").effective_batch_size == 16
    assert TrainConfig(form="label", batch_size=7).effective_batch_size == 7


def test_zero_loss_takes_no_step():
    """An exactly-fit example (zero error, aux off) must produce zero
    gradient on the touched parameters and leave them unchanged."""
    y = np.array([1.0, 0.0])
    final = Tensor(y.copy(), requires_grad=True)
    c = Tensor(np.array([0.7, 0.3]))
    lb = compute_loss(final, y, c, gold_hop=None, use_aux=False)
    lb.total.backward()
    np.testing.assert_array_equal(final.grad, [0.0, 0.0])


# -- checkpoints -----------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    g, resolved = tiny_qa_setup()
    cfg = TrainConfig(form="label", epochs=1, d=8, seed=5, batch_size=4).validate()
    result = train(cfg, g, resolved, resolved)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, result.params, cfg, result.vocab, extra={"note": "test"})
    params2, meta = load_checkpoint(path)
    assert meta["note"] == "test"
    assert meta["optimizer"]["name"] == "radam"
    assert "rho_threshold" in meta["optimizer"]
    assert meta["vocab_sha256"] == vocab_sha256(result.vocab)
    for k, t in result.params.named().items():
        np.testing.assert_array_equal(t.data, params2.named()[k].data, err_msg=k)


def test_checkpoint_bytes_deterministic(tmp_path):
    g, resolved = tiny_qa_setup()
    cfg = TrainConfig(form="label", epochs=1, d=8, seed=5, batch_size=4).validate()
    result = train(cfg, g, resolved, resolved)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, result.params, cfg, result.vocab)
    save_checkpoint(p2, result.params, cfg, result.vocab)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(DataError):
        load_checkpoint(p)


def test_text_training_smoke(rng):
    """Text form end to end on a micro corpus: runs, evaluates, checkpoints."""
    from hoptrace.graph import build_from_text_corpus

    docs = [
        ("m0", "m0 was directed by alice. m0 was released in 1999."),
        ("m1", "m1 was directed by alice. m1 was released in 2004."),
        ("m2", "m2 was directed by bob. m2 was released in 1999."),
    ]
    names = ["m0", "m1", "m2", "alice", "bob", "1999", "2004"]
    g = add_reverse_relations(build_from_text_corpus(docs, names))
    qs = [
        QAExample("who directed [m0]", "m0", ("alice",), 1),
        QAExample("who directed [m1]", "m1", ("alice",), 1),
        QAExample("who directed [m2]", "m2", ("bob",), 1),
        QAExample("when was [m0] released", "m0", ("1999",), 1),
        QAExample("when was [m1] released", "m1", ("2004",), 1),
    ]
    resolved = resolve_examples(qs, g)
    cfg = TrainConfig(form="text", epochs=2, d=8, seed=0, batch_size=4).validate()
    result = train(cfg, g, resolved, resolved)
    assert len(result.history) == 4
    assert 0.0 <= result.best_dev["overall"] <= 1.0
