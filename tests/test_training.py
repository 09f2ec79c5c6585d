"""Loss arithmetic, the optimizer, the training loop, and checkpoints."""

import hashlib
import json
import platform
import resource
import struct

import numpy as np
import pytest

import hoptrace.autodiff as ad
from hoptrace import training
from hoptrace.autodiff import Tensor
from hoptrace.config import TrainConfig
from hoptrace.data import QAExample, resolve_examples
from hoptrace.encoder import RelationEncodingCache
from hoptrace.errors import DataError, GraphError, NumericError, UsageError
from hoptrace.graph import add_reverse_relations, build_from_text_corpus, build_from_triples, mix_label_into_text
from hoptrace.model import ModelParams, forward_batch, rank_answers
from hoptrace.training import (
    AUX_WEIGHT,
    RAdam,
    batch_targets,
    build_vocabulary,
    compute_loss,
    euclid_distance,
    evaluate,
    load_checkpoint,
    prepare_examples,
    save_checkpoint,
    train,
    _keep_freed_memory,
)

from conftest import checkpoint_with_blocks, checkpoint_with_metadata, nine_tokens
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


def tiny_text_setup():
    """Three-movie text corpus with reverse relations, and five 1-hop questions."""
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
    return g, resolve_examples(qs, g)


def read_log(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


# -- targets and loss -------------------------------------------------------------


def test_batch_targets():
    y = batch_targets([{1, 3}, frozenset({0}), (4, 2)], 5)
    np.testing.assert_array_equal(y, [[0, 1, 0, 1, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 1]])
    assert batch_targets([], 5).shape == (0, 5)
    with pytest.raises(DataError, match=r"^empty answer set$"):
        batch_targets([{1}, set()], 5)
    # the first bad set is named, whatever is wrong with the ones after it
    with pytest.raises(DataError, match=r"^answer id out of range \[0, 5\): \[1, 7\]$"):
        batch_targets([{0}, {7, 1}, set()], 5)
    with pytest.raises(DataError, match=r"^answer id out of range \[0, 5\): \[-1\]$"):
        batch_targets([{-1}], 5)


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
    ys = batch_targets([ex.answers for ex in batch], g.n)
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


# -- training loop --------------------------------------------------------------------


def test_overfit_tiny_label_dataset(tmp_path):
    """Training on a trivial dataset (dev = train) must fit it: hits@1
    reaches 1 and the loss drops.  A raised lr keeps the test fast; the
    default 0.001 under the slow rectifier ramp would need thousands of
    steps."""
    g, resolved = tiny_qa_setup()
    cfg = TrainConfig(form="label", epochs=40, d=16, seed=3, lr=0.05, batch_size=4).validate()
    result = train(cfg, g, resolved, resolved, log_path=tmp_path / "train_log.jsonl")
    assert result.best_dev["overall"] == 1.0
    train_rows = [row for row in read_log(tmp_path / "train_log.jsonl") if row["split"] == "train"]
    assert train_rows[-1]["loss"] < train_rows[0]["loss"]


def test_train_without_the_aux_hop_loss(tmp_path):
    """use_aux_hop_loss=False: a batch's loss has no hop term, and every
    train row of the log has a null aux_loss, where the default run logs
    one."""
    g, resolved = tiny_qa_setup()
    aux_losses = {}
    for use_aux in (True, False):
        cfg = TrainConfig(form="label", epochs=2, d=8, seed=0, batch_size=4, use_aux_hop_loss=use_aux).validate()
        vocab = build_vocabulary(resolved, g)
        params = ModelParams(len(vocab), g.n, g.num_predicates, cfg)
        lb = training._batch_loss(g, params, prepare_examples(resolved, vocab), cfg, None)[1]
        assert (lb.aux_hop is None) is not use_aux
        train(cfg, g, resolved, resolved, log_path=tmp_path / "train_log.jsonl")
        aux_losses[use_aux] = [row["aux_loss"] for row in read_log(tmp_path / "train_log.jsonl") if row["split"] == "train"]
    assert aux_losses[False] == [None, None]
    assert all(isinstance(x, float) and x > 0 for x in aux_losses[True])


def test_train_restores_best_dev_epoch():
    g, resolved = tiny_qa_setup()
    cfg = TrainConfig(form="label", epochs=8, d=8, seed=0, batch_size=4).validate()
    result = train(cfg, g, resolved, resolved)
    prep = prepare_examples(resolved, result.vocab)
    m = evaluate(g, result.params, prep, cfg)
    assert m["overall"] == pytest.approx(result.best_dev["overall"])


def test_train_without_dev_examples_keeps_the_last_epoch(tmp_path):
    """No dev examples: no epoch is snapshotted or restored, so three epochs
    end elsewhere than one; best_dev is empty and the log holds train rows
    only.  One epoch lands where a run with dev examples restores it."""
    g, resolved = tiny_qa_setup()
    runs = {}
    for epochs in (1, 3):
        cfg = TrainConfig(form="label", epochs=epochs, d=8, seed=3, batch_size=4).validate()
        runs[epochs] = train(cfg, g, resolved, [], log_path=tmp_path / f"{epochs}.jsonl")
        assert runs[epochs].best_dev == {}
        assert [(r["epoch"], r["split"]) for r in read_log(tmp_path / f"{epochs}.jsonl")] == [
            (e, "train") for e in range(1, epochs + 1)]
    one, three = runs[1].params.named(), runs[3].params.named()
    assert any(not np.array_equal(one[k].data, three[k].data) for k in one)
    with_dev = train(TrainConfig(form="label", epochs=1, d=8, seed=3, batch_size=4).validate(), g, resolved, resolved)
    for k, t in with_dev.params.named().items():
        np.testing.assert_array_equal(t.data, one[k].data, err_msg=k)


def test_train_deterministic_given_seed(tmp_path):
    g, resolved = tiny_qa_setup()
    cfg = TrainConfig(form="label", epochs=2, d=8, seed=11, batch_size=4).validate()
    r1 = train(cfg, g, resolved, resolved, log_path=tmp_path / "1.jsonl")
    r2 = train(cfg, g, resolved, resolved, log_path=tmp_path / "2.jsonl")
    for k, t in r1.params.named().items():
        np.testing.assert_array_equal(t.data, r2.params.named()[k].data, err_msg=k)
    assert len(read_log(tmp_path / "1.jsonl")) == 4
    assert (tmp_path / "1.jsonl").read_bytes() == (tmp_path / "2.jsonl").read_bytes()


def test_train_limit_train_subsamples():
    g, resolved = tiny_qa_setup()
    cfg = TrainConfig(form="label", epochs=1, d=8, seed=0, batch_size=4, limit_train=0.5).validate()
    result = train(cfg, g, resolved, resolved)
    assert result.best_dev["overall"] >= 0.0  # ran end to end on the subset


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
def test_freed_blocks_are_reused_without_fresh_pages():
    """Once train or evaluate has tuned malloc, a freed 16 MiB block is taken
    again from the heap: allocating it anew faults in almost none of its
    4,096 pages.  Under glibc's adaptive defaults that depends on what the
    process allocated and freed before (this test fails at random places in
    the suite without the tuning)."""
    _keep_freed_memory()
    np.ones(2 << 20)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(2 << 20)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 512


def test_evaluate_matches_per_row_recount(monkeypatch):
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
    ys = batch_targets([ex.answers for ex in prep], g.n)
    loss = compute_loss(res.final, ys, res.c, hops, cfg.use_aux_hop_loss).main.item()

    for chunk in (64, 5, 1):
        monkeypatch.setattr(training, "EVAL_CHUNK", chunk)
        m = evaluate(g, result.params, prep, cfg)
        assert m["overall"] == np.mean(flat) > 0
        assert m["per_hop"] == {h: np.mean(v) for h, v in hits.items() if h is not None}
        assert m["count"] == len(prep)
        assert m["mean_loss"] == pytest.approx(loss / len(prep), rel=0, abs=1e-12)


def test_effective_batch_size_defaults():
    assert TrainConfig(form="label").effective_batch_size == 64
    assert TrainConfig(form="text").effective_batch_size == 16
    # a text graph with label triples mixed in is a text graph
    base = add_reverse_relations(build_from_text_corpus([("a", "a met b.")], ["a", "b"]))
    mixed = mix_label_into_text(base, [("a", "knows", "b")], 1.0, seed=0)
    assert TrainConfig.from_sources(form=mixed.form).effective_batch_size == 16
    assert TrainConfig(form="label", batch_size=7).effective_batch_size == 7
    with pytest.raises(UsageError, match="got 'mixed': build the graph again with `hoptrace build-graph`"):
        TrainConfig(form="mixed").validate()


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
    assert meta["vocab"].names == result.vocab.names
    np.testing.assert_array_equal(meta["vocab"].encode("who directed [m2]"), result.vocab.encode("who directed [m2]"))
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


def _split_parameters(named, d) -> dict:
    """The parameters under the names and in the layout of formats HOPCKPT2
    and HOPCKPT3: each encoder's GRU weights split by direction (w_xf, w_hf,
    b_f forward, w_xb, w_hb, b_b backward) and the step queries split into
    one (d, d) step{t}.w and one (d,) step{t}.b per step."""
    out = {}
    for name, t in named.items():
        prefix, leaf = name.rsplit(".", 1)
        if prefix in ("q_enc", "r_enc") and leaf in ("w_x", "w_h", "b"):
            stem = "b_" if leaf == "b" else leaf
            out[f"{prefix}.{stem}f"], out[f"{prefix}.{stem}b"] = t.data
        elif prefix == "step":
            for i in range(t.data.shape[-1] // d):
                out[f"step{i + 1}.{leaf}"] = t.data[..., i * d : (i + 1) * d]
        else:
            out[name] = t.data
    return out


def test_checkpoint_bytes_are_pinned(tmp_path):
    """The whole file is pinned as format HOPCKPT4 writes it.  The parameters
    it reads back are pinned apart, split back into the parts HOPCKPT2 and
    HOPCKPT3 stored and hashed as those formats wrote their blocks: storing
    the GRU weights stacked and the step queries as one matrix changed no
    initial value."""
    cfg = TrainConfig(form="text", d=4, T=2).validate()
    path = tmp_path / "c.bin"
    save_checkpoint(path, ModelParams(9, 6, 3, cfg), cfg, nine_tokens())
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == "a62e5dc2b1cd6275691cd9c9785459b3e13476aa3520b1f709a364c642687b55"
    params, _ = load_checkpoint(path)
    assert len(params.named()) == 20
    parts = _split_parameters(params.named(), cfg.d)
    assert len(parts) == 28
    blocks = b"".join(np.ascontiguousarray(parts[k], dtype="<f8").tobytes() for k in sorted(parts))
    assert hashlib.sha256(blocks).hexdigest() == "a5543dc5309fb321aba7b1709a3c40965eaf9bc53593c1958cc31fa65534f7bd"


def test_checkpoint_roundtrip_through_the_block_list(tmp_path):
    """checkpoint_with_blocks with the file's own block list gives back the
    same bytes, so the cases below differ from a good file in the list only."""
    cfg = TrainConfig(form="label", d=4, T=2).validate()
    path = tmp_path / "c.bin"
    save_checkpoint(path, ModelParams(9, 6, 3, cfg), cfg, nine_tokens())
    raw = path.read_bytes()
    assert checkpoint_with_blocks(raw, sorted(ModelParams(9, 6, 3, cfg).named())) == raw


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda names: [n for n in names if n != "pred.w"], r"no parameter block for \['pred.w'\]"),
        (
            lambda names: [n for n in names if not n.startswith("q_enc.")],
            r"no parameter block for \['q_enc.b', 'q_enc.b_out'",
        ),
        (lambda names: names + ["hop.b"], "unexpected or repeated parameter blocks"),
    ],
    ids=["without-pred.w", "without-q_enc", "hop.b-twice"],
)
def test_checkpoint_must_list_each_parameter_once(tmp_path, change, message):
    """A block list that leaves a parameter out would leave it unfilled, so
    the file is refused even though its sha256 matches."""
    cfg = TrainConfig(form="label", d=4, T=2).validate()
    path = tmp_path / "c.bin"
    params = ModelParams(9, 6, 3, cfg)
    save_checkpoint(path, params, cfg, nine_tokens())
    path.write_bytes(checkpoint_with_blocks(path.read_bytes(), change(sorted(params.named()))))
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


def _metadata(raw) -> dict:
    (size,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16 : 16 + size])


def test_checkpoint_model_block_is_not_repeated(tmp_path):
    """The "model" block holds only what "config" and "vocab" do not: the
    sizes the graph gives.  The metadata holds no format, version,
    vocabulary hash or optimizer record: the magic states the format, and
    nothing reads the others."""
    cfg = TrainConfig(form="label", d=4, T=2).validate()
    path = tmp_path / "c.bin"
    save_checkpoint(path, ModelParams(9, 6, 3, cfg), cfg, nine_tokens())
    meta = _metadata(path.read_bytes())
    assert meta["model"] == {"n": 6, "num_predicates": 3}
    assert meta["vocab"] == nine_tokens().names
    assert set(meta) == {"config", "model", "vocab", "params"}


@pytest.mark.parametrize("size", [8, 10])
def test_save_checkpoint_refuses_a_vocabulary_of_another_size(tmp_path, size):
    """A file whose vocabulary does not give the embedding its rows could
    never load, so none is written."""
    cfg = TrainConfig(form="label", d=4, T=2).validate()
    path = tmp_path / "c.bin"
    with pytest.raises(ValueError, match=f"a vocabulary of 9 tokens for an embedding of {size} rows"):
        save_checkpoint(path, ModelParams(size, 6, 3, cfg), cfg, nine_tokens())
    assert not path.exists()


@pytest.mark.parametrize(
    "vocab, message",
    [
        ("<pad> <unk> <sub> <obj> who", "is not a list of distinct strings"),
        (["<pad>", "<unk>", "<sub>", "<obj>", "who", 7, "by", "the", "x"], "is not a list of distinct strings"),
        (["<pad>", "<unk>", "<sub>", "<obj>", "who", "by", "who", "the", "x"], "is not a list of distinct strings"),
        (["who", "<pad>", "<unk>", "<sub>", "<obj>", "by", "the", "x", "y"], "does not start with the reserved tokens"),
        ({"who": 4}, "is not a list of distinct strings"),
    ],
    ids=["string", "number-token", "repeated-token", "reserved-not-first", "object"],
)
def test_checkpoint_vocabulary_must_be_distinct_strings(tmp_path, vocab, message):
    """A "vocab" entry, sealed with a matching sha256, that no Vocabulary
    writes: each is a data error, not an embedding of the wrong tokens."""
    cfg = TrainConfig(form="label", d=4, T=2).validate()
    path = tmp_path / "c.bin"
    save_checkpoint(path, ModelParams(9, 6, 3, cfg), cfg, nine_tokens())
    path.write_bytes(checkpoint_with_metadata(path.read_bytes(), lambda meta: meta.update(vocab=vocab)))
    with pytest.raises(DataError, match=f'{path}: "vocab" {message}'):
        load_checkpoint(path)


def test_checkpoint_vocabulary_sets_the_embedding_rows(tmp_path):
    """The embedding has one row per vocabulary token: a "vocab" one token
    longer than the file's block is a shape mismatch, not a model."""
    cfg = TrainConfig(form="label", d=4, T=2).validate()
    path = tmp_path / "c.bin"
    save_checkpoint(path, ModelParams(9, 6, 3, cfg), cfg, nine_tokens())
    longer = nine_tokens().names + ["extra"]
    path.write_bytes(checkpoint_with_metadata(path.read_bytes(), lambda meta: meta.update(vocab=longer)))
    with pytest.raises(DataError, match="shape mismatch for 'q_enc.emb'"):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(DataError):
        load_checkpoint(p)


def test_text_training_smoke(tmp_path):
    """Text form end to end on a micro corpus: runs, evaluates, checkpoints."""
    g, resolved = tiny_text_setup()
    cfg = TrainConfig(form="text", epochs=2, d=8, seed=0, batch_size=4).validate()
    result = train(cfg, g, resolved, resolved, log_path=tmp_path / "train_log.jsonl")
    rows = read_log(tmp_path / "train_log.jsonl")
    assert [(row["epoch"], row["split"]) for row in rows] == [(1, "train"), (1, "dev"), (2, "train"), (2, "dev")]
    assert 0.0 <= result.best_dev["overall"] <= 1.0


def test_text_dev_is_scored_with_the_table_after_the_last_step():
    """A text epoch's dev figures come from the relation-text table of the
    parameters after the epoch's last optimizer step, not the one its last
    batch built before that step: the kept epoch's dev loss equals a fresh
    evaluate with a new cache exactly."""
    g, resolved = tiny_text_setup()
    cfg = TrainConfig(form="text", epochs=1, d=8, seed=0, batch_size=4).validate()
    result = train(cfg, g, resolved, resolved)
    prep = prepare_examples(resolved, result.vocab)
    cache = RelationEncodingCache(result.params.r_enc, result.vocab, g.texts)
    fresh = evaluate(g, result.params, prep, cfg, cache=cache)
    assert result.best_dev["mean_loss"] == fresh["mean_loss"]
    assert result.best_dev["overall"] == fresh["overall"]


def test_text_evaluate_without_a_cache_is_a_graph_error():
    g, resolved = tiny_text_setup()
    cfg = TrainConfig(form="text", d=8).validate()
    vocab = build_vocabulary(resolved, g)
    params = ModelParams(len(vocab), g.n, g.num_predicates, cfg)
    with pytest.raises(GraphError, match="relation encoding cache"):
        evaluate(g, params, prepare_examples(resolved, vocab), cfg)
