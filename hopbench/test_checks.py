"""The benchmark's own tests: every correctness check passes on the program's
real outputs and fails once its input is corrupted on purpose.

    python3 -m pytest hopbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from hoptrace import autodiff, data, graph, kernels, model, training  # noqa: E402
from hoptrace.config import TrainConfig  # noqa: E402
from hoptrace.encoder import RelationEncodingCache  # noqa: E402

TINY = dict(movies=20, directors=6, writers=6, actors=12, years=5, genres=3, languages=2, questions_per_hop=40)


@pytest.fixture(scope="module")
def dataset():
    return data.generate_synthetic(data.SyntheticSpec(seed=3, **TINY))


def label_graph(ds):
    return graph.add_reverse_relations(graph.build_from_triples(ds.triples))


def text_graph(ds):
    names = list(dict.fromkeys(e for h, _p, t in ds.triples for e in (h, t)))
    return graph.add_reverse_relations(graph.build_from_text_corpus(ds.corpus, names))


class Model:
    """A seeded untrained model over one graph, with prepared dev examples."""

    def __init__(self, ds, g, **cfg):
        self.g = g
        self.cfg = TrainConfig(form=g.form, d=8, seed=1, **cfg).validate()
        train = data.resolve_examples(ds.splits["train"], g)
        self.vocab = training.build_vocabulary(train, g)
        self.params = model.ModelParams(len(self.vocab), g.n, g.num_predicates, self.cfg)
        self.cache = RelationEncodingCache(self.params.r_enc, self.vocab, g.texts) if g.form != "label" else None
        self.dev = training.prepare_examples(data.resolve_examples(ds.splits["dev"], g), self.vocab)

    def forward(self, ex, cfg=None):
        with autodiff.no_grad():
            return model.forward(self.g, ex.tokens, ex.topic, self.params, cfg or self.cfg, cache=self.cache)


def mutated(arr, i=0, delta=1e-6):
    out = np.array(arr, dtype=np.float64, copy=True)
    out.reshape(-1)[i] += delta
    return out


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("build", [label_graph, text_graph])
def test_graph_fails_on_a_dropped_edge(dataset, build):
    g = build(dataset)
    checks.check_graph(g, dataset.triples)
    if g.form == "label":
        edges = np.stack([g.edge_heads, g.edge_preds, g.edge_tails], axis=1)[1:]
        broken = graph.RelationGraph(g.entities, g.predicates, edges, [], [], "label", reversed_=True)
    else:
        trels = np.stack([g.trel_heads, g.trel_tails, g.trel_text], axis=1)[1:]
        broken = graph.RelationGraph(g.entities, g.predicates, [], g.texts, trels, "text", reversed_=True)
    with pytest.raises(checks.CheckFailed):
        checks.check_graph(broken, dataset.triples)


def test_gold_answers_fail_on_a_swapped_answer(dataset):
    examples = [(ex.topic, ex.answers, ex.hop) for ex in dataset.splits["dev"]]
    checks.check_gold_answers(dataset.triples, examples)
    topic, answers, hop = examples[0]
    swapped = (topic, ("Nobody_0",) + tuple(answers[1:]), hop)
    with pytest.raises(checks.CheckFailed):
        checks.check_gold_answers(dataset.triples, [swapped])


# -- model outputs ---------------------------------------------------------------


@pytest.mark.parametrize("build,aggregation", [(label_graph, "sum"), (label_graph, "max"), (text_graph, "sum")])
def test_transfer_steps_fail_on_a_nudged_score(dataset, build, aggregation):
    m = Model(dataset, build(dataset), aggregation=aggregation)
    ex = m.dev[0]
    steps = m.forward(ex).trace.steps
    checks.check_transfer_steps(m.g, m.cfg, [ex.topic], steps)
    hit = int(np.argmax(steps[1].entity_scores))
    steps[1].entity_scores = mutated(steps[1].entity_scores, hit, 1e-7)
    with pytest.raises(checks.CheckFailed):
        checks.check_transfer_steps(m.g, m.cfg, [ex.topic], steps)


def test_selection_fails_on_a_dropped_relation(dataset):
    m = Model(dataset, text_graph(dataset))
    ex = m.dev[0]
    steps = m.forward(ex).trace.steps
    steps[0].relation_ids = steps[0].relation_ids[1:]
    steps[0].relation_scores = steps[0].relation_scores[1:]
    with pytest.raises(checks.CheckFailed, match="brute force"):
        checks.check_transfer_steps(m.g, m.cfg, [ex.topic], steps)


@pytest.mark.parametrize("build", [label_graph, text_graph])
def test_hop_mixture_fails_on_a_nudged_final(dataset, build):
    m = Model(dataset, build(dataset))
    trace = m.forward(m.dev[0]).trace
    checks.check_hop_mixture(trace)
    trace.final = mutated(trace.final, int(np.argmax(trace.final)), 1e-9)
    with pytest.raises(checks.CheckFailed):
        checks.check_hop_mixture(trace)


@pytest.mark.parametrize("build", [label_graph, text_graph])
def test_batch_path_and_hits(dataset, build):
    m = Model(dataset, build(dataset))
    sample = m.dev[:12]
    with autodiff.no_grad():
        rows = model.forward_batch(
            m.g, [e.tokens for e in sample], [e.topic for e in sample], m.params, m.cfg, cache=m.cache
        )
        reported = training.evaluate(m.g, m.params, sample, m.cfg, cache=m.cache)["overall"]
    finals = [r.final.data for r in rows]
    singles = [m.forward(e).final.data for e in sample]
    checks.check_batch_matches_forward(finals, singles)
    checks.check_hits(finals, [e.answers for e in sample], reported)
    with pytest.raises(checks.CheckFailed):
        checks.check_batch_matches_forward(finals, [mutated(singles[0], 0, 1e-9)] + singles[1:])
    # swap the first example's gold set for one that makes its hit a miss or the reverse
    top = checks.top_answer(finals[0])
    flipped = [frozenset() if top in sample[0].answers else frozenset({top})] + [e.answers for e in sample[1:]]
    with pytest.raises(checks.CheckFailed):
        checks.check_hits(finals, flipped, reported)


def test_top_answer_breaks_ties_to_the_lowest_id():
    assert checks.top_answer(np.array([0.2, 0.5, 0.5])) == 1
    assert checks.top_answer(np.zeros(3)) is None


def test_gradients_fail_on_a_wrong_derivative(dataset):
    m = Model(dataset, label_graph(dataset), use_truncation=False)
    batch = m.dev[:3]
    w = m.params.pred_w

    def loss():
        res = model.forward_batch(m.g, [e.tokens for e in batch], [e.topic for e in batch], m.params, m.cfg)
        total = None
        for ex, r in zip(batch, res):
            lb = training.compute_loss(r.final, training.build_target(ex.answers, m.g.n), r.c, ex.gold_hop)
            total = lb.total if total is None else total + lb.total
        return total

    loss().backward()
    idx = np.unravel_index(int(np.argmax(np.abs(w.grad))), w.grad.shape)
    keep = float(w.data[idx])
    with autodiff.no_grad():
        w.data[idx] = keep + 1e-6
        up = loss().item()
        w.data[idx] = keep - 1e-6
        down = loss().item()
    w.data[idx] = keep
    numeric = {idx: (up - down) / 2e-6}
    checks.check_gradients({idx: float(w.grad[idx])}, numeric)
    with pytest.raises(checks.CheckFailed):
        checks.check_gradients({idx: float(w.grad[idx]) * 1.01}, numeric)


def test_checkpoint_roundtrip_fails_on_a_changed_block(dataset, tmp_path):
    m = Model(dataset, label_graph(dataset))
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    training.save_checkpoint(first, m.params, m.cfg, m.vocab)
    loaded, meta = training.load_checkpoint(first)
    training.save_checkpoint(second, loaded, TrainConfig(**meta["config"]), m.vocab)
    saved = {k: t.data for k, t in m.params.named().items()}
    back = {k: t.data for k, t in loaded.named().items()}
    checks.check_checkpoint_roundtrip(saved, back, first.read_bytes(), second.read_bytes())
    back["hop.w"] = mutated(back["hop.w"], 0, 1e-12)
    with pytest.raises(checks.CheckFailed):
        checks.check_checkpoint_roundtrip(saved, back, first.read_bytes(), second.read_bytes())
    with pytest.raises(checks.CheckFailed):
        checks.check_checkpoint_roundtrip(saved, saved, first.read_bytes(), second.read_bytes()[:-1])


def test_answer_cli_checks():
    payload = {"answers": [{"entity": "a", "score": 0.9}, {"entity": "b", "score": 0.4}]}
    checks.check_answer_cli(0, json.dumps(payload), "a")
    with pytest.raises(checks.CheckFailed):
        checks.check_answer_cli(2, json.dumps(payload), "a")
    with pytest.raises(checks.CheckFailed):
        checks.check_answer_cli(0, "", "a")
    with pytest.raises(checks.CheckFailed):
        checks.check_answer_cli(0, json.dumps(payload), "b")
    unordered = {"answers": list(reversed(payload["answers"]))}
    with pytest.raises(checks.CheckFailed):
        checks.check_answer_cli(0, json.dumps(unordered), "b")


def test_run_checks_fail_on_a_crashed_answer(tmp_path):
    w = workloads.Workload("tiny-serve", "label", 1, 4, 1, 8, serve=True)
    clock = calibrate.Clock(calibrate.Probe())
    cmd = [sys.executable, "-m", "hoptrace"]
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    r, p, params = workloads.run_round(w, 1, tmp_path / "work", clock, cmd, env, BENCH.parent)
    assert verify.run_checks(w, p, params, [r])["answer_cli"] == "ok"
    crashed = replace(r, answer_returncode=2, answer_stdout="")
    outcome = verify.run_checks(w, p, params, [r, crashed])
    assert outcome["answer_cli"] != "ok"
    assert outcome["rounds_repeat"] != "ok"


def test_kernels_fail_on_a_nudged_output(dataset):
    g = label_graph(dataset)
    rng = np.random.default_rng(0)
    B, E, n = 4, g.num_edges, g.n
    args = (g.edge_heads, g.edge_tails, rng.random((B, E)), rng.random((B, n)), n)
    out = kernels.push_batch_forward(*args)
    checks.check_kernel("push_batch_forward", out, args)
    with pytest.raises(checks.CheckFailed):
        checks.check_kernel("push_batch_forward", mutated(out, int(np.argmax(out)), 1e-9), args)


def test_repeats_fail_on_a_changed_round():
    checks.check_repeats([(0.5, 2.0), (0.5, 2.0)], "x")
    with pytest.raises(checks.CheckFailed):
        checks.check_repeats([(0.5, 2.0), (0.5, 2.0000001)], "x")


# -- the benchmark itself ------------------------------------------------------


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_names = (
        [n + "_s" for n in spans.SPAN_NAMES] + ["autodiff.backward_self_s", "autodiff.tape_nodes"]
        + spans.COUNT_NAMES + ["tracing_overhead_pct", "dev_hits1", "dev_loss"]
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(layer_names)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "hopbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "hopbench/run.py", "--workload", "label-train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
