"""The four workloads: their inputs and one timed round.

Every round repeats the same operations on the same seeded inputs.  It sets
up the way the command line does: generate and write the dataset, build,
reverse and save the graph, and load it and the questions back.  It then
trains a fixed budget from the seeded initial parameters and saves the
checkpoint; the serving workloads count that training as set-up and load the
checkpoint back before serving it.  Last it evaluates a fixed dev sample under
no-grad and runs one cold `hoptrace answer` subprocess.

Every call into hoptrace goes through a module attribute (``data.x``,
``training.y``) so the traced run's wrappers see it.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hoptrace import data, encoder, graph, training
from calibrate import Clock
from hoptrace.config import TrainConfig


@dataclass(frozen=True)
class Workload:
    name: str
    form: str  # graph form: label or text
    scale: int  # multiplier on the movie and person pools of the default spec
    batch_size: int
    train_batches: int  # trained from the seeded initial parameters every round
    eval_examples: int  # dev examples evaluated per round
    serve: bool  # training is set-up: its checkpoint is loaded back and served
    aggregation: str = "sum"
    eval_slice: int | None = None  # dev examples per timed `evaluate` call; None: all in one


WORKLOADS = {
    w.name: w
    for w in (
        Workload("label-train", "label", 1, 64, 4, 256, serve=False),
        Workload("text-train", "text", 1, 16, 8, 256, serve=False),
        Workload("label-large-serve", "label", 10, 64, 1, 192, serve=True, eval_slice=64),
        Workload("label-max-eval", "label", 1, 16, 3, 64, serve=True, aggregation="max", eval_slice=8),
    )
}


def spec_for(w: Workload, seed: int) -> data.SyntheticSpec:
    s = w.scale
    return data.SyntheticSpec(movies=200 * s, directors=60 * s, writers=60 * s, actors=120 * s, seed=seed)


def config_for(w: Workload, seed: int) -> TrainConfig:
    return TrainConfig(
        form=w.form, seed=seed, epochs=1, batch_size=w.batch_size, aggregation=w.aggregation
    ).validate()


@dataclass
class Prepared:
    """The inputs of one round, as the program wrote and read them back."""

    work: Path
    dataset: data.SyntheticDataset
    g: graph.RelationGraph
    graph_path: Path
    checkpoint: Path
    vocab: encoder.Vocabulary
    cfg: TrainConfig
    train_examples: list  # resolved examples trained on
    dev_examples: list  # resolved dev sample evaluated
    dev_prep: list
    question: str  # what the cold `answer` asks


def _sample(rng, items, k):
    idx = np.sort(rng.choice(len(items), size=min(k, len(items)), replace=False))
    return [items[i] for i in idx]


def prepare(w: Workload, seed: int, work: Path, clock: Clock) -> Prepared:
    """Generate and write the dataset, build, reverse and save the graph, and
    read both back the way the command line does."""
    work.mkdir(parents=True, exist_ok=True)
    data_dir = work / "data"
    graph_path = work / "graph.txt"

    with clock.phase("gen"):
        ds = data.generate_synthetic(spec_for(w, seed))
        data.write_dataset(ds, data_dir, force=True)

    with clock.phase("build"):
        triples = graph.load_triples_tsv(data_dir / "triples.tsv")
        if w.form == "label":
            g = graph.build_from_triples(triples)
        else:
            names = list(dict.fromkeys(e for h, _p, t in triples for e in (h, t)))
            g = graph.build_from_text_corpus(graph.load_corpus_jsonl(data_dir / "corpus.jsonl"), names)
        graph.add_reverse_relations(g).save(graph_path)

    with clock.phase("load"):
        return _load(w, seed, work, ds, graph_path)


def _load(w, seed, work, ds, graph_path) -> Prepared:
    data_dir = work / "data"
    g = graph.RelationGraph.load(graph_path)
    train_all = data.resolve_examples(data.load_questions(data_dir / "qa_train.txt"), g)
    dev_all = data.resolve_examples(data.load_questions(data_dir / "qa_dev.txt"), g)
    vocab = training.build_vocabulary(train_all, g)
    vocab.save(work / "vocab.txt")
    rng = np.random.default_rng(seed)
    train_examples = _sample(rng, train_all, w.train_batches * w.batch_size)
    dev_examples = _sample(rng, dev_all, w.eval_examples)
    return Prepared(
        work=work,
        dataset=ds,
        g=g,
        graph_path=graph_path,
        checkpoint=work / "checkpoint.bin",
        vocab=vocab,
        cfg=config_for(w, seed),
        train_examples=train_examples,
        dev_examples=dev_examples,
        dev_prep=training.prepare_examples(dev_examples, vocab),
        question=dev_examples[0].question,
    )


def relation_cache(p: Prepared, params):
    if p.g.form == "label":
        return None
    return encoder.RelationEncodingCache(params.r_enc, p.vocab, p.g.texts)


def answer_args(p: Prepared) -> list[str]:
    return [
        "answer",
        p.question,
        "--checkpoint",
        str(p.checkpoint),
        "--graph",
        str(p.graph_path),
        "--trace",
        str(p.work / "answer_trace.json"),
    ]


@dataclass
class RoundResult:
    clock: Clock  # phases: gen, build, load, train, checkpoint, eval, answer
    dev_hits1: float
    dev_loss: float
    answer_returncode: int
    answer_stdout: str

    def setup_s(self, w: Workload) -> float:
        if w.serve:
            return self.clock.scaled("gen", "build", "load", "train", "checkpoint")
        return self.clock.scaled("gen", "build", "load")


def _evaluate(w: Workload, p: Prepared, params, cache, cut):
    """`training.evaluate` on the dev sample, in slices of ``w.eval_slice``
    examples timed apart; hits@1 and mean loss over the whole sample."""
    size = w.eval_slice or len(p.dev_prep)
    hits = loss = 0.0
    for lo in range(0, len(p.dev_prep), size):
        if lo:
            cut()
        ev = training.evaluate(p.g, params, p.dev_prep[lo : lo + size], p.cfg, cache=cache)
        hits += ev["overall"] * ev["count"]
        loss += ev["mean_loss"] * ev["count"]
    return hits / len(p.dev_prep), loss / len(p.dev_prep)


def run_round(w: Workload, seed: int, work: Path, clock: Clock, answer_cmd: list[str], env: dict, cwd: Path):
    """Set up, train, evaluate, answer cold.  Returns the result and the
    round's inputs and trained parameters, for the checks."""
    p = prepare(w, seed, work, clock)
    with clock.phase("train"):
        params = training.train(p.cfg, p.g, p.train_examples, [], vocab=p.vocab).params
    with clock.phase("checkpoint"):
        training.save_checkpoint(p.checkpoint, params, p.cfg, p.vocab)
        if w.serve:
            params, _meta = training.load_checkpoint(p.checkpoint)

    cache = relation_cache(p, params)
    with clock.phase("eval") as cut:
        dev_hits1, dev_loss = _evaluate(w, p, params, cache, cut)

    with clock.phase("answer"):
        proc = subprocess.run(
            answer_cmd + answer_args(p), env=env, cwd=cwd, capture_output=True, text=True, timeout=120
        )
    result = RoundResult(clock, dev_hits1, dev_loss, proc.returncode, proc.stdout)
    return result, p, params
