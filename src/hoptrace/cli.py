"""Command-line surface: gen, build-graph, train, eval, answer.

The generator and question loaders (hoptrace.data) and the YAML reader are
imported only by the commands that use them, so `answer` loads no YAML or
generator code.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure,
4 metrics below a --require threshold, 141 standard output closed by its
reader (what a shell reports for a process that SIGPIPE ends).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .encoder import TOPIC_RE, RelationEncodingCache, split_tokens
from .errors import DataError, GraphError, NumericError, UsageError
from .graph import (
    RelationGraph,
    add_reverse_relations,
    build_from_text_corpus,
    build_from_triples,
    load_corpus_jsonl,
    load_triples_tsv,
    mix_label_into_text,
)
from .model import forward, rank_answers
from .training import evaluate, load_checkpoint, prepare_examples, save_checkpoint, train

log = logging.getLogger("hoptrace")

EXIT_BROKEN_PIPE = 128 + 13  # 13 is SIGPIPE


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _omega_arg(text: str) -> int | None:
    if text.lower() in ("none", "inf"):
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'none', got {text!r}") from None


def _int_at_least(low: int):
    """An argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _fraction_arg(text: str) -> float:
    """A finite number in [0, 1]; NaN fails the comparison too."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


# train's config overrides: --batch-size sets batch_size, and so on.  Each
# defaults to argparse.SUPPRESS, so the Namespace holds a field only when
# its option is given
_TRAIN_OPTIONS = (
    ("T", int), ("d", int), ("lr", float), ("epochs", int),
    ("seed", int), ("head", str), ("aggregation", str), ("tau", float),
    ("batch_size", int), ("limit_train", float),
)


def _build_parser() -> _Parser:
    p = _Parser(prog="hoptrace", description=__doc__)
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--spec", help="YAML spec file (defaults used when omitted)")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=_int_at_least(0), help="override the spec seed")
    g.add_argument("--force", action="store_true", help="overwrite a non-empty out dir")

    b = sub.add_parser("build-graph", help="build and serialize a relation graph")
    b.add_argument("--triples", required=True, help="triples file: TSV, or head|relation|tail lines as in MetaQA's kb.txt")
    b.add_argument("--corpus", help="JSONL corpus: build a text graph from it (without it, a label graph)")
    b.add_argument("--out", required=True, help="graph file to write (binary)")
    b.add_argument("--no-reverse", action="store_true", help="skip reverse augmentation")
    b.add_argument("--mix-fraction", type=_fraction_arg,
                   help="mix this fraction of the triples into the text graph as one-word texts (needs --corpus)")
    b.add_argument("--mix-seed", type=_int_at_least(0), help="seed of the --mix-fraction sample (default 0)")

    t = sub.add_parser(
        "train",
        help="train a model",
        description="Train a model on --graph and write its run directory --out: checkpoint.bin, the whole"
        " model (its config, vocabulary and parameters), and train_log.jsonl, one line per epoch and split."
        "  The model takes the graph's form"
        " (label or text); a --config file that names the other form is a data error.  Training is"
        " deterministic for a seed, but a checkpoint reproduces bit for bit only at the same BLAS thread"
        " count (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS); the checkpoint's metadata"
        " records them under 'blas'.",
    )
    t.add_argument("--config", help="YAML config file")
    t.add_argument("--data", required=True, help="dataset directory from `gen`: qa_train.txt and qa_dev.txt,"
                   " one question<TAB>a1|a2|...[<TAB>hop] line per question")
    t.add_argument("--graph", required=True, help="serialized graph file")
    t.add_argument("--out", required=True, help="run directory: checkpoint.bin and train_log.jsonl")
    t.add_argument("--force", action="store_true")
    for name, typ in _TRAIN_OPTIONS:
        t.add_argument(f"--{name.replace('_', '-')}", type=typ, default=argparse.SUPPRESS)
    t.add_argument("--omega", type=_omega_arg, default=argparse.SUPPRESS,
                   help="integer cap or 'none' for unlimited")
    for flag, field in (("truncation", "use_truncation"), ("mask", "use_mask"), ("aux", "use_aux_hop_loss")):
        t.add_argument(f"--no-{flag}", action="store_false", dest=field, default=argparse.SUPPRESS)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--graph", required=True)
    e.add_argument("--questions", required=True, help="question file to score: one question<TAB>a1|a2|...[<TAB>hop]"
                   " line per question, the topic in [brackets]")
    e.add_argument("--out", help="write metrics JSON here as well")
    e.add_argument("--require", type=_fraction_arg, help="fail (exit 4) if overall hits@1 is below this")

    a = sub.add_parser("answer", help="answer one question and export its trace")
    a.add_argument("question", help="question string with the topic in [brackets]")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--graph", required=True)
    a.add_argument("--trace", help="write the reasoning trace JSON here")
    a.add_argument("--dot", help="write a Graphviz rendering here")
    a.add_argument("--top", type=_int_at_least(1), default=5)
    return p


# ---------------------------------------------------------------------------
# commands


def _cmd_gen(args) -> int:
    from .data import SyntheticSpec, generate_synthetic, write_dataset

    spec = SyntheticSpec.from_file(args.spec) if args.spec else SyntheticSpec()
    if args.seed is not None:
        spec.seed = args.seed
    data = generate_synthetic(spec)
    out = write_dataset(data, args.out, force=args.force)
    print(json.dumps(data.stats, indent=2, sort_keys=True))
    log.info("dataset written to %s", out)
    return 0


def _cmd_build_graph(args) -> int:
    mixing = args.mix_fraction is not None or args.mix_seed is not None
    if mixing and (args.corpus is None or args.mix_fraction is None):
        raise UsageError("--mix-fraction mixes triples into the text graph of --corpus, --mix-seed draws its sample:"
                         " give --corpus and --mix-fraction")
    triples = load_triples_tsv(args.triples)
    if args.corpus is None:
        g = build_from_triples(triples)
    else:
        names = [e for h, _, t in triples for e in (h, t)]
        g = build_from_text_corpus(load_corpus_jsonl(args.corpus), names)
    if not args.no_reverse:
        g = add_reverse_relations(g)
    if args.mix_fraction is not None:
        g = mix_label_into_text(g, triples, args.mix_fraction, args.mix_seed or 0)
    g.save(args.out)
    print(
        json.dumps(
            {
                "form": g.form,
                "entities": g.n,
                "predicates": g.num_predicates,
                "edges": g.num_edges,
                "text_relations": g.num_text_relations,
                "reversed": g.reversed,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_record() -> dict:
    """numpy's BLAS library and the thread settings it ran under, as found:
    the summation order of a matmul, and so a trained checkpoint's bits,
    can change with the thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": {v: os.environ.get(v) for v in _BLAS_THREAD_VARS},
    }


def _cmd_train(args) -> int:
    from .data import load_questions, resolve_examples

    g = RelationGraph.load(args.graph)
    overrides = {f.name: getattr(args, f.name) for f in fields(TrainConfig) if hasattr(args, f.name)}
    cfg = TrainConfig.from_sources(args.config, overrides, form=g.form)
    if cfg.form != g.form:
        raise DataError(f"config form {cfg.form!r} does not match graph form {g.form!r}")
    data_dir = Path(args.data)
    train_ex = resolve_examples(load_questions(data_dir / "qa_train.txt"), g)
    dev_ex = resolve_examples(load_questions(data_dir / "qa_dev.txt"), g)
    if not train_ex or not dev_ex:
        raise DataError("no resolvable training or dev examples")
    above = [ex for ex in train_ex if (ex.hop or 0) > cfg.T]
    if above and cfg.use_aux_hop_loss:  # the hop loss has no step for them: refuse before --out is made
        raise DataError(f"{data_dir / 'qa_train.txt'}: {len(above)} of {len(train_ex)} questions have a gold hop"
                        f" above T={cfg.T}, the first {above[0].question!r} (hop {above[0].hop}):"
                        " train with a larger --T, or with --no-aux")
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise DataError(f"{out} exists and is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)

    result = train(cfg, g, train_ex, dev_ex, log_path=out / "train_log.jsonl")
    save_checkpoint(
        out / "checkpoint.bin",
        result.params,
        cfg,
        result.vocab,
        extra={
            "dev_hits1": result.best_dev.get("overall"),
            "dev_per_hop": result.best_dev.get("per_hop"),
            "blas": _blas_record(),
        },
    )
    print(
        json.dumps(
            {
                "dev_hits1": result.best_dev.get("overall"),
                "dev_per_hop": result.best_dev.get("per_hop"),
                "best_epoch": result.best_dev.get("epoch"),
                "checkpoint": str(out / "checkpoint.bin"),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _load_model(args):
    params, meta = load_checkpoint(args.checkpoint)
    vocab = meta["vocab"]
    g = RelationGraph.load(args.graph)
    cfg = TrainConfig(**meta["config"]).validate()
    if g.form != cfg.form:
        raise DataError(f"graph form {g.form!r} does not match checkpoint form {cfg.form!r}")
    # an unseen token encodes as [UNK], which no text of the training graph holds
    unseen = [text for text in g.texts if not all(t in vocab for t in split_tokens(text))]
    if unseen:
        raise DataError(
            f"{args.graph}: {len(unseen)} of {len(g.texts)} relation texts hold tokens the checkpoint's vocabulary"
            f" lacks, the first {unseen[0]!r}: train a model on this graph"
        )
    cache = None
    if g.form != "label":
        cache = RelationEncodingCache(params.r_enc, vocab, g.texts)
    return params, vocab, g, cfg, cache


def _cmd_eval(args) -> int:
    from .data import load_questions, resolve_examples

    params, vocab, g, cfg, cache = _load_model(args)
    examples = resolve_examples(load_questions(args.questions), g)
    if not examples:
        raise DataError(f"{args.questions}: no resolvable examples")
    prepared = prepare_examples(examples, vocab)
    metrics = evaluate(g, params, prepared, cfg, cache=cache)
    metrics["per_hop"] = {str(k): v for k, v in metrics["per_hop"].items()}
    metrics["config"] = cfg.to_dict()
    metrics["checkpoint"] = str(args.checkpoint)
    # the file and the threshold come before the print: a reader that has
    # gone away ends the command there
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(metrics, f, indent=2, sort_keys=True)
            f.write("\n")
    below = args.require is not None and metrics["overall"] < args.require
    if below:
        log.error("hits@1 %.4f below required %.4f", metrics["overall"], args.require)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 4 if below else 0


def _cmd_answer(args) -> int:
    params, vocab, g, cfg, cache = _load_model(args)
    names = TOPIC_RE.findall(args.question)
    if not names:
        raise UsageError("question must mark its topic entity in [brackets]")
    topics = []
    for name in names:
        eid = g.entities.get(name)
        if eid is None:
            raise DataError(f"unknown topic entity {name!r}")
        topics.append(eid)
    clean = args.question.replace("[", "").replace("]", "")
    tokens = vocab.encode(clean)
    res = forward(g, tokens, topics, params, cfg, cache=cache, question=args.question, want_trace=True)
    # json.dumps would print a NaN score as the bare token NaN, which no JSON
    # reader takes; a topic with no edges leaves the answer scores at 0 even
    # when the relation scores are NaN, so those are checked too
    scored = [res.final.data] + [s.relation_scores for s in res.trace.steps]
    if not all(np.all(np.isfinite(x)) for x in scored):
        raise NumericError("non-finite answer or relation scores")
    ranked, degenerate = rank_answers(res.final.data)
    answers = [
        {"entity": g.entities.name(int(i)), "score": float(res.final.data[i])}
        for i in ranked[: args.top]
    ]
    print(json.dumps({"question": args.question, "answers": answers, "degenerate": degenerate}, indent=2))
    if args.trace:
        res.trace.save_json(args.trace, g, vocab)
        log.info("trace written to %s", args.trace)
    if args.dot:
        res.trace.save_dot(args.dot, g)
        log.info("dot written to %s", args.dot)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "build-graph": _cmd_build_graph,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "answer": _cmd_answer,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        return _COMMANDS[args.cmd](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, GraphError, OSError) as e:
        if isinstance(e, OSError) and e.filename is None:  # no named path, as a closed stdout: see entry()
            raise
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


def entry():
    try:
        code = main()
        sys.stdout.flush()  # so a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away (``hoptrace eval | head -1``): stop quietly, and
        # point stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
