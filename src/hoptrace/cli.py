"""Command-line surface: gen, build-graph, train, eval, answer.

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
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .data import (
    TOPIC_RE,
    SyntheticSpec,
    generate_synthetic,
    load_questions,
    resolve_examples,
    write_dataset,
)
from .encoder import RelationEncodingCache, Vocabulary
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
from .training import (
    evaluate,
    load_checkpoint,
    prepare_examples,
    save_checkpoint,
    train,
    vocab_sha256,
)

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


def _build_parser() -> _Parser:
    p = _Parser(prog="hoptrace", description=__doc__)
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--spec", help="YAML spec file (defaults used when omitted)")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, help="override the spec seed")
    g.add_argument("--force", action="store_true", help="overwrite a non-empty out dir")

    b = sub.add_parser("build-graph", help="build and serialize a relation graph")
    b.add_argument("--form", choices=("label", "text", "mixed"), default="label")
    b.add_argument("--triples", required=True, help="TSV triples file")
    b.add_argument("--corpus", help="JSONL corpus (text/mixed forms)")
    b.add_argument("--out", required=True, help="graph file to write")
    b.add_argument("--no-reverse", action="store_true", help="skip reverse augmentation")
    b.add_argument("--mix-fraction", type=float, default=0.5)
    b.add_argument("--mix-seed", type=int, default=0)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config", help="YAML config file")
    t.add_argument("--data", required=True, help="dataset directory from `gen`")
    t.add_argument("--graph", required=True, help="serialized graph file")
    t.add_argument("--out", required=True, help="output directory for artifacts")
    t.add_argument("--force", action="store_true")
    for name, typ in (
        ("form", str), ("T", int), ("d", int), ("lr", float), ("epochs", int),
        ("seed", int), ("head", str), ("aggregation", str), ("tau", float),
        ("batch-size", int), ("limit-train", float),
    ):
        t.add_argument(f"--{name}", type=typ, dest=name.replace("-", "_"))
    t.add_argument("--omega", type=_omega_arg, default=argparse.SUPPRESS,
                   help="integer cap or 'none' for unlimited")
    t.add_argument("--no-truncation", action="store_true")
    t.add_argument("--no-mask", action="store_true")
    t.add_argument("--no-aux", action="store_true")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--graph", required=True)
    e.add_argument("--questions", required=True, help="question file to score")
    e.add_argument("--vocab", help="vocabulary file (default: sibling vocab.txt)")
    e.add_argument("--out", help="write metrics JSON here as well")
    e.add_argument("--require", type=float, help="fail (exit 4) if overall hits@1 is below this")

    a = sub.add_parser("answer", help="answer one question and export its trace")
    a.add_argument("question", help="question string with the topic in [brackets]")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--graph", required=True)
    a.add_argument("--vocab", help="vocabulary file (default: sibling vocab.txt)")
    a.add_argument("--trace", help="write the reasoning trace JSON here")
    a.add_argument("--dot", help="write a Graphviz rendering here")
    a.add_argument("--top", type=int, default=5)
    return p


# ---------------------------------------------------------------------------
# commands


def _cmd_gen(args) -> int:
    spec = SyntheticSpec.from_file(args.spec) if args.spec else SyntheticSpec()
    if args.seed is not None:
        spec.seed = args.seed
    data = generate_synthetic(spec)
    out = write_dataset(data, args.out, force=args.force)
    print(json.dumps(data.stats, indent=2, sort_keys=True))
    log.info("dataset written to %s", out)
    return 0


def _cmd_build_graph(args) -> int:
    triples = load_triples_tsv(args.triples)
    if args.form == "label":
        g = build_from_triples(triples)
    else:
        if not args.corpus:
            raise UsageError("--corpus is required for text/mixed graphs")
        names = [e for h, _, t in triples for e in (h, t)]
        g = build_from_text_corpus(load_corpus_jsonl(args.corpus), names)
    if not args.no_reverse:
        g = add_reverse_relations(g)
    if args.form == "mixed":
        g = mix_label_into_text(g, triples, args.mix_fraction, args.mix_seed)
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


def _overrides_from_args(args) -> dict:
    keys = ("form", "T", "d", "lr", "epochs", "seed", "head", "aggregation",
            "tau", "batch_size", "limit_train")
    ov = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    if hasattr(args, "omega"):
        ov["omega"] = args.omega
    if args.no_truncation:
        ov["use_truncation"] = False
    if args.no_mask:
        ov["use_mask"] = False
    if args.no_aux:
        ov["use_aux_hop_loss"] = False
    return ov


def _cmd_train(args) -> int:
    cfg = TrainConfig.from_sources(args.config, _overrides_from_args(args))
    cfg.data_dir, cfg.graph_path, cfg.out_dir = args.data, args.graph, args.out
    g = RelationGraph.load(args.graph)
    if cfg.form != g.form:
        raise DataError(f"config form {cfg.form!r} does not match graph form {g.form!r}")
    data_dir = Path(args.data)
    train_ex = resolve_examples(load_questions(data_dir / "qa_train.txt"), g)
    dev_ex = resolve_examples(load_questions(data_dir / "qa_dev.txt"), g)
    if not train_ex or not dev_ex:
        raise DataError("no resolvable training or dev examples")
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise DataError(f"{out} exists and is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)

    result = train(cfg, g, train_ex, dev_ex, log_path=out / "train_log.jsonl")
    result.vocab.save(out / "vocab.txt")
    save_checkpoint(
        out / "checkpoint.bin",
        result.params,
        cfg,
        result.vocab,
        extra={"dev_hits1": result.best_dev.get("overall"), "dev_per_hop": result.best_dev.get("per_hop")},
    )
    with open(out / "config.json", "w", encoding="utf-8") as f:
        json.dump(cfg.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
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
    vocab_path = args.vocab or Path(args.checkpoint).with_name("vocab.txt")
    vocab = Vocabulary.load(vocab_path)
    if vocab_sha256(vocab) != meta.get("vocab_sha256"):
        raise DataError(f"{vocab_path}: vocabulary does not match the checkpoint")
    g = RelationGraph.load(args.graph)
    cfg = TrainConfig(**meta["config"]).validate()
    if g.form != cfg.form:
        raise DataError(f"graph form {g.form!r} does not match checkpoint form {cfg.form!r}")
    cache = None
    if g.form != "label":
        cache = RelationEncodingCache(params.r_enc, vocab, g.texts)
    return params, meta, vocab, g, cfg, cache


def _cmd_eval(args) -> int:
    params, meta, vocab, g, cfg, cache = _load_model(args)
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
    params, meta, vocab, g, cfg, cache = _load_model(args)
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
    except (DataError, GraphError, FileNotFoundError) as e:
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
