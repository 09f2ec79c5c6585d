"""End-to-end command-line flows over a miniature dataset.

One module-scoped workspace runs gen -> build-graph -> train once; the
individual tests poke at the artifacts and exit codes.
"""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hoptrace import cli
from hoptrace.cli import main
from hoptrace.config import TrainConfig
from hoptrace.data import load_questions
from hoptrace.encoder import Vocabulary
from hoptrace.graph import RelationGraph
from hoptrace.training import load_checkpoint, save_checkpoint

SRC = str(Path(__file__).resolve().parent.parent / "src")

SPEC_YAML = """\
movies: 24
directors: 8
writers: 8
actors: 12
years: 6
genres: 4
languages: 3
questions_per_hop: 80
ambiguous_fraction: 0.2
duplicate_movie_pairs: 1
seed: 3
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.yaml"
    spec.write_text(SPEC_YAML)
    assert main(["gen", "--spec", str(spec), "--out", str(root / "data")]) == 0
    assert (
        main(
            [
                "build-graph",
                "--triples", str(root / "data" / "triples.tsv"),
                "--out", str(root / "g_label.txt"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "build-graph",
                "--form", "text",
                "--triples", str(root / "data" / "triples.tsv"),
                "--corpus", str(root / "data" / "corpus.jsonl"),
                "--out", str(root / "g_text.txt"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                "--data", str(root / "data"),
                "--graph", str(root / "g_label.txt"),
                "--out", str(root / "run"),
                "--epochs", "2",
                "--d", "16",
                "--seed", "0",
            ]
        )
        == 0
    )
    return root


# -- gen -------------------------------------------------------------------------


def test_gen_writes_expected_files(ws):
    names = [
        "triples.tsv", "corpus.jsonl", "manifest.json",
        "qa_train.txt", "qa_dev.txt", "qa_test.txt",
        "qa_train_hops.txt", "ambiguous_eval.txt", "qa_dup.txt",
    ]
    for name in names:
        assert (ws / "data" / name).exists(), name


def test_gen_is_deterministic(ws, tmp_path):
    assert main(["gen", "--spec", str(ws / "spec.yaml"), "--out", str(tmp_path / "d2")]) == 0
    for name in ("triples.tsv", "qa_train.txt", "corpus.jsonl"):
        assert (tmp_path / "d2" / name).read_bytes() == (ws / "data" / name).read_bytes()


def test_gen_seed_override_changes_data(ws, tmp_path):
    args = ["gen", "--spec", str(ws / "spec.yaml"), "--out", str(tmp_path / "d3"), "--seed", "99"]
    assert main(args) == 0
    assert (tmp_path / "d3" / "triples.tsv").read_bytes() != (ws / "data" / "triples.tsv").read_bytes()


def test_gen_refuses_nonempty_dir(ws):
    assert main(["gen", "--spec", str(ws / "spec.yaml"), "--out", str(ws / "data")]) == 2


def test_gen_bad_spec_file(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("movies: 24\nnot_a_knob: 1\n")
    assert main(["gen", "--spec", str(bad), "--out", str(tmp_path / "out")]) == 2


# -- build-graph -------------------------------------------------------------------


def test_built_label_graph_loads(ws):
    g = RelationGraph.load(ws / "g_label.txt")
    assert g.form == "label"
    assert g.reversed
    assert g.num_edges > 0


def test_built_text_graph_loads(ws):
    g = RelationGraph.load(ws / "g_text.txt")
    assert g.form == "text"
    assert g.num_text_relations > 0


def test_build_graph_no_reverse(ws, tmp_path):
    out = tmp_path / "g.txt"
    args = [
        "build-graph",
        "--triples", str(ws / "data" / "triples.tsv"),
        "--out", str(out),
        "--no-reverse",
    ]
    assert main(args) == 0
    assert not RelationGraph.load(out).reversed


def test_build_graph_mixed(ws, tmp_path):
    out = tmp_path / "g.txt"
    args = [
        "build-graph",
        "--form", "mixed",
        "--triples", str(ws / "data" / "triples.tsv"),
        "--corpus", str(ws / "data" / "corpus.jsonl"),
        "--out", str(out),
        "--mix-fraction", "0.5",
    ]
    assert main(args) == 0
    g = RelationGraph.load(out)
    assert g.form == "mixed"
    assert g.num_text_relations > RelationGraph.load(ws / "g_text.txt").num_text_relations


def test_build_graph_text_requires_corpus(ws, tmp_path):
    args = [
        "build-graph",
        "--form", "text",
        "--triples", str(ws / "data" / "triples.tsv"),
        "--out", str(tmp_path / "g.txt"),
    ]
    assert main(args) == 1


def test_missing_triples_file_is_data_error(tmp_path):
    args = ["build-graph", "--triples", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "g.txt")]
    assert main(args) == 2


@pytest.mark.parametrize("damaged", ["triples.tsv", "corpus.jsonl"])
def test_build_graph_input_not_utf8_is_data_error(ws, tmp_path, capsys, damaged):
    for name in ("triples.tsv", "corpus.jsonl"):
        raw = (ws / "data" / name).read_bytes()
        (tmp_path / name).write_bytes(raw + b"\xff\n" if name == damaged else raw)
    args = ["build-graph", "--form", "text", "--triples", str(tmp_path / "triples.tsv")]
    args += ["--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "g.txt")]
    capsys.readouterr()
    assert main(args) == 2
    assert "not UTF-8" in _data_error_line(capsys)


# -- usage ---------------------------------------------------------------------


def test_no_subcommand_is_usage_error():
    assert main([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def _train_args(ws, tmp_path, *extra):
    return [
        "train",
        "--data", str(ws / "data"),
        "--graph", str(ws / "g_label.txt"),
        "--out", str(tmp_path / "run"),
        *extra,
    ]


def _usage_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    return err


def test_unknown_config_key_is_usage_error(ws, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("epochs: 1\nwidgets: 3\n")
    capsys.readouterr()
    assert main(_train_args(ws, tmp_path, "--config", str(cfg))) == 1
    assert "widgets" in _usage_error_line(capsys)


@pytest.mark.parametrize(
    "text, says",
    [(b'epochs: "x"\n', "wrong type"), (b"epochs: [1\n", "not valid YAML"), (b"epochs: \xff\n", "not UTF-8")],
    ids=["wrong-type", "not-yaml", "not-utf8"],
)
def test_unreadable_config_file_is_usage_error(ws, tmp_path, capsys, text, says):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(text)
    capsys.readouterr()
    assert main(_train_args(ws, tmp_path, "--config", str(cfg))) == 1
    assert says in _usage_error_line(capsys)


@pytest.mark.parametrize(
    "text, says",
    [(b'movies: "x"\n', "wrong type"), (b"movies: [1\n", "not valid YAML"), (b"movies: \xff\n", "not UTF-8")],
    ids=["wrong-type", "not-yaml", "not-utf8"],
)
def test_bad_spec_file_is_data_error(tmp_path, capsys, text, says):
    spec = tmp_path / "spec.yaml"
    spec.write_bytes(text)
    capsys.readouterr()
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2
    assert says in _data_error_line(capsys)


def test_invalid_config_value_is_usage_error(ws, tmp_path, capsys):
    capsys.readouterr()
    assert main(_train_args(ws, tmp_path, "--tau", "1.5")) == 1
    assert "tau" in _usage_error_line(capsys)


@pytest.mark.parametrize("value, want", [("none", None), ("NONE", None), ("inf", None), ("7", 7)])
def test_omega_option_reaches_the_config(ws, tmp_path, value, want):
    args = cli._build_parser().parse_args(_train_args(ws, tmp_path, "--omega", value))
    assert TrainConfig.from_sources(None, cli._overrides_from_args(args)).omega == want


def test_omega_option_not_given_keeps_the_default(ws, tmp_path):
    args = cli._build_parser().parse_args(_train_args(ws, tmp_path))
    assert "omega" not in cli._overrides_from_args(args)


def test_unparsable_omega_is_usage_error(ws, tmp_path, capsys):
    capsys.readouterr()
    assert main(_train_args(ws, tmp_path, "--omega", "lots")) == 1
    assert "--omega" in _usage_error_line(capsys)


def test_value_error_inside_a_command_is_not_a_usage_error(monkeypatch, tmp_path, capsys):
    """Only UsageError means exit 1 with a usage line; a ValueError from
    inside a command is a fault of the program and surfaces as one."""

    def broken(args):
        raise ValueError("arithmetic went wrong")

    monkeypatch.setitem(cli._COMMANDS, "gen", broken)
    capsys.readouterr()
    with pytest.raises(ValueError, match="arithmetic went wrong"):
        main(["gen", "--out", str(tmp_path / "d")])
    assert "usage error" not in capsys.readouterr().err


# -- train -------------------------------------------------------------------------


def test_train_artifacts(ws):
    run = ws / "run"
    for name in ("checkpoint.bin", "vocab.txt", "config.json", "train_log.jsonl"):
        assert (run / name).exists(), name
    cfg = json.loads((run / "config.json").read_text())
    assert cfg["epochs"] == 2 and cfg["d"] == 16  # CLI overrides reached the artifact
    rows = [json.loads(line) for line in (run / "train_log.jsonl").read_text().splitlines()]
    assert {r["split"] for r in rows} == {"train", "dev"}


def test_train_form_graph_mismatch(ws, tmp_path):
    args = [
        "train",
        "--data", str(ws / "data"),
        "--graph", str(ws / "g_label.txt"),
        "--out", str(tmp_path / "run"),
        "--form", "text",
    ]
    assert main(args) == 2


def test_train_refuses_nonempty_out(ws):
    args = [
        "train",
        "--data", str(ws / "data"),
        "--graph", str(ws / "g_label.txt"),
        "--out", str(ws / "run"),
        "--epochs", "1",
    ]
    assert main(args) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_numeric_blowup_exits_3(ws, tmp_path):
    """An absurd learning rate drives the hop mixture to an exact one-hot,
    the aux term to -ln 0, and the run into the NaN guard."""
    args = [
        "train",
        "--data", str(ws / "data"),
        "--graph", str(ws / "g_label.txt"),
        "--out", str(tmp_path / "run"),
        "--epochs", "1",
        "--d", "16",
        "--lr", "1e8",
    ]
    assert main(args) == 3


# -- eval ---------------------------------------------------------------------------


def test_eval_writes_metrics(ws, tmp_path, capsys):
    out = tmp_path / "metrics.json"
    args = [
        "eval",
        "--checkpoint", str(ws / "run" / "checkpoint.bin"),
        "--graph", str(ws / "g_label.txt"),
        "--questions", str(ws / "data" / "qa_dev.txt"),
        "--out", str(out),
    ]
    assert main(args) == 0
    printed = json.loads(capsys.readouterr().out)
    saved = json.loads(out.read_text())
    assert printed == saved
    assert 0.0 <= saved["overall"] <= 1.0
    assert set(saved["per_hop"]) == {"1", "2", "3"}
    assert saved["count"] == len(load_questions(ws / "data" / "qa_dev.txt"))


def test_eval_require_threshold(ws):
    base = [
        "eval",
        "--checkpoint", str(ws / "run" / "checkpoint.bin"),
        "--graph", str(ws / "g_label.txt"),
        "--questions", str(ws / "data" / "qa_dev.txt"),
    ]
    assert main(base + ["--require", "0.0"]) == 0
    assert main(base + ["--require", "0.9999"]) == 4  # 2 tiny epochs cannot ace dev


def test_eval_rejects_mismatched_vocab(ws, tmp_path):
    tampered = tmp_path / "vocab.txt"
    tampered.write_text((ws / "run" / "vocab.txt").read_text() + "zzzunseen\n")
    args = [
        "eval",
        "--checkpoint", str(ws / "run" / "checkpoint.bin"),
        "--graph", str(ws / "g_label.txt"),
        "--questions", str(ws / "data" / "qa_dev.txt"),
        "--vocab", str(tampered),
    ]
    assert main(args) == 2


def test_eval_rejects_vocab_not_utf8(ws, tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_bytes((ws / "run" / "vocab.txt").read_bytes() + b"\xff\n")
    args = _eval_args(ws)
    args[args.index("--vocab") + 1] = str(vocab)
    capsys.readouterr()
    assert main(args) == 2
    assert "not UTF-8" in _data_error_line(capsys)


def _eval_args(ws, checkpoint=None, graph=None):
    return [
        "eval",
        "--checkpoint", str(checkpoint or ws / "run" / "checkpoint.bin"),
        "--graph", str(graph or ws / "g_label.txt"),
        "--questions", str(ws / "data" / "qa_dev.txt"),
        "--vocab", str(ws / "run" / "vocab.txt"),
    ]


def _data_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("head", ["-1", "99999"])
def test_eval_rejects_out_of_range_entity_id(ws, tmp_path, capsys, head):
    lines = (ws / "g_label.txt").read_text().split("\n")
    first = lines.index("#SECTION edges") + 1
    lines[first] = head + lines[first][lines[first].index("\t") :]
    graph = tmp_path / "graph.txt"
    graph.write_text("\n".join(lines))
    capsys.readouterr()
    assert main(_eval_args(ws, graph=graph)) == 2
    assert f"id {head} out of range" in _data_error_line(capsys)


@pytest.mark.parametrize(
    "edge, reason",
    [("x\t0\t1", "expected 3 integer ids"), ("0\t1", "expected 3 integer ids"), ("0\t0\t\xe9", "not UTF-8")],
    ids=["head-x", "two-fields", "latin-1-byte"],
)
def test_eval_rejects_unparsable_graph(ws, tmp_path, capsys, edge, reason):
    lines = (ws / "g_label.txt").read_text().split("\n")
    lines[lines.index("#SECTION edges") + 1] = edge
    graph = tmp_path / "graph.txt"
    graph.write_bytes("\n".join(lines).encode("latin-1"))
    capsys.readouterr()
    assert main(_eval_args(ws, graph=graph)) == 2
    assert reason in _data_error_line(capsys)


@pytest.mark.parametrize(
    "name, content",
    [("qa.txt", b"who directed [Movie_0]\tPerson_\xff\n"), ("qa_hops.txt", b"x\n"), ("qa_hops.txt", b"\xff\n")],
    ids=["questions-not-utf8", "hop-label-not-integer", "hop-labels-not-utf8"],
)
def test_eval_rejects_unreadable_questions(ws, tmp_path, capsys, name, content):
    questions = tmp_path / "qa.txt"
    questions.write_bytes(b"who directed [Movie_0]\tPerson_0\n")
    (tmp_path / name).write_bytes(content)
    args = _eval_args(ws)
    args[args.index("--questions") + 1] = str(questions)
    capsys.readouterr()
    assert main(args) == 2
    _data_error_line(capsys)


@pytest.mark.parametrize(
    "corrupt",
    [lambda b: b[:8], lambda b: b[:-4], lambda b: b + b"\0", lambda b: b[:17] + b"\xff" + b[18:]],
    ids=["cut-after-magic", "cut-4-bytes-short", "one-trailing-byte", "metadata-byte-0xff"],
)
def test_eval_rejects_corrupt_checkpoint(ws, tmp_path, capsys, corrupt):
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(corrupt((ws / "run" / "checkpoint.bin").read_bytes()))
    capsys.readouterr()
    assert main(_eval_args(ws, checkpoint=checkpoint)) == 2
    assert str(checkpoint) in _data_error_line(capsys)


def _damaged(raw, seed, count=8):
    """count seeded cuts and count seeded byte flips of raw.  A line feed is
    never flipped to a carriage return: read as text, that is still the
    same line break."""
    rng = np.random.default_rng(seed)
    out = [raw[:k] for k in rng.integers(0, len(raw) - 1, size=count)]
    while len(out) < 2 * count:
        k, x = int(rng.integers(0, len(raw))), int(rng.integers(1, 256))
        if raw[k] ^ x != 0x0D or raw[k] != 0x0A:
            out.append(raw[:k] + bytes([raw[k] ^ x]) + raw[k + 1 :])
    return out


def test_eval_on_damaged_inputs_exits_2(ws, tmp_path, capsys):
    """Seeded cuts and byte flips of the graph and of the checkpoint: every
    eval stops with exit 2 and one `data error:` line, never a traceback,
    a usage error or a result."""
    graph, checkpoint = tmp_path / "graph.txt", tmp_path / "checkpoint.bin"
    for name, path, seed in (("g_label.txt", graph, 1), ("run/checkpoint.bin", checkpoint, 2)):
        for bad in _damaged((ws / name).read_bytes(), seed):
            path.write_bytes(bad)
            capsys.readouterr()
            args = _eval_args(ws, graph=graph) if path is graph else _eval_args(ws, checkpoint=checkpoint)
            assert main(args) == 2, bad
            _data_error_line(capsys)


def _with_metadata(raw, change):
    """A checkpoint whose JSON metadata has gone through change(meta), with
    its length field rewritten to match."""
    (size,) = struct.unpack("<Q", raw[8:16])
    meta = json.loads(raw[16 : 16 + size])
    change(meta)
    blob = json.dumps(meta).encode("utf-8")
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + size :]


@pytest.mark.parametrize(
    "change",
    [
        lambda m: m.pop("model"),
        lambda m: m["config"].update(d="x"),
        lambda m: m["config"].update(colour="red"),
        lambda m: m["config"].update(form="graph"),
    ],
    ids=["missing-model", "config-d-string", "unknown-config-key", "invalid-config-form"],
)
def test_eval_rejects_inconsistent_checkpoint_metadata(ws, tmp_path, capsys, change):
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(_with_metadata((ws / "run" / "checkpoint.bin").read_bytes(), change))
    capsys.readouterr()
    assert main(_eval_args(ws, checkpoint=checkpoint)) == 2
    assert str(checkpoint) in _data_error_line(capsys)


def test_eval_into_closed_pipe_exits_quietly(ws, tmp_path):
    """`hoptrace eval | head -1`: the reader closes the pipe before the
    metrics are printed; no traceback, and the SIGPIPE exit status.  The
    --out file and the --require verdict come before the print."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "m.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "hoptrace", *_eval_args(ws), "--out", str(out), "--require", "0.9999"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # before the child has started, let alone printed
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert json.loads(out.read_text())["count"] == len(load_questions(ws / "data" / "qa_dev.txt"))
    assert "below required" in err, err


# -- answer --------------------------------------------------------------------------


def test_answer_and_trace(ws, tmp_path, capsys):
    question = load_questions(ws / "data" / "qa_dev.txt")[0].question
    trace_path = tmp_path / "trace.json"
    dot_path = tmp_path / "trace.dot"
    args = [
        "answer", question,
        "--checkpoint", str(ws / "run" / "checkpoint.bin"),
        "--graph", str(ws / "g_label.txt"),
        "--trace", str(trace_path),
        "--dot", str(dot_path),
        "--top", "3",
    ]
    assert main(args) == 0
    reply = json.loads(capsys.readouterr().out)
    assert reply["question"] == question
    assert 1 <= len(reply["answers"]) <= 3
    assert {"entity", "score"} <= set(reply["answers"][0])

    trace = json.loads(trace_path.read_text())
    assert trace["question"] == question
    assert len(trace["steps"]) == 3
    for step in trace["steps"]:
        assert step["relations"] and "predicate" in step["relations"][0]
        assert abs(sum(step["word_attention"]) - 1.0) < 1e-6
        assert step["entity_scores"]
    assert len(trace["hop_distribution"]) == 3
    assert "mask_top" not in trace  # label form has no language mask

    assert dot_path.read_text().startswith("digraph")


def test_answer_requires_bracketed_topic(ws):
    args = [
        "answer", "who directed Movie_0",
        "--checkpoint", str(ws / "run" / "checkpoint.bin"),
        "--graph", str(ws / "g_label.txt"),
    ]
    assert main(args) == 1


def test_answer_unknown_topic(ws):
    args = [
        "answer", "who directed [Not A Movie]",
        "--checkpoint", str(ws / "run" / "checkpoint.bin"),
        "--graph", str(ws / "g_label.txt"),
    ]
    assert main(args) == 2


def _isolate(g, entity):
    """g with every edge that touches entity removed."""
    keep = (g.edge_heads != entity) & (g.edge_tails != entity)
    edges = np.stack([g.edge_heads, g.edge_preds, g.edge_tails], axis=1)[keep]
    return RelationGraph(g.entities, g.predicates, edges, [], [], form="label", reversed_=g.reversed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("param, cut_topic", [("hop_b", False), ("pred_b", True)], ids=["hop-bias", "pred-bias-lone-topic"])
def test_nonfinite_scores_are_numeric_failures(ws, tmp_path, capsys, param, cut_topic):
    """A checkpoint with a NaN bias, saved with a valid sha256: answer stops
    with exit 3 before printing (a NaN score is not JSON), as eval does.
    A NaN relation score counts even when the topic has no edges to carry
    it into the answer scores."""
    params, meta = load_checkpoint(ws / "run" / "checkpoint.bin")
    getattr(params, param).data[:] = np.nan
    vocab = Vocabulary.load(ws / "run" / "vocab.txt")
    checkpoint = tmp_path / "checkpoint.bin"
    save_checkpoint(checkpoint, params, TrainConfig(**meta["config"]), vocab)
    question = load_questions(ws / "data" / "qa_dev.txt")[0].question
    g = RelationGraph.load(ws / "g_label.txt")
    graph = tmp_path / "graph.txt"
    topic = g.entities.id(question[question.index("[") + 1 : question.index("]")])
    (_isolate(g, topic) if cut_topic else g).save(graph)
    capsys.readouterr()
    vocab_path = str(ws / "run" / "vocab.txt")
    args = ["answer", question, "--checkpoint", str(checkpoint), "--graph", str(graph), "--vocab", vocab_path]
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric failure: "), (out, err)
    if not cut_topic:
        assert main(_eval_args(ws, checkpoint=checkpoint)) == 3
        assert capsys.readouterr().err.startswith("numeric failure: ")
