"""End-to-end command-line flows over a miniature dataset.

One module-scoped workspace runs gen -> build-graph -> train once; the
individual tests poke at the artifacts and exit codes.
"""

import json
import os
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hoptrace import cli, container
from hoptrace.cli import main
from hoptrace.config import TrainConfig
from hoptrace.data import load_questions
from hoptrace.encoder import UNK
from hoptrace.errors import GraphError
from hoptrace.graph import GRAPH_MAGIC, RelationGraph
from hoptrace.training import load_checkpoint, save_checkpoint

from conftest import checkpoint_with_blocks, checkpoint_with_metadata, sealed

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(args):
    """args run as `python -m hoptrace` in a fresh process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "hoptrace", *args], capture_output=True, text=True, env=env, timeout=120)


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
                "--out", str(root / "g_label.bin"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "build-graph",
                "--triples", str(root / "data" / "triples.tsv"),
                "--corpus", str(root / "data" / "corpus.jsonl"),
                "--out", str(root / "g_text.bin"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                "--data", str(root / "data"),
                "--graph", str(root / "g_label.bin"),
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
    """One file per question set, each hop on its question's line: no hop
    sidecar is written."""
    names = [
        "ambiguous_eval.txt", "corpus.jsonl", "manifest.json", "qa_dev.txt",
        "qa_dup.txt", "qa_test.txt", "qa_train.txt", "triples.tsv",
    ]
    assert sorted(p.name for p in (ws / "data").iterdir()) == names
    assert {len(line.split("\t")) for line in (ws / "data" / "qa_train.txt").read_text().splitlines()} == {3}


def test_gen_force_over_an_old_layout_dataset_loads(ws, tmp_path):
    """gen --force onto a directory of the old layout removes each question
    file's hop sidecar, which the loader would refuse."""
    out = tmp_path / "data"
    out.mkdir()
    for name in ("qa_train", "qa_dev", "qa_test", "ambiguous_eval", "qa_dup"):
        (out / f"{name}_hops.txt").write_text("1\n")
    assert main(["gen", "--spec", str(ws / "spec.yaml"), "--out", str(out), "--force"]) == 0
    assert not list(out.glob("*_hops.txt"))
    assert load_questions(out / "qa_train.txt") == load_questions(ws / "data" / "qa_train.txt")


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


def test_gen_negative_seed_is_usage_error(tmp_path, capsys):
    """An option value out of range is a usage error, as --mix-seed's is."""
    capsys.readouterr()
    assert main(["gen", "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
    assert "argument --seed: expected an integer >= 0, got '-1'" in _usage_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_spec_setting_out_of_range_exits_2(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text("directors: 0\n")
    proc = _run(["gen", "--spec", str(spec), "--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "data error: directors must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "ratios",
    ["[.nan, .nan, .nan]", "[1.5, -0.25, -0.25]", "[true, false, false]", "[0.7, 0.3]"],
    ids=["nan", "out-of-range", "bools", "two"],
)
def test_spec_split_ratios_that_are_no_three_shares_exit_2(tmp_path, capsys, ratios):
    spec = tmp_path / "spec.yaml"
    spec.write_text(f"split_ratios: {ratios}\n")
    capsys.readouterr()
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert "split_ratios must be 3 numbers in [0, 1] summing to 1" in _data_error_line(capsys)
    assert not (tmp_path / "out").exists()


# -- build-graph -------------------------------------------------------------------


def test_built_label_graph_loads(ws):
    g = RelationGraph.load(ws / "g_label.bin")
    assert g.form == "label"
    assert g.reversed
    assert g.num_edges > 0


def test_built_text_graph_loads(ws):
    g = RelationGraph.load(ws / "g_text.bin")
    assert g.form == "text"
    assert g.num_text_relations > 0


def test_build_graph_no_reverse(ws, tmp_path):
    out = tmp_path / "g.bin"
    args = [
        "build-graph",
        "--triples", str(ws / "data" / "triples.tsv"),
        "--out", str(out),
        "--no-reverse",
    ]
    assert main(args) == 0
    assert not RelationGraph.load(out).reversed


def test_build_graph_mixed(ws, tmp_path):
    """--mix-fraction mixes label triples into the text graph as one-word
    texts: a text graph with more relations, its own first."""
    out = tmp_path / "g.bin"
    args = [
        "build-graph",
        "--triples", str(ws / "data" / "triples.tsv"),
        "--corpus", str(ws / "data" / "corpus.jsonl"),
        "--out", str(out),
        "--mix-fraction", "0.5",
    ]
    assert main(args) == 0
    g, text = RelationGraph.load(out), RelationGraph.load(ws / "g_text.bin")
    assert (g.form, g.num_edges, g.num_predicates) == ("text", 0, 0)
    assert g.num_text_relations > text.num_text_relations
    assert g.texts[: len(text.texts)] == text.texts


@pytest.mark.parametrize(
    "option, value, says",
    [
        ("--mix-seed", "-1", "expected an integer >= 0, got '-1'"),
        ("--mix-fraction", "2", "expected a number in [0, 1], got '2'"),
        ("--mix-fraction", "nan", "expected a number in [0, 1], got 'nan'"),
    ],
)
def test_build_graph_bad_mix_option_is_usage_error(ws, tmp_path, capsys, option, value, says):
    """A mix option out of range is refused before any file is read: the
    triples file named here does not exist, and nothing is written."""
    out = tmp_path / "g.bin"
    args = ["build-graph", "--triples", str(tmp_path / "nope.tsv")]
    args += ["--corpus", str(ws / "data" / "corpus.jsonl"), "--out", str(out), option, value]
    capsys.readouterr()
    assert main(args) == 1
    assert f"argument {option}: {says}" in _usage_error_line(capsys)
    assert not out.exists()


def test_build_graph_text_requires_corpus(ws, tmp_path, capsys):
    """Without --corpus build-graph builds a label graph, which reads no mix
    option: either one is refused before the triples file is read."""
    for option, value in (("--mix-fraction", "0.5"), ("--mix-seed", "3")):
        args = ["build-graph", "--triples", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "g.bin"), option, value]
        capsys.readouterr()
        assert main(args) == 1
        assert "give --corpus and --mix-fraction" in _usage_error_line(capsys)
    assert not (tmp_path / "g.bin").exists()


def test_build_graph_mix_seed_requires_mix_fraction(ws, tmp_path, capsys):
    args = ["build-graph", "--triples", str(ws / "data" / "triples.tsv")]
    args += ["--corpus", str(ws / "data" / "corpus.jsonl"), "--out", str(tmp_path / "g.bin"), "--mix-seed", "3"]
    capsys.readouterr()
    assert main(args) == 1
    assert "give --corpus and --mix-fraction" in _usage_error_line(capsys)
    assert not (tmp_path / "g.bin").exists()


@pytest.mark.parametrize("command", ["build-graph", "train"])
def test_form_option_is_gone(ws, tmp_path, capsys, command):
    """The graph decides its form: build-graph by --corpus, train by --graph."""
    args = ["build-graph", "--triples", str(ws / "data" / "triples.tsv"), "--out", str(tmp_path / "g.bin")]
    if command == "train":
        args = _train_args(ws, tmp_path)
    capsys.readouterr()
    assert main([*args, "--form", "label"]) == 1
    assert "unrecognized arguments: --form label" in _usage_error_line(capsys)


def test_build_graph_reads_metaqa_kb(ws, tmp_path):
    """The triples of the generated TSV, rewritten as MetaQA's kb.txt."""
    rows = [line.split("\t") for line in (ws / "data" / "triples.tsv").read_text().splitlines()[1:]]
    (tmp_path / "kb.txt").write_text("".join("|".join(r) + "\n" for r in rows))
    args = ["build-graph", "--triples", str(tmp_path / "kb.txt"), "--out", str(tmp_path / "g.bin")]
    assert main(args) == 0
    assert (tmp_path / "g.bin").read_bytes() == (ws / "g_label.bin").read_bytes()


def test_missing_triples_file_is_data_error(tmp_path):
    args = ["build-graph", "--triples", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "g.bin")]
    assert main(args) == 2


@pytest.mark.parametrize(
    "command",
    [
        ["gen", "--out", "{file}"],
        ["build-graph", "--triples", "{dir}", "--out", "{tmp}/g.bin"],
        ["build-graph", "--triples", "{triples}", "--out", "{dir}"],
        ["train", "--data", "{data}", "--graph", "{dir}", "--out", "{tmp}/run"],
    ],
    ids=["gen-out-file", "build-graph-triples-dir", "build-graph-out-dir", "train-graph-dir"],
)
def test_directory_where_a_file_belongs_is_a_data_error(ws, tmp_path, capsys, command):
    """An OSError about a named path is a data error (exit 2) with one
    line, not a traceback."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    paths = {"file": tmp_path / "file", "dir": tmp_path / "dir", "tmp": tmp_path,
             "triples": ws / "data" / "triples.tsv", "data": ws / "data"}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in command]) == 2
    assert str(tmp_path) in _data_error_line(capsys)


@pytest.mark.parametrize("damaged", ["triples.tsv", "corpus.jsonl"])
def test_build_graph_input_not_utf8_is_data_error(ws, tmp_path, capsys, damaged):
    for name in ("triples.tsv", "corpus.jsonl"):
        raw = (ws / "data" / name).read_bytes()
        (tmp_path / name).write_bytes(raw + b"\xff\n" if name == damaged else raw)
    args = ["build-graph", "--triples", str(tmp_path / "triples.tsv")]
    args += ["--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "g.bin")]
    capsys.readouterr()
    assert main(args) == 2
    assert "not UTF-8" in _data_error_line(capsys)


def test_build_graph_corpus_field_that_is_no_string_exits_2(ws, tmp_path):
    """A corpus line whose subject is a list: exit 2 naming the line, where
    it used to die with a TypeError traceback (exit 1)."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((ws / "data" / "corpus.jsonl").read_bytes() + b'{"subject": ["A"], "text": "A p B ."}\n')
    lines = corpus.read_text().count("\n")
    proc = _run(["build-graph", "--triples", str(ws / "data" / "triples.tsv"), "--corpus", str(corpus),
                 "--out", str(tmp_path / "g.bin")])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"data error: {corpus}:{lines}: expected JSON with string fields 'subject' and 'text'\n"
    assert not (tmp_path / "g.bin").exists()


# -- usage ---------------------------------------------------------------------


def test_no_subcommand_is_usage_error():
    assert main([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def _train_args(ws, tmp_path, *extra):
    return [
        "train",
        "--data", str(ws / "data"),
        "--graph", str(ws / "g_label.bin"),
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


@pytest.mark.parametrize("key, option", [("data_dir", "--data"), ("graph_path", "--graph"), ("out_dir", "--out")])
def test_config_file_that_sets_a_path_is_usage_error(ws, tmp_path, capsys, key, option):
    """train takes each path from its option alone, and the config has no
    such key, so a config file that sets one is an unknown key."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"epochs: 1\n{key}: /nonexistent\n")
    args = _train_args(ws, tmp_path, "--config", str(cfg))
    assert option in args
    capsys.readouterr()
    assert main(args) == 1
    assert f"unknown config keys ['{key}']" in _usage_error_line(capsys)
    assert not (tmp_path / "run").exists()


def test_invalid_config_value_is_usage_error(ws, tmp_path, capsys):
    capsys.readouterr()
    assert main(_train_args(ws, tmp_path, "--tau", "1.5")) == 1
    assert "tau" in _usage_error_line(capsys)
    # a setting with fixed choices names the bad value
    (tmp_path / "cfg.yaml").write_text("aggregation: mean\n")
    assert main(_train_args(ws, tmp_path, "--config", str(tmp_path / "cfg.yaml"))) == 1
    assert "usage error: aggregation must be one of ('sum', 'max'), got 'mean'\n" == _usage_error_line(capsys)


# (config file text, the setting named in the error, what it must be)
BAD_REALS_AND_FLAGS = {
    "lr-nan": ("lr: .nan\n", "lr", "a finite number"),
    "lr-inf": ("lr: .inf\n", "lr", "a finite number"),
    "lr-bool": ("lr: true\n", "lr", "a finite number"),
    "tau-bool": ("tau: true\n", "tau", "a finite number"),
    "use_mask-int": ("use_mask: 0\n", "use_mask", "true or false"),
}


@pytest.mark.parametrize("case", BAD_REALS_AND_FLAGS)
def test_config_value_that_is_no_finite_number_or_no_flag_is_usage_error(ws, tmp_path, capsys, case):
    text, name, want = BAD_REALS_AND_FLAGS[case]
    (tmp_path / "cfg.yaml").write_text(text)
    capsys.readouterr()
    assert main(_train_args(ws, tmp_path, "--config", str(tmp_path / "cfg.yaml"))) == 1
    assert f" {name} must be {want}, got " in _usage_error_line(capsys)
    assert not (tmp_path / "run").exists()


def test_nan_lr_option_is_usage_error(ws, tmp_path, capsys):
    capsys.readouterr()
    assert main(_train_args(ws, tmp_path, "--lr", "nan")) == 1
    assert " lr must be a finite number, got nan" in _usage_error_line(capsys)


# (options, config file text, the setting named in the error)
BAD_COUNTS = {
    "batch-size-negative": (["--batch-size", "-4"], None, "batch_size"),
    "batch-size-zero": (["--batch-size", "0"], None, "batch_size"),
    "T-fraction": ([], "T: 2.5\n", "T"),
    "batch-size-float": ([], "batch_size: 4.0\n", "batch_size"),
    "epochs-bool": ([], "epochs: true\n", "epochs"),
    "d-one": ([], "d: 1\n", "d"),
    "omega-zero": ([], "omega: 0\n", "omega"),
    "omega-fraction": ([], "omega: 2.5\n", "omega"),
    "seed-fraction": ([], "seed: 0.5\n", "seed"),
    "seed-negative": (["--seed", "-1"], None, "seed"),
}


def _bad_count_args(ws, tmp_path, case):
    options, config, name = BAD_COUNTS[case]
    if config is not None:
        (tmp_path / "cfg.yaml").write_text(config)
        options = [*options, "--config", str(tmp_path / "cfg.yaml")]
    return _train_args(ws, tmp_path, *options), name


@pytest.mark.parametrize("case", BAD_COUNTS)
def test_count_setting_that_is_no_positive_integer_is_usage_error(ws, tmp_path, capsys, case):
    args, name = _bad_count_args(ws, tmp_path, case)
    capsys.readouterr()
    assert main(args) == 1
    assert f" {name} must be " in _usage_error_line(capsys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["batch-size-negative", "batch-size-zero", "T-fraction"])
def test_count_setting_that_is_no_positive_integer_exits_1(ws, tmp_path, case):
    args, name = _bad_count_args(ws, tmp_path, case)
    proc = _run(args)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("usage error: ") and f" {name} must be " in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value, want", [("none", None), ("NONE", None), ("inf", None), ("7", 7)])
def test_omega_option_reaches_the_config(ws, tmp_path, value, want):
    args = cli._build_parser().parse_args(_train_args(ws, tmp_path, "--omega", value))
    assert vars(args)["omega"] == want
    assert TrainConfig.from_sources(None, {"omega": args.omega}).omega == want


def test_omega_option_not_given_keeps_the_default(ws, tmp_path):
    """A train option left out puts no config field in the Namespace, so
    the config file's value or the default stands."""
    args = vars(cli._build_parser().parse_args(_train_args(ws, tmp_path)))
    assert "omega" not in args
    assert not {f.name for f in fields(TrainConfig)} & args.keys()


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
    """The run directory holds the checkpoint, the whole model, and the log."""
    run = ws / "run"
    assert sorted(path.name for path in run.iterdir()) == ["checkpoint.bin", "train_log.jsonl"]
    cfg = load_checkpoint(run / "checkpoint.bin")[1]["config"]
    assert cfg["epochs"] == 2 and cfg["d"] == 16  # CLI overrides reached the checkpoint
    rows = [json.loads(line) for line in (run / "train_log.jsonl").read_text().splitlines()]
    assert {r["split"] for r in rows} == {"train", "dev"}


ABLATION_FLAGS = {"--no-truncation": "use_truncation", "--no-mask": "use_mask", "--no-aux": "use_aux_hop_loss"}


@pytest.mark.parametrize("flag", ABLATION_FLAGS)
def test_ablation_flag_reaches_the_checkpoint(ws, tmp_path, flag):
    """Each ablation flag sets its field to false in the checkpoint's
    config; the two left out stay true, as in a run that gives none."""
    assert main(_train_args(ws, tmp_path, flag, "--epochs", "1", "--d", "8", "--limit-train", "0.1")) == 0
    config = load_checkpoint(tmp_path / "run" / "checkpoint.bin")[1]["config"]
    assert {field: config[field] for field in ABLATION_FLAGS.values()} == {
        field: field != ABLATION_FLAGS[flag] for field in ABLATION_FLAGS.values()
    }
    plain = load_checkpoint(ws / "run" / "checkpoint.bin")[1]["config"]
    assert all(plain[field] is True for field in ABLATION_FLAGS.values())


def test_train_records_blas_in_checkpoint(ws):
    """The checkpoint names numpy's BLAS and the thread settings it trained
    under, as found in the environment; loading does not read them."""
    params, meta = load_checkpoint(ws / "run" / "checkpoint.bin")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert meta["blas"] == {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def test_checkpoint_bytes_do_not_depend_on_the_run_paths(ws, tmp_path):
    """The same train command writes the same checkpoint bytes into any
    --out: the run's paths are no setting, so the metadata holds none."""
    written = []
    for out in (tmp_path / "a", tmp_path / "b" / "deeper"):
        args = ["train", "--data", str(ws / "data"), "--graph", str(ws / "g_label.bin"), "--out", str(out)]
        assert main([*args, "--epochs", "1", "--d", "8", "--limit-train", "0.1"]) == 0
        written.append((out / "checkpoint.bin").read_bytes())
    assert written[0] == written[1]
    config = load_checkpoint(tmp_path / "a" / "checkpoint.bin")[1]["config"]
    assert not {"data_dir", "graph_path", "out_dir"} & config.keys()


def test_train_blas_threads_come_from_the_environment(ws, tmp_path, monkeypatch):
    monkeypatch.setenv("MKL_NUM_THREADS", "7")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert main(_train_args(ws, tmp_path, "--epochs", "1", "--d", "8", "--limit-train", "0.1")) == 0
    threads = load_checkpoint(tmp_path / "run" / "checkpoint.bin")[1]["blas"]["threads"]
    assert threads["MKL_NUM_THREADS"] == "7" and threads["OMP_NUM_THREADS"] is None


def test_train_help_states_the_thread_count_rule(capsys):
    with pytest.raises(SystemExit) as e:
        main(["train", "--help"])
    assert e.value.code == 0
    assert "bit for bit only at the same BLAS thread count" in " ".join(capsys.readouterr().out.split())


def test_train_form_graph_mismatch(ws, tmp_path, capsys):
    """train takes the graph's form; a config file may state it, and one
    that names the other form is a data error."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("form: text\n")
    capsys.readouterr()
    assert main(_train_args(ws, tmp_path, "--config", str(cfg))) == 2
    assert "config form 'text' does not match graph form 'label'" in _data_error_line(capsys)
    assert not (tmp_path / "run").exists()


def test_train_config_naming_mixed_is_usage_error(ws, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("form: mixed\n")
    capsys.readouterr()
    assert main(_train_args(ws, tmp_path, "--config", str(cfg))) == 1
    assert "got 'mixed': build the graph again with `hoptrace build-graph`" in _usage_error_line(capsys)


@pytest.mark.parametrize("hops", ["1\n", "1\n1\n1\n"], ids=["short", "long"])
def test_train_with_a_hop_sidecar_of_the_wrong_length_is_data_error(tmp_path, capsys, hops):
    """A dataset of the old layout, its hops in qa_train_hops.txt, is
    refused before training, whatever the sidecar's length: read alone,
    its questions would train with no hop loss."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "triples.tsv").write_text("M1\tdirected_by\tP1\nM2\tdirected_by\tP2\n")
    (data / "qa_train.txt").write_text("who directed [M1]\tP1\nwho directed [M2]\tP2\n")
    (data / "qa_train_hops.txt").write_text(hops)
    (data / "qa_dev.txt").write_text("who directed [M1]\tP1\n")
    graph = tmp_path / "g.bin"
    assert main(["build-graph", "--triples", str(data / "triples.tsv"), "--out", str(graph)]) == 0
    args = ["train", "--data", str(data), "--graph", str(graph), "--out", str(tmp_path / "run"), "--epochs", "1"]
    says = "hop labels are now the third field of each question line: generate the dataset again with `hoptrace gen`"
    capsys.readouterr()
    assert main(args) == 2
    assert says in _data_error_line(capsys)
    proc = _run(args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("data error: ") and says in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_gold_hop_above_T_before_making_out(ws, tmp_path, capsys):
    """The hop loss has a step for each hop up to T only: train --T 2 on
    data with 3-hop questions is refused, naming the file, the count and
    the first such question, before --out exists, so a retry needs no
    --force.  Without the hop loss the same data trains."""
    train_file = ws / "data" / "qa_train.txt"
    questions = load_questions(train_file)
    above = [ex for ex in questions if ex.hop > 2]
    args = _train_args(ws, tmp_path, "--T", "2", "--epochs", "1", "--d", "8", "--limit-train", "0.1")
    capsys.readouterr()
    assert main(args) == 2
    line = _data_error_line(capsys)
    assert f"{train_file}: {len(above)} of {len(questions)} questions have a gold hop above T=2, the first {above[0].question!r}" in line
    assert "--no-aux" in line and "--T" in line
    assert not (tmp_path / "run").exists()
    assert main(args + ["--no-aux"]) == 0


def test_train_refuses_nonempty_out(ws):
    args = [
        "train",
        "--data", str(ws / "data"),
        "--graph", str(ws / "g_label.bin"),
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
        "--graph", str(ws / "g_label.bin"),
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
        "--graph", str(ws / "g_label.bin"),
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


def test_eval_scores_a_gold_hop_above_the_models_T(ws, tmp_path, capsys):
    """eval computes no hop loss, so a dev file whose first hop field is 4
    evaluates on a T=3 checkpoint: that question is scored under per_hop
    "4", and the overall hits@1, the count and the mean loss do not move."""
    assert TrainConfig().T == 3
    questions = tmp_path / "qa_dev.txt"
    lines = (ws / "data" / "qa_dev.txt").read_text().split("\n")
    question, answers, _hop = lines[0].split("\t")
    lines[0] = f"{question}\t{answers}\t4"
    questions.write_text("\n".join(lines))
    capsys.readouterr()
    assert main(_eval_args(ws)) == 0
    before = json.loads(capsys.readouterr().out)
    args = _eval_args(ws)
    args[args.index("--questions") + 1] = str(questions)
    assert main(args) == 0
    after = json.loads(capsys.readouterr().out)
    assert set(after["per_hop"]) == {"1", "2", "3", "4"}
    for key in ("overall", "count", "mean_loss"):
        assert after[key] == before[key], key


def test_eval_require_threshold(ws):
    base = [
        "eval",
        "--checkpoint", str(ws / "run" / "checkpoint.bin"),
        "--graph", str(ws / "g_label.bin"),
        "--questions", str(ws / "data" / "qa_dev.txt"),
    ]
    assert main(base + ["--require", "0.0"]) == 0
    assert main(base + ["--require", "0.9999"]) == 4  # 2 tiny epochs cannot ace dev


@pytest.mark.parametrize("require", ["nan", "inf", "1.5", "-0.1"])
def test_eval_require_that_is_no_fraction_is_usage_error(ws, tmp_path, capsys, require):
    """A threshold no hits@1 can be compared with (NaN never compares
    below) or reach is refused before anything is evaluated or written."""
    out = tmp_path / "metrics.json"
    args = [
        "eval",
        "--checkpoint", str(ws / "run" / "checkpoint.bin"),
        "--graph", str(ws / "g_label.bin"),
        "--questions", str(ws / "data" / "qa_dev.txt"),
        "--out", str(out),
        "--require", require,
    ]
    capsys.readouterr()
    assert main(args) == 1
    assert f"argument --require: expected a number in [0, 1], got '{require}'" in _usage_error_line(capsys)
    assert not out.exists() and not capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["answer", "eval"])
def test_graph_that_does_not_match_the_checkpoint_is_data_error(ws, tmp_path, capsys, cmd):
    """The model was trained on the reversed graph (12 predicates); the
    same entities without reverses (6 predicates) would index its
    predicate scores with other ids, so both commands refuse it."""
    small = tmp_path / "g_no_reverse.bin"
    args = ["build-graph", "--triples", str(ws / "data" / "triples.tsv"), "--out", str(small), "--no-reverse"]
    assert main(args) == 0
    g, g_small = RelationGraph.load(ws / "g_label.bin"), RelationGraph.load(small)
    assert g_small.n == g.n and 2 * g_small.num_predicates == g.num_predicates
    checkpoint = ["--checkpoint", str(ws / "run" / "checkpoint.bin"), "--graph", str(small)]
    if cmd == "answer":
        args = ["answer", load_questions(ws / "data" / "qa_dev.txt")[0].question, *checkpoint]
    else:
        args = ["eval", *checkpoint, "--questions", str(ws / "data" / "qa_dev.txt")]
    capsys.readouterr()
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    want = f"{g.n} entities and {g.num_predicates} predicates, got one of {g.n} entities and {g_small.num_predicates}"
    assert err.startswith("data error: model built for a graph of ") and want in err, err


def _eval_args(ws, checkpoint=None, graph=None):
    return [
        "eval",
        "--checkpoint", str(checkpoint or ws / "run" / "checkpoint.bin"),
        "--graph", str(graph or ws / "g_label.bin"),
        "--questions", str(ws / "data" / "qa_dev.txt"),
    ]


def test_checkpoint_alone_answers_and_evaluates(ws, tmp_path, capsys):
    """The checkpoint is the whole model: copied on its own into an empty
    directory, it answers and evaluates as it does in its run directory."""
    alone = tmp_path / "model" / "checkpoint.bin"
    alone.parent.mkdir()
    alone.write_bytes((ws / "run" / "checkpoint.bin").read_bytes())
    question = load_questions(ws / "data" / "qa_dev.txt")[0].question
    replies = []
    for checkpoint in (ws / "run" / "checkpoint.bin", alone):
        capsys.readouterr()
        assert main(["answer", question, "--checkpoint", str(checkpoint), "--graph", str(ws / "g_label.bin")]) == 0
        assert main(_eval_args(ws, checkpoint=checkpoint)) == 0
        replies.append(capsys.readouterr().out.replace(str(checkpoint), "CHECKPOINT"))
    assert replies[0] == replies[1]
    assert [path.name for path in alone.parent.iterdir()] == ["checkpoint.bin"]


@pytest.mark.parametrize("command", ["eval", "answer"])
def test_vocab_option_is_gone(ws, capsys, command):
    """The vocabulary lives in the checkpoint; --vocab is no option."""
    if command == "eval":
        args = _eval_args(ws)
    else:
        args = ["answer", load_questions(ws / "data" / "qa_dev.txt")[0].question,
                "--checkpoint", str(ws / "run" / "checkpoint.bin"), "--graph", str(ws / "g_label.bin")]
    capsys.readouterr()
    assert main([*args, "--vocab", "vocab.txt"]) == 1
    assert "unrecognized arguments: --vocab" in _usage_error_line(capsys)


def test_checkpoint_of_format_2_is_refused(ws, tmp_path, capsys):
    """Run directories as earlier formats left them: a HOPCKPT2 file whose
    metadata held a vocabulary hash, beside its vocab.txt, and a HOPCKPT3
    file, whose metadata already held the vocabulary (its GRU and step
    weights were split into parts; the magic alone refuses it).  Both
    commands stop with exit 2 on either and ask for a new training."""
    def old_layout(meta):
        vocab = meta.pop("vocab")
        meta.update(format="hoptrace-checkpoint", version=2, vocab_sha256="0" * 64)
        meta["model"]["vocab_size"] = len(vocab)
        (tmp_path / "vocab.txt").write_text("".join(token + "\n" for token in vocab))

    good = (ws / "run" / "checkpoint.bin").read_bytes()
    checkpoint = tmp_path / "checkpoint.bin"
    question = load_questions(ws / "data" / "qa_dev.txt")[0].question
    answer = ["answer", question, "--checkpoint", str(checkpoint), "--graph", str(ws / "g_label.bin")]
    for magic, raw in ((b"HOPCKPT2", checkpoint_with_metadata(good, old_layout)), (b"HOPCKPT3", good)):
        checkpoint.write_bytes(sealed(magic + raw[8:-32]))
        for args in (answer, _eval_args(ws, checkpoint=checkpoint)):
            capsys.readouterr()
            assert main(args) == 2
            says = f"{checkpoint}: not a hoptrace checkpoint of format HOPCKPT4: train it again with `hoptrace train`"
            assert says in _data_error_line(capsys), magic


def _data_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    return err


def _graph_parts(path):
    """The metadata and the (head, pred, tail) edge and (head, tail, text)
    relation rows of the graph file at path, the rows writable."""
    meta, data = container.read(path, GRAPH_MAGIC, GraphError, "a graph")
    layout = [("<i8", (meta["num_edges"], 3)), ("<i8", (meta["num_text_relations"], 3))]
    return meta, *(rows.copy() for rows in container.blocks(path, data, layout, GraphError))


@pytest.mark.parametrize("head", ["-1", "99999"])
def test_eval_rejects_out_of_range_entity_id(ws, tmp_path, capsys, head):
    """The first edge's head changed in a file whose sha256 matches."""
    meta, edges, trels = _graph_parts(ws / "g_label.bin")
    edges[0, 0] = int(head)
    graph = tmp_path / "graph.bin"
    container.write(graph, GRAPH_MAGIC, meta, [edges, trels])
    capsys.readouterr()
    assert main(_eval_args(ws, graph=graph)) == 2
    assert f"id {head} out of range" in _data_error_line(capsys)


@pytest.fixture(scope="module")
def text_run(ws):
    """The run directory of a text model trained on ws's text graph."""
    out = ws / "run_text"
    args = ["train", "--data", str(ws / "data"), "--graph", str(ws / "g_text.bin"), "--out", str(out)]
    assert main([*args, "--epochs", "1", "--d", "8", "--seed", "0", "--limit-train", "0.2"]) == 0
    return out


def _build_mixed(ws, out):
    """build-graph's text graph of ws's data with half the triples mixed in."""
    args = ["build-graph", "--triples", str(ws / "data" / "triples.tsv"), "--corpus", str(ws / "data" / "corpus.jsonl")]
    assert main([*args, "--out", str(out), "--mix-fraction", "0.5"]) == 0
    return out


def _text_model_args(command, text_run, graph, ws):
    where = ["--checkpoint", str(text_run / "checkpoint.bin"), "--graph", str(graph)]
    if command == "eval":
        return ["eval", *where, "--questions", str(ws / "data" / "qa_dev.txt")]
    return ["answer", load_questions(ws / "data" / "qa_dev.txt")[0].question, *where]


@pytest.mark.parametrize("command", ["answer", "eval"])
def test_text_checkpoint_is_refused_on_a_graph_mixed_from_its_data(ws, text_run, tmp_path, capsys, command):
    """Mixing label triples into a text graph keeps its form, but a model
    trained on the text graph never saw the one-word texts: it would read
    every one of them as [UNK] and score them all alike.  Both commands
    stop with exit 2, name the first such text and count them."""
    graph = _build_mixed(ws, tmp_path / "g_mixed.bin")
    g, vocab = RelationGraph.load(graph), load_checkpoint(text_run / "checkpoint.bin")[1]["vocab"]
    unseen = [text for text in g.texts if UNK in vocab.encode(text)]
    assert unseen and len(unseen) < len(g.texts)
    capsys.readouterr()
    assert main(_text_model_args(command, text_run, graph, ws)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("data error: ") and err.count("\n") == 1, err
    says = f"{graph}: {len(unseen)} of {len(g.texts)} relation texts hold tokens the checkpoint's vocabulary lacks,"
    assert says in err and f"the first {unseen[0]!r}: train a model on this graph" in err, err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_graph_of_the_old_mixed_form_is_refused(ws, text_run, tmp_path, capsys, command):
    """A text store tagged 'mixed', as earlier versions wrote a mixed graph."""
    meta, edges, trels = _graph_parts(_build_mixed(ws, tmp_path / "g.bin"))
    meta["form"] = "mixed"
    old = tmp_path / "old.bin"
    container.write(old, GRAPH_MAGIC, meta, [edges, trels])
    args = _text_model_args("eval", text_run, old, ws)
    if command == "train":
        args = ["train", "--data", str(ws / "data"), "--graph", str(old), "--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert main(args) == 2
    says = "unknown graph form 'mixed': expected one of label, text; rebuild the graph with `hoptrace build-graph`"
    assert says in _data_error_line(capsys)


def test_checkpoint_of_the_old_mixed_form_is_refused(ws, text_run, tmp_path, capsys):
    checkpoint = tmp_path / "run" / "checkpoint.bin"
    checkpoint.parent.mkdir()
    raw = (text_run / "checkpoint.bin").read_bytes()
    checkpoint.write_bytes(checkpoint_with_metadata(raw, lambda m: m["config"].update(form="mixed")))
    capsys.readouterr()
    assert main(_text_model_args("answer", checkpoint.parent, _build_mixed(ws, tmp_path / "g.bin"), ws)) == 2
    err = _data_error_line(capsys)
    assert str(checkpoint) in err and "got 'mixed': build the graph again with `hoptrace build-graph`" in err


@pytest.mark.parametrize(
    "graph, says",
    [("g_label.bin", "a label graph holds no texts or text relations, got 1 and 1"),
     ("g_text.bin", "a text graph holds no predicates or label edges, got 1 and 1")],
    ids=["label-with-a-text-relation", "text-with-a-label-edge"],
)
def test_graph_that_fills_the_other_forms_store_is_refused(ws, tmp_path, capsys, graph, says):
    """A file with one row in the store its form does not read, whose sha256
    matches: nothing would read that row, yet its text would join the
    vocabulary."""
    meta, edges, trels = _graph_parts(ws / graph)
    if meta["form"] == "label":
        meta.update(texts=["<sub> x <obj>"], num_text_relations=1)
        trels = np.array([[0, 1, 0]], dtype="<i8")
    else:
        meta.update(predicates=["p"], num_edges=1)
        edges = np.array([[0, 0, 1]], dtype="<i8")
    crafted = tmp_path / "g.bin"
    container.write(crafted, GRAPH_MAGIC, meta, [edges, trels])
    capsys.readouterr()
    assert main(["train", "--data", str(ws / "data"), "--graph", str(crafted), "--out", str(tmp_path / "run")]) == 2
    assert says in _data_error_line(capsys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (lambda raw: b"x" + raw[1:], "rebuild it with `hoptrace build-graph`"),
        (lambda raw: sealed(raw[:-32 - 8]), "bytes of blocks"),
        (lambda raw: sealed(raw[:16] + raw[16:-32].replace(b'"form"', b'"f\xe9rm"')), "unreadable metadata"),
    ],
    ids=["head-x", "two-fields", "latin-1-byte"],
)
def test_eval_rejects_unparsable_graph(ws, tmp_path, capsys, corrupt, reason):
    """Files whose parts cannot be read: the magic at the head starts with
    an x, the last edge row has two ids, the metadata holds a Latin-1 byte.
    The last two are sealed with their own sha256, so the framing checks
    find them."""
    graph = tmp_path / "graph.bin"
    graph.write_bytes(corrupt((ws / "g_label.bin").read_bytes()))
    capsys.readouterr()
    assert main(_eval_args(ws, graph=graph)) == 2
    assert reason in _data_error_line(capsys)


@pytest.mark.parametrize(
    "content",
    [b"who directed [Movie_0]\tPerson_\xff\n", b"who directed [Movie_0]\tPerson_0\tx\n",
     b"who directed [Movie_0]\tPerson_0\t\xff\n"],
    ids=["questions-not-utf8", "hop-label-not-integer", "hop-labels-not-utf8"],
)
def test_eval_rejects_unreadable_questions(ws, tmp_path, capsys, content):
    questions = tmp_path / "qa.txt"
    questions.write_bytes(content)
    args = _eval_args(ws)
    args[args.index("--questions") + 1] = str(questions)
    capsys.readouterr()
    assert main(args) == 2
    assert f"data error: {questions}:" in _data_error_line(capsys)  # the file, and a bad field's line


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
    """count seeded cuts and count seeded byte flips of raw."""
    rng = np.random.default_rng(seed)
    out = [raw[:k] for k in rng.integers(0, len(raw) - 1, size=count)]
    for k, x in zip(rng.integers(0, len(raw), size=count), rng.integers(1, 256, size=count)):
        out.append(raw[:k] + bytes([raw[k] ^ x]) + raw[k + 1 :])
    return out


def test_eval_on_damaged_inputs_exits_2(ws, tmp_path, capsys):
    """Seeded cuts and byte flips of the graph and of the checkpoint: every
    eval stops with exit 2 and one `data error:` line, never a traceback,
    a usage error or a result."""
    graph, checkpoint = tmp_path / "graph.bin", tmp_path / "checkpoint.bin"
    for name, path, seed in (("g_label.bin", graph, 1), ("run/checkpoint.bin", checkpoint, 2)):
        for bad in _damaged((ws / name).read_bytes(), seed):
            path.write_bytes(bad)
            capsys.readouterr()
            args = _eval_args(ws, graph=graph) if path is graph else _eval_args(ws, checkpoint=checkpoint)
            assert main(args) == 2, bad
            _data_error_line(capsys)


@pytest.mark.parametrize(
    "change",
    [
        lambda m: m.pop("model"),
        lambda m: m["config"].update(d="x"),
        lambda m: m["config"].update(colour="red"),
        lambda m: m["config"].update(out_dir="run"),  # as checkpoints of earlier versions held
        lambda m: m["config"].update(form="graph"),
        lambda m: m["model"].update(num_predicates=5 * 10**10),  # terabytes of predicate weights
        lambda m: m.pop("vocab"),
    ],
    ids=[
        "missing-model", "config-d-string", "unknown-config-key", "run-path-config-key", "invalid-config-form",
        "huge-predicates", "missing-vocab",
    ],
)
def test_eval_rejects_inconsistent_checkpoint_metadata(ws, tmp_path, capsys, change):
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(checkpoint_with_metadata((ws / "run" / "checkpoint.bin").read_bytes(), change))
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
        "--graph", str(ws / "g_label.bin"),
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


def _rows_resorted(path, out, key, block):
    """The graph file at path written to out with the rows of one id block
    (0 edges, 1 text relations) sorted by key(row ids), as another writer
    may have saved them; the container writer seals it again."""
    meta, *blocks = _graph_parts(path)
    rows = blocks[block]
    blocks[block] = rows[sorted(range(len(rows)), key=lambda i: key(tuple(rows[i].tolist())))]
    container.write(out, GRAPH_MAGIC, meta, blocks)


_TEXT_ARRAYS = ("trel_heads", "trel_tails", "trel_text", "trel_ptr", "trel_pair_start")


def test_shuffled_text_relation_rows_still_load(ws, tmp_path, capsys):
    """A text graph whose text relation rows are in any other order loads
    into the same arrays as today's file, re-saves to its bytes and gives
    the same answer."""
    args = [
        "train", "--data", str(ws / "data"), "--graph", str(ws / "g_text.bin"), "--out", str(tmp_path / "run_text"),
        "--epochs", "1", "--d", "8", "--seed", "0", "--limit-train", "0.2",
    ]
    assert main(args) == 0
    new, old = ws / "g_text.bin", tmp_path / "old.bin"
    # a fixed scramble of the (head, tail, text) rows
    _rows_resorted(new, old, lambda r: (r[0] * 7919 + r[1] * 6007 + r[2] * 104729) % 1009, 1)
    assert old.read_bytes() != new.read_bytes()
    g_new, g_old = RelationGraph.load(new), RelationGraph.load(old)
    for name in _TEXT_ARRAYS:
        np.testing.assert_array_equal(getattr(g_old, name), getattr(g_new, name))
    g_old.save(tmp_path / "resaved.bin")
    assert (tmp_path / "resaved.bin").read_bytes() == new.read_bytes()
    question = load_questions(ws / "data" / "qa_dev.txt")[0].question
    replies = []
    for graph in (new, old):
        capsys.readouterr()
        checkpoint = str(tmp_path / "run_text" / "checkpoint.bin")
        assert main(["answer", question, "--checkpoint", checkpoint, "--graph", str(graph)]) == 0
        replies.append(capsys.readouterr().out)
    assert replies[0] == replies[1] and json.loads(replies[0])["answers"]


def _assert_text_graph_refused(ws, tmp_path, capsys, key):
    """A graph in the text format that earlier versions wrote (header line,
    "#SECTION" lines, one row per line), its label edges sorted by key,
    stops eval with exit 2 and asks for a rebuild."""
    g = RelationGraph.load(ws / "g_label.bin")
    edges = sorted(zip(g.edge_heads.tolist(), g.edge_preds.tolist(), g.edge_tails.tolist()), key=key)
    sections = {"meta": ["reversed true", "sha256 0"], "entities": g.entities.names, "predicates": g.predicates.names,
                "edges": [f"{h}\t{p}\t{t}" for h, p, t in edges], "texts": [], "text_relations": []}
    graph = tmp_path / "graph.txt"
    graph.write_text(f"hoptrace-graph v2 label {g.n} {g.num_predicates}\n" + "".join(
        f"#SECTION {name}\n" + "".join(row + "\n" for row in lines) for name, lines in sections.items()
    ))
    capsys.readouterr()
    assert main(_eval_args(ws, graph=graph)) == 2
    assert f"{graph}: not a hoptrace graph of format HOPGRAF1: rebuild it with `hoptrace build-graph`" in _data_error_line(capsys)


def test_predicate_major_text_graph_file_is_refused(ws, tmp_path, capsys):
    """A text graph saved while label edges were kept predicate-major."""
    _assert_text_graph_refused(ws, tmp_path, capsys, lambda e: (e[1], e[0], e[2]))


def test_head_pred_tail_text_graph_file_is_refused(ws, tmp_path, capsys):
    """A text graph saved while label edges were sorted by (head, pred, tail)."""
    _assert_text_graph_refused(ws, tmp_path, capsys, lambda e: e)


def test_answer_requires_bracketed_topic(ws):
    args = [
        "answer", "who directed Movie_0",
        "--checkpoint", str(ws / "run" / "checkpoint.bin"),
        "--graph", str(ws / "g_label.bin"),
    ]
    assert main(args) == 1


def test_answer_unknown_topic(ws):
    args = [
        "answer", "who directed [Not A Movie]",
        "--checkpoint", str(ws / "run" / "checkpoint.bin"),
        "--graph", str(ws / "g_label.bin"),
    ]
    assert main(args) == 2


@pytest.mark.parametrize("top", ["-2", "0", "two"])
def test_answer_top_below_one_is_usage_error(ws, capsys, top):
    """--top -2 used to print every answer but the last two and exit 0."""
    question = load_questions(ws / "data" / "qa_dev.txt")[0].question
    args = ["answer", question, "--checkpoint", str(ws / "run" / "checkpoint.bin")]
    args += ["--graph", str(ws / "g_label.bin"), "--top", top]
    capsys.readouterr()
    assert main(args) == 1
    assert f"argument --top: expected an integer >= 1, got '{top}'" in _usage_error_line(capsys)
    assert not capsys.readouterr().out
    assert main(args[:-1] + ["1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["answers"]) == 1


def test_answer_rejects_checkpoint_without_a_block(ws, tmp_path, capsys):
    """A checkpoint with an intact sha256 whose block list leaves pred.w
    out: answer stops with exit 2, where it used to answer from an
    initialisation."""
    raw = (ws / "run" / "checkpoint.bin").read_bytes()
    names = sorted(load_checkpoint(ws / "run" / "checkpoint.bin")[0].named())
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(checkpoint_with_blocks(raw, [n for n in names if n != "pred.w"]))
    question = load_questions(ws / "data" / "qa_dev.txt")[0].question
    capsys.readouterr()
    assert main(["answer", question, "--checkpoint", str(checkpoint), "--graph", str(ws / "g_label.bin")]) == 2
    assert "no parameter block for ['pred.w']" in _data_error_line(capsys)


def test_answer_imports_no_yaml_generator_or_random(ws, tmp_path):
    """`answer` in a fresh interpreter: it answers, and yaml, numpy.random
    and hoptrace.data stay unimported (each cost 10-20 ms of a cold start)."""
    question = load_questions(ws / "data" / "qa_dev.txt")[0].question
    args = [
        "answer", question,
        "--checkpoint", str(ws / "run" / "checkpoint.bin"),
        "--graph", str(ws / "g_label.bin"),
        "--trace", str(tmp_path / "trace.json"),
    ]
    script = (
        "import json, sys\n"
        "from hoptrace import cli\n"
        f"code = cli.main({args!r})\n"
        "loaded = [m for m in ('yaml', 'numpy.random', 'hoptrace.data') if m in sys.modules]\n"
        "print(json.dumps({'code': code, 'loaded': loaded}), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report == {"code": 0, "loaded": []}, proc.stderr
    assert json.loads(proc.stdout)["question"] == question


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
    checkpoint = tmp_path / "checkpoint.bin"
    save_checkpoint(checkpoint, params, TrainConfig(**meta["config"]), meta["vocab"])
    question = load_questions(ws / "data" / "qa_dev.txt")[0].question
    g = RelationGraph.load(ws / "g_label.bin")
    graph = tmp_path / "graph.bin"
    topic = g.entities.id(question[question.index("[") + 1 : question.index("]")])
    (_isolate(g, topic) if cut_topic else g).save(graph)
    capsys.readouterr()
    args = ["answer", question, "--checkpoint", str(checkpoint), "--graph", str(graph)]
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric failure: "), (out, err)
    if not cut_topic:
        assert main(_eval_args(ws, checkpoint=checkpoint)) == 3
        assert capsys.readouterr().err.startswith("numeric failure: ")
