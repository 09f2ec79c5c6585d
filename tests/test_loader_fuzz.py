"""Damaged graph and checkpoint files never load as something else.

Small random graphs and a small checkpoint are saved, then cut at seeded
offsets, have seeded bytes flipped, and (graphs) have seeded ids replaced.
Every load must raise the loader's own error.  The one other outcome allowed
is a graph that saves back to exactly the original bytes: a cut that only
drops the final line break, say, damages nothing.  Any other exception or
any other graph is a failure.
"""

import numpy as np
import pytest

from hoptrace.config import TrainConfig
from hoptrace.encoder import Vocabulary
from hoptrace.errors import DataError, GraphError
from hoptrace.graph import RelationGraph, add_reverse_relations
from hoptrace.model import ModelParams
from hoptrace.training import load_checkpoint, save_checkpoint

from conftest import random_label_graph, random_text_graph

TRIALS = 60  # per file and kind of damage


def cuts(rng, raw):
    for k in rng.integers(0, len(raw), size=TRIALS):
        yield raw[:k]


def byte_flips(rng, raw):
    for k, x in zip(rng.integers(0, len(raw), size=TRIALS), rng.integers(1, 256, size=TRIALS)):
        yield raw[:k] + bytes([raw[k] ^ x]) + raw[k + 1 :]


def id_flips(rng, raw, n):
    """One id field of an edge or text-relation row set to another value,
    in range or just outside it."""
    lines = raw.decode("utf-8").split("\n")
    rows = [i for i, line in enumerate(lines) if line.count("\t") == 2]
    for _ in range(TRIALS):
        i = rows[int(rng.integers(len(rows)))]
        fields = lines[i].split("\t")
        j = int(rng.integers(3))
        fields[j] = str((int(fields[j]) + 1 + int(rng.integers(1, n + 2))) % (n + 2) - 1)  # in [-1, n], changed
        yield "\n".join(lines[:i] + ["\t".join(fields)] + lines[i + 1 :]).encode("utf-8")


def graphs():
    rng = np.random.default_rng(5)
    return {
        "label": add_reverse_relations(random_label_graph(rng, n=8, num_predicates=3)),
        "text": add_reverse_relations(random_text_graph(rng, n=7, num_rels=12)),
    }


@pytest.mark.parametrize("form", ["label", "text"])
def test_damaged_graph_never_loads_as_another_graph(tmp_path, form):
    g = graphs()[form]
    path, back = tmp_path / "g.txt", tmp_path / "back.txt"
    g.save(path)
    raw = path.read_bytes()
    rng = np.random.default_rng(11)
    damaged = [*cuts(rng, raw), *byte_flips(rng, raw), *id_flips(rng, raw, g.n)]
    loaded = 0
    for bad in damaged:
        path.write_bytes(bad)
        try:
            RelationGraph.load(path).save(back)
        except GraphError:
            continue
        loaded += 1
        assert back.read_bytes() == raw, f"damaged file loaded as a different graph: {bad!r}"
    assert loaded < len(damaged) // 20


def test_damaged_checkpoint_never_loads(tmp_path):
    cfg = TrainConfig(form="label", d=4, T=2).validate()
    path = tmp_path / "c.bin"
    save_checkpoint(path, ModelParams(9, 6, 3, cfg), cfg, Vocabulary())
    raw = path.read_bytes()
    rng = np.random.default_rng(12)
    for bad in [*cuts(rng, raw), *byte_flips(rng, raw), raw + b"\0"]:
        path.write_bytes(bad)
        with pytest.raises(DataError):
            load_checkpoint(path)
