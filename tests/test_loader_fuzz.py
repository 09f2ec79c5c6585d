"""Damaged graph and checkpoint files never load.

Small random graphs and a small checkpoint are saved, then cut at seeded
offsets and have seeded bytes flipped: every load must raise the loader's
own error.  Crafted graph files, whose sha256 is redone over what was
changed, must raise GraphError too: each defect is found by its own check.
"""

import re
import struct

import numpy as np
import pytest

from hoptrace import container
from hoptrace.config import TrainConfig
from hoptrace.encoder import Vocabulary
from hoptrace.errors import DataError, GraphError
from hoptrace.graph import GRAPH_MAGIC, RelationGraph, Vocab, add_reverse_relations
from hoptrace.model import ModelParams
from hoptrace.training import load_checkpoint, save_checkpoint

from conftest import random_label_graph, random_text_graph, sealed

TRIALS = 60  # per file and kind of damage


def cuts(rng, raw):
    for k in rng.integers(0, len(raw), size=TRIALS):
        yield raw[:k]


def byte_flips(rng, raw):
    for k, x in zip(rng.integers(0, len(raw), size=TRIALS), rng.integers(1, 256, size=TRIALS)):
        yield raw[:k] + bytes([raw[k] ^ x]) + raw[k + 1 :]


def graphs():
    rng = np.random.default_rng(5)
    return {
        "label": add_reverse_relations(random_label_graph(rng, n=8, num_predicates=3)),
        "text": add_reverse_relations(random_text_graph(rng, n=7, num_rels=12)),
    }


@pytest.mark.parametrize("form", ["label", "text"])
def test_damaged_graph_never_loads_as_another_graph(tmp_path, form):
    path = tmp_path / "g.bin"
    graphs()[form].save(path)
    raw = path.read_bytes()
    rng = np.random.default_rng(11)
    for bad in [*cuts(rng, raw), *byte_flips(rng, raw), raw + b"\0"]:
        path.write_bytes(bad)
        with pytest.raises(GraphError):
            RelationGraph.load(path)


def _set(array, index, value):
    array[index] = value


def _with_length(raw: bytes, length: int) -> bytes:
    """raw with its metadata length field set to length, sealed again."""
    return sealed(raw[:8] + struct.pack("<Q", length) + raw[16:-32])


def _small_graph():
    """Entities a b c d, predicates p q, three label edges and three text
    relations, stored in the order given."""
    return RelationGraph(
        Vocab(["a", "b", "c", "d"]), Vocab(["p", "q"]), [(0, 0, 1), (1, 1, 2), (2, 0, 3)],
        ["<sub> x <obj>", "<sub> y <obj>"], [(0, 1, 0), (1, 2, 1), (3, 0, 1)], form="mixed",
    )


# each case changes the metadata and the (head, pred, tail) and (head, tail,
# text) id rows of a good file in place; the file is then written again, so
# its sha256 matches, and the GraphError must name the defect
CRAFTED_CONTENTS = {
    "edge-entity-id-past-n": (lambda m, e, t: _set(e, (0, 2), 4), "edge entity id 4 out of range"),
    "negative-predicate-id": (lambda m, e, t: _set(e, (1, 1), -1), "predicate id -1 out of range"),
    "text-entity-id-past-n": (lambda m, e, t: _set(t, (0, 0), 4), "text relation entity id 4 out of range"),
    "text-id-past-texts": (lambda m, e, t: _set(t, (1, 2), 2), "text id 2 out of range"),
    "repeated-entity": (lambda m, e, t: _set(m["entities"], 3, "a"), "entity or predicate names repeat"),
    "repeated-predicate": (lambda m, e, t: _set(m["predicates"], 1, "p"), "entity or predicate names repeat"),
    "repeated-text": (lambda m, e, t: _set(m["texts"], 1, m["texts"][0]), "relation texts repeat"),
    "unknown-form": (lambda m, e, t: m.update(form="banana"), "unknown graph form 'banana'"),
    "edge-count-one-more": (lambda m, e, t: m.update(num_edges=4), "bytes of blocks"),
    "text-relation-count-one-less": (lambda m, e, t: m.update(num_text_relations=2), "bytes of blocks"),
    "negative-count": (lambda m, e, t: m.update(num_edges=-1, num_text_relations=7), "bad block shape"),
    "count-no-integer": (lambda m, e, t: m.update(num_edges=3.0), "bad block shape"),
    "no-texts": (lambda m, e, t: m.pop("texts"), "metadata does not describe a graph: KeyError('texts')"),
    "reversed-no-bool": (lambda m, e, t: m.update(reversed="false"), "wrong type"),
    "name-no-string": (lambda m, e, t: _set(m["entities"], 0, 7), "wrong type"),
}


@pytest.mark.parametrize("case", list(CRAFTED_CONTENTS))
def test_crafted_graph_contents_are_a_graph_error(tmp_path, case):
    craft, message = CRAFTED_CONTENTS[case]
    path = tmp_path / "g.bin"
    _small_graph().save(path)
    meta, data = container.read(path, GRAPH_MAGIC, GraphError, "a graph")
    edges, trels = (rows.copy() for rows in container.blocks(path, data, [("<i8", (3, 3))] * 2, GraphError))
    craft(meta, edges, trels)
    container.write(path, GRAPH_MAGIC, meta, [edges, trels])
    with pytest.raises(GraphError, match=re.escape(message)):
        RelationGraph.load(path)


# each case makes the bytes before the sha256 from a good file's bytes, and
# seals them with their own sha256
CRAFTED_FRAMING = {
    "trailing-bytes": (lambda raw: sealed(raw[:-32] + bytes(24)), "bytes of blocks"),
    "one-trailing-byte": (lambda raw: sealed(raw[:-32] + b"\0"), "bytes of blocks"),
    "metadata-length-past-end": (lambda raw: _with_length(raw, len(raw)), "truncated: the metadata runs past the end"),
    "metadata-length-short": (lambda raw: _with_length(raw, 10), "unreadable metadata"),
    "no-metadata-length": (lambda raw: sealed(GRAPH_MAGIC + b"\0\0\0"), "truncated"),
    "metadata-no-object": (lambda raw: sealed(GRAPH_MAGIC + struct.pack("<Q", 2) + b"[]"), "does not describe a graph"),
    "metadata-not-utf8": (lambda raw: sealed(GRAPH_MAGIC + struct.pack("<Q", 1) + b"\xff"), "unreadable metadata"),
}


@pytest.mark.parametrize("case", list(CRAFTED_FRAMING))
def test_crafted_graph_framing_is_a_graph_error(tmp_path, case):
    craft, message = CRAFTED_FRAMING[case]
    path = tmp_path / "g.bin"
    _small_graph().save(path)
    path.write_bytes(craft(path.read_bytes()))
    with pytest.raises(GraphError, match=re.escape(message)):
        RelationGraph.load(path)


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
