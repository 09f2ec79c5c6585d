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
from hoptrace.errors import DataError, GraphError
from hoptrace.graph import GRAPH_MAGIC, RelationGraph, Vocab, add_reverse_relations
from hoptrace.model import ModelParams
from hoptrace.training import load_checkpoint, save_checkpoint

from conftest import nine_tokens, random_label_graph, random_text_graph, sealed

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


def _small_graph(form):
    """Entities a b c d, and in label form predicates p q and three label
    edges, in text form two texts and three text relations, stored in the
    order given."""
    entities = Vocab(["a", "b", "c", "d"])
    if form == "label":
        return RelationGraph(entities, Vocab(["p", "q"]), [(0, 0, 1), (1, 1, 2), (2, 0, 3)], [], [], form="label")
    texts = ["<sub> x <obj>", "<sub> y <obj>"]
    return RelationGraph(entities, Vocab(), [], texts, [(0, 1, 0), (1, 2, 1), (3, 0, 1)], form="text")


# each case changes the metadata and the (head, pred, tail) and (head, tail,
# text) id rows of a good file of its form in place; the file is then
# written again, so its sha256 matches, and the GraphError must name the
# defect
CRAFTED_CONTENTS = {
    "edge-entity-id-past-n": ("label", lambda m, e, t: _set(e, (0, 2), 4), "edge entity id 4 out of range"),
    "negative-predicate-id": ("label", lambda m, e, t: _set(e, (1, 1), -1), "predicate id -1 out of range"),
    "text-entity-id-past-n": ("text", lambda m, e, t: _set(t, (0, 0), 4), "text relation entity id 4 out of range"),
    "text-id-past-texts": ("text", lambda m, e, t: _set(t, (1, 2), 2), "text id 2 out of range"),
    "repeated-entity": ("label", lambda m, e, t: _set(m["entities"], 3, "a"), "entity or predicate names repeat"),
    "repeated-predicate": ("label", lambda m, e, t: _set(m["predicates"], 1, "p"), "entity or predicate names repeat"),
    "repeated-text": ("text", lambda m, e, t: _set(m["texts"], 1, m["texts"][0]), "relation texts repeat"),
    "unknown-form": ("text", lambda m, e, t: m.update(form="banana"), "unknown graph form 'banana'"),
    "old-mixed-form": ("text", lambda m, e, t: m.update(form="mixed"), "unknown graph form 'mixed'"),
    "label-form-on-a-text-store": (
        "text", lambda m, e, t: m.update(form="label"), "a label graph holds no texts or text relations, got 2 and 3"
    ),
    "text-form-on-a-label-store": (
        "label", lambda m, e, t: m.update(form="text"), "a text graph holds no predicates or label edges, got 2 and 3"
    ),
    "edge-count-one-more": ("label", lambda m, e, t: m.update(num_edges=4), "bytes of blocks"),
    "text-relation-count-one-less": ("text", lambda m, e, t: m.update(num_text_relations=2), "bytes of blocks"),
    "negative-count": ("label", lambda m, e, t: m.update(num_edges=-1, num_text_relations=4), "bad block shape"),
    "count-no-integer": ("label", lambda m, e, t: m.update(num_edges=3.0), "bad block shape"),
    "no-texts": ("text", lambda m, e, t: m.pop("texts"), "metadata does not describe a graph: KeyError('texts')"),
    "reversed-no-bool": ("label", lambda m, e, t: m.update(reversed="false"), "wrong type"),
    "name-no-string": ("text", lambda m, e, t: _set(m["entities"], 0, 7), "wrong type"),
}


@pytest.mark.parametrize("case", list(CRAFTED_CONTENTS))
def test_crafted_graph_contents_are_a_graph_error(tmp_path, case):
    form, craft, message = CRAFTED_CONTENTS[case]
    path = tmp_path / "g.bin"
    _small_graph(form).save(path)
    meta, data = container.read(path, GRAPH_MAGIC, GraphError, "a graph")
    layout = [("<i8", (meta["num_edges"], 3)), ("<i8", (meta["num_text_relations"], 3))]
    edges, trels = (rows.copy() for rows in container.blocks(path, data, layout, GraphError))
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
    _small_graph("label").save(path)
    path.write_bytes(craft(path.read_bytes()))
    with pytest.raises(GraphError, match=re.escape(message)):
        RelationGraph.load(path)


def test_damaged_checkpoint_never_loads(tmp_path):
    cfg = TrainConfig(form="label", d=4, T=2).validate()
    path = tmp_path / "c.bin"
    save_checkpoint(path, ModelParams(9, 6, 3, cfg), cfg, nine_tokens())
    raw = path.read_bytes()
    rng = np.random.default_rng(12)
    for bad in [*cuts(rng, raw), *byte_flips(rng, raw), raw + b"\0"]:
        path.write_bytes(bad)
        with pytest.raises(DataError):
            load_checkpoint(path)
