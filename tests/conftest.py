import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hoptrace.encoder import Vocabulary
from hoptrace.graph import RelationGraph, Vocab, build_from_triples


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_label_graph(rng, n=None, num_predicates=None, density=0.15):
    """Random label-form graph with ids already resolved."""
    n = n or int(rng.integers(4, 50))
    num_predicates = num_predicates or int(rng.integers(1, 6))
    names = [f"e{i}" for i in range(n)]
    pnames = [f"p{k}" for k in range(num_predicates)]
    # a ring through every entity first, so ids come out dense and ordered
    triples = [(names[i], pnames[0], names[(i + 1) % n]) for i in range(n)]
    for h in range(n):
        for t in range(n):
            if h != t and rng.random() < density:
                k = int(rng.integers(num_predicates))
                triples.append((names[h], pnames[k], names[t]))
    return build_from_triples(triples)


def random_text_graph(rng, n=None, num_rels=None, isolated=()):
    """Random text-form graph; each relation carries a tiny sentence.
    Entities in isolated take part in no relation."""
    n = n or int(rng.integers(4, 30))
    num_rels = num_rels or int(rng.integers(2, 4 * n))
    names = [f"e{i}" for i in range(n)]
    live = [i for i in range(n) if i not in isolated]
    rels = []
    for _ in range(num_rels):
        h = live[int(rng.integers(len(live)))]
        t = live[int(rng.integers(len(live)))]
        while t == h and len(live) > 1:
            t = live[int(rng.integers(len(live)))]
        rels.append((h, t, f"<sub> rel{int(rng.integers(5))} <obj> ."))
    texts = sorted({r[2] for r in rels})
    index = {s: i for i, s in enumerate(texts)}
    trels = [(h, t, index[s]) for h, t, s in rels]
    return RelationGraph(
        Vocab(names), Vocab(), [], texts, trels, form="text"
    )


@pytest.fixture
def chain_graph():
    """a -p0-> b -p1-> c -p0-> d: one forced path per hop count."""
    return build_from_triples([("a", "p0", "b"), ("b", "p1", "c"), ("c", "p0", "d")])


def nine_tokens():
    """A vocabulary of 9 tokens, the reserved 4 among them: one per
    embedding row of a ModelParams(9, ...)."""
    return Vocabulary(["who", "directed", "movie_3", "by", "the"])


def checkpoint_with_blocks(raw: bytes, names) -> bytes:
    """The checkpoint raw with its parameter blocks replaced by the named
    ones, in that order (a name may repeat), and its sha256 redone: a file
    whose bytes are intact but whose block list is not the model's."""
    (size,) = struct.unpack("<Q", raw[8:16])
    meta = json.loads(raw[16 : 16 + size])
    blocks, offset = {}, 16 + size
    for block in meta["params"]:
        nbytes = 8 * int(np.prod(block["shape"]))
        blocks[block["name"]] = (block, raw[offset : offset + nbytes])
        offset += nbytes
    meta["params"] = [blocks[name][0] for name in names]
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    return sealed(raw[:8] + struct.pack("<Q", len(blob)) + blob + b"".join(blocks[name][1] for name in names))


def checkpoint_with_metadata(raw: bytes, change) -> bytes:
    """The checkpoint raw whose JSON metadata has gone through change(meta),
    with its length field and its sha256 rewritten to match."""
    (size,) = struct.unpack("<Q", raw[8:16])
    meta = json.loads(raw[16 : 16 + size])
    change(meta)
    blob = json.dumps(meta).encode("utf-8")
    return sealed(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + size : -32])


def sealed(body: bytes) -> bytes:
    """body followed by its sha256, as a container file ends."""
    return body + hashlib.sha256(body).digest()
