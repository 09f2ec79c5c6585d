"""The one binary file format of hoptrace, for graphs and checkpoints.

A file is a magic string, the byte length of its metadata as a
little-endian u64, the metadata as sort-keyed UTF-8 JSON, raw little-endian
blocks in the order the caller lays them out, and last the sha256 of every
byte before it.  read() checks the magic, then the sha256, and only then
the framing, so no length in a damaged file is ever trusted.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def write(path, magic: bytes, meta: dict, blocks):
    """Write meta and the C-contiguous little-endian arrays of blocks
    (byte-deterministic)."""
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for part in (magic, len(blob).to_bytes(8, "little"), blob, *blocks):
            digest.update(part)
            f.write(part)
        f.write(digest.digest())


def read(path, magic: bytes, error, what: str):
    """(metadata, block bytes) of the file at path.  A file that does not
    start with magic raises error("<path>: not <what>"); a damaged file or
    broken framing raises error too."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(magic):
        raise error(f"{path}: not {what}")
    body = raw[:-32]
    if hashlib.sha256(body).digest() != raw[-32:]:
        raise error(f"{path}: sha256 does not match the contents: the file is damaged or was edited")
    start = len(magic) + 8
    size = int.from_bytes(body[len(magic) : start], "little")
    if len(body) < start or size > len(body) - start:
        raise error(f"{path}: truncated: the metadata runs past the end of the file")
    try:
        meta = json.loads(body[start : start + size].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise error(f"{path}: unreadable metadata: {e}") from None
    return meta, memoryview(body)[start + size :]


def blocks(path, data, layout, error) -> list[np.ndarray]:
    """data cut into read-only arrays of the (dtype, shape) pairs of layout,
    which must take every byte of it.  Shapes come from metadata, so each
    size must be an int >= 0."""
    if not all(type(k) is int and k >= 0 for _, shape in layout for k in shape):
        raise error(f"{path}: bad block shape in {[shape for _, shape in layout]}")
    counts = [math.prod(shape) for _, shape in layout]
    need = sum(np.dtype(dtype).itemsize * k for (dtype, _), k in zip(layout, counts))
    if need != len(data):
        raise error(f"{path}: {len(data)} bytes of blocks where the metadata describes {need}")
    out, offset = [], 0
    for (dtype, shape), k in zip(layout, counts):
        out.append(np.frombuffer(data, dtype, k, offset).reshape(shape))
        offset += np.dtype(dtype).itemsize * k
    return out
