"""Tokenization, vocabulary, and the recurrent question/relation encoders.

The encoder is a single-layer bidirectional GRU over trainable embeddings.
Per-token states are the concatenated forward/backward hidden states
projected down to d; the pooled vector is the projected concatenation of
the final forward and final backward states.

One masked recurrence, _bigru, runs both directions over a right-padded
batch and serves every encoder: a question batch projects the per-token
states and the pooled vector, the relation table only the pooled vector,
and a single question is a batch of one.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PAD, UNK, SUB, OBJ = 0, 1, 2, 3
SUB_TOKEN, OBJ_TOKEN = "<sub>", "<obj>"
_RESERVED = ["<pad>", "<unk>", SUB_TOKEN, OBJ_TOKEN]

_TOKEN_RE = re.compile(r"<sub>|<obj>|\w+|[^\w\s]")


def split_tokens(text: str) -> list[str]:
    """Lowercase and split on word/punctuation boundaries; the `<sub>` and
    `<obj>` placeholders survive as single tokens."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Token <-> index map with reserved PAD/UNK/placeholder slots."""

    def __init__(self, tokens=()):
        self._index: dict[str, int] = {}
        self._tokens: list[str] = []
        for t in _RESERVED:
            self._add(t)
        for t in tokens:
            self.add(t)

    def _add(self, token: str) -> int:
        if token not in self._index:
            self._index[token] = len(self._tokens)
            self._tokens.append(token)
        return self._index[token]

    def add(self, token: str) -> int:
        return self._add(token)

    def add_text(self, text: str):
        for t in split_tokens(text):
            self._add(t)

    def __len__(self):
        return len(self._tokens)

    def __contains__(self, token):
        return token in self._index

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def encode(self, text: str) -> np.ndarray:
        """tokenize() of the spec: text -> index sequence, UNK for novelty,
        [UNK] for empty input."""
        ids = [self._index.get(t, UNK) for t in split_tokens(text)]
        if not ids:
            ids = [UNK]
        return np.asarray(ids, dtype=np.int64)

    def decode(self, ids) -> str:
        return " ".join(self._tokens[int(i)] for i in ids)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for t in self._tokens:
                f.write(t + "\n")

    @classmethod
    def load(cls, path):
        v = cls.__new__(cls)
        v._index, v._tokens = {}, []
        with open(path, encoding="utf-8") as f:
            for line in f:
                v._add(line.rstrip("\n"))
        return v


def _uniform(rng, shape, scale):
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


class EncoderParams:
    """Embeddings + bidirectional GRU weights + output projection to d.

    The three GRU gates are fused: ``w_x*`` maps inputs to the stacked
    (reset, update, candidate) pre-activations of size 3h, ``w_h*`` does the
    same for the hidden state.
    """

    def __init__(self, vocab_size: int, d: int, rng, prefix: str):
        self.d = d
        self.prefix = prefix
        s = 1.0 / np.sqrt(d)
        self.emb = Tensor(rng.uniform(-0.1, 0.1, size=(vocab_size, d)), requires_grad=True)
        self.w_xf = _uniform(rng, (d, 3 * d), s)
        self.w_hf = _uniform(rng, (d, 3 * d), s)
        self.b_f = Tensor(np.zeros(3 * d), requires_grad=True)
        self.w_xb = _uniform(rng, (d, 3 * d), s)
        self.w_hb = _uniform(rng, (d, 3 * d), s)
        self.b_b = Tensor(np.zeros(3 * d), requires_grad=True)
        self.w_out = _uniform(rng, (2 * d, d), s)
        self.b_out = Tensor(np.zeros(d), requires_grad=True)

    def named(self) -> dict[str, Tensor]:
        return {
            f"{self.prefix}.{k}": v
            for k, v in vars(self).items()
            if isinstance(v, Tensor)
        }


def _sigm(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _gru_cell_pre(gx, h, w_h, b, d):
    """GRU step with the input projection gx already computed.

    Fused into a single graph node with a hand-written backward pass — the
    cell runs once per token per direction, so op-granularity autodiff here
    would dominate the whole runtime.  gx is (K, 3d) and h is (K, d).
    """
    gxd, hd, whd, bd = gx.data, h.data, w_h.data, b.data
    gh = hd @ whd
    pre = gxd + bd
    r = _sigm(pre[..., :d] + gh[..., :d])
    z = _sigm(pre[..., d : 2 * d] + gh[..., d : 2 * d])
    ghn = gh[..., 2 * d :]
    cand = np.tanh(pre[..., 2 * d :] + r * ghn)
    out = z * hd + (1.0 - z) * cand

    def vjp(g):
        dz = g * (hd - cand)
        dcand_pre = g * (1.0 - z) * (1.0 - cand * cand)
        dr = dcand_pre * ghn
        da = np.concatenate(
            (dr * r * (1.0 - r), dz * z * (1.0 - z), dcand_pre), axis=-1
        )
        dgh = da.copy()
        dgh[..., 2 * d :] *= r
        dh = g * z + dgh @ whd.T
        return da, dh, hd.T @ dgh, da.sum(axis=0)

    return ad.node(out, (gx, h, w_h, b), vjp)


class BatchQuestionEncoding(NamedTuple):
    """Padded batch of question encodings.

    q is (B, d) pooled, h is (B, L, d) per-token states, alive is a (B, L)
    0/1 mask flagging real (non-pad) positions.
    """

    q: Tensor
    h: Tensor
    alive: np.ndarray


def _bigru(params: EncoderParams, sequences: list[np.ndarray]):
    """The masked BiGRU recurrence over K right-padded token sequences.

    Returns the forward and backward states, each a list of L (K, d) tensors
    indexed by position, and the (K, L) alive mask.  The mask freezes a
    sequence's state at pad positions, so padding never reaches a row's
    states and fwd[-1] and bwd[0] are every sequence's final forward and
    backward states.
    """
    d = params.d
    K = len(sequences)
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    L = int(lengths.max())
    ids = np.zeros((K, L), dtype=np.int64)
    for k, s in enumerate(sequences):
        ids[k, : len(s)] = s
    alive = (np.arange(L)[None, :] < lengths[:, None]).astype(np.float64)
    xs = params.emb[ids.reshape(-1)]  # (K*L, d)

    directions = []
    for w_x, w_h, b, positions in (
        (params.w_xf, params.w_hf, params.b_f, range(L)),
        (params.w_xb, params.w_hb, params.b_b, range(L - 1, -1, -1)),
    ):
        gx_all = xs @ w_x  # every input projection in one matmul
        h = Tensor(np.zeros((K, d)))
        states = [None] * L
        for i in positions:
            m = Tensor(alive[:, i : i + 1])
            nh = _gru_cell_pre(gx_all[np.arange(K) * L + i], h, w_h, b, d)
            h = m * nh + (1.0 - m) * h
            states[i] = h
        directions.append(states)
    fwd, bwd = directions
    return fwd, bwd, alive


def _pool(params: EncoderParams, fwd, bwd) -> Tensor:
    """(K, d) pooled vectors: the projected final forward and backward states."""
    return ad.concat([fwd[-1], bwd[0]], axis=1) @ params.w_out + params.b_out


def encode_question_batch(params: EncoderParams, sequences: list[np.ndarray]) -> BatchQuestionEncoding:
    """Run the BiGRU over B right-padded token sequences at once.

    Per-token states at pad positions are junk that the alive mask screens
    off downstream.
    """
    if not sequences:
        raise ValueError("cannot encode an empty batch")
    if any(len(s) == 0 for s in sequences):
        raise ValueError("cannot encode an empty token sequence")
    d = params.d
    fwd, bwd, alive = _bigru(params, sequences)
    K, L = alive.shape
    # per-token (K, L, 2d) -> project to (K, L, d) via one flat matmul
    both_tok = ad.concat([ad.stack(fwd, axis=1), ad.stack(bwd, axis=1)], axis=2)
    flat = ad.reshape(both_tok, (K * L, 2 * d)) @ params.w_out + params.b_out
    return BatchQuestionEncoding(q=_pool(params, fwd, bwd), h=ad.reshape(flat, (K, L, d)), alive=alive)


def encode_question(params: EncoderParams, token_ids: np.ndarray) -> BatchQuestionEncoding:
    """One question: encode_question_batch over a batch of one row."""
    return encode_question_batch(params, [token_ids])


def encode_relation_batch(params: EncoderParams, sequences: list[np.ndarray]) -> Tensor:
    """Encode K token sequences at once; returns (K, d) pooled vectors.
    Only the pooled vector is projected: the relation table never reads
    per-token states."""
    if not sequences:
        return Tensor(np.zeros((0, params.d)))
    fwd, bwd, _ = _bigru(params, sequences)
    return _pool(params, fwd, bwd)


class RelationEncodingCache:
    """Pooled encodings of the graph's unique relation texts.

    Identical texts encode identically, so one (num_texts, d) table covers
    every relation; lookups are a single differentiable row-gather.  The
    table must be invalidated whenever the relation-encoder parameters
    change (i.e. every optimizer step) and is rebuilt lazily in one batched
    encoder pass.
    """

    def __init__(self, params: EncoderParams, vocab: Vocabulary, texts: list[str]):
        self.params = params
        self.token_ids = [vocab.encode(t) for t in texts]
        self._table: Tensor | None = None

    def invalidate(self):
        self._table = None

    def get_many(self, text_ids: np.ndarray) -> Tensor:
        """Encodings for the given unique-text ids as (K, d) rows."""
        if self._table is None:
            self._table = encode_relation_batch(self.params, self.token_ids)
        return self._table[np.asarray(text_ids, dtype=np.int64)]
