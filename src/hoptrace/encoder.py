"""Tokenization, vocabularies, and the recurrent question/relation encoders.

Vocab is the package's one name <-> id map: dense ids in first-seen order.
Graphs number their entities, predicates and relation texts with it, and
Vocabulary is a Vocab of tokens whose first ids are the reserved slots.

The encoder is a single-layer bidirectional GRU over trainable embeddings.
Per-token states are the concatenated forward/backward hidden states
projected down to d; the pooled vector is the projected concatenation of
the final forward and final backward states.

One masked recurrence, _bigru, runs both directions over a right-padded
batch and serves every encoder: a question batch projects the per-token
states and the pooled vector, the relation table only the pooled vector,
and a single question is a batch of one.  Each direction is one graph node,
_gru_direction, whose backward pass is hand-written backprop through time,
so the tape does not grow with the length of a sentence.  At a pad position
a row carries its state over unchanged.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, GraphError

PAD, UNK, SUB, OBJ = 0, 1, 2, 3
SUB_TOKEN, OBJ_TOKEN = "<sub>", "<obj>"
_RESERVED = ["<pad>", "<unk>", SUB_TOKEN, OBJ_TOKEN]

_TOKEN_RE = re.compile(r"<sub>|<obj>|\w+|[^\w\s]")
# a question marks each topic entity's name in [brackets]
TOPIC_RE = re.compile(r"\[([^\]]+)\]")


def split_tokens(text: str) -> list[str]:
    """Lowercase and split on word/punctuation boundaries; the `<sub>` and
    `<obj>` placeholders survive as single tokens."""
    return _TOKEN_RE.findall(text.lower())


class Vocab:
    """Dense name <-> id map, first-seen order."""

    def __init__(self, names=()):
        # dict.fromkeys keeps the first of repeated names, in order
        self._names: list[str] = list(dict.fromkeys(names))
        self._index: dict[str, int] = dict(zip(self._names, range(len(self._names))))

    def add(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self._names)
            self._names.append(name)
        return self._index[name]

    def id(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphError(f"unknown name {name!r}") from None

    def get(self, name: str, default=None):
        return self._index.get(name, default)

    def ids(self, names) -> tuple:
        """The id of each name, None for a name not in the map."""
        return tuple(map(self._index.get, names))

    def name(self, idx: int) -> str:
        return self._names[idx]

    def __len__(self):
        return len(self._names)

    def __contains__(self, name):
        return name in self._index

    @property
    def names(self) -> list[str]:
        return list(self._names)


class Vocabulary(Vocab):
    """Token vocabulary: a Vocab whose first ids are the reserved
    PAD/UNK/placeholder slots."""

    def __init__(self, tokens=()):
        super().__init__([*_RESERVED, *tokens])

    def add_text(self, text: str):
        for t in split_tokens(text):
            self.add(t)

    def encode(self, text: str) -> np.ndarray:
        """tokenize() of the spec: text -> index sequence, UNK for novelty,
        [UNK] for empty input."""
        ids = [self._index.get(t, UNK) for t in split_tokens(text)]
        if not ids:
            ids = [UNK]
        return np.asarray(ids, dtype=np.int64)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for t in self._names:
                f.write(t + "\n")

    @classmethod
    def load(cls, path):
        """The file's lines in order, with no reserved slot added."""
        try:
            with open(path, encoding="utf-8") as f:
                names = [line.rstrip("\n") for line in f]
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text: {e}") from None
        v = cls.__new__(cls)
        Vocab.__init__(v, names)
        return v


def _uniform(rng, shape, scale):
    """A trainable tensor drawn from U(-scale, scale).  rng None leaves it
    unfilled, for a caller that overwrites every value."""
    data = np.empty(shape) if rng is None else rng.uniform(-scale, scale, size=shape)
    return Tensor(data, requires_grad=True)


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
        self.emb = _uniform(rng, (vocab_size, d), 0.1)
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


def _gru_direction(gx, w_h, b, alive, reverse):
    """One direction of the masked GRU over a right-padded batch, as a single
    graph node with hand-written backprop through time.

    gx is the (K, L, 3d) input projection of every position; gates are
    stacked (reset, update, candidate).  alive is the (K, L) 0/1 mask: at a
    pad position a row keeps its previous state.  reverse runs positions
    L-1 down to 0.  Returns the (K, L, d) state after each position.
    """
    K, L, d3 = gx.shape
    d = d3 // 3
    whd = w_h.data
    # position-major, so every step reads and writes contiguous (K, .) rows
    pre = np.add(gx.data.transpose(1, 0, 2), b.data, out=np.empty((L, K, d3)))
    keep = alive.T[:, :, None] > 0
    order = range(L - 1, -1, -1) if reverse else range(L)
    # hs[i + lo] is the state after position i and hs[i + 1 - lo] the one
    # before it; the extra row is the zero initial state
    lo = 0 if reverse else 1
    hs = np.zeros((L + 1, K, d))
    rz, cand, ghn = np.empty((L, K, 2 * d)), np.empty((L, K, d)), np.empty((L, K, d))
    h = hs[order[0] + 1 - lo]
    for i in order:
        gh = h @ whd
        p = pre[i]
        rz[i] = ad.sigmoid_array(p[:, : 2 * d] + gh[:, : 2 * d])
        r, z = rz[i, :, :d], rz[i, :, d:]
        ghn[i] = gh[:, 2 * d :]
        cand[i] = np.tanh(p[:, 2 * d :] + r * ghn[i])
        nh = z * h + (1.0 - z) * cand[i]
        h = hs[i + lo] = np.where(keep[i], nh, h)

    def vjp(g):
        g = g.transpose(1, 0, 2)
        h_in = hs[1 - lo : 1 - lo + L]
        dgh = np.empty((L, K, d3))
        dcand_pre = np.empty((L, K, d))
        dh = np.zeros((K, d))
        for i in reversed(order):
            dh = dh + g[i]
            dnh = np.where(keep[i], dh, 0.0)
            r, z, c = rz[i, :, :d], rz[i, :, d:], cand[i]
            dc = dcand_pre[i] = dnh * (1.0 - z) * (1.0 - c * c)
            dgh[i, :, :d] = dc * ghn[i] * r * (1.0 - r)
            dgh[i, :, d : 2 * d] = dnh * (h_in[i] - c) * z * (1.0 - z)
            dgh[i, :, 2 * d :] = dc * r
            dh_prev = dnh * z + dgh[i] @ whd.T
            dh = np.where(keep[i], dh_prev, dh)
        dw_h = h_in.reshape(L * K, d).T @ dgh.reshape(L * K, d3)
        dpre = dgh  # the gh gradient but for the candidate third, not scaled by r
        dpre[..., 2 * d :] = dcand_pre
        return dpre.transpose(1, 0, 2), dw_h, dpre.sum(axis=(0, 1))

    out = hs[lo : lo + L]
    return ad.node(out.transpose(1, 0, 2), (gx, w_h, b), vjp)


class BatchQuestionEncoding(NamedTuple):
    """Padded batch of question encodings.

    q is (B, d) pooled, h is (B, L, d) per-token states, alive is a (B, L)
    0/1 mask flagging real (non-pad) positions.
    """

    q: Tensor
    h: Tensor
    alive: np.ndarray


def _bigru(params: EncoderParams, sequences: list[np.ndarray]):
    """The masked BiGRU over K right-padded token sequences: one graph node
    per direction, with hand-written backprop through time.

    Returns the forward and backward states, each a (K, L, d) tensor, and
    the (K, L) alive mask.  A pad position carries the row's state over
    unchanged, so padding never reaches a row's states, and fwd[:, L-1] and
    bwd[:, 0] are every sequence's final forward and backward states.
    """
    K = len(sequences)
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    L = int(lengths.max())
    ids = np.zeros((K, L), dtype=np.int64)
    for k, s in enumerate(sequences):
        ids[k, : len(s)] = s
    alive = (np.arange(L)[None, :] < lengths[:, None]).astype(np.float64)
    xs = params.emb[ids.reshape(-1)]  # (K*L, d)
    fwd, bwd = (
        # every input projection of a direction in one matmul
        _gru_direction(ad.reshape(xs @ w_x, (K, L, 3 * params.d)), w_h, b, alive, reverse)
        for w_x, w_h, b, reverse in (
            (params.w_xf, params.w_hf, params.b_f, False),
            (params.w_xb, params.w_hb, params.b_b, True),
        )
    )
    return fwd, bwd, alive


def _pool(params: EncoderParams, fwd: Tensor, bwd: Tensor) -> Tensor:
    """(K, d) pooled vectors: the projected final forward and backward states."""
    L = fwd.shape[1]
    return ad.concat([fwd[:, L - 1], bwd[:, 0]], axis=1) @ params.w_out + params.b_out


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
    both_tok = ad.concat([fwd, bwd], axis=2)
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

    def get_many(self, ids: np.ndarray) -> Tensor:
        """Encodings for the given unique-text ids as (K, d) rows."""
        if self._table is None:
            self._table = encode_relation_batch(self.params, self.token_ids)
        return self._table[np.asarray(ids, dtype=np.int64)]
