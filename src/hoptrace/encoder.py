"""Tokenization, vocabularies, and the recurrent question/relation encoders.

Vocab is the package's one name <-> id map: dense ids in first-seen order.
Graphs number their entities, predicates and relation texts with it, and
Vocabulary is a Vocab of tokens whose first ids are the reserved slots.

The encoder is a single-layer bidirectional GRU over trainable embeddings.
Per-token states are the concatenated forward/backward hidden states
projected down to d; the pooled vector is the projected concatenation of
the final forward and final backward states.

One recurrence, _packed_bigru, runs both directions over a batch of token
sequences and serves every encoder: a question batch projects the
per-token states and the pooled vector, the relation table only the pooled
vector, and a single question is a batch of one.  It is one graph node
from the token ids to the states: the embedding gather, the input
projections and the recurrence, whose backward pass is hand-written
backprop through time, so the tape does not grow with the length of a
sentence.  The node is packed: it computes only real tokens, never a pad.
Its rows are ranked longest first, so the rows still running at each step
are a prefix, and the two directions advance together, on GRU weights
stored stacked by direction as the node computes with them.  It projects
the embeddings in that cell order, straight into each step's
pre-activations; the values and gradients are bit for bit those of a
gather and a projection in token order (_packed_bigru says why).  Its
output is still right-padded, and every pad position is 0 in both halves,
so _pool reads a row's final states at its last token (forward) and at
position 0 (backward) in one gather.

A step computes its reset and update gates as sigmoid(x) = tanh(x/2)/2 + 1/2
(_sigmoid_of_half, which says why the model's score heads do not) and its
new state, (1 - z) * c + z * h, as c + z * (h - c): three array passes.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, GraphError, read_text
from .kernels import _scatter

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

    def get(self, name: str):
        return self._index.get(name)

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
        names = read_text(path, DataError).split("\n")
        if not names[-1]:  # the line break that ends the last line
            names.pop()
        return cls.of_names(names)

    @classmethod
    def of_names(cls, names):
        """These tokens in id order, with no reserved slot added."""
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

    The GRU weights are stacked by direction, forward at index 0: ``w_x``
    (2, d, 3d) maps an embedding row, and ``w_h`` (2, d, 3d) the hidden
    state, to the fused gate pre-activations (reset, update, candidate),
    and ``b`` (2, 3d) is their bias.  The initial values are drawn in the
    order forward w_x, forward w_h, backward w_x, backward w_h.
    """

    def __init__(self, vocab_size: int, d: int, rng, prefix: str):
        self.d = d
        self.prefix = prefix
        s = 1.0 / np.sqrt(d)
        self.emb = _uniform(rng, (vocab_size, d), 0.1)
        gru = _uniform(rng, (2, 2, d, 3 * d), s).data  # (direction, input/hidden, d, 3d)
        self.w_x = Tensor(gru[:, 0].copy(), requires_grad=True)
        self.w_h = Tensor(gru[:, 1].copy(), requires_grad=True)
        self.b = Tensor(np.zeros((2, 3 * d)), requires_grad=True)
        self.w_out = _uniform(rng, (2 * d, d), s)
        self.b_out = Tensor(np.zeros(d), requires_grad=True)

    def named(self) -> dict[str, Tensor]:
        return {
            f"{self.prefix}.{k}": v
            for k, v in vars(self).items()
            if isinstance(v, Tensor)
        }


def _sigmoid_of_half(x):
    """sigmoid(2x) in place, as tanh(x)/2 + 1/2: three passes over x, where
    autodiff.sigmoid_array makes seven.  The two agree within 2^-51, but a
    value near 0 comes out as 1/2 minus a number near 1/2, a multiple of
    2^-54, not to its own relative precision.  A GRU gate scales a state of
    size ~1, so that does not matter there.  The predicate, text and mask
    heads keep sigmoid_array: there an exact tiny score decides whether an
    entity enters the next step's frontier."""
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


def _packed_bigru(emb, tokens, w_x, w_h, b, lengths):
    """Both directions of the GRU over K token sequences of the given
    lengths, as a single graph node with hand-written backprop through time.

    tokens holds the N real token ids, the sequences concatenated in order,
    and emb their embedding table.  w_x, w_h and b are EncoderParams'
    direction-stacked weights: w_x[i] and b[i] map an embedding row, and
    w_h[i] the state, to direction i's 3d gate pre-activations, stacked
    (reset, update, candidate), forward at i = 0.  Returns
    (K, L, 2d): per position, the forward state after it and the backward
    state after it.  Every pad position is 0 in both halves: the node
    writes each cell's state to its own position and nothing else, and a
    pad's upstream gradient reaches no cell.

    The rows are ranked longest first (a stable sort), so the rows still
    running at step s are ranks [:k_s] in both directions: the backward
    direction reads each row from its own last token.  Cell (s, j), rank
    j's step s, sits at off[s] + j in every per-cell array, and the two
    directions advance together as (2, k_s, .) arrays.

    The input projections are made in cell order: each direction gathers
    its cells' embedding rows and one batched (2, N, d) @ (2, d, 3d) product
    gives every pre-activation.  That is bit for bit what projecting in
    token order and gathering the projected rows gives: at one BLAS thread a
    row of a product does not depend on where the row sits, and the gate
    columns of the weights and biases are halved up front, which is exact.
    The backward pass scatters its gradients back to token order and forms
    the embedding gradient and each weight's whole (2, ...) gradient there,
    as a gather and a batched matmul node would.
    """
    K, L = len(lengths), int(lengths.max())
    N, d = len(tokens), w_h.shape[1]
    d3 = 3 * d
    order = np.argsort(-lengths, kind="stable")  # rank -> row
    lens = lengths[order]
    step, rank = np.nonzero(np.arange(L)[:, None] < lens)  # cells, step-major
    off = np.zeros(L + 1, dtype=np.int64)
    np.cumsum(np.bincount(step, minlength=L), out=off[1:])
    row = order[rank]
    first = (np.cumsum(lengths) - lengths)[row]
    pos_b = lens[rank] - 1 - step  # each backward cell's position in its row
    tok_f, tok_b = first + step, first + pos_b  # each cell's token
    # S[:, :K] is the zero initial state and S[:, K + n] the state after cell
    # n; step s reads its input states from S[:, base[s]:]
    base = np.concatenate(([0], K + off[: L - 1]))
    # the gates' pre-activations enter halved, for _sigmoid_of_half; halving
    # is exact, so pre[..., :2d] and h @ w_rz are exactly half of the gate
    # columns of x @ w_x + b and h @ w_h.  The gate and candidate columns of
    # h @ w_h are two products, so each lands in contiguous rows
    half_x, half_b = w_x.data.copy(), b.data.copy()
    for a in (half_x, half_b):
        a[..., : 2 * d] *= 0.5
    w_rz, w_c = w_h.data[..., : 2 * d] * 0.5, np.ascontiguousarray(w_h.data[..., 2 * d :])
    pre = np.matmul(emb.data[tokens[np.stack([tok_f, tok_b])]], half_x)
    pre += half_b[:, None]
    S = np.zeros((2, K + N, d))
    rz, gc, cand = np.empty((2, N, 2 * d)), np.empty((2, N, d)), np.empty((2, N, d))
    offs, bases = off.tolist(), base.tolist()
    for s in range(L):
        lo, hi = offs[s], offs[s + 1]
        h = S[:, bases[s] : bases[s] + hi - lo]
        p = pre[:, lo:hi]
        rz_s = np.matmul(h, w_rz, out=rz[:, lo:hi])
        rz_s += p[..., : 2 * d]
        _sigmoid_of_half(rz_s)
        r, z = rz_s[..., :d], rz_s[..., d:]
        c = np.multiply(r, np.matmul(h, w_c, out=gc[:, lo:hi]), out=cand[:, lo:hi])
        c += p[..., 2 * d :]
        np.tanh(c, out=c)
        new = np.subtract(h, c, out=S[:, K + lo : K + hi])
        new *= z
        new += c  # c + z * (h - c)

    out = np.zeros((K, L, 2 * d))
    out[row, step, :d] = S[0, K:]
    out[row, pos_b, d:] = S[1, K:]

    def vjp(g):
        dS = np.stack([g[row, step, :d], g[row, pos_b, d:]])  # each cell's upstream gradient
        # every factor that depends on the forward pass alone, in bulk
        r, z = rz[..., :d], rz[..., d:]
        h_in = S[:, base[step] + rank]
        a = (1.0 - z) * (1.0 - cand * cand)  # d state / d cand_pre
        fac = np.empty((2, N, 3, d))
        fac[:, :, 0] = a * gc * r * (1.0 - r)
        fac[:, :, 1] = (h_in - cand) * z * (1.0 - z)
        fac[:, :, 2] = a * r
        dgh4 = np.empty((2, N, 3, d))
        dgh = dgh4.reshape(2, N, d3)
        w_h_t = w_h.data.transpose(0, 2, 1)
        for s in range(L - 1, -1, -1):
            lo, hi = offs[s], offs[s + 1]
            dnh = dS[:, lo:hi]
            np.multiply(dnh[:, :, None, :], fac[:, lo:hi], out=dgh4[:, lo:hi])
            if s:  # step 0 starts from the zero state
                prev = dS[:, offs[s - 1] : offs[s - 1] + hi - lo]
                prev += dnh * z[:, lo:hi]
                prev += np.matmul(dgh[:, lo:hi], w_h_t)
        # the zero state of step 0 adds nothing to dw_h
        dw_h = np.matmul(h_in[:, K:].transpose(0, 2, 1), dgh[:, K:])
        dgh4[:, :, 2] = dS * a  # the candidate pre-activation's gradient, not scaled by r
        db = dgh.sum(axis=1)
        # back to token order, for the products and the scatter the docstring names
        dgx = np.empty((2, N, d3))
        dgx[0, tok_f], dgx[1, tok_b] = dgh[0], dgh[1]
        dxs = dgx[0] @ w_x.data[0].T + dgx[1] @ w_x.data[1].T
        dim = emb.shape[1]
        demb = _scatter((tokens[:, None] * dim + np.arange(dim)).ravel(), dxs.ravel(), emb.data.size)
        return demb.reshape(emb.shape), np.matmul(emb.data[tokens].T, dgx), dw_h, db

    return ad.node(out, (emb, w_x, w_h, b), vjp)


class BatchQuestionEncoding(NamedTuple):
    """Padded batch of question encodings.

    q is (B, d) pooled, h is (B, L, d) per-token states, alive is a (B, L)
    0/1 mask flagging real (non-pad) positions.
    """

    q: Tensor
    h: Tensor
    alive: np.ndarray


def _pool(params: EncoderParams, states: Tensor, lengths: np.ndarray) -> Tensor:
    """(K, d) pooled vectors: the projected final forward and backward states
    of _packed_bigru's (K, L, 2d) output, read in one gather.  Row k's final
    forward state sits at its last token, out[k, lengths[k] - 1, :d], and
    its final backward state at position 0, out[k, 0, d:]."""
    cols = np.arange(2 * params.d)
    pos = np.where(cols < params.d, (lengths - 1)[:, None], 0)  # (K, 2d)
    return states[np.arange(len(lengths))[:, None], pos, cols] @ params.w_out + params.b_out


def encode_question_batch(params: EncoderParams, sequences: list[np.ndarray]) -> BatchQuestionEncoding:
    """Run the BiGRU over B token sequences at once.

    The BiGRU's states are 0 at every pad position, so a pad's per-token
    state h is b_out; the alive mask screens it off downstream.
    """
    if not sequences:
        raise ValueError("cannot encode an empty batch")
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    if lengths.min() == 0:
        raise ValueError("cannot encode an empty token sequence")
    states = _packed_bigru(params.emb, np.concatenate(sequences), params.w_x, params.w_h, params.b, lengths)
    K, L, d2 = states.shape
    alive = (np.arange(L)[None, :] < lengths[:, None]).astype(np.float64)
    # per-token (K, L, 2d) -> project to (K, L, d) via one flat matmul
    flat = ad.reshape(states, (K * L, d2)) @ params.w_out + params.b_out
    return BatchQuestionEncoding(q=_pool(params, states, lengths), h=ad.reshape(flat, (K, L, params.d)), alive=alive)


def encode_question(params: EncoderParams, token_ids: np.ndarray) -> BatchQuestionEncoding:
    """One question: encode_question_batch over a batch of one row."""
    return encode_question_batch(params, [token_ids])


def encode_relation_batch(params: EncoderParams, sequences: list[np.ndarray]) -> Tensor:
    """Encode K token sequences at once; returns (K, d) pooled vectors.
    Only the pooled vector is projected: the relation table never reads
    per-token states."""
    if not sequences:
        return Tensor(np.zeros((0, params.d)))
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    states = _packed_bigru(params.emb, np.concatenate(sequences), params.w_x, params.w_h, params.b, lengths)
    return _pool(params, states, lengths)


class RelationEncodingCache:
    """Pooled encodings of the graph's unique relation texts.

    Identical texts encode identically, so one (num_texts, d) table covers
    every relation: the model scores each row against the whole table, one
    score per text, and a relation takes its text's score, as a label edge
    takes its predicate's.  Each forward reads the table once, built lazily
    in one batched encoder pass: train invalidates it before every batch,
    and evaluate on entry, so both encode the current parameters.
    """

    def __init__(self, params: EncoderParams, vocab: Vocabulary, texts: list[str]):
        self.params = params
        self.token_ids = [vocab.encode(t) for t in texts]
        self._table: Tensor | None = None

    def invalidate(self):
        self._table = None

    def table(self) -> Tensor:
        """The (num_texts, d) encodings, row i for text id i."""
        if self._table is None:
            self._table = encode_relation_batch(self.params, self.token_ids)
        return self._table
