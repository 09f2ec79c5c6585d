"""Loss, optimizer, training loop, evaluation, and checkpoints."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .encoder import RelationEncodingCache, Vocabulary, split_tokens
from .errors import DataError, NumericError
from .model import ModelParams, forward_batch, top_answers
# hopbench/spans.py times training.rank_answers; drop once a benchmark-only change moves that span.
from .model import rank_answers  # noqa: F401

log = logging.getLogger("hoptrace")

AUX_WEIGHT = 0.01
CKPT_MAGIC = b"HOPCKPT2"
DIGEST_SIZE = 32  # the sha256 that ends a checkpoint


def build_target(answers, n: int) -> np.ndarray:
    """Indicator vector over entities; the answer set must be non-empty."""
    ids = np.fromiter(answers, np.int64, len(answers))
    if not ids.size:
        raise DataError("empty answer set")
    if ids.min() < 0 or ids.max() >= n:
        raise DataError(f"answer id out of range [0, {n}): {sorted(ids.tolist())}")
    y = np.zeros(n)
    y[ids] = 1.0
    return y


def euclid_distance(pred: Tensor, target: np.ndarray) -> Tensor:
    """||pred - target||_2, summed over the rows of a (B, n) pred; a 1-D
    pred is one row.  A row's gradient is (pred - target)/norm, taken as 0
    at the (non-differentiable) zero-distance point."""
    diff = pred.data - target
    # one BLAS dot per row, the same one np.dot takes on a 1-D row
    norms = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    # a zero-distance row has diff == 0, so any nonzero divisor gives 0 there
    divisor = np.where(norms == 0.0, 1.0, norms)[..., None]

    def vjp(g):
        return (g * diff / divisor,)

    return ad.node(norms.sum(), (pred,), vjp)


class LossBreakdown(NamedTuple):
    main: Tensor
    aux_hop: Tensor | None
    total: Tensor


def compute_loss(final: Tensor, y: np.ndarray, c: Tensor, gold_hop=None, use_aux=True) -> LossBreakdown:
    """Euclidean distance to the target plus 0.01 x hop cross-entropy where
    a gold hop count is supplied.

    One example is final (n,), y (n,), c (T,) and gold_hop an int or None.
    A batch is final (B, n), y (B, n), c (B, T) and gold_hop one int or None
    per row; each term is then summed over the rows."""
    if not np.all(np.isfinite(final.data)):
        raise NumericError("non-finite entity scores reached the loss")
    if not np.all(np.isfinite(c.data)):
        raise NumericError("non-finite hop distribution reached the loss")
    main = euclid_distance(final, y)
    aux = None
    total = main
    if use_aux and gold_hop is not None:
        T = c.data.shape[-1]
        picked = [(i, h) for i, h in enumerate([gold_hop] if c.ndim == 1 else gold_hop) if h is not None]
        for _, h in picked:
            if not 1 <= h <= T:
                raise DataError(f"gold hop {h} outside [1, {T}]")
        if picked:
            rows, hops = (np.array(v) for v in zip(*picked))
            aux = ad.sum_(-ad.log(c[(rows, hops - 1) if c.ndim == 2 else hops - 1]))
            total = main + AUX_WEIGHT * aux
    return LossBreakdown(main=main, aux_hop=aux, total=total)


def batch_targets(examples, n: int) -> np.ndarray:
    """(B, n) stacked build_target rows for a batch of prepared examples."""
    return np.stack([build_target(ex.answers, n) for ex in examples])


class RAdam:
    """Rectified adaptive-moment updates.

    Falls back to an unadapted (momentum-only) step while the variance
    rectification term rho_t is at or below the threshold 4, then switches
    to the variance-normalized step with the rectification factor.
    """

    RHO_THRESHOLD = 4.0

    def __init__(self, params: dict[str, Tensor], lr=0.001, betas=(0.9, 0.999), eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in self.params.items()}
        self.rho_inf = 2.0 / (1.0 - self.beta2) - 1.0

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        t = self.t
        b1t, b2t = self.beta1**t, self.beta2**t
        rho = self.rho_inf - 2.0 * t * b2t / (1.0 - b2t)
        if rho > self.RHO_THRESHOLD:
            r = np.sqrt(
                ((rho - 4.0) * (rho - 2.0) * self.rho_inf)
                / ((self.rho_inf - 4.0) * (self.rho_inf - 2.0) * rho)
            )
        else:
            r = None
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - b1t)
            if r is None:
                p.data -= self.lr * m_hat
            else:
                v_hat = np.sqrt(v / (1.0 - b2t))
                p.data -= self.lr * r * m_hat / (v_hat + self.eps)


# ---------------------------------------------------------------------------
# example preparation


class PreparedExample(NamedTuple):
    uid: str  # question string, used in diagnostics
    tokens: np.ndarray
    topic: int
    answers: frozenset
    gold_hop: int | None


def build_vocabulary(examples, g) -> Vocabulary:
    """Token vocabulary over the training questions plus the graph's
    relation texts (deterministic given their order)."""
    vocab = Vocabulary()
    for ex in examples:
        for tok in split_tokens(ex.clean_text):
            vocab.add(tok)
    for text in g.texts:
        vocab.add_text(text)
    return vocab


def prepare_examples(examples, vocab: Vocabulary) -> list[PreparedExample]:
    out = []
    for ex in examples:
        out.append(
            PreparedExample(
                uid=ex.question,
                tokens=vocab.encode(ex.clean_text),
                topic=ex.topic_id,
                answers=frozenset(ex.answer_ids),
                gold_hop=ex.hop,
            )
        )
    return out


# ---------------------------------------------------------------------------
# evaluation


def evaluate(g, params: ModelParams, prepared, cfg, cache=None, chunk=64) -> dict:
    """hits@1 per hop and overall, plus the mean main loss.  Runs chunk
    questions per forward and reads their top answers with one top_answers
    call: the highest score, the lowest id on ties, and an all-zero row is
    a miss, as in rank_answers."""
    if g.form != "label" and cache is None:
        raise ValueError("text/mixed evaluation needs a relation encoding cache")
    hits: dict[int | None, list[int]] = {}
    loss_sum = 0.0
    with no_grad():
        for lo in range(0, len(prepared), chunk):
            group = prepared[lo : lo + chunk]
            res = forward_batch(
                g,
                [ex.tokens for ex in group],
                [ex.topic for ex in group],
                params,
                cfg,
                cache=cache,
            )
            top, degenerate = top_answers(res.final.data)
            for ex, t, d in zip(group, top.tolist(), degenerate.tolist()):
                hits.setdefault(ex.gold_hop, []).append(int(not d and t in ex.answers))
            ys = batch_targets(group, g.n)
            hops = [ex.gold_hop for ex in group]
            loss_sum += compute_loss(res.final, ys, res.c, hops, cfg.use_aux_hop_loss).main.item()
    per_hop = {h: float(np.mean(v)) for h, v in sorted(kv for kv in hits.items() if kv[0] is not None)}
    flat = [x for v in hits.values() for x in v]
    return {
        "overall": float(np.mean(flat)) if flat else 0.0,
        "per_hop": per_hop,
        "count": len(flat),
        "mean_loss": loss_sum / len(flat) if flat else 0.0,
    }


# ---------------------------------------------------------------------------
# training loop


class TrainResult(NamedTuple):
    params: ModelParams
    vocab: Vocabulary
    history: list[dict]
    best_dev: dict


def _snapshot(params: ModelParams) -> dict[str, np.ndarray]:
    return {k: v.data.copy() for k, v in params.named().items()}


def _restore(params: ModelParams, snap: dict[str, np.ndarray]):
    for k, v in params.named().items():
        v.data = snap[k].copy()


def train(cfg, g, train_examples, dev_examples, vocab=None, log_path=None, params=None) -> TrainResult:
    """Mini-batch training with gradient accumulation; keeps the epoch whose
    dev hits@1 is best.  Deterministic given (config, seed)."""
    rng = np.random.default_rng(cfg.seed)
    if vocab is None:
        vocab = build_vocabulary(train_examples, g)
    if params is None:
        params = ModelParams(len(vocab), g.n, g.num_predicates, cfg)
    train_prep = prepare_examples(train_examples, vocab)
    dev_prep = prepare_examples(dev_examples, vocab)
    if cfg.limit_train < 1.0:
        keep = max(1, int(round(cfg.limit_train * len(train_prep))))
        idx = rng.choice(len(train_prep), size=keep, replace=False)
        train_prep = [train_prep[i] for i in sorted(idx)]
        log.info("limit_train=%.3f: training on %d examples", cfg.limit_train, keep)

    text_form = g.form != "label"
    cache = RelationEncodingCache(params.r_enc, vocab, g.texts) if text_form else None
    opt = RAdam(params.named(), lr=cfg.lr)
    bs = cfg.effective_batch_size
    history: list[dict] = []
    best = {"overall": -1.0}
    best_snap = None
    log_f = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(train_prep))
            main_sum, aux_sum, aux_n = 0.0, 0.0, 0
            for lo in range(0, len(order), bs):
                batch = [train_prep[i] for i in order[lo : lo + bs]]
                opt.zero_grad()
                if cache is not None:
                    cache.invalidate()
                inv = 1.0 / len(batch)
                res = forward_batch(
                    g,
                    [ex.tokens for ex in batch],
                    [ex.topic for ex in batch],
                    params,
                    cfg,
                    cache=cache,
                )
                hops = [ex.gold_hop for ex in batch]
                lb = compute_loss(res.final, batch_targets(batch, g.n), res.c, hops, cfg.use_aux_hop_loss)
                if not np.isfinite(lb.total.item()):
                    raise NumericError(f"non-finite loss in the batch starting at {batch[0].uid!r}")
                main_sum += lb.main.item()
                if lb.aux_hop is not None:
                    aux_sum += lb.aux_hop.item()
                    aux_n += sum(h is not None for h in hops)
                # one loss node and one backward per batch: the tape does not grow with B
                lb.total.backward(seed=np.asarray(inv))
                opt.step()
            dev = evaluate(g, params, dev_prep, cfg, cache=cache)
            if cache is not None:
                cache.invalidate()
            rows = [
                {
                    "epoch": epoch,
                    "split": "train",
                    "loss": main_sum / max(1, len(train_prep)),
                    "aux_loss": aux_sum / aux_n if aux_n else None,
                    "hits1_per_hop": None,
                },
                {
                    "epoch": epoch,
                    "split": "dev",
                    "loss": dev["mean_loss"],
                    "aux_loss": None,
                    "hits1_per_hop": {str(k): v for k, v in dev["per_hop"].items()},
                    "hits1": dev["overall"],
                },
            ]
            history.extend(rows)
            if log_f:
                for row in rows:
                    log_f.write(json.dumps(row, sort_keys=True) + "\n")
                log_f.flush()
            log.info(
                "epoch %d: train loss %.4f, dev hits@1 %.4f %s",
                epoch,
                rows[0]["loss"],
                dev["overall"],
                dev["per_hop"],
            )
            if dev["overall"] > best["overall"]:
                best = dev | {"epoch": epoch}
                best_snap = _snapshot(params)
    finally:
        if log_f:
            log_f.close()
    if best_snap is not None:
        _restore(params, best_snap)
    return TrainResult(params=params, vocab=vocab, history=history, best_dev=best)


# ---------------------------------------------------------------------------
# checkpoints


def vocab_sha256(vocab: Vocabulary) -> str:
    return hashlib.sha256("\n".join(vocab.names).encode("utf-8")).hexdigest()


def save_checkpoint(path, params: ModelParams, cfg, vocab: Vocabulary, extra: dict | None = None):
    """Versioned binary container: magic, JSON metadata, named float64
    blocks in sorted-name order, then the sha256 of all the bytes before it
    (byte-deterministic)."""
    named = sorted(params.named().items())
    meta = {
        "format": "hoptrace-checkpoint",
        "version": 2,
        "config": cfg.to_dict(),
        "model": {
            "vocab_size": params.vocab_size,
            "n": params.n,
            "num_predicates": params.num_predicates,
            "T": params.T,
            "d": params.d,
            "form": params.form,
            "head": params.head,
        },
        "optimizer": {
            "name": "radam",
            "betas": [0.9, 0.999],
            "eps": 1e-8,
            "rho_threshold": RAdam.RHO_THRESHOLD,
            "note": "variance-rectified adaptive moments; momentum-only step while rho_t <= threshold",
        },
        "vocab_sha256": vocab_sha256(vocab),
        "params": [{"name": k, "shape": list(v.data.shape)} for k, v in named],
    }
    meta.update(extra or {})
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    blocks = [np.ascontiguousarray(v.data, dtype=np.float64) for _, v in named]
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for part in (CKPT_MAGIC, struct.pack("<Q", len(blob)), blob, *blocks):
            digest.update(part)
            f.write(part)
        f.write(digest.digest())


def load_checkpoint(path):
    """Returns (ModelParams, metadata).  The model is rebuilt from the
    embedded config, then parameter blocks overwrite the fresh init.  A file
    shorter or longer than its header and metadata describe, or whose bytes
    do not match the sha256 at its end, is a DataError."""
    from .config import TrainConfig

    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size - DIGEST_SIZE
        digest = hashlib.sha256()

        def read(size, what):
            # checked before reading, so a corrupt length allocates nothing
            if f.tell() + size > end:
                raise DataError(f"{path}: truncated: {what} needs {size} bytes, {max(0, end - f.tell())} left")
            chunk = f.read(size)
            digest.update(chunk)
            return chunk

        if read(len(CKPT_MAGIC), "magic") != CKPT_MAGIC:
            raise DataError(f"{path}: not a hoptrace checkpoint of format {CKPT_MAGIC.decode()}")
        (blob_len,) = struct.unpack("<Q", read(8, "header"))
        try:
            meta = json.loads(read(blob_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"{path}: unreadable metadata: {e}") from None
        try:
            cfg = TrainConfig(**meta["config"]).validate()
            m = meta["model"]
            params = ModelParams(m["vocab_size"], m["n"], m["num_predicates"], cfg)
            blocks = [(str(block["name"]), tuple(block["shape"])) for block in meta["params"]]
        except (KeyError, TypeError, ValueError) as e:
            # a missing key, a value of the wrong type, an unknown or invalid config entry
            raise DataError(f"{path}: metadata does not describe a model: {e!r}") from None
        named = params.named()
        for name, shape in blocks:
            if name not in named:
                raise DataError(f"{path}: unexpected parameter block {name!r}")
            if named[name].data.shape != shape:
                raise DataError(f"{path}: shape mismatch for {name!r}")
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(read(count * 8, f"block {name!r}"), dtype=np.float64).reshape(named[name].data.shape)
            named[name].data = arr.copy()
        if f.tell() != end:
            raise DataError(f"{path}: trailing bytes after the last parameter block")
        if f.read() != digest.digest():
            raise DataError(f"{path}: sha256 does not match the contents: the file is damaged")
    return params, meta
