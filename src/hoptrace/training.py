"""Loss, optimizer, training loop, evaluation, and checkpoints.

A checkpoint is one file that holds the whole trained model: its config, the
graph sizes, the vocabulary and the parameters."""

from __future__ import annotations

import functools
import itertools
import json
import logging
import sys
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import container
from .autodiff import Tensor, no_grad
from .encoder import RelationEncodingCache, Vocabulary, split_tokens
from .errors import DataError, NumericError
from .model import ModelParams, forward_batch, top_answers
# hopbench/spans.py times training.rank_answers; drop once a benchmark-only change moves that span.
from .model import rank_answers  # noqa: F401

log = logging.getLogger("hoptrace")

AUX_WEIGHT = 0.01
EVAL_CHUNK = 64  # questions per forward in evaluate
CKPT_MAGIC = b"HOPCKPT4"


def batch_targets(answer_sets, n: int) -> np.ndarray:
    """(B, n) indicator rows, one per answer set; each set must be non-empty
    and lie in [0, n)."""
    sizes = [len(answers) for answers in answer_sets]
    ids = np.fromiter(itertools.chain.from_iterable(answer_sets), np.int64, sum(sizes))
    if not all(sizes) or (ids.size and (ids.min() < 0 or ids.max() >= n)):
        for answers in answer_sets:  # name the first bad set
            if not answers:
                raise DataError("empty answer set")
            if min(answers) < 0 or max(answers) >= n:
                raise DataError(f"answer id out of range [0, {n}): {sorted(map(int, answers))}")
    y = np.zeros((len(sizes), n))
    y[np.repeat(np.arange(len(sizes)), sizes), ids] = 1.0
    return y


# hopbench's checks build one target at a time; drop once a benchmark-only change moves them.
def build_target(answers, n: int) -> np.ndarray:
    """Indicator vector over entities: batch_targets' row for one answer set."""
    return batch_targets([answers], n)[0]


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


class RAdam:
    """Rectified adaptive-moment updates.

    Falls back to an unadapted (momentum-only) step while the variance
    rectification term rho_t is at or below the threshold 4, then switches
    to the variance-normalized step with the rectification factor.
    """

    RHO_THRESHOLD = 4.0
    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr=0.001):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = self.BETAS
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
                p.data -= self.lr * r * m_hat / (v_hat + self.EPS)


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


@functools.cache
def _keep_freed_memory():
    """Have glibc's malloc serve blocks up to 32 MiB from the heap and never
    give freed heap pages back to the system.  Each transfer step allocates
    and frees frontier temporaries of several MB.  Under glibc's default,
    adaptive thresholds, whether those reuse pages or fault in fresh ones
    depends on what the process allocated and freed before, such as the
    generator's garbage: on 10x pools, fresh pages cost train and eval about
    a third of their speed.  The process keeps its peak heap instead.  Runs
    once, from train or evaluate; does nothing off Linux."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's largest on 64-bit
        mallopt(-1, -1)  # M_TRIM_THRESHOLD; -1 turns trimming off


def _batch_loss(g, params: ModelParams, batch, cfg, cache, hops: bool = True):
    """One forward over the prepared examples of batch, and its LossBreakdown
    against their answers and, if hops, their gold hops.  forward_batch and
    compute_loss are looked up as module globals, where the bench's spans
    wrap them."""
    res = forward_batch(g, [ex.tokens for ex in batch], [ex.topic for ex in batch], params, cfg, cache=cache)
    ys = batch_targets([ex.answers for ex in batch], g.n)
    gold = [ex.gold_hop for ex in batch] if hops else None
    return res, compute_loss(res.final, ys, res.c, gold, cfg.use_aux_hop_loss)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(g, params: ModelParams, prepared, cfg, cache=None) -> dict:
    """hits@1 per hop and overall, plus the mean main loss.  Runs EVAL_CHUNK
    questions per forward and reads their top answers with one top_answers
    call: the highest score, the lowest id on ties, and an all-zero row is
    a miss, as in rank_answers.  No hop loss is computed: a gold hop above
    T is scored under its own key.  A relation encoding cache is
    invalidated on entry, so its table encodes the parameters as now."""
    if cache is not None:
        cache.invalidate()
    _keep_freed_memory()
    hits: dict[int | None, list[int]] = {}
    loss_sum = 0.0
    with no_grad():
        for lo in range(0, len(prepared), EVAL_CHUNK):
            group = prepared[lo : lo + EVAL_CHUNK]
            res, lb = _batch_loss(g, params, group, cfg, cache, hops=False)
            top, degenerate = top_answers(res.final.data)
            for ex, t, d in zip(group, top.tolist(), degenerate.tolist()):
                hits.setdefault(ex.gold_hop, []).append(int(not d and t in ex.answers))
            loss_sum += lb.main.item()
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
    best_dev: dict


def _snapshot(params: ModelParams) -> dict[str, np.ndarray]:
    return {k: v.data.copy() for k, v in params.named().items()}


def _restore(params: ModelParams, snap: dict[str, np.ndarray]):
    for k, v in params.named().items():
        v.data = snap[k].copy()


def train(cfg, g, train_examples, dev_examples, vocab=None, log_path=None) -> TrainResult:
    """Mini-batch training, one forward and one backward per batch; keeps
    the epoch whose dev hits@1 is best.  With no dev examples it keeps the
    last epoch, logs train rows only and returns an empty best_dev.
    Deterministic given (config, seed)."""
    _keep_freed_memory()
    rng = np.random.default_rng(cfg.seed)
    if vocab is None:
        vocab = build_vocabulary(train_examples, g)
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
    best, best_snap = {}, None  # stay empty without dev examples: the last epoch is kept
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
                _, lb = _batch_loss(g, params, batch, cfg, cache)
                if not np.isfinite(lb.total.item()):
                    raise NumericError(f"non-finite loss in the batch starting at {batch[0].uid!r}")
                main_sum += lb.main.item()
                if lb.aux_hop is not None:
                    aux_sum += lb.aux_hop.item()
                    aux_n += sum(ex.gold_hop is not None for ex in batch)
                # one loss node and one backward per batch: the tape does not grow with B
                lb.total.backward(seed=np.asarray(inv))
                opt.step()
            rows = [
                {
                    "epoch": epoch,
                    "split": "train",
                    "loss": main_sum / max(1, len(train_prep)),
                    "aux_loss": aux_sum / aux_n if aux_n else None,
                    "hits1_per_hop": None,
                },
            ]
            msg = f"epoch {epoch}: train loss {rows[0]['loss']:.4f}"
            if dev_prep:
                dev = evaluate(g, params, dev_prep, cfg, cache=cache)
                rows.append({
                    "epoch": epoch,
                    "split": "dev",
                    "loss": dev["mean_loss"],
                    "aux_loss": None,
                    "hits1_per_hop": {str(k): v for k, v in dev["per_hop"].items()},
                    "hits1": dev["overall"],
                })
                msg += f", dev hits@1 {dev['overall']:.4f} {dev['per_hop']}"
                if dev["overall"] > best.get("overall", -1.0):
                    best = dev | {"epoch": epoch}
                    best_snap = _snapshot(params)
            if log_f:
                for row in rows:
                    log_f.write(json.dumps(row, sort_keys=True) + "\n")
                log_f.flush()
            log.info("%s", msg)
    finally:
        if log_f:
            log_f.close()
    if best:
        _restore(params, best_snap)
    return TrainResult(params=params, vocab=vocab, best_dev=best)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ModelParams, cfg, vocab: Vocabulary, extra: dict | None = None):
    """Write the whole model: a container (hoptrace.container) of format
    CKPT_MAGIC whose metadata holds the config, the graph sizes the model
    was built for ("model": n, num_predicates), the vocabulary's tokens in
    id order ("vocab"), the parameter list, and then extra; one float64
    block per parameter follows in sorted-name order (byte-deterministic).
    A vocabulary of another size than the embedding is a ValueError."""
    if len(vocab) != params.vocab_size:
        raise ValueError(f"a vocabulary of {len(vocab)} tokens for an embedding of {params.vocab_size} rows")
    named = sorted(params.named().items())
    meta = {
        "config": cfg.to_dict(),
        "model": {"n": params.n, "num_predicates": params.num_predicates},
        "vocab": vocab.names,
        "params": [{"name": k, "shape": list(v.data.shape)} for k, v in named],
    }
    meta.update(extra or {})
    container.write(path, CKPT_MAGIC, meta, [np.ascontiguousarray(v.data, dtype="<f8") for _, v in named])


def load_checkpoint(path):
    """Returns (ModelParams, metadata), the metadata's "vocab" a Vocabulary.
    The model is rebuilt unfilled from the embedded config, with one
    embedding row per vocabulary token, then the parameter blocks fill it;
    the metadata must list each of the model's parameters once.  A file
    that container.read refuses, whose vocabulary is not a list of distinct
    strings that starts with the reserved tokens, that lists other blocks,
    or that is shorter or longer than its metadata describes, is a
    DataError."""
    from .config import TrainConfig

    what = f"a hoptrace checkpoint of format {CKPT_MAGIC.decode()}: train it again with `hoptrace train`"
    meta, data = container.read(path, CKPT_MAGIC, DataError, what)
    try:
        cfg = TrainConfig(**meta["config"]).validate()
        m = meta["model"]
        names = meta["vocab"]
        if not (isinstance(names, list) and all(isinstance(t, str) for t in names)) or len(set(names)) < len(names):
            raise DataError(f'{path}: "vocab" is not a list of distinct strings')
        reserved = Vocabulary().names  # encoding reads the reserved ids
        if names[: len(reserved)] != reserved:
            raise DataError(f'{path}: "vocab" does not start with the reserved tokens {reserved}')
        meta["vocab"] = vocab = Vocabulary.of_names(names)
        params = ModelParams(len(vocab), m["n"], m["num_predicates"], cfg, fill=False)
        blocks = [(str(block["name"]), tuple(block["shape"])) for block in meta["params"]]
    except (KeyError, TypeError, ValueError, MemoryError) as e:
        # a missing key, a value of the wrong type, an unknown or invalid
        # config entry, a size past what memory can hold
        raise DataError(f"{path}: metadata does not describe a model: {e!r}") from None
    named = params.named()
    listed = [name for name, _ in blocks]
    missing = sorted(set(named).difference(listed))
    if missing:
        raise DataError(f"{path}: no parameter block for {missing}")
    if len(listed) != len(named):  # every name is listed, so some are extra or repeated
        raise DataError(f"{path}: unexpected or repeated parameter blocks in {listed}")
    for name, shape in blocks:
        if named[name].data.shape != shape:
            raise DataError(f"{path}: shape mismatch for {name!r}")
    arrays = container.blocks(path, data, [("<f8", shape) for _, shape in blocks], DataError)
    for name, arr in zip(listed, arrays):
        named[name].data = arr.copy()
    return params, meta
