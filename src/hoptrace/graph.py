"""Relation graphs in label and text form.

A graph fills only its form's store, predicates and label edges or relation
texts and text relations.  The paper's mixed setting, text plus a sampled
part of the KB, is a text graph with the triples as one-word texts
(mix_label_into_text).

Label edges and text relations are stored alike, as (head, tail, kind)
rows, the kind being a predicate or a text id.  One int64 key over the
three ids orders each store by one stable argsort (_index), which also
gives the store's CSR pointer over head entities (head_ptr, trel_ptr) and
its pair flags (pair_start, trel_pair_start), True on the first relation of
each (head, tail) pair.  So the relations leaving a set of entities are
listed by one CSR expansion (expand_csr), in storage order, and such a
listing is already grouped by pair for max aggregation.  A relation's id is
its storage position.  Relation texts live in a unique-text table.
Entities, predicates and relation texts are all numbered by one map,
encoder.Vocab (dense ids, first-seen order), so a builder that meets a text
again reuses its id.  Graphs are immutable once built: every
constructor-style operation returns a fresh instance.

A saved graph is a container (hoptrace.container) of format GRAPH_MAGIC:
JSON metadata with the form, the reverse flag and the entity, predicate
and text names, then the label edges and the text relations as two int64
blocks of id rows, the other form's block empty.  load() passes the rows
to the constructor, which checks the form, its store and the ids' ranges,
and sorts the rows, so rows saved in any order load into the same arrays.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np

from . import container
from .config import FORMS
from .encoder import OBJ_TOKEN, SUB_TOKEN, Vocab, split_tokens
from .errors import GraphError, read_text

GRAPH_MAGIC = b"HOPGRAF1"

_SENT_SPLIT = re.compile(r"(?<=[.!?])\s+")


def reverse_text(text: str) -> str:
    """Reverse direction of a relation text.

    Placeholder-bearing texts swap ``<sub>`` and ``<obj>``.  One-word texts
    minted from label predicates carry no placeholders, so their direction
    lives in the word itself: those get the ``_rev`` suffix (and lose it if
    already present, making the mapping an involution).
    """
    toks = text.split()
    if SUB_TOKEN in toks or OBJ_TOKEN in toks:
        swap = {SUB_TOKEN: OBJ_TOKEN, OBJ_TOKEN: SUB_TOKEN}
        return " ".join(swap.get(t, t) for t in toks)
    return " ".join(t[: -len("_rev")] if t.endswith("_rev") else t + "_rev" for t in toks)


def _ptr(keys: np.ndarray, nbuckets: int) -> np.ndarray:
    """CSR pointers of keys sorted by bucket: bucket b's entries are
    ptr[b] .. ptr[b + 1] - 1."""
    ptr = np.zeros(nbuckets + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=nbuckets), out=ptr[1:])
    return ptr


def expand_csr(ptr: np.ndarray, buckets: np.ndarray):
    """The positions ptr[b] .. ptr[b + 1] - 1 of each of buckets in turn, and
    how many each bucket has: (positions, counts)."""
    starts = ptr[buckets]
    counts = ptr[buckets + 1] - starts
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return offsets + np.arange(offsets.size), counts


class RelationGraph:
    """Entities and the form's relation store: label edges over predicates,
    or text relations over relation texts."""

    def __init__(self, entities, predicates, edges, texts, trels, form, reversed_=False):
        if form not in FORMS:  # the model would take any other form for text
            raise GraphError(f"unknown graph form {form!r}: expected one of {', '.join(FORMS)};"
                             " rebuild the graph with `hoptrace build-graph`")
        self.entities: Vocab = entities
        self.predicates: Vocab = predicates
        self.form: str = form
        self.reversed = reversed_

        self.texts: list[str] = list(texts)  # unique relation texts
        # add_reverse_relations and mix_label_into_text number texts by name
        if len(set(self.texts)) < len(self.texts):
            raise GraphError("relation texts repeat: each text must be listed once")
        try:
            e = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
            t = np.asarray(trels, dtype=np.int64).reshape(-1, 3)
        except OverflowError:  # a caller's Python int past int64
            raise GraphError("an id does not fit in 64 bits") from None
        # nothing reads the other form's store, yet its texts would join the vocabulary
        if form == "label" and (self.texts or len(t)):
            raise GraphError(f"a label graph holds no texts or text relations, got {len(self.texts)} and {len(t)}")
        if form == "text" and (len(predicates) or len(e)):
            raise GraphError(f"a text graph holds no predicates or label edges, got {len(predicates)} and {len(e)}")
        # numpy would wrap a negative id and the bincount kernels would grow
        # their output past n, so an out-of-range id must stop here
        for ids, bound, what in (
            (e[:, [0, 2]], len(entities), "edge entity"),
            (e[:, 1], len(predicates), "predicate"),
            (t[:, :2], len(entities), "text relation entity"),
            (t[:, 2], len(self.texts), "text"),
        ):
            bad = ids[(ids < 0) | (ids >= bound)]
            if bad.size:
                raise GraphError(f"{what} id {bad[0]} out of range [0, {bound})")
        # label edges by (head, tail, pred), text relations by (head, tail,
        # text); head i's relations start at head_ptr[i] / trel_ptr[i]
        self.edge_heads, self.edge_tails, self.edge_preds, self.head_ptr, self.pair_start = _index(
            e[:, 0], e[:, 2], e[:, 1], len(entities), len(predicates)
        )
        self.trel_heads, self.trel_tails, self.trel_text, self.trel_ptr, self.trel_pair_start = _index(
            *t.T, len(entities), len(self.texts)
        )

    # -- basic shape ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.entities)

    @property
    def num_predicates(self) -> int:
        return len(self.predicates)

    @property
    def num_edges(self) -> int:
        return len(self.edge_heads)

    @property
    def num_text_relations(self) -> int:
        return len(self.trel_heads)

    # -- reasoning access patterns --------------------------------------------

    def frontier_edge_ids(self, a_prev: np.ndarray):
        """Label edges leaving each row's frontier, the entities it scores
        nonzero, for a (B, n) score matrix: (edge ids, rows), row by row in
        storage order, so each (head, tail) pair's parallel edges are side
        by side.  Scores are finite and >= 0, so an edge left out would push
        exactly +0.0: a push over these sums the same terms in the same
        order as one over every edge."""
        rows, heads = np.divmod(np.flatnonzero(a_prev != 0), self.n)  # a bool scan is the fast one
        edge_ids, counts = expand_csr(self.head_ptr, heads)
        return edge_ids, np.repeat(rows, counts)

    def select_text_relation_ids(self, a_prev: np.ndarray, tau: float, omega):
        """Text relations leaving each row's active entities, for a (B, n)
        score matrix: (relation ids, rows), row by row.

        In a row, entities scoring strictly above tau contribute all their
        outgoing text relations, by entity id and then relation id; if
        nothing clears tau, the argmax entity's relations are used.  A row
        with more than omega relations keeps the top omega by subject score
        (ties: lower entity id, then lower relation id).  omega=None means
        unlimited.

        A cut moves each entity's run under trel_ptr whole and keeps a prefix
        of the last run it reaches, so each listed (head, tail) pair keeps
        its relations side by side, from the one trel_pair_start marks.
        """
        active = a_prev > tau
        idle = ~active.any(axis=1)
        active[idle, np.argmax(a_prev[idle], axis=1)] = True
        rows, heads = np.nonzero(active)
        # each (row, head) pair lists the head's relations
        rel_ids, counts = expand_csr(self.trel_ptr, heads)
        rel_rows = np.repeat(rows, counts)
        if omega is not None:
            sizes = np.bincount(rel_rows, minlength=a_prev.shape[0])
            cut = sizes > omega
            if cut.any():
                # within a row the expansion is already by head, then id, so
                # stable sorts by -subject score in cut rows, then by row,
                # rank it
                subj = a_prev[rel_rows, self.trel_heads[rel_ids]]
                order = np.argsort(np.where(cut[rel_rows], -subj, 0.0), kind="stable")
                order = order[np.argsort(rel_rows[order], kind="stable")]
                rel_ids, rel_rows = rel_ids[order], rel_rows[order]
                rank = np.arange(rel_ids.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
                keep = rank < omega
                rel_ids, rel_rows = rel_ids[keep], rel_rows[keep]
        return rel_ids, rel_rows

    # -- serialization ---------------------------------------------------------

    def save(self, path):
        """One container of format GRAPH_MAGIC: the metadata holds the
        form, the reverse flag, the names and the two row counts; the
        blocks hold the label edges as (head, pred, tail) rows and the text
        relations as (head, tail, text) rows, in storage order."""
        meta = {"form": self.form, "reversed": self.reversed, "entities": self.entities.names,
                "predicates": self.predicates.names, "texts": self.texts,
                "num_edges": self.num_edges, "num_text_relations": self.num_text_relations}
        edges = np.stack([self.edge_heads, self.edge_preds, self.edge_tails], axis=1, dtype="<i8")
        trels = np.stack([self.trel_heads, self.trel_tails, self.trel_text], axis=1, dtype="<i8")
        container.write(path, GRAPH_MAGIC, meta, [edges, trels])

    @classmethod
    def load(cls, path) -> "RelationGraph":
        """The graph in a file save() wrote.  Any damage or a file of another
        format, such as the text graphs of earlier versions, is a GraphError;
        the constructor checks the ids and the form."""
        what = f"a hoptrace graph of format {GRAPH_MAGIC.decode()}: rebuild it with `hoptrace build-graph`"
        meta, data = container.read(path, GRAPH_MAGIC, GraphError, what)
        try:
            names = [meta[k] for k in ("entities", "predicates", "texts")]
            layout = [("<i8", (meta[k], 3)) for k in ("num_edges", "num_text_relations")]
            form, reversed_ = meta["form"], meta["reversed"]
        except (KeyError, TypeError) as e:
            raise GraphError(f"{path}: metadata does not describe a graph: {e!r}") from None
        if type(reversed_) is not bool or not all(type(x) is list and all(type(y) is str for y in x) for x in names):
            raise GraphError(f"{path}: the reverse flag or a name list has the wrong type")
        edges, trels = container.blocks(path, data, layout, GraphError)
        entities, predicates = Vocab(names[0]), Vocab(names[1])
        if (len(entities), len(predicates)) != (len(names[0]), len(names[1])):  # Vocab keeps the first of each
            raise GraphError(f"{path}: entity or predicate names repeat")
        return cls(entities, predicates, edges, names[2], trels, form, reversed_=reversed_)


def _index(heads, tails, kinds, n: int, num_kinds: int):
    """One store of relations, a kind being a predicate or a text id, in
    (head, tail, kind) order: the three sorted columns, the CSR pointer over
    heads, and flags True on the first relation of each (head, tail) pair.
    The three ids make one int64 key, so one stable argsort orders them."""
    k = max(num_kinds, 1)
    try:
        key = np.ravel_multi_index((heads, tails, kinds), (n, n, k))
    except ValueError:  # n * n * k past int64
        raise GraphError(f"{n} entities and {num_kinds} kinds do not fit one 64-bit key") from None
    order = np.argsort(key, kind="stable")
    heads, tails, kinds = heads[order], tails[order], kinds[order]
    return heads, tails, kinds, _ptr(heads, n), np.diff(key[order] // k, prepend=-1) != 0


# ---------------------------------------------------------------------------
# construction


def build_from_triples(triples) -> RelationGraph:
    """Label-form graph from (head, predicate, tail) name rows.

    A row that is not three non-empty strings is a GraphError naming its
    index, and so is a string row, though a 3-character one would unpack.
    Exact duplicate rows collapse (dict.fromkeys keeps the first of each),
    and the vocabularies follow first-seen order: entities over
    head, tail, head, tail, ... and predicates over the rows in turn.  A
    name first seen in a dropped duplicate was seen in its first copy, so
    the kept rows give both orders, and Vocab.ids maps them to edge ids.
    """
    rows = []
    for i, row in enumerate(triples):
        try:
            h, p, t = () if isinstance(row, str) else row  # a string's characters are not fields
        except (TypeError, ValueError):
            raise GraphError(f"triple row {i}: expected 3 fields, got {row!r}") from None
        if not (h and p and t and isinstance(h, str) and isinstance(p, str) and isinstance(t, str)):
            raise GraphError(f"triple row {i}: names must be non-empty strings, got {row!r}")
        rows.append(row if type(row) is tuple else (h, p, t))  # a list row cannot be a dict key
    names = list(itertools.chain.from_iterable(dict.fromkeys(rows)))
    ends = names.copy()
    del ends[1::3]  # h0, t0, h1, t1, ...
    entities, predicates = Vocab(ends), Vocab(names[1::3])
    edges = np.array([entities.ids(names[0::3]), predicates.ids(names[1::3]), entities.ids(names[2::3])],
                     dtype=np.int64).T
    return RelationGraph(entities, predicates, edges, [], [], form="label")


def load_triples_tsv(path) -> list[tuple[str, str, str]]:
    """head<TAB>predicate<TAB>tail per line, or head|predicate|tail as in
    MetaQA's kb.txt on a line without a tab; '#' lines are comments."""
    triples = []
    for i, line in enumerate(read_text(path, GraphError).split("\n"), 1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 1:
            parts = line.split("|")
        if len(parts) != 3 or not all(parts):
            raise GraphError(f"{path}:{i}: expected 3 tab-separated or |-separated fields")
        triples.append(tuple(parts))
    return triples


def load_corpus_jsonl(path) -> list[tuple[str, str]]:
    """One {"subject": ..., "text": ...} object per line, both strings."""
    docs = []
    for i, line in enumerate(read_text(path, GraphError).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            doc = (obj["subject"], obj["text"])
        except (json.JSONDecodeError, KeyError, TypeError):
            doc = None
        if doc is None or not all(isinstance(x, str) for x in doc):
            raise GraphError(f"{path}:{i}: expected JSON with string fields 'subject' and 'text'")
        docs.append(doc)
    return docs


class _EntityMatcher:
    """Longest-match-first, case-insensitive surface matcher over token spans."""

    def __init__(self, vocab: Vocab):
        self.by_first: dict[str, list[tuple[tuple[str, ...], int]]] = {}
        for name in vocab.names:
            toks = tuple(split_tokens(name))
            if not toks:
                continue
            bucket = self.by_first.setdefault(toks[0], [])
            if not any(t == toks for t, _ in bucket):  # first-seen id wins on surface ties
                bucket.append((toks, vocab.id(name)))
        for bucket in self.by_first.values():
            bucket.sort(key=lambda item: -len(item[0]))

    def find(self, tokens: list[str]) -> list[tuple[int, int, int]]:
        """Non-overlapping (start, end, entity_id) spans, left to right."""
        spans = []
        i = 0
        while i < len(tokens):
            hit = None
            for cand, eid in self.by_first.get(tokens[i], ()):
                if tuple(tokens[i : i + len(cand)]) == cand:
                    hit = (i, i + len(cand), eid)
                    break
            if hit:
                spans.append(hit)
                i = hit[1]
            else:
                i += 1
        return spans


def build_from_text_corpus(documents, entity_names) -> RelationGraph:
    """Text-form graph: one relation per (sentence, object-mention) pair.

    Each document is (subject entity name, article text).  A sentence
    mentioning object entity o yields a relation subject->o whose text has
    every subject mention replaced by ``<sub>`` and every o mention by
    ``<obj>``; other entities in the sentence keep their surface form.
    Sentences with no object mention are skipped.  The subject itself need
    not appear in the sentence — the edge still starts at it.
    """
    if not entity_names:
        raise GraphError("entity_names must be non-empty")
    entities = Vocab(entity_names)
    matcher = _EntityMatcher(entities)
    texts = Vocab()
    trels: list[tuple[int, int, int]] = []
    for doc_i, (subject, article) in enumerate(documents):
        if subject not in entities:
            raise GraphError(f"document {doc_i}: unknown subject entity {subject!r}")
        sid = entities.id(subject)
        for sentence in _SENT_SPLIT.split(article):
            toks = split_tokens(sentence)
            if not toks:
                continue
            spans = matcher.find(toks)
            objects = sorted({eid for _, _, eid in spans if eid != sid})
            span_at = {s: (e, eid) for s, e, eid in spans}
            for obj in objects:
                rendered = []
                i = 0
                while i < len(toks):
                    if i in span_at:
                        end, eid = span_at[i]
                        if eid == sid:
                            rendered.append(SUB_TOKEN)
                        elif eid == obj:
                            rendered.append(OBJ_TOKEN)
                        else:
                            rendered.extend(toks[i:end])
                        i = end
                    else:
                        rendered.append(toks[i])
                        i += 1
                trels.append((sid, obj, texts.add(" ".join(rendered))))
    return RelationGraph(entities, Vocab(), [], texts.names, trels, form="text")


def add_reverse_relations(g: RelationGraph) -> RelationGraph:
    """Return a graph with reverse closure: predicates double (2k original,
    2k+1 its reverse, named with a ``_rev`` suffix), every label edge gains
    its inverse, and every text relation gains a direction-swapped twin
    from tail to head.  The reversed texts join the text table in the order
    of the texts they reverse; a twin is stored, like every relation, by
    (head, tail, text), so it is found by its head, not by its id."""
    if g.reversed:
        raise GraphError("graph already has reverse relations")
    predicates = Vocab()
    for name in g.predicates.names:
        predicates.add(name)
        rev = name + "_rev"
        if rev in predicates:
            raise GraphError(f"predicate name collision on {rev!r}")
        predicates.add(rev)
    h, p, t = g.edge_heads, g.edge_preds, g.edge_tails
    edges = np.stack([h, 2 * p, t, t, 2 * p + 1, h], axis=1)  # each edge, then its inverse

    texts = Vocab(g.texts)
    rev = np.array([texts.add(reverse_text(x)) for x in g.texts], dtype=np.int64)
    h, t, x = g.trel_heads, g.trel_tails, g.trel_text
    trels = np.stack([h, t, x, t, h, rev[x]], axis=1)  # each relation, then its twin
    return RelationGraph(g.entities, predicates, edges, texts.names, trels, g.form, reversed_=True)


def mix_label_into_text(g: RelationGraph, triples, fraction: float, seed: int) -> RelationGraph:
    """Blend label triples into a text graph as one-word relation texts: the paper's mixed setting.

    A ``fraction`` sample of the (name-form) triples, drawn with ``seed`` (a
    non-negative int), becomes text relations whose whole text is the
    predicate name; if the base graph already has reverse closure, each
    sampled triple also contributes the ``_rev`` one-worder in the opposite
    direction, preserving closure.  The new texts follow the base graph's
    in the text table, and the new relations are stored among the base
    relations by (head, tail, text), as every text relation is.
    """
    if g.form != "text":
        raise GraphError(f"can only mix labels into a text-form graph, got {g.form!r}")
    if not 0.0 <= fraction <= 1.0:
        raise GraphError(f"fraction must be in [0, 1], got {fraction}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise GraphError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    triples = list(triples)
    k = int(round(fraction * len(triples)))
    picked = sorted(rng.choice(len(triples), size=k, replace=False)) if k else []

    texts = Vocab(g.texts)
    trels = [(h, t, x) for h, t, x in zip(g.trel_heads, g.trel_tails, g.trel_text)]
    for idx in picked:
        h_name, p_name, t_name = triples[idx]
        h, t = g.entities.id(h_name), g.entities.id(t_name)
        trels.append((h, t, texts.add(p_name)))
        if g.reversed:
            trels.append((t, h, texts.add(reverse_text(p_name))))
    return RelationGraph(g.entities, g.predicates, [], texts.names, trels, "text", reversed_=g.reversed)
