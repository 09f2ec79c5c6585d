"""Relation graphs in label, text, and mixed form.

Label edges are stored in coordinate form sorted predicate-major (then by
head, tail) with a pointer array per predicate; pair_groups groups edges by
(head, tail) pair for max aggregation.  Text relations are stored
edge-major with a CSR index over head entities, and their texts live in a
unique-text table.  Entities, predicates and relation texts are all
numbered by one map, encoder.Vocab (dense ids, first-seen order), so a
builder that meets a text again reuses its id.  Graphs are immutable once
built: every constructor-style operation returns a fresh instance.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

from .encoder import OBJ_TOKEN, SUB_TOKEN, Vocab, split_tokens
from .errors import GraphError

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


def pair_groups(heads: np.ndarray, tails: np.ndarray):
    """Group edges by (head, tail): returns (order, pair_heads, pair_tails,
    pair_ptr) where order sorts the edges pair-contiguously, keeping edge
    order within a pair."""
    # one stable sort of a combined key (ids are >= 0) beats a two-key lexsort
    key = heads * (int(tails.max(initial=0)) + 1) + tails
    order = np.argsort(key, kind="stable")
    new = np.flatnonzero(np.diff(key[order], prepend=-1))  # first edge of each pair
    first = order[new]
    return order, heads[first], tails[first], np.append(new, key.size)


def _csr(keys: np.ndarray, nbuckets: int):
    order = np.argsort(keys, kind="stable").astype(np.int64)
    counts = np.bincount(keys, minlength=nbuckets)
    ptr = np.zeros(nbuckets + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return order, ptr


class RelationGraph:
    """Entities, predicates, sparse label adjacency, and text relations."""

    def __init__(self, entities, predicates, edges, texts, trels, form, reversed_=False):
        self.entities: Vocab = entities
        self.predicates: Vocab = predicates
        self.form: str = form
        self.reversed = reversed_

        self.texts: list[str] = list(texts)  # unique relation texts
        # save() writes one name per line between "#SECTION " lines, and
        # load() reads in text mode, where a \r also ends a line
        for what, names in (("entity", entities.names), ("predicate", predicates.names), ("text", self.texts)):
            bad = next((x for x in names if "\n" in x or "\r" in x or x.startswith("#SECTION ")), None)
            if bad is not None:
                raise GraphError(f"{what} name {bad!r} holds a line break or starts with '#SECTION '")
        # add_reverse_relations and mix_label_into_text number texts by name
        if len(set(self.texts)) < len(self.texts):
            raise GraphError("relation texts repeat: each text must be listed once")
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        t = np.asarray(trels, dtype=np.int64).reshape(-1, 3)
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
        if e.size:
            order = np.lexsort((e[:, 2], e[:, 0], e[:, 1]))
            e = e[order]
        self.edge_heads = e[:, 0].copy()
        self.edge_preds = e[:, 1].copy()
        self.edge_tails = e[:, 2].copy()
        counts = np.bincount(self.edge_preds, minlength=len(predicates))
        self.pred_ptr = np.zeros(len(predicates) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.pred_ptr[1:])

        self.trel_heads = t[:, 0].copy()
        self.trel_tails = t[:, 1].copy()
        self.trel_text = t[:, 2].copy()
        self._out_order, self._out_ptr = _csr(self.trel_heads, len(entities))

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

    def select_text_relation_ids(self, a_prev: np.ndarray, tau: float, omega):
        """Text relations leaving the active entities: (relation ids, subject scores).

        Entities scoring strictly above tau contribute all their outgoing
        text relations; if that exceeds omega, the top-omega by subject score
        survive (ties: lower entity id, then lower relation id).  If nothing
        clears tau, the argmax entity's relations are used.  omega=None
        means unlimited.
        """
        active = np.flatnonzero(a_prev > tau)
        if active.size == 0:
            active = np.array([int(np.argmax(a_prev))], dtype=np.int64)
        chunks = [self._out_order[self._out_ptr[i] : self._out_ptr[i + 1]] for i in active]
        rel_ids = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
        if rel_ids.size == 0:
            return rel_ids, np.zeros(0)
        subj = a_prev[self.trel_heads[rel_ids]]
        if omega is not None and rel_ids.size > omega:
            order = np.lexsort((rel_ids, self.trel_heads[rel_ids], -subj))[:omega]
            rel_ids, subj = rel_ids[order], subj[order]
        return rel_ids, subj

    # -- serialization ---------------------------------------------------------

    def save(self, path):
        """One text file: a header line, then each section as a
        "#SECTION <name>" line and one line per row.  The meta section
        carries a sha256 over everything load() reads (see _digest)."""
        header = f"hoptrace-graph v2 {self.form} {self.n} {self.num_predicates}"
        sections = {
            "meta": [f"reversed {'true' if self.reversed else 'false'}"],
            "entities": self.entities.names,
            "predicates": self.predicates.names,
            "edges": [f"{h}\t{p}\t{t}" for h, p, t in zip(self.edge_heads, self.edge_preds, self.edge_tails)],
            "texts": self.texts,
            "text_relations": [f"{h}\t{t}\t{x}" for h, t, x in zip(self.trel_heads, self.trel_tails, self.trel_text)],
        }
        sections["meta"].append(f"sha256 {_digest(header, sections)}")
        with open(path, "w", encoding="utf-8") as f:
            f.write(header + "\n")
            for name, rows in sections.items():
                f.write(f"#SECTION {name}\n")
                f.writelines(row + "\n" for row in rows)

    @classmethod
    def load(cls, path) -> "RelationGraph":
        """Parse a file save() wrote.  Any damage is a GraphError: the
        sections are checked as they are parsed, and last the sha256 in the
        meta section, so a truncated or altered file never loads.  Sections
        with other names are skipped and not checksummed."""
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.read().split("\n")
        except UnicodeDecodeError as e:
            raise GraphError(f"{path}: not UTF-8 text: {e}") from None
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise GraphError(f"{path}: empty graph file")
        head = lines[0].split()
        if len(head) != 5 or head[0] != "hoptrace-graph" or head[1] != "v2":
            raise GraphError(f"{path}: bad header {lines[0]!r}")
        try:
            form, n, num_p = head[2], int(head[3]), int(head[4])
        except ValueError:
            raise GraphError(f"{path}: bad header {lines[0]!r}") from None
        sections: dict[str, list[str]] = {}
        current = None
        for line in lines[1:]:
            if line.startswith("#SECTION "):
                current = line[len("#SECTION ") :]
                sections[current] = []
            elif current is None:
                raise GraphError(f"{path}: content before first #SECTION")
            else:
                sections[current].append(line)
        for required in _SECTIONS:
            if required not in sections:
                raise GraphError(f"{path}: missing #SECTION {required}")
        meta = dict(line.partition(" ")[::2] for line in sections["meta"])
        entities = Vocab(sections["entities"])
        predicates = Vocab(sections["predicates"])
        if len(entities) != n or len(predicates) != num_p:
            raise GraphError(f"{path}: header counts do not match section sizes")
        edges = _id_rows(path, "edges", sections["edges"])
        trels = _id_rows(path, "text_relations", sections["text_relations"])
        g = cls(entities, predicates, edges, sections["texts"], trels, form, reversed_=meta.get("reversed") == "true")
        sections["meta"] = [line for line in sections["meta"] if not line.startswith("sha256 ")]
        if meta.get("sha256") != _digest(lines[0], sections):
            raise GraphError(f"{path}: sha256 does not match the contents: the file is damaged or was edited")
        return g


# the sections save() writes, in its order; load() needs all of them
_SECTIONS = ("meta", "entities", "predicates", "edges", "texts", "text_relations")


def _digest(header: str, sections: dict) -> str:
    """sha256 over the header line and the rows of the _SECTIONS, as save()
    lays them out (the meta section without its sha256 line)."""
    h = hashlib.sha256(header.encode("utf-8"))
    for name in _SECTIONS:
        h.update(f"\n#SECTION {name}\n".encode("utf-8"))
        h.update("\n".join(sections[name]).encode("utf-8"))
    return h.hexdigest()


def _id_rows(path, section: str, lines: list[str]) -> list[tuple[int, int, int]]:
    """Parse one section of tab-separated id triples."""
    rows = []
    for i, line in enumerate(lines, 1):
        try:
            h, mid, t = map(int, line.split("\t"))  # a wrong field count is a ValueError too
        except ValueError:
            raise GraphError(f"{path}: #SECTION {section} row {i}: expected 3 integer ids, got {line!r}") from None
        rows.append((h, mid, t))
    return rows


# ---------------------------------------------------------------------------
# construction


def build_from_triples(triples) -> RelationGraph:
    """Label-form graph from (head, predicate, tail) name rows.

    Vocabularies follow first-seen order; exact duplicate rows collapse.
    """
    entities, predicates = Vocab(), Vocab()
    edges = []
    seen = set()
    for i, row in enumerate(triples):
        try:
            h, p, t = row
        except (TypeError, ValueError):
            raise GraphError(f"triple row {i}: expected 3 fields, got {row!r}") from None
        if not (h and p and t) or not all(isinstance(x, str) for x in (h, p, t)):
            raise GraphError(f"triple row {i}: names must be non-empty strings, got {row!r}")
        key = (h, p, t)
        hi = entities.add(h)
        pi = predicates.add(p)
        ti = entities.add(t)
        if key in seen:
            continue
        seen.add(key)
        edges.append((hi, pi, ti))
    return RelationGraph(entities, predicates, edges, [], [], form="label")


def load_triples_tsv(path) -> list[tuple[str, str, str]]:
    """head<TAB>predicate<TAB>tail per line; '#' lines are comments."""
    triples = []
    try:
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 3 or not all(parts):
                    raise GraphError(f"{path}:{i}: expected 3 tab-separated fields")
                triples.append(tuple(parts))
    except UnicodeDecodeError as e:
        raise GraphError(f"{path}: not UTF-8 text: {e}") from None
    return triples


def load_corpus_jsonl(path) -> list[tuple[str, str]]:
    """One {"subject": ..., "text": ...} object per line."""
    docs = []
    try:
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    docs.append((obj["subject"], obj["text"]))
                except (json.JSONDecodeError, KeyError, TypeError):
                    raise GraphError(f"{path}:{i}: expected JSON with 'subject' and 'text'") from None
    except UnicodeDecodeError as e:
        raise GraphError(f"{path}: not UTF-8 text: {e}") from None
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
            for obj in objects:
                rendered = []
                i = 0
                span_at = {s: (e, eid) for s, e, eid in spans}
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
    its inverse, and every text relation gains a direction-swapped twin with
    id offset by the original relation count."""
    if g.reversed:
        raise GraphError("graph already has reverse relations")
    predicates = Vocab()
    for name in g.predicates.names:
        predicates.add(name)
        rev = name + "_rev"
        if rev in predicates:
            raise GraphError(f"predicate name collision on {rev!r}")
        predicates.add(rev)
    edges = []
    for h, p, t in zip(g.edge_heads, g.edge_preds, g.edge_tails):
        edges.append((h, 2 * p, t))
        edges.append((t, 2 * p + 1, h))

    texts = Vocab(g.texts)
    # twin of relation i gets id num_text_relations + i
    trels = [(h, t, x) for h, t, x in zip(g.trel_heads, g.trel_tails, g.trel_text)]
    for h, t, x in zip(g.trel_heads, g.trel_tails, g.trel_text):
        trels.append((t, h, texts.add(reverse_text(g.texts[x]))))
    return RelationGraph(g.entities, predicates, edges, texts.names, trels, g.form, reversed_=True)


def mix_label_into_text(g: RelationGraph, triples, fraction: float, seed: int) -> RelationGraph:
    """Blend label triples into a text-form graph as one-word relation texts.

    A ``fraction`` sample of the (name-form) triples becomes text relations
    whose whole text is the predicate name; if the base graph already has
    reverse closure, each sampled triple also contributes the ``_rev``
    one-worder in the opposite direction, preserving closure.
    """
    if g.form != "text":
        raise GraphError(f"can only mix labels into a text-form graph, got {g.form!r}")
    if not 0.0 <= fraction <= 1.0:
        raise GraphError(f"fraction must be in [0, 1], got {fraction}")
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
    return RelationGraph(g.entities, Vocab(g.predicates.names), [], texts.names, trels, "mixed", reversed_=g.reversed)
