"""Relation graphs in label, text, and mixed form.

Label edges and text relations are stored alike, as (head, tail, kind)
rows, the kind being a predicate or a text id.  One int64 key over the
three ids orders each store by one stable argsort (_index), which also
gives the store's CSR pointer over head entities (head_ptr, trel_ptr) and
its pair flags (pair_start, trel_pair_start), True on the first relation of
each (head, tail) pair.  So the relations leaving a set of entities are
listed by one CSR expansion (expand_csr), in storage order, and such a
listing is already grouped by pair for max aggregation.  A relation's id is
its storage position.  Relation texts live in a unique-text table.  A file
saved with its rows in another order, such as the (head, pred, tail) or
predicate-major edge orders or the build-order text relations of earlier
versions, loads into the same arrays.
Entities, predicates and relation texts are all numbered by one map,
encoder.Vocab (dense ids, first-seen order), so a builder that meets a text
again reuses its id.  Graphs are immutable once built: every
constructor-style operation returns a fresh instance.

A saved graph is read whole and cut into its sections with one str.split.
Each id section is searched by one regex for its first row that is not
three plain decimal ids, which load() refuses and names; a section without
one is parsed by one np.fromstring call.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

from .encoder import OBJ_TOKEN, SUB_TOKEN, Vocab, split_tokens
from .errors import GraphError, read_text

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
        try:
            e = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
            t = np.asarray(trels, dtype=np.int64).reshape(-1, 3)
        except OverflowError:  # a caller's Python int past int64
            raise GraphError("an id does not fit in 64 bits") from None
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
        """One text file: a header line, then each section as a
        "#SECTION <name>" line and one line per row.  The meta section
        carries a sha256 over everything load() reads (see _digest)."""
        header = f"hoptrace-graph v2 {self.form} {self.n} {self.num_predicates}"
        sections = {
            "meta": [f"reversed {'true' if self.reversed else 'false'}"],
            "entities": self.entities.names,
            "predicates": self.predicates.names,
            "edges": _id_lines(self.edge_heads, self.edge_preds, self.edge_tails),
            "texts": self.texts,
            "text_relations": _id_lines(self.trel_heads, self.trel_tails, self.trel_text),
        }
        joined = {name: "\n".join(rows) for name, rows in sections.items()}
        sections["meta"].append(f"sha256 {_digest(header, joined)}")
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
        with other names are skipped and not checksummed.

        The text is cut at each "#SECTION " line by one split.  A section
        keeps its rows as one string with a line break before each row, so
        that a section without rows and one with a single empty row differ."""
        text = read_text(path, GraphError)
        if not text:
            raise GraphError(f"{path}: empty graph file")
        header, newline, body = text.removesuffix("\n").partition("\n")
        head = header.split()
        if len(head) != 5 or head[0] != "hoptrace-graph" or head[1] != "v2":
            raise GraphError(f"{path}: bad header {header!r}")
        try:
            form, n, num_p = head[2], int(head[3]), int(head[4])
        except ValueError:
            raise GraphError(f"{path}: bad header {header!r}") from None
        before, *chunks = (newline + body).split("\n#SECTION ")
        if before:
            raise GraphError(f"{path}: content before first #SECTION")
        sections: dict[str, str] = {}
        for chunk in chunks:
            name = chunk.partition("\n")[0]
            sections[name] = chunk[len(name) :]
        for required in _SECTIONS:
            if required not in sections:
                raise GraphError(f"{path}: missing #SECTION {required}")
        lines = {name: sections[name].split("\n")[1:] for name in ("meta", "entities", "predicates", "texts")}
        meta = dict(line.partition(" ")[::2] for line in lines["meta"])
        entities = Vocab(lines["entities"])
        predicates = Vocab(lines["predicates"])
        if len(entities) != n or len(predicates) != num_p:
            raise GraphError(f"{path}: header counts do not match section sizes")
        edges = _id_rows(path, "edges", sections["edges"])
        trels = _id_rows(path, "text_relations", sections["text_relations"])
        g = cls(entities, predicates, edges, lines["texts"], trels, form, reversed_=meta.get("reversed") == "true")
        joined = {name: sections[name][1:] for name in _SECTIONS}
        joined["meta"] = "\n".join(line for line in lines["meta"] if not line.startswith("sha256 "))
        if meta.get("sha256") != _digest(header, joined):
            raise GraphError(f"{path}: sha256 does not match the contents: the file is damaged or was edited")
        return g


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


def _id_lines(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> list[str]:
    """One tab-separated line per row of three id columns, formatted from
    Python ints: numpy int64 scalars format about twice as slowly."""
    return [f"{x}\t{y}\t{z}" for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())]


# the sections save() writes, in its order; load() needs all of them
_SECTIONS = ("meta", "entities", "predicates", "edges", "texts", "text_relations")


def _digest(header: str, joined: dict) -> str:
    """sha256 over the header line and the rows of the _SECTIONS, as save()
    lays them out; joined maps a section name to its rows joined by line
    breaks (the meta section without its sha256 line)."""
    h = hashlib.sha256(header.encode("utf-8"))
    for name in _SECTIONS:
        h.update(f"\n#SECTION {name}\n".encode("utf-8"))
        h.update(joined[name].encode("utf-8"))
    return h.hexdigest()


_ID = r"-?[0-9]{1,18}"  # a plain decimal id, which np.fromstring reads and an int64 holds
# a line break that opens no row of three _ID fields split by tabs, and that
# row, as group 1
_BAD_ID_ROW = re.compile(rf"\n(?!{_ID}\t{_ID}\t{_ID}(?:\n|\Z))([^\n]*)")


def _id_rows(path, section: str, rows: str) -> np.ndarray:
    """The (E, 3) int64 ids of one section of tab-separated id triples,
    given as one string with a line break before each row, so that text
    before the first line break is row 0, and bad.  One regex search finds
    the first bad row, which the GraphError names; one np.fromstring call
    parses the rows.  It is a search for a bad row, not one match over all
    rows: a repeated group keeps backtracking state for every row, which
    costs a fresh process milliseconds on a large graph."""
    if rows[:1] not in ("", "\n"):
        i, got = 0, rows.partition("\n")[0]
    elif m := _BAD_ID_ROW.search(rows):
        i, got = rows.count("\n", 0, m.start(1)), m.group(1)
    else:
        return np.fromstring(rows, dtype=np.int64, sep=" ").reshape(-1, 3)
    raise GraphError(f"{path}: #SECTION {section} row {i}: expected 3 integer ids, got {got!r}")


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
    """One {"subject": ..., "text": ...} object per line."""
    docs = []
    for i, line in enumerate(read_text(path, GraphError).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            docs.append((obj["subject"], obj["text"]))
        except (json.JSONDecodeError, KeyError, TypeError):
            raise GraphError(f"{path}:{i}: expected JSON with 'subject' and 'text'") from None
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
    """Blend label triples into a text-form graph as one-word relation texts.

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
    return RelationGraph(g.entities, Vocab(g.predicates.names), [], texts.names, trels, "mixed", reversed_=g.reversed)
