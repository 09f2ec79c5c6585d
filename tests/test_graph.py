"""Graph construction, selection, reverse closure, and serialization."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest

from hoptrace import container
from hoptrace.errors import GraphError
from hoptrace.graph import (
    GRAPH_MAGIC,
    RelationGraph,
    Vocab,
    _index,
    add_reverse_relations,
    build_from_text_corpus,
    build_from_triples,
    expand_csr,
    load_corpus_jsonl,
    load_triples_tsv,
    mix_label_into_text,
    reverse_text,
)

from conftest import random_label_graph, random_text_graph
from oracles import brute_select, build_from_triples_reference, dense_predicate_matrices


def _rel(g, i):
    """Text relation i of g as (head, tail, text)."""
    return int(g.trel_heads[i]), int(g.trel_tails[i]), g.texts[g.trel_text[i]]


# -- vocab --------------------------------------------------------------------


def test_vocab_first_seen_order():
    v = Vocab()
    assert v.add("b") == 0
    assert v.add("a") == 1
    assert v.add("b") == 0
    assert v.names == ["b", "a"]
    assert "a" in v and "z" not in v
    assert v.name(1) == "a"
    assert v.get("z") is None
    assert v.ids(["a", "z", "b"]) == (1, None, 0)
    assert v.ids([]) == ()
    with pytest.raises(GraphError):
        v.id("z")


# -- label-form construction ---------------------------------------------------


def test_build_from_triples_shapes(chain_graph):
    g = chain_graph
    assert g.n == 4
    assert g.num_predicates == 2
    assert g.num_edges == 3
    assert g.form == "label"
    assert g.entities.names == ["a", "b", "c", "d"]


def test_build_from_triples_dedupes():
    g = build_from_triples([("a", "p", "b"), ("a", "p", "b"), ("b", "p", "a")])
    assert g.num_edges == 2


def test_build_from_triples_rejects_malformed():
    with pytest.raises(GraphError):
        build_from_triples([("a", "p")])
    with pytest.raises(GraphError):
        build_from_triples([("a", "", "b")])
    with pytest.raises(GraphError):
        build_from_triples([(1, "p", "b")])


def _assert_same_label_graph(g, h):
    assert g.entities.names == h.entities.names
    assert g.predicates.names == h.predicates.names
    for name in ("edge_heads", "edge_preds", "edge_tails", "head_ptr", "pair_start"):
        np.testing.assert_array_equal(getattr(g, name), getattr(h, name), err_msg=name)


@pytest.mark.parametrize("seed", range(4))
def test_build_from_triples_matches_the_reference_loop(seed):
    """Shuffled rows with exact duplicates, list-typed rows (some the twins
    of tuple rows) and a name first seen as a tail: the same names in the
    same order and the same edge arrays as the per-row reference loop."""
    rng = np.random.default_rng(seed)
    rows = [(f"e{h}", f"p{q}", f"e{t}") for h, q, t in rng.integers(0, [12, 3, 12], size=(40, 3))]
    rows += rows[::3]  # exact duplicates
    rows = [rows[i] for i in rng.permutation(len(rows))]
    rows = [list(r) if i % 4 == 0 else r for i, r in enumerate(rows)]
    rows = [("first", "p0", "tail_first"), *rows, ["tail_first", "p1", "e0"], ("first", "p0", "tail_first")]
    entities, predicates, edges = build_from_triples_reference(rows)
    assert len(edges) < len(rows) and entities[:2] == ["first", "tail_first"]
    g = build_from_triples(iter(rows))  # one pass over any iterable
    _assert_same_label_graph(g, RelationGraph(Vocab(entities), Vocab(predicates), edges, [], [], form="label"))
    assert build_from_triples([]).num_edges == 0


@pytest.mark.parametrize("bad", [("a", "p"), ("a", "p", "b", "c"), None, 7, ("a", "", "b"), (1, "p", "b"),
                                 ("a", "p", None), ["a", "p", ""], ("a", "p", ["b"]), "abc"])
def test_build_from_triples_names_the_malformed_row(bad):
    """A malformed row at index 3 is refused with the reference's message,
    which names `triple row 3`, after well-formed, list and duplicate rows.
    A string row is not read as its characters, even when it has three."""
    rows = [("a", "p", "b"), ["b", "q", "c"], ("a", "p", "b"), bad, ("c", "p", "a")]
    with pytest.raises(GraphError) as ours:
        build_from_triples(rows)
    with pytest.raises(GraphError) as ref:
        build_from_triples_reference(rows)
    assert str(ours.value) == str(ref.value)
    assert str(ours.value).startswith("triple row 3: ")
    if isinstance(bad, str):
        assert str(ours.value) == "triple row 3: expected 3 fields, got 'abc'"


def test_edges_listed_by_head_ptr(rng):
    """Edges are sorted by (head, tail, pred), and head_ptr marks each
    entity's run of edges, entities without edges included."""
    graphs = [add_reverse_relations(random_label_graph(rng)) for _ in range(10)]
    graphs.append(build_from_triples([("a", "p", "b"), ("c", "p", "b")]))  # b heads no edge
    for g in graphs:
        key = list(zip(g.edge_heads.tolist(), g.edge_tails.tolist(), g.edge_preds.tolist()))
        assert key == sorted(key)
        assert g.head_ptr.shape == (g.n + 1,) and g.head_ptr[0] == 0 and g.head_ptr[-1] == g.num_edges
        for i in range(g.n):
            lo, hi = g.head_ptr[i], g.head_ptr[i + 1]
            assert hi - lo == np.count_nonzero(g.edge_heads == i)
            assert np.all(g.edge_heads[lo:hi] == i)


def test_expand_csr_lists_each_bucket_in_turn():
    ptr = np.array([0, 2, 2, 5, 6])
    pos, counts = expand_csr(ptr, np.array([2, 0, 1, 2, 3]))
    assert pos.tolist() == [2, 3, 4, 0, 1, 2, 3, 4, 5]
    assert counts.tolist() == [3, 2, 0, 3, 1]
    pos, counts = expand_csr(ptr, np.zeros(0, dtype=np.int64))
    assert pos.size == 0 and counts.size == 0


def _lexsort_store(rows, key_cols, n):
    """The (head, tail, kind)-ordered rows of a store, its CSR pointer over
    n heads and its pair flags, built by np.lexsort on key_cols, the columns
    of rows that hold head, tail and kind."""
    h, t, k = key_cols
    ordered = rows[np.lexsort((rows[:, k], rows[:, t], rows[:, h]))]
    ptr = np.searchsorted(ordered[:, h], np.arange(n + 1))
    pairs = ordered[:, [h, t]]
    starts = np.r_[True, (pairs[1:] != pairs[:-1]).any(axis=1)]
    return ordered, ptr, starts


def _store_rows(rng, high, kind_col):
    """30 random id rows below high, 8 of them repeated, and each of 4
    (head, tail) pairs joined by a second kind: parallel relations."""
    rows = rng.integers(0, high, size=(30, 3))
    twins = rows[:4].copy()
    twins[:, kind_col] = (twins[:, kind_col] + 1) % high[kind_col]
    return np.concatenate([rows, rows[:8], twins])


def test_presorted_and_shuffled_edges_give_equal_arrays(rng):
    """The (head, pred, tail) rows are stored in (head, tail, pred) order.
    Sorted, shuffled and list inputs, repeated rows and parallel edges
    included, give the columns, head_ptr and pair_start of a lexsort
    reference."""
    ents, preds = Vocab([str(i) for i in range(5)]), Vocab(["p", "q", "r"])
    for _ in range(20):
        e = _store_rows(rng, [5, 3, 5], kind_col=1)
        ordered, ptr, starts = _lexsort_store(e, (0, 2, 1), len(ents))
        assert not starts.all()  # some pair holds parallel edges
        for edges in (ordered, rng.permutation(e), rng.permutation(e).tolist(), ordered.tolist()):
            g = RelationGraph(ents, preds, edges, [], [], form="label")
            np.testing.assert_array_equal(np.stack([g.edge_heads, g.edge_preds, g.edge_tails], axis=1), ordered)
            np.testing.assert_array_equal(g.head_ptr, ptr)
            np.testing.assert_array_equal(g.pair_start, starts)


def test_index_key_past_int64_is_a_graph_error():
    """n * n * kinds ids past int64 make no sort key: a GraphError, not
    numpy's ValueError."""
    ids = np.zeros(1, dtype=np.int64)
    with pytest.raises(GraphError, match="do not fit one 64-bit key"):
        _index(ids, ids, ids, 2**32, 2)  # 2**65 keys: it fails before any array is built


def test_pair_start_marks_the_first_edge_of_each_pair(rng):
    """pair_start is True exactly where an edge's (head, tail) differs from
    the edge before it, so the graph's pairs are the runs it opens, each
    pair in one run."""
    graphs = [add_reverse_relations(random_label_graph(rng)) for _ in range(10)]
    graphs.append(build_from_triples([("a", "p", "b"), ("a", "q", "b"), ("a", "p", "c"), ("b", "q", "b")]))
    graphs.append(RelationGraph(Vocab(["a"]), Vocab(["p"]), [], [], [], form="label"))
    for g in graphs:
        pairs = list(zip(g.edge_heads.tolist(), g.edge_tails.tolist()))
        want = [i == 0 or pairs[i] != pairs[i - 1] for i in range(len(pairs))]
        assert g.pair_start.dtype == bool and g.pair_start.tolist() == want
        assert np.count_nonzero(g.pair_start) == len(set(pairs))
    assert graphs[-2].pair_start.tolist() == [True, False, True, True]


def test_presorted_and_shuffled_text_relations_give_equal_arrays(rng):
    """Text relations are stored by (head, tail, text): sorted, shuffled and
    list inputs, repeated rows and parallel relations included, give the
    columns, trel_ptr and trel_pair_start of a lexsort reference."""
    ents, texts = Vocab([str(i) for i in range(5)]), ["<sub> a <obj>", "<sub> b <obj>", "<sub> c <obj>"]
    for _ in range(20):
        t = _store_rows(rng, [5, 5, 3], kind_col=2)
        ordered, ptr, starts = _lexsort_store(t, (0, 1, 2), len(ents))
        assert not starts.all()  # some pair holds parallel relations
        for trels in (ordered, rng.permutation(t), rng.permutation(t).tolist(), ordered.tolist()):
            g = RelationGraph(ents, Vocab(), [], texts, trels, form="text")
            np.testing.assert_array_equal(np.stack([g.trel_heads, g.trel_tails, g.trel_text], axis=1), ordered)
            np.testing.assert_array_equal(g.trel_ptr, ptr)
            np.testing.assert_array_equal(g.trel_pair_start, starts)


def test_text_relations_listed_by_trel_ptr_with_pair_starts(rng):
    """trel_ptr marks each entity's run of text relations, entities without
    relations included, and trel_pair_start is True exactly where a
    relation's (head, tail) differs from the one before it."""
    graphs = [add_reverse_relations(random_text_graph(rng, isolated=(1,))) for _ in range(10)]
    graphs.append(RelationGraph(Vocab(["a"]), Vocab(), [], [], [], form="text"))
    parallel = False
    for g in graphs:
        key = list(zip(g.trel_heads.tolist(), g.trel_tails.tolist(), g.trel_text.tolist()))
        assert key == sorted(key)
        assert g.trel_ptr.shape == (g.n + 1,) and g.trel_ptr[0] == 0 and g.trel_ptr[-1] == g.num_text_relations
        for i in range(g.n):
            lo, hi = g.trel_ptr[i], g.trel_ptr[i + 1]
            assert hi - lo == np.count_nonzero(g.trel_heads == i)
            assert np.all(g.trel_heads[lo:hi] == i)
        pairs = [k[:2] for k in key]
        want = [i == 0 or pairs[i] != pairs[i - 1] for i in range(len(pairs))]
        assert g.trel_pair_start.dtype == bool and g.trel_pair_start.tolist() == want
        assert np.count_nonzero(g.trel_pair_start) == len(set(pairs))
        parallel |= len(set(pairs)) < len(pairs)
    assert parallel


@pytest.mark.parametrize(
    "edges, trels",
    [([(0, 0, 2)], []), ([(0, 1, 1)], []), ([], [(0, -1, 0)]), ([], [(0, 1, 1)])],
    ids=["edge-entity", "predicate", "text-relation-entity", "text"],
)
def test_rejects_out_of_range_ids(edges, trels):
    with pytest.raises(GraphError, match="out of range"):
        if edges:
            RelationGraph(Vocab(["a", "b"]), Vocab(["p"]), edges, [], [], form="label")
        else:
            RelationGraph(Vocab(["a", "b"]), Vocab(), [], ["<sub> r <obj> ."], trels, form="text")


def test_rejects_ids_past_int64():
    with pytest.raises(GraphError, match="does not fit in 64 bits"):
        RelationGraph(Vocab(["a", "b"]), Vocab(["p"]), [(0, 0, 2**63)], [], [], form="label")


def test_rejects_an_unknown_form():
    """The model takes any form but label for text, so a graph of another
    form would run as a text graph."""
    says = "unknown graph form 'banana': expected one of label, text; rebuild the graph with `hoptrace build-graph`"
    with pytest.raises(GraphError, match=re.escape(says)):
        RelationGraph(Vocab(["a", "b"]), Vocab(["p"]), [(0, 0, 1)], [], [], form="banana")


@pytest.mark.parametrize(
    "form, predicates, edges, texts, trels, says",
    [
        ("label", ["p"], [(0, 0, 1)], ["t"], [], "a label graph holds no texts or text relations, got 1 and 0"),
        ("label", ["p"], [(0, 0, 1)], ["t"], [(1, 0, 0)], "a label graph holds no texts or text relations, got 1 and 1"),
        ("text", ["p"], [], ["t"], [(1, 0, 0)], "a text graph holds no predicates or label edges, got 1 and 0"),
        ("text", ["p"], [(0, 0, 1)], ["t"], [(1, 0, 0)], "a text graph holds no predicates or label edges, got 1 and 1"),
    ],
    ids=["label-with-a-text", "label-with-a-text-relation", "text-with-a-predicate", "text-with-a-label-edge"],
)
def test_rejects_a_store_of_the_other_form(form, predicates, edges, texts, trels, says):
    """The model reads one store per form, so a row or a name in the other
    would be carried and never read: a text would still join the vocabulary."""
    with pytest.raises(GraphError, match=re.escape(says)):
        RelationGraph(Vocab(["a", "b"]), Vocab(predicates), edges, texts, trels, form=form)


@pytest.mark.parametrize("kind", ["entity", "predicate", "text"])
@pytest.mark.parametrize(
    "name", ["a\nb", "a\rb", "#SECTION edges"], ids=["newline", "carriage-return", "section-marker"]
)
def test_names_that_broke_the_text_format_round_trip(tmp_path, kind, name):
    """Names are JSON strings in a saved graph, so a line break or a line
    that looks like a section header of the earlier text format is kept."""
    names = {"entity": ["a", "b"], "predicate": ["p"], "text": ["<sub> r <obj> ."]}
    names[kind] = names[kind] + [name]
    graphs = [RelationGraph(Vocab(names["entity"]), Vocab(names["predicate"]), [(0, 0, 1)], [], [], form="label"),
              RelationGraph(Vocab(names["entity"]), Vocab(), [], names["text"], [(1, 0, 0)], form="text")]
    for g in graphs:
        g.save(tmp_path / "g.bin")
        back = RelationGraph.load(tmp_path / "g.bin")
        assert (back.entities.names, back.predicates.names, back.texts) == (g.entities.names, g.predicates.names, g.texts)


def test_rejects_repeated_texts():
    """The reverse and mix builders number texts by name, so a repeated
    text would collapse into one id and shift the ids after it."""
    texts = ["<sub> r <obj> .", "<sub> r <obj> ."]
    with pytest.raises(GraphError, match="texts repeat"):
        RelationGraph(Vocab(["a", "b"]), Vocab(), [], texts, [(0, 1, 1)], form="text")


# -- text-relation selection ----------------------------------------------------


def test_selection_matches_brute_force(rng):
    for trial in range(60):
        g = random_text_graph(rng)
        a = rng.random(g.n)
        tau = float(rng.choice([0.0, 0.3, 0.7, 0.95]))
        omega = None if trial % 3 == 0 else int(rng.integers(1, g.num_text_relations + 2))
        got, _ = g.select_text_relation_ids(a[None], tau, omega)
        want = brute_select(a, tau, omega, g.trel_heads.tolist())
        assert sorted(got.tolist()) == want, f"tau={tau} omega={omega}"


def test_selection_threshold_is_strict():
    g = random_text_graph(np.random.default_rng(7), n=5, num_rels=10)
    a = np.zeros(5)
    a[2] = 0.7
    ids, _ = g.select_text_relation_ids(a[None], 0.7, None)
    # 0.7 is not > 0.7, so entity 2 does not activate; fallback takes argmax
    assert set(g.trel_heads[ids]) == {2}
    assert len(ids) == np.count_nonzero(g.trel_heads == 2)


def test_selection_fallback_argmax_tie_breaks_low_id():
    # scores [0.1, 0.9, 0.9]: nothing clears tau=0.95, argmax tie -> entity 1
    names = ["e0", "e1", "e2"]
    trels = [(0, 1, 0), (1, 2, 0), (2, 0, 0)]
    g = RelationGraph(Vocab(names), Vocab(), [], ["<sub> r <obj> ."], trels, form="text")
    a = np.array([0.1, 0.9, 0.9])
    ids, rows = g.select_text_relation_ids(a[None], 0.95, None)
    assert g.trel_heads[ids].tolist() == [1]
    assert rows.tolist() == [0]
    np.testing.assert_allclose(a[g.trel_heads[ids]], [0.9])


def test_selection_cap_keeps_strongest_subjects(rng):
    g = random_text_graph(rng, n=10, num_rels=40)
    a = rng.random(10)
    full, _ = g.select_text_relation_ids(a[None], 0.0, None)
    capped, _ = g.select_text_relation_ids(a[None], 0.0, 5)
    subj = a[g.trel_heads[capped]]
    assert len(capped) == 5
    kept = set(capped.tolist())
    dropped = [r for r in full.tolist() if r not in kept]
    if dropped:
        assert min(subj) >= max(a[g.trel_heads[r]] for r in dropped) - 1e-12


def test_selection_empty_when_no_outgoing():
    names = ["e0", "e1"]
    g = RelationGraph(Vocab(names), Vocab(), [], ["<sub> r <obj> ."], [(0, 1, 0)], form="text")
    ids, rows = g.select_text_relation_ids(np.array([[0.0, 1.0]]), 0.5, None)
    assert ids.size == 0 and rows.size == 0


def test_batch_selection_matches_brute_force_row_by_row(rng):
    """One call over a (B, n) matrix selects, in each row, the relations
    brute_select picks for that row alone.  In a row the omega cut trims
    they come by subject score, then entity, then id; in any other row by
    entity, then id.  Rows that fall back to the argmax (with relations or
    without), rows under omega and rows omega cuts share the batches."""
    kinds = set()
    tau = 0.5
    for trial in range(60):
        g = random_text_graph(rng, isolated=(0,) if trial % 4 == 0 else ())
        omega = None if trial % 5 == 0 else int(rng.integers(1, 8))
        B = int(rng.integers(2, 7))
        a = rng.random((B, g.n)) * 0.5  # below tau: the row falls back
        for i in range(B):
            pick = rng.random()
            if pick < 0.2:
                a[i] = 0.0
            elif pick < 0.7:
                a[i, rng.random(g.n) < 0.5] += 0.5
        ids, rows = g.select_text_relation_ids(a, tau, omega)
        assert ids.shape == rows.shape
        assert np.all(np.diff(rows) >= 0)
        heads = g.trel_heads.tolist()
        for i in range(B):
            got = ids[rows == i].tolist()
            want = brute_select(a[i], tau, omega, heads)
            assert sorted(got) == want, (trial, i)
            cut = omega is not None and len(brute_select(a[i], tau, None, heads)) > omega
            assert got == sorted(got, key=lambda r: (-a[i, heads[r]] if cut else 0.0, heads[r], r)), (trial, i)
            if not np.any(a[i] > tau):
                kinds.add("fallback" if got else "empty fallback")
            else:
                kinds.add("cut" if cut else "active")
    assert kinds == {"fallback", "empty fallback", "active", "cut"}


def test_selection_lists_each_pair_whole_from_its_first_relation(rng):
    """In every row of a selection, omega cuts included, the listed
    relations of one (head, tail) pair are side by side and the first of
    them is the one trel_pair_start marks: the pair rule max aggregation
    reads.  A pair the cut splits keeps a prefix of its relations."""
    cuts = 0
    for trial in range(60):
        g = add_reverse_relations(random_text_graph(rng))
        B = int(rng.integers(1, 5))
        a = np.round(rng.random((B, g.n)), 1)  # ties in subject score
        omega = None if trial % 4 == 0 else int(rng.integers(1, 12))
        ids, rows = g.select_text_relation_ids(a, 0.3, omega)
        for i in range(B):
            got = ids[rows == i]
            pairs = list(zip(g.trel_heads[got].tolist(), g.trel_tails[got].tolist()))
            opens = [k == 0 or pairs[k] != pairs[k - 1] for k in range(len(pairs))]
            assert sum(opens) == len(set(pairs)), (trial, i)
            assert g.trel_pair_start[got].tolist() == opens, (trial, i)
            full = ids[rows == i] if omega is None else g.select_text_relation_ids(a[i : i + 1], 0.3, None)[0]
            cuts += got.size < full.size
    assert cuts > 10


# -- reverse closure -------------------------------------------------------------


def test_reverse_text_swaps_placeholders():
    assert reverse_text("<sub> directed <obj> .") == "<obj> directed <sub> ."


def test_reverse_text_is_involution_on_words():
    assert reverse_text("directed_by") == "directed_by_rev"
    assert reverse_text("directed_by_rev") == "directed_by"


def test_add_reverse_label(chain_graph):
    g = add_reverse_relations(chain_graph)
    assert g.reversed
    assert g.num_predicates == 4
    assert g.predicates.names == ["p0", "p0_rev", "p1", "p1_rev"]
    assert g.num_edges == 6
    # forward edge a-p0->b implies b-p0_rev->a
    mats = dense_predicate_matrices(g.n, g.edge_heads, g.edge_preds, g.edge_tails, g.num_predicates)
    assert mats[g.predicates.id("p0_rev")][g.entities.id("b"), g.entities.id("a")] == 1.0


def test_add_reverse_label_closure_complete(rng):
    g0 = random_label_graph(rng, n=12)
    g = add_reverse_relations(g0)
    fwd = {(h, p, t) for h, p, t in zip(g.edge_heads, g.edge_preds, g.edge_tails) if p % 2 == 0}
    rev = {(h, p, t) for h, p, t in zip(g.edge_heads, g.edge_preds, g.edge_tails) if p % 2 == 1}
    assert {(t, p + 1, h) for h, p, t in fwd} == rev


def test_add_reverse_text(rng):
    """Every relation gains a twin from its tail to its head with the
    reversed text; relations are stored by (head, tail, text), so the twins
    are matched by content, not by position."""
    g0 = random_text_graph(rng, n=8, num_rels=15)
    g = add_reverse_relations(g0)
    m = g0.num_text_relations
    assert g.num_text_relations == 2 * m
    base = sorted(_rel(g0, i) for i in range(m))
    twins = sorted((t, h, reverse_text(text)) for h, t, text in base)
    assert sorted(_rel(g, i) for i in range(2 * m)) == sorted(base + twins)
    assert g.texts[: len(g0.texts)] == g0.texts


def test_add_reverse_twice_rejected(chain_graph):
    g = add_reverse_relations(chain_graph)
    with pytest.raises(GraphError):
        add_reverse_relations(g)


# -- label triples mixed into text ----------------------------------------------------


def test_mix_label_into_text(rng):
    triples = [("e0", "knows", "e1"), ("e1", "knows", "e2"), ("e2", "likes", "e0")]
    base = random_text_graph(rng, n=3, num_rels=5)
    mixed = mix_label_into_text(base, triples, 1.0, seed=0)
    assert (mixed.form, mixed.num_predicates, mixed.num_edges) == ("text", 0, 0)
    assert mixed.num_text_relations == base.num_text_relations + 3
    rels = sorted(_rel(mixed, i) for i in range(mixed.num_text_relations))
    for i in range(base.num_text_relations):
        rels.remove(_rel(base, i))
    assert rels == [(0, 1, "knows"), (1, 2, "knows"), (2, 0, "likes")]


@pytest.mark.parametrize("seed", [-1, True, 1.0, "0", None])
def test_mix_rejects_a_seed_that_is_no_non_negative_int(rng, seed):
    base = random_text_graph(rng, n=3, num_rels=4)
    with pytest.raises(GraphError, match="seed must be a non-negative integer"):
        mix_label_into_text(base, [("e0", "knows", "e1")], 0.5, seed=seed)


def test_mix_preserves_reverse_closure(rng):
    triples = [("e0", "knows", "e1"), ("e1", "likes", "e2")]
    base = add_reverse_relations(random_text_graph(rng, n=3, num_rels=4))
    mixed = mix_label_into_text(base, triples, 1.0, seed=0)
    assert mixed.reversed
    texts = [mixed.texts[x] for x in mixed.trel_text]
    assert "knows_rev" in texts and "likes_rev" in texts


def test_mix_fraction_zero_adds_nothing(rng):
    base = random_text_graph(rng, n=4)
    mixed = mix_label_into_text(base, [("e0", "p", "e1")], 0.0, seed=0)
    assert mixed.num_text_relations == base.num_text_relations


def test_mix_rejects_label_graph(chain_graph):
    with pytest.raises(GraphError):
        mix_label_into_text(chain_graph, [], 0.5, seed=0)


# -- corpus extraction -------------------------------------------------------------


def test_build_from_text_corpus_basic():
    docs = [("Alpha Movie", "Alpha Movie was directed by Bob. Bob also directed Gamma.")]
    g = build_from_text_corpus(docs, ["Alpha Movie", "Bob", "Gamma"])
    assert g.form == "text"
    by_pair = {}
    for i in range(g.num_text_relations):
        h, t, text = _rel(g, i)
        by_pair.setdefault((h, t), set()).add(text)
    assert "<sub> was directed by <obj> ." in by_pair[(0, 1)]
    # second sentence: subject Alpha Movie absent, but edges still start at it
    assert by_pair[(0, 2)] == {"bob also directed <obj> ."}


def test_corpus_multi_object_sentence_yields_one_relation_each():
    docs = [("A", "A stars B and C.")]
    g = build_from_text_corpus(docs, ["A", "B", "C"])
    rels = [_rel(g, i) for i in range(g.num_text_relations)]
    assert {(h, t) for h, t, _ in rels} == {(0, 1), (0, 2)}
    texts = {text for _, _, text in rels}
    # the non-object mention keeps its surface form
    assert "<sub> stars <obj> and c ." in texts
    assert "<sub> stars b and <obj> ." in texts


def test_corpus_longest_match_wins():
    docs = [("New York Story", "New York Story is set in New York.")]
    g = build_from_text_corpus(docs, ["New York Story", "New York"])
    assert g.num_text_relations == 1
    assert _rel(g, 0)[2] == "<sub> is set in <obj> ."


def test_corpus_unknown_subject_rejected():
    with pytest.raises(GraphError):
        build_from_text_corpus([("Nope", "text.")], ["A"])


def test_corpus_texts_deduplicated():
    docs = [("A", "A likes B."), ("C", "C likes B.")]
    g = build_from_text_corpus(docs, ["A", "B", "C"])
    assert g.num_text_relations == 2
    assert len(g.texts) == 1  # same rendered sentence shared


# a repeated text, a reversed text that is already in the table, and a
# predicate sampled twice: each must reuse its first id
_PIN_DOCS = [
    ("Ann", "Ann likes Bob. Ann likes Cy. Bob and Ann met."),
    ("Bob", "Bob and Ann met. Bob likes Cy!"),
]
_PIN_TRIPLES = [("Ann", "likes", "Bob"), ("Ann", "likes", "Cy"), ("Bob", "knows", "Cy")]


# the mixed pin is the file that earlier versions wrote as a graph of form
# "mixed", with its form set to "text" and its sha256 redone
@pytest.mark.parametrize(
    "case, sha256, trel_text",
    [
        ("text", "fb1ff3be449e1ec84c55c5d295fbf0cb06353ec240be5b963c57d6fa7fa52287", [0, 1, 1, 0, 2, 2, 4, 3, 4, 5]),
        (
            "mixed",
            "5fbe7f50ff2cff5a13c5ae9cc02d79d12ffaf80c9c0e1326fb2c92008977a237",
            [0, 1, 1, 6, 0, 6, 2, 2, 4, 7, 3, 8, 4, 7, 5, 9],
        ),
    ],
    ids=["text", "mixed"],
)
def test_text_ids_are_pinned(tmp_path, case, sha256, trel_text):
    g = add_reverse_relations(build_from_text_corpus(_PIN_DOCS, ["Ann", "Bob", "Cy"]))
    if case == "mixed":
        g = mix_label_into_text(g, _PIN_TRIPLES, 1.0, seed=0)
    assert g.trel_text.tolist() == trel_text
    g.save(tmp_path / "g.bin")
    assert hashlib.sha256((tmp_path / "g.bin").read_bytes()).hexdigest() == sha256


# -- serialization ------------------------------------------------------------------

_ARRAYS = (
    "edge_heads", "edge_tails", "edge_preds", "head_ptr", "pair_start",
    "trel_heads", "trel_tails", "trel_text", "trel_ptr", "trel_pair_start",
)


def _assert_same_graph(got, want):
    assert (got.form, got.reversed) == (want.form, want.reversed)
    assert (got.entities.names, got.predicates.names, got.texts) == (want.entities.names, want.predicates.names, want.texts)
    for name in _ARRAYS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert getattr(got, name).dtype == getattr(want, name).dtype, name


def test_save_load_roundtrip_label(rng, tmp_path):
    g = add_reverse_relations(random_label_graph(rng, n=15))
    path = tmp_path / "g.bin"
    g.save(path)
    _assert_same_graph(RelationGraph.load(path), g)


def test_save_load_roundtrip_text(rng, tmp_path):
    g = add_reverse_relations(random_text_graph(rng))
    path = tmp_path / "g.bin"
    g.save(path)
    _assert_same_graph(RelationGraph.load(path), g)


def test_saved_graph_layout(tmp_path):
    """Magic, the u64 length of the sort-keyed JSON metadata, the metadata,
    the (head, pred, tail) edge rows and the (head, tail, text) relation
    rows as little-endian int64, one block empty, then the sha256 of all
    that."""
    label = RelationGraph(Vocab(["a", "b", "c"]), Vocab(["p"]), [(2, 0, 1), (0, 0, 2)], [], [], form="label")
    text = RelationGraph(Vocab(["a", "b", "c"]), Vocab(), [], ["t"], [(1, 0, 0)], form="text")
    for g, names, counts, rows in (
        (label, {"predicates": ["p"], "texts": []}, (2, 0), (0, 0, 2, 2, 0, 1)),
        (text, {"predicates": [], "texts": ["t"]}, (0, 1), (1, 0, 0)),
    ):
        g.save(tmp_path / "g.bin")
        raw = (tmp_path / "g.bin").read_bytes()
        meta = {"entities": ["a", "b", "c"], "form": g.form, "num_edges": counts[0], "num_text_relations": counts[1],
                "reversed": False, **names}
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        body = b"HOPGRAF1" + struct.pack("<Q", len(blob)) + blob + struct.pack(f"<{len(rows)}q", *rows)
        assert raw == body + hashlib.sha256(body).digest()


def test_load_rejects_bad_header(tmp_path):
    """A file of another format, such as a text graph of earlier versions."""
    p = tmp_path / "bad.txt"
    p.write_text("hoptrace-graph v2 label 0 0\n#SECTION meta\n")
    with pytest.raises(GraphError, match=re.escape(f"{p}: not a hoptrace graph of format HOPGRAF1: rebuild it with `hoptrace build-graph`")):
        RelationGraph.load(p)


def _rewritten(path, change):
    """The graph file at path with its metadata changed by change(meta),
    written again through the container, so its sha256 matches."""
    meta, data = container.read(path, GRAPH_MAGIC, GraphError, "a graph")
    change(meta)
    container.write(path, GRAPH_MAGIC, meta, [data])


def test_load_rejects_missing_section(tmp_path, chain_graph):
    """Each metadata field (a section of the earlier text format) is required."""
    path = tmp_path / "g.bin"
    for key in ("form", "reversed", "entities", "predicates", "texts", "num_edges", "num_text_relations"):
        chain_graph.save(path)
        _rewritten(path, lambda meta: meta.pop(key))
        with pytest.raises(GraphError, match=re.escape(f"metadata does not describe a graph: KeyError('{key}')")):
            RelationGraph.load(path)


def test_load_tolerates_unknown_section(tmp_path, chain_graph):
    """A metadata field load() does not know, as a later version may add,
    is skipped."""
    path = tmp_path / "g.bin"
    chain_graph.save(path)
    _rewritten(path, lambda meta: meta.update(futurestuff=["something"]))
    _assert_same_graph(RelationGraph.load(path), chain_graph)


def test_load_triples_tsv(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("# comment\na\tp\tb\n\nb\tp\tc\n")
    assert load_triples_tsv(p) == [("a", "p", "b"), ("b", "p", "c")]
    p.write_text("a\tp\n")
    with pytest.raises(GraphError):
        load_triples_tsv(p)


def test_load_triples_reads_metaqa_pipe_lines(tmp_path):
    """kb.txt's head|relation|tail lines (names with spaces, as in MetaQA)
    build the graph that a TSV of the same triples builds."""
    triples = [("Kismet", "directed_by", "William Dieterle"), ("Kismet", "release_year", "1944"),
               ("Flags of Our Fathers", "directed_by", "Clint Eastwood"), ("Kismet", "directed_by", "William Dieterle")]
    (tmp_path / "kb.txt").write_text("".join(f"{h}|{r}|{t}\n" for h, r, t in triples))
    (tmp_path / "t.tsv").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples))
    assert load_triples_tsv(tmp_path / "kb.txt") == triples
    for name in ("kb.txt", "t.tsv"):
        add_reverse_relations(build_from_triples(load_triples_tsv(tmp_path / name))).save(tmp_path / f"{name}.graph")
    assert (tmp_path / "kb.txt.graph").read_bytes() == (tmp_path / "t.tsv.graph").read_bytes()


@pytest.mark.parametrize(
    "bad", ["a|p", "a|p|b|c", "a||b", "a\tp|b|c", "a|p|b\tc", "a\tp\tb\tc", "a\t\tb"],
    ids=["two-pipe-fields", "four-pipe-fields", "empty-pipe-field", "tab-then-pipes", "pipes-then-tab",
         "four-tab-fields", "empty-tab-field"],
)
def test_load_triples_rejects_a_line_of_neither_form(tmp_path, bad):
    """A line with a tab is only read as tab-separated, so a stray pipe in
    it never makes a triple."""
    p = tmp_path / "t.txt"
    p.write_text(f"a|p|b\nc\tp\td\n{bad}\n")
    with pytest.raises(GraphError, match=re.escape(f"{p}:3: expected 3 tab-separated or |-separated fields")):
        load_triples_tsv(p)


def test_load_triples_keeps_pipes_inside_tab_fields(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("a|x\tp\tb|y\n")
    assert load_triples_tsv(p) == [("a|x", "p", "b|y")]


def test_load_corpus_jsonl(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"subject": "A", "text": "A likes B."}\n\n{"subject": "B", "text": "x"}\n')
    assert load_corpus_jsonl(p) == [("A", "A likes B."), ("B", "x")]
    p.write_text("{broken\n")
    with pytest.raises(GraphError):
        load_corpus_jsonl(p)


@pytest.mark.parametrize(
    "line",
    ['{"subject": ["A"], "text": "A p B ."}', '{"subject": "A", "text": 5}', '{"subject": null, "text": "A p B ."}'],
    ids=["subject-list", "text-number", "subject-null"],
)
def test_load_corpus_jsonl_refuses_a_field_that_is_no_string(tmp_path, line):
    """Both fields must be strings; a list subject used to end in a
    TypeError from hashing, a number text in one from the tokenizer."""
    p = tmp_path / "c.jsonl"
    p.write_text('{"subject": "A", "text": "A likes B."}\n' + line + "\n")
    with pytest.raises(GraphError) as err:
        load_corpus_jsonl(p)
    assert str(err.value) == f"{p}:2: expected JSON with string fields 'subject' and 'text'"
