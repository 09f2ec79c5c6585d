"""Graph construction, selection, reverse closure, and serialization."""

import numpy as np
import pytest

from hoptrace.errors import GraphError
from hoptrace.graph import (
    RelationGraph,
    Vocab,
    add_reverse_relations,
    build_from_text_corpus,
    build_from_triples,
    load_corpus_jsonl,
    load_triples_tsv,
    mix_label_into_text,
    pair_groups,
    reverse_text,
)

from conftest import random_label_graph, random_text_graph
from oracles import brute_select, dense_predicate_matrices


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


def test_edges_grouped_by_predicate(rng):
    for _ in range(10):
        g = random_label_graph(rng)
        for p in range(g.num_predicates):
            lo, hi = g.pred_ptr[p], g.pred_ptr[p + 1]
            assert np.all(g.edge_preds[lo:hi] == p)
        assert g.pred_ptr[-1] == g.num_edges


def test_edges_grouped_by_pair(rng):
    """pair_groups lists edges by (head, tail) then edge id; each pair_ptr
    run is one pair, and no pair appears twice."""
    graphs = [add_reverse_relations(random_label_graph(rng)) for _ in range(10)]
    graphs.append(RelationGraph(Vocab(["a"]), Vocab(["p"]), [], [], [], form="label"))
    for g in graphs:
        h, t = g.edge_heads, g.edge_tails
        order, pair_heads, pair_tails, pair_ptr = pair_groups(h, t)
        assert order.tolist() == sorted(range(g.num_edges), key=lambda e: (h[e], t[e], e))
        for k, (ph, pt) in enumerate(zip(pair_heads, pair_tails)):
            run = order[pair_ptr[k] : pair_ptr[k + 1]]
            assert run.size and np.all(h[run] == ph) and np.all(t[run] == pt)
        assert pair_ptr[0] == 0 and pair_ptr[-1] == g.num_edges
        assert len(set(zip(pair_heads.tolist(), pair_tails.tolist()))) == len(pair_heads)


@pytest.mark.parametrize(
    "edges, trels",
    [([(0, 0, 2)], []), ([(0, 1, 1)], []), ([], [(0, -1, 0)]), ([], [(0, 1, 1)])],
    ids=["edge-entity", "predicate", "text-relation-entity", "text"],
)
def test_rejects_out_of_range_ids(edges, trels):
    with pytest.raises(GraphError, match="out of range"):
        RelationGraph(Vocab(["a", "b"]), Vocab(["p"]), edges, ["<sub> r <obj> ."], trels, form="mixed")


@pytest.mark.parametrize("kind", ["entity", "predicate", "text"])
@pytest.mark.parametrize(
    "name", ["a\nb", "a\rb", "#SECTION edges"], ids=["newline", "carriage-return", "section-marker"]
)
def test_rejects_names_that_break_the_file(kind, name):
    """save() writes one name per line and load() reads in text mode, so
    these names would come back as other lines or sections."""
    names = {"entity": ["a", "b"], "predicate": ["p"], "text": ["<sub> r <obj> ."]}
    names[kind] = names[kind] + [name]
    with pytest.raises(GraphError, match=f"{kind} name"):
        RelationGraph(Vocab(names["entity"]), Vocab(names["predicate"]), [], names["text"], [], form="mixed")


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
        got, _ = g.select_text_relation_ids(a, tau, omega)
        want = brute_select(a, tau, omega, g.trel_heads.tolist())
        assert sorted(got.tolist()) == want, f"tau={tau} omega={omega}"


def test_selection_threshold_is_strict():
    g = random_text_graph(np.random.default_rng(7), n=5, num_rels=10)
    a = np.zeros(5)
    a[2] = 0.7
    ids, _ = g.select_text_relation_ids(a, 0.7, None)
    # 0.7 is not > 0.7, so entity 2 does not activate; fallback takes argmax
    assert set(g.trel_heads[ids]) == {2}
    assert len(ids) == np.count_nonzero(g.trel_heads == 2)


def test_selection_fallback_argmax_tie_breaks_low_id():
    # scores [0.1, 0.9, 0.9]: nothing clears tau=0.95, argmax tie -> entity 1
    names = ["e0", "e1", "e2"]
    trels = [(0, 1, 0), (1, 2, 0), (2, 0, 0)]
    g = RelationGraph(Vocab(names), Vocab(), [], ["<sub> r <obj> ."], trels, form="text")
    ids, subj = g.select_text_relation_ids(np.array([0.1, 0.9, 0.9]), 0.95, None)
    assert g.trel_heads[ids].tolist() == [1]
    np.testing.assert_allclose(subj, [0.9])


def test_selection_cap_keeps_strongest_subjects(rng):
    g = random_text_graph(rng, n=10, num_rels=40)
    a = rng.random(10)
    full, _ = g.select_text_relation_ids(a, 0.0, None)
    capped, subj = g.select_text_relation_ids(a, 0.0, 5)
    assert len(capped) == 5
    kept = set(capped.tolist())
    dropped = [r for r in full.tolist() if r not in kept]
    if dropped:
        assert min(subj) >= max(a[g.trel_heads[r]] for r in dropped) - 1e-12


def test_selection_empty_when_no_outgoing():
    names = ["e0", "e1"]
    g = RelationGraph(Vocab(names), Vocab(), [], ["<sub> r <obj> ."], [(0, 1, 0)], form="text")
    ids, subj = g.select_text_relation_ids(np.array([0.0, 1.0]), 0.5, None)
    assert ids.size == 0 and subj.size == 0


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
    g0 = random_text_graph(rng, n=8, num_rels=15)
    g = add_reverse_relations(g0)
    m = g0.num_text_relations
    assert g.num_text_relations == 2 * m
    for i in range(m):
        (h, t, text), (twin_h, twin_t, twin_text) = _rel(g, i), _rel(g, m + i)
        assert (h, t) == (twin_t, twin_h)
        assert reverse_text(text) == twin_text


def test_add_reverse_twice_rejected(chain_graph):
    g = add_reverse_relations(chain_graph)
    with pytest.raises(GraphError):
        add_reverse_relations(g)


# -- mixed form -------------------------------------------------------------------


def test_mix_label_into_text(rng):
    triples = [("e0", "knows", "e1"), ("e1", "knows", "e2"), ("e2", "likes", "e0")]
    base = random_text_graph(rng, n=3, num_rels=5)
    mixed = mix_label_into_text(base, triples, 1.0, seed=0)
    assert mixed.form == "mixed"
    assert mixed.num_text_relations == base.num_text_relations + 3
    added = [_rel(mixed, base.num_text_relations + i) for i in range(3)]
    assert {text for _, _, text in added} == {"knows", "likes"}


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


@pytest.mark.parametrize(
    "form, sha256, trel_text",
    [
        ("text", "c626f53da4edc75b33b3c6fb9cdc046326596ab28e803a97a29b31c4d39b9408", [0, 0, 1, 2, 3, 4, 4, 2, 1, 5]),
        (
            "mixed",
            "454eb945459c200295d5d734dce02c7664c708cc529455cd6a963f1d0352f617",
            [0, 0, 1, 2, 3, 4, 4, 2, 1, 5, 6, 7, 6, 7, 8, 9],
        ),
    ],
)
def test_text_ids_are_pinned(tmp_path, form, sha256, trel_text):
    g = add_reverse_relations(build_from_text_corpus(_PIN_DOCS, ["Ann", "Bob", "Cy"]))
    if form == "mixed":
        g = mix_label_into_text(g, _PIN_TRIPLES, 1.0, seed=0)
    assert g.trel_text.tolist() == trel_text
    g.save(tmp_path / "g.txt")
    meta = [line for line in (tmp_path / "g.txt").read_text(encoding="utf-8").split("\n") if line.startswith("sha256 ")]
    assert meta == [f"sha256 {sha256}"]


# -- serialization ------------------------------------------------------------------


def test_save_load_roundtrip_label(rng, tmp_path):
    g = add_reverse_relations(random_label_graph(rng, n=15))
    path = tmp_path / "g.txt"
    g.save(path)
    g2 = RelationGraph.load(path)
    assert g2.form == g.form and g2.reversed == g.reversed
    assert g2.entities.names == g.entities.names
    assert g2.predicates.names == g.predicates.names
    np.testing.assert_array_equal(g2.edge_heads, g.edge_heads)
    np.testing.assert_array_equal(g2.edge_preds, g.edge_preds)
    np.testing.assert_array_equal(g2.edge_tails, g.edge_tails)


def test_save_load_roundtrip_text(rng, tmp_path):
    g = add_reverse_relations(random_text_graph(rng))
    path = tmp_path / "g.txt"
    g.save(path)
    g2 = RelationGraph.load(path)
    assert g2.texts == g.texts
    np.testing.assert_array_equal(g2.trel_heads, g.trel_heads)
    np.testing.assert_array_equal(g2.trel_tails, g.trel_tails)
    np.testing.assert_array_equal(g2.trel_text, g.trel_text)


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not-a-graph v9\n")
    with pytest.raises(GraphError):
        RelationGraph.load(p)


def test_load_rejects_missing_section(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("hoptrace-graph v1 label 0 0\n#SECTION entities\n")
    with pytest.raises(GraphError):
        RelationGraph.load(p)


def test_load_tolerates_unknown_section(tmp_path, chain_graph):
    path = tmp_path / "g.txt"
    chain_graph.save(path)
    with open(path, "a", encoding="utf-8") as f:
        f.write("#SECTION futurestuff\nsomething\n")
    g2 = RelationGraph.load(path)
    assert g2.n == chain_graph.n


def test_load_triples_tsv(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("# comment\na\tp\tb\n\nb\tp\tc\n")
    assert load_triples_tsv(p) == [("a", "p", "b"), ("b", "p", "c")]
    p.write_text("a\tp\n")
    with pytest.raises(GraphError):
        load_triples_tsv(p)


def test_load_corpus_jsonl(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"subject": "A", "text": "A likes B."}\n\n{"subject": "B", "text": "x"}\n')
    assert load_corpus_jsonl(p) == [("A", "A likes B."), ("B", "x")]
    p.write_text("{broken\n")
    with pytest.raises(GraphError):
        load_corpus_jsonl(p)
