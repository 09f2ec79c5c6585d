"""Synthetic dataset generator: gold-answer soundness, split hygiene,
determinism, and the question-file round trip."""

import hashlib
import json
import logging

import numpy as np
import pytest

from hoptrace import data as data_mod
from hoptrace.data import (
    AMBIG_WHEN,
    AMBIG_WHERE,
    QUESTION_FORMS_1HOP,
    QUESTION_FORMS_2HOP,
    QUESTION_FORMS_3HOP,
    QAExample,
    ResolvedQA,
    SyntheticSpec,
    generate_synthetic,
    load_questions,
    resolve_examples,
    save_questions,
    write_dataset,
)
from hoptrace.encoder import Vocabulary
from hoptrace.errors import DataError
from hoptrace.graph import (
    add_reverse_relations,
    build_from_triples,
    load_corpus_jsonl,
    load_triples_tsv,
)

from oracles import bfs_answers, eager_units, load_questions_reference, path_answers_reference

SMALL = dict(
    movies=40,
    directors=12,
    writers=12,
    actors=24,
    years=10,
    genres=6,
    languages=4,
    questions_per_hop=300,
    duplicate_movie_pairs=2,
    seed=7,
)


@pytest.fixture(scope="module")
def data():
    return generate_synthetic(SyntheticSpec(**SMALL))


def _all_examples(data):
    return [ex for split in data.splits.values() for ex in split]


def _augmented(triples):
    return list(triples) + [(t, p + "_rev", h) for h, p, t in triples]


# -- gold answers --------------------------------------------------------------


def test_gold_answers_reachable_at_stated_hop(data):
    """Every gold entity must be reachable from the topic in exactly `hop`
    steps of the reverse-augmented triple set (template-independent check)."""
    aug = _augmented(data.triples)
    for ex in _all_examples(data) + data.duplicates:
        reachable = bfs_answers(aug, ex.topic, ex.hop)
        assert ex.answers, ex.question
        assert set(ex.answers) <= reachable, ex.question


def test_gold_answers_exact_for_known_forms(data):
    # independent re-derivation for a forward, a reverse, and a 2-hop form
    fwd = {}
    rev = {}
    for h, p, t in data.triples:
        fwd.setdefault((h, p), set()).add(t)
        rev.setdefault((t, p), set()).add(h)
    checked = 0
    for ex in _all_examples(data):
        if ex.question.startswith("who directed ["):
            assert set(ex.answers) == fwd[(ex.topic, "directed_by")]
        elif ex.question.startswith("what movies did [") and ex.question.endswith("] direct"):
            assert set(ex.answers) == rev[(ex.topic, "directed_by")]
        elif ex.question.startswith("what movies have the same director as ["):
            expect = set()
            for d in fwd[(ex.topic, "directed_by")]:
                expect |= rev[(d, "directed_by")]
            assert set(ex.answers) == expect
        else:
            continue
        checked += 1
    assert checked >= 10


# each phrasing's predicate path, the where/when pairs' included
PHRASING_PATHS = {
    phr: path
    for forms in (QUESTION_FORMS_1HOP, QUESTION_FORMS_2HOP, QUESTION_FORMS_3HOP)
    for path, _kind, phrasings in forms
    for phr in phrasings
} | dict.fromkeys(AMBIG_WHEN, ("release_year",)) | dict.fromkeys(AMBIG_WHERE, ("in_language",))


def test_gold_answers_exact_for_every_form(data):
    """Every question's answers are the entities its phrasing's predicate
    path reaches from its topic, walked over the reverse-augmented triples."""
    examples = _all_examples(data) + data.duplicates
    paths = [PHRASING_PATHS[ex.question.replace(f"[{ex.topic}]", "[{t}]")] for ex in examples]
    assert {len(path) for path in paths} == {1, 2, 3}
    for ex, path in zip(examples, paths):
        assert len(path) == ex.hop, ex.question
        assert ex.answers == tuple(sorted(path_answers_reference(data.triples, ex.topic, path))), ex.question


def test_gold_answers_exact_where_movies_share_a_genre_set():
    """Three movies share the genre set {Drama, Noir}, and a fourth holds one
    genre more: each gets the reference walk's answers on every form's path,
    the three share one tuple per path of two or more hops, and the fourth's
    differ wherever its extra genre reaches further."""
    triples = []
    for m, genres, year, lang, director in (
        ("M0", ("Drama", "Noir"), "1990", "L0", "D0"),
        ("M1", ("Drama", "Noir"), "1991", "L1", "D1"),
        ("M2", ("Noir", "Drama"), "1990", "L0", "D1"),
        ("M3", ("Drama", "Noir", "War"), "1992", "L1", "D0"),
        ("M4", ("War",), "1993", "L2", "D2"),
    ):
        triples += [(m, "has_genre", x) for x in genres]
        triples += [(m, "release_year", year), (m, "in_language", lang), (m, "directed_by", director),
                    (m, "written_by", "W" + director), (m, "starred_actors", "A" + year)]
    gold = data_mod._gold_answers(data_mod._adjacency(triples))
    names = sorted({e for h, _, t in triples for e in (h, t)})
    for forms in (QUESTION_FORMS_1HOP, QUESTION_FORMS_2HOP, QUESTION_FORMS_3HOP):
        for path, _kind, _phrasings in forms:
            for topic in names:
                assert gold(topic, path) == tuple(sorted(path_answers_reference(triples, topic, path))), (topic, path)
    for path in (("has_genre", "has_genre_rev"), ("has_genre", "has_genre_rev", "release_year")):
        assert gold("M0", path) is gold("M1", path) is gold("M2", path)
        assert gold("M3", path) != gold("M0", path)
    assert gold("M0", ("has_genre", "has_genre_rev")) == ("M0", "M1", "M2", "M3")
    assert gold("M3", ("has_genre", "has_genre_rev", "release_year")) == ("1990", "1991", "1992", "1993")


def test_answers_sorted_and_unique(data):
    for ex in _all_examples(data):
        assert list(ex.answers) == sorted(set(ex.answers))


def test_all_examples_resolve_against_graph(data):
    g = add_reverse_relations(build_from_triples(data.triples))
    for name, split in data.splits.items():
        resolved = resolve_examples(split, g)
        assert len(resolved) == len(split), name
        for r in resolved:
            assert g.entities.name(r.topic_id) == r.topic
            assert "[" not in r.clean_text and "]" not in r.clean_text


# -- split hygiene --------------------------------------------------------------


def test_splits_disjoint_and_cover_all_hops(data):
    texts = {k: {ex.question for ex in v} for k, v in data.splits.items()}
    assert not texts["train"] & texts["dev"]
    assert not texts["train"] & texts["test"]
    assert not texts["dev"] & texts["test"]
    for k, split in data.splits.items():
        assert {ex.hop for ex in split} == {1, 2, 3}, k


def test_split_ratios_roughly_honored(data):
    total = sum(len(v) for v in data.splits.values())
    for name, want in zip(("train", "dev", "test"), data.spec.split_ratios):
        got = len(data.splits[name]) / total
        assert abs(got - want) < 0.05, (name, got)


def test_questions_per_hop_cap(data):
    for h in (1, 2, 3):
        n = sum(1 for ex in _all_examples(data) if ex.hop == h)
        assert 0 < n <= data.spec.questions_per_hop


def _twin_key(ex):
    """(topic, phrasing index) for a where/when question, else None."""
    q = ex.question
    if "published" not in q:
        return None
    if q.startswith("when was"):
        return ex.topic, 0
    if q.startswith("in what year"):
        return ex.topic, 1
    if q.startswith("in what language"):
        return ex.topic, 0
    if q.startswith("what language"):
        return ex.topic, 1
    return None


def test_ambiguous_pairs_stay_in_one_split(data):
    """The where/when twins must land in the same split, else the tie-break
    they exercise leaks across train/eval."""
    home = {}
    for name, split in data.splits.items():
        for ex in split:
            key = _twin_key(ex)
            if key is not None:
                home.setdefault(key, set()).add(name)
    assert home, "expected ambiguous questions in the splits"
    for key, homes in home.items():
        assert len(homes) == 1, (key, homes)


def test_ambiguous_eval_subset(data):
    assert data.ambiguous_eval
    eval_qs = {ex.question for k in ("dev", "test") for ex in data.splits[k]}
    for ex in data.ambiguous_eval:
        assert ex.question in eval_qs
        assert "published" in ex.question
    # both members of each twin pair appear
    by_topic = {}
    for ex in data.ambiguous_eval:
        kind = "when" if ex.question.startswith(("when", "in what year")) else "where"
        by_topic.setdefault(ex.topic, set()).add(kind)
    for topic, kinds in by_topic.items():
        assert kinds == {"when", "where"}, topic


def test_ambiguous_corpus_reuses_one_pattern(data):
    articles = dict(data.corpus)
    n_trap = 0
    for ex in data.ambiguous_eval:
        n_trap += 1
        assert articles[ex.topic].count("was published in") >= 2
    assert n_trap > 0


def test_duplicate_movies_share_one_node(data):
    dup_topics = {ex.topic for ex in data.duplicates}
    assert len(dup_topics) == SMALL["duplicate_movie_pairs"]
    fwd = {}
    for h, p, t in data.triples:
        fwd.setdefault((h, p), set()).add(t)
    # two attribute draws under one name: some predicate carries both draws
    for topic in dup_topics:
        widths = [len(fwd.get((topic, p), ())) for p in ("directed_by", "release_year")]
        assert max(widths) >= 2, topic


# -- determinism ----------------------------------------------------------------


def test_generation_deterministic():
    a = generate_synthetic(SyntheticSpec(**SMALL))
    b = generate_synthetic(SyntheticSpec(**SMALL))
    assert a.triples == b.triples
    assert a.corpus == b.corpus
    for k in a.splits:
        assert a.splits[k] == b.splits[k]
    assert a.stats == b.stats


# sha256 of every file write_dataset writes for SMALL, recorded before the
# generator memoized its path walks: the seeded output must not move.  The
# question files were re-pinned when each hop moved onto its question line:
# each new file is the tab-joined paste of the old file and its hop sidecar
SMALL_SHA256 = {
    "ambiguous_eval.txt": "e0cfaa7188511895cd23c69f05b2e65233266d71117d4306b19d1802d37ccb06",
    "corpus.jsonl": "f9913cc0af1b821a1fca922bd2be5c95799ca24d3ce1cda859e1dcf93fcd525d",
    "manifest.json": "0736d3c695f45b84d12ccd1979747ab5525859c033301169884eb5c6c63fd3e0",
    "qa_dev.txt": "d63b24c9ed6466d5d50d8fcee66243e4ecccdeacd589a79641fdc250d36e7a28",
    "qa_dup.txt": "615982d83d22a89362614975e50f5d42e3ff038faf5fa48911bcf74e2b2558dd",
    "qa_test.txt": "4bc8f84fba3bac7397ecbea973a851bc832de9696f21981f6804ce5c4a032a46",
    "qa_train.txt": "428920e523299a433d780405183bdceae57216a225ed23b7e3799b29c3b09dea",
    "triples.tsv": "4c3c9b5029fc74d0406736ebe3b71025d884ef11d7ea5a39e925b9c26fd010e2",
}


# the same for SMALL capped at 60 questions per hop, far below its ~900
# answerable units, so most units are dropped unformatted; recorded before
# the generator formatted only the units it keeps
SMALL_CAP60_SHA256 = {
    "ambiguous_eval.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "corpus.jsonl": "f9913cc0af1b821a1fca922bd2be5c95799ca24d3ce1cda859e1dcf93fcd525d",
    "manifest.json": "3d1636f5591cb1bfd2de5367ea930454fb980933edd792d9f94ee465d085cf1d",
    "qa_dev.txt": "d3be3f180f21c87011910ead13abfff7fc5e0bd5ae5a210f075b7fdd4011b2ee",
    "qa_dup.txt": "615982d83d22a89362614975e50f5d42e3ff038faf5fa48911bcf74e2b2558dd",
    "qa_test.txt": "aadb4fdd9e525dc466700506663d32730da1740f7984fc0b8c27442a59eefeb1",
    "qa_train.txt": "25711f6ad160f6e239c3527fef09f17388a2e0efb173833473a79687108032a9",
    "triples.tsv": "4c3c9b5029fc74d0406736ebe3b71025d884ef11d7ea5a39e925b9c26fd010e2",
}


def test_written_dataset_bytes_are_pinned(tmp_path):
    for spec, want in ((SMALL, SMALL_SHA256), (dict(SMALL, questions_per_hop=60), SMALL_CAP60_SHA256)):
        out = tmp_path / str(spec["questions_per_hop"])
        write_dataset(generate_synthetic(SyntheticSpec(**spec)), out)
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == want, spec


# the same for the default spec (seed 0), the one the benchmark generates at
# scale 1, with graph.bin the reversed label graph built from its triples;
# recorded before gold answers were made lazy, except graph.bin, recorded
# when graphs came to be saved in the binary container, and the question
# files, re-pinned as for SMALL
DEFAULT_SHA256 = {
    "ambiguous_eval.txt": "59c90eea4a9b1196872497573291a018047ed461a3ae6fbbeac9fee8a959525c",
    "corpus.jsonl": "3816e81fba229a00eb0226b9f2d7d2eb8090af642da08fa97f8cafdb8985e3ea",
    "graph.bin": "3e0f9bf14f70ec7d2f1deb440d9c01b2f59acebc78d7950f7c69f9af549291bf",
    "manifest.json": "0446d48d8b23bc1e5f47571cb838e3f9340bba54c89b51b9605543ad52c158a6",
    "qa_dev.txt": "fd652097a731514bfab3da7ebff23fa29b1d3548f7df1329ac499328f9900fdb",
    "qa_dup.txt": "895cbc46eabf8e1693e4877b8be0c046cc0fbaffd36bf52e36553b51b4fdb249",
    "qa_test.txt": "6c218a4071c44492548ff8ff575b80f7b2056ce989da892bd685699cf4ee9cef",
    "qa_train.txt": "118b800616088ef8c7d75b8eb3dc562f33737d673d3e7cb54b5e1fa60d6c8952",
    "triples.tsv": "96826edf6995fcf4a725e1131426d635141732843f3d78270cca5b492456d948",
}


def test_default_dataset_and_graph_bytes_are_pinned(tmp_path):
    write_dataset(generate_synthetic(SyntheticSpec()), tmp_path)
    add_reverse_relations(build_from_triples(load_triples_tsv(tmp_path / "triples.tsv"))).save(tmp_path / "graph.bin")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == DEFAULT_SHA256


# the same for the spec the label-large-serve workload generates (every pool
# the default's x10, seed 1), where the answerable units far outnumber the
# kept ones; recorded before the generator drew one-element picks as one
# bounded integer, drew the corpus templates in one call and built only the
# units it keeps; graph.bin, the reversed label graph built from its triples,
# recorded before the gold answers were keyed by first-hop set and the label
# graph built from whole columns
X10 = dict(movies=2000, directors=600, writers=600, actors=1200, seed=1)
X10_SHA256 = {
    "ambiguous_eval.txt": "50f3f99619a2266e972fb17c0455f9040a0fe78ee26ff04151cfccf220f93ba8",
    "corpus.jsonl": "c16f50acb9fa2b3a7b5092c8c2b9d839da1119b0730990e914733e038e30abb8",
    "graph.bin": "a5bc568480c69eb6d5e00abe77360cfdfbfb461cf8249a5c12e24a6c324388f9",
    "manifest.json": "c5a820eb66427b3bedd16da0f868378e95485170e521b074ff3ab29ce8be640d",
    "qa_dev.txt": "11207b1aed123c3eef1c7028276989864c41429a946ed0de6f6a3db750529a12",
    "qa_dup.txt": "d5feb91429bf41b6ea52288eee4641bb97f98b00ccfb99f71871a7173e74e3f9",
    "qa_test.txt": "e457bec6f854cf2f051f35a81da0627edf60f729b9f641a900e6aeaf2925355a",
    "qa_train.txt": "25ca3865f30944da1850a50c054902fb2ff32b6e835fa235289c8a60ef4b1761",
    "triples.tsv": "51299a0512b8beb3ad6360c163d6974ffd3d802113ed9eb30fcb97a4c132a0a2",
}


def test_x10_dataset_bytes_are_pinned(tmp_path):
    write_dataset(generate_synthetic(SyntheticSpec(**X10)), tmp_path)
    add_reverse_relations(build_from_triples(load_triples_tsv(tmp_path / "triples.tsv"))).save(tmp_path / "graph.bin")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == X10_SHA256


# -- the draw identities the pins rest on ----------------------------------------
# Each draw rule of the generator gives the values, and leaves the Generator
# state, of the rule it replaced; these name the cause if a numpy version
# breaks one, where a digest mismatch cannot.


@pytest.mark.parametrize("n", (1, 2, 3, 60, 1200))
def test_a_one_element_choice_is_one_bounded_integer(n):
    """choice(n, 1, replace=False) runs Floyd's algorithm: one bounded draw
    in [0, n), and a shuffle of one element, which draws nothing."""
    a, b = np.random.default_rng(n), np.random.default_rng(n)
    for k in range(500):
        assert a.choice(n, 1, replace=False).tolist() == [int(b.integers(n))]
        if k % 3 == 0:  # a 64-bit draw between, as the generator's other draws interleave
            assert a.random() == b.random()
        assert a.bit_generator.state == b.bit_generator.state


def test_one_integers_call_over_highs_is_the_scalar_loop():
    highs = np.random.default_rng(0).integers(1, 6, size=20000)
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    want = [int(a.integers(h)) for h in highs]
    assert b.integers(0, highs).tolist() == want
    assert a.bit_generator.state == b.bit_generator.state


# -- lazy units --------------------------------------------------------------------


def _recorded_units(monkeypatch):
    """A list that collects every _Units generate_synthetic makes, each
    counting the units it builds."""
    made = []

    class Recording(data_mod._Units):
        def __init__(self, blocks, hop):
            super().__init__(blocks, hop)
            self.built = 0
            made.append(self)

        def __getitem__(self, i):
            self.built += 1
            return super().__getitem__(i)

    monkeypatch.setattr(data_mod, "_Units", Recording)
    return made


def _listed(units):
    return [units[i] for i in range(len(units))]


def test_units_match_the_eager_listing_on_hand_built_forms():
    """Blocks of several sizes, one with no topic in reach and one whose
    variants hold two questions: unit i is the eager list's unit i."""
    pools = {"movie": ["m0", "m1", "m2", "m3"], "actor": ["a0", "a1", "a2"]}
    reach = {("p",): {"m1", "m3"}, ("q", "r"): {"a0", "a1", "a2"}, ("s",): set(),
             ("release_year",): {"m0", "m1", "m2"}, ("in_language",): {"m0", "m2", "m3"}}.get
    forms = [
        (("p",), "movie", ("who p [{t}]", "what p [{t}]", "which p [{t}]")),
        (("s",), "actor", ("who s [{t}]",)),
        (("q", "r"), "actor", ("who qr [{t}]", "what qr [{t}]")),
        (("release_year",), "movie", ("when [{t}]",)),
    ]
    pairs = (("w0 [{t}]", "l0 [{t}]"), ("w1 [{t}]", "l1 [{t}]"))
    ambiguous = {"m0", "m1", "m2"}  # m1 has no language: no pair
    pair_block = (["m0", "m2"], tuple(((qw, ("release_year",)), (ql, ("in_language",))) for qw, ql in pairs))
    for hop in (1, 2):
        units = data_mod._Units(data_mod._form_blocks(forms, pools, reach) + [pair_block], hop)
        want = eager_units(forms, pools, reach, hop, ambiguous, pairs)
        assert len(units) == len(want) == 6 + 0 + 6 + 3 + 4
        assert _listed(units) == want
    assert len(data_mod._Units([], 1)) == 0


def _pools(spec):
    persons = [f"Person_{i}" for i in range(spec.directors + spec.writers + spec.actors)]
    return {
        "movie": [f"Movie_{i}" for i in range(spec.movies)],
        "director": persons[: spec.directors],
        "writer": persons[spec.directors : spec.directors + spec.writers],
        "actor": persons[spec.directors + spec.writers :],
        "year": [str(spec.year_start + i) for i in range(spec.years)],
        "genre": [f"Genre_{i}" for i in range(spec.genres)],
        "language": [f"Language_{i}" for i in range(spec.languages)],
    }


def test_units_match_the_eager_listing_on_the_default_spec(monkeypatch):
    """Every hop's units, where/when pairs included, as generate_synthetic
    lists them: the total and each unit are the eager list's.  The
    ambiguous movies are the ones whose article uses the shared pattern."""
    made = _recorded_units(monkeypatch)
    spec = SyntheticSpec()
    d = generate_synthetic(spec)
    adj, memo = data_mod._adjacency(d.triples), {}
    ambiguous = {name for name, text in d.corpus if " was published in " in text}
    assert len(ambiguous) == d.stats["ambiguous_movies"] > 0
    assert [u.hop for u in made] == [1, 2, 3]
    for units, forms in zip(made, (QUESTION_FORMS_1HOP, QUESTION_FORMS_2HOP, QUESTION_FORMS_3HOP)):
        pairs = zip(AMBIG_WHEN, AMBIG_WHERE) if units.hop == 1 else ()
        want = eager_units(forms, _pools(spec), lambda path: data_mod._reach_set(adj, memo, path),
                           units.hop, ambiguous, pairs)
        assert len(units) == len(want)
        assert _listed(units) == want
    assert any(len(u) == 2 for u in _listed(made[0]))


def test_units_built_only_for_kept_questions(monkeypatch):
    """Every unit holds a question, so a hop builds at most as many units as
    it keeps questions, however many it lists."""
    made = _recorded_units(monkeypatch)
    d = generate_synthetic(SyntheticSpec(**dict(SMALL, questions_per_hop=60)))
    for units in made:
        kept = d.stats["questions_per_hop"][str(units.hop)]
        assert 0 < units.built <= kept < len(units)


# -- lazy gold answers -------------------------------------------------------------


def test_gold_answers_computed_only_for_kept_questions(monkeypatch):
    """_path_answers runs at the top level once per kept question at most,
    plus the duplicate-title questions; recursive calls are not counted."""
    real = data_mod._path_answers
    calls = depth = 0

    def counting(*args):
        nonlocal calls, depth
        calls += depth == 0
        depth += 1
        try:
            return real(*args)
        finally:
            depth -= 1

    monkeypatch.setattr(data_mod, "_path_answers", counting)
    # a cap far below the ~900 answerable units, so eager gold sets would show
    d = generate_synthetic(SyntheticSpec(**dict(SMALL, questions_per_hop=60)))
    kept = sum(len(v) for v in d.splits.values())
    assert 0 < calls <= kept + len(d.duplicates)


def test_reach_set_agrees_with_bfs_on_every_form_and_topic():
    """Membership in _reach_set is bool(gold set) for every form and every
    name, on a world where many gold sets are empty: more years and
    directors than movies.
    The oracle walks a copy of the triples layered by step, so an exact
    hop-count BFS follows the form's predicates in order."""
    spec = SyntheticSpec(movies=20, directors=30, writers=6, actors=12, years=30, genres=3, languages=2, seed=3)
    generated = generate_synthetic(spec).triples
    adj = data_mod._adjacency(generated)
    triples = _augmented(generated)
    names = sorted(
        {e for h, _p, t in triples for e in (h, t)}
        | {f"Person_{i}" for i in range(spec.directors + spec.writers + spec.actors)}
        | {str(spec.year_start + i) for i in range(spec.years)}
    )
    for forms in (QUESTION_FORMS_1HOP, QUESTION_FORMS_2HOP, QUESTION_FORMS_3HOP):
        seen = set()
        memo = {}
        for path, _kind, _phrasings in forms:
            layered = [((h, i), p, (t, i + 1)) for i, step in enumerate(path) for h, p, t in triples if p == step]
            for topic in names:
                want = bool(bfs_answers(layered, (topic, 0), len(path)))
                assert (topic in data_mod._reach_set(adj, memo, path)) == want, (path, topic)
                seen.add(want)
        assert seen == {False, True}


def test_questions_are_distinct_without_a_dedupe():
    """The generator keeps no set of questions seen.  A question is told
    apart by its phrasing and its topic: the phrasings are pairwise
    distinct, each brackets the topic once, the where/when phrasings are
    none of the 1-hop ones, the topic pools are pairwise disjoint and no
    name holds a bracket.  So the default spec's questions never repeat."""
    kind_of = dict.fromkeys(AMBIG_WHEN + AMBIG_WHERE, "movie")
    for forms in (QUESTION_FORMS_1HOP, QUESTION_FORMS_2HOP, QUESTION_FORMS_3HOP):
        phrasings = [phr for _path, _kind, phrs in forms for phr in phrs]
        if forms is QUESTION_FORMS_1HOP:
            phrasings += AMBIG_WHEN + AMBIG_WHERE
        assert len(set(phrasings)) == len(phrasings)
        for phr in phrasings:
            assert phr.count("[{t}]") == phr.count("[") == phr.count("]") == phr.count("{") == 1, phr
        kind_of.update((phr, kind) for _path, kind, phrs in forms for phr in phrs)

    d = generate_synthetic(SyntheticSpec())
    examples = _all_examples(d)
    questions = [ex.question for ex in examples]
    assert len(set(questions)) == len(questions)
    assert not any("[" in e or "]" in e for h, _p, t in d.triples for e in (h, t))
    pools = {}
    for ex in examples:
        pools.setdefault(kind_of[ex.question.replace(f"[{ex.topic}]", "[{t}]")], set()).add(ex.topic)
    assert len(pools) == 7
    assert sum(map(len, pools.values())) == len(set().union(*pools.values()))


def test_seed_changes_output():
    spec = dict(SMALL)
    spec["seed"] = 8
    b = generate_synthetic(SyntheticSpec(**spec))
    a = generate_synthetic(SyntheticSpec(**SMALL))
    assert a.triples != b.triples


# -- spec validation -------------------------------------------------------------


def test_spec_rejects_tiny_world():
    with pytest.raises(DataError):
        SyntheticSpec(movies=5).validate()


def test_spec_rejects_bad_ratios():
    with pytest.raises(DataError):
        SyntheticSpec(split_ratios=(0.9, 0.2, 0.1)).validate()
    with pytest.raises(DataError):
        SyntheticSpec(split_ratios=(0.5, 0.5)).validate()
    # each passed the sum check alone, and gen wrote empty or lopsided splits
    for ratios in ([float("nan")] * 3, [1.5, -0.25, -0.25], [True, False, False]):
        with pytest.raises(DataError, match=r"split_ratios must be 3 numbers in \[0, 1\] summing to 1"):
            SyntheticSpec(split_ratios=ratios).validate()
    assert SyntheticSpec(split_ratios=[1, 0, 0]).validate().split_ratios == (1, 0, 0)


def test_spec_rejects_bad_ambiguous_fraction():
    with pytest.raises(DataError):
        SyntheticSpec(ambiguous_fraction=1.5).validate()


# (setting, a value the spec refuses): each integer setting at one below its
# least value, a fraction and a bool
BAD_SPEC_INTS = {
    "movies-19": ("movies", 19),
    "movies-fraction": ("movies", 25.5),
    "directors-zero": ("directors", 0),
    "writers-one": ("writers", 1),
    "actors-three": ("actors", 3),
    "years-zero": ("years", 0),
    "year_start-fraction": ("year_start", 1950.5),
    "genres-one": ("genres", 1),
    "languages-zero": ("languages", 0),
    "questions_per_hop-zero": ("questions_per_hop", 0),
    "questions_per_hop-negative": ("questions_per_hop", -5),
    "duplicate_movie_pairs-negative": ("duplicate_movie_pairs", -1),
    "seed-negative": ("seed", -1),
    "seed-bool": ("seed", True),
}


@pytest.mark.parametrize("case", BAD_SPEC_INTS)
def test_spec_refuses_an_integer_setting_out_of_range(case):
    name, value = BAD_SPEC_INTS[case]
    with pytest.raises(DataError, match=rf"\b{name} must be "):
        generate_synthetic(SyntheticSpec(**{name: value}))


def test_spec_at_its_least_values_generates_every_hop():
    """Each pool at the most that one movie draws from it, one question per
    hop: generation runs and keeps a question of each hop."""
    least = dict(movies=20, directors=1, writers=2, actors=4, years=1, genres=2, languages=1,
                 questions_per_hop=1, duplicate_movie_pairs=0, seed=0, year_start=-3)
    d = generate_synthetic(SyntheticSpec(**least))
    assert all(d.stats["questions_per_hop"][h] >= 1 for h in ("1", "2", "3"))


def test_spec_from_file(tmp_path):
    p = tmp_path / "spec.yaml"
    p.write_text("movies: 25\nquestions_per_hop: 50\nsplit_ratios: [0.8, 0.1, 0.1]\n")
    spec = SyntheticSpec.from_file(p)
    assert spec.movies == 25
    assert spec.split_ratios == (0.8, 0.1, 0.1)


def test_spec_from_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "spec.yaml"
    p.write_text("movies: 25\nfilms: 3\n")
    with pytest.raises(DataError, match="films"):
        SyntheticSpec.from_file(p)


# -- files -----------------------------------------------------------------------


def test_write_dataset_roundtrip(tmp_path, data):
    out = write_dataset(data, tmp_path / "d")
    assert load_triples_tsv(out / "triples.tsv") == data.triples
    corpus = load_corpus_jsonl(out / "corpus.jsonl")
    assert corpus == data.corpus
    for name, split in data.splits.items():
        back = load_questions(out / f"qa_{name}.txt")
        assert back == split  # each hop read from its own line
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["movies"] == SMALL["movies"]
    assert manifest["stats"] == data.stats


def test_write_dataset_refuses_nonempty_dir(tmp_path, data):
    target = tmp_path / "d"
    target.mkdir()
    (target / "junk.txt").write_text("x")
    with pytest.raises(DataError):
        write_dataset(data, target)
    write_dataset(data, target, force=True)  # explicit override


def test_load_questions_skips_malformed(tmp_path, caplog):
    p = tmp_path / "qa.txt"
    p.write_text(
        "who directed [M1]\tP1|P2\n"
        "no tab here\n"
        "no topic bracket\tP1\n"
        "missing answers [M1]\t\n"
        "\n"
        "who wrote [M2]\tP3\n"
    )
    got = load_questions(p)
    assert [ex.topic for ex in got] == ["M1", "M2"]
    assert got[0].answers == ("P1", "P2")


@pytest.mark.parametrize("field", ["|", "||"])
def test_load_questions_skips_an_answer_field_of_separators_only(tmp_path, caplog, field):
    """An answer field of separators alone names no answer: the line is
    skipped with the empty field's warning, and the good line beside it
    loads."""
    p = tmp_path / "qa.txt"
    p.write_text(f"who directed [M1]\t{field}\nwho wrote [M2]\tP3\n")
    with caplog.at_level(logging.WARNING, logger="hoptrace"):
        got = load_questions(p)
    assert [(ex.topic, ex.answers) for ex in got] == [("M2", ("P3",))]
    assert [r.getMessage() for r in caplog.records] == [f"{p}:1: malformed question line skipped"]


def test_load_questions_answer_field_is_a_sorted_set(tmp_path):
    p = tmp_path / "qa.txt"
    p.write_text("who directed [M1]\tb|a||a\n")
    assert load_questions(p)[0].answers == ("a", "b")


def test_load_questions_answer_names_share_one_str(tmp_path):
    """Two answer fields naming the same entity hold one str object for it,
    and so do two files: the loaded questions keep one copy of each name."""
    p, q = tmp_path / "qa.txt", tmp_path / "qa2.txt"
    p.write_text("who directed [Movie_1]\tDirector_7|Writer_3\nwho wrote [Movie_2]\tActor_1|Director_7\n")
    q.write_text("who directed [Movie_3]\tDirector_7\n")
    first, second = load_questions(p)
    (third,) = load_questions(q)
    assert first.answers == ("Director_7", "Writer_3") and second.answers == ("Actor_1", "Director_7")
    assert first.answers[0] is second.answers[1] is third.answers[0]


def test_resolve_examples_drops_an_unknown_answer(caplog):
    g = build_from_triples([("M1", "directed_by", "P1"), ("M2", "directed_by", "P2")])
    examples = [
        QAExample("who directed [M1]", "M1", ("P1",), 1),
        QAExample("who directed [M2]", "M2", ("P2", "P9"), 1),
        QAExample("who directed [M9]", "M9", ("P1",), 1),
    ]
    with caplog.at_level(logging.WARNING, logger="hoptrace"):
        got = resolve_examples(examples, g)
    assert [(r.question, r.topic_id, r.answer_ids) for r in got] == [("who directed [M1]", 0, (1,))]
    assert "dropping unresolvable example: 'who directed [M2]'" in caplog.text
    assert "dropped 2 unresolvable examples" in caplog.text


def test_load_questions_refuses_an_old_hop_sidecar(tmp_path):
    """A dataset of the old layout kept its hop labels in <stem>_hops.txt:
    loading its question file alone would train with no hop loss, so the
    loader refuses it and asks for the dataset again."""
    p = tmp_path / "qa.txt"
    p.write_text("who directed [M1]\tP1\nwho directed [M2]\tP2\n")
    (tmp_path / "qa_hops.txt").write_text("1\n1\n")
    with pytest.raises(DataError) as err:
        load_questions(p)
    assert str(err.value) == (
        f"{tmp_path / 'qa_hops.txt'}: hop labels are now the third field of each question line:"
        " generate the dataset again with `hoptrace gen`"
    )


def test_a_skipped_question_line_drops_its_hop_label(tmp_path, caplog, data):
    """Three dev questions of hops 1, 2 and 3, written with their hops, and
    the second's answer field then set to `|`: the skipped line takes its
    hop with it, and lines 1 and 3 load with their own hops, as the
    reference loader reads them."""
    picked = [next(ex for ex in data.splits["dev"] if ex.hop == h) for h in (1, 2, 3)]
    p = tmp_path / "qa_dev.txt"
    save_questions(picked, p)
    lines = p.read_text(encoding="utf-8").split("\n")
    lines[1] = lines[1].split("\t")[0] + "\t|\t2"
    p.write_text("\n".join(lines), encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="hoptrace"):
        got = load_questions(p)
    assert [r.getMessage() for r in caplog.records] == [f"{p}:2: malformed question line skipped"]
    assert [(ex.question, ex.hop) for ex in got] == [(picked[0].question, 1), (picked[2].question, 3)]
    assert list(map(repr, got)) == list(map(repr, load_questions_reference(p)))


def _refused_hop_field(tmp_path, field):
    p = tmp_path / "qa.txt"
    p.write_text(f"who directed [M1]\tP1\t1\nwho directed [M2]\tP2\t{field}\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_questions(p)
    assert str(err.value) == f"{p}:2: hop field {field!r} is not a count of at least 1"
    with pytest.raises(DataError, match=f"{p}:2: "):
        load_questions_reference(p)


@pytest.mark.parametrize("label", ["0", "-2"])
def test_a_hop_label_below_1_is_refused_with_its_line(tmp_path, label):
    """No step count is below 1: the loader refuses such a hop field and
    names its line, before any run could trip over it."""
    _refused_hop_field(tmp_path, label)


@pytest.mark.parametrize("field", ["x", "2.0", " 2", "1_0", "\uff13", "", "00"],
                         ids=["letter", "decimal", "leading-space", "underscore", "full-width-3", "empty", "zeros"])
def test_a_hop_field_that_is_not_a_count_is_refused_with_its_line(tmp_path, field):
    """A hop field is ASCII digits alone: Python's int() would take a space,
    an underscore or a full-width digit, and the loader takes none of them."""
    _refused_hop_field(tmp_path, field)


def test_a_file_mixing_lines_with_and_without_a_hop_loads(tmp_path):
    """A 2-field line is MetaQA's format and has no hop; it may sit beside
    3-field lines, and each keeps its own."""
    p = tmp_path / "qa.txt"
    p.write_text("who directed [M1]\tP1\t1\nwho wrote [M1]\tP2\nwho starred in [M2]\tP3|P4\t03\n")
    got = load_questions(p)
    assert [(ex.topic, ex.answers, ex.hop) for ex in got] == [
        ("M1", ("P1",), 1), ("M1", ("P2",), None), ("M2", ("P3", "P4"), 3),
    ]
    assert list(map(repr, got)) == list(map(repr, load_questions_reference(p)))


def test_loader_matches_reference_on_every_default_question_file(tmp_path):
    write_dataset(generate_synthetic(SyntheticSpec()), tmp_path)
    names = sorted(p.name for p in tmp_path.glob("*.txt"))
    assert names == ["ambiguous_eval.txt", "qa_dev.txt", "qa_dup.txt", "qa_test.txt", "qa_train.txt"]
    for name in names:
        got = load_questions(tmp_path / name)
        want = load_questions_reference(tmp_path / name)
        assert got and list(map(repr, got)) == list(map(repr, want)), name
        assert {ex.hop for ex in got} <= {1, 2, 3}, name


# answer fields out of order, with repeats and empty names, an answer the
# graph below does not know, a CRLF line and malformed lines
CRAFTED = (
    b"who directed [M1]\tP2|P1\n"
    b"who wrote [M1]\tP3|P1|P3|P2|P1\n"
    b"what genre is [M2]\tb|a||a\n"
    b"what year is [M2]\t|\n"
    b"what year is [M3]\t||P1|\n"
    b"who starred in [M3]\tP9|P1\n"
    b"who acted in [M4]\tP2|P1\r\n"
    b"no tab here\n"
    b"no topic bracket\tP1\n"
    b"an empty bracket []\tP1\n"
    b"missing answers [M1]\t\n"
    b"three\t[M1]\tfields\n"
    b"\n"
    b"who directed [M2]\tP1|P2|P3"
)


# (loader, the lines of a file it reads), for every line-based input loader
LINE_FILES = {
    "questions": (load_questions, ["who directed [M1]\tP1|P2", "", "who wrote [M2]\tP3\t2"]),
    "triples": (load_triples_tsv, ["# head\tpredicate\ttail", "M1\tdirected_by\tP1", "M2|written_by|P3"]),
    "corpus": (load_corpus_jsonl, ['{"subject": "M1", "text": "M1 stars P1 ."}', "", '{"subject": "M2", "text": "x"}']),
    "vocabulary": (lambda path: Vocabulary.load(path).names, ["<pad>", "who", "", "[", "directed"]),
}


@pytest.mark.parametrize("kind", LINE_FILES)
@pytest.mark.parametrize("last", ["\n", ""], ids=["last-line-ended", "last-line-open"])
def test_line_loaders_read_crlf_and_cr_files_as_lf_files(tmp_path, kind, last):
    """A file whose lines end in \\r\\n or \\r loads as the same lines ending
    in \\n, whether or not its last line is ended."""
    load, lines = LINE_FILES[kind]
    got = {}
    for name, brk in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        (tmp_path / name).write_bytes((brk.join(lines) + last.replace("\n", brk)).encode("utf-8"))
        got[name] = load(tmp_path / name)
    assert got["lf"]
    assert got["crlf"] == got["cr"] == got["lf"]


def test_loader_matches_reference_on_crafted_lines(tmp_path, caplog):
    p = tmp_path / "qa.txt"
    p.write_bytes(CRAFTED)
    with caplog.at_level(logging.WARNING, logger="hoptrace"):
        got = load_questions(p)
        warned = [r.getMessage() for r in caplog.records]
        caplog.clear()
        want = load_questions_reference(p)
        assert warned == [r.getMessage() for r in caplog.records]
    assert list(map(repr, got)) == list(map(repr, want))
    assert [ex.answers for ex in got] == [
        ("P1", "P2"), ("P1", "P2", "P3"), ("a", "b"), ("P1",), ("P1", "P9"), ("P1", "P2"), ("P1", "P2", "P3"),
    ]
    assert [int(w.rsplit(":", 1)[0].rsplit(":", 1)[1]) for w in warned] == [4, 8, 9, 10, 11, 12]
    g = build_from_triples([(m, "p", a) for m in ("M1", "M2", "M3", "M4") for a in ("P1", "P2", "P3")] + [("M2", "p", "a"), ("M2", "p", "b")])
    resolved = resolve_examples(got, g)
    assert [r.question for r in resolved] == [ex.question for ex in got if "P9" not in ex.answers]


def test_question_records_are_immutable_values():
    ex = QAExample("who directed [M1]", "M1", ("P1", "P2"), 1)
    same = QAExample(question="who directed [M1]", topic="M1", answers=("P1", "P2"), hop=1)
    assert ex == same and hash(ex) == hash(same) and len({ex, same}) == 1
    assert ex != QAExample("who directed [M1]", "M1", ("P1", "P2"), 2)
    assert QAExample("who directed [M1]", "M1", ("P1",)).hop is None
    assert ex.clean_text == "who directed M1"
    assert repr(ex) == "QAExample(question='who directed [M1]', topic='M1', answers=('P1', 'P2'), hop=1)"
    r = ResolvedQA("who directed [M1]", "who directed M1", "M1", ("P1", "P2"), None, 0, (1, 2))
    same = ResolvedQA(
        question="who directed [M1]", clean_text="who directed M1", topic="M1", answers=("P1", "P2"), hop=None,
        topic_id=0, answer_ids=(1, 2),
    )
    assert r == same and hash(r) == hash(same)
    assert repr(r) == (
        "ResolvedQA(question='who directed [M1]', clean_text='who directed M1', topic='M1', "
        "answers=('P1', 'P2'), hop=None, topic_id=0, answer_ids=(1, 2))"
    )
    for record, name in ((ex, "hop"), (r, "topic_id")):
        with pytest.raises(AttributeError):
            setattr(record, name, 5)


def test_save_questions_roundtrip(tmp_path):
    examples = [
        QAExample("who directed [M1]", "M1", ("P1", "P2"), 1),
        QAExample("what movies did [P1] direct", "P1", ("M1",), None),
    ]
    (tmp_path / "q_hops.txt").write_text("1\n1\n")  # a sidecar of the old layout
    save_questions(examples, tmp_path / "q.txt")
    # each hop rides on its own line, and a line without one has two fields
    assert (tmp_path / "q.txt").read_text(encoding="utf-8") == (
        "who directed [M1]\tP1|P2\t1\nwhat movies did [P1] direct\tM1\n"
    )
    assert not (tmp_path / "q_hops.txt").exists()  # the stale sidecar went, so the file loads
    assert load_questions(tmp_path / "q.txt") == examples


def test_clean_text_strips_brackets():
    ex = QAExample("who directed [The Movie]", "The Movie", ("P1",), 1)
    assert ex.clean_text == "who directed The Movie"


def test_stats_match_splits(data):
    assert data.stats["questions"] == {k: len(v) for k, v in data.splits.items()}
    per_hop = {
        str(h): sum(1 for ex in _all_examples(data) if ex.hop == h) for h in (1, 2, 3)
    }
    assert data.stats["questions_per_hop"] == per_hop
