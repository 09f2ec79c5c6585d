"""Question ingestion and the synthetic movie-domain dataset generator.

Gold answers never come from templates: every generated question's answer
set is computed by breadth-first traversal of the generated triples (with
reverse predicates applied on the fly), so the generator cannot silently
disagree with the graph the model reasons over.  Whether a (template,
topic) unit has an answer at all is read off one reach set per predicate
path suffix.  The units are listed by arithmetic (topics in reach times
phrasings, form by form) and built only when a split keeps them, and only
the kept units are formatted into questions and get their answers
computed.  Those answers are sorted once per key: a path of two or more
hops reaches the union of the rest of the path's answers over the topic's
first-hop entities, so that set and the rest key it exactly, and topics
whose first hops meet one set (the movies of one genre pair) share one
tuple.  No question needs a dedupe: within a hop the phrasings are
pairwise distinct and each brackets the topic once, and no generated name
holds a bracket, so distinct (phrasing, topic) pairs give distinct
questions.

The generated bytes follow numpy's ``Generator`` stream, which numpy does
not promise to keep across versions.  A one-element pick is one bounded
integer, ``integers(n)``: ``choice(n, 1, replace=False)`` runs Floyd's
algorithm, whose one draw is that integer, and whose shuffle of one element
draws nothing.  The corpus draws every sentence's template in one
``integers(0, highs)`` call, which gives the values, and leaves the state,
of one ``integers(h)`` per sentence.

A question file holds one ``question<TAB>a1|a2|...[<TAB>hop]`` line per
question: the question brackets its topic, and the gold hop count is an
optional third field, which the generator always writes (MetaQA omits it).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import logging
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import check_floats, check_ints, is_real, load_settings
from .encoder import TOPIC_RE
from .errors import DataError, read_text

log = logging.getLogger("hoptrace")

PREDICATES = (
    "directed_by",
    "written_by",
    "starred_actors",
    "release_year",
    "in_language",
    "has_genre",
)

SENT_TEMPLATES = {
    "directed_by": ("{m} was directed by {o} .", "The film {m} is a work of director {o} ."),
    "written_by": ("{m} was written by {o} .", "The screenplay of {m} comes from {o} ."),
    "starred_actors": ("{m} stars {o} .", "{o} appears in {m} ."),
    "release_year": ("{m} was released in the year {o} .", "{m} premiered in {o} ."),
    "in_language": ("{m} is in the {o} language .", "{m} was filmed in {o} ."),
    "has_genre": ("{m} is a {o} film .", "The genre of {m} is {o} ."),
}
# the deliberate where/when trap: ambiguous movies render BOTH their year and
# their language with this one pattern, so the two text edges are identical
AMBIG_TEMPLATE = "{m} was published in {o} ."

AMBIG_WHEN = ("when was [{t}] published", "in what year was [{t}] published")
AMBIG_WHERE = ("in what language was [{t}] published", "what language was [{t}] published in")

# (path, topic kind, phrasings); topic kind picks the candidate pool
QUESTION_FORMS_1HOP = [
    (("directed_by",), "movie", ("who directed [{t}]", "who is the director of [{t}]")),
    (("written_by",), "movie", ("who wrote [{t}]", "who is the writer of [{t}]")),
    (("starred_actors",), "movie", ("who acted in [{t}]", "who starred in [{t}]")),
    (("release_year",), "movie", ("when was [{t}] released", "what year did [{t}] come out")),
    (("in_language",), "movie", ("what language is [{t}] in", "what is the language of [{t}]")),
    (("has_genre",), "movie", ("what genre is [{t}]", "what kind of film is [{t}]")),
    (("directed_by_rev",), "director", ("what movies did [{t}] direct", "what films were directed by [{t}]")),
    (("written_by_rev",), "writer", ("what movies did [{t}] write", "what films were written by [{t}]")),
    (("starred_actors_rev",), "actor", ("what movies did [{t}] star in", "what films feature [{t}]")),
    (("release_year_rev",), "year", ("what movies came out in [{t}]", "what films were released in [{t}]")),
    (("in_language_rev",), "language", ("what movies are in [{t}]", "what films use the [{t}] language")),
    (("has_genre_rev",), "genre", ("what movies are [{t}] films", "what films have the genre [{t}]")),
]

QUESTION_FORMS_2HOP = [
    (("directed_by", "directed_by_rev"), "movie",
     ("what movies have the same director as [{t}]",
      "which films were made by the director of [{t}]",
      "what does the director of [{t}] direct")),
    (("written_by", "written_by_rev"), "movie",
     ("what movies have the same writer as [{t}]", "which films come from the writer of [{t}]")),
    (("starred_actors", "starred_actors_rev"), "movie",
     ("what movies share an actor with [{t}]", "which films feature an actor from [{t}]")),
    (("has_genre", "has_genre_rev"), "movie",
     ("what movies have the same genre as [{t}]", "which films share a genre with [{t}]")),
    (("release_year", "release_year_rev"), "movie",
     ("what movies came out the same year as [{t}]", "which films were released the year [{t}] was")),
    (("in_language", "in_language_rev"), "movie",
     ("what movies share a language with [{t}]", "which films are in the language of [{t}]")),
    (("directed_by_rev", "starred_actors"), "director",
     ("who starred in the movies directed by [{t}]", "which actors appear in films by [{t}]")),
    (("directed_by_rev", "release_year"), "director",
     ("when were the movies directed by [{t}] released", "in what years did films by [{t}] come out")),
    (("written_by_rev", "directed_by"), "writer",
     ("who directed the movies written by [{t}]", "which directors made films written by [{t}]")),
    (("starred_actors_rev", "has_genre"), "actor",
     ("what are the genres of movies starring [{t}]", "what genre are films featuring [{t}]")),
    (("release_year_rev", "directed_by"), "year",
     ("who directed movies released in [{t}]", "which directors made films in [{t}]")),
]

QUESTION_FORMS_3HOP = [
    (("directed_by", "directed_by_rev", "starred_actors"), "movie",
     ("who acted in movies by the director of [{t}]",
      "which actors are in films sharing a director with [{t}]")),
    (("written_by", "written_by_rev", "starred_actors"), "movie",
     ("who starred in movies by the writer of [{t}]",
      "which actors appear in films sharing a writer with [{t}]")),
    (("starred_actors", "starred_actors_rev", "directed_by"), "movie",
     ("who directed movies sharing an actor with [{t}]",
      "which directors made films featuring an actor from [{t}]")),
    (("has_genre", "has_genre_rev", "release_year"), "movie",
     ("when were movies with the same genre as [{t}] released",
      "in what years did films sharing a genre with [{t}] come out")),
    (("directed_by", "directed_by_rev", "in_language"), "movie",
     ("what languages are films by the director of [{t}] in",
      "what is the language of movies sharing a director with [{t}]")),
    (("release_year", "release_year_rev", "has_genre"), "movie",
     ("what are the genres of movies from the same year as [{t}]",
      "what genre are films released the year [{t}] was")),
    (("in_language", "in_language_rev", "directed_by"), "movie",
     ("who directed movies in the same language as [{t}]",
      "which directors made films sharing a language with [{t}]")),
    (("starred_actors_rev", "directed_by", "directed_by_rev"), "actor",
     ("what movies share a director with films starring [{t}]",
      "which films have the same director as movies featuring [{t}]")),
]


class QAExample(NamedTuple):
    question: str  # topic mention bracketed, e.g. "who directed [Movie_3]"
    topic: str
    answers: tuple  # sorted entity names
    hop: int | None = None

    @property
    def clean_text(self) -> str:
        return self.question.replace("[", "").replace("]", "")


class ResolvedQA(NamedTuple):
    question: str
    clean_text: str
    topic: str
    answers: tuple
    hop: int | None
    topic_id: int
    answer_ids: tuple


def _answer_names(text: str) -> tuple:
    """The names of an answer field, sorted and unique, without the empty
    name.  save_questions writes them sorted and unique, and sorting sorted
    names is linear; only a field whose neighbours repeat takes a set.
    Each name is interned, so every field that names an entity holds the
    same str object, and its hash is computed once."""
    names = sorted(text.split("|"))
    if any(map(str.__eq__, names, names[1:])):
        names = sorted(set(names))
    if not names[0]:
        del names[0]
    return tuple(map(sys.intern, names))


def _hop_count(field: str) -> int:
    """A hop field's count, or 0 if it is not ASCII digits of a value >= 1."""
    return int(field) if field.isascii() and field.isdigit() else 0


def _hop_path(path) -> Path:
    """``<stem>_hops.txt`` beside a question file: the old layout's hops."""
    path = Path(path)
    return path.with_name(path.stem + "_hops.txt")


def load_questions(path) -> list[QAExample]:
    """Parse ``question<TAB>answer1|answer2|...[<TAB>hop]`` lines.  The topic
    is the question's bracketed span, and a line without a hop has hop None.
    A line of another field count, or naming no topic or answer, is skipped
    with a warning; a hop that is not ASCII digits of a value >= 1 is a
    DataError naming its line, and so is an old hop sidecar beside the file.
    Every answer field that names an entity holds one shared str for it
    (see _answer_names), not a copy per field."""
    if _hop_path(path).exists():  # read alone, its questions would train with no hop loss
        raise DataError(f"{_hop_path(path)}: hop labels are now the third field of each question line:"
                        " generate the dataset again with `hoptrace gen`")
    answer_names = functools.cache(_answer_names)  # the phrasings of a question share its field
    hop_count = functools.cache(_hop_count)  # and so do its hops
    out = []
    for i, line in enumerate(read_text(path, DataError).split("\n"), 1):
        if not line:
            continue
        parts = line.split("\t")
        m = TOPIC_RE.search(parts[0]) if len(parts) in (2, 3) else None
        answers = answer_names(parts[1]) if m else ()
        if not answers:  # an answer field that is empty or only separators names nothing
            log.warning("%s:%d: malformed question line skipped", path, i)
            continue
        hop = hop_count(parts[2]) if len(parts) == 3 else None
        if hop == 0:
            raise DataError(f"{path}:{i}: hop field {parts[2]!r} is not a count of at least 1")
        out.append(QAExample(parts[0], m.group(1), answers, hop))
    return out


def save_questions(examples, path):
    """Write the file load_questions reads, a hop field on each line whose
    example has one, and remove an old hop sidecar beside it."""
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            hop = "" if ex.hop is None else f"\t{ex.hop}"
            f.write(f"{ex.question}\t{'|'.join(ex.answers)}{hop}\n")
    _hop_path(path).unlink(missing_ok=True)


def resolve_examples(examples, g) -> list[ResolvedQA]:
    """Resolve names against the graph vocabulary; unresolvable examples are
    logged and dropped rather than failing the run."""
    @functools.cache  # many questions share one answer set
    def answer_ids(names):
        ids = g.entities.ids(names)
        return None if None in ids else ids

    out = []
    skipped = 0
    for ex in examples:
        topic_id = g.entities.get(ex.topic)
        ids = answer_ids(ex.answers)
        if topic_id is None or ids is None:
            skipped += 1
            log.warning("dropping unresolvable example: %r", ex.question)
            continue
        out.append(ResolvedQA(ex.question, ex.clean_text, ex.topic, ex.answers, ex.hop, topic_id, ids))
    if skipped:
        log.warning("dropped %d unresolvable examples", skipped)
    return out


# ---------------------------------------------------------------------------
# synthetic generation


# (field, least value or None, may be null) of every integer setting; a
# pool's least value is the most that generate_synthetic draws for one movie
_SPEC_INT_FIELDS = (
    ("movies", 20, False), ("directors", 1, False), ("writers", 2, False), ("actors", 4, False),
    ("years", 1, False), ("year_start", None, False), ("genres", 2, False), ("languages", 1, False),
    ("questions_per_hop", 1, False), ("duplicate_movie_pairs", 0, False), ("seed", 0, False),
)


@dataclass
class SyntheticSpec:
    movies: int = 200
    directors: int = 60
    writers: int = 60
    actors: int = 120
    years: int = 40
    year_start: int = 1950
    genres: int = 12
    languages: int = 8
    questions_per_hop: int = 3200
    ambiguous_fraction: float = 0.15
    duplicate_movie_pairs: int = 3
    split_ratios: tuple = (0.70, 0.15, 0.15)
    seed: int = 0

    def __post_init__(self):
        self.split_ratios = tuple(self.split_ratios)  # YAML gives a list

    def validate(self):
        check_ints(self, _SPEC_INT_FIELDS, DataError, "spec")
        check_floats(self, ("ambiguous_fraction",), DataError, "spec")
        r = self.split_ratios
        if len(r) != 3 or not all(is_real(x) and 0.0 <= x <= 1.0 for x in r) or abs(sum(r) - 1.0) > 1e-9:
            raise DataError(f"split_ratios must be 3 numbers in [0, 1] summing to 1, got {list(r)}")
        if not 0.0 <= self.ambiguous_fraction <= 1.0:
            raise DataError("ambiguous_fraction must be in [0, 1]")
        return self

    @classmethod
    def from_file(cls, path):
        return load_settings(cls, path, DataError, "spec")


@dataclass
class SyntheticDataset:
    triples: list
    corpus: list  # (subject, article text)
    splits: dict  # name -> list[QAExample]
    ambiguous_eval: list  # where/when pairs from dev+test
    duplicates: list  # questions over duplicate-title movies
    spec: SyntheticSpec
    stats: dict = field(default_factory=dict)


def _adjacency(triples) -> dict[str, dict[str, set]]:
    """predicate -> entity -> the entities it leads to, with each triple's
    reverse under predicate + "_rev", mirroring graph augmentation."""
    adj: dict[str, dict[str, set]] = {}
    for h, p, t in triples:
        adj.setdefault(p, {}).setdefault(h, set()).add(t)
        adj.setdefault(p + "_rev", {}).setdefault(t, set()).add(h)
    return adj


def _path_answers(adj: dict, memo: dict, topic: str, path: tuple):
    """Entities reached from topic along the (non-empty) predicate path, as
    a set nobody may mutate: one hop returns adj's own set.  memo maps
    (entity, remaining path) to the answers of a suffix of two or more hops:
    many topics share a middle entity, so each such suffix is walked once
    per entity.  Whole paths are not kept here: _gold_answers keeps one
    sorted tuple per (first-hop set, rest of the path)."""
    nxt = adj.get(path[0], {}).get(topic, frozenset())
    rest = path[1:]
    if not rest:
        return nxt
    if len(rest) == 1:
        step = adj.get(rest[0], {})
        return frozenset().union(*(step.get(e, ()) for e in nxt))
    parts = []
    for e in nxt:
        if (e, rest) not in memo:
            memo[e, rest] = _path_answers(adj, memo, e, rest)
        parts.append(memo[e, rest])
    return frozenset().union(*parts)


def _gold_answers(adj: dict):
    """gold(topic, path): the sorted answers of topic along the (non-empty)
    predicate path, one tuple per key.  A path of two or more hops is keyed
    by the topic's first-hop entities and the rest of the path: its answers
    are the union of the rest's answers over those entities and depend on
    nothing else, so topics whose first hops reach one set (the movies of
    one genre set, say) share one walk, one sort and one tuple.  A one-hop
    path is keyed by (topic, path)."""
    memo: dict[tuple, frozenset] = {}  # _path_answers' suffix walks
    golds: dict[tuple, tuple] = {}

    def gold(topic, path):
        key = (topic, path) if len(path) == 1 else (frozenset(adj.get(path[0], {}).get(topic, ())), path[1:])
        if key not in golds:
            golds[key] = tuple(sorted(_path_answers(adj, memo, topic, path)))
        return golds[key]

    return gold


def _reach_set(adj: dict, memo: dict, path: tuple) -> set:
    """The entities from which the (non-empty) predicate path leads anywhere,
    that is whose _path_answers are non-empty: R(p) holds every entity with
    a p edge, and R(p + rest) every entity with a p edge into R(rest).  memo
    maps each path suffix to its set, so forms that share a suffix share it."""
    if path not in memo:
        step = adj.get(path[0], {})
        if len(path) == 1:
            memo[path] = set(step)
        else:
            rest = _reach_set(adj, memo, path[1:])
            memo[path] = {e for e, nxt in step.items() if not rest.isdisjoint(nxt)}
    return memo[path]


def _form_blocks(forms, pools, reach) -> list:
    """One block of _Units per (path, topic kind, phrasings) form: the topics
    of the kind's pool in reach(path), the path's reach set, in pool order,
    and one single-question variant per phrasing."""
    blocks = []
    for path, kind, phrasings in forms:
        answerable = reach(path)
        blocks.append(([t for t in pools[kind] if t in answerable], tuple(((phr, path),) for phr in phrasings)))
    return blocks


class _Units:
    """One hop's units, listed by arithmetic and built only when indexed.  A
    block is (topics, variants), each variant a tuple of (phrasing, path)
    questions: it lists one unit per topic and variant, topic-major, and
    unit i is a list of (phrasing, topic, path, hop), one per question."""

    def __init__(self, blocks, hop):
        self.blocks = blocks
        self.hop = hop
        self.starts = list(itertools.accumulate((len(t) * len(v) for t, v in blocks), initial=0))

    def __len__(self):
        return self.starts[-1]

    def __getitem__(self, i):
        b = bisect.bisect_right(self.starts, i) - 1  # an empty block shares its start with the next
        topics, variants = self.blocks[b]
        t, v = divmod(i - self.starts[b], len(variants))
        return [(phr, topics[t], path, self.hop) for phr, path in variants[v]]


def generate_synthetic(spec: SyntheticSpec) -> SyntheticDataset:
    """Random movie KG + verbalizing corpus + 1/2/3-hop question splits."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)

    movies = [f"Movie_{i}" for i in range(spec.movies)]
    dup_names = [f"Movie_{spec.movies + i}" for i in range(spec.duplicate_movie_pairs)]
    persons = [f"Person_{i}" for i in range(spec.directors + spec.writers + spec.actors)]
    directors = persons[: spec.directors]
    writers = persons[spec.directors : spec.directors + spec.writers]
    actors = persons[spec.directors + spec.writers :]
    years = [str(spec.year_start + i) for i in range(spec.years)]
    genres = [f"Genre_{i}" for i in range(spec.genres)]
    languages = [f"Language_{i}" for i in range(spec.languages)]

    n_amb = int(round(spec.ambiguous_fraction * spec.movies))
    ambiguous = set(rng.choice(movies, size=n_amb, replace=False)) if n_amb else set()

    def pick(pool, k):
        """k distinct members of pool, in choice's order.  One member is one
        bounded integer, the very draw of choice(n, 1, replace=False); a pick
        of k >= 2 keeps choice, whose shuffle draws under a masked rule."""
        if k == 1:
            return [pool[int(rng.integers(len(pool)))]]
        return [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]

    def movie_record(name):
        rec = {
            "directed_by": pick(directors, 1),
            "written_by": pick(writers, int(rng.integers(1, 3))),
            "starred_actors": pick(actors, int(rng.integers(2, 5))),
            "release_year": pick(years, 1),
            "in_language": pick(languages, 1),
            "has_genre": pick(genres, int(rng.integers(1, 3))),
        }
        return [(name, p, o) for p in PREDICATES for o in rec[p]]

    triples = []
    by_movie: dict[str, list] = {}
    for name in movies:
        rows = movie_record(name)
        by_movie[name] = rows
        triples.extend(rows)
    # duplicate-title movies: two independent attribute draws under one name,
    # so the graph conflates them into a single richly-edged node
    for name in dup_names:
        rows = movie_record(name) + movie_record(name)
        rows = [r for i, r in enumerate(rows) if r not in rows[:i]]
        by_movie[name] = rows
        triples.extend(rows)

    # corpus: one article per movie name; each triple gets one sentence,
    # ambiguous movies render year AND language with the shared pattern, and
    # every other sentence's template is drawn in one call, in article order
    articles = movies + dup_names

    def shared(name, p):
        return name in ambiguous and p in ("release_year", "in_language")

    highs = [len(SENT_TEMPLATES[p]) for name in articles for _, p, _ in by_movie[name] if not shared(name, p)]
    variant = iter(rng.integers(0, highs).tolist())
    corpus = [
        (name, " ".join(
            (AMBIG_TEMPLATE if shared(name, p) else SENT_TEMPLATES[p][next(variant)]).format(m=m, o=o)
            for m, p, o in by_movie[name]
        ))
        for name in articles
    ]

    adj = _adjacency(triples)
    reach_sets: dict[tuple, set] = {}

    pools = {
        "movie": movies,
        "director": directors,
        "writer": writers,
        "actor": actors,
        "year": years,
        "genre": genres,
        "language": languages,
    }

    def reach(path):
        return _reach_set(adj, reach_sets, path)

    # where/when pairs ride in two-question units so each split keeps the
    # tie-break symmetric (a maskless model must sit near 50% on them)
    when, where = ("release_year",), ("in_language",)
    both = reach(when) & reach(where)
    pairs = ([t for t in movies if t in ambiguous and t in both],
             tuple(((qw, when), (ql, where)) for qw, ql in zip(AMBIG_WHEN, AMBIG_WHERE)))
    units1 = _Units(_form_blocks(QUESTION_FORMS_1HOP, pools, reach) + [pairs], 1)
    units2 = _Units(_form_blocks(QUESTION_FORMS_2HOP, pools, reach), 2)
    units3 = _Units(_form_blocks(QUESTION_FORMS_3HOP, pools, reach), 3)

    gold = _gold_answers(adj)

    def cap_and_split(units):
        """Keep units in a seeded random order until questions_per_hop
        questions are kept, and cut them into train/dev/test in that order.
        Only the kept units are built, formatted and have their gold answers
        computed; every unit holds a question, so the first questions_per_hop
        indices of the order are the most that can be kept."""
        order = rng.permutation(len(units))
        picked, count = [], 0
        for i in order[: spec.questions_per_hop].tolist():
            if count >= spec.questions_per_hop:
                break
            picked.append(units[i])
            count += len(picked[-1])
        total = sum(len(u) for u in picked)
        cut1 = spec.split_ratios[0] * total
        cut2 = (spec.split_ratios[0] + spec.split_ratios[1]) * total
        buckets = {"train": [], "dev": [], "test": []}
        done = 0
        for u in picked:
            bucket = buckets["train" if done < cut1 else ("dev" if done < cut2 else "test")]
            bucket.extend(QAExample(phr.format(t=topic), topic, gold(topic, path), hop) for phr, topic, path, hop in u)
            done += len(u)
        return buckets

    splits = {"train": [], "dev": [], "test": []}
    for units in (units1, units2, units3):
        b = cap_and_split(units)
        for k in splits:
            splits[k].extend(b[k])

    amb_questions = {q for m in ambiguous for k in range(len(AMBIG_WHEN)) for q in (AMBIG_WHEN[k].format(t=m), AMBIG_WHERE[k].format(t=m))}
    ambiguous_eval = [ex for k in ("dev", "test") for ex in splits[k] if ex.question in amb_questions]

    duplicates = []
    for path, kind, phrasings in QUESTION_FORMS_1HOP:
        if kind != "movie":
            continue
        for topic in dup_names:
            answers = gold(topic, path)
            if not answers:
                continue
            for phr in phrasings:
                duplicates.append(QAExample(phr.format(t=topic), topic, answers, 1))

    stats = {
        "entities": len({e for h, _, t in triples for e in (h, t)}),
        "predicates": len(PREDICATES),
        "triples": len(triples),
        "ambiguous_movies": len(ambiguous),
        "questions": {k: len(v) for k, v in splits.items()},
        "questions_per_hop": {
            str(h): sum(1 for k in splits for ex in splits[k] if ex.hop == h) for h in (1, 2, 3)
        },
        "ambiguous_eval": len(ambiguous_eval),
        "duplicate_questions": len(duplicates),
    }
    return SyntheticDataset(triples, corpus, splits, ambiguous_eval, duplicates, spec, stats)


def write_dataset(data: SyntheticDataset, out_dir, force=False):
    """Materialize a generated dataset: triples TSV, corpus JSONL, a manifest,
    and as ``question<TAB>a1|a2|...<TAB>hop`` lines (save_questions) the question
    splits, the ambiguous where/when eval subset and the duplicate-title subset."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise DataError(f"{out} exists and is not empty (use force to overwrite)")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "triples.tsv", "w", encoding="utf-8") as f:
        f.write("# head\tpredicate\ttail\n")
        for h, p, t in data.triples:
            f.write(f"{h}\t{p}\t{t}\n")
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as f:
        for subject, text in data.corpus:
            f.write(json.dumps({"subject": subject, "text": text}, sort_keys=True) + "\n")
    for name, examples in data.splits.items():
        save_questions(examples, out / f"qa_{name}.txt")
    save_questions(data.ambiguous_eval, out / "ambiguous_eval.txt")
    save_questions(data.duplicates, out / "qa_dup.txt")
    manifest = {"spec": asdict(data.spec), "stats": data.stats}
    manifest["spec"]["split_ratios"] = list(data.spec.split_ratios)
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return out
