"""Question ingestion and the synthetic movie-domain dataset generator.

Gold answers never come from templates: every generated question's answer
set is computed by breadth-first traversal of the generated triples (with
reverse predicates applied on the fly), so the generator cannot silently
disagree with the graph the model reasons over.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .errors import DataError

log = logging.getLogger("hoptrace")

TOPIC_RE = re.compile(r"\[([^\]]+)\]")

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


@dataclass(frozen=True)
class QAExample:
    question: str  # topic mention bracketed, e.g. "who directed [Movie_3]"
    topic: str
    answers: tuple  # sorted entity names
    hop: int | None = None

    @property
    def clean_text(self) -> str:
        return self.question.replace("[", "").replace("]", "")


@dataclass(frozen=True)
class ResolvedQA:
    question: str
    clean_text: str
    topic: str
    answers: tuple
    hop: int | None
    topic_id: int
    answer_ids: tuple


def load_questions(path, hop_path=None) -> list[QAExample]:
    """Parse ``question<TAB>answer1|answer2|...`` lines; the topic is the
    bracketed span.  An optional sidecar file supplies one hop count per
    line (auto-detected at ``<stem>_hops.txt``)."""
    path = Path(path)
    if hop_path is None:
        cand = path.with_name(path.stem + "_hops.txt")
        hop_path = cand if cand.exists() else None
    hops = None
    if hop_path is not None:
        try:
            hops = [int(x) for x in Path(hop_path).read_text(encoding="utf-8").split()]
        except UnicodeDecodeError as e:
            raise DataError(f"{hop_path}: not UTF-8 text: {e}") from None
        except ValueError as e:
            raise DataError(f"{hop_path}: hop labels must be integers: {e}") from None
    out = []
    try:
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                m = TOPIC_RE.search(parts[0]) if len(parts) == 2 else None
                if len(parts) != 2 or not parts[1] or m is None:
                    log.warning("%s:%d: malformed question line skipped", path, i + 1)
                    continue
                answers = tuple(sorted({a for a in parts[1].split("|") if a}))
                hop = hops[len(out)] if hops is not None else None
                out.append(QAExample(question=parts[0], topic=m.group(1), answers=answers, hop=hop))
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from None
    if hops is not None and len(hops) != len(out):
        raise DataError(f"{hop_path}: {len(hops)} hop labels for {len(out)} questions")
    return out


def save_questions(examples, path, hop_path=None):
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(f"{ex.question}\t{'|'.join(ex.answers)}\n")
    if hop_path is not None:
        with open(hop_path, "w", encoding="utf-8") as f:
            for ex in examples:
                f.write(f"{ex.hop}\n")


def resolve_examples(examples, g) -> list[ResolvedQA]:
    """Resolve names against the graph vocabulary; unresolvable examples are
    logged and dropped rather than failing the run."""
    out = []
    skipped = 0
    for ex in examples:
        topic_id = g.entities.get(ex.topic)
        answer_ids = tuple(g.entities.get(a) for a in ex.answers)
        if topic_id is None or any(a is None for a in answer_ids):
            skipped += 1
            log.warning("dropping unresolvable example: %r", ex.question)
            continue
        out.append(
            ResolvedQA(
                question=ex.question,
                clean_text=ex.clean_text,
                topic=ex.topic,
                answers=ex.answers,
                hop=ex.hop,
                topic_id=topic_id,
                answer_ids=answer_ids,
            )
        )
    if skipped:
        log.warning("dropped %d unresolvable examples", skipped)
    return out


# ---------------------------------------------------------------------------
# synthetic generation


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

    def validate(self):
        if self.movies < 20:
            raise DataError(f"need at least 20 movies, got {self.movies}")
        if abs(sum(self.split_ratios) - 1.0) > 1e-9 or len(self.split_ratios) != 3:
            raise DataError(f"split_ratios must be 3 numbers summing to 1, got {self.split_ratios}")
        if not 0.0 <= self.ambiguous_fraction <= 1.0:
            raise DataError("ambiguous_fraction must be in [0, 1]")
        return self

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, encoding="utf-8") as f:
                raw = yaml.safe_load(f) or {}
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text: {e}") from None
        except yaml.YAMLError as e:
            raise DataError(f"{path}: not valid YAML: {' '.join(str(e).split())}") from None
        if not isinstance(raw, dict):
            raise DataError(f"{path}: spec must be a mapping")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise DataError(f"{path}: unknown spec keys {sorted(unknown)}")
        try:
            if "split_ratios" in raw:
                raw["split_ratios"] = tuple(raw["split_ratios"])
            return cls(**raw).validate()
        except TypeError as e:  # a value of the wrong type, such as movies: "x"
            raise DataError(f"{path}: spec value of the wrong type: {e}") from None


@dataclass
class SyntheticDataset:
    triples: list
    corpus: list  # (subject, article text)
    splits: dict  # name -> list[QAExample]
    ambiguous_eval: list  # where/when pairs from dev+test
    duplicates: list  # questions over duplicate-title movies
    spec: SyntheticSpec
    stats: dict = field(default_factory=dict)


def _path_answers(adj: dict, memo: dict, topic: str, path: tuple):
    """Entities reached from topic along the (non-empty) predicate path, as
    a set nobody may mutate: one hop returns adj's own set.  memo maps
    (entity, remaining path) to the answers of a suffix of two or more hops:
    many topics share a middle entity, so each such suffix is walked once
    per entity.  Whole paths are not kept, as each topic asks for them once."""
    nxt = adj.get((topic, path[0]), frozenset())
    rest = path[1:]
    if not rest:
        return nxt
    if len(rest) == 1:
        return frozenset().union(*(adj.get((e, rest[0]), ()) for e in nxt))
    parts = []
    for e in nxt:
        if (e, rest) not in memo:
            memo[e, rest] = _path_answers(adj, memo, e, rest)
        parts.append(memo[e, rest])
    return frozenset().union(*parts)


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
    # ambiguous movies render year AND language with the shared pattern
    corpus = []
    for name in movies + dup_names:
        sentences = []
        for m, p, o in by_movie[name]:
            if name in ambiguous and p in ("release_year", "in_language"):
                sentences.append(AMBIG_TEMPLATE.format(m=m, o=o))
            else:
                variants = SENT_TEMPLATES[p]
                sentences.append(variants[int(rng.integers(len(variants)))].format(m=m, o=o))
        corpus.append((name, " ".join(sentences)))

    # BFS adjacency with reverse predicates, mirroring graph augmentation
    adj: dict[tuple, set] = {}
    for h, p, t in triples:
        adj.setdefault((h, p), set()).add(t)
        adj.setdefault((t, p + "_rev"), set()).add(h)
    memo: dict[tuple, frozenset] = {}

    pools = {
        "movie": movies,
        "director": directors,
        "writer": writers,
        "actor": actors,
        "year": years,
        "genre": genres,
        "language": languages,
    }

    def instantiate(forms, hop):
        """All answerable (template, topic) instances as single-question units
        of (question, topic, gold set, hop); only the units cap_and_split
        keeps become QAExamples."""
        units, seen = [], set()
        for path, kind, phrasings in forms:
            for topic in pools[kind]:
                gold = _path_answers(adj, memo, topic, path)
                if not gold:
                    continue
                for phr in phrasings:
                    q = phr.format(t=topic)
                    if q in seen:
                        continue
                    seen.add(q)
                    units.append([(q, topic, gold, hop)])
        return units, seen

    units1, seen1 = instantiate(QUESTION_FORMS_1HOP, 1)
    # where/when pairs ride in two-question units so each split keeps the
    # tie-break symmetric (a maskless model must sit near 50% on them)
    amb_order = [m for m in movies if m in ambiguous]
    for topic in amb_order:
        y = _path_answers(adj, memo, topic, ("release_year",))
        lang = _path_answers(adj, memo, topic, ("in_language",))
        if not y or not lang:
            continue
        for k in range(len(AMBIG_WHEN)):
            qw = AMBIG_WHEN[k].format(t=topic)
            ql = AMBIG_WHERE[k].format(t=topic)
            if qw in seen1 or ql in seen1:
                continue
            seen1 |= {qw, ql}
            units1.append([(qw, topic, y, 1), (ql, topic, lang, 1)])
    units2, _ = instantiate(QUESTION_FORMS_2HOP, 2)
    units3, _ = instantiate(QUESTION_FORMS_3HOP, 3)

    def cap_and_split(units):
        order = rng.permutation(len(units))
        picked, count = [], 0
        for i in order:
            if count >= spec.questions_per_hop:
                break
            picked.append(units[i])
            count += len(units[i])
        total = sum(len(u) for u in picked)
        cut1 = spec.split_ratios[0] * total
        cut2 = (spec.split_ratios[0] + spec.split_ratios[1]) * total
        buckets = {"train": [], "dev": [], "test": []}
        done = 0
        for u in picked:
            bucket = buckets["train" if done < cut1 else ("dev" if done < cut2 else "test")]
            bucket.extend(QAExample(q, topic, tuple(sorted(gold)), hop) for q, topic, gold, hop in u)
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
            gold = _path_answers(adj, memo, topic, path)
            if not gold:
                continue
            for phr in phrasings:
                duplicates.append(QAExample(phr.format(t=topic), topic, tuple(sorted(gold)), 1))

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
    """Materialize a generated dataset: triples TSV, corpus JSONL, question
    splits with hop sidecars, the ambiguous where/when eval subset, the
    duplicate-title subset, and a manifest."""
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
        save_questions(examples, out / f"qa_{name}.txt", out / f"qa_{name}_hops.txt")
    save_questions(data.ambiguous_eval, out / "ambiguous_eval.txt", out / "ambiguous_eval_hops.txt")
    save_questions(data.duplicates, out / "qa_dup.txt", out / "qa_dup_hops.txt")
    manifest = {"spec": asdict(data.spec), "stats": data.stats}
    manifest["spec"]["split_ratios"] = list(data.spec.split_ratios)
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return out
