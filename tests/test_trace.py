"""Trace exports."""

import numpy as np

from hoptrace.encoder import Vocab, Vocabulary
from hoptrace.graph import RelationGraph, add_reverse_relations, build_from_triples
from hoptrace.trace import ReasoningTrace, StepTrace

# first-seen order puts the edges in neither head nor predicate order
TRIPLES = [
    ("c", "q", "a"),
    ("a", "p", "b"),
    ("a", "q", "c"),
    ("b", "p", "d"),
    ("a", "p", "d"),
    ("b", "q", "d"),
    ("c", "p", "d"),
    ("a", "q", "d"),
    ("a", "q", "b"),
]

# entities c a b d, predicates q q_rev p p_rev
LABEL_DOT = """\
digraph reasoning {
  rankdir=LR;
  node [shape=box, fontname="Helvetica"];
  "s0_1" [label="a\\n1.00", style=filled, fillcolor=lightblue];
  "s1_0" [label="c\\n0.90"];
  "s1_2" [label="b\\n1.00"];
  "s1_3" [label="d\\n0.85"];
  "s2_1" [label="a\\n0.95"];
  "s2_3" [label="d\\n1.00"];
  "s0_1" -> "s1_0" [label="q 0.90"];
  "s0_1" -> "s1_2" [label="q 0.90"];
  "s0_1" -> "s1_3" [label="q 0.90"];
  "s0_1" -> "s1_2" [label="p 0.95"];
  "s0_1" -> "s1_3" [label="p 0.95"];
  "s1_0" -> "s2_1" [label="q 0.88"];
  "s1_2" -> "s2_3" [label="q 0.88"];
  "s1_0" -> "s2_1" [label="q_rev 0.91"];
  "s1_2" -> "s2_1" [label="q_rev 0.91"];
  "s1_3" -> "s2_1" [label="q_rev 0.91"];
  "s1_0" -> "s2_3" [label="p 0.99"];
  "s1_2" -> "s2_3" [label="p 0.99"];
}
"""


def _label_trace():
    steps = [
        StepTrace(
            attention=np.array([1.0]),
            relation_ids=None,
            relation_scores=np.array([0.9, 0.1, 0.95, 0.85]),
            entity_scores=np.array([0.9, 0.2, 1.0, 0.85]),
        ),
        StepTrace(
            attention=np.array([1.0]),
            relation_ids=None,
            relation_scores=np.array([0.88, 0.91, 0.99, 0.3]),
            entity_scores=np.array([0.5, 0.95, 0.1, 1.0]),
        ),
    ]
    return ReasoningTrace(
        question="",
        tokens=np.zeros(1, dtype=np.int64),
        topics=[1],
        steps=steps,
        hop_distribution=np.array([0.5, 0.5]),
        mask=None,
        final=np.zeros(4),
        ranked=np.arange(4),
        degenerate=False,
    )


def test_label_trace_dot_is_pinned():
    """Each predicate's edges are drawn by head, then tail, whatever order
    the triples came in."""
    g = add_reverse_relations(build_from_triples(TRIPLES))
    assert g.entities.names == ["c", "a", "b", "d"]
    assert g.predicates.names == ["q", "q_rev", "p", "p_rev"]
    assert _label_trace().to_dot(g) == LABEL_DOT


def test_dot_quotes_in_entity_and_predicate_names_stay_inside_their_labels():
    """A double quote in an entity or predicate name becomes a single one,
    as in a text label, so every label stays one DOT string."""
    g = build_from_triples([('Say "Hi"', 'says "hi" to', "b")])
    step = StepTrace(np.array([1.0]), None, np.array([0.9]), np.array([0.0, 1.0]))
    trace = ReasoningTrace(
        question="", tokens=np.zeros(1, dtype=np.int64), topics=[0], steps=[step], hop_distribution=np.array([1.0]),
        mask=None, final=np.zeros(2), ranked=np.arange(2), degenerate=False,
    )
    assert trace.to_dot(g) == (
        "digraph reasoning {\n"
        "  rankdir=LR;\n"
        '  node [shape=box, fontname="Helvetica"];\n'
        '  "s0_0" [label="Say \'Hi\'\\n1.00", style=filled, fillcolor=lightblue];\n'
        '  "s1_1" [label="b\\n1.00"];\n'
        '  "s0_0" -> "s1_1" [label="says \'hi\' to 0.90"];\n'
        "}\n"
    )


# text relations by (head, tail, text): 0 ann->bob "said", 1 ann->cy "met",
# 2 bob->dee "met", 3 cy->dee "said"
TEXT_DOT = """\
digraph reasoning {
  rankdir=LR;
  node [shape=box, fontname="Helvetica"];
  "s0_0" [label="ann\\n1.00", style=filled, fillcolor=lightblue];
  "s1_1" [label="bob\\n0.90"];
  "s1_2" [label="cy\\n0.85"];
  "s2_3" [label="dee\\n0.95"];
  "s0_0" -> "s1_1" [label="<sub> said 'hi' to <obj> 0.90"];
  "s0_0" -> "s1_2" [label="<sub> met <obj> 0.85"];
  "s1_1" -> "s2_3" [label="<sub> met <obj> 0.95"];
}
"""

SAID, MET = '<sub> said "hi" to <obj>', "<sub> met <obj>"


def _text_case():
    g = RelationGraph(
        Vocab(["ann", "bob", "cy", "dee"]), Vocab(), [], [SAID, MET],
        [(2, 3, 0), (0, 2, 1), (1, 3, 1), (0, 1, 0)], form="text",
    )
    vocab = Vocabulary(["who", "did", "ann", "greet"])
    steps = [
        StepTrace(np.array([0.25, 0.25, 0.5]), np.array([0, 1]), np.array([0.9, 0.85]), np.array([0.0, 0.9, 0.85, 0.0])),
        # relation 3 scores under the DOT threshold, and relation 0 leaves an
        # entity that step 1 did not activate; cy falls under SCORE_FLOOR
        StepTrace(
            np.array([0.5, 0.25, 0.25]), np.array([2, 3, 0]), np.array([0.95, 0.5, 0.81]),
            np.array([0.0, 0.0, 0.0005, 0.95]),
        ),
    ]
    trace = ReasoningTrace(
        question="who did [ann] greet", tokens=vocab.encode("who did ann"), topics=[0], steps=steps,
        hop_distribution=np.array([0.25, 0.75]), mask=np.array([0.0, 1.0, 0.5, 0.75]),
        final=np.array([0.0, 0.5, 0.25, 0.9]), ranked=np.array([3, 1, 2, 0]), degenerate=False,
    )
    return g, vocab, trace


def test_text_trace_json_is_pinned():
    """Each selected relation is listed by id with its score, text, head
    and tail; the language mask's top entries follow the answers."""
    g, vocab, trace = _text_case()
    assert trace.to_dict(g, vocab) == {
        "question": "who did [ann] greet",
        "topic": ["ann"],
        "tokens": ["who", "did", "ann"],
        "steps": [
            {
                "word_attention": [0.25, 0.25, 0.5],
                "relations": [
                    {"id": 0, "score": 0.9, "text": SAID, "head": "ann", "tail": "bob"},
                    {"id": 1, "score": 0.85, "text": MET, "head": "ann", "tail": "cy"},
                ],
                "entity_scores": {"bob": 0.9, "cy": 0.85},
            },
            {
                "word_attention": [0.5, 0.25, 0.25],
                "relations": [
                    {"id": 2, "score": 0.95, "text": MET, "head": "bob", "tail": "dee"},
                    {"id": 3, "score": 0.5, "text": SAID, "head": "cy", "tail": "dee"},
                    {"id": 0, "score": 0.81, "text": SAID, "head": "ann", "tail": "bob"},
                ],
                "entity_scores": {"dee": 0.95},
            },
        ],
        "hop_distribution": [0.25, 0.75],
        "answers": ["dee", "bob", "cy", "ann"],
        "degenerate": False,
        "mask_top": [
            {"entity": "bob", "score": 1.0},
            {"entity": "dee", "score": 0.75},
            {"entity": "cy", "score": 0.5},
            {"entity": "ann", "score": 0.0},
        ],
    }


def test_text_trace_dot_is_pinned():
    """A relation is drawn when it scores above the threshold and joins
    entities active at consecutive steps; a double quote in its text
    becomes a single one, so the label stays one DOT string."""
    g, _, trace = _text_case()
    assert trace.to_dot(g) == TEXT_DOT
