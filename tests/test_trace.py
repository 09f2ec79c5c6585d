"""Trace exports."""

import numpy as np

from hoptrace.graph import add_reverse_relations, build_from_triples
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
        a_star=np.zeros(4),
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
