"""Reasoning traces: per-step attention, relation scores, and entity
activations, exportable as JSON or Graphviz DOT."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SCORE_FLOOR = 1e-3  # entity scores below this are omitted from exports
DOT_THRESHOLD = 0.8  # activation level worth drawing


@dataclass
class StepTrace:
    attention: np.ndarray  # (|q|,) word attention, sums to 1
    relation_ids: np.ndarray | None  # selected text-relation ids, None in label form
    relation_scores: np.ndarray  # per-predicate (label) or per-selected-relation (text)
    entity_scores: np.ndarray  # a^t after truncation


@dataclass
class ReasoningTrace:
    question: str
    tokens: np.ndarray
    topics: list[int]
    steps: list[StepTrace]
    hop_distribution: np.ndarray
    mask: np.ndarray | None
    a_star: np.ndarray
    final: np.ndarray
    ranked: np.ndarray
    degenerate: bool

    def to_dict(self, g, vocab=None, top_answers: int = 10, mask_top: int = 10) -> dict:
        """JSON-ready dict; entity scores are sparse (above SCORE_FLOOR)."""
        ent = g.entities.name
        steps = []
        for s in self.steps:
            if s.relation_ids is None:
                rels = [
                    {"predicate": g.predicates.name(p), "score": float(v)}
                    for p, v in enumerate(s.relation_scores)
                ]
            else:
                rels = [
                    {
                        "id": int(r),
                        "score": float(v),
                        "text": g.texts[g.trel_text[r]],
                        "head": ent(int(g.trel_heads[r])),
                        "tail": ent(int(g.trel_tails[r])),
                    }
                    for r, v in zip(s.relation_ids, s.relation_scores)
                ]
            idx = np.flatnonzero(s.entity_scores > SCORE_FLOOR)
            steps.append(
                {
                    "word_attention": [float(x) for x in s.attention],
                    "relations": rels,
                    "entity_scores": {ent(int(i)): float(s.entity_scores[i]) for i in idx},
                }
            )
        out = {
            "question": self.question,
            "topic": [ent(t) for t in self.topics],
            "tokens": [vocab.name(int(i)) for i in self.tokens] if vocab is not None else None,
            "steps": steps,
            "hop_distribution": [float(x) for x in self.hop_distribution],
            "answers": [ent(int(i)) for i in self.ranked[:top_answers]],
            "degenerate": self.degenerate,
        }
        if self.mask is not None:
            top = np.argsort(-self.mask)[:mask_top]
            out["mask_top"] = [{"entity": ent(int(i)), "score": float(self.mask[i])} for i in top]
        return out

    def save_json(self, path, g, vocab=None):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(g, vocab), f, indent=2)
            f.write("\n")

    def to_dot(self, g, threshold: float = DOT_THRESHOLD) -> str:
        """Graphviz digraph of the activated entities and relations
        (activation/score > threshold), layered by step."""
        ent = g.entities.name
        lines = [
            "digraph reasoning {",
            "  rankdir=LR;",
            '  node [shape=box, fontname="Helvetica"];',
        ]
        active = {0: list(self.topics)}
        for t, s in enumerate(self.steps, 1):
            active[t] = [int(i) for i in np.flatnonzero(s.entity_scores > threshold)]
        for t, ids in active.items():
            for i in ids:
                score = 1.0 if t == 0 else float(self.steps[t - 1].entity_scores[i])
                style = ", style=filled, fillcolor=lightblue" if t == 0 else ""
                lines.append(f'  "s{t}_{i}" [label="{ent(i)}\\n{score:.2f}"{style}];')
        for t, s in enumerate(self.steps, 1):
            prev = set(active[t - 1])
            cur = set(active[t])
            if s.relation_ids is None:
                for p, score in enumerate(s.relation_scores):
                    if score <= threshold:
                        continue
                    lo, hi = g.pred_ptr[p], g.pred_ptr[p + 1]
                    for h, tl in zip(g.edge_heads[lo:hi], g.edge_tails[lo:hi]):
                        if int(h) in prev and int(tl) in cur:
                            lines.append(
                                f'  "s{t - 1}_{int(h)}" -> "s{t}_{int(tl)}"'
                                f' [label="{g.predicates.name(p)} {score:.2f}"];'
                            )
            else:
                for r, score in zip(s.relation_ids, s.relation_scores):
                    if score <= threshold:
                        continue
                    h, tl = int(g.trel_heads[r]), int(g.trel_tails[r])
                    if h in prev and tl in cur:
                        text = g.texts[g.trel_text[r]].replace('"', "'")
                        lines.append(
                            f'  "s{t - 1}_{h}" -> "s{t}_{tl}" [label="{text} {score:.2f}"];'
                        )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def save_dot(self, path, g, threshold: float = DOT_THRESHOLD):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_dot(g, threshold))
