"""Re-derive the clause make-up used by the prepared paper-shape model.

Trains a reduced-clause machine (margin 50, s = 25, the paper's profile
apart from the pool size) on a seeded, class-balanced slice of the
paper-shape corpus and prints, per epoch, the mean plain and negated words
of a non-empty clause, the share of empty clauses and the share of plain
words taken from the topic words of the group the clause votes for.

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tmnovelty import BoolDoc, Label, TMModel, TMParams, fit  # noqa: E402

SEED = 0
CLAUSES = 1_000  # per bank
DOCS = 100
EPOCHS = 9


def make_up(model: TMModel, topic_of: np.ndarray) -> dict[str, float]:
    """Clause statistics; topic_of[f] is 0 (known topic), 1 (novel topic) or -1.

    The topic shares are taken per clause and then averaged: plain words from
    the topics of the group the clause votes for, negated words from the
    topics of the other group.
    """
    o = model.feature_count
    n = model.params.state_count
    half = model.params.clause_count // 2
    plain, negated, topical, negated_other, empty = [], [], [], [], 0
    for label in (Label.KNOWN, Label.NOVEL):
        include = model.banks[label].state > n
        for j in range(model.params.clause_count):
            p = np.flatnonzero(include[j, :o])
            q = np.flatnonzero(include[j, o:])
            if p.size == 0 and q.size == 0:
                empty += 1
                continue
            votes_novel = (label is Label.NOVEL) == (j < half)
            plain.append(p.size)
            negated.append(q.size)
            if p.size:
                topical.append(float(np.mean(topic_of[p] == int(votes_novel))))
            if q.size:
                negated_other.append(float(np.mean(topic_of[q] == int(not votes_novel))))
    return {
        "plain": float(np.mean(plain)) if plain else 0.0,
        "negated": float(np.mean(negated)) if negated else 0.0,
        "empty_share": empty / (2 * model.params.clause_count),
        "plain_topic_share": float(np.mean(topical)) if topical else 0.0,
        "negated_other_topic_share": float(np.mean(negated_other)) if negated_other else 0.0,
    }


def main() -> None:
    corpus = inputs.paper_corpus(SEED, REPO)
    vocab = corpus.vocabulary()
    index = {w: i for i, w in enumerate(vocab)}
    topic_of = np.full(len(vocab), -1)
    for groups, side in ((inputs.KNOWN_GROUPS, 0), (inputs.NOVEL_GROUPS, 1)):
        for g in groups:
            for w in corpus.topics[g]:
                if w in index:
                    topic_of[index[w]] = side
    rows = inputs.doc_slice(corpus, SEED, DOCS)
    bits = inputs.bit_matrix(corpus, rows)
    labels = corpus.labels()
    docs = [BoolDoc(str(d), Label(labels[d]), bits[k]) for k, d in enumerate(rows)]
    params = TMParams(clause_count=CLAUSES, vote_margin=50, sensitivity=25.0, seed=SEED)
    model = TMModel.create(params, len(vocab))
    for epoch in range(EPOCHS):
        start = time.perf_counter()
        # A fresh seed per epoch, so epochs do not replay one random stream.
        model.params = dataclasses.replace(params, seed=SEED * 1000 + epoch)
        _, trace = fit(model, docs, epochs=1)
        stats = make_up(model, topic_of)
        print(
            f"epoch {epoch + 1}: accuracy {trace[-1]:.3f}, {time.perf_counter() - start:.1f} s, "
            + ", ".join(f"{k} {v:.3f}" for k, v in stats.items()),
            flush=True,
        )


if __name__ == "__main__":
    main()
