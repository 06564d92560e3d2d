"""TF-IDF scoring protocol used as the comparison baseline.

Term frequency is computed per document group (known vs. novel) while the
inverse document frequency is computed over all documents of both groups,
as score = (F_s / F) * log2(|D| / (|D_s| + 1)).  The +1 in the IDF
denominator means a word present in every document gets a negative IDF;
that is kept as-is rather than floored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from ._files import atomic_write_text
from .corpus import CorpusStats, Label, LABELS


@dataclass(frozen=True)
class TfidfTable:
    """Per-group TF-IDF scores and the shared IDF factors."""

    scores: Mapping[Label, Mapping[str, float]]
    idf: Mapping[str, float]

    def score(self, label: Label, word: str) -> float:
        return self.scores[label].get(word, 0.0)


def tfidf_scores(stats: CorpusStats) -> TfidfTable:
    """Score every word of the corpus for both groups.

    Words absent from a group score 0 for that group.
    """
    for label in LABELS:
        if stats.per_class_total_freq[label] == 0:
            raise ValueError(f"empty class: {label.value}")
    total_docs = stats.doc_count_total
    idf = {
        word: math.log2(total_docs / (containing + 1))
        for word, containing in stats.doc_count_containing.items()
    }
    scores: dict[Label, dict[str, float]] = {}
    for label in LABELS:
        class_total = stats.per_class_total_freq[label]
        scores[label] = {
            word: (count / class_total) * idf[word]
            for word, count in stats.per_class_term_freq[label].items()
        }
    return TfidfTable(scores=scores, idf=idf)


def write_tfidf_table(table: TfidfTable, stats: CorpusStats, path: str | Path) -> None:
    """CSV export: word, tf per group, idf, score per group."""
    rows = ["word,tf_known,tf_novel,idf,score_known,score_novel\n"]
    for word in sorted(stats.doc_count_containing):
        tf = {}
        for label in LABELS:
            count = stats.per_class_term_freq[label].get(word, 0)
            tf[label] = count / stats.per_class_total_freq[label]
        rows.append(
            f"{word},{tf[Label.KNOWN]!r},{tf[Label.NOVEL]!r},{table.idf[word]!r},"
            f"{table.score(Label.KNOWN, word)!r},{table.score(Label.NOVEL, word)!r}\n"
        )
    atomic_write_text(path, "".join(rows))
