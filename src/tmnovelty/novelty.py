"""Word-level novelty description built from trained clauses.

Clause literals are routed into two word bags by class and polarity: plain
words of for-votes and negated words of against-votes characterize the
clause's own group, everything else characterizes the other group.  A word's
novelty score is the ratio of its smoothed relative frequency in the novel
bag to that in the known bag, so scores above 1 lean novel and below 1 lean
known.  Each bag is summed once, and the whole table is scored in one pass
over the words.  A document is reduced over its scored token occurrences by
``reduce_scores``, the one reduction behind both the mean-log ``aggregate``
column and the logistic document features.  Pair scores divide clause
co-occurrence probability by the product of the two words' bag frequencies,
exposing words that the clauses treat as one context.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Mapping, Sequence

from ._files import atomic_write_text
from .corpus import Label
from .tsetlin import ExtractedClause, Polarity


@dataclass(frozen=True)
class WordBags:
    """Raw word frequencies harvested from clauses, one bag per group."""

    known: Mapping[str, int]
    novel: Mapping[str, int]

    @cached_property
    def total_known(self) -> int:
        return sum(self.known.values())

    @cached_property
    def total_novel(self) -> int:
        return sum(self.novel.values())

    def words(self) -> list[str]:
        return sorted(set(self.known) | set(self.novel))


def build_word_bags(clauses: Sequence[ExtractedClause]) -> WordBags:
    """Route clause word sets into the known/novel bags with multiplicity.

    Plain words of a clause describe the group the clause votes for; negated
    words describe the other group.  An against-vote (negative polarity)
    flips the destination.  Each clause membership counts once.
    """
    bag_known: Counter[str] = Counter()
    bag_novel: Counter[str] = Counter()
    for clause in clauses:
        votes_known = (clause.label is Label.KNOWN) == (clause.polarity is Polarity.POSITIVE)
        if votes_known:
            bag_known.update(clause.plain_words)
            bag_novel.update(clause.negated_words)
        else:
            bag_novel.update(clause.plain_words)
            bag_known.update(clause.negated_words)
    return WordBags(known=dict(bag_known), novel=dict(bag_novel))


def _smoothed(count: int) -> int:
    """A raw bag count, lifted to the minimum frequency of 1."""
    count = max(count, 1)
    return count


@dataclass(frozen=True)
class ScoreTable:
    """Per-word novelty scores plus the relative frequencies behind them."""

    scores: Mapping[str, float]
    rel_freq_known: Mapping[str, float]
    rel_freq_novel: Mapping[str, float]

    def __len__(self) -> int:
        return len(self.scores)

    def __contains__(self, word: str) -> bool:
        return word in self.scores


def novelty_scores(bags: WordBags) -> ScoreTable:
    """Score every word in either bag as p_novel / p_known, in one pass.

    A relative frequency is the word's count, lifted to at least 1, over the
    raw bag total, so a word absent from a 14-word bag gets 1/14 and every
    score is finite and positive.
    """
    total_known = bags.total_known
    total_novel = bags.total_novel
    if total_known == 0 or total_novel == 0:
        raise ValueError("untrained description: empty bag")
    scores: dict[str, float] = {}
    rel_known: dict[str, float] = {}
    rel_novel: dict[str, float] = {}
    for word in bags.words():
        p_known = rel_known[word] = _smoothed(bags.known.get(word, 0)) / total_known
        p_novel = rel_novel[word] = _smoothed(bags.novel.get(word, 0)) / total_novel
        scores[word] = p_novel / p_known
    return ScoreTable(scores=scores, rel_freq_known=rel_known, rel_freq_novel=rel_novel)


class Aggregator(str, Enum):
    """Document-level reduction of per-word scores."""

    MEAN_LOG = "mean_log"
    MAX = "max"
    FRACTION_ABOVE_ONE = "fraction_above_one"


_LOG_FLOOR = 1e-12


def reduce_scores(occurrence_scores: Sequence[float]) -> dict[Aggregator, float]:
    """Every aggregate over a document's scored token occurrences (at least one).

    Scores at or below zero (TF-IDF) are floored at 1e-12 inside the log, so
    the mean log stays finite; the logs are summed exactly (``math.fsum``).
    """
    n = len(occurrence_scores)
    sum_log = math.fsum(math.log(max(s, _LOG_FLOOR)) for s in occurrence_scores)
    return {
        Aggregator.MEAN_LOG: sum_log / n,
        Aggregator.MAX: max(occurrence_scores),
        Aggregator.FRACTION_ABOVE_ONE: sum(s > 1.0 for s in occurrence_scores) / n,
    }


def score_document(tokens: Sequence[str], table: ScoreTable) -> float | None:
    """Mean log score over the document's scored token occurrences.

    None when no token of the document is scored.
    """
    if len(table) == 0:
        raise ValueError("empty score table")
    occurrence_scores = [table.scores[t] for t in tokens if t in table.scores]
    if not occurrence_scores:
        return None
    return reduce_scores(occurrence_scores)[Aggregator.MEAN_LOG]


@dataclass(frozen=True)
class ClauseCooccurrence:
    """How often word pairs share a clause within one group's clause pool."""

    label: Label
    pair_counts: Mapping[tuple[str, str], int]  # keys sorted (w1 <= w2), w1 < w2
    word_counts: Mapping[str, int]  # clauses whose plain set contains the word
    clause_count: int

    def pair_count(self, w1: str, w2: str) -> int:
        if w1 == w2:
            return self.word_counts.get(w1, 0)
        key = (w1, w2) if w1 <= w2 else (w2, w1)
        return self.pair_counts.get(key, 0)


def cooccurrence(
    clauses: Sequence[ExtractedClause],
    label: Label,
    clause_count: int,
) -> ClauseCooccurrence:
    """Count pairwise plain-word co-membership over one group's clauses.

    ``clause_count`` is the group's clause pool size, the denominator of
    every pair probability; it counts the empty clauses that extraction
    omits.
    """
    group = [c for c in clauses if c.label is label]
    pairs: Counter[tuple[str, str]] = Counter()
    singles: Counter[str] = Counter()
    for clause in group:
        words = sorted(clause.plain_words)
        singles.update(words)
        pairs.update(combinations(words, 2))
    return ClauseCooccurrence(
        label=label,
        pair_counts=dict(pairs),
        word_counts=dict(singles),
        clause_count=clause_count,
    )


def contextual_score(
    co: ClauseCooccurrence,
    table: ScoreTable,
    word1: str,
    word2: str,
) -> float:
    """Pair score: joint clause probability over the product of word probabilities.

    The individual probabilities are the bag relative frequencies of the
    co-occurrence's group.
    """
    if co.clause_count == 0:
        raise ValueError("no clauses available for co-occurrence scoring")
    p_joint = co.pair_count(word1, word2) / co.clause_count
    freqs = table.rel_freq_known if co.label is Label.KNOWN else table.rel_freq_novel
    try:
        p1, p2 = freqs[word1], freqs[word2]
    except KeyError as missing:
        raise KeyError(f"unscored word: {missing.args[0]!r}") from None
    return p_joint / (p1 * p2)


# ---------------------------------------------------------------------------
# Exports.
# ---------------------------------------------------------------------------


def write_score_table(bags: WordBags, table: ScoreTable, path: str | Path) -> None:
    """CSV export sorted by descending score: word, counts, frequencies, score."""
    rows = ["word,freq_known,freq_novel,rel_freq_known,rel_freq_novel,score\n"]
    ordering = sorted(table.scores, key=lambda w: (-table.scores[w], w))
    for word in ordering:
        rows.append(
            f"{word},{bags.known.get(word, 0)},{bags.novel.get(word, 0)},"
            f"{table.rel_freq_known[word]!r},{table.rel_freq_novel[word]!r},{table.scores[word]!r}\n"
        )
    atomic_write_text(path, "".join(rows))


def write_cooccurrence_matrix(
    co: ClauseCooccurrence,
    table: ScoreTable,
    words: Sequence[str],
    path: str | Path,
) -> None:
    """Upper-triangular CSV of pair scores for the requested word list."""
    header = "word," + ",".join(words) + "\n"
    rows = [header]
    for i, w1 in enumerate(words):
        cells: list[str] = [w1]
        for j, w2 in enumerate(words):
            if j < i:
                cells.append("")
            else:
                cells.append(repr(contextual_score(co, table, w1, w2)))
        rows.append(",".join(cells) + "\n")
    atomic_write_text(path, "".join(rows))
