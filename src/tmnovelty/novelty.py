"""Word-level novelty description built from trained clauses.

Clause literals are routed into two word bags by class and polarity: plain
words of for-votes and negated words of against-votes characterize the
clause's own group, everything else characterizes the other group.  The bags
are summed from per-literal include counts read off the clause states, with
no clause objects.  A word's novelty score is the ratio of its smoothed
relative frequency in the novel bag to that in the known bag, so scores
above 1 lean novel and below 1 lean known.  Each bag is summed once, and the
whole table is scored in one pass over the words.  A document is reduced
over its scored token occurrences by ``score_document``, the one reduction,
to the tuple (mean log, max, fraction above 1, coverage): the mean log is
the ``aggregate`` column of ``doc_scores.csv``, and all four are the
logistic document features.  The logs are taken once per distinct score
(``ScoreTable.logs``), not once per occurrence.  Pair scores divide clause
co-occurrence probability by the product of the two words' bag
frequencies, exposing words that the clauses treat as one context.  The
pair counts, too, come from the include actions with no clause objects,
counting only the requested words: ``word_pair_counts`` takes them and the
bags from one ``include_counts`` read, so every read stage reads each bank
once, both at once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._files import write_csv
from .corpus import Label, Vocabulary
from .tsetlin import ExtractedClause, StoredModel, TMModel, include_counts


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


def build_word_bags(model: TMModel | StoredModel, vocab: Vocabulary) -> WordBags:
    """Route every clause's included words into the known/novel bags with multiplicity.

    Plain words of a clause describe the group the clause votes for; negated
    words describe the other group.  An against-vote (negative polarity)
    flips the destination.  Each clause membership counts once, so the bags
    are sums of the banks' per-literal include counts, read from both banks
    at once (``include_counts``).
    """
    if len(vocab) != model.feature_count:
        raise ValueError("vocabulary size != model feature count")
    return _route(include_counts(model), vocab)


def _route(counted: Mapping[Label, tuple[np.ndarray, np.ndarray]], vocab: Vocabulary) -> WordBags:
    """The word bags of ``include_counts``' per-bank include counts."""
    o = len(vocab)
    bags = np.zeros((2, o), dtype=np.int64)  # known, novel
    for k, label in enumerate((Label.KNOWN, Label.NOVEL)):
        (for_votes, against_votes), _ = counted[label]
        bags[k] += for_votes[:o] + against_votes[o:]
        bags[1 - k] += for_votes[o:] + against_votes[:o]
    known, novel = ({w: c for w, c in zip(vocab.words, bag.tolist()) if c} for bag in bags)
    return WordBags(known=known, novel=novel)


def _smoothed(count: int) -> int:
    """A raw bag count, lifted to the minimum frequency of 1."""
    count = max(count, 1)
    return count


_LOG_FLOOR = 1e-12


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

    @cached_property
    def logs(self) -> dict[float, float]:
        """``math.log(max(s, 1e-12))`` per distinct score, built on first use: the logs ``score_document`` sums.

        The floor keeps scores at or below zero (TF-IDF) finite.
        """
        return {s: math.log(max(s, _LOG_FLOOR)) for s in set(self.scores.values())}


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


def score_document(tokens: Sequence[str], table: ScoreTable) -> tuple[float, float, float, float] | None:
    """(mean log, max, fraction above 1, coverage) over the document's scored token occurrences.

    The occurrences' logs (``table.logs``) are summed exactly
    (``math.fsum``); coverage is the scored share of the tokens.  None when
    no token of the document is scored.
    """
    occurrence_scores = [table.scores[t] for t in tokens if t in table.scores]
    if not occurrence_scores:
        return None
    n = len(occurrence_scores)
    sum_log = math.fsum(map(table.logs.__getitem__, occurrence_scores))
    return sum_log / n, max(occurrence_scores), len([s for s in occurrence_scores if s > 1.0]) / n, n / len(tokens)


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
    omits.  No stage calls this: ``context`` counts with
    ``word_pair_counts``.  It stays for callers that hold the clauses
    already (``extract_clauses``), as the oracle of ``word_pair_counts``,
    and because ``perfbench/spans.py`` wraps it by name.
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


class WordPairCounts(ClauseCooccurrence):
    """Counts of the requested words only: any other word raises KeyError rather than reading as 0."""

    def pair_count(self, w1: str, w2: str) -> int:
        for word in (w1, w2):
            if word not in self.word_counts:
                raise KeyError(f"word not counted: {word!r}")
        return super().pair_count(w1, w2)


def word_pair_counts(
    model: TMModel | StoredModel,
    label: Label,
    words: Sequence[str],
    vocab: Vocabulary,
) -> tuple[WordPairCounts, WordBags]:
    """``cooccurrence`` of ``label``'s clauses, restricted to the given words, and the word bags.

    One read of both banks gives both (``include_counts``).  Each row block's
    plain columns of the words form a clause x word matrix M; M.T @ M,
    summed over the blocks, holds each word's clause count on its diagonal
    and each pair's count off it.  ``clause_count`` is the bank's pool size.
    """
    if len(vocab) != model.feature_count:
        raise ValueError("vocabulary size != model feature count")
    words = sorted(set(words))
    counted = include_counts(model, {label: [vocab.index_of[w] for w in words]})
    pairs = counted[label][1].tolist()
    co = WordPairCounts(
        label=label,
        pair_counts={(w1, w2): pairs[i][j] for (i, w1), (j, w2) in combinations(enumerate(words), 2)},
        word_counts={w: pairs[i][i] for i, w in enumerate(words)},
        clause_count=model.params.clause_count,
    )
    return co, _route(counted, vocab)


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
    ordering = sorted(table.scores, key=lambda w: (-table.scores[w], w))
    rows = (
        (word, bags.known.get(word, 0), bags.novel.get(word, 0),
         table.rel_freq_known[word], table.rel_freq_novel[word], table.scores[word])
        for word in ordering
    )
    write_csv(path, ("word", "freq_known", "freq_novel", "rel_freq_known", "rel_freq_novel", "score"), rows)


def write_cooccurrence_matrix(
    co: ClauseCooccurrence,
    table: ScoreTable,
    words: Sequence[str],
    path: str | Path,
) -> None:
    """Upper-triangular CSV of pair scores for the requested word list."""
    rows = (
        [w1, *("" if j < i else contextual_score(co, table, w1, w2) for j, w2 in enumerate(words))]
        for i, w1 in enumerate(words)
    )
    write_csv(path, ("word", *words), rows)
