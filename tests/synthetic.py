"""Seeded synthetic two-topic corpus for desk-scale experiments.

The vocabulary splits into known-topic words, novel-topic words, and shared
filler.  Documents are generated as word sets: each own-topic word appears
with high probability (so clauses latch onto the topic conjunction), filler
appears in both classes, and topic words occasionally leak into the other
class.  One two-word collocation per class always travels as a pair, giving
the clause co-occurrence scoring something to find.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from tmnovelty.corpus import Label


def _word_series(prefix: str, count: int) -> list[str]:
    # The index in base 26 with letters for digits, at least two of them
    # ('aa'..'zz', then 'baa'...).  Trailing 'x' keeps the words inert under
    # the suffix stemmer, so the corpus survives the full ingestion pipeline
    # unchanged.
    words = []
    for i in range(count):
        digits = ""
        while i or len(digits) < 2:
            i, r = divmod(i, 26)
            digits = string.ascii_lowercase[r] + digits
        words.append(prefix + digits + "x")
    return words


@dataclass(frozen=True)
class SyntheticConfig:
    known_topic_words: int = 15
    novel_topic_words: int = 15
    filler_words: int = 20
    docs_per_class: int = 200
    topic_presence: float = 0.95  # P(own-topic word in doc)
    filler_presence: float = 0.5
    leak_presence: float = 0.1  # P(other-topic word in doc)
    collocation_presence: float = 0.9  # P(planted pair in doc), always jointly


@dataclass(frozen=True)
class SyntheticCorpus:
    docs: list[list[str]]
    labels: list[Label]
    known_words: list[str]
    novel_words: list[str]
    filler_words: list[str]
    # Planted pairs only ever occur together, inside their own class's documents.
    known_pair: tuple[str, str]
    novel_pair: tuple[str, str]


def generate_corpus(config: SyntheticConfig = SyntheticConfig(), seed: int = 0) -> SyntheticCorpus:
    rng = np.random.default_rng(seed)
    known_words = _word_series("kw", config.known_topic_words)
    novel_words = _word_series("nw", config.novel_topic_words)
    filler_words = _word_series("fw", config.filler_words)
    known_pair = (known_words[0], known_words[1])
    novel_pair = (novel_words[0], novel_words[1])
    known_pool = known_words[2:]
    novel_pool = novel_words[2:]

    docs: list[list[str]] = []
    labels: list[Label] = []
    for label in (Label.KNOWN, Label.NOVEL):
        own_pool = known_pool if label is Label.KNOWN else novel_pool
        other_pool = novel_pool if label is Label.KNOWN else known_pool
        pair = known_pair if label is Label.KNOWN else novel_pair
        for _ in range(config.docs_per_class):
            tokens = [w for w in own_pool if rng.random() < config.topic_presence]
            tokens += [w for w in filler_words if rng.random() < config.filler_presence]
            tokens += [w for w in other_pool if rng.random() < config.leak_presence]
            if rng.random() < config.collocation_presence:
                tokens.extend(pair)
            if not tokens:
                tokens.append(filler_words[int(rng.integers(len(filler_words)))])
            rng.shuffle(tokens)
            docs.append(tokens)
            labels.append(label)
    return SyntheticCorpus(
        docs=docs,
        labels=labels,
        known_words=known_words,
        novel_words=novel_words,
        filler_words=filler_words,
        known_pair=known_pair,
        novel_pair=novel_pair,
    )
