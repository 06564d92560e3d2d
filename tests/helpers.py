"""Shared fixtures: the sports case-study clauses, a hand-set model,
single-clause forms of the clause bank's evaluation and feedback, a
per-row clause extraction oracle, and single-document forms of
classification and logistic prediction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from tmnovelty.corpus import Label, Vocabulary
from tmnovelty.evaluation import LogisticModel
from tmnovelty.tsetlin import (
    ClauseBank,
    EvalMode,
    ExtractedClause,
    Polarity,
    TMModel,
    TMParams,
    _bernoulli_positions,
    classify_batch,
    literal_vector,
    pack_bits,
)

# Ten-word vocabulary of the two-sentence cricket/rugby case study.
CASE_STUDY_WORDS = (
    "ball",
    "cricket",
    "despite",
    "england",
    "hit",
    "match",
    "old",
    "rugby",
    "six",
    "won",
)

# The eight golden clauses: two for-votes and two against-votes per class,
# all plain words.  Against-votes for one class describe the other class.
_CASE_STUDY_SPEC = (
    (Label.KNOWN, Polarity.POSITIVE, ("england", "cricket", "match", "hit", "six")),
    (Label.KNOWN, Polarity.POSITIVE, ("cricket", "six")),
    (Label.KNOWN, Polarity.NEGATIVE, ("won", "rugby", "ball")),
    (Label.KNOWN, Polarity.NEGATIVE, ("rugby", "match")),
    (Label.NOVEL, Polarity.POSITIVE, ("england", "won", "rugby", "old")),
    (Label.NOVEL, Polarity.POSITIVE, ("rugby", "match", "despite", "old")),
    (Label.NOVEL, Polarity.NEGATIVE, ("cricket", "won", "six", "ball")),
    (Label.NOVEL, Polarity.NEGATIVE, ("cricket", "hit", "six")),
)

EXPECTED_BAG_KNOWN = {
    "cricket": 4,
    "six": 4,
    "hit": 2,
    "england": 1,
    "match": 1,
    "won": 1,
    "ball": 1,
}
EXPECTED_BAG_NOVEL = {
    "rugby": 4,
    "won": 2,
    "match": 2,
    "old": 2,
    "england": 1,
    "despite": 1,
    "ball": 1,
}


def set_clause(bank: ClauseBank, index: int, plain: Sequence[int] = (), negated: Sequence[int] = ()) -> None:
    """Hand-set one clause: listed literals to deep include, the rest deep exclude."""
    row = np.ones(bank.literal_count, dtype=np.int16)
    row[list(plain)] = 2 * bank.state_count
    row[[bank.feature_count + f for f in negated]] = 2 * bank.state_count
    bank._write_rows(np.array([index]), row[None, :])


def extract_clauses_by_row(model: TMModel, vocab: Vocabulary) -> list[ExtractedClause]:
    """Per-row reading of every bank's include actions: the oracle for ``extract_clauses``."""
    if len(vocab) != model.feature_count:
        raise ValueError("vocabulary size != model feature count")
    out: list[ExtractedClause] = []
    half = model.params.clause_count // 2
    o = model.feature_count
    for label in (Label.KNOWN, Label.NOVEL):
        include = model.banks[label].include_mask()
        for j in range(model.params.clause_count):
            plain_idx = np.flatnonzero(include[j, :o])
            negated_idx = np.flatnonzero(include[j, o:])
            if plain_idx.size == 0 and negated_idx.size == 0:
                continue
            out.append(
                ExtractedClause(
                    label=label,
                    polarity=Polarity.POSITIVE if j < half else Polarity.NEGATIVE,
                    index=j,
                    plain_words=frozenset(vocab.words[i] for i in plain_idx),
                    negated_words=frozenset(vocab.words[i] for i in negated_idx),
                )
            )
    return out


def clause_eval(bank: ClauseBank, index: int, bits: np.ndarray, mode: EvalMode) -> bool:
    """Evaluate one clause on one input bit vector."""
    if bits.shape[-1] != bank.feature_count:
        raise ValueError(f"input width {bits.shape[-1]} != clause width {bank.feature_count}")
    return bool(bank.fired(pack_bits(~literal_vector(bits)), mode)[index])


def type_i_feedback(bank: ClauseBank, index: int, bits: np.ndarray, sensitivity: float, rng: np.random.Generator) -> None:
    """Apply Type I feedback to one clause, branching on its learning-mode output."""
    lits = literal_vector(bits)
    row, empty = np.array([index]), np.empty(0, dtype=np.int64)
    forget = _bernoulli_positions(bank.literal_count, 1.0 / sensitivity, rng)
    if bank.fired(pack_bits(~lits), EvalMode.LEARNING)[index]:
        bank.type_i(row, empty, lits, forget)
    else:
        bank.type_i(empty, row, lits, forget)


def type_ii_feedback(bank: ClauseBank, index: int, bits: np.ndarray) -> None:
    """Apply Type II feedback to one clause; the clause must fire on the input."""
    lits = literal_vector(bits)
    if not bank.fired(pack_bits(~lits), EvalMode.LEARNING)[index]:
        raise ValueError("type II feedback requires a firing clause")
    bank.type_ii(np.array([index]), lits)


@dataclass(frozen=True)
class ClassSum:
    """Clause vote sum for one class: clamped at the vote margin, and raw."""

    clamped: int
    raw: int


def classify(model: TMModel, bits: np.ndarray) -> Label:
    """One document's class: the one with the larger vote sum; ties go to KNOWN."""
    return Label.NOVEL if classify_batch(model, bits[None, :])[0] else Label.KNOWN


def predict(model: LogisticModel, features: np.ndarray) -> np.ndarray:
    """Hard logistic decisions: True where the fitted probability is at least 0.5."""
    return model.predict_proba(features) >= 0.5


def class_sum(model: TMModel, bits: np.ndarray, label: Label, mode: EvalMode = EvalMode.INFERENCE) -> ClassSum:
    if bits.shape[-1] != model.feature_count:
        raise ValueError(f"input width {bits.shape[-1]} != model width {model.feature_count}")
    bank = model.banks[label]
    raw = int(bank.vote_sum(bank.fired(pack_bits(~literal_vector(bits)), mode)))
    margin = model.params.vote_margin
    return ClassSum(clamped=max(-margin, min(margin, raw)), raw=raw)


def case_study_vocab() -> Vocabulary:
    return Vocabulary(CASE_STUDY_WORDS)


def case_study_clauses() -> list[ExtractedClause]:
    clauses = []
    index = {Label.KNOWN: {Polarity.POSITIVE: 0, Polarity.NEGATIVE: 2},
             Label.NOVEL: {Polarity.POSITIVE: 0, Polarity.NEGATIVE: 2}}
    for label, polarity, plain in _CASE_STUDY_SPEC:
        clauses.append(
            ExtractedClause(
                label=label,
                polarity=polarity,
                index=index[label][polarity],
                plain_words=frozenset(plain),
                negated_words=frozenset(),
            )
        )
        index[label][polarity] += 1
    return clauses


def case_study_model(seed: int = 0) -> TMModel:
    """Hand-set TA states reproducing the case-study clauses (4 per class)."""
    vocab = case_study_vocab()
    params = TMParams(clause_count=4, vote_margin=5, sensitivity=3.0, state_count=8, seed=seed)
    model = TMModel.create(params, len(vocab), vocab_hash=vocab.sha256())
    next_row = {
        (label, polarity): (0 if polarity is Polarity.POSITIVE else params.clause_count // 2)
        for label in (Label.KNOWN, Label.NOVEL)
        for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE)
    }
    for label, polarity, plain in _CASE_STUDY_SPEC:
        row = next_row[(label, polarity)]
        next_row[(label, polarity)] += 1
        set_clause(model.banks[label], row, plain=[vocab.index_of[w] for w in plain])
    return model
