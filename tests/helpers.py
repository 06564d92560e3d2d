"""Shared fixtures: the sports case-study clauses, a hand-set model and a
model built from any clause list, a bank on its own, single-clause forms of
the clause bank's evaluation and feedback, a bank's full include mask, a
per-row clause extraction oracle, a clause-list word bag oracle, an
allocate-and-concatenate oracle for the 1/s positions, single-document forms
of classification and logistic prediction, the logistic loss with its
gradient, and a call's traced allocation peak."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from tmnovelty.corpus import Label, Vocabulary
from tmnovelty.evaluation import LogisticModel, _logistic_grad, sigmoid
from tmnovelty.novelty import WordBags
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


def clause_bank(clause_count: int, feature_count: int, state_count: int) -> ClauseBank:
    """A fresh bank on its own: the known bank of a model built by ``TMModel.create``."""
    params = TMParams(clause_count=clause_count, vote_margin=1, sensitivity=2.0, state_count=state_count)
    return TMModel.create(params, feature_count).banks[Label.KNOWN]


def set_clause(bank: ClauseBank, index: int, plain: Sequence[int] = (), negated: Sequence[int] = ()) -> None:
    """Hand-set one clause: listed literals to deep include, the rest deep exclude."""
    row = np.ones(bank.literal_count, dtype=np.int16)
    row[list(plain)] = 2 * bank.state_count
    row[[bank.feature_count + f for f in negated]] = 2 * bank.state_count
    bank._write_rows(np.array([index]), row[None, :])


def include_mask(bank: ClauseBank) -> np.ndarray:
    """Boolean (clauses, literals) matrix of a bank's include actions, derived from states."""
    return bank.state > bank.state_count


def bernoulli_positions_concatenated(size: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """``_bernoulli_positions`` with a fresh array per operation: the oracle for its in-place form.

    Same draws and the same float operations in the same order, so the
    positions and the generator's state afterwards must be equal.
    """
    if size <= 0:
        return np.empty(0, dtype=np.int64)
    rate = -math.log1p(-p)
    positions = np.full(1, -1.0)
    while positions[-1] < size:
        expected = (size - 1 - positions[-1]) * p
        gaps = np.floor(rng.standard_exponential(int(expected + 4.0 * math.sqrt(expected)) + 16) / rate)
        positions = np.concatenate([positions, positions[-1] + np.cumsum(gaps + 1.0)])
    return positions[1 : np.searchsorted(positions, size)].astype(np.int64)


def extract_clauses_by_row(model: TMModel, vocab: Vocabulary) -> list[ExtractedClause]:
    """Per-row reading of every bank's include actions: the oracle for ``extract_clauses``."""
    if len(vocab) != model.feature_count:
        raise ValueError("vocabulary size != model feature count")
    out: list[ExtractedClause] = []
    half = model.params.clause_count // 2
    o = model.feature_count
    for label in (Label.KNOWN, Label.NOVEL):
        include = include_mask(model.banks[label])
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


def word_bags_from_clauses(clauses: Sequence[ExtractedClause]) -> WordBags:
    """Route clause word sets into the known/novel bags: the oracle for ``build_word_bags``.

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


def model_from_clauses(
    clauses: Sequence[ExtractedClause], vocab: Vocabulary, params: TMParams | None = None
) -> TMModel:
    """A model whose include actions are exactly the given clauses.

    Each clause takes the next free row of its bank's polarity half, so
    clause indices are not kept.  Without ``params`` each half has room for
    the most crowded (bank, polarity) group, and at least one row.
    """
    if params is None:
        crowd = max([1, *Counter((c.label, c.polarity) for c in clauses).values()])
        params = TMParams(clause_count=2 * crowd, vote_margin=1, sensitivity=2.0, state_count=1)
    half = params.clause_count // 2
    model = TMModel.create(params, len(vocab), vocab_hash=vocab.sha256())
    next_row = {
        (label, polarity): 0 if polarity is Polarity.POSITIVE else half
        for label in (Label.KNOWN, Label.NOVEL)
        for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE)
    }
    for c in clauses:
        row = next_row[(c.label, c.polarity)]
        next_row[(c.label, c.polarity)] += 1
        plain = [vocab.index_of[w] for w in c.plain_words]
        negated = [vocab.index_of[w] for w in c.negated_words]
        set_clause(model.banks[c.label], row, plain=plain, negated=negated)
    return model


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


def logistic_loss_grad(
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    targets: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean log-loss with an L2 term on the weights (bias unpenalized), and the gradient ``fit_logistic`` steps with."""
    probs = sigmoid(features @ weights + bias)
    eps = 1e-15
    clipped = np.clip(probs, eps, 1.0 - eps)
    loss = -float(np.mean(targets * np.log(clipped) + (1.0 - targets) * np.log(1.0 - clipped)))
    loss += 0.5 * l2 * float(weights @ weights)
    return (loss, *_logistic_grad(probs, weights, features, targets, l2))


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
    params = TMParams(clause_count=4, vote_margin=5, sensitivity=3.0, state_count=8, seed=seed)
    return model_from_clauses(case_study_clauses(), case_study_vocab(), params)


def traced_peak(call) -> int:
    """Bytes allocated at the peak of ``call()`` beyond the traced size just before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
