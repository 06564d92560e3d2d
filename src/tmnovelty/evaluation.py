"""Evaluation machinery: word categories, CFD curves, summary tables,
logistic regression on document score features, and ROC / precision-recall.

Documents are summarized by four features of their per-word scores: mean
log score, max score, fraction of tokens scoring above 1 and scored-token
coverage, the tuple ``novelty.score_document`` returns.  Its mean log is
also the ``aggregate`` column of ``doc_scores.csv``, which ``eval`` reads
off the clause-machine ranker's features.  A seeded
stratified split plus full-batch logistic regression, with fixed step
count, step size and L2 weight, turns those into a known/novel classifier
whose ranking quality is reported as ROC AUC and average precision, both
read from the ``RankingCurves`` of the held-out side.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from statistics import fmean, pstdev
from typing import Mapping, Sequence

import numpy as np

from . import novelty
from ._files import atomic_write_text
from .corpus import Label


class WordCategory(str, Enum):
    """Raw bag membership: only known, only novel, or both."""

    KNOWN_ONLY = "known_only"
    NOVEL_ONLY = "novel_only"
    SHARED = "shared"


def categorize_words(bags: novelty.WordBags) -> dict[str, WordCategory]:
    """Partition the scored vocabulary by raw (unsmoothed) bag membership."""
    out: dict[str, WordCategory] = {}
    for word in bags.words():
        in_known = bags.known.get(word, 0) > 0
        in_novel = bags.novel.get(word, 0) > 0
        if in_known and in_novel:
            out[word] = WordCategory.SHARED
        elif in_known:
            out[word] = WordCategory.KNOWN_ONLY
        else:
            out[word] = WordCategory.NOVEL_ONLY
    return out


def cfd(scores: Sequence[float]) -> list[tuple[float, float]]:
    """Cumulative frequency distribution points, one per distinct value, sorted ascending.

    Over the sorted scores v_0 <= ... <= v_(n-1), each distinct value is
    paired with the fraction of scores at or below it: (v_k, (k+1)/n) for
    the last k holding that value.
    """
    if len(scores) == 0:
        raise ValueError("empty score list")
    ordered = sorted(scores)
    n = len(ordered)
    last = {float(v): (k + 1) / n for k, v in enumerate(ordered)}
    return sorted(last.items())


@dataclass(frozen=True)
class CategoryStats:
    category: str
    count: int
    mean: float
    stddev: float  # population standard deviation


def summary_stats(scores_by_category: Mapping[str, Sequence[float]]) -> list[CategoryStats]:
    """Count, arithmetic mean and population stddev per category."""
    rows: list[CategoryStats] = []
    for category in sorted(scores_by_category):
        values = list(scores_by_category[category])
        if not values:
            continue
        rows.append(
            CategoryStats(
                category=category,
                count=len(values),
                mean=fmean(values),
                stddev=pstdev(values),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Document features and logistic regression.
# ---------------------------------------------------------------------------


def doc_feature_matrix(
    token_docs: Sequence[Sequence[str]],
    word_scores: Mapping[str, float],
) -> np.ndarray:
    """Four features per document from its per-word scores: ``novelty.score_document``, one row each.

    Columns: mean log score (its log floor keeps scores at or below zero
    finite), max score, fraction of tokens with score > 1, and scored-token
    coverage.  Documents with no scored token get all-zero features.
    """
    out = np.zeros((len(token_docs), 4), dtype=np.float64)
    table = novelty.ScoreTable(word_scores, {}, {})
    for i, tokens in enumerate(token_docs):
        # Through the module, where a tracer wraps it.
        row = novelty.score_document(tokens, table)
        if row is not None:
            out[i] = row
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.clip(z, -500, 500)
    return 1.0 / (1.0 + np.exp(-z))


def _logistic_grad(
    probs: np.ndarray,
    weights: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    l2: float,
) -> tuple[np.ndarray, float]:
    """Gradient of the mean log-loss plus ``l2 / 2 * |weights|^2`` at the predicted probabilities: (weights, bias)."""
    residual = probs - targets
    return features.T @ residual / features.shape[0] + l2 * weights, float(np.mean(residual))


@dataclass
class LogisticModel:
    """Standardized-feature logistic regression fit by full-batch gradient descent."""

    weights: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    kept: np.ndarray  # boolean mask of non-degenerate feature columns

    def _transform(self, features: np.ndarray) -> np.ndarray:
        return (features[:, self.kept] - self.feature_mean) / self.feature_scale

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return sigmoid(self._transform(features) @ self.weights + self.bias)


def fit_logistic(features: np.ndarray, targets: np.ndarray) -> LogisticModel:
    """Deterministic full-batch gradient descent on standardized features: 500 steps of 0.5, L2 1e-4.

    Zero-variance feature columns are dropped, and the model's ``kept``
    mask shows which; both target labels must be present.
    """
    epochs, learning_rate, l2 = 500, 0.5, 1e-4
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if set(targets.tolist()) - {0.0, 1.0}:  # not np.unique, which imports numpy.ma
        raise ValueError("targets must be binary 0/1")
    if targets.min() == targets.max():
        raise ValueError("both labels required")
    std = features.std(axis=0)
    kept = std > 1e-12
    mean = features[:, kept].mean(axis=0)
    scale = std[kept]
    standardized = (features[:, kept] - mean) / scale
    weights = np.zeros(standardized.shape[1])
    bias = 0.0
    for _ in range(epochs):
        probs = sigmoid(standardized @ weights + bias)
        grad_w, grad_b = _logistic_grad(probs, weights, standardized, targets, l2)
        weights -= learning_rate * grad_w
        bias -= learning_rate * grad_b
    return LogisticModel(weights=weights, bias=bias, feature_mean=mean, feature_scale=scale, kept=kept)


# ---------------------------------------------------------------------------
# Ranking curves.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankingCurves:
    """ROC and precision-recall summaries of a score ranking."""

    roc_points: list[tuple[float, float]]  # (fpr, tpr), monotone, (0,0) .. (1,1)
    auc: float
    pr_points: list[tuple[float, float]]  # (recall, precision)
    average_precision: float


def roc_pr(scores: Sequence[float], targets: Sequence[bool | int]) -> RankingCurves:
    """Sweep thresholds over the unique scores, grouping ties.

    AUC integrates the ROC by trapezoid; average precision integrates
    precision over recall steps.
    """
    y = np.asarray(targets, dtype=bool)
    s = np.asarray(scores, dtype=np.float64)
    pos_total = int(y.sum())
    neg_total = int((~y).sum())
    if pos_total == 0 or neg_total == 0:
        raise ValueError("both labels required")
    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    # Indices where a tie block of equal scores ends.
    block_ends = np.flatnonzero(np.diff(s_sorted) != 0)
    block_ends = np.append(block_ends, len(s_sorted) - 1)
    tp = np.cumsum(y_sorted)[block_ends]
    fp = np.cumsum(~y_sorted)[block_ends]
    tpr = tp / pos_total
    fpr = fp / neg_total
    roc = [(0.0, 0.0)] + list(zip(fpr.tolist(), tpr.tolist()))
    auc = float(np.trapezoid([p[1] for p in roc], [p[0] for p in roc]))
    precision = tp / (tp + fp)
    recall = tpr
    pr = list(zip(recall.tolist(), precision.tolist()))
    prev_recall = 0.0
    ap = 0.0
    for r, p in pr:
        ap += (r - prev_recall) * p
        prev_recall = r
    return RankingCurves(roc_points=roc, auc=auc, pr_points=pr, average_precision=float(ap))


# ---------------------------------------------------------------------------
# End-to-end discrimination benchmark and report assembly.
# ---------------------------------------------------------------------------


# The share of each label's documents held out to test on.
TEST_FRACTION = 0.3


def train_test_split(labels: Sequence[Label], seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Stratified index split; within each label the split is seeded and exact.

    Each label must put at least one document on each side.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    labels = list(labels)
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in (Label.KNOWN, Label.NOVEL):
        members = np.array([i for i, lab in enumerate(labels) if lab is label])
        n_test = int(round(members.size * TEST_FRACTION))
        if not 0 < n_test < members.size:
            raise ValueError(f"{members.size} {label.value} document(s) cannot be split for held-out evaluation (need 2)")
        members = members[rng.permutation(members.size)]
        test_idx.extend(members[:n_test].tolist())
        train_idx.extend(members[n_test:].tolist())
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))


@dataclass(frozen=True)
class DiscriminationResult:
    """Held-out ranking quality of a logistic model over document score features."""

    test_accuracy: float
    curves: RankingCurves
    features: np.ndarray = field(repr=False, compare=False)  # every document's, as fitted and tested on


def score_discrimination(
    token_docs: Sequence[Sequence[str]],
    labels: Sequence[Label],
    word_scores: Mapping[str, float],
    seed: int = 0,
) -> DiscriminationResult:
    """Split, featurize, fit logistic on the train side, and rank the test side."""
    features = doc_feature_matrix(token_docs, word_scores)
    targets = np.array([lab is Label.NOVEL for lab in labels], dtype=np.float64)
    train_idx, test_idx = train_test_split(labels, seed=seed)
    model = fit_logistic(features[train_idx], targets[train_idx])
    probs = model.predict_proba(features[test_idx])
    curves = roc_pr(probs, targets[test_idx].astype(bool))
    accuracy = float(np.mean((probs >= 0.5) == targets[test_idx].astype(bool)))
    return DiscriminationResult(test_accuracy=accuracy, curves=curves, features=features)


def write_report_json(
    path: str | Path,
    seed: int,
    category_stats: Sequence[CategoryStats],
    cfd_curves: Mapping[str, Sequence[tuple[float, float]]],
    tm_result: DiscriminationResult,
    tfidf_result: DiscriminationResult,
) -> None:
    """report.json: the split seed, per-category stats, CFD points, and each method's held-out scores."""
    report = {
        "seed": seed,
        "category_stats": [asdict(r) for r in category_stats],
        "cfd": {name: [list(point) for point in points] for name, points in cfd_curves.items()},
    }
    for name, result in (("tm", tm_result), ("tfidf", tfidf_result)):
        report[name] = {
            "auc": result.curves.auc,
            "average_precision": result.curves.average_precision,
            "test_accuracy": result.test_accuracy,
        }
    atomic_write_text(path, json.dumps(report, sort_keys=True, indent=2) + "\n")
