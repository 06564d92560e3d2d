"""Evaluation machinery: word categories, CFD curves, summary tables,
logistic regression on document score features, and ROC / precision-recall.

Documents are summarized by four features of their per-word scores: mean
log score, max score and fraction of tokens scoring above 1, all three from
``novelty.reduce_scores`` (the same reduction as the ``aggregate`` column of
``doc_scores.csv``), plus scored-token coverage.  A seeded stratified split plus
full-batch logistic regression turns those into a known/novel classifier
whose ranking quality is reported as ROC AUC and average precision.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from statistics import fmean, pstdev
from typing import Mapping, Sequence

import numpy as np

from ._files import atomic_write_text
from .corpus import Label
from .novelty import Aggregator, WordBags, reduce_scores


class WordCategory(str, Enum):
    """Raw bag membership: only known, only novel, or both."""

    KNOWN_ONLY = "known_only"
    NOVEL_ONLY = "novel_only"
    SHARED = "shared"


def categorize_words(bags: WordBags) -> dict[str, WordCategory]:
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


def cfd(scores: Sequence[float], dedup: bool = False) -> list[tuple[float, float]]:
    """Cumulative frequency distribution points, sorted ascending.

    Point k is (value_k, (k+1)/n).  With ``dedup`` each distinct value keeps
    only its final (highest) cumulative fraction, which is the export shape.
    """
    if len(scores) == 0:
        raise ValueError("empty score list")
    ordered = sorted(scores)
    n = len(ordered)
    points = [(float(v), (k + 1) / n) for k, v in enumerate(ordered)]
    if dedup:
        last: dict[float, float] = {}
        for v, frac in points:
            last[v] = frac
        points = sorted(last.items())
    return points


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
    """Four features per document from its per-word scores.

    Columns: mean log score, max score, fraction of tokens with score > 1
    (from ``reduce_scores``, whose log floor keeps scores at or below zero
    finite), and scored-token coverage.  Documents with no scored token get
    all-zero features.
    """
    out = np.zeros((len(token_docs), 4), dtype=np.float64)
    for i, tokens in enumerate(token_docs):
        hits = [word_scores[t] for t in tokens if t in word_scores]
        if not hits:
            continue
        reduced = reduce_scores(hits)
        out[i, 0] = reduced[Aggregator.MEAN_LOG]
        out[i, 1] = reduced[Aggregator.MAX]
        out[i, 2] = reduced[Aggregator.FRACTION_ABOVE_ONE]
        out[i, 3] = len(hits) / len(tokens)
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.clip(z, -500, 500)
    return 1.0 / (1.0 + np.exp(-z))


def logistic_loss_grad(
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    targets: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean log-loss with an L2 term on the weights (bias unpenalized), and its gradient."""
    n = features.shape[0]
    probs = sigmoid(features @ weights + bias)
    eps = 1e-15
    clipped = np.clip(probs, eps, 1.0 - eps)
    loss = -float(np.mean(targets * np.log(clipped) + (1.0 - targets) * np.log(1.0 - clipped)))
    loss += 0.5 * l2 * float(weights @ weights)
    residual = probs - targets
    grad_w = features.T @ residual / n + l2 * weights
    grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b


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


def fit_logistic(
    features: np.ndarray,
    targets: np.ndarray,
    epochs: int = 500,
    learning_rate: float = 0.5,
    l2: float = 1e-4,
) -> LogisticModel:
    """Deterministic full-batch gradient descent on standardized features.

    Zero-variance feature columns are dropped with a warning; both target
    labels must be present.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if set(np.unique(targets)) - {0.0, 1.0}:
        raise ValueError("targets must be binary 0/1")
    if targets.min() == targets.max():
        raise ValueError("both labels required")
    std = features.std(axis=0)
    kept = std > 1e-12
    if not kept.all():
        dropped = np.flatnonzero(~kept).tolist()
        warnings.warn(f"dropping zero-variance feature columns {dropped}", stacklevel=2)
    mean = features[:, kept].mean(axis=0)
    scale = std[kept]
    standardized = (features[:, kept] - mean) / scale
    weights = np.zeros(standardized.shape[1])
    bias = 0.0
    for _ in range(epochs):
        _, grad_w, grad_b = logistic_loss_grad(weights, bias, standardized, targets, l2)
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


def train_test_split(
    labels: Sequence[Label],
    test_fraction: float = 0.3,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified index split; within each label the split is seeded and exact."""
    labels = list(labels)
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in (Label.KNOWN, Label.NOVEL):
        members = np.array([i for i, lab in enumerate(labels) if lab is label])
        if members.size == 0:
            continue
        members = members[rng.permutation(members.size)]
        n_test = int(round(members.size * test_fraction))
        test_idx.extend(members[:n_test].tolist())
        train_idx.extend(members[n_test:].tolist())
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))


@dataclass(frozen=True)
class DiscriminationResult:
    """Held-out ranking quality of a logistic model over document score features."""

    auc: float
    average_precision: float
    test_accuracy: float
    curves: RankingCurves


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_logistic(features[train_idx], targets[train_idx])
    probs = model.predict_proba(features[test_idx])
    curves = roc_pr(probs, targets[test_idx].astype(bool))
    accuracy = float(np.mean((probs >= 0.5) == targets[test_idx].astype(bool)))
    return DiscriminationResult(
        auc=curves.auc,
        average_precision=curves.average_precision,
        test_accuracy=accuracy,
        curves=curves,
    )


@dataclass
class EvalReport:
    """Everything the evaluation stage writes: tables, curves, scalars."""

    category_stats: list[CategoryStats]
    cfd_curves: dict[str, list[tuple[float, float]]]
    tm_result: DiscriminationResult
    tfidf_result: DiscriminationResult
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "category_stats": [
                {"category": r.category, "count": r.count, "mean": r.mean, "stddev": r.stddev}
                for r in self.category_stats
            ],
            "cfd": {name: [[v, f] for v, f in pts] for name, pts in self.cfd_curves.items()},
            "tm": _result_dict(self.tm_result),
            "tfidf": _result_dict(self.tfidf_result),
        }


def _result_dict(result: DiscriminationResult) -> dict:
    return {
        "auc": result.auc,
        "average_precision": result.average_precision,
        "test_accuracy": result.test_accuracy,
    }


def write_report_json(report: EvalReport, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n")


def write_curve_csv(points: Sequence[tuple[float, float]], header: tuple[str, str], path: str | Path) -> None:
    rows = [f"{header[0]},{header[1]}\n"]
    rows.extend(f"{x!r},{y!r}\n" for x, y in points)
    atomic_write_text(path, "".join(rows))
