"""Word categories, CFD, summary stats, logistic regression, ROC/PR."""

import math

import numpy as np
import pytest

from tmnovelty.corpus import Label
from tmnovelty.evaluation import (
    WordCategory,
    categorize_words,
    cfd,
    doc_feature_matrix,
    fit_logistic,
    roc_pr,
    summary_stats,
    train_test_split,
)
from tmnovelty.novelty import WordBags, build_word_bags

from helpers import case_study_model, case_study_vocab, logistic_loss_grad, predict


class TestCategorizeWords:
    @pytest.fixture()
    def bags(self):
        return build_word_bags(case_study_model(), case_study_vocab())

    def test_despite_is_novel_only(self, bags):
        # Absent from the raw known bag even though its smoothed frequency is 1.
        assert categorize_words(bags)["despite"] is WordCategory.NOVEL_ONLY

    def test_match_is_shared(self, bags):
        assert categorize_words(bags)["match"] is WordCategory.SHARED

    def test_empty_novel_bag_blocks_shared_and_novel_only(self):
        bags = WordBags(known={"a": 1, "b": 2}, novel={})
        categories = set(categorize_words(bags).values())
        assert categories == {WordCategory.KNOWN_ONLY}

    def test_partition_is_total(self, bags):
        categories = categorize_words(bags)
        assert set(categories) == set(bags.words())


class TestCfd:
    def test_constant_scores_dedup_modes(self):
        assert cfd([1, 1, 1]) == [(1.0, 1.0)]

    def test_fraction_below_threshold(self):
        points = cfd([1, 2, 3, 4])
        below = max(frac for value, frac in points if value <= 2.5)
        assert below == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cfd([])

    def test_monotone_and_ends_at_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            points = cfd(rng.normal(size=rng.integers(1, 40)).tolist())
            fractions = [f for _, f in points]
            values = [v for v, _ in points]
            assert fractions == sorted(fractions)
            assert values == sorted(values)
            assert fractions[-1] == pytest.approx(1.0)


class TestSummaryStats:
    def test_constant_values(self):
        rows = summary_stats({"cat": [2, 2, 2]})
        assert rows[0].count == 3 and rows[0].mean == 2 and rows[0].stddev == 0

    def test_population_stddev(self):
        rows = summary_stats({"cat": [0, 2]})
        assert rows[0].mean == 1 and rows[0].stddev == 1  # population, not sample

    def test_empty_categories_skipped(self):
        rows = summary_stats({"a": [1.0], "b": []})
        assert [r.category for r in rows] == ["a"]


class TestFitLogistic:
    def test_separable_1d(self):
        features = np.array([[-1.0], [1.0]])
        targets = np.array([0.0, 1.0])
        model = fit_logistic(features, targets)
        assert model.weights[0] > 0
        assert np.array_equal(predict(model, features), np.array([False, True]))

    def test_identical_features_predict_prior(self):
        features = np.ones((10, 2))
        targets = np.array([1.0] * 7 + [0.0] * 3)
        model = fit_logistic(features, targets)
        assert not model.kept.any()
        probs = model.predict_proba(features)
        assert np.allclose(probs, 0.7, atol=0.02)

    def test_gaussian_blobs_accuracy(self):
        # Means 4 sigma apart: the error rate oracle is Phi(-2) ~ 2.3%.
        rng = np.random.default_rng(42)
        n = 400
        x0 = rng.normal(loc=(-2.0, 0.0), scale=1.0, size=(n, 2))
        x1 = rng.normal(loc=(2.0, 0.0), scale=1.0, size=(n, 2))
        features = np.vstack([x0, x1])
        targets = np.array([0.0] * n + [1.0] * n)
        model = fit_logistic(features, targets)
        accuracy = np.mean(predict(model, features) == targets.astype(bool))
        assert accuracy >= 0.95

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both labels"):
            fit_logistic(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]))

    def test_non_binary_targets_rejected(self):
        with pytest.raises(ValueError, match="targets must be binary"):
            fit_logistic(np.array([[1.0], [2.0], [3.0]]), np.array([0.0, 1.0, 2.0]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        features = rng.normal(size=(30, 3))
        targets = (rng.random(30) < 0.5).astype(np.float64)
        l2 = 1e-4
        h = 1e-6
        for _ in range(10):
            w = rng.normal(size=3)
            b = float(rng.normal())
            _, grad_w, grad_b = logistic_loss_grad(w, b, features, targets, l2)
            for k in range(3):
                bump = np.zeros(3)
                bump[k] = h
                hi, _, _ = logistic_loss_grad(w + bump, b, features, targets, l2)
                lo, _, _ = logistic_loss_grad(w - bump, b, features, targets, l2)
                numeric = (hi - lo) / (2 * h)
                assert abs(numeric - grad_w[k]) <= 1e-6 * max(1.0, abs(grad_w[k]))
            hi, _, _ = logistic_loss_grad(w, b + h, features, targets, l2)
            lo, _, _ = logistic_loss_grad(w, b - h, features, targets, l2)
            numeric = (hi - lo) / (2 * h)
            assert abs(numeric - grad_b) <= 1e-6 * max(1.0, abs(grad_b))


class TestRocPr:
    def test_perfect_separation(self):
        curves = roc_pr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert curves.auc == pytest.approx(1.0)
        assert curves.average_precision == pytest.approx(1.0)

    def test_inverted_scores(self):
        curves = roc_pr([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert curves.auc == pytest.approx(0.0)

    def test_all_equal_scores_auc_half(self):
        curves = roc_pr([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert curves.auc == pytest.approx(0.5)
        assert curves.roc_points == [(0.0, 0.0), (1.0, 1.0)]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both labels"):
            roc_pr([0.1, 0.2], [1, 1])

    def test_roc_points_monotone(self):
        rng = np.random.default_rng(2)
        scores = rng.random(50)
        labels = rng.random(50) < 0.4
        labels[0], labels[1] = True, False
        curves = roc_pr(scores, labels)
        fprs = [p[0] for p in curves.roc_points]
        tprs = [p[1] for p in curves.roc_points]
        assert fprs == sorted(fprs) and tprs == sorted(tprs)
        assert curves.roc_points[-1] == (1.0, 1.0)

    def test_auc_equals_pair_counting_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(5, 200))
            scores = np.round(rng.random(n), 2)  # rounding forces ties
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                labels[0] = ~labels[0]
            auc = roc_pr(scores, labels).auc
            pos = scores[labels]
            neg = scores[~labels]
            wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
            oracle = wins / (len(pos) * len(neg))
            assert abs(auc - oracle) <= 1e-9


class TestDocFeatures:
    def test_features_finite_and_shaped(self):
        scores = {"a": 2.0, "b": 0.5}
        features = doc_feature_matrix([["a", "b", "zz"], ["zz"], []], scores)
        assert features.shape == (3, 4)
        assert np.isfinite(features).all()
        # First doc: mean log, max, fraction>1, coverage.
        assert features[0, 0] == pytest.approx((math.log(2.0) + math.log(0.5)) / 2)
        assert features[0, 1] == 2.0
        assert features[0, 2] == 0.5
        assert features[0, 3] == pytest.approx(2 / 3)
        assert np.array_equal(features[1], np.zeros(4))

    def test_nonpositive_scores_floored(self):
        features = doc_feature_matrix([["a"]], {"a": 0.0})
        assert np.isfinite(features[0, 0])


class TestTrainTestSplit:
    def test_stratified_and_disjoint(self):
        labels = [Label.KNOWN] * 10 + [Label.NOVEL] * 10
        train, test = train_test_split(labels, seed=1)
        assert len(train) == 14 and len(test) == 6
        assert set(train) | set(test) == set(range(20))
        assert not set(train) & set(test)
        test_known = sum(1 for i in test if labels[i] is Label.KNOWN)
        assert test_known == 3

    @pytest.mark.parametrize("known,novel", [(1, 1), (1, 5), (5, 0)])
    def test_a_label_too_small_to_split_is_refused(self, known, novel):
        label = "known" if known < 2 else "novel"
        with pytest.raises(ValueError, match=f"{min(known, novel)} {label} document"):
            train_test_split([Label.KNOWN] * known + [Label.NOVEL] * novel)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            train_test_split([Label.KNOWN] * 4 + [Label.NOVEL] * 4, seed=-1)

    def test_seeded_determinism(self):
        labels = [Label.KNOWN] * 7 + [Label.NOVEL] * 5
        a = train_test_split(labels, seed=5)
        b = train_test_split(labels, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
