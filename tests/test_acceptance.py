"""Acceptance suite: one test (or test pair) per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v``; a per-criterion PASS/FAIL
summary is printed at the end of the session (see conftest).
"""

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from tmnovelty.baseline import tfidf_scores
from tmnovelty.cli import EXIT_OK, main
from tmnovelty.config import PROFILES, RunConfig
from tmnovelty.corpus import BoolDoc, Label, booleanize, build_vocabulary, corpus_stats
from tmnovelty.evaluation import (
    WordCategory,
    categorize_words,
    cfd,
    logistic_loss_grad,
    roc_pr,
    score_discrimination,
    train_test_split,
)
from tmnovelty.novelty import (
    WordBags,
    build_word_bags,
    contextual_score,
    cooccurrence,
    novelty_scores,
)
from synthetic import SyntheticConfig, generate_corpus
from tmnovelty.tsetlin import ExtractedClause, Polarity, TMModel, TMParams, extract_clauses, fit

from helpers import EXPECTED_BAG_KNOWN, EXPECTED_BAG_NOVEL, case_study_clauses

SEEDS = range(10)
DESK = PROFILES["desk"]


# ---------------------------------------------------------------------------
# Criterion 1: the case-study golden values.
# ---------------------------------------------------------------------------


class TestC1CaseStudy:
    def test_c1_case_study_golden(self):
        start = time.perf_counter()
        bags = build_word_bags(case_study_clauses())

        assert dict(bags.known) == EXPECTED_BAG_KNOWN
        assert dict(bags.novel) == EXPECTED_BAG_NOVEL
        assert bags.total_known == 14
        assert bags.total_novel == 13

        table = novelty_scores(bags)
        assert abs(table.rel_freq_known["match"] - 0.071) <= 0.001
        assert abs(table.rel_freq_novel["match"] - 0.154) <= 0.001
        assert abs(table.rel_freq_known["rugby"] - 0.071) <= 0.001

        golden = {
            "england": 1.070,
            "won": 2.169,
            "cricket": 0.271,
            "match": 2.169,
            "hit": 0.535,
            "six": 0.271,
            "ball": 1.070,
        }
        for word, printed in golden.items():
            assert abs(table.scores[word] - printed) <= 0.02, word

        # The remaining two printed values are inconsistent with their own
        # frequency table; the hand-ratio oracle is authoritative for them.
        rugby_oracle = Fraction(4, 13) / Fraction(1, 14)  # ~ 4.31, printed 4.651
        old_oracle = Fraction(2, 13) / Fraction(1, 14)  # ~ 2.15, printed 2.31
        assert table.scores["rugby"] == pytest.approx(float(rugby_oracle), abs=1e-9)
        assert table.scores["old"] == pytest.approx(float(old_oracle), abs=1e-9)

        assert time.perf_counter() - start < 1.0

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the golden table's printed 1.15 for 'despite' is inconsistent with "
            "its own frequencies: both 'despite' and 'hit' have the same novel-"
            "side count and known-side counts 1 vs 2, so score('despite') == "
            "2*score('hit') for any common-denominator smoothing; with "
            "score('hit') pinned near 0.535 no scheme can also reach 1.15; the "
            "hand ratio gives 14/13 ~ 1.077"
        ),
    )
    def test_c1_despite_printed_value(self):
        table = novelty_scores(build_word_bags(case_study_clauses()))
        assert abs(table.scores["despite"] - 1.15) <= 0.02


# ---------------------------------------------------------------------------
# Criterion 2: XOR learnability.
# ---------------------------------------------------------------------------


def _xor_docs():
    docs = []
    for i, (x1, x2) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        label = Label.NOVEL if x1 ^ x2 else Label.KNOWN
        for k in range(100):
            docs.append(BoolDoc(f"xor{i}_{k}", label, np.array([x1, x2], dtype=bool)))
    return docs


def test_c2_xor_learnability():
    start = time.perf_counter()
    successes = 0
    for seed in SEEDS:
        params = TMParams(clause_count=20, vote_margin=10, sensitivity=3.0, state_count=128, seed=seed)
        model = TMModel.create(params, 2)
        _, trace = fit(model, _xor_docs(), epochs=200, early_stop_accuracy=1.0)
        successes += trace[-1] == 1.0
    elapsed = time.perf_counter() - start
    assert successes >= 9, f"only {successes}/10 seeds reached 100% training accuracy"
    assert elapsed < 10.0, f"XOR runs took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criteria 3, 4, 6 share ten trained desk-profile models on the synthetic
# corpus (70/30 split); the fixture's build time is charged to criterion 3.
# ---------------------------------------------------------------------------


@dataclass
class SyntheticRun:
    seed: int
    corpus: object
    table: object
    categories: dict
    clauses: list
    clause_count: int
    tfidf_novel: dict


@pytest.fixture(scope="session")
def synthetic_runs():
    runs = []
    start = time.perf_counter()
    for seed in SEEDS:
        corpus = generate_corpus(SyntheticConfig(), seed=seed)
        vocab = build_vocabulary(corpus.docs)
        train_idx, _ = train_test_split(corpus.labels, test_fraction=0.3, seed=seed)
        train_docs = [
            BoolDoc(f"d{i}", corpus.labels[i], booleanize(corpus.docs[i], vocab))
            for i in train_idx
        ]
        params = TMParams(
            clause_count=DESK["clauses"],
            vote_margin=DESK["vote_margin"],
            sensitivity=DESK["sensitivity"],
            state_count=128,
            seed=seed,
        )
        model = TMModel.create(params, len(vocab))
        fit(model, train_docs, epochs=DESK["epochs"])
        clauses = extract_clauses(model, vocab)
        bags = build_word_bags(clauses)
        table = novelty_scores(bags)
        stats = corpus_stats([(corpus.labels[i], corpus.docs[i]) for i in train_idx])
        tfidf = tfidf_scores(stats)
        runs.append(
            SyntheticRun(
                seed=seed,
                corpus=corpus,
                table=table,
                categories=categorize_words(bags),
                clauses=clauses,
                clause_count=params.clause_count,
                tfidf_novel={w: tfidf.score(Label.NOVEL, w) for w in stats.doc_count_containing},
            )
        )
    return runs, time.perf_counter() - start


def test_c3_score_separation(synthetic_runs):
    runs, build_time = synthetic_runs
    successes = 0
    for run in runs:
        known_only = [w for w, c in run.categories.items() if c is WordCategory.KNOWN_ONLY]
        novel_only = [w for w, c in run.categories.items() if c is WordCategory.NOVEL_ONLY]
        if not known_only or not novel_only:
            continue
        frac_known_low = np.mean([run.table.scores[w] < 1.0 for w in known_only])
        frac_novel_high = np.mean([run.table.scores[w] > 1.0 for w in novel_only])
        successes += frac_known_low >= 0.8 and frac_novel_high >= 0.6
    assert successes >= 8, f"separation held for only {successes}/10 seeds"
    assert build_time < 120.0, f"training the ten models took {build_time:.0f}s"


def test_c4_discrimination_superiority(synthetic_runs):
    runs, _ = synthetic_runs
    start = time.perf_counter()
    successes = 0
    for run in runs:
        tm = score_discrimination(run.corpus.docs, run.corpus.labels, run.table.scores, seed=run.seed)
        tfidf = score_discrimination(run.corpus.docs, run.corpus.labels, run.tfidf_novel, seed=run.seed)
        successes += tm.auc >= tfidf.auc and tm.auc >= 0.85
    elapsed = time.perf_counter() - start
    assert successes >= 8, f"clause scores beat TF-IDF for only {successes}/10 seeds"
    assert elapsed < 180.0


def test_c6_contextual_ordering(synthetic_runs):
    runs, _ = synthetic_runs
    start = time.perf_counter()
    successes = 0
    for run in runs:
        co = cooccurrence(run.clauses, Label.NOVEL, clause_count=run.clause_count)
        try:
            planted = contextual_score(co, run.table, *run.corpus.novel_pair)
            cross = contextual_score(
                co, run.table, run.corpus.novel_pair[0], run.corpus.known_pair[0]
            )
        except KeyError:
            continue
        successes += planted > cross
    elapsed = time.perf_counter() - start
    assert successes >= 9, f"planted pair won for only {successes}/10 seeds"
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 5: TF-IDF oracle equivalence.
# ---------------------------------------------------------------------------


def test_c5_tfidf_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    words = [f"w{i}" for i in range(12)]
    for _ in range(100):
        docs = []
        for d in range(5):
            label = Label.KNOWN if d < 3 else Label.NOVEL
            tokens = [words[rng.integers(len(words))] for _ in range(rng.integers(1, 9))]
            docs.append((label, tokens))
        table = tfidf_scores(corpus_stats(docs))
        total_docs = len(docs)
        for label in (Label.KNOWN, Label.NOVEL):
            class_tokens = [t for lab, tokens in docs if lab is label for t in tokens]
            for word in set(class_tokens):
                term_count = sum(1 for t in class_tokens if t == word)
                containing = sum(1 for _, tokens in docs if word in tokens)
                expected = (term_count / len(class_tokens)) * math.log2(total_docs / (containing + 1))
                assert abs(table.score(label, word) - expected) < 1e-12
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# Criterion 7: determinism and the randomized property bundle.
# ---------------------------------------------------------------------------


def test_c7_determinism_and_properties(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(707)

    # Seed-identical training -> byte-identical model files.
    docs = [
        BoolDoc(f"d{i}", Label.NOVEL if i % 2 else Label.KNOWN, rng.random(8) < 0.5)
        for i in range(30)
    ]
    paths = []
    for run in range(2):
        params = TMParams(clause_count=12, vote_margin=6, sensitivity=2.5, state_count=16, seed=321)
        model = TMModel.create(params, 8)
        fit(model, docs, epochs=8)
        path = tmp_path / f"model{run}.tm"
        model.save(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    # TA state bounds after random feedback streams.
    for trial in range(5):
        n_states = int(rng.integers(1, 6))
        params = TMParams(
            clause_count=8, vote_margin=3, sensitivity=1.5, state_count=n_states, seed=trial
        )
        model = TMModel.create(params, 5)
        noisy = [
            BoolDoc(f"n{i}", Label.NOVEL if rng.random() < 0.5 else Label.KNOWN, rng.random(5) < 0.5)
            for i in range(24)
        ]
        noisy[0].label, noisy[1].label = Label.KNOWN, Label.NOVEL
        fit(model, noisy, epochs=6)
        for label in (Label.KNOWN, Label.NOVEL):
            state = model.banks[label].state
            assert state.min() >= 1 and state.max() <= 2 * n_states

    # Bag conservation over random clause lists.
    vocab_sample = ["a", "b", "c", "d", "e", "f"]
    for _ in range(50):
        clauses = []
        for j in range(int(rng.integers(0, 10))):
            plain = {w for w in vocab_sample if rng.random() < 0.3}
            negated = {w for w in vocab_sample if rng.random() < 0.3}
            clauses.append(
                ExtractedClause(
                    label=Label.KNOWN if rng.random() < 0.5 else Label.NOVEL,
                    polarity=Polarity.POSITIVE if rng.random() < 0.5 else Polarity.NEGATIVE,
                    index=j,
                    plain_words=frozenset(plain),
                    negated_words=frozenset(negated),
                )
            )
        bags = build_word_bags(clauses)
        assert bags.total_known + bags.total_novel == sum(
            len(c.plain_words) + len(c.negated_words) for c in clauses
        )

    # Score reciprocity.
    for _ in range(30):
        known = {w: int(rng.integers(1, 9)) for w in vocab_sample if rng.random() < 0.7}
        novel = {w: int(rng.integers(1, 9)) for w in vocab_sample if rng.random() < 0.7}
        if not known or not novel:
            continue
        forward = novelty_scores(WordBags(known=known, novel=novel))
        backward = novelty_scores(WordBags(known=novel, novel=known))
        for word, score in forward.scores.items():
            assert backward.scores[word] == pytest.approx(1.0 / score)

    # CFD monotonicity.
    for _ in range(20):
        points = cfd(rng.normal(size=int(rng.integers(1, 60))).tolist())
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions) and fractions[-1] == pytest.approx(1.0)

    # AUC equals the pair-counting oracle to 1e-9.
    for _ in range(20):
        n = int(rng.integers(4, 200))
        scores = np.round(rng.random(n), 2)
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        auc = roc_pr(scores, labels).auc
        pos, neg = scores[labels], scores[~labels]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        assert abs(auc - wins / (len(pos) * len(neg))) <= 1e-9

    # Logistic gradient vs central finite differences, 1e-6 relative.
    features = rng.normal(size=(40, 4))
    targets = (rng.random(40) < 0.5).astype(np.float64)
    h = 1e-6
    for _ in range(10):
        w = rng.normal(size=4)
        b = float(rng.normal())
        _, grad_w, grad_b = logistic_loss_grad(w, b, features, targets, 1e-4)
        for k in range(4):
            bump = np.zeros(4)
            bump[k] = h
            hi, _, _ = logistic_loss_grad(w + bump, b, features, targets, 1e-4)
            lo, _, _ = logistic_loss_grad(w - bump, b, features, targets, 1e-4)
            assert abs((hi - lo) / (2 * h) - grad_w[k]) <= 1e-6 * max(1.0, abs(grad_w[k]))
        hi, _, _ = logistic_loss_grad(w, b + h, features, targets, 1e-4)
        lo, _, _ = logistic_loss_grad(w, b - h, features, targets, 1e-4)
        assert abs((hi - lo) / (2 * h) - grad_b) <= 1e-6 * max(1.0, abs(grad_b))

    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# Criterion 8: not a gate; loaders and the full profile must simply run.
# ---------------------------------------------------------------------------


def test_c8_full_profile_instantiates():
    config = RunConfig()
    assert (config.clauses, config.vote_margin, config.sensitivity, config.epochs) == (
        10_000, 50, 25.0, 100,
    )
    model = TMModel.create(config.tm_params(), feature_count=30)
    assert model.banks[Label.KNOWN].state.shape == (10_000, 60)


@pytest.mark.parametrize(
    "env_var,known_groups,novel_groups",
    [
        ("TMNOVELTY_BBC_DIR", "cricket;football", "rugby"),
        ("TMNOVELTY_NEWSGROUPS_DIR", "comp.graphics;talk.politics.guns", "rec.sport.baseball"),
    ],
)
def test_c8_real_dataset_smoke(tmp_path, env_var, known_groups, novel_groups):
    root = os.environ.get(env_var)
    if not root:
        pytest.skip(f"{env_var} not set; real-dataset smoke run needs the dataset on disk")
    out = ["--out", str(tmp_path / "smoke")]
    stages = {
        "ingest": ["--data-root", root, "--known-groups", known_groups, "--novel-groups", novel_groups],
        "train": ["--profile", "full", "--epochs", "1"],  # smoke: one pass through the full-size clause pools
        "describe": [],
        "tfidf": [],
        "eval": [],
    }
    for command, flags in stages.items():
        assert main([command, *flags, *out]) == EXIT_OK, command
