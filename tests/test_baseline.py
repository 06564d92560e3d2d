"""TF-IDF protocol: per-class TF, global IDF, and the brute-force oracle."""

import math

import numpy as np
import pytest

from tmnovelty.baseline import tfidf_scores, write_tfidf_table
from tmnovelty.corpus import Label, corpus_stats


def brute_force_scores(labeled_docs):
    """Independent oracle: evaluate the definition term by term, per class."""
    all_words = sorted({w for _, tokens in labeled_docs for w in tokens})
    total_docs = len(labeled_docs)
    out = {Label.KNOWN: {}, Label.NOVEL: {}}
    for label in (Label.KNOWN, Label.NOVEL):
        class_tokens = [t for lab, tokens in labeled_docs if lab is label for t in tokens]
        for word in all_words:
            term_count = sum(1 for t in class_tokens if t == word)
            if term_count == 0:
                continue
            containing = sum(1 for _, tokens in labeled_docs if word in tokens)
            tf = term_count / len(class_tokens)
            idf = math.log2(total_docs / (containing + 1))
            out[label][word] = tf * idf
    return out


class TestTfidfScores:
    def test_word_in_every_document_has_negative_idf(self):
        docs = [(Label.KNOWN, ["x", "a"]), (Label.KNOWN, ["x"]),
                (Label.NOVEL, ["x", "b"]), (Label.NOVEL, ["x"])]
        table = tfidf_scores(corpus_stats(docs))
        assert table.idf["x"] == pytest.approx(math.log2(4 / 5))
        assert table.idf["x"] < 0

    def test_word_absent_from_class_scores_zero(self):
        docs = [(Label.KNOWN, ["a"]), (Label.NOVEL, ["b"])]
        table = tfidf_scores(corpus_stats(docs))
        assert table.score(Label.NOVEL, "a") == 0.0
        assert table.score(Label.KNOWN, "b") == 0.0

    def test_single_document_hand_value(self):
        # One doc ["a","b"] per class: tf = 1/2, idf = log2(2/3) for both words.
        docs = [(Label.KNOWN, ["a", "b"]), (Label.NOVEL, ["a", "b"])]
        table = tfidf_scores(corpus_stats(docs))
        for label in (Label.KNOWN, Label.NOVEL):
            assert table.score(label, "a") == pytest.approx(0.5 * math.log2(2 / 3))
            assert table.score(label, "b") == pytest.approx(0.5 * math.log2(2 / 3))

    def test_empty_class_rejected(self):
        stats = corpus_stats([(Label.KNOWN, ["a"])])
        with pytest.raises(ValueError, match="empty class"):
            tfidf_scores(stats)

    def test_tf_normalization(self):
        rng = np.random.default_rng(0)
        docs = []
        for i in range(6):
            label = Label.KNOWN if i % 2 == 0 else Label.NOVEL
            tokens = [f"w{rng.integers(8)}" for _ in range(rng.integers(3, 9))]
            docs.append((label, tokens))
        stats = corpus_stats(docs)
        for label in (Label.KNOWN, Label.NOVEL):
            total = sum(
                count / stats.per_class_total_freq[label]
                for count in stats.per_class_term_freq[label].values()
            )
            assert total == pytest.approx(1.0)

    def test_idf_strictly_decreases_with_document_frequency(self):
        docs = [
            (Label.KNOWN, ["rare", "mid", "common"]),
            (Label.KNOWN, ["mid", "common"]),
            (Label.NOVEL, ["common"]),
            (Label.NOVEL, ["common", "mid"]),
        ]
        table = tfidf_scores(corpus_stats(docs))
        assert table.idf["rare"] > table.idf["mid"] > table.idf["common"]

    def test_brute_force_oracle_equivalence(self):
        rng = np.random.default_rng(1234)
        words = [f"w{i}" for i in range(10)]
        for _ in range(100):
            docs = []
            for d in range(5):
                label = Label.KNOWN if d < 3 else Label.NOVEL
                tokens = [words[rng.integers(10)] for _ in range(rng.integers(1, 8))]
                docs.append((label, tokens))
            table = tfidf_scores(corpus_stats(docs))
            oracle = brute_force_scores(docs)
            for label in (Label.KNOWN, Label.NOVEL):
                for word, expected in oracle[label].items():
                    assert abs(table.score(label, word) - expected) < 1e-12

    def test_csv_export(self, tmp_path):
        docs = [(Label.KNOWN, ["a", "b"]), (Label.NOVEL, ["b", "c"])]
        stats = corpus_stats(docs)
        table = tfidf_scores(stats)
        path = tmp_path / "tfidf.csv"
        write_tfidf_table(table, stats, path)
        lines = path.read_text("utf-8").splitlines()
        assert lines[0] == "word,tf_known,tf_novel,idf,score_known,score_novel"
        assert len(lines) == 4
