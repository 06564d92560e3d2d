"""Tokenization, stemming, vocabulary, booleanization, stats, and file formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmnovelty.corpus import (
    BoolDoc,
    Label,
    Vocabulary,
    booleanize,
    build_vocabulary,
    corpus_stats,
    load_stopwords,
    normalize,
    read_booldocs,
    read_class_dirs,
    read_csv_corpus,
    read_tokens,
    read_vocabulary,
    stem,
    tokenize,
    write_booldocs,
    write_tokens,
    write_vocabulary,
)
from synthetic import _word_series

from helpers import CASE_STUDY_WORDS

KNOWN_SENTENCE = "England won the cricket match by hitting six in the last ball."
NOVEL_SENTENCE = "England won the rugby match despite using old ball."
CASE_STUDY_STOPLIST = frozenset({"the", "by", "in", "last", "using"})

KNOWN_WORDS = ["england", "won", "cricket", "match", "hit", "six", "ball"]
NOVEL_WORDS = ["england", "won", "rugby", "match", "despite", "old", "ball"]


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("England won!") == ["england", "won"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_non_alphabetic_separators(self):
        # Oracle: regex split on non-alphabetic, checked by hand.
        assert tokenize("six-in the last ball.") == ["six", "in", "the", "last", "ball"]

    def test_digits_separate(self):
        assert tokenize("a1b 42 c") == ["a", "b", "c"]

    def test_ascii_folding(self):
        assert tokenize("café naïve") == ["cafe", "naive"]


class TestStem:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("matches", "match"),
            ("dogs", "dog"),
            ("hitting", "hit"),
            ("running", "run"),
            ("falling", "fall"),  # trailing 'll' kept
            ("missed", "miss"),  # trailing 'ss' kept
            ("won", "won"),
            ("as", "as"),  # too short to strip
            ("using", "using"),  # stem would drop below 3 chars
        ],
    )
    def test_suffix_rules(self, token, expected):
        assert stem(token) == expected


class TestNormalize:
    def test_stopword_removal_and_stemming(self):
        assert normalize(["the", "cricket", "matches"], {"the"}) == ["cricket", "match"]

    def test_noop(self):
        assert normalize(["won"], frozenset()) == ["won"]

    def test_all_stopwords(self):
        assert normalize(["the", "a", "an"], {"the", "a", "an"}) == []

    def test_case_study_sentences(self):
        known = normalize(tokenize(KNOWN_SENTENCE), CASE_STUDY_STOPLIST)
        novel = normalize(tokenize(NOVEL_SENTENCE), CASE_STUDY_STOPLIST)
        assert known == KNOWN_WORDS
        assert novel == NOVEL_WORDS

    def test_bundled_stoplist_loads(self):
        stoplist = load_stopwords()
        assert "the" in stoplist and "cricket" not in stoplist
        assert len(stoplist) > 100


def test_synthetic_word_names_widen_past_two_letters():
    words = _word_series("kw", 5000)
    assert len(set(words)) == 5000
    letters = "abcdefghijklmnopqrstuvwxyz"
    assert words[:676] == ["kw" + letters[i // 26] + letters[i % 26] + "x" for i in range(676)]
    assert normalize(tokenize(" ".join(words)), load_stopwords()) == words


class TestBuildVocabulary:
    def test_union(self):
        vocab = build_vocabulary([["a", "b"], ["b", "c"]], min_df=1)
        assert vocab.words == ("a", "b", "c")

    def test_min_df_filter(self):
        vocab = build_vocabulary([["a", "b"], ["b", "c"]], min_df=2)
        assert vocab.words == ("b",)

    def test_case_study_has_ten_unique_words(self):
        vocab = build_vocabulary([KNOWN_WORDS, NOVEL_WORDS])
        assert len(vocab) == 10
        assert vocab.words == CASE_STUDY_WORDS

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary([])

    def test_lexicographic_regardless_of_insertion(self):
        a = build_vocabulary([["z", "m", "a"]])
        b = build_vocabulary([["a"], ["m"], ["z"]])
        assert a.words == b.words == ("a", "m", "z")

    @pytest.mark.parametrize("max_features", [0, -1])
    def test_max_features_below_one_rejected(self, max_features):
        with pytest.raises(ValueError, match="max_features"):
            build_vocabulary([["a", "b"], ["b", "c"]], max_features=max_features)

    def test_max_features_keeps_most_frequent(self):
        docs = [["a", "b"], ["b", "c"], ["b", "c"]]
        vocab = build_vocabulary(docs, max_features=2)
        assert vocab.words == ("b", "c")

    def test_index_roundtrip(self):
        vocab = build_vocabulary([["b", "a", "c"]])
        for i, w in enumerate(vocab.words):
            assert vocab.index_of[w] == i


class TestBooleanize:
    def test_case_study_known_sentence_sets_seven_bits(self):
        vocab = build_vocabulary([KNOWN_WORDS, NOVEL_WORDS])
        bits = booleanize(KNOWN_WORDS, vocab)
        assert bits.sum() == 7

    def test_out_of_vocabulary_ignored(self):
        vocab = build_vocabulary([["a", "b"]])
        assert booleanize(["zzz"], vocab).sum() == 0

    def test_set_semantics(self):
        vocab = build_vocabulary([["ball", "six"]])
        bits = booleanize(["ball", "ball"], vocab)
        assert bits.tolist() == [True, False]

    def test_round_trip_property(self):
        vocab = build_vocabulary([["a", "b", "c", "d"]])
        doc = ["c", "a", "zz", "c"]
        bits = booleanize(doc, vocab)
        recovered = {vocab.words[i] for i in np.flatnonzero(bits)}
        assert recovered == {t for t in doc if t in vocab}

    @given(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "oov"]), max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property_random(self, doc):
        vocab = Vocabulary(("a", "b", "c", "d", "e"))
        bits = booleanize(doc, vocab)
        assert {vocab.words[i] for i in np.flatnonzero(bits)} == {t for t in doc if t in vocab}


class TestCorpusStats:
    def test_single_doc_counts(self):
        stats = corpus_stats([(Label.KNOWN, ["a", "a", "b"])])
        assert stats.per_class_term_freq[Label.KNOWN]["a"] == 2
        assert stats.per_class_total_freq[Label.KNOWN] == 3
        assert stats.doc_count_total == 1
        assert stats.doc_count_containing["a"] == 1

    def test_document_frequency_counts_presence(self):
        stats = corpus_stats([(Label.KNOWN, ["a", "a"]), (Label.NOVEL, ["a", "b"])])
        assert stats.doc_count_containing["a"] == 2

    def test_case_study_totals(self):
        # Seven tokens per sentence, counted by hand from the word lists.
        stats = corpus_stats([(Label.KNOWN, KNOWN_WORDS), (Label.NOVEL, NOVEL_WORDS)])
        assert stats.per_class_total_freq[Label.KNOWN] == 7
        assert stats.per_class_total_freq[Label.NOVEL] == 7

    def test_totals_match_term_freq_sums(self):
        stats = corpus_stats([(Label.KNOWN, ["a", "b", "b"]), (Label.NOVEL, ["c"])])
        for label in (Label.KNOWN, Label.NOVEL):
            assert sum(stats.per_class_term_freq[label].values()) == stats.per_class_total_freq[label]


class TestDeterminism:
    def test_identical_corpus_identical_outputs(self):
        docs = [["b", "a"], ["c", "a"]]
        v1 = build_vocabulary(docs)
        v2 = build_vocabulary(list(reversed(docs)))
        assert v1.words == v2.words
        assert np.array_equal(booleanize(docs[0], v1), booleanize(docs[0], v2))

    def test_vocab_hash_stable(self):
        v = build_vocabulary([["a", "b"]])
        assert v.sha256() == build_vocabulary([["b"], ["a"]]).sha256()


class TestLoadersAndExports:
    def test_class_dirs_loader(self, tmp_path):
        (tmp_path / "known").mkdir()
        (tmp_path / "novel").mkdir()
        (tmp_path / "known" / "k1.txt").write_text("cricket match", "utf-8")
        (tmp_path / "novel" / "n1.txt").write_text("rugby match", "utf-8")
        docs = read_class_dirs(tmp_path / "known", tmp_path / "novel")
        assert [(d[0], d[1]) for d in docs] == [
            ("known/k1.txt", Label.KNOWN),
            ("novel/n1.txt", Label.NOVEL),
        ]

    def test_class_dirs_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_class_dirs(tmp_path / "nope", tmp_path / "nope2")

    def test_csv_loader(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("doc_id,label,text\nd1,known,cricket\nd2,novel,rugby\n", "utf-8")
        docs = read_csv_corpus(path)
        assert docs[0] == ("d1", Label.KNOWN, "cricket")
        assert docs[1][1] is Label.NOVEL

    def test_vocabulary_round_trip(self, tmp_path):
        vocab = build_vocabulary([["a", "b", "c"]])
        path = tmp_path / "vocab.txt"
        write_vocabulary(vocab, path)
        assert read_vocabulary(path).words == vocab.words
        assert path.read_text("utf-8") == "a\nb\nc\n"

    def test_booldocs_round_trip(self, tmp_path):
        vocab = build_vocabulary([["a", "b", "c"]])
        docs = [
            BoolDoc.from_tokens("d1", Label.KNOWN, ["a", "c"], vocab),
            BoolDoc.from_tokens("d2", Label.NOVEL, ["b"], vocab),
        ]
        path = tmp_path / "booldocs.csv"
        write_booldocs(docs, path)
        loaded = read_booldocs(path, len(vocab))
        assert [d.doc_id for d in loaded] == ["d1", "d2"]
        assert [d.label for d in loaded] == [Label.KNOWN, Label.NOVEL]
        for orig, back in zip(docs, loaded):
            assert np.array_equal(orig.bits, back.bits)

    def test_tokens_round_trip(self, tmp_path):
        rows = [("d1", Label.KNOWN, ["a", "b"]), ("d2", Label.NOVEL, ["c"])]
        path = tmp_path / "tokens.csv"
        write_tokens(rows, path)
        loaded = read_tokens(path)
        assert loaded == [("d1", Label.KNOWN, ["a", "b"]), ("d2", Label.NOVEL, ["c"])]
