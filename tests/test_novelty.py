"""Word bag routing, relative frequencies, novelty and contextual scores."""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmnovelty.corpus import Label, Vocabulary
from tmnovelty.evaluation import doc_feature_matrix
from tmnovelty.novelty import (
    ScoreTable,
    WordBags,
    build_word_bags,
    contextual_score,
    cooccurrence,
    novelty_scores,
    score_document,
    word_pair_counts,
    write_score_table,
)
from tmnovelty import tsetlin
from tmnovelty.tsetlin import ExtractedClause, Polarity, StoredModel, TMModel, TMParams

from helpers import (
    EXPECTED_BAG_KNOWN,
    EXPECTED_BAG_NOVEL,
    case_study_clauses,
    case_study_model,
    case_study_vocab,
    extract_clauses_by_row,
    model_from_clauses,
    word_bags_from_clauses,
)


def make_clause(label, polarity, plain=(), negated=(), index=0):
    return ExtractedClause(
        label=label,
        polarity=polarity,
        index=index,
        plain_words=frozenset(plain),
        negated_words=frozenset(negated),
    )


# Random clause lists for property tests.
_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon"]
_VOCAB = Vocabulary(tuple(_WORDS))
clause_lists = st.lists(
    st.builds(
        make_clause,
        label=st.sampled_from([Label.KNOWN, Label.NOVEL]),
        polarity=st.sampled_from([Polarity.POSITIVE, Polarity.NEGATIVE]),
        plain=st.frozensets(st.sampled_from(_WORDS), max_size=4),
        negated=st.frozensets(st.sampled_from(_WORDS), max_size=4),
    ),
    max_size=12,
)


def bags_of(clauses, vocab=_VOCAB):
    """The production bags of a model holding exactly the given clauses."""
    return build_word_bags(model_from_clauses(clauses, vocab), vocab)


def case_study_bags():
    return build_word_bags(case_study_model(), case_study_vocab())


class TestBuildWordBags:
    def test_case_study_known_bag(self):
        bags = case_study_bags()
        assert dict(bags.known) == EXPECTED_BAG_KNOWN
        assert bags.total_known == 14

    def test_case_study_novel_bag(self):
        bags = case_study_bags()
        assert dict(bags.novel) == EXPECTED_BAG_NOVEL
        assert bags.total_novel == 13

    def test_known_positive_routing(self):
        bags = bags_of(
            [make_clause(Label.KNOWN, Polarity.POSITIVE, plain=["a"], negated=["b"])], Vocabulary(("a", "b"))
        )
        assert bags.known == {"a": 1}
        assert bags.novel == {"b": 1}

    def test_empty_clause_list_gives_empty_bags(self):
        bags = bags_of([])
        assert bags.known == {} and bags.novel == {}

    @given(clause_lists)
    @settings(max_examples=60, deadline=None)
    def test_bags_equal_the_clause_list_oracle(self, clauses):
        assert bags_of(clauses) == word_bags_from_clauses(clauses)

    def test_vocabulary_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="vocabulary size != model feature count"):
            build_word_bags(case_study_model(), _VOCAB)

    @given(clause_lists)
    @settings(max_examples=60, deadline=None)
    def test_bag_conservation(self, clauses):
        bags = bags_of(clauses)
        total = sum(len(c.plain_words) + len(c.negated_words) for c in clauses)
        assert bags.total_known + bags.total_novel == total

    @given(clause_lists)
    @settings(max_examples=60, deadline=None)
    def test_swapping_class_and_polarity_is_involution(self, clauses):
        flipped = [
            make_clause(
                Label.NOVEL if c.label is Label.KNOWN else Label.KNOWN,
                Polarity.NEGATIVE if c.polarity is Polarity.POSITIVE else Polarity.POSITIVE,
                plain=c.plain_words,
                negated=c.negated_words,
            )
            for c in clauses
        ]
        original = bags_of(clauses)
        swapped = bags_of(flipped)
        assert original.known == swapped.known and original.novel == swapped.novel

    @given(clause_lists, st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_partial_bag_merge_is_associative(self, clauses, cut1, cut2):
        # Bags built from parts of a clause list, added in either order, give
        # the bags of the whole list.
        lo, hi = sorted((min(cut1, len(clauses)), min(cut2, len(clauses))))
        parts = [bags_of(chunk) for chunk in (clauses[:lo], clauses[lo:hi], clauses[hi:])]
        whole = bags_of(clauses)
        for side in ("known", "novel"):
            a, b, c = (Counter(getattr(p, side)) for p in parts)
            assert (a + b) + c == a + (b + c) == getattr(whole, side)

    @given(clause_lists)
    @settings(max_examples=60, deadline=None)
    def test_swapping_only_class_swaps_bags(self, clauses):
        flipped = [
            make_clause(
                Label.NOVEL if c.label is Label.KNOWN else Label.KNOWN,
                c.polarity,
                plain=c.plain_words,
                negated=c.negated_words,
            )
            for c in clauses
        ]
        original = bags_of(clauses)
        swapped = bags_of(flipped)
        assert original.known == swapped.novel and original.novel == swapped.known


class TestRelativeFrequency:
    @pytest.fixture()
    def table(self):
        return novelty_scores(case_study_bags())

    def test_match_known(self, table):
        assert table.rel_freq_known["match"] == pytest.approx(1 / 14)

    def test_match_novel(self, table):
        assert table.rel_freq_novel["match"] == pytest.approx(2 / 13)

    def test_rugby_known_smoothed(self, table):
        # Absent from the known bag: the minimum frequency of 1 applies while
        # the denominator stays at the raw total of 14.
        assert table.rel_freq_known["rugby"] == pytest.approx(1 / 14)

    def test_unseen_word_rejected(self, table):
        assert "zeppelin" not in table
        with pytest.raises(KeyError):
            table.rel_freq_known["zeppelin"]


class TestNoveltyScores:
    @pytest.fixture()
    def table(self):
        return novelty_scores(case_study_bags())

    def test_cricket_leans_known(self, table):
        oracle = Fraction(1, 13) / Fraction(4, 14)
        assert table.scores["cricket"] == pytest.approx(float(oracle))
        assert abs(table.scores["cricket"] - 0.271) < 0.02

    def test_england_near_neutral(self, table):
        assert abs(table.scores["england"] - 1.07) < 0.02

    def test_rugby_hand_ratio(self, table):
        oracle = Fraction(4, 13) / Fraction(1, 14)  # = 56/13 ~ 4.31
        assert table.scores["rugby"] == pytest.approx(float(oracle))

    def test_scores_equal_rel_freq_ratio_exactly(self, table):
        for word, score in table.scores.items():
            assert score == table.rel_freq_novel[word] / table.rel_freq_known[word]

    def test_empty_bag_rejected(self):
        bags = WordBags(known={}, novel={"a": 1})
        with pytest.raises(ValueError, match="untrained description"):
            novelty_scores(bags)

    def test_rel_freq_sums_to_one_over_raw_support(self, table):
        bags = case_study_bags()
        known_sum = sum(table.rel_freq_known[w] for w in bags.known)
        novel_sum = sum(table.rel_freq_novel[w] for w in bags.novel)
        assert known_sum == pytest.approx(1.0)
        assert novel_sum == pytest.approx(1.0)

    def test_scoring_is_linear_in_vocabulary_size(self):
        # Each bag is summed once, not once per word.
        words = [f"w{i:05d}" for i in range(20_000)]
        bags = WordBags(
            known={w: i % 7 + 1 for i, w in enumerate(words) if i % 3},
            novel={w: i % 5 + 1 for i, w in enumerate(words) if i % 3 != 1},
        )
        start = time.perf_counter()
        table = novelty_scores(bags)
        assert time.perf_counter() - start < 1.0
        assert len(table) == 20_000
        word = words[2]  # in both bags, three times each
        assert table.scores[word] == (3 / bags.total_novel) / (3 / bags.total_known)

    @given(
        st.dictionaries(st.sampled_from(_WORDS), st.integers(1, 9), min_size=1),
        st.dictionaries(st.sampled_from(_WORDS), st.integers(1, 9), min_size=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_score_reciprocity(self, known, novel):
        forward = novelty_scores(WordBags(known=known, novel=novel))
        backward = novelty_scores(WordBags(known=novel, novel=known))
        for word in forward.scores:
            assert backward.scores[word] == pytest.approx(1.0 / forward.scores[word])


class TestScoreDocument:
    @pytest.fixture()
    def table(self):
        return novelty_scores(case_study_bags())

    def test_unseen_only_doc_has_no_aggregate(self, table):
        assert score_document(["zzz", "qqq"], table) is None

    def test_single_known_word_logs_negative(self, table):
        aggregate = score_document(["cricket"], table)[0]
        assert aggregate == pytest.approx(math.log(table.scores["cricket"]))
        assert aggregate < 0

    def test_mean_of_log_scores(self, table):
        expected = (math.log(table.scores["rugby"]) + math.log(table.scores["cricket"])) / 2
        assert score_document(["rugby", "cricket"], table)[0] == pytest.approx(expected)

    def test_document_features_come_from_the_same_reduction(self, table):
        tokens = ["rugby", "cricket", "rugby", "zzz", "match"]
        features = doc_feature_matrix([tokens], table.scores)[0]
        assert features[0] == score_document(tokens, table)[0]
        assert features[1] == table.scores["rugby"]
        assert features[2] == 3 / 4  # rugby twice and match score above 1, cricket below
        assert features[3] == 4 / 5

    def test_log_floor_keeps_zero_scores_finite(self):
        table = ScoreTable(scores={"zero": 0.0, "e": math.e}, rel_freq_known={}, rel_freq_novel={})
        mean_log, _, fraction_above_one, _ = score_document(["zero", "e"], table)
        assert mean_log == pytest.approx((math.log(1e-12) + 1.0) / 2)
        assert fraction_above_one == 0.5

    @pytest.mark.parametrize("seed", range(6))
    def test_reductions_equal_the_per_occurrence_formula(self, seed):
        # Random tables with scores of 0.0 and below (as TF-IDF gives), exact
        # 1.0, scores under the log floor, and equal scores on different words;
        # documents with repeats, words missing from the table, and none at all.
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(40)]
        special = [0.0, -0.0, -1.5, 1.0, 1e-13, 2.5, 2.5]
        values = [special[i] if i < len(special) else float(rng.lognormal(0.0, 2.0)) for i in range(len(words))]
        scores = dict(zip(words, rng.permutation(np.array(values, dtype=object)).tolist()))
        pool = words + ["zzz", "yyy"]
        docs = [[pool[i] for i in rng.integers(0, len(pool), int(rng.integers(0, 60)))] for _ in range(40)]
        docs += [[], ["zzz"], ["w0", "w0", "w0"]]
        table = ScoreTable(scores=scores, rel_freq_known={}, rel_freq_novel={})
        features = doc_feature_matrix(docs, scores).tolist()
        for tokens, row in zip(docs, features):
            hits = [scores[t] for t in tokens if t in scores]
            if not hits:
                assert score_document(tokens, table) is None
                assert row == [0.0, 0.0, 0.0, 0.0]
                continue
            n = len(hits)
            mean_log = math.fsum(math.log(max(s, 1e-12)) for s in hits) / n
            expected = [mean_log, max(hits), sum(s > 1.0 for s in hits) / n, n / len(tokens)]
            assert list(score_document(tokens, table)) == expected
            assert row == expected

    def test_occurrence_multiplicity_counts(self, table):
        once = score_document(["rugby", "cricket"], table)[0]
        weighted = score_document(["rugby", "rugby", "cricket"], table)[0]
        assert weighted > once  # extra high-score occurrence pulls the mean up


class TestCooccurrence:
    def test_case_study_rugby_old_pair(self):
        co = cooccurrence(case_study_clauses(), Label.NOVEL, clause_count=4)
        # Counted by hand over the four novel clauses.
        assert co.pair_count("rugby", "old") == 2
        assert co.clause_count == 4

    def test_disjoint_pair_counts_zero(self):
        co = cooccurrence(case_study_clauses(), Label.NOVEL, clause_count=4)
        assert co.pair_count("despite", "ball") == 0

    def test_self_pair_equals_word_count(self):
        co = cooccurrence(case_study_clauses(), Label.NOVEL, clause_count=4)
        assert co.pair_count("rugby", "rugby") == 2  # both novel for-votes contain rugby

    def test_explicit_clause_count_override(self):
        co = cooccurrence(case_study_clauses(), Label.NOVEL, clause_count=10)
        assert co.clause_count == 10


class TestWordPairCounts:
    """One pass over a bank's include blocks counts what ``cooccurrence`` counts over its clauses."""

    def test_case_study_hand_values(self):
        co, _ = word_pair_counts(case_study_model(), Label.NOVEL, ["rugby", "old", "despite", "ball"], case_study_vocab())
        # Counted by hand over the four novel clauses.
        assert co.pair_count("rugby", "old") == co.pair_count("old", "rugby") == 2
        assert co.pair_count("rugby", "rugby") == 2
        assert co.pair_count("despite", "ball") == 0
        assert (co.label, co.clause_count) == (Label.NOVEL, 4)

    def test_a_word_not_requested_raises(self):
        co, _ = word_pair_counts(case_study_model(), Label.NOVEL, ["rugby", "old"], case_study_vocab())
        with pytest.raises(KeyError, match="despite"):
            co.pair_count("rugby", "despite")
        with pytest.raises(KeyError, match="despite"):
            co.pair_count("despite", "despite")
        with pytest.raises(KeyError, match="zeppelin"):
            word_pair_counts(case_study_model(), Label.NOVEL, ["rugby", "zeppelin"], case_study_vocab())

    def test_vocabulary_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="feature count"):
            word_pair_counts(case_study_model(), Label.NOVEL, ["rugby"], _VOCAB)

    @pytest.mark.parametrize("label", [Label.KNOWN, Label.NOVEL])
    def test_the_same_read_gives_the_word_bags(self, label):
        # Both banks' include counts come from the one read, whichever bank holds the pairs.
        _, bags = word_pair_counts(case_study_model(), label, ["rugby", "old"], case_study_vocab())
        assert bags == build_word_bags(case_study_model(), case_study_vocab())
        assert bags == word_bags_from_clauses(case_study_clauses())

    @pytest.mark.parametrize("feature_count", [1, 37, 70])
    def test_equals_the_clause_list_oracle(self, tmp_path, monkeypatch, feature_count):
        # Row blocks of 3 over 14 clauses: edges at rows 3 and 6 in the positive
        # half, 9 and 12 in the negative half.
        monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 3 * 2 * 2 * feature_count)
        rng = np.random.default_rng(feature_count)
        vocab = Vocabulary(tuple(f"w{i:03d}" for i in range(feature_count)))
        params = TMParams(clause_count=14, vote_margin=5, sensitivity=3.0, state_count=8)
        model = TMModel.create(params, feature_count, vocab_hash=vocab.sha256())
        for k, bank in enumerate(model.banks.values()):
            include = rng.random(bank.state.shape) < (0.1, 0.5)[k]
            include[rng.random(bank.clause_count) < 0.3] = False  # empty clauses
            shape = bank.state.shape
            bank.state[...] = np.where(include, rng.integers(9, 17, shape), rng.integers(1, 9, shape))
        path = tmp_path / "model.tm"
        model.save(path)
        clauses = extract_clauses_by_row(model, vocab)
        word_lists = [
            list(reversed(vocab.words)),  # every word, reordered
            [vocab.words[i] for i in rng.integers(0, feature_count, 6)],  # repeats
            [vocab.words[-1]],
        ]
        with StoredModel.open(path) as stored:
            assert [start for start, _ in stored.banks[Label.NOVEL].include_blocks()] == [0, 3, 6, 9, 12]
            for source in (model, stored, TMModel.load(path)):
                for label in (Label.KNOWN, Label.NOVEL):
                    oracle = cooccurrence(clauses, label, clause_count=14)
                    for words in word_lists:
                        co, _ = word_pair_counts(source, label, words, vocab)
                        assert (co.label, co.clause_count) == (label, 14)
                        assert {(a, b): co.pair_count(a, b) for a in words for b in words} == {
                            (a, b): oracle.pair_count(a, b) for a in words for b in words
                        }


class TestContextualScore:
    @pytest.fixture()
    def setup(self):
        table = novelty_scores(case_study_bags())
        co = cooccurrence(case_study_clauses(), Label.NOVEL, clause_count=4)
        return co, table

    def test_pair_sharing_clauses_beats_disjoint_pair(self, setup):
        co, table = setup
        together = contextual_score(co, table, "rugby", "old")
        apart = contextual_score(co, table, "despite", "ball")
        assert together > apart == 0.0

    def test_symmetry(self, setup):
        co, table = setup
        assert contextual_score(co, table, "rugby", "old") == contextual_score(
            co, table, "old", "rugby"
        )

    def test_bag_mode_hand_value(self, setup):
        co, table = setup
        # joint 2/4 over (4/13)*(2/13), worked out by hand.
        expected = (2 / 4) / ((4 / 13) * (2 / 13))
        assert contextual_score(co, table, "rugby", "old") == pytest.approx(expected)

    def test_unscored_word_rejected(self, setup):
        co, table = setup
        with pytest.raises(KeyError, match="unscored word"):
            contextual_score(co, table, "rugby", "zeppelin")

    def test_empty_clause_pool_rejected(self, setup):
        _, table = setup
        co = cooccurrence(case_study_clauses(), Label.NOVEL, clause_count=0)
        with pytest.raises(ValueError, match="no clauses available"):
            contextual_score(co, table, "rugby", "old")

class TestScoreTableExport:
    def test_sorted_by_descending_score(self, tmp_path):
        bags = case_study_bags()
        table = novelty_scores(bags)
        path = tmp_path / "scores.csv"
        write_score_table(bags, table, path)
        lines = path.read_text("utf-8").splitlines()
        assert lines[0] == "word,freq_known,freq_novel,rel_freq_known,rel_freq_novel,score"
        scores = [float(line.split(",")[5]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)
        assert lines[1].startswith("rugby,0,4,")
