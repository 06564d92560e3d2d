"""Word bag routing, relative frequencies, novelty and contextual scores."""

import math
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmnovelty.corpus import Label
from tmnovelty.evaluation import doc_feature_matrix
from tmnovelty.novelty import (
    Aggregator,
    WordBags,
    build_word_bags,
    contextual_score,
    cooccurrence,
    novelty_scores,
    reduce_scores,
    score_document,
    write_score_table,
)
from tmnovelty.tsetlin import ExtractedClause, Polarity

from helpers import EXPECTED_BAG_KNOWN, EXPECTED_BAG_NOVEL, case_study_clauses


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


class TestBuildWordBags:
    def test_case_study_known_bag(self):
        bags = build_word_bags(case_study_clauses())
        assert dict(bags.known) == EXPECTED_BAG_KNOWN
        assert bags.total_known == 14

    def test_case_study_novel_bag(self):
        bags = build_word_bags(case_study_clauses())
        assert dict(bags.novel) == EXPECTED_BAG_NOVEL
        assert bags.total_novel == 13

    def test_known_positive_routing(self):
        bags = build_word_bags(
            [make_clause(Label.KNOWN, Polarity.POSITIVE, plain=["a"], negated=["b"])]
        )
        assert bags.known == {"a": 1}
        assert bags.novel == {"b": 1}

    def test_empty_clause_list_gives_empty_bags(self):
        bags = build_word_bags([])
        assert bags.known == {} and bags.novel == {}

    @given(clause_lists)
    @settings(max_examples=60, deadline=None)
    def test_bag_conservation(self, clauses):
        bags = build_word_bags(clauses)
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
        original = build_word_bags(clauses)
        swapped = build_word_bags(flipped)
        assert original.known == swapped.known and original.novel == swapped.novel

    @given(clause_lists, st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_partial_bag_merge_is_associative(self, clauses, cut1, cut2):
        # Bags built from parts of a clause list, added in either order, give
        # the bags of the whole list.
        lo, hi = sorted((min(cut1, len(clauses)), min(cut2, len(clauses))))
        parts = [build_word_bags(chunk) for chunk in (clauses[:lo], clauses[lo:hi], clauses[hi:])]
        whole = build_word_bags(clauses)
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
        original = build_word_bags(clauses)
        swapped = build_word_bags(flipped)
        assert original.known == swapped.novel and original.novel == swapped.known


class TestRelativeFrequency:
    @pytest.fixture()
    def table(self):
        return novelty_scores(build_word_bags(case_study_clauses()))

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
        return novelty_scores(build_word_bags(case_study_clauses()))

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
        bags = build_word_bags(case_study_clauses())
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
        return novelty_scores(build_word_bags(case_study_clauses()))

    def test_unseen_only_doc_has_no_aggregate(self, table):
        assert score_document(["zzz", "qqq"], table) is None

    def test_single_known_word_logs_negative(self, table):
        aggregate = score_document(["cricket"], table)
        assert aggregate == pytest.approx(math.log(table.scores["cricket"]))
        assert aggregate < 0

    def test_mean_of_log_scores(self, table):
        expected = (math.log(table.scores["rugby"]) + math.log(table.scores["cricket"])) / 2
        assert score_document(["rugby", "cricket"], table) == pytest.approx(expected)

    def test_document_features_come_from_the_same_reduction(self, table):
        tokens = ["rugby", "cricket", "rugby", "zzz", "match"]
        features = doc_feature_matrix([tokens], table.scores)[0]
        assert features[0] == score_document(tokens, table)
        assert features[1] == table.scores["rugby"]
        assert features[2] == 3 / 4  # rugby twice and match score above 1, cricket below
        assert features[3] == 4 / 5

    def test_log_floor_keeps_zero_scores_finite(self):
        reduced = reduce_scores([0.0, math.e])
        assert reduced[Aggregator.MEAN_LOG] == pytest.approx((math.log(1e-12) + 1.0) / 2)
        assert reduced[Aggregator.FRACTION_ABOVE_ONE] == 0.5

    def test_occurrence_multiplicity_counts(self, table):
        once = score_document(["rugby", "cricket"], table)
        weighted = score_document(["rugby", "rugby", "cricket"], table)
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


class TestContextualScore:
    @pytest.fixture()
    def setup(self):
        clauses = case_study_clauses()
        table = novelty_scores(build_word_bags(clauses))
        co = cooccurrence(clauses, Label.NOVEL, clause_count=4)
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

class TestScoreTableExport:
    def test_sorted_by_descending_score(self, tmp_path):
        bags = build_word_bags(case_study_clauses())
        table = novelty_scores(bags)
        path = tmp_path / "scores.csv"
        write_score_table(bags, table, path)
        lines = path.read_text("utf-8").splitlines()
        assert lines[0] == "word,freq_known,freq_novel,rel_freq_known,rel_freq_novel,score"
        scores = [float(line.split(",")[5]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)
        assert lines[1].startswith("rugby,0,4,")
