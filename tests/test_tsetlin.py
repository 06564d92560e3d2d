"""Clause evaluation, feedback rules, training, extraction, and persistence."""

import os
import sys
import threading
from contextlib import closing
from itertools import islice

import numpy as np
import pytest

from tmnovelty import tsetlin
from tmnovelty.corpus import BoolDoc, Label, Vocabulary
from tmnovelty.novelty import build_word_bags
from tmnovelty.tsetlin import (
    ClauseBank,
    EvalMode,
    Polarity,
    StoredModel,
    TMModel,
    TMParams,
    _bernoulli_positions,
    classify_batch,
    extract_clauses,
    fit,
    include_counts,
    literal_vector,
    pack_bits,
    train_epochs,
    write_clause_dump,
)

from helpers import (
    bernoulli_positions_concatenated,
    case_study_model,
    case_study_vocab,
    class_sum,
    classify,
    clause_bank,
    clause_eval,
    extract_clauses_by_row,
    include_mask,
    set_clause,
    traced_peak,
    type_i_feedback,
    type_ii_feedback,
    word_bags_from_clauses,
)


def bits(*values) -> np.ndarray:
    return np.array(values, dtype=bool)


def small_params(**overrides) -> TMParams:
    defaults = dict(clause_count=4, vote_margin=5, sensitivity=3.0, state_count=8, seed=0)
    defaults.update(overrides)
    return TMParams(**defaults)


class TestParams:
    @pytest.mark.parametrize("sensitivity", [1.0, float("inf"), float("nan")])
    def test_sensitivity_must_be_finite_and_above_one(self, sensitivity):
        with pytest.raises(ValueError, match="sensitivity must be a finite number > 1"):
            small_params(sensitivity=sensitivity)

    def test_state_count_must_leave_room_for_one_step_in_int16(self):
        with pytest.raises(ValueError, match="state_count"):
            small_params(state_count=16_384)
        # At the largest allowed depth, a reinforced top state stays on top.
        n = small_params(state_count=16_383).state_count
        bank = clause_bank(2, 1, n)
        bank.state[0] = [2 * n, 1]
        forget = _bernoulli_positions(bank.literal_count, 1 / 1e12, np.random.default_rng(0))
        bank.type_i(np.array([0]), np.empty(0, dtype=np.int64), literal_vector(bits(True)), forget)
        assert bank.state[0].tolist() == [2 * n, 1]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            small_params(seed=-1)
        assert small_params(seed=0).seed == 0


class TestPackBits:
    def test_round_trip_against_manual_bits(self):
        rng = np.random.default_rng(0)
        raw = rng.random((5, 130)) < 0.5
        packed = pack_bits(raw)
        assert packed.shape == (5, 3)
        for i in range(5):
            for j in range(130):
                word = int(packed[i, j // 64])
                assert ((word >> (j % 64)) & 1) == int(raw[i, j])

    def test_padding_is_zero(self):
        packed = pack_bits(np.ones(3, dtype=bool))
        assert int(packed[0]) == 0b111


class TestClauseEval:
    def test_conjunction_fires_when_all_literals_true(self):
        bank = clause_bank(2, 2, 8)
        set_clause(bank, 0, plain=[0, 1])
        assert clause_eval(bank, 0, bits(True, True), EvalMode.INFERENCE) is True
        assert clause_eval(bank, 0, bits(True, False), EvalMode.INFERENCE) is False

    def test_negated_literal(self):
        bank = clause_bank(2, 1, 8)
        set_clause(bank, 0, negated=[0])
        assert clause_eval(bank, 0, bits(True), EvalMode.INFERENCE) is False
        assert clause_eval(bank, 0, bits(False), EvalMode.INFERENCE) is True

    def test_empty_clause_mode_split(self):
        bank = clause_bank(2, 2, 8)  # fresh bank: no includes anywhere
        assert clause_eval(bank, 0, bits(True, False), EvalMode.LEARNING) is True
        assert clause_eval(bank, 0, bits(True, False), EvalMode.INFERENCE) is False

    def test_width_mismatch_raises(self):
        bank = clause_bank(2, 2, 8)
        with pytest.raises(ValueError, match="width"):
            clause_eval(bank, 0, bits(True), EvalMode.INFERENCE)

    def test_states_are_read_only_once_the_view_is_built(self):
        # An in-place write after the first evaluation would leave the packed view stale.
        bank = clause_bank(2, 2, 8)
        set_clause(bank, 0, plain=[0])
        assert clause_eval(bank, 0, bits(True, False), EvalMode.INFERENCE) is True
        with pytest.raises(ValueError, match="read-only"):
            bank.state[0, 1] = 2 * bank.state_count  # include x2, false on the input
        set_clause(bank, 0, plain=[0, 1])  # through _write_rows, which keeps the view in step
        assert clause_eval(bank, 0, bits(True, False), EvalMode.INFERENCE) is False
        fresh = clause_bank(2, 2, 8)
        fresh.state[...] = bank.state
        assert clause_eval(fresh, 0, bits(True, False), EvalMode.INFERENCE) is False

    def test_packed_matches_naive_loop_on_random_pairs(self):
        # 10_000 random (clause, input) pairs: fired on one input, fired on a
        # stack, and classify_batch, all against the per-literal oracle.
        rng = np.random.default_rng(42)
        n_states = 4
        pairs = 0
        for _ in range(50):
            features = int(rng.integers(1, 80))
            model = TMModel.create(small_params(clause_count=20, state_count=n_states), features)
            for bank in model.banks.values():
                bank.state[...] = rng.integers(1, 2 * n_states + 1, size=bank.state.shape).astype(np.int16)
            inputs = rng.random((10, features)) < 0.5
            not_packed = pack_bits(~literal_vector(inputs))
            bank = model.banks[Label.KNOWN]
            stacked = bank.fired(not_packed, EvalMode.INFERENCE)
            assert stacked.shape == (10, 20)
            for d in range(10):
                single = bank.fired(not_packed[d], EvalMode.INFERENCE)
                for j in range(20):
                    naive = _naive_eval(bank.state[j], n_states, inputs[d], learning=False)
                    assert bool(single[j]) == naive == bool(stacked[d, j])
                    pairs += 1
            sums = {
                label: [
                    sum((1 if j < 10 else -1) * _naive_eval(b.state[j], n_states, x, learning=False) for j in range(20))
                    for x in inputs
                ]
                for label, b in model.banks.items()
            }
            expected = [novel > known for known, novel in zip(sums[Label.KNOWN], sums[Label.NOVEL])]
            assert classify_batch(model, inputs).tolist() == expected
        assert pairs == 10_000

    def test_stack_evaluation_in_blocks_matches_single_inputs(self, monkeypatch):
        # A block budget of one document's worth forces one document per block.
        rng = np.random.default_rng(8)
        bank = clause_bank(6, 70, 4)
        bank.state[...] = rng.integers(1, 9, size=bank.state.shape).astype(np.int16)
        not_packed = pack_bits(~literal_vector(rng.random((5, 70)) < 0.5))
        monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 8 * bank.clause_count)
        stacked = bank.fired(not_packed, EvalMode.LEARNING)
        for d in range(5):
            assert np.array_equal(stacked[d], bank.fired(not_packed[d], EvalMode.LEARNING))

    def test_incremental_view_matches_full_rederivation(self, monkeypatch):
        # Interleave evaluation and both feedback types with the packed view
        # live; small feedback blocks exercise the row-block loop.
        monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 64)
        rng = np.random.default_rng(21)
        for _ in range(20):
            features = int(rng.integers(1, 70))
            bank = _random_feedback(clause_bank(12, features, 3), rng)
            include = bank.state > bank.state_count
            assert np.array_equal(bank._packed, pack_bits(include).T)
        # Budgets of three rows over 14 clauses: the view is built, and the
        # feedback gathered, in blocks with edges at rows 3 and 6 in the
        # positive half and 9 and 12 in the negative half.  The states must
        # equal those of single-block budgets.
        for features in (1, 37, 70):
            states = []
            for rows in (3, 14):
                monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", rows * 2 * 2 * features)
                bank = clause_bank(14, features, 3)
                assert bank._block_rows == rows
                bank = _random_feedback(bank, np.random.default_rng(features))
                include = include_mask(bank)
                assert np.array_equal(bank._packed, pack_bits(include).T)
                states.append(bank.state)
            assert np.array_equal(*states)


def _random_feedback(bank: ClauseBank, rng: np.random.Generator, steps: int = 30) -> ClauseBank:
    """Random states, then ``steps`` rounds of evaluation and Type I or II feedback."""
    bank.state[...] = rng.integers(1, 7, size=bank.state.shape).astype(np.int16)
    for _ in range(steps):
        lits = literal_vector(rng.random(bank.feature_count) < 0.5)
        fired = bank.fired(pack_bits(~lits), EvalMode.LEARNING)
        chosen = rng.random(bank.clause_count) < 0.5
        if rng.random() < 0.5:
            forget = _bernoulli_positions(int(chosen.sum()) * bank.literal_count, 1 / 2.0, rng)
            bank.type_i(np.flatnonzero(chosen & fired), np.flatnonzero(chosen & ~fired), lits, forget)
        else:
            bank.type_ii(np.flatnonzero(chosen & fired), lits)
    return bank


def _naive_eval(states, n_states, input_bits, learning):
    lits = list(input_bits) + [not b for b in input_bits]
    included = [int(s) > n_states for s in states]
    if not any(included):
        return learning
    return all(lit for lit, inc in zip(lits, included) if inc)


class TestClassSum:
    def test_empty_model_inference_sum_zero(self):
        model = TMModel.create(small_params(), 2)
        result = class_sum(model, bits(True, False), Label.KNOWN)
        assert result.raw == 0 and result.clamped == 0

    def test_positive_minus_negative(self):
        model = TMModel.create(small_params(clause_count=8, vote_margin=50), 1)
        bank = model.banks[Label.KNOWN]
        for row in (0, 1, 2):  # positive half
            set_clause(bank, row, plain=[0])
        set_clause(bank, 4, plain=[0])  # one negative clause
        result = class_sum(model, bits(True), Label.KNOWN)
        assert result.raw == 2 and result.clamped == 2

    def test_clamped_at_margin(self):
        model = TMModel.create(small_params(clause_count=160, vote_margin=50), 1)
        bank = model.banks[Label.KNOWN]
        for row in range(80):
            set_clause(bank, row, plain=[0])
        result = class_sum(model, bits(True), Label.KNOWN)
        assert result.raw == 80 and result.clamped == 50


class TestClassify:
    @pytest.fixture()
    def xor_model(self):
        # The classic two-feature machine: for-votes on x1^x2 patterns,
        # against-votes on the equal patterns, all in the NOVEL bank.
        model = TMModel.create(small_params(), 2)
        bank = model.banks[Label.NOVEL]
        set_clause(bank, 0, plain=[0], negated=[1])  # x1 & ~x2
        set_clause(bank, 1, plain=[1], negated=[0])  # ~x1 & x2
        set_clause(bank, 2, plain=[0, 1])  # x1 & x2
        set_clause(bank, 3, negated=[0, 1])  # ~x1 & ~x2
        return model

    def test_xor_mixed_input_goes_to_positive_class(self, xor_model):
        assert classify(xor_model, bits(True, False)) is Label.NOVEL
        assert classify(xor_model, bits(False, True)) is Label.NOVEL

    def test_xor_equal_input_goes_to_negative_class(self, xor_model):
        assert classify(xor_model, bits(True, True)) is Label.KNOWN
        assert classify(xor_model, bits(False, False)) is Label.KNOWN

    def test_empty_model_ties_to_known(self):
        model = TMModel.create(small_params(), 2)
        assert classify(model, bits(True, True)) is Label.KNOWN

    def test_classify_agrees_with_sum_sign_on_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            model = TMModel.create(small_params(clause_count=10, state_count=3), 5)
            for label in (Label.KNOWN, Label.NOVEL):
                bank = model.banks[label]
                bank.state[...] = rng.integers(1, 7, size=bank.state.shape).astype(np.int16)
            x = rng.random(5) < 0.5
            diff = class_sum(model, x, Label.NOVEL).raw - class_sum(model, x, Label.KNOWN).raw
            assert (classify(model, x) is Label.NOVEL) == (diff > 0)
            assert classify_batch(model, x[None, :])[0] == (diff > 0)


class TestTypeIFeedback:
    def test_large_sensitivity_limit(self):
        # s -> inf: true literals reinforced, false literals untouched.
        bank = clause_bank(2, 2, 8)
        rng = np.random.default_rng(0)
        type_i_feedback(bank, 0, bits(True, False), 1e12, rng)
        # literals: [x1, x2, ~x1, ~x2]; true ones are x1 and ~x2.
        assert bank.state[0].tolist() == [9, 8, 8, 9]

    def test_saturation_at_lower_bound(self):
        bank = clause_bank(2, 2, 1)
        bank.state[:] = 1
        # Clause includes nothing -> fires in learning; but force the silent
        # branch by including a literal false on the input.
        set_clause(bank, 0, plain=[1])
        bank.state[0, :] = 1
        bank.state[0, 1] = 2  # include x2, false on the input below
        rng = np.random.default_rng(0)
        type_i_feedback(bank, 0, bits(True, False), 1.5, rng)
        assert bank.state[0].min() >= 1

    def test_reinforcement_frequency_matches_bernoulli(self):
        # Monte-Carlo oracle: across 1e5 fired clauses, a true literal moves
        # up with empirical frequency (s-1)/s within 3 sigma, and a false
        # literal moves down with frequency 1/s.
        n = 100_000
        s = 5.0
        bank = clause_bank(n, 2, 8)  # fresh: all empty -> all fire in learning
        rng = np.random.default_rng(123)
        lits = literal_vector(bits(True, False))
        forget = _bernoulli_positions(n * bank.literal_count, 1 / s, rng)
        bank.type_i(np.arange(n), np.empty(0, dtype=np.int64), lits, forget)
        up_freq = float(np.mean(bank.state[:, 0] == 9))
        down_freq = float(np.mean(bank.state[:, 1] == 7))
        assert abs(up_freq - (s - 1) / s) < 3 * (((s - 1) / s) * (1 / s) / n) ** 0.5
        assert abs(down_freq - 1 / s) < 3 * ((1 / s) * (1 - 1 / s) / n) ** 0.5

    def test_silent_clause_decays_all_literals(self):
        n = 100_000
        s = 4.0
        bank = clause_bank(n, 1, 8)
        bank.state[:, 0] = 10  # include x1 so clauses are silent on x1=0
        rng = np.random.default_rng(5)
        lits = literal_vector(bits(False))
        fired = bank.fired(pack_bits(~lits), EvalMode.LEARNING)
        assert not fired.any()
        forget = _bernoulli_positions(n * bank.literal_count, 1 / s, rng)
        bank.type_i(np.empty(0, dtype=np.int64), np.arange(n), lits, forget)
        decay_freq = float(np.mean(bank.state[:, 0] == 9))
        assert abs(decay_freq - 1 / s) < 3 * ((1 / s) * (1 - 1 / s) / n) ** 0.5


    @pytest.mark.parametrize("p", [1 / 25, 1 / 2, 1e-12])
    @pytest.mark.parametrize(
        "size, seed",
        [
            (0, 0),
            (1, 0),
            (37, 0),
            (2_575 * 9_978, 0),  # one paper-shape step: 2 575 rows of 9 978 literals
            (50_000, 133_940),  # at p = 1/25 the first block stops short, so the loop runs twice
        ],
    )
    def test_positions_and_generator_state_match_the_concatenating_oracle(self, size, seed, p):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        positions = _bernoulli_positions(size, p, rng)
        expected = bernoulli_positions_concatenated(size, p, oracle_rng)
        assert positions.dtype == np.int64
        assert np.array_equal(positions, expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        if size == 50_000 and p == 1 / 25:
            first = int(size * p + 4.0 * (size * p) ** 0.5) + 16
            one_block = np.random.default_rng(seed)
            one_block.standard_exponential(first)
            assert rng.bit_generator.state != one_block.bit_generator.state

    @pytest.mark.parametrize("s", [1.5, 1e12])
    def test_move_frequencies_and_bounds_at_extreme_sensitivities(self, s):
        # Input (1, 0): literals [x1, x2, ~x1, ~x2] are true, false, false,
        # true.  Rows 0..n-1 fire, rows n..2n-1 are silent.
        n = 50_000
        bank = clause_bank(2 * n, 2, 8)
        bank.state[:] = [16, 1, 8, 8]
        forget = _bernoulli_positions(2 * n * bank.literal_count, 1 / s, np.random.default_rng(17))
        bank.type_i(np.arange(n), np.arange(n, 2 * n), literal_vector(bits(True, False)), forget)
        fired, silent = bank.state[:n], bank.state[n:]
        assert (fired[:, 0] == 16).all() and (fired[:, 1] == 1).all() and (silent[:, 1] == 1).all()
        up, down = (s - 1) / s, 1 / s
        moves = (  # (states, start, after one move, probability of the move)
            (fired[:, 3], 8, 9, up),
            (fired[:, 2], 8, 7, down),
            (silent[:, 0], 16, 15, down),
            (silent[:, 2], 8, 7, down),
            (silent[:, 3], 8, 7, down),
        )
        for column, start, moved, p in moves:
            assert np.isin(column, (start, moved)).all()
            assert abs(np.mean(column == moved) - p) <= 3 * (p * (1 - p) / n) ** 0.5 + 1e-9


class TestTypeIIFeedback:
    def test_empty_clause_nudges_false_literals(self):
        # Literals on x=(1,0): x1=1, x2=0, ~x1=0, ~x2=1; the zeros are x2 and ~x1.
        bank = clause_bank(2, 2, 8)
        type_ii_feedback(bank, 0, bits(True, False))
        assert bank.state[0].tolist() == [8, 9, 9, 8]

    def test_true_literals_untouched(self):
        bank = clause_bank(2, 2, 8)
        set_clause(bank, 0, plain=[0])
        before = bank.state[0].copy()
        type_ii_feedback(bank, 0, bits(True, True))
        after = bank.state[0]
        # x1 included+true and ~? positions: only literals evaluating 0 moved.
        lits = literal_vector(bits(True, True))
        assert np.array_equal(after[lits], before[lits])

    def test_non_firing_clause_rejected(self):
        bank = clause_bank(2, 2, 8)
        set_clause(bank, 0, plain=[1])  # includes x2, false on input
        with pytest.raises(ValueError, match="firing"):
            type_ii_feedback(bank, 0, bits(True, False))

    def test_repeated_application_stops_firing_within_two_n_steps(self):
        rng = np.random.default_rng(11)
        n_states = 6
        for _ in range(25):
            features = int(rng.integers(1, 8))
            x = rng.random(features) < 0.5
            lits = literal_vector(x)
            bank = clause_bank(2, features, n_states)
            # Random clause that fires on x: includes drawn from true literals only.
            state = rng.integers(1, n_states + 1, size=2 * features)
            true_idx = np.flatnonzero(lits)
            chosen = true_idx[rng.random(true_idx.size) < 0.5]
            state[chosen] = rng.integers(n_states + 1, 2 * n_states + 1, size=chosen.size)
            bank.state[0] = state.astype(np.int16)
            applications = 0
            while clause_eval(bank, 0, x, EvalMode.LEARNING) and applications <= 2 * n_states:
                type_ii_feedback(bank, 0, x)
                applications += 1
            assert not clause_eval(bank, 0, x, EvalMode.LEARNING)
            assert applications <= 2 * n_states


class TestFit:
    def make_docs(self, patterns, copies=20):
        docs = []
        for i, (pattern, label) in enumerate(patterns):
            for k in range(copies):
                docs.append(BoolDoc(f"d{i}_{k}", label, np.array(pattern, dtype=bool)))
        return docs

    def test_single_feature_converges(self):
        docs = self.make_docs([((True,), Label.NOVEL), ((False,), Label.KNOWN)])
        model = TMModel.create(small_params(clause_count=8, vote_margin=3), 1)
        assert 1.0 in islice(train_epochs(model, docs), 20)

    def test_epochs_zero_rejected(self):
        docs = self.make_docs([((True,), Label.NOVEL), ((False,), Label.KNOWN)])
        model = TMModel.create(small_params(), 1)
        with pytest.raises(ValueError, match="epochs"):
            fit(model, docs, epochs=0)

    def test_single_class_rejected(self):
        docs = self.make_docs([((True,), Label.NOVEL)])
        model = TMModel.create(small_params(), 1)
        with pytest.raises(ValueError, match="both classes"):
            fit(model, docs, epochs=1)

    def test_document_of_another_width_rejected(self):
        docs = self.make_docs([((True, False), Label.NOVEL), ((False, True), Label.KNOWN)], copies=1)
        model = TMModel.create(small_params(), 3)
        with pytest.raises(ValueError, match="'d0_0' width != model width"):
            fit(model, docs, epochs=1)

    def test_contradictory_labels_cap_accuracy(self):
        docs = [
            BoolDoc("a", Label.KNOWN, bits(True, False)),
            BoolDoc("b", Label.NOVEL, bits(True, False)),
        ]
        model = TMModel.create(small_params(), 2)
        _, trace = fit(model, docs, epochs=30)
        assert trace[-1] <= 0.5

    def test_seed_determinism(self):
        docs = self.make_docs(
            [((True, False), Label.NOVEL), ((False, True), Label.KNOWN)], copies=10
        )
        states = []
        for _ in range(2):
            model = TMModel.create(small_params(seed=99), 2)
            fit(model, docs, epochs=10)
            states.append(
                {label: model.banks[label].state.copy() for label in (Label.KNOWN, Label.NOVEL)}
            )
        for label in (Label.KNOWN, Label.NOVEL):
            assert np.array_equal(states[0][label], states[1][label])

    def test_state_bounds_after_training(self):
        rng = np.random.default_rng(3)
        docs = [
            BoolDoc(f"d{i}", Label.NOVEL if rng.random() < 0.5 else Label.KNOWN, rng.random(6) < 0.5)
            for i in range(40)
        ]
        if len({d.label for d in docs}) < 2:
            docs[0].label = Label.KNOWN
            docs[1].label = Label.NOVEL
        model = TMModel.create(small_params(clause_count=10, state_count=4, sensitivity=1.5), 6)
        fit(model, docs, epochs=15)
        for label in (Label.KNOWN, Label.NOVEL):
            state = model.banks[label].state
            assert state.min() >= 1 and state.max() <= 8


class TestExtractClauses:
    def test_case_study_first_positive_clause(self):
        model = case_study_model()
        clauses = extract_clauses(model, case_study_vocab())
        first = [
            c for c in clauses
            if c.label is Label.KNOWN and c.polarity is Polarity.POSITIVE and c.index == 0
        ][0]
        assert first.plain_words == {"england", "cricket", "match", "hit", "six"}
        assert first.negated_words == frozenset()

    def test_untrained_model_extracts_nothing(self):
        model = TMModel.create(small_params(), 3)
        assert extract_clauses(model, _vocab3()) == []

    def test_negated_only_clause(self):
        model = TMModel.create(small_params(), 3)
        set_clause(model.banks[Label.KNOWN], 0, negated=[2])
        clauses = extract_clauses(model, _vocab3())
        assert len(clauses) == 1
        assert clauses[0].plain_words == frozenset()
        assert clauses[0].negated_words == {"rugby"}

    def test_clause_dump_format(self, tmp_path):
        model = case_study_model()
        clauses = extract_clauses(model, case_study_vocab())
        path = tmp_path / "clauses.csv"
        write_clause_dump(clauses, path)
        lines = path.read_text("utf-8").splitlines()
        assert lines[0] == "class,polarity,clause_index,plain_words,negated_words"
        assert lines[1] == "known,positive,0,cricket;england;hit;match;six,"
        assert len(lines) == 9


    @pytest.mark.parametrize("feature_count", [1, 2, 31, 32, 63, 64, 65, 127, 128, 129, 130])
    def test_bulk_read_matches_per_row_oracle_on_random_banks(self, feature_count, monkeypatch):
        rng = np.random.default_rng(feature_count)
        vocab = Vocabulary(tuple(f"w{i:03d}" for i in range(feature_count)))
        for trial in range(7):
            clause_count = 2 * int(rng.integers(1, 21))
            if trial == 6:
                # Row blocks of 3 over 14 clauses: edges at rows 3 and 6 in the
                # positive half, 9 and 12 in the negative half, and the block of
                # rows 6-8 straddles the two.
                clause_count = 14
                monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 3 * 2 * 2 * feature_count)
            model = TMModel.create(small_params(clause_count=clause_count), feature_count)
            density = (0.0, 0.01, 0.05, 0.3, 0.9, 1.0, 0.3)[trial]
            for bank in model.banks.values():
                include = rng.random(bank.state.shape) < density
                include[rng.random(clause_count) < 0.3] = False  # empty clauses
                word = int(rng.integers(feature_count))
                include[0, [word, feature_count + word]] = True  # one word on both sides
                shape = bank.state.shape
                bank.state[...] = np.where(include, rng.integers(9, 17, shape), rng.integers(1, 9, shape))
            oracle = extract_clauses_by_row(model, vocab)
            assert extract_clauses(model, vocab) == oracle
            assert build_word_bags(model, vocab) == word_bags_from_clauses(oracle)
            half = clause_count // 2
            columns = [0, feature_count, 2 * feature_count - 1]
            counted = include_counts(model, {Label.NOVEL: columns})
            for label, bank in model.banks.items():
                include = include_mask(bank)
                assert np.array_equal(counted[label][0], [include[:half].sum(0), include[half:].sum(0)])
                m = include[:, columns if label is Label.NOVEL else []].astype(np.int64)
                assert np.array_equal(counted[label][1], m.T @ m)
            if trial == 6:
                edges = range(bank._block_rows, clause_count, bank._block_rows)
                assert bank._block_rows == 3
                assert any(e < half for e in edges) and any(e > half for e in edges)

    def test_vocabulary_size_mismatch_raises(self):
        model = TMModel.create(small_params(), 3)
        with pytest.raises(ValueError, match="feature count"):
            extract_clauses(model, case_study_vocab())


def _vocab3():
    from tmnovelty.corpus import Vocabulary

    return Vocabulary(("ball", "cricket", "rugby"))


class TestModelPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = case_study_model()
        path = tmp_path / "model.tm"
        model.save(path)
        loaded = TMModel.load(path)
        assert loaded.params == model.params
        assert loaded.vocab_hash == model.vocab_hash
        for label in (Label.KNOWN, Label.NOVEL):
            assert np.array_equal(loaded.banks[label].state, model.banks[label].state)
        path2 = tmp_path / "model2.tm"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_repeated_save_is_byte_identical(self, tmp_path):
        model = case_study_model()
        model.save(tmp_path / "a.tm")
        model.save(tmp_path / "b.tm")
        assert (tmp_path / "a.tm").read_bytes() == (tmp_path / "b.tm").read_bytes()

    def test_loaded_states_are_writable_int16_and_keep_training(self, tmp_path):
        rng = np.random.default_rng(5)
        docs = [BoolDoc(f"d{i}", (Label.KNOWN, Label.NOVEL)[i % 2], rng.random(70) < 0.3) for i in range(20)]
        model = TMModel.create(small_params(clause_count=12, seed=4), 70)
        fit(model, docs, epochs=2)
        model.save(tmp_path / "model.tm")
        loaded = TMModel.load(tmp_path / "model.tm")
        for label in (Label.KNOWN, Label.NOVEL):
            state = loaded.banks[label].state
            assert state.dtype == np.int16 and state.flags.writeable and state.flags.c_contiguous
            assert np.array_equal(state, model.banks[label].state)
        # Training goes on from the file exactly as from the machine in memory.
        fit(model, docs, epochs=2)
        fit(loaded, docs, epochs=2)
        for label in (Label.KNOWN, Label.NOVEL):
            assert np.array_equal(loaded.banks[label].state, model.banks[label].state)

    def test_short_read_raises(self, tmp_path, monkeypatch):
        # The file shrinks between the size check and the read.
        path = tmp_path / "model.tm"
        case_study_model().save(path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-10])
        real_fstat = os.fstat

        def stale_fstat(fd):
            fields = real_fstat(fd)
            return os.stat_result((*fields[:6], size, *fields[7:]))

        monkeypatch.setattr(tsetlin.os, "fstat", stale_fstat)
        with pytest.raises(ValueError, match="ended before"):
            TMModel.load(path)

    def test_bank_states_cannot_be_rebound(self):
        # A bank's states are a view of the model's file image; replacing them would leave the image behind.
        bank = case_study_model().banks[Label.NOVEL]
        with pytest.raises(AttributeError):
            bank.state = np.ones_like(bank.state)

    def test_save_writes_states_written_in_place(self, tmp_path):
        model = case_study_model()
        replacement = np.random.default_rng(2).integers(1, 17, size=model.banks[Label.NOVEL].state.shape)
        model.banks[Label.NOVEL].state[...] = replacement
        model.save(tmp_path / "model.tm")
        loaded = TMModel.load(tmp_path / "model.tm")
        assert np.array_equal(loaded.banks[Label.NOVEL].state, replacement)
        assert np.array_equal(loaded.banks[Label.KNOWN].state, case_study_model().banks[Label.KNOWN].state)

    def test_load_reads_each_bank_once_through_the_stored_bank(self, tmp_path, monkeypatch):
        model = case_study_model()
        model.save(tmp_path / "model.tm")
        reads = []
        real_read = tsetlin.StoredBank.read

        def spy(bank, out, start=0):
            reads.append((bank._label, out.shape, start))
            real_read(bank, out, start)

        monkeypatch.setattr(tsetlin.StoredBank, "read", spy)
        loaded = TMModel.load(tmp_path / "model.tm")
        assert reads == [(label, model.banks[label].state.shape, 0) for label in (Label.KNOWN, Label.NOVEL)]
        for label in (Label.KNOWN, Label.NOVEL):
            assert np.array_equal(loaded.banks[label].state, model.banks[label].state)

    def test_save_writes_exactly_the_file_bytes(self, tmp_path, monkeypatch):
        # One buffer goes to the writer, header and states, and nothing more.
        written = []
        monkeypatch.setattr(tsetlin, "atomic_write_bytes", lambda path, data: written.append(len(data)))
        case_study_model().save(tmp_path / "model.tm")
        monkeypatch.undo()
        case_study_model().save(tmp_path / "model.tm")
        assert written == [(tmp_path / "model.tm").stat().st_size]

    def test_header_longer_than_its_slot_raises(self, tmp_path):
        model = TMModel.create(small_params(), 2, vocab_hash="x" * tsetlin._MAX_HEADER_BYTES)
        with pytest.raises(ValueError, match="header"):
            model.save(tmp_path / "model.tm")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.tm"
        path.write_bytes(b'{"format": "something-else"}\nxxxx')
        with pytest.raises(ValueError, match="not a model file"):
            TMModel.load(path)


class TestStoredModel:
    """The read stages' stored model streams what ``load`` and the machine in memory hold."""

    @pytest.mark.parametrize("clause_count", [70_000, 140_000])
    def test_include_counts_of_a_block_of_many_rows(self, tmp_path, clause_count):
        # One feature would make a row block of 2**18 rows, so the cap of
        # 2**16 - 1 rows sets the block, and each bank has more rows than a
        # uint16 column sum can count; at 140 000 clauses each polarity half
        # alone has 70 000.  A literal included by every clause counts them all.
        model = TMModel.create(small_params(clause_count=clause_count), 1)
        rng = np.random.default_rng(clause_count)
        for k, bank in enumerate(model.banks.values()):
            assert bank._block_rows == tsetlin._UINT16_ROWS < clause_count
            include = rng.random(bank.state.shape) < 0.5
            include[:, k] = True
            shape = bank.state.shape
            bank.state[...] = np.where(include, rng.integers(9, 17, shape), rng.integers(1, 9, shape))
        path = tmp_path / "model.tm"
        model.save(path)
        half = clause_count // 2
        with StoredModel.open(path) as stored:
            counted, streamed = include_counts(model), include_counts(stored)
            for k, (label, bank) in enumerate(model.banks.items()):
                include = include_mask(bank)
                oracle = [include[:half].sum(0), include[half:].sum(0)]
                assert oracle[0][k] == oracle[1][k] == half
                assert np.array_equal(counted[label][0], oracle)
                assert np.array_equal(streamed[label][0], oracle)

    @pytest.mark.parametrize("feature_count", [1, 37, 70])
    def test_stream_reads_what_memory_and_load_hold(self, tmp_path, monkeypatch, feature_count):
        # Row blocks of 3 over 14 clauses: edges at rows 3 and 6 in the positive
        # half, 9 and 12 in the negative half.
        monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 3 * 2 * 2 * feature_count)
        rng = np.random.default_rng(feature_count)
        vocab = Vocabulary(tuple(f"w{i:03d}" for i in range(feature_count)))
        model = TMModel.create(small_params(clause_count=14), feature_count, vocab_hash=vocab.sha256())
        for k, bank in enumerate(model.banks.values()):
            include = rng.random(bank.state.shape) < (0.1, 0.5)[k]
            include[rng.random(bank.clause_count) < 0.3] = False  # empty clauses
            shape = bank.state.shape
            bank.state[...] = np.where(include, rng.integers(9, 17, shape), rng.integers(1, 9, shape))
        path = tmp_path / "model.tm"
        model.save(path)
        loaded = TMModel.load(path)
        with StoredModel.open(path) as stored:
            assert (stored.params, stored.feature_count) == (model.params, feature_count)
            assert stored.vocab_hash == vocab.sha256()
            counted, streamed, reloaded = include_counts(model), include_counts(stored), include_counts(loaded)
            for label, bank in stored.banks.items():
                assert [start for start, _ in bank.include_blocks()] == [0, 3, 6, 9, 12]
                assert np.array_equal(streamed[label][0], counted[label][0])
                assert np.array_equal(reloaded[label][0], counted[label][0])
            bags = build_word_bags(model, vocab)
            assert build_word_bags(stored, vocab) == bags == build_word_bags(loaded, vocab)
            clauses = extract_clauses(model, vocab)
            assert extract_clauses(stored, vocab) == clauses == extract_clauses(loaded, vocab)
            assert clauses == extract_clauses_by_row(model, vocab)

    def test_a_bad_state_stops_the_stream_at_its_own_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 3 * 2 * 2 * 10)
        model = TMModel.create(small_params(clause_count=14), 10)
        model.banks[Label.NOVEL].state[-1, -1] = 17  # one past 2n, in the last block of the second bank
        path = tmp_path / "model.tm"
        model.save(path)
        with StoredModel.open(path) as stored:
            assert [start for start, _ in stored.banks[Label.KNOWN].include_blocks()] == [0, 3, 6, 9, 12]
            starts = []
            with pytest.raises(ValueError, match=r"novel clause states outside \[1, 16\]"):
                for start, _ in stored.banks[Label.NOVEL].include_blocks():
                    starts.append(start)
            assert starts == [0, 3, 6, 9]
        with pytest.raises(ValueError, match="novel clause states outside"):
            TMModel.load(path)

    def test_a_pass_fills_one_mask_for_all_its_blocks(self, tmp_path, monkeypatch):
        # Row blocks of 3 over 14 clauses: five blocks, the last of two rows.
        monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 3 * 2 * 2 * 10)
        rng = np.random.default_rng(11)
        model = TMModel.create(small_params(clause_count=14), 10)
        for bank in model.banks.values():
            bank.state[...] = rng.integers(1, 17, bank.state.shape)
        model.save(tmp_path / "model.tm")
        with StoredModel.open(tmp_path / "model.tm") as stored:
            for label in (Label.KNOWN, Label.NOVEL):
                expected = include_mask(model.banks[label])
                for bank in (model.banks[label], stored.banks[label]):
                    blocks = bank.include_blocks()
                    _, first = next(blocks)
                    seen = [first.copy()]
                    for start, block in blocks:
                        assert np.shares_memory(block, first)
                        seen.append(block.copy())
                    assert [len(block) for block in seen] == [3, 3, 3, 3, 2]
                    assert np.array_equal(np.concatenate(seen), expected)

    def test_short_reads_are_refilled(self, tmp_path, monkeypatch):
        # Every positional read returns at most 7 bytes, so each block takes many.
        model = case_study_model()
        model.save(tmp_path / "model.tm")
        real_preadv = os.preadv
        monkeypatch.setattr(tsetlin.os, "preadv", lambda fd, buffers, offset: real_preadv(fd, [buffers[0][:7]], offset))
        with StoredModel.open(tmp_path / "model.tm") as stored:
            streamed, counted = include_counts(stored), include_counts(model)
            for label in stored.banks:
                assert np.array_equal(streamed[label][0], counted[label][0])
        assert np.array_equal(TMModel.load(tmp_path / "model.tm").banks[Label.NOVEL].state, model.banks[Label.NOVEL].state)

    def test_opening_checks_the_header_and_the_file_is_closed_after(self, tmp_path):
        path = tmp_path / "junk.tm"
        path.write_bytes(b'{"format": "something-else"}\nxxxx')
        with pytest.raises(ValueError, match="not a model file"):
            with StoredModel.open(path):
                pass
        case_study_model().save(path)
        with StoredModel.open(path) as stored:
            handle = stored.banks[Label.KNOWN]._fh
            assert not handle.closed
        assert handle.closed

    def test_a_file_closed_in_the_middle_of_a_pass_raises_at_the_next_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 2 * 2 * 2 * 10)  # two of four rows per block
        case_study_model().save(tmp_path / "model.tm")
        with StoredModel.open(tmp_path / "model.tm") as stored:
            blocks = stored.banks[Label.NOVEL].include_blocks()
            assert next(blocks)[0] == 0
            stored.banks[Label.NOVEL]._fh.close()
            with pytest.raises(ValueError, match="closed file"):
                next(blocks)


def _random_docs(seed: int, count: int, features: int, density: float = 0.05) -> list[BoolDoc]:
    rng = np.random.default_rng(seed)
    return [
        BoolDoc(f"d{i}", (Label.KNOWN, Label.NOVEL)[i % 2], rng.random(features) < density) for i in range(count)
    ]


def _trained_states(model: TMModel) -> list[bytes]:
    return [model.banks[label].state.tobytes() for label in (Label.KNOWN, Label.NOVEL)]


class TestReadBanks:
    """``include_counts`` runs one pass per bank at once and ends every pass before it returns."""

    def test_both_passes_run_at_once_and_come_back_in_file_order(self, monkeypatch):
        # Each pass waits for the other at the barrier, so serial passes would time out.
        model = case_study_model()
        labels = {id(bank): label for label, bank in model.banks.items()}
        barrier = threading.Barrier(2, timeout=10)
        monkeypatch.setattr(tsetlin, "_count_bank", lambda bank, columns: (barrier.wait(), labels[id(bank)].value)[1])
        threads = threading.active_count()
        results = include_counts(model)
        assert list(results.items()) == [(Label.KNOWN, "known"), (Label.NOVEL, "novel")]
        assert threading.active_count() == threads

    def test_passes_over_both_banks_of_one_file_keep_apart(self, tmp_path, monkeypatch):
        # One-row blocks and a short switch interval interleave the two passes'
        # reads of the shared file as finely as the interpreter allows.
        monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 2 * 2 * 37)
        rng = np.random.default_rng(5)
        model = TMModel.create(small_params(clause_count=400), 37)
        for bank in model.banks.values():
            bank.state[...] = rng.integers(1, 17, bank.state.shape)
        model.save(tmp_path / "model.tm")
        columns = {Label.KNOWN: [0, 40, 73], Label.NOVEL: [5, 36]}
        expected = include_counts(model, columns)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with StoredModel.open(tmp_path / "model.tm") as stored:
                for _ in range(20):
                    counts = include_counts(stored, columns)
                    assert all(np.array_equal(counts[label][k], expected[label][k]) for label in expected for k in (0, 1))
        finally:
            sys.setswitchinterval(interval)

    def test_the_first_bank_in_file_order_reports_its_error(self, monkeypatch):
        # The novel pass fails first; the known pass fails only after it.
        model = case_study_model()
        labels = {id(bank): label for label, bank in model.banks.items()}
        novel_failed = threading.Event()
        finished = []

        def count_bank(bank, columns):
            label = labels[id(bank)]
            if label is Label.KNOWN:
                assert novel_failed.wait(10)
            finished.append(label)
            novel_failed.set()
            raise ValueError(f"{label.value} failed")

        monkeypatch.setattr(tsetlin, "_count_bank", count_bank)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="known failed"):
            include_counts(model)
        assert finished == [Label.NOVEL, Label.KNOWN]
        assert threading.active_count() == threads


class TestThreadedFeedback:
    """Large banks apply feedback on worker threads with the serial results."""

    @pytest.mark.parametrize("seed", range(5))
    def test_threaded_fit_matches_serial_fit_byte_for_byte(self, seed, monkeypatch):
        features = 2000
        clauses = 2 * (tsetlin._THREAD_BYTES // (8 * features) + 1)  # one bank just above the constant
        docs = _random_docs(seed, 6, features)
        pools = []
        real_pool = tsetlin.ThreadPoolExecutor
        monkeypatch.setattr(tsetlin, "ThreadPoolExecutor", lambda *a, **k: pools.append(a) or real_pool(*a, **k))
        params = small_params(clause_count=clauses, vote_margin=20, sensitivity=25.0, seed=seed)

        threaded = TMModel.create(params, features)
        assert threaded.banks[Label.KNOWN].state.nbytes > tsetlin._THREAD_BYTES
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter between threads as often as it can
        try:
            _, threaded_trace = fit(threaded, docs, epochs=1)
        finally:
            sys.setswitchinterval(interval)
        assert len(pools) == 1
        monkeypatch.setattr(tsetlin, "_THREAD_BYTES", 1 << 62)
        serial = TMModel.create(params, features)
        _, serial_trace = fit(serial, docs, epochs=1)
        assert len(pools) == 1
        assert threaded_trace == serial_trace
        assert _trained_states(threaded) == _trained_states(serial)

    def test_worker_failure_propagates_and_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(tsetlin, "_THREAD_BYTES", 0)
        before = threading.active_count()

        def failing_type_ii(self, fired_rows, literals):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("type II failed on a worker")

        monkeypatch.setattr(ClauseBank, "type_ii", failing_type_ii)
        model = TMModel.create(small_params(clause_count=12), 30)
        with pytest.raises(RuntimeError, match="on a worker"):
            fit(model, _random_docs(1, 10, 30, density=0.3), epochs=1)
        assert threading.active_count() == before
        assert not _feedback_threads()

    def test_desk_size_fit_starts_no_thread(self, monkeypatch):
        before = threading.active_count()
        seen = []
        real_type_i = ClauseBank.type_i

        def watched_type_i(self, *args):
            seen.append((threading.current_thread() is threading.main_thread(), threading.active_count()))
            return real_type_i(self, *args)

        monkeypatch.setattr(ClauseBank, "type_i", watched_type_i)
        model = TMModel.create(small_params(clause_count=200, vote_margin=10), 50)
        fit(model, _random_docs(2, 40, 50, density=0.2), epochs=2)
        assert seen and set(seen) == {(True, before)}

    def test_loaded_model_trains_like_the_saved_one_on_threads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tsetlin, "_THREAD_BYTES", 0)
        docs = _random_docs(3, 16, 90, density=0.2)
        model = TMModel.create(small_params(clause_count=40, seed=7), 90)
        fit(model, docs, epochs=2)
        model.save(tmp_path / "model.tm")
        loaded = TMModel.load(tmp_path / "model.tm")
        assert fit(loaded, docs, epochs=3)[1] == fit(model, docs, epochs=3)[1]
        assert _trained_states(loaded) == _trained_states(model)
        model.save(tmp_path / "a.tm")
        loaded.save(tmp_path / "b.tm")
        assert (tmp_path / "a.tm").read_bytes() == (tmp_path / "b.tm").read_bytes()


def _feedback_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("tmnovelty-feedback")]


class TestTrainEpochs:
    """``train_epochs`` trains one epoch a step, and the caller decides when to stop."""

    @pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
    @pytest.mark.parametrize("seed", range(3))
    def test_stopping_after_k_epochs_is_fit_of_k_epochs(self, tmp_path, monkeypatch, seed, threaded):
        if threaded:
            monkeypatch.setattr(tsetlin, "_THREAD_BYTES", 0)
        docs = _random_docs(seed, 16, 60, density=0.2)
        params = small_params(clause_count=20, seed=seed)
        for k in (1, 2, 3):
            stopped, trace = TMModel.create(params, 60), []
            with closing(train_epochs(stopped, docs)) as epochs:
                for accuracy in epochs:
                    trace.append(accuracy)
                    if len(trace) == k:
                        break
            fitted, fit_trace = fit(TMModel.create(params, 60), docs, epochs=k)
            assert trace == fit_trace
            stopped.save(tmp_path / "stopped.tm")
            fitted.save(tmp_path / "fitted.tm")
            assert (tmp_path / "stopped.tm").read_bytes() == (tmp_path / "fitted.tm").read_bytes(), k

    def test_closing_the_iterator_mid_run_ends_its_worker_threads(self, monkeypatch):
        monkeypatch.setattr(tsetlin, "_THREAD_BYTES", 0)
        model = TMModel.create(small_params(clause_count=12), 30)
        epochs = train_epochs(model, _random_docs(1, 10, 30, density=0.3))
        next(epochs)
        assert _feedback_threads()
        epochs.close()
        assert not _feedback_threads()


class TestFitMemory:
    """Training temporaries stay within their block budgets, not the bank's size."""

    @staticmethod
    def _bank() -> tuple[ClauseBank, np.ndarray]:
        # 512 clauses of 4 096 literals: 4 MiB of int16 states.
        rng = np.random.default_rng(3)
        bank = clause_bank(512, 2_048, 8)
        bank.state[...] = rng.integers(1, 17, size=bank.state.shape)
        return bank, literal_vector(rng.random(bank.feature_count) < 0.5)

    def test_first_evaluation_builds_the_view_a_block_at_a_time(self, monkeypatch):
        monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 512 << 10)
        bank, lits = self._bank()
        assert bank._block_rows * 4 < bank.clause_count
        peak = traced_peak(lambda: bank.fired(pack_bits(~lits), EvalMode.LEARNING))
        assert peak - bank._packed.nbytes < bank.state.nbytes / 4
        include = include_mask(bank)
        assert np.array_equal(bank._packed, pack_bits(include).T)

    def test_type_i_gathers_feedback_sized_blocks(self):
        # Only the block budget splits this call's gathers.
        bank, lits = self._bank()
        fired = bank.fired(pack_bits(~lits), EvalMode.LEARNING)
        forget = _bernoulli_positions(bank.state.size, 1 / 25, np.random.default_rng(4))
        rows = np.arange(bank.clause_count)
        peak = traced_peak(lambda: bank.type_i(rows[fired], rows[~fired], lits, forget))
        assert peak < 4 * tsetlin._BLOCK_BYTES
