"""End-to-end pipeline, exit codes, idempotence, and config round-trips."""

import csv
import dataclasses
import errno
import fcntl
import json
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from tmnovelty import _files, cli, novelty, tsetlin
from tmnovelty.cli import EXIT_MISSING, EXIT_OK, EXIT_VALIDATION, build_parser, main
from tmnovelty.config import RunConfig, parse_config, serialize_config
from tmnovelty.corpus import (
    Label, Vocabulary, booleanize, read_tokens, read_vocabulary, write_tokens, write_vocabulary,
)

from helpers import CASE_STUDY_WORDS, case_study_model, case_study_vocab, traced_peak


@pytest.fixture()
def corpus_dirs(tmp_path):
    known = tmp_path / "known"
    novel = tmp_path / "novel"
    known.mkdir()
    novel.mkdir()
    known_texts = [
        "the cricket match was won by england hitting six",
        "england won the cricket match with a six off the last ball",
        "a fine cricket innings with six runs and a hit",
        "cricket england match hit six ball won",
        "the bowler took a wicket in the cricket match",
        "england hit six in cricket again",
    ]
    novel_texts = [
        "england won the rugby match despite using old ball",
        "the rugby team won the match despite old tactics",
        "rugby scrum despite the old ball",
        "old rugby ball despite the rain",
        "a rugby match won despite old injuries",
        "rugby despite old england won match",
    ]
    for i, text in enumerate(known_texts):
        (known / f"k{i}.txt").write_text(text, "utf-8")
    for i, text in enumerate(novel_texts):
        (novel / f"n{i}.txt").write_text(text, "utf-8")
    return known, novel


TRAIN_PARAMS = ["--clauses", "16", "--vote-margin", "5", "--sensitivity", "3.0", "--state-count", "16"]


def corpus_flags(corpus_dirs):
    known, novel = corpus_dirs
    return ["--known-dir", str(known), "--novel-dir", str(novel)]


def run_pipeline(tmp_path, corpus_dirs, seed="7"):
    out = tmp_path / "out"
    assert main(["ingest", *corpus_flags(corpus_dirs), "--out", str(out)]) == EXIT_OK
    assert main(["train", *TRAIN_PARAMS, "--epochs", "10", "--seed", seed, "--out", str(out)]) == EXIT_OK
    assert main(["describe", "--out", str(out)]) == EXIT_OK
    assert main(["tfidf", "--out", str(out)]) == EXIT_OK
    assert main(["eval", "--seed", seed, "--out", str(out)]) == EXIT_OK
    return out


class TestPipeline:
    def test_all_stages_produce_files(self, tmp_path, corpus_dirs):
        out = run_pipeline(tmp_path, corpus_dirs)
        for name in (
            "vocabulary.txt", "tokens.csv", "booldocs.csv", "model.tm",
            "clauses.csv", "epoch_trace.csv", "score_table.csv", "tfidf.csv",
            "report.json", "roc_tm.csv", "pr_tm.csv", "roc_tfidf.csv", "pr_tfidf.csv",
            "doc_scores.csv",
        ):
            assert (out / name).is_file(), name
        report = json.loads((out / "report.json").read_text("utf-8"))
        assert 0.0 <= report["tm"]["auc"] <= 1.0
        doc_rows = (out / "doc_scores.csv").read_text("utf-8").splitlines()
        assert doc_rows[0] == "doc_id,label,aggregate"
        assert len(doc_rows) == 13  # header + twelve documents
        for path in sorted(out.glob("*.csv")):
            header, *rows = read_csv(path)
            assert all(len(row) == len(header) for row in rows), path.name

    def test_context_command(self, tmp_path, corpus_dirs):
        out = run_pipeline(tmp_path, corpus_dirs)
        code = main(["context", "--words", "rugby,cricket", "--target-class", "novel", "--out", str(out)])
        assert code == EXIT_OK
        matrix = (out / "context_novel.csv").read_text("utf-8").splitlines()
        assert matrix[0] == "word,rugby,cricket"
        assert len(matrix) == 3

    def test_train_is_deterministic_and_idempotent(self, tmp_path, corpus_dirs):
        out1 = run_pipeline(tmp_path / "run1", corpus_dirs)
        out2 = run_pipeline(tmp_path / "run2", corpus_dirs)
        for name in ("model.tm", "score_table.csv", "report.json", "vocabulary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_rerun_rewrites_byte_identical_outputs(self, tmp_path, corpus_dirs):
        out = run_pipeline(tmp_path, corpus_dirs)
        before = (out / "model.tm").read_bytes()
        assert main(["train", *TRAIN_PARAMS, "--epochs", "10", "--seed", "7", "--out", str(out)]) == EXIT_OK
        assert (out / "model.tm").read_bytes() == before

    def test_eval_keeps_a_cfd_file_only_for_each_category_it_reports(self, tmp_path, corpus_dirs):
        out = run_pipeline(tmp_path, corpus_dirs)

        def cfd_names():
            report = json.loads((out / "report.json").read_text("utf-8"))
            return sorted(report["cfd"]), sorted(p.name.removeprefix("cfd_").removesuffix(".csv")
                                                 for p in out.glob("cfd_*.csv"))

        assert cfd_names() == (["known_only", "novel_only", "shared"],) * 2
        # Two clauses share no word, so the rerun's shared category is empty.
        tiny = ["--clauses", "2", "--vote-margin", "1", "--sensitivity", "2", "--epochs", "5", "--seed", "0"]
        assert main(["train", *tiny, "--out", str(out)]) == EXIT_OK
        assert main(["eval", "--seed", "7", "--out", str(out)]) == EXIT_OK
        assert cfd_names() == (["known_only", "novel_only"],) * 2


def read_csv(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestBoolDocsFile:
    """``ingest`` writes ``booldocs.csv`` for other tools; no stage reads it."""

    @pytest.mark.parametrize("min_df", ["1", "2"])
    def test_each_row_is_its_token_row_booleanized(self, tmp_path, corpus_dirs, min_df):
        out = tmp_path / "out"
        assert main(["ingest", *corpus_flags(corpus_dirs), "--min-df", min_df, "--out", str(out)]) == EXIT_OK
        vocab = read_vocabulary(out / "vocabulary.txt")
        expected = [
            [doc_id, label.value, ";".join(str(i) for i, bit in enumerate(booleanize(tokens, vocab)) if bit)]
            for doc_id, label, tokens in read_tokens(out / "tokens.csv")
        ]
        assert read_csv(out / "booldocs.csv") == [["doc_id", "label", "set_bits"], *expected]

    @pytest.mark.parametrize("damage", ["deleted", "garbled"])
    def test_train_does_not_read_it(self, tmp_path, corpus_dirs, damage):
        run = small_run(tmp_path, corpus_dirs)
        out = tmp_path / "out"
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        assert main(["train", *run["train"]]) == EXIT_OK
        trained = (out / "model.tm").read_bytes()
        if damage == "deleted":
            (out / "booldocs.csv").unlink()
        else:
            (out / "booldocs.csv").write_bytes(b"\xff\xfe,\"\nset_bits;-1\n")
        (out / "model.tm").unlink()
        assert main(["train", *run["train"]]) == EXIT_OK
        assert (out / "model.tm").read_bytes() == trained


class TestCsvFields:
    """Any doc id and any document length survive every stage's CSV round trip."""

    def test_long_document_runs_every_stage(self, tmp_path, corpus_dirs):
        known, _ = corpus_dirs
        words = ("cricket", "england", "six", "match", "ball")
        (known / "long.txt").write_text(" ".join(words[i % 5] for i in range(30_000)), "utf-8")
        out = ["--out", str(tmp_path / "out")]
        assert main(["ingest", *corpus_flags(corpus_dirs), *out]) == EXIT_OK
        assert max(len(line) for line in (tmp_path / "out" / "tokens.csv").read_text("utf-8").splitlines()) > 131_072
        assert main(["train", "--profile", "desk", "--epochs", "2", *out]) == EXIT_OK
        assert main(["tfidf", *out]) == EXIT_OK
        assert main(["eval", *out]) == EXIT_OK

    def test_csv_corpus_with_a_long_text_ingests(self, tmp_path):
        text = " ".join(["rugby scrum"] * 20_000)
        assert len(text) > 131_072
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(f"doc_id,label,text\na,known,cricket six\nb,novel,{text}\n", "utf-8")
        assert main(["ingest", "--csv-path", str(corpus), "--out", str(tmp_path / "out")]) == EXIT_OK
        tokens = read_tokens(tmp_path / "out" / "tokens.csv")
        assert [len(t) for _, _, t in tokens] == [2, 40_000]

    def test_doc_ids_with_csv_specials_round_trip(self, tmp_path):
        ids = ["a,b", 'say "hi"', "cr\rlf", "nl\nx"]
        corpus = tmp_path / "corpus.csv"
        corpus.write_bytes(
            'doc_id,label,text\n'
            '"a,b",known,england won the cricket match hitting six\n'
            '"say ""hi""",known,cricket six england ball\n'
            '"cr\rlf",novel,rugby match despite old ball\n'
            '"nl\nx",novel,old rugby despite england\n'.encode("utf-8")
        )
        out = tmp_path / "out"
        assert main(["ingest", "--csv-path", str(corpus), "--out", str(out)]) == EXIT_OK
        assert main(["train", *TRAIN_PARAMS, "--epochs", "10", "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert main(["describe", "--out", str(out)]) == EXIT_OK
        words = ",".join(row[0] for row in read_csv(out / "score_table.csv")[1:3])
        assert main(["context", "--words", words, "--out", str(out)]) == EXIT_OK
        assert main(["tfidf", "--out", str(out)]) == EXIT_OK
        assert main(["eval", "--seed", "1", "--out", str(out)]) == EXIT_OK
        for name in ("tokens.csv", "booldocs.csv", "doc_scores.csv"):
            with (out / name).open(newline="", encoding="utf-8") as fh:
                assert [row["doc_id"] for row in csv.DictReader(fh)] == ids, name


class TestMalformedCsv:
    """A row that would read back short, long or merged is refused with its file and line."""

    @staticmethod
    def ingested(tmp_path, corpus_dirs, capsys) -> Path:
        out = tmp_path / "out"
        assert main(["ingest", *corpus_flags(corpus_dirs), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        return out

    def test_corpus_row_with_more_fields_than_the_header(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        # A blank line holds no row but counts as a line.
        corpus.write_text("doc_id,label,text\nd0,novel,rugby old ball\n\nd1,known,cricket bat ball, and wicket\n", "utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--csv-path", str(corpus), "--out", str(out)]) == EXIT_VALIDATION
        assert one_line_error(capsys) == "error: corpus.csv line 4: 4 fields, the header has 3\n"
        assert [p.name for p in out.iterdir()] == [".lock"]

    @pytest.mark.parametrize(
        "name,row,stage,product",
        [("tokens.csv", "x,known,cricket six,ball\n", "tfidf", "tfidf.csv"),
         ("tokens.csv", "x,known\n", "tfidf", "tfidf.csv"),
         ("tokens.csv", "x,known,cricket,six ball\n", "train", "model.tm")],
        ids=["tokens-long", "tokens-short", "train-tokens-long"],
    )
    def test_stage_row_of_another_width_than_the_header(self, tmp_path, corpus_dirs, capsys, name, row, stage, product):
        out = self.ingested(tmp_path, corpus_dirs, capsys)
        with (out / name).open("a", encoding="utf-8") as fh:
            fh.write(row)  # line 14, after the header and 12 documents
        argv = [stage, *(TRAIN_PARAMS if stage == "train" else []), "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        width = row.count(",") + 1
        assert one_line_error(capsys) == f"error: {name} line 14: {width} fields, the header has 3\n"
        assert not (out / product).exists()

    @pytest.mark.parametrize(
        "row,problem",
        # The unterminated quote would swallow every line after it; the row's first line is named.
        [('x,known,"abc def\ny,novel,rugby ball\n', "unexpected end of data"),
         ('x,known,"abc" def\n', "',' expected after '\"'")],
        ids=["unterminated-quote", "text-after-closing-quote"],
    )
    def test_malformed_quoting(self, tmp_path, corpus_dirs, capsys, row, problem):
        out = self.ingested(tmp_path, corpus_dirs, capsys)
        with (out / "tokens.csv").open("a", encoding="utf-8") as fh:
            fh.write(row)
        assert main(["tfidf", "--out", str(out)]) == EXIT_VALIDATION
        assert one_line_error(capsys) == f"error: tokens.csv line 14: {problem}\n"
        assert not (out / "tfidf.csv").exists()

    @pytest.mark.parametrize(
        "row,problem",
        [("x,maybe,cricket six\n", "unknown label 'maybe'; expected 'known' or 'novel'"),
         ("novel/n5.txt,novel,rugby old\n", "duplicate doc id in the corpus: 'novel/n5.txt'")],
        ids=["unknown-label", "repeated-doc-id"],
    )
    @pytest.mark.parametrize("stage,product", [("train", "model.tm"), ("tfidf", "tfidf.csv")])
    def test_refused_token_row(self, tmp_path, corpus_dirs, capsys, stage, product, row, problem):
        out = self.ingested(tmp_path, corpus_dirs, capsys)
        with (out / "tokens.csv").open("a", encoding="utf-8") as fh:
            fh.write(row)  # line 14, after the header and 12 documents
        argv = [stage, *(TRAIN_PARAMS if stage == "train" else []), "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        assert one_line_error(capsys) == f"error: tokens.csv line 14: {problem}\n"
        assert not (out / product).exists()

    def test_corpus_header_repeating_a_column(self, tmp_path, capsys):
        # Read as a dict, the last 'label' column would win and swap the classes.
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("doc_id,label,text,label\nd0,novel,rugby old ball,known\nd1,known,cricket bat,novel\n", "utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--csv-path", str(corpus), "--out", str(out)]) == EXIT_VALIDATION
        assert one_line_error(capsys) == "error: corpus.csv: header repeats column(s) label\n"
        assert [p.name for p in out.iterdir()] == [".lock"]

    @pytest.mark.parametrize(
        "name,stage,product",
        [("tokens.csv", "tfidf", "tfidf.csv"), ("tokens.csv", "train", "model.tm")],
        ids=["tokens", "train-tokens"],
    )
    def test_stage_header_repeating_a_column(self, tmp_path, corpus_dirs, capsys, name, stage, product):
        out = self.ingested(tmp_path, corpus_dirs, capsys)
        header, *rows = (out / name).read_text("utf-8").splitlines()
        (out / name).write_text("\n".join([header + ",doc_id", *(row + ",x" for row in rows)]) + "\n", "utf-8")
        argv = [stage, *(TRAIN_PARAMS if stage == "train" else []), "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        assert one_line_error(capsys) == f"error: {name}: header repeats column(s) doc_id\n"
        assert not (out / product).exists()

    def test_vocabulary_repeating_a_word(self, tmp_path, corpus_dirs, capsys):
        out = self.ingested(tmp_path, corpus_dirs, capsys)
        vocabulary = out / "vocabulary.txt"
        vocabulary.write_text(vocabulary.read_text("utf-8") + "cricket\n", "utf-8")
        assert main(["train", *TRAIN_PARAMS, "--out", str(out)]) == EXIT_VALIDATION
        assert one_line_error(capsys) == f"error: {vocabulary}: vocabulary repeats the word 'cricket'\n"
        assert not (out / "model.tm").exists()

def small_run(tmp_path, corpus_dirs):
    """Each stage's flags for a small run into tmp_path/out."""
    out = ["--out", str(tmp_path / "out")]
    return {
        "ingest": [*corpus_flags(corpus_dirs), *out],
        "train": [*TRAIN_PARAMS, "--epochs", "2", "--seed", "1", *out],
        "describe": out,
        "tfidf": out,
        "eval": ["--seed", "1", *out],
    }


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


class TestExitCodes:
    def test_eval_without_model_is_missing_input(self, tmp_path, corpus_dirs, capsys):
        out = tmp_path / "out"
        assert main(["ingest", *corpus_flags(corpus_dirs), "--out", str(out)]) == EXIT_OK
        code = main(["eval", "--out", str(out)])
        assert code == EXIT_MISSING
        assert "model not found" in capsys.readouterr().err

    def test_missing_corpus_dir(self, tmp_path):
        code = main([
            "ingest", "--known-dir", str(tmp_path / "absent"),
            "--novel-dir", str(tmp_path / "absent2"), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_MISSING

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--data-root", "{absent}", "--known-groups", "a", "--novel-groups", "b"], "corpus root not found"),
            (["--csv-path", "{absent}"], "corpus CSV not found"),
            (["--config", "{absent}"], "config file not found"),
        ],
        ids=["data-root", "csv-path", "config"],
    )
    def test_path_flag_naming_nothing_is_missing_input(self, tmp_path, capsys, flags, message):
        absent = tmp_path / "absent"
        out = tmp_path / "out"
        code = main(["ingest", *(f.format(absent=absent) for f in flags), "--out", str(out)])
        assert code == EXIT_MISSING
        assert one_line_error(capsys) == f"error: {message}: {absent}\n"
        assert not (out / "tokens.csv").exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("clauses 12\n", "line 1 is not 'key = value': 'clauses 12'"),
            ("stemming = maybe\n", "config key 'stemming': expected a boolean, got 'maybe' (line 1)"),
            ("clauses = 1.5\n", "config key 'clauses': expected an integer, got '1.5' (line 1)"),
            ("# run\nsensitivity = high\n", "config key 'sensitivity': expected a number, got 'high' (line 2)"),
            ("clauses = 16\nmin_df = 2\nclauses = 32\n", "config key 'clauses' is set twice (lines 1 and 3)"),
        ],
        ids=["no-equals", "bad-boolean", "float-for-int", "word-for-float", "repeated-key"],
    )
    def test_config_refusal_names_the_key_and_line(self, tmp_path, corpus_dirs, capsys, text, message):
        config = tmp_path / "run.cfg"
        config.write_text(text, "utf-8")
        out = tmp_path / "out"
        assert main(["ingest", *corpus_flags(corpus_dirs), "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        assert one_line_error(capsys) == f"error: malformed config: {message}\n"
        assert not out.exists()

    def test_no_corpus_source_is_validation_error(self, tmp_path):
        assert main(["ingest", "--out", str(tmp_path / "out")]) == EXIT_VALIDATION

    def test_malformed_config_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("clauses == 12\n", "utf-8")
        code = main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION

    def test_bad_params_are_validation_error(self, tmp_path, corpus_dirs):
        out = ["--out", str(tmp_path / "out")]
        assert main(["ingest", *corpus_flags(corpus_dirs), *out]) == EXIT_OK
        code = main(["train", "--clauses", "7", *out])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "setting,flag",
        [
            ("smoothing = false", "--no-smoothing"),
            ("aggregator = max", "--aggregator=max"),
            ("contextual_mode = clause", "--contextual-mode=clause"),
        ],
        ids=["smoothing", "aggregator", "contextual_mode"],
    )
    def test_scoring_variants_are_rejected(self, tmp_path, corpus_dirs, capsys, setting, flag):
        # Scoring has one definition, the paper's; no setting selects another.
        base = small_run(tmp_path, corpus_dirs)["eval"]
        config = tmp_path / "run.cfg"
        config.write_text(f"{setting}\n", "utf-8")
        assert main(["eval", *base, "--config", str(config)]) == EXIT_VALIDATION
        assert "unknown config key" in one_line_error(capsys)
        with pytest.raises(SystemExit) as exited:
            main(["eval", *base, flag])
        assert exited.value.code == 2

    @pytest.mark.parametrize("key", ["clauses", "seed"])
    def test_none_for_a_key_that_needs_a_value(self, tmp_path, corpus_dirs, capsys, key):
        known, novel = corpus_dirs
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = none\n", "utf-8")
        code = main([
            "ingest", "--known-dir", str(known), "--novel-dir", str(novel),
            "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_VALIDATION
        assert f"{key!r} cannot be none" in one_line_error(capsys)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_features_below_one_is_validation_error(self, tmp_path, corpus_dirs, capsys, value):
        base = small_run(tmp_path, corpus_dirs)["ingest"]
        assert main(["ingest", *base, "--max-features", value]) == EXIT_VALIDATION
        assert "max_features" in one_line_error(capsys)
        assert not (tmp_path / "out" / "vocabulary.txt").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_vote_margin_below_one_is_validation_error(self, tmp_path, corpus_dirs, capsys, value):
        run = small_run(tmp_path, corpus_dirs)
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        capsys.readouterr()
        assert main(["train", *run["train"], "--vote-margin", value]) == EXIT_VALIDATION
        assert one_line_error(capsys) == "error: vote_margin must be >= 1\n"
        assert not (tmp_path / "out" / "model.tm").exists()

    def test_tfidf_of_a_token_table_without_documents(self, tmp_path, capsys):
        out = tmp_path / "out"
        write_tokens([], out / "tokens.csv")
        assert main(["tfidf", "--out", str(out)]) == EXIT_VALIDATION
        assert one_line_error(capsys) == "error: at least one document required\n"
        assert not (out / "tfidf.csv").exists()

    def test_state_count_beyond_int16_is_validation_error(self, tmp_path, corpus_dirs, capsys):
        run = small_run(tmp_path, corpus_dirs)
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        capsys.readouterr()
        assert main(["train", *run["train"], "--state-count", "16384"]) == EXIT_VALIDATION
        assert "state_count" in one_line_error(capsys)
        assert not (tmp_path / "out" / "model.tm").exists()

    @pytest.mark.parametrize(
        "flags,message",
        [(["--profile", "full", "--epochs", "0"], "epochs must be >= 1"),
         (["--clauses", "3"], "clause_count must be an even integer >= 2")],
        ids=["epochs", "clauses"],
    )
    @pytest.mark.parametrize("token_table", [True, False], ids=["token-table", "no-token-table"])
    def test_train_settings_are_refused_before_any_input_is_read(
        self, tmp_path, corpus_dirs, capsys, monkeypatch, flags, message, token_table
    ):
        run = small_run(tmp_path, corpus_dirs)
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        if not token_table:
            (tmp_path / "out" / "tokens.csv").unlink()
        capsys.readouterr()
        reads, creates = [], []
        monkeypatch.setattr(cli.corpus_mod, "read_tokens", lambda path: reads.append(path))
        monkeypatch.setattr(tsetlin.TMModel, "create", classmethod(lambda cls, *args, **kwargs: creates.append(args)))
        assert main(["train", *flags, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert one_line_error(capsys) == f"error: {message}\n"
        assert reads == creates == []
        assert not (tmp_path / "out" / "model.tm").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_infinite_sensitivity_is_validation_error(self, tmp_path, corpus_dirs, capsys, source):
        run = small_run(tmp_path, corpus_dirs)
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        capsys.readouterr()
        config = tmp_path / "run.cfg"
        config.write_text("sensitivity = inf\n", "utf-8")
        given = ["--sensitivity", "inf"] if source == "flag" else ["--config", str(config)]
        code = main(["train", "--clauses", "16", "--epochs", "2", *given, "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "sensitivity must be a finite number > 1" in one_line_error(capsys)
        assert not (tmp_path / "out" / "model.tm").exists()

    def test_states_too_large_to_allocate_are_validation_error(self, tmp_path, corpus_dirs, capsys, monkeypatch):
        # The allocation is made to fail; the memory is never asked for.
        run = small_run(tmp_path, corpus_dirs)
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        capsys.readouterr()
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            if np.prod(shape) > 1 << 30:
                raise MemoryError("cannot allocate")
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        code = main(["train", "--clauses", "20000000000", "--epochs", "1", "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert re.search(r"20000000000 clauses per class over \d+ features need [\d.]+ GiB", one_line_error(capsys))
        assert not (tmp_path / "out" / "model.tm").exists()

    def test_train_without_a_token_table_is_missing_input(self, tmp_path, corpus_dirs, capsys):
        run = small_run(tmp_path, corpus_dirs)
        out = tmp_path / "out"
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        (out / "tokens.csv").unlink()
        capsys.readouterr()
        assert main(["train", *run["train"]]) == EXIT_MISSING
        assert one_line_error(capsys) == f"error: token table not found: {out / 'tokens.csv'}\n"
        assert not (out / "model.tm").exists()

    def test_train_refuses_an_empty_vocabulary(self, tmp_path, corpus_dirs, capsys):
        # A vocabulary with no word would train a model of 0 features.
        run = small_run(tmp_path, corpus_dirs)
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "out"
        (out / "vocabulary.txt").write_text("", "utf-8")
        assert main(["train", *run["train"]]) == EXIT_VALIDATION
        assert "vocabulary.txt: vocabulary holds no word" in one_line_error(capsys)
        assert not (out / "model.tm").exists()

    @pytest.mark.parametrize("stage,product", [("train", "model.tm"), ("eval", "report.json")])
    def test_negative_seed_is_validation_error(self, tmp_path, corpus_dirs, capsys, stage, product):
        run = small_run(tmp_path, corpus_dirs)
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        if stage == "eval":
            assert main(["train", *run["train"]]) == EXIT_OK
        capsys.readouterr()
        assert main([stage, *run[stage], "--seed", "-1"]) == EXIT_VALIDATION
        assert "seed must be >= 0" in one_line_error(capsys)
        assert not (tmp_path / "out" / product).exists()

    def test_vocab_hash_mismatch(self, tmp_path, corpus_dirs, capsys):
        run = small_run(tmp_path, corpus_dirs)
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        assert main(["train", *run["train"]]) == EXIT_OK
        # Re-ingest with a different vocabulary (higher min_df) under the same dir.
        assert main(["ingest", *run["ingest"], "--min-df", "4"]) == EXIT_OK
        code = main(["describe", *run["describe"]])
        assert code == EXIT_VALIDATION
        assert "hash mismatch" in capsys.readouterr().err

    def test_eval_of_a_label_too_small_to_split(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("doc_id,label,text\na,known,cricket six england\nb,novel,rugby old despite\n", "utf-8")
        out = ["--out", str(tmp_path / "out")]
        assert main(["ingest", "--csv-path", str(corpus), *out]) == EXIT_OK
        assert main(["train", *TRAIN_PARAMS, "--epochs", "5", *out]) == EXIT_OK
        capsys.readouterr()
        assert main(["eval", *out]) == EXIT_VALIDATION
        assert "1 known document(s) cannot be split" in one_line_error(capsys)
        assert not (tmp_path / "out" / "report.json").exists()


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


# Each edit takes the parsed header and the raw state bytes of a case-study
# model.tm and returns the corrupted pair.
MODEL_CORRUPTIONS = {
    "missing-feature-count": lambda h, body: (_without(h, "feature_count"), body),
    "string-feature-count": lambda h, body: ({**h, "feature_count": "10"}, body),
    "missing-param": lambda h, body: ({**h, "params": _without(h["params"], "state_count")}, body),
    "float-clause-count": lambda h, body: ({**h, "params": {**h["params"], "clause_count": 4.0}}, body),
    "numeric-vocab-hash": lambda h, body: ({**h, "vocab_hash": 7}, body),
    "header-not-an-object": lambda h, body: ([h], body),
    "version-2": lambda h, body: ({**h, "version": 2}, body),
    "int32-states": lambda h, body: ({**h, "state_dtype": "<i4"}, body),
    "truncated": lambda h, body: (h, body[:-2]),
    "trailing-bytes": lambda h, body: (h, body + b"\x00\x00"),
    "state-999": lambda h, body: (h, np.array([999], dtype="<i2").tobytes() + body[2:]),
    "state-0": lambda h, body: (h, body[:-2] + b"\x00\x00"),
    "zero-feature-count": lambda h, body: ({**h, "feature_count": 0}, b""),
    "header-only": lambda h, body: (h, b""),
    "half-body": lambda h, body: (h, body[: len(body) // 2]),
}


@pytest.mark.parametrize("corrupt", MODEL_CORRUPTIONS.values(), ids=MODEL_CORRUPTIONS.keys())
def test_describe_rejects_corrupt_model(tmp_path, capsys, corrupt):
    out = tmp_path / "out"
    write_vocabulary(case_study_vocab(), out / "vocabulary.txt")
    case_study_model().save(out / "model.tm")
    raw = (out / "model.tm").read_bytes()
    newline = raw.index(b"\n")
    header, body = corrupt(json.loads(raw[:newline]), raw[newline + 1 :])
    (out / "model.tm").write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    assert main(["describe", "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# The read stages, and every file any of them writes that the others do not.
READ_STAGES = {"describe": ["describe"], "context": ["context", "--words", "rugby,cricket"], "eval": ["eval"]}
READ_OUTPUTS = ("score_table.csv", "context_novel.csv", "report.json", "doc_scores.csv")


def _case_study_run(out, model=None):
    """The inputs of every read stage: the case-study vocabulary and model, and ten token lists."""
    write_vocabulary(case_study_vocab(), out / "vocabulary.txt")
    (model or case_study_model()).save(out / "model.tm")
    known = [(f"k{i}", Label.KNOWN, ["cricket", "six", "hit"][: 1 + i % 3]) for i in range(5)]
    novel = [(f"n{i}", Label.NOVEL, ["rugby", "old", "despite"][: 1 + i % 3]) for i in range(5)]
    write_tokens(known + novel, out / "tokens.csv")


def test_describe_refuses_a_header_holding_infinity(tmp_path, capsys):
    out = tmp_path / "out"
    _case_study_run(out)
    raw = (out / "model.tm").read_bytes()
    edited = raw.replace(b'"sensitivity": 3.0', b'"sensitivity": Infinity', 1)
    assert edited != raw
    (out / "model.tm").write_bytes(edited)
    assert main(["describe", "--out", str(out)]) == EXIT_VALIDATION
    assert "sensitivity must be a finite number > 1" in one_line_error(capsys)
    assert not (out / "score_table.csv").exists()


@pytest.mark.parametrize("stage", READ_STAGES.values(), ids=READ_STAGES.keys())
def test_read_stage_runs_on_the_case_study_run(tmp_path, stage):
    out = tmp_path / "out"
    _case_study_run(out)
    assert main([*stage, "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("corrupt", MODEL_CORRUPTIONS.values(), ids=MODEL_CORRUPTIONS.keys())
@pytest.mark.parametrize("stage", READ_STAGES.values(), ids=READ_STAGES.keys())
def test_read_stage_rejects_corrupt_model_and_writes_nothing(tmp_path, capsys, stage, corrupt):
    out = tmp_path / "out"
    _case_study_run(out)
    raw = (out / "model.tm").read_bytes()
    newline = raw.index(b"\n")
    header, body = corrupt(json.loads(raw[:newline]), raw[newline + 1 :])
    (out / "model.tm").write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    assert main([*stage, "--out", str(out)]) == EXIT_VALIDATION
    assert "model" in one_line_error(capsys)
    assert not [name for name in READ_OUTPUTS if (out / name).exists()]


# The read stages, plus a context whose target bank is not the bad one.
LAST_BLOCK_STAGES = {**READ_STAGES, "context-known": ["context", "--words", "rugby,cricket", "--target-class", "known"]}


@pytest.mark.parametrize("stage", LAST_BLOCK_STAGES.values(), ids=LAST_BLOCK_STAGES.keys())
def test_bad_state_in_the_last_block_of_the_second_bank_is_rejected(tmp_path, capsys, monkeypatch, stage):
    monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 2 * 2 * 2 * len(CASE_STUDY_WORDS))  # two of four rows per block
    out = tmp_path / "out"
    _case_study_run(out)
    raw = (out / "model.tm").read_bytes()
    (out / "model.tm").write_bytes(raw[:-2] + np.array([17], dtype="<i2").tobytes())
    assert main([*stage, "--out", str(out)]) == EXIT_VALIDATION
    assert "novel clause states outside [1, 16]" in one_line_error(capsys)
    assert not [name for name in (*READ_OUTPUTS, "context_known.csv") if (out / name).exists()]


def _bad_states(last_known: bool, first_novel: bool):
    """A model.tm edit that puts 999 into the last state of the known bank and/or the first of the novel bank."""
    def edit(out, body, bank_bytes):
        raw = bytearray((out / "model.tm").read_bytes())
        for bad, at in ((last_known, body + bank_bytes - 2), (first_novel, body + bank_bytes)):
            if bad:
                raw[at : at + 2] = np.array([999], dtype="<i2").tobytes()
        (out / "model.tm").write_bytes(bytes(raw))
    return edit


def _truncate_inside_the_second_bank(monkeypatch):
    """After the header and size check pass, cut the file one row into the novel bank."""
    def edit(out, body, bank_bytes):
        real_read_header = tsetlin._read_header

        def read_header_then_truncate(fh, path):
            checked = real_read_header(fh, path)
            os.truncate(path, body + bank_bytes + 2 * 2 * len(CASE_STUDY_WORDS))
            return checked

        monkeypatch.setattr(tsetlin, "_read_header", read_header_then_truncate)
    return edit


def _failing_reads(monkeypatch):
    """Every positional read fails as a disk read error does."""
    def edit(out, body, bank_bytes):
        def preadv(*args):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "preadv", preadv)
    return edit


# Both banks are read at once, one thread per bank.  The known bank is the first
# in file order, so when both fail, its error is the one reported, though its
# bad state sits in its last block and the novel bank's in its first.
CONCURRENT_FAILURES = {
    "novel-only": (lambda monkeypatch: _bad_states(False, True), "novel clause states outside [1, 16]"),
    "both-banks": (lambda monkeypatch: _bad_states(True, True), "known clause states outside [1, 16]"),
    "ends-in-second-bank": (_truncate_inside_the_second_bank, "model file ended before its states did"),
    "read-error": (_failing_reads, f"error: {{out}}{os.sep}model.tm: {os.strerror(errno.EIO)}\n"),
}


@pytest.mark.parametrize("failure", CONCURRENT_FAILURES.values(), ids=CONCURRENT_FAILURES.keys())
@pytest.mark.parametrize("stage", READ_STAGES.values(), ids=READ_STAGES.keys())
def test_concurrent_bank_read_fails_cleanly(tmp_path, capsys, monkeypatch, stage, failure):
    make_edit, message = failure
    monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 2 * 2 * 2 * len(CASE_STUDY_WORDS))  # two of four rows per block
    out = tmp_path / "out"
    _case_study_run(out)
    raw = (out / "model.tm").read_bytes()
    body = raw.index(b"\n") + 1
    make_edit(monkeypatch)(out, body, (len(raw) - body) // 2)
    opened = []
    real_open = open

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tsetlin, "open", recording_open, raising=False)
    names, threads = {*os.listdir(out), ".lock"}, threading.active_count()  # every stage leaves its lock file
    assert main([*stage, "--out", str(out)]) == EXIT_VALIDATION
    assert message.format(out=out) in one_line_error(capsys)
    assert set(os.listdir(out)) == names
    assert len(opened) == 1 and opened[0].closed
    assert threading.active_count() == threads


@pytest.mark.parametrize("stage", LAST_BLOCK_STAGES.values(), ids=LAST_BLOCK_STAGES.keys())
def test_read_stage_reads_every_block_once(tmp_path, monkeypatch, stage):
    monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 2 * 2 * 2 * len(CASE_STUDY_WORDS))  # two of four rows per block
    out = tmp_path / "out"
    _case_study_run(out)
    raw = (out / "model.tm").read_bytes()
    body = raw.index(b"\n") + 1
    bank_bytes, block_bytes = (len(raw) - body) // 2, tsetlin._BLOCK_BYTES
    reads = []
    real_preadv = os.preadv

    def counted(fd, buffers, offset):
        reads.append(offset)
        return real_preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", counted)
    assert main([*stage, "--out", str(out)]) == EXIT_OK
    assert sorted(reads) == [
        body + k * bank_bytes + j * block_bytes
        for k in range(2)  # the known bank, then the novel one
        for j in range(bank_bytes // block_bytes)
    ]
    assert bank_bytes // block_bytes == 2


def test_context_reads_the_file_it_opened_when_the_path_is_replaced(tmp_path, monkeypatch):
    # Every novel clause includes every plain literal in the replacement, so
    # its pair counts differ from the case study's.
    other = case_study_model()
    other.banks[Label.NOVEL].state[:, : len(CASE_STUDY_WORDS)] = 16
    for name, model in (("original", None), ("other", other)):
        _case_study_run(tmp_path / name, model)
        assert main(["context", "--words", "rugby,cricket", "--out", str(tmp_path / name)]) == EXIT_OK
    expected = (tmp_path / "original" / "context_novel.csv").read_bytes()
    assert (tmp_path / "other" / "context_novel.csv").read_bytes() != expected
    replacement = (tmp_path / "other" / "model.tm").read_bytes()
    out = tmp_path / "out"
    _case_study_run(out)
    real_count = novelty.word_pair_counts

    def replace_then_count(model, label, words, vocab):
        os.replace(tmp_path / "other" / "model.tm", out / "model.tm")
        return real_count(model, label, words, vocab)

    monkeypatch.setattr(novelty, "word_pair_counts", replace_then_count)
    assert main(["context", "--words", "rugby,cricket", "--out", str(out)]) == EXIT_OK
    assert (out / "context_novel.csv").read_bytes() == expected
    assert (out / "model.tm").read_bytes() == replacement


def _save_16_mib_run(out, states):
    """A model of 1 024 clauses per bank over 2 048 words (16 MiB of states) and its vocabulary, saved.

    ``states(shape, rng)`` gives each bank's states.  Returns the words and the state bytes.
    """
    words = tuple(a + b + c for a in "abcdefghijklmnop" for b in "abcdefghijklmnop" for c in "abcdefgh")
    vocab = Vocabulary(words)
    params = tsetlin.TMParams(clause_count=1024, vote_margin=5, sensitivity=3.0, state_count=8, seed=0)
    model = tsetlin.TMModel.create(params, len(vocab), vocab_hash=vocab.sha256())
    rng = np.random.default_rng(0)
    for bank in model.banks.values():
        bank.state[...] = states(bank.state.shape, rng)
    model.save(out / "model.tm")
    write_vocabulary(vocab, out / "vocabulary.txt")
    return words, sum(bank.state.nbytes for bank in model.banks.values())


def test_describe_holds_no_state_image(tmp_path, monkeypatch):
    monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 512 << 10)
    out = tmp_path / "out"
    _, state_bytes = _save_16_mib_run(out, lambda shape, rng: rng.integers(1, 17, size=shape, dtype=np.int16))
    assert state_bytes >= 8 << 20
    peak = traced_peak(lambda: main(["describe", "--out", str(out)]))
    assert (out / "score_table.csv").exists()
    assert peak < state_bytes / 4


def test_context_holds_no_clause_objects(tmp_path, monkeypatch):
    monkeypatch.setattr(tsetlin, "_BLOCK_BYTES", 512 << 10)
    out = tmp_path / "out"

    def sparse_states(shape, rng):
        # Each literal included with probability 1/64: about 32 plain words a clause.
        return np.where(rng.integers(0, 64, size=shape) == 0, 16, rng.integers(1, 9, size=shape, dtype=np.int16))

    words, state_bytes = _save_16_mib_run(out, sparse_states)
    assert state_bytes >= 8 << 20
    peak = traced_peak(lambda: main(["context", "--words", ",".join(words[:8]), "--out", str(out)]))
    assert (out / "context_novel.csv").exists()
    assert peak < state_bytes / 4


@pytest.mark.parametrize("keep_header", [False, True], ids=["empty", "no-newline"])
def test_describe_rejects_model_without_header_line(tmp_path, capsys, keep_header):
    out = tmp_path / "out"
    write_vocabulary(case_study_vocab(), out / "vocabulary.txt")
    case_study_model().save(out / "model.tm")
    raw = (out / "model.tm").read_bytes()
    (out / "model.tm").write_bytes(raw[: raw.index(b"\n")] if keep_header else b"")
    assert main(["describe", "--out", str(out)]) == EXIT_VALIDATION
    assert "not a model file" in one_line_error(capsys)


def _unhashed_model_with_vocabulary(out, words):
    """A case-study model.tm with an empty vocab_hash next to the given vocabulary."""
    model = case_study_model()
    model.vocab_hash = ""
    model.save(out / "model.tm")
    write_vocabulary(Vocabulary(tuple(words)), out / "vocabulary.txt")
    token_docs = [("k0", Label.KNOWN, ["cricket", "six"]), ("n0", Label.NOVEL, ["rugby", "old"])]
    write_tokens(token_docs, out / "tokens.csv")


@pytest.mark.parametrize(
    "words", [CASE_STUDY_WORDS, CASE_STUDY_WORDS[:-1], (*CASE_STUDY_WORDS, "zebra")], ids=["same", "fewer", "more"]
)
@pytest.mark.parametrize(
    "stage", [["describe"], ["context", "--words", "rugby,cricket"], ["eval"]], ids=["describe", "context", "eval"]
)
def test_unbound_model_is_refused(tmp_path, capsys, words, stage):
    # Without its vocabulary's hash, a model would score any vocabulary of its size.
    out = tmp_path / "out"
    out.mkdir()
    _unhashed_model_with_vocabulary(out, words)
    before = sorted(p.name for p in out.iterdir())
    assert main([*stage, "--out", str(out)]) == EXIT_VALIDATION
    assert one_line_error(capsys) == "error: vocabulary hash mismatch between model and corpus\n"
    assert sorted(p.name for p in out.iterdir()) == sorted([*before, ".lock"])


def _drop_column(text, column):
    rows = [line.split(",") for line in text.splitlines()]
    keep = [k for k, name in enumerate(rows[0]) if name != column]
    return "".join(",".join(row[k] for k in keep) + "\n" for row in rows)


# (stage, file, edit): each edit breaks the shape of one ingested CSV file.
CSV_DAMAGE = {
    "train-no-tokens": ("train", "tokens.csv", lambda t: _drop_column(t, "tokens")),
    "train-no-label": ("train", "tokens.csv", lambda t: _drop_column(t, "label")),
    "train-no-header": ("train", "tokens.csv", lambda t: ""),
    "train-short-row": ("train", "tokens.csv", lambda t: t + "lonely\n"),
    "tfidf-no-tokens": ("tfidf", "tokens.csv", lambda t: _drop_column(t, "tokens")),
    "tfidf-no-doc_id": ("tfidf", "tokens.csv", lambda t: t.replace("doc_id", "id", 1)),
    "tfidf-short-row": ("tfidf", "tokens.csv", lambda t: t + "lonely,known\n"),
    "eval-no-tokens": ("eval", "tokens.csv", lambda t: t.replace("tokens", "words", 1)),
    "train-bad-label": ("train", "tokens.csv", lambda t: t.replace(",known,", ",maybe,", 1)),
    "tfidf-bad-label": ("tfidf", "tokens.csv", lambda t: t.replace(",novel,", ",maybe,", 1)),
    "eval-bad-label": ("eval", "tokens.csv", lambda t: t.replace(",known,", ",maybe,", 1)),
    "train-repeated-doc-id": ("train", "tokens.csv", lambda t: t + t.splitlines(keepends=True)[1]),
    "tfidf-repeated-doc-id": ("tfidf", "tokens.csv", lambda t: t + t.splitlines(keepends=True)[-1]),
    "eval-repeated-doc-id": ("eval", "tokens.csv", lambda t: t + t.splitlines(keepends=True)[1]),
}


@pytest.mark.parametrize("stage,name,edit", CSV_DAMAGE.values(), ids=CSV_DAMAGE.keys())
def test_stage_rejects_damaged_csv(tmp_path, corpus_dirs, capsys, stage, name, edit):
    run = small_run(tmp_path, corpus_dirs)
    out = tmp_path / "out"
    assert main(["ingest", *run["ingest"]]) == EXIT_OK
    if stage == "eval":
        assert main(["train", *run["train"]]) == EXIT_OK
    capsys.readouterr()
    (out / name).write_text(edit((out / name).read_text("utf-8")), "utf-8")
    assert main([stage, *run[stage]]) == EXIT_VALIDATION
    assert name in one_line_error(capsys)


@pytest.mark.parametrize("words", [",", ",,", ""])
def test_context_without_words_is_validation_error(tmp_path, capsys, words):
    out = tmp_path / "out"
    write_vocabulary(case_study_vocab(), out / "vocabulary.txt")
    case_study_model().save(out / "model.tm")
    assert main(["context", "--words", words, "--out", str(out)]) == EXIT_VALIDATION
    assert "--words" in one_line_error(capsys)
    assert not (out / "context_novel.csv").exists()


def test_context_refuses_a_repeated_word_before_reading_the_model(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    _case_study_run(out)

    def no_reading(*args, **kwargs):
        raise AssertionError("context read the model before checking --words")

    monkeypatch.setattr(tsetlin.StoredModel, "open", no_reading)
    assert main(["context", "--words", "rugby,old,rugby", "--out", str(out)]) == EXIT_VALIDATION
    assert one_line_error(capsys) == "error: --words repeats the word(s) rugby\n"
    assert not (out / "context_novel.csv").exists()


def test_context_checks_words_before_reading_clauses(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    write_vocabulary(case_study_vocab(), out / "vocabulary.txt")
    case_study_model().save(out / "model.tm")

    def no_counting(*args, **kwargs):
        raise AssertionError("context counted pairs before checking --words")

    monkeypatch.setattr(novelty, "word_pair_counts", no_counting)
    assert main(["context", "--words", "rugby,zeppelin", "--out", str(out)]) == EXIT_VALIDATION
    assert "words not scored by the model: zeppelin" in one_line_error(capsys)
    assert not (out / "context_novel.csv").exists()


def _insert_non_utf8(path):
    """Put a byte that no UTF-8 text contains after the file's first line."""
    raw = path.read_bytes()
    cut = raw.index(b"\n") + 1 if b"\n" in raw else len(raw)
    path.write_bytes(raw[:cut] + b"\xff\xfe\n" + raw[cut:])


# (stage, the file to damage): the file is read as UTF-8 text by the stage.
NON_UTF8_INPUTS = {
    "vocabulary": ("describe", "vocabulary.txt"),
    "tokens": ("tfidf", "tokens.csv"),
    "train-tokens": ("train", "tokens.csv"),
    "stoplist": ("ingest", "stop.txt"),
    "config": ("ingest", "run.cfg"),
}


@pytest.mark.parametrize("stage,name", NON_UTF8_INPUTS.values(), ids=NON_UTF8_INPUTS.keys())
def test_non_utf8_input_names_the_file(tmp_path, corpus_dirs, capsys, stage, name):
    run = small_run(tmp_path, corpus_dirs)
    out = tmp_path / "out"
    assert main(["ingest", *run["ingest"]]) == EXIT_OK
    if stage == "describe":
        assert main(["train", *run["train"]]) == EXIT_OK
    (tmp_path / "stop.txt").write_text("the\na\n", "utf-8")
    (tmp_path / "run.cfg").write_text("seed = 1\n", "utf-8")
    target = (tmp_path if name in ("stop.txt", "run.cfg") else out) / name
    _insert_non_utf8(target)
    capsys.readouterr()
    extra = {"stop.txt": ["--stoplist", str(target)], "run.cfg": ["--config", str(target)]}.get(name, [])
    assert main([stage, *run[stage], *extra]) == EXIT_VALIDATION
    err = one_line_error(capsys)
    assert name in err and "not UTF-8" in err


# The flags each stage's --help lists besides -h: 32 stage x flag pairs.
STAGE_FLAGS = {
    "ingest": {
        "--config", "--out", "--known-dir", "--novel-dir", "--data-root", "--known-groups",
        "--novel-groups", "--csv-path", "--stoplist", "--no-stemming", "--min-df", "--max-features",
    },
    "train": {
        "--config", "--out", "--profile", "--clauses", "--vote-margin", "--sensitivity",
        "--state-count", "--epochs", "--seed",
    },
    "describe": {"--config", "--out"},
    "context": {"--config", "--out", "--words", "--target-class"},
    "tfidf": {"--config", "--out"},
    "eval": {"--config", "--out", "--seed"},
}


class TestStageFlags:
    def test_top_level_help_is_a_line_of_its_own(self, capsys):
        description = build_parser().description
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        text = capsys.readouterr().out
        assert "\n" not in description and description in text
        assert "``" not in text

    @pytest.mark.parametrize("stage", STAGE_FLAGS)
    def test_help_lists_only_the_stage_flags(self, capsys, stage):
        with pytest.raises(SystemExit) as exited:
            main([stage, "--help"])
        assert exited.value.code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"} == STAGE_FLAGS[stage]

    @pytest.mark.parametrize(
        "argv",
        [
            ["describe", "--clauses", "16"],
            ["tfidf", "--known-dir", "x"],
            ["ingest", "--epochs", "3"],
            ["eval", "--profile", "desk"],
            ["context", "--words", "rugby", "--seed", "1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_flag_of_another_stage_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def snapshot(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


class TestStageRecord:
    @pytest.fixture()
    def recorded_run(self, tmp_path, corpus_dirs):
        out = tmp_path / "out"
        stages = {
            "ingest": corpus_flags(corpus_dirs),
            "train": ["--profile", "desk", "--clauses", "16", "--epochs", "5"],
            "describe": [],
            "eval": ["--seed", "1"],
        }
        for stage, flags in stages.items():
            assert main([stage, *flags, "--out", str(out)]) == EXIT_OK, stage
        return out

    def test_each_stage_records_only_its_settings(self, recorded_run, corpus_dirs):
        known, novel = corpus_dirs
        assert sorted(p.name for p in recorded_run.glob("*config.txt")) == [
            "eval_config.txt", "ingest_config.txt", "train_config.txt",
        ]
        # describe ran after train and left the train record alone.
        assert (recorded_run / "train_config.txt").read_text("utf-8") == (
            "clauses = 16\nepochs = 5\nseed = 0\nsensitivity = 5.0\nstate_count = 128\nvote_margin = 15\n"
        )
        assert (recorded_run / "eval_config.txt").read_text("utf-8") == "seed = 1\n"
        assert (recorded_run / "ingest_config.txt").read_text("utf-8") == (
            "csv_path = none\ndata_root = none\nknown_dir = {}\nknown_groups = none\n"
            "max_features = none\nmin_df = 1\nnovel_dir = {}\nnovel_groups = none\n"
            "stemming = true\nstoplist_path = none\n".format(known, novel)
        )

    @pytest.mark.parametrize("stage", ["ingest", "train", "eval"])
    def test_rerun_from_record_is_byte_identical(self, recorded_run, stage):
        before = snapshot(recorded_run)
        record = recorded_run / f"{stage}_config.txt"
        assert main([stage, "--config", str(record), "--out", str(recorded_run)]) == EXIT_OK
        assert snapshot(recorded_run) == before

    @pytest.mark.parametrize(
        "stage,flags,damaged",
        [
            ("train", ["--clauses", "32"], "tokens.csv"),
            ("eval", ["--seed", "2"], "tokens.csv"),
        ],
        ids=["train", "eval"],
    )
    def test_failed_stage_writes_no_record(self, recorded_run, capsys, stage, flags, damaged):
        path = recorded_run / damaged
        path.write_text(path.read_text("utf-8") + "lonely\n", "utf-8")
        before = snapshot(recorded_run)
        capsys.readouterr()
        assert main([stage, *flags, "--out", str(recorded_run)]) == EXIT_VALIDATION
        one_line_error(capsys)
        assert snapshot(recorded_run) == before


# Each stage and each setting it reads (17 pairs), with a text and the reason
# it is refused for, or None.  The texts include a fraction for an integer, a
# word for a number, none for a setting that must be set and none for one
# that may be unset.
SETTING_TEXTS = [
    ("ingest", "known_dir", "--known-dir", "{known}", None),
    ("ingest", "novel_dir", "--novel-dir", "{novel}", None),
    ("ingest", "data_root", "--data-root", "none", None),
    ("ingest", "known_groups", "--known-groups", "known;", None),
    ("ingest", "novel_groups", "--novel-groups", "novel", None),
    ("ingest", "csv_path", "--csv-path", "none", None),
    ("ingest", "stoplist_path", "--stoplist", "none", None),
    ("ingest", "stemming", "--no-stemming", "false", None),
    ("ingest", "min_df", "--min-df", "02", None),
    ("ingest", "max_features", "--max-features", "none", None),
    ("train", "clauses", "--clauses", "1.5", ": expected an integer, got '1.5'"),
    ("train", "vote_margin", "--vote-margin", "007", None),
    ("train", "sensitivity", "--sensitivity", "high", ": expected a number, got 'high'"),
    ("train", "state_count", "--state-count", "none", " cannot be none"),
    ("train", "epochs", "--epochs", "3", None),
    ("train", "seed", "--seed", "007", None),
    ("eval", "seed", "--seed", "1.5", ": expected an integer, got '1.5'"),
]


@pytest.mark.parametrize("stage,key,flag,text,reason", SETTING_TEXTS, ids=[f"{s}-{k}" for s, k, *_ in SETTING_TEXTS])
def test_a_flag_means_what_its_config_line_means(tmp_path, corpus_dirs, capsys, stage, key, flag, text, reason):
    known, novel = corpus_dirs
    text = text.format(known=known, novel=novel)
    # Every other setting the stage reads comes from the config file, so the flag overrides nothing.
    base = {"ingest": {"known_dir": known, "novel_dir": novel},
            "train": {"clauses": 16, "vote_margin": 5, "sensitivity": 3.0, "state_count": 16, "epochs": 2},
            "eval": {}}[stage]
    if key.endswith("_groups"):  # group lists are read only from a grouped tree
        base = {"data_root": known.parent, "known_groups": "known", "novel_groups": "novel"}
    lines = "".join(f"{k} = {v}\n" for k, v in base.items() if k != key)
    run = small_run(tmp_path, corpus_dirs)
    for earlier in ("ingest", "train")[: ("ingest", "train", "eval").index(stage)]:
        assert main([earlier, *run[earlier]]) == EXIT_OK
    capsys.readouterr()
    given = {"flag": ([flag] if key == "stemming" else [flag, text], lines),
             "config": ([], f"{lines}{key} = {text}\n")}
    outcomes = {}
    for source, (flags, config_text) in given.items():
        out = tmp_path / source
        if (tmp_path / "out").exists():
            shutil.copytree(tmp_path / "out", out)
        out.mkdir(exist_ok=True)
        config = tmp_path / f"{source}.cfg"
        config.write_text(config_text, "utf-8")
        before = snapshot(out)
        code = main([stage, "--config", str(config), *flags, "--out", str(out)])
        if code == EXIT_OK:
            outcomes[source] = (out / f"{stage}_config.txt").read_text("utf-8")
            continue
        assert code == EXIT_VALIDATION
        named = re.escape(flag) if source == "flag" else rf"malformed config: config key '{key}'"
        refused = re.fullmatch(rf"error: {named}(.*?)(?: \(line \d+\))?\n", one_line_error(capsys))
        assert refused, source
        outcomes[source] = refused.group(1)
        assert snapshot(out) == before
    assert outcomes["flag"] == outcomes["config"]
    if reason is not None:
        assert outcomes["flag"] == reason
    else:
        assert f"{key} = " in outcomes["flag"]


@pytest.mark.parametrize(
    "flags,config_text,message",
    [
        (["--out", "none"], "", "--out cannot be none"),
        (["--out", ""], "", "--out cannot be empty"),
        ([], "output_dir =\n", "malformed config: config key 'output_dir' cannot be empty (line 1)"),
    ],
    ids=["flag-none", "flag-empty", "config-empty"],
)
def test_out_naming_no_directory_is_refused(tmp_path, monkeypatch, capsys, flags, config_text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(config_text, "utf-8")
    assert main(["describe", "--config", "run.cfg", *flags]) == EXIT_VALIDATION
    assert one_line_error(capsys) == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["run.cfg"]


EMPTY_TEXT_SETTINGS = {"csv_path": "--csv-path", "known_dir": "--known-dir", "stoplist_path": "--stoplist",
                       "max_features": "--max-features"}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,flag", EMPTY_TEXT_SETTINGS.items(), ids=EMPTY_TEXT_SETTINGS.keys())
def test_empty_text_is_refused(tmp_path, corpus_dirs, capsys, key, flag, source):
    # Empty text is neither none nor a value, for a setting that may be unset too.
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} =\n", "utf-8")
    known, novel = corpus_dirs
    flags = {"--known-dir": str(known), "--novel-dir": str(novel), flag: ""}
    message = f"{flag} cannot be empty"
    if source == "config":
        del flags[flag]
        flags["--config"] = str(config)
        message = f"malformed config: config key {key!r} cannot be empty (line 1)"
    out = tmp_path / "out"
    assert main(["ingest", *(text for pair in flags.items() for text in pair), "--out", str(out)]) == EXIT_VALIDATION
    assert one_line_error(capsys) == f"error: {message}\n"
    assert not out.exists()


def test_empty_output_dir_environment_is_ignored(tmp_path, monkeypatch, corpus_dirs):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TMNOVELTY_OUT", "")
    assert main(["ingest", *corpus_flags(corpus_dirs)]) == EXIT_OK
    assert (tmp_path / "out" / "vocabulary.txt").is_file()


@pytest.fixture()
def grouped_root(tmp_path):
    """A folder-per-topic tree in the BBC Sport layout; tennis is never selected."""
    root = tmp_path / "bbcsport"
    texts = {
        "cricket": ["england hit six in the cricket match", "a cricket wicket and six runs"],
        "football": ["the football match ended in a goal", "a late football goal won it"],
        "rugby": ["rugby scrum despite the old ball", "old rugby match despite rain"],
        "tennis": ["a tennis serve won the set"],
    }
    for group, docs in texts.items():
        (root / group).mkdir(parents=True)
        for i, text in enumerate(docs):
            (root / group / f"{i:03d}.txt").write_text(text, "utf-8")
    return root


def grouped_ingest(root, out, known="football;cricket", novel="rugby"):
    return main([
        "ingest", "--data-root", str(root), "--known-groups", known, "--novel-groups", novel, "--out", str(out),
    ])


class TestGroupedLayout:
    def test_doc_ids_and_group_labels(self, tmp_path, grouped_root):
        out = tmp_path / "out"
        assert grouped_ingest(grouped_root, out) == EXIT_OK
        assert [(doc_id, label) for doc_id, label, _ in read_tokens(out / "tokens.csv")] == [
            ("football/000.txt", Label.KNOWN),
            ("football/001.txt", Label.KNOWN),
            ("cricket/000.txt", Label.KNOWN),
            ("cricket/001.txt", Label.KNOWN),
            ("rugby/000.txt", Label.NOVEL),
            ("rugby/001.txt", Label.NOVEL),
        ]

    def test_missing_group_directory_is_missing_input(self, tmp_path, grouped_root, capsys):
        out = tmp_path / "out"
        assert grouped_ingest(grouped_root, out, known="cricket;hockey") == EXIT_MISSING
        assert f"group directory not found: {grouped_root / 'hockey'}" in one_line_error(capsys)
        assert not (out / "tokens.csv").exists()

    @pytest.mark.parametrize("known,novel", [("", "rugby"), (";", "rugby"), ("cricket", "")])
    def test_empty_group_list_is_validation_error(self, tmp_path, grouped_root, capsys, known, novel):
        out = tmp_path / "out"
        assert grouped_ingest(grouped_root, out, known=known, novel=novel) == EXIT_VALIDATION
        empty = "--known-groups" if not known else "--novel-groups" if not novel else None
        message = f"{empty} cannot be empty" if empty else "data_root requires known_groups and novel_groups"
        assert one_line_error(capsys) == f"error: {message}\n"
        assert not (out / "tokens.csv").exists()


class TestIngestRefusals:
    @pytest.mark.parametrize(
        "known,novel,group",
        [("cricket;rugby", "rugby", "rugby"), ("cricket;cricket", "rugby", "cricket")],
        ids=["group-on-both-sides", "group-twice"],
    )
    def test_grouped_duplicate_doc_id(self, tmp_path, grouped_root, capsys, known, novel, group):
        out = tmp_path / "out"
        assert grouped_ingest(grouped_root, out, known=known, novel=novel) == EXIT_VALIDATION
        assert one_line_error(capsys) == f"error: group(s) named more than once: {group}\n"
        assert [p.name for p in out.iterdir()] == [".lock"]

    @pytest.mark.parametrize(
        "source,groups",
        [("dirs", ["--known-groups", "zzz", "--novel-groups", "yyy"]), ("csv", ["--novel-groups", "rugby"])],
        ids=["class-dirs", "csv"],
    )
    def test_group_lists_without_data_root(self, tmp_path, corpus_dirs, capsys, source, groups):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("doc_id,label,text\na,known,cricket six\nb,novel,rugby old\n", "utf-8")
        flags = corpus_flags(corpus_dirs) if source == "dirs" else ["--csv-path", str(corpus)]
        out = tmp_path / "out"
        assert main(["ingest", *flags, *groups, "--out", str(out)]) == EXIT_VALIDATION
        assert one_line_error(capsys) == "error: known_groups and novel_groups are read only with data_root\n"
        assert [p.name for p in out.iterdir()] == [".lock"]

    def test_csv_duplicate_doc_id(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("doc_id,label,text\na,known,cricket six\nb,novel,rugby old\na,novel,rugby ball\n", "utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--csv-path", str(corpus), "--out", str(out)]) == EXIT_VALIDATION
        assert "duplicate doc id in the corpus: 'a'" in one_line_error(capsys)
        assert [p.name for p in out.iterdir()] == [".lock"]

    @pytest.mark.parametrize(
        "text,flags,message",
        [
            ("doc_id,label,text\na,known,cricket six\nb,maybe,rugby old\n", [],
             "corpus.csv line 3: unknown label 'maybe'; expected 'known' or 'novel'"),
            ("doc_id,label,text\n", [], "empty corpus"),
            ("doc_id,label,text\na,known,cricket six\nb,novel,rugby old\n", ["--min-df", "0"], "min_df must be >= 1"),
        ],
        ids=["unknown-label", "header-only", "min-df-0"],
    )
    def test_csv_corpus_refusal(self, tmp_path, capsys, text, flags, message):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(text, "utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--csv-path", str(corpus), *flags, "--out", str(out)]) == EXIT_VALIDATION
        assert one_line_error(capsys) == f"error: {message}\n"
        assert [p.name for p in out.iterdir()] == [".lock"]

    def test_class_directories_without_files(self, tmp_path, capsys):
        (tmp_path / "known").mkdir()
        (tmp_path / "novel").mkdir()
        out = tmp_path / "out"
        argv = ["ingest", *corpus_flags((tmp_path / "known", tmp_path / "novel")), "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        assert one_line_error(capsys) == "error: empty corpus\n"
        assert [p.name for p in out.iterdir()] == [".lock"]

    @pytest.mark.parametrize(
        "sources,named",
        [
            (["csv", "root"], "csv_path, data_root"),
            (["root", "dirs"], "data_root, known_dir/novel_dir"),
            (["csv-in-config", "dirs"], "csv_path, known_dir/novel_dir"),
        ],
        ids=["csv+data-root", "data-root+class-dirs", "config-csv+class-dirs"],
    )
    def test_more_than_one_corpus_source(self, tmp_path, corpus_dirs, grouped_root, capsys, sources, named):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("doc_id,label,text\na,known,cricket six\nb,novel,rugby old\n", "utf-8")
        config = tmp_path / "run.cfg"
        config.write_text(f"csv_path = {corpus}\n", "utf-8")
        flags = {
            "csv": ["--csv-path", str(corpus)],
            "csv-in-config": ["--config", str(config)],
            "root": ["--data-root", str(grouped_root), "--known-groups", "cricket", "--novel-groups", "rugby"],
            "dirs": corpus_flags(corpus_dirs),
        }
        out = tmp_path / "out"
        argv = ["ingest", *(flag for source in sources for flag in flags[source]), "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        assert f"more than one corpus source: {named}" in one_line_error(capsys)
        assert [p.name for p in out.iterdir()] == [".lock"]


class TestIngestWritesAllOrNothing:
    def test_refused_ingest_leaves_the_last_run_s_files(self, tmp_path, corpus_dirs, capsys):
        out = tmp_path / "out"
        assert main(["ingest", *corpus_flags(corpus_dirs), "--out", str(out)]) == EXIT_OK
        before = snapshot(out)
        corpus = tmp_path / "stopwords_only.csv"
        corpus.write_text("doc_id,label,text\na,known,the and of\nb,novel,a an the\n", "utf-8")
        capsys.readouterr()
        assert main(["ingest", "--csv-path", str(corpus), "--out", str(out)]) == EXIT_VALIDATION
        assert "vocabulary is empty" in one_line_error(capsys)
        assert snapshot(out) == before

    @pytest.mark.parametrize("failing", ["tokens.csv", "booldocs.csv"])
    def test_stopped_ingest_leaves_no_vocabulary(self, tmp_path, corpus_dirs, capsys, monkeypatch, failing):
        # The second ingest's vocabulary grows by three words, so the first
        # run's bit indices would still fit it.
        run = small_run(tmp_path, corpus_dirs)
        out = tmp_path / "out"
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        assert main(["train", *run["train"]]) == EXIT_OK
        first_size = len(read_vocabulary(out / "vocabulary.txt"))
        for i, text in enumerate(["aardvark abacus", "abacus abbey", "aardvark abbey"]):
            (corpus_dirs[1] / f"extra{i}.txt").write_text(text, "utf-8")
        real_write = _files.atomic_write_bytes

        def disk_full_at(path, data):
            if Path(path).name == failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            real_write(path, data)

        capsys.readouterr()
        with monkeypatch.context() as patched:
            patched.setattr(_files, "atomic_write_bytes", disk_full_at)
            assert main(["ingest", *run["ingest"]]) == EXIT_VALIDATION
        assert one_line_error(capsys) == f"error: {out / failing}: {os.strerror(errno.ENOSPC)}\n"
        assert not (out / "vocabulary.txt").exists()
        later = {"train": run["train"], "describe": run["describe"],
                 "context": ["--words", "rugby,cricket", *run["describe"]], "eval": run["eval"]}
        for stage, flags in later.items():
            assert main([stage, *flags]) == EXIT_MISSING, stage
            assert one_line_error(capsys) == f"error: vocabulary not found: {out / 'vocabulary.txt'}\n"
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        assert len(read_vocabulary(out / "vocabulary.txt")) == first_size + 3
        assert main(["train", *run["train"]]) == EXIT_OK


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as spreadsheet exports write it, is not part of the first field."""

    def test_stoplist(self, tmp_path, corpus_dirs):
        stoplist = tmp_path / "stop.txt"
        stoplist.write_text("\ufeffcricket\nthe\n", "utf-8")
        out = tmp_path / "out"
        assert main(["ingest", *corpus_flags(corpus_dirs), "--stoplist", str(stoplist), "--out", str(out)]) == EXIT_OK
        words = read_vocabulary(out / "vocabulary.txt").words
        assert "cricket" not in words and "rugby" in words

    def test_csv_corpus(self, tmp_path):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("\ufeffdoc_id,label,text\na,known,cricket six\nb,novel,rugby old\n", "utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--csv-path", str(corpus), "--out", str(out)]) == EXIT_OK
        assert [doc_id for doc_id, _, _ in read_tokens(out / "tokens.csv")] == ["a", "b"]

    def test_config_file(self, tmp_path, corpus_dirs):
        config = tmp_path / "run.cfg"
        config.write_text("\ufeffmin_df = 2\n", "utf-8")
        out = tmp_path / "out"
        assert main(["ingest", *corpus_flags(corpus_dirs), "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert "min_df = 2\n" in (out / "ingest_config.txt").read_text("utf-8")


class TestBadUserPath:
    @pytest.mark.parametrize("kind", ["absent", "directory"])
    def test_stoplist_not_found(self, tmp_path, corpus_dirs, capsys, kind):
        stoplist = tmp_path / "stop"
        if kind == "directory":
            stoplist.mkdir()
        out = tmp_path / "out"
        code = main(["ingest", *corpus_flags(corpus_dirs), "--stoplist", str(stoplist), "--out", str(out)])
        assert code == EXIT_MISSING
        assert one_line_error(capsys) == f"error: stoplist not found: {stoplist}\n"
        assert [p.name for p in out.iterdir()] == [".lock"]

    def test_stoplist_none_is_the_bundled_list(self, tmp_path, corpus_dirs):
        for name, given in (("bundled", []), ("none", ["--stoplist", "none"])):
            assert main(["ingest", *corpus_flags(corpus_dirs), *given, "--out", str(tmp_path / name)]) == EXIT_OK
        assert snapshot(tmp_path / "none") == snapshot(tmp_path / "bundled")

    @pytest.mark.parametrize("stage", ["ingest", "train", "describe", "context", "tfidf", "eval"])
    def test_out_naming_a_file(self, tmp_path, corpus_dirs, capsys, stage):
        out = tmp_path / "out"
        out.write_text("not a directory\n", "utf-8")
        flags = {"ingest": corpus_flags(corpus_dirs), "context": ["--words", "rugby"]}.get(stage, [])
        assert main([stage, *flags, "--out", str(out)]) == EXIT_VALIDATION
        assert str(out) in one_line_error(capsys)
        assert out.read_text("utf-8") == "not a directory\n"


# One file each stage writes.
STAGE_OUTPUTS = {"ingest": "tokens.csv", "train": "model.tm", "describe": "score_table.csv",
                 "context": "context_novel.csv", "tfidf": "tfidf.csv", "eval": "report.json"}


@pytest.mark.parametrize("stage,product", STAGE_OUTPUTS.items(), ids=STAGE_OUTPUTS.keys())
def test_output_that_is_a_directory(tmp_path, corpus_dirs, capsys, stage, product):
    out = run_pipeline(tmp_path, corpus_dirs)
    (out / product).unlink(missing_ok=True)
    (out / product).mkdir()
    flags = {"ingest": corpus_flags(corpus_dirs), "train": [*TRAIN_PARAMS, "--epochs", "2"],
             "context": ["--words", "rugby,cricket"]}.get(stage, [])
    capsys.readouterr()
    assert main([stage, *flags, "--out", str(out)]) == EXIT_VALIDATION
    assert one_line_error(capsys) == f"error: {out / product}: Is a directory\n"
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


def test_readme_python_block_runs(capsys):
    """The README's library quick start runs against the current API."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_commands_parse():
    """Every ``tmnovelty`` line of the README's sh blocks parses, and together they cover every stage."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    commands = [
        shlex.split(line, comments=True)
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("tmnovelty ")
    ]
    assert {argv[1] for argv in commands} == set(STAGE_FLAGS)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


class TestCaseStudyGolden:
    def test_describe_matches_hand_ratio_golden(self, tmp_path):
        from fractions import Fraction

        from tmnovelty.corpus import write_vocabulary
        from helpers import case_study_vocab

        out = tmp_path / "out"
        out.mkdir()
        model = case_study_model()
        model.save(out / "model.tm")
        write_vocabulary(case_study_vocab(), out / "vocabulary.txt")
        assert main(["describe", "--out", str(out)]) == EXIT_OK
        lines = (out / "score_table.csv").read_text("utf-8").splitlines()

        # Golden rows from the hand-ratio oracle over the fixture clause bags.
        known = {"cricket": 4, "six": 4, "hit": 2, "england": 1, "match": 1, "won": 1, "ball": 1}
        novel = {"rugby": 4, "won": 2, "match": 2, "old": 2, "england": 1, "despite": 1, "ball": 1}
        words = sorted(set(known) | set(novel))
        oracle = {
            w: Fraction(max(novel.get(w, 0), 1), 13) / Fraction(max(known.get(w, 0), 1), 14)
            for w in words
        }
        expected_order = sorted(words, key=lambda w: (-oracle[w], w))
        header, *rows = lines
        assert header == "word,freq_known,freq_novel,rel_freq_known,rel_freq_novel,score"
        assert [r.split(",")[0] for r in rows] == expected_order
        for row in rows:
            word, f_k, f_n, _, _, score = row.split(",")
            assert int(f_k) == known.get(word, 0)
            assert int(f_n) == novel.get(word, 0)
            assert float(score) == pytest.approx(float(oracle[word]), abs=1e-12)


class TestConfigRoundTrip:
    def test_parse_serialize_parse_identity(self):
        config = RunConfig(known_dir="/tmp/k", clauses=128, sensitivity=4.5, stemming=False)
        names = [f.name for f in dataclasses.fields(RunConfig)]
        text = serialize_config(config, names)
        assert parse_config(text) == config
        assert serialize_config(parse_config(text), names) == text

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("bogus = 1\n")

    def test_profile_application(self):
        config = RunConfig()
        config.apply_profile("desk")
        assert (config.clauses, config.vote_margin, config.sensitivity, config.epochs) == (
            200, 15, 5.0, 50,
        )
        config.apply_profile("full")
        assert config.clauses == 10_000 and config.epochs == 100

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch, corpus_dirs):
        known, novel = corpus_dirs
        target = tmp_path / "env_out"
        monkeypatch.setenv("TMNOVELTY_OUT", str(target))
        assert main(["ingest", "--known-dir", str(known), "--novel-dir", str(novel)]) == EXIT_OK
        assert (target / "vocabulary.txt").is_file()

    def test_output_dir_precedence(self, tmp_path, monkeypatch, corpus_dirs):
        # --out beats the config file, which beats TMNOVELTY_OUT, which beats the default.
        known, novel = corpus_dirs
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text(f"output_dir = {tmp_path / 'file_out'}\n", "utf-8")
        ingest = ["ingest", "--known-dir", str(known), "--novel-dir", str(novel)]
        cases = [
            (ingest, None, "out"),
            (ingest, "env_out", "env_out"),
            ([*ingest, "--config", str(config)], "env_out", "file_out"),
            ([*ingest, "--config", str(config), "--out", "flag_out"], "env_out", "flag_out"),
        ]
        written: set[str] = set()
        for argv, env, expected in cases:
            if env is None:
                monkeypatch.delenv("TMNOVELTY_OUT", raising=False)
            else:
                monkeypatch.setenv("TMNOVELTY_OUT", str(tmp_path / env))
            assert main(argv) == EXIT_OK
            written.add(expected)
            assert {p.name for p in tmp_path.iterdir() if (p / "vocabulary.txt").is_file()} == written


class TestOutputLock:
    """A stage holds an exclusive ``flock`` on ``<out>/.lock``; what the file holds never matters."""

    @staticmethod
    def ingest(corpus_dirs, out) -> int:
        return main(["ingest", *corpus_flags(corpus_dirs), "--out", str(out)])

    @staticmethod
    def lock_is_free(out) -> bool:
        with open(out / ".lock", "ab") as fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                return False
        return True

    def test_leftover_lock_naming_a_live_process_does_not_block(self, tmp_path, corpus_dirs):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()), "utf-8")  # a live PID, but nobody holds the lock
        assert self.ingest(corpus_dirs, out) == EXIT_OK
        assert (out / "vocabulary.txt").is_file()

    def test_held_lock_refuses_the_stage(self, tmp_path, corpus_dirs, capsys):
        out = tmp_path / "out"
        out.mkdir()
        with open(out / ".lock", "ab") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert self.ingest(corpus_dirs, out) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.err == f"error: output directory is locked by another stage: {out}\n"
            assert captured.out == ""
            assert [p.name for p in out.iterdir()] == [".lock"]
        assert self.ingest(corpus_dirs, out) == EXIT_OK

    def test_stage_holds_the_lock_while_it_runs_and_frees_it_after(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        seen = []
        monkeypatch.setitem(cli.STAGES, "tfidf", (lambda config: seen.append(self.lock_is_free(out)), "", ()))
        assert main(["tfidf", "--out", str(out)]) == EXIT_OK
        assert seen == [False]
        assert self.lock_is_free(out)

    def test_refused_stage_frees_the_lock(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["eval", "--out", str(out)]) == EXIT_MISSING
        assert self.lock_is_free(out)

    def test_lock_of_a_killed_holder_is_taken(self, tmp_path, corpus_dirs):
        out = tmp_path / "out"
        out.mkdir()
        hold = ("import fcntl, sys, time\n"
                "fh = open(sys.argv[1], 'ab')\n"
                "fcntl.flock(fh, fcntl.LOCK_EX)\n"
                "print('held', flush=True)\n"
                "time.sleep(60)\n")
        with subprocess.Popen([sys.executable, "-c", hold, str(out / ".lock")], stdout=subprocess.PIPE, text=True) as holder:
            try:
                assert holder.stdout.readline() == "held\n"
                assert self.ingest(corpus_dirs, out) == EXIT_VALIDATION
            finally:
                holder.send_signal(signal.SIGKILL)
        assert holder.returncode == -signal.SIGKILL
        assert self.ingest(corpus_dirs, out) == EXIT_OK
        assert (out / "vocabulary.txt").is_file()

    @pytest.mark.parametrize("stage", ["train", "describe", "context", "tfidf", "eval"])
    def test_read_stage_creates_no_missing_output_directory(self, tmp_path, capsys, stage):
        out = tmp_path / "typo" / "nested" / "run"
        flags = ["--words", "rugby"] if stage == "context" else []
        assert main([stage, *flags, "--out", str(out)]) == EXIT_MISSING
        assert one_line_error(capsys) == f"error: output directory not found: {out}\n"
        assert os.listdir(tmp_path) == []

    def test_output_directory_that_cannot_be_created(self, tmp_path, capsys):
        out = tmp_path / ("x" * 300)  # longer than a file name may be
        assert main(["ingest", "--out", str(out)]) == EXIT_VALIDATION  # the one stage that creates it
        assert one_line_error(capsys) == f"error: {out}: File name too long\n"

    def test_lock_that_is_a_directory(self, tmp_path, corpus_dirs, capsys):
        out = tmp_path / "out"
        (out / ".lock").mkdir(parents=True)
        assert self.ingest(corpus_dirs, out) == EXIT_VALIDATION
        assert str(out / ".lock") in one_line_error(capsys)
        assert [p.name for p in out.iterdir()] == [".lock"]
