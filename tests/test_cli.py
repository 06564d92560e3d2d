"""End-to-end pipeline, exit codes, idempotence, and config round-trips."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tmnovelty.cli import EXIT_MISSING, EXIT_OK, EXIT_VALIDATION, build_parser, main
from tmnovelty.config import RunConfig, parse_config, serialize_config
from tmnovelty.corpus import Label, Vocabulary, read_tokens, read_vocabulary, write_tokens, write_vocabulary

from helpers import CASE_STUDY_WORDS, case_study_model, case_study_vocab


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

    def test_state_count_beyond_int16_is_validation_error(self, tmp_path, corpus_dirs, capsys):
        run = small_run(tmp_path, corpus_dirs)
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        capsys.readouterr()
        assert main(["train", *run["train"], "--state-count", "16384"]) == EXIT_VALIDATION
        assert "state_count" in one_line_error(capsys)
        assert not (tmp_path / "out" / "model.tm").exists()

    @pytest.mark.parametrize("bad_bit", ["-1", "vocab_size", "x"])
    def test_train_rejects_bad_bit_index(self, tmp_path, corpus_dirs, capsys, bad_bit):
        run = small_run(tmp_path, corpus_dirs)
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "out"
        if bad_bit == "vocab_size":
            bad_bit = str(len(read_vocabulary(out / "vocabulary.txt")))
        lines = (out / "booldocs.csv").read_text("utf-8").splitlines(keepends=True)
        doc_id, label, _ = lines[1].split(",")
        lines[1] = f"{doc_id},{label},0;{bad_bit}\n"
        (out / "booldocs.csv").write_text("".join(lines), "utf-8")
        assert main(["train", *run["train"]]) == EXIT_VALIDATION
        assert repr(doc_id) in one_line_error(capsys)
        assert not (out / "model.tm").exists()

    def test_vocab_hash_mismatch(self, tmp_path, corpus_dirs, capsys):
        run = small_run(tmp_path, corpus_dirs)
        assert main(["ingest", *run["ingest"]]) == EXIT_OK
        assert main(["train", *run["train"]]) == EXIT_OK
        # Re-ingest with a different vocabulary (higher min_df) under the same dir.
        assert main(["ingest", *run["ingest"], "--min-df", "4"]) == EXIT_OK
        code = main(["describe", *run["describe"]])
        assert code == EXIT_VALIDATION
        assert "hash mismatch" in capsys.readouterr().err


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


@pytest.mark.parametrize("words", [CASE_STUDY_WORDS[:-1], (*CASE_STUDY_WORDS, "zebra")], ids=["fewer", "more"])
@pytest.mark.parametrize(
    "stage", [["describe"], ["context", "--words", "rugby,cricket"], ["eval"]], ids=["describe", "context", "eval"]
)
def test_feature_count_is_checked_without_vocab_hash(tmp_path, capsys, words, stage):
    out = tmp_path / "out"
    out.mkdir()
    _unhashed_model_with_vocabulary(out, words)
    assert main([*stage, "--out", str(out)]) == EXIT_VALIDATION
    assert "vocabulary size != model feature count" in one_line_error(capsys)


def _drop_column(text, column):
    rows = [line.split(",") for line in text.splitlines()]
    keep = [k for k, name in enumerate(rows[0]) if name != column]
    return "".join(",".join(row[k] for k in keep) + "\n" for row in rows)


# (stage, file, edit): each edit breaks the shape of one ingested CSV file.
CSV_DAMAGE = {
    "train-no-set_bits": ("train", "booldocs.csv", lambda t: t.replace("set_bits", "bits", 1)),
    "train-no-label": ("train", "booldocs.csv", lambda t: _drop_column(t, "label")),
    "train-no-header": ("train", "booldocs.csv", lambda t: ""),
    "train-short-row": ("train", "booldocs.csv", lambda t: t + "lonely\n"),
    "tfidf-no-tokens": ("tfidf", "tokens.csv", lambda t: _drop_column(t, "tokens")),
    "tfidf-no-doc_id": ("tfidf", "tokens.csv", lambda t: t.replace("doc_id", "id", 1)),
    "tfidf-short-row": ("tfidf", "tokens.csv", lambda t: t + "lonely,known\n"),
    "eval-no-tokens": ("eval", "tokens.csv", lambda t: t.replace("tokens", "words", 1)),
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


def _insert_non_utf8(path):
    """Put a byte that no UTF-8 text contains after the file's first line."""
    raw = path.read_bytes()
    cut = raw.index(b"\n") + 1 if b"\n" in raw else len(raw)
    path.write_bytes(raw[:cut] + b"\xff\xfe\n" + raw[cut:])


# (stage, the file to damage): the file is read as UTF-8 text by the stage.
NON_UTF8_INPUTS = {
    "vocabulary": ("describe", "vocabulary.txt"),
    "tokens": ("tfidf", "tokens.csv"),
    "booldocs": ("train", "booldocs.csv"),
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
            ("train", ["--clauses", "32"], "booldocs.csv"),
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
        assert "known_groups and novel_groups" in one_line_error(capsys)
        assert not (out / "tokens.csv").exists()


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

    def test_lock_file_blocks_concurrent_use(self, tmp_path, corpus_dirs):
        known, novel = corpus_dirs
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()), "utf-8")  # a live process holds it
        code = main(["ingest", "--known-dir", str(known), "--novel-dir", str(novel), "--out", str(out)])
        assert code == EXIT_VALIDATION

    def test_unparsable_lock_blocks(self, tmp_path, corpus_dirs, capsys):
        known, novel = corpus_dirs
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text("not-a-pid", "utf-8")
        code = main(["ingest", "--known-dir", str(known), "--novel-dir", str(novel), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "locked" in one_line_error(capsys)
        assert (out / ".lock").read_text("utf-8") == "not-a-pid"

    def test_lock_of_exited_process_is_taken(self, tmp_path, corpus_dirs):
        known, novel = corpus_dirs
        out = tmp_path / "out"
        out.mkdir()
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its PID names no live process
        (out / ".lock").write_text(str(child.pid), "utf-8")
        code = main(["ingest", "--known-dir", str(known), "--novel-dir", str(novel), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "vocabulary.txt").is_file()
        assert not (out / ".lock").exists()
