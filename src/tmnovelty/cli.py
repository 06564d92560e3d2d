"""Command-line pipeline: ingest -> train -> describe -> context -> tfidf -> eval.

Every stage reads its inputs from the shared output directory, validates
them, and writes its products atomically, so re-running a stage with
unchanged inputs rewrites byte-identical files.  A stage takes flags only
for the settings it reads, and records those settings in
``<stage>_config.txt`` once it succeeds.  Exit codes: 0 ok, 1 validation
failure, 2 missing input.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path

from . import baseline, evaluation, novelty, tsetlin
from . import corpus as corpus_mod
from ._files import atomic_write_text, read_utf8
from .config import PROFILES, RunConfig, parse_config, serialize_config
from .corpus import Label

OUTPUT_DIR_ENV = "TMNOVELTY_OUT"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISSING = 2


class ValidationError(Exception):
    exit_code = EXIT_VALIDATION


class MissingInputError(Exception):
    exit_code = EXIT_MISSING


@contextmanager
def _output_lock(outdir: Path):
    """One pipeline process per output directory.

    A lock whose recorded PID names no live process was left by a crashed
    stage; it is removed and taken.  Any other existing lock blocks.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    lock = outdir / ".lock"
    for attempt in range(2):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if attempt or not _lock_is_stale(lock):
                raise ValidationError(f"output directory is locked (remove {lock} if stale)") from None
            lock.unlink(missing_ok=True)
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(lock)
        except OSError:
            pass


def _lock_is_stale(lock: Path) -> bool:
    """True when the lock holds a decimal PID that no live process has."""
    try:
        text = lock.read_text("ascii").strip()
        if text.isdecimal():
            os.kill(int(text), 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError, UnicodeDecodeError):
        pass
    return False


def _build_config(args: argparse.Namespace) -> RunConfig:
    # Each layer overrides the one before: defaults, the environment's output
    # dir, the config file, the profile (train only), the flags.
    config = RunConfig()
    env_out = os.environ.get(OUTPUT_DIR_ENV)
    if env_out:
        config.output_dir = env_out
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise MissingInputError(f"config file not found: {path}")
        try:
            config = parse_config(read_utf8(path), config)
        except ValueError as err:
            raise ValidationError(f"malformed config: {err}") from None
    if getattr(args, "profile", None):
        config.apply_profile(args.profile)
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    return config


def _outdir(config: RunConfig) -> Path:
    return Path(config.output_dir)


def _load_raw_corpus(config: RunConfig) -> list[corpus_mod.RawDoc]:
    try:
        if config.csv_path:
            return corpus_mod.read_csv_corpus(config.csv_path)
        if config.data_root:
            known = [g for g in (config.known_groups or "").split(";") if g]
            novel = [g for g in (config.novel_groups or "").split(";") if g]
            if not known or not novel:
                raise ValidationError("data_root requires known_groups and novel_groups")
            return corpus_mod.read_grouped_dirs(config.data_root, known, novel)
        if config.known_dir and config.novel_dir:
            return corpus_mod.read_class_dirs(config.known_dir, config.novel_dir)
    except FileNotFoundError as err:
        raise MissingInputError(str(err)) from None
    except ValueError as err:
        raise ValidationError(str(err)) from None
    raise ValidationError("no corpus source configured (need known_dir+novel_dir, data_root, or csv_path)")


def _require(path: Path, what: str) -> Path:
    if not path.is_file():
        raise MissingInputError(f"{what} not found: {path}")
    return path


def _read_vocab(outdir: Path) -> corpus_mod.Vocabulary:
    return corpus_mod.read_vocabulary(_require(outdir / "vocabulary.txt", "vocabulary"))


def _read_model(outdir: Path, vocab: corpus_mod.Vocabulary) -> tsetlin.TMModel:
    model = tsetlin.TMModel.load(_require(outdir / "model.tm", "model"))
    if model.vocab_hash and model.vocab_hash != vocab.sha256():
        raise ValidationError("vocabulary hash mismatch between model and corpus")
    return model


def _score_table(vocab: corpus_mod.Vocabulary, model: tsetlin.TMModel):
    clauses = tsetlin.extract_clauses(model, vocab)
    bags = novelty.build_word_bags(clauses)
    try:
        table = novelty.novelty_scores(bags)
    except ValueError as err:
        raise ValidationError(str(err)) from None
    return clauses, bags, table


# -- commands ----------------------------------------------------------------


def cmd_ingest(config: RunConfig) -> None:
    raw = _load_raw_corpus(config)
    stoplist = corpus_mod.load_stopwords(config.stoplist_path)
    normalized = [
        (doc_id, label, corpus_mod.normalize(corpus_mod.tokenize(text), stoplist, stemming=config.stemming))
        for doc_id, label, text in raw
    ]
    try:
        vocab = corpus_mod.build_vocabulary(
            [tokens for _, _, tokens in normalized],
            min_df=config.min_df,
            max_features=config.max_features,
        )
    except ValueError as err:
        raise ValidationError(str(err)) from None
    outdir = _outdir(config)
    corpus_mod.write_vocabulary(vocab, outdir / "vocabulary.txt")
    corpus_mod.write_tokens(normalized, outdir / "tokens.csv")
    booldocs = [corpus_mod.BoolDoc.from_tokens(doc_id, label, tokens, vocab) for doc_id, label, tokens in normalized]
    corpus_mod.write_booldocs(booldocs, outdir / "booldocs.csv")
    print(f"ingest: {len(booldocs)} documents, vocabulary {len(vocab)}")


def cmd_train(config: RunConfig) -> None:
    outdir = _outdir(config)
    vocab = _read_vocab(outdir)
    docs = corpus_mod.read_booldocs(_require(outdir / "booldocs.csv", "boolean documents"), len(vocab))
    try:
        params = config.tm_params()
        model = tsetlin.TMModel.create(params, len(vocab), vocab_hash=vocab.sha256())
        model, trace = tsetlin.fit(model, docs, epochs=config.epochs)
    except ValueError as err:
        raise ValidationError(str(err)) from None
    model.save(outdir / "model.tm")
    tsetlin.write_clause_dump(tsetlin.extract_clauses(model, vocab), outdir / "clauses.csv")
    trace_rows = ["epoch,train_accuracy\n"] + [f"{i},{acc!r}\n" for i, acc in enumerate(trace)]
    atomic_write_text(outdir / "epoch_trace.csv", "".join(trace_rows))
    print(f"train: {config.epochs} epochs, final accuracy {trace[-1]:.4f}")


def cmd_describe(config: RunConfig) -> None:
    outdir = _outdir(config)
    vocab = _read_vocab(outdir)
    model = _read_model(outdir, vocab)
    _, bags, table = _score_table(vocab, model)
    novelty.write_score_table(bags, table, outdir / "score_table.csv")
    print(f"describe: {len(table)} scored words "
          f"(bag totals {bags.total_known}/{bags.total_novel})")


def cmd_context(config: RunConfig, word_list: str, target_class: Label) -> None:
    words = [w for w in word_list.split(",") if w]
    if not words:
        raise ValidationError("--words names no word")
    outdir = _outdir(config)
    vocab = _read_vocab(outdir)
    model = _read_model(outdir, vocab)
    clauses, _, table = _score_table(vocab, model)
    co = novelty.cooccurrence(clauses, target_class, clause_count=model.params.clause_count)
    missing = [w for w in words if w not in table]
    if missing:
        raise ValidationError(f"words not scored by the model: {', '.join(missing)}")
    path = outdir / f"context_{target_class.value}.csv"
    novelty.write_cooccurrence_matrix(co, table, words, path)
    print(f"context: {len(words)}x{len(words)} matrix for class {target_class.value}")


def cmd_tfidf(config: RunConfig) -> None:
    outdir = _outdir(config)
    token_docs = corpus_mod.read_tokens(_require(outdir / "tokens.csv", "token table"))
    try:
        stats = corpus_mod.corpus_stats([(label, tokens) for _, label, tokens in token_docs])
        table = baseline.tfidf_scores(stats)
    except ValueError as err:
        raise ValidationError(str(err)) from None
    baseline.write_tfidf_table(table, stats, outdir / "tfidf.csv")
    print(f"tfidf: {len(stats.doc_count_containing)} words scored")


def cmd_eval(config: RunConfig) -> None:
    outdir = _outdir(config)
    vocab = _read_vocab(outdir)
    model = _read_model(outdir, vocab)
    token_docs = corpus_mod.read_tokens(_require(outdir / "tokens.csv", "token table"))
    docs = [tokens for _, _, tokens in token_docs]
    labels = [label for _, label, _ in token_docs]
    _, bags, table = _score_table(vocab, model)

    stats = corpus_mod.corpus_stats(list(zip(labels, docs)))
    tfidf = baseline.tfidf_scores(stats)
    tfidf_novel = {w: tfidf.score(Label.NOVEL, w) for w in stats.doc_count_containing}

    categories = evaluation.categorize_words(bags)
    by_category: dict[str, list[float]] = {c.value: [] for c in evaluation.WordCategory}
    for word, category in categories.items():
        by_category[category.value].append(table.scores[word])
    stats_rows = evaluation.summary_stats(by_category)
    cfd_curves = {
        name: evaluation.cfd(values, dedup=True) for name, values in by_category.items() if values
    }

    try:
        tm_result = evaluation.score_discrimination(docs, labels, table.scores, seed=config.seed)
        tfidf_result = evaluation.score_discrimination(docs, labels, tfidf_novel, seed=config.seed)
    except ValueError as err:
        raise ValidationError(str(err)) from None

    doc_rows = ["doc_id,label,aggregate\n"]
    for (doc_id, label, tokens) in token_docs:
        aggregate = novelty.score_document(tokens, table)
        rendered = "" if aggregate is None else repr(aggregate)
        doc_rows.append(f"{doc_id},{label.value},{rendered}\n")
    atomic_write_text(outdir / "doc_scores.csv", "".join(doc_rows))

    report = evaluation.EvalReport(
        category_stats=stats_rows,
        cfd_curves=cfd_curves,
        tm_result=tm_result,
        tfidf_result=tfidf_result,
        seed=config.seed,
    )
    evaluation.write_report_json(report, outdir / "report.json")
    evaluation.write_curve_csv(tm_result.curves.roc_points, ("fpr", "tpr"), outdir / "roc_tm.csv")
    evaluation.write_curve_csv(tm_result.curves.pr_points, ("recall", "precision"), outdir / "pr_tm.csv")
    evaluation.write_curve_csv(tfidf_result.curves.roc_points, ("fpr", "tpr"), outdir / "roc_tfidf.csv")
    evaluation.write_curve_csv(tfidf_result.curves.pr_points, ("recall", "precision"), outdir / "pr_tfidf.csv")
    for name, points in cfd_curves.items():
        evaluation.write_curve_csv(points, ("score", "cumulative_fraction"), outdir / f"cfd_{name}.csv")
    print(f"eval: AUC tm={tm_result.auc:.4f} tfidf={tfidf_result.auc:.4f}")


# -- argument parsing ---------------------------------------------------------

# The flag of each RunConfig setting that some stage reads.
_FLAGS: dict[str, tuple[str, dict]] = {
    "known_dir": ("--known-dir", {}),
    "novel_dir": ("--novel-dir", {}),
    "data_root": ("--data-root", {}),
    "known_groups": ("--known-groups", {"help": "';'-separated folders under data root"}),
    "novel_groups": ("--novel-groups", {}),
    "csv_path": ("--csv-path", {}),
    "stoplist_path": ("--stoplist", {}),
    "stemming": ("--no-stemming", {"action": "store_const", "const": False}),
    "min_df": ("--min-df", {"type": int}),
    "max_features": ("--max-features", {"type": int}),
    "clauses": ("--clauses", {"type": int}),
    "vote_margin": ("--vote-margin", {"type": int}),
    "sensitivity": ("--sensitivity", {"type": float}),
    "state_count": ("--state-count", {"type": int}),
    "epochs": ("--epochs", {"type": int}),
    "seed": ("--seed", {"type": int}),
}

# Each stage: its command, help line and the settings it reads.  A stage takes
# flags for exactly these, and after it succeeds records them in
# <stage>_config.txt.
STAGES: dict[str, tuple[Callable[..., None], str, tuple[str, ...]]] = {
    "ingest": (
        cmd_ingest,
        "normalize the corpus, build the vocabulary, write bit vectors",
        ("known_dir", "novel_dir", "data_root", "known_groups", "novel_groups", "csv_path",
         "stoplist_path", "stemming", "min_df", "max_features"),
    ),
    "train": (
        cmd_train,
        "train the clause machine on the ingested corpus",
        ("clauses", "vote_margin", "sensitivity", "state_count", "epochs", "seed"),
    ),
    "describe": (cmd_describe, "extract word bags and novelty scores from the model", ()),
    "context": (cmd_context, "pairwise contextual scores for selected words", ()),
    "tfidf": (cmd_tfidf, "TF-IDF baseline table", ()),
    "eval": (cmd_eval, "summary stats, CFD curves, and logistic ROC/PR report", ("seed",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tmnovelty", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, settings) in STAGES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override file values")
        if name == "train":
            p.add_argument("--profile", choices=sorted(PROFILES), help="hyperparameter profile")
        for setting in settings:
            flag, options = _FLAGS[setting]
            p.add_argument(flag, dest=setting, **options)
        if name == "context":
            p.add_argument("--words", required=True, help="comma-separated word list")
            p.add_argument("--target-class", default="novel", choices=[l.value for l in Label])
        p.add_argument("--out", dest="output_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        outdir = _outdir(config)
        run, _, settings = STAGES[args.command]
        with _output_lock(outdir):
            if args.command == "context":
                run(config, args.words, Label.parse(args.target_class))
            else:
                run(config)
            if settings:
                atomic_write_text(outdir / f"{args.command}_config.txt", serialize_config(config, settings))
    except (ValidationError, MissingInputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
