"""Command-line pipeline: ingest -> train -> describe -> context -> tfidf -> eval.

Every stage reads its inputs from the shared output directory, validates
them, and writes its products atomically, so re-running a stage with
unchanged inputs rewrites byte-identical files.  Exit codes: 0 ok,
1 validation failure, 2 missing input.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import baseline, evaluation, novelty, tsetlin
from . import corpus as corpus_mod
from ._files import atomic_write_text, read_utf8
from .config import PROFILES, RunConfig, parse_config, save_config
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
    file_text = ""
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise MissingInputError(f"config file not found: {path}")
        file_text = read_utf8(path)
        try:
            config = parse_config(file_text)
        except ValueError as err:
            raise ValidationError(f"malformed config: {err}") from None
    else:
        config = RunConfig()
    if args.profile:
        config.apply_profile(args.profile)
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    # Output dir precedence: --out flag > config file > environment > default.
    env_out = os.environ.get(OUTPUT_DIR_ENV)
    file_sets_out = any(
        line.split("=", 1)[0].strip() == "output_dir"
        for line in file_text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    )
    if env_out and getattr(args, "output_dir", None) is None and not file_sets_out:
        config.output_dir = env_out
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


def _score_table(config: RunConfig, vocab: corpus_mod.Vocabulary, model: tsetlin.TMModel):
    clauses = tsetlin.extract_clauses(model, vocab)
    bags = novelty.build_word_bags(clauses)
    try:
        table = novelty.novelty_scores(bags, smoothing=config.smoothing)
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
    _, bags, table = _score_table(config, vocab, model)
    novelty.write_score_table(bags, table, outdir / "score_table.csv")
    print(f"describe: {len(table)} scored words "
          f"(bag totals {bags.total_known}/{bags.total_novel})")


def cmd_context(config: RunConfig, words: list[str], target_class: Label) -> None:
    if not words:
        raise ValidationError("--words names no word")
    outdir = _outdir(config)
    vocab = _read_vocab(outdir)
    model = _read_model(outdir, vocab)
    clauses, _, table = _score_table(config, vocab, model)
    co = novelty.cooccurrence(clauses, target_class, clause_count=model.params.clause_count)
    missing = [w for w in words if w not in table]
    if missing:
        raise ValidationError(f"words not scored by the model: {', '.join(missing)}")
    path = outdir / f"context_{target_class.value}.csv"
    novelty.write_cooccurrence_matrix(co, table, words, path, mode=config.contextual_mode)
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
    if not config.smoothing:
        raise ValidationError("eval needs smoothing: the summary table and the logistic features need finite scores")
    outdir = _outdir(config)
    vocab = _read_vocab(outdir)
    model = _read_model(outdir, vocab)
    token_docs = corpus_mod.read_tokens(_require(outdir / "tokens.csv", "token table"))
    docs = [tokens for _, _, tokens in token_docs]
    labels = [label for _, label, _ in token_docs]
    _, bags, table = _score_table(config, vocab, model)

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

    aggregator = novelty.Aggregator(config.aggregator)
    doc_rows = ["doc_id,label,aggregate\n"]
    for (doc_id, label, tokens) in token_docs:
        scored = novelty.score_document(tokens, table, aggregator=aggregator)
        rendered = "" if scored.aggregate is None else repr(scored.aggregate)
        doc_rows.append(f"{doc_id},{label.value},{rendered}\n")
    atomic_write_text(outdir / "doc_scores.csv", "".join(doc_rows))

    report = evaluation.EvalReport(
        category_stats=stats_rows,
        cfd_curves=cfd_curves,
        tm_result=tm_result,
        tfidf_result=tfidf_result,
        seed=config.seed,
        extras={"aggregator": aggregator.value},
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


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override file values")
    parser.add_argument("--profile", choices=sorted(PROFILES), help="hyperparameter profile")
    parser.add_argument("--known-dir", dest="known_dir")
    parser.add_argument("--novel-dir", dest="novel_dir")
    parser.add_argument("--data-root", dest="data_root")
    parser.add_argument("--known-groups", dest="known_groups", help="';'-separated folders under data root")
    parser.add_argument("--novel-groups", dest="novel_groups")
    parser.add_argument("--csv-path", dest="csv_path")
    parser.add_argument("--stoplist", dest="stoplist_path")
    parser.add_argument("--no-stemming", dest="stemming", action="store_const", const=False)
    parser.add_argument("--min-df", dest="min_df", type=int)
    parser.add_argument("--max-features", dest="max_features", type=int)
    parser.add_argument("--clauses", type=int)
    parser.add_argument("--vote-margin", dest="vote_margin", type=int)
    parser.add_argument("--sensitivity", type=float)
    parser.add_argument("--state-count", dest="state_count", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--no-smoothing", dest="smoothing", action="store_const", const=False)
    parser.add_argument("--aggregator", choices=[a.value for a in novelty.Aggregator])
    parser.add_argument("--contextual-mode", dest="contextual_mode", choices=["bag", "clause"])
    parser.add_argument("--out", dest="output_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tmnovelty", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ingest", "normalize the corpus, build the vocabulary, write bit vectors"),
        ("train", "train the clause machine on the ingested corpus"),
        ("describe", "extract word bags and novelty scores from the model"),
        ("context", "pairwise contextual scores for selected words"),
        ("tfidf", "TF-IDF baseline table"),
        ("eval", "summary stats, CFD curves, and logistic ROC/PR report"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_config_arguments(p)
        if name == "context":
            p.add_argument("--words", required=True, help="comma-separated word list")
            p.add_argument("--target-class", default="novel", choices=[l.value for l in Label])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        try:
            config.tm_params()
        except ValueError as err:
            raise ValidationError(str(err)) from None
        with _output_lock(_outdir(config)):
            save_config(config, _outdir(config) / "run_config.txt")
            if args.command == "ingest":
                cmd_ingest(config)
            elif args.command == "train":
                cmd_train(config)
            elif args.command == "describe":
                cmd_describe(config)
            elif args.command == "context":
                words = [w for w in args.words.split(",") if w]
                cmd_context(config, words, Label.parse(args.target_class))
            elif args.command == "tfidf":
                cmd_tfidf(config)
            elif args.command == "eval":
                cmd_eval(config)
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
