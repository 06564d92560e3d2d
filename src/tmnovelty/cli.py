"""Command-line pipeline: ingest -> train -> describe -> context -> tfidf -> eval.

Every stage reads its inputs from the shared output directory, validates
them, and writes its products atomically, so re-running a stage with
unchanged inputs rewrites byte-identical files.  Every CSV goes through
``_files.write_csv``.  ``ingest`` removes ``vocabulary.txt`` before its first
write and writes it last, so a stopped ingest leaves no vocabulary, and every
stage that needs one refuses to run.  A stage takes flags only for the
settings it reads, and records them in ``<stage>_config.txt`` on success.
Argparse stores a flag's text, and ``config.parse_setting`` reads it as it
reads a config line's: ``--stoplist none`` is the bundled list.
While it runs, a stage holds an exclusive ``flock`` on ``<out>/.lock``, so
a second stage on the same directory is refused.  The kernel frees the lock
when the holder's process ends, however it ends, so what the file holds
never matters.

A stage raises what the OS and the parsers raise: ``FileNotFoundError`` for
an input that is not there, ``ValueError`` for one that is wrong, another
``OSError`` for a file that cannot be read or written.  ``main`` alone turns
these into one ``error:`` line, naming the path where the error has one, and
an exit code: 0 ok, 1 validation or other OS failure, 2 missing input.
Argparse exits 2 itself on an unknown flag, no ``--words`` or a bad choice.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import os
import sys
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

from . import baseline, evaluation, novelty, tsetlin
from . import corpus as corpus_mod
from ._files import atomic_write_text, read_utf8, write_csv
from .config import PROFILES, RunConfig, parse_config, parse_setting, serialize_config
from .corpus import Label

OUTPUT_DIR_ENV = "TMNOVELTY_OUT"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISSING = 2


@contextmanager
def _output_lock(outdir: Path, create: bool):
    """Hold the ``flock`` on ``<out>/.lock``; the file stays, as unlinking it would let two stages lock two inodes."""
    if not (create or outdir.exists()):  # only ingest makes it: every other stage reads its inputs from there
        raise FileNotFoundError(f"output directory not found: {outdir}")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"output directory is not a directory: {outdir}") from None
    with open(outdir / ".lock", "ab") as fh:  # writable: NFS emulates flock with POSIX locks, which need one
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ValueError(f"output directory is locked by another stage: {outdir}") from None
        yield


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
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            config = parse_config(read_utf8(path), config)
        except ValueError as err:
            raise ValueError(f"malformed config: {err}") from None
    if getattr(args, "profile", None):
        config.apply_profile(args.profile)
    for f in dataclasses.fields(RunConfig):
        text = getattr(args, f.name, None)
        if text is not None:
            setattr(config, f.name, parse_setting(f.name, text, _flag(f.name)))
    return config


def _load_raw_corpus(config: RunConfig) -> list[corpus_mod.RawDoc]:
    """The one configured corpus source, read; a source that repeats a doc id is refused where it is read."""
    given = {"csv_path": config.csv_path, "data_root": config.data_root,
             "known_dir/novel_dir": config.known_dir or config.novel_dir}
    sources = [name for name, value in given.items() if value]
    if len(sources) > 1:
        raise ValueError(f"more than one corpus source: {', '.join(sources)} (set only one)")
    if (config.known_groups or config.novel_groups) and not config.data_root:
        raise ValueError("known_groups and novel_groups are read only with data_root")
    if config.csv_path:
        raw = corpus_mod.read_csv_corpus(config.csv_path)
    elif config.data_root:
        known = [g for g in (config.known_groups or "").split(";") if g]
        novel = [g for g in (config.novel_groups or "").split(";") if g]
        if not known or not novel:
            raise ValueError("data_root requires known_groups and novel_groups")
        raw = corpus_mod.read_grouped_dirs(config.data_root, known, novel)
    elif config.known_dir and config.novel_dir:
        raw = corpus_mod.read_class_dirs(config.known_dir, config.novel_dir)
    else:
        raise ValueError("no corpus source configured (need known_dir+novel_dir, data_root, or csv_path)")
    return raw


def _require(path: Path, what: str) -> Path:
    if not path.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _read_vocab(outdir: Path) -> corpus_mod.Vocabulary:
    return corpus_mod.read_vocabulary(_require(outdir / "vocabulary.txt", "vocabulary"))


@contextmanager
def _read_model(outdir: Path, vocab: corpus_mod.Vocabulary) -> Iterator[tsetlin.StoredModel]:
    with tsetlin.StoredModel.open(_require(outdir / "model.tm", "model")) as model:
        if model.vocab_hash != vocab.sha256():
            raise ValueError("vocabulary hash mismatch between model and corpus")
        yield model


def _score_table(vocab: corpus_mod.Vocabulary, model: tsetlin.StoredModel):
    """Bags and scores; a bad state stops a stage before it writes."""
    bags = novelty.build_word_bags(model, vocab)
    return bags, novelty.novelty_scores(bags)


# -- commands ----------------------------------------------------------------


def cmd_ingest(config: RunConfig) -> None:
    raw = _load_raw_corpus(config)
    if config.stoplist_path is not None:
        _require(Path(config.stoplist_path), "stoplist")
    stoplist = corpus_mod.load_stopwords(config.stoplist_path)
    normalized = [
        (doc_id, label, corpus_mod.normalize(corpus_mod.tokenize(text), stoplist, stemming=config.stemming))
        for doc_id, label, text in raw
    ]
    vocab = corpus_mod.build_vocabulary(
        [tokens for _, _, tokens in normalized],
        min_df=config.min_df,
        max_features=config.max_features,
    )
    # Every output is built before the first is written, so a refusal leaves the last run's files.
    booldocs = [corpus_mod.BoolDoc(doc_id, label, corpus_mod.booleanize(tokens, vocab))
                for doc_id, label, tokens in normalized]
    outdir = Path(config.output_dir)
    # The vocabulary goes first and comes back last: on disk, it marks a finished ingest.
    (outdir / "vocabulary.txt").unlink(missing_ok=True)
    corpus_mod.write_tokens(normalized, outdir / "tokens.csv")
    corpus_mod.write_booldocs(booldocs, outdir / "booldocs.csv")
    corpus_mod.write_vocabulary(vocab, outdir / "vocabulary.txt")
    print(f"ingest: {len(booldocs)} documents, vocabulary {len(vocab)}")


def cmd_train(config: RunConfig) -> None:
    # The settings are checked before any input is read or a model allocated.
    params = config.tm_params()
    if config.epochs < 1:
        raise ValueError("epochs must be >= 1")
    outdir = Path(config.output_dir)
    vocab = _read_vocab(outdir)
    token_docs = corpus_mod.read_tokens(_require(outdir / "tokens.csv", "token table"))
    docs = [corpus_mod.BoolDoc(doc_id, label, corpus_mod.booleanize(tokens, vocab))
            for doc_id, label, tokens in token_docs]
    model = tsetlin.TMModel.create(params, len(vocab), vocab_hash=vocab.sha256())
    model, trace = tsetlin.fit(model, docs, epochs=config.epochs)
    model.save(outdir / "model.tm")
    tsetlin.write_clause_dump(tsetlin.extract_clauses(model, vocab), outdir / "clauses.csv")
    write_csv(outdir / "epoch_trace.csv", ("epoch", "train_accuracy"), enumerate(trace))
    print(f"train: {config.epochs} epochs, final accuracy {trace[-1]:.4f}")


def cmd_describe(config: RunConfig) -> None:
    outdir = Path(config.output_dir)
    vocab = _read_vocab(outdir)
    with _read_model(outdir, vocab) as model:
        bags, table = _score_table(vocab, model)
    novelty.write_score_table(bags, table, outdir / "score_table.csv")
    print(f"describe: {len(table)} scored words "
          f"(bag totals {bags.total_known}/{bags.total_novel})")


def cmd_context(config: RunConfig, word_list: str, target_class: Label) -> None:
    words = [w for w in word_list.split(",") if w]
    if not words:
        raise ValueError("--words names no word")
    repeated = [w for w, n in Counter(words).items() if n > 1]
    if repeated:
        raise ValueError(f"--words repeats the word(s) {', '.join(repeated)}")
    outdir = Path(config.output_dir)
    vocab = _read_vocab(outdir)
    with _read_model(outdir, vocab) as model:
        _refuse_unscored(words, vocab)
        co, bags = novelty.word_pair_counts(model, target_class, words, vocab)
        table = novelty.novelty_scores(bags)
        _refuse_unscored(words, table)
    path = outdir / f"context_{target_class.value}.csv"
    novelty.write_cooccurrence_matrix(co, table, words, path)
    print(f"context: {len(words)}x{len(words)} matrix for class {target_class.value}")


def _refuse_unscored(words: list[str], scored: corpus_mod.Vocabulary | novelty.ScoreTable) -> None:
    missing = [w for w in words if w not in scored]
    if missing:
        raise ValueError(f"words not scored by the model: {', '.join(missing)}")


def cmd_tfidf(config: RunConfig) -> None:
    outdir = Path(config.output_dir)
    token_docs = corpus_mod.read_tokens(_require(outdir / "tokens.csv", "token table"))
    stats = corpus_mod.corpus_stats([(label, tokens) for _, label, tokens in token_docs])
    table = baseline.tfidf_scores(stats)
    baseline.write_tfidf_table(table, stats, outdir / "tfidf.csv")
    print(f"tfidf: {len(stats.doc_count_containing)} words scored")


def cmd_eval(config: RunConfig) -> None:
    outdir = Path(config.output_dir)
    vocab = _read_vocab(outdir)
    with _read_model(outdir, vocab) as model:
        token_docs = corpus_mod.read_tokens(_require(outdir / "tokens.csv", "token table"))
        bags, table = _score_table(vocab, model)
    docs = [tokens for _, _, tokens in token_docs]
    labels = [label for _, label, _ in token_docs]

    stats = corpus_mod.corpus_stats(list(zip(labels, docs)))
    tfidf = baseline.tfidf_scores(stats)
    tfidf_novel = {w: tfidf.score(Label.NOVEL, w) for w in stats.doc_count_containing}

    categories = evaluation.categorize_words(bags)
    by_category: dict[str, list[float]] = {c.value: [] for c in evaluation.WordCategory}
    for word, category in categories.items():
        by_category[category.value].append(table.scores[word])
    stats_rows = evaluation.summary_stats(by_category)
    cfd_curves = {name: evaluation.cfd(values) for name, values in by_category.items() if values}

    tm_result = evaluation.score_discrimination(docs, labels, table.scores, seed=config.seed)
    tfidf_result = evaluation.score_discrimination(docs, labels, tfidf_novel, seed=config.seed)

    # The aggregate is the mean log feature, blank where no token is scored (coverage 0).
    doc_rows = ((doc_id, label.value, mean_log if coverage else "")
                for (doc_id, label, _), (mean_log, _, _, coverage) in zip(token_docs, tm_result.features.tolist()))
    write_csv(outdir / "doc_scores.csv", ("doc_id", "label", "aggregate"), doc_rows)

    evaluation.write_report_json(outdir / "report.json", config.seed, stats_rows, cfd_curves, tm_result, tfidf_result)
    for method, result in (("tm", tm_result), ("tfidf", tfidf_result)):
        write_csv(outdir / f"roc_{method}.csv", ("fpr", "tpr"), result.curves.roc_points)
        write_csv(outdir / f"pr_{method}.csv", ("recall", "precision"), result.curves.pr_points)
    for name, points in cfd_curves.items():
        write_csv(outdir / f"cfd_{name}.csv", ("score", "cumulative_fraction"), points)
    for name in by_category.keys() - cfd_curves.keys():  # an empty category: its last run's file must go
        (outdir / f"cfd_{name}.csv").unlink(missing_ok=True)
    print(f"eval: AUC tm={tm_result.curves.auc:.4f} tfidf={tfidf_result.curves.auc:.4f}")


# -- argument parsing ---------------------------------------------------------

# A setting's flag is its name with dashes, but for these.
_FLAG_NAMES = {"stoplist_path": "--stoplist", "stemming": "--no-stemming", "output_dir": "--out"}
_FLAG_OPTIONS = {"known_groups": {"help": "';'-separated folders under data root"},
                 "stemming": {"action": "store_const", "const": "false"}}


def _flag(setting: str) -> str:
    return _FLAG_NAMES.get(setting, "--" + setting.replace("_", "-"))


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
    parser = argparse.ArgumentParser(prog="tmnovelty", description="Word-level novelty scoring with a Tsetlin machine.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, settings) in STAGES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override file values")
        if name == "train":
            p.add_argument("--profile", choices=sorted(PROFILES), help="hyperparameter profile")
        for setting in settings:
            p.add_argument(_flag(setting), dest=setting, **_FLAG_OPTIONS.get(setting, {}))
        if name == "context":
            p.add_argument("--words", required=True, help="comma-separated word list")
            p.add_argument("--target-class", default="novel", choices=[l.value for l in Label])
        p.add_argument(_flag("output_dir"), dest="output_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        outdir = Path(config.output_dir)
        run, _, settings = STAGES[args.command]
        with _output_lock(outdir, create=args.command == "ingest"):
            if args.command == "context":
                run(config, args.words, Label.parse(args.target_class))
            else:
                run(config)
            if settings:
                atomic_write_text(outdir / f"{args.command}_config.txt", serialize_config(config, settings))
    except (OSError, ValueError) as err:
        print(f"error: {_one_line(err)}", file=sys.stderr)
        return EXIT_MISSING if isinstance(err, FileNotFoundError) else EXIT_VALIDATION
    return EXIT_OK


def _one_line(err: OSError | ValueError) -> str:
    """The error's message; for an OS error, its path (a rename's target) and its reason."""
    if isinstance(err, OSError) and err.strerror:
        path = err.filename2 or err.filename
        return f"{path}: {err.strerror}" if path is not None else err.strerror
    return str(err)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
