"""In-memory spans around calls into each layer's public functions.

A function is wrapped where its caller looks it up: module attributes for
functions the CLI or a sibling function reaches through the module (for
example ``tsetlin.classify_batch`` as ``fit`` sees it), class attributes for
methods (the ``ClauseBank`` methods and ``TMModel.save``/``load``).  Each
span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Spans stay in memory and are written out
once, when the stage ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "corpus", "tsetlin", "novelty", "baseline", "evaluation", "files")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(counts, *args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer of ``tmnovelty``."""
        from tmnovelty import _files, baseline, corpus, evaluation, novelty, tsetlin

        def patch(owner, attr: str, name: str, count: Callable | None = None) -> None:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

        for attr in (
            "read_csv_corpus", "read_grouped_dirs", "tokenize", "normalize", "build_vocabulary",
            "booleanize", "read_vocabulary", "read_tokens", "corpus_stats",
        ):
            patch(corpus, attr, f"corpus.{attr}")
        patch(tsetlin, "fit", "tsetlin.fit")
        patch(tsetlin, "classify_batch", "tsetlin.classify_batch")
        patch(tsetlin, "extract_clauses", "tsetlin.extract_clauses", _count_call("tsetlin.extract_calls"))
        patch(tsetlin.ClauseBank, "fired", "tsetlin.fired", _count_call("tsetlin.fired_calls"))
        patch(tsetlin.ClauseBank, "type_i", "tsetlin.type_i", _count_type_i)
        patch(tsetlin.ClauseBank, "type_ii", "tsetlin.type_ii", _count_type_ii)
        patch(tsetlin.TMModel, "save", "tsetlin.save")
        load = tsetlin.TMModel.__dict__["load"].__func__
        tsetlin.TMModel.load = classmethod(self.wrap("tsetlin.load", load))
        for attr in ("build_word_bags", "novelty_scores", "score_document"):
            patch(novelty, attr, f"novelty.{attr}")
        patch(novelty, "cooccurrence", "novelty.cooccurrence", _count_pairs)
        patch(baseline, "tfidf_scores", "baseline.tfidf_scores")
        for attr in ("categorize_words", "summary_stats", "score_discrimination",
                     "doc_feature_matrix", "fit_logistic", "roc_pr"):
            patch(evaluation, attr, f"evaluation.{attr}")
        # atomic_write_text reaches atomic_write_bytes through _files; tsetlin
        # imported the name itself.
        write = self.wrap("files.write", _files.atomic_write_bytes, _count_bytes)
        _files.atomic_write_bytes = write
        tsetlin.atomic_write_bytes = write

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}), encoding="utf-8")


def _count_call(key: str) -> Callable:
    def count(counts, *args, **kwargs):
        counts[key] += 1

    return count


def _count_type_i(counts, bank, fired_rows, silent_rows, *args, **kwargs):
    rows = fired_rows.size + silent_rows.size
    counts["tsetlin.type_i_rows"] += rows
    counts["tsetlin.type_i_literals"] += rows * bank.literal_count


def _count_type_ii(counts, bank, fired_rows, *args, **kwargs):
    counts["tsetlin.type_ii_rows"] += fired_rows.size


def _count_pairs(counts, clauses, label, *args, **kwargs):
    sizes = (len(c.plain_words) for c in clauses if c.label is label)
    counts["novelty.pairs_counted"] += sum(k * (k - 1) // 2 for k in sizes)


def _count_bytes(counts, path, data):
    counts["files.written_bytes"] += len(data)


def summarize(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive seconds per span name, and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children.
    """
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for k, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[k]
    return dict(total), dict(self_time)
