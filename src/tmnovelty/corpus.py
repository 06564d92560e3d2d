"""Corpus ingestion: tokenization, stemming, vocabulary and boolean encoding.

Documents arrive as raw text in one of three layouts (one directory per
class, a folder per topic, or a CSV with doc_id/label/text columns), get
normalized into token lists, and are encoded as presence/absence bit vectors
over a lexicographically sorted vocabulary.  On disk, the token lists and the
vocabulary are the corpus; the bit vectors are written beside them for other
tools and never read back.  Everything here is deterministic: identical
inputs and parameters produce bit-identical vocabularies and bit vectors.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import re
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._files import atomic_write_text, read_utf8, write_csv

_TOKEN_RE = re.compile(r"[a-z]+")

# Light suffix stemmer: longest suffix first, keep stems of >= 3 characters.
_SUFFIXES = ("ing", "ed", "es", "s")
_MIN_STEM = 3
_VOWELS = frozenset("aeiou")
_KEEP_DOUBLED = frozenset("lsz")


class Label(str, Enum):
    """Document group: previously seen content vs. content to be described."""

    KNOWN = "known"
    NOVEL = "novel"

    @classmethod
    def parse(cls, text: str) -> "Label":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown label {text!r}; expected 'known' or 'novel'") from None


LABELS: tuple[Label, Label] = (Label.KNOWN, Label.NOVEL)


def tokenize(text: str) -> list[str]:
    """Split text into lowercase ASCII-folded alphabetic tokens.

    Punctuation, digits and whitespace act as separators; empty tokens are
    dropped, so empty input yields an empty list.
    """
    folded = unicodedata.normalize("NFKD", text).encode("ascii", "ignore").decode("ascii")
    return _TOKEN_RE.findall(folded.lower())


@functools.cache
def stem(token: str) -> str:
    """Strip one inflection suffix (-ing/-ed/-es/-s), keeping stems >= 3 chars.

    After -ing/-ed removal a trailing doubled consonant is undoubled
    ("hitting" -> "hit", "running" -> "run") except for l/s/z ("falling" ->
    "fall", "missed" -> "miss").  Text repeats its words many times over,
    so each distinct token is stemmed once per process and then looked up;
    the cache holds one entry per distinct token.
    """
    for suffix in _SUFFIXES:
        root = token[: -len(suffix)]
        if token.endswith(suffix) and len(root) >= _MIN_STEM:
            if suffix in ("ing", "ed"):
                root = _undouble(root)
            return root
    return token


def _undouble(root: str) -> str:
    if (
        len(root) > _MIN_STEM
        and root[-1] == root[-2]
        and root[-1] not in _VOWELS
        and root[-1] not in _KEEP_DOUBLED
    ):
        return root[:-1]
    return root


def normalize(tokens: Sequence[str], stoplist: frozenset[str] | set[str], stemming: bool = True) -> list[str]:
    """Drop stopwords, then stem the remaining tokens, preserving order.

    Each returned word is interned, so a corpus's token lists share one string
    per distinct word, whether it came from one raw form or from several.
    """
    kept = (t for t in tokens if t not in stoplist)
    return list(map(sys.intern, map(stem, kept) if stemming else kept))


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list, one lowercase word per line; default is bundled."""
    if path is None:
        text = resources.files("tmnovelty.data").joinpath("stopwords.txt").read_text("utf-8")
    else:
        text = read_utf8(path)
    return frozenset(w for w in (line.strip() for line in text.splitlines()) if w)


@dataclass(frozen=True)
class Vocabulary:
    """Dense, lexicographically ordered word <-> feature-index map."""

    words: tuple[str, ...]
    index_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {w: i for i, w in enumerate(self.words)}
        if len(index) != len(self.words):
            repeated = next(w for w, count in Counter(self.words).items() if count > 1)
            raise ValueError(f"vocabulary repeats the word {repeated!r}")
        object.__setattr__(self, "index_of", index)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index_of

    def sha256(self) -> str:
        digest = hashlib.sha256("\n".join(self.words).encode("utf-8"))
        return digest.hexdigest()


@dataclass
class BoolDoc:
    """Presence/absence bit vector over the vocabulary, plus label and id."""

    doc_id: str
    label: Label
    bits: np.ndarray  # bool, length == vocabulary size


def build_vocabulary(
    docs: Sequence[Sequence[str]],
    min_df: int = 1,
    max_features: int | None = None,
) -> Vocabulary:
    """Build the vocabulary from normalized token lists.

    Keeps every token appearing in at least ``min_df`` documents; when
    ``max_features`` is set, the highest-document-frequency words win
    (ties broken alphabetically).  The result is sorted lexicographically
    regardless of insertion order.
    """
    if not docs:
        raise ValueError("empty corpus")
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    if max_features is not None and max_features < 1:
        raise ValueError("max_features must be >= 1")
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc))
    words = [w for w, count in df.items() if count >= min_df]
    if max_features is not None and len(words) > max_features:
        words.sort(key=lambda w: (-df[w], w))
        words = words[:max_features]
    return Vocabulary(tuple(sorted(words)))


def booleanize(tokens: Sequence[str], vocab: Vocabulary) -> np.ndarray:
    """Encode a token list as a presence bit vector (set semantics).

    Bit i is set iff vocab.words[i] occurs at least once; out-of-vocabulary
    tokens are ignored and multiplicity is discarded.
    """
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    bits = np.zeros(len(vocab), dtype=bool)
    index = vocab.index_of
    bits[[index[t] for t in index.keys() & tokens]] = True
    return bits


@dataclass(frozen=True)
class CorpusStats:
    """Counts feeding TF-IDF: per-class term/total frequencies and document frequencies."""

    doc_count_total: int
    doc_count_containing: Mapping[str, int]
    per_class_term_freq: Mapping[Label, Mapping[str, int]]
    per_class_total_freq: Mapping[Label, int]


def corpus_stats(labeled_docs: Sequence[tuple[Label, Sequence[str]]]) -> CorpusStats:
    """Aggregate counts over labeled normalized documents.

    Per-class term frequency counts token occurrences (with multiplicity);
    document frequency counts unique presence per document.
    """
    if not labeled_docs:
        raise ValueError("at least one document required")
    containing: Counter[str] = Counter()
    term_freq: dict[Label, Counter[str]] = {lab: Counter() for lab in LABELS}
    total_freq: dict[Label, int] = {lab: 0 for lab in LABELS}
    for label, tokens in labeled_docs:
        containing.update(set(tokens))
        term_freq[label].update(tokens)
        total_freq[label] += len(tokens)
    return CorpusStats(
        doc_count_total=len(labeled_docs),
        doc_count_containing=dict(containing),
        per_class_term_freq={lab: dict(term_freq[lab]) for lab in LABELS},
        per_class_total_freq=total_freq,
    )


# ---------------------------------------------------------------------------
# Raw corpus loaders.  Each returns (doc_id, label, raw_text) triples in a
# deterministic order.
# ---------------------------------------------------------------------------

RawDoc = tuple[str, Label, str]


def _read_dirs(dirs: Sequence[tuple[str, Label, Path]], what: str) -> list[RawDoc]:
    """One document per file of each (id prefix, label, directory), files in name order."""
    docs: list[RawDoc] = []
    for prefix, label, directory in dirs:
        if not directory.is_dir():
            raise FileNotFoundError(f"{what} not found: {directory}")
        for path in sorted(p for p in directory.iterdir() if p.is_file()):
            docs.append((f"{prefix}/{path.name}", label, path.read_text("utf-8", errors="replace")))
    if not docs:
        raise ValueError("empty corpus")
    return docs


def read_class_dirs(known_dir: str | Path, novel_dir: str | Path) -> list[RawDoc]:
    """Read the two-directory layout: one UTF-8 text file per document."""
    dirs = ((Label.KNOWN, known_dir), (Label.NOVEL, novel_dir))
    return _read_dirs([(label.value, label, Path(d)) for label, d in dirs], "corpus directory")


def read_grouped_dirs(
    root: str | Path,
    known_groups: Sequence[str],
    novel_groups: Sequence[str],
) -> list[RawDoc]:
    """Read a folder-per-topic tree, mapping selected topics onto the two groups.

    Fits both the sports-article layout (root/<category>/*.txt) and the
    newsgroup layout (root/<group>/<article files>).
    """
    repeated = [group for group, n in Counter([*known_groups, *novel_groups]).items() if n > 1]
    if repeated:
        raise ValueError(f"group(s) named more than once: {', '.join(repeated)}")
    rootp = Path(root)
    if not rootp.is_dir():
        raise FileNotFoundError(f"corpus root not found: {rootp}")
    dirs = [
        (group, label, rootp / group)
        for label, groups in ((Label.KNOWN, known_groups), (Label.NOVEL, novel_groups))
        for group in groups
    ]
    return _read_dirs(dirs, "group directory")


def read_csv_corpus(path: str | Path) -> list[RawDoc]:
    """Read a CSV corpus with columns doc_id, label, text (header required)."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"corpus CSV not found: {p}")
    docs = list(_csv_rows(p, "text"))
    if not docs:
        raise ValueError("empty corpus")
    return docs


# ---------------------------------------------------------------------------
# On-disk exports: vocabulary (one word per line, line number = feature
# index), boolean documents, and normalized token lists.
# ---------------------------------------------------------------------------


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    atomic_write_text(path, "".join(f"{w}\n" for w in vocab.words))


def read_vocabulary(path: str | Path) -> Vocabulary:
    words = tuple(w for w in read_utf8(path).splitlines() if w)
    if not words:
        raise ValueError(f"{path}: vocabulary holds no word")
    try:
        return Vocabulary(words)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def write_booldocs(docs: Iterable[BoolDoc], path: str | Path) -> None:
    rows = ((doc.doc_id, doc.label.value, ";".join(map(str, np.flatnonzero(doc.bits).tolist()))) for doc in docs)
    write_csv(path, ("doc_id", "label", "set_bits"), rows)


def write_tokens(docs: Iterable[tuple[str, Label, Sequence[str]]], path: str | Path) -> None:
    rows = ((doc_id, label.value, " ".join(tokens)) for doc_id, label, tokens in docs)
    write_csv(path, ("doc_id", "label", "tokens"), rows)


def read_tokens(path: str | Path) -> list[tuple[str, Label, list[str]]]:
    """Each document's (doc_id, label, tokens) from a token table, in file order.

    A corpus repeats its words many times over, so each token is interned: the
    lists hold one shared string per distinct word, not one string per token.
    """
    rows = _csv_rows(path, "tokens")
    return [(doc_id, label, list(map(sys.intern, text.split()))) for doc_id, label, text in rows]


def _csv_rows(path: str | Path, column: str) -> Iterator[RawDoc]:
    """(doc_id, label, column) of each row of a CSV file whose header names those columns once.

    Each row has the header's width.  Fields may be of any length: a long
    document's token list is one field.  A leading byte-order mark, as
    spreadsheet exports write it, is dropped.  A row of another width, an
    unknown label, a repeated doc id, an unterminated quote or text after a
    closing quote is refused, naming the line the row starts on, not read as
    a shorter or merged row.
    """
    csv.field_size_limit(sys.maxsize)
    columns = ("doc_id", "label", column)
    name = Path(path).name
    seen: set[str] = set()
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, strict=True)
        line = 1  # where the record being read starts
        try:
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValueError(f"{name}: header lacks column(s) {', '.join(missing)}")
            repeated = [c for c in columns if header.count(c) > 1]
            if repeated:
                raise ValueError(f"{name}: header repeats column(s) {', '.join(repeated)}")
            line = reader.line_num + 1
            for fields in reader:
                if fields:  # a blank line holds no row
                    if len(fields) != len(header):
                        raise ValueError(f"{name} line {line}: {len(fields)} fields, the header has {len(header)}")
                    row = dict(zip(header, fields))
                    try:
                        label = Label.parse(row["label"])
                    except ValueError as err:
                        raise ValueError(f"{name} line {line}: {err}") from None
                    if row["doc_id"] in seen:
                        raise ValueError(f"{name} line {line}: duplicate doc id in the corpus: {row['doc_id']!r}")
                    seen.add(row["doc_id"])
                    yield row["doc_id"], label, row[column]
                line = reader.line_num + 1
        except csv.Error as err:
            raise ValueError(f"{name} line {line}: {err}") from None
        except UnicodeDecodeError:
            raise ValueError(f"{name}: not UTF-8 text") from None
