"""Corpus ingestion: tokenization, stemming, vocabulary and boolean encoding.

Documents arrive as raw text in one of two layouts (one directory per class,
or a CSV with doc_id/label/text columns), get normalized into token lists,
and are encoded as presence/absence bit vectors over a lexicographically
sorted vocabulary.  Everything here is deterministic: identical inputs and
parameters produce bit-identical vocabularies and bit vectors.
"""

from __future__ import annotations

import csv
import hashlib
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._files import atomic_write_text, read_utf8

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


def stem(token: str) -> str:
    """Strip one inflection suffix (-ing/-ed/-es/-s), keeping stems >= 3 chars.

    After -ing/-ed removal a trailing doubled consonant is undoubled
    ("hitting" -> "hit", "running" -> "run") except for l/s/z ("falling" ->
    "fall", "missed" -> "miss").
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
    """Drop stopwords, then stem the remaining tokens, preserving order."""
    kept = (t for t in tokens if t not in stoplist)
    if stemming:
        return [stem(t) for t in kept]
    return list(kept)


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
            raise ValueError("vocabulary contains duplicate words")
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

    @classmethod
    def from_tokens(cls, doc_id: str, label: Label, tokens: Sequence[str], vocab: Vocabulary) -> "BoolDoc":
        return cls(doc_id=doc_id, label=label, bits=booleanize(tokens, vocab))


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
    for token in tokens:
        pos = index.get(token)
        if pos is not None:
            bits[pos] = True
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
    docs = [
        (row["doc_id"], Label.parse(row["label"]), row["text"])
        for row in _csv_rows(p, ("doc_id", "label", "text"))
    ]
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
    lines = read_utf8(path).splitlines()
    return Vocabulary(tuple(w for w in lines if w))


def write_booldocs(docs: Iterable[BoolDoc], path: str | Path) -> None:
    rows = ["doc_id,label,set_bits\n"]
    for doc in docs:
        indices = ";".join(str(i) for i in np.flatnonzero(doc.bits))
        rows.append(f"{_csv_quote(doc.doc_id)},{doc.label.value},{indices}\n")
    atomic_write_text(path, "".join(rows))


def read_booldocs(path: str | Path, vocab_size: int) -> list[BoolDoc]:
    """Read bit vectors back; every set bit must be an integer in [0, vocab_size)."""
    docs: list[BoolDoc] = []
    for row in _csv_rows(path, ("doc_id", "label", "set_bits")):
        fields = row["set_bits"].split(";") if row["set_bits"] else []
        if not all(f.isdecimal() and int(f) < vocab_size for f in fields):
            raise ValueError(f"document {row['doc_id']!r}: set_bits must be integers in [0, {vocab_size})")
        bits = np.zeros(vocab_size, dtype=bool)
        bits[[int(f) for f in fields]] = True
        docs.append(BoolDoc(row["doc_id"], Label.parse(row["label"]), bits))
    return docs


def write_tokens(docs: Iterable[tuple[str, Label, Sequence[str]]], path: str | Path) -> None:
    rows = ["doc_id,label,tokens\n"]
    for doc_id, label, tokens in docs:
        rows.append(f"{_csv_quote(doc_id)},{label.value},{' '.join(tokens)}\n")
    atomic_write_text(path, "".join(rows))


def read_tokens(path: str | Path) -> list[tuple[str, Label, list[str]]]:
    return [
        (row["doc_id"], Label.parse(row["label"]), row["tokens"].split())
        for row in _csv_rows(path, ("doc_id", "label", "tokens"))
    ]


def _csv_rows(path: str | Path, columns: Sequence[str]) -> Iterator[dict[str, str]]:
    """Rows of a CSV file whose header names every given column; each row must fill them."""
    name = Path(path).name
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"{name}: header lacks column(s) {', '.join(missing)}")
            for row in reader:
                if any(row[c] is None for c in columns):
                    raise ValueError(f"{name} line {reader.line_num}: too few fields")
                yield row
        except UnicodeDecodeError:
            raise ValueError(f"{name}: not UTF-8 text") from None


def _csv_quote(value: str) -> str:
    if any(c in value for c in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value
