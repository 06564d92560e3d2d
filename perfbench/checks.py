"""Output checks computed apart from the program.

Each check re-derives a stage's output from that stage's inputs with its own
code: the model file is decoded here (JSON header line, then little-endian
int16 states), word bags follow the paper's routing, scores the smoothed
ratio, and TF-IDF, pair counts and document aggregates are recounted from
the token lists.  A check raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# Model file.
# ---------------------------------------------------------------------------


@dataclass
class DecodedModel:
    header: dict
    states: dict[str, np.ndarray]  # class name -> (clauses, 2 * features) int16

    @property
    def state_count(self) -> int:
        return int(self.header["params"]["state_count"])

    @property
    def clause_count(self) -> int:
        return int(self.header["params"]["clause_count"])

    def include(self, label: str) -> np.ndarray:
        return self.states[label] > self.state_count


def decode_model(path: Path) -> DecodedModel:
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    require(header["state_dtype"] == "<i2", f"unexpected state dtype {header['state_dtype']}")
    clauses = header["params"]["clause_count"]
    literals = 2 * header["feature_count"]
    body = np.frombuffer(raw, dtype="<i2", offset=newline + 1)
    require(body.size == 2 * clauses * literals, "model file size does not match its header")
    body = body.reshape(2, clauses, literals)
    states = {label: body[k] for k, label in enumerate(header["class_order"])}
    return DecodedModel(header=header, states=states)


def check_state_range(model: DecodedModel) -> None:
    for label, state in model.states.items():
        low, high = int(state.min()), int(state.max())
        require(
            1 <= low and high <= 2 * model.state_count,
            f"{label} states span [{low}, {high}], outside [1, {2 * model.state_count}]",
        )


def model_make_up(model: DecodedModel) -> tuple[int, int]:
    """Non-empty clauses and included literals over both banks."""
    nonempty = included = 0
    for label in model.states:
        per_clause = model.include(label).sum(axis=1)
        nonempty += int((per_clause > 0).sum())
        included += int(per_clause.sum())
    return nonempty, included


def naive_accuracy(model: DecodedModel, bits: np.ndarray, is_novel: np.ndarray) -> float:
    """Inference accuracy from a per-literal reading of the clauses.

    A clause fires on a document iff it includes at least one literal and
    none of its included literals is false; a class's vote is its firing
    for-clauses minus its firing against-clauses; ties go to known.
    """
    half = model.clause_count // 2
    votes = {}
    for label in ("known", "novel"):
        include = model.include(label)
        nonempty = include.any(axis=1)
        sums = np.empty(bits.shape[0], dtype=np.int64)
        for d, doc in enumerate(bits):
            literals = np.concatenate([doc, ~doc])
            false_literals = np.flatnonzero(~literals)
            fired = nonempty & ~include[:, false_literals].any(axis=1)
            sums[d] = int(fired[:half].sum()) - int(fired[half:].sum())
        votes[label] = sums
    predicted_novel = votes["novel"] > votes["known"]
    return float(np.mean(predicted_novel == is_novel))


# ---------------------------------------------------------------------------
# Word bags and scores.
# ---------------------------------------------------------------------------


@dataclass
class Bags:
    known: np.ndarray  # count per vocabulary index
    novel: np.ndarray

    def scored(self) -> np.ndarray:
        return (self.known > 0) | (self.novel > 0)

    def rel_freq(self) -> tuple[np.ndarray, np.ndarray]:
        """Smoothed relative frequencies: counts lifted to at least 1, raw totals."""
        return (
            np.maximum(self.known, 1) / int(self.known.sum()),
            np.maximum(self.novel, 1) / int(self.novel.sum()),
        )


def word_bags(model: DecodedModel) -> Bags:
    """Route plain and negated words by bank and polarity.

    A for-vote of a bank describes that bank's group with its plain words and
    the other group with its negated words; an against-vote swaps the two.
    """
    o = model.header["feature_count"]
    half = model.clause_count // 2
    bags = {"known": np.zeros(o, dtype=np.int64), "novel": np.zeros(o, dtype=np.int64)}
    for label, other in (("known", "novel"), ("novel", "known")):
        include = model.include(label)
        plain, negated = include[:, :o], include[:, o:]
        bags[label] += plain[:half].sum(axis=0) + negated[half:].sum(axis=0)
        bags[other] += negated[:half].sum(axis=0) + plain[half:].sum(axis=0)
    return Bags(known=bags["known"], novel=bags["novel"])


def read_vocabulary(path: Path) -> list[str]:
    return [w for w in path.read_text("utf-8").splitlines() if w]


def read_tokens(path: Path) -> list[tuple[str, str, list[str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return [(r["doc_id"], r["label"], r["tokens"].split()) for r in csv.DictReader(fh)]


def score_map(vocab: list[str], bags: Bags) -> dict[str, float]:
    rel_known, rel_novel = bags.rel_freq()
    return {vocab[i]: float(rel_novel[i] / rel_known[i]) for i in np.flatnonzero(bags.scored())}


def check_score_table(path: Path, vocab: list[str], bags: Bags) -> dict[str, float]:
    """score_table.csv must match the re-derived bags, frequencies and scores."""
    rel_known, rel_novel = bags.rel_freq()
    index = {w: i for i, w in enumerate(vocab)}
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expected = score_map(vocab, bags)
    require(len(rows) == len(expected), f"score table has {len(rows)} words, expected {len(expected)}")
    for row in rows:
        word = row["word"]
        require(word in expected, f"score table word {word!r} is in no bag")
        i = index[word]
        require(
            int(row["freq_known"]) == bags.known[i] and int(row["freq_novel"]) == bags.novel[i],
            f"bag counts of {word!r} differ",
        )
        require(
            close(float(row["rel_freq_known"]), rel_known[i])
            and close(float(row["rel_freq_novel"]), rel_novel[i])
            and close(float(row["score"]), expected[word]),
            f"frequencies or score of {word!r} differ",
        )
    order = [(-float(r["score"]), r["word"]) for r in rows]
    require(order == sorted(order), "score table is not sorted by descending score")
    return expected


def check_context(path: Path, model: DecodedModel, vocab: list[str], bags: Bags, target: str) -> None:
    """Pair scores: shared-clause share over the product of the bag frequencies."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    words = rows[0][1:]
    index = {w: i for i, w in enumerate(vocab)}
    cols = [index[w] for w in words]
    plain = model.include(target)[:, : model.header["feature_count"]][:, cols].astype(np.int64)
    together = plain.T @ plain  # diagonal: clauses holding the word at all
    rel_known, rel_novel = bags.rel_freq()
    rel = (rel_known if target == "known" else rel_novel)[cols]
    require(len(rows) == len(words) + 1, "context matrix has the wrong number of rows")
    for a, row in enumerate(rows[1:]):
        require(row[0] == words[a], "context matrix rows and columns differ")
        for b, cell in enumerate(row[1:]):
            if b < a:
                require(cell == "", "context matrix has a value below the diagonal")
                continue
            expected = (together[a, b] / model.clause_count) / (rel[a] * rel[b])
            require(close(float(cell), expected), f"pair score ({words[a]}, {words[b]}) differs")


def check_tfidf(path: Path, token_docs: list[tuple[str, str, list[str]]]) -> None:
    """Brute force: per-group term frequency times log2(|D| / (df + 1))."""
    counts = {"known": Counter(), "novel": Counter()}
    df: Counter[str] = Counter()
    for _, label, tokens in token_docs:
        counts[label].update(tokens)
        df.update(set(tokens))
    totals = {label: sum(c.values()) for label, c in counts.items()}
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    require([r["word"] for r in rows] == sorted(df), "tfidf table words differ from the corpus words")
    for row in rows:
        word = row["word"]
        idf = math.log2(len(token_docs) / (df[word] + 1))
        require(close(float(row["idf"]), idf), f"idf of {word!r} differs")
        for label in ("known", "novel"):
            tf = counts[label].get(word, 0) / totals[label]
            require(
                close(float(row[f"tf_{label}"]), tf) and close(float(row[f"score_{label}"]), tf * idf),
                f"{label} tf-idf of {word!r} differs",
            )


def check_doc_scores(path: Path, token_docs, scores: dict[str, float]) -> None:
    """Mean log score over the scored token occurrences of each document."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == len(token_docs), "doc_scores.csv has the wrong number of documents")
    for row, (doc_id, label, tokens) in zip(rows, token_docs):
        require(row["doc_id"] == doc_id and row["label"] == label, f"doc_scores row for {doc_id} is out of place")
        logs = [math.log(scores[t]) for t in tokens if t in scores]
        if not logs:
            require(row["aggregate"] == "", f"{doc_id} has no scored token but an aggregate")
            continue
        require(close(float(row["aggregate"]), sum(logs) / len(logs)), f"aggregate of {doc_id} differs")


def check_ingest(outdir: Path, docs: list[tuple[str, str, list[str]]]) -> None:
    """Every generated word survives ingest unchanged, in order, with its label."""
    vocab = read_vocabulary(outdir / "vocabulary.txt")
    require(vocab == sorted({t for _, _, tokens in docs for t in tokens}), "vocabulary differs from the corpus words")
    token_docs = read_tokens(outdir / "tokens.csv")
    require(token_docs == docs, "tokens.csv differs from the generated documents")
    index = {w: i for i, w in enumerate(vocab)}
    with (outdir / "booldocs.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == len(docs), "booldocs.csv has the wrong number of documents")
    for row, (doc_id, _, tokens) in zip(rows, docs):
        expected = ";".join(str(i) for i in sorted({index[t] for t in tokens}))
        require(row["doc_id"] == doc_id and row["set_bits"] == expected, f"bits of {doc_id} differ")


def check_read_side(outdir: Path, context_target: str, floors: dict[str, float]) -> None:
    """Checks of the describe, context, tfidf and eval outputs, ending with the
    quality floors of acceptance criterion C4."""
    vocab = read_vocabulary(outdir / "vocabulary.txt")
    model = decode_model(outdir / "model.tm")
    bags = word_bags(model)
    scores = check_score_table(outdir / "score_table.csv", vocab, bags)
    check_context(outdir / f"context_{context_target}.csv", model, vocab, bags, context_target)
    token_docs = read_tokens(outdir / "tokens.csv")
    check_tfidf(outdir / "tfidf.csv", token_docs)
    check_doc_scores(outdir / "doc_scores.csv", token_docs, scores)
    report = json.loads((outdir / "report.json").read_text("utf-8"))
    tm_auc, tfidf_auc = report["tm"]["auc"], report["tfidf"]["auc"]
    require(tm_auc >= floors["tm_auc"], f"clause-score AUC {tm_auc:.3f} below the floor {floors['tm_auc']}")
    require(
        tm_auc - tfidf_auc >= floors["auc_lead"],
        f"clause-score AUC {tm_auc:.3f} trails TF-IDF {tfidf_auc:.3f} by more than allowed",
    )
