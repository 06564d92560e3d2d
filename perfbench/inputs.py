"""Seeded benchmark inputs: a BBC-Sport-shaped corpus and a prepared
paper-shape model.

Everything here is a pure function of the seed, so equal seeds give equal
inputs.  The paper-shape generator is separate from
``tmnovelty.synthetic.generate_corpus`` because that generator names words
with two letters plus ``x`` and raises ``IndexError`` past 676 words per
series, far short of a 5k-word vocabulary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# BBC Sport's three groups used by the paper: cricket and football are the
# known group, rugby the novel group.
GROUP_SIZES = {"cricket": 124, "football": 265, "rugby": 147}
KNOWN_GROUPS = ("cricket", "football")
NOVEL_GROUPS = ("rugby",)

SHARED_WORDS = 3_700
TOPIC_WORDS = 450  # per group
TOKENS_PER_DOC = (200, 320)  # uniform range; gives about 180 distinct words
SHARED_SHARE = 0.74
OWN_TOPIC_SHARE = 0.23  # the rest leaks from the other groups' topics

_CONSONANTS = "bcdfghjklmnprtvwz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class PaperCorpus:
    """Token lists per document, grouped like BBC Sport, plus the word pools."""

    docs: list[tuple[str, str, list[str]]]  # (group, file name, tokens)
    shared: list[str]
    topics: dict[str, list[str]]

    def labels(self) -> list[str]:
        return ["known" if group in KNOWN_GROUPS else "novel" for group, _, _ in self.docs]

    def vocabulary(self) -> list[str]:
        return sorted({t for _, _, tokens in self.docs for t in tokens})

    def vocab_hash(self) -> str:
        """The hash ingest gives the vocabulary it builds from this corpus."""
        return hashlib.sha256("\n".join(self.vocabulary()).encode("utf-8")).hexdigest()


def _stopwords(repo: Path) -> set[str]:
    path = repo / "src" / "tmnovelty" / "data" / "stopwords.txt"
    return {w.strip() for w in path.read_text("utf-8").splitlines() if w.strip()}


def _word_pool(rng: np.random.Generator, count: int, banned: set[str]) -> list[str]:
    """Distinct consonant-vowel words of three or four syllables.

    Each word is lowercase ASCII letters ending in a vowel, so tokenize keeps
    it whole and no stemmer suffix (-ing/-ed/-es/-s) applies; stopwords are
    skipped.
    """
    out: list[str] = []
    seen = set(banned)
    while len(out) < count:
        syllables = int(rng.integers(3, 5))
        cons = rng.integers(len(_CONSONANTS), size=syllables)
        vows = rng.integers(len(_VOWELS), size=syllables)
        word = "".join(_CONSONANTS[c] + _VOWELS[v] for c, v in zip(cons, vows))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _zipf(count: int, exponent: float) -> np.ndarray:
    weights = 1.0 / (np.arange(count) + 2.7) ** exponent
    return weights / weights.sum()


def paper_corpus(seed: int, repo: Path) -> PaperCorpus:
    rng = np.random.default_rng([seed, 2105_04708])
    pool = _word_pool(rng, SHARED_WORDS + TOPIC_WORDS * len(GROUP_SIZES), _stopwords(repo))
    shared = pool[:SHARED_WORDS]
    topics = {
        group: pool[SHARED_WORDS + k * TOPIC_WORDS : SHARED_WORDS + (k + 1) * TOPIC_WORDS]
        for k, group in enumerate(GROUP_SIZES)
    }
    shared_p = _zipf(SHARED_WORDS, exponent=1.1)
    topic_p = _zipf(TOPIC_WORDS, exponent=0.8)
    groups = list(GROUP_SIZES)
    docs: list[tuple[str, str, list[str]]] = []
    for group, size in GROUP_SIZES.items():
        others = [g for g in groups if g != group]
        for k in range(size):
            n = int(rng.integers(*TOKENS_PER_DOC))
            source = rng.random(n)
            n_shared = int((source < SHARED_SHARE).sum())
            n_own = int((source < SHARED_SHARE + OWN_TOPIC_SHARE).sum()) - n_shared
            n_leak = n - n_shared - n_own
            tokens = [shared[i] for i in rng.choice(SHARED_WORDS, n_shared, p=shared_p)]
            tokens += [topics[group][i] for i in rng.choice(TOPIC_WORDS, n_own, p=topic_p)]
            for i in rng.choice(TOPIC_WORDS * len(others), n_leak):
                tokens.append(topics[others[i // TOPIC_WORDS]][i % TOPIC_WORDS])
            rng.shuffle(tokens)
            docs.append((group, f"{k + 1:03d}.txt", tokens))
    return PaperCorpus(docs=docs, shared=shared, topics=topics)


def write_grouped_dirs(corpus: PaperCorpus, root: Path) -> None:
    """One text file per document under root/<group>/, the BBC Sport layout."""
    for group in GROUP_SIZES:
        (root / group).mkdir(parents=True, exist_ok=True)
    for group, name, tokens in corpus.docs:
        lines = [" ".join(tokens[i : i + 12]) for i in range(0, len(tokens), 12)]
        (root / group / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Prepared paper-shape model.
# ---------------------------------------------------------------------------

# Clause make-up of a converged machine, from `python3 perfbench/calibrate.py`
# (1 000 clauses per bank, 100 documents, 9 epochs): after 8-9 epochs a
# non-empty clause holds about 4 plain and 64 negated words, about a fifth of
# each from the topic words of the group the clause speaks for (plain) or
# against (negated), and almost no clause is empty.
PLAIN_PER_CLAUSE = 4.0  # Poisson mean, at least one
NEGATED_PER_CLAUSE = 64.0  # Poisson mean
TOPIC_SHARE = 0.2
EMPTY_SHARE = 0.002
CLAUSES = 10_000  # per bank, the paper's pool


def prepare_model(corpus: PaperCorpus, seed: int, path: Path) -> None:
    """Write a paper-shape model whose clauses look trained, without training.

    TA states are set through ``TMModel.create`` and ``ClauseBank.state`` and
    written with ``TMModel.save``.  Clause sizes and topic leanings follow the
    calibration above: a clause's plain words lean to the topic words of the
    group it votes for, its negated words to those of the other group.
    """
    from tmnovelty import Label, TMModel, TMParams

    rng = np.random.default_rng([seed, 7])
    vocab = corpus.vocabulary()
    index = {w: i for i, w in enumerate(vocab)}
    v = len(vocab)
    topic = {
        "known": np.array([index[w] for g in KNOWN_GROUPS for w in corpus.topics[g] if w in index]),
        "novel": np.array([index[w] for g in NOVEL_GROUPS for w in corpus.topics[g] if w in index]),
    }
    # Plain shared words follow corpus frequency; negated ones are any word.
    shared = np.array([index[w] for w in corpus.shared if w in index])
    shared_p = _zipf(SHARED_WORDS, exponent=1.1)[[w in index for w in corpus.shared]]
    shared_p /= shared_p.sum()
    params = TMParams(clause_count=CLAUSES, vote_margin=50, sensitivity=25.0, seed=seed)
    model = TMModel.create(params, v, vocab_hash=corpus.vocab_hash())
    n = params.state_count
    votes_known = np.arange(CLAUSES) < CLAUSES // 2  # for-votes of the known bank
    for label in (Label.KNOWN, Label.NOVEL):
        if label is Label.NOVEL:
            votes_known = ~votes_known
        state = model.banks[label].state
        # Excluded literals sit at a per-literal depth on the exclude side.
        state[:] = rng.integers(1, n + 1, size=2 * v, dtype=np.int16)[None, :]
        kept = np.flatnonzero(rng.random(CLAUSES) >= EMPTY_SHARE)
        n_plain = np.maximum(1, rng.poisson(PLAIN_PER_CLAUSE, kept.size))
        n_negated = rng.poisson(NEGATED_PER_CLAUSE, kept.size)
        plain_rows = np.repeat(kept, n_plain)
        negated_rows = np.repeat(kept, n_negated)
        plain = rng.choice(shared, plain_rows.size, p=shared_p)
        negated = rng.integers(v, size=negated_rows.size)
        for side, pool in topic.items():
            to_side = votes_known if side == "known" else ~votes_known
            pick = to_side[plain_rows] & (rng.random(plain_rows.size) < TOPIC_SHARE)
            plain[pick] = rng.choice(pool, int(pick.sum()))
            pick = ~to_side[negated_rows] & (rng.random(negated_rows.size) < TOPIC_SHARE)
            negated[pick] = rng.choice(pool, int(pick.sum()))
        rows = np.concatenate([plain_rows, negated_rows])
        cols = np.concatenate([plain, v + negated])
        state[rows, cols] = rng.integers(n + 1, 2 * n + 1, size=rows.size, dtype=np.int16)
    model.save(path)


def doc_slice(corpus: PaperCorpus, seed: int, count: int) -> list[int]:
    """A seeded, class-balanced selection of document indices, in corpus order."""
    rng = np.random.default_rng([seed, 11])
    labels = np.array(corpus.labels())
    picked: list[int] = []
    for label in ("known", "novel"):
        members = np.flatnonzero(labels == label)
        picked += rng.choice(members, count // 2, replace=False).tolist()
    return sorted(picked)


def bit_matrix(corpus: PaperCorpus, indices: list[int]) -> np.ndarray:
    """Presence bits over the sorted corpus vocabulary, one row per document."""
    index = {w: i for i, w in enumerate(corpus.vocabulary())}
    bits = np.zeros((len(indices), len(index)), dtype=bool)
    for row, d in enumerate(indices):
        bits[row, [index[t] for t in set(corpus.docs[d][2])]] = True
    return bits
