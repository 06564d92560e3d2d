"""Two-class Tsetlin machine over boolean word vectors.

Each class owns a pool of conjunctive clauses (half voting for the class,
half against).  A clause is a team of two-action automata, one per literal
(every feature and its negation); a literal is part of the conjunction
whenever its automaton state is on the include side.  A clause's output
depends only on those include actions, so each bank keeps one bit-packed view
of them, kept in step row by row by the feedback that writes the rows; a
clause fires iff ``include & ~literals`` is all zero.

Training follows the classic two-feedback scheme.  Type I feedback breeds
frequent patterns: on a firing clause, true literals are reinforced toward
include with probability (s-1)/s and false literals pushed toward exclude
with probability 1/s; on a silent clause every state decays toward exclude
with probability 1/s (the 1/s moves are drawn sparsely).  Type II feedback
sharpens discrimination: a firing clause deterministically nudges every
excluded false literal one step toward include, planting a blocker.  Per
document, the labeled class receives Type I on its for-votes and Type II on
its firing against-votes, each clause independently with probability
(T - clamp(sum))/(2T); the opposite class receives the mirrored treatment
with probability (T + clamp(sum))/(2T).

Each bank's document step has a draw phase and an apply phase.  The draw
phase (evaluation, the clamp, the clause selection and the 1/s positions)
runs on the calling thread in one fixed order, so one generator serves the
whole fit.  The apply phase (``type_i`` and ``type_ii`` on the drawn rows)
writes only that bank's states, so when a bank's states exceed
``_THREAD_BYTES`` it runs on a worker thread while the other bank draws; a
bank's next draw waits for its own pending apply, and the epoch-end
accuracy pass waits for both.  Either way the states are the same bytes.

``TMModel.create`` allocates the model file's image, a header slot followed
by both banks' states, and the banks' states are views into it: ``save``
writes the header into the slot and the image straight to disk, and
``load`` reads the file straight into it.  No full include mask is built:
every reader, the first evaluation's packing of the view included, takes a
bank's include actions a row block at a time (``include_blocks``).  Feedback
gathers at most ``_FEEDBACK_BYTES`` of states per block, since both workers'
blocks and the draws are live at once; the 1/s positions are built in place.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._files import atomic_write_bytes
from .corpus import BoolDoc, Label, Vocabulary

_MODEL_FORMAT = "tmnovelty-model"
_MODEL_VERSION = 1
_CLASS_ORDER = (Label.KNOWN, Label.NOVEL)  # bank order in the model file
_PARAM_TYPES = {"clause_count": int, "vote_margin": int, "sensitivity": (int, float), "state_count": int, "seed": int}

# Longest header line a model file may have.
_MAX_HEADER_BYTES = 1 << 16
# Upper bound on the temporaries of one evaluation or read block.
_BLOCK_BYTES = 1 << 23
# Banks whose states take more bytes than this apply feedback on worker
# threads; below it, thread hand-offs cost more than they save (see README).
_THREAD_BYTES = 16 << 20
# States per feedback block: each worker's block is live beside the other's and
# the main thread's draws; 8 MiB blocks peaked 36-43 MiB higher on a paper fit.
_FEEDBACK_BYTES = 1 << 20
# Largest n whose states [1, 2n] plus one Type I step still fit in int16.
_MAX_STATE_COUNT = (np.iinfo(np.int16).max - 1) // 2


class Polarity(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class EvalMode(Enum):
    """Empty clauses (no included literal) fire in LEARNING, never in INFERENCE."""

    LEARNING = "learning"
    INFERENCE = "inference"


@dataclass(frozen=True)
class TMParams:
    """Hyperparameters: clause pool size, vote margin, sensitivity, automaton depth."""

    clause_count: int = 10_000
    vote_margin: int = 50
    sensitivity: float = 25.0
    state_count: int = 128  # states per action; TA state ranges over [1, 2*state_count]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clause_count < 2 or self.clause_count % 2 != 0:
            raise ValueError("clause_count must be an even integer >= 2")
        if self.vote_margin < 1:
            raise ValueError("vote_margin must be >= 1")
        if not self.sensitivity > 1.0:
            raise ValueError("sensitivity must be > 1")
        if not 1 <= self.state_count <= _MAX_STATE_COUNT:
            raise ValueError(f"state_count must be in [1, {_MAX_STATE_COUNT}] (states are int16)")


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean array's last axis into zero-padded little-endian 64-bit words."""
    packed = np.packbits(np.asarray(bits, dtype=bool), axis=-1, bitorder="little")
    width = packed.shape[-1]
    out = np.zeros(packed.shape[:-1] + ((width + 7) // 8 * 8,), dtype=np.uint8)
    out[..., :width] = packed
    return out.view(np.uint64)


def literal_vector(bits: np.ndarray) -> np.ndarray:
    """Concatenate features with their negations: [x_1..x_o, ~x_1..~x_o]."""
    bits = np.asarray(bits, dtype=bool)
    return np.concatenate([bits, ~bits], axis=-1)


def _bernoulli_positions(size: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted positions in [0, size), each present independently with probability p.

    The gaps between successive positions are geometric(p), drawn as
    floor(E / -log(1 - p)) + 1 from standard exponentials E, in blocks a few
    deviations above the expected count; a block's gaps become positions in
    place, in the buffer of its draws.  Positions are summed in float64,
    exact for every position below 2**53.  An empty range draws nothing.
    """
    if size <= 0:
        return np.empty(0, dtype=np.int64)
    rate = -math.log1p(-p)
    positions = np.full(1, -1.0)  # only the start marker until the first block
    while positions[-1] < size:
        expected = (size - 1 - positions[-1]) * p
        buf = rng.standard_exponential(int(expected + 4.0 * math.sqrt(expected)) + 16)
        buf /= rate
        np.floor(buf, out=buf)
        buf += 1.0
        np.cumsum(buf, out=buf)
        buf += positions[-1]
        positions = buf if positions[0] < 0 else np.concatenate([positions, buf])
    return positions[: np.searchsorted(positions, size)].astype(np.int64)


class ClauseBank:
    """TA states for one class's clause pool; first half positive polarity.

    ``state`` is a (clauses, literals) int16 array: allocated here, or the
    given ``out`` (``TMModel.create`` passes views into the model's file
    image).  It may be replaced or written in place until the first
    evaluation builds the packed include view; after that, rows change only
    through the feedback methods (or ``_write_rows``), which keep the view in
    step.
    """

    def __init__(
        self, clause_count: int, feature_count: int, state_count: int, out: np.ndarray | None = None
    ) -> None:
        if clause_count % 2 != 0:
            raise ValueError("clause_count must be even")
        self.clause_count = clause_count
        self.feature_count = feature_count
        self.literal_count = 2 * feature_count
        self.state_count = state_count
        # Exclude side, one step from include: the common starting point.
        self.state = np.empty((clause_count, self.literal_count), dtype=np.int16) if out is None else out
        self.state[...] = state_count
        self.positive_mask = np.zeros(clause_count, dtype=bool)
        self.positive_mask[: clause_count // 2] = True
        self._block_rows = max(1, _BLOCK_BYTES // max(1, self.state.itemsize * self.literal_count))
        self._feedback_rows = max(1, _FEEDBACK_BYTES // max(1, self.state.itemsize * self.literal_count))
        self._packed: np.ndarray | None = None  # (words, clauses) packed include bits
        self._nonempty: np.ndarray | None = None  # (clauses,) any literal included

    def include_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """The include mask a block of ``_block_rows`` rows at a time: (first row, block)."""
        for start in range(0, self.clause_count, self._block_rows):
            yield start, self.state[start : start + self._block_rows] > self.state_count

    def include_counts(self) -> np.ndarray:
        """(2, literals) counts of the clauses including each literal: positive half, negative half."""
        half = self.clause_count // 2
        counts = np.zeros((2, self.literal_count), dtype=np.int64)
        for start, include in self.include_blocks():
            cut = min(max(half - start, 0), len(include))
            # int32 sums take about half the time of int64 ones; a block has < 2**31 rows.
            counts[0] += include[:cut].sum(axis=0, dtype=np.int32)
            counts[1] += include[cut:].sum(axis=0, dtype=np.int32)
        return counts

    def _write_rows(self, rows: np.ndarray, block: np.ndarray) -> None:
        """Store new states for the given rows and repack just those rows."""
        self.state[rows] = block
        if self._packed is not None:
            self._repack(rows, block > self.state_count)

    def _repack(self, rows: np.ndarray | slice, include: np.ndarray) -> None:
        self._packed[:, rows] = pack_bits(include).T
        self._nonempty[rows] = include.any(axis=1)

    # -- evaluation ----------------------------------------------------------

    def fired(self, not_literals_packed: np.ndarray, mode: EvalMode) -> np.ndarray:
        """Evaluate all clauses on pack_bits(~literals) of one input or a stack of them.

        A (words,) input gives (clauses,) outputs and a (docs, words) stack
        gives (docs, clauses).  A clause is violated when one of its packed
        include words shares a bit with the input's false literals; the view
        is stored word-major, so each word is one contiguous pass over the
        clauses, and a stack is taken a block of documents at a time.
        """
        if self._packed is None:
            self._packed = np.empty((-(-self.literal_count // 64), self.clause_count), dtype=np.uint64)
            self._nonempty = np.empty(self.clause_count, dtype=bool)
            for start, include in self.include_blocks():
                self._repack(slice(start, start + len(include)), include)
        docs = np.atleast_2d(not_literals_packed)
        violated = np.zeros((len(docs), self.clause_count), dtype=bool)
        step = max(1, _BLOCK_BYTES // (8 * self.clause_count))
        for start in range(0, len(docs), step):
            chunk, out = docs[start : start + step], violated[start : start + step]
            for word, include_bits in enumerate(self._packed):
                out |= (include_bits & chunk[:, word, None]) != 0
        fired = ~violated
        if mode is EvalMode.INFERENCE:
            fired &= self._nonempty
        return fired.reshape(not_literals_packed.shape[:-1] + (self.clause_count,))

    def vote_sum(self, fired: np.ndarray) -> np.ndarray:
        """For-votes minus against-votes over the last (clause) axis."""
        half = self.clause_count // 2
        return fired[..., :half].sum(axis=-1, dtype=np.int64) - fired[..., half:].sum(axis=-1, dtype=np.int64)

    # -- feedback ------------------------------------------------------------

    def type_i(
        self,
        fired_rows: np.ndarray,
        silent_rows: np.ndarray,
        literals: np.ndarray,
        forget: np.ndarray,
    ) -> None:
        """Apply Type I feedback to the given clause rows (fired and silent).

        Firing rows gain one step on every true literal; then each (row,
        literal) listed in ``forget`` loses one step; then states are clipped
        to [1, 2n].  ``forget`` holds sorted flat positions into the (rows,
        literals) block of the fired rows followed by the silent rows, each
        present with probability 1/s (``_bernoulli_positions``).  A true
        literal of a firing row thus rises with probability (s-1)/s, a false
        one falls with 1/s, and every literal of a silent row falls with 1/s.
        """
        rows = np.concatenate([fired_rows, silent_rows])
        if not rows.size:
            return
        width = self.literal_count
        for start in range(0, rows.size, self._feedback_rows):
            part = rows[start : start + self._feedback_rows]
            block = self.state[part]
            block[: max(0, fired_rows.size - start)] += literals
            lo, hi = np.searchsorted(forget, (start * width, (start + part.size) * width))
            block.reshape(-1)[forget[lo:hi] - start * width] -= 1
            np.clip(block, 1, 2 * self.state_count, out=block)
            self._write_rows(part, block)

    def type_ii(self, fired_rows: np.ndarray, literals: np.ndarray) -> None:
        """Nudge every excluded false literal of the given firing rows toward include."""
        false_literals = ~literals
        for start in range(0, fired_rows.size, self._feedback_rows):
            part = fired_rows[start : start + self._feedback_rows]
            block = self.state[part]
            block += false_literals & (block <= self.state_count)
            self._write_rows(part, block)


@dataclass
class TMModel:
    """Two clause banks (one per document group) plus the shared hyperparameters."""

    params: TMParams
    feature_count: int
    banks: dict[Label, ClauseBank]
    vocab_hash: str = ""
    _image: np.ndarray | None = dataclasses.field(default=None, repr=False, compare=False)

    @classmethod
    def create(cls, params: TMParams, feature_count: int, vocab_hash: str = "") -> "TMModel":
        """A fresh model whose banks' states are views into one file image.

        The image is laid out like the model file: a ``_MAX_HEADER_BYTES``
        header slot, then every bank's ``<i2`` states in file order, so
        ``save`` writes it without a staging copy and ``load`` reads into it.
        """
        image = _file_image(params.clause_count, feature_count)
        states = _file_image_states(image, params.clause_count, feature_count)
        banks = {
            label: ClauseBank(params.clause_count, feature_count, params.state_count, out=states[k])
            for k, label in enumerate(_CLASS_ORDER)
        }
        return cls(params=params, feature_count=feature_count, banks=banks, vocab_hash=vocab_hash, _image=image)

    def save(self, path: str | Path) -> None:
        """Write the model file from the file image.

        The header goes right-aligned into the slot in front of the states;
        a bank whose ``state`` was replaced is first copied into its place.
        """
        header = {
            "format": _MODEL_FORMAT,
            "version": _MODEL_VERSION,
            "params": dataclasses.asdict(self.params),
            "feature_count": self.feature_count,
            "vocab_hash": self.vocab_hash,
            "state_dtype": "<i2",
            "class_order": [label.value for label in _CLASS_ORDER],
        }
        head = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
        if len(head) > _MAX_HEADER_BYTES:
            raise ValueError(f"model header is longer than {_MAX_HEADER_BYTES} bytes")
        sizes = (self.params.clause_count, self.feature_count)
        image = self._image if self._image is not None else _file_image(*sizes)
        states = _file_image_states(image, *sizes)
        for k, label in enumerate(_CLASS_ORDER):
            state = self.banks[label].state
            if state.__array_interface__ != states[k].__array_interface__:
                states[k] = state
        start = _MAX_HEADER_BYTES - len(head)
        image[start:_MAX_HEADER_BYTES] = np.frombuffer(head, dtype=np.uint8)
        atomic_write_bytes(path, memoryview(image[start:]))

    @classmethod
    def load(cls, path: str | Path) -> "TMModel":
        """Read a model file; any malformed header, size or state raises ValueError.

        The header line is checked first and the body size against it, then
        each bank's states are read straight into their place in the file
        image ``create`` allocated, with no staging copy.
        """
        with open(path, "rb") as fh:
            head = fh.readline(_MAX_HEADER_BYTES)
            try:
                header = json.loads(head) if head.endswith(b"\n") else None
            except ValueError:
                header = None
            if not isinstance(header, dict) or header.get("format") != _MODEL_FORMAT:
                raise ValueError(f"not a model file: {path}")
            if header.get("version") != _MODEL_VERSION:
                raise ValueError(f"unsupported model version {header.get('version')!r}")
            params = TMParams(
                **{k: _header_field(header.get("params"), k, kind, path) for k, kind in _PARAM_TYPES.items()}
            )
            feature_count = _header_field(header, "feature_count", int, path)
            vocab_hash = _header_field(header, "vocab_hash", str, path)
            if header.get("state_dtype") != "<i2" or header.get("class_order") != [l.value for l in _CLASS_ORDER]:
                raise ValueError(f"unsupported state layout in model file: {path}")
            if feature_count < 1:
                raise ValueError(f"model header key 'feature_count' must be >= 1: {path}")
            body_bytes = 2 * len(_CLASS_ORDER) * params.clause_count * 2 * feature_count
            if os.fstat(fh.fileno()).st_size - len(head) != body_bytes:
                raise ValueError(f"model file is truncated or has trailing bytes: {path}")
            model = cls.create(params, feature_count, vocab_hash=vocab_hash)
            high = 2 * params.state_count
            for label in _CLASS_ORDER:
                state = model.banks[label].state
                if fh.readinto(state) != state.nbytes:  # a buffered read fills the array unless at EOF
                    raise ValueError(f"model file ended before its states did: {path}")
                if state.min() < 1 or state.max() > high:
                    raise ValueError(f"{label.value} clause states outside [1, {high}] in model file: {path}")
        return model


def _file_image(clause_count: int, feature_count: int) -> np.ndarray:
    """An uninitialised model file image: the header slot, then the states."""
    return np.empty(_MAX_HEADER_BYTES + 2 * len(_CLASS_ORDER) * clause_count * 2 * feature_count, dtype=np.uint8)


def _file_image_states(image: np.ndarray, clause_count: int, feature_count: int) -> np.ndarray:
    """The (banks, clauses, literals) ``<i2`` states of a file image."""
    return image[_MAX_HEADER_BYTES:].view("<i2").reshape(len(_CLASS_ORDER), clause_count, 2 * feature_count)


def _header_field(mapping: object, key: str, kind: type | tuple[type, ...], path: str | Path) -> object:
    value = mapping.get(key) if isinstance(mapping, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"model header key {key!r} is missing or has the wrong type: {path}")
    return value


def classify_batch(model: TMModel, bits_matrix: np.ndarray) -> np.ndarray:
    """Per row of a (docs, features) matrix, True = NOVEL: the larger vote sum wins, ties go to KNOWN."""
    not_packed = pack_bits(~literal_vector(bits_matrix))
    sums = {label: bank.vote_sum(bank.fired(not_packed, EvalMode.INFERENCE)) for label, bank in model.banks.items()}
    return sums[Label.NOVEL] > sums[Label.KNOWN]


def fit(
    model: TMModel,
    docs: Sequence[BoolDoc],
    epochs: int,
    early_stop_accuracy: float | None = None,
) -> tuple[TMModel, list[float]]:
    """Train in place over shuffled epochs; returns the model and accuracy trace.

    ``early_stop_accuracy`` ends training once the post-epoch training
    accuracy reaches the given level (the trace keeps what was recorded).
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    labels = {doc.label for doc in docs}
    if labels != {Label.KNOWN, Label.NOVEL}:
        raise ValueError("both classes required")
    for doc in docs:
        if doc.bits.shape[-1] != model.feature_count:
            raise ValueError(f"document {doc.doc_id!r} width != model width")

    bits_matrix = np.stack([doc.bits for doc in docs]).astype(bool)
    lits_matrix = literal_vector(bits_matrix)
    not_packed = pack_bits(~lits_matrix)
    is_novel = np.array([doc.label is Label.NOVEL for doc in docs])

    rng = np.random.default_rng(model.params.seed)
    order_banks = tuple(model.banks[label] for label in _CLASS_ORDER)
    margin = model.params.vote_margin
    s = model.params.sensitivity

    # Large banks apply their feedback on worker threads, one pending apply
    # per bank; the draws stay on this thread, in the serial order.
    threaded = max(bank.state.nbytes for bank in order_banks) > _THREAD_BYTES
    pending: list[Future | None] = [None] * len(order_banks)
    trace: list[float] = []
    workers = ThreadPoolExecutor(len(order_banks), thread_name_prefix="tmnovelty-feedback") if threaded else None
    with workers or nullcontext() as pool:
        for _ in range(epochs):
            for d in rng.permutation(len(docs)):
                target = int(is_novel[d])
                for k, toward in ((target, True), (1 - target, False)):
                    bank = order_banks[k]
                    _settle(pending[k])
                    apply = (bank, lits_matrix[d], *_draw_feedback(bank, not_packed[d], toward, margin, s, rng))
                    pending[k] = pool.submit(_apply_feedback, *apply) if pool else _apply_feedback(*apply)
            _settle(*pending)
            accuracy = float(np.mean(classify_batch(model, bits_matrix) == is_novel))
            trace.append(accuracy)
            if early_stop_accuracy is not None and accuracy >= early_stop_accuracy:
                break
    return model, trace


def _settle(*futures: Future | None) -> None:
    """Wait for pending apply phases; a worker's exception is raised here."""
    for future in futures:
        if future is not None:
            future.result()


def _draw_feedback(
    bank: ClauseBank,
    not_packed: np.ndarray,
    toward: bool,
    margin: int,
    s: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw phase of one bank's document step: evaluate, select, draw the 1/s moves.

    Returns the Type I fired rows, silent rows and forget positions, and the
    Type II rows.  Every random draw of a step happens here, in a fixed order.
    """
    fired = bank.fired(not_packed, EvalMode.LEARNING)
    clamped = max(-margin, min(margin, int(bank.vote_sum(fired))))
    selected = rng.random(bank.clause_count) < (margin - (clamped if toward else -clamped)) / (2.0 * margin)
    votes_with = bank.positive_mask if toward else ~bank.positive_mask
    type_i_pool = selected & votes_with
    fired_rows = np.flatnonzero(type_i_pool & fired)
    silent_rows = np.flatnonzero(type_i_pool & ~fired)
    forget = _bernoulli_positions((fired_rows.size + silent_rows.size) * bank.literal_count, 1.0 / s, rng)
    return fired_rows, silent_rows, forget, np.flatnonzero(selected & ~votes_with & fired)


def _apply_feedback(
    bank: ClauseBank,
    literals: np.ndarray,
    fired_rows: np.ndarray,
    silent_rows: np.ndarray,
    forget: np.ndarray,
    type_ii_rows: np.ndarray,
) -> None:
    """Apply phase of one bank's document step: it writes only this bank's states."""
    bank.type_i(fired_rows, silent_rows, literals, forget)
    bank.type_ii(type_ii_rows, literals)


@dataclass(frozen=True)
class ExtractedClause:
    """A trained clause reduced to its word sets for downstream description."""

    label: Label
    polarity: Polarity
    index: int
    plain_words: frozenset[str]
    negated_words: frozenset[str]


def extract_clauses(model: TMModel, vocab: Vocabulary) -> list[ExtractedClause]:
    """Read the include actions of every clause back as plain/negated word sets.

    Clauses with no included literal are omitted.  A word may appear on both
    sides of one clause if training included both the feature and its
    negation; that is surfaced as-is.  Each bank is read in one pass: the
    flat positions of its included literals, gathered a row block at a time
    (``include_blocks``), split per clause at row * 2V and row * 2V + V,
    with position mod V giving the word.
    """
    if len(vocab) != model.feature_count:
        raise ValueError("vocabulary size != model feature count")
    out: list[ExtractedClause] = []
    clauses = model.params.clause_count
    half = clauses // 2
    o = model.feature_count
    words = np.array(vocab.words, dtype=object)
    marks = np.append((np.arange(clauses)[:, None] * (2 * o) + (0, o)).ravel(), clauses * 2 * o)
    for label in _CLASS_ORDER:
        bank = model.banks[label]
        included = np.concatenate([np.flatnonzero(block) + start * 2 * o for start, block in bank.include_blocks()])
        cuts = np.searchsorted(included, marks).tolist()
        names = words[included % o].tolist()
        for j in range(clauses):
            start, middle, end = cuts[2 * j], cuts[2 * j + 1], cuts[2 * j + 2]
            if start == end:
                continue
            out.append(
                ExtractedClause(
                    label=label,
                    polarity=Polarity.POSITIVE if j < half else Polarity.NEGATIVE,
                    index=j,
                    plain_words=frozenset(names[start:middle]),
                    negated_words=frozenset(names[middle:end]),
                )
            )
    return out


def write_clause_dump(clauses: Sequence[ExtractedClause], path: str | Path) -> None:
    """CSV dump: class, polarity, clause_index, plain and negated words ';'-joined."""
    rows = ["class,polarity,clause_index,plain_words,negated_words\n"]
    for c in clauses:
        plain = ";".join(sorted(c.plain_words))
        negated = ";".join(sorted(c.negated_words))
        rows.append(f"{c.label.value},{c.polarity.value},{c.index},{plain},{negated}\n")
    atomic_write_bytes(path, "".join(rows).encode("utf-8"))
