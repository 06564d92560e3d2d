"""Randomized corruption of a finished run's files: no stage may end in a traceback.

Each example copies a small trained run, damages one file (a truncated or
byte-flipped ``model.tm``, byte flips in ``vocabulary.txt``, a dropped or
renamed column in ``tokens.csv``) and runs ``train``, ``describe``,
``context`` or ``eval`` on it.  A stage may succeed, since a flipped state
byte can still decode to an in-range state, but any other outcome must be
exit code 1 or 2 with exactly one ``error:`` line.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmnovelty.cli import EXIT_MISSING, EXIT_OK, EXIT_VALIDATION, main

TEXTS = {
    "known": [
        "the cricket match was won by england hitting six",
        "england won the cricket match with a six off the last ball",
        "a fine cricket innings with six runs and a hit",
        "the bowler took a wicket in the cricket match",
    ],
    "novel": [
        "england won the rugby match despite using old ball",
        "the rugby team won the match despite old tactics",
        "rugby scrum despite the old ball",
        "a rugby match won despite old injuries",
    ],
}
PARAMS = ["--clauses", "8", "--vote-margin", "3", "--sensitivity", "3.0", "--state-count", "8", "--epochs", "2"]
STAGES = {"train": PARAMS, "describe": [], "context": ["--words", "rugby,cricket"], "eval": ["--seed", "1"]}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("corruption")
    for label, texts in TEXTS.items():
        (root / label).mkdir()
        for i, text in enumerate(texts):
            (root / label / f"{i}.txt").write_text(text, "utf-8")
    corpus = ["--known-dir", str(root / "known"), "--novel-dir", str(root / "novel")]
    out = root / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", *corpus, "--out", str(out)]) == EXIT_OK
        assert main(["train", *PARAMS, "--out", str(out)]) == EXIT_OK
    return out


def _flip(raw: bytes, flips: list[tuple[int, int]]) -> bytes:
    """XOR each mask into the byte at its position taken mod the length."""
    data = bytearray(raw)
    for position, mask in flips:
        data[position % len(data)] ^= mask
    return bytes(data)


def _edit_columns(raw: bytes, drop: bool, column: int, new_name: str) -> bytes:
    """Drop the header's column (and its field on every row), or rename it."""
    lines = raw.decode("utf-8").splitlines()
    names = lines[0].split(",")
    column %= len(names)
    if not drop:
        names[column] = new_name
        return "\n".join([",".join(names), *lines[1:]]).encode("utf-8") + b"\n"
    rows = [line.split(",") for line in lines]
    return "".join(",".join(f for k, f in enumerate(row) if k != column) + "\n" for row in rows).encode("utf-8")


FLIPS = st.lists(st.tuples(st.integers(0, 1 << 30), st.integers(1, 255)), min_size=1, max_size=4)
COLUMN_EDITS = st.tuples(st.integers(0, 2), st.text("abdeilnost_", min_size=1, max_size=8))
# (file, corruption, what the corruption draws, the stages that read the file)
CORRUPTIONS = [
    ("model.tm", "truncate", st.integers(0, 1 << 30), ("describe", "context", "eval")),
    ("model.tm", "flip-header", FLIPS, ("describe", "context", "eval")),
    ("model.tm", "flip-body", FLIPS, ("describe", "context", "eval")),
    ("vocabulary.txt", "flip", FLIPS, ("train", "describe", "eval")),
    ("tokens.csv", "drop", COLUMN_EDITS, ("train", "eval")),
    ("tokens.csv", "rename", COLUMN_EDITS, ("train", "eval")),
]
CASES = [
    pytest.param(name, kind, draws, stage, id=f"{stage}-{name}-{kind}")
    for name, kind, draws, stages in CORRUPTIONS
    for stage in stages
]


def _corrupt(raw: bytes, kind: str, arg) -> bytes:
    header_end = raw.find(b"\n") + 1
    if kind == "truncate":
        return raw[: arg % len(raw)]
    if kind == "flip-header":
        return _flip(raw[:header_end], arg) + raw[header_end:]
    if kind == "flip-body":
        return raw[:header_end] + _flip(raw[header_end:], arg)
    if kind == "flip":
        return _flip(raw, arg)
    return _edit_columns(raw, kind == "drop", *arg)


@pytest.mark.parametrize("name,kind,draws,stage", CASES)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_corrupted_run_ends_in_success_or_one_error_line(finished_run, name, kind, draws, stage, data):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(finished_run, out)
        (out / name).write_bytes(_corrupt((out / name).read_bytes(), kind, data.draw(draws)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([stage, *STAGES[stage], "--out", str(out)])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_MISSING)
    message = err.getvalue()
    assert "Traceback" not in message
    if code != EXIT_OK:
        assert message.startswith("error: ") and message.count("\n") == 1, message
