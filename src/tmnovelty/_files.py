"""Atomic file writes (temp file in the target directory, then rename) and the one CSV writer."""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Iterable, Sequence

# A CSV field holding any of these is quoted, with its quotes doubled.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def atomic_write_bytes(path: str | Path, data: bytes | memoryview) -> None:
    """Write ``data`` to a new temp file beside ``path``, renamed over it; on any failure the temp file is removed."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    # Mode 0666 less the umask, as open() gives a new file (0644 under 022), not mkstemp's 0600.
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_utf8(path: str | Path) -> str:
    """A text file's contents, less a leading byte-order mark; non-UTF-8 bytes raise ValueError naming the file."""
    try:
        return Path(path).read_text("utf-8-sig")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str | int | float]]) -> None:
    """Every stage's CSV output: the header line, then one line per row, each ending in "\\n".

    A number is written as its repr, so pass Python ints and floats
    (``.tolist()``; numpy 2 writes ``np.float64(...)``).  A string is quoted,
    with its quotes doubled, iff it holds a comma, a quote, "\\r" or "\\n".
    ``csv.writer`` is not used: under a "\\n" terminator Python 3.11 leaves
    a bare "\\r" unquoted, and a reader then ends the row there.
    """
    lines = [_csv_line(header)]
    lines.extend(map(_csv_line, rows))
    atomic_write_text(path, "".join(lines))


def _csv_line(fields: Sequence[str | int | float]) -> str:
    return ",".join([_csv_field(v) if isinstance(v, str) else repr(v) for v in fields]) + "\n"


def _csv_field(text: str) -> str:
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text
