"""Atomic writes: the mode an output gets, and no temp file left behind on failure."""

import errno
import os
import stat

import pytest

from tmnovelty import _files
from tmnovelty._files import atomic_write_bytes


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_output_mode_is_what_the_umask_gives_a_new_file(tmp_path, umask, mode):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old")
    os.chmod(path, 0o640)
    before = os.umask(umask)
    try:
        atomic_write_bytes(path, b"new")
        atomic_write_bytes(tmp_path / "fresh.csv", b"new")
    finally:
        os.umask(before)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert stat.S_IMODE((tmp_path / "fresh.csv").stat().st_mode) == mode
    assert path.read_bytes() == b"new"


def _temp_file_gone_before_the_rename_fails(path, monkeypatch):
    """The rename fails after the temp file has gone, so its removal fails too."""
    def replace(src, dst):
        os.unlink(src)
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(_files.os, "replace", replace)


def _target_made_a_directory(path, monkeypatch):
    path.unlink()
    path.mkdir()


# Each: how the write is made to fail, the data written, and the error raised.
FAILURES = {
    "write": (lambda path, monkeypatch: None, 42, TypeError),
    "rename-onto-a-directory": (_target_made_a_directory, b"new", IsADirectoryError),
    "temp-file-already-gone": (_temp_file_gone_before_the_rename_fails, b"new", OSError),
}


@pytest.mark.parametrize("make_fail,data,error", FAILURES.values(), ids=FAILURES.keys())
def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, make_fail, data, error):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old")
    make_fail(path, monkeypatch)
    with pytest.raises(error):
        atomic_write_bytes(path, data)
    assert os.listdir(tmp_path) == ["out.csv"]
    assert path.is_dir() or path.read_bytes() == b"old"
