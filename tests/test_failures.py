"""Failures of the process's own streams and files end with exit 2 and at most one ``error:`` line, never a traceback.

Each case runs a child ``python -m corrlab`` whose only altered state is
its own, set in ``preexec_fn`` between fork and exec: a standard stream
closed or pointed at ``/dev/full``, or an ``RLIMIT_FSIZE``.  Children run
with Python's default buffered stdio (``PYTHONUNBUFFERED`` unset), where a
refused write can otherwise surface only in the interpreter's flush at
exit, which exits 120; a case marked ``unbuffered`` sets it.

A read-only file is no refusal for a process running as root, so no case
relies on file permissions: the stream that refuses writes is
``/dev/full``.  ``KeyboardInterrupt`` is out of scope: it is a user
action, not a resource failure.  Running out of memory is covered by the
out-of-memory cases in ``test_cli``.
"""

from __future__ import annotations

import errno
import os
import resource
import subprocess
import sys

import pytest

from child_env import child_env
from corrlab.cli import main

# A sampled CSV report of a few MB: far past any pipe's buffer.
LARGE_CSV = ["pr-signal", "--mode", "mc", "--trials", "100000", "--format", "csv"]


def _env(unbuffered: bool) -> dict[str, str]:
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _child(argv, preexec, stdout=subprocess.PIPE, unbuffered: bool = False) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "corrlab", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        preexec_fn=preexec,
        env=_env(unbuffered),
        timeout=120,
    )


def _error(code: int, path=None) -> bytes:
    """The one stderr line of an OSError with ``code``, on ``path`` if it names one."""
    where = "" if path is None else f": {str(path)!r}"
    return f"error: [Errno {code}] {os.strerror(code)}{where}\n".encode()


def _close_stdout():
    os.close(1)


def _close_stderr():
    os.close(2)


def _full_device(fd: int):
    def preexec():
        os.dup2(os.open("/dev/full", os.O_WRONLY), fd)

    return preexec


def _file_size_limit(limit: int):
    def preexec():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    return preexec


class TestStandardStreams:
    def test_closed_stdout_is_refused_before_any_work(self):
        # The run asks for petabytes of samples: refusing it first shows no work started.
        proc = _child(["pr-signal", "--mode", "mc", "--trials", str(10**15)], _close_stdout, stdout=None)
        assert (proc.returncode, proc.stderr) == (2, b"error: stdout is closed; write the report with --out\n")

    def test_closed_stdout_with_out_writes_the_report(self, tmp_path):
        argv = ["jamming", "--jim", "z", "--n", "2", "--trials", "50"]
        assert main([*argv, "--out", str(tmp_path / "warm.json")]) == 0
        proc = _child([*argv, "--out", str(tmp_path / "report.json")], _close_stdout, stdout=None)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert (tmp_path / "report.json").read_bytes() == (tmp_path / "warm.json").read_bytes()

    def test_closed_stderr_still_exits_2(self):
        proc = _child(["pr-signal", "--n", "-1"], _close_stderr)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"")

    @pytest.mark.parametrize("argv", (["pr-signal", "--n", "x"], []), ids=("bad-value", "no-command"))
    def test_closed_stderr_keeps_usage_off_stdout(self, argv):
        proc = _child(argv, _close_stderr)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"")

    def test_closed_stderr_still_prints_help(self):
        proc = _child(["pr-signal", "--help"], _close_stderr)
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"usage: corrlab pr-signal ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
    def test_full_stderr_still_exits_2(self, unbuffered):
        proc = _child(["pr-signal", "--n", "-1"], _full_device(2), unbuffered=unbuffered)
        assert (proc.returncode, proc.stdout) == (2, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
    def test_full_stdout_exits_2(self, unbuffered):
        # A report of about 1 KB: buffered, it is refused only when flushed.
        proc = _child(["ghz-algebra"], _full_device(1), unbuffered=unbuffered)
        assert (proc.returncode, proc.stderr) == (2, _error(errno.ENOSPC))

    def test_csv_reader_that_closes_early_exits_2(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "corrlab", *LARGE_CSV],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_env(False),
        )
        try:
            assert proc.stdout.read(20) == b"choice,trial,B,B_pri"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 2
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert err == _error(errno.EPIPE)


class TestOutFile:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_2(self):
        proc = _child(["ghz-algebra", "--out", "/dev/full"], None)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", _error(errno.ENOSPC))

    @pytest.mark.parametrize(
        "argv, limit",
        [(["ghz-algebra"], 512), (LARGE_CSV, 4096)],
        ids=("json", "csv"),
    )
    def test_file_size_limit_exits_2(self, tmp_path, argv, limit):
        out = tmp_path / "report"
        proc = _child([*argv, "--out", str(out)], _file_size_limit(limit))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", _error(errno.EFBIG))
        assert out.stat().st_size <= limit

    def test_directory_exits_2(self, tmp_path):
        proc = _child(["ghz-algebra", "--out", str(tmp_path)], None)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", _error(errno.EISDIR, tmp_path))

    def test_missing_directory_exits_2(self, tmp_path):
        out = tmp_path / "missing" / "report.json"
        proc = _child(["ghz-algebra", "--out", str(out)], None)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", _error(errno.ENOENT, out))
