"""The golden CLI table: every row of ``golden_cli.json`` runs through
``cli.main`` and must give the exit code and the md5s of stdout and stderr
that the table pins.  A row's optional ``env`` maps the environment
variables set for its run, over an environment without
``CLEANTRI_SIEVE_MEMORY``.  Rows marked heavy take seconds each and are
checked by ``golden_heavy.py`` instead.

A change that alters an output on purpose edits its rows; a failing row's
message shows the entry it produced, ready to paste.
"""

import contextlib
import hashlib
import json
import pathlib

import pytest

from cleantri import cli

TABLE = pathlib.Path(__file__).with_name("golden_cli.json")


class _Md5Sink:
    """A text stream that keeps only the md5 of the bytes written to it, so
    a row's output is never held whole."""

    def __init__(self) -> None:
        self.md5 = hashlib.md5()

    def write(self, text: str) -> int:
        self.md5.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def run_row(argv: list[str]) -> dict:
    """The table entry of one run of ``cli.main(argv)``: its exit code (also
    argparse's, raised as ``SystemExit``) and the md5s of its stdout and
    stderr."""
    out, err = _Md5Sink(), _Md5Sink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout_md5": out.md5.hexdigest(),
            "stderr_md5": err.md5.hexdigest()}


def rows(heavy: bool) -> list[dict]:
    return [row for row in json.loads(TABLE.read_text())["rows"]
            if row.get("heavy", False) == heavy]


def expected(row: dict) -> dict:
    return {key: row[key] for key in ("argv", "exit", "stdout_md5", "stderr_md5")}


@pytest.mark.parametrize("row", rows(heavy=False), ids=lambda row: " ".join(row["argv"]))
def test_golden_row(monkeypatch, row):
    monkeypatch.delenv("CLEANTRI_SIEVE_MEMORY", raising=False)
    for name, value in row.get("env", {}).items():
        monkeypatch.setenv(name, value)
    assert run_row(row["argv"]) == expected(row)
