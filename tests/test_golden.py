"""Byte-for-byte CLI outputs on the bundled fixtures.

Each case runs one subcommand on one fixture and compares its stdout with
``golden/<fixture>.<command>.out``, and its exit code and stderr with the
case's entry in ``golden/status.json``.  ``solve --trace`` on the fixtures
in ``TRACED`` is compared with ``golden/<fixture>.trace.csv`` byte for byte.
The files guard refactors that must not change what the command line
prints.  Regenerate them, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

import dualmod as dm
from dualmod.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FIXTURES = os.path.join(os.path.dirname(dm.__file__), "fixtures")
NAMES = ("hardness", "p3", "sec32", "tri_iso")
COMMANDS = {
    "verify": ("verify",),
    "decompose": ("decompose",),
    "contracts": ("contracts",),
    "solve": ("solve", "--T", "200"),
    "solve-kl": ("solve", "--T", "200", "--kind", "kl"),
    "solve-eg": ("solve", "--T", "200", "--kind", "eg"),
    "solve-hs1": ("solve", "--T", "200", "--kind", "hs:1"),
    "complement": ("complement",),
}
CASES = [(name, cmd) for name in NAMES for cmd in COMMANDS]
TRACED = ("p3", "tri_iso")


def capture(name: str, cmd: str, *extra: str) -> tuple[int, str, str]:
    argv = [COMMANDS[cmd][0], os.path.join(FIXTURES, f"{name}.json"), *COMMANDS[cmd][1:], *extra]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def golden_file(name: str, cmd: str) -> str:
    return os.path.join(GOLDEN, f"{name}.{cmd}.out")


def trace_bytes(name: str, path) -> bytes:
    code, _, _ = capture(name, "solve", "--stride", "10", "--trace", str(path))
    assert code == 0
    with open(path, "rb") as fh:
        return fh.read()


def golden_trace(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.trace.csv")


@pytest.mark.parametrize("name,cmd", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_cli_output_matches_golden(name, cmd):
    code, out, err = capture(name, cmd)
    with open(golden_file(name, cmd), "r", encoding="utf-8", newline="") as fh:
        assert out == fh.read()
    with open(os.path.join(GOLDEN, "status.json"), "r", encoding="utf-8") as fh:
        assert [code, err] == json.load(fh)[f"{name}.{cmd}"]


@pytest.mark.parametrize("name", TRACED)
def test_trace_csv_matches_golden(name, tmp_path):
    with open(golden_trace(name), "rb") as fh:
        assert trace_bytes(name, tmp_path / "trace.csv") == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    status = {}
    for name, cmd in CASES:
        code, out, err = capture(name, cmd)
        status[f"{name}.{cmd}"] = [code, err]
        with open(golden_file(name, cmd), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    for name in TRACED:
        trace_bytes(name, golden_trace(name))
    with open(os.path.join(GOLDEN, "status.json"), "w", encoding="utf-8") as fh:
        json.dump(status, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
