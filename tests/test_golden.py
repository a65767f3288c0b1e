"""Byte-for-byte CLI outputs on the bundled fixtures.

Each case runs one subcommand on one fixture and compares its stdout with
``golden/<fixture>.<command>.out``, and its exit code and stderr with the
case's entry in ``golden/status.json``.  Each ``solve`` case also runs with
``--trace`` and must print the same.  Each ``(fixture, command)`` pair in
``TRACED`` runs with ``--stride 10 --trace``, and its CSV is compared byte for
byte with ``golden/<fixture>.trace.csv`` for ``solve`` and with
``golden/<fixture>.<command>.trace.csv`` for any other command.
The cases run in-process through ``main``, one after another; ``solve`` also
runs once per fixture in a fresh interpreter, as from a shell.  The files
guard refactors that must not change what the command line prints.
Regenerate them, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import dualmod as dm
from dualmod.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FIXTURES = os.path.join(os.path.dirname(dm.__file__), "fixtures")
NAMES = ("club8", "hardness", "p3", "sec32", "tri_iso")
COMMANDS = {
    "verify": ("verify",),
    "decompose": ("decompose",),
    "contracts": ("contracts",),
    "solve": ("solve", "--T", "200"),
    "solve-kl": ("solve", "--T", "200", "--kind", "kl"),
    "solve-eg": ("solve", "--T", "200", "--kind", "eg"),
    "solve-hs1": ("solve", "--T", "200", "--kind", "hs:1"),
    "solve-greedypp": ("solve", "--T", "200", "--variant", "greedypp"),
    "complement": ("complement",),
}
CASES = [(name, cmd) for name in NAMES for cmd in COMMANDS]
SOLVES = [(name, cmd) for name, cmd in CASES if COMMANDS[cmd][0] == "solve"]
TRACED = (
    ("club8", "solve"),
    ("p3", "solve"),
    ("tri_iso", "solve"),
    ("hardness", "solve-greedypp"),
    ("p3", "solve-greedypp"),
    ("tri_iso", "solve-greedypp"),
)


def argv(name: str, cmd: str, *extra: str) -> list[str]:
    return [COMMANDS[cmd][0], os.path.join(FIXTURES, f"{name}.json"), *COMMANDS[cmd][1:], *extra]


def capture(name: str, cmd: str, *extra: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv(name, cmd, *extra))
    return code, out.getvalue(), err.getvalue()


def golden_file(name: str, cmd: str) -> str:
    return os.path.join(GOLDEN, f"{name}.{cmd}.out")


def expected(name: str, cmd: str) -> tuple[int, str, str]:
    """The golden (exit code, stdout, stderr) of one case."""
    with open(golden_file(name, cmd), "r", encoding="utf-8", newline="") as fh:
        out = fh.read()
    with open(os.path.join(GOLDEN, "status.json"), "r", encoding="utf-8") as fh:
        code, err = json.load(fh)[f"{name}.{cmd}"]
    return code, out, err


def trace_bytes(name: str, cmd: str, path) -> bytes:
    code, _, _ = capture(name, cmd, "--stride", "10", "--trace", str(path))
    assert code == 0
    with open(path, "rb") as fh:
        return fh.read()


def trace_id(name: str, cmd: str) -> str:
    return name if cmd == "solve" else f"{name}.{cmd}"


def golden_trace(name: str, cmd: str) -> str:
    return os.path.join(GOLDEN, f"{trace_id(name, cmd)}.trace.csv")


@pytest.mark.parametrize("name,cmd", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_cli_output_matches_golden(name, cmd):
    assert capture(name, cmd) == expected(name, cmd)


@pytest.mark.parametrize("name,cmd", SOLVES, ids=[f"{n}-{c}" for n, c in SOLVES])
def test_traced_solve_prints_the_golden(name, cmd, tmp_path):
    # --trace keeps every row; what the run prints is the untraced golden
    assert capture(name, cmd, "--trace", str(tmp_path / "trace.csv")) == expected(name, cmd)


@pytest.mark.parametrize("name", NAMES)
def test_fresh_process_matches_golden(name):
    # one process, one call, as from a shell
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dm.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "dualmod.cli", *argv(name, "solve")], capture_output=True, text=True, env=env
    )
    assert (done.returncode, done.stdout, done.stderr) == expected(name, "solve")


@pytest.mark.parametrize("name,cmd", TRACED, ids=[trace_id(n, c) for n, c in TRACED])
def test_trace_csv_matches_golden(name, cmd, tmp_path):
    with open(golden_trace(name, cmd), "rb") as fh:
        assert trace_bytes(name, cmd, tmp_path / "trace.csv") == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    status = {}
    for name, cmd in CASES:
        code, out, err = capture(name, cmd)
        status[f"{name}.{cmd}"] = [code, err]
        with open(golden_file(name, cmd), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    for name, cmd in TRACED:
        trace_bytes(name, cmd, golden_trace(name, cmd))
    with open(os.path.join(GOLDEN, "status.json"), "w", encoding="utf-8") as fh:
        json.dump(status, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
