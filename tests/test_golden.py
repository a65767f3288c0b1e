"""Byte-for-byte CLI outputs on the bundled fixtures.

Each case runs one subcommand on one fixture and compares its stdout with
``golden/<fixture>.<command>.out``, and its exit code and stderr with the
case's entry in ``golden/status.json``.  The files guard refactors that
must not change what the command line prints.  Regenerate them, only when an output change
is intended, with

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
    "complement": ("complement",),
}
CASES = [(name, cmd) for name in NAMES for cmd in COMMANDS]


def capture(name: str, cmd: str) -> tuple[int, str, str]:
    argv = [COMMANDS[cmd][0], os.path.join(FIXTURES, f"{name}.json"), *COMMANDS[cmd][1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def golden_file(name: str, cmd: str) -> str:
    return os.path.join(GOLDEN, f"{name}.{cmd}.out")


@pytest.mark.filterwarnings("ignore:f_min = 0")
@pytest.mark.parametrize("name,cmd", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_cli_output_matches_golden(name, cmd):
    code, out, err = capture(name, cmd)
    with open(golden_file(name, cmd), "r", encoding="utf-8", newline="") as fh:
        assert out == fh.read()
    with open(os.path.join(GOLDEN, "status.json"), "r", encoding="utf-8") as fh:
        assert [code, err] == json.load(fh)[f"{name}.{cmd}"]


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    os.makedirs(GOLDEN, exist_ok=True)
    status = {}
    for name, cmd in CASES:
        code, out, err = capture(name, cmd)
        status[f"{name}.{cmd}"] = [code, err]
        with open(golden_file(name, cmd), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    with open(os.path.join(GOLDEN, "status.json"), "w", encoding="utf-8") as fh:
        json.dump(status, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
