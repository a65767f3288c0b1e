"""The package's source stays in modules of a size the parser handles in one
step, and every mutant's snippet stays in the file it names.

The CPython 3.11 parser doubles its token array each time a module reaches
another power of two tokens, comments and blank-line tokens not counted.
Compiling a module one token past 8192 costs about 0.45 MB more, and with
``PYTHONDONTWRITEBYTECODE=1`` that compile sets the benchmark's
``peak_rss_mb``.  A module that grows near the step is split along its
seams, not squeezed under it.  Counts differ between Python versions
(3.12 splits an f-string into several tokens).
"""

import glob
import os
import tokenize

import dualmod as dm

from mutants import MUTANTS, misplaced

PARSER_STEP = 8192


def significant_tokens(path):
    with open(path, encoding="utf-8") as fh:
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokenize.generate_tokens(fh.readline))


def test_every_module_below_the_parser_step():
    sizes = {os.path.basename(p): significant_tokens(p) for p in glob.glob(os.path.join(os.path.dirname(dm.__file__), "*.py"))}
    assert {name: size for name, size in sizes.items() if size >= PARSER_STEP} == {}


def test_every_mutant_snippet_found_once_in_its_file():
    assert misplaced(MUTANTS) == []
