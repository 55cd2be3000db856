#!/usr/bin/env python3
"""Print the corpus ledger: every number the reports give on the corpus.

Each report is flattened to one line per numeric field (bools, ints, floats
and complex numbers, with "infinity" for the point at infinity), as

    <input> <field path> <exit code> <repr of the value>

and the lines of all inputs are printed sorted.  The inputs are the 13
builtins under verify at 96x96 and at 400x400 (where each side of the
field exceeds grids.BLOCK_POINTS), the 7 builtin chains at the default grid
and horizon, and the chains at 16x16 and 32x32 up to tmax 0.2 and 2.
Reports run with no timestamp, so the wall times read 0.

tests/ledger.txt holds this output, and tier-1 reprints it byte for byte.
A change that moves a reported number changes the ledger, and the git diff
of tests/ledger.txt names each field with its old and new value.

Run from the repository root:

    PYTHONPATH=src python3 scripts/ledger.py > tests/ledger.txt
"""

import sys
import warnings

from qcext.corpus import builtin_ids, get_builtin
from qcext.report import run_chain, run_verify
from qcext.sphere import INFINITY

VERIFY_GRIDS = ("96x96", "400x400")
CHAIN_GRIDS = ("16x16", "32x32")
CHAIN_HORIZONS = (0.2, 2.0)


def chain_cases():
    """(builtin, grid, tmax) of the chain runs off the default grid and
    horizon."""
    chains = [b for b in builtin_ids() if get_builtin(b).chain]
    return [(b, g, t) for b in chains for g in CHAIN_GRIDS for t in CHAIN_HORIZONS]


def _fields(value, path):
    """(path, repr) of each numeric leaf under value."""
    if value is INFINITY:
        yield path, "infinity"
    elif isinstance(value, (bool, int, float, complex)):
        yield path, repr(value)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _fields(item, f"{path}.{key}" if path else key)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _fields(item, f"{path}[{i}]")


def _lines(name, report, code):
    return [f"{name} {path} {code} {text}" for path, text in _fields(report.to_dict(), "")]


def ledger():
    lines = []
    for grid in VERIFY_GRIDS:
        for b in builtin_ids():
            report, code = run_verify(builtin=b, grid=grid, no_timestamp=True)
            lines += _lines(f"verify/{b}/{grid}", report, code)
    for b in builtin_ids():
        if get_builtin(b).chain:
            report, code = run_chain(builtin=b, no_timestamp=True)
            lines += _lines(f"chain/{b}/default", report, code)
    for b, grid, tmax in chain_cases():
        report, code = run_chain(builtin=b, grid=grid, tmax=tmax, no_timestamp=True)
        lines += _lines(f"chain/{b}/{grid}/t{tmax:g}", report, code)
    return sorted(lines)


def main() -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lines = ledger()
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
