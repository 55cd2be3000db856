"""The benchmark's randomized cli_sweep draws keep their reference bytes.

perfbench/refs/cli_sweep.json holds the exit code and the sha256 of the JSON
report and the PPM image of every seeded draw of the ten builtin families.
The frozen report digests in test_report.py cover only default parameters;
the draws are where a change to scalar evaluation or routing would show.
This runs a fixed sample of them, one in every SAMPLE_STRIDE of the pool
(five per family), through the workload's own op and check.  The workload
module is loaded from its file and given the qcext already imported here,
so nothing from perfbench is needed on the import path.

The Taylor jets at 0 read the rational normal form P/Q, while derive walks
the tree; on every builtin and a seeded sample of the draws the first two
jet coefficients must match the symbolic derivatives to a relative 1e-12.
"""

import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import qcext.cli
from qcext.corpus import builtin_ids, get_builtin
from qcext.mapexpr import PoleAtCenterError, derive, eval_map, parse_map, taylor_jet
from qcext.sphere import is_infinity

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SAMPLE_STRIDE = 60
JET_DRAWS = 50


def _workloads():
    spec = importlib.util.spec_from_file_location("qcext_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    workloads = _workloads()
    sweep = workloads.CliSweep(0, str(tmp_path_factory.mktemp("sweep")))
    sweep.q = SimpleNamespace(cli=qcext.cli)
    sweep._build()
    sweep.refs = workloads.load_refs(sweep.name)
    return sweep


@pytest.mark.parametrize("op", range(0, 3000, SAMPLE_STRIDE))
def test_cli_sweep_draw_keeps_its_reference_bytes(sweep, op):
    result = sweep.run_op(op)
    assert sweep.check(op, result), (sweep.draw(op), result.code, result.error)


def _draws():
    """Every builtin at its defaults, then JET_DRAWS seeded pool draws, each
    as (builtin, "name=value", ...)."""
    pool = _workloads().sweep_pool()
    sample = random.Random(15).sample(pool, JET_DRAWS)
    return [(b,) for b in builtin_ids()] + [(b, *params) for b, params in sample]


@pytest.mark.parametrize("draw", _draws(), ids=" ".join)
def test_jets_match_the_symbolic_derivatives(draw):
    # the jet reads the normal form P/Q, derive walks the tree
    builtin, *params = draw
    overrides = {name: complex(v) for name, _, v in (p.partition("=") for p in params)}
    f = parse_map(get_builtin(builtin).text(overrides))
    try:
        jet = taylor_jet(f, 2)
    except PoleAtCenterError:
        assert is_infinity(eval_map(f, 0j))
        return
    d1 = eval_map(derive(f), 0j)
    d2 = eval_map(derive(derive(f)), 0j)
    assert abs(jet[1] - d1) <= 1e-12 * abs(d1)
    assert abs(2 * jet[2] - d2) <= 1e-12 * abs(d2)
