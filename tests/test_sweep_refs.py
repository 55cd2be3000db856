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
On the same draws, every extension that any theorem's builder accepts keeps
its finite special points on the closed disc, up to TAU_POLE_MARGIN, so none
comes near the infinity chart, whose points lie at |w| <= 0.1.
"""

import importlib.util
import random
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import qcext.cli
from qcext.corpus import THEOREMS, builtin_ids, get_builtin
from qcext.errors import PreconditionError
from qcext.extensions import build_extension
from qcext.mapexpr import (
    TAU_POLE_MARGIN,
    MapExprError,
    PoleAtCenterError,
    derive,
    eval_map,
    parse_map,
    taylor_jet,
)
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


@pytest.mark.parametrize("theorem", THEOREMS)
def test_special_points_stay_on_the_closed_disc(theorem):
    # so the infinity chart's points, at |w| <= 1/CHART_RADIUS, stay far
    # from every 1/src, which lies at |w| >= 1/(1 + TAU_POLE_MARGIN)
    built = 0
    for builtin, *params in _draws():
        overrides = {name: complex(v) for name, _, v in (p.partition("=") for p in params)}
        ex = get_builtin(builtin)
        f = parse_map(ex.text(overrides))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # exterior_pole's lead -1
                em = build_extension(theorem, f, ex.params(overrides))
        except (PreconditionError, ValueError, ArithmeticError, MapExprError):
            continue
        built += 1
        for src, _ in em.special_points:
            if not is_infinity(src):
                assert abs(complex(src)) <= 1.0 + TAU_POLE_MARGIN, (builtin, params, src)
    assert built > 0
