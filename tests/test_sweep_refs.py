"""The benchmark's randomized cli_sweep draws keep their reference bytes.

perfbench/refs/cli_sweep.json holds the exit code and the sha256 of the JSON
report and the PPM image of every seeded draw of the ten builtin families.
The frozen report digests in test_report.py cover only default parameters;
the draws are where a change to scalar evaluation or routing would show.
This runs a fixed sample of them, one in every SAMPLE_STRIDE of the pool
(five per family), through the workload's own op and check.  The workload
module is loaded from its file and given the qcext already imported here,
so nothing from perfbench is needed on the import path.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import qcext.cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SAMPLE_STRIDE = 60


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
