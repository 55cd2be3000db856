"""scripts/bench_pairs.py refuses a pair table that holds a bad run."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _script():
    spec = importlib.util.spec_from_file_location("qcext_bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("bad", [None, {"failed": 2}, {"correct": False}])
def test_pair_table_exits_one_on_a_bad_run(bad, tmp_path, monkeypatch, capsys):
    bench = _script()

    def export(rev, dest):
        os.makedirs(os.path.join(dest, "parent"))
        return "0" * 40

    def run_once(root, workload, seed, seconds):
        run = {"seed": seed, "correct": True, "attempted": 5, "failed": 0}
        if bad and workload == "chain" and seed == 703 and root.endswith("change"):
            run.update(bad)
        run["metrics"] = {"latency_ms.p50": 1.0, "latency_ms.p90": 1.0,
                          "maps_per_s": 1.0, "peak_rss_mb": 1.0, "setup_s": 1.0}
        return run

    monkeypatch.setattr(bench, "export", export)
    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench.shutil, "copytree", lambda src, dst, ignore: os.makedirs(dst))
    out = tmp_path / "pairs.json"
    code = bench.main(["--parent", "HEAD", "--out", str(out)])
    # the table is written either way
    assert json.loads(out.read_text())["pairs"] == 10
    err = capsys.readouterr().err
    if bad is None:
        assert code == 0 and err == ""
    else:
        assert code == 1
        assert "1 bad runs: chain seed 703 change" in err
