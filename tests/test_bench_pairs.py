"""scripts/bench_pairs.py refuses a pair table that holds a bad run, flags
each metric that moved the wrong way by more than its bound, and records
each side's src/ line count."""

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


def _fake_src(root, lines):
    # a src/ tree with lines lines of Python and a file that is not counted
    pkg = Path(root) / "src" / "qcext"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("".join(f"x{i} = {i}\n" for i in range(lines)))
    (pkg / "notes.txt").write_text("not counted\n")


def _fake_checkouts(bench, monkeypatch):
    def export(rev, dest):
        _fake_src(os.path.join(dest, "parent"), 3)
        return "0" * 40

    monkeypatch.setattr(bench, "export", export)
    monkeypatch.setattr(bench.shutil, "copytree", lambda src, dst, ignore: _fake_src(dst, 2))


@pytest.mark.parametrize("bad", [None, {"failed": 2}, {"correct": False}])
def test_pair_table_exits_one_on_a_bad_run(bad, tmp_path, monkeypatch, capsys):
    bench = _script()

    def run_once(root, workload, seed, seconds):
        run = {"seed": seed, "correct": True, "attempted": 5, "failed": 0}
        if bad and workload == "chain" and seed == 703 and root.endswith("change"):
            run.update(bad)
        run["metrics"] = {"latency_ms.p50": 1.0, "latency_ms.p90": 1.0,
                          "maps_per_s": 1.0, "peak_rss_mb": 1.0, "setup_s": 1.0}
        return run

    _fake_checkouts(bench, monkeypatch)
    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "pairs.json"
    code = bench.main(["--parent", "HEAD", "--out", str(out)])
    # the table is written either way
    table = json.loads(out.read_text())
    assert table["pairs"] == 10
    assert table["src_lines"] == {"parent": 3, "change": 2}
    captured = capsys.readouterr()
    assert "src lines: parent 3, change 2 (-1)\n" in captured.out
    err = captured.err
    if bad is None:
        assert code == 0 and err == ""
    else:
        assert code == 1
        assert "1 bad runs: chain seed 703 change" in err


def test_pair_table_flags_metrics_beyond_their_bound(tmp_path, monkeypatch, capsys):
    # cli_sweep's setup_s rises 27% against a bound of 25%; chain's p50 falls
    # 30%, past the parent's quartile spread, and chain's peak RSS rises 4%,
    # within its 5% bound
    bench = _script()
    change_values = {
        ("cli_sweep", "setup_s"): 0.127,
        ("chain", "latency_ms.p50"): 0.07,
        ("chain", "peak_rss_mb"): 0.104,
    }

    def run_once(root, workload, seed, seconds):
        spread = (seed - 705.5) * 1e-4  # the medians stay at 0.1 and its moves
        metrics = {}
        for name in ("latency_ms.p50", "latency_ms.p90", "maps_per_s", "peak_rss_mb", "setup_s"):
            value = 0.1
            if root.endswith("change"):
                value = change_values.get((workload, name), value)
            metrics[name] = value + spread
        return {"seed": seed, "correct": True, "attempted": 5, "failed": 0, "metrics": metrics}

    _fake_checkouts(bench, monkeypatch)
    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "pairs.json"
    assert bench.main(["--parent", "HEAD", "--out", str(out)]) == 0
    summary = {w: e["summary"] for w, e in json.loads(out.read_text())["workloads"].items()}
    setup = summary["cli_sweep"]["setup_s"]
    assert setup["relative_change"] == pytest.approx(0.27)
    assert setup["bound"] == 0.25
    assert setup["beyond_bound"] and setup["beyond_spread"]
    p50 = summary["chain"]["latency_ms.p50"]
    assert p50["relative_change"] == pytest.approx(-0.3)
    assert not p50["beyond_bound"] and p50["beyond_spread"]
    rss = summary["chain"]["peak_rss_mb"]
    assert rss["relative_change"] == pytest.approx(0.04)
    assert not rss["beyond_bound"] and rss["beyond_spread"]
    assert not summary["verify_fine"]["setup_s"]["beyond_spread"]
    flagged = [line for line in capsys.readouterr().out.splitlines() if line.startswith("beyond bound:")]
    assert len(flagged) == 1
    assert flagged[0].startswith("beyond bound: cli_sweep setup_s 0.1 -> 0.127 ")
    assert flagged[0].endswith(" (+27.0%, bound 0.25, lower is better)")
