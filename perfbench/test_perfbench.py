"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

They check the benchmark, not qcext: seeded op lists, the committed draw
pool, metric names, the failure accounting, the tracer, and the printed
result of every workload.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END = {"setup_s", "latency_ms.p50", "latency_ms.p90", "maps_per_s", "peak_rss_mb"}


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args, env=None, cwd=ROOT):
    if env is None:
        env = {k: v for k, v in os.environ.items() if k != "QCX_THREADS"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


# ---------------------------------------------------------------------------
# seeds


def test_same_seed_same_op_list():
    inputs = ("a", "b", "c", "d", "e")
    first = list(itertools.islice(workloads.corpus_passes(7, inputs), 5))
    again = list(itertools.islice(workloads.corpus_passes(7, inputs), 5))
    other = list(itertools.islice(workloads.corpus_passes(8, inputs), 5))
    assert first == again
    assert first != other
    assert all(sorted(p) == sorted(inputs) for p in first)


def test_same_seed_same_sweep_draws():
    first = list(itertools.islice(workloads.sweep_passes(3), 12))
    assert first == list(itertools.islice(workloads.sweep_passes(3), 12))
    assert first != list(itertools.islice(workloads.sweep_passes(4), 12))
    pool = workloads.sweep_pool()
    ops = [op for p in first for op in p]
    # every pass has one draw of each family, and no draw repeats in a run
    for p in first:
        assert sorted(pool[op][0] for op in p) == sorted(workloads.FAMILY_RANGES)
    assert len(set(ops)) == len(ops)


def test_pool_matches_committed_references():
    pool = workloads.sweep_pool()
    refs = workloads.load_refs("cli_sweep")["pool"]
    assert [(e["builtin"], tuple(e["params"])) for e in refs] == pool
    assert len({p for p in pool}) == len(pool)
    for builtin, params in pool:
        ranges = {name: (lo, hi) for name, lo, hi in workloads.FAMILY_RANGES[builtin]}
        for item in params:
            name, value = item.split("=")
            lo, hi = ranges[name]
            assert lo <= float(value) <= hi
    assert "koebe" not in workloads.FAMILY_RANGES and "kp" not in workloads.FAMILY_RANGES
    assert all(e["exit"] in (0, 1) for e in refs)


# ---------------------------------------------------------------------------
# metric names


def test_metric_names_and_units():
    s = spec()
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    for m in s["end_to_end"] + s["per_layer"]:
        assert NAME_RE.match(m["name"]), m["name"]
        assert UNIT_RE.match(m["unit"]), m["unit"]
    assert {m["name"] for m in s["end_to_end"]} == END_TO_END


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail_percentile(1000) == 90.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(50) == 80.0
    assert run.tail_percentile(13) == 50.0
    for n in range(20, 400):
        q = run.tail_percentile(n)
        assert n * (100.0 - q) / 100.0 >= 10.0 - 1e-9


# ---------------------------------------------------------------------------
# failures and tracing (in process, on the chain workload)


@pytest.fixture(scope="module")
def chain_workload(tmp_path_factory):
    w = workloads.Chain(5, str(tmp_path_factory.mktemp("out")))
    w.setup()
    return w


def test_one_perturbed_byte_is_one_failed_op(chain_workload, monkeypatch):
    w = chain_workload
    execute = w.execute
    calls = []

    def perturbed(op):
        calls.append(op)
        result = execute(op)
        if len(calls) == 3:
            body = bytearray(result.outputs["json_sha256"])
            body[10] ^= 1
            result.outputs["json_sha256"] = bytes(body)
        if len(calls) == 5:
            raise RuntimeError("op raised")
        return result

    monkeypatch.setattr(w, "execute", perturbed)
    result = run.measure(w, 0.0)
    assert result["attempted"] == len(w.inputs)
    assert result["failed"] == 2
    assert len(result["times"]) == len(w.inputs) - 2


def test_tracer_binds_every_namespace_and_restores(chain_workload):
    import qcext

    mods = {n: sys.modules[f"qcext.{n}"] for n in ("mapexpr", "classifiers", "extensions", "loewner", "cli")}
    orig = mods["mapexpr"].eval_array
    orig_method = mods["extensions"].ExtendedMap.__dict__["evaluate_array"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapper = mods["mapexpr"].eval_array
        assert wrapper is not orig
        for name, mod in mods.items():
            assert mod.eval_array is wrapper, name
        assert qcext.eval_array is wrapper
        assert mods["extensions"].ExtendedMap.__dict__["evaluate_array"] is not orig_method
    finally:
        tracer.uninstall()
    for mod in mods.values():
        assert mod.eval_array is orig
    assert qcext.eval_array is orig
    assert mods["extensions"].ExtendedMap.__dict__["evaluate_array"] is orig_method


def test_traced_counts_repeat_exactly(chain_workload):
    results = []
    for _ in range(2):
        tracer = tracing.Tracer()
        measured = run.measure(chain_workload, 0.0, tracer)
        assert measured["failed"] == 0
        results.append((measured["first_counts"], run.per_layer(measured, tracer)))
    (counts_a, layer_a), (counts_b, layer_b) = results
    assert counts_a == counts_b
    for name, value in layer_a.items():
        if name.endswith((".calls", ".points", ".samples")):
            assert layer_b[name] == value, name
    assert layer_a["loewner.chain_eval_array.calls"] > 0
    assert layer_a["beltrami.certify_qc.calls"] == 0
    # every span sits under its op and self times add up to the op time
    tracer = tracing.Tracer()
    run.measure(chain_workload, 0.0, tracer)
    total = sum(t1 - t0 for name, t0, t1, parent, _ in tracer.spans if name == "op")
    assert all(parent >= 0 for name, _, _, parent, _ in tracer.spans if name != "op")
    assert sum(tracer.self_times().values()) == pytest.approx(total, rel=1e-9)


# ---------------------------------------------------------------------------
# the command


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_prints_every_end_to_end_metric(workload):
    out = bench("--workload", workload, "--seed", "2", "--seconds", "0", "--trace", "0")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    shown = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert shown == set(declared) | {"fail_share"}
    record = json.loads(next(line for line in lines if line.startswith("run "))[4:])
    assert record["qcx_threads_unset"] is True and record["seed"] == 2
    assert isinstance(record["malloc_keeps_freed_memory"], bool)


def test_traced_run_prints_every_per_layer_metric():
    out = bench("--workload", "chain", "--seed", "2", "--seconds", "0", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_when_qcx_threads_is_set():
    out = bench("--workload", "chain", "--seconds", "0", env={**os.environ, "QCX_THREADS": "2"})
    assert out.returncode != 0
    assert out.stdout == ""


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "chain", "--seconds", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout == ""
