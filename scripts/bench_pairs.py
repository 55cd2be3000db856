#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written out as a pair table.

The parent revision is exported with ``git archive`` into a temporary
directory.  For each workload and pair, ``python3 perfbench/run.py
--workload W --seed S --trace 0`` runs once in the parent export and once in
a copy of the working tree, at the run length BENCHMARK.json sets, for ten
pairs per workload at seeds 701 to 710; the side that goes first swaps from
pair to pair.  The copy leaves out ``.git`` and every ``__pycache__``, so
neither side starts with compiled bytecode that the other lacks; that would
lower its ``setup_s`` and ``peak_rss_mb``.  The table holds every run's
end-to-end metrics, each side's median and quartiles per metric, and the
number of pairs the change won (ties count for neither side), and each
side's count of lines in the Python files under ``src/``.  Each metric's
summary also holds the relative change of the medians, whether the metric
moved the wrong way by more than its BENCHMARK.json ``bound``
(``beyond_bound``), and whether the gap between the medians exceeds the
parent's quartile spread (``beyond_spread``).  Once the table is written, the
script prints both sides' ``src/`` line counts, one summary line for each
workload and metric (both medians, the relative change, the pairs the change
won and ``beyond_spread``), and one more line for each metric beyond its
bound, then exits 1 and names each run (workload, seed, side) that had a
failed op or was not correct, since its numbers time the wrong work.

Run from the root of a source checkout:

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_7.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a gain counts when the change wins 9 of at least 10 alternating pairs
PAIRS = 10
SEEDS = range(701, 701 + PAIRS)


def export(rev: str, dest: str) -> str:
    """Commit id of rev, whose tree is unpacked into dest."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = os.path.join(dest, "parent.tar")
    subprocess.run(["git", "archive", "-o", archive, commit], cwd=ROOT, check=True)
    tree = os.path.join(dest, "parent")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return commit


def src_lines(root: str) -> int:
    """Lines of the Python files under root/src, as wc -l counts them."""
    total = 0
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON of one benchmark run in the checkout at root."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def side_stats(runs: list, name: str) -> dict:
    values = [r["metrics"][name] for r in runs]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def relative_change(before: float, after: float) -> float:
    """(after - before) / |before|; a move away from 0 is infinite."""
    if before == 0:
        return 0.0 if after == 0 else math.copysign(math.inf, after)
    return (after - before) / abs(before)


def summarize(parent: list, change: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        wins = 0
        for p, c in zip(parent, change):
            a, b = p["metrics"][name], c["metrics"][name]
            wins += (b < a) if lower else (b > a)
        before, after = side_stats(parent, name), side_stats(change, name)
        rel = relative_change(before["median"], after["median"])
        out[name] = {
            "better": m["better"],
            "parent": before,
            "change": after,
            "change_wins": wins,
            "pairs": len(parent),
            "relative_change": rel,
            "bound": m["bound"],
            "beyond_bound": (rel if lower else -rel) > m["bound"],
            "beyond_spread": abs(after["median"] - before["median"])
            > before["q3"] - before["q1"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="revision to compare against")
    ap.add_argument("--out", required=True, help="pair table to write, BENCH_<n>.json")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = float(bench["run_seconds"])
    table = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
        f"{seconds:g} --trace 0",
        "pairs": PAIRS,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        table["parent"] = export(args.parent, tmp)
        roots = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        shutil.copytree(ROOT, roots["change"], ignore=shutil.ignore_patterns(".git", "__pycache__"))
        table["src_lines"] = {side: src_lines(root) for side, root in roots.items()}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(SEEDS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(roots[side], workload, seed, seconds)
                    run["first"] = side == order[0]
                    runs[side].append(run)
                    print(workload, seed, side, json.dumps(run["metrics"]), flush=True)
            table["workloads"][workload] = {
                "runs": runs,
                "summary": summarize(runs["parent"], runs["change"], bench["end_to_end"]),
            }
    with open(args.out, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    lines = table["src_lines"]
    print(
        f"src lines: parent {lines['parent']}, change {lines['change']} "
        f"({lines['change'] - lines['parent']:+d})"
    )
    for workload, entry in table["workloads"].items():
        for name, m in entry["summary"].items():
            print(
                f"{workload} {name}: parent {m['parent']['median']:g} -> change "
                f"{m['change']['median']:g} ({m['relative_change']:+.1%}), change won "
                f"{m['change_wins']} of {m['pairs']} pairs, beyond_spread {m['beyond_spread']}"
            )
            if m["beyond_bound"]:
                print(
                    f"beyond bound: {workload} {name} {m['parent']['median']:g} -> "
                    f"{m['change']['median']:g} ({m['relative_change']:+.1%}, "
                    f"bound {m['bound']:g}, {m['better']} is better)"
                )
    bad = [
        f"{workload} seed {run['seed']} {side}"
        for workload, entry in table["workloads"].items()
        for side, runs in entry["runs"].items()
        for run in runs
        if run["failed"] > 0 or not run["correct"]
    ]
    if bad:
        print(f"{len(bad)} bad runs: " + "; ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
