"""Write the reference digests the benchmark checks every op against.

    python3 perfbench/make_refs.py [verify_fine chain cli_sweep]

Run from the root of a source checkout.  For each corpus map (verify_fine,
chain) and each cli_sweep draw it records the exit code and the sha256 of
the --no-timestamp JSON report, and for cli_sweep also of the PPM image.
Regenerate only for a change that is meant to alter outputs; an
optimisation must leave every digest as it is.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import REFS_DIR, WORKLOAD_CLASSES, WORKLOADS, sha256  # noqa: E402


def entry(workload, op) -> dict:
    result = workload.run_op(op)
    out = {"exit": result.code}
    out.update({k: sha256(v) for k, v in sorted(result.outputs.items())})
    return out


def make(name: str) -> None:
    workload = WORKLOAD_CLASSES[name](0, os.path.join(os.path.dirname(HERE), ".bench_out"))
    os.makedirs(workload.scratch_dir, exist_ok=True)
    workload.load()
    if name == "cli_sweep":
        pool = []
        for op, (builtin, params) in enumerate(workload.pool):
            pool.append({"builtin": builtin, "params": list(params), **entry(workload, op)})
        refs = {"warmup": entry(workload, -1), "pool": pool}
        body = "{\n" + f'"warmup": {json.dumps(refs["warmup"], sort_keys=True)},\n"pool": [\n'
        body += ",\n".join(json.dumps(e, sort_keys=True) for e in pool) + "\n]\n}\n"
    else:
        refs = {op: entry(workload, op) for op in workload.inputs}
        body = json.dumps(refs, indent=1, sort_keys=True) + "\n"
    with open(os.path.join(REFS_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
        fh.write(body)
    print(f"wrote {name}: {len(refs['pool']) + 1 if name == 'cli_sweep' else len(refs)} references")


if __name__ == "__main__":
    os.makedirs(REFS_DIR, exist_ok=True)
    for name in sys.argv[1:] or WORKLOADS:
        make(name)
