"""The benchmark's workloads: seeded op lists, the ops, and their checks.

Every workload is a closed loop over passes.  A pass runs each of its inputs
once, in an order drawn from the seed, so every run measures whole passes and
the mix of inputs does not depend on how long the run lasts.

Nothing here imports qcext at module level: the package is imported inside
the timed set-up (see ``setup``), so its import cost counts in ``setup_s``.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import random
import sys
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")

VERIFY_GRID = "400x400"
CHAIN_GRID = "32x32"
CHAIN_TMAX = 5.0
SWEEP_GRID = "96x96"

# Parameter ranges of the cli_sweep families: each family's class hypothesis
# (ClassParams: lam in (0, 1], k in (0, 1), p in (0, 1), theta in [0, 2 pi))
# with a margin, and for the families without a class parameter a range
# around the corpus default where the class sweep mostly holds.  Draws that
# still fail their class exit 1, which is a correct outcome.
FAMILY_RANGES: Dict[str, Tuple[Tuple[str, float, float], ...]] = {
    "brown_quad": (("c", 0.05, 0.2), ("lam", 0.95, 1.05)),
    "example1": (("lambda", 0.05, 0.95), ("theta", 0.0, 6.28)),
    "example2": (("lambda", 0.05, 0.95),),
    "example3": (("p", 0.1, 0.9), ("lambda", 0.05, 0.95)),
    "exterior_pole": (("c", 0.1, 0.38),),
    "exterior_u": (("b", 0.02, 0.18),),
    "krzyz": (("k", 0.05, 0.95),),
    "mobius": (("a2", 0.05, 0.95), ("M", 1.2, 5.0)),
    "neg_deriv": (("c", 0.05, 0.45),),
    "p_mobius": (("p", 0.1, 0.9), ("M", 1.2, 5.0)),
}
# The cli_sweep pool: DRAWS_PER_FAMILY committed draws per family, made from
# POOL_SEED.  A run takes pass k's draw of each family from a seeded
# permutation, so no map repeats within a run of fewer than DRAWS_PER_FAMILY
# passes and the map-keyed caches stay cold, as in separate CLI invocations.
POOL_SEED = 1809_07135
DRAWS_PER_FAMILY = 300


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep_pool() -> List[Tuple[str, Tuple[str, ...]]]:
    """All cli_sweep draws as (builtin, ("name=value", ...)), family-major."""
    rng = random.Random(POOL_SEED)
    pool = []
    for family in sorted(FAMILY_RANGES):
        for _ in range(DRAWS_PER_FAMILY):
            params = tuple(
                f"{name}={rng.uniform(lo, hi):.6f}"
                for name, lo, hi in FAMILY_RANGES[family]
            )
            pool.append((family, params))
    return pool


def sweep_warmup_draw() -> Tuple[str, Tuple[str, ...]]:
    """The set-up draw: outside the pool, so no measured op finds it cached."""
    return ("example2", ("lambda=0.333333",))


def load_refs(workload: str) -> dict:
    with open(os.path.join(REFS_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# seeded op lists


def corpus_passes(seed: int, inputs: Tuple[str, ...]) -> Iterator[List[str]]:
    """Endless passes, each a seeded permutation of ``inputs``."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(inputs, len(inputs))


def sweep_passes(seed: int) -> Iterator[List[int]]:
    """Endless cli_sweep passes, as pool indices.

    Each pass holds one draw of every family, in a seeded order; family f's
    draw in pass k is entry k of a seeded permutation of its draws.
    """
    rng = random.Random(seed)
    n_families = len(FAMILY_RANGES)
    perms = [rng.sample(range(DRAWS_PER_FAMILY), DRAWS_PER_FAMILY) for _ in range(n_families)]
    for k in itertools.count():
        yield [
            f * DRAWS_PER_FAMILY + perms[f][k % DRAWS_PER_FAMILY]
            for f in rng.sample(range(n_families), n_families)
        ]


# ---------------------------------------------------------------------------
# workloads


def import_qcext() -> SimpleNamespace:
    """Import qcext afresh, dropping any copy an earlier set-up imported."""
    for name in [n for n in sys.modules if n == "qcext" or n.startswith("qcext.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {
        name: importlib.import_module(f"qcext.{name}")
        for name in ("cli", "report", "mapexpr", "corpus")
    }
    return SimpleNamespace(**mods)


@dataclass
class OpResult:
    code: Optional[int]
    outputs: Dict[str, bytes] = field(default_factory=dict)
    error: Optional[str] = None


class Workload:
    """One workload: its inputs, one op, and the check of an op's outputs."""

    name = ""

    def __init__(self, seed: int, scratch_dir: str):
        self.seed = seed
        self.scratch_dir = scratch_dir
        self.q: Optional[SimpleNamespace] = None
        self.refs: dict = {}

    def passes(self) -> Iterator[list]:
        raise NotImplementedError

    def warmup_ops(self) -> list:
        raise NotImplementedError

    def group(self, op) -> str:
        """The input an op repeats: its corpus map, or its cli_sweep family."""
        return op

    def prepare(self, op) -> None:
        """Untimed work before an op."""

    def execute(self, op) -> OpResult:
        """The timed op."""
        raise NotImplementedError

    def collect(self, op, result: OpResult) -> None:
        """Untimed work after an op: gather the outputs to check."""

    def expected(self, op) -> dict:
        raise NotImplementedError

    def run_op(self, op) -> OpResult:
        self.prepare(op)
        result = self.execute(op)
        self.collect(op, result)
        return result

    def setup(self) -> None:
        """Import qcext, build the inputs, and run the warm-up ops.

        The whole of this is what ``setup_s`` times.
        """
        self.load()
        self.refs = load_refs(self.name)
        for op in self.warmup_ops():
            self.run_op(op)

    def load(self) -> None:
        """Import qcext and build the workload's inputs."""
        warnings.simplefilter("ignore")
        self.q = import_qcext()
        self._build()

    def _build(self) -> None:
        pass

    def check(self, op, result: OpResult) -> bool:
        """True when the op's exit code and output digests match the reference."""
        if result.error is not None:
            return False
        ref = self.expected(op)
        want = {k: v for k, v in ref.items() if k.endswith("_sha256")}
        got = {k: sha256(v) for k, v in result.outputs.items()}
        return result.code == ref["exit"] and got == want


class CorpusWorkload(Workload):
    """A workload over corpus builtins: every pass runs each one once."""

    def passes(self) -> Iterator[list]:
        return corpus_passes(self.seed, self.inputs)

    def warmup_ops(self) -> list:
        return list(self.inputs)

    def expected(self, op) -> dict:
        return self.refs[op]


class VerifyFine(CorpusWorkload):
    name = "verify_fine"

    def _build(self) -> None:
        self.inputs = tuple(self.q.corpus.builtin_ids())

    def execute(self, op) -> OpResult:
        report, code = self.q.report.run_verify(
            builtin=op, grid=VERIFY_GRID, no_timestamp=True
        )
        return OpResult(code, {"json_sha256": report.to_json().encode()})


class Chain(CorpusWorkload):
    name = "chain"

    def _build(self) -> None:
        corpus = self.q.corpus
        self.inputs = tuple(b for b in corpus.builtin_ids() if corpus.get_builtin(b).chain)

    def execute(self, op) -> OpResult:
        report, code = self.q.report.run_chain(
            builtin=op, grid=CHAIN_GRID, tmax=CHAIN_TMAX, no_timestamp=True
        )
        return OpResult(code, {"json_sha256": report.to_json().encode()})


class CliSweep(Workload):
    name = "cli_sweep"

    def _build(self) -> None:
        self.pool = sweep_pool()
        self.json_path = os.path.join(self.scratch_dir, "sweep.json")
        self.ppm_path = os.path.join(self.scratch_dir, "sweep.ppm")

    def passes(self) -> Iterator[list]:
        return sweep_passes(self.seed)

    def warmup_ops(self) -> list:
        return [-1]

    def group(self, op) -> str:
        return self.draw(op)[0]

    def draw(self, op: int) -> Tuple[str, Tuple[str, ...]]:
        return sweep_warmup_draw() if op < 0 else self.pool[op]

    def expected(self, op) -> dict:
        return self.refs["warmup"] if op < 0 else self.refs["pool"][op]

    def argv(self, op: int) -> List[str]:
        builtin, params = self.draw(op)
        argv = ["verify", "--builtin", builtin]
        for p in params:
            argv += ["--param", p]
        return argv + [
            "--grid", SWEEP_GRID,
            "--image", self.ppm_path,
            "--out", self.json_path,
            "--no-timestamp",
        ]

    def prepare(self, op) -> None:
        for path in (self.json_path, self.ppm_path):
            if os.path.exists(path):
                os.remove(path)

    def execute(self, op) -> OpResult:
        return OpResult(self.q.cli.main(self.argv(op)))

    def collect(self, op, result: OpResult) -> None:
        for key, path in (("json_sha256", self.json_path), ("ppm_sha256", self.ppm_path)):
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    result.outputs[key] = fh.read()

    def check(self, op, result: OpResult) -> bool:
        # an in-range draw that exits 2 (bad input) or 3 (singularity) is a
        # failure even if a reference recorded it
        return result.code not in (2, 3) and super().check(op, result)


WORKLOAD_CLASSES: Dict[str, Callable[..., Workload]] = {
    "verify_fine": VerifyFine,
    "chain": Chain,
    "cli_sweep": CliSweep,
}
WORKLOADS = tuple(WORKLOAD_CLASSES)
