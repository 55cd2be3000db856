"""Per-layer spans recorded from outside the program.

The tracer wraps qcext's layer functions at run time.  A wrapper is bound in
every qcext module namespace that holds the original (``eval_array``, for
one, is imported by mapexpr, classifiers, extensions, loewner, cli and the
package itself), and methods are wrapped on their class.  ``uninstall``
puts every original back, so untraced passes run the program unchanged.

Spans are (name, start, end, parent, op) tuples kept in a list and written
out when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous, so children never
overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _arg_size(args, kwargs, result) -> int:
    return int(np.size(_arg(args, kwargs, 1, "Z")))


def _broadcast_size(args, kwargs, result) -> int:
    return np.broadcast(_arg(args, kwargs, 1, "Z"), _arg(args, kwargs, 2, "T")).size


# (metric name, count of the work one call does) pairs
Counter = Tuple[Tuple[str, Callable], ...]

# span name -> (module, attribute path, counters)
SPANS: Dict[str, Tuple[str, str, Counter]] = {
    "cli.main": ("cli", "main", ()),
    "report.run_verify": ("report", "run_verify", ()),
    "report.run_chain": ("report", "run_chain", ()),
    "report.build_extension": ("report", "build_extension", ()),
    "report.to_json": ("report", "VerificationReport.to_json", ()),
    "mapexpr.parse_map": ("mapexpr", "parse_map", ()),
    "mapexpr.eval_array": ("mapexpr", "eval_array", (("mapexpr.eval_array.points", _arg_size),)),
    "mapexpr.taylor_jet": ("mapexpr", "taylor_jet", ()),
    "classifiers.check_class": (
        "classifiers",
        "check_class",
        (("classifiers.check_class.samples", lambda a, k, r: r.n_samples),),
    ),
    "extensions.evaluate_array": (
        "extensions",
        "ExtendedMap.evaluate_array",
        (("extensions.evaluate_array.points", _arg_size),),
    ),
    "extensions.seam_gap": ("extensions", "seam_gap", ()),
    "beltrami.certify_qc": (
        "beltrami",
        "certify_qc",
        (
            ("beltrami.points", lambda a, k, r: r.n_points),
            ("beltrami.degenerate", lambda a, k, r: r.degenerate_count),
        ),
    ),
    "beltrami.beltrami_field": ("beltrami", "beltrami_field", ()),
    "beltrami.infinity_chart_field": ("beltrami", "infinity_chart_field", ()),
    "loewner.build_chain": ("loewner", "build_chain", ()),
    "loewner.check_theorem_A": ("loewner", "check_theorem_A", ()),
    "loewner.check_dk": ("loewner", "check_dk", ()),
    "loewner.pde_residual_sup": ("loewner", "pde_residual_sup", ()),
    "loewner.subordination_ok": ("loewner", "subordination_ok", ()),
    "loewner.a1_fit_error": ("loewner", "a1_fit_error", ()),
    "loewner.chain_eval_array": (
        "loewner", "chain_eval_array", (("loewner.chain_eval_array.points", _broadcast_size),)
    ),
    "loewner.herglotz_array": (
        "loewner", "herglotz_array", (("loewner.herglotz_array.points", _broadcast_size),)
    ),
    "render.render_map": (
        "render", "render_map", (("render.pixels", lambda a, k, r: r.shape[0] * r.shape[1]),)
    ),
    "render.write_ppm": ("render", "write_ppm", ()),
}
COUNT_NAMES = tuple(key for _, _, counter in SPANS.values() for key, _ in counter)

Span = Tuple[str, float, float, int, int]


class Tracer:
    """Records spans and per-call counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []
        self.op_id = -1
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    # -- recording

    def _wrap(self, name: str, fn: Callable, counter: Counter) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, counts = self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id)
            calls[name] += 1
            for key, count in counter:
                counts[key] += count(args, kwargs, result)
            return result

        return wrapper

    def span(self, name: str, fn: Callable, *args):
        """Run fn(*args) inside a span of its own (the benchmark's op span)."""
        return self._wrap(name, fn, ())(*args)

    # -- installation

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "qcext" or n.startswith("qcext."))
        ]
        for name, (mod_name, attr, counter) in SPANS.items():
            owner = sys.modules[f"qcext.{mod_name}"]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(name, orig, counter))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, orig, wrapper)

    def _set(self, owner, key: str, orig, value) -> None:
        self._restore.append((owner, key, orig))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        child = defaultdict(float)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name: Dict[str, float] = defaultdict(float)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            by_name[name] += (t1 - t0) - child[idx]
        return by_name

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line: name op parent start end."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\top\tparent\tstart_us\tend_us\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{op}\t{parent}\t{(t0 - base) * 1e6:.1f}\t{(t1 - base) * 1e6:.1f}\n")
