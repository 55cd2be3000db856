"""Verification reports and the pipelines the command line drives.

run_verify and run_chain return a (report, exit_code) pair; the CLI only
parses flags, calls one of them, and writes files.  Exit codes: 0 verified,
1 a check ran and failed, 2 bad input (parse error, unknown flag value,
violated precondition), 3 internal singularity.
"""

from __future__ import annotations

import dataclasses
import datetime
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .beltrami import certify_qc
from .classifiers import ClassVerdict, check_class
from .corpus import class_params_for, get_builtin, theorem_class
from .extensions import ExtendedMap, build_extension
from .grids import GridSpec, field_blocks
from .loewner import T_MAX, ChainGrid, build_chain, check_theorem_A
from .mapexpr import parse_map
from .sphere import INFINITY
from .version import VERSION

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3


# ---------------------------------------------------------------------------
# JSON with fixed-width numbers


def _num(x: float) -> str:
    # nan, inf and -inf are quoted
    return format(float(x), ".17g") if math.isfinite(x) else f'"{float(x)}"'


def dump_json(obj) -> str:
    """Compact JSON with 17-significant-digit floats and sorted keys; a
    sphere point is "infinity" or [re, im]."""
    if obj is None:
        return "null"
    if obj is INFINITY:
        return '"infinity"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _num(obj)
    if isinstance(obj, complex):
        return f"[{_num(obj.real)},{_num(obj.imag)}]"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
        return f'"{out}"'
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{dump_json(str(k))}:{dump_json(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dump_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@dataclass(frozen=True)
class VerificationReport:
    map_text: str
    class_verdicts: Tuple[ClassVerdict, ...]
    extension: Optional[dict]
    beltrami: Optional[dict]
    loewner: Optional[dict]
    overall: bool
    grid: str
    wall_time_ms: float
    tool_version: str = VERSION
    schema: int = 1
    timestamp: Optional[str] = None
    notes: Tuple[str, ...] = ()
    # the built extension, for rendering; never serialized
    extended_map: Optional[ExtendedMap] = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        # the built extension is never serialized, so asdict skips its tree
        out = dataclasses.asdict(dataclasses.replace(self, extended_map=None))
        del out["extended_map"]
        out["map"] = out.pop("map_text")
        if self.timestamp is None:
            del out["timestamp"]
        return out

    def to_json(self) -> str:
        return dump_json(self.to_dict())

    def to_text(self) -> str:
        lines = [f"map: {self.map_text}", f"grid: {self.grid}"]
        for v in self.class_verdicts:
            word = "holds" if v.holds else "FAILS"
            lines.append(
                f"class {v.class_name}: {word} "
                f"(worst {v.worst_value:.6g} vs bound {v.bound:.6g}, "
                f"margin {v.margin:.3g})"
            )
        if self.extension is not None:
            lines.append(
                f"extension: {self.extension['outer']['id']} "
                f"claimed_k={self.extension['claimed_k']:.6g}"
            )
        if self.beltrami is not None:
            b = self.beltrami
            lines.append(
                f"beltrami: sup_mu={b['sup_mu']:.6g} "
                f"jac_min={b['jacobian_min']:.6g} "
                f"seam={b['seam_sup_chordal']:.3g} "
                f"{'ok' if b['passed'] else 'VIOLATED'}"
            )
        if self.loewner is not None:
            lo = self.loewner
            lines.append(
                f"chain {lo['kind']}: residual={lo['pde_residual_sup']:.3g} "
                f"dk_sup={lo['dk_radius_sup']:.6g} "
                f"min_re_p={lo['herglotz_min_re']:.6g} "
                f"{'ok' if lo['passed'] else 'VIOLATED'}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("overall: " + ("pass" if self.overall else "FAIL"))
        return "\n".join(lines) + "\n"


def _timestamp(no_timestamp: bool) -> Optional[str]:
    if no_timestamp:
        return None
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _wall(t0: float, no_timestamp: bool) -> float:
    # timing is part of timestamp suppression: byte-identical reruns need it out
    if no_timestamp:
        return 0.0
    return (time.perf_counter() - t0) * 1e3


# ---------------------------------------------------------------------------
# pipelines


def _resolve_source(
    map_text: Optional[str],
    builtin: Optional[str],
    params: Optional[Dict[str, complex]],
):
    """The map alone: (builtin or None, merged params, expression text)."""
    if (map_text is None) == (builtin is None):
        raise ValueError("give exactly one of a map expression or a builtin id")
    if builtin is not None:
        ex = get_builtin(builtin)
        return ex, ex.params(params), ex.text(params)
    merged = {name: complex(val) for name, val in (params or {}).items()}
    return None, merged, map_text


def _resolve_map(
    map_text: Optional[str],
    builtin: Optional[str],
    theorem: Optional[str],
    params: Optional[Dict[str, complex]],
):
    """Common front half: substitute, parse, pick theorem and class.

    A builtin keeps its own class check and expected k under its own theorem
    only; under another theorem it runs as its map text does, and the
    builtin is returned as None."""
    ex, merged, text = _resolve_source(map_text, builtin, params)
    if ex is not None and theorem in (None, ex.theorem):
        theorem, cls_params = ex.theorem, ex.class_params(params)
    else:
        ex, theorem = None, theorem or "t1"
        cls_params = class_params_for(theorem, merged)
    return ex, merged, text, theorem, theorem_class(theorem, merged), cls_params


def run_verify(
    map_text: Optional[str] = None,
    builtin: Optional[str] = None,
    theorem: Optional[str] = None,
    params: Optional[Dict[str, complex]] = None,
    grid: Optional[str] = None,
    no_timestamp: bool = False,
) -> Tuple[VerificationReport, int]:
    t0 = time.perf_counter()
    ex, merged, text, theorem, class_name, cls_params = _resolve_map(
        map_text, builtin, theorem, params
    )
    f = parse_map(text)
    gs = GridSpec.parse(grid) if grid else GridSpec()
    # the dilatation field samples the grid on both sides of the seam
    gs.require_cap(2)

    notes: List[str] = []
    verdicts: List[ClassVerdict] = []
    if class_name is not None:
        verdicts.append(check_class(f, class_name, cls_params, gs))

    em = build_extension(theorem, f, merged)
    claimed = ex.expected_k(params) if ex is not None else None
    verdict = certify_qc(em, field_blocks(gs), claimed_k=claimed)
    if ex is not None and ex.negative:
        notes.append("negative control: failure is the documented outcome")

    overall = verdict.passed and all(v.holds for v in verdicts)
    report = VerificationReport(
        map_text=text,
        class_verdicts=tuple(verdicts),
        extension=em.summary(),
        beltrami=dataclasses.asdict(verdict),
        loewner=None,
        overall=overall,
        grid=f"{gs.n_r}x{gs.n_theta}",
        wall_time_ms=_wall(t0, no_timestamp),
        timestamp=_timestamp(no_timestamp),
        notes=tuple(notes),
        extended_map=em,
    )
    return report, (EXIT_PASS if overall else EXIT_FAIL)


def run_chain(
    map_text: Optional[str] = None,
    builtin: Optional[str] = None,
    chain: Optional[str] = None,
    params: Optional[Dict[str, complex]] = None,
    tmax: Optional[float] = None,
    grid: Optional[str] = None,
    no_timestamp: bool = False,
) -> Tuple[VerificationReport, int]:
    t0 = time.perf_counter()
    ex, _, echo = _resolve_source(map_text, builtin, params)
    text = echo
    if ex is not None:
        chain = chain or ex.chain
        if chain is None:
            raise ValueError(f"builtin {builtin!r} declares no chain kind")
        text = ex.chain_text(params)
    if chain is None:
        raise ValueError("a chain kind is required")
    base = parse_map(text)
    gs = GridSpec.parse(grid) if grid else ChainGrid.z

    cg = ChainGrid(z=gs, t_max=T_MAX if tmax is None else float(tmax))
    spec = build_chain(chain, base)
    chk = check_theorem_A(spec, cg)
    lo = dataclasses.asdict(chk)
    lo["kind"] = spec.kind
    lo["base_map"] = text
    window = spec.a1_zero_window(cg.t_max)
    if window is not None:
        lo["a1_zero_window"] = list(window)

    overall = chk.passed
    report = VerificationReport(
        map_text=echo,
        class_verdicts=(),
        extension=None,
        beltrami=None,
        loewner=lo,
        overall=overall,
        grid=f"{gs.n_r}x{gs.n_theta}",
        wall_time_ms=_wall(t0, no_timestamp),
        timestamp=_timestamp(no_timestamp),
    )
    return report, (EXIT_PASS if overall else EXIT_FAIL)
