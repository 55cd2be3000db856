"""Values on the Riemann sphere: a distinguished point at infinity and the
chordal metric.

Finite values are ordinary ``complex`` numbers; the point at infinity is the
singleton ``INFINITY``.  It deliberately carries no real/imaginary parts, so
code that needs coordinates must go through a chart first.  Division onto
the sphere, with its pole and 0/0 rules, is mapexpr.eval_map's.
"""

from __future__ import annotations

from typing import Union

import numpy as np


class _Infinity:
    """The point at infinity (singleton, compares only to itself)."""

    _instance = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()

ExtComplex = Union[complex, _Infinity]


def is_infinity(v: object) -> bool:
    return v is INFINITY


def chordal_array(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Elementwise chordal distance under IEEE conventions.

    Nonfinite entries are read as the point at infinity (grid evaluation only
    produces them by blowing up), so two simultaneous overflows are distance
    0.  Huge-but-finite entries are routed through 1/z to dodge inf/inf.
    """
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fa, fb = np.isfinite(A), np.isfinite(B)
        absA, absB = np.abs(A), np.abs(B)
        # hypot keeps sqrt(1+|.|^2) finite for every finite input
        sA, sB = np.hypot(1.0, absA), np.hypot(1.0, absB)
        d = 2.0 * np.abs(A - B) / sA / sB
        IA = 1.0 / np.where(A == 0, np.inf, A)
        IB = 1.0 / np.where(B == 0, np.inf, B)
        inv = (
            2.0
            * np.abs(IA - IB)
            / np.hypot(1.0, np.abs(IA))
            / np.hypot(1.0, np.abs(IB))
        )
        # A-B itself can only overflow when both sides are huge
        d = np.where((absA > 1e150) & (absB > 1e150), inv, d)
        d = np.where(fa & ~fb, 2.0 / sA, d)
        d = np.where(~fa & fb, 2.0 / sB, d)
        d = np.where(~fa & ~fb, 0.0, d)
    return d
