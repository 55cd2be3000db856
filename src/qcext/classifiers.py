"""Class-membership functionals for disc and exterior maps.

The central object is U_f(z) = (z/f(z))^2 f'(z) - 1.  Membership criteria
bound either |U| itself, |U|/|z|^2, or a first-derivative distance, over the
disc or the exterior of the closed disc.  criterion_field evaluates each
criterion's functional; check_class sweeps it over a polar grid, adds a
chart sample at infinity for exterior criteria, and returns the worst
sampled value with the point that produced it.  The sweep evaluates the
grid in the blocks of grids.disc_blocks or exterior_blocks, masks its hole
and reduces each block as it goes, so it holds a block at any grid size and
gives the bits of one call on the whole grid.  seam_bound is the same
functional's sup over the seam |z| = 1, the bound each theorem's extension
and Loewner chain claim; exterior_lead checks the normalization at infinity
that the exterior theorems assume.

Grid verdicts are evidence, not proofs: the sup is over samples and the open
boundary is approached by the grid, never touched.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .grids import (
    R_DISC,
    GridSpec,
    disc_blocks,
    exterior_blocks,
    seam_circle,
    seam_sup,
)
from .mapexpr import (
    TAU_JET,
    TAU_NORMALIZED,
    TAU_SERIES_CONST,
    Const,
    Div,
    Mul,
    Node,
    Pow,
    Sub,
    Var,
    const_text,
    derive,
    eval_array,
    eval_map,
    laurent_at_infinity,
    parse_map,
    poles_in_disc,
    print_expr,
    series_inv,
    taylor_jet,
)
from .sphere import INFINITY, ExtComplex, is_infinity

# check_class, and loewner.check_theorem_A's D(k) sup: a sampled worst
# value may exceed its bound by this much
TAU_CLASS = 1e-9
# radius of the disc around a pole that the V_p_lambda sweep and the
# Beltrami field's exclusion zones leave out
POLE_EXCLUSION = 0.02

CLASS_NAMES = (
    "U_lambda",
    "V_p_lambda",
    "M_Ug",
    "M_corollary1",
    "M_krzyz_decay",
    "brown",
    "krzyz_w",
    "thm5",
)


@dataclass(frozen=True)
class ClassParams:
    """Parameters of the membership criteria.

    lam bounds |U|/|z|^2 on the disc, k bounds the exterior and derivative
    criteria, p locates the interior pole for the meromorphic class,
    brown_lambda scales the derivative criterion |lam*f' - 1| <= k.
    """

    lam: float = 1.0
    k: float = 0.5
    p: float = 0.5
    brown_lambda: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        if not (0.0 < self.lam <= 1.0):
            raise ValueError("lam must lie in (0, 1]")
        if not (0.0 < self.k < 1.0):
            raise ValueError("k must lie in (0, 1)")
        if not (0.0 < self.p < 1.0):
            raise ValueError("p must lie strictly inside the disc")
        if self.brown_lambda == 0:
            raise ValueError("brown_lambda must be nonzero")


@dataclass(frozen=True)
class ClassVerdict:
    class_name: str
    holds: bool
    worst_point: ExtComplex
    worst_value: float
    margin: float
    bound: float
    n_samples: int


# ---------------------------------------------------------------------------
# the U operator


@functools.lru_cache(maxsize=256)
def u_expr(f: Node) -> Node:
    """U_f as an expression tree: (z/f)^2 * f' - 1."""
    return Sub(Mul(Pow(Div(Var(), f), 2), derive(f)), Const(1 + 0j))


def u_field(f: Node, Z: np.ndarray) -> np.ndarray:
    """Vectorized (z/f)^2 f' - 1 on a finite grid (IEEE semantics)."""
    return eval_array(u_expr(f), Z)


def usable_jet(f: Node, consequence: str) -> tuple[complex, ...]:
    """The jet (c0, ..., c3) of f at 0, refused when rounding at TAU_SERIES_CONST
    times the largest of c1, c2, c3 swamps a nonzero f'(0)."""
    jf = taylor_jet(f, 3)
    scale = max(abs(c) for c in jf[1:])
    if 0 < abs(jf[1]) <= TAU_SERIES_CONST * scale:
        raise PreconditionError(
            f"Taylor coefficients up to {scale:.3g} swamp f'(0)={const_text(jf[1])}, "
            f"so {consequence}"
        )
    return jf


def phi_from_map(f: Node) -> Node:
    """phi(z) = z/f(z) + a2*z - 1 for normalized f.

    Satisfies phi(0) = phi'(0) = 0 and U_f = phi - z*phi'.
    """
    jet = taylor_jet(f, 2)
    if abs(jet[0]) > TAU_NORMALIZED or abs(jet[1] - 1.0) > TAU_NORMALIZED:
        raise PreconditionError(
            "phi_from_map needs f(0)=0 and f'(0)=1, got "
            f"c0={jet[0]}, c1={jet[1]}"
        )
    a2 = jet[2]
    phi = parse_map(f"z/{print_expr(f)}+{const_text(a2)}*z-1")
    # phi's normal form does not cancel the z/f quotient, so its jet at 0
    # meets a zero denominator; verify the second-order vanishing through the
    # shifted series instead, refused before series_inv if f'(0) is swamped
    jf = usable_jet(f, "z/f has no usable series at 0")
    zf = series_inv(np.array(jf[1:], dtype=complex))
    phi0 = zf[0] - 1.0
    phi1 = zf[1] + a2
    if abs(phi0) > TAU_JET or abs(phi1) > TAU_JET:
        raise PreconditionError("phi does not vanish to second order at 0")
    return phi


# ---------------------------------------------------------------------------
# chart values at infinity for the exterior criteria


def _chart_value(g: Node, which: str) -> float:
    """The criterion functional evaluated at the point at infinity."""
    if which == "M_Ug":
        # as below, no chart value off a simple pole (U_g's form can overflow)
        if laurent_at_infinity(g, 0)[0] != 1:
            return math.inf
        v = eval_map(u_expr(g), INFINITY)
        return math.inf if is_infinity(v) else abs(v)
    if which == "M_corollary1":
        k, c = laurent_at_infinity(g, 4)
        if k != 1:
            return math.inf
        return abs(1.0 / c[0] + 1.0)
    if which == "M_krzyz_decay":
        # (g' - 1) * z^2 tends to -c2 when g = z + c1 + c2/z + ...
        k, c = laurent_at_infinity(g, 4)
        if k != 1 or abs(c[0] - 1.0) > TAU_NORMALIZED:
            return math.inf
        return abs(c[2])
    raise ValueError(f"no chart sample for criterion {which}")


# ---------------------------------------------------------------------------
# criterion sweep


def criterion_field(
    m: Node,
    which: str,
    Z: np.ndarray,
    params: ClassParams | None = None,
) -> np.ndarray:
    """Modulus of the named criterion functional at finite points (IEEE
    semantics: poles and zeros of the map give inf or nan).

    U_lambda and V_p_lambda give |U_f|/|z|^2, M_Ug |U_g|, M_corollary1
    |(z/g)^2 g' + 1|, M_krzyz_decay |g' - 1| |z|^2, brown |lambda f' - 1|,
    krzyz_w |w'| and thm5 |f' + 1|.
    """
    params = params or ClassParams()
    if which not in CLASS_NAMES:
        raise ValueError(f"unknown criterion {which!r}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if which in ("U_lambda", "V_p_lambda"):
            return np.abs(u_field(m, Z)) / np.abs(Z) ** 2
        if which == "M_Ug":
            return np.abs(u_field(m, Z))
        Fp = eval_array(derive(m), Z)
        if which == "M_corollary1":
            return np.abs((Z / eval_array(m, Z)) ** 2 * Fp + 1.0)
        if which == "M_krzyz_decay":
            return np.abs(Fp - 1.0) * np.abs(Z) ** 2
        if which == "brown":
            return np.abs(params.brown_lambda * Fp - 1.0)
        if which == "krzyz_w":
            return np.abs(Fp)
        return np.abs(Fp + 1.0)


def seam_bound(m: Node, which: str, params: ClassParams | None = None) -> float:
    """The criterion functional's sup over the seam circle: the dilatation
    bound the theorem's extension and its Loewner chain claim."""
    return seam_sup(criterion_field(m, which, seam_circle(), params))


def exterior_lead(g: Node, unimodular: bool = False) -> complex:
    """Leading coefficient c0 of an exterior map g(z) = c0 z + O(1).

    g must have a simple pole at infinity with c0 = 1; with unimodular
    (Corollary 1) any |c0| = 1 is accepted, with a warning when c0 != 1.
    """
    k, c = laurent_at_infinity(g, 2)
    if k != 1:
        raise PreconditionError("exterior map needs a simple pole at infinity")
    c0 = complex(c[0])
    if unimodular:
        if abs(abs(c0) - 1.0) > TAU_JET:
            raise PreconditionError(f"leading coefficient must be unimodular, got {c0}")
        if abs(c0 - 1.0) > TAU_JET:
            warnings.warn(
                f"exterior map with leading coefficient {c0}; the construction "
                "and its chain tolerate any unimodular one",
                stacklevel=3,
            )
    elif abs(c0 - 1.0) > TAU_JET:
        raise PreconditionError(f"leading coefficient must be 1, got {c0}")
    return c0


def check_class(
    m: Node,
    which: str,
    params: ClassParams | None = None,
    grid: GridSpec | None = None,
) -> ClassVerdict:
    """Sweep the named criterion over its natural domain.

    Disc criteria reject maps with an unexcluded pole inside the sampled
    disc; the meromorphic-class criterion excludes a fixed neighborhood of
    the declared pole instead.  The worst value is the first occurrence of
    the largest in grid order; NaN samples count as inf, and excluded ones
    are not counted in n_samples.
    """
    params = params or ClassParams()
    grid = grid or GridSpec()
    if which not in CLASS_NAMES:
        raise ValueError(f"unknown criterion {which!r}")

    exterior = which in ("M_Ug", "M_corollary1", "M_krzyz_decay")
    bound = params.lam if which in ("U_lambda", "V_p_lambda") else params.k
    if not exterior and which != "V_p_lambda":
        poles = poles_in_disc(m, R_DISC)
        if poles:
            hint = (
                "; use the V_p_lambda criterion with its exclusion zone"
                if which == "U_lambda"
                else f" for criterion {which}"
            )
            raise PreconditionError(f"pole at {poles[0]} inside the disc grid{hint}")

    # first occurrence of the largest value over the blocks, in grid order
    worst_value, worst_point, n = -math.inf, None, 0
    for Z in exterior_blocks(grid) if exterior else disc_blocks(grid):
        vals = criterion_field(m, which, Z, params)
        vals = np.where(np.isfinite(vals), vals, np.inf)
        if which == "V_p_lambda":
            vals = np.where(np.abs(Z - params.p) < POLE_EXCLUSION, -np.inf, vals)
        i = int(np.argmax(vals))
        if worst_point is None or vals[i] > worst_value:
            worst_value, worst_point = float(vals[i]), complex(Z[i])
        n += int(np.sum(np.isfinite(vals) | (vals == np.inf)))
    if exterior:
        chart_val = _chart_value(m, which)
        n += 1
        if chart_val > worst_value:
            worst_value = float(chart_val)
            worst_point = INFINITY
    if worst_value == -math.inf:
        raise PreconditionError("exclusion removed every grid point")
    return ClassVerdict(
        class_name=which,
        holds=bool(worst_value <= bound + TAU_CLASS),
        worst_point=worst_point,
        worst_value=worst_value,
        margin=float(bound - worst_value),
        bound=float(bound),
        n_samples=n,
    )

