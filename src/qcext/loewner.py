"""Loewner chains attached to each extension theorem, their Herglotz
transition functions in closed form, and numerical chain verification.

A chain here is a one-parameter family f(z,t) given by an explicit formula in
the base map and t (never by time integration).  check_theorem_A tests the
textbook characterization on grids: normalization f(0,t)=0 with prescribed
first coefficient a1(t), a fitted growth bound |f| <= K0 |a1(t)|, positivity
of Re p, and the transition PDE df/dt = z f' p with derivatives taken by
central differences so the closed forms are verified independently.  The
K0 sweeps take max |f| on the outer ring of their meshes when _pole_free
certifies that no f(., t) has a pole in the working disc, and on the whole
mesh otherwise.  Each sweep evaluates its times in batches of rows
(_batches) and takes one max or min per batch; subordination counts the
curve's crossings of a ray from each query point.

check_dk measures how deep p(z,t) sits in the disc-of-hyperbolic-radius set
{|w-1|/|w+1| <= k}; staying inside with k < 1 is the quantitative form of
quasiconformal extensibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .classifiers import TAU_CLASS, exterior_lead, seam_bound, u_field
from .errors import PreconditionError
from .grids import CHAIN_BATCH_POINTS, GridSpec, _angles, disc_grid
from .mapexpr import (
    TAU_JET,
    TAU_NORMALIZED,
    TAU_POLE_MARGIN,
    Add,
    Const,
    Div,
    Node,
    Var,
    compose,
    denominator_roots,
    derive,
    eval_array,
    is_normalized,
    parse_map,
    poles_in_disc,
    rational_form,
    shifted_difference,
    taylor_jet,
)

T_MAX = 5.0
# chains scale by e^(+-t) and their ratios by e^(+-2t), which leave the
# normal doubles near t = 354.  The chain formulas overflow sooner on grid
# points close to 0, and the overflow reads as a singularity of the chain.
# The corpus's cor1 chain overflows from t = 347.7 on the default grid, and
# from t = 335.2 at r0 / MAX_GRID_POINTS, the smallest radius a disc grid has.
T_MAX_LIMIT = 300.0
# check_theorem_A: sup of the transition PDE residual allowed
TAU_PDE = 1e-6
# pde_residual_sup: central-difference step in t
H_T = 1e-4
# pde_residual_sup: central-difference step in z
H_Z = 1e-5
# check_dk's pointwise gap between the thm2_eq3 ratio and its reduction
TAU_THM2_REDUCTION = 1e-10
# a1_zero_window: |a1| at most this times max(1, |c_lead|) counts as a zero
TAU_A1_ZERO = 1e-2

CHAIN_KINDS = (
    "thm2_eq3",
    "exterior_eq7a1",
    "cor1_chain",
    "thm5_chain",
    "krzyz_eq9",
    "convex_chain",
)
# aliases build_chain accepts for the CHAIN_KINDS names
CHAIN_KINDS_SHORT = {
    "thm2": "thm2_eq3",
    "eq7a1": "exterior_eq7a1",
    "t4": "exterior_eq7a1",
    "cor1": "cor1_chain",
    "t5": "thm5_chain",
    "krzyz": "krzyz_eq9",
    "convex": "convex_chain",
}


class ChainSingularityError(ArithmeticError):
    """A chain denominator vanished strictly inside the disc: the hypotheses
    exclude this, so hitting it means the input map is outside the class."""

    def __init__(self, z: complex, t: float):
        super().__init__(f"chain singular at z={z}, t={t}")
        self.z = z
        self.t = t


@dataclass(frozen=True)
class LoewnerChainSpec:
    """A chain kind plus its base map and derived bookkeeping.

    base_map is f (disc map) for thm2_eq3/thm5_chain/convex_chain, g
    (exterior map) for exterior_eq7a1/cor1_chain, and w (the small disc map)
    for krzyz_eq9.  c_lead is the leading normalization coefficient of the
    time-zero interior map; claimed_k is the seam-sampled criterion sup the
    chain is expected to stay within under check_dk.
    """

    kind: str
    base_map: Node
    c_lead: complex
    claimed_k: float

    def a1(self, t):
        """First Taylor coefficient of f(.,t) at 0, in closed form."""
        e, em = np.exp(t), np.exp(-t)
        s = e - em
        if self.kind in ("thm2_eq3", "convex_chain", "krzyz_eq9"):
            return e + 0j * e
        if self.kind == "exterior_eq7a1":
            return em / self.c_lead + s
        if self.kind == "cor1_chain":
            return em / self.c_lead - s
        return self.c_lead * em - s  # thm5_chain

    def a1_zero_window(self, t_max: float = T_MAX) -> Optional[tuple[float, float]]:
        """(lo, hi) around a zero of a1 on [0, t_max], or None.

        Some kinds have |a1| dipping through zero at one instant; ratios
        normalized by a1 are excluded there.
        """
        ts = np.linspace(0.0, t_max, 2001)
        mags = np.abs(self.a1(ts))
        i = int(np.argmin(mags))
        if mags[i] > TAU_A1_ZERO * max(1.0, abs(self.c_lead)):
            return None
        t0 = float(ts[i])
        if 0.3 < t0 < 0.4:
            return (0.3, 0.4)
        return (max(t0 - 0.05, 0.0), min(t0 + 0.05, t_max))


@dataclass(frozen=True)
class ChainGrid:
    """The user's choices: K0 and Herglotz mesh z, every sweep's horizon t_max."""

    z: GridSpec = GridSpec(32, 32)
    t_max: float = T_MAX

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")
        if self.t_max >= T_MAX_LIMIT:
            raise ValueError(
                f"t_max must be below {T_MAX_LIMIT:g}, short of where "
                f"e^(+-2t) leaves double range, got {self.t_max}"
            )
        # check_theorem_A re-checks K0 on the mesh doubled in r and theta
        self.z.require_cap(4)


# time samples on [0, t_max] per chain sweep; the K0 re-check takes 2 * N_T
N_T = 64
# the D(k) sweep and the PDE residual keep these meshes whatever grid the K0
# and Herglotz sweeps are given
DK_MESH = GridSpec(32, 32)
DK_N_T = 16
PDE_MESH = GridSpec(24, 24)


def _times(
    n: int, t_max: float, exclude: Optional[tuple[float, float]] = None
) -> np.ndarray:
    """n evenly spaced times on [0, t_max], less those in the open window
    exclude."""
    ts = np.linspace(0.0, t_max, n)
    if exclude is not None:
        lo, hi = exclude
        ts = ts[(ts < lo) | (ts > hi)]
    return ts


@dataclass(frozen=True)
class ChainCheckReport:
    r0: float
    K0: float
    herglotz_min_re: float
    dk_radius_sup: float
    pde_residual_sup: float
    passed: bool
    claimed_k: float
    k0_refined_ok: bool
    growth_ratio: float
    a1_fit_max_err: float
    subordination_ok: bool


# ---------------------------------------------------------------------------
# construction


def build_chain(kind: str, base_map: Node) -> LoewnerChainSpec:
    """Validate the base map for the requested kind and derive c_lead and
    the claimed criterion sup (classifiers.seam_bound of the kind's
    criterion).  kind is a CHAIN_KINDS name or one of its CHAIN_KINDS_SHORT
    aliases; the spec carries the full name."""
    kind = CHAIN_KINDS_SHORT.get(kind, kind)
    if kind not in CHAIN_KINDS:
        raise ValueError(f"unknown chain kind {kind!r}")

    if kind in ("thm2_eq3", "convex_chain"):
        if not is_normalized(base_map):
            raise PreconditionError(f"{kind} needs f(0)=0 and f'(0)=1")
        if kind == "thm2_eq3":
            claimed = seam_bound(base_map, "M_Ug")
        else:
            claimed = abs(taylor_jet(base_map, 2)[2])
        return LoewnerChainSpec(kind, base_map, 1.0 + 0j, claimed)

    if kind == "thm5_chain":
        jet = taylor_jet(base_map, 2)
        if abs(jet[0]) > TAU_NORMALIZED:
            raise PreconditionError("thm5_chain needs f(0)=0")
        return LoewnerChainSpec(kind, base_map, jet[1], seam_bound(base_map, "thm5"))

    if kind == "krzyz_eq9":
        jet = taylor_jet(base_map, 2)
        if abs(jet[0]) > TAU_JET:
            raise PreconditionError(
                f"krzyz_eq9 needs w(0)=0, got w(0)={jet[0]}"
            )
        if poles_in_disc(base_map, 1.0):
            raise PreconditionError("krzyz_eq9 needs w analytic on the disc")
        return LoewnerChainSpec(kind, base_map, 1.0 + 0j, seam_bound(base_map, "krzyz_w"))

    # exterior kinds: base_map is g with a simple pole at infinity
    c0 = exterior_lead(base_map, unimodular=kind == "cor1_chain")
    which = "M_Ug" if kind == "exterior_eq7a1" else "M_corollary1"
    return LoewnerChainSpec(kind, base_map, c0, seam_bound(base_map, which))


def time_zero_map(spec: LoewnerChainSpec) -> Node:
    """The interior univalent map f(., 0) as an expression."""
    if spec.kind in ("thm2_eq3", "thm5_chain", "convex_chain"):
        return spec.base_map
    if spec.kind == "krzyz_eq9":
        return Div(Const(1 + 0j), Add(spec.base_map, Div(Const(1 + 0j), Var())))
    # exterior kinds: f0(z) = 1/g(1/z)
    return Div(Const(1 + 0j), compose(spec.base_map, parse_map("1/z")))


# ---------------------------------------------------------------------------
# evaluation


@lru_cache(maxsize=64)
def _stable_ratio(m: Node):
    """Coefficients (P, A) with A = z*Q - P for the rational base map P/Q.

    The literal denominator z - s*f(e^{-t}z) loses all leading orders at
    large t (it shrinks like e^{-2t} while its summands stay O(1)), which in
    double precision injects e^{2t}-amplified noise into the chain values.
    Writing the same quantity as e^t*A(u) + e^{-t}*P(u), u = e^{-t}z, moves
    the cancellation into the coefficients of A, where it happens once and
    exactly: for a normalized map the constant and linear terms of z*Q - P
    vanish identically, so tiny leftovers below 1e-12 of the coefficient
    scale are rounding dust and get zeroed.
    """
    P, Q = rational_form(m)
    return np.asarray(P, dtype=np.complex128), shifted_difference(Q, P)


def chain_eval_array(spec: LoewnerChainSpec, Z: np.ndarray, T) -> np.ndarray:
    """Vectorized f(z,t); Z and T broadcast together.  IEEE semantics."""
    Z = np.asarray(Z, dtype=np.complex128)
    T = np.asarray(T, dtype=np.float64)
    e = np.exp(T)
    em = np.exp(-T)
    s = e - em
    f = spec.base_map
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.kind == "thm2_eq3":
            P, A = _stable_ratio(f)
            U = em * Z
            Pu = npoly.polyval(U, P)
            out = Z * Pu / (e * npoly.polyval(U, A) + em * Pu)
        elif spec.kind == "thm5_chain":
            out = eval_array(f, em * Z) - Z * s
        elif spec.kind == "convex_chain":
            out = eval_array(f, Z) + (e - 1.0) * Z * eval_array(derive(f), Z)
        elif spec.kind == "krzyz_eq9":
            W = eval_array(f, em * Z)
            out = 1.0 / (W + em / Z)
        else:
            G = eval_array(f, e / Z)
            sign = 1.0 if spec.kind == "exterior_eq7a1" else -1.0
            out = 1.0 / G + sign * s * Z
        out = np.asarray(out, dtype=np.complex128)
        # Z.all() is False only when Z holds a 0; otherwise np.where would
        # return a copy of out, and a complex == costs as much as that copy
        if Z.all():
            return out
        return np.where(Z == 0, 0j, out)


def herglotz_array(spec: LoewnerChainSpec, Z: np.ndarray, T) -> np.ndarray:
    """Vectorized closed-form p(z,t).  IEEE semantics on grids."""
    Z = np.asarray(Z, dtype=np.complex128)
    T = np.asarray(T, dtype=np.float64)
    e = np.exp(T)
    em = np.exp(-T)
    s = e - em
    c = e + em
    f = spec.base_map
    # each shared product keeps its operand order, as complex multiplication
    # is not bitwise commutative (grids.BLOCK_POINTS); a negation moved out
    # of a product (-a * b = -(a * b)) and x + -y = x - y hold exactly
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.kind == "thm2_eq3":
            U = em * Z
            F2 = eval_array(f, U) ** 2
            A = eval_array(derive(f), U)
            ZA = Z**2 * A * em
            num = c * F2 - ZA
            den = ZA - s * F2
        elif spec.kind == "thm5_chain":
            Ae = eval_array(derive(f), em * Z) * em
            num = -(Ae + c)
            den = Ae - s
        elif spec.kind == "convex_chain":
            num = e * eval_array(derive(f), Z)
            den = num + (e - 1.0) * Z * eval_array(derive(derive(f)), Z)
        elif spec.kind == "krzyz_eq9":
            Wp = eval_array(derive(f), em * Z)
            WZ = Wp * Z**2
            num = 1.0 + WZ
            den = 1.0 - WZ
        else:
            Ze = e / Z
            G2 = eval_array(f, Ze) ** 2
            Be = eval_array(derive(f), Ze) * e
            Z2 = Z**2
            if spec.kind == "exterior_eq7a1":
                num = c * Z2 * G2 - Be
                den = Be + s * Z2 * G2
            else:
                num = -Be - c * Z2 * G2
                den = Be - s * Z2 * G2
        out = np.asarray(num / den, dtype=np.complex128)
        if Z.all():  # no z = 0 to set to p(0, t) = 1, as in chain_eval_array
            return out
        return np.where(Z == 0, 1.0 + 0j, out)


# ---------------------------------------------------------------------------
# checks


def working_radius(spec: LoewnerChainSpec) -> float:
    """Half the distance from 0 to the nearest time-zero singularity,
    clamped to [0.05, 0.85].  The cap keeps the finite-difference PDE
    residual comfortably inside tolerance at t near T_MAX."""
    # removable roots count too, so exterior_pole's cor1 chain gets 0.05
    _, Q = rational_form(time_zero_map(spec))
    d = float(np.min(np.abs(denominator_roots(Q)), initial=np.inf))
    if not math.isfinite(d):
        return 0.85
    return float(min(max(0.5 * d, 0.05), 0.85))


def _batches(samples: np.ndarray, size: int):
    """Columns of consecutive samples, in sample order, each broadcast by the
    caller against size flattened points: at most CHAIN_BATCH_POINTS points
    per batch, one sample at least.  The caller reduces each batch at once,
    with axis=1 where a value per sample matters."""
    step = max(1, CHAIN_BATCH_POINTS // size)
    for i in range(0, len(samples), step):
        yield samples[i : i + step, None]


def _a1_moduli(spec: LoewnerChainSpec, T: np.ndarray) -> np.ndarray:
    """|a1(t)| for the column of times T, with the bits of abs(complex(
    spec.a1(t))) at each t: np.hypot rounds as Python's complex abs does,
    and np.abs of a complex array need not."""
    a = spec.a1(T[:, 0])
    return np.hypot(a.real, a.imag)


def dk_radius_field(spec: LoewnerChainSpec, Z: np.ndarray, T) -> np.ndarray:
    p = herglotz_array(spec, Z, T)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.abs((p - 1.0) / (p + 1.0))
    return np.where(np.isfinite(vals), vals, np.inf)


def check_dk(spec: LoewnerChainSpec, t_max: float = T_MAX) -> float:
    """Sup of |(p-1)/(p+1)| over the DK_MESH disc grid at DK_N_T times on
    [0, t_max], one max per batch of times (_batches).

    For the thm2_eq3 kind the ratio admits an exact algebraic reduction to
    e^(2t) |U| of the map scaled by e^(-t); the reduction is verified
    pointwise to TAU_THM2_REDUCTION while sweeping, and the first t that
    breaches it raises ArithmeticError.  Its factors are math.exp values,
    as numpy's exp need not round as libm does.
    """
    Z = disc_grid(DK_MESH)
    sup = 0.0
    for T in _batches(_times(DK_N_T, t_max), Z.size):
        rows = dk_radius_field(spec, Z, T)
        sup = max(sup, float(rows.max()))
        if spec.kind != "thm2_eq3":
            continue
        ts = T[:, 0]
        em = np.array([[math.exp(-t)] for t in ts])
        e2 = np.array([[math.exp(2 * t)] for t in ts])
        want = e2 * np.abs(u_field(spec.base_map, em * Z))
        finite = np.isfinite(rows) & np.isfinite(want)
        with np.errstate(invalid="ignore", over="ignore"):
            gaps = np.where(finite, np.abs(rows - want), -np.inf).max(axis=1)
        for t, gap in zip(ts, gaps):
            if gap > TAU_THM2_REDUCTION:
                raise ArithmeticError(f"thm2 ratio reduction off by {float(gap)} at t={t}")
    return sup


def _fit_first_coeff(spec: LoewnerChainSpec, t: float, rho: float) -> complex:
    """First Taylor coefficient of f(.,t) by discrete Fourier extraction on
    the circle of radius rho."""
    n = 32
    theta = 2.0 * np.pi * np.arange(n) / n
    ring = rho * np.exp(1j * theta)
    vals = chain_eval_array(spec, ring, t)
    return complex(np.mean(vals * np.exp(-1j * theta)) / rho)


def a1_fit_error(spec: LoewnerChainSpec, r0: float) -> float:
    rho = min(0.25, 0.8 * r0)
    window = spec.a1_zero_window()
    worst = 0.0
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        if window is not None and window[0] < t < window[1]:
            continue
        got = _fit_first_coeff(spec, t, rho)
        worst = max(worst, abs(got - complex(spec.a1(t))))
    return worst


def _winding_numbers(polygon: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Winding number of the closed polygon about each query point off it:
    the signed count of edges that cross the rightward horizontal ray from
    the point (D. Sunday's crossing rule), +1 upward with the point on the
    edge's left, -1 downward with it on the right, by the sign of one real
    cross product per edge that straddles the point's height."""
    qs = np.ravel(qs)
    ends = np.append(polygon, polygon[:1])
    below = ends.imag <= qs.imag[:, None]
    q, i = np.nonzero(below[:, :-1] != below[:, 1:])
    edge = ends[i + 1] - ends[i]
    rel = qs[q] - ends[i]
    cross = edge.real * rel.imag - rel.real * edge.imag
    up = below[q, i]
    return np.bincount(q[up & (cross > 0)], minlength=qs.size) - np.bincount(
        q[~up & (cross < 0)], minlength=qs.size
    )


def subordination_ok(spec: LoewnerChainSpec, r0: float) -> bool:
    """Image of |z| = 0.9*r0 under f(.,s) must sit inside the image Jordan
    curve under f(.,t) for s < t (winding number 1 at every sample).

    All 64 query points go against the 1024-point curve in one
    _winding_numbers call: its (64, 1025) arrays are booleans, and only the
    edges that straddle a query's height reach complex arithmetic.  An
    angle sum over one complex (64, 1024) broadcast raised the chain
    benchmark's peak RSS by 5.4%."""
    r = 0.9 * r0
    inner_pts = r * np.exp(1j * _angles(64))
    curve_pts = r * np.exp(1j * _angles(1024))
    times = [0.0, 1.0, 2.5]
    for s, t in zip(times, times[1:]):
        small = chain_eval_array(spec, inner_pts, s)
        big = chain_eval_array(spec, curve_pts, t)
        if not (np.all(np.isfinite(small)) and np.all(np.isfinite(big))):
            return False
        if np.any(_winding_numbers(big, small) != 1):
            return False
    return True


def pde_residual_sup(spec: LoewnerChainSpec, r0: float, t_max: float = T_MAX) -> float:
    """Sup of |df/dt - z f' p| over the PDE_MESH grid of the r0-disc at N_T
    times on [0, t_max] (less a1's zero window), with df/dt and f' by central
    differences and p in closed form, one max per batch of times (_batches).
    A non-finite residual makes the sup inf: max propagates NaN, which is
    then read as inf."""
    Z = disc_grid(PDE_MESH, r_max=r0)
    Zp, Zm = Z + H_Z, Z - H_Z
    sup = 0.0
    for T in _batches(_times(N_T, t_max, spec.a1_zero_window(t_max)), Z.size):
        ft = (
            chain_eval_array(spec, Z, T + H_T)
            - chain_eval_array(spec, Z, T - H_T)
        ) / (2.0 * H_T)
        fz = (chain_eval_array(spec, Zp, T) - chain_eval_array(spec, Zm, T)) / (2.0 * H_Z)
        p = herglotz_array(spec, Z, T)
        peak = float(np.abs(ft - Z * fz * p).max())
        sup = max(sup, math.inf if math.isnan(peak) else peak)
    return sup


def _pole_free(spec: LoewnerChainSpec, r0: float, times: np.ndarray) -> bool:
    """True when it is certain that no f(., t), t in times, has a pole in
    |z| <= r0; False when that cannot be certified.

    The poles of the thm5, convex and exterior chains are those of
    time_zero_map, fixed or scaled by e^t >= 1, so one poles_in_disc call
    covers every t.  Those of thm2_eq3 and krzyz_eq9 can move in.  Their
    denominator is e^-t X(u) + e^t Y(u) with u = e^-t z: X = P/z, Y = A/z
    from _stable_ratio for thm2 (uncertified unless P and A vanish exactly
    at 0), and X = Q_w, Y = z P_w for krzyz.  Per t, Rouche's theorem
    certifies it root-free on the closed disc when its constant coefficient
    outweighs the rest of the polynomial on |z| = r0.
    """
    if spec.kind not in ("thm2_eq3", "krzyz_eq9"):
        return not poles_in_disc(time_zero_map(spec), r0 * (1.0 + TAU_POLE_MARGIN))
    if spec.kind == "thm2_eq3":
        P, A = _stable_ratio(spec.base_map)
        if P[0] != 0 or A[0] != 0:
            return False
        X, Y = P[1:], A[1:]
    else:
        Pw, X = rational_form(spec.base_map)
        Y = np.concatenate([[0], Pw])
    k = np.arange(max(len(X), len(Y)))
    Xk, Yk = (np.pad(c, (0, k.size - len(c))) for c in (X, Y))
    T = np.asarray(times, dtype=np.float64)[:, None]
    em = np.exp(-T)
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.abs((em * Xk + np.exp(T) * Yk) * em**k)
        rest = c[:, 1:] @ r0 ** k[1:]
        return bool(np.all(c[:, 0] > (1.0 + TAU_POLE_MARGIN) * rest))


def check_theorem_A(
    spec: LoewnerChainSpec, grid: ChainGrid | None = None
) -> ChainCheckReport:
    """Grid verification of the chain characterization plus the disc-of-k
    radius sweep.  passed requires positive Re p, the D(k) sup within the
    claimed bound, the PDE residual within tolerance, the growth bound
    holding on the doubled mesh (k0_refined_ok) and subordination.
    growth_ratio and a1_fit_max_err are reported only: the package has no
    tolerance for either.  grid sets the K0 and Herglotz meshes only:
    D(k) always runs on DK_MESH at DK_N_T times, the PDE residual on
    PDE_MESH.

    When _pole_free certifies that no f(., t) at a swept t has a pole in
    the closed r0-disc, both K0 sweeps run on the outermost ring of their
    meshes only (n_theta and 2 * n_theta points at radius r0, the bits of
    disc_grid's last row): f(0, t) = 0, so by the maximum principle and
    Schwarz's lemma max |f| over the disc lies on that circle, and the
    ring's samples stand for the mesh.  Otherwise they run on the full
    meshes, which stay the only path for inputs _pole_free refuses.

    Every sweep evaluates t in batches (_batches) and reduces each batch at
    once, with the bits a one-t loop on the same mesh gives: maxima and
    minima do not depend on the order they are taken in once NaN is
    handled, and a non-finite K0 sample raises ChainSingularityError at the
    first (t, z) in row-major order, the one a one-t loop would meet."""
    grid = grid or ChainGrid()
    r0 = working_radius(spec)
    window = spec.a1_zero_window(grid.t_max)
    ts = _times(N_T, grid.t_max, window)
    tf = _times(2 * N_T, grid.t_max, window)
    on_ring = _pole_free(spec, r0, np.concatenate([ts, tf]))

    def k0_mesh(mesh: GridSpec) -> np.ndarray:
        return disc_grid(GridSpec(1, mesh.n_theta) if on_ring else mesh, r_max=r0)

    def modulus(Z, T):
        return np.abs(chain_eval_array(spec, Z, T))

    # growth constant on the working disc, normalized by a1; max propagates
    # NaN and |f| is not below 0, so a row's peak is finite exactly when
    # each of its values is
    Zr = k0_mesh(grid.z)
    K0 = 0.0
    K0_half = 0.0
    for T in _batches(ts, Zr.size):
        mod = modulus(Zr, T)
        peak = mod.max(axis=1)
        if not np.isfinite(peak).all():
            row, bad = divmod(int(np.argmax(~np.isfinite(mod))), Zr.size)
            raise ChainSingularityError(complex(Zr[bad]), float(T[row, 0]))
        ratio = peak / _a1_moduli(spec, T)
        K0 = max(K0, float(ratio.max()))
        early = ratio[T[:, 0] <= grid.t_max / 2]
        if early.size:
            K0_half = max(K0_half, float(early.max()))
    growth_ratio = K0 / K0_half if K0_half > 0 else math.inf
    K0_claimed = 1.05 * K0

    # re-verify the fitted bound on a doubled mesh; a NaN peak fails the
    # comparison exactly when one of its row's values does
    Zf = k0_mesh(GridSpec(2 * grid.z.n_r, 2 * grid.z.n_theta))
    k0_refined_ok = all(
        np.all(modulus(Zf, T).max(axis=1) <= K0_claimed * _a1_moduli(spec, T))
        for T in _batches(tf, Zf.size)
    )

    # Herglotz positivity on the full disc; a non-finite real part reads as
    # -inf, and min propagates NaN while max finds +inf
    Zd = disc_grid(grid.z)
    min_re = math.inf
    for T in _batches(ts, Zd.size):
        re = herglotz_array(spec, Zd, T).real
        low = float(re.min())
        if math.isnan(low) or re.max() == math.inf:
            low = -math.inf
        min_re = min(min_re, low)

    dk_sup = check_dk(spec, grid.t_max)
    resid = pde_residual_sup(spec, r0, grid.t_max)
    subordinate = subordination_ok(spec, r0)

    passed = (
        min_re > 0.0
        and dk_sup <= spec.claimed_k + TAU_CLASS
        and resid <= TAU_PDE
        and k0_refined_ok
        and subordinate
    )
    return ChainCheckReport(
        r0=r0,
        K0=K0_claimed,
        herglotz_min_re=min_re,
        dk_radius_sup=dk_sup,
        pde_residual_sup=resid,
        passed=bool(passed),
        claimed_k=spec.claimed_k,
        k0_refined_ok=k0_refined_ok,
        growth_ratio=growth_ratio,
        a1_fit_max_err=a1_fit_error(spec, r0),
        subordination_ok=subordinate,
    )
