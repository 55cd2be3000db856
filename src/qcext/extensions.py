"""Closed-form quasiconformal extensions as piecewise maps on the sphere.

Each builder glues an analytic branch (a grammar expression) to a closed-form
branch in z, z-bar and |z| on the complementary region.  The two branches
agree identically on the unit circle; seam_gap measures how well the floating
point evaluations realize that identity.  The non-analytic branch is kept as
an evaluator, never as an expression tree: the grammar is holomorphic-only on
purpose.

Every builder takes the map it extends and keeps it as the analytic branch.
Builders check their hypotheses (normalization jets, parameter ranges, the
Mobius form) and record the dilatation bound the construction is supposed
to achieve as claimed_k; for the class theorems that is
classifiers.seam_bound of the theorem's criterion.  An ExtendedMap checks
every declared special point with evaluate_array, its only evaluator, when
it is constructed.  build_extension routes a theorem flag to its builder.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .classifiers import ClassParams, exterior_lead, phi_from_map, seam_bound, usable_jet
from .corpus import THEOREMS
from .errors import PreconditionError
from .grids import blocks, seam_circle, seam_sup
from .loewner import (
    LoewnerChainSpec,
    chain_eval_array,
    check_theorem_A,
    time_zero_map,
)
from .mapexpr import (
    TAU_COEFF_DUST,
    TAU_JET,
    TAU_NORMALIZED,
    TAU_POLE_MARGIN,
    Add,
    Const,
    Div,
    Mul,
    Node,
    Pow,
    Var,
    compose,
    const_text,
    derive,
    eval_array,
    eval_map,
    parse_map,
    poles_in_disc,
    print_expr,
    rational_form,
    shifted_difference,
    taylor_jet,
)
from .sphere import ExtComplex, INFINITY, chordal_array, is_infinity

# beltrami.certify_qc: chordal seam gap allowed between the two branches
TAU_SEAM = 1e-9
# ExtendedMap: chordal distance allowed between a special point's image and
# the assembled map's value there
TAU_SPECIAL_POINT = 1e-6

SpecialPoint = Tuple[ExtComplex, ExtComplex]


@dataclass(frozen=True)
class RadialProfile:
    """psi(r) = M r - (M-1) on [1, oo): psi(1) = 1, bi-Lipschitz constant M."""

    M: float

    def __post_init__(self):
        if not (isinstance(self.M, (int, float)) and 1.0 < self.M < math.inf):
            raise ValueError("profile constant M must be finite and exceed 1")
        # the claimed bound (M^2 - 1)/(M^2 + 1) must stay below 1; an
        # overflowed M^2 makes it nan, which fails the test too
        if not self.k < 1.0:
            raise ValueError(
                f"profile constant M = {self.M!r} is too large: "
                "the bound (M^2 - 1)/(M^2 + 1) rounds to 1"
            )

    @property
    def k(self) -> float:
        """The dilatation bound (M^2 - 1)/(M^2 + 1) of the profile."""
        return (self.M * self.M - 1.0) / (self.M * self.M + 1.0)

    def psi(self, r):
        return self.M * r - (self.M - 1.0)


@dataclass(frozen=True)
class ExtendedMap:
    """A sphere map assembled from an analytic branch and a closed-form one.

    inner is the analytic branch' expression; inner_region says which side of
    the unit circle it lives on.  outer evaluates the complementary branch and
    follows numpy IEEE semantics on arrays.  evaluate_array is the map's
    only evaluator.  special_points are (source, image) pairs that the
    assembled map must honor, including the charts at infinity.
    Construction runs evaluate_array on every source, an infinite one at the
    probe 1e8 e^{0.9i}, and raises ArithmeticError when an image is more
    than TAU_SPECIAL_POINT away in the chordal metric.
    """

    inner: Node
    inner_region: str  # "disc" | "exterior"
    outer_id: str
    outer_params: Tuple[Tuple[str, str], ...]
    outer: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)
    special_points: Tuple[SpecialPoint, ...] = ()
    claimed_k: float = math.inf

    def __post_init__(self) -> None:
        # charts at infinity are probed at a large off-axis radius
        probe = 1e8 * complex(math.cos(0.9), math.sin(0.9))
        src = [probe if is_infinity(s) else s for s, _ in self.special_points]
        img = [complex(math.inf) if is_infinity(m) else m for _, m in self.special_points]
        got = self.evaluate_array(np.array(src, dtype=np.complex128))
        d = chordal_array(got, np.array(img, dtype=np.complex128))
        for (s, m), v, dv in zip(self.special_points, got, d):
            if dv > TAU_SPECIAL_POINT:
                raise ArithmeticError(
                    f"special point {s} -> {m} violated: got {v} (chordal {dv:.3e})"
                )

    def evaluate_array(self, Z: np.ndarray) -> np.ndarray:
        """The map at every point of Z, with IEEE semantics.

        Points on one side of the seam go to that side's branch in the
        blocks of grids.blocks; BLOCK_POINTS there says why this gives the
        same bits as one call per side.  When every point lies on one side,
        that branch gets them all in one call, and the result may be a
        read-only view, as eval_array's is.
        """
        Z = np.asarray(Z, dtype=np.complex128)
        flat = Z.reshape(-1)
        r = np.abs(flat)
        use_inner = r <= 1.0 if self.inner_region == "disc" else r >= 1.0
        n_inner = int(np.count_nonzero(use_inner))

        def inner(W):
            return eval_array(self.inner, W)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if n_inner in (0, flat.size):
                branch = inner if n_inner else self.outer
                return np.asarray(branch(flat), dtype=np.complex128).reshape(Z.shape)
            out = np.empty(flat.shape, dtype=np.complex128)
            for side, branch in ((use_inner, inner), (~use_inner, self.outer)):
                index = np.flatnonzero(side)
                for lo, hi in blocks(index.size):
                    pick = index[lo:hi]
                    out[pick] = branch(flat[pick])
        return out.reshape(Z.shape)

    def summary(self) -> dict:
        return {
            "inner": print_expr(self.inner),
            "inner_region": self.inner_region,
            "outer": {"id": self.outer_id, "params": dict(self.outer_params)},
            "special_points": self.special_points,
            "claimed_k": self.claimed_k,
        }


def seam_gap(em: ExtendedMap) -> Tuple[float, float]:
    """Branch disagreement (sup_abs, sup_chordal) on the circle |z| = 1, at
    the N_SEAM = 4096 points of grids.seam_circle.

    Both sups compare the two branches evaluated on the circle.  The chordal
    one is the meaningful one near seam poles, where both branches blow up
    together and absolute differences lose their footing.
    """
    circle = seam_circle()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inner_on = eval_array(em.inner, circle)
        outer_on = em.outer(circle)
        diff = np.abs(inner_on - outer_on)
        both_bad = ~np.isfinite(inner_on) & ~np.isfinite(outer_on)
        diff = np.where(both_bad, 0.0, diff)
        sup_abs = float(np.max(np.where(np.isfinite(diff), diff, np.inf)))
        sup_chordal = float(np.max(chordal_array(inner_on, outer_on)))
    return sup_abs, sup_chordal


def _require_normalized_jet(f: Node) -> np.ndarray:
    c = np.asarray(taylor_jet(f, 3))
    if abs(c[0]) > TAU_JET or abs(c[1] - 1.0) > TAU_JET:
        raise PreconditionError("map must be normalized: f(0)=0, f'(0)=1")
    return c


def _reflected(
    f: Node,
    outer_id: str,
    params: Tuple[Tuple[str, str], ...],
    outer: Callable[[np.ndarray], np.ndarray],
    claimed_k: float,
    at_infinity: ExtComplex = INFINITY,
) -> ExtendedMap:
    """The extension of the disc map f by an outer branch built on
    f(1/z-bar): f's poles on the closed disc go to infinity, and infinity
    goes to at_infinity."""
    poles = tuple((p, INFINITY) for p in poles_in_disc(f, 1.0 + TAU_POLE_MARGIN))
    return ExtendedMap(
        inner=f,
        inner_region="disc",
        outer_id=outer_id,
        outer_params=params,
        outer=outer,
        special_points=poles + ((INFINITY, at_infinity),),
        claimed_k=claimed_k,
    )


# ---------------------------------------------------------------------------
# disc-side builders


def ext_huang_owa(f: Node) -> ExtendedMap:
    """Extend a normalized disc map by z / (1 - a2 z + |z|^2 phi(1/z-bar)).

    The seam identity is |z|^2 phi(1/z-bar) = phi(z) on |z| = 1.  The bound
    recorded is the boundary sup of |(phi(w)/w)'|, which is what the
    dilatation of this extension works out to at the reflected point.
    """
    c = _require_normalized_jet(f)
    a2 = complex(c[2])
    phi = phi_from_map(f)
    ratio = Div(phi, Var())
    claimed = seam_sup(eval_array(derive(ratio), seam_circle()))

    def outer(Z):
        W = 1.0 / np.conj(Z)
        return Z / (1.0 - a2 * Z + np.abs(Z) ** 2 * eval_array(phi, W))

    at_inf = INFINITY if abs(a2) <= TAU_NORMALIZED else -1.0 / a2
    return _reflected(f, "phi_reflection", (("a2", repr(a2)),), outer, claimed, at_inf)


def ext_thm2(f: Node) -> ExtendedMap:
    """Extend by z f(1/z-bar) / (z - (|z|^2 - 1) f(1/z-bar)); needs a2 = 0."""
    c = _require_normalized_jet(f)
    if abs(c[2]) > TAU_JET:
        raise PreconditionError(
            f"second coefficient must vanish for this extension, got {c[2]}"
        )
    recip = Div(Const(1.0 + 0j), f)

    def outer(Z):
        # divide through by f(1/z-bar) so reflected poles stay finite
        W = 1.0 / np.conj(Z)
        return Z / (Z * eval_array(recip, W) - (np.abs(Z) ** 2 - 1.0))

    return _reflected(f, "map_reflection", (), outer, seam_bound(f, "M_Ug"))


def _mobius_a2(f: Node) -> Optional[complex]:
    """a2 of f when f is z/(1 - a2 z), so that the small functional U_f
    vanishes identically (a disc automorphism denominator), else None.

    Decided on the rational normal form P/Q: z Q - (1 - a2 z) P must vanish
    to TAU_COEFF_DUST of its coefficient scale."""
    a2 = complex(taylor_jet(f, 2)[2])
    P, Q = rational_form(f)
    if np.any(shifted_difference(Q, np.convolve(P, [1.0, -a2]))):
        return None
    return a2


def _require_mobius_a2(f: Node) -> complex:
    a2 = _mobius_a2(f)
    if a2 is None:
        raise PreconditionError(
            "this case applies only when the small functional vanishes "
            "identically (a disc automorphism denominator)"
        )
    return a2


def ext_mobius_convex(f: Node) -> ExtendedMap:
    """Extend f = z/(1 - a2 z), 0 < |a2| < 1, by z(|z|^2 - a2 z)/(|z| - a2 z)^2;
    |mu| = |a2|."""
    a2 = _require_mobius_a2(f)
    if not 0.0 < abs(a2) < 1.0:
        raise PreconditionError("need 0 < |a2| < 1 (a2 = 0 extends trivially)")

    def outer(Z):
        R = np.abs(Z)
        return Z * (R**2 - a2 * Z) / (R - a2 * Z) ** 2

    return ExtendedMap(
        inner=f,
        inner_region="disc",
        outer_id="mobius_polar",
        outer_params=(("a2", repr(a2)),),
        outer=outer,
        special_points=((INFINITY, INFINITY),),
        claimed_k=abs(a2),
    )


def ext_radial_psi(f: Node, profile: RadialProfile, p: Optional[complex] = None) -> ExtendedMap:
    """Radial-profile extension of a Mobius map with a boundary or inner pole.

    Without p, f = z/(1 - a2 z) with |a2| = 1 has its pole on the seam; outer
    psi(r) e^{i theta} / (1 - a2 psi(r) e^{i theta}).
    With p, f = p z/(p - z) has its pole p in (0,1); outer
    p psi(r) e^{i theta} / (p - psi(r) e^{i theta}).
    Claimed bound (M^2-1)/(M^2+1) from the profile constant.
    """
    M = profile.M
    if p is None:
        a2 = _require_mobius_a2(f)
        if abs(abs(a2) - 1.0) > TAU_JET:
            raise PreconditionError("unimodular_a2 needs |a2| = 1")

        def outer(Z):
            R = np.abs(Z)
            PSI = profile.psi(R)
            E = Z / R
            return PSI * E / (1.0 - a2 * PSI * E)

        pts = ((1.0 / a2, INFINITY), (INFINITY, -1.0 / a2))
        params = (("a2", repr(a2)), ("M", repr(float(M))))
    else:
        a2 = _mobius_a2(f)
        if a2 is None or abs(a2 * p - 1.0) > TAU_JET:
            pt = const_text(p)
            raise PreconditionError(f"psi with p = {pt} extends only {pt}*z/({pt}-z)")
        if abs(p.imag) > 0 or not 0.0 < p.real < 1.0:
            raise PreconditionError("vp_pole needs real p in (0,1)")
        p = p.real

        def outer(Z):
            R = np.abs(Z)
            PSI = profile.psi(R)
            E = Z / R
            return p * PSI * E / (p - PSI * E)

        pts = ((complex(p), INFINITY), (INFINITY, complex(-p)))
        params = (("p", repr(float(p))), ("M", repr(float(M))))
    return ExtendedMap(
        inner=f,
        inner_region="disc",
        outer_id="radial_profile",
        outer_params=params,
        outer=outer,
        special_points=pts,
        claimed_k=profile.k,
    )


def _require_reflectable(f: Node) -> None:
    """Refuse a disc map that is infinite at 0, has a swamped f'(0), or is
    constant: the numerator of f' is then identically zero, even when f's
    own normal form, as in (z+1)/(z+1), is not reduced."""
    if is_infinity(eval_map(f, 0j)):
        raise PreconditionError("map must be finite at 0")
    if not np.any(rational_form(derive(f))[0]):
        raise PreconditionError("map is constant, so it has no extension")
    usable_jet(f, "f has no usable derivative at 0")


def ext_brown(f: Node, brown_lambda: complex) -> ExtendedMap:
    """Extend by f(1/z-bar) + (z - 1/z-bar)/lambda; bound sup |lambda f' - 1|."""
    lam = complex(brown_lambda)
    if lam == 0:
        raise PreconditionError("lambda must be nonzero")
    _require_reflectable(f)

    def outer(Z):
        W = 1.0 / np.conj(Z)
        return eval_array(f, W) + (Z - W) / lam

    claimed = seam_bound(f, "brown", ClassParams(brown_lambda=lam))
    return _reflected(f, "derivative_shift", (("lambda", repr(lam)),), outer, claimed)


def ext_thm5(f: Node) -> ExtendedMap:
    """Extend by f(1/z-bar) - z + 1/z-bar; bound sup |f' + 1|.

    Maps under this hypothesis have f'(0) near -1, so no normalization jet is
    demanded here.
    """
    _require_reflectable(f)

    def outer(Z):
        W = 1.0 / np.conj(Z)
        return eval_array(f, W) - Z + W

    return _reflected(f, "reflection_shift", (), outer, seam_bound(f, "thm5"))


# ---------------------------------------------------------------------------
# exterior-side builders


def _poly_node(coeffs: np.ndarray) -> Node:
    """Expression node for sum coeffs[j] z^j with zero terms dropped."""
    terms = []
    for j, cj in enumerate(coeffs):
        if cj == 0:
            continue
        if j == 0:
            terms.append(Const(complex(cj)))
        else:
            zj = Var() if j == 1 else Pow(Var(), j)
            terms.append(zj if cj == 1 else Mul(Const(complex(cj)), zj))
    if not terms:
        return Const(0j)
    node = terms[0]
    for t in terms[1:]:
        node = Add(node, t)
    return node


def _recover_w(g: Node) -> Node:
    """w(z) = g(1/z) - 1/z rebuilt as one rational expression.

    Subtracting the trees directly is catastrophic near 0 where both terms
    blow up; doing the subtraction on numerator coefficients cancels the
    shared singular part exactly.
    """
    P, Q = rational_form(compose(g, parse_map("1/z")))
    num = shifted_difference(P, Q)
    den = np.zeros(len(Q) + 1, dtype=np.complex128)
    den[1:] = Q  # z * Q
    scale = max(np.max(np.abs(P)), np.max(np.abs(Q)))
    if np.isfinite(scale):  # as in shifted_difference
        den[np.abs(den) <= TAU_COEFF_DUST * scale] = 0.0
    v = 0
    while v < len(num) and v < len(den) and num[v] == 0 and den[v] == 0:
        v += 1
    num, den = num[v:], den[v:]
    if len(den) == 0 or den[0] == 0:
        raise PreconditionError("w(z) = g(1/z) - 1/z has a pole at 0")
    while len(num) > 1 and num[-1] == 0:
        num = num[:-1]
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
    if len(den) == 1 and den[0] == 1:
        return _poly_node(num)
    return Div(_poly_node(num), _poly_node(den))


def ext_exterior(g: Node, which: str) -> ExtendedMap:
    """Fill the disc under an exterior map g(zeta) = zeta + b0 + b1/zeta + ...

    thm4:  g(1/zb) / (1 + (1/zeta - zb) g(1/zb)),  zb = zeta-bar
    cor1:  same with a minus sign in the denominator
    krzyz: zeta + w(zeta-bar) with w(z) = g(1/z) - 1/z

    The krzyz bound is the seam sup of |w'|.  Since w is built from g,
    |w'(1/zeta)| = |zeta|^2 |g'(zeta) - 1| holds by construction, so that
    sup is also the M_krzyz_decay criterion's on the circle.
    """
    if which not in ("thm4", "cor1", "krzyz"):
        raise ValueError(f"unknown exterior extension {which!r}")
    exterior_lead(g, unimodular=which == "cor1")
    if which == "krzyz":
        w = _recover_w(g)
        w0 = eval_map(w, 0j)
        if is_infinity(w0) or abs(w0) > TAU_JET:
            warnings.warn(
                f"w(0) = {w0} is nonzero: the glued map need not extend the "
                "chain construction (formula-only mode)",
                stacklevel=2,
            )
        claimed = seam_bound(w, "krzyz_w")

        def outer(Z):
            return Z + eval_array(w, np.conj(Z))

        params = (("w", print_expr(w)),)
        outer_id = "conjugate_shift"
    else:
        sign = 1.0 if which == "thm4" else -1.0
        claimed = seam_bound(g, "M_Ug" if which == "thm4" else "M_corollary1")

        def outer(Z):
            Zb = np.conj(Z)
            GW = eval_array(g, 1.0 / Zb)
            return GW / (1.0 + sign * (1.0 / Z - Zb) * GW)

        params = ()
        outer_id = "inverse_reflection_plus" if which == "thm4" else "inverse_reflection_minus"
    return ExtendedMap(
        inner=g,
        inner_region="exterior",
        outer_id=outer_id,
        outer_params=params,
        outer=outer,
        special_points=((INFINITY, INFINITY),),
        claimed_k=claimed,
    )


# ---------------------------------------------------------------------------
# chain-driven extension


def becker_extend(chain: LoewnerChainSpec) -> ExtendedMap:
    """Extend the chain's time-zero map by F(z) = f(z/|z|, log |z|).

    The chain is swept through check_theorem_A first and rejected unless it
    passes, since only a verified chain implies an extension.
    """
    if not check_theorem_A(chain).passed:
        raise PreconditionError(
            f"{chain.kind} chain fails verification; no extension is implied"
        )
    inner = time_zero_map(chain)

    def outer(Z):
        R = np.abs(Z)
        return chain_eval_array(chain, Z / R, np.log(R))

    return ExtendedMap(
        inner=inner,
        inner_region="disc",
        outer_id="chain_radial",
        outer_params=(
            ("kind", chain.kind),
            ("base", print_expr(chain.base_map)),
        ),
        outer=outer,
        special_points=((INFINITY, INFINITY),),
        claimed_k=chain.claimed_k,
    )


# ---------------------------------------------------------------------------
# theorem routing


def build_extension(theorem: str, f: Node, params: Dict[str, complex]) -> ExtendedMap:
    """Route a map to the extension construction the theorem flag names."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}")
    if theorem == "t2":
        return ext_thm2(f)
    if theorem == "t3":
        return ext_huang_owa(f)
    if theorem == "t4":
        return ext_exterior(f, "thm4")
    if theorem == "cor1":
        return ext_exterior(f, "cor1")
    if theorem == "krzyz":
        return ext_exterior(f, "krzyz")
    if theorem == "brown":
        return ext_brown(f, params.get("lam", 1.0 + 0j))
    if theorem == "t5":
        return ext_thm5(f)
    if theorem == "convex":
        return ext_mobius_convex(f)
    profile = RadialProfile(abs(params.get("M", 2.0 + 0j)))
    if theorem == "psi":
        return ext_radial_psi(f, profile, params.get("p"))
    # t1 splits on whether the small functional vanishes identically
    a2 = _mobius_a2(f)
    if a2 is None or abs(a2) < TAU_NORMALIZED:
        return ext_huang_owa(f)
    if abs(abs(a2) - 1.0) <= TAU_JET:
        return ext_radial_psi(f, profile)
    return ext_mobius_convex(f)
