"""Finite-difference complex dilatation of extended maps.

Wirtinger derivatives come from a 4-point stencil with relative step; the
dilatation mu = F_zbar / F_z is measured on polar grids on both sides of the
unit circle and on a chart around infinity, then certified against the bound
the builder claimed.  Everything here treats the map as a black-box
evaluator: the point is to confirm the closed forms by an estimator that
knows nothing about them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .classifiers import POLE_EXCLUSION
from .extensions import TAU_SEAM, ExtendedMap, SeamGap, seam_gap
from .grids import MAX_GRID_POINTS, blocks, seam_circle
from .sphere import is_infinity

TAU_MU = 1e-3
DEGENERATE_TOL = 1e-12
H_SCALE = 1e-5
SEAM_MARGIN = 1e-4
CHART_RADIUS = 10.0

REGIONS = ("disc", "exterior_annulus", "sphere")


class DegenerateFieldError(ArithmeticError):
    """Too many stencil points with vanishing F_z to trust the field."""


@dataclass(frozen=True)
class FieldGrid:
    """Polar sampling layout for dilatation sweeps.

    region picks the side of the seam ("sphere" takes both).  r_bounds
    defaults leave a SEAM_MARGIN cushion so stencils never straddle the
    circle; given bounds are clamped to that cushion, and bounds that leave
    no radius on a side the region samples are refused.
    """

    region: str = "sphere"
    n_r: int = 96
    n_theta: int = 96
    r_bounds: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}")
        if self.n_r < 1 or self.n_theta < 1:
            raise ValueError("grid must be at least 1x1")
        sides = 2 if self.region == "sphere" else 1
        if sides * self.n_r * self.n_theta > MAX_GRID_POINTS:
            raise ValueError("grid exceeds the evaluation budget")
        if self.r_bounds is not None:
            lo, hi = self.r_bounds
            if not 0 < lo < hi:
                raise ValueError("r_bounds must be ordered and positive")
            if self.region != "exterior_annulus" and lo >= 1.0 - SEAM_MARGIN:
                raise ValueError("r_bounds leave no radius inside the seam")
            if self.region != "disc" and hi <= 1.0 + SEAM_MARGIN:
                raise ValueError("r_bounds leave no radius outside the seam")

    def points(self) -> np.ndarray:
        rays = seam_circle(self.n_theta)

        def polar(lo, hi):
            radii = np.linspace(lo, hi, self.n_r)
            return (radii[:, None] * rays[None, :]).ravel()

        if self.region == "disc":
            lo, hi = self.r_bounds or (0.05, 1.0 - SEAM_MARGIN)
            return polar(lo, min(hi, 1.0 - SEAM_MARGIN))
        if self.region == "exterior_annulus":
            lo, hi = self.r_bounds or (1.0 + SEAM_MARGIN, CHART_RADIUS)
            return polar(max(lo, 1.0 + SEAM_MARGIN), hi)
        lo, hi = self.r_bounds or (0.05, CHART_RADIUS)
        return np.concatenate(
            [polar(lo, 1.0 - SEAM_MARGIN), polar(1.0 + SEAM_MARGIN, hi)]
        )


@dataclass(frozen=True, eq=False)
class BeltramiField:
    grid: FieldGrid
    points: np.ndarray
    mu: np.ndarray
    jacobian_proxy: np.ndarray
    sup_mu: float
    argmax_point: complex
    degenerate_count: int

    @property
    def n_points(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class VerificationVerdict:
    passed: bool
    mu_ok: bool
    orientation_ok: bool
    seam_ok: bool
    sup_mu: float
    claimed_k: float
    jacobian_min: float
    seam: SeamGap
    degenerate_count: int
    n_points: int

    def summary(self) -> dict:
        """The report's beltrami section, with the seam gap flattened to its
        two sups."""
        out = asdict(self)
        seam = out.pop("seam")
        out["seam_sup_chordal"] = seam["sup_chordal"]
        out["seam_sup_abs"] = seam["sup_abs"]
        return out


# ---------------------------------------------------------------------------
# stencils


def wirtinger(F: Callable, z: complex, h: float) -> Tuple[complex, complex]:
    """(F_z, F_zbar) by central differences at step h: the stencil of
    _wirtinger_block at one point."""
    fz, fzb = _stencil(F, np.array([complex(z)]), h)
    return complex(fz[0]), complex(fzb[0])


def _wirtinger_block(F, Z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return _stencil(F, Z, H_SCALE * np.maximum(1.0, np.abs(Z)))


def _stencil(F, Z: np.ndarray, h) -> Tuple[np.ndarray, np.ndarray]:
    """(F_z, F_zbar) at each point of Z from the 4-point stencil of step h."""
    # each operand order below is part of the output bits (grids.BLOCK_POINTS)
    ih = 1j * h
    h4 = 4.0 * h
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1 = F(Z + h) - F(Z - h)
        d2 = F(Z + ih) - F(Z - ih)
        jd2 = 1j * d2
        fz = (d1 - jd2) / h4
        fzb = (d1 + jd2) / h4
    return fz, fzb


def _blocks(Z: np.ndarray) -> List[Tuple[int, int]]:
    """(start, stop) bounds of the stencil blocks: each run of points on one
    side of |z| = 1 is cut by grids.blocks, so no block crosses the seam."""
    inside = np.abs(Z) < 1.0
    cuts = [0, *(np.flatnonzero(inside[1:] != inside[:-1]) + 1).tolist(), Z.size]
    runs = [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
    return [b for lo, hi in runs for b in blocks(lo, hi)]


# ---------------------------------------------------------------------------
# fields


def _exclusion_zones(em: ExtendedMap):
    points = [complex(s) for s, _ in em.special_points if not is_infinity(s)]
    return [(p, POLE_EXCLUSION) for p in points]


def _apply_zones(points: np.ndarray, zones) -> np.ndarray:
    keep = np.ones(points.shape, dtype=bool)
    for center, radius in zones:
        keep &= np.abs(points - center) >= radius
    return points[keep]


def _field_on_points(grid: FieldGrid, F, points: np.ndarray) -> BeltramiField:
    """Blocked stencil and reduction: degeneracy count, mu, jacobian proxy and
    the first argmax of |mu|, with no full-size temporaries."""
    mu = np.empty(points.shape, dtype=np.complex128)
    jac = np.empty(points.shape, dtype=np.float64)

    def reduce_block(bounds):
        lo, hi = bounds
        fz, fzb = _wirtinger_block(F, points[lo:hi])
        abs_fz = np.abs(fz)
        degenerate = ~(np.isfinite(fz) & np.isfinite(fzb)) | (abs_fz < DEGENERATE_TOL)
        n_deg = int(degenerate.sum())
        num, den = fzb, fz
        if n_deg:
            num, den = np.where(degenerate, np.nan, fzb), np.where(degenerate, 1.0, fz)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(num, den, out=mu[lo:hi])
            np.subtract(abs_fz**2, np.abs(fzb) ** 2, out=jac[lo:hi])
        absmu = np.abs(mu[lo:hi])
        if n_deg:
            absmu = np.where(degenerate, -np.inf, absmu)
        i = int(np.argmax(absmu))
        return n_deg, lo + i, float(absmu[i])

    parts = [reduce_block(b) for b in _blocks(points)]

    n_deg = sum(p[0] for p in parts)
    if points.size and n_deg > max(1, points.size // 100):
        raise DegenerateFieldError(
            f"{n_deg}/{points.size} stencil points have no usable F_z"
        )
    # first occurrence of the largest |mu|, with NaN ranking first as in np.argmax
    idx, best = 0, -math.inf
    for _, i, v in parts:
        if (math.isnan(v) and not math.isnan(best)) or v > best:
            idx, best = i, v
    return BeltramiField(
        grid=grid,
        points=points,
        mu=mu,
        jacobian_proxy=jac,
        sup_mu=best if math.isfinite(best) else 0.0,
        argmax_point=complex(points[idx]) if points.size else 0j,
        degenerate_count=n_deg,
    )


def beltrami_field(em: ExtendedMap, grid: Optional[FieldGrid] = None) -> BeltramiField:
    """Dilatation sweep over the grid, with holes around special points."""
    grid = grid or FieldGrid()
    points = _apply_zones(grid.points(), _exclusion_zones(em))
    return _field_on_points(grid, em.evaluate_array, points)


def infinity_chart_field(em: ExtendedMap) -> BeltramiField:
    """Dilatation near infinity through the w = 1/z chart.

    When the map fixes infinity the dilatation of 1/F(1/w) is measured; both
    inversions are conformal, so |mu| carries over.  When F(infinity) is
    finite only the pre-composition F(1/w) is inverted away.
    """
    fixes_inf = any(
        is_infinity(src) and is_infinity(img) for src, img in em.special_points
    )
    grid = FieldGrid(
        "disc", 12, 48, r_bounds=(1.0 / (5.0 * CHART_RADIUS), 1.0 / CHART_RADIUS)
    )
    W = grid.points()
    zones = [
        (1.0 / complex(src), POLE_EXCLUSION / (5.0 * CHART_RADIUS))
        for src, _ in em.special_points
        if not is_infinity(src) and abs(complex(src)) > 1.0 / (2.0 * CHART_RADIUS)
    ]
    W = _apply_zones(W, zones)

    if fixes_inf:

        def F(Wv):
            return 1.0 / em.evaluate_array(1.0 / Wv)

    else:

        def F(Wv):
            return em.evaluate_array(1.0 / Wv)

    return _field_on_points(grid, F, W)


def certify_qc(
    em: ExtendedMap,
    claimed_k: Optional[float] = None,
    grid: Optional[FieldGrid] = None,
) -> VerificationVerdict:
    """Check the claimed dilatation bound, orientation, and the seam.

    The grid sup is a lower bound for the essential sup: a pass means no
    violation was found at this mesh, nothing stronger.
    """
    k = em.claimed_k if claimed_k is None else float(claimed_k)
    field = beltrami_field(em, grid)
    chart = infinity_chart_field(em)
    sup_mu = max(field.sup_mu, chart.sup_mu)
    jac_min = float(
        min(
            np.min(field.jacobian_proxy[np.isfinite(field.jacobian_proxy)], initial=np.inf),
            np.min(chart.jacobian_proxy[np.isfinite(chart.jacobian_proxy)], initial=np.inf),
        )
    )
    seam = seam_gap(em)
    mu_ok = sup_mu <= k + TAU_MU
    orientation_ok = jac_min > 0
    seam_ok = seam.sup_chordal <= TAU_SEAM
    return VerificationVerdict(
        passed=mu_ok and orientation_ok and seam_ok,
        mu_ok=mu_ok,
        orientation_ok=orientation_ok,
        seam_ok=seam_ok,
        sup_mu=sup_mu,
        claimed_k=k,
        jacobian_min=jac_min,
        seam=seam,
        degenerate_count=field.degenerate_count + chart.degenerate_count,
        n_points=field.n_points + chart.n_points,
    )

