"""Finite-difference complex dilatation of extended maps.

Wirtinger derivatives come from a 4-point stencil with relative step; the
dilatation mu = F_zbar / F_z is measured at given sample points (the
pipeline passes grids.field_blocks, both sides of the unit circle) and on a
chart around infinity, then certified against the bound the builder claimed.
A field is never kept point by point: the points arrive as evaluation
blocks (one flat array is one block), and each block is reduced as it is
made, to the four numbers certification reads.  The holes around special
points are masks: their points are evaluated with their block and left out
of the reduction.  So a sweep holds a block, never the grid: under
tracemalloc, run_verify at 800x800 peaks at 3.1-4.2 MiB.  Everything here
treats the map as a black-box evaluator: the point is to confirm the closed
forms by an estimator that knows nothing about them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from .classifiers import POLE_EXCLUSION
from .extensions import TAU_SEAM, ExtendedMap, seam_gap
from .grids import CHART_RADIUS, polar, seam_circle
from .sphere import is_infinity

# certify_qc: the sampled sup |mu| may exceed the claimed k by this much
TAU_MU = 1e-3
# _field_on_points: a point with |F_z| below this has no usable F_z
DEGENERATE_TOL = 1e-12
# _wirtinger_block: stencil step relative to max(1, |z|)
H_SCALE = 1e-5


class DegenerateFieldError(ArithmeticError):
    """Too many stencil points with vanishing F_z to trust the field."""


@dataclass(frozen=True)
class BeltramiField:
    """A field reduced over its points: sup |mu| and its first witness, the
    least finite Jacobian proxy |F_z|^2 - |F_zbar|^2, the degenerate count."""

    sup_mu: float
    argmax_point: complex
    jacobian_min: float
    degenerate_count: int
    n_points: int


@dataclass(frozen=True)
class VerificationVerdict:
    passed: bool
    mu_ok: bool
    orientation_ok: bool
    seam_ok: bool
    sup_mu: float
    claimed_k: float
    jacobian_min: float
    seam_sup_abs: float
    seam_sup_chordal: float
    degenerate_count: int
    n_points: int


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


# ---------------------------------------------------------------------------
# fields


def _exclusion_zones(em: ExtendedMap):
    points = [complex(s) for s, _ in em.special_points if not is_infinity(s)]
    return [(p, POLE_EXCLUSION) for p in points]


def _field_on_points(F, blocks: Iterable[np.ndarray], zones=()) -> BeltramiField:
    """Stencil over each evaluation block, reduced as it is made, leaving out
    the points in the (center, radius) zones: degeneracy count, first
    argmax of |mu| and least finite Jacobian proxy."""
    n_points = n_deg = 0
    best, best_point, jac_min = -math.inf, 0j, math.inf
    for Z in blocks:
        hole = np.zeros(Z.shape, dtype=bool)
        for center, radius in zones:
            hole |= np.abs(Z - center) < radius
        fz, fzb = _wirtinger_block(F, Z)
        abs_fz = np.abs(fz)
        degenerate = ~(np.isfinite(fz) & np.isfinite(fzb) & (abs_fz >= DEGENERATE_TOL)) & ~hole
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            absmu = np.abs(fzb / fz)
            jac = abs_fz**2 - np.abs(fzb) ** 2
        # a usable point's |mu| is never NaN; degenerate points rank below
        # every usable one, and holes below them
        absmu[degenerate] = -1.0
        absmu[hole] = -np.inf
        i = int(np.argmax(absmu))
        if absmu[i] > best:
            best, best_point = float(absmu[i]), complex(Z[i])
        jac_min = min(jac_min, float(np.min(jac[np.isfinite(jac) & ~hole], initial=np.inf)))
        n_points += Z.size - int(np.count_nonzero(hole))
        n_deg += int(np.count_nonzero(degenerate))

    if n_points and n_deg > max(1, n_points // 100):
        raise DegenerateFieldError(
            f"{n_deg}/{n_points} stencil points have no usable F_z"
        )
    return BeltramiField(
        sup_mu=max(best, 0.0) if best < math.inf else 0.0,
        argmax_point=best_point,
        jacobian_min=jac_min,
        degenerate_count=n_deg,
        n_points=n_points,
    )


def beltrami_field(em: ExtendedMap, points: np.ndarray | Iterable[np.ndarray]) -> BeltramiField:
    """Dilatation sweep over the sample points, with holes around special
    points.  The points come as evaluation blocks, as grids.field_blocks
    yields them; one flat array is evaluated as one block, so the sweep
    holds whole-array temporaries."""
    blocks = [points] if isinstance(points, np.ndarray) else points
    return _field_on_points(em.evaluate_array, blocks, _exclusion_zones(em))


def infinity_chart_field(em: ExtendedMap) -> BeltramiField:
    """Dilatation near infinity through the w = 1/z chart.

    When the map fixes infinity the dilatation of 1/F(1/w) is measured; both
    inversions are conformal, so |mu| carries over.  When F(infinity) is
    finite only the pre-composition F(1/w) is inverted away.
    """
    fixes_inf = any(
        is_infinity(src) and is_infinity(img) for src, img in em.special_points
    )
    radii = np.linspace(1.0 / (5.0 * CHART_RADIUS), 1.0 / CHART_RADIUS, 12)
    W = polar(radii, seam_circle(48))

    if fixes_inf:

        def F(Wv):
            return 1.0 / em.evaluate_array(1.0 / Wv)

    else:

        def F(Wv):
            return em.evaluate_array(1.0 / Wv)

    return _field_on_points(F, [W])


def certify_qc(
    em: ExtendedMap,
    points: np.ndarray | Iterable[np.ndarray],
    claimed_k: Optional[float] = None,
) -> VerificationVerdict:
    """Check the claimed dilatation bound, orientation, and the seam.

    The field runs over the sample points (grids.field_blocks in the
    pipeline; one flat array is one block, as in beltrami_field) and the
    infinity chart.  The sampled sup is a lower bound for the essential sup:
    a pass means no violation was found at these points, nothing stronger.
    """
    k = em.claimed_k if claimed_k is None else float(claimed_k)
    field = beltrami_field(em, points)
    chart = infinity_chart_field(em)
    sup_mu = max(field.sup_mu, chart.sup_mu)
    jac_min = min(field.jacobian_min, chart.jacobian_min)
    seam_abs, seam_chordal = seam_gap(em)
    mu_ok = sup_mu <= k + TAU_MU
    orientation_ok = jac_min > 0
    seam_ok = seam_chordal <= TAU_SEAM
    return VerificationVerdict(
        passed=mu_ok and orientation_ok and seam_ok,
        mu_ok=mu_ok,
        orientation_ok=orientation_ok,
        seam_ok=seam_ok,
        sup_mu=sup_mu,
        claimed_k=k,
        jacobian_min=jac_min,
        seam_sup_abs=seam_abs,
        seam_sup_chordal=seam_chordal,
        degenerate_count=field.degenerate_count + chart.degenerate_count,
        n_points=field.n_points + chart.n_points,
    )

