"""Sampling grids on the disc, the exterior disc, and both sides of the seam,
plus the seam circle |z| = 1 and the NaN-tolerant sup taken over it.

Every grid is one ``polar`` product returned flat, radius-major: point
j * n_theta + k is radius j at angle k.  Criteria over open regions approach
the boundary without touching it: disc radii stop at ``R_DISC`` = 0.999,
exterior radii start at ``R_EXT_LO`` = 1.001.  The dilatation field samples
``field_blocks``: the disc side then the exterior side, each kept
``SEAM_MARGIN`` off the circle.  When a supremum is taken over a grid, ties
resolve to the first point in that order, so sweeps are deterministic.

The verify sweeps never hold a whole grid.  ``disc_blocks``,
``exterior_blocks`` and ``field_blocks`` yield each side's points in grid
order, in the evaluation blocks that ``blocks(n)`` cuts a side of n points
into; ``polar_blocks`` slices each block from the product of the rings it
touches, so every point has its bits in ``polar``.  A sweep holds one block,
its rings and the temporaries of one block: a few MiB at any grid size, as
long as one ring holds at most ``BLOCK_POINTS`` points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

R_DISC = 0.999
R_EXT_LO = 1.001
R_EXT_HI = 10.0
N_SEAM = 4096
# the dilatation field's stencils stay this far off the seam, out to the
# radius where the chart at infinity takes over
SEAM_MARGIN = 1e-4
CHART_RADIUS = 10.0

# hard cap so a typo in a flag cannot allocate tens of gigabytes
MAX_GRID_POINTS = 1 << 24
# Large evaluations run one block of at least BLOCK_POINTS points at a time,
# and no block crosses the seam |z| = 1.  The floor is 2**14 complex values
# (256 KiB): numpy rewrites `a * <temporary>` as `temporary *= a` only for
# arrays that large, and complex multiplication is not bitwise commutative,
# so a smaller block would round differently from one call on the whole
# side.  ExtendedMap.evaluate_array hands each branch the points on its own
# side, so a block across the seam would give a branch fewer points than its
# side holds; blocks per side keep every branch call on the same side of the
# floor as a whole-side call, and a side below the floor stays whole.  The
# sweeps mask their exclusion holes after evaluation, as cutting them out
# first could take a side below the floor.  The colour stage of
# render_domaincolor is elementwise, so its blocks only borrow the size.
#
# The floor cuts both ways: stencil blocks stay at or above it, and the
# Loewner chain sweeps stay below it.  They stack their t samples as rows
# against the flattened z grid, at most CHAIN_BATCH_POINTS points per call,
# and reduce each batch at once.  A batch of several rows and the one-t
# calls it stands for all sit below the floor, so they round alike; a grid
# larger than one batch gets one t per call.  The batch stays at 2**12
# points (64 KiB of complex values) because a 2**13-point batch makes
# 128 KiB temporaries, which reach glibc's default 128 KiB mmap and trim
# thresholds: without a mallopt setting each batch is handed back to the
# kernel and faulted in again, and the chain checks ran slower than at
# 2**12.  The subordination test does not batch: it puts its 64 query
# points against the 1024-point curve in one call, whose (64, 1025) arrays
# are booleans (64 KiB each, under the same thresholds), with complex
# arithmetic only on the few edges that straddle a query's height.
BLOCK_POINTS = 2**14
CHAIN_BATCH_POINTS = 2**12


@dataclass(frozen=True)
class GridSpec:
    """Polar grid resolution: n_r radii by n_theta angles."""

    n_r: int = 96
    n_theta: int = 96

    def __post_init__(self) -> None:
        if self.n_r < 1 or self.n_theta < 1:
            raise ValueError("grid must have at least one radius and angle")
        self.require_cap(1)

    def require_cap(self, copies: int) -> None:
        """Refuse this grid when a pipeline that samples it copies times over
        would hold more than MAX_GRID_POINTS points."""
        n = self.n_r * self.n_theta
        if copies * n > MAX_GRID_POINTS:
            sampled = f" ({copies} x {n} points sampled)" if copies > 1 else ""
            raise ValueError(
                f"grid of {self.n_r}x{self.n_theta} exceeds the "
                f"{MAX_GRID_POINTS} point cap{sampled}"
            )

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse 'NRxNT' (as in '128x256')."""
        parts = text.lower().split("x")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ValueError(f"grid spec {text!r} is not of the form NRxNT")
        return cls(int(parts[0]), int(parts[1]))


def _angles(n_theta: int) -> np.ndarray:
    return np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)


def _rays(n_theta: int) -> np.ndarray:
    return np.exp(1j * _angles(n_theta))


def _disc_radii(spec: GridSpec, r_max: float) -> np.ndarray:
    return (np.arange(1, spec.n_r + 1) / spec.n_r) * r_max


def polar(radii: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """The points r * u for r in radii and u in rays, flat and radius-major."""
    return (radii[:, None] * rays[None, :]).ravel()


def polar_blocks(radii: np.ndarray, rays: np.ndarray) -> Iterator[np.ndarray]:
    """polar(radii, rays) in the cuts of blocks(n), each block sliced from
    the polar product of the rings it touches, so every point has the bits it
    has in polar; consecutive blocks within the same rings share one product."""
    m, rings = rays.size, None
    for lo, hi in blocks(radii.size * m):
        j, k = lo // m, -(-hi // m)
        if rings != (j, k):
            rings, product = (j, k), polar(radii[j:k], rays)
        yield product[lo - j * m : hi - j * m]


def disc_grid(spec: GridSpec, r_max: float = R_DISC) -> np.ndarray:
    """Points r_j e^{i theta_k} with r_j = j/n_r * r_max, j = 1..n_r."""
    return polar(_disc_radii(spec, r_max), _rays(spec.n_theta))


def disc_blocks(spec: GridSpec) -> Iterator[np.ndarray]:
    """disc_grid(spec) in the blocks of polar_blocks."""
    return polar_blocks(_disc_radii(spec, R_DISC), _rays(spec.n_theta))


def exterior_blocks(spec: GridSpec) -> Iterator[np.ndarray]:
    """Exterior points on geometrically spaced radii in [R_EXT_LO, R_EXT_HI],
    in the blocks of polar_blocks.

    Geometric spacing concentrates samples near the seam, where the
    exterior functionals peak.  The chart point at infinity is handled
    separately by callers (it has no finite coordinates).
    """
    radii = np.geomspace(R_EXT_LO, R_EXT_HI, spec.n_r)
    return polar_blocks(radii, _rays(spec.n_theta))


def field_blocks(spec: GridSpec) -> Iterator[np.ndarray]:
    """The dilatation field's 2 * n_r * n_theta points in the blocks of
    polar_blocks: n_r radii evenly in [0.05, 1 - SEAM_MARGIN], then n_r in
    [1 + SEAM_MARGIN, CHART_RADIUS], each on seam_circle(n_theta)."""
    rays = seam_circle(spec.n_theta)
    yield from polar_blocks(np.linspace(0.05, 1.0 - SEAM_MARGIN, spec.n_r), rays)
    yield from polar_blocks(np.linspace(1.0 + SEAM_MARGIN, CHART_RADIUS, spec.n_r), rays)


def seam_circle(n: int = N_SEAM) -> np.ndarray:
    """n points on |z| = 1 at angles 2 pi (k + 1/2) / n."""
    # half-step offset: boundary poles of the example maps sit at grid-round
    # angles like 0, which an unshifted circle would hit exactly
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return np.exp(1j * theta)


def seam_sup(values: np.ndarray) -> float:
    """Max modulus over seam samples.

    Criterion functionals extend continuously across isolated boundary poles
    of the map, but raw grid evaluation yields nan there; a handful of such
    artifacts is skipped, while widespread blowup reports inf honestly.
    """
    vals = np.abs(np.asarray(values))
    finite = np.isfinite(vals)
    bad = vals.size - int(np.sum(finite))
    if bad == 0:
        return float(np.max(vals))
    if bad <= max(2, vals.size // 500):
        return float(np.max(vals[finite]))
    return math.inf


def blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) bounds that cut the run [0, n) into n // BLOCK_POINTS
    near-equal blocks; a run shorter than 2 * BLOCK_POINTS stays whole, so
    every block holds at least BLOCK_POINTS points unless the run itself is
    shorter."""
    k = max(1, n // BLOCK_POINTS)
    q, r = divmod(n, k)
    edges = [i * q + min(i, r) for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))
