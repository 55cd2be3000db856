"""The streamed verify sweeps against the whole-array code they replaced.

check_class and beltrami_field take their grids as ring chunks and reduce
grids.side_blocks of them block by block.  Each case below compares their
results, through the repr of every field, with an inline copy of the code
that held the whole grid, and checks the block layout side_blocks made.
"""

import math
import warnings

import numpy as np
import pytest

from qcext.beltrami import (
    DEGENERATE_TOL,
    DegenerateFieldError,
    BeltramiField,
    _apply_zones,
    _exclusion_zones,
    _wirtinger_block,
    beltrami_field,
)
from qcext.classifiers import (
    POLE_EXCLUSION,
    TAU_CLASS,
    ClassParams,
    ClassVerdict,
    _chart_value,
    check_class,
    criterion_field,
)
from qcext.corpus import get_builtin
from qcext.extensions import ExtendedMap, build_extension
from qcext.grids import (
    BLOCK_POINTS,
    CHART_RADIUS,
    R_DISC,
    R_EXT_HI,
    R_EXT_LO,
    SEAM_MARGIN,
    GridSpec,
    blocks,
    disc_chunks,
    exterior_chunks,
    field_chunks,
    polar,
    seam_circle,
    side_blocks,
)
from qcext.mapexpr import parse_map
from qcext.sphere import INFINITY

EXTERIOR = ("M_Ug", "M_corollary1", "M_krzyz_decay")

# ---------------------------------------------------------------------------
# the whole-array code, as it was before the sweeps streamed


def _old_rays(n_theta):
    return np.exp(1j * np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False))


def _old_class_grid(grid, exterior):
    if exterior:
        radii = np.geomspace(R_EXT_LO, R_EXT_HI, grid.n_r)
    else:
        radii = (np.arange(1, grid.n_r + 1) / grid.n_r) * R_DISC
    return polar(radii, _old_rays(grid.n_theta))


def _old_field_points(grid):
    rays = seam_circle(grid.n_theta)
    return np.concatenate(
        [
            polar(np.linspace(0.05, 1.0 - SEAM_MARGIN, grid.n_r), rays),
            polar(np.linspace(1.0 + SEAM_MARGIN, CHART_RADIUS, grid.n_r), rays),
        ]
    )


def _old_check_class(m, which, params, grid):
    exterior = which in EXTERIOR
    bound = params.lam if which in ("U_lambda", "V_p_lambda") else params.k
    Z = _old_class_grid(grid, exterior)
    vals = criterion_field(m, which, Z, params)
    vals = np.where(np.isfinite(vals), vals, np.inf)
    if which == "V_p_lambda":
        vals = np.where(np.abs(Z - params.p) < POLE_EXCLUSION, -np.inf, vals)
    chart_val = _chart_value(m, which) if exterior else None
    i = int(np.argmax(vals))
    worst_value = float(vals[i])
    worst_point = complex(Z[i])
    n = int(np.sum(np.isfinite(vals) | (vals == np.inf)))
    if chart_val is not None:
        n += 1
        if chart_val > worst_value:
            worst_value = float(chart_val)
            worst_point = INFINITY
    return ClassVerdict(
        class_name=which,
        holds=bool(worst_value <= bound + TAU_CLASS),
        worst_point=worst_point,
        worst_value=worst_value,
        margin=float(bound - worst_value),
        bound=float(bound),
        n_samples=n,
    )


def _old_blocks(lo, hi):
    n = max(1, (hi - lo) // BLOCK_POINTS)
    q, r = divmod(hi - lo, n)
    edges = [lo + i * q + min(i, r) for i in range(n + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _old_field(em, points):
    points = _apply_zones(points, _exclusion_zones(em))
    inside = np.abs(points) < 1.0
    cuts = [0, *(np.flatnonzero(inside[1:] != inside[:-1]) + 1).tolist(), points.size]
    runs = [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]

    def reduce_block(lo, hi):
        fz, fzb = _wirtinger_block(em.evaluate_array, points[lo:hi])
        abs_fz = np.abs(fz)
        degenerate = ~(np.isfinite(fz) & np.isfinite(fzb)) | (abs_fz < DEGENERATE_TOL)
        n_deg = int(degenerate.sum())
        num, den = fzb, fz
        if n_deg:
            num, den = np.where(degenerate, np.nan, fzb), np.where(degenerate, 1.0, fz)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            absmu = np.abs(num / den)
            jac = abs_fz**2 - np.abs(fzb) ** 2
        if n_deg:
            absmu = np.where(degenerate, -np.inf, absmu)
        i = int(np.argmax(absmu))
        jac_min = float(np.min(jac[np.isfinite(jac)], initial=np.inf))
        return n_deg, lo + i, float(absmu[i]), jac_min

    parts = [reduce_block(*b) for lo, hi in runs for b in _old_blocks(lo, hi)]
    n_deg = sum(p[0] for p in parts)
    if points.size and n_deg > max(1, points.size // 100):
        raise DegenerateFieldError(f"{n_deg}/{points.size} stencil points have no usable F_z")
    idx, best = 0, -math.inf
    for _, i, v, _ in parts:
        if (math.isnan(v) and not math.isnan(best)) or v > best:
            idx, best = i, v
    return BeltramiField(
        sup_mu=best if math.isfinite(best) else 0.0,
        argmax_point=complex(points[idx]) if points.size else 0j,
        jacobian_min=min((p[3] for p in parts), default=math.inf),
        degenerate_count=n_deg,
        n_points=int(points.size),
    )


# ---------------------------------------------------------------------------
# checks


def _assert_layout(chunks, points):
    """side_blocks(chunks) holds points in order, each side's run cut into
    blocks of BLOCK_POINTS with the remainder folded into the last, as many
    as grids.blocks cuts the run into."""
    got = list(side_blocks(chunks))
    assert np.concatenate(got).tobytes() == points.tobytes()
    inside = np.abs(points) < 1.0
    cuts = [0, *(np.flatnonzero(inside[1:] != inside[:-1]) + 1).tolist(), points.size]
    want = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n = len(blocks(lo, hi))
        want += [BLOCK_POINTS] * (n - 1) + [hi - lo - (n - 1) * BLOCK_POINTS]
    assert [b.size for b in got] == want


def _same_class(m, which, params, grid):
    exterior = which in EXTERIOR
    _assert_layout(
        exterior_chunks(grid) if exterior else disc_chunks(grid),
        _old_class_grid(grid, exterior),
    )
    got = check_class(m, which, params, grid)
    assert repr(got) == repr(_old_check_class(m, which, params, grid))
    return got


def _same_field(em, grid):
    zones = _exclusion_zones(em)
    kept = _apply_zones(_old_field_points(grid), zones)
    _assert_layout((_apply_zones(c, zones) for c in field_chunks(grid)), kept)
    got = beltrami_field(em, field_chunks(grid))
    assert repr(got) == repr(_old_field(em, _old_field_points(grid)))
    return got


def _builtin(bid):
    ex = get_builtin(bid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        em = build_extension(ex.theorem, parse_map(ex.text()), ex.params())
    return ex, em


# 100 x 120 = 12,000 points a side: between BLOCK_POINTS / 2 and BLOCK_POINTS
SHORT = GridSpec(100, 120)
# 129 x 256 = 33,024 points a side: just over 2 * BLOCK_POINTS
OVER_TWO = GridSpec(129, 256)


def test_case_grids_sit_where_they_claim():
    assert BLOCK_POINTS // 2 < SHORT.n_r * SHORT.n_theta < BLOCK_POINTS
    assert 2 * BLOCK_POINTS < OVER_TWO.n_r * OVER_TWO.n_theta < 2 * BLOCK_POINTS + 1024


@pytest.mark.parametrize("grid", [SHORT, OVER_TWO], ids=["short", "over_two"])
@pytest.mark.parametrize(
    "text, which",
    [
        ("z/(1+0.5*z^2)", "U_lambda"),
        ("z-0.25*z^2", "brown"),
        ("-z+0.3*z^2", "thm5"),
        ("z+0.12/z", "M_Ug"),
        ("z^2/(0.3-z)", "M_corollary1"),
        ("z+0.5/z", "M_krzyz_decay"),
    ],
)
def test_streamed_class_sweep_matches_the_whole_grid(grid, text, which):
    _same_class(parse_map(text), which, ClassParams(lam=0.5), grid)


@pytest.mark.parametrize("grid", [SHORT, OVER_TWO], ids=["short", "over_two"])
@pytest.mark.parametrize("bid", ["example2", "example3", "mobius", "krzyz", "exterior_u"])
def test_streamed_field_matches_the_whole_grid(grid, bid):
    _same_field(_builtin(bid)[1], grid)


@pytest.mark.parametrize("bid", ["p_mobius", "example1"])
def test_exclusion_zones_cut_points_inside_a_block(bid):
    # p_mobius holes its inner pole 0.5, example1 its boundary pole 1 from
    # both sides
    em = _builtin(bid)[1]
    grid = GridSpec(130, 260)
    points = _old_field_points(grid)
    kept = _apply_zones(points, _exclusion_zones(em))
    assert kept.size < points.size
    # the holes leave each side longer than 2 * BLOCK_POINTS, so they fall
    # inside the blocks rather than at the ends of a run
    assert np.count_nonzero(np.abs(kept) < 1.0) > 2 * BLOCK_POINTS
    assert np.count_nonzero(np.abs(kept) > 1.0) > 2 * BLOCK_POINTS
    field = _same_field(em, grid)
    assert field.n_points == kept.size


def test_v_p_lambda_zone_cuts_points_inside_a_block():
    ex = get_builtin("example3")
    params = ClassParams(lam=0.5, p=0.5)
    grid = GridSpec(260, 130)
    Z = _old_class_grid(grid, exterior=False)
    hole = np.flatnonzero(np.abs(Z - params.p) < POLE_EXCLUSION)
    # the hole holds points of both blocks
    assert hole.min() < BLOCK_POINTS <= hole.max()
    got = _same_class(parse_map(ex.text()), "V_p_lambda", params, grid)
    assert got.n_samples == Z.size - hole.size


def _flat_map(outer):
    # inner_region "exterior": every point inside the disc goes to outer
    return ExtendedMap(
        inner=parse_map("z"),
        inner_region="exterior",
        outer_id="test",
        outer_params=(),
        outer=outer,
        claimed_k=1.0,
    )


def test_degenerate_sample_in_a_later_block():
    grid = GridSpec(260, 130)
    points = _old_field_points(grid)
    bad = points[2 * BLOCK_POINTS + 77]
    assert abs(bad) < 1.0

    def outer(W):
        out = W + 0.25 * np.conj(W) ** 2
        return np.where(np.abs(W - bad) < 1e-4, np.nan, out)

    field = _same_field(_flat_map(outer), grid)
    assert field.degenerate_count == 1


def test_nan_criterion_sample_in_a_later_block():
    # a pole exactly on a grid point of the exterior sweep's second block
    grid = GridSpec(260, 130)
    Z = _old_class_grid(grid, exterior=True)
    i = 200 * grid.n_theta
    pole = float(Z[i].real)
    assert i > BLOCK_POINTS and Z[i] == pole
    g = parse_map(f"z+0.12/z+0.001/(z-{pole!r})")
    assert np.isnan(criterion_field(g, "M_Ug", Z[i : i + 1])[0])
    got = _same_class(g, "M_Ug", ClassParams(k=0.5), grid)
    assert got.worst_value == math.inf and got.worst_point == Z[i]


def test_class_argmax_tie_across_blocks_keeps_the_first_point():
    # |f' - 1| of the identity is 0 at every point: the first point wins
    grid = GridSpec(260, 130)
    got = _same_class(parse_map("z"), "brown", ClassParams(), grid)
    assert got.worst_value == 0.0
    assert got.worst_point == _old_class_grid(grid, exterior=False)[0]


def test_field_argmax_tie_across_blocks_keeps_the_first_point():
    # outer is odd, so |mu| at -z equals |mu| at z bit for bit; z and -z are
    # the two largest, one in the first block and one in the second
    def outer(W):
        c = np.conj(W)
        return W + 0.1 * (c * c * c)

    rng = np.random.default_rng(5)
    n = 2 * BLOCK_POINTS + 500
    points = 0.5 * np.exp(2j * np.pi * rng.random(n)) * rng.random(n)
    top = 0.9 * np.exp(0.7j)
    points[100], points[BLOCK_POINTS + 100] = top, -top
    em = _flat_map(outer)
    fz, fzb = _wirtinger_block(em.evaluate_array, np.array([top, -top]))
    assert np.abs(fzb / fz)[0] == np.abs(fzb / fz)[1]
    _assert_layout([points], points)
    got = beltrami_field(em, points)
    assert repr(got) == repr(_old_field(em, points))
    assert got.argmax_point == top
    # the same points streamed in uneven chunks
    chunks = np.split(points, [1000, 9000, 20000, 20001])
    _assert_layout(chunks, points)
    assert repr(beltrami_field(em, chunks)) == repr(got)
