import math
from dataclasses import asdict

import numpy as np
import pytest

from qcext.beltrami import (
    DEGENERATE_TOL,
    DegenerateFieldError,
    TAU_MU,
    beltrami_field,
    certify_qc,
    infinity_chart_field,
    _exclusion_zones,
    _wirtinger_block,
    wirtinger,
)
from qcext.classifiers import POLE_EXCLUSION
from qcext.corpus import get_builtin
from qcext.extensions import (
    ExtendedMap,
    RadialProfile,
    ext_exterior,
    ext_huang_owa,
    ext_mobius_convex,
    ext_radial_psi,
    ext_thm2,
    seam_gap,
)
from qcext.grids import (
    CHART_RADIUS,
    MAX_GRID_POINTS,
    SEAM_MARGIN,
    GridSpec,
    field_blocks,
    polar,
    seam_circle,
)
from qcext.mapexpr import eval_array, parse_map

EX1 = parse_map("z/((1-z)*(1-0.5*z))")
EX2 = parse_map("z/(1+0.5*z^2)")
KOEBE = parse_map("z/(1-z)^2")
IDENTITY = parse_map("z")
G_KRZYZ = parse_map("z+0.5/z")


def _disc(n_r, n_theta, lo=0.05, hi=1.0 - SEAM_MARGIN):
    return polar(np.linspace(lo, hi, n_r), seam_circle(n_theta))


def _exterior(n_r, n_theta, lo=1.0 + SEAM_MARGIN, hi=CHART_RADIUS):
    return polar(np.linspace(lo, hi, n_r), seam_circle(n_theta))


def _field_points(spec):
    return np.concatenate(list(field_blocks(spec)))


def _kept(em, points):
    """The points outside every exclusion zone of em."""
    keep = np.ones(points.shape, dtype=bool)
    for center, radius in _exclusion_zones(em):
        keep &= np.abs(points - center) >= radius
    return points[keep]


def _pointwise(em, points):
    """(points, mu, jacobian proxy) at the points beltrami_field keeps, from
    one stencil call on all of them."""
    points = _kept(em, points)
    fz, fzb = _wirtinger_block(em.evaluate_array, points)
    return points, fzb / fz, np.abs(fz) ** 2 - np.abs(fzb) ** 2


# ---------------------------------------------------------------------------
# stencil


def test_wirtinger_conjugate():
    fz, fzb = wirtinger(np.conj, 0.4 + 0.2j, 1e-5)
    assert abs(fz) < 1e-9
    assert abs(fzb - 1) < 1e-9


def test_wirtinger_square():
    fz, fzb = wirtinger(lambda z: z * z, 1 + 1j, 1e-5)
    assert abs(fz - (2 + 2j)) < 1e-9
    assert abs(fzb) < 1e-12


def test_wirtinger_on_extension_interior_branch():
    em = ext_exterior(G_KRZYZ, "krzyz")
    fz, fzb = wirtinger(em.evaluate_array, 0.3 + 0j, 1e-5)
    # piecewise-linear branch, so the stencil is exact
    assert abs(fz - 1.0) < 1e-10
    assert abs(fzb - 0.5) < 1e-10


def test_wirtinger_order_at_least_1_9():
    # holomorphic samples: the true zbar-derivative is 0, so the stencil
    # error itself is the observable
    pts = (0.3 + 0.2j, -0.1 + 0.45j, 0.5 - 0.3j)
    for f in (KOEBE, EX1):
        for z in pts:
            errs = []
            for h in (1e-3, 1e-4):
                _, fzb = wirtinger(lambda w, f=f: eval_array(f, w), z, h)
                errs.append(abs(fzb))
            order = math.log10(errs[0] / errs[1])
            assert order >= 1.9, (f, z, errs)


# ---------------------------------------------------------------------------
# grids


def test_grid_rejects_budget_blowout():
    # within the cap on its own, over it on both sides of the seam
    spec = GridSpec(1 << 12, 1 << 12)
    assert 2 * spec.n_r * spec.n_theta > MAX_GRID_POINTS
    with pytest.raises(ValueError, match="grid of 4096x4096 exceeds"):
        spec.require_cap(2)


def test_grid_points_avoid_seam():
    r_both = np.abs(_field_points(GridSpec(8, 8)))
    r_in, r_out = r_both[:64], r_both[64:]
    assert r_in.max() <= 1.0 - 1e-4 + 1e-15
    assert r_out.min() >= 1.0 + 1e-4 - 1e-15
    assert not np.any((r_both > 1.0 - 1e-4 + 1e-15) & (r_both < 1.0 + 1e-4 - 1e-15))


def test_grid_exclusions_punch_holes():
    # the interior pole 0.5 is a special point; at 64x64 no grid point comes
    # within POLE_EXCLUSION of it, so a finer grid is needed to test the hole
    em = ext_radial_psi(parse_map("0.5*z/(0.5-z)"), RadialProfile(2.0), 0.5)
    points = _disc(96, 96)
    outside = np.abs(points - 0.5) >= POLE_EXCLUSION
    assert not np.all(outside)
    assert beltrami_field(em, points).n_points == np.count_nonzero(outside)


# ---------------------------------------------------------------------------
# fields


def test_identity_field_is_flat():
    em = ext_huang_owa(IDENTITY)
    points = _field_points(GridSpec(24, 24))
    field = beltrami_field(em, points)
    assert field.sup_mu <= 1e-9
    assert field.degenerate_count == 0
    assert field.jacobian_min > 0
    assert np.all(_pointwise(em, points)[2] > 0)


def test_krzyz_field_constant_half():
    em = ext_exterior(G_KRZYZ, "krzyz")
    _, mu, _ = _pointwise(em, _disc(24, 24))
    assert np.max(np.abs(np.abs(mu) - 0.5)) < 1e-6
    outer = beltrami_field(em, _exterior(24, 24))
    assert outer.sup_mu < 1e-6
    assert abs(beltrami_field(em, field_blocks(GridSpec())).sup_mu - 0.5) < 1e-6


def test_radial_field_matches_profile_law():
    em = ext_radial_psi(parse_map("z/(1-z)"), RadialProfile(2.0))
    points = _exterior(20, 24, 1.01, 2.5)
    kept, mu, _ = _pointwise(em, points)
    r = np.abs(kept)
    law = 1.0 / (4.0 * r - 1.0)
    assert np.max(np.abs(np.abs(mu) - law)) < 1e-5
    assert beltrami_field(em, points).sup_mu <= em.claimed_k + TAU_MU


def test_degenerate_field_rejected():
    em = ExtendedMap(
        inner=parse_map("z-z"),
        inner_region="disc",
        outer_id="flat",
        outer_params=(),
        outer=lambda Z: np.zeros_like(Z),
        special_points=(),
        claimed_k=0.0,
    )
    with pytest.raises(DegenerateFieldError):
        beltrami_field(em, _disc(8, 8))


def _whole_side_field(em, points):
    """Reference field: one stencil call per side of the seam, then the
    reduction over the whole grid at once, as the field once kept it."""
    n_disc = int(np.count_nonzero(np.abs(points) < 1.0))
    assert np.all(np.abs(points[n_disc:]) > 1.0)
    sides = [_wirtinger_block(em.evaluate_array, s) for s in (points[:n_disc], points[n_disc:])]
    fz = np.concatenate([s[0] for s in sides])
    fzb = np.concatenate([s[1] for s in sides])
    degenerate = ~(np.isfinite(fz) & np.isfinite(fzb)) | (np.abs(fz) < DEGENERATE_TOL)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu = np.where(degenerate, np.nan, fzb) / np.where(degenerate, 1.0, fz)
        jac = np.abs(fz) ** 2 - np.abs(fzb) ** 2
    absmu = np.where(degenerate, -np.inf, np.abs(mu))
    idx = int(np.argmax(absmu))
    sup = float(absmu[idx]) if math.isfinite(absmu[idx]) else 0.0
    jac_min = float(np.min(jac[np.isfinite(jac)], initial=np.inf))
    return sup, complex(points[idx]), jac_min, int(degenerate.sum())


@pytest.mark.parametrize(
    "em",
    [
        ext_mobius_convex(parse_map("z/(1-0.5*z)")),
        ext_huang_owa(parse_map(get_builtin("example3").text())),
        ext_thm2(parse_map(get_builtin("example2").text())),
    ],
    ids=["mobius_convex", "example3", "example2"],
)
def test_blocked_field_is_bit_identical_to_whole_sides(em):
    points = _field_points(GridSpec(400, 400))
    field = beltrami_field(em, points)
    assert beltrami_field(em, field_blocks(GridSpec(400, 400))) == field
    kept = _kept(em, points)
    sup, arg, jac_min, n_deg = _whole_side_field(em, kept)
    assert field.sup_mu == sup and field.argmax_point == arg
    assert field.jacobian_min == jac_min
    assert field.degenerate_count == n_deg


# ---------------------------------------------------------------------------
# infinity chart


def test_chart_field_when_infinity_fixed():
    chart = infinity_chart_field(ext_thm2(EX2))
    assert chart.sup_mu <= 0.5 + TAU_MU
    assert chart.jacobian_min > 0


def test_chart_field_when_infinity_moves():
    chart = infinity_chart_field(ext_huang_owa(EX1))
    assert chart.sup_mu <= 0.5 + TAU_MU


# ---------------------------------------------------------------------------
# certification


@pytest.mark.parametrize(
    "em",
    [
        ext_thm2(EX2),
        ext_mobius_convex(parse_map("z/(1-0.5*z)")),
        ext_exterior(G_KRZYZ, "krzyz"),
        ext_radial_psi(parse_map("z/(1-z)"), RadialProfile(2.0)),
    ],
    ids=["thm2", "mobius", "krzyz", "radial"],
)
def test_certify_corpus_extension_passes(em):
    verdict = certify_qc(em, field_blocks(GridSpec(48, 48)))
    assert verdict.passed
    assert verdict.mu_ok and verdict.orientation_ok and verdict.seam_ok
    assert verdict.sup_mu <= verdict.claimed_k + TAU_MU
    assert verdict.jacobian_min > 0


def test_certify_koebe_reflection_blows_past_09():
    # not a class member; the reflection formula degrades at the seam
    em = ext_huang_owa(KOEBE)
    points = _exterior(64, 64, 1.001, 1.01)
    field = beltrami_field(em, points)
    assert field.sup_mu > 0.9
    verdict = certify_qc(em, points, claimed_k=0.9)
    assert not verdict.mu_ok and not verdict.passed


def test_certify_flags_injected_seam_fault():
    base = ext_thm2(EX2)
    fault = ExtendedMap(
        inner=EX2,
        inner_region="disc",
        outer_id="fault",
        outer_params=(),
        outer=lambda Z: base.outer(Z) + 0.1,
        special_points=base.special_points,
        claimed_k=base.claimed_k,
    )
    sup_abs, _ = seam_gap(fault)
    assert abs(sup_abs - 0.1) < 1e-6
    verdict = certify_qc(fault, field_blocks(GridSpec(16, 16)))
    assert not verdict.seam_ok and not verdict.passed
    assert verdict.mu_ok  # the shift leaves derivatives alone


def test_verdict_summary_shape():
    # run_verify stores the verdict's fields as the report's beltrami section
    em = ext_mobius_convex(parse_map("z/(1-0.5*z)"))
    s = asdict(certify_qc(em, field_blocks(GridSpec(16, 16))))
    assert s["passed"] is True
    for key in ("sup_mu", "claimed_k", "jacobian_min", "seam_sup_chordal", "n_points"):
        assert key in s
