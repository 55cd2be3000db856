import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcext.classifiers import (
    ClassParams,
    ClassVerdict,
    check_class,
    phi_from_map,
    seam_bound,
    u_expr,
    u_field,
)
from qcext.errors import PreconditionError
from qcext.extensions import _recover_w, ext_brown, ext_exterior, ext_thm2, ext_thm5
from qcext.grids import N_SEAM, GridSpec, seam_sup
from qcext.loewner import build_chain
from qcext.mapexpr import (
    Div,
    Node,
    Var,
    derive,
    eval_map,
    parse_map,
)
from qcext.sphere import INFINITY, is_infinity

EX2 = parse_map("z/(1+0.5*z^2)")
EX3 = parse_map("z/(1-(2.25)*z+0.5*z^2)")  # pole at 0.5, a2 = 2.25
KOEBE = parse_map("z/(1-z)^2")
IDENTITY = parse_map("z")
G_U = parse_map("z+0.12/z")
G_INV = parse_map("z^2/(0.3-z)")
NEG_DERIV = parse_map("-z+0.3*z^2")
G_KRZYZ = parse_map("z+0.5/z")


# ---------------------------------------------------------------------------
# U_f


def _u(f, z):
    """U_f(z) from a one-point u_field."""
    return complex(u_field(f, np.array([z]))[0])


def test_u_identity_vanishes():
    for z in (0.5 + 0j, -0.2 + 0.7j):
        assert abs(_u(IDENTITY, z)) < 1e-14


def test_u_example_quadratic():
    got = _u(EX2, 0.5 + 0j)
    assert abs(got - (-0.125)) < 1e-12


def test_u_koebe_is_minus_z_squared():
    got = _u(KOEBE, 0.3 + 0j)
    assert abs(got - (-0.09)) < 1e-12
    for z in (0.7j, -0.5 + 0.2j):
        assert abs(_u(KOEBE, z) + z * z) < 1e-12


def test_u_has_a_pole_at_a_zero_away_from_origin():
    m = parse_map("z*(1-z)")
    assert is_infinity(eval_map(u_expr(m), 1 + 0j))
    assert not np.isfinite(_u(m, 1 + 0j))


def test_u_at_infinity_of_exterior_map():
    # g = z + 0.12/z has leading coefficient 1, so U_g vanishes at infinity
    assert abs(eval_map(u_expr(G_U), INFINITY)) < 1e-14


def test_u_field_matches_scalar():
    Z = np.array([0.3 + 0.1j, -0.2 + 0.5j, 0.8 + 0j])
    U = u_field(EX2, Z)
    for z, u in zip(Z, U):
        assert abs(u - eval_map(u_expr(EX2), complex(z))) < 1e-12


# ---------------------------------------------------------------------------
# phi


def test_phi_of_example_family():
    f = parse_map("z/(1-(1.5)*z+0.5*z^2)")
    phi = phi_from_map(f)
    for z in (0.3 + 0j, 0.2 - 0.6j, -0.9j):
        assert abs(eval_map(phi, z) - 0.5 * z * z) < 1e-12


def test_phi_of_identity_vanishes():
    phi = phi_from_map(IDENTITY)
    for z in (0.5 + 0j, 0.1 + 0.9j):
        assert abs(eval_map(phi, z)) < 1e-12


def test_phi_of_pole_family():
    phi = phi_from_map(EX3)
    for z in (0.25 + 0j, -0.4 + 0.3j):
        assert abs(eval_map(phi, z) - 0.5 * z * z) < 1e-12


def test_phi_rejects_unnormalized():
    with pytest.raises(PreconditionError):
        phi_from_map(parse_map("2*z"))
    with pytest.raises(PreconditionError):
        phi_from_map(NEG_DERIV)


def _phi_identity_residual(f: Node, n_points: int = 1000) -> float:
    phi = phi_from_map(f)
    dphi = derive(phi)
    rng = np.random.default_rng(7)
    pts = 0.97 * np.sqrt(rng.uniform(0.01, 1, n_points)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, n_points)
    )
    worst = 0.0
    for z, u in zip(pts, u_field(f, pts)):
        z = complex(z)
        if not np.isfinite(u):
            continue
        rhs = eval_map(phi, z) - z * eval_map(dphi, z)
        worst = max(worst, abs(u - rhs))
    return worst


def test_u_equals_phi_minus_z_phi_prime():
    for f in (EX2, EX3, KOEBE, IDENTITY, parse_map("z/(1-(1.5)*z+0.5*z^2)")):
        assert _phi_identity_residual(f) < 1e-10


def test_u_equals_minus_z2_times_phi_over_z_derivative():
    for f in (EX2, KOEBE):
        phi = phi_from_map(f)
        quotient = Div(phi, Var())
        dq = derive(quotient)
        for z in (0.4 + 0.2j, -0.3 + 0.5j, 0.8j):
            lhs = _u(f, z)
            rhs = -z * z * eval_map(dq, z)
            assert abs(lhs - rhs) < 1e-10


def test_inversion_transfers_u_to_derivative():
    # g(zeta) = 1/f(1/zeta) for f = z/(1+0.5 z^2) gives g = zeta + 0.5/zeta
    g = parse_map("z+0.5/z")
    dg = derive(g)
    for zeta in (1.5 + 0j, 2 - 3j, -1.2 + 0.1j):
        lhs = eval_map(dg, zeta) - 1.0
        rhs = _u(EX2, 1.0 / zeta)
        assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# check_class


def test_class_u_lambda_example2_holds():
    v = check_class(EX2, "U_lambda", ClassParams(lam=0.5))
    assert v.holds
    assert abs(v.worst_value - 0.5) < 1e-9
    assert v.n_samples == 96 * 96


def test_class_u_lambda_koebe_fails():
    v = check_class(KOEBE, "U_lambda", ClassParams(lam=0.5))
    assert not v.holds
    assert abs(v.worst_value - 1.0) < 1e-9
    assert v.margin < 0


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.9, 0.999])
def test_class_koebe_fails_every_lambda(lam):
    v = check_class(KOEBE, "U_lambda", ClassParams(lam=lam))
    assert not v.holds


def test_class_u_lambda_rejects_interior_pole():
    with pytest.raises(PreconditionError):
        check_class(EX3, "U_lambda", ClassParams(lam=0.5))


def test_class_v_p_lambda_excludes_pole():
    v = check_class(EX3, "V_p_lambda", ClassParams(lam=0.5, p=0.5))
    assert v.holds
    assert abs(v.worst_value - 0.5) < 1e-9


def test_class_m_ug_identity():
    v = check_class(IDENTITY, "M_Ug", ClassParams(k=0.5))
    assert v.holds
    assert v.worst_value < 1e-12
    assert v.n_samples == 96 * 96 + 1  # grid plus the chart point


def test_class_m_ug_exterior_map():
    holds = check_class(G_U, "M_Ug", ClassParams(k=0.5))
    assert holds.holds
    assert 0.40 < holds.worst_value < 0.45
    fails = check_class(G_U, "M_Ug", ClassParams(k=0.3))
    assert not fails.holds


@pytest.mark.parametrize("text", ["z+1e200*z^2", "z^2+z", "2+1/z"])
def test_class_m_ug_reads_no_chart_value_off_a_simple_pole(text):
    # as M_corollary1 and M_krzyz_decay do; z+1e200*z^2 used to raise
    # "denominator is identically zero" from U_g's overflowed normal form;
    # 2+1/z, finite at infinity, has no pole there at all
    v = check_class(parse_map(text), "M_Ug", ClassParams(k=0.5), GridSpec(8, 8))
    assert v.worst_value == float("inf") and v.worst_point is INFINITY
    assert not v.holds


def test_class_corollary_functional():
    v = check_class(G_INV, "M_corollary1", ClassParams(k=0.6))
    assert v.holds
    assert 0.55 < v.worst_value <= 0.6
    assert not check_class(G_INV, "M_corollary1", ClassParams(k=0.5)).holds


def test_class_decay():
    v = check_class(G_U, "M_krzyz_decay", ClassParams(k=0.3))
    assert v.holds
    assert abs(v.worst_value - 0.12) < 1e-9


def test_class_brown():
    f = parse_map("z-0.25*z^2")
    v = check_class(f, "brown", ClassParams(k=0.5, brown_lambda=1.0 + 0j))
    assert v.holds
    assert abs(v.worst_value - 0.5 * 0.999) < 1e-9


def test_class_krzyz_w():
    w = parse_map("0.3*z")
    v = check_class(w, "krzyz_w", ClassParams(k=0.3))
    assert v.holds
    assert abs(v.worst_value - 0.3) < 1e-12


def test_class_thm5():
    v = check_class(NEG_DERIV, "thm5", ClassParams(k=0.6))
    assert v.holds
    assert abs(v.worst_value - 0.6 * 0.999) < 1e-9


def test_class_worst_point_is_in_region():
    v = check_class(KOEBE, "U_lambda", ClassParams(lam=0.5))
    assert abs(v.worst_point) <= 0.999 + 1e-12


def test_class_unknown_name():
    with pytest.raises(ValueError):
        check_class(IDENTITY, "no_such_class", ClassParams())


@given(
    st.floats(min_value=0.05, max_value=0.99),
    st.floats(min_value=0.005, max_value=0.2),
)
def test_class_verdict_monotone_in_bound(lam, bump):
    small = check_class(EX2, "U_lambda", ClassParams(lam=lam), GridSpec(16, 16))
    lam2 = min(lam + bump, 1.0)
    big = check_class(EX2, "U_lambda", ClassParams(lam=lam2), GridSpec(16, 16))
    if small.holds:
        assert big.holds


# ---------------------------------------------------------------------------
# params validation


def test_params_ranges():
    with pytest.raises(ValueError):
        ClassParams(lam=0.0)
    with pytest.raises(ValueError):
        ClassParams(k=1.0)
    with pytest.raises(ValueError):
        ClassParams(p=1.0)
    with pytest.raises(ValueError):
        ClassParams(brown_lambda=0j)


def test_verdict_is_frozen():
    v = check_class(EX2, "U_lambda", ClassParams(lam=0.5))
    assert isinstance(v, ClassVerdict)
    with pytest.raises(AttributeError):
        v.holds = False


# ---------------------------------------------------------------------------
# one criterion functional per theorem: the builder's and the chain's claimed
# k are classifiers.seam_bound of the theorem's criterion, bit for bit


def _quietly(build, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build(*args)


@pytest.mark.parametrize(
    "builder, chain_kind, chain_map, which",
    [
        (lambda: ext_thm2(EX2), "thm2_eq3", EX2, "M_Ug"),
        (lambda: ext_thm5(NEG_DERIV), "thm5_chain", NEG_DERIV, "thm5"),
        (lambda: ext_exterior(G_U, "thm4"), "exterior_eq7a1", G_U, "M_Ug"),
        (lambda: ext_exterior(G_INV, "cor1"), "cor1_chain", G_INV, "M_corollary1"),
        (lambda: ext_exterior(G_KRZYZ, "krzyz"), "krzyz_eq9", _recover_w(G_KRZYZ), "krzyz_w"),
    ],
    ids=["thm2", "thm5", "thm4_eq7a1", "cor1", "krzyz"],
)
def test_builder_and_chain_claim_the_criterion_seam_bound(
    builder, chain_kind, chain_map, which
):
    em = _quietly(builder)
    spec = _quietly(build_chain, chain_kind, chain_map)
    bound = seam_bound(chain_map, which)
    assert np.isfinite(bound)
    assert em.claimed_k == spec.claimed_k == bound


def test_brown_claims_its_criterion_seam_bound():
    f = parse_map("z-0.25*z^2")
    lam = 1.1 + 0.2j
    assert ext_brown(f, lam).claimed_k == seam_bound(
        f, "brown", ClassParams(brown_lambda=lam)
    )


@pytest.mark.parametrize("text", ["2*z+0.1/z", "z^2"])
def test_exterior_builders_and_chains_reject_bad_leads(text):
    g = parse_map(text)
    for which in ("thm4", "cor1", "krzyz"):
        with pytest.raises(PreconditionError):
            ext_exterior(g, which)
    for kind in ("exterior_eq7a1", "cor1_chain"):
        with pytest.raises(PreconditionError):
            build_chain(kind, g)


def test_unimodular_lead_warns_once_at_the_caller():
    for build in (
        lambda: ext_exterior(G_INV, "cor1"),
        lambda: build_chain("cor1_chain", G_INV),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build()
        lead = [w for w in caught if "leading coefficient" in str(w.message)]
        assert len(lead) == 1
        assert lead[0].filename == __file__
    # a lead of -1 is only allowed for Corollary 1
    with pytest.raises(PreconditionError):
        ext_exterior(G_INV, "thm4")
    with pytest.raises(PreconditionError):
        build_chain("exterior_eq7a1", G_INV)


def test_seam_sup_skips_a_few_non_finite_samples_and_no_more():
    # up to max(2, 4096 // 500) = 8 non-finite samples are pole artifacts
    vals = np.ones(N_SEAM)
    vals[0] = np.nan
    assert seam_sup(vals) == 1.0
    vals[:8] = np.nan
    assert seam_sup(vals) == 1.0
    vals[:9] = np.nan
    assert seam_sup(vals) == np.inf
