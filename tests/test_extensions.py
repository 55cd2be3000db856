import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

from qcext.beltrami import _wirtinger_block
from qcext.corpus import BUILTINS, builtin_ids, get_builtin
from qcext.errors import PreconditionError
from qcext.extensions import (
    ExtendedMap,
    RadialProfile,
    becker_extend,
    ext_brown,
    ext_exterior,
    ext_huang_owa,
    ext_mobius_convex,
    ext_radial_psi,
    ext_thm2,
    ext_thm5,
    seam_gap,
)
from qcext.grids import seam_circle
from qcext.loewner import CHAIN_KINDS_SHORT, LoewnerChainSpec, build_chain, herglotz_array
from qcext.mapexpr import (
    Const,
    MapExpr,
    Mul,
    Var,
    compose,
    const_text,
    eval_array,
    eval_map,
    parse_map,
    print_expr,
)
from qcext.render import _pixel_window
from qcext.report import build_extension, dump_json
from qcext.sphere import INFINITY, is_infinity

EX1 = parse_map("z/((1-z)*(1-0.5*z))")
EX2 = parse_map("z/(1+0.5*z^2)")
EX3 = parse_map("z/((1-2*z)*(1-0.25*z))")
KOEBE = parse_map("z/(1-z)^2")
IDENTITY = parse_map("z")
MOBIUS = parse_map("z/(1-0.5*z)")
BROWN_F = parse_map("z-0.25*z^2")
NEG_DERIV = parse_map("-z+0.3*z^2")
G_U = parse_map("z+0.12/z")
G_KRZYZ = parse_map("z+0.5/z")
G_INV = parse_map("z^2/(0.3-z)")


def at(em, z):
    """em at one finite point, through evaluate_array."""
    return complex(em.evaluate_array(np.array([z], dtype=np.complex128))[0])


def image_of_infinity(em):
    """The declared image of infinity, which construction checked with
    evaluate_array at a far probe point."""
    return next(img for src, img in em.special_points if is_infinity(src))


# ---------------------------------------------------------------------------
# disc-side builders


def test_huang_owa_example1_value():
    em = ext_huang_owa(EX1)
    assert abs(at(em, 2 + 0j) - (-4.0 / 3.0)) < 1e-12
    assert abs(em.claimed_k - 0.5) < 1e-9


def test_huang_owa_identity_is_global_identity():
    em = ext_huang_owa(IDENTITY)
    for z in (0.3 + 0.1j, 2.0 - 1.0j, 1j):
        assert abs(at(em, z) - z) < 1e-12
    assert em.claimed_k < 1e-12
    assert is_infinity(image_of_infinity(em))


def test_huang_owa_pole_and_infinity_charts():
    em = ext_huang_owa(EX3)
    assert not np.isfinite(at(em, 0.5 + 0j))
    a2 = 2.25
    assert abs(image_of_infinity(em) - (-1.0 / a2)) < 1e-9
    assert any(
        not is_infinity(s) and abs(complex(s) - 0.5) < 1e-9
        for s, _ in em.special_points
    )


def test_huang_owa_rejects_unnormalized():
    with pytest.raises(PreconditionError):
        ext_huang_owa(parse_map("2*z"))


def test_thm2_example2_matches_polar_form():
    em = ext_thm2(EX2)
    rng = np.random.default_rng(3)
    pts = 1.0 + rng.random(32) * 4.0 + 1j * rng.standard_normal(32)
    pts = pts[np.abs(pts) > 1.0]
    got = em.evaluate_array(pts)
    ref = pts / (1.0 + 0.5 * pts / np.conj(pts))
    assert np.max(np.abs(got - ref)) < 1e-10


def test_thm2_rejects_nonzero_a2():
    with pytest.raises(PreconditionError):
        ext_thm2(KOEBE)
    with pytest.raises(PreconditionError):
        ext_thm2(EX1)


def test_thm2_identity():
    em = ext_thm2(IDENTITY)
    assert abs(at(em, 5 - 2j) - (5 - 2j)) < 1e-12
    assert em.claimed_k < 1e-12


def test_mobius_convex_example():
    em = ext_mobius_convex(MOBIUS)
    assert abs(at(em, 2.0 + 0j) - 6.0) < 1e-12
    assert em.claimed_k == 0.5
    assert abs(at(em, 0.5 + 0j) - eval_map(MOBIUS, 0.5)) < 1e-12


def test_mobius_convex_rejects_bad_a2():
    for a2 in (0.0, 1.0, 1.5, -2.0):
        with pytest.raises(PreconditionError):
            ext_mobius_convex(parse_map(f"z/(1-{const_text(a2)}*z)"))
    with pytest.raises(PreconditionError, match="disc automorphism"):
        ext_mobius_convex(KOEBE)


def test_radial_unimodular_example():
    em = ext_radial_psi(parse_map("z/(1-z)"), RadialProfile(2.0))
    # psi(2) = 3: outer = 3/(1-3)
    assert abs(at(em, 2.0 + 0j) - (-1.5)) < 1e-12
    assert not np.isfinite(at(em, 1.0 + 0j))
    assert abs(image_of_infinity(em) - (-1.0)) < 1e-9


def test_radial_vp_example():
    em = ext_radial_psi(parse_map("0.5*z/(0.5-z)"), RadialProfile(2.0), 0.5)
    assert abs(em.claimed_k - 0.6) < 1e-12
    assert not np.isfinite(at(em, 0.5 + 0j))
    assert abs(image_of_infinity(em) - (-0.5)) < 1e-9


def test_radial_validation():
    with pytest.raises(ValueError):
        RadialProfile(1.0)
    with pytest.raises(PreconditionError):
        ext_radial_psi(MOBIUS, RadialProfile(2.0))
    with pytest.raises(PreconditionError):
        ext_radial_psi(parse_map("1.5*z/(1.5-z)"), RadialProfile(2.0), 1.5)
    # a map that is not Mobius is refused with or without p
    with pytest.raises(PreconditionError, match="disc automorphism"):
        ext_radial_psi(KOEBE, RadialProfile(2.0))
    with pytest.raises(PreconditionError, match="psi with p = 0.5 extends only"):
        ext_radial_psi(KOEBE, RadialProfile(2.0), 0.5)


def test_radial_profile_shape():
    prof = RadialProfile(3.0)
    assert prof.psi(1.0) == 1.0
    r = np.linspace(1.0, 4.0, 7)
    assert np.all(np.diff(prof.psi(r)) > 0)


def test_brown_example():
    em = ext_brown(BROWN_F, 1.0)
    f_half = eval_map(BROWN_F, 0.5)
    assert abs(at(em, 2.0 + 0j) - (f_half + 1.5)) < 1e-12
    assert abs(em.claimed_k - 0.5) < 1e-9


def test_brown_identity_lambda_one():
    em = ext_brown(IDENTITY, 1.0)
    assert abs(at(em, 3 + 2j) - (3 + 2j)) < 1e-12
    assert em.claimed_k < 1e-12


def test_brown_rejects_zero_lambda():
    with pytest.raises(PreconditionError):
        ext_brown(BROWN_F, 0.0)


def test_thm5_examples():
    em = ext_thm5(NEG_DERIV)
    assert abs(at(em, 2.0 + 0j) - (-1.925)) < 1e-12
    assert abs(em.claimed_k - 0.6) < 1e-9
    neg = ext_thm5(parse_map("-z"))
    for z in (0.4 + 0.1j, 3 - 1j):
        assert abs(at(neg, z) - (-z)) < 1e-12


# ---------------------------------------------------------------------------
# exterior builders


def test_exterior_thm4_identity():
    em = ext_exterior(IDENTITY, "thm4")
    for z in (0.5 + 0j, 0.3 - 0.2j, 2 + 1j):
        assert abs(at(em, z) - z) < 1e-12


def test_exterior_cor1_value():
    em = ext_exterior(IDENTITY, "cor1")
    assert abs(at(em, 0.5 + 0j) - (-1.0)) < 1e-12


def test_exterior_krzyz_value_and_w():
    em = ext_exterior(G_KRZYZ, "krzyz")
    assert abs(at(em, 0.5j) - 0.25j) < 1e-12
    w_src = dict(em.outer_params)["w"]
    w = parse_map(w_src)
    for z in (0.3, -0.7j, 0.2 + 0.2j):
        assert abs(eval_map(w, z) - 0.5 * z) < 1e-12


def test_exterior_krzyz_claims_the_decay_bound():
    em = ext_exterior(G_U, "krzyz")
    assert abs(em.claimed_k - 0.12) < 1e-9
    assert em.outer_id == "conjugate_shift"


def test_exterior_warns_on_shifted_w():
    with pytest.warns(UserWarning):
        ext_exterior(parse_map("z+1+0.3/z"), "krzyz")


def test_exterior_cor1_accepts_unimodular_lead():
    with pytest.warns(UserWarning):
        em = ext_exterior(G_INV, "cor1")
    assert abs(em.claimed_k - 0.6) < 1e-3


def test_exterior_rejects_bad_normalization():
    with pytest.raises(PreconditionError):
        ext_exterior(parse_map("2*z+0.1/z"), "thm4")
    with pytest.raises(PreconditionError):
        ext_exterior(G_INV, "thm4")
    with pytest.raises(PreconditionError):
        ext_exterior(parse_map("z^2"), "krzyz")
    with pytest.raises(ValueError):
        ext_exterior(G_U, "elsewhere")


def test_exterior_analytic_branch_is_g():
    em = ext_exterior(G_U, "thm4")
    assert em.inner_region == "exterior"
    assert abs(at(em, 2.0 + 0j) - eval_map(G_U, 2.0)) < 1e-15
    assert is_infinity(image_of_infinity(em))


# ---------------------------------------------------------------------------
# seams and special points


@pytest.fixture(scope="module")
def built_corpus():
    return {
        "huang_owa_ex3": ext_huang_owa(EX3),
        "thm2_ex2": ext_thm2(EX2),
        "mobius": ext_mobius_convex(MOBIUS),
        "radial_vp": ext_radial_psi(parse_map("0.5*z/(0.5-z)"), RadialProfile(2.0), 0.5),
        "brown": ext_brown(BROWN_F, 1.0),
        "thm5": ext_thm5(NEG_DERIV),
        "thm4": ext_exterior(G_U, "thm4"),
        "krzyz": ext_exterior(G_KRZYZ, "krzyz"),
    }


def test_seam_gap_tight_everywhere(built_corpus):
    for name, em in built_corpus.items():
        sup_abs, sup_chordal = seam_gap(em)
        assert sup_chordal <= 1e-9, (name, sup_chordal)
        assert sup_abs <= 1e-9, (name, sup_abs)


def test_seam_gap_boundary_pole_chordal():
    # branch values blow up together near the seam pole of example 1
    em = ext_huang_owa(EX1)
    sup_abs, sup_chordal = seam_gap(em)
    assert sup_chordal <= 1e-9
    assert math.isfinite(sup_abs)


def _builtin_extension(bid):
    ex = get_builtin(bid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_extension(ex.theorem, parse_map(ex.text()), ex.params())


# each builtin under its own theorem, and Mobius maps spelled otherwise than
# z/(1 - a2 z) or p z/(p - z)
ROUTES = {bid: (ex.theorem, ex.text(), ex.params()) for bid, ex in BUILTINS.items()}
ROUTES.update(
    {
        "convex:1/(1/z-0.5)": ("convex", "1/(1/z-0.5)", {}),
        "t1:1/(1/z-1)": ("t1", "1/(1/z-1)", {}),
        "psi:z/(1-2*z)": ("psi", "z/(1-2*z)", {"p": 0.5 + 0j}),
    }
)


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_extends_the_map_it_was_given(route):
    theorem, text, params = ROUTES[route]
    f = parse_map(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert build_extension(theorem, f, params).inner == f


def _whole_side_reference(em, Z):
    """One call per side of the seam, on every point of that side."""
    r = np.abs(Z)
    side = r <= 1.0 if em.inner_region == "disc" else r >= 1.0
    out = np.empty(Z.shape, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out[side] = eval_array(em.inner, Z[side])
        out[~side] = em.outer(Z[~side])
    return out


@pytest.mark.parametrize("bid", builtin_ids())
def test_blocked_evaluation_is_bit_identical_to_whole_sides(bid):
    em = _builtin_extension(bid)
    Z = _pixel_window(512, 2.5)
    one = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    seam = np.array([1.0, -1.0, 1j, -1j, *one], dtype=np.complex128)
    pts = np.concatenate([Z.ravel(), seam])
    # each side holds more than 2 * 2**14 points, so each is cut in blocks
    disc = np.abs(pts) <= 1.0
    assert min(np.count_nonzero(disc), np.count_nonzero(~disc)) > 2**15
    got = em.evaluate_array(pts)
    assert got.tobytes() == _whole_side_reference(em, pts).tobytes()
    # one side only: its branch takes the whole array in one call
    one_side = pts[disc] if em.inner_region == "disc" else pts[np.abs(pts) >= 1.0]
    want = _whole_side_reference(em, one_side)
    assert em.evaluate_array(one_side).tobytes() == want.tobytes()
    assert em.evaluate_array(Z).shape == Z.shape


def test_special_point_verification_catches_lies():
    good = ext_mobius_convex(MOBIUS)
    with pytest.raises(ArithmeticError):
        ExtendedMap(
            inner=good.inner,
            inner_region="disc",
            outer_id=good.outer_id,
            outer_params=good.outer_params,
            outer=good.outer,
            special_points=((0.25 + 0j, INFINITY),),
            claimed_k=good.claimed_k,
        )


def test_summary_shape(built_corpus):
    em = built_corpus["thm2_ex2"]
    s = em.summary()
    assert s["inner"] == print_expr(EX2.root)
    assert s["outer"]["id"] == "map_reflection"
    assert '"special_points":[["infinity","infinity"]]' in dump_json(s)
    r = built_corpus["radial_vp"].summary()
    assert r["outer"]["params"]["M"] == "2.0"
    assert '[[0.5,0],"infinity"]' in dump_json(r)


# ---------------------------------------------------------------------------
# chain-driven extension


def test_becker_reproduces_convex_closed_form():
    em_chain = becker_extend(build_chain("convex_chain", MOBIUS))
    em_closed = ext_mobius_convex(MOBIUS)
    rng = np.random.default_rng(5)
    Z = (1.05 + rng.random(40) * 3.0) * np.exp(2j * np.pi * rng.random(40))
    assert np.max(np.abs(em_chain.evaluate_array(Z) - em_closed.evaluate_array(Z))) < 1e-10


def test_becker_reproduces_thm2_closed_form():
    em_chain = becker_extend(build_chain("thm2_eq3", EX2))
    em_closed = ext_thm2(EX2)
    rng = np.random.default_rng(6)
    Z = (1.01 + rng.random(40) * 5.0) * np.exp(2j * np.pi * rng.random(40))
    assert np.max(np.abs(em_chain.evaluate_array(Z) - em_closed.evaluate_array(Z))) < 1e-10


def test_becker_reproduces_krzyz_by_inversion():
    em_chain = becker_extend(build_chain("krzyz_eq9", parse_map("0.5*z")))
    em_closed = ext_exterior(G_KRZYZ, "krzyz")
    rng = np.random.default_rng(7)
    zeta = (0.1 + rng.random(40) * 0.85) * np.exp(2j * np.pi * rng.random(40))
    F = em_chain.evaluate_array(1.0 / zeta)
    G = 1.0 / F
    ref = em_closed.evaluate_array(zeta)
    assert np.max(np.abs(G - ref)) < 1e-10


def test_becker_rejects_failing_chain():
    bad = LoewnerChainSpec("thm5_chain", IDENTITY, 1.0 + 0j, 2.0)
    with pytest.raises(PreconditionError):
        becker_extend(bad)



@pytest.mark.parametrize("bid", [b for b in builtin_ids() if get_builtin(b).chain])
def test_becker_dilatation_is_the_herglotz_ratio(bid):
    # Becker (J. Reine Angew. Math. 255, 1972): F(z) = f(z/|z|, log|z|) has
    # mu_F(z) = (z/z-bar)(p - 1)/(p + 1) at zeta = z/|z|, t = log|z|
    ex = get_builtin(bid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = build_chain(CHAIN_KINDS_SHORT[ex.chain], parse_map(ex.chain_text()))
    Z = (np.linspace(1.05, 20.0, 40)[:, None] * seam_circle(256)[None, :]).ravel()
    fz, fzb = _wirtinger_block(becker_extend(spec).evaluate_array, Z)
    p = herglotz_array(spec, Z / np.abs(Z), np.log(np.abs(Z)))
    want = Z / np.conj(Z) * (p - 1.0) / (p + 1.0)
    assert np.max(np.abs(fzb / fz - want)) <= 1e-9


def _rotations(f):
    """(j, f_theta) for f_theta(z) = e^{-i theta} f(e^{i theta} z) at a few
    theta = 2 pi j / 4096."""
    for j in (1, 7, 512, 1365, 2048, 3000):
        theta = 2.0 * math.pi * j / 4096
        spin = MapExpr(Mul(Const(cmath.exp(1j * theta)), Var()))
        yield j, MapExpr(Mul(Const(cmath.exp(-1j * theta)), compose(f, spin).root))


def _conjugate(node):
    """The tree of conj(f(conj z)): f's tree with every constant conjugated."""
    if isinstance(node, Const):
        return Const(node.value.conjugate())
    kids = {
        fld.name: _conjugate(getattr(node, fld.name))
        for fld in dataclasses.fields(node)
        if fld.name != "exponent"
    }
    return dataclasses.replace(node, **kids)


def _rotated_claimed_k(ex, g, j):
    """claimed_k of g's extension under ex's theorem and parameters, or None
    where g is a rotation (j != 0) that the psi route with p refuses: that
    route extends only p z/(p - z), and every rotation here moves the pole
    p off the real axis."""
    if j and ex.theorem == "psi" and "p" in ex.params():
        with pytest.raises(PreconditionError, match="extends only"):
            build_extension(ex.theorem, g, ex.params())
        return None
    return build_extension(ex.theorem, g, ex.params()).claimed_k


@pytest.mark.parametrize("bid", builtin_ids())
def test_rotation_keeps_claimed_k(bid):
    # f_theta maps the seam samples onto themselves for theta = 2 pi j / 4096,
    # so the seam sups agree
    ex = get_builtin(bid)
    f = parse_map(ex.text())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        k = build_extension(ex.theorem, f, ex.params()).claimed_k
        for j, f_theta in _rotations(f):
            k_theta = _rotated_claimed_k(ex, f_theta, j)
            assert k_theta is None or abs(k_theta - k) <= 1e-12 * max(1.0, k), (j, k)


@pytest.mark.parametrize("bid", builtin_ids())
def test_conjugate_keeps_claimed_k(bid):
    # conj(f(conj z)) reflects the seam samples onto themselves and keeps
    # every criterion's modulus, on the builtin and on its rotations
    ex = get_builtin(bid)
    f = parse_map(ex.text())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        k = build_extension(ex.theorem, f, ex.params()).claimed_k
        for j, g in [(0, f), *_rotations(f)]:
            g_bar = MapExpr(_conjugate(g.root))
            Z = np.array([0.2 + 0.6j, -0.4j, 0.7 - 0.1j])
            want = np.conj(eval_array(g, np.conj(Z)))
            assert np.allclose(eval_array(g_bar, Z), want, rtol=1e-12, atol=0.0), j
            k_bar = _rotated_claimed_k(ex, g_bar, j)
            assert k_bar is None or abs(k_bar - k) <= 1e-12 * max(1.0, k), (j, k)
