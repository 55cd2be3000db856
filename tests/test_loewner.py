import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qcext import loewner
from qcext.classifiers import TAU_CLASS, u_field
from qcext.cli import main
from qcext.corpus import builtin_ids, get_builtin
from qcext.errors import PreconditionError
from qcext.grids import CHAIN_BATCH_POINTS, MAX_GRID_POINTS, GridSpec, disc_grid
from qcext.loewner import (
    CHAIN_KINDS_SHORT,
    ChainCheckReport,
    ChainGrid,
    ChainSingularityError,
    T_MAX_LIMIT,
    build_chain,
    chain_eval_array,
    check_dk,
    check_theorem_A,
    herglotz_array,
    time_zero_map,
    working_radius,
)
from qcext.mapexpr import eval_map, parse_map

EX2 = parse_map("z/(1+0.5*z^2)")
IDENTITY = parse_map("z")
MOBIUS = parse_map("z/(1-0.5*z)")
NEG_DERIV = parse_map("-z+0.3*z^2")
G_U = parse_map("z+0.12/z")
G_INV = parse_map("z^2/(0.3-z)")
W_LIN = parse_map("0.5*z")
POLE_INSIDE = parse_map("z/(1-30*z)")


# ---------------------------------------------------------------------------
# construction


def test_build_rejects_unnormalized_disc_map():
    with pytest.raises(PreconditionError):
        build_chain("thm2_eq3", parse_map("2*z"))
    with pytest.raises(PreconditionError):
        build_chain("convex_chain", NEG_DERIV)


def test_build_rejects_nonzero_w0():
    with pytest.raises(PreconditionError):
        build_chain("krzyz_eq9", parse_map("0.5*z+0.1"))


def test_build_rejects_wrong_exterior_normalization():
    with pytest.raises(PreconditionError):
        build_chain("exterior_eq7a1", parse_map("2*z+0.1/z"))
    with pytest.raises(PreconditionError):
        build_chain("exterior_eq7a1", parse_map("z^2"))


def test_build_cor1_warns_on_negative_lead():
    with pytest.warns(UserWarning):
        spec = build_chain("cor1_chain", G_INV)
    assert abs(spec.c_lead + 1.0) < 1e-9
    assert abs(spec.claimed_k - 0.6) < 1e-3


def test_build_unknown_kind():
    with pytest.raises(ValueError):
        build_chain("no_such_chain", EX2)


def test_claimed_k_thm2_example():
    spec = build_chain("thm2_eq3", EX2)
    assert abs(spec.claimed_k - 0.5) < 1e-9


def test_claimed_k_convex_is_a2():
    spec = build_chain("convex_chain", MOBIUS)
    assert abs(spec.claimed_k - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# evaluation


def _at(spec, z, t):
    """f(z, t) from a one-point chain_eval_array."""
    return complex(chain_eval_array(spec, np.array([z]), t)[0])


def test_time_zero_matches_base():
    spec = build_chain("thm2_eq3", EX2)
    for z in (0.3 + 0.1j, -0.5j, 0.7 + 0.2j):
        got = _at(spec, z, 0.0)
        assert abs(got - eval_map(EX2, z)) < 1e-12


def test_time_zero_exterior_is_inverted_g():
    # 1/g(1/z) for g = z + 0.5/z is exactly z/(1+0.5 z^2)
    spec = build_chain("exterior_eq7a1", parse_map("z+0.5/z"))
    f0 = time_zero_map(spec)
    for z in (0.4 + 0j, 0.2 - 0.6j, 0.9j):
        assert abs(eval_map(f0, z) - eval_map(EX2, z)) < 1e-12
        assert abs(_at(spec, z, 0.0) - eval_map(EX2, z)) < 1e-12


def test_chain_fixes_origin():
    specs = [
        build_chain("thm2_eq3", EX2),
        build_chain("convex_chain", MOBIUS),
        build_chain("thm5_chain", NEG_DERIV),
        build_chain("krzyz_eq9", W_LIN),
        build_chain("exterior_eq7a1", G_U),
    ]
    for spec in specs:
        for t in (0.0, 0.7, 2.5, 5.0):
            assert _at(spec, 0j, t) == 0j


def test_krzyz_eval_example():
    spec = build_chain("krzyz_eq9", W_LIN)
    got = _at(spec, 0.5 + 0j, 0.0)
    assert abs(got - 1.0 / 2.25) < 1e-12


def test_convex_eval_example():
    spec = build_chain("convex_chain", MOBIUS)
    got = _at(spec, 0.5 + 0j, math.log(2.0))
    assert abs(got - 14.0 / 9.0) < 1e-12


def test_chain_eval_array_matches_scalar():
    # the thm2 chain in its literal form zF/(z - sF), F = f(e^{-t} z);
    # chain_eval_array evaluates the rewrite over the rational form
    spec = build_chain("thm2_eq3", EX2)
    Z = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.85j])
    for t in (0.0, 1.3):
        arr = chain_eval_array(spec, Z, t)
        s = math.exp(t) - math.exp(-t)
        for z, v in zip(Z, arr):
            F = eval_map(EX2, math.exp(-t) * complex(z))
            assert abs(v - z * F / (z - s * F)) < 1e-12


@pytest.mark.parametrize(
    "kind,base",
    [
        ("thm2_eq3", EX2),
        ("thm2_eq3", IDENTITY),
        ("thm5_chain", NEG_DERIV),
        ("krzyz_eq9", W_LIN),
        ("convex_chain", MOBIUS),
        ("exterior_eq7a1", G_U),
        ("cor1_chain", G_INV),
    ],
)
def test_chain_stays_finite_just_below_the_horizon_limit(kind, base):
    # no overflow that would read as a singularity, on the doubled default
    # mesh and at the smallest radius any disc grid has
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        spec = build_chain(kind, base)
    r0 = working_radius(spec)
    Z = np.append(disc_grid(GridSpec(64, 64), r_max=r0), r0 / MAX_GRID_POINTS)
    t = float(np.nextafter(T_MAX_LIMIT, 0.0))
    assert np.all(np.isfinite(chain_eval_array(spec, Z, t)))
    a1 = complex(spec.a1(t))
    assert math.isfinite(abs(a1)) and a1 != 0


# ---------------------------------------------------------------------------
# herglotz


def test_herglotz_at_origin():
    with pytest.warns(UserWarning, match="leading coefficient"):
        cor1 = build_chain("cor1_chain", parse_map("-z-0.1/z"))
    for spec in (
        build_chain("thm2_eq3", EX2),
        build_chain("thm5_chain", NEG_DERIV),
        build_chain("krzyz_eq9", W_LIN),
        cor1,
    ):
        for t in (0.0, 1.0, 4.0):
            assert herglotz_array(spec, np.array([0j]), t)[0] == 1.0 + 0j


def test_herglotz_thm2_time_zero_reduction():
    # p(z,0) = (1 - U_f(z))/(1 + U_f(z))
    spec = build_chain("thm2_eq3", EX2)
    got = herglotz_array(spec, np.array([0.5 + 0j]), 0.0)[0]
    assert abs(got - 1.125 / 0.875) < 1e-12


def test_herglotz_constant_for_pure_rotation_base():
    # f = -z gives p identically 1 under the thm5 chain
    spec = build_chain("thm5_chain", parse_map("-z"))
    for z in (0.3 + 0.1j, -0.6j, 0.8 + 0j):
        for t in (0.0, 0.9, 3.0):
            assert abs(herglotz_array(spec, np.array([z]), t)[0] - 1.0) < 1e-12


@pytest.mark.parametrize(
    "kind,base",
    [
        ("thm2_eq3", EX2),
        ("thm5_chain", NEG_DERIV),
        ("krzyz_eq9", W_LIN),
        ("convex_chain", MOBIUS),
        ("exterior_eq7a1", G_U),
        ("cor1_chain", G_INV),
    ],
)
def test_herglotz_matches_finite_difference_quotient(kind, base):
    if kind == "cor1_chain":
        with pytest.warns(UserWarning):
            spec = build_chain(kind, base)
    else:
        spec = build_chain(kind, base)
    h = 1e-5
    for z, t in ((0.3 + 0j, 1.0), (0.2 - 0.3j, 0.4), (0.1 + 0.25j, 2.2)):
        ft = (_at(spec, z, t + h) - _at(spec, z, t - h)) / (2 * h)
        fz = (_at(spec, z + h, t) - _at(spec, z - h, t)) / (2 * h)
        p_fd = ft / (z * fz)
        p = herglotz_array(spec, np.array([z]), t)[0]
        assert abs(p - p_fd) < 1e-6


# ---------------------------------------------------------------------------
# D(k)


def test_dk_boundary_point_identity():
    for k in (0.25, 0.5, 0.75):
        w = (1 + k) / (1 - k)
        assert abs(abs((w - 1) / (w + 1)) - k) < 1e-15


def test_dk_identity_chain_is_zero():
    spec = build_chain("thm2_eq3", IDENTITY)
    assert check_dk(spec) < 1e-9


def test_dk_thm2_example_envelope():
    spec = build_chain("thm2_eq3", EX2)
    sup = check_dk(spec)
    # the ratio equals lam*|z|^2, so the sup tracks the outermost radius
    assert sup <= 0.5 * 0.999**2 + 1e-9
    assert sup > 0.5 * 0.99**2


def test_dk_krzyz_linear():
    spec = build_chain("krzyz_eq9", W_LIN)
    sup = check_dk(spec)
    assert sup <= 0.5 * 0.999**2 + 1e-9


# ---------------------------------------------------------------------------
# theorem A sweeps


def _assert_healthy(report: ChainCheckReport):
    assert report.passed
    assert report.herglotz_min_re > 0
    assert report.pde_residual_sup <= 1e-6
    assert report.k0_refined_ok
    assert report.a1_fit_max_err <= 1e-8
    assert report.subordination_ok
    assert report.growth_ratio < 1.5


def test_theorem_a_thm2_example():
    _assert_healthy(check_theorem_A(build_chain("thm2_eq3", EX2)))


def test_theorem_a_identity_chain():
    report = check_theorem_A(build_chain("thm2_eq3", IDENTITY))
    _assert_healthy(report)
    assert report.dk_radius_sup < 1e-9


def test_theorem_a_convex():
    _assert_healthy(check_theorem_A(build_chain("convex_chain", MOBIUS)))


def test_theorem_a_thm5():
    _assert_healthy(check_theorem_A(build_chain("thm5_chain", NEG_DERIV)))


def test_theorem_a_krzyz():
    _assert_healthy(check_theorem_A(build_chain("krzyz_eq9", W_LIN)))


def test_theorem_a_exterior():
    _assert_healthy(check_theorem_A(build_chain("exterior_eq7a1", G_U)))


def test_theorem_a_cor1():
    with pytest.warns(UserWarning):
        spec = build_chain("cor1_chain", G_INV)
    _assert_healthy(check_theorem_A(spec))


def test_a1_fit_skips_the_derived_zero_window(monkeypatch):
    # a1(t) = (e - 1) e^{-t} - 2 sinh t vanishes at t = 1/2 exactly
    spec = build_chain("thm5_chain", parse_map("1.718281828459045*z"))
    assert spec.a1_zero_window() == (0.45, 0.55)
    fitted = []
    fit = loewner._fit_first_coeff

    def recorded(spec, t, rho):
        fitted.append(t)
        return fit(spec, t, rho)

    monkeypatch.setattr(loewner, "_fit_first_coeff", recorded)
    loewner.a1_fit_error(spec, 0.5)
    assert fitted == [0.0, 1.0, 2.0, 4.0]


def test_theorem_a_flags_out_of_class_map():
    # identity under the thm5 chain: |f'+1| = 2, Herglotz positivity breaks
    spec = build_chain("thm5_chain", IDENTITY)
    assert spec.a1_zero_window() == (0.3, 0.4)
    report = check_theorem_A(spec)
    assert not report.passed
    assert report.herglotz_min_re < 0


def test_theorem_a_gates_on_subordination(monkeypatch):
    monkeypatch.setattr(loewner, "subordination_ok", lambda spec, r0: False)
    report = check_theorem_A(build_chain("thm2_eq3", EX2))
    assert not report.subordination_ok
    assert not report.passed


@pytest.mark.parametrize(
    "text, expected",
    [("z/(1-z)^2", False), ("z+0.5*z^2", False), ("z/(1+0.5*z^2)", True)],
    ids=["koebe", "z+0.5z^2", "example2"],
)
def test_subordination_on_real_thm2_chains(text, expected):
    # Koebe and z+0.5z^2 are outside the thm2 class, so their chains are not
    # nested; example2 is inside it
    spec = build_chain("thm2_eq3", parse_map(text))
    assert loewner.subordination_ok(spec, working_radius(spec)) is expected


def test_krzyz_scaled_limit_is_exact_for_linear_w():
    # e^{-t} f(z,t) = z/(1 + b1 z^2) identically when w = b1 z
    spec = build_chain("krzyz_eq9", W_LIN)
    limit = parse_map("z/(1+0.5*z^2)")
    for z in (0.3 + 0.2j, -0.5j, 0.75 + 0j):
        for t in (0.5, 2.0, 5.0):
            got = math.exp(-t) * _at(spec, z, t)
            assert abs(got - eval_map(limit, z)) < 1e-12


# ---------------------------------------------------------------------------
# normalization bookkeeping


def test_a1_growth_for_standard_kinds():
    spec = build_chain("thm2_eq3", EX2)
    assert abs(spec.a1(5.0)) > 10 * abs(spec.a1(0.0))


def test_a1_increasing_after_zero_for_nonstandard():
    spec = build_chain("thm5_chain", IDENTITY)
    ts = np.linspace(1.0, 5.0, 50)
    mags = np.abs(spec.a1(ts))
    assert np.all(np.diff(mags) > 0)


def test_a1_no_window_for_negative_lead():
    spec = build_chain("thm5_chain", NEG_DERIV)
    assert spec.a1_zero_window() is None


def test_working_radius():
    assert abs(working_radius(build_chain("thm2_eq3", EX2)) - math.sqrt(2) / 2) < 1e-9
    assert working_radius(build_chain("thm5_chain", NEG_DERIV)) == 0.85


def test_chain_grid_excludes_window():
    ts = loewner._times(loewner.N_T, ChainGrid().t_max, (0.3, 0.4))
    assert np.all((ts < 0.3) | (ts > 0.4))
    assert len(ts) < loewner.N_T


# ---------------------------------------------------------------------------
# batched t sweeps against the one-t loops they replaced


CORPUS_CHAINS = [
    (bid, CHAIN_KINDS_SHORT[get_builtin(bid).chain], get_builtin(bid).chain_text())
    for bid in builtin_ids()
    if get_builtin(bid).chain
]
# chains whose poles are in, or can move into, the r0-disc: _pole_free
# refuses them, so their K0 sweeps keep the full meshes.  The last map passes
# is_normalized with f(0) = 1e-13, and _pole_free refuses any P(0) != 0.
UNCERTIFIED_CHAINS = [
    ("thm2-pole-moves-in", "thm2_eq3", "z/(1-2*z)"),
    ("thm2-z+0.9z2", "thm2_eq3", "z+0.9*z^2"),
    ("thm2-z+10z2", "thm2_eq3", "z+10*z^2"),
    ("thm5-pole-inside", "thm5_chain", "z/(1-30*z)"),
    ("convex-pole-inside", "convex_chain", "z/(1-30*z)"),
    ("thm2-f0-1e-13", "thm2_eq3", "z+1e-13"),
]


def _corpus_spec(kind, text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_chain(kind, parse_map(text))


def _one_t_dk(spec, mesh, ts):
    Z = disc_grid(mesh)
    sup = 0.0
    for t in ts:
        vals = loewner.dk_radius_field(spec, Z, t)
        sup = max(sup, float(np.max(vals)))
        if spec.kind == "thm2_eq3":
            em = math.exp(-t)
            expected = math.exp(2 * t) * np.abs(u_field(spec.base_map, em * Z))
            finite = np.isfinite(vals) & np.isfinite(expected)
            if np.any(finite):
                resid = float(np.max(np.abs(vals[finite] - expected[finite])))
                if resid > 1e-10:
                    raise ArithmeticError(
                        f"thm2 ratio reduction off by {resid} at t={t}"
                    )
    return sup


def _one_t_pde(spec, r0, mesh, ts):
    Z = disc_grid(mesh, r_max=r0)
    sup = 0.0
    for t in ts:
        ft = (
            loewner.chain_eval_array(spec, Z, t + loewner.H_T)
            - loewner.chain_eval_array(spec, Z, t - loewner.H_T)
        ) / (2.0 * loewner.H_T)
        fz = (
            loewner.chain_eval_array(spec, Z + loewner.H_Z, t)
            - loewner.chain_eval_array(spec, Z - loewner.H_Z, t)
        ) / (2.0 * loewner.H_Z)
        p = herglotz_array(spec, Z, t)
        resid = np.abs(ft - Z * fz * p)
        resid = np.where(np.isfinite(resid), resid, np.inf)
        sup = max(sup, float(np.max(resid)))
    return sup


def _winding_number(polygon, q):
    rel = polygon - q
    args = np.angle(rel)
    d = np.diff(np.concatenate([args, args[:1]]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(np.sum(d)) / (2.0 * np.pi)))


def _subordination_curves(spec, r0):
    """(small, big) per time pair (s, t) of subordination_ok."""
    r = 0.9 * r0
    inner = r * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    curve = r * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False))
    for s, t in ((0.0, 1.0), (1.0, 2.5)):
        yield loewner.chain_eval_array(spec, inner, s), loewner.chain_eval_array(spec, curve, t)


def _one_t_subordination(spec, r0):
    for small, big in _subordination_curves(spec, r0):
        if not (np.all(np.isfinite(small)) and np.all(np.isfinite(big))):
            return False
        for q in small:
            if _winding_number(big, complex(q)) != 1:
                return False
    return True


def _one_t_report(spec, grid):
    """check_theorem_A with one chain call per t on the full K0 meshes, as
    before the batches and the ring sweeps."""
    r0 = working_radius(spec)
    window = spec.a1_zero_window(grid.t_max)
    ts = loewner._times(64, grid.t_max, window)

    Zr = disc_grid(grid.z, r_max=r0)
    K0 = K0_half = 0.0
    for t in ts:
        vals = np.abs(loewner.chain_eval_array(spec, Zr, t))
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmax(~np.isfinite(vals)))
            raise ChainSingularityError(complex(Zr[bad]), float(t))
        ratio = float(np.max(vals)) / abs(complex(spec.a1(t)))
        K0 = max(K0, ratio)
        if t <= grid.t_max / 2:
            K0_half = max(K0_half, ratio)
    growth_ratio = K0 / K0_half if K0_half > 0 else math.inf
    K0_claimed = 1.05 * K0

    Zf = disc_grid(GridSpec(2 * grid.z.n_r, 2 * grid.z.n_theta), r_max=r0)
    k0_refined_ok = True
    for t in loewner._times(128, grid.t_max, window):
        vals = np.abs(loewner.chain_eval_array(spec, Zf, t))
        if not np.all(vals <= K0_claimed * abs(complex(spec.a1(t)))):
            k0_refined_ok = False
            break

    Zd = disc_grid(grid.z)
    min_re = math.inf
    for t in ts:
        p = herglotz_array(spec, Zd, t)
        re = np.where(np.isfinite(p.real), p.real, -np.inf)
        min_re = min(min_re, float(np.min(re)))

    dk_sup = _one_t_dk(spec, GridSpec(32, 32), loewner._times(16, grid.t_max))
    resid = _one_t_pde(spec, r0, GridSpec(24, 24), ts)
    subordinate = _one_t_subordination(spec, r0)
    passed = (
        min_re > 0.0
        and dk_sup <= spec.claimed_k + TAU_CLASS
        and resid <= loewner.TAU_PDE
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
        a1_fit_max_err=loewner.a1_fit_error(spec, r0),
        subordination_ok=subordinate,
    )


def _outcome(check, spec, grid):
    """Every report field exactly (floats by float.hex), or the exception."""
    try:
        report = check(spec, grid)
    except ArithmeticError as exc:
        return (type(exc).__name__, str(exc))
    return {
        f.name: (v.hex() if isinstance(v, float) else v)
        for f in dataclasses.fields(report)
        for v in [getattr(report, f.name)]
    }


@pytest.mark.parametrize(
    "z, t_max",
    [(GridSpec(32, 32), 5.0), (GridSpec(16, 16), 5.0), (GridSpec(32, 32), 0.2), (GridSpec(32, 32), 2.0)],
    ids=["32x32-t5", "16x16-t5", "32x32-t0.2", "32x32-t2"],
)
@pytest.mark.parametrize(
    "bid, kind, text",
    CORPUS_CHAINS + UNCERTIFIED_CHAINS,
    ids=[c[0] for c in CORPUS_CHAINS + UNCERTIFIED_CHAINS],
)
def test_batched_checks_match_one_t_loops(bid, kind, text, z, t_max):
    spec = _corpus_spec(kind, text)
    grid = ChainGrid(z, t_max)
    assert _outcome(check_theorem_A, spec, grid) == _outcome(_one_t_report, spec, grid)


@pytest.mark.parametrize(
    "bid, kind, text, certified",
    [c + (True,) for c in CORPUS_CHAINS] + [c + (False,) for c in UNCERTIFIED_CHAINS],
    ids=[c[0] for c in CORPUS_CHAINS + UNCERTIFIED_CHAINS],
)
def test_pole_certificate(bid, kind, text, certified):
    spec = _corpus_spec(kind, text)
    window = spec.a1_zero_window()
    ts = np.concatenate([loewner._times(n, loewner.T_MAX, window) for n in (64, 128)])
    assert loewner._pole_free(spec, working_radius(spec), ts) is certified


@pytest.mark.parametrize("bid, kind, text", CORPUS_CHAINS, ids=[c[0] for c in CORPUS_CHAINS])
def test_chain_evaluators_take_t_as_rows(bid, kind, text):
    # a (rows, 1) T against a flat grid gives each t's one-t call, byte for byte
    spec = _corpus_spec(kind, text)
    Z = disc_grid(GridSpec(32, 32), r_max=working_radius(spec))
    T = np.linspace(0.0, 5.0, 4)[:, None]
    for evaluate in (chain_eval_array, herglotz_array):
        rows = evaluate(spec, Z, T)
        for t, row in zip(T[:, 0], rows):
            assert row.tobytes() == evaluate(spec, Z, t).tobytes()


@pytest.mark.parametrize("bid, kind, text", CORPUS_CHAINS, ids=[c[0] for c in CORPUS_CHAINS])
def test_chain_evaluators_pin_the_origin(bid, kind, text):
    # f(0, t) = 0 and p(0, t) = 1 wherever z = 0 sits in the grid; the other
    # points are the values computed without it
    spec = _corpus_spec(kind, text)
    Z = np.array([0.0, 0.3 + 0.1j, 0.0, -0.2j])
    T = np.array([[0.0], [1.5]])
    for evaluate, at_zero in ((chain_eval_array, 0j), (herglotz_array, 1.0 + 0j)):
        vals = evaluate(spec, Z, T)
        assert vals[:, [0, 2]].tolist() == [[at_zero, at_zero]] * 2
        assert vals[:, [1, 3]].tobytes() == evaluate(spec, Z[[1, 3]], T).tobytes()


def test_thm2_reduction_failure_message_is_unchanged(capsys):
    code = main(["chain", "--builtin", "identity", "--tmax", "8"])
    assert code == 3
    assert capsys.readouterr().err == (
        "qcext: numerical failure: thm2 ratio reduction off by "
        "1.3932635860332543e-10 at t=6.4\n"
    )


def _poison(monkeypatch, bad, value=complex(np.nan, np.nan)):
    """Make chain_eval_array return value at every (t, z) pair of bad."""
    real = loewner.chain_eval_array

    def poisoned(spec, Z, T):
        out = real(spec, Z, T)
        hit = np.zeros(out.shape, dtype=bool)
        for t, z in bad:
            hit |= (np.asarray(T) == t) & (np.asarray(Z) == z)
        return np.where(hit, value, out)

    monkeypatch.setattr(loewner, "chain_eval_array", poisoned)


def _first_singularity(monkeypatch, spec, grid, bad):
    """(z, t) at which check_theorem_A raises with bad poisoned, after
    checking that the full-mesh one-t loop raises at the same sample."""
    _poison(monkeypatch, bad)
    with pytest.raises(ChainSingularityError) as batched:
        check_theorem_A(spec, grid)
    with pytest.raises(ChainSingularityError) as one_t:
        _one_t_report(spec, grid)
    assert (batched.value.z, batched.value.t) == (one_t.value.z, one_t.value.t)
    return batched.value.z, batched.value.t


def test_singularity_inside_a_batch_is_the_first_one_t_failure(monkeypatch):
    # example2 is certified pole-free, so its K0 sweep runs on the outer ring
    # of the mesh, the bits of the full mesh's last row
    spec = build_chain("thm2_eq3", EX2)
    grid = ChainGrid()
    r0 = working_radius(spec)
    ring = disc_grid(GridSpec(1, grid.z.n_theta), r_max=r0)
    assert ring.tobytes() == disc_grid(grid.z, r_max=r0)[-ring.size :].tobytes()
    ts = loewner._times(64, grid.t_max, spec.a1_zero_window(grid.t_max))
    assert CHAIN_BATCH_POINTS // ring.size >= ts.size  # one batch of rows
    # the first failure in (t, z) order, then a later z at the same t and an
    # earlier z at a later t of the same batch
    bad = [(ts[5], ring[17]), (ts[5], ring[28]), (ts[6], ring[3])]
    first = _first_singularity(monkeypatch, spec, grid, bad)
    assert first == (complex(ring[17]), float(ts[5]))


def test_singularity_inside_the_mesh_of_an_uncertified_chain(monkeypatch):
    # thm5 of z/(1-30*z) has its pole inside the r0-disc, so its K0 sweep
    # keeps the full mesh and an interior sample still raises
    spec = build_chain("thm5_chain", POLE_INSIDE)
    grid = ChainGrid()
    Zr = disc_grid(grid.z, r_max=working_radius(spec))
    ts = loewner._times(64, grid.t_max, spec.a1_zero_window(grid.t_max))
    rows = CHAIN_BATCH_POINTS // Zr.size
    assert rows == 4  # t index 5 sits mid-way through the second batch
    bad = [(ts[5], Zr[517]), (ts[5], Zr[900]), (ts[6], Zr[3])]
    first = _first_singularity(monkeypatch, spec, grid, bad)
    assert first == (complex(Zr[517]), float(ts[5]))


def _refined_k0_failure(monkeypatch, spec, grid, z_bad, failure):
    """Poison the refined K0 sample z_bad at tf[5], a time no other sweep
    takes, and check that the report fails as the one-t loop's does."""
    K0_claimed = check_theorem_A(spec, grid).K0
    tf = loewner._times(128, grid.t_max, spec.a1_zero_window(grid.t_max))
    t_bad = tf[5]
    if failure == "nan":
        value = complex(np.nan, np.nan)
    else:
        value = complex(np.nextafter(K0_claimed * abs(complex(spec.a1(t_bad))), np.inf))
    _poison(monkeypatch, [(t_bad, z_bad)], value)
    batched = _outcome(check_theorem_A, spec, grid)
    assert batched["k0_refined_ok"] is False
    assert batched["passed"] is False
    assert batched == _outcome(_one_t_report, spec, grid)


@pytest.mark.parametrize("failure", ["nan", "just-above"])
def test_refined_k0_fails_on_the_second_row_of_a_batch(monkeypatch, failure):
    # example2's refined K0 sweep runs on the outer ring of the doubled mesh:
    # 64 of its 128 times per batch, so tf[5] is the sixth row of the first
    spec = build_chain("thm2_eq3", EX2)
    grid = ChainGrid()
    ring = disc_grid(GridSpec(1, 2 * grid.z.n_theta), r_max=working_radius(spec))
    assert CHAIN_BATCH_POINTS // ring.size == 64
    _refined_k0_failure(monkeypatch, spec, grid, ring[40], failure)


@pytest.mark.parametrize("failure", ["nan", "just-above"])
def test_refined_k0_fails_inside_the_mesh_of_an_uncertified_chain(monkeypatch, failure):
    spec = build_chain("thm5_chain", POLE_INSIDE)
    grid = ChainGrid()
    Zf = disc_grid(GridSpec(2 * grid.z.n_r, 2 * grid.z.n_theta), r_max=working_radius(spec))
    # the refined K0 mesh fills a whole batch; two of its rows per batch
    # still sit below the elision floor, so the report must not change
    assert CHAIN_BATCH_POINTS // Zf.size == 1
    monkeypatch.setattr(loewner, "CHAIN_BATCH_POINTS", 2 * Zf.size)
    # Zf[1234] is an interior sample; tf[5] the second row of the third batch
    _refined_k0_failure(monkeypatch, spec, grid, Zf[1234], failure)


@pytest.mark.parametrize("bid, kind, text", CORPUS_CHAINS, ids=[c[0] for c in CORPUS_CHAINS])
def test_winding_numbers_match_the_per_point_loop(bid, kind, text):
    spec = _corpus_spec(kind, text)
    for small, big in _subordination_curves(spec, working_radius(spec)):
        # one point far outside the curve, winding 0
        qs = np.append(small, 10.0 * np.max(np.abs(big)))
        twice = np.concatenate([big, big])
        for polygon, winds in ((big, 1), (twice, 2)):
            want = [_winding_number(polygon, complex(q)) for q in qs]
            assert want == [winds] * small.size + [0]
            assert loewner._winding_numbers(polygon, qs).tolist() == want


def test_subordination_fails_on_a_row_inside_a_batch(monkeypatch):
    spec = build_chain("thm2_eq3", EX2)
    r0 = working_radius(spec)
    assert loewner.subordination_ok(spec, r0)
    rows = CHAIN_BATCH_POINTS // 1024
    assert rows > 2
    bad = rows + rows // 2  # mid-way through the second batch
    real = loewner.chain_eval_array

    def moved_out(spec, Z, T):
        out = real(spec, Z, T)
        if np.size(Z) == 64 and T == 1.0:
            # query point bad of the second pair lies outside the curve
            out = out.copy()
            out[bad] = 100.0
        return out

    monkeypatch.setattr(loewner, "chain_eval_array", moved_out)
    assert not loewner.subordination_ok(spec, r0)
    assert not _one_t_subordination(spec, r0)


def _poison_p(monkeypatch, t_bad, z_bad, value):
    """Make herglotz_array return value at (t_bad, z_bad), in check_theorem_A
    and in the one-t loops of this file."""
    real = loewner.herglotz_array

    def poisoned(spec, Z, T):
        hit = (np.asarray(T) == t_bad) & (np.asarray(Z) == z_bad)
        return np.where(hit, value, real(spec, Z, T))

    monkeypatch.setattr(loewner, "herglotz_array", poisoned)
    monkeypatch.setitem(globals(), "herglotz_array", poisoned)


def _poisoned_report(spec, grid, field, want):
    """The report with the poison in place, after checking that field reads
    want, that the report fails, and that the one-t loop agrees."""
    batched = _outcome(check_theorem_A, spec, grid)
    assert batched[field] == want.hex()
    assert batched["passed"] is False
    assert batched == _outcome(_one_t_report, spec, grid)


def test_pde_nan_in_a_later_batch_reads_as_inf(monkeypatch):
    # Python's max skips a NaN that does not come first, so a batch's NaN
    # peak must be read as inf before it meets the running sup
    spec = build_chain("thm2_eq3", EX2)
    grid = ChainGrid()
    Z = disc_grid(loewner.PDE_MESH, r_max=working_radius(spec))
    ts = loewner._times(64, grid.t_max, spec.a1_zero_window(grid.t_max))
    rows = CHAIN_BATCH_POINTS // Z.size
    assert rows == 7
    # f at the later time of the central difference, third row of batch two
    _poison(monkeypatch, [(ts[rows + 2] + loewner.H_T, Z[100])])
    _poisoned_report(spec, grid, "pde_residual_sup", math.inf)


def test_herglotz_inf_real_part_reads_as_minus_inf(monkeypatch):
    # min finds NaN and -inf but not +inf, which must read as -inf as well
    spec = build_chain("thm2_eq3", EX2)
    grid = ChainGrid()
    Zd = disc_grid(grid.z)
    ts = loewner._times(64, grid.t_max, spec.a1_zero_window(grid.t_max))
    # a time the D(k) sweep does not take, a point off the PDE mesh
    assert ts[9] not in loewner._times(loewner.DK_N_T, grid.t_max)
    assert Zd[300] not in disc_grid(loewner.PDE_MESH, r_max=working_radius(spec))
    _poison_p(monkeypatch, ts[9], Zd[300], complex(np.inf, 0.0))
    _poisoned_report(spec, grid, "herglotz_min_re", -math.inf)


def test_dk_nan_reads_as_inf(monkeypatch):
    spec = build_chain("thm2_eq3", EX2)
    grid = ChainGrid()
    Zk = disc_grid(loewner.DK_MESH)
    tk = loewner._times(loewner.DK_N_T, grid.t_max)
    # tk[6] = 2, the third row of the second batch, is no Herglotz or PDE time
    assert CHAIN_BATCH_POINTS // Zk.size == 4
    assert tk[6] not in loewner._times(64, grid.t_max, spec.a1_zero_window(grid.t_max))
    _poison_p(monkeypatch, tk[6], Zk[700], complex(np.nan, np.nan))
    _poisoned_report(spec, grid, "dk_radius_sup", math.inf)


SQUARE = np.array([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j])
DIAMOND = np.array([1, 1j, -1, -1j])
# a bar 4 wide and 2 high with a stem 2 wide on top: its edges from 4 + 2i
# to 3 + 2i and from 1 + 2i to 2i lie on the line y = 2
STEMMED = np.array([0, 4, 4 + 2j, 3 + 2j, 3 + 4j, 1 + 4j, 1 + 2j, 2j])
# vertex k at angle pi/2 + 4 pi k / 5: twice round the inner pentagon
PENTAGRAM = np.exp(1j * (np.pi / 2 + 0.8 * np.pi * np.arange(5)))


@pytest.mark.parametrize(
    "polygon, qs, want",
    [
        # queries at the height of the vertices 1 and -1, and of i
        (DIAMOND, [0.5, -0.5, 0, 1.5, -1.5, 0.5 + 1j, -0.5 + 1j], [1, 1, 1, 0, 0, 0, 0]),
        # queries on the lines of horizontal edges
        (STEMMED, [2 + 2j, 2 + 1j, 5 + 2j, -1 + 2j, -1 + 4j, -1], [1, 1, 0, 0, 0, 0]),
        (SQUARE, [3 + 1j, -3 - 1j, -3 + 1j], [0, 0, 0]),
        # a clockwise curve
        (SQUARE[::-1], [0, 0.5 + 0.25j, -0.9 + 0.99j, 3j], [-1, -1, -1, 0]),
        # winding 2 in the core, 1 in the points
        (
            PENTAGRAM,
            [0, 0.1 - 0.05j, 0.7j, 0.7 * np.exp(0.1j * np.pi), 0.7 * np.exp(1.3j * np.pi)],
            [2, 2, 1, 1, 1],
        ),
        # far outside
        (PENTAGRAM, [1e6, -1e6j, 1e6 + 1e6j], [0, 0, 0]),
    ],
    ids=["vertex-heights", "horizontal-edges", "square-edges", "clockwise", "pentagram", "far"],
)
def test_crossing_rule_matches_the_angle_sum(polygon, qs, want):
    qs = np.asarray(qs, dtype=complex)
    assert [_winding_number(polygon, q) for q in qs] == want
    assert loewner._winding_numbers(polygon, qs).tolist() == want


@pytest.mark.parametrize("bid, kind, text", CORPUS_CHAINS, ids=[c[0] for c in CORPUS_CHAINS])
def test_theorem_a_memory_peak(bid, kind, text):
    # one t per call peaked at 0.31-0.49 MiB, batches of 2^12 points at
    # 0.77-0.89 MiB and batches of 2^13 points at 1.42-1.66 MiB; 3 rows of
    # 4096 points peaked at 2.17-2.18 MiB and broadcasting every t at once
    # at 17-50 MiB.  Measured again with numpy 2.4: 0.55-0.74 MiB with both
    # K0 sweeps on their full meshes, 0.46-0.65 MiB with them on the outer
    # ring, as every corpus chain is certified pole-free, and 0.58-0.76 MiB
    # with one max or min per batch and all 64 subordination queries in one
    # crossing-rule call
    spec = _corpus_spec(kind, text)
    check_theorem_A(spec)  # warm the per-map caches
    tracemalloc.start()
    try:
        check_theorem_A(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
