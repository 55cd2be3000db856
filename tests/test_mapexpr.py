import cmath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcext.classifiers import u_expr
from qcext.corpus import builtin_ids, get_builtin
from qcext.mapexpr import (
    Add,
    Const,
    Div,
    EvalError,
    Mul,
    Neg,
    ParseError,
    PoleAtCenterError,
    Pow,
    Sub,
    Var,
    compose,
    const_text,
    denominator_roots,
    derive,
    eval_array,
    eval_map,
    is_normalized,
    laurent_at_infinity,
    parse_map,
    poles_in_disc,
    print_expr,
    rational_form,
    taylor_jet,
)
from qcext.sphere import INFINITY, is_infinity


# ---------------------------------------------------------------------------
# parsing


def test_parse_identity():
    m = parse_map("z")
    assert m == Var()


def test_parse_example_map_tree_shape():
    m = parse_map("z/(1-(1.5)*z+0.5*z^2)")
    assert isinstance(m, Div)
    assert m.left == Var()


def test_parse_error_offset_unbalanced():
    with pytest.raises(ParseError) as exc:
        parse_map("z/((")
    assert exc.value.offset == 3


def test_parse_error_offset_trailing_operator():
    with pytest.raises(ParseError) as exc:
        parse_map("z+")
    assert exc.value.offset == 1


def test_parse_error_offset_bad_char():
    with pytest.raises(ParseError) as exc:
        parse_map("z$")
    assert exc.value.offset == 1


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ParseError) as exc:
        parse_map("z^1.5")
    assert exc.value.offset == 2


def test_parse_exponent_overflow():
    with pytest.raises(ParseError, match="exponent overflow"):
        parse_map("z^65")
    with pytest.raises(ParseError, match="exponent overflow"):
        parse_map("z^-65")
    # 64 itself is allowed
    assert isinstance(parse_map("z^64"), Pow)


def test_parse_rejects_constant_zero_denominator():
    with pytest.raises(ParseError, match="zero"):
        parse_map("1/0")
    with pytest.raises(ParseError, match="zero"):
        parse_map("z/0.0")


def test_unary_minus_binds_tighter_than_power():
    # -z^2 is (-z)^2 in this grammar
    m = parse_map("-z^2")
    assert m == Pow(Neg(Var()), 2)
    assert eval_map(m, 3 + 0j) == 9 + 0j


def test_complex_literal():
    m = parse_map("2+0.5*i")
    assert eval_map(m, 0j) == 2 + 0.5j


def test_const_text_round_trip():
    for c in [1 + 0j, -1 + 0j, 0.5j, -0.25j, 1.5 - 2.5j, -3 + 1j, 0j]:
        assert eval_map(parse_map(const_text(c)), 0j) == c


# ---------------------------------------------------------------------------
# canonical printing / round trip


def test_round_trip_corpus_strings():
    texts = [
        "z",
        "z/(1-(1.5)*z+0.5*z^2)",
        "z/(1-z)^2",
        "z+0.12/z",
        "0.5*z/((0.5-z)*(1-0.5*z))",
        "z^2/(0.3-z)",
        "-z+0.3*z^2",
        "z+(0+0.3*i)*z^2",
    ]
    for text in texts:
        m = parse_map(text)
        again = parse_map(print_expr(m))
        assert again == m
        assert print_expr(again) == print_expr(m)


_depth3 = st.deferred(
    lambda: st.one_of(
        st.builds(Const, st.floats(min_value=0, max_value=1e6).map(complex)),
        st.just(Const(1j)),
        st.just(Var()),
        st.builds(Neg, _depth3),
        st.builds(Add, _depth3, _depth3),
        st.builds(Sub, _depth3, _depth3),
        st.builds(Mul, _depth3, _depth3),
        st.builds(
            Div,
            _depth3,
            _depth3.filter(lambda n: n != Const(0j)),
        ),
        st.builds(Pow, _depth3, st.integers(min_value=-64, max_value=64)),
    )
)


@given(_depth3)
def test_round_trip_random_trees(root):
    text = print_expr(root)
    assert parse_map(text) == root


# ---------------------------------------------------------------------------
# evaluation


def test_eval_identity():
    assert eval_map(parse_map("z"), 2 + 0j) == 2 + 0j


def test_eval_pole_returns_infinity():
    kp = parse_map("0.5*z/((0.5-z)*(1-0.5*z))")
    assert is_infinity(eval_map(kp, 0.5 + 0j))


def test_eval_plain_rational():
    m = parse_map("z/(1+0.5*z^2)")
    got = eval_map(m, 0.5 + 0j)
    assert abs(got - 0.5 / 1.125) < 1e-15


def test_eval_indeterminate_raises():
    m = Div(Var(), Var())
    with pytest.raises(EvalError, match="0 / 0"):
        eval_map(m, 0j)


def test_eval_cancelled_pole_is_indeterminate():
    # P = 0 and Q = (z - 0.5)^2 in the normal form: 0/0 at z = 0.5
    m = parse_map("1/(z-0.5)-1/(z-0.5)")
    with pytest.raises(EvalError, match="0 / 0"):
        eval_map(m, 0.5 + 0j)
    assert eval_map(m, 0.2 + 0j) == 0j


def _seeded_points(lo, hi, n=64, seed=14):
    rng = np.random.default_rng(seed)
    r = rng.uniform(lo, hi, n)
    return r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


@pytest.mark.parametrize("builtin", builtin_ids())
def test_eval_map_matches_eval_array_on_every_builtin(builtin):
    # the scalar path reads P/Q, the array path walks the tree
    # U_f = (z/f)^2 f' - 1 subtracts 1 from a term near 1, so its rounding
    # scale is |U_f| + 1; it vanishes identically on identity and mobius
    f = parse_map(get_builtin(builtin).text())
    Z = np.concatenate([_seeded_points(0.0, 0.95), _seeded_points(1.05, 10.0)])
    for m, offset in ((f, 0.0), (derive(f), 0.0), (u_expr(f), 1.0)):
        for z, w in zip(Z, eval_array(m, Z)):
            got = eval_map(m, complex(z))
            assert abs(got - w) <= 1e-12 * (abs(w) + offset), (print_expr(m), z)


def test_eval_at_infinity_finite_limit():
    assert eval_map(parse_map("z/(1-z)"), INFINITY) == -1 + 0j
    assert eval_map(parse_map("1/z"), INFINITY) == 0j


def test_eval_far_out_reads_the_chart_at_infinity():
    # P(z) and Q(z) overflow at |z| = 1e9; the map is about z there
    m = parse_map("z^40/(z^39+0.1)")
    for z in (1e9 + 0j, 1e8 * cmath.exp(0.9j)):
        assert abs(eval_map(m, z) - z) <= 1e-15 * abs(z)
    assert is_infinity(eval_map(parse_map("z^41"), 1e8 + 0j))
    assert eval_map(parse_map("1/z^41"), 1e8 + 0j) == 0j


def test_eval_at_infinity_infinite_limit():
    assert is_infinity(eval_map(parse_map("z^2"), INFINITY))
    assert is_infinity(eval_map(parse_map("z+0.12/z"), INFINITY))


def test_eval_array_matches_scalar():
    m = parse_map("z/(1-(1.5)*z+0.5*z^2)")
    Z = np.array([0.1 + 0.2j, -0.3j, 0.5 + 0.5j, 0.9 + 0j])
    arr = eval_array(m, Z)
    for z, w in zip(Z, arr):
        assert abs(w - eval_map(m, complex(z))) < 1e-14 * max(1.0, abs(w))


def test_eval_array_broadcasts_constants():
    m = parse_map("2")
    Z = np.zeros((3, 4), dtype=complex)
    arr = eval_array(m, Z)
    assert arr.shape == (3, 4)
    assert np.all(arr == 2)


# ---------------------------------------------------------------------------
# derivative


def test_derive_identity():
    d = derive(parse_map("z"))
    assert eval_map(d, 0.3 + 0.4j) == 1 + 0j


def test_derive_koebe_normalization():
    d = derive(parse_map("z/(1-z)^2"))
    assert abs(eval_map(d, 0j) - 1.0) < 1e-15


def test_derive_matches_finite_differences_with_order():
    m = parse_map("z/(1+0.5*z^2)")
    d = derive(m)
    pts = [0.5 + 0j, 0.2 - 0.3j, -0.4 + 0.1j]
    errs = {}
    for h in (1e-4, 1e-5):
        worst = 0.0
        for z in pts:
            fd = (eval_map(m, z + h) - eval_map(m, z - h)) / (2 * h)
            worst = max(worst, abs(fd - eval_map(d, z)))
        errs[h] = worst
    order = np.log(errs[1e-4] / errs[1e-5]) / np.log(10.0)
    assert order >= 1.9


def test_derive_round_trips_through_grammar():
    m = parse_map("z/(1-(1.5)*z+0.5*z^2)")
    d = derive(m)
    assert parse_map(print_expr(d)) == d


def test_compose():
    f = parse_map("z^2")
    g = parse_map("1+z")
    fg = compose(f, g)
    assert eval_map(fg, 2 + 0j) == 9 + 0j


# ---------------------------------------------------------------------------
# jets


def test_jet_identity():
    jet = taylor_jet(parse_map("z"), 4)
    assert jet == (0j, 1 + 0j, 0j, 0j, 0j)


def test_jet_a2_of_kp_lambda():
    # a2 = lam*p + 1/p with p=0.5, lam=0.5
    m = parse_map("z/(1-(2.25)*z+0.5*z^2)")
    jet = taylor_jet(m, 3)
    assert abs(jet[2] - 2.25) < 1e-12


def test_jet_a2_of_example_family():
    m = parse_map("z/(1-(1.5)*z+0.5*z^2)")
    jet = taylor_jet(m, 2)
    assert abs(jet[2] - 1.5) < 1e-12


def test_jet_c1_equals_derivative_at_zero():
    for text in ["z/(1-z)^2", "z/(1+0.5*z^2)", "z+0.25*z^3"]:
        m = parse_map(text)
        jet = taylor_jet(m, 3)
        assert abs(jet[1] - eval_map(derive(m), 0j)) < 1e-12


def test_jet_cauchy_product():
    f = parse_map("z/(1-z)")
    g = parse_map("1+0.5*z^2")
    prod = parse_map("(z/(1-z))*(1+0.5*z^2)")
    J = 6
    jf = np.array(taylor_jet(f, J))
    jg = np.array(taylor_jet(g, J))
    jp = np.array(taylor_jet(prod, J))
    cauchy = np.convolve(jf, jg)[: J + 1]
    assert np.max(np.abs(jp - cauchy)) < 1e-12


def test_jet_pole_at_center():
    with pytest.raises(PoleAtCenterError):
        taylor_jet(parse_map("1/z"), 3)


def test_jet_order_floor():
    with pytest.raises(ValueError):
        taylor_jet(parse_map("z"), 1)


# ---------------------------------------------------------------------------
# rational form, infinity expansions, poles


def test_rational_form_collects():
    P, Q = rational_form(parse_map("z/(1-z)+1"))
    # (z + (1-z)) / (1-z) = 1/(1-z)
    val = np.polynomial.polynomial.polyval(0.3, P) / np.polynomial.polynomial.polyval(0.3, Q)
    assert abs(val - 1 / 0.7) < 1e-14


def test_rational_form_is_cached_per_map_and_read_only():
    # equal trees share one entry, so no caller may write into the arrays
    P, Q = rational_form(parse_map("z/(1-0.5*z)^2"))
    again = rational_form(parse_map("z/(1-0.5*z)^2"))
    assert again[0] is P and again[1] is Q
    for a in (P, Q):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    # a failing form is not cached: it raises on every call
    for _ in range(2):
        with pytest.raises(EvalError):
            rational_form(parse_map("1/(z-z)"))


def test_negative_powers_have_the_normal_form_of_a_quotient():
    P, Q = rational_form(parse_map("z^-1"))
    assert (P.tolist(), Q.tolist()) == ([1], [0, 1])
    for a, b in zip(rational_form(parse_map("z+0.5*z^-1")), rational_form(parse_map("z+0.5/z"))):
        assert a.tolist() == b.tolist()
    k, c = laurent_at_infinity(parse_map("z+0.5*z^-1"), 4)
    k_quotient, c_quotient = laurent_at_infinity(parse_map("z+0.5/z"), 4)
    assert k == k_quotient == 1 and c.tolist() == c_quotient.tolist()
    with pytest.raises(EvalError, match="negative power of the zero expression"):
        rational_form(parse_map("(z-z)^-1"))


def test_derivatives_of_integer_powers_fold_their_constants():
    assert print_expr(derive(parse_map("z^-1"))) == "((-1)*(z^-2))"
    assert print_expr(derive(parse_map("z^0"))) == "0"


def test_laurent_at_infinity_of_g():
    # g = z + 0.12/z: top degree 1, coefficients 1, 0, 0.12
    k, c = laurent_at_infinity(parse_map("z+0.12/z"), 4)
    assert k == 1
    assert abs(c[0] - 1) < 1e-14
    assert abs(c[1]) < 1e-14
    assert abs(c[2] - 0.12) < 1e-14


def test_laurent_of_inverted_map():
    # g(zeta) = zeta^2/(0.3-zeta) = -zeta/(1-0.3/zeta) = -zeta - 0.3 - 0.09/zeta - ...
    k, c = laurent_at_infinity(parse_map("z^2/(0.3-z)"), 4)
    assert k == 1
    assert abs(c[0] + 1) < 1e-14
    assert abs(c[1] + 0.3) < 1e-14
    assert abs(c[2] + 0.09) < 1e-14


def test_poles_in_disc():
    kp = parse_map("0.5*z/((0.5-z)*(1-0.5*z))")
    poles = poles_in_disc(kp)
    assert len(poles) == 1
    assert abs(poles[0] - 0.5) < 1e-9


def test_poles_in_disc_skips_removable():
    m = parse_map("(z*(1-2*z))/(1-2*z)")
    assert poles_in_disc(m) == []


def test_nearest_singularity():
    # the distance loewner.working_radius reads from the denominator's roots
    def nearest(text):
        _, Q = rational_form(parse_map(text))
        return float(np.min(np.abs(denominator_roots(Q)), initial=np.inf))

    assert nearest("z+0.25*z^2") == float("inf")
    assert abs(nearest("z/(1-0.5*z)") - 2.0) < 1e-12


def test_is_normalized():
    assert is_normalized(parse_map("z/(1-z)^2"))
    assert is_normalized(parse_map("z/(1+0.5*z^2)"))
    assert not is_normalized(parse_map("2*z"))
    assert not is_normalized(parse_map("-z+0.3*z^2"))
    assert not is_normalized(parse_map("1/z"))
    assert not is_normalized(parse_map("z+1/(z-z)"))  # no normal form


@pytest.mark.parametrize("text", ["z+(1e200*z)^2", "z*(1+1e200*z)^2", "z+1e400", "z+(1e200*z^2)*1e200"])
def test_an_overflowed_normal_form_is_refused_not_read_as_another_map(text):
    # a coefficient of inf or nan, final or on the way, used to trim to the
    # zero polynomial: z+(1e200*z)^2 read as z
    f = parse_map(text)
    for call in (rational_form, is_normalized, lambda m: taylor_jet(m, 2)):
        with pytest.raises(ValueError, match="normal form overflows"):
            call(f)


# ---------------------------------------------------------------------------
# canonical print properties


@given(st.floats(min_value=0, max_value=1e12))
def test_const_print_parse_exact(x):
    node = Const(complex(x, 0.0))
    text = print_expr(node)
    assert parse_map(text) == node


def test_no_negative_zero_in_print():
    assert print_expr(Const(0j)) == "0"
