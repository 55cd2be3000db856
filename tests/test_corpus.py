import cmath
import math

import numpy as np
import pytest

from qcext.classifiers import check_class
from qcext.corpus import BUILTINS, builtin_ids, get_builtin, theorem_class
from qcext.extensions import ext_huang_owa
from qcext.mapexpr import eval_array, parse_map, taylor_jet


def test_registry_ids():
    ids = builtin_ids()
    for required in (
        "identity",
        "example1",
        "example2",
        "example3",
        "koebe",
        "kp",
        "mobius",
        "krzyz",
    ):
        assert required in ids
    with pytest.raises(ValueError):
        get_builtin("nope")


def test_substitution_example2():
    ex = get_builtin("example2")
    assert ex.text() == "z/(1+0.5*z^2)"
    assert ex.text({"lambda": 0.25}) == "z/(1+0.25*z^2)"
    with pytest.raises(ValueError):
        ex.text({"mu": 1.0})


def test_example1_rotation_enters_the_jet():
    ex = get_builtin("example1")
    f = parse_map(ex.text({"lambda": 0.5, "theta": math.pi / 3}))
    c2 = taylor_jet(f, 3)[2]
    assert abs(c2 - 1.5 * cmath.exp(1j * math.pi / 3)) < 1e-9


def test_example3_factored_form():
    got = parse_map(get_builtin("example3").text())
    ref = parse_map("z/((1-2*z)*(1-0.25*z))")
    Z = np.linspace(-0.7, 0.7, 41) + 0.11j
    assert np.max(np.abs(eval_array(got, Z) - eval_array(ref, Z))) < 1e-12


def test_expected_bounds():
    assert get_builtin("identity").expected_k() == 0.0
    assert abs(get_builtin("mobius").expected_k({"a2": 0.3}) - 0.3) < 1e-15
    assert abs(get_builtin("p_mobius").expected_k({"M": 2.0}) - 0.6) < 1e-15
    assert abs(get_builtin("krzyz").expected_k({"k": 0.6}) - 0.6) < 1e-15
    assert get_builtin("koebe").expected_k() is None


def test_chain_text_for_decay_family():
    # the chain runs on w, not on g itself
    assert get_builtin("krzyz").chain_text({"k": 0.25}) == "0.25*z"


def test_all_builtins_parse_at_defaults():
    for ex in BUILTINS.values():
        parse_map(ex.text())


def test_psi_with_a_pole_assumes_v_p_lambda():
    assert theorem_class("psi", {"p": 0.5 + 0j}) == "V_p_lambda"
    assert theorem_class("psi", {"M": 2.0 + 0j}) == "U_lambda"
    assert theorem_class("t3", {"p": 0.5 + 0j}) == "V_p_lambda"
    assert theorem_class("t1", {"p": 0.5 + 0j}) == "U_lambda"


def test_positive_builtins_pass_their_class_checks():
    for ex in BUILTINS.values():
        which = theorem_class(ex.theorem, ex.params())
        if which is None or ex.negative:
            continue
        verdict = check_class(parse_map(ex.text()), which, ex.class_params())
        assert verdict.holds, (ex.id, verdict.worst_value, verdict.bound)


def test_negative_controls_fail_as_documented():
    koebe = get_builtin("koebe")
    verdict = check_class(parse_map(koebe.text()), "U_lambda", koebe.class_params())
    assert not verdict.holds
    # the p-symmetric pole map sits on the lambda=1 boundary: membership at
    # the boundary holds, but the derived dilatation bound degenerates to 1
    kp = get_builtin("kp")
    assert check_class(parse_map(kp.text()), "V_p_lambda", kp.class_params()).holds
    assert ext_huang_owa(parse_map(kp.text())).claimed_k >= 1.0 - 1e-9
