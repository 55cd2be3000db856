import json
import math

import pytest

from qcext.corpus import BUILTINS, THEOREM_CLASS, class_params_for
from qcext.errors import PreconditionError
from qcext.report import (
    build_extension,
    dump_json,
    run_chain,
    run_verify,
)
from qcext.mapexpr import parse_map


# ---------------------------------------------------------------------------
# serialization


def test_dump_json_numbers():
    assert dump_json(0.5) == "0.5"
    assert dump_json(1.0 / 3.0) == "0.33333333333333331"
    assert dump_json(float("nan")) == '"nan"'
    assert dump_json(float("inf")) == '"inf"'
    assert dump_json(1 + 2j) == "[1,2]"
    assert dump_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'
    assert dump_json('he said "hi"\n') == '"he said \\"hi\\"\\n"'


def test_report_json_is_valid_json():
    report, code = run_verify(
        builtin="example2", theorem="t2", grid="24x24", no_timestamp=True
    )
    doc = json.loads(report.to_json())
    assert doc["schema"] == 1
    assert doc["overall"] is True
    assert doc["map"] == "z/(1+0.5*z^2)"
    assert "tool_version" in doc and "wall_time_ms" in doc
    assert code == 0


def test_report_determinism_without_timestamp():
    kw = dict(builtin="example2", theorem="t2", grid="24x24", no_timestamp=True)
    a, _ = run_verify(**kw)
    b, _ = run_verify(**kw)
    assert a.to_json() == b.to_json()


def test_timestamp_present_by_default():
    report, _ = run_verify(builtin="identity", grid="16x16")
    assert report.timestamp is not None
    assert report.wall_time_ms > 0


# ---------------------------------------------------------------------------
# verify pipeline


def test_verify_example2_bound():
    report, code = run_verify(
        builtin="example2", params={"lambda": 0.5}, theorem="t2", no_timestamp=True
    )
    assert code == 0
    assert report.beltrami["sup_mu"] <= 0.501


def test_verify_koebe_t2_hits_precondition():
    with pytest.raises(PreconditionError):
        run_verify(builtin="koebe", theorem="t2", no_timestamp=True)


def test_verify_identity_mu_zero():
    report, code = run_verify(
        map_text="z", theorem="t2", grid="32x32", no_timestamp=True
    )
    assert code == 0
    # estimator noise only: the reflection formula costs one extra division
    assert report.beltrami["sup_mu"] <= 1e-8


def test_verify_failure_exits_one():
    report, code = run_verify(
        builtin="koebe", theorem="t1", grid="48x48", no_timestamp=True
    )
    assert code == 1
    assert not report.overall
    assert any("negative control" in n for n in report.notes)


def test_verify_requires_one_source():
    with pytest.raises(ValueError):
        run_verify(map_text="z", builtin="identity")
    with pytest.raises(ValueError):
        run_verify()


@pytest.mark.parametrize(
    "builtin",
    ["mobius", "p_mobius", "exterior_u", "exterior_pole", "brown_quad", "neg_deriv"],
)
def test_verify_defaults_pass(builtin):
    if builtin == "exterior_pole":
        with pytest.warns(UserWarning):
            report, code = run_verify(builtin=builtin, grid="48x48", no_timestamp=True)
    else:
        report, code = run_verify(builtin=builtin, grid="48x48", no_timestamp=True)
    assert code == 0, report.to_text()


# builtins whose class criterion departs from the one their theorem assumes
CLASS_OVERRIDES = {"p_mobius", "koebe", "exterior_pole", "neg_deriv"}


@pytest.mark.parametrize("builtin", sorted(set(BUILTINS) - CLASS_OVERRIDES))
def test_builtin_and_its_map_text_sweep_the_same_class(builtin):
    ex = BUILTINS[builtin]
    by_id, _ = run_verify(builtin=builtin, grid="24x24", no_timestamp=True)
    by_map, _ = run_verify(
        map_text=ex.text(),
        theorem=ex.theorem,
        params=ex.params(),
        grid="24x24",
        no_timestamp=True,
    )
    assert by_id.class_verdicts and by_map.class_verdicts == by_id.class_verdicts


def test_only_the_declared_builtins_depart_from_their_theorem():
    departs = {
        bid
        for bid, ex in BUILTINS.items()
        if (ex.class_name, ex.class_params())
        != (THEOREM_CLASS[ex.theorem], class_params_for(ex.theorem, ex.params()))
    }
    assert departs == CLASS_OVERRIDES


def test_theorem_dispatch_splits_on_vanishing_functional():
    assert build_extension("t1", parse_map("z/(1-0.5*z)"), {}).outer_id == "mobius_polar"
    assert (
        build_extension("t1", parse_map("z/(1+0.5*z^2)"), {}).outer_id
        == "phi_reflection"
    )
    em = build_extension("t1", parse_map("z/(1-z)"), {"M": 2.0 + 0j})
    assert em.outer_id == "radial_profile"


# ---------------------------------------------------------------------------
# chain pipeline


def test_chain_krzyz_dk_bound():
    report, code = run_chain(
        builtin="krzyz", params={"k": 0.5}, chain="krzyz", grid="24x24", no_timestamp=True
    )
    assert code == 0
    lo = report.loewner
    assert lo["kind"] == "krzyz_eq9"
    assert lo["dk_radius_sup"] <= 0.5 + 1e-9
    assert lo["base_map"] == "0.5*z"


def test_chain_identity_is_trivial():
    report, code = run_chain(map_text="z", chain="thm2", grid="16x16", no_timestamp=True)
    assert code == 0
    assert report.loewner["herglotz_min_re"] >= 1.0 - 1e-6
    assert report.loewner["dk_radius_sup"] <= 1e-9


@pytest.mark.parametrize("tmax, window", [(0.2, None), (5.0, [0.3, 0.4])])
def test_chain_reports_the_a1_window_of_its_own_tmax(tmax, window):
    # the a1 zero of this cor1 chain sits near t = 0.35
    report, _ = run_chain(map_text="z+0.1/z", chain="cor1", tmax=tmax, no_timestamp=True)
    assert report.loewner.get("a1_zero_window") == window


def test_chain_flag_validation():
    with pytest.raises(ValueError):
        run_chain(builtin="example1")  # declares no chain kind
    with pytest.raises(ValueError):
        run_chain(map_text="z", chain="warp")
    with pytest.raises(ValueError):
        run_chain(map_text="z")
