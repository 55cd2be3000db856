import hashlib
import json
import warnings

import numpy as np
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
from qcext.sphere import INFINITY


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
    # sphere points: the point at infinity, and [re, im] with the zero's sign
    assert dump_json(INFINITY) == '"infinity"'
    assert dump_json(np.complex128(complex(-0.0, 1.0))) == "[-0,1]"
    assert dump_json(((INFINITY, 0.5 + 0j),)) == '[["infinity",[0.5,0]]]'


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


@pytest.mark.parametrize(
    "builtin, theorem, text", [("exterior_u", "krzyz", "z+0.12/z"), ("krzyz", "t4", "z+0.5/z")]
)
def test_builtin_under_another_theorem_runs_as_its_map_text(builtin, theorem, text):
    # the builtin's own criterion and expected k belong to its own theorem
    by_id, _ = run_verify(builtin=builtin, theorem=theorem, grid="16x16", no_timestamp=True)
    by_map, _ = run_verify(map_text=text, theorem=theorem, grid="16x16", no_timestamp=True)
    assert by_map.class_verdicts == by_id.class_verdicts
    assert by_map.beltrami == by_id.beltrami


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


def test_t1_extends_a_near_mobius_map_itself():
    # U_f's jet at 0 vanishes to order 6 here, but f is not z/(1 - a2 z)
    f = parse_map("z/(1-0.5*z)+0.001*z^9")
    em = build_extension("t1", f, {})
    assert em.outer_id == "phi_reflection"
    assert em.inner == f


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


# ---------------------------------------------------------------------------
# report bytes across the corpus

# sha256 of run_verify(builtin, grid="24x24", no_timestamp=True).to_json()
# and of run_chain(builtin, grid="16x16", no_timestamp=True).to_json(),
# frozen before the chain sweeps and the reflection builders were rewritten
VERIFY_DIGESTS = {
    "identity": "8f8ad6a45c756a7eeb4748b7276fd45b2cb65dafdf3497541bfcc175d76a8f38",
    "example1": "bd854efe19e5b780e88057fb9d11260fbeed55971e07a5dfc7b1301c372db888",
    "example2": "caea75b5fb7589b2ef244fc611b63b4874f6c2c6651eb1c084a93737c3eeb2e8",
    "example3": "5d99cc37888118cec71e99f9174f976cf9e74a74c2644e6d77b01f4d9bbc1fe5",
    "koebe": "da52c414d41876f815e28d8c4b3f997f56303fe75988678227174e4c4c5b5320",
    "kp": "59ea277b8d9d15b22a437386939d0a94de773f88fc07750ece716c660f70e243",
    "mobius": "ba20041d1ddc8e4d8a2145cd0ede141f707a28e08bbd7d15ca2a515babd35827",
    "p_mobius": "203fd8bbf6759a7afc34a9dd33e2c53856a694c1fc003c32801a5baec98cfbc4",
    "krzyz": "bab5cd908ce09c16645df31d3319254b3aa7dc7c33ce2bf3660961459550d2bf",
    "exterior_u": "e7f2dd260144f72417323ca54b67da8eb25f30b982ed0280623198462071b24b",
    "exterior_pole": "d272443e251adc7f8f54f098d2d0aec7cfa7e12338ab1d1b6ddbc61dea7b6afd",
    "brown_quad": "039349359714d91e2e532c835737364e086e2211e0e987ab9148a14d40aa3b96",
    "neg_deriv": "ccf023c293a693e3a257dff255e7754355a742d684bd0c865edd94f2a0d2a67a",
}
CHAIN_DIGESTS = {
    "identity": "a7c68e537f36a900c10454d04f8b6c2cd36307e518844a6add378e0447653eb2",
    "example2": "e3cdced6ecefc807484c28b3700d1511b61f2d8227fe8affb7cac6fd9f375d88",
    "mobius": "57b81c84adda879fce5c950b7f6c79ddffacd6fe2d00b635b8d8e2bcffd8e4e9",
    "krzyz": "7e35d94ffbdb76d8807ea037b4ab1ec2e4c9ba781c4c26af66cfd41fe5abe0b2",
    "exterior_u": "fa17480beb1be1e301472470cef03111684f2e1e3a4df804edeccfaee5ad4ae3",
    "exterior_pole": "d4f4e883e6f97885d071aa273d9bf2aa282e63e902738920b229d7c765460333",
    "neg_deriv": "5399699b6d082a0c49f33bb87975bf1e1a91fec01d10d3fd646b71663d795b98",
}


def _digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.mark.parametrize("builtin", sorted(VERIFY_DIGESTS))
def test_verify_report_bytes_are_frozen(builtin):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report, _ = run_verify(builtin=builtin, grid="24x24", no_timestamp=True)
    assert _digest(report) == VERIFY_DIGESTS[builtin]


@pytest.mark.parametrize("builtin", sorted(CHAIN_DIGESTS))
def test_chain_report_bytes_are_frozen(builtin):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report, _ = run_chain(builtin=builtin, grid="16x16", no_timestamp=True)
    assert _digest(report) == CHAIN_DIGESTS[builtin]
