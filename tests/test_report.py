import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from qcext.corpus import BUILTINS, builtin_ids, class_params_for
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


# builtins whose criterion parameters depart from the ones their theorem
# reads off the map's parameters
CLASS_OVERRIDES = {"koebe", "exterior_pole", "neg_deriv"}


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
    # the criterion itself is always the theorem's (corpus.theorem_class)
    departs = {
        bid
        for bid, ex in BUILTINS.items()
        if ex.class_params() != class_params_for(ex.theorem, ex.params())
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


@pytest.mark.parametrize("bid", builtin_ids())
def test_verify_memory_peak(bid):
    # both sweeps stream their grids in blocks; holding the whole 800x800
    # grid and its filtered copies, this verify peaked at 39-59 MiB
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tracemalloc.start()
        try:
            run_verify(builtin=bid, grid="800x800", no_timestamp=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 12 * 2**20


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

# sha256 of run_chain(builtin, grid=grid, tmax=tmax, no_timestamp=True)
# .to_json(), frozen before the K0 sweeps moved onto the outer ring of their
# meshes
CHAIN_GRID_TMAX_DIGESTS = {
    ("identity", "16x16", 0.2): "fd0f7da828056208df8f34d805fc82365c89a02fedcf42d9279682d993efa9a1",
    ("example2", "16x16", 0.2): "73bdcebe010be88a71f29cc2038861829958c0be034470fb8ba4b647e8f5c3cf",
    ("mobius", "16x16", 0.2): "3b7c17eabd7e03a80fbb5b0de2ca0eb418f2949962df2647ef253bb2143bfa2c",
    ("krzyz", "16x16", 0.2): "9d8501ee55605b528a21ed13860e017c282c74b3f7322b540f7352ca389ec285",
    ("exterior_u", "16x16", 0.2): "7475525e340b6dc9d7e09952b96c131a69c00c2e1772bd135087fef3c85487e0",
    ("exterior_pole", "16x16", 0.2): "2f4bace90b596f8bb56fa43621b25514212947fc50243409d93d1088f7166280",
    ("neg_deriv", "16x16", 0.2): "86eacdbf0162193b9859d504a8d811b3ba940592a544b1f276df26f2ebfbf286",
    ("identity", "16x16", 2.0): "15ce6516ba7f0a8b86636a2774f1ea1410980da0debe9fd0d795137bb784f86b",
    ("example2", "16x16", 2.0): "f9d15f4861ea1c412c4494ca73fb17840cfbe513db137a2834e11dbcebdd5f1e",
    ("mobius", "16x16", 2.0): "9027853a6a79e2405bf8cf30c8c0705351175385ffcfa894f626d1edda8b2c5f",
    ("krzyz", "16x16", 2.0): "a07771a513d5ca76b4ec1bb5c9d6dffcbbb743271bed65f3c39523703692f4b1",
    ("exterior_u", "16x16", 2.0): "a14f8ddca9a8e70974886c7811ebd9e00ed0ec81d7f87d32a84019258d4895ed",
    ("exterior_pole", "16x16", 2.0): "29237cf8e03476404d89b6a106d7c700a5a1672e875110c6f06b260bfde5cc82",
    ("neg_deriv", "16x16", 2.0): "f16641802a78f81a975b409a061bf5ce37b52c10fdf40ae3a6b337d3256b9ae5",
    ("identity", "32x32", 0.2): "3a1e2ff17d6c150ca4e5b1e51daf77331346834171efa928d93f6bfdd46dd713",
    ("example2", "32x32", 0.2): "5affb4004704023525961175e93b759f922428d6d5609baea45fccdffe198c58",
    ("mobius", "32x32", 0.2): "44feed2960846a7bed6c5911518fe1faf141becd813bec86dc3d81be0114f647",
    ("krzyz", "32x32", 0.2): "084766316a0d24f37ceace329ec0ac206bb66d3dd279d6818133b3dbf75f3dcb",
    ("exterior_u", "32x32", 0.2): "d820baf766b72e6f31d55e10a3bc284450237e11c4b9114abb8c97c3e44f05c2",
    ("exterior_pole", "32x32", 0.2): "bf2e7a2fa8af225c205dfbe150f23018dab2b653de2c1e679520d0146ad5ec47",
    ("neg_deriv", "32x32", 0.2): "9e7f462e710c3db1ea4841eedfd9beee4f53f902fafa48425f90468d5b7be449",
    ("identity", "32x32", 2.0): "88ec2ee67ef704f914a505f2bc87661f6cc867617e6f92b797df9e2a173843ff",
    ("example2", "32x32", 2.0): "e84235feadd2c353572dd79aaf0384e3f30614773003cbdc9ad3f81ecaf6e580",
    ("mobius", "32x32", 2.0): "cd586f60d4180c09a4ad5b40fac9f434e5bca95fbbc53dd7242c28005e6ec60c",
    ("krzyz", "32x32", 2.0): "775053a7fd32df31d7fd5458d15a63fce9d98d2b6afcd5beb0b5df44283de935",
    ("exterior_u", "32x32", 2.0): "162ac241df94a13550f45a9db68aa113305d70a0ec99821b0108ee087b166564",
    ("exterior_pole", "32x32", 2.0): "d23bc38396641bf25951d806b2bb28c445f17b5aa3b37be618ea3e84c45c6188",
    ("neg_deriv", "32x32", 2.0): "0ec4441e0140b22fc6331954359b90bface28c315dd06f2fd4828db7725e73de",
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


@pytest.mark.parametrize(
    "builtin, grid, tmax",
    sorted(CHAIN_GRID_TMAX_DIGESTS),
    ids=[f"{b}-{g}-t{t:g}" for b, g, t in sorted(CHAIN_GRID_TMAX_DIGESTS)],
)
def test_chain_report_bytes_at_other_grids_and_horizons_are_frozen(builtin, grid, tmax):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report, _ = run_chain(builtin=builtin, grid=grid, tmax=tmax, no_timestamp=True)
    assert _digest(report) == CHAIN_GRID_TMAX_DIGESTS[builtin, grid, tmax]
