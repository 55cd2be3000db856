import io
import json
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcext import cli, loewner, report
from qcext.cli import main
from qcext.corpus import THEOREMS
from qcext.grids import GridSpec
from qcext.loewner import CHAIN_KINDS, ChainGrid
from qcext.mapexpr import const_text
from qcext.report import build_extension


def test_verify_writes_deterministic_json(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = [
        "verify",
        "--builtin",
        "example2",
        "--theorem",
        "t2",
        "--grid",
        "24x24",
        "--no-timestamp",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["schema"] == 1 and doc["overall"] is True


def test_verify_text_format(capsys):
    code = main(
        [
            "verify",
            "--map",
            "z",
            "--theorem",
            "t2",
            "--grid",
            "16x16",
            "--format",
            "text",
            "--no-timestamp",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: pass" in out


def test_text_class_line_prints_the_json_margin(capsys):
    # the worst value prints as the bound, but the margin shows the failure
    argv = ["verify", "--builtin", "example2", "--grid", "2000x16", "--no-timestamp"]
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    (verdict,) = doc["class_verdicts"]
    assert verdict["margin"] == pytest.approx(-1.228e-9, rel=1e-3)
    assert main(argv + ["--format", "text"]) == 1
    out = capsys.readouterr().out
    line = "class U_lambda: FAILS (worst 0.5 vs bound 0.5, margin -1.23e-09)"
    assert line in out.splitlines()
    assert f"margin {verdict['margin']:.3g})" in line


def test_exit_codes(capsys, tmp_path):
    # precondition violated: second coefficient is 2, not 0
    assert main(["verify", "--builtin", "koebe", "--theorem", "t2"]) == 2
    # bad expression text
    assert main(["verify", "--map", "z/((", "--theorem", "t2"]) == 2
    # malformed --param
    assert main(["verify", "--builtin", "example2", "--param", "lambda"]) == 2
    # verification failure
    assert (
        main(
            [
                "verify",
                "--builtin",
                "koebe",
                "--theorem",
                "t1",
                "--grid",
                "48x48",
                "--no-timestamp",
                "--out",
                str(tmp_path / "k.json"),
            ]
        )
        == 1
    )
    capsys.readouterr()


def test_chain_command(tmp_path, capsys):
    out = tmp_path / "chain.json"
    code = main(
        [
            "chain",
            "--builtin",
            "krzyz",
            "--param",
            "k=0.5",
            "--chain",
            "krzyz",
            "--grid",
            "16x16",
            "--no-timestamp",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["loewner"]["dk_radius_sup"] <= 0.5 + 1e-9
    capsys.readouterr()


@pytest.mark.parametrize("tmax", ["-1", "0", "nan", "inf"])
def test_chain_refuses_a_horizon_that_samples_no_positive_time(tmax, capsys):
    code = main(["chain", "--builtin", "example2", "--tmax", tmax])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("qcext: t_max must be finite and positive")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("tmax", ["1e6", "400"])
def test_chain_refuses_a_horizon_past_double_range(tmax, capsys):
    # past T_MAX_LIMIT the chain formulas overflow; the chain is not singular
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code = main(["chain", "--builtin", "example2", "--tmax", tmax])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("qcext: t_max must be below 300,")
    assert captured.err.count("\n") == 1
    # main prints what it records, an overflow RuntimeWarning included
    assert "qcext: warning:" not in captured.err


@pytest.mark.parametrize("M", ["inf", "nan", "1"])
def test_verify_refuses_a_profile_constant_that_is_not_finite_above_one(M, capsys):
    argv = ["verify", "--builtin", "p_mobius", "--param", f"M={M}", "--no-timestamp"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "qcext: profile constant M must be finite and exceed 1\n"


def test_verify_refuses_a_profile_constant_whose_square_overflows(capsys):
    # M^2 = inf makes the bound (M^2 - 1)/(M^2 + 1) nan
    argv = ["verify", "--builtin", "p_mobius", "--param", "M=1e200", "--no-timestamp"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "qcext: profile constant M = 1e+200 is too large: "
        "the bound (M^2 - 1)/(M^2 + 1) rounds to 1\n"
    )


def test_verify_refuses_a_profile_constant_whose_bound_rounds_to_one(capsys):
    # M^2 is finite, but (M^2 - 1)/(M^2 + 1) is 1.0 in floating point, and
    # the outer branch then has no usable derivative on much of the plane
    argv = ["verify", "--builtin", "p_mobius", "--param", "M=1e10", "--no-timestamp"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "qcext: profile constant M = 10000000000.0 is too large: "
        "the bound (M^2 - 1)/(M^2 + 1) rounds to 1\n"
    )


@pytest.mark.parametrize("theorem", ["convex", "psi"])
def test_verify_near_mobius_map_under_a_mobius_theorem_exits_two(theorem, capsys):
    # U_f's jet at 0 vanishes to order 6 here, but f is not z/(1 - a2 z)
    argv = ["verify", "--map", "z/(1-0.5*z)+0.001*z^9", "--theorem", theorem]
    code = main(argv + ["--grid", "24x24", "--format", "text"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "vanishes identically" in captured.err


def test_a_coefficient_scale_that_overflows_zeroes_no_dust(capsys):
    # the Mobius test's coefficient scale for a2 = 1e200 overflows to inf;
    # inf times TAU_COEFF_DUST must not zero every coefficient, which read
    # z + 1e200 z^2 as z/(1 - a2 z)
    argv = ["verify", "--map", "z+1e200*z^2", "--theorem", "convex", "--grid", "16x16"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "qcext: this case applies only when the small functional vanishes "
        "identically (a disc automorphism denominator)\n"
    )


@pytest.mark.parametrize("theorem", ["t1", "t3"])
def test_a_jet_that_swamps_f_prime_exits_two_before_the_series(theorem, capsys):
    # series_inv would read f'(0) = 1 against a2 = 1e200 as a zero constant
    # term of z/f and fail with exit 3; phi_from_map refuses the map first
    argv = ["verify", "--map", "z+1e200*z^2", "--theorem", theorem, "--grid", "16x16"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "qcext: Taylor coefficients up to 1e+200 swamp f'(0)=1, so z/f has "
        "no usable series at 0\n"
    )


def test_indeterminate_map_at_zero_is_a_numerical_failure(capsys):
    # ext_thm5 reads z/z at 0, where its normal form is 0/0
    code = main(["verify", "--map", "z/z", "--theorem", "t5", "--grid", "8x8"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "qcext: numerical failure: 0 / 0\n"


def test_chain_singular_inside_the_disc_exits_three(capsys):
    # the pole 1/20 of z/(1-20*z) lies inside the thm5 chain's disc at t = 0
    code = main(["chain", "--map", "z/(1-20*z)", "--chain", "t5", "--grid", "8x8"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "qcext: singularity: chain singular at z=(0.05+0j), t=0.0\n"


def test_psi_with_p_refuses_a_map_other_than_p_z_over_p_minus_z(capsys):
    # with p, psi extends only the Mobius map p z/(p - z)
    argv = ["verify", "--map", "z+0.1*z^2", "--theorem", "psi", "--param", "p=0.5"]
    code = main(argv + ["--grid", "16x16"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "qcext: psi with p = 0.5 extends only 0.5*z/(0.5-z)\n"


def test_psi_with_p_refuses_a_pole_off_the_real_axis(capsys):
    # p z/(p - z) with p = 0.5+0.1i passes the Mobius test; the radial
    # construction needs a real p
    argv = ["verify", "--map", "z/(1-z/(0.5+0.1*i))", "--theorem", "psi"]
    code = main(argv + ["--param", "p=0.5+0.1j", "--grid", "16x16"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "qcext: vp_pole needs real p in (0,1)\n"


@pytest.mark.parametrize(
    "text, inner",
    [("0.5*z/(0.5-z)", "((0.5*z)/(0.5-z))"), ("z/(1-2*z)", "(z/(1-(2*z)))")],
    ids=["0.5*z/(0.5-z)", "z/(1-2*z)"],
)
def test_psi_with_p_sweeps_v_p_lambda(text, inner, capsys):
    # the extension's analytic branch is the map as given
    argv = ["verify", "--map", text, "--theorem", "psi", "--param", "p=0.5"]
    code = main(argv + ["--grid", "24x24", "--no-timestamp"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [v["class_name"] for v in doc["class_verdicts"]] == ["V_p_lambda"]
    assert doc["extension"]["inner"] == inner


def test_overflowing_map_exits_one_without_numpy_warnings(capsys):
    # P(z) and Q(z) overflow at the |z| = 1e8 chart probe; eval_map reads
    # the map in the chart w = 1/z there, so the run ends in a verdict
    code = main(["verify", "--map", "z^40/(z^39+0.1)", "--theorem", "t4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "overflow encountered" not in captured.err
    assert "qcext: warning:" not in captured.err


@pytest.mark.parametrize("style", ["grid", "domaincolor"])
@pytest.mark.parametrize("window", ["0", "-1", "nan", "inf", "1e308"])
def test_render_refuses_a_window_that_is_not_finite_and_positive(
    window, style, tmp_path, capsys
):
    image = tmp_path / "x.ppm"
    argv = ["render", "--builtin", "example2", "--image", str(image)]
    code = main(argv + ["--resolution", "8", "--style", style, "--window", window])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("qcext: window must be finite and positive")
    assert captured.err.count("\n") == 1
    assert not image.exists()


EXTERIOR_POLE_WARNING = (
    "qcext: warning: exterior map with leading coefficient (-1+0j); "
    "the construction and its chain tolerate any unimodular one\n"
)


@pytest.mark.parametrize("command", ["verify", "chain"])
def test_builder_warning_is_one_line_after_the_report(command, capsys):
    code = main([command, "--builtin", "exterior_pole", "--grid", "16x16", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["overall"] is True
    assert captured.err == EXTERIOR_POLE_WARNING
    assert "/" not in captured.err and "\\" not in captured.err


def test_ignored_warnings_print_nothing(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["chain", "--builtin", "exterior_pole", "--grid", "16x16"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_render_smoke_file_size(tmp_path):
    target = tmp_path / "id.ppm"
    code = main(
        [
            "render",
            "--map",
            "z",
            "--style",
            "grid",
            "--resolution",
            "16",
            "--image",
            str(target),
        ]
    )
    assert code == 0
    data = target.read_bytes()
    assert len(data) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3


def test_render_reruns_byte_identical(tmp_path):
    a = tmp_path / "a.ppm"
    b = tmp_path / "b.ppm"
    for target in (a, b):
        args = [
            "render",
            "--builtin",
            "koebe",
            "--style",
            "domaincolor",
            "--resolution",
            "64",
            "--image",
            str(target),
        ]
        assert main(args) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_optional_image(tmp_path, capsys):
    img = tmp_path / "ext.ppm"
    code = main(
        [
            "verify",
            "--builtin",
            "mobius",
            "--grid",
            "16x16",
            "--no-timestamp",
            "--image",
            str(img),
            "--out",
            str(tmp_path / "m.json"),
        ]
    )
    assert code == 0
    assert img.read_bytes().startswith(b"P6\n")


def test_verify_image_builds_the_extension_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build_extension(*args, **kwargs)

    monkeypatch.setattr(report, "build_extension", counted)
    # counts a build through a name the front end imported itself, too
    monkeypatch.setattr(cli, "build_extension", counted, raising=False)
    args = ["verify", "--builtin", "mobius", "--grid", "16x16", "--no-timestamp"]
    args += ["--image", str(tmp_path / "ext.ppm"), "--out", str(tmp_path / "m.json")]
    assert main(args) == 0
    assert calls == ["convex"]


@pytest.mark.parametrize(
    "args, grid",
    [
        (["verify", "--builtin", "identity", "--grid", "4096x4096"], "4096x4096"),
        (["chain", "--builtin", "example2", "--grid", "2048x4096"], "2048x4096"),
    ],
)
def test_over_budget_grid_exits_two_before_any_sweep(args, grid, monkeypatch, capsys):
    # each grid fits the cap on its own; the field samples both sides of the
    # seam and the K0 re-check the doubled mesh, which do not
    def refuse(*a, **k):
        raise AssertionError("swept a grid that is over budget")

    monkeypatch.setattr(report, "check_class", refuse)
    monkeypatch.setattr(report, "build_extension", refuse)
    monkeypatch.setattr(loewner, "chain_eval_array", refuse)
    assert main(args) == 2
    assert f"grid of {grid} exceeds" in capsys.readouterr().err


def test_largest_grids_within_budget_are_accepted():
    GridSpec(2048, 4096).require_cap(2)
    ChainGrid(GridSpec(2048, 2048))
    with pytest.raises(ValueError, match="grid of 2048x2049 exceeds"):
        ChainGrid(GridSpec(2048, 2049))


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "qcext",
            "verify",
            "--builtin",
            "identity",
            "--grid",
            "16x16",
            "--no-timestamp",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["overall"] is True


def test_unknown_builtin_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--builtin", "warp"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# the whole pipeline on random normalized maps

_coeff = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)


@settings(max_examples=10, derandomize=True)
@given(st.lists(_coeff, max_size=2), st.lists(_coeff, min_size=1, max_size=2))
def test_pipeline_exits_with_a_code_on_random_normalized_maps(num, den):
    # f = z (1 + a1 z + ...) / (1 + b1 z + ...) has f(0) = 0 and f'(0) = 1
    def poly(cs):
        return "+".join(["1"] + [f"{const_text(c)}*z^{j}" for j, c in enumerate(cs, 1)])

    text = f"z*({poly(num)})/({poly(den)})"
    runs = [["verify", "--theorem", t] for t in THEOREMS]
    runs += [["chain", "--chain", kind] for kind in CHAIN_KINDS]
    for run in runs:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(run + ["--map", text, "--grid", "8x8", "--no-timestamp"])
        assert code in (0, 1, 2, 3), (text, run, code)
        if code == 0:
            doc = json.loads(out.getvalue())
            if run[0] == "verify":
                assert all(v["n_samples"] > 0 for v in doc["class_verdicts"]), (text, run)
                assert doc["beltrami"]["n_points"] > 0, (text, run)
            else:
                assert doc["loewner"]["passed"] is True, (text, run)
