"""Acceptance sweep: one test per shipped guarantee, one printed line each.

Run with -s (or read the captured output) to see the per-criterion verdict
lines.  Every tolerance here is part of the package contract; loosening one
is a release decision, not a test fix.
"""

import hashlib
import math
import random
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from qcext.beltrami import beltrami_field, certify_qc, wirtinger
from qcext.classifiers import ClassParams, check_class
from qcext.corpus import BUILTINS
from qcext.errors import PreconditionError
from qcext.extensions import (
    RadialProfile,
    becker_extend,
    ext_brown,
    ext_exterior,
    ext_huang_owa,
    ext_mobius_convex,
    ext_radial_psi,
    ext_thm2,
    ext_thm5,
)
from qcext.grids import (
    SEAM_MARGIN,
    GridSpec,
    disc_grid,
    exterior_chunks,
    field_chunks,
    polar,
    seam_circle,
)
from qcext.loewner import build_chain, check_dk, check_theorem_A
from qcext.mapexpr import ParseError, const_text, eval_array, parse_map, print_expr
from qcext.render import ppm_bytes, render_map
from qcext.report import run_verify

EX1 = parse_map("z/((1-z)*(1-0.5*z))")
EX2 = parse_map("z/(1+0.5*z^2)")
EX3 = parse_map("z/((1-2*z)*(1-0.25*z))")
KOEBE = parse_map("z/(1-z)^2")
MOBIUS = parse_map("z/(1-0.5*z)")
BROWN_F = parse_map("z-0.25*z^2")
NEG_DERIV = parse_map("-z+0.3*z^2")
G_U = parse_map("z+0.12/z")
G_INV = parse_map("z^2/(0.3-z)")

# frozen by scripts/oracle_koebe_threshold.py (64x64 mesh, radii [1.001, 1.01])
KOEBE_REFLECTED_SUP = 1.0000000000837392

# frozen by scripts/render_gallery.py (first oracle render, resolution 256)
GOLDEN_IDENTITY_GRID = (
    "2b587e606873cccb7a0113c3494395b24a6481c82a32acedfff91c34772410b1"
)
GOLDEN_KOEBE_DOMAIN = (
    "a7073df375ce78e4aa328556f7581ddd4b2106059068eff3041ccfabfc34d4b3"
)


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL  {label}")
        raise
    print(f"criterion {n}: PASS  {label}")


def _quiet(builder, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return builder(*args)


# ---------------------------------------------------------------------------
# 1. dilatation bound suite


def _annulus(lo: float, hi: float, n: int) -> np.ndarray:
    """n radii evenly in [lo, hi] on seam_circle(n), radius-major."""
    return polar(np.linspace(lo, hi, n), seam_circle(n))


# the side of the seam that each case's dilatation is sampled on
EXTERIOR = (1.01, 10.0)
DISC = (0.05, 1.0 - SEAM_MARGIN)


def _bound_cases():
    for lam in (0.25, 0.5, 0.75):
        for theta in (0.0, math.pi / 3):
            f = parse_map(BUILTINS["example1"].text({"lambda": lam, "theta": theta}))
            yield f"example1 lam={lam} theta={theta:.2f}", ext_huang_owa(f), lam, EXTERIOR
    for lam in (0.25, 0.5, 0.75):
        f = parse_map(BUILTINS["example2"].text({"lambda": lam}))
        yield f"example2 lam={lam}", ext_thm2(f), lam, EXTERIOR
    yield "example3 p=0.5 lam=0.5", ext_huang_owa(EX3), 0.5, EXTERIOR
    for a2 in (0.3 + 0j, 0.5 + 0.2j):
        em = ext_mobius_convex(parse_map(f"z/(1-{const_text(a2)}*z)"))
        yield f"mobius a2={a2}", em, abs(a2), EXTERIOR
    yield (
        "radial M=2",
        ext_radial_psi(parse_map("0.5*z/(0.5-z)"), RadialProfile(2.0), 0.5),
        0.6,
        EXTERIOR,
    )
    for k in (0.3, 0.6):
        g = parse_map(f"z+{k}/z")
        yield f"krzyz k={k}", ext_exterior(g, "krzyz"), k, DISC
    yield "brown", ext_brown(BROWN_F, 1.0 + 0j), 0.5, EXTERIOR
    yield "thm4", ext_exterior(G_U, "thm4"), None, DISC
    yield "cor1", _quiet(ext_exterior, G_INV, "cor1"), None, DISC
    yield "thm5", ext_thm5(NEG_DERIV), None, EXTERIOR


def test_criterion_1_dilatation_bounds():
    with criterion(1, "dilatation bound suite (400x400 + chart, tau 1e-3)"):
        for label, em, claimed, (lo, hi) in _bound_cases():
            verdict = certify_qc(em, _annulus(lo, hi, 400), claimed_k=claimed)
            assert verdict.mu_ok, (label, verdict.sup_mu, verdict.claimed_k)
            assert verdict.orientation_ok, (label, verdict.jacobian_min)
            assert verdict.seam_sup_chordal <= 1e-9, (label, verdict.seam_sup_chordal)


# ---------------------------------------------------------------------------
# 2. chain vs closed-form extensions


def test_criterion_2_becker_cross_check():
    with criterion(2, "chain extension equals closed form to 1e-10 (64x64)"):
        Z = np.concatenate(list(exterior_chunks(GridSpec(64, 64))))

        pairs_direct = [
            ("thm2", becker_extend(build_chain("thm2_eq3", EX2)), ext_thm2(EX2)),
            (
                "convex",
                becker_extend(build_chain("convex_chain", MOBIUS)),
                ext_mobius_convex(MOBIUS),
            ),
            ("thm5", becker_extend(build_chain("thm5_chain", NEG_DERIV)), ext_thm5(NEG_DERIV)),
        ]
        for label, em_chain, em_closed in pairs_direct:
            gap = np.max(
                np.abs(em_chain.evaluate_array(Z) - em_closed.evaluate_array(Z))
            )
            assert gap <= 1e-10, (label, gap)

        pairs_inverted = [
            (
                "thm4",
                becker_extend(build_chain("exterior_eq7a1", G_U)),
                ext_exterior(G_U, "thm4"),
            ),
            (
                "krzyz",
                becker_extend(build_chain("krzyz_eq9", parse_map("0.5*z"))),
                ext_exterior(parse_map("z+0.5/z"), "krzyz"),
            ),
        ]
        for label, em_chain, em_closed in pairs_inverted:
            F = em_chain.evaluate_array(Z)
            gap = np.max(np.abs(1.0 / F - em_closed.evaluate_array(1.0 / Z)))
            assert gap <= 1e-10, (label, gap)


# ---------------------------------------------------------------------------
# 3. the exact transition-field identity


def test_criterion_3_transition_identity_and_envelope():
    with criterion(3, "|(p-1)/(p+1)| identity to 1e-10, envelope to 1e-6"):
        spec = build_chain("thm2_eq3", EX2)
        # the 32x32x16 sweep re-derives the identity pointwise and raises on
        # any breach beyond 1e-10
        sup = check_dk(spec)
        r_max = float(np.max(np.abs(disc_grid(GridSpec(32, 32)))))
        assert abs(sup - 0.5 * r_max**2) <= 1e-6, sup


# ---------------------------------------------------------------------------
# 4. evolution PDE residual


CHAIN_CORPUS = [
    ("thm2_eq3", EX2),
    ("convex_chain", MOBIUS),
    ("thm5_chain", NEG_DERIV),
    ("krzyz_eq9", parse_map("0.5*z")),
    ("exterior_eq7a1", G_U),
    ("cor1_chain", G_INV),
]


def test_criterion_4_pde_residual():
    with criterion(4, "PDE residual <= 1e-6, six kinds, t in [0,5] minus window"):
        for kind, base in CHAIN_CORPUS:
            spec = _quiet(build_chain, kind, base)
            report = check_theorem_A(spec)
            assert report.pde_residual_sup <= 1e-6, (kind, report.pde_residual_sup)


# ---------------------------------------------------------------------------
# 5. trivial chains stay trivial


IDENTITY_BASES = [
    ("thm2_eq3", "z"),
    ("convex_chain", "z"),
    ("thm5_chain", "-z"),
    ("krzyz_eq9", "0*z"),
    ("exterior_eq7a1", "z"),
    ("cor1_chain", "-z"),
]


def test_criterion_5_identity_chains():
    with criterion(5, "identity chains: p = 1, sup_mu and D(k) radius at 0"):
        for kind, text in IDENTITY_BASES:
            spec = _quiet(build_chain, kind, parse_map(text))
            assert spec.claimed_k <= 1e-12, kind
            assert check_dk(spec) <= 1e-9, kind
            em = becker_extend(spec)
            field = beltrami_field(em, field_chunks(GridSpec(64, 64)))
            assert field.sup_mu <= 1e-9, (kind, field.sup_mu)


# ---------------------------------------------------------------------------
# 6. negative controls


def test_criterion_6_negative_controls():
    with criterion(6, "Koebe: rejected, reflected blowup golden, class sweep"):
        with pytest.raises(PreconditionError):
            ext_thm2(KOEBE)

        em = ext_huang_owa(KOEBE)
        field = beltrami_field(em, _annulus(1.001, 1.01, 64))
        assert field.sup_mu > 0.9
        assert abs(field.sup_mu - KOEBE_REFLECTED_SUP) <= 1e-9, field.sup_mu

        for lam in (0.25, 0.5, 0.75, 0.9, 0.99):
            verdict = check_class(KOEBE, "U_lambda", ClassParams(lam=lam))
            assert not verdict.holds, lam
            assert verdict.worst_value >= 1.0 - 1e-9, verdict.worst_value


# ---------------------------------------------------------------------------
# 7. estimator convergence order


def test_criterion_7_wirtinger_order():
    with criterion(7, "Wirtinger zbar-derivative order >= 1.9 on h=1e-3,1e-4"):
        pts = (0.3 + 0.2j, -0.1 + 0.45j, 0.5 - 0.3j)
        for f in (KOEBE, EX1, EX2):
            for z in pts:
                errs = []
                for h in (1e-3, 1e-4):
                    _, fzb = wirtinger(lambda w, f=f: eval_array(f, w), z, h)
                    errs.append(abs(fzb))
                order = math.log10(errs[0] / errs[1])
                assert order >= 1.9, (print_expr(f.root), z, errs)


# ---------------------------------------------------------------------------
# 8. parser round-trip and diagnostics


def _random_expr(rng: random.Random, depth: int, avoid_zero: bool = False) -> str:
    # avoid_zero tracks the leftmost-factor path: a bare zero literal there
    # would bind as the denominator of an enclosing '/', which the parser
    # rejects up front
    if depth >= 4 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.3:
            return "z"
        if roll < 0.4:
            return "i"
        if roll < 0.7:
            return str(rng.randrange(1 if avoid_zero else 0, 20))
        return f"{rng.randrange(0, 9)}.{rng.randrange(1 if avoid_zero else 0, 1000):03d}"
    kind = rng.randrange(6)
    if kind == 0:
        return f"({_random_expr(rng, depth + 1, avoid_zero)})"
    if kind == 1:
        return f"-{_random_expr(rng, depth + 1)}"
    if kind == 2:
        return f"({_random_expr(rng, depth + 1)})^{rng.randrange(1, 7)}"
    op = "+-*/"[rng.randrange(4)]
    lhs = _random_expr(rng, depth + 1, avoid_zero)
    rhs = _random_expr(rng, depth + 1, op == "/")
    return f"{lhs}{op}{rhs}"


MALFORMED = [
    ("", 0),
    ("z+", 1),
    ("*z", 0),
    ("(z", 1),
    ("z)", 1),
    ("z/((", 3),
    ("1..2", 1),
    ("z^z", 2),
    ("z^", 1),
    ("z^(2)", 2),
    ("2**z", 2),
    ("z z", 2),
    ("i2", 1),
    ("@", 0),
    ("z+*2", 2),
    ("1,5", 1),
    ("z/)", 2),
    ("((z)", 3),
    ("z^-", 2),
    ("z^9999999999", 2),
]


def test_criterion_8_parser_round_trip():
    with criterion(8, "round-trip: corpus + 1000 random strings, 20 offsets"):
        for ex in BUILTINS.values():
            t = parse_map(ex.text())
            assert parse_map(print_expr(t.root)).root == t.root, ex.id

        rng = random.Random(20260823)
        for _ in range(1000):
            text = _random_expr(rng, 0)
            t = parse_map(text)
            printed = print_expr(t.root)
            assert parse_map(printed).root == t.root, text
            assert print_expr(parse_map(printed).root) == printed, text

        assert len(MALFORMED) == 20
        for text, offset in MALFORMED:
            with pytest.raises(ParseError) as exc:
                parse_map(text)
            assert exc.value.offset == offset, (text, exc.value.offset)


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_9_determinism():
    with criterion(9, "byte-identical reports and image goldens"):
        kw = dict(
            builtin="example2", theorem="t2", grid="48x48", no_timestamp=True
        )
        a, code_a = run_verify(**kw)
        b, code_b = run_verify(**kw)
        assert code_a == code_b == 0
        assert a.to_json() == b.to_json()

        ident = parse_map(BUILTINS["identity"].text())
        img1 = render_map(lambda Z: eval_array(ident, Z), "grid", 256)
        img2 = render_map(lambda Z: eval_array(ident, Z), "grid", 256)
        assert np.array_equal(img1, img2)
        assert hashlib.sha256(ppm_bytes(img1)).hexdigest() == GOLDEN_IDENTITY_GRID

        img3 = render_map(lambda Z: eval_array(KOEBE, Z), "domaincolor", 256)
        assert hashlib.sha256(ppm_bytes(img3)).hexdigest() == GOLDEN_KOEBE_DOMAIN
