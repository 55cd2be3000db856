import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from qcext.cli import main
from qcext.corpus import builtin_ids, get_builtin
from qcext.extensions import ext_mobius_convex
from qcext.mapexpr import eval_array, parse_map
from qcext.render import (
    CIRCLE_COLOR,
    RAY_COLOR,
    ppm_bytes,
    render_domaincolor,
    render_grid_image,
    render_map,
)
from qcext.report import build_extension

KOEBE = parse_map("z/(1-z)^2")


def _fn(m):
    return lambda Z: eval_array(m, Z)


def test_ppm_header_and_size():
    rgb = np.zeros((16, 16, 3), dtype=np.uint8)
    data = ppm_bytes(rgb)
    assert data.startswith(b"P6\n16 16\n255\n")
    assert len(data) == len(b"P6\n16 16\n255\n") + 768


def test_resolution_cap():
    with pytest.raises(ValueError):
        render_domaincolor(_fn(KOEBE), resolution=5000)
    with pytest.raises(ValueError):
        render_map(_fn(KOEBE), "watercolor", 32)


def test_determinism():
    a = render_domaincolor(_fn(KOEBE), 64)
    b = render_domaincolor(_fn(KOEBE), 64)
    assert np.array_equal(a, b)
    c = render_grid_image(_fn(KOEBE), 64)
    d = render_grid_image(_fn(KOEBE), 64)
    assert np.array_equal(c, d)


def test_identity_grid_draws_circles_and_rays():
    img = render_grid_image(_fn(parse_map("z")), 128)
    flat = img.reshape(-1, 3)
    assert np.any(np.all(flat == CIRCLE_COLOR, axis=1))
    assert np.any(np.all(flat == RAY_COLOR, axis=1))
    # background still dominates
    assert np.mean(np.all(flat == (245, 245, 245), axis=1)) > 0.5


def test_koebe_domaincolor_structure():
    img = render_domaincolor(_fn(KOEBE), 256, window=2.0)
    # -0.5 maps onto the omitted ray's side: negative real value, cyan hue
    col = int((-0.5 + 2.0) / 4.0 * 256)
    px = img[127, col].astype(int)
    assert px[2] > px[0] and px[1] > px[0]
    # log-modulus banding produces a rich palette
    assert len(np.unique(img.reshape(-1, 3), axis=0)) > 100


def test_nonfinite_pixels_are_white():
    img = render_domaincolor(_fn(parse_map("1/(z-1)")), 64, window=2.0)
    # the pole sits inside the window; its pixel neighborhood saturates
    assert img.max() == 255


# ---------------------------------------------------------------------------
# byte identity of the 8-bit colour stage


def _float_pipeline(fn, resolution, window=2.5):
    """The earlier float colour stage, kept as the reference: np.mod, three
    float np.choose calls, a float (H, W, 3) stack, then one quantisation."""
    xs = (np.arange(resolution) + 0.5) / resolution * 2.0 * window - window
    Z = xs[None, :] + 1j * (-xs[:, None])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        W = np.asarray(fn(Z), dtype=np.complex128)
        hue = np.angle(W) / (2.0 * np.pi)
        mag = np.abs(W)
        band = np.zeros_like(mag)
        pos = np.isfinite(mag) & (mag > 0)
        band[pos] = np.log2(mag[pos]) - np.floor(np.log2(mag[pos]))
        val = 0.55 + 0.45 * band
        sat = np.where(np.isfinite(mag), 0.9, 0.0)
        tiny = mag < 1e-8
        val = np.where(tiny, 0.05, val)
        huge = ~np.isfinite(mag) | (mag > 1e8)
        val = np.where(huge, 1.0, val)
        sat = np.where(huge | tiny, 0.0, sat)
        hue = np.where(np.isfinite(hue), hue, 0.0)
    h = np.mod(hue, 1.0) * 6.0
    i = np.floor(h).astype(int) % 6
    f = h - np.floor(h)
    p = val * (1.0 - sat)
    q = val * (1.0 - sat * f)
    t = val * (1.0 - sat * (1.0 - f))
    r = np.choose(i, [val, q, p, p, t, val])
    g = np.choose(i, [t, val, val, q, p, p])
    b = np.choose(i, [p, p, t, val, val, q])
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)


def _crafted_values() -> np.ndarray:
    inf, nan = np.inf, np.nan
    # moduli: exact powers of 2 (band 0), tiny, huge and the cut-offs
    moduli = [1.0, 2.0, 0.25, 2.0**40, 2.0**-20, 1e-9, 1e-8, 1e8, 1e9, 3.7]
    # hue -0.0 and +-1/2, built directly: scaling would lose the zero's sign
    vals = [complex(m, -0.0) for m in moduli]
    vals += [complex(-m, 0.0) for m in moduli] + [complex(-m, -0.0) for m in moduli]
    # hue -1e-17 (h mod 1 rounds to 1.0, so sextant 6 wraps to 0) and every
    # sextant boundary k/6
    turns = [-1e-17] + [k / 6 for k in range(-6, 7)]
    vals += [m * np.exp(2j * np.pi * h) for m in moduli for h in turns]
    vals += [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    vals += [complex(inf, 0), complex(-inf, 0), complex(0, inf), complex(0, -inf)]
    vals += [complex(inf, inf), complex(-inf, -inf), complex(nan, 0), complex(0, nan)]
    vals += [complex(nan, nan), complex(inf, nan)]
    # a dense sweep of hue and modulus on top
    rng = np.random.default_rng(20181)
    sweep = np.exp(rng.uniform(-25.0, 25.0, 4000) + 2j * np.pi * rng.uniform(-0.5, 0.5, 4000))
    return np.concatenate([np.asarray(vals, dtype=np.complex128), sweep])


def test_colour_bytes_match_float_pipeline_on_crafted_values():
    crafted = _crafted_values()
    hue = np.angle(crafted) / (2.0 * np.pi)
    assert np.any((hue == 0.0) & np.signbit(hue))
    assert np.any(np.mod(hue, 1.0) == 1.0)
    assert np.any(hue == 0.5) and np.any(hue == -0.5)

    def fn(Z):
        return np.resize(crafted, Z.shape)

    assert np.array_equal(render_domaincolor(fn, 72), _float_pipeline(fn, 72))


@pytest.mark.parametrize(
    "fn",
    [
        _fn(KOEBE),
        _fn(parse_map("1/(z-1)")),
        ext_mobius_convex(parse_map("z/(1-0.5*z)")).evaluate_array,
    ],
    ids=["koebe", "pole", "extended_mobius"],
)
def test_colour_bytes_match_float_pipeline_at_512(fn):
    assert np.array_equal(render_domaincolor(fn, 512), _float_pipeline(fn, 512))


# sha256 of the `verify --image` PPM (domaincolor, default resolution),
# frozen from the float colour stage
GOLDEN_VERIFY_IMAGE = {
    "example1": "1a8c75796b00a7738ec3b3eea78f8765f0f7d887c11c11e9b55a24b7a2e62c22",
    "exterior_pole": "f5393ba26f027d7dc3db41f60a64d7fd49d5def777f52844ea3950aabed0a66b",
}


@pytest.mark.parametrize("builtin", sorted(GOLDEN_VERIFY_IMAGE))
def test_verify_image_golden(builtin, tmp_path, capsys):
    image = tmp_path / "map.ppm"
    args = ["verify", "--builtin", builtin, "--no-timestamp", "--image", str(image)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(args + ["--out", str(tmp_path / "report.json")]) == 0
    digest = hashlib.sha256(image.read_bytes()).hexdigest()
    assert digest == GOLDEN_VERIFY_IMAGE[builtin]


@pytest.mark.parametrize("bid", builtin_ids())
def test_extension_render_memory_peak(bid):
    # the map and colour stages run in blocks; with whole-window
    # temporaries this render peaked at 33.8-36.7 MiB
    ex = get_builtin(bid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        em = build_extension(ex.theorem, parse_map(ex.text()), ex.params())
    tracemalloc.start()
    try:
        render_map(em.evaluate_array, "domaincolor", 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20
