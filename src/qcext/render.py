"""Static raster output: domain coloring and polar-grid images as binary PPM.

PPM (P6, 8-bit, no comment lines) keeps goldens bit-exact with zero image
dependencies.  All pixel math is vectorized and deterministic for fixed
inputs; file writes happen in one shot at the end.

Domain coloring builds its bytes in 8-bit planes.  The HSV -> RGB formula
gives every channel one of four values, v, p, q or t, picked by the hue
sextant.  Each of the four is quantised once to uint8, and every pixel then
copies its (r, g, b) bytes from those planes through a fixed 6x3 pick table.
Quantising works element by element, so this gives the same bytes as picking
float channels first and quantising the (H, W, 3) stack.

The map is called once on the whole pixel window (ExtendedMap.evaluate_array
blocks its own work).  The colour stage then runs over blocks of about
grids.BLOCK_POINTS pixels in row order, 32 rows at 512 px, each written into
one preallocated (H, W, 3) array.  Every step of it is elementwise, so the
blocks change no byte; the image goldens still fix them.
"""

from __future__ import annotations

import numpy as np

from .grids import _angles, blocks

MAX_RESOLUTION = 4096

STYLE_NAMES = ("grid", "domaincolor")

BACKGROUND = (245, 245, 245)
CIRCLE_COLOR = (40, 40, 160)
RAY_COLOR = (170, 40, 40)


def ppm_bytes(rgb: np.ndarray) -> bytes:
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) pixel array")
    h, w = rgb.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + rgb.tobytes()


def write_ppm(path: str, rgb: np.ndarray) -> None:
    data = ppm_bytes(rgb)
    with open(path, "wb") as fh:
        fh.write(data)


# (r, g, b) of each hue sextant, as indices into the planes (v, p, q, t)
_SEXTANT_PICKS = ((0, 3, 1), (2, 0, 1), (1, 0, 3), (1, 2, 0), (3, 1, 0), (0, 1, 2))


def _to_bytes(x: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8)


def _hsv_bytes(h: np.ndarray, s: np.ndarray, v: np.ndarray, rgb: np.ndarray) -> None:
    """Write the uint8 RGB of hue h in turns, saturation s and value v into
    rgb, an array of shape h.shape + (3,)."""
    # h - floor(h) is h mod 1 bit for bit, -0.0 included, and cheaper
    h = (h - np.floor(h)) * 6.0
    sextant = np.floor(h)
    f = h - sextant
    i = sextant.astype(np.uint8)
    # h mod 1 rounds up to 1.0 for a tiny negative hue
    i[i == 6] = 0
    planes = (
        _to_bytes(v),
        _to_bytes(v * (1.0 - s)),
        _to_bytes(v * (1.0 - s * f)),
        _to_bytes(v * (1.0 - s * (1.0 - f))),
    )
    for k, picks in enumerate(_SEXTANT_PICKS):
        here = i == k
        for channel, plane in enumerate(picks):
            np.copyto(rgb[..., channel], planes[plane], where=here)


def _pixel_window(resolution: int, window: float):
    if not 1 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [1, {MAX_RESOLUTION}]")
    # the pixel coordinates below scale by 2 * window, which must stay finite
    if not 0.0 < 2.0 * float(window) < np.inf:
        raise ValueError(
            f"window must be finite and positive, with 2 * window finite, got {window}"
        )
    xs = (np.arange(resolution) + 0.5) / resolution * 2.0 * window - window
    # rows run top-down
    Z = xs[None, :] + 1j * (-xs[:, None])
    return Z


def render_domaincolor(fn, resolution: int = 512, window: float = 2.5) -> np.ndarray:
    """Hue = argument, brightness banded by log-modulus; zeros dark, poles
    and nonfinite values white."""
    Z = _pixel_window(resolution, window)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        W = np.asarray(fn(Z), dtype=np.complex128).reshape(-1)
        rgb = np.empty(Z.shape + (3,), dtype=np.uint8)
        pixels = rgb.reshape(-1, 3)
        # elementwise, so blocks of any size give the same bytes (module doc)
        for lo, hi in blocks(0, W.size):
            w = W[lo:hi]
            hue = np.angle(w) / (2.0 * np.pi)
            mag = np.abs(w)
            pos = np.isfinite(mag) & (mag > 0)
            octave = np.log2(mag[pos])
            band = np.zeros_like(mag)
            band[pos] = octave - np.floor(octave)
            val = 0.55 + 0.45 * band
            tiny = mag < 1e-8
            huge = ~np.isfinite(mag) | (mag > 1e8)
            val[tiny] = 0.05
            val[huge] = 1.0
            # nonfinite moduli count as huge, so they get saturation 0 as well
            sat = np.where(huge | tiny, 0.0, 0.9)
            hue[~np.isfinite(hue)] = 0.0
            _hsv_bytes(hue, sat, val, pixels[lo:hi])
    return rgb


def _paint(buf: np.ndarray, w: np.ndarray, window: float, color) -> None:
    res = buf.shape[0]
    ok = np.isfinite(w) & (np.abs(w.real) < window) & (np.abs(w.imag) < window)
    w = w[ok]
    cols = np.floor((w.real + window) / (2.0 * window) * res).astype(int)
    rows = np.floor((window - w.imag) / (2.0 * window) * res).astype(int)
    keep = (cols >= 0) & (cols < res) & (rows >= 0) & (rows < res)
    buf[rows[keep], cols[keep]] = color


def render_grid_image(
    fn,
    resolution: int = 512,
    window: float = 2.5,
) -> np.ndarray:
    """Forward-rasterized image of a polar grid: circles |z| = r and radial
    rays, pushed through the map."""
    _pixel_window(resolution, window)  # validates resolution and window
    buf = np.empty((resolution, resolution, 3), dtype=np.uint8)
    buf[:] = BACKGROUND
    n_dense = 8 * resolution
    theta = _angles(n_dense)
    radii = np.geomspace(0.15, 2.2, 12)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for r in radii:
            w = np.asarray(fn(r * np.exp(1j * theta)), dtype=np.complex128)
            _paint(buf, w, window, CIRCLE_COLOR)
        s = np.geomspace(0.02, 2.5, n_dense)
        for j in range(16):
            ray = s * np.exp(2j * np.pi * j / 16)
            w = np.asarray(fn(ray), dtype=np.complex128)
            _paint(buf, w, window, RAY_COLOR)
    return buf


def render_map(fn, style: str, resolution: int = 512, window: float = 2.5) -> np.ndarray:
    if style == "domaincolor":
        return render_domaincolor(fn, resolution, window)
    if style == "grid":
        return render_grid_image(fn, resolution, window)
    raise ValueError(f"unknown style {style!r}")
