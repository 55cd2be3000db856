"""Static raster output: domain coloring and polar-grid images as binary PPM.

PPM (P6, 8-bit, no comment lines) keeps goldens bit-exact with zero image
dependencies.  All pixel math is vectorized and deterministic for fixed
inputs; write_ppm writes the header, then the pixel buffer as it lies.

Domain coloring builds its bytes in 8-bit planes.  The HSV -> RGB formula
gives every channel v, p, q or t by the hue sextant, with q only on odd
sextants and t only on even ones, so three planes hold them: v, p and x (q or
t by parity).  Each is quantised once to uint8, and every pixel then copies
its (r, g, b) bytes from them through a fixed 6x3 pick table; quantising is
elementwise, so this gives the bytes of quantising the float (H, W, 3) stack.
The log-modulus band needs no mask: where log2 |w| is not finite, |w| is 0 or
nonfinite and the pixel's brightness is fixed.  The map is called once on the
whole pixel window (ExtendedMap.evaluate_array blocks its own work); the
colour stage runs in place over blocks of about grids.BLOCK_POINTS pixels in
row order, 32 rows at 512 px, in buffers every block reuses.  Every step is
elementwise, so blocks change no byte; the 13 builtins' image goldens fix them.
"""

from __future__ import annotations

import numpy as np

from .grids import _angles, blocks

MAX_RESOLUTION = 4096

STYLE_NAMES = ("grid", "domaincolor")

BACKGROUND = (245, 245, 245)
CIRCLE_COLOR = (40, 40, 160)
RAY_COLOR = (170, 40, 40)


def _ppm_parts(rgb: np.ndarray) -> tuple[bytes, np.ndarray]:
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) pixel array")
    return b"P6\n%d %d\n255\n" % (rgb.shape[1], rgb.shape[0]), rgb


def ppm_bytes(rgb: np.ndarray) -> bytes:
    return b"".join(_ppm_parts(rgb))


def write_ppm(path: str, rgb: np.ndarray) -> None:
    parts = _ppm_parts(rgb)
    with open(path, "wb") as fh:
        fh.writelines(parts)


# (r, g, b) of each hue sextant, as indices into the planes (v, p, x), where
# x is q = v(1 - s f) on odd sextants and t = v(1 - s(1 - f)) on even ones
_SEXTANT_PICKS = ((0, 2, 1), (2, 0, 1), (1, 0, 2), (1, 2, 0), (2, 1, 0), (0, 1, 2))


def _pixel_window(resolution: int, window: float):
    if not 1 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [1, {MAX_RESOLUTION}]")
    # the pixel coordinates below scale by 2 * window, which must stay finite
    if not 0.0 < 2.0 * float(window) < np.inf:
        raise ValueError(
            f"window must be finite and positive, with 2 * window finite, got {window}"
        )
    xs = (np.arange(resolution) + 0.5) / resolution * 2.0 * window - window
    # rows run top-down; + 0.0 gives the +0.0 that 1j * (-xs) had in place of -0.0
    Z = np.empty((resolution, resolution), dtype=np.complex128)
    Z.real, Z.imag = xs[None, :], -xs[:, None] + 0.0
    return Z


def render_domaincolor(fn, resolution: int = 512, window: float = 2.5) -> np.ndarray:
    """Hue = argument, brightness banded by log-modulus; zeros dark, poles
    and nonfinite values white."""
    Z = _pixel_window(resolution, window)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        W = np.asarray(fn(Z), dtype=np.complex128).reshape(-1)
        rgb = np.empty(Z.shape + (3,), dtype=np.uint8)
        pixels = rgb.reshape(-1, 3)
        cuts = blocks(W.size)
        # val, sat and hue end as the planes v, p and x (the first block is largest)
        floats, planes = np.empty((5, cuts[0][1])), np.empty((3, cuts[0][1]), np.uint8)
        for lo, hi in cuts:
            w, n = W[lo:hi], hi - lo
            val, sat, hue, mag, tmp = floats[:, :n]
            np.abs(w, out=mag)
            np.arctan2(w.imag, w.real, out=hue)  # np.angle(w)
            hue /= 2.0 * np.pi
            # a NaN hue would cast to a garbage sextant
            hue[np.isnan(hue)] = 0.0
            # h - floor(h) is h mod 1 bit for bit, -0.0 included, and cheaper
            hue -= np.floor(hue, out=tmp)
            hue *= 6.0
            sextant = np.floor(hue, out=tmp).astype(np.uint8)
            hue -= tmp
            # h mod 1 rounds up to 1.0 for a tiny negative hue
            sextant[sextant == 6] = 0
            # band = octave - floor(octave), then v = 0.55 + 0.45 * band
            val -= np.floor(np.log2(mag, out=val), out=tmp)
            val *= 0.45
            val += 0.55
            tiny, huge = mag < 1e-8, ~(mag <= 1e8)  # huge: above 1e8 or nonfinite
            val[tiny], val[huge] = 0.05, 1.0
            # saturation 0.9, or 0 where tiny or huge
            np.multiply(~(tiny | huge), 0.9, out=sat)
            # x = v(1 - s f) on odd sextants, v(1 - s(1 - f)) on even ones
            np.subtract(1.0, hue, out=hue, where=(sextant & 1) == 0)
            hue *= sat
            np.subtract(1.0, hue, out=hue)
            hue *= val
            np.subtract(1.0, sat, out=sat)  # p = v(1 - s)
            sat *= val
            vpx = floats[:3, :n]
            vpx *= 255.0
            planes[:, :n] = np.clip(np.rint(vpx, out=vpx), 0, 255, out=vpx)
            for k, picks in enumerate(_SEXTANT_PICKS):
                here = sextant == k
                for channel, plane in enumerate(picks):
                    np.copyto(pixels[lo:hi, channel], planes[plane, :n], where=here)
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
    buf = np.full((resolution, resolution, 3), BACKGROUND, dtype=np.uint8)
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
