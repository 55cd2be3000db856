#!/usr/bin/env python3
"""Render the builtin corpus to PPM files and print their digests.

The two digests the acceptance suite freezes (identity grid, Koebe domain
coloring) come from this script's first run.

Run:  python3 scripts/render_gallery.py [outdir]
"""

import hashlib
import os
import sys

from qcext.corpus import BUILTINS
from qcext.mapexpr import eval_array, parse_map
from qcext.render import ppm_bytes, render_map

GALLERY = (
    ("identity", "grid"),
    ("koebe", "domaincolor"),
    ("example2", "domaincolor"),
    ("mobius", "grid"),
    ("krzyz", "domaincolor"),
)


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "gallery"
    os.makedirs(outdir, exist_ok=True)
    for bid, style in GALLERY:
        f = parse_map(BUILTINS[bid].text())
        rgb = render_map(lambda Z: eval_array(f, Z), style, 256)
        data = ppm_bytes(rgb)
        path = os.path.join(outdir, f"{bid}_{style}.ppm")
        with open(path, "wb") as fh:
            fh.write(data)
        digest = hashlib.sha256(data).hexdigest()
        print(f"{bid:12s} {style:12s} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
