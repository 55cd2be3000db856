#!/usr/bin/env python3
"""Pin the dilatation blowup of the reflected Koebe map near the seam.

The Koebe function has no quasiconformal extension; pushing it through the
generic reflection builder anyway must drive |mu| toward 1 as the mesh
refines toward the circle.  This script prints the measured sup on the
refinement meshes; the acceptance suite freezes the 64x64 value as a golden
and asserts it never drifts.

Run:  python3 scripts/oracle_koebe_threshold.py
"""

import sys

import numpy as np

from qcext.beltrami import beltrami_field
from qcext.extensions import ext_huang_owa
from qcext.grids import polar, seam_circle
from qcext.mapexpr import parse_map


def main() -> int:
    em = ext_huang_owa(parse_map("z/(1-z)^2"))
    for n in (32, 64, 128):
        points = polar(np.linspace(1.001, 1.01, n), seam_circle(n))
        field = beltrami_field(em, points)
        print(f"{n}x{n}  sup_mu = {field.sup_mu!r}  at {field.argmax_point!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
