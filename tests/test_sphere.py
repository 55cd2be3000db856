import math

import numpy as np
import pytest

from qcext.sphere import chordal_array

# chordal_array reads every non-finite value as the point at infinity
INF = complex(math.inf)


def chordal(a, b):
    """chordal_array at one point."""
    return float(chordal_array([a], [b])[0])


def test_chordal_from_infinity():
    assert chordal(INF, INF) == 0.0
    assert chordal(INF, 0j) == 2.0
    assert chordal(0j, INF) == 2.0


def test_chordal_antipodes():
    # 4 / hypot(1, 1)^2 rounds to one ulp below 2
    assert chordal(1 + 0j, -1 + 0j) == pytest.approx(2.0, rel=1e-15)
    assert chordal(1j, -1j) == chordal(1 + 0j, -1 + 0j)


@pytest.mark.parametrize(
    "nan", [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.nan, math.nan)]
)
def test_nan_reads_as_infinity(nan):
    for w in (0j, 3 + 4j, 1e300 + 0j):
        assert chordal(nan, w) == chordal(INF, w)
        assert chordal(w, nan) == chordal(w, INF)
    assert chordal(nan, INF) == 0.0
    assert chordal(nan, nan) == 0.0


@pytest.mark.parametrize(
    "a, b", [(3e200 + 1e200j, -2e201 + 0j), (1e151 + 0j, 1e151 + 1e150j), (1e300j, 1e300j)]
)
def test_huge_pairs_measure_the_reciprocals(a, b):
    # the direct formula overflows here: |a| |b| leaves double range
    want = 2.0 * abs(1 / a - 1 / b) / math.hypot(1.0, abs(1 / a)) / math.hypot(1.0, abs(1 / b))
    got = chordal(a, b)
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-14, abs=1e-300)


def test_scalar_is_the_array_form_at_one_point():
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-3, 3, size=(500, 2))
    pts = scale * np.exp(2j * np.pi * rng.uniform(size=(500, 2)))
    whole = chordal_array(pts[:, 0], pts[:, 1])
    for (a, b), d in zip(pts, whole):
        got = chordal(complex(a), complex(b))
        assert got == d
        assert 0.0 <= got <= 2.0
        direct = 2.0 * abs(a - b) / math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))
        assert got == pytest.approx(direct, rel=1e-13)
