"""Printed digits against independent oracles.

The golden tests pin the bytes that README commands print; bytes can be
stably wrong.  Each test here recomputes a printed quantity by another
route, at higher precision where it matters, and asserts that the printed
number is within half a unit of its last printed digit.  The outputs are read
from ``bench/golden/``, which ``test_golden.py`` keeps equal to what the
commands print, and each test first checks that the README command is the
one its oracle assumes.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qcb.optomech_unitary import OptoUnitaryParams, _lag_weights, _linear_entropies
from random_states import mp_leibniz_block
from test_golden import GOLDEN, README_ARGVS


def printed(number, argv):
    """{key: text} of the one line that README command ``number`` prints
    (a bare value under the key None), after checking that its argv is
    ``argv``."""
    assert README_ARGVS[number - 1] == argv.split()
    line = (GOLDEN / f"{number:02d}.stdout").read_text().split()
    return dict(cell.split("=", 1) if "=" in cell else (None, cell) for cell in line)


def within_half_unit(text, oracle):
    """Whether the %.12g text ``text`` is within half a unit of its 12th
    significant digit (trailing zeros are not printed) of ``oracle``."""
    with mpmath.workdps(40):
        value = mpmath.mpf(text)
        half_unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(value))) - 11) / 2
        if isinstance(oracle, Fraction):
            oracle = mpmath.mpf(oracle.numerator) / oracle.denominator
        return abs(value - oracle) <= half_unit


def test_werner_singlet():
    # f = -1 is the singlet: N = 1/2, E_N = log2(2 N + 1) = 1
    out = printed(1, "werner --f -1")
    assert within_half_unit(out["N"], Fraction(1, 2))
    assert within_half_unit(out["EN"], 1)


def test_two_mode_squeezed_vacuum():
    # r = 1, n_bar = 0: E_N = 2 r and d_minus = e^(-2 r)/2
    out = printed(3, "gaussian --r 1 --n-bar 0")
    assert within_half_unit(out["EN"], 2)
    with mpmath.workdps(40):
        assert within_half_unit(out["d_minus"], mpmath.exp(-2) / 2)


def test_aklt_response_at_r_1():
    # (27/10) (1 + 4/3) e^(-ln 3) = 21/10
    out = printed(9, "lde chi --model aklt --r 1")
    assert within_half_unit(out[None], Fraction(27, 10) * Fraction(7, 3) / 3)


def test_marker_against_50_digit_block():
    # -det of the partial transpose of the raw projection on cavity 0,1 x
    # mirror 3,4,5, from 50-digit Leibniz sums and a 40-digit determinant
    out = printed(6, "optomech-unitary --quantity marker --k 0.4 --alpha 1 --n-bar 2"
                     " --t 2.5 --mirror 3,4,5")
    p = OptoUnitaryParams(k=0.4, alpha=1.0, n_bar=2.0, t=2.5)
    block = mp_leibniz_block(p, (0, 1), (3, 4, 5))
    pt = np.transpose(block, (2, 1, 0, 3)).reshape(6, 6)
    with mpmath.workdps(40):
        assert within_half_unit(out["marker"], -mpmath.re(mpmath.det(mpmath.matrix(pt.tolist()))))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20")
def test_mi_average_against_fine_trapezoid():
    # the trapezoid on 2^17 intervals with the Skellam lag weights; the MI
    # is 0 at t = 0 and 2 pi (a product state)
    out = printed(7, "optomech-unitary --quantity mi-average --k 1 --alpha 10 --n-bar 10")
    p = OptoUnitaryParams(k=1.0, alpha=10.0, n_bar=10.0, t=0.0)
    t = np.linspace(0.0, 2.0 * math.pi, (1 << 17) + 1)
    s_total, s_cav, s_mir = _linear_entropies(p, t[1:-1], _lag_weights(p.alpha))
    mi = np.concatenate(([0.0], 1.0 - s_total / (s_cav + s_mir), [0.0]))
    assert within_half_unit(out["MI_av"], np.trapezoid(mi, t) / (2.0 * math.pi))
