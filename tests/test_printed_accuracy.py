"""Printed digits against independent oracles.

The golden tests pin the bytes that README commands print; bytes can be
stably wrong.  Each test here recomputes a printed quantity by another
route, at higher precision where it matters, and asserts that the printed
number is within half a unit of its last printed digit.  The outputs are read
from ``bench/golden/``, which ``test_golden.py`` keeps equal to what the
commands print, and each test first checks that the README command is the
one its oracle assumes.

The tables are audited cell by cell on the double grids that the commands
use.  :data:`KNOWN_OFF` lists the few cells known to miss their half unit,
each with the ROADMAP item that is to mend it; the other tests assert every
other cell, and one strict-xfail test asserts each listed cell.
"""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qcb.cli import main
from qcb.optomech_stationary import derive_physical_params, detuning_sweep, drift_and_diffusion
from qcb.optomech_unitary import OptoUnitaryParams, _lag_weights, _linear_entropies
from qcb.spin_lde import RingGeometry
from random_states import exact_lyapunov, mp_leibniz_block
from test_golden import GOLDEN, README_ARGVS


def printed(number, argv):
    """{key: text} of the one line that README command ``number`` prints
    (a bare value under the key None), after checking that its argv is
    ``argv``."""
    assert README_ARGVS[number - 1] == argv.split()
    line = (GOLDEN / f"{number:02d}.stdout").read_text().split()
    return dict(cell.split("=", 1) if "=" in cell else (None, cell) for cell in line)


def printed_table(number, argv):
    """({key: text} of the ``# key=value`` headers, {column: texts}) of the
    table that README command ``number`` writes to its ``--out`` file, after
    checking that its argv is ``argv``."""
    assert README_ARGVS[number - 1] == argv.split()
    lines = (GOLDEN / argv.split()[-1]).read_text().splitlines()
    header = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    rows = [line.split(",") for line in lines if not line.startswith("# ")]
    return header, dict(zip(rows[0], zip(*rows[1:])))


def half_unit(text):
    """Half a unit of the 12th significant digit of the %.12g text ``text``
    (trailing zeros are not printed), as a 40-digit mpf."""
    with mpmath.workdps(40):
        return mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(mpmath.mpf(text)))) - 11) / 2


def within_half_unit(text, oracle, ulps=0):
    """Whether the %.12g text ``text`` is within half a unit of its 12th
    significant digit, plus ``ulps`` units in the last place of its double,
    of ``oracle``.  A printed zero (or -0) must be exact."""
    with mpmath.workdps(40):
        value = mpmath.mpf(text)
        if isinstance(oracle, Fraction):
            oracle = mpmath.mpf(oracle.numerator) / oracle.denominator
        if value == 0:
            return oracle == 0
        tolerance = half_unit(text) + ulps * mpmath.mpf(float(np.spacing(abs(float(text)))))
        return abs(value - oracle) <= tolerance


# (output file, column, row) -> the ROADMAP item that is to mend the cell;
# a row is named by the texts of its leading grid columns
KNOWN_OFF = {
    ("en_grid.csv", "EN", ("1.78947368421", "0.947368421053")):
        "item 2: E_N from block determinants loses det V to cancellation",
    ("sweep.csv", "EN", ("2.19",)):
        "item 21: sweep E_N from block determinants is good to about 1e-13 relative",
}


def off_cells(name, cells):
    """The (file, column, row) of each audited cell that is not within its
    tolerance and not in :data:`KNOWN_OFF`."""
    return [(name, column, row) for (column, row), (text, oracle, ulps) in cells.items()
            if (name, column, row) not in KNOWN_OFF
            and not within_half_unit(text, oracle, ulps)]


def werner_cells():
    # rho(f) = (1 + f sum sigma.sigma)/4 has the partial-transpose spectrum
    # (1 + 3 f)/4 and (1 - f)/4 (three times): N = max(0, -(1 + 3 f)/4) and
    # E_N = log2(2 N + 1), on the exact doubles of the grid
    _, table = printed_table(2, "werner --grid 100 --out werner.csv")
    fs = np.linspace(-1.0, 1.0 / 3.0, 100)
    cells = {}
    with mpmath.workdps(40):
        for text_f, text_n, text_en, f in zip(table["f"], table["N"], table["EN"], fs.tolist()):
            assert within_half_unit(text_f, Fraction(f))
            n = max(Fraction(0), -(1 + 3 * Fraction(f)) / 4)
            cells["N", (text_f,)] = (text_n, n, 0)
            cells["EN", (text_f,)] = (text_en, mpmath.log(2 * mpmath.mpf(n.numerator)
                                                           / n.denominator + 1, 2), 0)
    return cells


def test_werner_grid():
    cells = werner_cells()
    assert len(cells) == 200
    assert off_cells("werner.csv", cells) == []


@functools.cache
def en_grid_cells():
    # the two-mode squeezed thermal state: E_N = max(0, 2 r - ln(2 n_bar + 1))
    header, table = printed_table(4, "gaussian --grid 20 --out en_grid.csv")
    assert (header["r_max"], header["nbar_max"]) == ("2", "3")
    rs = np.repeat(np.linspace(0.0, 2.0, 20), 20).tolist()
    nbs = np.tile(np.linspace(0.0, 3.0, 20), 20).tolist()
    cells = {}
    with mpmath.workdps(40):
        for text_r, text_nb, text_en, text_closed, r, nb in zip(
                table["r"], table["n_bar"], table["EN"], table["EN_closed"], rs, nbs):
            assert within_half_unit(text_r, Fraction(r)) and within_half_unit(text_nb, Fraction(nb))
            en = max(mpmath.mpf(0), 2 * mpmath.mpf(r) - mpmath.log(2 * mpmath.mpf(nb) + 1))
            cells["EN", (text_r, text_nb)] = (text_en, en, 0)
            cells["EN_closed", (text_r, text_nb)] = (text_closed, en, 0)
    return cells


def test_squeezed_thermal_grid():
    cells = en_grid_cells()
    assert len(cells) == 800
    assert off_cells("en_grid.csv", cells) == []


def thermal_cells():
    # the canonical model on the double grid of kT, with beta = 1/kT the
    # double that the command divides; the cells are closed forms at 40 digits
    argv = ("lde thermal --jcan 5.07e-4 --phi 1.03e-2 --eta 6.23e-4 --tmin 2e-5"
            " --tmax 1e-2 --steps 24 --out thermal.csv")
    header, table = printed_table(11, argv)
    j, phi, eta = 5.07e-4, 1.03e-2, 6.23e-4
    temps = np.geomspace(2e-5, 1e-2, 24).tolist()
    with mpmath.workdps(40):
        j_, phi_, eta_ = (mpmath.mpf(v) for v in (j, phi, eta))

        def correlator(beta):
            u = mpmath.exp(-beta * j_)
            return eta_ + (1 - phi_) * (u - 1) / (u + mpmath.mpf(1) / 3)

        cells = {}
        for n, t in enumerate(temps):
            row = (table["kT"][n],)
            beta = mpmath.mpf(1.0 / t)
            c = correlator(beta)
            e = mpmath.exp(beta * j_)
            jab = mpmath.log((3 * (phi_ - eta_) + (4 - 3 * phi_ - eta_) * e)
                             / (4 - phi_ + eta_ + (phi_ + eta_ / 3) * e)) / (4 * beta)
            for column, oracle in (("kT", mpmath.mpf(t)), ("beta", 1 / mpmath.mpf(t)),
                                   ("correlator", c), ("J_ab", jab),
                                   ("concurrence", max(mpmath.mpf(0), abs(c) / 3 - c / 6 - 0.5))):
                cells[column, row] = (table[column][n], oracle, 0)
        # the separability temperature: correlator = -1, in x = J_can / kT
        # from the estimate
        x = mpmath.findroot(lambda x: correlator(x / j_) + 1,
                            j_ / mpmath.mpf(header["kT_star_estimate"]))
        cells["kT_star_exact", ()] = (header["kT_star_exact"], j_ / x, 0)
        cells["kT_star_estimate", ()] = (header["kT_star_estimate"],
                                         mpmath.mpf("0.93") * j_ * (1 - phi_), 0)
    return cells


def test_canonical_thermal_table():
    cells = thermal_cells()
    assert len(cells) == 122
    assert off_cells("thermal.csv", cells) == []


@functools.cache
def sweep_cells():
    # every 10th row and Delta/omega_m = 0.87 and 2.19: V and n_eff of the
    # 50-digit solve for the double A and D that the command builds, within
    # half a unit plus 4 ulps of the double; E_N of that V from its symplectic
    # invariant.  V12 = V21 = 0 exactly (row 1 of A is (0, omega_m, 0, 0) and
    # D11 = 0); they are checked against the 12th digit of the row's largest |V|.
    argv = "optomech-steady --dmin 0.2 --dmax 3.0 --steps 281 --out sweep.csv"
    header, table = printed_table(8, argv)
    p = derive_physical_params(
        length=float(header["length"]), mass=float(header["mass"]),
        power=float(header["power"]), quality=float(header["quality"]),
        temperature=float(header["temperature"]), wavelength=float(header["wavelength"]),
        finesse=float(header["finesse"]), omega_m=2.0 * math.pi * float(header["fm"]))
    sweep = detuning_sweep(p, np.linspace(0.2, 3.0, 281))
    rows = sorted(set(range(0, 281, 10)) | {67, 199})
    assert [table["Delta_over_wm"][n] for n in (67, 199)] == ["0.87", "2.19"]
    names = [f"V{i}{j}" for i in range(1, 5) for j in range(1, 5)]
    cells = {}
    for n in rows:
        row = (table["Delta_over_wm"][n],)
        a, d = drift_and_diffusion(p, sweep["Delta_over_wm"][n] * p.omega_m,
                                   sweep["G"][n], p.omega_m)
        v = exact_lyapunov(a, d)
        with mpmath.workdps(50):
            for name in names:
                i, j = int(name[1]) - 1, int(name[2]) - 1
                if (i, j) not in ((0, 1), (1, 0)):
                    cells[name, row] = (table[name][n], v[i][j], 4)
            largest = max(names, key=lambda name: abs(mpmath.mpf(table[name][n])))
            for name in ("V12", "V21"):
                assert abs(v[int(name[1]) - 1][int(name[2]) - 1]) < mpmath.mpf(10) ** -40
                assert abs(mpmath.mpf(table[name][n])) <= half_unit(table[largest][n])
            cells["n_eff", row] = (table["n_eff"][n], (v[0][0] + v[1][1]) / 2 - 0.5, 4)
            m = mpmath.matrix(v)
            sigma = (mpmath.det(m[0:2, 0:2]) + mpmath.det(m[2:4, 2:4])
                     - 2 * mpmath.det(m[0:2, 2:4]))
            d_minus = mpmath.sqrt((sigma - mpmath.sqrt(sigma**2 - 4 * mpmath.det(m))) / 2)
            cells["EN", row] = (table["EN"][n], max(mpmath.mpf(0), -mpmath.log(2 * d_minus)), 0)
    return cells


def test_detuning_sweep_against_50_digit_solves():
    cells = sweep_cells()
    assert len(cells) == 31 * 16
    assert off_cells("sweep.csv", cells) == []


def test_ring_response_against_40_digit_quadrature():
    # tau = x + u^2 on the raw integrand, with cos x - cos tau as the product
    # 2 sin(x + u^2/2) sin(u^2/2); r = 31 is odd, so the sign is -1
    out = printed(10, "lde chi --model ring --L 100 --r 31")
    x = RingGeometry(100, 31).x
    with mpmath.workdps(40):
        x_ = mpmath.mpf(x)

        def f(u):
            if u == 0:
                return 2 * (x_ / mpmath.pi - 1) / mpmath.sqrt(mpmath.sin(x_))
            return (2 * u * ((x_ + u * u) / mpmath.pi - 1)
                    / mpmath.sqrt(2 * mpmath.sin(x_ + u * u / 2) * mpmath.sin(u * u / 2)))

        integral = mpmath.quad(f, [0, mpmath.sqrt(x_), mpmath.sqrt(mpmath.pi - x_)])
        assert within_half_unit(out[None], -integral / mpmath.sqrt(2))


@pytest.mark.xfail(strict=True, reason="the cells of KNOWN_OFF, ROADMAP items 2 and 21")
@pytest.mark.parametrize("name, column, row", sorted(KNOWN_OFF),
                         ids=[f"{name}:{column}@{','.join(row)}"
                              for name, column, row in sorted(KNOWN_OFF)])
def test_known_off_cells(name, column, row):
    cells = {"en_grid.csv": en_grid_cells, "sweep.csv": sweep_cells}[name]()
    text, oracle, ulps = cells[column, row]
    assert within_half_unit(text, oracle, ulps)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 21: x = 2 pi r / L arrives as a rounded"
                                        " double, so pi - x keeps about 8 digits next to the"
                                        " half ring")
def test_ring_response_next_to_the_half_ring(capsys):
    # pi - x = 2 pi / L at the exact x = 2 pi r / L: chi = 2/L (1 + O((2 pi/L)^2))
    # = 2.00000000000e-08.  The command prints 2.00000001366e-08 (adaptive
    # quadrature printed 2.00000001293e-08); the exact integral at the rounded
    # double x is 2.0000000175e-08
    assert main(["lde", "chi", "--model", "ring", "--L", "100000000", "--r", "49999999"]) == 0
    text = capsys.readouterr().out.strip()
    with mpmath.workdps(40):
        x = 2 * mpmath.pi * 49999999 / 100000000

        def f(u):  # tau = x + u^2, as for README command 10
            if u == 0:
                return 2 * (x / mpmath.pi - 1) / mpmath.sqrt(mpmath.sin(x))
            return (2 * u * ((x + u * u) / mpmath.pi - 1)
                    / mpmath.sqrt(2 * mpmath.sin(x + u * u / 2) * mpmath.sin(u * u / 2)))

        integral = mpmath.quad(f, [0, mpmath.sqrt(mpmath.pi - x)])
        assert abs(-integral / mpmath.sqrt(2) * 50000000 - 1) < mpmath.mpf(10) ** -14
        assert within_half_unit(text, -integral / mpmath.sqrt(2))


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
