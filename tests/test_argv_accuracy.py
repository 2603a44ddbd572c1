"""Drawn argvs against 50-digit closed forms.

``test_printed_accuracy.py`` audits the argvs that README prints; this
module audits argvs drawn across the whole range that each flag accepts,
refusals included, because that is where wrong digits hide.  Every argv
must either exit 0 with every printed number within half a unit of its 12th
significant digit of its closed form, evaluated at the exact doubles of the
argv, or exit 3 with one ``qcb: error:`` line.  The draws are a fixed list
from a seeded generator.  :data:`KNOWN_OFF` lists each printed cell that is
off today, with the ROADMAP item that is to mend it; one test per argv
asserts every other cell, and one strict xfail asserts each listed cell.

Values are passed as ``--flag=value``: argparse reads a separate negative
value in exponent notation, such as ``--f -1e-05``, as an option and exits
2, before any value is checked.
"""

import contextlib
import functools
import io
import math
import random

import mpmath
import pytest

from qcb.cli import main
from test_printed_accuracy import within_half_unit


def _werner_draws(rng):
    """``werner --f=F``: the accepted [-1, 1/3] (1e-15 beyond 1/3), the N = 0
    edge at -1/3 approached from both sides, and values out of range."""
    fs = [-1.0, -1.0 / 3.0, 0.0, 1.0 / 3.0]
    fs += [float(f"{rng.uniform(-1.0, 1.0 / 3.0):.6g}") for _ in range(60)]
    fs += [-1.0 / 3.0 + rng.choice((-1, 1)) * 10 ** rng.uniform(-17, -1) for _ in range(30)]
    fs += [rng.choice((-1.0 - 10 ** u, 1.0 / 3.0 + 10 ** u))
           for u in (rng.uniform(-17, 308) for _ in range(40))]
    return [f"werner --f={f!r}" for f in fs]


def _gaussian_draws(rng):
    """``gaussian --r=R --n-bar=N``: the squeezings of the README range and
    far above it, occupancies up to the largest doubles, the separability
    boundary 2r = ln(2n + 1) approached from both sides, and negative
    values."""
    pairs = [(0.0, 0.0), (0.0, 1e308), (1.0, 0.0)]
    pairs += [(rng.uniform(0.0, 20.0), 10 ** rng.uniform(-6, 6)) for _ in range(100)]
    pairs += [(10 ** rng.uniform(-6, 3), 10 ** rng.uniform(-12, 308)) for _ in range(80)]
    pairs = [(float(f"{r:.6g}"), float(f"{n_bar:.6g}")) for r, n_bar in pairs]
    for _ in range(40):
        n_bar = float(f"{10 ** rng.uniform(-6, 6):.6g}")
        pairs.append((math.log1p(2.0 * n_bar) / 2.0
                      * (1.0 + rng.choice((-1, 1)) * 10 ** rng.uniform(-16, -1)), n_bar))
    for _ in range(20):
        r = float(f"{10 ** rng.uniform(-6, 3):.6g}")
        n_bar = float(f"{10 ** rng.uniform(-12, 12):.6g}")
        negative = -float(f"{10 ** rng.uniform(-300, 300):.6g}")
        pairs.append((negative, n_bar) if rng.random() < 0.5 else (r, negative))
    return [f"gaussian --r={r!r} --n-bar={n_bar!r}" for r, n_bar in pairs]


_rng = random.Random(24)
ARGVS = _werner_draws(_rng) + _gaussian_draws(_rng)

# The ROADMAP item that is to mend the off cells of each command, and why
# they are off.
CAUSES = {
    "werner": "item 24: N from the partial transpose's eigenvalues is good to about 1e-17"
              " absolute, and E_N = log2(2N + 1) rounds 1 + 2N, so both lose digits next to"
              " f = -1/3",
    "gaussian": "item 2: d~_- and the separable flag come from block determinants, which"
                " lose det V to cancellation; E_N next to 0 is also a small difference",
}
# argv -> its printed keys that are off today
OFF = {
    "werner --f=-0.3333333333515415": "N EN",
    "werner --f=-0.3333410905954823": "N EN",
    "werner --f=-0.3333333333333334": "N EN",
    "werner --f=-0.33333333333333337": "EN",
    "werner --f=-0.33333333333365506": "N EN",
    "werner --f=-0.33333451810153675": "N EN",
    "werner --f=-0.33333333335594": "N EN",
    "werner --f=-0.3333333338369197": "N EN",
    "werner --f=-0.33333333333333826": "N EN",
    "werner --f=-0.33333333333333975": "N EN",
    "gaussian --r=3.26055 --n-bar=2.3242e-06": "d_minus EN",
    "gaussian --r=7.14485 --n-bar=239058.0": "d_minus EN",
    "gaussian --r=4.27129 --n-bar=0.00107972": "d_minus EN",
    "gaussian --r=5.5617 --n-bar=15678.5": "d_minus EN",
    "gaussian --r=5.75079 --n-bar=35974.1": "d_minus EN",
    "gaussian --r=5.69602 --n-bar=8.946": "d_minus EN",
    "gaussian --r=7.62177 --n-bar=1.56101e-06": "d_minus EN",
    "gaussian --r=6.86645 --n-bar=588.119": "d_minus EN",
    "gaussian --r=4.56824 --n-bar=8.68545": "d_minus EN",
    "gaussian --r=6.86102 --n-bar=16.1139": "d_minus EN",
    "gaussian --r=4.61251 --n-bar=1048.01": "d_minus EN",
    "gaussian --r=7.28013 --n-bar=0.000239287": "d_minus EN",
    "gaussian --r=12.526 --n-bar=0.00598839": "d_minus EN",
    "gaussian --r=3.83334 --n-bar=1.00051e-06": "d_minus EN",
    "gaussian --r=5.57371 --n-bar=304762.0": "d_minus",
    "gaussian --r=8.68217 --n-bar=19299.3": "d_minus EN",
    "gaussian --r=5.9328 --n-bar=222688.0": "d_minus",
    "gaussian --r=4.36817 --n-bar=0.00165321": "d_minus EN",
    "gaussian --r=3.03472 --n-bar=5.92144": "d_minus EN",
    "gaussian --r=7.1867 --n-bar=7.50715": "d_minus EN",
    "gaussian --r=8.24944 --n-bar=1.93811": "d_minus EN",
    "gaussian --r=7.1327 --n-bar=33.2594": "d_minus EN",
    "gaussian --r=8.21769 --n-bar=97163.9": "d_minus EN",
    "gaussian --r=13.4925 --n-bar=7030.21": "d_minus EN",
    "gaussian --r=6.04467 --n-bar=16.1667": "d_minus EN",
    "gaussian --r=4.67611 --n-bar=0.0738705": "d_minus EN",
    "gaussian --r=4.77966 --n-bar=8.51598e-05": "d_minus EN",
    "gaussian --r=7.26708 --n-bar=426962.0": "d_minus EN",
    "gaussian --r=15.4635 --n-bar=58.76": "d_minus EN",
    "gaussian --r=17.4243 --n-bar=0.205701": "d_minus EN",
    "gaussian --r=5.73771 --n-bar=0.0615976": "d_minus EN",
    "gaussian --r=6.55995 --n-bar=0.00110335": "d_minus EN",
    "gaussian --r=2.63303 --n-bar=5.39513e-05": "d_minus",
    "gaussian --r=4.59941 --n-bar=0.111414": "d_minus EN",
    "gaussian --r=8.15928 --n-bar=23711.3": "d_minus EN",
    "gaussian --r=7.95916 --n-bar=0.000295072": "d_minus EN",
    "gaussian --r=3.80886 --n-bar=13901.4": "d_minus",
    "gaussian --r=4.3653 --n-bar=0.000114529": "d_minus EN",
    "gaussian --r=6.33983 --n-bar=1.01437e-05": "d_minus EN",
    "gaussian --r=1.72253e-05 --n-bar=2.13279e+48": "d_minus",
    "gaussian --r=7.64567e-05 --n-bar=2.82375e+23": "d_minus",
    "gaussian --r=6.68174 --n-bar=947.52": "d_minus EN",
    "gaussian --r=0.000302852 --n-bar=8.18356e+44": "d_minus",
    "gaussian --r=2.75107e-05 --n-bar=1.17224e+74": "d_minus",
    "gaussian --r=1.10278e-05 --n-bar=3.16298e+35": "d_minus",
    "gaussian --r=1.71743e-05 --n-bar=1.93945e+40": "d_minus",
    "gaussian --r=9.98969e-06 --n-bar=3.35919e+38": "d_minus",
    "gaussian --r=6.63509e-06 --n-bar=1.05724e+45": "d_minus",
    "gaussian --r=0.23630760804111176 --n-bar=0.302092": "EN",
    "gaussian --r=0.0074465183715026004 --n-bar=0.00750163": "EN",
    "gaussian --r=2.033971202930424 --n-bar=28.7183": "EN",
    "gaussian --r=8.92874042867762e-06 --n-bar=8.92882e-06": "d_minus EN",
    "gaussian --r=5.795271848758094 --n-bar=54035.0": "d_minus EN separable",
    "gaussian --r=3.778797543680625 --n-bar=957.117": "d_minus",
    "gaussian --r=5.046520614604922 --n-bar=12086.6": "d_minus EN separable",
    "gaussian --r=3.448948274758432 --n-bar=533.313": "d_minus",
    "gaussian --r=0.006506007673914386 --n-bar=0.00654852": "EN",
    "gaussian --r=3.2096596980625903e-06 --n-bar=3.20967e-06": "d_minus EN",
    "gaussian --r=4.01881687050787 --n-bar=1547.14": "d_minus EN",
    "gaussian --r=3.4100288415157154 --n-bar=457.518": "d_minus EN",
    "gaussian --r=2.8633722421494063e-06 --n-bar=2.86285e-06": "d_minus EN",
    "gaussian --r=2.924509667923189 --n-bar=172.947": "d_minus EN",
    "gaussian --r=6.580003916372556 --n-bar=259590.0": "d_minus EN separable",
    "gaussian --r=1.0753581457019638e-05 --n-bar=1.07451e-05": "EN",
    "gaussian --r=0.00023828021352129142 --n-bar=0.000238337": "EN",
    "gaussian --r=1.0611691148862834 --n-bar=3.67532": "EN",
    "gaussian --r=0.020632676111351417 --n-bar=0.0210643": "EN",
    "gaussian --r=5.395132264029202 --n-bar=24273.4": "d_minus",
    "gaussian --r=7.495280393046786 --n-bar=770012.0": "d_minus EN",
    "gaussian --r=0.056708096600187045 --n-bar=0.060049": "EN",
    "gaussian --r=5.657989136557187 --n-bar=41061.2": "d_minus EN separable",
    "gaussian --r=5.682814454273545 --n-bar=43151.4": "d_minus EN",
    "gaussian --r=6.282902206303855 --n-bar=143294.0": "d_minus",
    "gaussian --r=0.003219354891443696 --n-bar=0.00322974": "EN",
    "gaussian --r=0.0027237775457842226 --n-bar=0.00273121": "EN",
    "gaussian --r=1.6053008475797053 --n-bar=11.897": "EN",
    "gaussian --r=1.61414739452541e-06 --n-bar=1.61415e-06": "d_minus EN",
    "gaussian --r=5.014769270394898 --n-bar=11342.9": "d_minus EN separable",
    "gaussian --r=5.2728123183001404e-05 --n-bar=5.27309e-05": "EN",
    "gaussian --r=3.804135904130096e-06 --n-bar=3.80415e-06": "d_minus EN",
    "gaussian --r=3.638013262594328 --n-bar=722.117": "d_minus EN",
}
# (argv, printed key) -> the ROADMAP item that is to mend the cell
KNOWN_OFF = {(argv, key): CAUSES[argv.split()[0]] for argv, keys in OFF.items()
             for key in keys.split()}


def value(argv, flag):
    """The exact double that ``argv`` passes with ``--flag=``, as an mpf."""
    return mpmath.mpf(float(argv.split(f"--{flag}=", 1)[1].split()[0]))


def closed_form(argv):
    """{printed key: 50-digit value} of ``argv``; the separable flag as a
    bool, or None inside the 1e-12 band of its inequality."""
    with mpmath.workdps(50):
        if argv.startswith("werner"):
            f = value(argv, "f")
            n = max(mpmath.mpf(0), -(1 + 3 * f) / 4)
            return {"N": n, "EN": mpmath.log(2 * n + 1, 2)}
        r, n_bar = value(argv, "r"), value(argv, "n-bar")
        # det A + det B + 2 |det C| <= 1/4 + 4 det V with a = (1 + 2 n_bar)^2:
        # a cosh(4 r) / 2 <= (1 + a^2) / 4, which is 2 r <= ln(2 n_bar + 1)
        a = (1 + 2 * n_bar) ** 2
        margin = (1 + a * a) / 4 - a * mpmath.cosh(4 * r) / 2
        return {"d_minus": (n_bar + mpmath.mpf(1) / 2) * mpmath.exp(-2 * r),
                "EN": max(mpmath.mpf(0), 2 * r - mpmath.log(2 * n_bar + 1)),
                "separable": None if abs(margin) <= mpmath.mpf("1e-12")
                else bool(2 * r <= mpmath.log(2 * n_bar + 1))}


@functools.cache
def run(argv):
    """(exit code, stdout, stderr) of ``argv`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return code, out.getvalue(), err.getvalue()


def printed(argv):
    """{key: text} of the one line that ``argv`` prints."""
    return dict(cell.split("=", 1) for cell in run(argv)[1].split())


def is_right(argv, key):
    """Whether the printed cell ``key`` of ``argv`` holds its closed form."""
    text, oracle = printed(argv)[key], closed_form(argv)[key]
    if key == "separable":
        return oracle is None or text == str(int(oracle))
    return within_half_unit(text, oracle)


@pytest.mark.parametrize("argv", ARGVS)
def test_argv_prints_closed_form_or_exits_3(argv):
    code, stdout, stderr = run(argv)
    if code == 3:
        assert stdout == "" and stderr.count("\n") == 1 and stderr.startswith("qcb: error: ")
        assert not [cell for cell in KNOWN_OFF if cell[0] == argv]
        return
    assert (code, stderr) == (0, "")
    assert list(printed(argv)) == list(closed_form(argv))
    assert [key for key in printed(argv)
            if (argv, key) not in KNOWN_OFF and not is_right(argv, key)] == []


@pytest.mark.xfail(strict=True, reason="the cells of KNOWN_OFF, ROADMAP items 2 and 24")
@pytest.mark.parametrize("argv, key", sorted(KNOWN_OFF),
                         ids=[f"{argv}:{key}" for argv, key in sorted(KNOWN_OFF)])
def test_known_off_cells(argv, key):
    assert run(argv)[0] == 0 and is_right(argv, key)
