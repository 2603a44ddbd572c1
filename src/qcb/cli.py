"""Command-line front end: figure-data reproduction sweeps as CSV/JSON.

Exit codes: 0 success, 2 usage error, 3 numeric-domain error; warnings are
``qcb: warning:`` lines on stderr.  All output is deterministic for a fixed
argv; a table's header records the resolved configuration.  Every command
writes its text once, to --out or to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import ed as ed_mod
from . import gaussian, optomech_stationary, optomech_unitary, qstate, spin_lde
from .exceptions import QcbError, naming_point
from .output import export_table, fmt_value, read_table, read_text, write_text


def _checked(convert, ok, what: str):
    """argparse type: ``convert`` the text, then require ``ok`` of the value."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


# Most cells (rows x columns) of a table, some 70 GB of text: a table flag
# beyond it is a usage error; a smaller table too big for memory exits 3.
MAX_TABLE_CELLS = 2**32


def _rows(columns: int, power: int = 1):
    """argparse type of a table-size flag N: N**power rows of ``columns`` cells."""
    return _checked(int, lambda n: n >= 0 and n**power * columns <= MAX_TABLE_CELLS,
                    f"an integer >= 0 giving at most {MAX_TABLE_CELLS} table cells")


_finite = _checked(float, math.isfinite, "a finite number")
_positive = _checked(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")
_nonnegative = _checked(float, lambda x: 0.0 <= x < math.inf, "a finite number >= 0")
# A temperature below about 5.6e-309 has an inverse that overflows: no beta.
_temperature = _checked(float, lambda t: 0.0 < t < math.inf and math.isfinite(1.0 / t),
                        "a temperature > 0 with a finite 1/T")
# Kept as text, which the output header records.
_temperatures = _checked(str, lambda t: t == "auto" or all(
    _temperature(x) for x in t.split(",")), "'auto' or temperatures > 0")
_probes = _checked(str, lambda t: t == "ends" or (
    t.count(",") == 1 and all(x.isdecimal() for x in t.split(","))
    and len({int(x) for x in t.split(",")}) == 2), "'ends' or two different sites 'i,j'")
_levels = _checked(str, lambda t: all(x.isdecimal() for x in t.split(",")),
                   "levels 'i,j,...'")


def _parse_args(argv):
    """Parse ``argv``.  The key=value pairs of a --config file become the
    defaults of the chosen subcommand of a freshly built parser, so they never
    reach a later call; explicit flags win and the file can supply needed
    flags.  A needed flag given by neither is a usage error.
    """
    args = _parser().parse_args(argv)
    if args.config is not None:
        parser = build_parser()
        _config_defaults(parser.parse_args(argv).sub, read_text(args.config))
        args = parser.parse_args(argv)
    missing = [flag for flag in args.needs if _value(args, flag) is None]
    if missing:
        args.sub.error(f"the following arguments are required: {', '.join(missing)}")
    return args


def _value(args, flag: str):
    """The value of ``flag`` of the chosen subcommand, None if not given."""
    return getattr(args, args.sub._option_string_actions[flag].dest)


def _refuse_with(args, other: str, *flags: str) -> None:
    """A usage error if argv or --config gave any of ``flags``, which the
    output shape that ``other`` chose does not read."""
    given = [flag for flag in flags if _value(args, flag) is not None]
    if given:
        args.sub.error(f"{', '.join(given)} cannot be combined with {other}")


def _config_defaults(sub: argparse.ArgumentParser, text: str) -> None:
    """Set the defaults of the subcommand parser ``sub`` from the key=value
    lines of a config file, converted and checked like the flags they set.
    A key is a flag name without its dashes (``in``, ``n-bar``) or the
    attribute the flag sets (``infile``, ``n_bar``)."""
    actions = {key: a for a in sub._actions if a.option_strings
               for key in (a.dest, *(s.lstrip("-") for s in a.option_strings))}
    for raw in text.splitlines():
        key, sep, value = (t.strip() for t in raw.partition("="))
        action = actions.get(key)
        if not sep or key.startswith("#") or action is None:
            continue  # no key=value pair, a comment, or a key of another command
        try:
            value = value if action.type is None else action.type(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise QcbError(f"config {key} = {value!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise QcbError(f"config {key} = {value!r}: not one of {action.choices}")
        sub.set_defaults(**{action.dest: value})


def _table(args, table, keys, **config) -> str:
    """The text of every column of ``table`` (a dict, or a record array), its
    config the values of the flags ``keys`` and the items ``config``."""
    columns = list(table.dtype.names if isinstance(table, np.ndarray) else table)
    return export_table(table, columns, {k: getattr(args, k) for k in keys} | config,
                        fmt=args.format)


def _line(**values) -> str:
    """A one-line result: its ``key=value`` pairs."""
    return " ".join(f"{k}={fmt_value(v)}" for k, v in values.items()) + "\n"


def _json(payload: dict) -> str:
    """A JSON report: its values as table cells, None as null."""
    return json.dumps({k: None if v is None else fmt_value(v)
                       for k, v in payload.items()}, indent=2, sort_keys=True) + "\n"


def _refuse_json(args, hint: str) -> None:
    """A one-line result has no JSON form: --format json is a usage error."""
    if args.format == "json":
        args.sub.error(f"--format json needs a table: {hint}")


# --------------------------------------------------------------------- werner


def _cmd_werner(args) -> str:
    if args.grid is not None:
        _refuse_with(args, "--grid", "--f")
        fs = np.linspace(-1.0, 1.0 / 3.0, args.grid)
        n, en = qstate.negativity(qstate.werner_state(fs))
        return _table(args, {"f": fs, "N": n, "EN": en}, ["grid"], command="werner")
    _refuse_json(args, "add --grid N")
    if args.f is None:
        args.sub.error("provide --f or --grid")
    n, en = qstate.negativity(qstate.werner_state(args.f))
    return _line(N=n, EN=en)


# ------------------------------------------------------------------- gaussian


def _cmd_gaussian(args) -> str:
    if args.grid is not None:
        _refuse_with(args, "--grid", "--r", "--theta", "--n-bar")
        rs = np.repeat(np.linspace(0.0, args.r_max, args.grid), args.grid).tolist()
        nbs = np.tile(np.linspace(0.0, args.nbar_max, args.grid), args.grid).tolist()
        with naming_point(lambda i: f"r = {fmt_value(rs[i])}, n_bar = {fmt_value(nbs[i])}"):
            en = gaussian.logneg_gaussian(
                gaussian.two_mode_squeezed_thermal_cov(rs, 0.0, nbs).cov)
        table = {"r": rs, "n_bar": nbs, "EN": en,
                 "EN_closed": [max(0.0, 2.0 * r - math.log(2.0 * nb + 1.0))
                               for r, nb in zip(rs, nbs)]}
        return _table(args, table, ["grid", "r_max", "nbar_max"], command="gaussian")
    _refuse_json(args, "add --grid N")
    r, theta, n_bar = (d if x is None else x for x, d in
                       ((args.r, 1.0), (args.theta, 0.0), (args.n_bar, 0.0)))
    v = gaussian.two_mode_squeezed_thermal_cov(r, theta, n_bar).cov
    return _line(d_minus=gaussian.ppt_tilde_dminus(v), EN=gaussian.logneg_gaussian(v),
                 separable=gaussian.simon_invariant_check(v))


# ----------------------------------------------------------- optomech-unitary


def _cmd_optomech_unitary(args) -> str:
    q = args.quantity
    if q != "marker" or args.sweep_t is None:  # a one-line result
        _refuse_json(args, "add --sweep-t N with --quantity marker")
    if q != "marker":
        _refuse_with(args, f"--quantity {q}", "--sweep-t")
    p = optomech_unitary.OptoUnitaryParams(k=args.k, alpha=args.alpha,
                                           n_bar=args.n_bar, t=args.t)
    sel = optomech_unitary.SubspaceSelector(
        *(tuple(int(n) for n in t.split(",")) for t in (args.cavity, args.mirror)))
    if args.sweep_t is not None:
        ts = np.linspace(0.0, 2.0 * math.pi, args.sweep_t)
        table = {"t": ts, "marker": [optomech_unitary.marker_upsilon(replace(p, t=t), sel)
                                     for t in ts.tolist()]}
        return _table(args, table, ["k", "alpha", "n_bar", "cavity", "mirror"],
                      command="optomech-unitary")
    if q == "marker":
        return _line(marker=optomech_unitary.marker_upsilon(p, sel))
    if q == "tangle":
        return _line(tangle=qstate.tangle(optomech_unitary.projected_density(p, sel)))
    if q == "negativity":
        n, en = qstate.negativity(optomech_unitary.projected_density(p, sel))
        return _line(N=n, EN=en)
    if q == "entropies":
        s_tot, s_cav, s_mir = optomech_unitary.linear_entropies_closed(p)
        return _line(S_total=s_tot, S_cav=s_cav, S_mir=s_mir)
    if q == "mi":
        return _line(MI=optomech_unitary.normalized_mi_time(p))
    return _line(MI_av=optomech_unitary.averaged_mi(p))  # mi-average


# ------------------------------------------------------------ optomech-steady


def _cmd_optomech_steady(args) -> str:
    p = optomech_stationary.derive_physical_params(
        length=args.length, mass=args.mass, power=args.power, quality=args.quality,
        temperature=args.temperature, wavelength=args.wavelength,
        finesse=args.finesse, kappa=args.kappa, omega_m=2.0 * math.pi * args.fm)
    xs = np.linspace(args.dmin, args.dmax, args.steps)
    return _table(args, optomech_stationary.detuning_sweep(p, xs),
                  ["length", "mass", "power", "quality", "temperature", "wavelength",
                   "finesse", "fm", "dmin", "dmax", "steps"], command="optomech-steady",
                  kappa=p.kappa, n_bar=p.n_bar, g=p.g, drive_E=p.drive_E)


# ------------------------------------------------------------------------ lde


def _cmd_lde_chi(args) -> str:
    _refuse_json(args, "lde chi prints one value")
    if args.model == "ring":
        if args.L is None or args.r is None:
            args.sub.error("ring model needs --L and --r")
        return fmt_value(spin_lde.chi_ring(spin_lde.RingGeometry(args.L, args.r))) + "\n"
    if args.r is None:
        args.sub.error("aklt model needs --r")
    return fmt_value(spin_lde.chi_aklt(args.r)) + "\n"


def _cmd_lde_thermal(args) -> str:
    cp = spin_lde.CanonicalParams(args.jcan, args.phi, args.eta)
    temps = np.geomspace(args.tmin, args.tmax, args.steps)
    betas = [1.0 / t for t in temps.tolist()]
    corrs = [spin_lde.correlator_of_beta(cp, beta) for beta in betas]
    table = {"kT": temps, "beta": betas,
             "J_ab": [spin_lde.jab_of_beta(cp, beta) for beta in betas],
             "correlator": corrs,
             "concurrence": [qstate.concurrence_from_correlator(c) for c in corrs]}
    ct = spin_lde.critical_temperature(cp)
    return _table(args, table, ["jcan", "phi", "eta", "tmin", "tmax", "steps"],
                  command="lde-thermal", kT_star_estimate=ct.kT_estimate,
                  kT_star_exact=float("nan") if ct.kT_exact is None else ct.kT_exact)


def _cmd_lde_fit(args) -> str:
    _, columns, table = read_table(args.infile)
    if "beta" in columns:
        betas = table["beta"]
    elif "kT" in columns:
        # a cell that is no number, or 0, goes to the fit as it is, to be refused
        betas = [1.0 / t if isinstance(t, float) and t else t for t in table["kT"]]
    else:
        raise QcbError("fit input needs a 'beta' or 'kT' column")
    col = "correlator" if args.kind == "correlator" else "J_ab"
    if col not in columns:
        raise QcbError(f"fit input lacks a {col!r} column")
    fit = spin_lde.fit_canonical_params(list(zip(betas, table[col])), kind=args.kind)
    return _json({"J_can": fit.params.J_can, "Phi": fit.params.Phi,
                  "eta": fit.params.eta, "rms_residual": fit.rms_residual,
                  "n_points": len(betas)})


# ------------------------------------------------------------------------- ed


def _make_lattice(args) -> ed_mod.LatticeSpec:
    probes = args.probes if args.probes == "ends" else tuple(
        int(t) for t in args.probes.split(","))
    make = {"chain": ed_mod.chain, "ladder": ed_mod.ladder}[args.lattice]
    return make(args.L, args.alpha, probes)


def _cmd_ed_run(args) -> str:
    spectrum = ed_mod.full_spectrum(_make_lattice(args))
    j_can, gap = ed_mod.low_spectrum_jcan(spectrum)
    if args.temps == "auto":
        temps = ed_mod.default_temperature_grid(j_can)
    else:
        temps = np.array([float(t) for t in args.temps.split(",")])
    betas = 1.0 / temps
    corrs = ed_mod.thermal_correlator_exact(spectrum, betas)
    table = {"kT": temps, "beta": betas, "correlator": corrs,
             "concurrence": [qstate.concurrence_from_correlator(c) for c in corrs.tolist()]}
    return _table(args, table, ["lattice", "L", "alpha", "probes", "temps"],
                  command="ed-run", J_can_exact=j_can, robust_gap=gap)


def _cmd_ed_report(args) -> str:
    return _json(ed_mod.theory_consistency_report(_make_lattice(args)))


# -------------------------------------------------------------------- parsing


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qcb", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    needed = "required (flag or --config)"

    def common(p, run, *needs):
        """Output and config flags; ``run`` is the handler of the command and
        ``needs`` the flags that argv or --config must give."""
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--config", default=None,
                       help="key=value file supplying defaults (flags override)")
        p.set_defaults(sub=p, run=run, needs=needs)

    p = sub.add_parser("werner", help="Werner-family negativity")
    p.add_argument("--f", type=_finite, default=None)
    p.add_argument("--grid", type=_rows(3), default=None)
    common(p, _cmd_werner)

    p = sub.add_parser("gaussian", help="two-mode squeezed thermal log-negativity")
    p.add_argument("--r", type=_finite, default=None, help="default 1 (not with --grid)")
    p.add_argument("--theta", type=_finite, default=None, help="default 0 (not with --grid)")
    p.add_argument("--n-bar", type=_finite, default=None, help="default 0 (not with --grid)")
    p.add_argument("--grid", type=_rows(4, power=2), default=None)
    p.add_argument("--r-max", type=_finite, default=2.0)
    p.add_argument("--nbar-max", type=_finite, default=3.0)
    common(p, _cmd_gaussian)

    p = sub.add_parser("optomech-unitary", help="exact cavity-mirror model")
    p.add_argument("--quantity", default="marker",
                   choices=["marker", "tangle", "negativity", "entropies",
                            "mi", "mi-average"])
    p.add_argument("--k", type=_finite, default=1.0)
    p.add_argument("--alpha", type=_finite, default=1.0)
    p.add_argument("--n-bar", type=_finite, default=0.0)
    p.add_argument("--t", type=_finite, default=math.pi)
    p.add_argument("--cavity", type=_levels, default="0,1")
    p.add_argument("--mirror", type=_levels, default="0,1")
    p.add_argument("--sweep-t", type=_rows(2), default=None)
    common(p, _cmd_optomech_unitary)

    p = sub.add_parser("optomech-steady", help="driven-cavity detuning sweep")
    p.add_argument("--length", type=_positive, default=1e-3, help="cavity length [m]")
    p.add_argument("--mass", type=_positive, default=5e-12, help="mirror mass [kg]")
    p.add_argument("--power", type=_positive, default=50e-3, help="input power [W]")
    p.add_argument("--quality", type=_positive, default=1e5, help="mechanical Q")
    p.add_argument("--temperature", type=_nonnegative, default=0.4, help="bath T [K]")
    p.add_argument("--wavelength", type=_positive, default=810e-9)
    p.add_argument("--finesse", type=_positive, default=1.07e4)
    p.add_argument("--fm", type=_positive, default=1e7, help="mirror frequency [Hz]")
    p.add_argument("--kappa", type=_positive, default=None,
                   help="cavity decay [rad/s] (default: pi c / (length finesse))")
    p.add_argument("--dmin", type=_finite, default=0.2)
    p.add_argument("--dmax", type=_finite, default=3.0)
    p.add_argument("--steps", type=_rows(len(optomech_stationary.SWEEP_COLUMNS)), default=57)
    common(p, _cmd_optomech_steady)

    p = sub.add_parser("lde", help="spin-bus long-distance entanglement")
    lde_sub = p.add_subparsers(dest="lde_command", required=True)
    q = lde_sub.add_parser("chi", help="bus susceptibility")
    q.add_argument("--model", choices=["ring", "aklt"], help=needed)
    q.add_argument("--L", type=int, default=None)
    q.add_argument("--r", type=int, default=None)
    common(q, _cmd_lde_chi, "--model")
    q = lde_sub.add_parser("thermal", help="canonical-model temperature sweep")
    q.add_argument("--jcan", type=_finite, help=needed)
    q.add_argument("--phi", type=_finite, default=0.0)
    q.add_argument("--eta", type=_finite, default=0.0)
    q.add_argument("--tmin", type=_temperature, help=needed)
    q.add_argument("--tmax", type=_temperature, help=needed)
    q.add_argument("--steps", type=_rows(5), default=12)
    common(q, _cmd_lde_thermal, "--jcan", "--tmin", "--tmax")
    q = lde_sub.add_parser("fit", help="fit canonical parameters to data (JSON)")
    q.add_argument("--in", dest="infile", help=needed)
    q.add_argument("--kind", default="correlator", choices=["correlator", "jab"])
    common(q, _cmd_lde_fit, "--in")

    p = sub.add_parser("ed", help="exact-diagonalization oracle")
    ed_sub = p.add_subparsers(dest="ed_command", required=True)
    for name, run, helptext in [("run", _cmd_ed_run, "thermal correlator sweep"),
                                ("report", _cmd_ed_report,
                                 "theory consistency report (JSON)")]:
        q = ed_sub.add_parser(name, help=helptext)
        q.add_argument("--lattice", default="chain", choices=["chain", "ladder"])
        q.add_argument("--L", type=int, default=8)
        q.add_argument("--alpha", type=_finite, default=0.05)
        q.add_argument("--probes", type=_probes, default="ends",
                       help='"ends" or explicit bath sites "i,j"')
        if name == "run":
            q.add_argument("--temps", type=_temperatures, default="auto")
        common(q, run)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every call, built once per process; parsing leaves it
    unchanged, while --config defaults go to a parser of their own."""
    return build_parser()


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"qcb: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    # Warnings show as one line each; the filters stay the caller's.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = _parse_args(argv)
            text = args.run(args)
            if args.out is None:
                sys.stdout.write(text)
            else:
                write_text(args.out, text)
            return 0
        except SystemExit as exc:  # usage errors, from argparse or a handler
            return exc.code if isinstance(exc.code, int) else 2
        except (QcbError, ArithmeticError, MemoryError) as exc:  # extreme inputs
            print(f"qcb: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
