"""Command-line front end: figure-data reproduction sweeps as CSV/JSON.

Exit codes: 0 success, 2 usage error, 3 numeric-domain error.  All output is
deterministic for a fixed argv (randomized self-checks use fixed seeds); the
resolved configuration is recorded in the output header.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys

import numpy as np

from . import ed as ed_mod
from . import gaussian, optomech_stationary, optomech_unitary, qstate, spin_lde
from .exceptions import QcbError
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


_count = _checked(int, lambda n: n >= 0, "an integer >= 0")
_finite = _checked(float, math.isfinite, "a finite number")
_positive = _checked(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")
# Kept as text, which the output header records.
_temperatures = _checked(str, lambda t: t == "auto" or all(
    _positive(x) for x in t.split(",")), "'auto' or temperatures > 0")
_probes = _checked(str, lambda t: t == "ends" or (t.count(",") == 1 and all(
    x.isdecimal() for x in t.split(","))), "'ends' or two sites 'i,j'")
_levels = _checked(str, lambda t: all(x.isdecimal() for x in t.split(",")),
                   "levels 'i,j,...'")


def _parsers(parser: argparse.ArgumentParser):
    """``parser`` and all its (nested) subcommand parsers."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def _parse_args(parser: argparse.ArgumentParser, argv):
    """Parse ``argv``.  The key=value pairs of a --config file become the
    defaults of the chosen subcommand, so explicit flags win and the file can
    supply required flags; a required flag given by neither is a usage error.
    """
    required = [a for sub in _parsers(parser) for a in sub._actions
                if a.required and a.option_strings]
    # A first, silent pass without the required checks finds the subcommand
    # and the config file; an exit in it (a usage error, --help) is replayed
    # by the second pass with the checks and the usage text as declared.
    for action in required:
        action.required = False
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args = parser.parse_args(argv)
    except SystemExit:
        args = None
    for action in required:
        action.required = True
    if args is None:
        return parser.parse_args(argv)
    sub = parser
    while subparsers := [a for a in sub._actions
                         if isinstance(a, argparse._SubParsersAction)]:
        sub = subparsers[0].choices[getattr(args, subparsers[0].dest)]
    if args.config is None:
        if all(getattr(args, a.dest) is not None for a in required if a in sub._actions):
            return args
    else:
        for action in _config_defaults(sub, read_text(args.config)):
            action.required = False
    return parser.parse_args(argv)


def _config_defaults(sub: argparse.ArgumentParser, text: str) -> list:
    """Set the defaults of the subcommand parser ``sub`` from the key=value
    lines of a config file, converted and checked like the flags they set.
    Returns the actions given a default."""
    actions = {a.dest: a for a in sub._actions if a.option_strings}
    supplied = []
    for raw in text.splitlines():
        key, sep, value = (t.strip() for t in raw.partition("="))
        action = actions.get(key.replace("-", "_"))
        if not sep or key.startswith("#") or action is None:
            continue  # no key=value pair, a comment, or a key of another command
        try:
            value = value if action.type is None else action.type(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise QcbError(f"config {key} = {value!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise QcbError(f"config {key} = {value!r}: not one of {action.choices}")
        sub.set_defaults(**{action.dest: value})
        supplied.append(action)
    return supplied


def _output(args, text: str) -> int:
    """Write ``text`` to --out, or to stdout without one."""
    if args.out is None:
        sys.stdout.write(text)
    else:
        write_text(args.out, text)
    return 0


def _config_dict(args, keys):
    return {k: getattr(args, k) for k in keys}


# --------------------------------------------------------------------- werner


def _cmd_werner(args, parser) -> int:
    if args.grid is not None:
        fs = np.linspace(-1.0, 1.0 / 3.0, args.grid)
        rows = []
        for f in fs:
            n, en = qstate.negativity(qstate.werner_state(float(f)))
            rows.append({"f": float(f), "N": n, "EN": en})
        text = export_table(rows, ["f", "N", "EN"],
                            _config_dict(args, ["grid"]) | {"command": "werner"},
                            fmt=args.format)
        return _output(args, text)
    if args.f is None:
        parser.error("provide --f or --grid")
    n, en = qstate.negativity(qstate.werner_state(args.f))
    print(f"N={fmt_value(n)} EN={fmt_value(en)}")
    return 0


# ------------------------------------------------------------------- gaussian


def _cmd_gaussian(args, parser) -> int:
    if args.grid is not None:
        grid = [(float(r), float(nb)) for r in np.linspace(0.0, args.r_max, args.grid)
                for nb in np.linspace(0.0, args.nbar_max, args.grid)]
        covs = np.array([gaussian.two_mode_squeezed_thermal_cov(r, 0.0, nb).cov
                         for r, nb in grid]).reshape(-1, 4, 4)
        rows = [{"r": r, "n_bar": nb, "EN": en,
                 "EN_closed": max(0.0, 2.0 * r - math.log(2.0 * nb + 1.0))}
                for (r, nb), en in zip(grid, gaussian.logneg_gaussian(covs).tolist())]
        text = export_table(rows, ["r", "n_bar", "EN", "EN_closed"],
                            _config_dict(args, ["grid", "r_max", "nbar_max"])
                            | {"command": "gaussian"}, fmt=args.format)
        return _output(args, text)
    v = gaussian.two_mode_squeezed_thermal_cov(args.r, args.theta, args.n_bar).cov
    dminus = gaussian.ppt_tilde_dminus(v)
    print(f"d_minus={fmt_value(dminus)} EN={fmt_value(gaussian.logneg_gaussian(v))} "
          f"separable={fmt_value(gaussian.simon_invariant_check(v))}")
    return 0


# ----------------------------------------------------------- optomech-unitary


def _cmd_optomech_unitary(args, parser) -> int:
    p = optomech_unitary.OptoUnitaryParams(k=args.k, alpha=args.alpha,
                                           n_bar=args.n_bar, t=args.t)
    sel = optomech_unitary.SubspaceSelector(
        *(tuple(int(n) for n in t.split(",")) for t in (args.cavity, args.mirror)))
    q = args.quantity
    if q == "marker":
        if args.sweep_t is not None:
            rows = []
            for t in np.linspace(0.0, 2.0 * math.pi, args.sweep_t):
                pt = optomech_unitary.OptoUnitaryParams(k=args.k, alpha=args.alpha,
                                                        n_bar=args.n_bar, t=float(t))
                rows.append({"t": float(t),
                             "marker": optomech_unitary.marker_upsilon(pt, sel)})
            text = export_table(rows, ["t", "marker"],
                                {"command": "optomech-unitary", "k": args.k,
                                 "alpha": args.alpha, "n_bar": args.n_bar,
                                 "cavity": args.cavity, "mirror": args.mirror},
                                fmt=args.format)
            return _output(args, text)
        print(f"marker={fmt_value(optomech_unitary.marker_upsilon(p, sel))}")
        return 0
    if q == "tangle":
        dm = optomech_unitary.projected_density(p, sel)
        print(f"tangle={fmt_value(qstate.tangle(dm))}")
        return 0
    if q == "negativity":
        dm = optomech_unitary.projected_density(p, sel)
        n, en = qstate.negativity(dm)
        print(f"N={fmt_value(n)} EN={fmt_value(en)}")
        return 0
    if q == "entropies":
        s_tot, s_cav, s_mir = optomech_unitary.linear_entropies_closed(p)
        print(f"S_total={fmt_value(s_tot)} S_cav={fmt_value(s_cav)} "
              f"S_mir={fmt_value(s_mir)}")
        return 0
    if q == "mi":
        print(f"MI={fmt_value(optomech_unitary.normalized_mi_time(p))}")
        return 0
    mi = optomech_unitary.averaged_mi(p, args.mi_steps)  # mi-average
    print(f"MI_av={fmt_value(mi)}")
    return 0


# ------------------------------------------------------------ optomech-steady


def _cmd_optomech_steady(args, parser) -> int:
    kappa = args.kappa if args.kappa > 0 else None
    p = optomech_stationary.derive_physical_params(
        length=args.length, mass=args.mass, power=args.power, quality=args.quality,
        temperature=args.temperature, wavelength=args.wavelength,
        finesse=args.finesse, kappa=kappa, omega_m=2.0 * math.pi * args.fm)
    xs = np.linspace(args.dmin, args.dmax, args.steps)
    rows = optomech_stationary.detuning_sweep(p, xs)
    cfg = _config_dict(args, ["length", "mass", "power", "quality", "temperature",
                              "wavelength", "finesse", "fm", "dmin", "dmax", "steps"])
    cfg |= {"command": "optomech-steady", "kappa": p.kappa, "n_bar": p.n_bar,
            "g": p.g, "drive_E": p.drive_E}
    text = export_table(rows, list(optomech_stationary.SWEEP_COLUMNS), cfg,
                        fmt=args.format)
    return _output(args, text)


# ------------------------------------------------------------------------ lde


def _cmd_lde(args, parser) -> int:
    if args.lde_command == "chi":
        if args.model == "ring":
            if args.L is None or args.r is None:
                parser.error("ring model needs --L and --r")
            val = spin_lde.chi_ring(spin_lde.RingGeometry(args.L, args.r))
        else:
            if args.r is None:
                parser.error("aklt model needs --r")
            val = spin_lde.chi_aklt(args.r, args.method)
        print(fmt_value(val))
        return 0

    if args.lde_command == "thermal":
        cp = spin_lde.CanonicalParams(args.jcan, args.phi, args.eta)
        temps = np.geomspace(args.tmin, args.tmax, args.steps)
        rows = []
        for t in temps:
            beta = 1.0 / float(t)
            c = spin_lde.correlator_of_beta(cp, beta)
            rows.append({"kT": float(t), "beta": beta,
                         "J_ab": spin_lde.jab_of_beta(cp, beta),
                         "correlator": c,
                         "concurrence": qstate.concurrence_from_correlator(c)})
        ct = spin_lde.critical_temperature(cp)
        cfg = _config_dict(args, ["jcan", "phi", "eta", "tmin", "tmax", "steps"])
        cfg |= {"command": "lde-thermal",
                "kT_star_exact": float("nan") if ct.kT_exact is None else ct.kT_exact,
                "kT_star_estimate": ct.kT_estimate}
        text = export_table(rows, ["kT", "beta", "J_ab", "correlator", "concurrence"],
                            cfg, fmt=args.format)
        return _output(args, text)

    config, columns, rows = read_table(args.infile)  # lde fit
    if "beta" in columns:
        betas = [row["beta"] for row in rows]
    elif "kT" in columns:
        betas = [1.0 / row["kT"] for row in rows]
    else:
        raise QcbError("fit input needs a 'beta' or 'kT' column")
    col = "correlator" if args.kind == "correlator" else "J_ab"
    if col not in columns:
        raise QcbError(f"fit input lacks a {col!r} column")
    fit = spin_lde.fit_canonical_params(
        [(b, row[col]) for b, row in zip(betas, rows)], kind=args.kind)
    payload = {"J_can": fit.params.J_can, "Phi": fit.params.Phi,
               "eta": fit.params.eta, "rms_residual": fit.rms_residual,
               "n_points": len(rows)}
    text = json.dumps({k: fmt_value(v) for k, v in payload.items()},
                      indent=2, sort_keys=True) + "\n"
    return _output(args, text)


# ------------------------------------------------------------------------- ed


def _make_lattice(args) -> ed_mod.LatticeSpec:
    probes = args.probes if args.probes == "ends" else tuple(
        int(t) for t in args.probes.split(","))
    if args.lattice == "chain":
        return ed_mod.chain(args.L, args.alpha, probes)
    return ed_mod.ladder(args.L, args.alpha, probes)


def _cmd_ed(args, parser) -> int:
    spec = _make_lattice(args)
    if args.ed_command == "run":
        spectrum = ed_mod.full_spectrum(spec)
        j_can, gap = ed_mod.low_spectrum_jcan(spec, spectrum=spectrum)
        if args.temps == "auto":
            temps = ed_mod.default_temperature_grid(j_can)
        else:
            temps = np.array([float(t) for t in args.temps.split(",")])
        betas = 1.0 / temps
        corrs = ed_mod.thermal_correlator_exact(spec, betas, spectrum=spectrum)
        rows = [{"kT": float(t), "beta": float(b), "correlator": float(c),
                 "concurrence": qstate.concurrence_from_correlator(float(c))}
                for t, b, c in zip(temps, betas, corrs)]
        cfg = _config_dict(args, ["lattice", "L", "alpha", "probes", "temps"])
        cfg |= {"command": "ed-run", "J_can_exact": j_can, "robust_gap": gap}
        text = export_table(rows, ["kT", "beta", "correlator", "concurrence"],
                            cfg, fmt=args.format)
        return _output(args, text)
    rep = ed_mod.theory_consistency_report(spec)  # ed report
    text = json.dumps({k: fmt_value(v) if v is not None else None
                       for k, v in rep.items()}, indent=2, sort_keys=True) + "\n"
    return _output(args, text)


# -------------------------------------------------------------------- parsing


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qcb", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--config", default=None,
                       help="key=value file supplying defaults (flags override)")

    p = sub.add_parser("werner", help="Werner-family negativity")
    p.add_argument("--f", type=_finite, default=None)
    p.add_argument("--grid", type=_count, default=None)
    common(p)

    p = sub.add_parser("gaussian", help="two-mode squeezed thermal log-negativity")
    p.add_argument("--r", type=_finite, default=1.0)
    p.add_argument("--theta", type=_finite, default=0.0)
    p.add_argument("--n-bar", type=_finite, default=0.0)
    p.add_argument("--grid", type=_count, default=None)
    p.add_argument("--r-max", type=_finite, default=2.0)
    p.add_argument("--nbar-max", type=_finite, default=3.0)
    common(p)

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
    p.add_argument("--sweep-t", type=_count, default=None)
    p.add_argument("--mi-steps", type=_count, default=256)
    common(p)

    p = sub.add_parser("optomech-steady", help="driven-cavity detuning sweep")
    p.add_argument("--length", type=_positive, default=1e-3, help="cavity length [m]")
    p.add_argument("--mass", type=_positive, default=5e-12, help="mirror mass [kg]")
    p.add_argument("--power", type=_positive, default=50e-3, help="input power [W]")
    p.add_argument("--quality", type=_positive, default=1e5, help="mechanical Q")
    p.add_argument("--temperature", type=_finite, default=0.4, help="bath T [K]")
    p.add_argument("--wavelength", type=_positive, default=810e-9)
    p.add_argument("--finesse", type=_positive, default=1.07e4)
    p.add_argument("--fm", type=_positive, default=1e7, help="mirror frequency [Hz]")
    p.add_argument("--kappa", type=_finite, default=0.0,
                   help="override cavity decay [rad/s] (0 = from finesse)")
    p.add_argument("--dmin", type=_finite, default=0.2)
    p.add_argument("--dmax", type=_finite, default=3.0)
    p.add_argument("--steps", type=_count, default=57)
    common(p)

    p = sub.add_parser("lde", help="spin-bus long-distance entanglement")
    lde_sub = p.add_subparsers(dest="lde_command", required=True)
    q = lde_sub.add_parser("chi", help="bus susceptibility")
    q.add_argument("--model", required=True, choices=["ring", "aklt"])
    q.add_argument("--L", type=int, default=None)
    q.add_argument("--r", type=int, default=None)
    q.add_argument("--method", default="closed", choices=["closed", "numeric"])
    common(q)
    q = lde_sub.add_parser("thermal", help="canonical-model temperature sweep")
    q.add_argument("--jcan", type=_finite, required=True)
    q.add_argument("--phi", type=_finite, default=0.0)
    q.add_argument("--eta", type=_finite, default=0.0)
    q.add_argument("--tmin", type=_positive, required=True)
    q.add_argument("--tmax", type=_positive, required=True)
    q.add_argument("--steps", type=_count, default=12)
    common(q)
    q = lde_sub.add_parser("fit", help="fit canonical parameters to data")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--kind", default="correlator", choices=["correlator", "jab"])
    common(q)

    p = sub.add_parser("ed", help="exact-diagonalization oracle")
    ed_sub = p.add_subparsers(dest="ed_command", required=True)
    for name, helptext in [("run", "thermal correlator sweep"),
                           ("report", "theory consistency report (JSON)")]:
        q = ed_sub.add_parser(name, help=helptext)
        q.add_argument("--lattice", default="chain", choices=["chain", "ladder"])
        q.add_argument("--L", type=int, default=8)
        q.add_argument("--alpha", type=_finite, default=0.05)
        q.add_argument("--probes", type=_probes, default="ends",
                       help='"ends" or explicit bath sites "i,j"')
        if name == "run":
            q.add_argument("--temps", type=_temperatures, default="auto")
        common(q)
    return top


_HANDLERS = {
    "werner": _cmd_werner,
    "gaussian": _cmd_gaussian,
    "optomech-unitary": _cmd_optomech_unitary,
    "optomech-steady": _cmd_optomech_steady,
    "lde": _cmd_lde,
    "ed": _cmd_ed,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return _HANDLERS[args.command](args, parser)
    except SystemExit as exc:  # usage errors, from argparse or a handler
        return exc.code if isinstance(exc.code, int) else 2
    except (QcbError, ArithmeticError) as exc:  # overflow on extreme inputs
        print(f"qcb: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
