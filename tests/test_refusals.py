"""Each input that the library refuses, with the class and the text of its
error, and the CLI exits of the refusals that a command reaches."""

import math

import numpy as np
import pytest

from qcb import ed, gaussian, optomech_stationary, optomech_unitary, output, qstate, spin_lde
from qcb.cli import main
from qcb.exceptions import DimensionError, DomainError, QcbError, ResourceError

STATIONARY = dict(omega_m=1.0, gamma_m=0.1, kappa=1.0, Delta0=1.0, g=0.1, drive_E=1.0,
                  n_bar=0.0)

REFUSALS = {
    "bath site without a bond": (
        lambda: ed.LatticeSpec(3, ((0, 1, 1.0),), (0, 1), 0.1),
        DomainError, "bond graph must touch every bath site"),
    "chain of one site": (
        lambda: ed.chain(1, 0.1), DomainError, "chain needs at least 2 sites"),
    "ladder of one rung": (
        lambda: ed.ladder(1, 0.1), DomainError, "ladder needs at least 2 rungs"),
    "full spectrum of 13 spins": (
        lambda: ed.full_spectrum(ed.chain(11, 0.05)),
        ResourceError, "full spectrum needs total dim <= 4096; got 8192"),
    "covariance of odd size": (
        lambda: gaussian.GaussianState(np.eye(3)),
        DimensionError, "covariance must be 2n x 2n, got (3, 3)"),
    "mean of the wrong shape": (
        lambda: gaussian.GaussianState(np.eye(4), np.zeros(3)),
        DimensionError, "mean must have shape (4,)"),
    "asymmetric covariance": (
        lambda: gaussian.GaussianState(np.array([[1.0, 0.1], [0.0, 1.0]])),
        DomainError, "covariance matrix not symmetric within 1e-12"),
    "Wigner point of the wrong length": (
        lambda: gaussian.wigner_gaussian(gaussian.GaussianState(np.eye(2)), [0.0]),
        DimensionError, "point must have length 2"),
    "zero cavity decay": (
        lambda: optomech_stationary.StationaryParams(**STATIONARY | {"kappa": 0.0}),
        DomainError, "kappa must be > 0"),
    "negative mirror occupancy": (
        lambda: optomech_stationary.StationaryParams(**STATIONARY | {"n_bar": -1.0}),
        DomainError, "n_bar must be >= 0"),
    "negative coupling": (
        lambda: optomech_unitary.OptoUnitaryParams(k=-1, alpha=1.0, n_bar=0.0, t=1.0),
        DomainError, "coupling k must be >= 0"),
    "Lyapunov A and D of different shapes": (
        lambda: optomech_stationary.lyapunov_solve(-np.eye(2), np.eye(3)),
        DomainError, "A and D must be square matrices of equal size"),
    "unknown table format": (
        lambda: output.export_table({"a": [1]}, ["a"], fmt="xml"),
        QcbError, "unknown output format 'xml'"),
    "split not a factorization": (
        lambda: qstate.DensityMatrix(np.eye(4) / 4, split=(3, 2)),
        DimensionError, "split (3, 2) incompatible with dim 4"),
    "partial trace keeping C": (
        lambda: qstate.partial_trace(qstate.werner_state(0.0), keep="C"),
        DomainError, "keep must be 'A' or 'B', got 'C'"),
    "partial transpose on C": (
        lambda: qstate.partial_transpose(qstate.werner_state(0.0), on="C"),
        DomainError, "on must be 'A' or 'B', got 'C'"),
    "thermal state at infinite beta": (
        lambda: qstate.thermal_state(np.eye(2), math.inf),
        DomainError, "beta must be finite"),
    "unknown fit sample kind": (
        lambda: spin_lde.fit_canonical_params([(1.0, 0.0)] * 4, kind="x"),
        DomainError, "unknown sample kind 'x'"),
    "critical temperature at zero gap": (
        lambda: spin_lde.critical_temperature(spin_lde.CanonicalParams(0.0, 0.0, 0.0)),
        DomainError, "critical temperature defined for J_can > 0"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_names_its_input(name):
    call, cls, message = REFUSALS[name]
    with pytest.raises(QcbError) as caught:
        call()
    assert type(caught.value) is cls
    assert str(caught.value) == message


@pytest.mark.parametrize("argv, message", [
    (["ed", "run", "--L", "11"], "full spectrum needs total dim <= 4096; got 8192"),
    (["lde", "thermal", "--jcan", "0", "--tmin", "1", "--tmax", "2"],
     "critical temperature defined for J_can > 0"),
    # probe splittings of 9.6e-13 and 1.1e-10: refused as degenerate, whichever
    # vector of the pair eigh returns first
    (["ed", "report", "--L", "10", "--alpha", "1e-6"], "degenerate ground state"),
    (["ed", "run", "--L", "8", "--alpha", "1e-5"], "degenerate ground state"),
])
def test_refusal_reached_from_the_command_line(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"qcb: error: {message}\n"
