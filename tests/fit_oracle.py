"""Per-dataset model evaluation, the oracle of the compiled fit design (tests only).

``oracle_model_eval`` evaluates one dataset through the public sweeps of
``qmemread.wavepacket``: ``pc_at`` at the dataset's own drive for a
wavepacket, ``saturation_curve`` or ``detuning_spectrum`` for the P_c
kinds.  ``oracle_residuals`` loops over the datasets with it and
concatenates (model - y)/sigma.  The package evaluates a design's
wavepacket points as factors reused across points and parameter sets, and
all its P_c points in one ``pc_integral`` call; it must agree with this
loop to the last bit.

``design_residuals_batch`` has the signature of the private batch
evaluator through which ``fit`` makes every model evaluation, so a test
can drive a whole fit through the oracle.

``profile`` scans the fit objective over one parameter, re-fitting the
others at each grid point; it checks that the combined design pins chi.
"""

import numpy as np

from qmemread.fitting import FREE_KEYS, fit
from qmemread.params import (ParamError, ReadoutParams, mhz_to_angular,
                             rabi_from_intensity)
from qmemread.wavepacket import detuning_spectrum, pc_at, saturation_curve


def oracle_model_eval(theta, dataset, gamma_nat, tau):
    """Model ordinates of one dataset at ``theta``, one sweep call."""
    kind = dataset.kind
    omega = (rabi_from_intensity(dataset.i_r, theta["i_sat"], gamma_nat)
             if kind != "saturation" else 0.0)
    delta = 0.0 if kind == "spectrum" else mhz_to_angular(dataset.delta_mhz)
    base = ReadoutParams(omega=omega, delta=delta, gamma_nat=gamma_nat,
                         chi=theta["chi"], gamma_deph=theta["gamma_deph"],
                         tau=tau, scale_f=theta["scale_f"])
    if kind == "wavepacket":
        return pc_at(dataset.x * 1e-3, base) / 1e3
    if kind == "saturation":
        return saturation_curve(base, theta["i_sat"], dataset.x,
                                dataset.horizon_us).ordinate
    return detuning_spectrum(base, dataset.x, dataset.horizon_us).ordinate


def oracle_residuals(theta, datasets, gamma_nat, tau):
    """Concatenated (model - y)/sigma, one dataset at a time."""
    return np.concatenate([
        (oracle_model_eval(theta, ds, gamma_nat, tau) - ds.y) / ds.sigma
        for ds in datasets])


def design_residuals_batch(thetas, design, gamma_nat, tau):
    """``oracle_residuals`` over the datasets of a compiled design at each
    of ``thetas``, one row each."""
    return np.array([oracle_residuals(theta, design.datasets, gamma_nat, tau)
                     for theta in thetas])


def profile(param, grid, datasets, free=FREE_KEYS, **fit_kwargs):
    """Profile objective: minimum chi^2 at each fixed value of ``param``.

    The remaining free parameters are re-fitted at every grid point
    (warm-started from the previous solution).  Returns (grid, chi2) arrays.
    """
    if param not in FREE_KEYS:
        raise ParamError([param], f"unknown parameter {param!r}")
    others = tuple(k for k in free if k != param)
    grid = np.asarray(grid, dtype=float)
    chi2 = np.empty_like(grid)
    warm = dict(fit_kwargs.pop("init", None) or {})
    for i, val in enumerate(grid):
        res = fit(datasets, free=others, init=dict(warm, **{param: float(val)}),
                  **fit_kwargs)
        chi2[i] = res.cost_history[-1]
        warm.update(res.values)
    return grid, chi2
