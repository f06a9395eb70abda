"""Brute-force integration of the driven-decay amplitude equations.

Independent numerical route to the closed form in ``wavepacket``: integrate

    dA/dt = i (Omega/2) exp(-i Delta t) B
    dB/dt = i (Omega/2) exp(+i Delta t) A - (chi Gamma / 2) B

with A(0) = 1, B(0) = 0 for a single representative atom (the collective
weights and static phases are a common multiplicative factor).  Both
amplitudes stay bounded for any horizon.  B(t) = beta(t) b(t) is the
physical coherence amplitude, with beta(t) = exp(-chi Gamma t/2) the
analytic decay and b(t) the co-rotating excited amplitude.

The only loss channel gives the conservation law
d/dt(|A|^2 + |B|^2) = -chi Gamma |B|^2, which the tests check on the
reported grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParamError, ReadoutParams


class IntegrationError(RuntimeError):
    """The ODE integrator failed (e.g. step-size underflow)."""


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Amplitudes on a uniform reporting grid (t in us).

    a_vals is the stored-state amplitude A(t), b_field the physical
    coherence amplitude B(t) = beta(t) b(t), beta_vals the analytic decay
    beta(t) = exp(-chi Gamma t/2).
    """

    t: np.ndarray
    a_vals: np.ndarray
    b_field: np.ndarray
    beta_vals: np.ndarray

    @property
    def b_vals(self) -> np.ndarray:
        """Co-rotating excited amplitude b(t) = B(t)/beta(t); inf or nan
        where beta underflows to 0 (chi Gamma t above about 1490)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.b_field / self.beta_vals

    @property
    def norm(self) -> np.ndarray:
        """|A|^2 + |B|^2, nonincreasing for these loss-only dynamics."""
        return np.abs(self.a_vals) ** 2 + np.abs(self.b_field) ** 2


def evolve(params: ReadoutParams, t_end, rel_tol=1e-10, abs_tol=1e-12,
           n_report=2001) -> AmplitudeTrajectory:
    """Adaptive high-order Runge-Kutta integration up to t_end (us).

    Reports A, B, beta on a uniform grid of ``n_report`` points.  Tolerances
    are capped at 1e-3; tighter tolerances sharpen the closed-form
    cross-check.  Raises IntegrationError with diagnostics on failure.
    """
    if not t_end > 0:
        raise ParamError(["t_end"], "t_end must be > 0")
    if not (0 < rel_tol <= 1e-3) or not (0 < abs_tol <= 1e-3):
        raise ParamError(["rel_tol", "abs_tol"], "tolerances must be in (0, 1e-3]")
    om, de, cg = params.omega, params.delta, params.chi_gamma
    half_om = 0.5 * om

    def rhs(t, y):
        a, b = y
        return [1j * half_om * np.exp(-1j * de * t) * b,
                1j * half_om * np.exp(1j * de * t) * a - 0.5 * cg * b]

    t_eval = np.linspace(0.0, t_end, int(n_report))
    # imported here, so importing the package does not pay for scipy.integrate
    from scipy.integrate import solve_ivp
    sol = solve_ivp(rhs, (0.0, t_end), np.array([1.0 + 0j, 0.0 + 0j]),
                    method="DOP853", t_eval=t_eval, rtol=rel_tol, atol=abs_tol)
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message} "
                               f"(reached t = {sol.t[-1] if sol.t.size else 0.0:g} us)")

    a_vals, b_field = sol.y
    return AmplitudeTrajectory(t=t_eval, a_vals=a_vals, b_field=b_field,
                               beta_vals=np.exp(-0.5 * cg * t_eval))


def reconstruct_B(traj: AmplitudeTrajectory) -> np.ndarray:
    """The coherence amplitude B(t) = beta(t) b(t) driving emission."""
    return traj.b_field
