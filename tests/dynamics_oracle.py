"""Conservation-law check of the amplitude ODE (tests only).

The only loss channel of ``qmemread.dynamics`` gives
d/dt(|A|^2 + |B|^2) = -chi Gamma |B|^2.  ``norm_decay_check`` measures how
far a reported trajectory is from it.
"""

import numpy as np

from qmemread.params import ParamError


def norm_decay_check(traj, params) -> float:
    """Max residual of d/dt(|A|^2 + |B|^2) + chi Gamma |B|^2 on the grid.

    The derivative is estimated by central differences at interior points;
    the residual shrinks with both the reporting-grid spacing and the
    integration tolerance.
    """
    if traj.t.size < 10:
        raise ParamError(["traj"], "need at least 10 grid points")
    n = traj.norm
    h = traj.t[1] - traj.t[0]
    dndt = (n[2:] - n[:-2]) / (2.0 * h)
    b2 = np.abs(traj.b_field[1:-1]) ** 2
    return float(np.max(np.abs(dndt + params.chi_gamma * b2)))
