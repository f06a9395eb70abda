"""Weighted least-squares estimation of the readout model parameters.

Any subset of {gamma_deph, i_sat, chi, scale_f} is fitted simultaneously
against wavepacket, saturation and spectrum datasets, the global-fit
methodology that pins the cooperativity from the joint intensity and
detuning dependence rather than from any single curve.

The optimizer is one ``scipy.optimize.least_squares`` call (trust-region
reflective, TRF; Branch, Coleman & Li 1999) on smoothly transformed
parameters: log for the positive quantities, log of (chi - 1) for the
cooperativity, so bounds hold by construction.  ``fit`` documents its
stopping rules and diagnostics.  ``scipy.optimize`` is imported inside
``fit``, so importing this module (and every CLI command but ``fit``)
does not pay for it.

``fit`` compiles its datasets once into flat arrays: every wavepacket
point with its time and its drive (read intensity and detuning), and every
P_c point with its horizon, intensity and detuning.  A model evaluation
covers k parameter sets at once (``residuals`` is the case k = 1).  Its
P_c points go through one call of the closed-form
``wavepacket.pc_integral`` core, tiled k times with chi Gamma, gamma_deph
and scale_f given per point, whatever the datasets and horizons; the
models are exact, with no quadrature, so they carry no discretisation
error into the fit.  A wavepacket ordinate is split into factors by what
they depend on, (scale_f envelope) |B|^2: the envelope on gamma_deph
alone, |B|^2 on (i_sat, chi, Gamma) and the drive.  |B|^2 is computed
once per distinct (i_sat, chi, Gamma) of an evaluation, with Omega and
alpha_+- once per distinct drive.  Each point gets the value a
per-dataset evaluation gives, bit for bit.

scipy's 2-point Jacobian at an accepted trial point u evaluates u + h_i e_i
for each free parameter i.  ``fit`` evaluates each trial point together
with those points, the stencil, in one model evaluation, with the step
rule mirrored from scipy's default, and hands scipy a map-like ``workers``
callable that serves each Jacobian point from them.  A point it does not
hold (a bound flipped or clipped the step) is evaluated then, the misses
of one Jacobian together; the stencil of a trial scipy rejects goes
unused.  So a paper fit (four free parameters, every trial accepted)
makes 7 model evaluations of 5 parameter sets each, one per trial point.
Within a trial's evaluation, the stencil moves i_sat and chi away from the
trial point, and gamma_deph and scale_f not, so |B|^2 is computed for 3
parameter sets per trial (21 per paper fit).  Each row equals a k = 1
evaluation at its own parameters, bit for bit, so the fit is the one
scipy's serial map gives.

Inputs are checked once, where their types are built: a ``Dataset`` checks
its data on construction, and ``ReadoutParams`` and the i_sat check of
``rabi_from_intensity`` check each parameter set of an evaluation.
Neither compiling a design nor evaluating it repeats those checks.  The
bound on the Rabi frequency is checked at the start point alone.

tau and Gamma are held fixed by default; pass them through ``fit``'s
keyword arguments to change the fixed values.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .params import (DEFAULT_GAMMA_NAT_MHZ, DEFAULT_TAU_US, ParamError,
                     ReadoutParams, _check_saturation, _outside, _rabi,
                     mhz_to_angular, rabi_from_intensity)
from .wavepacket import _b_squared, _envelope, _pc_integral

FREE_KEYS = ("gamma_deph", "i_sat", "chi", "scale_f")

# order-of-magnitude-neutral starting point (gamma_deph in rad/us)
DEFAULT_INIT = {"gamma_deph": mhz_to_angular(1.0), "i_sat": 10.0,
                "chi": 2.0, "scale_f": 1.0}

_DATASET_KINDS = ("wavepacket", "saturation", "spectrum")


class RankDeficiencyError(ParamError):
    """Normal equations singular: an input fault of the data and the free
    parameters.  ``fields`` names the insensitive or degenerate parameters,
    ``pairs`` the (a, a) of each insensitive one or the degenerate pairs."""

    def __init__(self, message, pairs):
        self.pairs = tuple(pairs)
        super().__init__(dict.fromkeys(k for pair in self.pairs for k in pair),
                         message)


@dataclass(frozen=True)
class Dataset:
    """One measured curve entering the joint fit.

    kind 'wavepacket' : x = t_ns, y = p_c per 1 ns bin, at fixed (delta_mhz, i_r)
    kind 'saturation' : x = I_r in mW/cm^2, y = P_c, at fixed delta_mhz
    kind 'spectrum'   : x = Delta in MHz, y = P_c, at fixed i_r

    ``sigma`` are the 1-sigma ordinate uncertainties (> 0); ``horizon_us``
    is the integration window for the P_c kinds.  Every point enters the
    fit: to leave points out, build the dataset from the others.

    Construction checks every value the model reads, so a built dataset can
    be evaluated at any valid parameters: x, y and sigma are finite;
    wavepacket times and saturation intensities are >= 0; ``i_r`` is finite
    and >= 0 where the kind needs it; and, in ``params.DOMAIN``'s units, a
    detuning (``delta_mhz``, or a spectrum's x) is at most 1e20 rad/us in
    size, a wavepacket time at most 1e20 us and the P_c kinds' horizon in
    [1e-20, 1e20] us or inf.  A failure raises ParamError naming the field.
    """

    kind: str
    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray
    delta_mhz: float | None = None
    i_r: float | None = None
    horizon_us: float = 0.160

    def __post_init__(self):
        if self.kind not in _DATASET_KINDS:
            raise ParamError(["kind"], f"unknown dataset kind {self.kind!r}")
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if not (self.x.shape == self.y.shape == self.sigma.shape):
            raise ParamError(["x", "y", "sigma"], "arrays must have equal length")
        for name in ("x", "y", "sigma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ParamError([name], f"{name} must be finite")
        if np.any(self.sigma <= 0):
            raise ParamError(["sigma"], "uncertainties must be > 0")
        if self.kind != "spectrum":
            if np.any(self.x < 0):
                raise ParamError(["x"], f"{self.kind} x must be >= 0")
            if self.delta_mhz is None:
                raise ParamError(["delta_mhz"], f"{self.kind} needs a delta_mhz")
        spectrum = self.kind == "spectrum"
        with np.errstate(over="ignore"):    # the model's units
            delta = mhz_to_angular(self.x if spectrum else self.delta_mhz)
        for name, kind, value in (
                ("x" if spectrum else "delta_mhz", "delta", delta),
                ("x", "t", self.x * 1e-3) if self.kind == "wavepacket"
                else ("horizon_us", "horizon", self.horizon_us)):
            if why := _outside(kind, value):
                raise ParamError([name], f"{name} must give {why}")
        if self.kind != "saturation" and not (
                self.i_r is not None and math.isfinite(self.i_r)
                and self.i_r >= 0):
            raise ParamError(["i_r"], f"{self.kind} needs a finite i_r >= 0")


@dataclass
class FitResult:
    """Best-fit values, 1-sigma errors, covariance and diagnostics.

    Besides ``n_iter`` and ``cost_history``: ``nfev`` (trial points, the
    start included) and ``njev`` (Jacobians) as scipy counts them,
    ``optimality`` (the infinity norm of the gradient of the cost in the
    fit variables, scaled at active bounds), ``at_bound`` (each free
    parameter at a bound box edge, "lower" or "upper"), ``jtj_cond`` (the
    condition number of J^T J at the returned point), ``correlation``
    (``cov`` normalised to unit diagonal), and ``model_evals`` and
    ``model_rows``: the model evaluations the fit made and the parameter
    sets they covered.
    """

    values: dict
    errors: dict
    cov: np.ndarray
    param_order: tuple
    red_chi2: float
    n_iter: int
    converged: bool
    nfev: int
    njev: int
    optimality: float
    at_bound: dict
    jtj_cond: float
    correlation: np.ndarray
    model_evals: int
    model_rows: int
    message: str = ""
    cost_history: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "values": self.values, "errors": self.errors,
            "covariance": self.cov.tolist(), "param_order": list(self.param_order),
            "reduced_chi2": self.red_chi2, "n_iter": self.n_iter,
            "converged": self.converged, "message": self.message,
            "nfev": self.nfev, "njev": self.njev,
            "optimality": self.optimality, "at_bound": self.at_bound,
            "jtj_cond": self.jtj_cond,
            "correlation": self.correlation.tolist(),
            "model_evals": self.model_evals, "model_rows": self.model_rows,
        }


def model_eval(theta: dict, dataset: Dataset, gamma_nat, tau) -> np.ndarray:
    """Model ordinates for one dataset at parameter values ``theta``.

    The compiled design of ``[dataset]``, evaluated as in ``residuals``.
    """
    return _model([theta], _Design([dataset]), gamma_nat, tau)[0]


def residuals(theta: dict, datasets, gamma_nat=mhz_to_angular(DEFAULT_GAMMA_NAT_MHZ),
              tau=DEFAULT_TAU_US) -> np.ndarray:
    """Concatenated weighted residuals (model - data)/sigma over all datasets.

    ``datasets`` is a list of Dataset, compiled on the spot.  Parameters
    outside their domain (``theta`` with ``gamma_nat`` and ``tau``) raise
    the ParamError of ``ReadoutParams`` or ``rabi_from_intensity`` naming
    them.
    """
    return _residuals_batch([theta], _Design(datasets), gamma_nat, tau)[0]


def _residuals_batch(thetas, design, gamma_nat, tau):
    """``residuals`` of the compiled ``design`` at each of ``thetas``, one
    row each, from one model evaluation."""
    return (_model(thetas, design, gamma_nat, tau) - design.y) / design.sigma


class _Design:
    """Datasets as flat per-point arrays; y and sigma in dataset order.

    ``wave`` holds every wavepacket point's position in that order, time
    (us) and index into the distinct drives, then each drive's read
    intensity and detuning (rad/us); ``pc`` every P_c point's position,
    horizon (us), read intensity and detuning.  Units are converted per
    dataset and then broadcast, so every point sees the same floating-point
    operations as in a per-dataset evaluation.
    """

    def __init__(self, datasets):
        self.datasets = list(datasets)
        sizes = [ds.x.size for ds in self.datasets]
        starts = np.cumsum([0] + sizes)
        wave, pc = [], []
        for ds, lo, n in zip(self.datasets, starts, sizes):
            pos = np.arange(lo, lo + n)
            if ds.kind == "wavepacket":
                wave.append((pos, ds.x * 1e-3, np.full(n, float(ds.i_r)),
                             np.full(n, mhz_to_angular(ds.delta_mhz))))
            elif ds.kind == "saturation":
                pc.append((pos, np.full(n, ds.horizon_us), ds.x,
                           np.full(n, mhz_to_angular(ds.delta_mhz))))
            else:
                pc.append((pos, np.full(n, ds.horizon_us),
                           np.full(n, float(ds.i_r)), mhz_to_angular(ds.x)))
        if wave:
            pos, t, i_r, delta = (np.concatenate(col) for col in zip(*wave))
            # distinct drives by their bits, so each keeps its own
            drives = np.stack([i_r, delta], axis=1).view(np.int64)
            _, first, at = np.unique(drives, axis=0, return_index=True,
                                     return_inverse=True)
            self.wave = (pos, t, at.ravel(), i_r[first], delta[first])
        else:
            self.wave = ()
        self.pc = tuple(np.concatenate(col) for col in zip(*pc))
        self.y = np.concatenate([ds.y for ds in self.datasets] or [[]])
        self.sigma = np.concatenate([ds.sigma for ds in self.datasets] or [[]])


def _model(thetas, design, gamma_nat, tau):
    """Model ordinates of every point of ``design`` at each of the k
    parameter sets ``thetas``, shape (k, points) in dataset order.

    A wavepacket ordinate is (scale_f envelope) |B|^2, each factor computed
    once per distinct value of what it depends on: |B|^2 per (i_sat, chi)
    (Gamma is one per evaluation), the drive's Omega and alpha terms once
    per distinct drive within that, and the envelope per gamma_deph.  The P_c points of all k sets go through
    one ``_pc_integral`` call, chi Gamma, gamma_deph and scale_f given per
    point.  Each row has the bits of a k = 1 call at its own ``theta``.
    """
    params = [ReadoutParams(omega=0.0, delta=0.0, gamma_nat=gamma_nat,
                            chi=th["chi"], gamma_deph=th["gamma_deph"],
                            tau=tau, scale_f=th["scale_f"]) for th in thetas]
    for th in thetas:
        _check_saturation(th["i_sat"], gamma_nat)

    m = np.empty((len(thetas), design.y.size))
    if design.wave:
        pos, t, at, i_r, delta = design.wave
        b_squared, envelope = {}, {}
        for row, th, p in zip(m, thetas, params):
            key = (th["i_sat"], p.chi)
            if key not in b_squared:
                b_squared[key] = _b_squared(
                    t, _rabi(i_r, th["i_sat"], gamma_nat), delta,
                    p.chi_gamma, at)
            if p.gamma_deph not in envelope:
                envelope[p.gamma_deph] = _envelope(t, p.gamma_deph, tau)
            row[pos] = (p.scale_f * envelope[p.gamma_deph] * b_squared[key]
                        / 1e3)
    if design.pc:
        pos, horizon, i_r, delta = design.pc
        k = len(thetas)
        cg, gd, f = np.array([[p.chi_gamma, p.gamma_deph, p.scale_f]
                              for p in params]).T.repeat(i_r.size, axis=1)
        om = np.concatenate([_rabi(i_r, th["i_sat"], gamma_nat)
                             for th in thetas])
        m[:, pos] = _pc_integral(np.concatenate([horizon] * k), om,
                                 np.concatenate([delta] * k), cg, gd, tau,
                                 f).reshape(k, -1)
    return m


def _canonical(datasets):
    """Datasets and their points in an order that depends only on their values.

    Points are sorted by (x, y, sigma) within each dataset, datasets by
    (kind, delta_mhz, i_r, horizon_us, data bytes).  The datasets were
    checked when built, so their permuted copies are not checked again.
    """
    def num(v):
        return (0, 0.0) if v is None else (1, float(v))

    def key(ds):
        return (ds.kind, num(ds.delta_mhz), num(ds.i_r), num(ds.horizon_us),
                ds.x.tobytes(), ds.y.tobytes(), ds.sigma.tobytes())

    out = []
    for ds in datasets:
        order = np.lexsort((ds.sigma, ds.y, ds.x))
        permuted = copy.copy(ds)
        for name in ("x", "y", "sigma"):
            object.__setattr__(permuted, name, getattr(ds, name)[order])
        out.append(permuted)
    return sorted(out, key=key)


# ---------------------------------------------------------------------------
# smooth bound-preserving transforms: u is the unconstrained fit variable

def _to_u(key, value):
    if key == "chi":
        if value <= 1:
            raise ParamError([key], "chi must be > 1 to be fitted freely")
        return math.log(value - 1.0)
    if value <= 0:
        raise ParamError([key], f"{key} must be > 0 to be fitted freely")
    return math.log(value)


def _from_u(key, u):
    if key == "chi":
        return 1.0 + math.exp(u)
    return math.exp(u)


def _du_scale(key, value):
    """d(theta)/d(u) at theta = value, for covariance conversion."""
    return value - 1.0 if key == "chi" else value


# scipy's default relative step for a 2-point Jacobian
_REL_STEP = np.finfo(np.float64).eps ** 0.5


def _stencil(u):
    """The points u + h_i e_i of the 2-point Jacobian at ``u``, one row per
    free parameter, with scipy's default step h = sqrt(eps) sign(u)
    max(1, |u|), sign(0) = +1, in scipy's floating-point order."""
    h = _REL_STEP * np.where(u >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(u))
    points = np.tile(u, (u.size, 1))
    points[np.diag_indices(u.size)] = u + h
    return points


def fit(datasets, free=FREE_KEYS, init=None, bounds=None,
        gamma_nat=mhz_to_angular(DEFAULT_GAMMA_NAT_MHZ), tau=DEFAULT_TAU_US,
        max_iter=200, ftol=1e-8) -> FitResult:
    """Least squares over the chosen free parameters (scipy's TRF).

    ``init`` is a dict over FREE_KEYS (internal units: gamma_deph in
    rad/us); missing entries fall back to DEFAULT_INIT.  It gives the start
    of each free parameter and the held value of each other one.
    ``bounds`` maps a key to a (lo, hi) box in natural units, applied on
    top of the built-in positivity/chi > 1 transforms; lo >= hi is
    rejected (hold the parameter instead: give it in ``init`` and leave it
    out of ``free``).  A name outside FREE_KEYS in ``free``, ``init`` or
    ``bounds``, or one listed twice in ``free``, raises ParamError naming it.
    ``ftol`` is scipy's test dF < ftol * F; below machine epsilon it is off
    (scipy warns).  ``cost_history`` (chi^2 at the start and after each
    iteration) never rises.  ``message`` is scipy's termination message, or
    "max_iter reached" with ``converged`` False and the best point found.
    ``FitResult`` lists the other diagnostics.

    The start point's read intensities (saturation x, other kinds' i_r)
    are checked by ``rabi_from_intensity`` at the initial i_sat; one out
    of range raises ParamError naming ``datasets[i]``, the dataset's place
    in ``datasets``.  The points TRF steps to are not checked.

    The result depends only on the set of datasets and of points within
    each, bit for bit: both are put into a canonical order before any
    arithmetic, so every floating-point sum runs in the same order whatever
    order the caller lists them in.

    Each trial point is evaluated in one model evaluation together with the
    points of its 2-point Jacobian, which scipy then reads from them; should
    one of those raise ParamError, the trial point is evaluated alone.  So
    an iteration whose step is accepted makes one model evaluation
    (``model_evals`` is ``nfev`` when no Jacobian point was missed).  A
    trial point outside the model's domain (``ReadoutParams`` raises, or
    its value overflows) gets infinite residuals, which TRF rejects by
    shrinking its trust region; the start point raises instead.

    Raises RankDeficiencyError, a ParamError, when the Jacobian at the
    returned point (the one the covariance is built from) has a zero column
    or two parallel ones, naming the insensitive parameters or degenerate
    pairs.
    """
    if not datasets:
        raise ParamError(["datasets"], "need at least one dataset")
    free = tuple(free)
    if not free:
        raise ParamError(["free"], "need at least one free parameter")
    for key in free:
        if key not in FREE_KEYS:
            raise ParamError([key], f"unknown free parameter {key!r}")
        if free.count(key) > 1:
            raise ParamError([key], f"free parameter {key!r} listed twice")
    for what, given in (("init", init), ("bounds", bounds)):
        for key in given or {}:
            if key not in FREE_KEYS:
                raise ParamError([key], f"unknown {what} parameter {key!r}")
    theta = dict(DEFAULT_INIT)
    theta.update(init or {})

    u = np.array([_to_u(k, theta[k]) for k in free])
    u_lo = np.full(len(free), -np.inf)
    u_hi = np.full(len(free), np.inf)
    for i, k in enumerate(free):
        if bounds and k in bounds:
            lo, hi = bounds[k]
            if lo is not None and lo > (1.0 if k == "chi" else 0.0):
                u_lo[i] = _to_u(k, lo)
            if hi is not None and math.isfinite(hi):
                u_hi[i] = _to_u(k, hi)
        if u_lo[i] > u_hi[i]:
            raise ParamError([k], f"bounds for {k} have lo > hi")
        if u_lo[i] == u_hi[i]:
            raise ParamError([k], f"bounds for {k} have lo == hi; hold it "
                                  "through init instead")
        if not (u_lo[i] <= u[i] <= u_hi[i]):
            raise ParamError([k], f"init for {k} outside bounds")

    def theta_of(u_vec):
        t = dict(theta)
        for k, val in zip(free, u_vec):
            t[k] = _from_u(k, val)
        return t

    # the start point's Rabi frequencies, by the caller's dataset order; the
    # model evaluations do not check them, so TRF may step to any i_sat
    for i, ds in enumerate(datasets):
        try:
            rabi_from_intensity(ds.x if ds.kind == "saturation" else ds.i_r,
                                theta["i_sat"], gamma_nat)
        except ParamError as exc:
            if exc.fields != ("i_r",):
                raise
            raise ParamError([f"datasets[{i}]"], str(exc)) from exc

    design = _Design(_canonical(datasets))
    evaluated = []          # parameter sets per model evaluation
    stencil = {}            # the last trial's Jacobian rows, by u's bytes

    def evaluate(u_vecs):
        rows = _residuals_batch([theta_of(v) for v in u_vecs], design,
                                gamma_nat, tau)
        evaluated.append(len(rows))
        return rows

    def trial(u_vec, start=False):
        # the trial point with the Jacobian scipy takes there if it accepts
        # the step; a rejected trial's rows are dropped with the next one
        points = _stencil(u_vec)
        stencil.clear()
        try:
            rows = evaluate([u_vec, *points])
        except (ParamError, OverflowError):     # the latter from _from_u
            try:
                return evaluate([u_vec])[0]
            except (ParamError, OverflowError):
                if start:
                    raise
                return np.full(design.y.size, np.inf)   # TRF shrinks its step
        stencil.update(zip((p.tobytes() for p in points), rows[1:]))
        return rows[0]

    r = trial(u, start=True)
    m = r.size
    if m <= len(free):
        raise ParamError(["datasets"], "fewer residuals than free parameters")
    history = [float(r @ r)]

    def record(intermediate_result):
        history.append(2.0 * intermediate_result.cost)
        if intermediate_result.nit >= max_iter:
            raise StopIteration

    def fun(u_vec):
        # least_squares opens at the start point, which is evaluated above
        return r if np.array_equal(u_vec, u) else trial(u_vec)

    def jacobian_points(_fun, u_vecs):
        # the perturbed points of one 2-point Jacobian, from the trial's
        # stencil; any it does not hold are evaluated together
        u_vecs = list(u_vecs)
        rows = [stencil.get(v.tobytes()) for v in u_vecs]
        missed = [v for v, row in zip(u_vecs, rows) if row is None]
        if missed:
            fresh = iter(evaluate(missed))
            rows = [next(fresh) if row is None else row for row in rows]
        return rows

    from scipy.optimize import least_squares
    sol = least_squares(fun, u, bounds=(u_lo, u_hi), ftol=ftol,
                        callback=record, workers=jacobian_points)
    _check_rank(sol.jac, free)

    theta_fit = theta_of(sol.x)
    cov_u = np.linalg.pinv(sol.jac.T @ sol.jac)
    scale = np.array([_du_scale(k, theta_fit[k]) for k in free])
    cov_theta = cov_u * np.outer(scale, scale)
    values = {k: theta_fit[k] for k in free}
    errors = {k: float(math.sqrt(max(cov_theta[i, i], 0.0)))
              for i, k in enumerate(free)}
    message = "max_iter reached" if sol.status == -2 else sol.message
    sv = np.linalg.svd(sol.jac, compute_uv=False)
    sd = np.sqrt(np.diag(cov_theta))     # > 0: no Jacobian column is zero
    return FitResult(values=values, errors=errors, cov=cov_theta,
                     param_order=free, red_chi2=2.0 * sol.cost / (m - len(free)),
                     n_iter=len(history) - 1, converged=sol.status > 0,
                     message=message, cost_history=history,
                     nfev=int(sol.nfev), njev=int(sol.njev),
                     optimality=float(sol.optimality),
                     at_bound={k: "lower" if a < 0 else "upper"
                               for k, a in zip(free, sol.active_mask) if a},
                     jtj_cond=float((sv[0] / sv[-1]) ** 2),
                     correlation=cov_theta / np.outer(sd, sd),
                     model_evals=len(evaluated), model_rows=sum(evaluated))


def _check_rank(J, free):
    norms = np.linalg.norm(J, axis=0)
    dead = [k for k, nrm in zip(free, norms) if nrm == 0.0]
    if dead:
        raise RankDeficiencyError(
            f"model is insensitive to parameter(s): {', '.join(dead)}",
            pairs=[(k, k) for k in dead])
    if len(free) > 1:
        Jn = J / norms
        corr = Jn.T @ Jn
        pairs = [(free[i], free[j])
                 for i in range(len(free)) for j in range(i + 1, len(free))
                 if abs(corr[i, j]) > 1.0 - 1e-12]
        if pairs:
            raise RankDeficiencyError(
                "degenerate parameter pair(s): "
                + ", ".join(f"({a}, {b})" for a, b in pairs), pairs=pairs)
