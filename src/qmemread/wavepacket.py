"""Closed-form wavepacket of the photon extracted from the memory.

The driven |s> -> |e> dynamics with collectively enhanced decay of |e> admit
a closed-form excited-state amplitude.  With the two nonnegative exponents
alpha_+ (damping correction) and alpha_- (oscillation), and z = a+ + i a-,

    B(t) = i Omega exp(-chi Gamma t/4) exp(-i Delta t/2) sinh(z t/2) / z ,

the conditional detection density of the extracted photon is

    p_c(t) = F exp(-gamma^2 (t + tau)^2) |B(t)|^2 ,

a combination of damped Rabi oscillation and the Gaussian decay of the
stored coherence.  Only ``amplitude_B`` forms the complex B.  Everything
else needs |B|^2 alone, taken in real arithmetic from |sinh(z t/2)|^2 =
sinh^2(a+ t/2) + sin^2(a- t/2); with beta = chi Gamma/2,

    |B|^2 = Omega^2/|z|^2 [e^{(a+ - beta) t} expm1(-a+ t)^2 / 4
                           + e^{-beta t} sin^2(a- t/2)] ,

two nonnegative terms with exponents <= 0, so there is no cancellation
near the critically damped point z = 0, where the limit is
Omega^2 t^2 e^{-beta t}/4.

Total extraction probability P_c = integral of p_c dt over a horizon T,
finite or not, in closed form (``pc_integral``): |B|^2 is a sum of three
exponentials e^{s t}, each integrating under the envelope to

    integral_t^inf e^{s t' - gamma^2 (t' + tau)^2} dt'
        = sqrt(pi)/(2 gamma) exp(s t - gamma^2 (t + tau)^2)
          w(i (gamma (t + tau) - s / (2 gamma))),

w the Faddeeva function (``scipy.special.wofz``, imported on the first call
that needs it; Abramowitz & Stegun 7.1.3).
At gamma = 0 the tail is -e^{s t}/s, and with no horizon P_c = F/(chi Gamma)
exactly.  Near the critically damped point the three terms cancel, and a
Cauchy-integral form of their divided difference replaces them.  Measured
relative error below 1e-13; there is no quadrature over t.

Conventions: t in us, rates in rad/us.  ``pc_at`` returns the density per
us (the literal formula value, so p_c = F |B|^2 exactly when gamma = 0);
sampled curves report the probability of a 1 ns bin, i.e. density/1000.

alpha_+ and alpha_- satisfy two exact identities used throughout as checks:

    alpha_+ * alpha_-      = |Delta| chi Gamma / 2
    alpha_-^2 - alpha_+^2  = Omega^2 + Delta^2 - (chi Gamma)^2 / 4

and alpha_+ < chi Gamma / 2 strictly whenever Omega > 0, which guarantees
overall exponential decay of |B|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (ParamError, ReadoutParams, _check_domain, mhz_to_angular,
                     rabi_from_intensity)

_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)
_FLAT_GAMMA = 1e-150
_TINY = np.finfo(float).tiny
_MAX_POINTS = 10 ** 6   # points of one pc_curve grid (8 MB an array)
_BLOCK = 1 << 15        # pc_curve points evaluated per pc_at call

# pc_integral: below |z| = _CRIT_FRAC * lam the divided difference is a
# Cauchy integral on |u| = (_CONTOUR_FRAC * lam)^2.  The nodes, stored as
# sqrt(u) / (_CONTOUR_FRAC * lam), are the upper half of a 32-point rule;
# E(conj u) = conj E(u), so the real part of their mean is the full rule.
# The mean runs along each point's own contiguous row of nodes, so a
# point's value does not depend on how many others share the call.
_CRIT_FRAC = 0.3
_CONTOUR_FRAC = 0.6
_HALF_CIRCLE = np.exp(0.5j * np.pi * (np.arange(16) + 0.5) / 16)


def _flat(*values):
    """``values`` as float arrays broadcast together and flattened to 1-d,
    and ``unwrap``, which gives a result over them the broadcast shape, or
    a Python scalar when that shape is ().

    numpy computes on 0-d values with other code than its array loops, and
    a complex product can differ in the last bit between the two; working
    on 1-d arrays only gives a scalar call the bits of the matching element
    of an array call.
    """
    arrays = [np.asarray(v, dtype=float) for v in values]
    shape = np.broadcast(*arrays).shape

    def unwrap(out):
        return out.item() if shape == () else out.reshape(shape)

    return [(a if a.shape == shape else np.full(shape, a)).ravel()
            for a in arrays], unwrap


@dataclass(frozen=True)
class AlphaPair:
    """Damping correction alpha_+ and oscillation rate alpha_-, rad/us."""

    alpha_plus: float
    alpha_minus: float


def alpha_pair(omega, delta, chi_gamma) -> AlphaPair:
    """Decay/oscillation exponents of the driven-damped amplitude.

    Evaluated in a cancellation-free split: the larger of the two squared
    roots is computed directly, the smaller through the exact product
    identity (alpha_+ alpha_-)^2 = (|Delta| chi Gamma / 2)^2, so both
    invariants hold to near machine precision for any inputs.

    Accepts scalars or broadcastable arrays; chi_gamma must be > 0.
    """
    (om, de, cg), unwrap = _flat(omega, delta, chi_gamma)
    if np.any(cg <= 0):
        raise ParamError(["chi_gamma"], "chi_gamma must be > 0")
    ap, am = _alpha(om, de, cg)
    return AlphaPair(unwrap(ap), unwrap(am))


def _alpha(om, de, cg):
    """``alpha_pair``'s (alpha_+, alpha_-) over 1-d ``om`` and ``de``, with
    no checks: ``cg`` > 0 is a scalar or an array of their shape."""
    half_prod = 0.5 * np.abs(de) * cg            # alpha_+ * alpha_-
    t_mid = 0.5 * (om * om + de * de) - cg * cg / 8.0
    s_rad = np.hypot(t_mid, half_prod)           # sqrt(t_mid^2 + prod^2)

    big = s_rad + np.abs(t_mid)                  # the well-conditioned root^2
    small = np.divide(half_prod * half_prod, big,
                      out=np.zeros_like(big), where=big > 0)
    return (np.sqrt(np.where(t_mid >= 0, small, big)),
            np.sqrt(np.where(t_mid >= 0, big, small)))


def amplitude_B(t, params: ReadoutParams):
    """Complex excited-state amplitude B(t) for t in [0, 1e20] us (the
    ``DOMAIN`` of ``params``), a scalar or an array of times.

    Built from the real terms of ``_b_squared`` (beta = chi Gamma/2):
    B = i Omega/(2z) e^{-i Delta t/2} e^{-(beta - a+) t/2} [-expm1(-a+ t)
    cos(a- t/2) + i (1 + e^{-a+ t}) sin(a- t/2)], every exponent <= 0 and
    beta - a+ from ``_gap``, so nothing cancels as z -> 0; only z = 0
    exactly takes the limit i Omega (t/2) e^{-beta t/2 - i Delta t/2}.

    The constant global phase from the storage interval is dropped; it
    cancels in |B|^2.  Returns a complex scalar or an ndarray of the shape
    of ``t``.
    """
    (t_arr, om, de, cg), unwrap = _flat(t, params.omega, params.delta,
                                        params.chi_gamma)
    _check_domain("amplitude_B requires", t=t_arr)
    return unwrap(_amplitude(t_arr, om, de, cg))


def _amplitude(t, om, de, cg):
    """``amplitude_B`` over 1-d arrays of one length (t, omega, delta, chi
    Gamma > 0: one value per time), with no checks."""
    ap, am = _alpha(om, de, cg)
    beta = 0.5 * cg
    mod = np.hypot(ap, am)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = om / mod                    # not finite at z = 0 alone
        # i Omega/(2z) as (Omega/|z|) conj(z)/|z|: |z|^2 would underflow
        drive = 0.5j * ratio * (ap - 1j * am) / mod
    half = 0.5 * am * t
    with np.errstate(invalid="ignore"):     # inf * 0 at z = 0, replaced below
        out = (drive * np.exp(-0.5 * _gap(om, de, beta, ap) * t)
               * (-np.expm1(-ap * t) * np.cos(half)
                  + 1j * (1.0 + np.exp(-ap * t)) * np.sin(half)))
    crit = np.flatnonzero(~np.isfinite(ratio))
    if crit.size:
        tc = t[crit]
        out[crit] = 0.5j * om[crit] * tc * np.exp(-0.5 * beta[crit] * tc)
    return out * np.exp(-0.5j * de * t)


def _gap(om, de, beta, ap):
    """beta - alpha_+ >= 0 (beta = chi Gamma/2), as (beta^2 - alpha_+^2) /
    (beta + alpha_+) with the numerator the smaller root of y^2 - (beta^2 +
    Omega^2 + Delta^2) y + beta^2 Omega^2 = 0, taken without cancellation
    (alpha_+ -> beta under weak drive)."""
    return 2.0 * (beta * om) ** 2 / (
        (beta * beta + om * om + de * de
         + np.hypot(beta - om, de) * np.hypot(beta + om, de)) * (beta + ap))


def _b_squared(t, om, de, cg, at=None):
    """|B(t)|^2 over 1-d arrays, with no checks.

    ``om``, ``de`` and ``cg`` > 0 are given per drive and ``at`` is each
    time's index into them; with ``at`` None there is one drive per time.
    The drive's terms are computed once per drive and then gathered, so
    each time gets the bits of a call with one drive per time.

    In real arithmetic, with beta = chi Gamma/2 and |sinh(z t/2)|^2 =
    sinh^2(a+ t/2) + sin^2(a- t/2),

        |B|^2 = e^{(a+ - beta) t} (Omega expm1(-a+ t) / (2|z|))^2
                + e^{-beta t} (Omega sin(a- t/2) / |z|)^2 .

    Both exponents are <= 0, a+ - beta taken as -``_gap`` without
    cancellation, and the two terms are >= 0, so nothing overflows or
    cancels as z -> 0 or under weak drive.
    Omega/|z| is taken before squaring, with |z| from ``hypot``, so |z|^2
    never underflows; each factor it scales is at most Omega t.  Only z = 0
    exactly takes the limit Omega^2 t^2 e^{-beta t}/4.
    """
    ap, am = _alpha(om, de, cg)
    beta = 0.5 * cg
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = om / np.hypot(ap, am)       # not finite at z = 0 alone
    grow = -_gap(om, de, beta, ap)
    if at is not None:
        ap, am, beta, ratio, grow = (ap[at], am[at], beta[at], ratio[at],
                                     grow[at])
    decay = np.exp(-beta * t)
    with np.errstate(invalid="ignore"):     # inf * 0 at z = 0, replaced below
        out = (np.exp(grow * t) * np.square(0.5 * ratio * np.expm1(-ap * t))
               + decay * np.square(ratio * np.sin(0.5 * am * t)))
    crit = np.flatnonzero(~np.isfinite(ratio))
    if crit.size:
        om = om[crit] if at is None else om[at[crit]]
        out[crit] = decay[crit] * np.square(0.5 * om * t[crit])
    return out


def _envelope(t, gd, tau):
    """The stored coherence's Gaussian decay exp(-gamma^2 (t + tau)^2)."""
    return np.exp(-np.square(gd * (t + tau)))


def pc_at(t, params: ReadoutParams):
    """Conditional detection density p_c(t) per us at t (us) in [0, 1e20].

    p_c(t) = F exp(-gamma^2 (t+tau)^2) |B(t)|^2.  Probability per 1 ns bin
    is this value / 1000 (see ``pc_curve``).  ``t`` may be an array; each
    point's value is the one a scalar call at that time gives, bit for bit.
    """
    (t_arr, om, de, cg, gd, f), unwrap = _flat(
        t, params.omega, params.delta, params.chi_gamma, params.gamma_deph,
        params.scale_f)
    _check_domain("pc_at requires", t=t_arr)
    return unwrap(_pc_at(t_arr, om, de, cg, gd, params.tau, f))


def _pc_at(t, om, de, cg, gd, tau, f):
    """``pc_at`` over 1-d arrays of one length (t >= 0, omega, delta, chi
    Gamma, gamma_deph, scale_f: one value per point) and a scalar tau, with
    no checks: (f env) |B|^2, in that order."""
    return f * _envelope(t, gd, tau) * _b_squared(t, om, de, cg)


@dataclass(frozen=True)
class WavepacketCurve:
    """Sampled wavepacket: uniform time grid in ns, p_c per 1 ns bin."""

    t_ns: np.ndarray
    pc_per_ns: np.ndarray


@dataclass(frozen=True)
class SweepCurve:
    """Integrated extraction probability versus intensity or detuning."""

    abscissa: np.ndarray   # mW/cm^2 (intensity) or MHz (detuning)
    ordinate: np.ndarray   # P_c, dimensionless


def pc_curve(params: ReadoutParams, t_start=0.0, t_end=0.160,
             n_points=161) -> WavepacketCurve:
    """Sample p_c on a uniform grid t_start..t_end (us), ``n_points`` in
    [2, ``_MAX_POINTS`` = 1e6]; ParamError names an argument out of range.

    The default grid reproduces the 1 ns acquisition resolution over a
    160 ns read window.  Values are probabilities per 1 ns bin.
    """
    if not (t_end > t_start >= 0):
        raise ParamError(["t_start", "t_end"], "need t_end > t_start >= 0")
    if not 2 <= n_points <= _MAX_POINTS:
        raise ParamError(["n_points"], f"need 2 <= n_points <= {_MAX_POINTS}")
    t = np.linspace(t_start, t_end, int(n_points))
    pc = np.concatenate([pc_at(t[lo:lo + _BLOCK], params)     # bounds the
                         for lo in range(0, t.size, _BLOCK)])   # temporaries
    return WavepacketCurve(t_ns=t * 1e3, pc_per_ns=pc / 1e3)


def _gauss_laplace(s, gamma, tau, horizon):
    """integral_0^T exp(s t - gamma^2 (t + tau)^2) dt, elementwise over
    complex s and the rates gamma and horizons T (finite or not) broadcast
    against it.

    gamma = 0 (below 1e-150 rad/us, where the envelope is 1 to 1e-16 over
    any window shorter than 1e142 us) needs a finite T: expm1(s T)/s.
    Otherwise each finite end point contributes a Gaussian tail: right tails, or
    left ones where the integrand's centre Re s/(2 gamma^2) - tau lies past
    the middle of the window.  For Re s < 0 (every physical exponent) w is
    then evaluated in the upper half plane, where |w| <= 1.  Elsewhere on
    the contour of ``pc_integral`` it can reach the lower half plane, by at
    most 0.5 for the radius used there, where |w| < 4.  The choice is made
    per element; a call whose rates are all below 1e-150 loads no scipy.
    """
    flat = gamma < _FLAT_GAMMA
    if flat.all():
        return np.expm1(s * horizon) / s
    if flat.any():
        s, gamma, horizon = np.broadcast_arrays(s, gamma, horizon)
        flat = gamma < _FLAT_GAMMA
        out = np.empty(s.shape, complex)
        for part in (flat, ~flat):
            out[part] = _gauss_laplace(s[part], gamma[part], tau, horizon[part])
        return out
    # imported here, so importing the package does not pay for scipy.special
    from scipy.special import wofz
    c = s / (2.0 * gamma)
    finite = np.isfinite(horizon)
    end = np.where(finite, horizon, 0.0)

    def tail(t0, side):
        x = gamma * (t0 + tau)
        return np.exp(s * t0 - x * x) * wofz(side * 1j * (x - c))

    out = tail(0.0, 1.0) - np.where(finite, tail(end, 1.0), 0.0)
    left = c.real > gamma * (tau + 0.5 * horizon)
    if left.any():
        out = np.where(left, tail(end, -1.0) - tail(0.0, -1.0), out)
    return _HALF_SQRT_PI / gamma * out


def pc_integral(params: ReadoutParams, horizon=math.inf, *, omega=None,
                delta=None):
    """P_c over [0, horizon] (us) in closed form, elementwise over arrays.

    ``omega`` and ``delta`` (rad/us) default to those of ``params``; they
    and ``horizon`` (in [1e-20, 1e20] us, or inf) may be broadcastable
    arrays, one value per point, and the other parameters are scalars.
    Each is checked against its range of ``params.DOMAIN`` (omega in
    [0, 1e60], |delta| at most 1e20); ParamError names each that breaks
    it.  Returns a float for scalar inputs, else an ndarray of the
    broadcast shape; each point gets the bits of a scalar call with its own
    values.

    With s_1,2 = -chi Gamma/2 +- alpha_+, s_3 = -chi Gamma/2 + i alpha_-
    and L(s) the integral of e^{s t} under the envelope over [0, T]
    (``_gauss_laplace``), P_c = F Omega^2/(2 |z|^2) [L(s_1)/2 + L(s_2)/2 -
    Re L(s_3)].  Omega = 0 gives 0; gamma_deph = 0 with no horizon gives
    F/(chi Gamma) exactly, the sum of the L(s) = -1/s terms (norm-decay law).

    Near the critically damped point the bracket cancels to O(|z|^2/lam^2),
    1/lam = 1/max(chi Gamma/2 + 2 gamma^2 tau, gamma, 1/T) being the support
    of the weight.  It is the divided difference (E(a+^2) - E(-a-^2)) /
    |z|^2 of E(u) = [L(-chi Gamma/2 + sqrt u) + L(-chi Gamma/2 - sqrt u)]/2;
    for |z| < 0.3 lam it is taken as the Cauchy integral of
    E(u)/((u - a+^2)(u + a-^2)) on |u| = (0.6 lam)^2 by the 32-node
    trapezoid rule.  E is entire, its k-th Taylor coefficient at most
    E(0) lam^(-2k), so the rule's error falls as 0.36^32, with no
    cancellation, down to z = 0 exactly.

    Measured relative error below 1e-13 against 60-digit evaluations in
    1400 random cases (Omega, |Delta| to 60 Gamma, gamma_deph/2pi to
    300 MHz, tau to 200 ns, horizons from 3 ns to infinite, z down to 0),
    and below 2e-12 against adaptive quadrature at 1 to 3 ns.
    """
    (hz, om, de, cg, gd, f), unwrap = _flat(
        horizon, params.omega if omega is None else omega,
        params.delta if delta is None else delta, params.chi_gamma,
        params.gamma_deph, params.scale_f)
    _check_domain(horizon=hz, omega=om, delta=de)
    return unwrap(_pc_integral(hz, om, de, cg, gd, params.tau, f))


def _pc_integral(hz, om, de, cg, gd, tau, f):
    """``pc_integral`` over 1-d arrays of one length (horizon > 0, omega,
    delta, chi Gamma, gamma_deph, scale_f: one value per point) and a
    scalar tau, with no checks."""
    ap, am = _alpha(om, de, cg)
    beta = 0.5 * cg
    # -s_1 = beta - alpha_+; below the normal double range it flags a drive
    # so weak (Omega = 0 included) that P_c, proportional to Omega^2, is 0
    rate = _gap(om, de, beta, ap)
    lam = np.maximum(np.maximum(beta + 2.0 * gd * gd * tau, gd), 1.0 / hz)
    z2 = ap * ap + am * am
    crit = z2 < (_CRIT_FRAC * lam) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lap = _gauss_laplace(np.stack([-rate, -ap - beta, 1j * am - beta]),
                             gd, tau, hz)
        bracket = (0.5 * (lap[0] + lap[1]) - lap[2]).real / z2
        if crit.any():
            root = (_CONTOUR_FRAC * lam[crit])[:, None] * _HALF_CIRCLE  # sqrt u
            u = root * root
            b = beta[crit, None]
            lap = _gauss_laplace(np.stack([root - b, -root - b]),
                                 gd[crit, None], tau, hz[crit, None])
            even = 0.5 * (lap[0] + lap[1])
            bracket[crit] = np.mean(
                even * u / ((u - ap[crit, None] ** 2)
                            * (u + am[crit, None] ** 2)), axis=1).real
        pc = np.where(rate < _TINY, 0.0, 0.5 * f * om * om * bracket)
    # norm-decay law at gamma_deph = 0: d(|A|^2 + |B|^2)/dt = -chi Gamma |B|^2
    # and the state decays completely for Omega > 0, so |B|^2 integrates to
    # 1/(chi Gamma) over an infinite horizon
    flat_inf = (gd < _FLAT_GAMMA) & np.isinf(hz)
    if flat_inf.any():
        pc = np.where(flat_inf, np.where(om == 0, 0.0, f / cg), pc)
    return pc


def integrate_Pc(params: ReadoutParams, horizon=math.inf) -> float:
    """Alias of ``pc_integral``, kept because ``perfbench`` traces this name."""
    return pc_integral(params, horizon)


def pc_integral_fixed(params: ReadoutParams, t_end=0.160) -> float:
    """P_c over [0, t_end] (us); the same closed form as ``integrate_Pc``."""
    return integrate_Pc(params, horizon=t_end)


def saturation_curve(params: ReadoutParams, i_sat, i_r_list,
                     horizon=math.inf) -> SweepCurve:
    """P_c versus read intensity (mW/cm^2), Omega = ``rabi_from_intensity``
    at saturation intensity ``i_sat`` (mW/cm^2) and the Gamma of ``params``;
    its own Omega is not used."""
    i_r_arr = np.asarray(i_r_list, dtype=float)
    omega = rabi_from_intensity(i_r_arr, i_sat, params.gamma_nat)
    return SweepCurve(abscissa=i_r_arr,
                      ordinate=pc_integral(params, horizon, omega=omega))


def detuning_spectrum(params: ReadoutParams, delta_mhz_list,
                      horizon=math.inf) -> SweepCurve:
    """P_c versus read detuning (MHz) at the drive of ``params``, whose own
    detuning is not used.

    |B(t)|^2 depends on the detuning only through Delta^2 (the sign enters
    phases alone), so the spectrum is exactly symmetric under Delta -> -Delta.
    """
    de_mhz = np.asarray(delta_mhz_list, dtype=float)
    with np.errstate(over="ignore"):    # pc_integral rejects an inf delta
        delta = mhz_to_angular(de_mhz)
    return SweepCurve(abscissa=de_mhz,
                      ordinate=pc_integral(params, horizon, delta=delta))
