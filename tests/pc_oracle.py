"""Adaptive-quadrature oracle for the closed-form P_c (tests only).

``adaptive_pc`` integrates p_c(t) by Gauss-Kronrod quadrature, independently
of the Faddeeva closed form in ``qmemread.wavepacket``.  The integrand is a
Gaussian envelope times
(Omega^2/|z|^2) e^{-chi Gamma t/2} [sinh^2(a+ t/2) + sin^2(a- t/2)], whose
pieces decay at least like exp(-(chi Gamma/2 - a+) t), that rate taken to
full precision.  Truncation points sit where each piece's own decay has
fallen by 60 e-folds.

Strongly detuned parameters can put thousands of oscillation periods under
a slowly decaying envelope, so when more than ~20 periods fit inside the
support the sin^2 term is split as (1 - cos(a- t))/2 and the cosine part is
integrated with QUADPACK's oscillatory-weight rule.  Near the critically
damped point (|z| -> 0) sinh(z t/2)/z is taken from its Taylor series.
"""

import math

import mpmath
from scipy import integrate

from qmemread import alpha_pair


def _rate(omega, delta, chi_gamma):
    """chi Gamma/2 - alpha_+ (> 0 for omega > 0) to full double precision.

    Under weak drive alpha_+ -> chi Gamma/2, and the difference of the two
    doubles would lose log10(chi Gamma / (2 rate)) digits; the slow tail of
    the integrand decays at exactly this rate.
    """
    with mpmath.workdps(40):
        om, de, cg = (mpmath.mpf(v) for v in (omega, delta, chi_gamma))
        t_mid = (om * om + de * de) / 2 - cg * cg / 8
        s_rad = mpmath.sqrt(t_mid * t_mid + de * de * cg * cg / 4)
        return float(cg / 2 - mpmath.sqrt(s_rad - t_mid))


def _quad(func, t_lo, t_hi, epsabs, epsrel, weight=None, wvar=None):
    """quad that raises instead of warning when it does not converge."""
    kwargs = dict(epsabs=epsabs, epsrel=epsrel, limit=500, full_output=True)
    if weight is not None:
        kwargs.update(weight=weight, wvar=wvar)
    value, _err, _info, *tail = integrate.quad(func, t_lo, t_hi, **kwargs)
    if tail:
        raise RuntimeError(f"P_c quadrature did not converge: {tail[0]}")
    return value


def _two_scale_quad(func, t_fast, t_slow, epsrel):
    """0..t_slow with a breakpoint at the fast-structure cutoff, so that
    short-time structure is sampled even under a slowly decaying tail."""
    head = _quad(func, 0.0, min(t_fast, t_slow), 0.0, epsrel)
    if t_slow > 1.01 * t_fast:
        head += _quad(func, t_fast, t_slow, 0.0, epsrel)
    return head


def adaptive_pc(params, horizon=math.inf, rel_tol=1e-12):
    """P_c over [0, horizon] (us) by adaptive quadrature to ``rel_tol``."""
    om = params.omega
    if om == 0:
        return 0.0
    cg, gd, tau = params.chi_gamma, params.gamma_deph, params.tau
    pair = alpha_pair(om, params.delta, cg)
    ap, am = pair.alpha_plus, pair.alpha_minus
    z2 = ap * ap + am * am
    rate = _rate(om, params.delta, cg)
    pref = params.scale_f * om * om

    def gauss(t):
        x = gd * (t + tau)
        return math.exp(-x * x)

    def t_cut(decay, efolds=60.0):
        """Root of gd^2 t^2 + decay t = efolds, clamped to the horizon."""
        if gd > 0:
            t = (-decay + math.sqrt(decay * decay
                                    + 4.0 * gd * gd * efolds)) / (2.0 * gd * gd)
        else:
            t = efolds / decay
        return min(t, horizon)

    if z2 <= (1e-4 * cg) ** 2:
        z_c = complex(ap, am)

        def f_series(t):
            w2 = (z_c * t / 2.0) ** 2
            s = 1.0 + w2 / 6.0 + w2 * w2 / 120.0
            return gauss(t) * math.exp(-0.5 * cg * t) * 0.25 * t * t * abs(s) ** 2

        return pref * _quad(f_series, 0.0, t_cut(rate), 0.0, 0.5 * rel_tol)

    def damped_core(t):
        """e^{-chi Gamma t/2} sinh^2(a+ t/2), overflow-free for any t."""
        return 0.25 * math.exp(-rate * t) * math.expm1(-ap * t) ** 2

    t_fast = t_cut(0.5 * cg)
    t_slow = t_cut(rate)
    if am * t_fast <= 40.0 * math.pi:
        def f_single(t):
            osc = math.exp(-0.5 * cg * t) * math.sin(0.5 * am * t) ** 2
            return gauss(t) * (damped_core(t) + osc)

        return pref / z2 * _two_scale_quad(f_single, t_fast, t_slow,
                                           0.5 * rel_tol)

    def f_damped(t):
        return gauss(t) * damped_core(t)

    def f_envelope(t):
        return gauss(t) * math.exp(-0.5 * cg * t)

    part_a = _two_scale_quad(f_damped, t_fast, t_slow, rel_tol / 8.0)
    part_g = _quad(f_envelope, 0.0, t_fast, 0.0, rel_tol / 8.0)
    part_cos = _quad(f_envelope, 0.0, t_fast, max(part_g, 1e-300) * rel_tol / 8.0,
                     rel_tol / 8.0, weight="cos", wvar=am)
    return pref / z2 * (part_a + 0.5 * (part_g - part_cos))
