import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import simpson

from pc_oracle import adaptive_pc
from qmemread.params import DOMAIN
import qmemread.wavepacket as wavepacket
from qmemread import (ParamError, ReadoutParams, alpha_pair,
                      amplitude_B, detuning_spectrum, integrate_Pc,
                      mhz_to_angular, pc_at, pc_curve, pc_integral,
                      pc_integral_fixed, rabi_from_intensity,
                      saturation_curve)

GAMMA = mhz_to_angular(5.2)

PAPER_STYLE = ReadoutParams.from_user_units(
    delta_mhz=1.7, chi=2.7, gamma_deph_mhz=1.55, scale_f=4.1,
    i_r_mw_cm2=95.0, i_sat_mw_cm2=12.0)


def alpha_pair_mp(omega, delta, chi_gamma, dps=50):
    """Arbitrary-precision evaluation of the nested-radical exponents."""
    with mpmath.workdps(dps):
        om, de, cg = mpmath.mpf(omega), mpmath.mpf(delta), mpmath.mpf(chi_gamma)
        t_mid = (om ** 2 + de ** 2) / 2 - cg ** 2 / 8
        s_rad = mpmath.sqrt(t_mid ** 2 + de ** 2 * cg ** 2 / 4)
        return (float(mpmath.sqrt(s_rad - t_mid)),
                float(mpmath.sqrt(s_rad + t_mid)))


def random_triples(n, seed=0):
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.0, 20.0 * GAMMA, n)
    delta = rng.uniform(-20.0 * GAMMA, 20.0 * GAMMA, n)
    chi = rng.uniform(1.0, 5.0, n)
    return omega, delta, chi * GAMMA


class TestAlphaPair:
    def test_zero_drive(self):
        # at Omega = 0 the nested radical is a perfect square
        for de, cg in [(3.0, 2.0), (0.5, 10.0), (-7.0, 1.0)]:
            pair = alpha_pair(0.0, de, cg)
            assert pair.alpha_plus == pytest.approx(cg / 2, rel=1e-14)
            assert pair.alpha_minus == pytest.approx(abs(de), rel=1e-14)

    def test_resonant_underdamped(self):
        pair = alpha_pair(2.0, 0.0, 2.0)
        assert pair.alpha_plus == 0.0
        assert pair.alpha_minus == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_resonant_overdamped(self):
        pair = alpha_pair(0.5, 0.0, 4.0)
        # t_mid < 0: pure damping correction, no oscillation
        assert pair.alpha_minus == 0.0
        assert 0 < pair.alpha_plus < 2.0

    def test_against_high_precision_oracle(self):
        omega, delta, chi_gamma = random_triples(50, seed=4)
        for om, de, cg in zip(omega, delta, chi_gamma):
            got = alpha_pair(om, de, cg)
            ref_p, ref_m = alpha_pair_mp(om, de, cg)
            assert got.alpha_plus == pytest.approx(ref_p, rel=1e-12, abs=1e-12)
            assert got.alpha_minus == pytest.approx(ref_m, rel=1e-12, abs=1e-12)

    def test_identities_random(self):
        omega, delta, chi_gamma = random_triples(1000, seed=5)
        pair = alpha_pair(omega, delta, chi_gamma)
        prod = pair.alpha_plus * pair.alpha_minus
        target = np.abs(delta) * chi_gamma / 2
        ok = target > 0
        assert np.all(np.abs(prod[ok] - target[ok]) / target[ok] <= 1e-10)
        diff = pair.alpha_minus ** 2 - pair.alpha_plus ** 2
        target2 = omega ** 2 + delta ** 2 - chi_gamma ** 2 / 4
        scale = np.maximum(np.abs(target2), chi_gamma ** 2)
        assert np.all(np.abs(diff - target2) / scale <= 1e-10)
        assert np.all(pair.alpha_plus < chi_gamma / 2)

    def test_requires_positive_chi_gamma(self):
        with pytest.raises(ParamError):
            alpha_pair(1.0, 1.0, 0.0)


class TestAmplitude:
    def test_zero_time(self):
        assert amplitude_B(0.0, PAPER_STYLE) == 0

    def test_zero_drive(self):
        p = PAPER_STYLE.replace(omega=0.0)
        t = np.linspace(0, 0.3, 50)
        assert np.all(amplitude_B(t, p) == 0)

    def test_negative_time_rejected(self):
        with pytest.raises(ParamError):
            amplitude_B(-0.1, PAPER_STYLE)

    @pytest.mark.parametrize("func", [amplitude_B, pc_at])
    def test_negative_time_names_the_called_function(self, func):
        with pytest.raises(ParamError) as info:
            func(-1.0, ReadoutParams(omega=1.0, delta=0.0))
        assert info.value.fields == ("t",)
        assert str(info.value) == (f"{func.__name__} requires t in "
                                   "[0, 1e+20] us")

    def test_strong_drive_oscillation(self):
        # Delta = 0, Omega >> chi*Gamma: |B|^2 oscillates at
        # alpha_- = sqrt(Omega^2 - (chi Gamma)^2/4) under exp(-chi Gamma t/2)
        cg = 2.0 * GAMMA
        omega = 20.0 * GAMMA
        p = ReadoutParams(omega=omega, delta=0.0, gamma_nat=GAMMA, chi=2.0)
        a_minus = math.sqrt(omega ** 2 - cg ** 2 / 4)
        t = np.linspace(0, 6 * math.pi / a_minus, 4001)
        env = np.abs(amplitude_B(t, p)) ** 2 * np.exp(cg * t / 2)
        # envelope-corrected signal is periodic with period 2 pi / alpha_-
        period = 2 * math.pi / a_minus
        shifted = np.abs(amplitude_B(t + period, p)) ** 2 * np.exp(cg * (t + period) / 2)
        assert np.max(np.abs(shifted - env)) <= 1e-9 * np.max(env)

    def test_series_matches_high_precision_at_degeneracy(self):
        # critically damped point: Delta = 0, Omega = chi Gamma / 2 -> z = 0
        cg = 2.0 * GAMMA
        p = ReadoutParams(omega=cg / 2, delta=0.0, gamma_nat=GAMMA, chi=2.0)
        for t in (1e-6, 1e-3, 0.05, 0.2):
            got = amplitude_B(t, p)
            # exact limit: B = i Omega (t/2) exp(-chi Gamma t / 4)
            ref = 1j * (cg / 2) * (t / 2) * math.exp(-cg * t / 4)
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_series_cutoff_continuity(self):
        # just off the critical point, where z t is small
        cg = 2.0 * GAMMA
        p = ReadoutParams(omega=cg / 2 * (1 + 1e-9), delta=0.0,
                          gamma_nat=GAMMA, chi=2.0)
        t = np.linspace(1e-7, 0.3, 1000)
        vals = amplitude_B(t, p)
        assert np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))
        # compare against mpmath of the literal formula
        pair = alpha_pair(p.omega, p.delta, p.chi_gamma)
        z = complex(pair.alpha_plus, pair.alpha_minus)
        with mpmath.workdps(40):
            for ti in (1e-7, 1e-4, 0.1):
                ref = (1j * p.omega * mpmath.e ** (-p.chi_gamma * ti / 4)
                       * mpmath.sinh(mpmath.mpc(z) * ti / 2) / mpmath.mpc(z))
                got = amplitude_B(ti, p)
                assert abs(got - complex(ref)) <= 1e-10 * abs(complex(ref))

    def test_overflow_safety(self):
        # chi Gamma t = 200 and far beyond: finite, negligible magnitude
        p = PAPER_STYLE
        for t in (200.0 / p.chi_gamma, 4000.0 / p.chi_gamma):
            val = amplitude_B(t, p)
            assert np.isfinite(val.real) and np.isfinite(val.imag)
            assert abs(val) < 1e-15

    def test_amplitude_bound(self):
        omega, delta, chi_gamma = random_triples(100, seed=6)
        for om, de, cg in zip(omega[:30], delta[:30], chi_gamma[:30]):
            p = ReadoutParams(omega=om, delta=de, gamma_nat=cg / 2.0, chi=2.0)
            pair = alpha_pair(om, de, cg)
            z2 = pair.alpha_plus ** 2 + pair.alpha_minus ** 2
            if z2 == 0:
                continue
            t = np.linspace(0, 10 / GAMMA, 500)
            b2 = np.abs(amplitude_B(t, p)) ** 2
            bound = 1.25 * om ** 2 / z2 * np.exp((pair.alpha_plus - cg / 2) * t)
            assert np.all(b2 <= bound * (1 + 1e-12))


class TestPcAt:
    def test_zero_at_t0(self):
        assert pc_at(0.0, PAPER_STYLE) == 0.0

    def test_no_dephasing_reduces_to_amplitude(self):
        # p_c = F |B|^2 exactly, from the real form; the complex amplitude's
        # squared modulus rounds differently, within a few ulp (2.6e-15 here)
        p = PAPER_STYLE.replace(gamma_deph=0.0)
        t = np.linspace(0, 0.2, 101)
        b_squared = wavepacket._b_squared(
            t, *(np.full(t.size, v) for v in (p.omega, p.delta, p.chi_gamma)))
        assert np.array_equal(pc_at(t, p), p.scale_f * b_squared)
        expected = p.scale_f * np.abs(amplitude_B(t, p)) ** 2
        assert np.allclose(pc_at(t, p), expected,
                           rtol=16 * np.finfo(float).eps, atol=0)

    def test_global_phase_irrelevant(self):
        # the dropped constant storage phase cannot affect p_c
        t = np.linspace(0, 0.2, 64)
        b = amplitude_B(t, PAPER_STYLE)
        phase = np.exp(1j * 1.2345)
        direct = PAPER_STYLE.scale_f * np.exp(
            -(PAPER_STYLE.gamma_deph * (t + PAPER_STYLE.tau)) ** 2) * np.abs(b * phase) ** 2
        assert np.allclose(pc_at(t, PAPER_STYLE), direct, rtol=1e-15)

    def test_paper_style_shape(self):
        # single dominant early maximum, near zero by the end of 160 ns
        curve = pc_curve(PAPER_STYLE, 0.0, 0.160, 161)
        peak = curve.pc_per_ns.max()
        i_peak = int(curve.pc_per_ns.argmax())
        assert 5 <= i_peak <= 80
        assert curve.pc_per_ns[-1] < 0.01 * peak
        assert np.all(curve.pc_per_ns >= 0)
        assert curve.pc_per_ns[0] == 0.0


class TestPcCurve:
    def test_trivial_zero_drive(self):
        p = PAPER_STYLE.replace(omega=0.0)
        curve = pc_curve(p, 0.0, 0.1, 2)
        assert list(curve.pc_per_ns) == [0.0, 0.0]

    def test_grid_validation(self):
        with pytest.raises(ParamError):
            pc_curve(PAPER_STYLE, 0.1, 0.1, 10)
        with pytest.raises(ParamError):
            pc_curve(PAPER_STYLE, -0.1, 0.2, 10)
        with pytest.raises(ParamError):
            pc_curve(PAPER_STYLE, 0.0, 0.1, 1)

    @pytest.mark.parametrize("extra", [0, 1, 10 ** 300])
    def test_point_count_bound(self, monkeypatch, extra):
        # the bound itself reaches the grid, a larger count is named before
        # anything is allocated; the grid is not built at the bound
        class Reached(Exception):
            pass

        def linspace(start, stop, num):
            raise Reached(num)

        n = wavepacket._MAX_POINTS + extra
        monkeypatch.setattr(np, "linspace", linspace)
        if extra:
            with pytest.raises(ParamError) as info:
                pc_curve(PAPER_STYLE, 0.0, 0.1, n)
            assert info.value.fields == ("n_points",)
        else:
            with pytest.raises(Reached) as info:
                pc_curve(PAPER_STYLE, 0.0, 0.1, n)
            assert info.value.args == (n,)

    def test_acquisition_grid_convention(self):
        curve = pc_curve(PAPER_STYLE, 0.0, 0.160, 161)
        assert np.allclose(curve.t_ns, np.arange(161), atol=1e-9)

    def test_nested_grid_refinement(self):
        # trapezoid sums over nested grids converge towards the integral
        ref = integrate_Pc(PAPER_STYLE, horizon=0.160)
        errs = []
        for n in (101, 201, 401, 801):
            c = pc_curve(PAPER_STYLE, 0.0, 0.160, n)
            # curve is per-ns over a ns grid: the sum approximates P_c
            step = c.t_ns[1] - c.t_ns[0]
            errs.append(abs(np.trapezoid(c.pc_per_ns, dx=step) - ref))
        assert errs[-1] < errs[0]
        assert errs[-1] <= 1e-6 * ref + 1e-15


def rel_err(got, ref):
    return abs(got - ref) / abs(ref)


class TestIntegratePc:
    def test_zero_drive(self):
        assert integrate_Pc(PAPER_STYLE.replace(omega=0.0)) == 0.0

    def test_linear_in_scale(self):
        base = integrate_Pc(PAPER_STYLE)
        doubled = integrate_Pc(PAPER_STYLE.replace(scale_f=8.2))
        assert abs(doubled - 2 * base) <= 1e-12 * doubled

    def test_against_simpson_oracle(self):
        # fixed-step Simpson at 0.01 ns over the truncation span
        for i_r in (10.0, 55.0, 150.0):
            p = ReadoutParams.from_user_units(
                delta_mhz=1.7, chi=2.7, gamma_deph_mhz=1.55, scale_f=4.1,
                i_r_mw_cm2=i_r, i_sat_mw_cm2=12.0)
            val = integrate_Pc(p)
            t_end = 0.8  # generous: integrand is dead long before
            grid = np.linspace(0.0, t_end, int(t_end / 1e-5) + 1)
            oracle = simpson(pc_at(grid, p), x=grid)
            assert abs(val - oracle) <= 1e-8 * oracle

    def test_finite_horizon_matches_long_horizon(self):
        full = integrate_Pc(PAPER_STYLE)
        windowed = integrate_Pc(PAPER_STYLE, horizon=2.0)
        assert windowed == pytest.approx(full, rel=1e-9)

    def test_fixed_grid_path_agrees(self):
        val = integrate_Pc(PAPER_STYLE, horizon=0.160)
        fast = pc_integral_fixed(PAPER_STYLE, t_end=0.160)
        assert fast == pytest.approx(val, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ParamError):
            integrate_Pc(PAPER_STYLE, horizon=0.0)

    def test_near_degenerate_infinite_horizon(self):
        # z ~ 0 exercises the series branch; at z = 0 exactly the integral
        # has the closed value F Omega^2 * 4/(chi Gamma)^3
        cg = 2.0 * GAMMA
        p = ReadoutParams(omega=cg / 2, delta=0.0, gamma_nat=GAMMA, chi=2.0,
                          gamma_deph=0.0, scale_f=1.0)
        val = integrate_Pc(p)
        assert val == pytest.approx(p.scale_f * p.omega ** 2 * 4.0 / cg ** 3,
                                    rel=1e-9)
        # continuity across the series/general-branch boundary
        for eps in (1e-9, 1e-6, 1e-3):
            v_eps = integrate_Pc(p.replace(omega=cg / 2 * (1 + eps)))
            assert v_eps == pytest.approx(val, rel=1e-2 * max(eps, 1e-6) + 1e-9)

    @staticmethod
    def exact_no_dephasing(p):
        """Closed form of the infinite-horizon integral at gamma = 0.

        The integrand splits into pure exponentials and one damped cosine,
        each of which integrates in closed form; an independent oracle for
        the adaptive quadrature.
        """
        pair = alpha_pair(p.omega, p.delta, p.chi_gamma)
        ap, am = pair.alpha_plus, pair.alpha_minus
        cg = p.chi_gamma
        rate = cg / 2 - ap
        z2 = ap * ap + am * am
        sinh_part = 0.25 * (1.0 / rate + 1.0 / (cg / 2 + ap) - 4.0 / cg)
        sin_part = 0.5 * (2.0 / cg - (cg / 2) / ((cg / 2) ** 2 + am ** 2))
        return p.scale_f * p.omega ** 2 / z2 * (sinh_part + sin_part)

    def test_exact_oracle_no_dephasing(self):
        # includes the hard corner of weak drive at large detuning, where
        # the decay rate chi Gamma/2 - alpha_+ becomes very small and the
        # integrand mixes thousands of oscillations with a slow tail
        rng = np.random.default_rng(44)
        cases = [ReadoutParams(omega=rng.uniform(0.005, 12) * GAMMA,
                               delta=rng.uniform(-20, 20) * GAMMA,
                               gamma_nat=GAMMA, chi=rng.uniform(1.0, 5.0),
                               gamma_deph=0.0, tau=rng.uniform(0, 0.2),
                               scale_f=rng.uniform(0.1, 10))
                 for _ in range(40)]
        cases.append(ReadoutParams(omega=0.11 * GAMMA, delta=12.6 * GAMMA,
                                   gamma_nat=GAMMA, chi=1.05, gamma_deph=0.0))
        for p in cases:
            got = integrate_Pc(p)
            ref = self.exact_no_dephasing(p)
            assert got == pytest.approx(ref, rel=1e-9)
            # and at the 160 ns horizon, against the adaptive oracle
            assert rel_err(integrate_Pc(p, 0.160),
                           adaptive_pc(p, 0.160, 1e-12)) <= 1e-10


def critical_cases(gamma_deph_mhz, tau):
    """Delta = 0 and Omega = chi Gamma/2 (1 -+ eps): |z|/chi Gamma = sqrt(eps)
    (to rounding) from 1e-1 down to 1e-8, and z = 0 exactly at eps = 0."""
    for chi in (1.0, 2.7):
        cg = chi * GAMMA
        for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16, 0.0):
            for sign in (1.0, -1.0):
                yield ReadoutParams(omega=cg / 2 * (1 + sign * eps), delta=0.0,
                                    gamma_nat=GAMMA, chi=chi, scale_f=4.1,
                                    gamma_deph=mhz_to_angular(gamma_deph_mhz),
                                    tau=tau)


class TestClosedFormPc:
    """The Faddeeva closed form against the adaptive-quadrature oracle."""

    HORIZONS = (0.160, math.inf)

    def test_matches_adaptive_oracle_random(self):
        rng = np.random.default_rng(2026)
        worst = 0.0
        for i in range(2000):
            gd = 0.0 if i % 4 == 0 else mhz_to_angular(rng.uniform(0.0, 5.0))
            p = ReadoutParams(omega=rng.uniform(0.005, 20.0) * GAMMA,
                              delta=rng.uniform(-20.0, 20.0) * GAMMA,
                              gamma_nat=GAMMA, chi=rng.uniform(1.0, 5.0),
                              gamma_deph=gd, tau=rng.uniform(0.0, 0.2),
                              scale_f=rng.uniform(0.1, 10.0))
            for horizon in self.HORIZONS:
                worst = max(worst, rel_err(integrate_Pc(p, horizon),
                                           adaptive_pc(p, horizon, 1e-12)))
        assert worst <= 1e-10

    @pytest.mark.parametrize("gamma_deph_mhz,tau,horizons", [
        (0.0, 0.05, HORIZONS), (1.55, 0.05, HORIZONS),
        # weight support set by a short horizon, or by gamma_deph at tau = 0:
        # the contour then meets Gaussians centred inside or past the window
        (0.0, 0.0, (0.01,)), (0.05, 0.0, (0.01,)), (30.0, 0.0, HORIZONS)])
    def test_critical_neighbourhood(self, gamma_deph_mhz, tau, horizons):
        for p in critical_cases(gamma_deph_mhz, tau):
            for horizon in horizons:
                assert rel_err(integrate_Pc(p, horizon),
                               adaptive_pc(p, horizon, 1e-12)) <= 1e-10

    @pytest.mark.parametrize("gamma_deph,horizon", [(0.0, 1e6),
                                                    (1e-7, math.inf)])
    def test_weak_far_detuned_drive(self, gamma_deph, horizon):
        # chi Gamma/2 - alpha_+ = 1e-8 chi Gamma sets the slow decay; its
        # digits must not be lost to the difference of the two rates
        p = ReadoutParams(omega=0.003 * GAMMA, delta=15.0 * GAMMA,
                          gamma_nat=GAMMA, chi=1.2, gamma_deph=gamma_deph,
                          scale_f=4.1)
        assert rel_err(integrate_Pc(p, horizon),
                       adaptive_pc(p, horizon, 1e-12)) <= 1e-10

    def test_zero_drive_inside_array(self):
        omega = np.array([0.0, 0.3, 0.0, 2.0, 0.5]) * GAMMA
        for gd_mhz in (0.0, 1.55):
            p = PAPER_STYLE.replace(gamma_deph=mhz_to_angular(gd_mhz))
            for horizon in self.HORIZONS:
                got = pc_integral(p, horizon, omega=omega)
                assert got[0] == 0.0 and got[2] == 0.0
                for om, val in zip(omega[[1, 3, 4]], got[[1, 3, 4]]):
                    ref = adaptive_pc(p.replace(omega=om), horizon, 1e-12)
                    assert rel_err(val, ref) <= 1e-10

    @pytest.mark.parametrize("gamma_deph_mhz,tau", [(20.0, 0.05), (200.0, 0.0),
                                                    (2000.0, 0.0), (50.0, 0.02)])
    def test_large_dephasing(self, gamma_deph_mhz, tau):
        # the Faddeeva argument ~ gamma (t + tau) - s/(2 gamma) is large here
        for om, de in ((0.5, 0.0), (3.0, 1.0), (10.0, -15.0)):
            p = ReadoutParams(omega=om * GAMMA, delta=de * GAMMA,
                              gamma_nat=GAMMA, chi=2.7, tau=tau, scale_f=4.1,
                              gamma_deph=mhz_to_angular(gamma_deph_mhz))
            for horizon in self.HORIZONS:
                ref = adaptive_pc(p, horizon, 1e-12)
                got = integrate_Pc(p, horizon)
                assert ref > 0 and rel_err(got, ref) <= 1e-10


finite = dict(allow_nan=False, allow_infinity=False)
st_params = st.builds(
    ReadoutParams,
    omega=st.floats(0.01 * GAMMA, 20 * GAMMA, **finite),
    delta=st.floats(-20 * GAMMA, 20 * GAMMA, **finite),
    gamma_nat=st.just(GAMMA),
    chi=st.floats(1.0, 5.0, **finite),
    gamma_deph=st.one_of(st.just(0.0),
                         st.floats(0.0, mhz_to_angular(5.0), **finite)),
    tau=st.floats(0.0, 0.2, **finite),
    scale_f=st.floats(0.1, 10.0, **finite))
st_horizon = st.one_of(st.just(math.inf), st.floats(0.02, 2.0, **finite))
property_settings = settings(max_examples=60, deadline=None)


class TestClosedFormProperties:
    @property_settings
    @given(st_params, st_horizon)
    def test_detuning_sign_bit_identical(self, p, horizon):
        assert pc_integral(p, horizon) == pc_integral(p.replace(delta=-p.delta),
                                                      horizon)

    @property_settings
    @given(st_params, st_horizon, st.floats(0.01, 100.0, **finite))
    def test_linear_in_scale(self, p, horizon, factor):
        base = pc_integral(p, horizon)
        scaled = pc_integral(p.replace(scale_f=factor * p.scale_f), horizon)
        assert scaled == pytest.approx(factor * base, rel=1e-14)

    @property_settings
    @given(st_params, st.floats(0.02, 2.0, **finite),
           st.floats(0.0, 2.0, **finite))
    def test_non_decreasing_in_horizon(self, p, horizon, extra):
        # to rounding: the true increment can fall below one ulp
        short = pc_integral(p, horizon)
        longer = pc_integral(p, horizon + extra)
        assert short <= longer * (1 + 1e-13)
        assert pc_integral(p, 0.160) <= pc_integral(p) * (1 + 1e-13)

    @property_settings
    @given(st_params, st_horizon,
           st.lists(st.floats(0.0, 20 * GAMMA, **finite), min_size=1,
                    max_size=8),
           st.lists(st.floats(-20 * GAMMA, 20 * GAMMA, **finite), min_size=1,
                    max_size=8))
    def test_array_call_equals_scalar_calls(self, p, horizon, omegas, deltas):
        omega = np.array(omegas)[:, None]
        delta = np.array(deltas)[None, :]
        got = pc_integral(p, horizon, omega=omega, delta=delta)
        assert got.shape == (len(omegas), len(deltas))
        for (i, j), val in np.ndenumerate(got):
            ref = integrate_Pc(p.replace(omega=omegas[i], delta=deltas[j]),
                               horizon)
            assert val == pytest.approx(ref, rel=1e-14, abs=0)

    @property_settings
    @given(st_params, st.floats(1.0, 50.0, **finite),
           st.lists(st.floats(0.0, 500.0, **finite), min_size=2, max_size=12))
    def test_saturation_non_decreasing_in_intensity(self, p, i_sat,
                                                    intensities):
        # Infinite horizon: a finite one can cut a strongly driven Rabi
        # oscillation and lower P_c by percents (160 ns, Delta = 0, chi near
        # 1, Omega ~ 4 chi Gamma/2; the quadrature oracle agrees).  With
        # gamma_deph = 0 the curve is flat, F/(chi Gamma); the slack is the
        # rounding of values accurate to 1e-13.
        curve = saturation_curve(p, i_sat, np.sort(intensities))
        assert np.all(np.diff(curve.ordinate)
                      >= -1e-12 * curve.ordinate[1:])


st_drives = st.lists(
    st.tuples(st.floats(0.0, 0.3, **finite),
              st.floats(0.0, 20 * GAMMA, **finite),
              st.floats(-20 * GAMMA, 20 * GAMMA, **finite)),
    min_size=1, max_size=12)


class TestPerPointDrive:
    """Per-point omega/delta arrays, as ``fitting`` passes them to the
    cores, give every point the value of a call with that point's drive in
    ``params``, to the last bit."""

    @property_settings
    @given(st_params, st_drives)
    @example(ReadoutParams(omega=1.0, delta=0.0, gamma_nat=32.67256359733385,
                           chi=1.7705311378295232, gamma_deph=0.0, tau=0.0,
                           scale_f=1.0),
             [(1.192092896e-07, 21.0, 100.0)])
    @example(ReadoutParams(omega=1.0, delta=0.0, gamma_nat=32.67256359733385,
                           chi=1.75, gamma_deph=0.0, tau=0.0, scale_f=1.0),
             [(5.960464477539063e-08, 603.0, -373.0)])
    def test_pc_at_equals_scalar_calls(self, p, drives):
        t, omega, delta = (np.array(col) for col in zip(*drives))
        cg, gd, f = (np.full(t.size, v)
                     for v in (p.chi_gamma, p.gamma_deph, p.scale_f))
        got = wavepacket._pc_at(t, omega, delta, cg, gd, p.tau, f)
        ref = [pc_at(ti, p.replace(omega=om, delta=de))
               for ti, om, de in drives]
        assert np.array_equal(got, ref)
        b = wavepacket._amplitude(t, omega, delta, cg)
        assert np.array_equal(b, [amplitude_B(ti, p.replace(omega=om, delta=de))
                                  for ti, om, de in drives])

    @pytest.mark.parametrize("horizon", [0.160, 0.01, math.inf])
    def test_pc_integral_batch_invariant_at_critical_points(self, horizon):
        # the Cauchy-integral branch takes each point's mean over its own
        # nodes, so batching critical points changes no bit of any of them
        cases = list(critical_cases(1.55, 0.05))
        p = cases[0].replace(chi=2.7)
        omega = np.array([c.omega for c in cases if c.chi == 2.7])
        delta = np.linspace(-1e-3, 1e-3, omega.size)
        batch = pc_integral(p, horizon, omega=omega, delta=delta)
        for om, de, val in zip(omega, delta, batch):
            assert val == pc_integral(p, horizon, omega=om, delta=de)

    @pytest.mark.parametrize("drive,fields", [
        ({"omega": [30.0, -30.0]}, ("omega",)),
        ({"omega": [math.nan]}, ("omega",)),
        ({"omega": math.inf}, ("omega",)),
        ({"delta": [0.0, math.inf]}, ("delta",)),
        ({"delta": -math.inf}, ("delta",)),
        ({"delta": [math.nan]}, ("delta",)),
        ({"omega": [-1.0], "delta": [math.nan]}, ("omega", "delta"))])
    def test_drive_checked_as_params_check_theirs(self, drive, fields):
        with pytest.raises(ParamError) as info:
            pc_integral(PAPER_STYLE, 0.160, **drive)
        assert info.value.fields == fields
        for name in fields:         # ReadoutParams names the same fields
            with pytest.raises(ParamError) as info:
                PAPER_STYLE.replace(**{name: np.ravel(drive[name])[-1]})
            assert info.value.fields == (name,)

    def test_spectrum_rejects_infinite_detuning(self):
        with pytest.raises(ParamError) as info:
            detuning_spectrum(PAPER_STYLE, [0.0, math.inf])
        assert info.value.fields == ("delta",)


@st.composite
def st_points(draw):
    """One point of a core call: (t, omega, delta, chi, gamma_deph, scale_f,
    horizon); a third of them at or next to the critical point."""
    chi = draw(st.floats(1.0, 5.0, **finite))
    if draw(st.integers(0, 2)) == 0:
        eps = draw(st.sampled_from([0.0, 1e-12, -1e-8, 1e-3]))
        omega, delta = chi * GAMMA / 2 * (1 + eps), 0.0
    else:
        omega = draw(st.floats(0.0, 20 * GAMMA, **finite))
        delta = draw(st.floats(-20 * GAMMA, 20 * GAMMA, **finite))
    return (draw(st.floats(0.0, 0.3, **finite)), omega, delta, chi,
            draw(st.one_of(st.just(0.0),
                           st.floats(0.0, mhz_to_angular(5.0), **finite))),
            draw(st.floats(0.0, 10.0, **finite)), draw(st_horizon))


class TestPerPointCores:
    """The private flat-array cores with every parameter given per point,
    as ``fitting`` calls them, against the public scalar calls."""

    @property_settings
    @given(st.lists(st_points(), min_size=1, max_size=12),
           st.floats(0.0, 0.2, **finite))
    @example([(0.01, 2.7 * GAMMA / 2, 0.0, 2.7, 0.0, 4.1, math.inf),
              (0.05, 2.7 * GAMMA / 2, 0.0, 2.7, mhz_to_angular(1.55), 4.1,
               math.inf),
              (0.16, 30.0, 10.0, 1.0, 0.0, 1.0, 0.160),
              (0.0, 0.0, 5.0, 3.0, mhz_to_angular(3.0), 2.0, math.inf)], 0.05)
    def test_each_point_equals_scalar_call(self, points, tau):
        t, om, de, chi, gd, f, hz = (np.array(col) for col in zip(*points))
        params = [ReadoutParams(omega=p[1], delta=p[2], gamma_nat=GAMMA,
                                chi=p[3], gamma_deph=p[4], tau=tau,
                                scale_f=p[5]) for p in points]
        cg = chi * GAMMA
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            b = wavepacket._amplitude(t, om, de, cg)
            dens = wavepacket._pc_at(t, om, de, cg, gd, tau, f)
            total = wavepacket._pc_integral(hz, om, de, cg, gd, tau, f)
        for i, p in enumerate(params):
            assert b[i] == amplitude_B(t[i], p)
            assert dens[i] == pc_at(t[i], p)
            assert total[i] == pc_integral(p, hz[i])

    @property_settings
    @given(st.lists(st_points(), min_size=1, max_size=12))
    def test_amplitude_squared_equals_b_squared(self, points):
        # the complex form and the real one are built from the same terms
        t, om, de, chi = (np.array(col) for col in list(zip(*points))[:4])
        cg = chi * GAMMA
        b_squared = wavepacket._b_squared(t, om, de, cg)
        squared = np.abs(wavepacket._amplitude(t, om, de, cg)) ** 2
        assert np.all(np.abs(squared - b_squared)
                      <= 64 * np.finfo(float).eps * b_squared)


class TestSweeps:
    i_sat = 12.0

    def base(self, delta_mhz=1.7, scale_f=4.1):
        return ReadoutParams(omega=0.0, delta=mhz_to_angular(delta_mhz),
                             gamma_nat=GAMMA, chi=2.7,
                             gamma_deph=mhz_to_angular(1.55), scale_f=scale_f)

    def test_saturation_zero_intensity(self):
        curve = saturation_curve(self.base(), self.i_sat, [0.0])
        assert list(curve.ordinate) == [0.0]

    def test_saturation_monotone_on_resonance(self):
        curve = saturation_curve(self.base(delta_mhz=0.0), self.i_sat,
                                 np.linspace(0.0, 200.0, 21), horizon=0.160)
        assert np.all(np.diff(curve.ordinate) >= 0)

    def test_saturation_negative_intensity_rejected(self):
        with pytest.raises(ParamError):
            saturation_curve(self.base(), self.i_sat, [-5.0])

    @property_settings
    @given(st.floats(0.5, 30.0, **finite).filter(lambda g: g != 5.2),
           st.floats(0.5, 100.0, **finite), st.floats(0.0, 500.0, **finite),
           st_horizon, st.floats(-60.0, 60.0, **finite),
           st.floats(1.0, 5.0, **finite), st.floats(0.0, 5.0, **finite),
           st.floats(0.0, 200.0, **finite), st.floats(0.0, 20.0, **finite))
    @example(6.0, 12.0, 95.0, 0.160, 1.7, 2.7, 1.55, 50.0, 10.0)
    def test_saturation_curve_takes_gamma_from_params(
            self, gamma_nat_mhz, i_sat, i_r, horizon, delta_mhz, chi,
            gamma_deph_mhz, tau_ns, rabi_mhz):
        # one point of the curve is P_c of the params built at that
        # intensity, bit for bit; the Omega of the curve's params is unused
        user = dict(delta_mhz=delta_mhz, chi=chi, gamma_deph_mhz=gamma_deph_mhz,
                    scale_f=4.1, tau_ns=tau_ns, gamma_nat_mhz=gamma_nat_mhz)
        at_i_r = ReadoutParams.from_user_units(
            i_r_mw_cm2=i_r, i_sat_mw_cm2=i_sat, **user)
        curve = saturation_curve(
            at_i_r.replace(omega=mhz_to_angular(rabi_mhz)), i_sat, [i_r],
            horizon)
        assert curve.ordinate[0] == pc_integral(at_i_r, horizon)

    def test_detuned_curve_saturates_later_and_lower_knee(self):
        i_grid = np.linspace(0.0, 200.0, 41)
        near = saturation_curve(self.base(1.7), self.i_sat, i_grid, horizon=0.160)
        far = saturation_curve(self.base(25.7), self.i_sat, i_grid, horizon=0.160)

        def knee(curve):
            half = 0.5 * curve.ordinate[-1]
            return np.interp(half, curve.ordinate, curve.abscissa)

        assert knee(far) > knee(near)

    def test_spectrum_zero_drive(self):
        curve = detuning_spectrum(self.base(), np.linspace(-40, 40, 9))
        assert np.all(curve.ordinate == 0)

    def test_spectrum_symmetry(self):
        # |B(t)|^2 is even in Delta: check pointwise and integrated
        deltas = np.array([3.3, 11.0, 27.5])
        t = np.linspace(0, 0.2, 101)
        for dm in deltas:
            plus = pc_at(t, self.base(dm).replace(omega=30.0))
            minus = pc_at(t, self.base(-dm).replace(omega=30.0))
            assert np.allclose(plus, minus, rtol=1e-14, atol=0)
        strong = self.base().replace(
            omega=rabi_from_intensity(127.0, self.i_sat, GAMMA))
        curve = detuning_spectrum(strong, np.concatenate([deltas, -deltas]),
                                  horizon=0.160)
        half = len(deltas)
        assert np.allclose(curve.ordinate[:half], curve.ordinate[half:],
                           rtol=1e-12)


st_horizons = st.lists(st.one_of(st.just(math.inf),
                                 st.floats(1e-3, 2.0, **finite)),
                       min_size=1, max_size=12)
CRITICAL_FLAT = ReadoutParams(omega=2.7 * GAMMA / 2, delta=0.0,
                              gamma_nat=GAMMA, chi=2.7, gamma_deph=0.0,
                              tau=0.05, scale_f=4.1)


class TestPerPointHorizon:
    """A horizon array gives every point the value of a call with that
    point's horizon, to the last bit, as omega and delta arrays do."""

    @property_settings
    @given(st_params, st_horizons)
    @example(CRITICAL_FLAT, [math.inf, 0.001, 0.160, math.inf])
    @example(CRITICAL_FLAT.replace(gamma_deph=mhz_to_angular(1.55)),
             [0.002, math.inf, 0.003, 0.300])
    def test_array_call_equals_scalar_calls(self, p, horizons):
        got = pc_integral(p, np.array(horizons))
        assert np.array_equal(got, [pc_integral(p, h) for h in horizons])

    @pytest.mark.parametrize("gamma_deph_mhz", [0.0, 1.55])
    def test_critical_points_with_mixed_horizons(self, gamma_deph_mhz):
        cases = list(critical_cases(gamma_deph_mhz, 0.05))
        p = cases[0].replace(chi=2.7)
        omega = np.array([c.omega for c in cases if c.chi == 2.7])[:, None]
        horizon = np.array([0.001, 0.003, 0.160, math.inf])
        got = pc_integral(p, horizon, omega=omega)
        assert got.shape == (omega.size, horizon.size)
        for (i, j), val in np.ndenumerate(got):
            assert val == pc_integral(p.replace(omega=omega[i, 0]), horizon[j])

    @pytest.mark.parametrize("ns", [1, 2, 3])
    def test_short_horizons_match_oracle(self, ns):
        rng = np.random.default_rng(ns)
        for i in range(30):
            chi = rng.uniform(1.0, 5.0)
            near_critical = i % 5 == 0
            omega = (chi * GAMMA / 2 * (1 + rng.uniform(-1e-3, 1e-3))
                     if near_critical else rng.uniform(0.05, 20.0) * GAMMA)
            p = ReadoutParams(
                omega=omega,
                delta=0.0 if near_critical else rng.uniform(-20, 20) * GAMMA,
                gamma_nat=GAMMA, chi=chi, tau=rng.uniform(0.0, 0.2),
                gamma_deph=0.0 if i % 3 == 0
                else mhz_to_angular(rng.uniform(0.0, 5.0)),
                scale_f=rng.uniform(0.1, 10.0))
            ref = adaptive_pc(p, ns * 1e-3, 1e-13)
            assert rel_err(pc_integral(p, ns * 1e-3), ref) <= 1e-11

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan])
    def test_every_horizon_checked(self, bad):
        with pytest.raises(ParamError) as info:
            pc_integral(PAPER_STYLE, np.array([0.160, bad, math.inf]))
        assert info.value.fields == ("horizon",)


def _domain_values(kind):
    """The ends of ``kind``'s range in ``params.DOMAIN``, with 0 and 1 where
    the range holds them."""
    lo, hi, _unit = DOMAIN[kind]
    return sorted({lo, hi} | {v for v in (0.0, 1.0) if lo <= v <= hi})


class TestDomain:
    """Every corner of ``params.DOMAIN`` (each field at an end of its range,
    or at 0 or 1), and every critically damped drive of one, gives finite
    ``pc_at``, ``amplitude_B`` and ``pc_integral`` without a RuntimeWarning
    (an error under this suite's settings); just outside, ParamError names
    the field."""

    FIELDS = ("delta", "gamma_nat", "chi", "gamma_deph", "tau", "scale_f")

    def test_corners_are_finite(self):
        t = np.array(_domain_values("t"))
        horizon = np.array(_domain_values("horizon") + [math.inf])
        for values in itertools.product(*map(_domain_values, self.FIELDS)):
            p = ReadoutParams(omega=0.0, **dict(zip(self.FIELDS, values)))
            critical = p.chi_gamma / 2 if p.delta == 0 else 0.0
            for omega in {*_domain_values("omega"), critical}:
                p = p.replace(omega=omega)
                assert np.isfinite(pc_integral(p, horizon)).all(), p
                assert np.isfinite(pc_at(t, p)).all(), p
                assert np.isfinite(amplitude_B(t, p)).all(), p

    def test_log_uniform_points_are_finite(self):
        # inside the corners: weak drives under a fast decay at long times
        # put alpha_+ within rounding of chi Gamma / 2, where the amplitude's
        # decaying exponent must not round up to a growing one
        rng = np.random.default_rng(3)

        def draw(kind, size=None):
            lo, hi, _unit = DOMAIN[kind]
            u = rng.uniform(math.log(max(lo, 1e-30)), math.log(hi), size)
            return np.clip(np.exp(u), lo, hi)
        t = np.append(draw("t", 8), 0.0)
        horizon = np.append(draw("horizon", 8), math.inf)
        for _ in range(400):
            p = ReadoutParams(omega=draw("omega"), gamma_nat=draw("gamma_nat"),
                              delta=draw("delta") * rng.choice([-1.0, 1.0]),
                              **{k: draw(k) * rng.integers(2)
                                 for k in ("gamma_deph", "tau")},
                              chi=draw("chi"), scale_f=draw("scale_f"))
            assert np.isfinite(pc_integral(p, horizon)).all(), p
            assert np.isfinite(pc_at(t, p)).all(), p
            assert np.isfinite(amplitude_B(t, p)).all(), p

    @pytest.mark.parametrize("field", ["omega", *FIELDS])
    def test_just_outside_names_the_field(self, field):
        lo, hi, _unit = DOMAIN[field]
        for bad in (math.nextafter(hi, math.inf), math.nextafter(lo, -math.inf),
                    math.nan):
            with pytest.raises(ParamError) as info:
                PAPER_STYLE.replace(**{field: bad})
            assert info.value.fields == (field,)

    @pytest.mark.parametrize("kind", ["t", "horizon", "omega", "delta"])
    def test_per_point_values_checked(self, kind):
        lo, hi, _unit = DOMAIN[kind]
        for bad in (math.nextafter(hi, math.inf), math.nextafter(lo, -math.inf)):
            with pytest.raises(ParamError) as info:
                if kind == "t":
                    pc_at(np.array([0.1, bad]), PAPER_STYLE)
                else:
                    pc_integral(PAPER_STYLE, **{kind: np.array([0.1, bad])})
            assert info.value.fields == (kind,)


def b_squared_terms_mp(t, omega, delta, chi_gamma):
    """|B(t)|^2 of the exact inputs to 40 digits, in its two parts: (the
    sinh^2 term, the amplitude of the sin^2 term, the sine's phase
    alpha_- t/2), so |B|^2 = first + second sin^2(third).  The working
    precision grows with chi Gamma t, whose sinh^2 and exp terms cancel in
    their exponents."""
    extra = max(0, math.ceil(math.log10(chi_gamma * t or 1.0)))
    with mpmath.workdps(40 + extra):
        t, om, de, cg = (mpmath.mpf(v) for v in (t, omega, delta, chi_gamma))
        t_mid = (om ** 2 + de ** 2) / 2 - cg ** 2 / 8
        s_rad = mpmath.sqrt(t_mid ** 2 + de ** 2 * cg ** 2 / 4)
        ap, am = mpmath.sqrt(s_rad - t_mid), mpmath.sqrt(s_rad + t_mid)
        decay = mpmath.exp(-cg * t / 2)
        if s_rad == 0:                  # z = 0: the limit Omega^2 t^2 / 4
            return om ** 2 * t ** 2 * decay / 4, mpmath.mpf(0), mpmath.mpf(0)
        scale = om ** 2 * decay / (2 * s_rad)       # |z|^2 = 2 s_rad
        return scale * mpmath.sinh(ap * t / 2) ** 2, scale, am * t / 2


def b_squared_mp(t, omega, delta, chi_gamma):
    sinh_term, amp, phase = b_squared_terms_mp(t, omega, delta, chi_gamma)
    with mpmath.workdps(40):
        return float(sinh_term + amp * mpmath.sin(phase) ** 2)


class TestRealBSquared:
    """The real |B|^2 core, and |amplitude_B|^2 at the domain corners,
    against a 40-digit |B|^2 of their exact inputs, within RTOL relative
    (the worst case of these tests measured 1.4e-15).
    """

    RTOL = 1e-14

    @staticmethod
    def core(t, omega, delta, chi_gamma):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return t, wavepacket._b_squared(
            t, *(np.full(t.size, v) for v in (omega, delta, chi_gamma)))

    def assert_close(self, t, omega, delta, chi_gamma):
        t, got = self.core(t, omega, delta, chi_gamma)
        for ti, value in zip(t, got):
            ref = b_squared_mp(ti, omega, delta, chi_gamma)
            assert abs(value - ref) <= self.RTOL * ref, (
                ti, omega, delta, chi_gamma, value, ref)

    @pytest.mark.parametrize("chi_gamma", [1e-20, 2.0, 2.7 * GAMMA, 1e40])
    def test_critical_point_exactly(self, chi_gamma):
        omega = chi_gamma / 2
        pair = alpha_pair(omega, 0.0, chi_gamma)
        assert pair.alpha_plus == pair.alpha_minus == 0.0      # z = 0
        self.assert_close(np.linspace(0.0, 20.0 / chi_gamma, 9), omega, 0.0,
                          chi_gamma)

    @pytest.mark.parametrize("eps", [1e-12, -1e-12, 1e-9, -1e-9, 1e-6,
                                     -1e-6, 1e-4, -1e-4, 1e-2, -1e-2])
    def test_near_critical_point(self, eps):
        # the drive or the detuning moves z off 0 by a relative eps
        cg = 2.7 * GAMMA
        t = np.linspace(0.0, 20.0 / cg, 11)
        self.assert_close(t, cg / 2 * (1 + eps), 0.0, cg)
        self.assert_close(t, cg / 2, eps * cg / 2, cg)

    @pytest.mark.parametrize("delta,chi_gamma", [(0.0, 2.0), (5.0, 88.0),
                                                 (-1e20, 1e-20), (1e20, 1e40)])
    def test_zero_drive(self, delta, chi_gamma):
        _, got = self.core([0.0, 1e-3, 1.0, 1e20], 0.0, delta, chi_gamma)
        assert np.all(got == 0.0)

    @pytest.mark.parametrize("chi_gamma,times", [
        (1e-20, [1e19, 1e20]),          # |z|^2 would be subnormal
        (2e39, [1e-40, 1e-39])])        # Omega^2/|z|^2 would overflow
    def test_tiny_z(self, chi_gamma, times):
        # on the critical drive a detuning of 1e-300 rad/us leaves
        # |z| = sqrt(|Delta| chi Gamma), around 1e-160 and 1e-130
        omega, delta = chi_gamma / 2, 1e-300
        pair = alpha_pair(omega, delta, chi_gamma)
        z2 = pair.alpha_plus ** 2 + pair.alpha_minus ** 2
        with np.errstate(over="ignore"):
            assert (0 < z2 < np.finfo(float).tiny
                    or not np.isfinite(np.float64(omega) ** 2 / z2))
        self.assert_close(times, omega, delta, chi_gamma)

    @staticmethod
    def domain_corners():
        """ReadoutParams at each corner of params.DOMAIN that sets |B|^2,
        and at its critical drive."""
        for delta, gamma_nat, chi in itertools.product(
                *map(_domain_values, ("delta", "gamma_nat", "chi"))):
            p = ReadoutParams(omega=0.0, delta=delta, gamma_nat=gamma_nat,
                              chi=chi)
            critical = p.chi_gamma / 2 if delta == 0 else 0.0
            for omega in {*_domain_values("omega"), critical}:
                yield p.replace(omega=omega)

    def assert_corners(self, squared):
        # where the phase alpha_- t/2 is beyond what a double resolves
        # (around 1e19 rad at the far corners), the value must lie between
        # the sinh^2 term and that term plus the sin^2 amplitude
        tiny = np.finfo(float).tiny
        t = np.array(_domain_values("t"))
        for p in self.domain_corners():
            omega, delta, cg = p.omega, p.delta, p.chi_gamma
            for ti, value in zip(t, squared(t, p)):
                case = (ti, omega, delta, cg, value)
                sinh_term, amp, phase = b_squared_terms_mp(ti, omega, delta,
                                                           cg)
                if phase < 1e6:
                    ref = b_squared_mp(ti, omega, delta, cg)
                    assert abs(value - ref) <= self.RTOL * ref + tiny, case
                else:
                    lo, hi = float(sinh_term), float(sinh_term + amp)
                    assert (lo * (1 - self.RTOL) - tiny <= value
                            <= hi * (1 + self.RTOL) + tiny), case

    def test_domain_corners(self):
        self.assert_corners(
            lambda t, p: self.core(t, p.omega, p.delta, p.chi_gamma)[1])

    def test_amplitude_domain_corners(self):
        # at t = 1e20 us, Omega = 1, chi Gamma = 1e20 rad/us, alpha_+ is
        # within rounding of chi Gamma/2, so the decay rests on _gap
        self.assert_corners(lambda t, p: np.abs(amplitude_B(t, p)) ** 2)

    def test_amplitude_matches_core_at_domain_corners(self):
        # both forms share alpha_+-, the gap and the sine's phase, so they
        # agree where the phase is beyond what a double resolves
        tiny = np.finfo(float).tiny
        t = np.array(_domain_values("t"))
        for p in self.domain_corners():
            _, core = self.core(t, p.omega, p.delta, p.chi_gamma)
            squared = np.abs(amplitude_B(t, p)) ** 2
            assert np.all(np.abs(squared - core)
                          <= 64 * np.finfo(float).eps * core + tiny), p
