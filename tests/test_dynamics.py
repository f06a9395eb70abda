import math

import numpy as np
import pytest

from dynamics_oracle import norm_decay_check
from qmemread import (IntegrationError, ParamError, ReadoutParams,
                      amplitude_B, evolve, mhz_to_angular, reconstruct_B)

GAMMA = mhz_to_angular(5.2)


def random_params(n, seed, omega_hi=3.0, delta_hi=3.0, chi_hi=3.0):
    """Moderate random draws covering under/over-damped and detuned regimes."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(ReadoutParams(
            omega=rng.uniform(0.05, omega_hi) * GAMMA,
            delta=rng.uniform(-delta_hi, delta_hi) * GAMMA,
            gamma_nat=GAMMA, chi=rng.uniform(1.0, chi_hi)))
    return out


class TestEvolve:
    def test_zero_drive_is_static(self):
        p = ReadoutParams(omega=0.0, delta=5.0, gamma_nat=GAMMA, chi=2.0)
        traj = evolve(p, t_end=0.3)
        assert np.all(traj.a_vals == 1.0)
        assert np.all(traj.b_field == 0.0)

    def test_preconditions(self):
        p = ReadoutParams(omega=1.0, delta=0.0, gamma_nat=GAMMA)
        with pytest.raises(ParamError):
            evolve(p, t_end=0.0)
        with pytest.raises(ParamError):
            evolve(p, t_end=0.1, rel_tol=1e-2)
        with pytest.raises(ParamError):
            evolve(p, t_end=0.1, abs_tol=0.0)

    def test_ideal_rabi_limit(self):
        # chi*Gamma -> 0: pure two-level flopping at Omega
        omega = 2 * math.pi
        p = ReadoutParams(omega=omega, delta=0.0, gamma_nat=1e-9 * GAMMA, chi=1.0)
        traj = evolve(p, t_end=2.0)
        pop_a = np.abs(traj.a_vals) ** 2
        pop_b = np.abs(traj.b_field) ** 2
        assert np.max(np.abs(pop_a - np.cos(omega * traj.t / 2) ** 2)) <= 1e-6
        assert np.max(np.abs(pop_b - np.sin(omega * traj.t / 2) ** 2)) <= 1e-6

    def test_matches_closed_form_both_branches(self):
        # weak and strong decay over the horizon: chi*Gamma*t_end on
        # either side of 40
        t_end = 10.0 / GAMMA
        for chi in (1.2, 4.9):
            p = ReadoutParams(omega=1.5 * GAMMA, delta=0.7 * GAMMA,
                              gamma_nat=GAMMA, chi=chi)
            assert (p.chi_gamma * t_end > 40) == (chi == 4.9)
            traj = evolve(p, t_end=t_end)
            b_rec = reconstruct_B(traj)
            b_ref = amplitude_B(traj.t, p)
            scale = np.max(np.abs(b_ref) ** 2)
            assert np.max(np.abs(np.abs(b_rec) ** 2 - np.abs(b_ref) ** 2)) <= 1e-8 * scale

    def test_long_horizon_past_beta_underflow(self):
        # chi*Gamma*t_end ~ 1600: beta = exp(-chi Gamma t/2) underflows to 0
        # on the late grid, where the stored B must stay finite and exact
        p = ReadoutParams(omega=30.0, delta=5.0, chi=1.0)
        traj = evolve(p, t_end=50.0)
        assert math.exp(-0.5 * p.chi_gamma * 50.0) == 0.0
        assert np.all(np.isfinite(traj.b_field)) and np.all(np.isfinite(traj.norm))
        rotated = reconstruct_B(traj) * np.exp(-1j * p.delta * traj.t)
        ref = amplitude_B(traj.t, p)
        assert np.max(np.abs(rotated - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_full_complex_agreement_up_to_detuning_rotation(self):
        # The integrated frame differs from the closed form by exp(i Delta t).
        # With both exponents taken nonnegative the closed form is the exact
        # complex solution for Delta >= 0 and its conjugate for Delta < 0
        # (|B| is unaffected, which is all that enters p_c); compare the
        # full complex amplitude on the Delta >= 0 side.
        for p in random_params(10, seed=42):
            p = p.replace(delta=abs(p.delta))
            t_end = 8.0 / GAMMA
            traj = evolve(p, t_end=t_end)
            rotated = reconstruct_B(traj) * np.exp(-1j * p.delta * traj.t)
            ref = amplitude_B(traj.t, p)
            assert np.max(np.abs(rotated - ref)) <= 1e-8 * max(np.max(np.abs(ref)), 1e-30)

    def test_magnitude_agreement_any_detuning_sign(self):
        for p in random_params(10, seed=43):
            traj = evolve(p, t_end=8.0 / GAMMA)
            got = np.abs(reconstruct_B(traj)) ** 2
            ref = np.abs(amplitude_B(traj.t, p)) ** 2
            assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(ref)

    def test_norm_never_grows(self):
        for p in random_params(10, seed=9):
            traj = evolve(p, t_end=6.0 / GAMMA)
            n = traj.norm
            assert np.all(n <= 1.0 + 1e-12)
            assert np.all(np.diff(n) <= 1e-10)


class TestReconstruct:
    def test_starts_at_zero(self):
        p = ReadoutParams(omega=GAMMA, delta=GAMMA, gamma_nat=GAMMA, chi=1.5)
        traj = evolve(p, t_end=0.2)
        assert reconstruct_B(traj)[0] == 0

    def test_zero_drive_all_zero(self):
        p = ReadoutParams(omega=0.0, delta=GAMMA, gamma_nat=GAMMA, chi=1.5)
        traj = evolve(p, t_end=0.2)
        assert np.all(reconstruct_B(traj) == 0)


class TestNormDecay:
    def test_static_case_zero_residual(self):
        p = ReadoutParams(omega=0.0, delta=0.0, gamma_nat=GAMMA, chi=2.0)
        traj = evolve(p, t_end=0.3)
        assert norm_decay_check(traj, p) == 0.0

    def test_needs_enough_points(self):
        p = ReadoutParams(omega=GAMMA, delta=0.0, gamma_nat=GAMMA)
        traj = evolve(p, t_end=0.3, n_report=5)
        with pytest.raises(ParamError):
            norm_decay_check(traj, p)

    def test_residual_small_at_tight_tolerance(self):
        for p in random_params(3, seed=17, omega_hi=2.0, delta_hi=2.0):
            traj = evolve(p, t_end=10.0 / GAMMA, rel_tol=1e-10, abs_tol=1e-13,
                          n_report=32001)
            assert norm_decay_check(traj, p) <= 1e-6 * GAMMA

    def test_residual_improves_with_tolerance(self):
        # on a fixed coarse-enough grid the integration error dominates
        p = ReadoutParams(omega=1.3 * GAMMA, delta=0.4 * GAMMA,
                          gamma_nat=GAMMA, chi=2.0)
        loose = evolve(p, t_end=6.0 / GAMMA, rel_tol=1e-4, abs_tol=1e-6,
                       n_report=32001)
        tight = evolve(p, t_end=6.0 / GAMMA, rel_tol=1e-10, abs_tol=1e-13,
                       n_report=32001)
        assert norm_decay_check(tight, p) < norm_decay_check(loose, p)


class TestSelfConvergence:
    def test_error_scales_with_tolerance(self):
        p = ReadoutParams(omega=1.7 * GAMMA, delta=0.9 * GAMMA,
                          gamma_nat=GAMMA, chi=2.2)
        t_end = 8.0 / GAMMA

        def err(rtol):
            traj = evolve(p, t_end=t_end, rel_tol=rtol, abs_tol=rtol * 1e-3)
            rot = reconstruct_B(traj) * np.exp(-1j * p.delta * traj.t)
            return np.max(np.abs(rot - amplitude_B(traj.t, p)))

        errs = [err(r) for r in (1e-5, 1e-7, 1e-9)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-3 * errs[0]
