"""Acceptance suite: one test per verification criterion.

Each test asserts its tolerance and runtime budget inline and prints one
`[criterion N] PASS/FAIL` line (visible with ``pytest -s`` and in captured
output on failure).  Criterion 4 is split:
the kernel-quadrature check and the statistical consistency check pass; the
5%-agreement clause between the exact continuum average of the pair kernel
and the closed form is strictly expected to fail and is marked xfail
accordingly - the closed form 1 + N/(2 W^2 k^2) exceeds the population mean
of the pair kernel, 1 + N<K>, by a factor ~2 in (chi - 1) on the reference
geometry, while the sampler and the exact continuum agree with each other.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qmemread import (EnsembleGeometry, ReadoutParams,
                      alpha_pair, amplitude_B, chi_closed_form,
                      chi_monte_carlo, chi_quadrature, conditional_wavepacket,
                      correlations, detuning_spectrum, evolve,
                      extraction_ceiling, ingest, mhz_to_angular, pc_at,
                      pc_curve, probabilities, rabi_from_intensity,
                      reconstruct_B, saturation_curve, synthesize_log,
                      write_log)
from qmemread.counting import SynthDesign
from qmemread.fitting import Dataset, fit, model_eval
from chi_oracle import chi_quadrature_kernel, pair_kernel
from dynamics_oracle import norm_decay_check

GAMMA = mhz_to_angular(5.2)

PAPER_PARAMS = ReadoutParams.from_user_units(
    delta_mhz=1.7, chi=2.7, gamma_deph_mhz=1.55, scale_f=4.1,
    i_r_mw_cm2=95.0, i_sat_mw_cm2=12.0)

REF_GEOMETRY = EnsembleGeometry(n_atoms=2e6, waist_m=1e-4, length_m=1e-3,
                                wavenumber_per_m=1e7)


@contextmanager
def criterion(num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {label}")
        raise
    print(f"[criterion {num}] PASS - {label} ({time.perf_counter() - t0:.1f} s)")


def test_criterion_1_closed_form_identities():
    with criterion(1, "exponent identities over 1000 random draws"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        omega = rng.uniform(0.0, 20.0 * GAMMA, 1000)
        delta = rng.uniform(-20.0 * GAMMA, 20.0 * GAMMA, 1000)
        chi_gamma = rng.uniform(1.0, 5.0, 1000) * GAMMA

        pair = alpha_pair(omega, delta, chi_gamma)
        prod_target = np.abs(delta) * chi_gamma / 2.0
        prod = pair.alpha_plus * pair.alpha_minus
        rel_prod = np.abs(prod - prod_target) / np.maximum(prod_target, 1e-300)
        assert np.max(rel_prod) <= 1e-10

        diff = pair.alpha_minus ** 2 - pair.alpha_plus ** 2
        diff_target = omega ** 2 + delta ** 2 - chi_gamma ** 2 / 4.0
        scale = np.maximum(np.abs(diff_target),
                           pair.alpha_plus ** 2 + pair.alpha_minus ** 2)
        assert np.max(np.abs(diff - diff_target) / scale) <= 1e-10

        assert np.all(pair.alpha_plus < chi_gamma / 2.0)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "analytic |B|^2 vs integrated |beta b|^2, 100 draws"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        draws = []
        for _ in range(34):   # underdamped, resonant
            chi = rng.uniform(1.0, 5.0)
            cg = chi * GAMMA
            draws.append((rng.uniform(0.55, 6.0) * cg, 0.0, chi))
        for _ in range(33):   # overdamped, resonant
            chi = rng.uniform(1.0, 5.0)
            cg = chi * GAMMA
            draws.append((rng.uniform(0.02, 0.45) * cg, 0.0, chi))
        for _ in range(33):   # detuned
            draws.append((rng.uniform(0.1, 5.0) * GAMMA,
                          rng.uniform(-20.0, 20.0) * GAMMA,
                          rng.uniform(1.0, 5.0)))
        t_end = 10.0 / GAMMA
        worst = 0.0
        for om, de, chi in draws:
            p = ReadoutParams(omega=om, delta=de, gamma_nat=GAMMA, chi=chi)
            traj = evolve(p, t_end=t_end, rel_tol=1e-10, abs_tol=1e-12,
                          n_report=1501)
            got = np.abs(reconstruct_B(traj)) ** 2
            ref = np.abs(amplitude_B(traj.t, p)) ** 2
            worst = max(worst, float(np.max(np.abs(got - ref)) / np.max(ref)))
        assert worst <= 1e-6, f"worst relative deviation {worst:.3g}"
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_rabi_limit():
    with criterion(3, "ideal Rabi flopping at chi*Gamma = 1e-9*Gamma"):
        t0 = time.perf_counter()
        omega = 2.0 * math.pi
        p = ReadoutParams(omega=omega, delta=0.0, gamma_nat=1e-9 * GAMMA,
                          chi=1.0)
        traj = evolve(p, t_end=2.0, rel_tol=1e-10, abs_tol=1e-12)
        pop_a = np.abs(traj.a_vals) ** 2
        pop_b = np.abs(traj.b_field) ** 2
        assert np.max(np.abs(pop_a - np.cos(omega * traj.t / 2) ** 2)) <= 1e-6
        assert np.max(np.abs(pop_b - np.sin(omega * traj.t / 2) ** 2)) <= 1e-6
        assert time.perf_counter() - t0 < 5.0


def test_criterion_4_kernel_quadrature_vs_sinc():
    with criterion(4, "disk quadrature equals the sinc kernel to 1e-6"):
        k = REF_GEOMETRY.wavenumber_per_m
        rng = np.random.default_rng(12)
        assert abs(chi_quadrature_kernel((0, 0, 0), k) - 1.0) <= 1e-6
        assert abs(chi_quadrature_kernel((math.pi / k, 0, 0), k)) <= 1e-6
        for _ in range(15):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            d = u * rng.uniform(0.0, 50.0) / k
            assert abs(chi_quadrature_kernel(d, k) - float(pair_kernel(d, k))) \
                <= 1e-6


def test_criterion_4_monte_carlo_vs_closed_form_3se():
    with criterion(4, "pair sampler vs closed form within 3 standard errors"):
        t0 = time.perf_counter()
        mc, se = chi_monte_carlo(REF_GEOMETRY, 1_000_000, seed=2718)
        cf = chi_closed_form(REF_GEOMETRY)
        assert abs(mc - cf) <= 3.0 * se, \
            f"mc {mc:.3f} +- {se:.3f} vs cf {cf:.3f}"
        assert time.perf_counter() - t0 < 60.0


@pytest.mark.xfail(
    strict=True,
    reason="closed form 1 + N/(2 W^2 k^2) sits a factor ~2 above the pair-"
           "kernel population mean 1 + N<K> in (chi - 1) on this geometry "
           "(2.000 vs the exact continuum's 1.49998, which the sampler agrees "
           "with), so 5% agreement with the closed form is unattainable")
def test_criterion_4_continuum_vs_closed_form_5pct():
    # the exact continuum, not one sampler draw (SE ~0.25), so the outcome
    # does not depend on a seed
    with criterion(4, "exact continuum vs closed form within 5% (known gap)"):
        qd = chi_quadrature(REF_GEOMETRY)
        cf = chi_closed_form(REF_GEOMETRY)
        assert abs(qd - cf) <= 0.05 * cf, \
            f"continuum {qd:.4f} vs cf {cf:.4f}"


def test_criterion_4_sampler_quadrature_cross_check():
    # supporting evidence for the xfail above: the two kernel-based
    # estimators agree with each other on the same geometry
    with criterion(4, "pair sampler vs exact continuum (consistency)"):
        mc, se = chi_monte_carlo(REF_GEOMETRY, 1_000_000, seed=2718)
        qd = chi_quadrature(REF_GEOMETRY)
        assert abs(mc - qd) <= 3.0 * se


def test_criterion_5_extraction_ceiling():
    with criterion(5, "first-decay extraction ceiling"):
        assert extraction_ceiling(1.0) == 0.5
        chis = np.linspace(1.0, 20.0, 400)
        vals = np.array([extraction_ceiling(c) for c in chis])
        assert np.all(np.diff(vals) > 0)


def test_criterion_6_fit_round_trip():
    with criterion(6, "global-fit round trip, 100 seeds, 5% recovery"):
        t0 = time.perf_counter()
        truth = {"gamma_deph": mhz_to_angular(1.55), "i_sat": 12.0,
                 "chi": 2.7, "scale_f": 4.1}
        t = np.arange(0.0, 161.0, 2.0)
        i_grid = np.array([5, 10, 20, 30, 45, 60, 80, 100, 125, 150, 175,
                           200.0])
        shells = [Dataset(kind="wavepacket", x=t, y=np.zeros_like(t),
                          sigma=np.ones_like(t), delta_mhz=dm, i_r=ir)
                  for dm, irs in ((1.7, (32.0, 68.0, 95.0)),
                                  (25.7, (52.0, 80.0, 160.0)))
                  for ir in irs]
        shells += [Dataset(kind="saturation", x=i_grid,
                           y=np.zeros_like(i_grid),
                           sigma=np.ones_like(i_grid), delta_mhz=dm)
                   for dm in (1.7, 25.7)]
        clean = []
        for ds in shells:
            y = model_eval(truth, ds, GAMMA, 0.05)
            sigma = 0.03 * np.maximum(y, 0.02 * y.max())
            clean.append((ds, y, sigma))

        init = {"gamma_deph": mhz_to_angular(1.0), "i_sat": 10.0,
                "chi": 2.0, "scale_f": 1.0}
        n_ok = 0
        for seed in range(100):
            rng = np.random.default_rng(31_000 + seed)
            noisy = [Dataset(kind=ds.kind, x=ds.x,
                             y=y + rng.normal(0.0, sigma), sigma=sigma,
                             delta_mhz=ds.delta_mhz, i_r=ds.i_r)
                     for ds, y, sigma in clean]
            res = fit(noisy, init=init, gamma_nat=GAMMA, tau=0.05)
            ok = res.converged and all(
                abs(res.values[k] - truth[k]) / truth[k] <= 0.05
                for k in truth)
            n_ok += ok
        assert n_ok >= 95, f"only {n_ok}/100 seeds recovered within 5%"
        dt = time.perf_counter() - t0
        assert dt < 300.0
        print(f"       round trip: {n_ok}/100 seeds within 5% in {dt:.0f} s")


def test_criterion_7_shape_properties():
    with criterion(7, "spectrum symmetry/peak, saturation knee, decay"):
        base = ReadoutParams(omega=0.0, delta=0.0, gamma_nat=GAMMA, chi=2.7,
                             gamma_deph=mhz_to_angular(1.55), scale_f=4.8)
        # (a) symmetric, single-peaked spectrum at strong drive
        deltas = np.linspace(-40.0, 40.0, 41)
        spec = detuning_spectrum(
            base.replace(omega=rabi_from_intensity(127.0, 12.0, GAMMA)), deltas,
            horizon=0.160)
        pc = spec.ordinate
        assert np.allclose(pc, pc[::-1], rtol=1e-10)
        half = pc[20:]                      # Delta >= 0 branch
        assert np.all(np.diff(half) < 0)    # falls monotonically off resonance
        assert pc[20] == pc.max()

        # (b) saturation knee shifts to higher intensity with detuning
        i_grid = np.linspace(0.0, 200.0, 41)
        base_f41 = base.replace(scale_f=4.1)
        near = saturation_curve(base_f41.replace(delta=mhz_to_angular(1.7)),
                                12.0, i_grid, horizon=0.160)
        far = saturation_curve(base_f41.replace(delta=mhz_to_angular(25.7)),
                               12.0, i_grid, horizon=0.160)

        def knee(curve):
            half_val = 0.5 * curve.ordinate[-1]
            return float(np.interp(half_val, curve.ordinate, curve.abscissa))

        assert knee(far) > knee(near)

        # (c) the strong-drive wavepacket dies inside the 160 ns window
        curve = pc_curve(PAPER_PARAMS, 0.0, 0.160, 161)
        assert curve.pc_per_ns[-1] < 0.10 * curve.pc_per_ns.max()


def test_criterion_8_statistics_pipeline(tmp_path):
    with criterion(8, "synth -> log file -> stats at 1e6 trials"):
        t0 = time.perf_counter()
        design = SynthDesign(n_trials=1_000_000, p1=0.0036,
                             background_per_ns=1e-6)
        store = synthesize_log(PAPER_PARAMS, design, seed=515)
        log_path = tmp_path / "log.csv"
        write_log(store, log_path)
        back = ingest(log_path, n_trials=design.n_trials)

        herald_w = (design.herald_t_ns, design.herald_t_ns)
        field2_w = (design.read_start_ns, design.read_start_ns + 299)
        summary = correlations(probabilities(back, herald_w, field2_w))

        # planted herald probability within 3 sigma (binomial)
        se = math.sqrt(0.0036 * (1 - 0.0036) / design.n_trials)
        assert abs(summary.p1 - 0.0036) <= 3 * se

        # nonclassical flag fires at low background
        assert summary.quantum_g12 is True and summary.g12 > 2

        # empirical wavepacket histogram vs the analytic curve:
        # merge bins to >= 8 expected counts, then chi^2 per bin ~ 1
        binned = conditional_wavepacket(back, herald_w, 1,
                                        t_range=(50, 350))
        grid = np.linspace(0.0, 0.3, 2401)
        dens = pc_at(grid, PAPER_PARAMS)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                               * np.diff(grid))])
        t_lo = (binned.t_lo_ns - design.read_start_ns) * 1e-3
        expect = (np.interp(t_lo + 1e-3, grid, cum)
                  - np.interp(t_lo, grid, cum)) * binned.n_heralds
        chunks, acc_o, acc_e = [], 0.0, 0.0
        for o, e in zip(binned.n_coinc, expect):
            acc_o += o
            acc_e += e
            if acc_e >= 8.0:
                chunks.append((acc_o, acc_e))
                acc_o = acc_e = 0.0
        assert len(chunks) >= 5
        z2 = [(o - e) ** 2 / e for o, e in chunks]
        mean_chi2 = float(np.mean(z2))
        assert 0.2 <= mean_chi2 <= 2.2, f"per-bin chi^2 {mean_chi2:.2f}"

        # heavy uncorrelated background pushes g12 to 1
        heavy = SynthDesign(n_trials=300_000, p1=0.0036,
                            background_per_ns=3e-4)
        store_h = synthesize_log(PAPER_PARAMS, heavy, seed=516)
        s_h = correlations(probabilities(store_h, (0, 49), field2_w))
        assert abs(s_h.g12 - 1.0) <= 0.1

        dt = time.perf_counter() - t0
        assert dt < 120.0
        print(f"       pipeline: p1 = {summary.p1:.5f}, g12 = "
              f"{summary.g12:.1f}, per-bin chi^2 = {mean_chi2:.2f}, "
              f"diluted g12 = {s_h.g12:.3f} ({dt:.0f} s)")


def test_criterion_9_norm_decay_law():
    with criterion(9, "norm-decay residual <= 1e-6*Gamma at rel_tol 1e-10"):
        rng = np.random.default_rng(99)
        for _ in range(3):
            p = ReadoutParams(omega=rng.uniform(0.3, 2.0) * GAMMA,
                              delta=rng.uniform(-2.0, 2.0) * GAMMA,
                              gamma_nat=GAMMA, chi=rng.uniform(1.0, 3.0))
            traj = evolve(p, t_end=10.0 / GAMMA, rel_tol=1e-10,
                          abs_tol=1e-13, n_report=32001)
            resid = norm_decay_check(traj, p)
            assert resid <= 1e-6 * GAMMA, f"residual {resid / GAMMA:.3g}*Gamma"
