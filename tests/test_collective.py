import inspect
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from scipy.stats import ks_2samp

import qmemread.collective as collective
import qmemread.counting as counting
from qmemread import (EnsembleGeometry, ParamError, branching_ratio,
                      chi_closed_form, chi_monte_carlo, chi_quadrature,
                      extraction_ceiling)
from chi_oracle import (chi_quadrature_kernel, grid_chi_continuum,
                        pair_kernel, serial_chi_monte_carlo,
                        two_position_chi_monte_carlo, two_position_separations)

# reference geometry: typical cold-ensemble memory scales
GEOM = EnsembleGeometry(n_atoms=2e6, waist_m=1e-4, length_m=1e-3,
                        wavenumber_per_m=1e7)
# small geometry on which the sampler's SE is a small fraction of chi - 1
SMALL = EnsembleGeometry(n_atoms=50, waist_m=0.3e-6, length_m=1e-6,
                         wavenumber_per_m=1e7)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ParamError) as exc:
            EnsembleGeometry(n_atoms=-1, waist_m=0.0, length_m=1e-3,
                             wavenumber_per_m=1e7)
        assert set(exc.value.fields) == {"n_atoms", "waist_m"}

    @pytest.mark.parametrize("waist,length,k,fields", [
        (1e-300, 1e-3, 1e7, ("waist_m", "wavenumber_per_m")),
        (1e-4, 1e200, 1e7, ("length_m", "wavenumber_per_m")),
        (1e-4, 1e-3, 1e300, ("waist_m", "wavenumber_per_m")),
        (1e-4, 1e-3, 5e-324, ("waist_m", "wavenumber_per_m"))])
    def test_products_with_k_bounded(self, waist, length, k, fields):
        # (kW)^2 and (kL)^2 within [1e-100, 1e100], so the estimators'
        # squares neither overflow nor underflow to 0
        with pytest.raises(ParamError) as exc:
            EnsembleGeometry(n_atoms=1.0, waist_m=waist, length_m=length,
                             wavenumber_per_m=k)
        assert exc.value.fields == fields

    @pytest.mark.parametrize("n_atoms", [1e308, 2e304])
    def test_closed_form_chi_finite(self, n_atoms):
        # at (kW)^2 = 1e-4, N = 1e308 overflows chi itself, and N = 2e304
        # gives chi = 1e308, whose branching ratio 2 chi - 1 overflows
        with pytest.raises(ParamError) as exc:
            EnsembleGeometry(n_atoms=n_atoms, waist_m=1e-9, length_m=1e-3,
                             wavenumber_per_m=1e7)
        assert exc.value.fields == ("n_atoms", "waist_m", "wavenumber_per_m")
        # chi = 2.5e307: its branching ratio and ceiling stay finite
        geom = EnsembleGeometry(n_atoms=5e303, waist_m=1e-9, length_m=1e-3,
                                wavenumber_per_m=1e7)
        with pytest.warns(UserWarning, match="validity regime"):
            chi = chi_closed_form(geom)
        assert math.isfinite(branching_ratio(chi))
        assert math.isfinite(extraction_ceiling(chi))

    def test_products_near_the_domain_edges_accepted(self):
        for kw in (1e-49, 1e49):
            geom = EnsembleGeometry(n_atoms=1.0, waist_m=kw, length_m=kw,
                                    wavenumber_per_m=1.0)
            assert math.isfinite(chi_quadrature(geom))

    def test_regime_flags(self):
        assert all(GEOM.regime_flags.values())
        fat = EnsembleGeometry(n_atoms=10, waist_m=1e-7, length_m=1e-3,
                               wavenumber_per_m=1e7)
        assert not fat.regime_flags["waist_resolved"]


class TestClosedForm:
    def test_empty_ensemble(self):
        geom = EnsembleGeometry(n_atoms=0, waist_m=1e-4, length_m=1e-3,
                                wavenumber_per_m=1e7)
        assert chi_closed_form(geom) == 1.0

    def test_reference_geometry(self):
        assert chi_closed_form(GEOM) == pytest.approx(2.0, rel=1e-12)

    def test_atom_number_inversion(self):
        # N that the closed form assigns to chi = 2.7 at the same W, k
        w, k = GEOM.waist_m, GEOM.wavenumber_per_m
        n = (2.7 - 1.0) * 2 * w * w * k * k
        assert n == pytest.approx(3.4e6, rel=1e-12)
        geom = EnsembleGeometry(n_atoms=n, waist_m=w, length_m=GEOM.length_m,
                                wavenumber_per_m=k)
        assert chi_closed_form(geom) == pytest.approx(2.7, rel=1e-12)

    def test_warns_outside_regime(self):
        fat = EnsembleGeometry(n_atoms=100.0, waist_m=1e-6, length_m=1.0,
                               wavenumber_per_m=1e7)
        with pytest.warns(UserWarning):
            chi_closed_form(fat)


class TestPairKernel:
    def test_coincident_pair(self):
        assert pair_kernel(np.zeros(3), 1e7) == pytest.approx(1.0)

    def test_matches_formula(self):
        rng = np.random.default_rng(2)
        d = rng.normal(0, 1e-7, (20, 3))
        k = 1e7
        r = np.linalg.norm(d, axis=1)
        expected = np.cos(k * d[:, 2]) * np.sin(k * r) / (k * r)
        assert np.allclose(pair_kernel(d, k), expected, rtol=1e-12)


class TestQuadratureKernel:
    def test_zero_separation(self):
        assert chi_quadrature_kernel((0.0, 0.0, 0.0), 1e7) == pytest.approx(1.0, abs=1e-10)

    def test_transverse_zero_of_sinc(self):
        k = 1e7
        val = chi_quadrature_kernel((math.pi / k, 0.0, 0.0), k)
        assert abs(val) <= 1e-6

    def test_matches_sinc_reduction(self):
        rng = np.random.default_rng(8)
        k = 1e7
        for _ in range(25):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            d = u * rng.uniform(0.0, 50.0) / k
            quad = chi_quadrature_kernel(d, k)
            sinc = float(pair_kernel(d, k))
            assert abs(quad - sinc) <= 1e-6

    def test_invalid_wavenumber(self):
        with pytest.raises(ParamError):
            chi_quadrature_kernel((0, 0, 0), 0.0)


def _sweep_geometries():
    """(kW, L/W) pairs: both signs of c = b - a, |c|/b from 1e-4 to 1e-14,
    c = 0 exactly, and sub-wavelength waists."""
    pairs = [(kw, r) for kw in (1e-4, 0.01, 0.5, 3.0, 30.0, 300.0, 3000.0)
             for r in (0.03, 0.3, 3.0, 30.0)]
    pairs += [(kw, 1.0 + d) for kw in (0.5, 3.0, 300.0)
              for d in (1e-4, -1e-4, 1e-8, -1e-10, 1e-12, 1e-14)]
    pairs += [(kw, 1.0) for kw in (1e-4, 0.01, 3.0, 300.0)]
    k = 1e7
    return [EnsembleGeometry(n_atoms=1e6, waist_m=kw / k, length_m=kw * r / k,
                             wavenumber_per_m=k) for kw, r in pairs]


SWEEP = _sweep_geometries()


def _ab(geom):
    k = geom.wavenumber_per_m
    return (k * geom.waist_m) ** 2, (k * geom.length_m) ** 2


def mean_kernel_mp(a, b):
    """<K> = 1/2 int_0^2 exp(-2 a v - (b - a) v^2) dv to 40 digits."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        c = b - a
        # break the range at the integrand's decay scales 1/a, 10/a, 100/a
        pts = [mpmath.mpf(0)] + [j / a for j in (1, 10, 100)
                                 if a > 0 and j / a < 2] + [mpmath.mpf(2)]
        return float(mpmath.quad(lambda v: mpmath.exp(-2 * a * v - c * v * v),
                                 pts) / 2)


class TestContinuumClosedForm:
    def test_mean_kernel_against_mpmath(self):
        for geom in SWEEP:
            a, b = _ab(geom)
            ref = mean_kernel_mp(a, b)
            got = collective._mean_kernel(a, b)
            assert abs(got - ref) <= 1e-13 * ref, (a, b, got, ref)
            assert chi_quadrature(geom) == 1.0 + geom.n_atoms * got

    def test_against_simpson_grid(self):
        # the 2 x 4001-point graded grid is good to 5.3e-4 in <K> on this
        # sweep; its worst point is the flat cloud kW = 30, L/W = 0.03, where
        # the coarse second run misses the integrand's peak at v = 2
        for geom in SWEEP:
            quad = chi_quadrature(geom)
            grid = grid_chi_continuum(geom)
            assert abs(quad - grid) <= 1e-3 * (quad - 1.0), (geom, quad, grid)

    def test_reference_geometry_value(self):
        assert chi_quadrature(GEOM) == pytest.approx(1.49997525367,
                                                     rel=0, abs=1e-11)

    def test_smallest_geometry_gives_full_kernel(self):
        # at the low edge of the domain, kW and kL near 1e-50, <K> is 1 to
        # rounding; below it (kW)^2 would underflow, and is rejected
        geom = EnsembleGeometry(n_atoms=3.0, waist_m=1e-57, length_m=2e-57,
                                wavenumber_per_m=1e7)
        assert chi_quadrature(geom) == pytest.approx(4.0, rel=1e-15)
        with pytest.raises(ParamError) as info:
            EnsembleGeometry(n_atoms=3.0, waist_m=1e-160, length_m=2e-160,
                             wavenumber_per_m=1e-160)
        assert info.value.fields == ("waist_m", "wavenumber_per_m")

    def test_empty_ensemble(self):
        geom = EnsembleGeometry(n_atoms=0, waist_m=1e-4, length_m=1e-3,
                                wavenumber_per_m=1e7)
        assert chi_quadrature(geom) == 1.0


class TestMonteCarlo:
    def test_empty_ensemble(self):
        geom = EnsembleGeometry(n_atoms=0, waist_m=1e-4, length_m=1e-3,
                                wavenumber_per_m=1e7)
        assert chi_monte_carlo(geom, 1000, seed=0) == (1.0, 0.0)

    def test_sample_count_precondition(self):
        with pytest.raises(ParamError):
            chi_monte_carlo(GEOM, 50, seed=0)

    def test_sample_count_fits_int64(self):
        # the bound, 1e8 pairs, holds every count within int64 and memory
        for n_samples in (2**63, 10**8 + 1):
            with pytest.raises(ParamError,
                               match="n_samples <= 1e\\+08") as exc:
                chi_monte_carlo(GEOM, n_samples, seed=0)
            assert exc.value.fields == ("n_samples",)

    def test_deterministic_for_fixed_seed(self):
        a = chi_monte_carlo(GEOM, 20000, seed=123)
        assert chi_monte_carlo(GEOM, 20000, seed=123) == a
        assert chi_monte_carlo(GEOM, 20000, seed=124)[0] != a[0]

    def test_agrees_with_continuum_quadrature(self):
        # the sampler and the cloud-averaged quadrature estimate the same
        # population quantity; they must agree statistically
        mc, se = chi_monte_carlo(GEOM, 400_000, seed=31)
        assert abs(mc - chi_quadrature(GEOM)) <= 3.0 * se

    def test_standard_error_scaling(self):
        # se ~ n^{-1/2}: regression slope -0.5 +- 0.1 on log-log.  One seed's
        # slope scatters by about 0.07 (15 % of seeds miss the bound), so
        # log se is averaged over eight seeds, which cuts that to about 0.025
        sizes = np.array([20_000, 80_000, 320_000])
        log_se = [np.mean([math.log(chi_monte_carlo(GEOM, int(n), seed=s)[1])
                           for s in range(77, 85)])
                  for n in sizes]
        slope = np.polyfit(np.log(sizes), log_se, 1)[0]
        assert abs(slope + 0.5) <= 0.1

    def test_estimates_are_plain_numbers(self):
        # the exact estimates are floats, the sampler's a (chi, SE) pair of
        # floats, the form of the oracles in chi_oracle
        assert type(chi_closed_form(GEOM)) is float
        assert type(chi_quadrature(GEOM)) is float
        est = chi_monte_carlo(GEOM, 20_000, seed=1)
        assert type(est) is tuple and [type(x) for x in est] == [float, float]

    def test_all_methods_at_least_one(self):
        for chi, se in ((chi_closed_form(GEOM), 0.0),
                        (chi_quadrature(GEOM), 0.0),
                        chi_monte_carlo(GEOM, 50_000, seed=5)):
            assert chi >= 1.0 - 3.0 * se


class TestSeparationLaw:
    """Drawing (rho^2, d_z) from their law estimates the same chi as
    drawing two 3-D positions and subtracting them."""

    def test_agrees_with_two_position_form_and_quadrature(self):
        # on SMALL the SE is about 0.4 % of chi - 1 at 1e6 pairs
        chi, chi_se = chi_monte_carlo(SMALL, 1_000_000, seed=2718)
        value, se = two_position_chi_monte_carlo(SMALL, 1_000_000, seed=2718)
        quad = chi_quadrature(SMALL)
        assert chi_se <= 0.01 * (quad - 1.0)
        assert abs(chi - value) <= 5.0 * math.hypot(chi_se, se)
        assert abs(chi - quad) <= 5.0 * chi_se
        assert abs(value - quad) <= 5.0 * se

    def test_draws_match_position_difference(self, monkeypatch):
        # record the (k d_z, k |d|) the sampler hands its kernel, and compare
        # d_z, |d| and rho^2 with those of independent position pairs
        seen = []

        def recorder(kz, kr, _kernel=collective._kernel):
            seen.append((kz, kr))
            return _kernel(kz, kr)
        monkeypatch.setattr(collective, "_kernel", recorder)
        chi_monte_carlo(SMALL, 20_000, seed=41)
        k = SMALL.wavenumber_per_m
        kz, kr = (np.concatenate(c) for c in zip(*seen))
        assert kz.size == 20_000
        scales = np.array([SMALL.waist_m, SMALL.waist_m, SMALL.length_m])
        d = two_position_separations(np.random.default_rng(42), scales, 20_000)
        rho2 = d[:, 0] ** 2 + d[:, 1] ** 2
        for sampled, reference in ((kz / k, d[:, 2]),
                                   (kr / k, np.linalg.norm(d, axis=1)),
                                   ((kr * kr - kz * kz) / k ** 2, rho2)):
            assert ks_2samp(sampled, reference).pvalue > 1e-3


class TestSerialOracle:
    """The threaded sampler reproduces the serial loop to the last bit."""

    @pytest.mark.parametrize("geom", [GEOM, SMALL], ids=["reference", "small"])
    @pytest.mark.parametrize("seed,n_samples,n_batches", [
        (0, 100, 2), (5, 1000, 30), (123, 20_000, 30), (2718, 12_345, 7),
        (31, 1001, 2), (77, 50_000, 13), (3, 100, 100), (0, 100, 30),
        (31, 1001, 30), (2718, 12_345, 30)])
    def test_bit_identical(self, monkeypatch, geom, seed, n_samples,
                           n_batches):
        # the package samples in 30 batches; the other counts run the same
        # split and reduction with other remainders and extremes
        monkeypatch.setattr(collective, "_N_BATCHES", n_batches)
        assert chi_monte_carlo(geom, n_samples, seed) == serial_chi_monte_carlo(
            geom, n_samples, seed, n_batches)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bit_identical_for_any_worker_count(self, monkeypatch, workers):
        monkeypatch.setattr(counting, "_usable_cpus", lambda: workers)
        assert chi_monte_carlo(SMALL, 20_000, 123) == serial_chi_monte_carlo(
            SMALL, 20_000, 123, 30)

    def test_bit_identical_at_full_size(self):
        assert chi_monte_carlo(GEOM, 1_000_000, seed=2718) == \
            serial_chi_monte_carlo(GEOM, 1_000_000, 2718)

    @pytest.mark.parametrize("shape", [(3,), (1000, 3), (4, 5, 3)])
    def test_pair_kernel_matches_array_form(self, shape):
        d = np.random.default_rng(4).normal(0.0, 1e-6, shape)
        r = np.sqrt(np.sum(d * d, axis=-1))
        expected = np.cos(1e7 * d[..., 2]) * np.sinc(1e7 * r / np.pi)
        got = pair_kernel(d, 1e7)
        assert got.shape == shape[:-1]
        assert np.array_equal(got, expected)

    def test_concurrent_callers_agree(self):
        # more caller threads than cores, each with its own pool, switching
        # as often as the interpreter allows
        want = serial_chi_monte_carlo(SMALL, 3000, 11, 30)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: got.append(
                chi_monte_carlo(SMALL, 3000, seed=11))) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 6

    def test_workers_call_no_public_function(self, monkeypatch):
        # callers may wrap the public functions with recorders that are not
        # thread-safe; only the calling thread may enter them
        seen = []
        for name, fn in list(vars(collective).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != collective.__name__):
                continue

            def recorder(*args, _fn=fn, **kwargs):
                seen.append(threading.get_ident())
                return _fn(*args, **kwargs)
            monkeypatch.setattr(collective, name, recorder)
        collective.chi_monte_carlo(GEOM, 30_000, seed=9)
        assert seen and set(seen) == {threading.get_ident()}


class TestBranching:
    def test_values(self):
        assert branching_ratio(1.0) == 1.0
        assert branching_ratio(2.7) == pytest.approx(4.4)
        assert branching_ratio(1.5) == 2.0

    def test_ceiling_values(self):
        assert extraction_ceiling(1.0) == 0.5
        assert extraction_ceiling(2.7) == pytest.approx(4.4 / 5.4)
        assert extraction_ceiling(1e9) == pytest.approx(1.0, abs=1e-9)

    def test_monotone(self):
        chis = np.linspace(1.0, 50.0, 200)
        br = [branching_ratio(c) for c in chis]
        ec = [extraction_ceiling(c) for c in chis]
        assert np.all(np.diff(br) > 0)
        assert np.all(np.diff(ec) > 0)

    def test_domain(self):
        with pytest.raises(ParamError):
            branching_ratio(0.99)
        with pytest.raises(ParamError):
            extraction_ceiling(0.5)
