import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from fit_oracle import (design_residuals_batch, oracle_model_eval,
                        oracle_residuals, profile)
from qmemread import (ParamError, RankDeficiencyError, ReadoutParams,
                      integrate_Pc, mhz_to_angular, rabi_from_intensity)
import qmemread.fitting as fitting
from qmemread.fitting import DEFAULT_INIT, Dataset, fit, model_eval, residuals

GAMMA_NAT = mhz_to_angular(5.2)
TAU = 0.05

TRUTH = {"gamma_deph": mhz_to_angular(1.55), "i_sat": 12.0, "chi": 2.7,
         "scale_f": 4.1}


def noiseless_dataset(kind, x, delta=None, i_r=None, theta=TRUTH, rel_sigma=0.03):
    shell = Dataset(kind=kind, x=x, y=np.zeros(len(x)), sigma=np.ones(len(x)),
                    delta_mhz=delta, i_r=i_r)
    y = model_eval(theta, shell, GAMMA_NAT, TAU)
    sigma = rel_sigma * np.maximum(y, 0.02 * y.max())
    return Dataset(kind=kind, x=x, y=y, sigma=sigma, delta_mhz=delta, i_r=i_r)


def noisy_copy(ds, seed):
    rng = np.random.default_rng(seed)
    return Dataset(kind=ds.kind, x=ds.x, y=ds.y + rng.normal(0, ds.sigma),
                   sigma=ds.sigma, delta_mhz=ds.delta_mhz, i_r=ds.i_r)


def paper_design(seed=None):
    """Wavepacket trios at two detunings plus two saturation curves."""
    t = np.arange(0.0, 161.0, 2.0)
    i_grid = np.array([5, 10, 20, 30, 45, 60, 80, 100, 125, 150, 175, 200.0])
    sets = [noiseless_dataset("wavepacket", t, delta=1.7, i_r=ir)
            for ir in (32.0, 68.0, 95.0)]
    sets += [noiseless_dataset("wavepacket", t, delta=25.7, i_r=ir)
             for ir in (52.0, 80.0, 160.0)]
    sets += [noiseless_dataset("saturation", i_grid, delta=1.7),
             noiseless_dataset("saturation", i_grid, delta=25.7)]
    if seed is None:
        return sets
    return [noisy_copy(ds, seed * 1000 + i) for i, ds in enumerate(sets)]


def without_counts(res):
    """``res.to_json()`` without the model-evaluation counters, which depend
    on how scipy's points were grouped into evaluations."""
    out = res.to_json()
    del out["model_evals"], out["model_rows"]
    return out


def assert_equals_serial_map(monkeypatch, sets, **kwargs):
    """Fit ``sets`` as ``fit`` does and with scipy's serial map
    (workers=None), assert the two bit-identical, and return the first."""
    real = scipy.optimize.least_squares
    got = fit(sets, gamma_nat=GAMMA_NAT, tau=TAU, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(scipy.optimize, "least_squares",
                      lambda *a, **k: real(*a, **dict(k, workers=None)))
        ref = fit(sets, gamma_nat=GAMMA_NAT, tau=TAU, **kwargs)
    assert without_counts(got) == without_counts(ref), kwargs
    assert got.cost_history == ref.cost_history, kwargs
    return got


def assert_bit_identical(res_a, res_b):
    assert res_a.values == res_b.values
    assert res_a.errors == res_b.errors
    assert np.array_equal(res_a.cov, res_b.cov)
    assert res_a.cost_history == res_b.cost_history


class TestDataset:
    def test_validation(self):
        with pytest.raises(ParamError):
            Dataset(kind="mystery", x=[1], y=[1], sigma=[1])
        with pytest.raises(ParamError):
            Dataset(kind="saturation", x=[1, 2], y=[1], sigma=[1, 1],
                    delta_mhz=0.0)
        with pytest.raises(ParamError):
            Dataset(kind="saturation", x=[1], y=[1], sigma=[0.0], delta_mhz=0.0)
        with pytest.raises(ParamError):
            Dataset(kind="wavepacket", x=[1], y=[1], sigma=[1], i_r=10.0)
        with pytest.raises(ParamError):
            Dataset(kind="spectrum", x=[1], y=[1], sigma=[1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["x", "y", "sigma"])
    def test_non_finite_values_rejected(self, field, bad):
        cols = {"x": [0.0, 10.0], "y": [0.1, 0.2], "sigma": [0.01, 0.01]}
        cols[field] = [cols[field][0], bad]
        with pytest.raises(ParamError, match=f"{field} must be finite") as info:
            Dataset(kind="saturation", delta_mhz=1.7, **cols)
        assert info.value.fields == (field,)

    @pytest.mark.parametrize("kwargs,field", [
        (dict(kind="saturation", x=[5.0, -5.0], delta_mhz=0.0), "x"),
        (dict(kind="wavepacket", x=[-1.0], delta_mhz=0.0, i_r=95.0), "x"),
        (dict(kind="wavepacket", x=[1.0], delta_mhz=0.0, i_r=math.nan), "i_r"),
        (dict(kind="wavepacket", x=[1.0], delta_mhz=math.inf, i_r=95.0),
         "delta_mhz"),
        (dict(kind="spectrum", x=[1.0], i_r=-3.0), "i_r"),
        (dict(kind="spectrum", x=[1.0], i_r=95.0, horizon_us=0.0),
         "horizon_us"),
        (dict(kind="saturation", x=[1.0], delta_mhz=0.0, horizon_us=-0.005),
         "horizon_us"),
        # finite in MHz, inf in rad/us
        (dict(kind="saturation", x=[1.0], delta_mhz=1e308), "delta_mhz"),
        (dict(kind="wavepacket", x=[1.0], delta_mhz=-1e308, i_r=95.0),
         "delta_mhz"),
        (dict(kind="spectrum", x=[0.0, 1e308], i_r=95.0), "x")],
        ids=["negative-intensity", "negative-time", "nan-drive",
             "infinite-detuning", "negative-spectrum-drive", "zero-horizon",
             "negative-horizon", "saturation-detuning-overflow",
             "wavepacket-detuning-overflow", "spectrum-detuning-overflow"])
    def test_model_domain_checked_on_construction(self, kwargs, field):
        n = len(kwargs["x"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParamError) as info:
                Dataset(y=np.zeros(n), sigma=np.ones(n), **kwargs)
        assert info.value.fields == (field,)

    def test_values_the_kind_ignores_are_not_checked(self):
        # negative detuning abscissae of a spectrum; no i_r for a saturation
        # curve, no delta_mhz for a spectrum and no horizon for a wavepacket
        Dataset(kind="spectrum", x=[-25.7, 0.0], y=[0, 0], sigma=[1, 1],
                i_r=95.0)
        Dataset(kind="saturation", x=[5.0], y=[0], sigma=[1], delta_mhz=1.7,
                i_r=-1.0)
        Dataset(kind="wavepacket", x=[0.0], y=[0], sigma=[1], delta_mhz=1.7,
                i_r=95.0, horizon_us=0.0)


class TestModelEval:
    @pytest.mark.parametrize("kind,x", [
        ("saturation", [0.0, 10.0, 95.0, 200.0]),
        ("spectrum", [-30.0, 0.0, 1.7, 25.7])])
    def test_pc_kinds_equal_pointwise_integrate_pc(self, kind, x):
        # one array call per dataset, in the units Dataset documents
        sat = kind == "saturation"
        ds = Dataset(kind=kind, x=x, y=np.zeros(4), sigma=np.ones(4),
                     delta_mhz=1.7 if sat else None, i_r=None if sat else 95.0)
        base = ReadoutParams(omega=rabi_from_intensity(95.0, TRUTH["i_sat"],
                                                       GAMMA_NAT),
                             delta=mhz_to_angular(1.7), gamma_nat=GAMMA_NAT,
                             chi=TRUTH["chi"], gamma_deph=TRUTH["gamma_deph"],
                             tau=TAU, scale_f=TRUTH["scale_f"])
        for xi, got in zip(x, model_eval(TRUTH, ds, GAMMA_NAT, TAU)):
            p = (base.replace(omega=rabi_from_intensity(xi, TRUTH["i_sat"],
                                                        GAMMA_NAT)) if sat
                 else base.replace(delta=mhz_to_angular(xi)))
            assert got == pytest.approx(integrate_Pc(p, ds.horizon_us),
                                        rel=1e-14, abs=0)


class TestResiduals:
    def test_zero_at_truth(self):
        sets = paper_design()
        r = residuals(TRUTH, sets, gamma_nat=GAMMA_NAT, tau=TAU)
        assert np.max(np.abs(r)) == 0.0

    def test_doubling_sigma_halves_residuals(self):
        ds = noiseless_dataset("wavepacket", np.arange(0, 161, 4.0),
                               delta=1.7, i_r=95.0)
        theta = dict(TRUTH, chi=2.0)
        r1 = residuals(theta, [ds], gamma_nat=GAMMA_NAT, tau=TAU)
        ds2 = Dataset(kind=ds.kind, x=ds.x, y=ds.y, sigma=2 * ds.sigma,
                      delta_mhz=ds.delta_mhz, i_r=ds.i_r)
        r2 = residuals(theta, [ds2], gamma_nat=GAMMA_NAT, tau=TAU)
        assert np.allclose(r2, r1 / 2, rtol=1e-14)

    def test_derivative_step_halving_consistency(self):
        # central differences at h and h/2 must agree (Richardson check)
        ds = noiseless_dataset("saturation",
                               np.array([10.0, 50.0, 120.0]), delta=1.7)
        theta = dict(TRUTH)

        def deriv(key, h):
            up, dn = dict(theta), dict(theta)
            up[key] = theta[key] * (1 + h)
            dn[key] = theta[key] * (1 - h)
            ru = residuals(up, [ds], gamma_nat=GAMMA_NAT, tau=TAU)
            rd = residuals(dn, [ds], gamma_nat=GAMMA_NAT, tau=TAU)
            return (ru - rd) / (2 * h * theta[key])

        for key in ("chi", "i_sat", "scale_f"):
            d1 = deriv(key, 1e-5)
            d2 = deriv(key, 5e-6)
            scale = np.max(np.abs(d2))
            assert np.max(np.abs(d1 - d2)) <= 1e-5 * scale

    def test_parameter_outside_domain_named(self):
        ds = noiseless_dataset("wavepacket", np.arange(0.0, 161.0, 40.0),
                               delta=1.7, i_r=95.0)
        for theta, field in ((dict(TRUTH, i_sat=-1.0), "i_sat"),
                             (dict(TRUTH, chi=0.5), "chi")):
            with pytest.raises(ParamError) as info:
                residuals(theta, [ds], GAMMA_NAT, TAU)
            assert info.value.fields == (field,)


finite = dict(allow_nan=False, allow_infinity=False)
st_theta = st.fixed_dictionaries({
    "gamma_deph": st.one_of(st.just(0.0),
                            st.floats(0.0, mhz_to_angular(30.0), **finite)),
    "i_sat": st.floats(1.0, 100.0, **finite),
    "chi": st.floats(1.0, 30.0, **finite),
    "scale_f": st.floats(0.1, 10.0, **finite)})
# abscissae drawn partly from a small pool, so that points repeat
ABSCISSAE = {"wavepacket": ([0.0, 2.0, 40.0, 160.0], 0.0, 200.0),
             "saturation": ([0.0, 12.0, 95.0, 200.0], 0.0, 250.0),
             "spectrum": ([0.0, 1.7, -1.7, 25.7], -40.0, 40.0)}


@st.composite
def st_dataset(draw):
    kind = draw(st.sampled_from(sorted(ABSCISSAE)))
    pool, lo, hi = ABSCISSAE[kind]
    x = draw(st.lists(st.one_of(st.sampled_from(pool),
                                st.floats(lo, hi, **finite)),
                      min_size=1, max_size=8))
    n = len(x)
    y = draw(st.lists(st.floats(-0.1, 0.1, **finite), min_size=n, max_size=n))
    sigma = draw(st.lists(st.floats(1e-4, 1.0, **finite), min_size=n,
                          max_size=n))
    keep = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n,
                                              max_size=n)))
    if keep is not None:        # a subset of the rows, possibly none
        x, y, sigma = ([v for v, k in zip(col, keep) if k]
                       for col in (x, y, sigma))
    return Dataset(
        kind=kind, x=x, y=y, sigma=sigma,
        delta_mhz=draw(st.sampled_from([0.0, 1.7, -25.7])),
        i_r=draw(st.one_of(st.sampled_from([0.0, 95.0]),
                           st.floats(0.0, 250.0, **finite))),
        horizon_us=draw(st.sampled_from([0.05, 0.160, math.inf])))


class TestCompiledDesign:
    """The compiled design against the per-dataset loop of fit_oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st_theta, st.lists(st_dataset(), min_size=1, max_size=6))
    def test_residuals_equal_oracle_loop(self, theta, sets):
        ref = oracle_residuals(theta, sets, GAMMA_NAT, TAU)
        assert np.array_equal(residuals(theta, sets, GAMMA_NAT, TAU), ref)
        design = fitting._Design(fitting._canonical(sets))
        assert np.array_equal(
            fitting._residuals_batch([theta], design, GAMMA_NAT, TAU),
            design_residuals_batch([theta], design, GAMMA_NAT, TAU))

    def test_critical_points_of_several_datasets(self):
        # i_r = chi^2 I_sat/2 drives at Omega = chi Gamma/2: with Delta = 0
        # the P_c closed form takes its Cauchy-integral branch, here for
        # points of three datasets sharing one horizon
        i_crit = TRUTH["chi"] ** 2 * TRUTH["i_sat"] / 2
        grid = np.array([-1.7, 0.0, 1.7])
        sets = [Dataset(kind="spectrum", x=grid, y=np.zeros(3),
                        sigma=np.ones(3), i_r=i_crit * f) for f in (1, 1 + 1e-6)]
        sets.append(Dataset(kind="saturation", x=[12.0, i_crit], y=[0.0, 0.0],
                            sigma=[1.0, 1.0], delta_mhz=0.0))
        ref = oracle_residuals(TRUTH, sets, GAMMA_NAT, TAU)
        assert np.array_equal(residuals(TRUTH, sets, GAMMA_NAT, TAU), ref)

    @pytest.mark.parametrize("kind,x", [
        ("wavepacket", np.arange(0.0, 161.0, 2.0)),
        ("saturation", [5.0, 10.0, 10.0, 95.0, 200.0]),
        ("spectrum", np.linspace(-30.0, 30.0, 21))])
    def test_model_eval_equals_oracle(self, kind, x):
        rng = np.random.default_rng(7)
        for horizon in (0.160, math.inf):
            ds = Dataset(kind=kind, x=x, y=np.zeros(len(x)),
                         sigma=np.ones(len(x)), delta_mhz=1.7, i_r=95.0,
                         horizon_us=horizon)
            for _ in range(20):
                theta = {k: v * rng.uniform(0.5, 2.0) for k, v in TRUTH.items()}
                assert np.array_equal(model_eval(theta, ds, GAMMA_NAT, TAU),
                                      oracle_model_eval(theta, ds, GAMMA_NAT,
                                                        TAU))

    def test_fit_equals_oracle_driven_fit(self, monkeypatch):
        # the evaluator fit looks up for trial points and Jacobian columns
        for seed in range(1, 31):
            sets = paper_design(seed=seed)
            got = fit(sets, init=DEFAULT_INIT, gamma_nat=GAMMA_NAT, tau=TAU)
            with monkeypatch.context() as patch:
                patch.setattr(fitting, "_residuals_batch",
                              design_residuals_batch)
                ref = fit(sets, init=DEFAULT_INIT, gamma_nat=GAMMA_NAT,
                          tau=TAU)
            assert got.to_json() == ref.to_json(), f"seed {seed}"
            assert got.cost_history == ref.cost_history, f"seed {seed}"

    def test_batched_jacobian_equals_serial_map(self, monkeypatch):
        # workers=None makes scipy evaluate each Jacobian column alone,
        # through fun, as without a batch evaluator or a trial's stencil
        for seed in range(1, 31):
            assert_equals_serial_map(monkeypatch, paper_design(seed=seed),
                                     init=DEFAULT_INIT)
        # a fit that ends at a bound: there scipy flips the step of some
        # Jacobian points, which the stencil then misses
        got = assert_equals_serial_map(
            monkeypatch, paper_design(seed=4), init=dict(DEFAULT_INIT, chi=1.8),
            bounds={"chi": (1.5, 2.5)})
        assert got.at_bound == {"chi": "upper"}
        assert got.model_evals > got.nfev
        # 1, 2 and 3 free parameters, the others held at the truth
        for free in (("chi",), ("chi", "scale_f"),
                     ("gamma_deph", "i_sat", "chi")):
            got = assert_equals_serial_map(
                monkeypatch, paper_design(seed=6), free=free,
                init=dict(DEFAULT_INIT, **{k: v for k, v in TRUTH.items()
                                           if k not in free}))
            assert got.model_rows == (len(free) + 1) * got.nfev
        # a start far enough off that scipy rejects some trial points
        got = assert_equals_serial_map(monkeypatch, paper_design(seed=5),
                                       init=dict(DEFAULT_INIT, chi=30.0))
        assert got.nfev > got.njev

    def test_stencil_error_evaluates_the_trial_alone(self, monkeypatch):
        # chi past its upper bound raises: trial points stay within the box,
        # but near the bound some of a trial's stencil points do not
        bounds = {"chi": (1.5, 2.5)}
        chi_max = fitting._from_u("chi", fitting._to_u("chi", 2.5))
        real, raised = fitting._residuals_batch, []

        def raising(thetas, *args):
            if any(th["chi"] > chi_max for th in thetas):
                raised.append(len(thetas))
                raise ParamError(["chi"])
            return real(thetas, *args)
        kwargs = dict(init=dict(DEFAULT_INIT, chi=1.8), bounds=bounds)
        plain = fit(paper_design(seed=4), gamma_nat=GAMMA_NAT, tau=TAU,
                    **kwargs)
        monkeypatch.setattr(fitting, "_residuals_batch", raising)
        got = assert_equals_serial_map(monkeypatch, paper_design(seed=4),
                                       **kwargs)
        assert raised and all(k == len(fitting.FREE_KEYS) + 1 for k in raised)
        assert without_counts(got) == without_counts(plain)
        assert got.cost_history == plain.cost_history


class TestFit:
    def test_init_at_truth_noiseless(self):
        sets = paper_design()
        res = fit(sets, init=dict(TRUTH), gamma_nat=GAMMA_NAT, tau=TAU)
        assert res.converged
        assert res.n_iter <= 2
        assert res.red_chi2 == 0.0

    def test_objective_monotone_nonincreasing(self):
        sets = paper_design(seed=5)
        res = fit(sets, init=DEFAULT_INIT, gamma_nat=GAMMA_NAT, tau=TAU)
        diffs = np.diff(res.cost_history)
        assert np.all(diffs <= 0)

    def test_start_point_evaluated_once(self, monkeypatch):
        # cost_history[0] and least_squares' opening f0 share one evaluation;
        # each trial point is one batched evaluation with the 4 points of
        # its Jacobian, which scipy then takes from it
        batches = []
        real_batch = fitting._residuals_batch

        def counting_batch(batch, *args):
            batches.append([dict(theta) for theta in batch])
            return real_batch(batch, *args)
        monkeypatch.setattr(fitting, "_residuals_batch", counting_batch)
        res = fit(paper_design(seed=5), init=DEFAULT_INIT,
                  gamma_nat=GAMMA_NAT, tau=TAU)
        trials = [batch[0] for batch in batches]
        assert trials.count(trials[0]) == 1
        assert [len(batch) for batch in batches] == [5] * 7
        assert res.nfev == res.njev == res.model_evals == 7
        assert res.model_rows == 35

    @staticmethod
    def scaled_saturation(scale_f):
        """A noiseless saturation curve at ``scale_f`` times TRUTH's."""
        i_r = np.array([5, 10, 20, 30, 45, 60, 80, 100, 125, 150, 175, 200.0])
        return noiseless_dataset("saturation", i_r, delta=1.7,
                                 theta=dict(TRUTH, scale_f=scale_f))

    def test_trial_past_the_domain_is_a_rejected_step(self, monkeypatch):
        # from 1e15, TRF's steps toward 5e19 pass scale_f's bound of 1e20;
        # those trials get infinite residuals and the fit goes on
        real, tried = fitting._residuals_batch, []

        def spy(thetas, *args):
            tried.extend(th["scale_f"] for th in thetas)
            return real(thetas, *args)
        monkeypatch.setattr(fitting, "_residuals_batch", spy)
        res = fit([self.scaled_saturation(5e19)], free=("scale_f",),
                  init=dict(TRUTH, scale_f=1e15), gamma_nat=GAMMA_NAT, tau=TAU)
        assert max(tried) > 1e20
        assert res.converged and res.values["scale_f"] == pytest.approx(5e19)
        assert res.model_evals < res.nfev       # a trial made no evaluation

    def test_best_point_past_the_domain_named(self):
        # the data ask for scale_f 1e21: the fit ends at the bound, when a
        # Jacobian point crosses it, naming the parameter
        with pytest.raises(ParamError) as info:
            fit([self.scaled_saturation(1e21)], free=("scale_f",),
                init=dict(TRUTH, scale_f=1e19), gamma_nat=GAMMA_NAT, tau=TAU)
        assert info.value.fields == ("scale_f",)

    def test_round_trip_quick(self):
        for seed in (1, 2, 3):
            sets = paper_design(seed=seed)
            res = fit(sets, init=DEFAULT_INIT, gamma_nat=GAMMA_NAT, tau=TAU)
            assert res.converged
            for key, true_val in TRUTH.items():
                rel = abs(res.values[key] - true_val) / true_val
                assert rel <= 0.05, f"{key}: {rel:.3%} off at seed {seed}"

    def test_scale_only_fit_matches_linear_estimator(self):
        ds = noisy_copy(noiseless_dataset("wavepacket", np.arange(0, 161, 2.0),
                                          delta=1.7, i_r=95.0), seed=21)
        # ftol below machine epsilon turns scipy's cost test off on purpose
        with pytest.warns(UserWarning, match="ftol"):
            res = fit([ds], free=("scale_f",), init=dict(TRUTH, scale_f=0.7),
                      gamma_nat=GAMMA_NAT, tau=TAU, ftol=1e-16, max_iter=100)
        unit = model_eval(dict(TRUTH, scale_f=1.0), ds, GAMMA_NAT, TAU)
        closed = (np.sum(unit * ds.y / ds.sigma ** 2)
                  / np.sum(unit ** 2 / ds.sigma ** 2))
        assert abs(res.values["scale_f"] - closed) <= 1e-10 * closed

    def test_reordering_invariance(self):
        # run to a sharp optimum so the comparison probes the converged
        # minimum, not the stopping slop
        sets = paper_design(seed=9)
        res_a = fit(sets, init=DEFAULT_INIT, gamma_nat=GAMMA_NAT, tau=TAU,
                    ftol=1e-15)
        rng = np.random.default_rng(0)

        def shuffled(ds):
            order = rng.permutation(ds.x.size)
            return Dataset(kind=ds.kind, x=ds.x[order], y=ds.y[order],
                           sigma=ds.sigma[order], delta_mhz=ds.delta_mhz,
                           i_r=ds.i_r)

        sets_b = [shuffled(ds) for ds in reversed(sets)]
        res_b = fit(sets_b, init=DEFAULT_INIT, gamma_nat=GAMMA_NAT, tau=TAU,
                    ftol=1e-15)
        for key in TRUTH:
            assert abs(res_a.values[key] - res_b.values[key]) \
                <= 1e-12 * abs(res_a.values[key])

    def test_repeated_abscissae_permutation_is_bit_identical(self):
        # points sharing an x are ordered by y and sigma, not by input order
        t = np.repeat(np.arange(0.0, 161.0, 4.0), 3)
        ds = noisy_copy(noiseless_dataset("wavepacket", t, delta=1.7, i_r=95.0),
                        seed=6)
        assert np.unique(ds.y).size == ds.y.size
        kwargs = dict(free=("gamma_deph", "chi", "scale_f"),
                      init=dict(DEFAULT_INIT, i_sat=TRUTH["i_sat"]),
                      gamma_nat=GAMMA_NAT, tau=TAU, ftol=1e-15)
        res_a = fit([ds], **kwargs)
        rng = np.random.default_rng(2)
        for _ in range(3):
            order = rng.permutation(t.size)
            perm = Dataset(kind=ds.kind, x=ds.x[order], y=ds.y[order],
                           sigma=ds.sigma[order], delta_mhz=ds.delta_mhz,
                           i_r=ds.i_r)
            assert_bit_identical(res_a, fit([perm], **kwargs))

    def test_bounds_respected(self):
        sets = paper_design(seed=4)
        res = fit(sets, init=dict(DEFAULT_INIT, chi=2.4),
                  bounds={"chi": (2.0, 2.5)}, gamma_nat=GAMMA_NAT, tau=TAU)
        assert 2.0 <= res.values["chi"] <= 2.5

    def test_init_outside_bounds_rejected(self):
        sets = paper_design()
        with pytest.raises(ParamError):
            fit(sets, init=dict(DEFAULT_INIT, chi=5.0),
                bounds={"chi": (2.0, 2.5)}, gamma_nat=GAMMA_NAT, tau=TAU)

    def test_no_free_parameter_rejected(self):
        with pytest.raises(ParamError) as info:
            fit(paper_design(), free=(), gamma_nat=GAMMA_NAT, tau=TAU)
        assert info.value.fields == ("free",)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(free=("chi", "chi", "scale_f")), "free parameter 'chi' listed twice"),
        (dict(free=("tau",)), "unknown free parameter 'tau'"),
        (dict(init={"chii": 9.0}), "unknown init parameter 'chii'"),
        (dict(bounds={"chii": (1.5, 2.0)}), "unknown bounds parameter 'chii'"),
    ])
    def test_bad_parameter_name_rejected(self, kwargs, message):
        with pytest.raises(ParamError, match=message) as info:
            fit(paper_design(), gamma_nat=GAMMA_NAT, tau=TAU, **kwargs)
        assert info.value.fields == (message.split("'")[1],)

    def test_bounds_on_a_held_parameter_accepted(self):
        res = fit(paper_design(), free=("chi", "scale_f"), init=TRUTH,
                  bounds={"i_sat": (5.0, 20.0)}, gamma_nat=GAMMA_NAT, tau=TAU)
        assert res.param_order == ("chi", "scale_f")

    def test_nonconvergence_is_flagged_with_best_point(self):
        sets = paper_design(seed=11)
        res = fit(sets, init=DEFAULT_INIT, gamma_nat=GAMMA_NAT, tau=TAU,
                  max_iter=2)
        assert res.converged is False
        assert res.n_iter == 2
        assert "max_iter" in res.message
        assert np.all(np.diff(res.cost_history) <= 0)
        assert set(res.values) == set(TRUTH)

    def test_rank_deficiency_reported(self):
        # zero drive: the model is identically zero, nothing is identifiable
        t = np.arange(0.0, 60.0, 4.0)
        dead = Dataset(kind="wavepacket", x=t, y=np.zeros_like(t),
                       sigma=np.ones_like(t), delta_mhz=1.7, i_r=0.0)
        with pytest.raises(RankDeficiencyError, match="insensitive") as info:
            fit([dead], free=("chi", "scale_f"), gamma_nat=GAMMA_NAT, tau=TAU)
        # an input fault, naming the parameters
        assert isinstance(info.value, ParamError)
        assert info.value.fields == ("chi", "scale_f")
        assert info.value.pairs == (("chi", "chi"), ("scale_f", "scale_f"))

    @staticmethod
    def one_time_wavepacket():
        # four points at one time: gamma_deph and scale_f only move the one
        # ordinate, so their Jacobian columns are parallel
        return noisy_copy(noiseless_dataset("wavepacket", np.full(4, 40.0),
                                            delta=1.7, i_r=95.0), seed=8)

    def test_degenerate_pair_reported(self):
        with pytest.raises(RankDeficiencyError, match="degenerate") as info:
            fit([self.one_time_wavepacket()], free=("gamma_deph", "scale_f"),
                gamma_nat=GAMMA_NAT, tau=TAU)
        assert info.value.pairs == (("gamma_deph", "scale_f"),)
        assert info.value.fields == ("gamma_deph", "scale_f")

    def test_rank_deficiency_raises_without_warnings(self):
        t = np.arange(0.0, 60.0, 4.0)
        dead = Dataset(kind="wavepacket", x=t, y=np.zeros_like(t),
                       sigma=np.ones_like(t), delta_mhz=1.7, i_r=0.0)
        cases = [(dead, ("chi", "scale_f")),
                 (self.one_time_wavepacket(), ("gamma_deph", "scale_f"))]
        for ds, free in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RankDeficiencyError):
                    fit([ds], free=free, gamma_nat=GAMMA_NAT, tau=TAU)

    def test_degenerate_bounds_rejected(self):
        # a zero-width box cannot pin a parameter: init and free do that
        with pytest.raises(ParamError, match="chi") as info:
            fit(paper_design(), init=dict(DEFAULT_INIT, chi=2.4),
                bounds={"chi": (2.4, 2.4)}, gamma_nat=GAMMA_NAT, tau=TAU)
        assert info.value.fields == ("chi",)

    def test_requires_datasets(self):
        with pytest.raises(ParamError):
            fit([], gamma_nat=GAMMA_NAT, tau=TAU)

    def test_covariance_tracks_scatter(self):
        # pulls (fit - truth) / reported error over K consecutive seeds: for
        # each parameter, mean 0 and standard deviation 1 within 4 standard
        # errors of a unit normal sample
        k = 100
        pulls = {name: [] for name in TRUTH}
        for s in range(k):
            res = fit(paper_design(seed=100 + s), init=dict(TRUTH),
                      gamma_nat=GAMMA_NAT, tau=TAU)
            for name, truth in TRUTH.items():
                pulls[name].append((res.values[name] - truth)
                                   / res.errors[name])
        for name, pull in pulls.items():
            assert abs(np.mean(pull)) <= 4 / math.sqrt(k), name
            assert abs(np.std(pull, ddof=1) - 1) <= 4 / math.sqrt(2 * (k - 1)), \
                name


class TestDiagnostics:
    """The fit's diagnostics against the scipy result they are read from."""

    @staticmethod
    def fit_with_solution(monkeypatch, sets, **kwargs):
        real, sols = scipy.optimize.least_squares, []

        def keep(*args, **kw):
            sols.append(real(*args, **kw))
            return sols[-1]
        monkeypatch.setattr(scipy.optimize, "least_squares", keep)
        return fit(sets, gamma_nat=GAMMA_NAT, tau=TAU, **kwargs), sols[0]

    def test_counts_and_optimality(self, monkeypatch):
        res, sol = self.fit_with_solution(monkeypatch, paper_design(seed=5),
                                          init=DEFAULT_INIT)
        assert (res.nfev, res.njev) == (sol.nfev, sol.njev) == (7, 7)
        # no bound: the infinity norm of the cost's gradient J^T r
        assert res.optimality == pytest.approx(
            np.linalg.norm(sol.jac.T @ sol.fun, np.inf), rel=1e-12)
        assert res.at_bound == {}

    def test_at_bound_names_the_edge(self):
        res = fit(paper_design(seed=4), init=dict(DEFAULT_INIT, chi=1.8),
                  bounds={"chi": (1.5, 2.0)}, gamma_nat=GAMMA_NAT, tau=TAU)
        assert res.values["chi"] == pytest.approx(2.0)
        assert res.at_bound == {"chi": "upper"}

    def test_condition_and_correlation(self, monkeypatch):
        res, sol = self.fit_with_solution(monkeypatch, paper_design(seed=5),
                                          init=DEFAULT_INIT)
        assert res.jtj_cond == pytest.approx(
            np.linalg.cond(sol.jac.T @ sol.jac), rel=1e-8)
        sd = np.sqrt(np.diag(res.cov))
        assert np.allclose(res.correlation * np.outer(sd, sd), res.cov,
                           rtol=1e-12, atol=0)
        assert np.allclose(np.diag(res.correlation), 1.0, rtol=0, atol=1e-12)
        assert np.all(np.abs(res.correlation[~np.eye(4, dtype=bool)]) < 1)

    def test_json_adds_diagnostics_to_the_existing_keys(self):
        res = fit(paper_design(seed=5), init=DEFAULT_INIT,
                  gamma_nat=GAMMA_NAT, tau=TAU)
        out = res.to_json()
        assert set(out) == {
            "values", "errors", "covariance", "param_order", "reduced_chi2",
            "n_iter", "converged", "message", "nfev", "njev", "optimality",
            "at_bound", "jtj_cond", "correlation", "model_evals",
            "model_rows"}
        assert (out["nfev"], out["njev"], out["at_bound"]) == (7, 7, {})
        assert (out["model_evals"], out["model_rows"]) == (7, 35)
        assert out["optimality"] == res.optimality
        assert out["jtj_cond"] == res.jtj_cond
        assert out["correlation"] == res.correlation.tolist()


class TestProfile:
    def test_minimum_at_truth(self):
        sets = paper_design()
        grid = np.array([2.3, 2.7, 3.1])
        _, chi2 = profile("chi", grid, sets, gamma_nat=GAMMA_NAT, tau=TAU)
        assert chi2[1] == min(chi2)
        assert chi2[0] > chi2[1] and chi2[2] > chi2[1]

    def test_combined_design_sharper_than_single_wavepacket(self):
        combined = paper_design()
        single = [combined[2]]  # one wavepacket at a single intensity
        grid = np.array([2.7, 3.4])
        _, chi2_comb = profile("chi", grid, combined, gamma_nat=GAMMA_NAT,
                               tau=TAU)
        _, chi2_single = profile("chi", grid, single, gamma_nat=GAMMA_NAT,
                                 tau=TAU)
        rise_comb = chi2_comb[1] - chi2_comb[0]
        rise_single = chi2_single[1] - chi2_single[0]
        assert rise_comb > 3 * rise_single

    def test_unknown_parameter(self):
        with pytest.raises(ParamError):
            profile("tau", [0.1], paper_design())


class TestFlatPcDesign:
    def test_one_pc_integral_call_for_three_horizons(self):
        # one wave-core call for the wavepackets of two drives, one
        # _pc_integral call for P_c points at three horizons
        sets = [Dataset(kind="saturation", x=[10.0, 95.0], y=[0.0, 0.0],
                        sigma=[1.0, 1.0], delta_mhz=1.7, horizon_us=h)
                for h in (0.05, 0.160, math.inf)]
        sets.append(Dataset(kind="spectrum", x=[-1.7, 1.7], y=[0.0, 0.0],
                            sigma=[1.0, 1.0], i_r=95.0, horizon_us=0.05))
        sets += [noiseless_dataset("wavepacket", np.arange(0.0, 161.0, 8.0),
                                   delta=1.7, i_r=i_r) for i_r in (32.0, 95.0)]
        with mock.patch.object(fitting, "_pc_integral",
                               wraps=fitting._pc_integral) as pc_integral, \
                mock.patch.object(fitting, "_b_squared",
                                  wraps=fitting._b_squared) as wave:
            got = residuals(TRUTH, sets, GAMMA_NAT, TAU)
        assert pc_integral.call_count == 1 and wave.call_count == 1
        assert np.array_equal(got,
                              oracle_residuals(TRUTH, sets, GAMMA_NAT, TAU))

    def test_no_pc_integral_call_without_pc_points(self):
        ds = noiseless_dataset("wavepacket", np.arange(0.0, 161.0, 8.0),
                               delta=1.7, i_r=95.0)
        with mock.patch.object(fitting, "_pc_integral") as pc_integral:
            residuals(TRUTH, [ds], GAMMA_NAT, TAU)
        assert pc_integral.call_count == 0


class TestFactorReuse:
    """|B|^2 is computed once per (i_sat, chi, Gamma) of an evaluation; no
    reuse changes a bit."""

    def test_b_squared_sets_per_fit(self, monkeypatch):
        # a trial point is evaluated with its 2-point stencil, which moves
        # i_sat and chi away from it; gamma_deph and scale_f reuse its |B|^2
        sets, calls = paper_design(seed=5), []
        real = fitting._b_squared

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(fitting, "_b_squared", counting)
        res = fit(sets, init=DEFAULT_INIT, gamma_nat=GAMMA_NAT, tau=TAU)
        assert res.param_order == fitting.FREE_KEYS
        assert len(calls) == 3 * res.model_evals == 3 * res.nfev == 21
        # one drive per wavepacket dataset: 6 drives for 486 points
        assert all(args[1].size == 6 and args[0].size == 486
                   for args in calls)

    def test_key_holds_every_input(self):
        # the same chi Gamma from other (chi, Gamma) pairs, a repeated
        # i_sat with another chi or Gamma, then earlier sets again
        design = fitting._Design(paper_design(seed=3))
        steps = [(12.0, 2.0, 30.0), (12.0, 3.0, 20.0), (12.0, 2.0, 20.0),
                 (12.0, 3.0, 30.0), (9.0, 3.0, 30.0), (12.0, 3.0, 30.0),
                 (9.0, 2.0, 30.0), (9.0, 2.0, 20.0), (12.0, 2.0, 30.0)]
        for i_sat, chi, gamma_nat in steps:
            theta = dict(TRUTH, i_sat=i_sat, chi=chi)
            assert np.array_equal(
                fitting._residuals_batch([theta], design, gamma_nat, TAU)[0],
                oracle_residuals(theta, design.datasets, gamma_nat, TAU)), \
                (i_sat, chi, gamma_nat)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st_dataset(), min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                              st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=6),
           st.lists(st_theta, min_size=2, max_size=2))
    def test_batch_rows_equal_single_evaluations(self, sets, picks, pool):
        # each parameter drawn from a pool of two, so (i_sat, chi) and
        # gamma_deph values repeat within a batch and between batches
        thetas = [{key: pool[j][key] for key, j in zip(fitting.FREE_KEYS, pick)}
                  for pick in picks]
        design = fitting._Design(sets)
        for batch in (thetas, thetas[::-1]):
            rows = fitting._residuals_batch(batch, design, GAMMA_NAT, TAU)
            for theta, row in zip(batch, rows):
                assert np.array_equal(row, residuals(theta, sets, GAMMA_NAT,
                                                     TAU))


@pytest.mark.parametrize("key,box", [("chi", (5.0, 2.0)), ("i_sat", (50.0, 5.0))])
@pytest.mark.parametrize("init", [None, 3.0, 20.0])
def test_inverted_bounds_rejected(key, box, init):
    with pytest.raises(ParamError, match=f"bounds for {key} have lo > hi") as info:
        fit(paper_design(), init=None if init is None else {key: init},
            bounds={key: box}, gamma_nat=GAMMA_NAT, tau=TAU)
    assert info.value.fields == (key,)
