import io
import math

import numpy as np
import pytest

from qmemread import (CorrelationSummary, ModelError, ParamError,
                      ReadoutParams, StatsError, SynthDesign,
                      conditional_wavepacket, correlations, ingest,
                      integrate_Pc, mhz_to_angular, pc_at, pc_integral,
                      probabilities, synthesize_log, write_log)
from qmemread.counting import _emission_cdf

GAMMA = mhz_to_angular(5.2)

PAPER_STYLE = ReadoutParams.from_user_units(
    delta_mhz=1.7, chi=2.7, gamma_deph_mhz=1.55, scale_f=4.1,
    i_r_mw_cm2=95.0, i_sat_mw_cm2=12.0)


def make_store(lines, **kw):
    return ingest(iter(lines), **kw)


class TestIngest:
    def test_empty_stream(self):
        store = make_store([])
        assert store.n_trials == 0 and len(store) == 0

    def test_header_optional(self):
        with_header = make_store(["trial,channel,t_ns", "0,F1A,10"])
        without = make_store(["0,F1A,10"])
        assert len(with_header) == len(without) == 1

    def test_malformed_line_reported_with_number(self):
        lines = ["0,F1A,10", "0,F2B,200", "1,F1B,11", "oops,not,good,line"]
        store = make_store(lines)
        assert len(store) == 3
        assert len(store.parse_errors) == 1
        assert store.parse_errors[0][0] == 4

    def test_unknown_channel_tally(self):
        store = make_store(["0,F1A,10", "0,XYZ,20", "1,ZZZ,30"])
        assert len(store) == 1
        assert store.n_rejected_channel == 2
        assert store.parse_errors == []

    def test_out_of_window_time_rejected(self):
        store = make_store(["0,F1A,1499", "0,F1A,1500"])
        assert len(store) == 1
        assert store.parse_errors[0][0] == 2

    def test_duplicates_collapsed_with_warning(self):
        with pytest.warns(UserWarning, match="2 duplicate"):
            store = make_store(["0,F1A,10", "0,F1A,10", "0,F1A,10", "1,F2A,99"])
        assert len(store) == 2
        assert store.n_duplicates == 2

    def test_explicit_trial_count_bounds(self):
        store = make_store(["0,F1A,10", "7,F1A,10"], n_trials=5)
        assert len(store) == 1
        assert store.n_trials == 5
        assert store.parse_errors[0][0] == 2

    def test_path_input(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("trial,channel,t_ns\n3,F2A,777\n")
        store = ingest(p)
        assert store.n_trials == 4 and len(store) == 1


class TestRoundTrip:
    def test_write_read_bit_exact(self, tmp_path):
        design = SynthDesign(n_trials=5000, p1=0.05, background_per_ns=2e-5)
        store = synthesize_log(PAPER_STYLE, design, seed=99)
        path = tmp_path / "log.csv"
        write_log(store, path)
        back = ingest(path, n_trials=design.n_trials)
        assert np.array_equal(back.trial, store.trial)
        assert np.array_equal(back.channel, store.channel)
        assert np.array_equal(back.t_ns, store.t_ns)


def recount_oracle(store, window1, window2):
    """Independent per-trial scan with plain Python dictionaries."""
    per_trial = {}
    for tr, ch, t in zip(store.trial.tolist(), store.channel.tolist(),
                         store.t_ns.tolist()):
        lo, hi = window1 if ch in (0, 1) else window2
        if lo <= t <= hi:
            per_trial.setdefault(tr, set()).add(ch)
    n = store.n_trials
    c1 = sum(1 for s in per_trial.values() if s & {0, 1})
    c2 = sum(1 for s in per_trial.values() if s & {2, 3})
    c11 = sum(1 for s in per_trial.values() if {0, 1} <= s)
    c22 = sum(1 for s in per_trial.values() if {2, 3} <= s)
    c12 = sum(1 for s in per_trial.values() if (s & {0, 1}) and (s & {2, 3}))
    return c1 / n, c2 / n, c11 / n, c22 / n, c12 / n


class TestProbabilities:
    def test_no_events(self):
        store = make_store([], n_trials=100)
        s = probabilities(store, (0, 49), (50, 349))
        assert s.p1 == s.p2 == s.p11 == s.p22 == s.p12 == 0.0

    def test_single_channel_heralds(self):
        lines = [f"{i},F1A,10" for i in range(50)]
        store = make_store(lines)
        s = probabilities(store, (0, 49), (50, 349))
        assert s.p1 == 1.0 and s.p11 == 0.0

    def test_matches_recount_oracle(self):
        design = SynthDesign(n_trials=20000, p1=0.02, background_per_ns=2e-4)
        store = synthesize_log(PAPER_STYLE, design, seed=6)
        w1, w2 = (0, 49), (50, 349)
        s = probabilities(store, w1, w2)
        ref = recount_oracle(store, w1, w2)
        assert (s.p1, s.p2, s.p11, s.p22, s.p12) == ref

    def test_zero_trials_error(self):
        store = make_store([])
        with pytest.raises(StatsError):
            probabilities(store, (0, 10), (20, 30))

    def test_window_validation(self):
        store = make_store(["0,F1A,10"])
        with pytest.raises(ParamError):
            probabilities(store, (0, 2000), (0, 10))


class TestCorrelations:
    def base(self, **kw):
        s = CorrelationSummary(n_trials=10 ** 6)
        for k, v in kw.items():
            setattr(s, k, v)
        return s

    def test_uncorrelated_fields(self):
        s = self.base(p1=0.01, p2=0.02, p12=0.01 * 0.02, p11=1e-6, p22=1e-6)
        out = correlations(s)
        assert out.g12 == pytest.approx(1.0, rel=1e-12)
        assert out.quantum_g12 is False

    def test_single_photon_benchmark(self):
        # g12 ~ 9 marks operation well inside the single-photon regime
        s = self.base(p1=0.003, p2=0.001, p12=9 * 0.003 * 0.001,
                      p11=9e-6, p22=1e-6)
        out = correlations(s)
        assert out.g12 == pytest.approx(9.0, rel=1e-12)
        assert out.quantum_g12 is True

    def test_direct_arithmetic(self):
        s = self.base(p1=3.6e-3, p2=1e-3, p12=2e-5)
        out = correlations(s)
        assert out.g12 == pytest.approx(2e-5 / 3.6e-6, rel=1e-12)
        assert out.pc_total == pytest.approx(2e-5 / 3.6e-3, rel=1e-12)

    def test_zero_denominator_isolation(self):
        s = self.base(p1=0.01, p2=0.0, p12=0.0, p11=4e-4, p22=0.0)
        out = correlations(s)
        assert out.g22 is None and out.g12 is None and out.r_cs is None
        assert out.g11 == pytest.approx(4.0)
        assert out.pc_total == 0.0

    def test_cauchy_schwarz_flag_is_exact(self):
        s = self.base(p1=0.01, p2=0.01, p11=1e-4, p22=1e-4, p12=1e-4)
        out = correlations(s)      # g11 = g22 = g12 = 1 -> R = 1 exactly
        assert out.r_cs == 1.0
        assert out.cauchy_schwarz_violated is False
        s2 = self.base(p1=0.01, p2=0.01, p11=1e-4, p22=1e-4,
                       p12=1e-4 * (1 + 1e-12))
        assert correlations(s2).cauchy_schwarz_violated is True

    def test_uncertainties_shrink_with_trials(self):
        design = SynthDesign(n_trials=10000, p1=0.05, background_per_ns=1e-5)
        small = probabilities(synthesize_log(PAPER_STYLE, design, seed=3),
                              (0, 49), (50, 349))
        design4 = SynthDesign(n_trials=40000, p1=0.05, background_per_ns=1e-5)
        big = probabilities(synthesize_log(PAPER_STYLE, design4, seed=3),
                            (0, 49), (50, 349))
        assert big.u_p1 == pytest.approx(small.u_p1 / 2, rel=0.15)


class TestConditionalWavepacket:
    def test_no_field2_events(self):
        store = make_store([f"{i},F1A,20" for i in range(100)])
        bw = conditional_wavepacket(store, (0, 49), 1, t_range=(50, 350))
        assert bw.pc.sum() == 0 and bw.n_coinc.sum() == 0

    def test_empty_herald_set(self):
        store = make_store(["0,F2A,100"], n_trials=10)
        with pytest.raises(StatsError):
            conditional_wavepacket(store, (0, 49), 1)

    def test_bin_width_validation(self):
        store = make_store(["0,F1A,20"])
        with pytest.raises(ParamError):
            conditional_wavepacket(store, (0, 49), 0)

    def test_bin_aggregation_identity(self):
        design = SynthDesign(n_trials=30000, p1=0.2, background_per_ns=1e-4)
        store = synthesize_log(PAPER_STYLE, design, seed=12)
        fine = conditional_wavepacket(store, (0, 49), 1, t_range=(50, 350))
        coarse = conditional_wavepacket(store, (0, 49), 3, t_range=(50, 350))
        summed = fine.n_coinc.reshape(-1, 3).sum(axis=1)
        assert np.array_equal(summed, coarse.n_coinc)

    def test_planted_profile_recovered(self):
        # boost the retrieval probability so the 1 ns histogram is
        # well-populated, then compare to the analytic curve bin by bin
        params = PAPER_STYLE.replace(scale_f=4.1 * 20)
        design = SynthDesign(n_trials=150_000, p1=0.5)
        store = synthesize_log(params, design, seed=71)
        bw = conditional_wavepacket(store, (0, 49), 1, t_range=(50, 350))
        t_lo = (bw.t_lo_ns - design.read_start_ns) * 1e-3
        grid = np.linspace(0.0, 0.3, 1201)
        dens = pc_at(grid, params)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                               * np.diff(grid))])
        expect = np.interp(t_lo + 1e-3, grid, cum) - np.interp(t_lo, grid, cum)
        n_her = bw.n_heralds
        keep = expect * n_her >= 10
        z = (bw.n_coinc[keep] - n_her * expect[keep]) / np.sqrt(n_her * expect[keep])
        chi2_per_bin = float(np.mean(z ** 2))
        assert 0.7 <= chi2_per_bin <= 1.4
        assert np.all(np.abs(z) <= 5.0)
        # zero background and herald-gated field 2: g12(t) = 1/p1 in every
        # populated bin
        g_vals = bw.g12[keep]
        assert np.nanmedian(g_vals) == pytest.approx(1 / 0.5, rel=0.05)


class TestSynthesize:
    def test_no_drive_no_field2(self):
        params = PAPER_STYLE.replace(omega=0.0)
        design = SynthDesign(n_trials=2000, p1=0.3)
        store = synthesize_log(params, design, seed=1)
        assert not np.any(np.isin(store.channel, (2, 3)))
        assert np.any(np.isin(store.channel, (0, 1)))

    def test_model_inconsistency_error(self):
        params = PAPER_STYLE.replace(scale_f=4.1 * 60)  # P_c > 1
        with pytest.raises(ModelError):
            synthesize_log(params, SynthDesign(n_trials=10, p1=0.5), seed=0)

    def test_design_validation(self):
        with pytest.raises(ParamError):
            SynthDesign(n_trials=0, p1=0.5)
        with pytest.raises(ParamError):
            SynthDesign(n_trials=10, p1=0.0)
        with pytest.raises(ParamError):
            SynthDesign(n_trials=10, p1=0.5, background_per_ns=-1e-6)

    def test_planted_herald_probability(self):
        design = SynthDesign(n_trials=200_000, p1=0.0036)
        store = synthesize_log(PAPER_STYLE, design, seed=8)
        s = probabilities(store, (design.herald_t_ns, design.herald_t_ns),
                          (50, 349))
        se = math.sqrt(0.0036 * (1 - 0.0036) / design.n_trials)
        assert abs(s.p1 - 0.0036) <= 3 * se

    def test_zero_background_g12_is_inverse_p1(self):
        design = SynthDesign(n_trials=100_000, p1=0.05)
        store = synthesize_log(PAPER_STYLE, design, seed=13)
        s = correlations(probabilities(
            store, (design.herald_t_ns, design.herald_t_ns), (50, 349)))
        # herald-gated field 2: g12 = P_c/p2_eff = 1/p1
        assert s.g12 == pytest.approx(1 / 0.05, rel=0.05)

    def test_heavy_background_washes_out_g12(self):
        design = SynthDesign(n_trials=100_000, p1=0.05,
                             background_per_ns=5e-4)
        store = synthesize_log(PAPER_STYLE, design, seed=14)
        s = correlations(probabilities(store, (0, 49), (50, 349)))
        assert abs(s.g12 - 1.0) <= 0.1


class TestConditionalWavepacketWindows:
    STORE_LINES = ["0,F1A,20", "0,F2A,60", "1,F1B,20"]

    @pytest.mark.parametrize("window", [(2000, 2100), (-50, -10), (20, 1500),
                                        (30, 20)])
    def test_herald_window_outside_trial_window(self, window):
        store = make_store(self.STORE_LINES, n_trials=4)
        with pytest.raises(ParamError) as info:
            conditional_wavepacket(store, window, 1)
        assert info.value.fields == ("herald_window",)

    @pytest.mark.parametrize("t_range", [(1400, 1600), (-10, 100)])
    def test_range_outside_trial_window(self, t_range):
        store = make_store(self.STORE_LINES, n_trials=4)
        with pytest.raises(ParamError) as info:
            conditional_wavepacket(store, (0, 49), 1, t_range=t_range)
        assert info.value.fields == ("t_range",)

    def test_whole_window_accepted(self):
        store = make_store(self.STORE_LINES, n_trials=4)
        bw = conditional_wavepacket(store, (0, 1499), 1, t_range=(0, 1500))
        assert bw.t_hi_ns[-1] == 1500 and bw.n_coinc.sum() == 1


class TestExactSynthesis:
    """The emission law and the background process of ``synthesize_log``."""

    def test_emission_cdf_ends_at_window_pc(self):
        cdf = _emission_cdf(PAPER_STYLE, 300)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pc_integral(PAPER_STYLE, 300 * 1e-3)

    @pytest.mark.parametrize("gamma_deph_mhz", [5.0, 10.0])
    def test_emission_cdf_nondecreasing_below_rounding(self, gamma_deph_mhz):
        # fast dephasing: past ~100 ns the true increments fall below one
        # ulp, and the rounded P_c(k ns) can step down
        params = PAPER_STYLE.replace(gamma_deph=mhz_to_angular(gamma_deph_mhz))
        horizons = np.arange(1, 301) * 1e-3
        assert np.any(np.diff(pc_integral(params, horizons)) < 0)
        cdf = _emission_cdf(params, 300)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(pc_integral(params, 0.3), rel=1e-14)

    def test_heralded_emission_bins_follow_exact_probabilities(self):
        from scipy.stats import chi2
        params = PAPER_STYLE.replace(scale_f=4.1 * 20)
        design = SynthDesign(n_trials=200_000, p1=1.0)
        store = synthesize_log(params, design, seed=21)
        k = store.t_ns[store.channel >= 2] - design.read_start_ns
        assert k.min() >= 0 and k.max() < design.read_window_ns
        counts = np.bincount(k, minlength=design.read_window_ns)
        expect = design.n_trials * np.diff(
            _emission_cdf(params, design.read_window_ns), prepend=0.0)
        assert np.all(counts[expect == 0] == 0)
        # bins with >= 5 expected counts, the rest pooled, and the trials
        # without an emission as the last category of the multinomial
        keep = expect >= 5
        obs = np.append(counts[keep], [counts[~keep].sum(),
                                       design.n_trials - counts.sum()])
        exp = np.append(expect[keep], [expect[~keep].sum(),
                                       design.n_trials - expect.sum()])
        stat = float(np.sum((obs - exp) ** 2 / exp))
        assert chi2.sf(stat, obs.size - 1) > 1e-3

    def test_background_counts_are_poisson_per_trial(self):
        # no drive: field 2 holds background counts only
        params = PAPER_STYLE.replace(omega=0.0)
        lam = 1.0
        design = SynthDesign(n_trials=50_000, p1=0.01,
                             background_per_ns=lam / 1500)
        counts = []
        for seed in range(4):
            store = synthesize_log(params, design, seed=seed)
            for code in (2, 3):
                counts.append(np.bincount(store.trial[store.channel == code],
                                          minlength=design.n_trials))
        n = np.concatenate(counts)
        size = n.size
        assert abs(n.mean() - lam) <= 5 * math.sqrt(lam / size)
        assert abs(n.var() - lam) <= 5 * math.sqrt((lam + 2 * lam ** 2) / size)
        # the distribution of a trial's count is Poisson(lam), and the
        # seeds draw different logs
        freq = np.bincount(n, minlength=4)[:4] / size
        pmf = np.exp(-lam) * lam ** np.arange(4) / [1, 1, 2, 6]
        assert np.allclose(freq, pmf, atol=5 * math.sqrt(0.25 / size))
        assert not np.array_equal(counts[0], counts[2])
