import hashlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingest_oracle import log_file
from qmemread import (CorrelationSummary, ParamError, ReadoutParams,
                      SynthDesign, conditional_wavepacket, correlations,
                      ingest, integrate_Pc, mhz_to_angular, pc_at,
                      pc_integral, probabilities, synthesize_log, write_log)
import qmemread.counting as counting
import qmemread.wavepacket as wavepacket
from qmemread.counting import CHANNELS, _emission_cdf

GAMMA = mhz_to_angular(5.2)

PAPER_STYLE = ReadoutParams.from_user_units(
    delta_mhz=1.7, chi=2.7, gamma_deph_mhz=1.55, scale_f=4.1,
    i_r_mw_cm2=95.0, i_sat_mw_cm2=12.0)


def make_store(lines, **kw):
    with log_file(lines) as path:
        return ingest(path, **kw)


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


def wavepacket_oracle(store, herald_window, bin_width_ns, t_range):
    """Independent per-trial scan for ``conditional_wavepacket``: the herald
    count, and the field-2 counts per bin in all and in heralded trials."""
    per_trial = {}
    for tr, ch, t in zip(store.trial.tolist(), store.channel.tolist(),
                         store.t_ns.tolist()):
        per_trial.setdefault(tr, []).append((ch, t))
    lo_h, hi_h = herald_window
    lo, hi = t_range
    n_bins = (hi - lo) // bin_width_ns
    n_heralds, n_all, n_her = 0, [0] * n_bins, [0] * n_bins
    for events in per_trial.values():
        heralded = any(ch < 2 and lo_h <= t <= hi_h for ch, t in events)
        n_heralds += heralded
        for ch, t in events:
            if ch >= 2 and lo <= t < lo + n_bins * bin_width_ns:
                n_all[(t - lo) // bin_width_ns] += 1
                n_her[(t - lo) // bin_width_ns] += heralded
    return n_heralds, n_all, n_her


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
        with pytest.raises(ParamError) as info:
            probabilities(store, (0, 10), (20, 30))
        assert info.value.fields == ("n_trials",)

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

    def test_r_cs_error_carries_only_the_joint_probabilities(self):
        # R = p12^2 / (p11 p22): moving p1, p2 and their errors at fixed
        # p11, p22, p12 moves g11, g22 and g12 but neither R nor its error
        joint = dict(p11=4e-5, p22=9e-6, p12=6e-5, u_p11=2e-6, u_p22=1e-6,
                     u_p12=3e-6)
        outs = [correlations(self.base(p1=p1, p2=p2, u_p1=u1, u_p2=u2, **joint))
                for p1, p2, u1, u2 in ((0.004, 0.002, 6e-5, 4e-5),
                                       (0.01, 0.0005, 1e-4, 2e-5),
                                       (0.002, 0.003, 1e-6, 5e-4))]
        r = 6e-5 ** 2 / (4e-5 * 9e-6)
        u = r * math.sqrt(4 * (3e-6 / 6e-5) ** 2 + (2e-6 / 4e-5) ** 2
                          + (1e-6 / 9e-6) ** 2)
        for out in outs:
            assert out.r_cs == pytest.approx(r, rel=1e-12)
            assert out.u_r_cs == pytest.approx(u, rel=1e-12)
        assert len({out.g12 for out in outs}) == 3

    def test_r_cs_error_none_without_coincidences(self):
        out = correlations(self.base(p1=0.01, p2=0.01, p11=1e-4, p22=1e-4,
                                     p12=0.0, u_p11=1e-5, u_p22=1e-5))
        assert out.r_cs == 0.0 and out.u_r_cs is None

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
        with pytest.raises(ParamError) as info:
            conditional_wavepacket(store, (0, 49), 1)
        assert info.value.fields == ("herald_window",)

    def test_zero_trials_error(self):
        with pytest.raises(ParamError) as info:
            conditional_wavepacket(make_store([]), (0, 49), 1)
        assert info.value.fields == ("n_trials",)

    @pytest.mark.parametrize("bin_width", [2 ** 62, 2 ** 63])
    def test_bins_end_below_2_63(self, bin_width):
        # a trial window of 2**63 ns holds every int64 time, but a bin edge
        # at 2**63 is no int64: it wrapped to -2**63, or overflowed
        store = make_store(["0,F1A,20", "0,F2A,60"], trial_window_ns=2 ** 63)
        with pytest.raises(ParamError) as info:
            conditional_wavepacket(store, (20, 20), bin_width)
        assert info.value.fields == ("t_range",)
        edge = conditional_wavepacket(store, (20, 20), 2 ** 63 - 1)
        assert edge.t_hi_ns.tolist() == [2 ** 63 - 1]

    @pytest.mark.parametrize("extra", [0, 1])
    def test_bin_count_bound(self, monkeypatch, extra):
        # the bound itself reaches the histogram, one bin more is named
        # before it; the histogram is not built at the bound
        class Reached(Exception):
            pass

        def bincount(idx, minlength):
            raise Reached(minlength)

        n = counting._MAX_BINS + extra
        store = make_store(["0,F1A,20"], trial_window_ns=n)
        monkeypatch.setattr(np, "bincount", bincount)
        if extra:
            with pytest.raises(ParamError) as info:
                conditional_wavepacket(store, (0, 49), 1)
            assert info.value.fields == ("t_range",)
        else:
            with pytest.raises(Reached) as info:
                conditional_wavepacket(store, (0, 49), 1)
            assert info.value.args == (n,)

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


SMALL_WINDOW = 40


@st.composite
def small_logs(draw):
    """A log of a few trials with several events per trial, repeats, times
    at both ends of the trial window, and trials far beyond any array."""
    first = draw(st.sampled_from([0, 10 ** 17]))
    events = st.tuples(st.integers(first, first + 5), st.sampled_from(CHANNELS),
                       st.sampled_from([0, 1, 2, 3, SMALL_WINDOW - 1])
                       | st.integers(0, SMALL_WINDOW - 1))
    rows = draw(st.lists(events, max_size=40))
    rows += draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    lines = [f"{tr},{ch},{t}" for tr, ch, t in draw(st.permutations(rows))]
    n_trials = draw(st.sampled_from([None, first + 6, first + 1000]))
    return lines, n_trials


def windows():
    """Inclusive (lo, hi) windows in the trial window, ends included."""
    ends = st.sampled_from([0, 1, SMALL_WINDOW - 2, SMALL_WINDOW - 1]) | \
        st.integers(0, SMALL_WINDOW - 1)
    return st.tuples(ends, ends).map(sorted).map(tuple)


class TestStatsAgainstOracles:
    """``probabilities`` and ``conditional_wavepacket`` against the per-trial
    scans ``recount_oracle`` and ``wavepacket_oracle`` above."""

    @staticmethod
    def store(log):
        lines, n_trials = log
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # collapsed repeats
            return make_store(lines, n_trials=n_trials,
                              trial_window_ns=SMALL_WINDOW)

    @settings(max_examples=300, deadline=None)
    @given(log=small_logs(), w1=windows(), w2=windows())
    def test_probabilities_match_recount_oracle(self, log, w1, w2):
        store = self.store(log)
        if store.n_trials == 0:
            return
        s = probabilities(store, w1, w2)
        assert (s.p1, s.p2, s.p11, s.p22, s.p12) == recount_oracle(store, w1, w2)

    @settings(max_examples=300, deadline=None)
    @given(log=small_logs(), herald=windows(), t_range=windows(),
           bin_width=st.integers(1, 7))
    def test_wavepacket_matches_oracle(self, log, herald, t_range, bin_width):
        store = self.store(log)
        lo, hi = t_range[0], t_range[1] + 1         # half-open
        if store.n_trials == 0 or hi - lo < bin_width:
            return
        n_heralds, n_all, n_her = wavepacket_oracle(store, herald, bin_width,
                                                    (lo, hi))
        if n_heralds == 0:
            with pytest.raises(ParamError, match="empty herald set"):
                conditional_wavepacket(store, herald, bin_width, (lo, hi))
            return
        bw = conditional_wavepacket(store, herald, bin_width, (lo, hi))
        assert bw.n_heralds == n_heralds
        assert bw.n_coinc.tolist() == n_her
        assert np.array_equal(bw.pc, np.array(n_her) / n_heralds)
        p2 = np.array(n_all) / store.n_trials
        populated = p2 > 0
        assert np.array_equal(bw.g12[populated], bw.pc[populated] / p2[populated])
        assert np.all(np.isnan(bw.g12[~populated]))


    @settings(max_examples=200, deadline=None)
    @given(log=small_logs(), w1=windows(), w2=windows(), herald=windows())
    def test_kept_selections_match_oracles(self, log, w1, w2, herald):
        # one store through windows that repeat, change and coincide
        # between the fields; every result against the per-trial scans
        store = self.store(log)
        if store.n_trials == 0:
            return
        t_range = (0, SMALL_WINDOW)
        for a, b, h in ((w1, w2, w1), (w2, w1, herald), (w1, w2, herald),
                        (w1, w1, w1), (herald, w2, w1)):
            s = probabilities(store, a, b)
            assert (s.p1, s.p2, s.p11, s.p22, s.p12) == \
                recount_oracle(store, a, b)
            n_heralds, _, n_her = wavepacket_oracle(store, h, 1, t_range)
            if n_heralds == 0:
                with pytest.raises(ParamError, match="empty herald set"):
                    conditional_wavepacket(store, h)
                continue
            bw = conditional_wavepacket(store, h)
            assert (bw.n_heralds, bw.n_coinc.tolist()) == (n_heralds, n_her)

    def test_default_herald_window_is_field_1_window(self):
        # stats' default: the herald window is field 1's window, so the
        # heralds are the trials p1 counts
        store = synthesize_log(PAPER_STYLE, SynthDesign(
            n_trials=3000, p1=0.2, background_per_ns=1e-4), seed=4)
        summary = probabilities(store, (20, 20), (50, 349))
        binned = conditional_wavepacket(store, (20, 20))
        assert binned.n_heralds == round(summary.p1 * store.n_trials)


class TestTrialCountBeyondArrays:
    """Nothing in ``stats`` has one entry per trial: a store's counts do not
    depend on ``n_trials``, and only the divisions do."""

    LINES = ["0,F1A,20", "0,F1B,20", "0,F2A,60", "1,F1B,20", "2,F2B,60",
             "2,F2A,61", "3,F1A,25", "3,F2B,100"]

    def test_counts_equal_at_4_and_10_to_the_20_trials(self):
        small = make_store(self.LINES, n_trials=4)
        big = make_store(self.LINES, n_trials=10 ** 20)
        s, b = (probabilities(x, (20, 25), (50, 349)) for x in (small, big))
        for name in ("p1", "p2", "p11", "p22", "p12"):
            count = getattr(s, name) * 4
            assert count == int(count) > 0
            assert getattr(b, name) == count / 10 ** 20
        ws, wb = (conditional_wavepacket(x, (20, 20), 3, t_range=(50, 110))
                  for x in (small, big))
        assert wb.n_trials == 10 ** 20 and wb.n_heralds == ws.n_heralds == 2
        assert np.array_equal(wb.n_coinc, ws.n_coinc)
        assert np.array_equal(wb.pc, ws.pc)
        populated = ~np.isnan(ws.g12)
        assert np.array_equal(populated, ~np.isnan(wb.g12))
        assert np.allclose(wb.g12[populated], ws.g12[populated] * 10 ** 20 / 4,
                           rtol=1e-15)


class TestSynthesize:
    def test_no_drive_no_field2(self):
        params = PAPER_STYLE.replace(omega=0.0)
        design = SynthDesign(n_trials=2000, p1=0.3)
        store = synthesize_log(params, design, seed=1)
        assert not np.any(np.isin(store.channel, (2, 3)))
        assert np.any(np.isin(store.channel, (0, 1)))

    def test_model_inconsistency_error(self):
        params = PAPER_STYLE.replace(scale_f=4.1 * 60)  # P_c > 1
        with pytest.raises(ParamError, match="P_c = .* > 1") as info:
            synthesize_log(params, SynthDesign(n_trials=10, p1=0.5), seed=0)
        assert info.value.fields == ("scale_f",)

    def test_design_validation(self):
        with pytest.raises(ParamError):
            SynthDesign(n_trials=0, p1=0.5)
        with pytest.raises(ParamError):
            SynthDesign(n_trials=10, p1=0.0)
        with pytest.raises(ParamError):
            SynthDesign(n_trials=10, p1=0.5, background_per_ns=-1e-6)

    def test_designs_at_the_allocation_caps_accepted(self):
        # 4 background_per_ns window_ns n_trials = 1e8 expected counts
        SynthDesign(n_trials=1000, p1=0.5, background_per_ns=1e8 / 6e6)
        # a read window of 1e6 ns, as asked or cut by the trial window
        SynthDesign(n_trials=10, p1=0.5, window_ns=2 * 10 ** 6,
                    read_window_ns=10 ** 6)
        SynthDesign(n_trials=10, p1=0.5, window_ns=10 ** 6 + 50,
                    read_window_ns=10 ** 8)

    @pytest.mark.parametrize("key,design", [
        ("background_per_ns", dict(n_trials=1000,
                                   background_per_ns=1e8 / 6e6 * 1.000001)),
        ("background_per_ns", dict(n_trials=1000, background_per_ns=1e300)),
        ("background_per_ns", dict(n_trials=10 ** 9, window_ns=10 ** 9,
                                   background_per_ns=1e-9)),
        ("read_window_ns", dict(n_trials=10, window_ns=2 * 10 ** 6,
                                read_window_ns=10 ** 6 + 1)),
        ("read_window_ns", dict(n_trials=10, window_ns=10 ** 6 + 51,
                                read_window_ns=10 ** 8))],
        ids=["background-past-cap", "background-1e300", "background-of-cells",
             "read-window-past-cap", "read-window-cut-by-trial-window"])
    def test_allocation_caps(self, key, design):
        with pytest.raises(ParamError) as info:
            SynthDesign(p1=0.5, **design)
        assert info.value.fields == (key,)

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

    def test_emission_cdf_memory_bounded_at_read_window_cap(self):
        # evaluated in blocks, the 1e6 ns cap holds a few arrays of 8 MB,
        # not one call's temporaries over every ns (384 MB)
        import tracemalloc
        tracemalloc.start()
        try:
            cdf = _emission_cdf(PAPER_STYLE, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert cdf.size == 10 ** 6 and cdf[-1] == cdf.max()

    def test_emission_cdf_blocks_match_one_call(self):
        # 70 000 ns spans two block edges
        n = 70_000
        assert n > 2 * wavepacket._BLOCK
        one_call = pc_integral(PAPER_STYLE, np.arange(1, n + 1) * 1e-3)
        assert np.array_equal(_emission_cdf(PAPER_STYLE, n),
                              np.maximum.accumulate(one_call))

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
        counts, totals, merged = [], [], []
        for seed in range(4):
            store = synthesize_log(params, design, seed=seed)
            merged.append(store.n_duplicates)
            for code in (2, 3):
                counts.append(np.bincount(store.trial[store.channel == code],
                                          minlength=design.n_trials))
            # each channel's total; field 1 without the herald time's ns
            for code in range(4):
                keep = store.channel == code
                if code < 2:
                    keep &= store.t_ns != design.herald_t_ns
                totals.append(np.count_nonzero(keep))
            # the two field-2 channels of a trial are independent
            r = np.corrcoef(counts[-2], counts[-1])[0, 1]
            assert abs(r) <= 5 / math.sqrt(design.n_trials)
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
        # every channel's total is Poisson(lam n_trials), less the field-1
        # herald ns (and about 17 merged counts per channel, 0.08 SD)
        from scipy.stats import chi2
        mean = lam * design.n_trials * np.array([1499 / 1500] * 2 + [1] * 2)
        z = (np.array(totals).reshape(4, 4) - mean) / np.sqrt(mean)
        assert np.all(np.abs(z) <= 5)
        assert chi2.sf(float(np.sum(z ** 2)), z.size) > 1e-3
        # drawn counts that share a (trial, t, channel) cell are merged: of
        # Lam = 4 lam n_trials draws over M cells, Lam - M (1 - exp(-Lam/M))
        # on average (the heralds add about 0.3, a tenth of the SE)
        cells = 4 * design.n_trials * design.window_ns
        mu = 4 * lam * design.n_trials / cells          # draws per cell
        per_cell = mu + math.expm1(-mu)                 # E[merged] per cell
        var = cells * (mu ** 2 - per_cell - per_cell ** 2)
        se = math.sqrt(var / len(merged))
        assert abs(np.mean(merged) - cells * per_cell) <= 5 * se

    def test_zero_background_log_is_pinned(self, tmp_path):
        # heralds and emissions keep their draws: the bytes of a log
        # without background are fixed
        params = PAPER_STYLE.replace(scale_f=4.1 * 10)
        store = synthesize_log(params, SynthDesign(n_trials=3000, p1=0.2),
                               seed=2024)
        path = tmp_path / "log.csv"
        write_log(store, path)
        assert len(store) == 716 and store.n_duplicates == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "d11280e53bc72916b262257935599706c9f7d50f8939342b53686c596e91a65f")
