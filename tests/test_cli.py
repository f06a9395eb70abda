import gzip
import hashlib
import json
import warnings

import numpy as np
import pytest

from qmemread import (ReadoutParams, SynthDesign,
                      conditional_wavepacket, detuning_spectrum, ingest,
                      pc_curve, saturation_curve, synthesize_log)
from qmemread.cli import _read_dataset_csv, _write_json, main

PAPER_BLOCK = {
    "params": {"delta_mhz": 1.7, "chi": 2.7, "gamma_deph_mhz": 1.55,
               "scale_f": 4.1},
    "intensity": {"i_sat_mw_cm2": 12.0},
}


# the error of a read intensity whose Rabi frequency passes 1e60 rad/us,
# before the value of i_sat
OMEGA_BOUND = "read intensity gives a Rabi frequency above 1e+60 rad/us at "
# the ranges of params.DOMAIN, as its errors state them
DELTA_DOMAIN = "delta in [-1e+20, 1e+20] rad/us"
HORIZON_DOMAIN = "need horizon in [1e-20, 1e+20] us, or inf"
PARAM_RANGES = {"chi": "chi in [1, 1e+20]", "delta_mhz": DELTA_DOMAIN,
                "gamma_deph_mhz": "gamma_deph in [0, 1e+20] rad/us",
                "tau_ns": "tau in [0, 1e+20] us",
                "scale_f": "scale_f in [0, 1e+20]"}
# the read drive of each command, in the model's domain
DRIVES = {"wavepacket": {"i_r_mw_cm2": [95]},
          "sweep-intensity": {"i_r_grid_mw_cm2": [24, 95]},
          "sweep-detuning": {"i_r_mw_cm2": 95, "delta_grid_mhz": [0, 1.7]}}
SWEEPS = ("sweep-intensity", "sweep-detuning")
# finite config numbers whose squares and products overflowed the closed
# forms: each exited 0 writing nan or inf rows.  A params row keeps the test
# id it was given when the error named the params block alone: its command,
# its place in the table (after 8 other rows) and that message.
DOMAIN_ROWS = (
    [pytest.param(
        c, {**DRIVES[c], "params": dict(PAPER_BLOCK["params"], **{key: v})},
        f"params.{key}: need {PARAM_RANGES[key]}",
        id=f"{c}-extra{i}-params: need {PARAM_RANGES[key]}")
     for i, (key, c, v) in enumerate((
         (key, c, v) for key, commands, values in (
             ("chi", tuple(DRIVES), (1e155, 1e200, 1e308)),
             ("delta_mhz", ("wavepacket", "sweep-intensity"), (1e155, 1e200)),
             ("gamma_deph_mhz", SWEEPS, (1e155, 1e200)),
             ("tau_ns", SWEEPS, (1e155, 1e200, 1e308)),
             ("scale_f", SWEEPS, (1e308,)))
         for c in commands for v in values), start=8)]
    + [(c, {**DRIVES[c], "horizon_ns": 1e-300}, "horizon_ns: " + HORIZON_DOMAIN)
       for c in SWEEPS]
    + [("sweep-detuning", {"i_r_mw_cm2": 95, "delta_grid_mhz": [0, v, -v]},
        f"delta_grid_mhz: need {DELTA_DOMAIN}") for v in (1e155, 1e200, 1e300)])


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(args):
    return main(args)


class TestValidationFailures:
    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run(["wavepacket", "--config", str(p), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text,cause", [
        (b'{"i_r_mw_cm2": [95\xff]}', "can't decode byte 0xff"),
        (b'{"i_r_mw_cm2": [' + b"9" * 5000 + b"]}",
         "Exceeds the limit (4300 digits)")],
        ids=["non-utf8", "int-5000-digits"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, text, cause):
        # json.loads and the UTF-8 decode raise ValueError, not
        # JSONDecodeError: each exited 1 with a traceback
        p = tmp_path / "bad.json"
        p.write_bytes(text)
        out = tmp_path / "out"
        assert run(["wavepacket", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and cause in err
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK, "i_r_mw_cm2": [95],
                                   "typo_key": 1})
        assert run(["wavepacket", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_params_key_rejected(self, tmp_path):
        bad = {"params": dict(PAPER_BLOCK["params"], delta_ghz=1.0),
               "intensity": PAPER_BLOCK["intensity"], "i_r_mw_cm2": [95]}
        cfg = write_cfg(tmp_path, bad)
        assert run(["wavepacket", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_empty_sweep_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK, "i_r_grid_mw_cm2": []})
        assert run(["sweep-intensity", "--config", cfg,
                    "--out", str(tmp_path)]) == 2

    def test_invalid_physical_params(self, tmp_path):
        bad = {"params": dict(PAPER_BLOCK["params"], chi=0.2),
               "intensity": PAPER_BLOCK["intensity"], "i_r_mw_cm2": [95]}
        cfg = write_cfg(tmp_path, bad)
        assert run(["wavepacket", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_seed_required_for_synth(self, tmp_path):
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK,
                                   "params": dict(PAPER_BLOCK["params"],
                                                  i_r_mw_cm2=95.0),
                                   "design": {"n_trials": 10, "p1": 0.5}})
        assert run(["synth", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_no_partial_outputs_on_failure(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, {
            "log_path": str(tmp_path / "missing.csv"),
            "window1_ns": [0, 49], "window2_ns": [50, 349]})
        assert run(["stats", "--config", cfg, "--out", str(out)]) == 1
        assert not list(out.glob("*")) if out.exists() else True


class TestWavepacketCommand:
    def test_figure_style_trios(self, tmp_path):
        out = tmp_path / "fig2"
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK, "i_r_mw_cm2": [32, 68, 95]})
        assert run(["wavepacket", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        names = sorted(p.name for p in out.glob("wavepacket_*.csv"))
        assert names == ["wavepacket_ir32.csv", "wavepacket_ir68.csv",
                         "wavepacket_ir95.csv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == set(names)
        data = np.genfromtxt(out / "wavepacket_ir95.csv", delimiter=",",
                             names=True)
        assert data["t_ns"].size == 161
        assert data["pc_per_ns"][0] == 0.0

        out3 = tmp_path / "fig3"
        blk = {"params": dict(PAPER_BLOCK["params"], delta_mhz=25.7),
               "intensity": PAPER_BLOCK["intensity"],
               "i_r_mw_cm2": [52, 80, 160]}
        assert run(["wavepacket", "--config", write_cfg(tmp_path, blk, "f3.json"),
                    "--out", str(out3), "--quiet"]) == 0
        assert len(list(out3.glob("wavepacket_*.csv"))) == 3

    def test_zero_drive_curve(self, tmp_path):
        out = tmp_path / "zero"
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK, "i_r_mw_cm2": [0]},
                        "zero.json")
        assert run(["wavepacket", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        data = np.genfromtxt(out / "wavepacket_ir0.csv", delimiter=",",
                             names=True)
        assert np.all(data["pc_per_ns"] == 0.0)

    def test_step_wider_than_window_exit_2(self, tmp_path, capsys):
        # 160 / 1e12 steps rounds to 0, which a divisibility test passes
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK, "i_r_mw_cm2": [95],
                                   "window": {"t_start_ns": 0, "t_end_ns": 160,
                                              "step_ns": 1e12}})
        out = tmp_path / "wide"
        assert run(["wavepacket", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(
            "validation error: window: step_ns must not exceed ")
        assert not out.exists()

    def test_step_count_overflow_exit_2(self, tmp_path, capsys):
        # 1e300 / 1e-300 steps is inf, which round() cannot take
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK, "i_r_mw_cm2": [95],
                                   "window": {"t_start_ns": 0,
                                              "t_end_ns": 1e300,
                                              "step_ns": 1e-300}})
        out = tmp_path / "many"
        assert run(["wavepacket", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "validation error: window: (t_end_ns - t_start_ns) / step_ns "
            "overflows\n")
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK, "i_r_mw_cm2": [95]})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["wavepacket", "--config", cfg, "--out", str(out_a),
                    "--quiet"]) == 0
        assert run(["wavepacket", "--config", cfg, "--out", str(out_b),
                    "--quiet"]) == 0
        assert (out_a / "wavepacket_ir95.csv").read_bytes() == \
            (out_b / "wavepacket_ir95.csv").read_bytes()


class TestSweepCommands:
    def test_intensity_sweep(self, tmp_path):
        out = tmp_path / "sat"
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK,
                                   "i_r_grid_mw_cm2": [0, 24, 95, 160],
                                   "horizon_ns": 160})
        assert run(["sweep-intensity", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        data = np.genfromtxt(out / "sweep_intensity.csv", delimiter=",",
                             names=True)
        assert data["Pc"][0] == 0.0
        assert np.all(np.diff(data["Pc"]) > 0)

    def test_detuning_sweep_fig7_style(self, tmp_path):
        out = tmp_path / "spec"
        blk = {"params": dict(PAPER_BLOCK["params"], scale_f=4.8),
               "intensity": PAPER_BLOCK["intensity"],
               "i_r_mw_cm2": 127.0,
               "delta_grid_mhz": [-20, -10, 0, 10, 20],
               "horizon_ns": 160}
        cfg = write_cfg(tmp_path, blk, "f7.json")
        assert run(["sweep-detuning", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        data = np.genfromtxt(out / "sweep_detuning.csv", delimiter=",",
                             names=True)
        pc = data["Pc"]
        assert pc[2] == max(pc)                      # peaked at resonance
        assert pc[0] == pytest.approx(pc[4], rel=1e-10)  # symmetric

    @pytest.mark.parametrize("horizon_ns,sha256", [
        (160, "fe7a7709f0c49fd51bb1f24d69bd1e1a9d5907462bad536d4c5a625743d8f600"),
        ("inf", "f899aa5129d194c5c19336ddc327fa5820314e58bd22fc8434fa0043d4634447"),
    ])
    def test_detuning_sweep_bytes_pinned(self, tmp_path, horizon_ns, sha256):
        out = tmp_path / "spec"
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK, "i_r_mw_cm2": 127.0,
                                   "delta_grid_mhz": [-33.3, -1, 0, 2.5, 1e3],
                                   "horizon_ns": horizon_ns})
        assert run(["sweep-detuning", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        data = (out / "sweep_detuning.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256

    @pytest.mark.parametrize("gamma_nat_mhz,horizon_ns,sha256", [
        (5.2, 160, "2297251c210f6d68d743997f20af9250c4b0680b350e68581b928858646ee962"),
        (5.2, "inf", "631339a47002a4e840671874e159e4a0e967cd7282f4d36a61097246998c03b6"),
        (6.0, 160, "6fd39433620a34b6d97f5eb478b1fcbea9d7253678ec6d937a28f43cda69116b"),
        (6.0, "inf", "5ca46dd58a9d654611fda69ee8ef23436a413589dc78a363ae6276b7828c20e6"),
    ])
    def test_intensity_sweep_bytes_pinned(self, tmp_path, gamma_nat_mhz,
                                          horizon_ns, sha256):
        # Gamma reaches Omega(I_r) from the params block alone
        out = tmp_path / "sat"
        cfg = write_cfg(tmp_path, {
            **PAPER_BLOCK,
            "params": dict(PAPER_BLOCK["params"], gamma_nat_mhz=gamma_nat_mhz),
            "i_r_grid_mw_cm2": [0, 0.5, 24, 95, 1e4], "horizon_ns": horizon_ns})
        assert run(["sweep-intensity", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        data = (out / "sweep_intensity.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256

    @pytest.mark.parametrize("command,extra,message", [
        ("sweep-intensity", {"i_r_grid_mw_cm2": [24, 95], "horizon_ns": -5},
         "horizon_ns: " + HORIZON_DOMAIN),
        ("sweep-detuning", {"i_r_mw_cm2": 95, "delta_grid_mhz": [0, 1.7],
                            "horizon_ns": -5},
         "horizon_ns: " + HORIZON_DOMAIN),
        ("sweep-intensity", {"i_r_grid_mw_cm2": [24, -95]},
         "i_r_grid_mw_cm2: read intensity must be finite and >= 0"),
        ("sweep-detuning", {"i_r_mw_cm2": -95, "delta_grid_mhz": [0, 1.7]},
         "i_r_mw_cm2: read intensity must be finite and >= 0"),
        # finite in MHz, inf in rad/us
        ("sweep-detuning", {"i_r_mw_cm2": 95, "delta_grid_mhz": [0, 1e308]},
         "delta_grid_mhz: need " + DELTA_DOMAIN),
        # finite, but Omega^2 would overflow into nan rows
        ("wavepacket", {"i_r_mw_cm2": [95, 1e308]},
         "i_r_mw_cm2: " + OMEGA_BOUND + "i_sat = 12"),
        ("sweep-intensity", {"i_r_grid_mw_cm2": [24, 1e308]},
         "i_r_grid_mw_cm2: " + OMEGA_BOUND + "i_sat = 12"),
        ("sweep-detuning", {"i_r_mw_cm2": 1e308, "delta_grid_mhz": [0, 1.7]},
         "i_r_mw_cm2: " + OMEGA_BOUND + "i_sat = 12"),
        *DOMAIN_ROWS,
    ])
    def test_range_error_names_config_key(self, tmp_path, capsys, command,
                                          extra, message):
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK, **extra})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--config", cfg, "--out", str(out),
                        "--quiet"]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not out.exists()


def old_csv(header, row, *columns):
    """The CSV text the result types' own writers rendered before the CLI
    wrote every file: ``row`` is an f-string renderer of one row."""
    return header + "\n" + "".join(
        row(*r) + "\n" for r in zip(*(np.asarray(c).tolist() for c in columns)))


def old_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def two_columns(x, y):
    return f"{x:.12g},{y:.12g}"


def user_params(**extra):
    return ReadoutParams.from_user_units(**PAPER_BLOCK["params"],
                                         i_sat_mw_cm2=12.0, **extra)


class TestOutputFiles:
    """Each CSV kind, byte for byte, against the old per-type rendering."""

    def test_wavepacket_csv(self, tmp_path):
        out = tmp_path / "wp"
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK, "i_r_mw_cm2": [95],
                                   "window": {"t_start_ns": 4, "t_end_ns": 60,
                                              "step_ns": 0.5}})
        assert run(["wavepacket", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        curve = pc_curve(user_params(i_r_mw_cm2=95), 4e-3, 60e-3, 113)
        assert (out / "wavepacket_ir95.csv").read_text() == old_csv(
            "t_ns,pc_per_ns", two_columns, curve.t_ns, curve.pc_per_ns)

    def test_sweep_csvs(self, tmp_path):
        grid = [0, 0.5, 24, 95, 1e4]
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK, "i_r_grid_mw_cm2": grid,
                                   "horizon_ns": "inf"})
        assert run(["sweep-intensity", "--config", cfg, "--out",
                    str(tmp_path / "sat"), "--quiet"]) == 0
        sat = saturation_curve(user_params(i_r_mw_cm2=0.0), 12.0, grid)
        assert (tmp_path / "sat" / "sweep_intensity.csv").read_text() == \
            old_csv("I_mW_cm2,Pc", two_columns, sat.abscissa, sat.ordinate)

        deltas = [-33.3, -1, 0, 2.5, 1e3]
        cfg = write_cfg(tmp_path, {**PAPER_BLOCK, "i_r_mw_cm2": 127.0,
                                   "delta_grid_mhz": deltas,
                                   "horizon_ns": 160}, "spec.json")
        assert run(["sweep-detuning", "--config", cfg, "--out",
                    str(tmp_path / "spec"), "--quiet"]) == 0
        spec = detuning_spectrum(user_params(i_r_mw_cm2=127.0), deltas,
                                 horizon=0.160)
        assert (tmp_path / "spec" / "sweep_detuning.csv").read_text() == \
            old_csv("Delta_MHz,Pc", two_columns, spec.abscissa, spec.ordinate)

    def test_stats_csv_integer_columns_and_nan_g12(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("trial,channel,t_ns\n0,F1A,20\n0,F2A,60\n1,F2B,61\n"
                       "2,F1B,20\n2,F2A,60\n3,F2B,65\n")
        cfg = write_cfg(tmp_path, {
            "log_path": str(log), "n_trials": 4, "window1_ns": [20, 20],
            "window2_ns": [50, 70], "bin_width_ns": 2,
            "wavepacket_range_ns": [56, 66]}, "stats.json")
        out = tmp_path / "stats"
        assert run(["stats", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        binned = conditional_wavepacket(ingest(str(log), n_trials=4), (20, 20),
                                        bin_width_ns=2, t_range=(56, 66))
        assert np.isnan(binned.g12).sum() == 3
        text = (out / "stats_wavepacket.csv").read_text()
        assert text == old_csv(
            "t_lo_ns,t_hi_ns,pc,g12,n_coinc",
            lambda lo, hi, pc, g, c: f"{lo},{hi},{pc:.12g},{g:.12g},{c}",
            binned.t_lo_ns, binned.t_hi_ns, binned.pc, binned.g12,
            binned.n_coinc)
        assert text.splitlines()[1:3] == ["56,58,0,nan,0", "58,60,0,nan,0"]
        for name in ("stats_summary.json", "manifest.json"):
            saved = (out / name).read_text()
            assert saved == old_json(json.loads(saved))


class TestChiCommand:
    def test_prints_and_writes_consistent_json(self, tmp_path, capsys):
        out = tmp_path / "chi"
        cfg = write_cfg(tmp_path, {
            "geometry": {"n_atoms": 2e6, "waist_m": 1e-4, "length_m": 1e-3,
                         "wavenumber_per_m": 1e7},
            "n_samples": 50_000})
        assert run(["chi", "--config", cfg, "--out", str(out),
                    "--seed", "5"]) == 0
        printed = json.loads(capsys.readouterr().out.split("manifest:")[0])
        saved = json.loads((out / "chi.json").read_text())
        assert printed == saved
        assert saved["closed_form"]["chi"] == pytest.approx(2.0)
        assert saved["branching_ratio"] == pytest.approx(3.0)
        assert saved["extraction_ceiling"] == pytest.approx(0.75)
        assert saved["monte_carlo"]["seed"] == 5

    def test_quiet_prints_nothing(self, tmp_path, capsys):
        out = tmp_path / "chi"
        cfg = write_cfg(tmp_path, {
            "geometry": {"n_atoms": 2e6, "waist_m": 1e-4, "length_m": 1e-3,
                         "wavenumber_per_m": 1e7},
            "n_samples": 2_000})
        assert run(["chi", "--config", cfg, "--out", str(out), "--seed", "5",
                    "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        saved = (out / "chi.json").read_text()
        assert saved == old_json(json.loads(saved))

    @pytest.mark.parametrize("n_batches", [0, 1, -3, 201, 30])
    def test_rejects_bad_batch_count(self, tmp_path, capsys, n_batches):
        # the sampler always runs 30 batches: n_batches is no chi key, and
        # every value, 30 included, exits 2
        out = tmp_path / "chi"
        cfg = write_cfg(tmp_path, {
            "geometry": {"n_atoms": 2e6, "waist_m": 1e-4, "length_m": 1e-3,
                         "wavenumber_per_m": 1e7},
            "n_samples": 200, "n_batches": n_batches})
        assert run(["chi", "--config", cfg, "--out", str(out),
                    "--seed", "5"]) == 2
        assert capsys.readouterr().err == (
            "validation error: config: unknown key(s) ['n_batches']\n")
        assert not out.exists()

    def test_sampled_chi_below_one_exits_0(self, tmp_path):
        # with one atom chi is 1 + 1e-5; seed 809's draw lands more than 3 SE
        # below 1, as an unbiased sampler does now and then
        out = tmp_path / "chi"
        cfg = write_cfg(tmp_path, {
            "geometry": {"n_atoms": 1, "waist_m": 1e-4, "length_m": 1e-3,
                         "wavenumber_per_m": 1e7},
            "n_samples": 3_000})
        assert run(["chi", "--config", cfg, "--out", str(out), "--seed", "809",
                    "--quiet"]) == 0
        mc = json.loads((out / "chi.json").read_text())["monte_carlo"]
        assert mc["chi"] < 1.0 - 3.0 * mc["standard_error"]

    def test_underflowing_waist_square_exits_0(self, tmp_path):
        # W^2 = 1e-340 underflows where (kW)^2 = (kL)^2 = 1e-100 lies inside
        # the domain; squaring W before k divided by zero (exit 1)
        out = tmp_path / "chi"
        cfg = write_cfg(tmp_path, {
            "geometry": {"n_atoms": 2e6, "waist_m": 1e-170, "length_m": 1e-170,
                         "wavenumber_per_m": 1e120},
            "n_samples": 2_000})
        with pytest.warns(UserWarning, match="validity regime"):
            assert run(["chi", "--config", cfg, "--out", str(out),
                        "--seed", "5", "--quiet"]) == 0
        saved = json.loads((out / "chi.json").read_text())
        assert saved["closed_form"]["chi"] == pytest.approx(1.0 + 1e106)
        assert all(np.isfinite(saved[k]["chi"]) for k in
                   ("closed_form", "quadrature", "monte_carlo"))
        assert not any(saved["regime_flags"].values())

    @pytest.mark.parametrize("key,value", [
        ("waist_m", 1e-300), ("waist_m", 5e-324),
        ("wavenumber_per_m", 1e-300), ("wavenumber_per_m", 5e-324),
        ("waist_m", 1e155), ("waist_m", 1e200),
        ("length_m", 1e155), ("length_m", 1e200),
        ("wavenumber_per_m", 1e200), ("wavenumber_per_m", 1e308),
        ("n_samples", 1e155), ("n_samples", 1e200), ("n_samples", 1e308),
        ("n_samples", 1e18)])
    def test_geometry_or_sample_count_out_of_domain_exits_2(
            self, tmp_path, capsys, key, value):
        # without the domain checks a zero (kW)^2 would divide by zero, a
        # huge one overflow, and so would an n_samples past int64 (exit 1);
        # 1e18 samples would ask for PiB of draws (MemoryError, exit 1)
        payload = {"geometry": {"n_atoms": 2e6, "waist_m": 1e-4,
                                "length_m": 1e-3, "wavenumber_per_m": 1e7},
                   "n_samples": 2_000}
        if key == "n_samples":
            payload[key] = value
        else:
            payload["geometry"][key] = value
        out = tmp_path / "chi"
        cfg = write_cfg(tmp_path, payload)
        assert run(["chi", "--config", cfg, "--out", str(out),
                    "--seed", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and key in err
        assert not out.exists()


class TestIntegerConfigKeys:
    """Integer config values: bools, strings and non-integral floats exit 2."""

    GEOMETRY = {"n_atoms": 2e6, "waist_m": 1e-4, "length_m": 1e-3,
                "wavenumber_per_m": 1e7}
    STATS_LOG = "trial,channel,t_ns\n0,F1A,20\n0,F2A,60\n1,F1B,20\n"

    @pytest.mark.parametrize("bad", [True, "x", 2.7],
                             ids=["bool", "string", "fraction"])
    @pytest.mark.parametrize("key", ["n_samples"])
    def test_chi_rejects(self, tmp_path, capsys, key, bad):
        payload = {"geometry": self.GEOMETRY, "n_samples": 200}
        payload[key] = bad
        out = tmp_path / "chi"
        cfg = write_cfg(tmp_path, payload)
        assert run(["chi", "--config", cfg, "--out", str(out),
                    "--seed", "5"]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and key in err
        assert not (out / "chi.json").exists()

    @pytest.mark.parametrize("bad", [False, "20", 20.5],
                             ids=["bool", "string", "fraction"])
    @pytest.mark.parametrize("key,where", [
        ("n_trials", None),
        ("trial_window_ns", None), ("bin_width_ns", None),
        ("window1_ns", 0), ("window2_ns", 1), ("herald_window_ns", 1),
        ("wavepacket_range_ns", 0)])
    def test_stats_rejects(self, tmp_path, capsys, key, where, bad):
        log = tmp_path / "log.csv"
        log.write_text(self.STATS_LOG)
        payload = {"log_path": str(log), "n_trials": 2,
                   "window1_ns": [20, 20], "window2_ns": [50, 349],
                   "herald_window_ns": [20, 20], "bin_width_ns": 1,
                   "wavepacket_range_ns": [50, 350]}
        if where is None:
            payload[key] = bad
        else:
            payload[key][where] = bad
        out = tmp_path / "stats"
        cfg = write_cfg(tmp_path, payload, "stats.json")
        assert run(["stats", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and key in err
        assert not (out / "stats_summary.json").exists()

    def test_integral_float_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"geometry": {"n_atoms": 2e6, "waist_m": 1e-4, '
                       '"length_m": 1e-3, "wavenumber_per_m": 1e7}, '
                       '"n_samples": 1e6}')
        out = tmp_path / "chi"
        assert run(["chi", "--config", str(cfg), "--out", str(out),
                    "--seed", "5", "--quiet"]) == 0
        saved = json.loads((out / "chi.json").read_text())
        assert saved["monte_carlo"]["n_samples"] == 1_000_000
        assert isinstance(saved["monte_carlo"]["n_samples"], int)


class TestPipeline:
    def synth_cfg(self, tmp_path, n_trials=60_000, bg=1e-6, seed_key=True):
        payload = {
            "params": dict(PAPER_BLOCK["params"], i_r_mw_cm2=95.0),
            "intensity": PAPER_BLOCK["intensity"],
            "design": {"n_trials": n_trials, "p1": 0.0036,
                       "background_per_ns": bg},
        }
        return write_cfg(tmp_path, payload, "synth.json")

    def test_synth_then_stats_recovers_quantum_flag(self, tmp_path):
        out_s = tmp_path / "synth"
        cfg = self.synth_cfg(tmp_path)
        assert run(["synth", "--config", cfg, "--out", str(out_s),
                    "--seed", "42", "--quiet"]) == 0
        meta = json.loads((out_s / "synth_meta.json").read_text())
        stats_cfg = write_cfg(tmp_path, {
            "log_path": str(out_s / "synth_log.csv"),
            "n_trials": meta["n_trials"],
            "window1_ns": [20, 20], "window2_ns": [50, 349],
            "herald_window_ns": [20, 20], "bin_width_ns": 1,
            "wavepacket_range_ns": [50, 350]}, "stats.json")
        out_t = tmp_path / "stats"
        assert run(["stats", "--config", stats_cfg, "--out", str(out_t),
                    "--quiet"]) == 0
        summary = json.loads((out_t / "stats_summary.json").read_text())
        assert summary["quantum_g12"] is True
        assert summary["g12"] > 2
        se = (0.0036 * (1 - 0.0036) / meta["n_trials"]) ** 0.5
        assert abs(summary["p1"] - 0.0036) <= 3 * se
        binned = np.genfromtxt(out_t / "stats_wavepacket.csv", delimiter=",",
                               names=True)
        assert binned["t_lo_ns"].size == 300

    def test_stats_counts_rejects_by_reason(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("trial,channel,t_ns\n"
                       "0,F1A,20\n"
                       "1,F1A\n"                # field_count
                       "x,F2A,60\n"             # non_integer
                       "-2,F1B,20\n"            # negative_trial
                       "3,F2B,1500\n"           # outside_window
                       "40,F1A,20\n"            # trial_out_of_range
                       "4,F3A,20\n"             # unknown channel
                       "0,F1A,20\n"             # duplicate
                       "5,F2A,60\n")
        cfg = write_cfg(tmp_path, {
            "log_path": str(log), "n_trials": 10,
            "window1_ns": [20, 20], "window2_ns": [50, 349]}, "stats.json")
        out = tmp_path / "stats"
        with pytest.warns(UserWarning, match="1 duplicate"):
            assert run(["stats", "--config", cfg, "--out", str(out),
                        "--quiet"]) == 0
        block = json.loads((out / "stats_summary.json").read_text())["ingest"]
        # 10 lines; all but the three clean rows (the duplicate among
        # them) go through the per-line validator
        assert block == {
            "n_records": 10, "n_validated": 7,
            "n_events": 2, "n_duplicates": 1, "n_rejected_channel": 1,
            "n_parse_errors": 5,
            "parse_errors_by_reason": {
                "field_count": 1, "non_integer": 1, "negative_trial": 1,
                "outside_window": 1, "trial_out_of_range": 1}}

    def test_stats_with_more_trials_than_any_array(self, tmp_path):
        # nothing in stats has one entry per trial
        log = tmp_path / "log.csv"
        log.write_text("trial,channel,t_ns\n0,F1A,20\n0,F2A,60\n")
        cfg = write_cfg(tmp_path, {
            "log_path": str(log), "n_trials": 1e20,
            "window1_ns": [20, 20], "window2_ns": [50, 349]}, "stats.json")
        out = tmp_path / "stats"
        assert run(["stats", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        summary = json.loads((out / "stats_summary.json").read_text())
        assert summary["n_trials"] == 10 ** 20
        assert summary["p1"] == summary["p2"] == summary["p12"] == 1e-20
        binned = np.genfromtxt(out / "stats_wavepacket.csv", delimiter=",",
                               names=True)
        assert binned["n_coinc"].sum() == 1 and binned["pc"].max() == 1.0

    def test_synth_determinism(self, tmp_path):
        cfg = self.synth_cfg(tmp_path, n_trials=20_000, bg=1e-4)
        out_a, out_b = tmp_path / "sa", tmp_path / "sb"
        for out in (out_a, out_b):
            assert run(["synth", "--config", cfg, "--out", str(out),
                        "--seed", "7", "--quiet"]) == 0
        assert (out_a / "synth_log.csv").read_bytes() == \
            (out_b / "synth_log.csv").read_bytes()

    def test_synth_meta_reports_merged_counts(self, tmp_path):
        # about 30 background counts per trial and channel in 1500 ns, so
        # some share an ns and are merged into one logged event
        cfg = self.synth_cfg(tmp_path, n_trials=1000, bg=0.02)
        out = tmp_path / "synth"
        assert run(["synth", "--config", cfg, "--out", str(out),
                    "--seed", "11", "--quiet"]) == 0
        store = synthesize_log(
            user_params(i_r_mw_cm2=95.0),
            SynthDesign(n_trials=1000, p1=0.0036, background_per_ns=0.02), 11)
        meta = json.loads((out / "synth_meta.json").read_text())
        assert store.n_duplicates > 0
        assert meta == {"n_trials": 1000, "trial_window_ns": 1500, "seed": 11,
                        "n_events": len(store),
                        "n_merged": store.n_duplicates}


class TestFitCommand:
    def test_scale_only_fit_from_files(self, tmp_path):
        # build a dataset file from the model, scaled data with sigma column
        from qmemread.fitting import Dataset, model_eval
        from qmemread.params import mhz_to_angular
        truth = {"gamma_deph": mhz_to_angular(1.55), "i_sat": 12.0,
                 "chi": 2.7, "scale_f": 4.1}
        t = np.arange(0.0, 161.0, 2.0)
        shell = Dataset(kind="wavepacket", x=t, y=np.zeros_like(t),
                        sigma=np.ones_like(t), delta_mhz=1.7, i_r=95.0)
        y = model_eval(truth, shell, mhz_to_angular(5.2), 0.05)
        sig = 0.03 * np.maximum(y, 0.02 * y.max())
        rng = np.random.default_rng(17)
        yn = y + rng.normal(0, sig)
        data_path = tmp_path / "wp.csv"
        with open(data_path, "w") as fh:
            fh.write("t_ns,pc_per_ns,sigma\n")
            for row in zip(t, yn, sig):
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")

        cfg = write_cfg(tmp_path, {
            "datasets": [{"kind": "wavepacket", "path": str(data_path),
                          "delta_mhz": 1.7, "i_r_mw_cm2": 95.0}],
            "free": ["scale_f"],
            "init": {"scale_f": 1.0, "gamma_deph_mhz": 1.55,
                     "i_sat_mw_cm2": 12.0, "chi": 2.7}}, "fit.json")
        out = tmp_path / "fit"
        assert run(["fit", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        result = json.loads((out / "fit_result.json").read_text())
        assert result["converged"] is True
        assert result["values_user_units"]["scale_f"] == pytest.approx(4.1,
                                                                       rel=0.05)
        # the diagnostics of a one-parameter fit
        assert result["nfev"] >= 1 and result["njev"] >= 1
        assert result["optimality"] >= 0 and result["at_bound"] == {}
        assert result["jtj_cond"] == 1.0
        assert result["correlation"] == [[pytest.approx(1.0, abs=1e-15)]]

    def test_reads_only_the_named_file(self, tmp_path, capsys):
        # the dataset names a missing nope.csv next to a valid nope.csv.gz,
        # which numpy's DataSource would open and fit (exit 0)
        from qmemread.fitting import Dataset, model_eval
        from qmemread.params import mhz_to_angular
        t = np.arange(0.0, 161.0, 2.0)
        shell = Dataset(kind="wavepacket", x=t, y=np.zeros_like(t),
                        sigma=np.ones_like(t), delta_mhz=1.7, i_r=95.0)
        y = model_eval({"gamma_deph": mhz_to_angular(1.55), "i_sat": 12.0,
                        "chi": 2.7, "scale_f": 4.1},
                       shell, mhz_to_angular(5.2), 0.05)
        sig = 0.03 * y.max()
        with gzip.open(tmp_path / "nope.csv.gz", "wt") as fh:
            fh.write("t_ns,pc_per_ns,sigma\n")
            fh.writelines(f"{ti:.12g},{yi:.12g},{sig:.12g}\n"
                          for ti, yi in zip(t, y))
        cfg = write_cfg(tmp_path, {
            "datasets": [{"kind": "wavepacket",
                          "path": str(tmp_path / "nope.csv"),
                          "delta_mhz": 1.7, "i_r_mw_cm2": 95.0}],
            "free": ["scale_f"]}, "fit.json")
        out = tmp_path / "fit"
        assert run(["fit", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert "nope.csv" in capsys.readouterr().err
        assert not out.exists() or not list(out.glob("*"))

    def test_fit_on_synthesized_pipeline_output(self, tmp_path):
        # synth -> stats -> rebuild a dataset file from the binned
        # wavepacket -> fit recovers the planted overall scale
        boost = 20.0
        payload = {
            "params": dict(PAPER_BLOCK["params"], i_r_mw_cm2=95.0,
                           scale_f=4.1 * boost),
            "intensity": PAPER_BLOCK["intensity"],
            "design": {"n_trials": 150_000, "p1": 0.5},
        }
        out_s = tmp_path / "synth"
        assert run(["synth", "--config", write_cfg(tmp_path, payload, "s.json"),
                    "--out", str(out_s), "--seed", "71", "--quiet"]) == 0
        stats_cfg = write_cfg(tmp_path, {
            "log_path": str(out_s / "synth_log.csv"), "n_trials": 150_000,
            "window1_ns": [20, 20], "window2_ns": [50, 349],
            "herald_window_ns": [20, 20], "bin_width_ns": 1,
            "wavepacket_range_ns": [50, 350]}, "st.json")
        out_t = tmp_path / "stats"
        assert run(["stats", "--config", stats_cfg, "--out", str(out_t),
                    "--quiet"]) == 0

        binned = np.genfromtxt(out_t / "stats_wavepacket.csv", delimiter=",",
                               names=True)
        n_her = json.loads((out_t / "stats_summary.json").read_text())
        heralds = round(n_her["p1"] * 150_000)
        # paper-style 160 ns analysis window, bin centers, binomial sigma
        # floored at the one-count level for empty bins
        keep = binned["t_lo_ns"] < 50 + 160
        pc = binned["pc"][keep]
        t_ns = binned["t_lo_ns"][keep] + 0.5 - 50.0
        sigma = np.sqrt(np.maximum(pc * (1 - pc), 1.0 / heralds) / heralds)
        data_path = tmp_path / "from_pipeline.csv"
        with open(data_path, "w") as fh:
            fh.write("t_ns,pc_per_ns,sigma\n")
            for t, y, s in zip(t_ns, pc, sigma):
                fh.write(f"{t:.12g},{y:.12g},{s:.12g}\n")
        fit_cfg = write_cfg(tmp_path, {
            "datasets": [{"kind": "wavepacket", "path": str(data_path),
                          "delta_mhz": 1.7, "i_r_mw_cm2": 95.0}],
            "free": ["scale_f"],
            "init": {"scale_f": 10.0, "gamma_deph_mhz": 1.55,
                     "i_sat_mw_cm2": 12.0, "chi": 2.7}}, "fp.json")
        out_f = tmp_path / "fit"
        assert run(["fit", "--config", fit_cfg, "--out", str(out_f),
                    "--quiet"]) == 0
        result = json.loads((out_f / "fit_result.json").read_text())
        got = result["values_user_units"]["scale_f"]
        assert got == pytest.approx(4.1 * boost, rel=0.05)

    def test_degenerate_bounds_exit_2(self, tmp_path):
        t = np.arange(0.0, 161.0, 4.0)
        data_path = tmp_path / "wp.csv"
        with open(data_path, "w") as fh:
            fh.write("t_ns,pc_per_ns,sigma\n")
            for ti in t:
                fh.write(f"{ti:g},0.001,0.0001\n")
        cfg = write_cfg(tmp_path, {
            "datasets": [{"kind": "wavepacket", "path": str(data_path),
                          "delta_mhz": 1.7, "i_r_mw_cm2": 95.0}],
            "free": ["scale_f", "chi"],
            "init": {"scale_f": 1.0, "chi": 2.7},
            "bounds": {"chi": [2.7, 2.7]}}, "fit.json")
        out = tmp_path / "fit"
        assert run(["fit", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 2
        assert not (out / "fit_result.json").exists()

    BAD_FILES = {
        "empty-field": "x,y,sigma\n0,0.001,1e-4\n2,,1e-4\n",
        "non-numeric": "x,y,sigma\n0,abc,1e-4\n",
        "header-only": "x,y,sigma\n",
        "two-columns": "x,y\n0,0.001\n2,0.002\n",
        "ragged": "x,y,sigma\n0,0.001,1e-4\n2,0.002\n",
        "nan-ordinate": "x,y,sigma\n0,nan,1e-4\n",
        "infinite-sigma": "x,y,sigma\n0,0.001,1e-4\n2,0.002,inf\n"}

    @pytest.mark.parametrize("name", sorted(BAD_FILES))
    def test_bad_dataset_file_exit_2(self, tmp_path, capsys, name):
        data_path = tmp_path / "wp.csv"
        data_path.write_text(self.BAD_FILES[name])
        cfg = write_cfg(tmp_path, {
            "datasets": [{"kind": "wavepacket", "path": str(data_path),
                          "delta_mhz": 1.7, "i_r_mw_cm2": 95.0}],
            "free": ["scale_f"]}, "fit.json")
        out = tmp_path / "fit"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["fit", "--config", cfg, "--out", str(out),
                        "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err
        assert str(data_path) in err or "datasets[0]" in err
        assert not (out / "fit_result.json").exists()

    SATURATION = "x,y,sigma\n5,0.001,1e-4\n20,0.003,1e-4\n80,0.004,1e-4\n"

    @pytest.mark.parametrize("where,key,bad,named", [
        ("dataset", "horizon_ns", "x", "datasets[0].horizon_ns"),
        ("dataset", "horizon_ns", -5, "datasets[0]: horizon_us"),
        ("dataset", "delta_mhz", "x", "datasets[0].delta_mhz"),
        ("dataset", "i_r_mw_cm2", True, "datasets[0].i_r_mw_cm2"),
        ("dataset", "mask_min", "x", "datasets[0].mask_min"),
        ("config", "init", {"chi": "x"}, "init.chi"),
        ("config", "bounds", {"chi": [2]}, "bounds.chi"),
        ("config", "bounds", {"chi": ["a", 3]}, "bounds.chi[0]"),
        ("config", "tau_ns", "x", "tau_ns")],
        ids=["horizon-string", "negative-horizon", "delta-string",
             "intensity-bool", "mask-string", "init-string", "bounds-short",
             "bounds-string", "tau-string"])
    def test_bad_number_exit_2(self, tmp_path, capsys, where, key, bad, named):
        data_path = tmp_path / "sat.csv"
        data_path.write_text(self.SATURATION)
        block = {"kind": "saturation", "path": str(data_path),
                 "delta_mhz": 1.7}
        payload = {"datasets": [block], "free": ["scale_f", "chi"]}
        (block if where == "dataset" else payload)[key] = bad
        out = tmp_path / "fit"
        assert run(["fit", "--config", write_cfg(tmp_path, payload, "fit.json"),
                    "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and named in err
        assert not (out / "fit_result.json").exists()

    @pytest.mark.parametrize("kind,rows", [
        ("saturation", "x,y,sigma\n-5,0.001,1e-4\n20,0.003,1e-4\n"),
        ("wavepacket", "x,y,sigma\n-1,0.001,1e-4\n2,0.003,1e-4\n")],
        ids=["negative-intensity", "negative-time"])
    def test_bad_second_dataset_named_exit_2(self, tmp_path, capsys, kind,
                                             rows):
        # a saturation curve sorts before a wavepacket inside fit; the error
        # still names the dataset by its place in the config
        good = tmp_path / "good.csv"
        good.write_text(self.SATURATION)
        bad = tmp_path / "bad.csv"
        bad.write_text(rows)
        cfg = write_cfg(tmp_path, {
            "datasets": [{"kind": "wavepacket", "path": str(good),
                          "delta_mhz": 1.7, "i_r_mw_cm2": 95.0},
                         {"kind": kind, "path": str(bad), "delta_mhz": 1.7,
                          "i_r_mw_cm2": 95.0}],
            "free": ["scale_f"]}, "fit.json")
        out = tmp_path / "fit"
        assert run(["fit", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "validation error: datasets[1]: " in err and "x must be >= 0" in err
        assert not (out / "fit_result.json").exists()

    @pytest.mark.parametrize("kind,rows,message", [
        ("saturation", SATURATION, "delta_mhz must give " + DELTA_DOMAIN),
        ("wavepacket", SATURATION, "delta_mhz must give " + DELTA_DOMAIN),
        ("spectrum", "x,y,sigma\n0,0.001,1e-4\n1e308,0.003,1e-4\n",
         "x must give " + DELTA_DOMAIN)],
        ids=["saturation", "wavepacket", "spectrum"])
    def test_detuning_overflowing_in_rad_per_us_exit_2(self, tmp_path, capsys,
                                                       kind, rows, message):
        # finite in MHz, inf in rad/us: no RuntimeWarning, no outputs
        data = tmp_path / "d.csv"
        data.write_text(rows)
        cfg = write_cfg(tmp_path, {
            "datasets": [{"kind": kind, "path": str(data), "delta_mhz": 1e308,
                          "i_r_mw_cm2": 95.0}],
            "free": ["scale_f"]}, "fit.json")
        out = tmp_path / "fit"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["fit", "--config", cfg, "--out", str(out),
                        "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"validation error: datasets[0]: {message}\n")
        assert not out.exists()

    def test_dataset_file_round_trips_repr(self, tmp_path):
        rng = np.random.default_rng(5)
        cols = rng.normal(size=(3, 17)) * 10.0 ** rng.integers(-8, 8, (3, 17))
        data_path = tmp_path / "d.csv"
        with open(data_path, "w") as fh:
            fh.write("x,y,sigma\n")
            for row in zip(*(c.tolist() for c in cols)):
                fh.write("%r,%r,%r\n" % row)
        for got, want in zip(_read_dataset_csv(data_path), cols):
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)

    def test_unknown_free_name(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "datasets": [{"kind": "wavepacket", "path": "x.csv",
                          "delta_mhz": 1.7, "i_r_mw_cm2": 95.0}],
            "free": ["tau_ns"]}, "fit.json")
        assert run(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestStatsWindowRanges:
    """Windows outside the trial window exit 2 naming their config key."""

    LOG = "trial,channel,t_ns\n0,F1A,20\n0,F2A,60\n1,F1B,20\n"

    @pytest.mark.parametrize("key,window", [
        ("herald_window_ns", [2000, 2100]), ("herald_window_ns", [-50, -10]),
        ("wavepacket_range_ns", [1400, 1600]),
        ("wavepacket_range_ns", [-10, 100]), ("window1_ns", [1600, 1700])])
    def test_outside_trial_window_exit_2(self, tmp_path, capsys, key, window):
        log = tmp_path / "log.csv"
        log.write_text(self.LOG)
        payload = {"log_path": str(log), "n_trials": 2,
                   "window1_ns": [20, 20], "window2_ns": [50, 349],
                   key: window}
        out = tmp_path / "stats"
        cfg = write_cfg(tmp_path, payload, "stats.json")
        assert run(["stats", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("n_trials", 0), ("n_trials", -3),
        ("trial_window_ns", 0), ("trial_window_ns", -5)])
    def test_nonpositive_count_exit_2_before_reading(self, tmp_path, capsys,
                                                     key, value):
        # the log does not exist: reading it would exit 1
        payload = {"log_path": str(tmp_path / "missing.csv"), "n_trials": 2,
                   "window1_ns": [20, 20], "window2_ns": [50, 349],
                   key: value}
        out = tmp_path / "stats"
        cfg = write_cfg(tmp_path, payload, "stats.json")
        assert run(["stats", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {key}: ")
        assert not out.exists()

    def test_window_beyond_int64_exit_2(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("trial,channel,t_ns\n0,F1A,20\n")
        payload = {"log_path": str(log), "n_trials": 2,
                   "window1_ns": [20, 20], "window2_ns": [50, 349],
                   "trial_window_ns": 1e20}
        out = tmp_path / "stats"
        cfg = write_cfg(tmp_path, payload, "stats.json")
        assert run(["stats", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(
            "validation error: trial_window_ns: ")
        assert not out.exists()


# an input whose statistics are undefined, or a count past its bound:
# exit 2 naming the config key, before any output is written
STATS_BASE = {"n_trials": 2, "window1_ns": [20, 20], "window2_ns": [50, 349]}
FAULT_LOGS = {"header.csv": "trial,channel,t_ns\n",
              "log.csv": TestStatsWindowRanges.LOG,
              "no_herald.csv": "trial,channel,t_ns\n0,F2A,60\n1,F1B,700\n",
              "sat_sigma.csv": TestFitCommand.SATURATION.replace("1e-4",
                                                                  "1e-300"),
              "sat_y.csv": "x,y,sigma\n5,1e308,1e-4\n20,1e308,1e-4\n"
                           "80,1e308,1e-4\n"}
START_CHI2 = ("datasets: chi^2 at the start point is not finite; rescale y "
              "and sigma")
EMPTY_HERALDS = "empty herald set: conditional wavepacket undefined"
SAT_DATASET = {"kind": "saturation", "path": "sat.csv", "delta_mhz": 1.7}
SYNTH_BASE = {"params": dict(PAPER_BLOCK["params"], i_r_mw_cm2=95),
              "intensity": PAPER_BLOCK["intensity"]}
SYNTH_DESIGN = {"n_trials": 1000, "p1": 0.1}


@pytest.mark.parametrize("command,payload,message", [
    ("stats", {"log_path": "header.csv", "window1_ns": [20, 20],
               "window2_ns": [50, 349]},
     "n_trials: no trials: probabilities are undefined"),
    ("stats", dict(STATS_BASE, log_path="no_herald.csv",
                   herald_window_ns=[10, 30]),
     f"herald_window_ns: {EMPTY_HERALDS}"),
    ("stats", dict(STATS_BASE, log_path="no_herald.csv"),
     f"window1_ns: {EMPTY_HERALDS}"),
    ("stats", dict(STATS_BASE, log_path="log.csv", trial_window_ns=1_000_001,
                   wavepacket_range_ns=[0, 1_000_001]),
     "wavepacket_range_ns: range of 1000001 bins; need 1 to 1000000"),
    ("stats", dict(STATS_BASE, log_path="log.csv", trial_window_ns=1e12,
                   wavepacket_range_ns=[0, 999_999_999_999]),
     "wavepacket_range_ns: range of 999999999999 bins; need 1 to 1000000"),
    ("stats", dict(STATS_BASE, log_path="log.csv", trial_window_ns=2 ** 62,
                   wavepacket_range_ns=[0, 2 ** 62 - 1]),
     f"wavepacket_range_ns: range of {2 ** 62 - 1} bins; need 1 to 1000000"),
    ("stats", dict(STATS_BASE, log_path="log.csv", trial_window_ns=2 ** 63,
                   bin_width_ns=2 ** 62),
     f"trial_window_ns: last bin ends at {2 ** 63} ns; need bins that "
     "end below 2**63 ns"),
    ("stats", dict(STATS_BASE, log_path="log.csv", trial_window_ns=2 ** 63,
                   window2_ns=[50, 2 ** 63 - 1]),
     f"trial_window_ns: range of {2 ** 63} bins; need 1 to 1000000"),
    ("stats", dict(STATS_BASE, log_path="log.csv", n_trials=10 ** 150 + 1),
     "n_trials: n_trials must be in [1, 1e150], got a 151-digit integer"),
    ("stats", dict(STATS_BASE, log_path="log.csv", n_trials=1e200),
     "n_trials: n_trials must be in [1, 1e150], got 1e+200"),
    ("wavepacket", {**PAPER_BLOCK, "i_r_mw_cm2": [95],
                    "window": {"t_end_ns": 1_000_000}},
     "window: need 2 <= n_points <= 1000000"),
    ("wavepacket", {**PAPER_BLOCK, "i_r_mw_cm2": [95],
                    "window": {"t_end_ns": 1e12}},
     "window: need 2 <= n_points <= 1000000"),
    ("wavepacket", {**PAPER_BLOCK, "i_r_mw_cm2": [95],
                    "window": {"t_end_ns": 1e155}},
     "window: need 2 <= n_points <= 1000000"),
    ("wavepacket", {**PAPER_BLOCK, "i_r_mw_cm2": [95],
                    "window": {"step_ns": 1e-300}},
     "window: need 2 <= n_points <= 1000000"),
    ("synth", {"params": dict(PAPER_BLOCK["params"], scale_f=400,
                              i_r_mw_cm2=95),
               "intensity": PAPER_BLOCK["intensity"],
               "design": {"n_trials": 1000, "p1": 0.1}},
     "params.scale_f: integrated wavepacket P_c = 2.016 > 1; reduce scale_f "
     "or the sampling window"),
    ("synth", {**SYNTH_BASE, "design": dict(SYNTH_DESIGN,
                                            background_per_ns=1e300)},
     "design.background_per_ns: 6e+306 expected background counts; "
     "need <= 1e+08"),
    ("synth", {**SYNTH_BASE, "design": dict(SYNTH_DESIGN,
                                            background_per_ns=1e10)},
     "design.background_per_ns: 6e+16 expected background counts; "
     "need <= 1e+08"),
    ("synth", {**SYNTH_BASE, "design": dict(SYNTH_DESIGN, window_ns=2e8,
                                            read_window_ns=1e8)},
     "design.read_window_ns: read window of 100000000 ns in the trial "
     "window; need <= 1e+06"),
    ("synth", {**SYNTH_BASE, "design": dict(SYNTH_DESIGN, window_ns=1_000_100,
                                            read_window_ns=1e8)},
     "design.read_window_ns: read window of 1000050 ns in the trial "
     "window; need <= 1e+06"),
    ("chi", {"geometry": {"n_atoms": 1e308, "waist_m": 1e-9, "length_m": 1e-3,
                          "wavenumber_per_m": 1e7}, "n_samples": 200},
     "geometry.n_atoms: chi = 1 + N / (2 (kW)^2) = inf: need chi and "
     "2 chi - 1 finite: n_atoms, waist_m, wavenumber_per_m"),
    ("chi", {"geometry": {"n_atoms": 2e6, "waist_m": 1e-4, "length_m": 1e-3,
                          "wavenumber_per_m": 1e7}, "n_samples": 50},
     "n_samples: need n_samples >= 100"),
    ("fit", {"datasets": [SAT_DATASET], "free": ["gamma_deph_mhz"],
             "init": {"gamma_deph_mhz": 0}},
     "gamma_deph_mhz: gamma_deph must be > 0 to be fitted freely"),
    ("fit", {"datasets": [SAT_DATASET], "free": ["i_sat_mw_cm2"],
             "init": {"i_sat_mw_cm2": 0}},
     "i_sat_mw_cm2: i_sat must be > 0 to be fitted freely"),
    ("fit", {"datasets": [SAT_DATASET], "free": ["scale_f"],
             "init": {"i_sat_mw_cm2": -1}},
     "i_sat_mw_cm2: invalid parameter(s): i_sat"),
    ("fit", {"datasets": [SAT_DATASET], "free": ["gamma_deph_mhz"],
             "init": {"gamma_deph_mhz": 1e-300}},
     "gamma_deph_mhz: model is insensitive to parameter(s): gamma_deph"),
    ("fit", {"datasets": [SAT_DATASET], "free": ["scale_f"], "tau_ns": 1e300},
     "tau_ns: need tau in [0, 1e+20] us"),
    ("fit", {"datasets": [SAT_DATASET], "free": ["scale_f"],
             "gamma_nat_mhz": 1e-300},
     "gamma_nat_mhz: need gamma_nat in [1e-20, 1e+20] rad/us"),
    ("sweep-intensity", {**PAPER_BLOCK, "i_r_grid_mw_cm2": [95],
                         "params": dict(PAPER_BLOCK["params"],
                                        gamma_nat_mhz=1e300)},
     "params.gamma_nat_mhz: need gamma_nat in [1e-20, 1e+20] rad/us"),
    ("fit", {"datasets": [dict(SAT_DATASET, path="sat_sigma.csv")],
             "free": ["scale_f"]}, START_CHI2),
    ("fit", {"datasets": [dict(SAT_DATASET, path="sat_y.csv")],
             "free": ["scale_f"]}, START_CHI2),
    ("fit", {"datasets": [SAT_DATASET], "free": ["scale_f"],
             "gamma_nat_mhz": 1e300},
     "gamma_nat_mhz: need gamma_nat in [1e-20, 1e+20] rad/us"),
], ids=["stats-no-trials", "stats-no-herald", "stats-no-herald-default",
        "stats-bins-above-bound", "stats-bins-1e12", "stats-bins-2**62",
        "stats-last-bin-2**63", "stats-default-range-2**63-bins",
        "stats-n-trials-1e150+1",
        "stats-n-trials-1e200",
        "wavepacket-points-above-bound", "wavepacket-points-1e12",
        "wavepacket-t-end-1e155", "wavepacket-step-1e-300", "synth-pc-above-1",
        "synth-background-1e300", "synth-background-1e10",
        "synth-read-window-1e8", "synth-read-window-past-trial-window",
        "chi-closed-form-overflow", "chi-too-few-samples", "fit-gamma-deph",
        "fit-i-sat", "fit-held-i-sat", "fit-rank-deficient-gamma-deph",
        "fit-tau", "fit-gamma-nat", "sweep-intensity-gamma-nat",
        "fit-sigma-1e-300", "fit-y-1e308", "fit-gamma-nat-1e300"])
def test_input_fault_names_config_key(tmp_path, capsys, monkeypatch, command,
                                      payload, message):
    # without these checks, stats exits 1 naming no key on a log with no
    # trial or no herald, on 1e12 or 2**62 bins (MemoryError, "array is
    # too big") and on 1e200 trials (ZeroDivisionError), and writes a last
    # bin edge wrapped to -2**63; wavepacket exits 1 on 1e12 points or more; chi's and
    # fit's lines carry no key, fit's naming gamma_deph and i_sat instead;
    # synth exits 1 or runs out of memory on a background or read window
    # past its cap, chi exits 0 writing Infinity and NaN, and a fit
    # insensitive to a free parameter exits 1; a fit exits 0 writing NaN
    # errors on sigma 1e-300, exits 1 on y 1e308, and names datasets[0]
    # for a linewidth of 1e300 MHz
    monkeypatch.chdir(tmp_path)
    for name, text in FAULT_LOGS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "sat.csv").write_text(TestFitCommand.SATURATION)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", write_cfg(tmp_path, payload),
                    "--out", str(out), "--seed", "5", "--quiet"]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out.exists()


def test_fit_inverted_bounds_exit_2(tmp_path, capsys):
    data_path = tmp_path / "wp.csv"
    data_path.write_text("t_ns,pc_per_ns,sigma\n"
                         + "".join(f"{t:g},0.001,0.0001\n"
                                   for t in np.arange(0.0, 161.0, 4.0)))
    cfg = write_cfg(tmp_path, {
        "datasets": [{"kind": "wavepacket", "path": str(data_path),
                      "delta_mhz": 1.7, "i_r_mw_cm2": 95.0}],
        "free": ["scale_f", "chi"], "init": {"scale_f": 1.0, "chi": 2.7},
        "bounds": {"chi": [5, 2]}}, "fit.json")
    out = tmp_path / "fit"
    assert run(["fit", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "bounds for chi have lo > hi" in capsys.readouterr().err
    assert not out.exists()


def test_json_output_rejects_non_finite_numbers(tmp_path):
    # an undefined value is written as null; a NaN or infinity is a defect
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "out.json", {"value": bad})
        assert not (tmp_path / "out.json").exists()


def test_stats_takes_undecodable_bytes_as_bad_lines(tmp_path):
    log = tmp_path / "log.csv"
    log.write_bytes(b"trial,channel,t_ns\n0,F1A,20\n2,F1\xffA,7\n"
                    b"2,F1A,7\xe9\n1,F1B,20\n")
    payload = {"log_path": str(log), "n_trials": 3,
               "window1_ns": [20, 20], "window2_ns": [50, 349]}
    out = tmp_path / "stats"
    cfg = write_cfg(tmp_path, payload, "stats.json")
    assert run(["stats", "--config", cfg, "--out", str(out),
                "--quiet"]) == 0
    got = json.loads((out / "stats_summary.json").read_text())["ingest"]
    assert (got["n_events"], got["n_rejected_channel"]) == (2, 1)
    assert got["parse_errors_by_reason"]["non_integer"] == 1


def write_columns(path, *columns):
    """A dataset CSV of ``columns``, each number as its shortest repr."""
    with open(path, "w") as fh:
        fh.write("x,y,sigma\n")
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            fh.write("%r,%r,%r\n" % row)


class TestFitWindow:
    """``mask_min``/``mask_max`` select a dataset's rows when its CSV is
    read; every row is still checked."""

    T = np.arange(0.0, 161.0, 2.0)
    I_R = np.array([5, 10, 20, 30, 45, 60, 80, 100, 125, 150, 175, 200.0])

    @staticmethod
    def model_csv(path, kind, x, seed, **drive):
        """A noisy model curve of ``kind`` at ``x``, 3 % errors, as a CSV
        whose numbers read back to the same floats; returns its columns."""
        from qmemread.fitting import Dataset, model_eval
        from qmemread.params import mhz_to_angular
        truth = {"gamma_deph": mhz_to_angular(1.55), "i_sat": 12.0,
                 "chi": 2.7, "scale_f": 4.1}
        shell = Dataset(kind=kind, x=x, y=0 * x, sigma=1 + 0 * x, **drive)
        y = model_eval(truth, shell, mhz_to_angular(5.2), 0.05)
        sigma = 0.03 * np.maximum(y, 0.02 * y.max())
        y = y + np.random.default_rng(seed).normal(0, sigma)
        write_columns(path, x, y, sigma)
        return x, y, sigma

    def fit_bytes(self, tmp_path, name, datasets):
        cfg = write_cfg(tmp_path, {
            "datasets": datasets,
            "free": ["gamma_deph_mhz", "i_sat_mw_cm2", "chi", "scale_f"]},
            f"{name}.json")
        out = tmp_path / name
        assert run(["fit", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        return (out / "fit_result.json").read_bytes()

    def test_windowed_fit_equals_fit_of_the_cut_csv(self, tmp_path):
        # windows on two of three datasets, each cutting rows at both ends
        sets = [("wp95", "wavepacket", self.T, (20.0, 120.0),
                 {"delta_mhz": 1.7, "i_r": 95.0}),
                ("sat", "saturation", self.I_R, (10.0, 150.0),
                 {"delta_mhz": 1.7}),
                ("wp32", "wavepacket", self.T, None,
                 {"delta_mhz": 1.7, "i_r": 32.0})]
        windowed, cut = [], []
        for seed, (name, kind, x, window, drive) in enumerate(sets):
            cols = self.model_csv(tmp_path / f"{name}.csv", kind, x, seed,
                                  **drive)
            block = {"kind": kind, "path": str(tmp_path / f"{name}.csv"),
                     "delta_mhz": drive["delta_mhz"],
                     "i_r_mw_cm2": drive.get("i_r", 0.0)}
            if window is None:
                windowed.append(block)
                cut.append(block)
                continue
            keep = (x >= window[0]) & (x <= window[1])
            assert 0 < keep.sum() < x.size
            write_columns(tmp_path / f"{name}_cut.csv",
                          *(c[keep] for c in cols))
            windowed.append(dict(block, mask_min=window[0],
                                 mask_max=window[1]))
            cut.append(dict(block, path=str(tmp_path / f"{name}_cut.csv")))
        got = self.fit_bytes(tmp_path, "windowed", windowed)
        assert got == self.fit_bytes(tmp_path, "cut", cut)
        assert got != self.fit_bytes(
            tmp_path, "whole", [{k: v for k, v in b.items()
                                 if not k.startswith("mask_")}
                                for b in windowed])

    def test_window_holding_no_row_adds_no_residual(self, tmp_path):
        self.model_csv(tmp_path / "wp.csv", "wavepacket", self.T, 1,
                       delta_mhz=1.7, i_r=95.0)
        self.model_csv(tmp_path / "sat.csv", "saturation", self.I_R, 2,
                       delta_mhz=1.7)
        wp = {"kind": "wavepacket", "path": str(tmp_path / "wp.csv"),
              "delta_mhz": 1.7, "i_r_mw_cm2": 95.0}
        sat = {"kind": "saturation", "path": str(tmp_path / "sat.csv"),
               "delta_mhz": 1.7, "mask_min": 300.0}
        assert (self.fit_bytes(tmp_path, "empty", [wp, sat])
                == self.fit_bytes(tmp_path, "alone", [wp]))

    def test_zero_sigma_outside_window_exit_2(self, tmp_path, capsys):
        data = tmp_path / "sat.csv"
        data.write_text(TestFitCommand.SATURATION + "300,0.004,0\n")
        cfg = write_cfg(tmp_path, {
            "datasets": [{"kind": "saturation", "path": str(data),
                          "delta_mhz": 1.7, "mask_max": 100}],
            "free": ["scale_f"]}, "fit.json")
        out = tmp_path / "fit"
        assert run(["fit", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "validation error: datasets[0]: uncertainties must be > 0\n")
        assert not out.exists()


class TestReadIntensityBound:
    """A read intensity whose Rabi frequency passes 1e60 rad/us exits 2
    naming its key, with no outputs and no warning.  Before the bound,
    ``synth`` wrote a log of heralds alone and ``fit`` exited 1."""

    def test_synth_exit_2(self, tmp_path, capsys):
        payload = {"params": dict(PAPER_BLOCK["params"], i_r_mw_cm2=1e308),
                   "intensity": PAPER_BLOCK["intensity"],
                   "design": {"n_trials": 1000, "p1": 0.1}}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["synth", "--config", write_cfg(tmp_path, payload),
                        "--out", str(out), "--seed", "5", "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"validation error: params.i_r_mw_cm2: {OMEGA_BOUND}i_sat = 12\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind,rows,i_r", [
        ("saturation", "x,y,sigma\n5,0.001,1e-4\n1e308,0.003,1e-4\n", None),
        ("wavepacket", TestFitCommand.SATURATION, 1e308),
        ("spectrum", TestFitCommand.SATURATION, 1e308)],
        ids=["saturation", "wavepacket", "spectrum"])
    def test_fit_start_point_exit_2(self, tmp_path, capsys, kind, rows, i_r):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text(TestFitCommand.SATURATION)
        bad.write_text(rows)
        block = {"kind": kind, "path": str(bad), "delta_mhz": 1.7}
        if i_r is not None:
            block["i_r_mw_cm2"] = i_r
        cfg = write_cfg(tmp_path, {
            "datasets": [{"kind": "saturation", "path": str(good),
                          "delta_mhz": 1.7}, block],
            "free": ["scale_f"]}, "fit.json")
        out = tmp_path / "fit"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["fit", "--config", cfg, "--out", str(out),
                        "--quiet"]) == 2
        # checked at the start point, i_sat = 10 by default
        assert capsys.readouterr().err == (
            f"validation error: datasets[1]: {OMEGA_BOUND}i_sat = 10\n")
        assert not out.exists()
