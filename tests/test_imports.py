"""Start-up cost: importing the CLI loads numpy and no scipy submodule.
``scipy.special`` is imported where ``wofz`` is called, ``scipy.optimize``
by ``fit`` and ``scipy.integrate`` by ``dynamics.evolve``, so a command
loads only what it calls.  Each check runs in a fresh interpreter, since
this test process has loaded all three already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qmemread.fitting import Dataset, model_eval
from qmemread.params import mhz_to_angular

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.special")

# run each argv list through qmemread.cli.main, then report the exit codes
# and which of the DEFERRED modules are loaded
_SCRIPT = """
import json, sys
import qmemread.cli
codes = [qmemread.cli.main(argv + ["--quiet"])
         for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, [m for m in %r if m in sys.modules]]))
""" % (DEFERRED,)

PARAMS = {"delta_mhz": 1.7, "chi": 2.7, "gamma_deph_mhz": 1.55,
          "scale_f": 4.1}
MODEL = {"params": PARAMS, "intensity": {"i_sat_mw_cm2": 12.0}}


def _loaded(runs=(), codes=None):
    """The DEFERRED modules loaded in a fresh interpreter after importing
    qmemread.cli and running each argv list of ``runs`` in order; each run
    must exit with its entry of ``codes`` (default 0)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(runs)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got_codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert got_codes == (codes or [0] * len(runs)), proc.stderr
    return loaded


def _command(tmp_path, name, payload):
    """argv of command ``name`` on config ``payload``, writing to
    ``tmp_path / name``."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(payload))
    return [name, "--config", str(config), "--out", str(tmp_path / name)]


def test_cli_import_loads_no_scipy_submodule():
    assert _loaded() == []


def test_config_error_loads_none(tmp_path):
    bad = _command(tmp_path, "wavepacket", {
        "params": dict(PARAMS, chi="x"), "i_r_mw_cm2": [95]})
    assert _loaded([bad], codes=[2]) == []
    assert not (tmp_path / "wavepacket").exists()


def test_wavepacket_and_flat_envelope_sweep_load_none(tmp_path):
    # at gamma_deph = 0 a finite-horizon P_c is expm1(s T)/s, with no wofz
    runs = [_command(tmp_path, "wavepacket", {**MODEL, "i_r_mw_cm2": [95]}),
            _command(tmp_path, "sweep-intensity", {
                **MODEL, "params": dict(PARAMS, gamma_deph_mhz=0),
                "i_r_grid_mw_cm2": [0, 24, 95], "horizon_ns": 160})]
    assert _loaded(runs) == []
    assert (tmp_path / "sweep-intensity" / "sweep_intensity.csv").exists()


def test_synth_and_chi_load_special_then_stats_loads_none(tmp_path):
    synth = _command(tmp_path, "synth", {
        **MODEL, "params": dict(PARAMS, i_r_mw_cm2=95.0),
        "design": {"n_trials": 1000, "p1": 0.1}}) + ["--seed", "5"]
    chi = _command(tmp_path, "chi", {
        "geometry": {"n_atoms": 2e6, "waist_m": 1e-4, "length_m": 1e-3,
                     "wavenumber_per_m": 1e7},
        "n_samples": 2000}) + ["--seed", "5"]
    assert _loaded([synth]) == ["scipy.special"]
    assert _loaded([chi]) == ["scipy.special"]
    stats = _command(tmp_path, "stats", {
        "log_path": str(tmp_path / "synth" / "synth_log.csv"),
        "n_trials": 1000, "window1_ns": [20, 20],
        "window2_ns": [50, 349]})
    assert _loaded([stats]) == []
    assert (tmp_path / "stats" / "stats_summary.json").exists()


def test_fit_loads_optimize_and_special(tmp_path):
    i_r = np.array([8.0, 24.0, 48.0, 95.0, 190.0])
    shell = Dataset(kind="saturation", x=i_r, y=np.zeros_like(i_r),
                    sigma=np.ones_like(i_r), delta_mhz=1.7)
    truth = {"gamma_deph": mhz_to_angular(1.55), "i_sat": 12.0, "chi": 2.7,
             "scale_f": 4.1}
    y = model_eval(truth, shell, mhz_to_angular(5.2), 0.05)
    data = tmp_path / "sat.csv"
    data.write_text("i_r_mw_cm2,pc,sigma\n" + "".join(
        "%r,%r,%r\n" % (float(x), float(v), 0.05 * float(v))
        for x, v in zip(i_r, y)))
    fit = _command(tmp_path, "fit", {
        "datasets": [{"kind": "saturation", "path": str(data),
                      "delta_mhz": 1.7}],
        "free": ["scale_f"],
        "init": {"gamma_deph_mhz": 1.55, "i_sat_mw_cm2": 12.0, "chi": 2.7,
                 "scale_f": 1.0}})
    assert _loaded([fit]) == ["scipy.optimize", "scipy.special"]
