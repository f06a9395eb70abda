"""Start-up cost: importing the CLI loads numpy and ``scipy.special`` only.
``scipy.optimize`` is imported by ``fit`` and ``scipy.integrate`` by
``dynamics.evolve``, the only places that call them.  Each check runs in a
fresh interpreter, since this test process has loaded both already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qmemread.fitting import Dataset, model_eval
from qmemread.params import mhz_to_angular

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.optimize", "scipy.integrate")

# run each argv list through qmemread.cli.main, then report which of the
# DEFERRED modules are loaded
_SCRIPT = """
import json, sys
import qmemread.cli
for argv in json.loads(sys.argv[1]):
    code = qmemread.cli.main(argv + ["--quiet"])
    assert code == 0, (argv, code)
print(json.dumps([m for m in %r if m in sys.modules]))
""" % (DEFERRED,)

PARAMS = {"delta_mhz": 1.7, "chi": 2.7, "gamma_deph_mhz": 1.55,
          "scale_f": 4.1}
MODEL = {"params": PARAMS, "intensity": {"i_sat_mw_cm2": 12.0}}


def _loaded(runs=()):
    """The DEFERRED modules loaded in a fresh interpreter after importing
    qmemread.cli and running each argv list of ``runs`` in order."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(runs)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _config(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_import_defers_optimize_and_integrate():
    assert _loaded() == []


def test_wavepacket_synth_stats_load_neither(tmp_path):
    wavepacket = _config(tmp_path, "wavepacket",
                         {**MODEL, "i_r_mw_cm2": [95]})
    synth = _config(tmp_path, "synth", {
        **MODEL, "params": dict(PARAMS, i_r_mw_cm2=95.0),
        "design": {"n_trials": 1000, "p1": 0.1}, "seed": 5})
    stats = _config(tmp_path, "stats", {
        "log_path": str(tmp_path / "synth" / "synth_log.csv"),
        "n_trials": 1000, "window1_ns": [20, 20],
        "window2_ns": [50, 349]})
    runs = [["wavepacket", "--config", wavepacket,
             "--out", str(tmp_path / "wavepacket")],
            ["synth", "--config", synth, "--out", str(tmp_path / "synth")],
            ["stats", "--config", stats, "--out", str(tmp_path / "stats")]]
    assert _loaded(runs) == []
    assert (tmp_path / "stats" / "stats_summary.json").exists()


def test_fit_loads_optimize_only(tmp_path):
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
    fit = _config(tmp_path, "fit", {
        "datasets": [{"kind": "saturation", "path": str(data),
                      "delta_mhz": 1.7}],
        "free": ["scale_f"],
        "init": {"gamma_deph_mhz": 1.55, "i_sat_mw_cm2": 12.0, "chi": 2.7,
                 "scale_f": 1.0}})
    runs = [["fit", "--config", fit, "--out", str(tmp_path / "fit")]]
    assert _loaded(runs) == ["scipy.optimize"]
