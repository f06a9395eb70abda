"""The per-command config tables of ``qmemread.cli``: every key is read
once, typed, and named by its dotted path when it is wrong."""

import copy
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from qmemread.cli import REQUIRED, TABLES, ConfigError, main, read_config

README = Path(__file__).resolve().parents[1] / "README.md"

PARAMS = {"delta_mhz": 1.7, "chi": 2.7, "gamma_deph_mhz": 1.55,
          "scale_f": 4.1}
MODEL = {"params": PARAMS, "intensity": {"i_sat_mw_cm2": 12.0}}
STATS_LOG = "trial,channel,t_ns\n0,F1A,20\n0,F2A,60\n1,F1B,20\n"
FIT_NAMES = ("gamma_deph_mhz", "i_sat_mw_cm2", "chi", "scale_f")


def _wavepacket_file(path, sigma):
    """A wavepacket dataset drawn from the model, with the given sigma
    column."""
    from qmemread.fitting import Dataset, model_eval
    from qmemread.params import mhz_to_angular
    t = np.arange(0.0, 161.0, 4.0)
    shell = Dataset(kind="wavepacket", x=t, y=np.zeros_like(t),
                    sigma=np.ones_like(t), delta_mhz=1.7, i_r=95.0)
    truth = {"gamma_deph": mhz_to_angular(1.55), "i_sat": 12.0, "chi": 2.7,
             "scale_f": 4.1}
    y = model_eval(truth, shell, mhz_to_angular(5.2), 0.05)
    y = y * (1 + 0.03 * np.sin(np.arange(t.size)))
    with open(path, "w") as fh:
        fh.write("t_ns,pc_per_ns,sigma\n")
        for row in zip(t, y, sigma):
            fh.write("%r,%r,%r\n" % tuple(float(v) for v in row))
    return str(path)


@pytest.fixture
def base(tmp_path):
    """One valid config per command, each using every numeric key the
    command has."""
    log = tmp_path / "log.csv"
    log.write_text(STATS_LOG)
    sigma = 0.02 + 0.001 * np.arange(41)
    data = _wavepacket_file(tmp_path / "wp.csv", sigma)
    return {
        "wavepacket": {**MODEL, "params": dict(PARAMS, gamma_nat_mhz=5.2,
                                               tau_ns=50),
                       "i_r_mw_cm2": [95],
                       "window": {"t_start_ns": 0, "t_end_ns": 160,
                                  "step_ns": 1}},
        "sweep-intensity": {**MODEL, "i_r_grid_mw_cm2": [0, 24, 95],
                            "horizon_ns": 160},
        "sweep-detuning": {**MODEL, "i_r_mw_cm2": 127.0,
                           "delta_grid_mhz": [-10, 0, 10], "horizon_ns": 160},
        "chi": {"geometry": {"n_atoms": 2e6, "waist_m": 1e-4,
                             "length_m": 1e-3, "wavenumber_per_m": 1e7},
                "n_samples": 200},
        "synth": {**MODEL, "params": dict(PARAMS, i_r_mw_cm2=95.0),
                  "design": {"n_trials": 1000, "p1": 0.1, "window_ns": 1500,
                             "herald_t_ns": 20, "read_start_ns": 50,
                             "read_window_ns": 300,
                             "background_per_ns": 1e-4}},
        "stats": {"log_path": str(log), "n_trials": 2,
                  "trial_window_ns": 1500, "window1_ns": [20, 20],
                  "window2_ns": [50, 349], "herald_window_ns": [20, 20],
                  "bin_width_ns": 1, "wavepacket_range_ns": [50, 350]},
        "fit": {"datasets": [{"kind": "wavepacket", "path": data,
                              "delta_mhz": 1.7, "i_r_mw_cm2": 95,
                              "horizon_ns": 160, "mask_min": 0,
                              "mask_max": 200}],
                "free": ["scale_f"],
                "init": {"gamma_deph_mhz": 1.55, "i_sat_mw_cm2": 12.0,
                         "chi": 2.7, "scale_f": 1.0},
                "bounds": {name: [0.5, 50] for name in FIT_NAMES},
                "gamma_nat_mhz": 5.2, "tau_ns": 50},
    }


def _set(cfg, path, value):
    """A deep copy of ``cfg`` with the dotted ``path`` set to ``value``."""
    cfg = copy.deepcopy(cfg)
    keys = [int(k) if k.isdigit() else k
            for k in re.findall(r"[^.\[\]]+", path)]
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return cfg


def _run(tmp_path, command, cfg, seed=True):
    """Exit code of one run of ``cfg`` (a dict or JSON text), writing to
    ``tmp_path / 'out'``; ``chi`` and ``synth`` get ``--seed 5`` unless
    ``seed`` is false."""
    path = tmp_path / "cfg.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    flags = ["--seed", "5"] if seed and command in ("chi", "synth") else []
    return main([command, "--config", str(path), "--out",
                 str(tmp_path / "out"), "--quiet", *flags])


def _no_outputs(tmp_path):
    out = tmp_path / "out"
    return not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("name", ["wavepacket", "sweep-intensity",
                                  "sweep-detuning", "chi", "synth", "stats",
                                  "fit"])
def test_base_configs_run(tmp_path, base, name):
    # every probe below is one change to one of these valid configs
    assert _run(tmp_path, name, base[name]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()


# ---------------------------------------------------------------------------
# every numeric key of every command, with a value of the wrong kind

_MODEL_KEYS = [f"params.{k}" for k in (
    "delta_mhz", "chi", "gamma_deph_mhz", "scale_f", "gamma_nat_mhz",
    "tau_ns")] + ["intensity.i_sat_mw_cm2"]
_WINDOWS = ("window1_ns", "window2_ns", "herald_window_ns",
            "wavepacket_range_ns")
# (command, dotted path, null is a legal value)
NUMERIC_KEYS = (
    [("wavepacket", k, False) for k in _MODEL_KEYS + [
        "window.t_start_ns", "window.t_end_ns", "window.step_ns",
        "i_r_mw_cm2[0]"]]
    + [("sweep-intensity", k, False) for k in _MODEL_KEYS + [
        "i_r_grid_mw_cm2[1]"]]
    + [("sweep-intensity", "horizon_ns", True)]
    + [("sweep-detuning", k, False) for k in _MODEL_KEYS + [
        "i_r_mw_cm2", "delta_grid_mhz[2]"]]
    + [("sweep-detuning", "horizon_ns", True)]
    + [("chi", k, False) for k in [
        "geometry.n_atoms", "geometry.waist_m", "geometry.length_m",
        "geometry.wavenumber_per_m", "n_samples"]]
    + [("synth", k, False) for k in _MODEL_KEYS + ["params.i_r_mw_cm2"] + [
        f"design.{k}" for k in ("n_trials", "p1", "window_ns", "herald_t_ns",
                                "read_start_ns", "read_window_ns",
                                "background_per_ns")]]
    + [("stats", k, False) for k in ["n_trials", "trial_window_ns",
                                     "bin_width_ns"]
       + [f"{w}[{j}]" for w in _WINDOWS for j in (0, 1)]]
    + [("fit", k, False) for k in ["gamma_nat_mhz", "tau_ns"] + [
        f"datasets[0].{k}" for k in ("delta_mhz", "i_r_mw_cm2", "mask_min",
                                     "mask_max")]
       + [f"init.{n}" for n in FIT_NAMES]]
    + [("fit", "datasets[0].horizon_ns", True)]
    + [("fit", f"bounds.{n}[{j}]", True) for n in FIT_NAMES for j in (0, 1)]
)
# the read drive's other keys, gone from the tables: whatever their value,
# the params block names them as unknown
DROPPED = ([(c, "params.rabi_mhz") for c in ("wavepacket", "sweep-intensity",
                                              "sweep-detuning", "synth")]
           + [(c, "params.i_r_mw_cm2") for c in ("wavepacket",
                                                  "sweep-intensity",
                                                  "sweep-detuning")])
BAD = {"string": "x", "bool": True, "null": None, "list": [1.0]}
WRONG_KIND = ([(command, path, bad) for command, path, null_ok in NUMERIC_KEYS
               for bad in BAD if not (bad == "null" and null_ok)]
              + [(command, path, bad) for command, path in DROPPED
                 for bad in BAD])


@pytest.mark.parametrize("command,path,bad", WRONG_KIND,
                         ids=[f"{c}:{p}:{b}" for c, p, b in WRONG_KIND])
def test_wrong_kind_exits_2_naming_key(tmp_path, capsys, base, command, path,
                                       bad):
    cfg = _set(base[command], path, BAD[bad])
    assert _run(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err
    if (command, path) in DROPPED:
        block, key = path.split(".")
        assert err == f"validation error: {block}: unknown key(s) ['{key}']\n"
    else:
        assert err.startswith("validation error: ") and path in err
    assert _no_outputs(tmp_path)


@pytest.mark.parametrize("key", ["i_r_grid_mw_cm2", "delta_grid_mhz"])
@pytest.mark.parametrize("bad", [[], "x", 5, None])
def test_grid_must_be_non_empty_list(tmp_path, capsys, base, key, bad):
    command = ("sweep-intensity" if key == "i_r_grid_mw_cm2"
               else "sweep-detuning")
    assert _run(tmp_path, command, _set(base[command], key, bad)) == 2
    assert key in capsys.readouterr().err
    assert _no_outputs(tmp_path)


@pytest.mark.parametrize("key", _WINDOWS)
def test_window_order(tmp_path, capsys, base, key):
    assert _run(tmp_path, "stats", _set(base["stats"], key, [30, 20])) == 2
    assert f"{key}: expected [lo, hi] with lo <= hi" in capsys.readouterr().err
    assert _no_outputs(tmp_path)


# ---------------------------------------------------------------------------
# configs that exit 1 (runtime error) or 0 (value coerced or ignored) without
# a typed reader; each is one change to a base config

PROBES = [
    ("wavepacket", "window.t_end_ns", "x", ["window.t_end_ns"]),
    ("wavepacket", "params.chi", "x", ["params.chi"]),
    ("wavepacket", "params.chi", "2", ["params.chi"]),
    ("wavepacket", "i_r_mw_cm2", ["95"], ["i_r_mw_cm2[0]"]),
    ("wavepacket", "intensity.i_sat_mw_cm2", "12", ["intensity.i_sat_mw_cm2"]),
    ("sweep-intensity", "i_r_grid_mw_cm2", ["a"], ["i_r_grid_mw_cm2[0]"]),
    ("sweep-detuning", "i_r_mw_cm2", "x", ["i_r_mw_cm2"]),
    ("chi", "geometry.n_atoms", "1e5", ["geometry.n_atoms"]),
    ("synth", "design.n_trials", "100", ["design.n_trials"]),
    ("synth", "design.n_trials", 100.5, ["design.n_trials"]),
    ("fit", "init", [1], ["init"]),
    ("fit", "free", ["scale_f", "scale_f"], ["free"]),
    ("fit", "free", [], ["free: name at least one parameter"]),
    ("stats", "log_path", 5, ["log_path"]),
    ("wavepacket", "window.t_end_ns", "200", ["window.t_end_ns"]),
    ("wavepacket", "params.rabi_mhz", 10.0,
     ["params: unknown key(s) ['rabi_mhz']"]),
    ("wavepacket", "i_r_mw_cm2", True, ["i_r_mw_cm2"]),
    ("wavepacket", "schema_version", True, ["schema_version"]),
    ("wavepacket", "params.i_r_mw_cm2", 50,
     ["params: unknown key(s) ['i_r_mw_cm2']"]),
    ("sweep-intensity", "params.i_r_mw_cm2", 50,
     ["params: unknown key(s) ['i_r_mw_cm2']"]),
    ("sweep-detuning", "delta_grid_mhz", [True, 1], ["delta_grid_mhz[0]"]),
    ("chi", "geometry.n_atoms", True, ["geometry.n_atoms"]),
    ("synth", "design.herald_t_ns", 20.5, ["design.herald_t_ns"]),
    ("fit", "weighted", "false", ["config: unknown key(s) ['weighted']"]),
    ("fit", "weighted", True, ["config: unknown key(s) ['weighted']"]),
    ("fit", "datasets[0].label", "wp95",
     ["datasets[0]: unknown key(s) ['label']"]),
    ("sweep-detuning", "params.i_r_mw_cm2", 127.0,
     ["params: unknown key(s) ['i_r_mw_cm2']"]),
    # one spelling per input: no horizon is "inf", and wavepacket's
    # intensities are a list
    ("sweep-intensity", "horizon_ns", None,
     ["horizon_ns: must be a number, got None"]),
    ("sweep-detuning", "horizon_ns", None,
     ["horizon_ns: must be a number, got None"]),
    ("fit", "datasets[0].horizon_ns", None,
     ["datasets[0].horizon_ns: must be a number, got None"]),
    ("wavepacket", "i_r_mw_cm2", 95,
     ["i_r_mw_cm2: must be a non-empty list of numbers, got 95"]),
    # the config alone decides P_c, so P_c > 1 is found before any draw
    ("synth", "params.scale_f", 400,
     ["params.scale_f: integrated wavepacket P_c = 2.016 > 1; reduce "
      "scale_f"]),
] + [(name, "seed", 5, ["config: unknown key(s) ['seed']"])
     for name in TABLES]


@pytest.mark.parametrize("name,path,value,named", PROBES,
                         ids=[f"{n}:{p}={v!r}" for n, p, v, _ in PROBES])
def test_probe_exits_2(tmp_path, capsys, base, name, path, value, named):
    assert _run(tmp_path, name, _set(base[name], path, value)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ")
    assert all(key in err for key in named), err
    assert _no_outputs(tmp_path)


# ---------------------------------------------------------------------------
# json reads NaN, Infinity and -Infinity, and 1e400 as inf: a number key
# holding one exits 2 naming the key

@pytest.mark.parametrize("literal,shown", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"),
    ("1e400", "inf")])
@pytest.mark.parametrize("name,path", [
    ("sweep-detuning", "delta_grid_mhz[1]"), ("wavepacket", "window.t_end_ns"),
    ("synth", "design.background_per_ns"), ("fit", "bounds.chi[0]"),
    ("fit", "init.chi")])
def test_non_finite_number_exits_2(tmp_path, capsys, base, name, path,
                                   literal, shown):
    text = json.dumps(_set(base[name], path, "@")).replace('"@"', literal)
    assert _run(tmp_path, name, text) == 2
    assert capsys.readouterr().err == (
        f"validation error: {path}: must be a finite number, got {shown}\n")
    assert _no_outputs(tmp_path)


@pytest.mark.parametrize("name", ["sweep-intensity", "sweep-detuning"])
@pytest.mark.parametrize("horizon", ["inf"])
def test_no_horizon_runs(tmp_path, base, name, horizon):
    assert _run(tmp_path, name, _set(base[name], "horizon_ns", horizon)) == 0


# ---------------------------------------------------------------------------
# the seed comes from --seed alone

@pytest.mark.parametrize("name", ["chi", "synth"])
@pytest.mark.parametrize("config_seed", [False, True])
def test_seed_only_from_flag(tmp_path, capsys, base, name, config_seed):
    # without --seed, chi and synth exit 2, a seed in the config or not
    cfg = _set(base[name], "seed", 5) if config_seed else base[name]
    assert _run(tmp_path, name, cfg, seed=False) == 2
    err = capsys.readouterr().err
    assert err == ("validation error: config: unknown key(s) ['seed']\n"
                   if config_seed else
                   f"validation error: --seed: required by {name}\n")
    assert _no_outputs(tmp_path)


# ---------------------------------------------------------------------------
# fit's parameter maps

def test_free_string_is_not_a_name_list(tmp_path, capsys, base):
    # a string used to be iterated by character: "unknown parameter 's'"
    assert _run(tmp_path, "fit", _set(base["fit"], "free", "scale_f")) == 2
    err = capsys.readouterr().err
    assert "free: must be a list of parameter names" in err


def test_free_repeated_name(tmp_path, capsys, base):
    cfg = _set(base["fit"], "free", ["chi", "scale_f", "chi"])
    assert _run(tmp_path, "fit", cfg) == 2
    assert "free: 'chi' is listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,named", [
    ("init", {"tau_ns": 1.0}, "init: unknown key(s) ['tau_ns']"),
    ("bounds", {"chi": 3}, "bounds.chi: must be a pair [lo, hi]"),
    ("bounds", [1, 2], "bounds: must be an object"),
    ("free", [["chi"]], "free: unknown parameter ['chi']"),
    ("datasets", {}, "datasets: must be a list of objects"),
    ("datasets", [5], "datasets[0]: must be an object")])
def test_fit_maps_named(tmp_path, capsys, base, key, value, named):
    assert _run(tmp_path, "fit", _set(base["fit"], key, value)) == 2
    assert named in capsys.readouterr().err


# ---------------------------------------------------------------------------
# wavepacket's intensity list

def test_empty_intensity_list(tmp_path, capsys, base):
    assert _run(tmp_path, "wavepacket",
                _set(base["wavepacket"], "i_r_mw_cm2", [])) == 2
    assert "i_r_mw_cm2: must be a non-empty list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", [[95, 95.0], [32, 95, 95.0000001]])
def test_intensities_with_one_file_name(tmp_path, capsys, base, values):
    assert _run(tmp_path, "wavepacket",
                _set(base["wavepacket"], "i_r_mw_cm2", values)) == 2
    assert "i_r_mw_cm2: two values give one file name" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# intensity.i_sat_mw_cm2 is required, checked by
# ReadoutParams.from_user_units and named by its own key

@pytest.mark.parametrize("intensity,message", [
    pytest.param(None, "config: missing required key(s) ['intensity']",
                 id="no-intensity-block"),
    pytest.param({"i_sat_mw_cm2": -1},       # test id from its old message
                 "intensity.i_sat_mw_cm2: invalid parameter(s): i_sat",
                 id="intensity1-intensity: invalid parameter(s): i_sat"),
    ({}, "intensity: missing required key(s) ['i_sat_mw_cm2']")])
def test_i_sat_named_under_intensity(tmp_path, capsys, intensity, message):
    cfg = {"params": {"delta_mhz": 1.7}, "i_r_mw_cm2": [95]}
    if intensity is not None:
        cfg["intensity"] = intensity
    assert _run(tmp_path, "wavepacket", cfg) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# the manifest

@pytest.mark.parametrize("name", ["wavepacket", "sweep-intensity",
                                  "sweep-detuning", "chi", "synth", "stats",
                                  "fit"])
def test_manifest_records_versions(tmp_path, base, name):
    assert _run(tmp_path, name, base[name]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["versions"] == {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__, "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# the reader itself

def test_reader_fills_defaults_and_types():
    cfg = read_config(TABLES["sweep-detuning"], {
        "params": {"delta_mhz": 0}, "intensity": {"i_sat_mw_cm2": 12},
        "i_r_mw_cm2": 127, "delta_grid_mhz": [-1, 0, 2.5],
        "horizon_ns": "inf"})
    assert cfg["params"] == {"delta_mhz": 0.0, "chi": 1.0,
                             "gamma_deph_mhz": 0.0, "scale_f": 1.0,
                             "gamma_nat_mhz": 5.2, "tau_ns": 50.0}
    assert cfg["intensity"] == {"i_sat_mw_cm2": 12.0}
    assert cfg["delta_grid_mhz"] == [-1.0, 0.0, 2.5]
    assert all(type(v) is float for v in cfg["delta_grid_mhz"])
    assert cfg["horizon_ns"] == float("inf")
    assert cfg["schema_version"] == 1 and "seed" not in cfg


@pytest.mark.parametrize("block,named", [
    ([], "config: must be an object"),
    ({"geometry": {}}, "geometry: missing required key(s)"),
    ({"geometry": None}, "geometry: must be an object"),
    ({"geometry": {"n_atoms": 1, "waist_m": 1, "length_m": 1,
                   "wavenumber_per_m": 1}, "n_samples": float("inf")},
     "n_samples: must be an integer"),
    ({"geometry": {"n_atoms": 10**400, "waist_m": 1, "length_m": 1,
                   "wavenumber_per_m": 1}},
     "geometry.n_atoms: must be a number in the float range"),
    ({"geometry": {"n_atoms": 1, "waist_m": 1, "length_m": 1,
                   "wavenumber_per_m": 1, "atoms": 1}},
     "geometry: unknown key(s) ['atoms']")])
def test_reader_errors(block, named):
    with pytest.raises(ConfigError) as info:
        read_config(TABLES["chi"], block)
    assert named in str(info.value)


@pytest.mark.parametrize("value,want", [(1, 1), (1.0, 1), (1e6, 10**6)])
def test_integral_float_is_an_integer(value, want):
    got = read_config(TABLES["chi"], {
        "geometry": {"n_atoms": 1, "waist_m": 1, "length_m": 1,
                     "wavenumber_per_m": 1}, "n_samples": value})
    assert got["n_samples"] == want and type(got["n_samples"]) is int


# ---------------------------------------------------------------------------
# README: its examples pass the tables, and its key tables list the tables

def _readme_json_blocks():
    return [json.loads(b) for b in re.findall(r"```json\n(.*?)```",
                                               README.read_text(), re.S)]


def test_readme_examples_pass_their_table(tmp_path):
    blocks = _readme_json_blocks()
    assert len(blocks) >= 4
    for block in blocks:
        accepted = []
        for command, table in TABLES.items():
            try:
                read_config(table, block)
            except ConfigError:
                continue
            accepted.append(command)
        assert len(accepted) == 1, (block, accepted)
        if accepted[0] != "fit":         # fit's data files are not shipped
            assert _run(tmp_path, accepted[0], block) == 0


def test_readme_library_example_runs():
    block, = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})


def _dotted(table, prefix=""):
    """{dotted key: required} over every leaf of a table."""
    out = {}
    for key, (kind, default) in table.items():
        if isinstance(kind, dict):
            out.update(_dotted(kind, f"{prefix}{key}."))
        elif isinstance(kind, list):
            out.update(_dotted(kind[0], f"{prefix}{key}[i]."))
        else:
            out[prefix + key] = default is REQUIRED
    return out


def _readme_key_tables():
    """{section: {key: required}} from the README's Config keys tables."""
    text = README.read_text().split("### Config keys", 1)[1]
    text = text.split("\n## ", 1)[0]
    sections, current = {}, None
    for line in text.splitlines():
        head = re.match(r"\*\*(`?)([^*`]+)\1\*\*", line)
        if head:
            current = sections.setdefault(head.group(2), {})
        row = re.match(r"\| `([^`]+)` \|[^|]*\|[^|]*\| *([^|]*?) *\|$", line)
        if row:
            keys = ([row.group(1).replace("<name>", n) for n in FIT_NAMES]
                    if "<name>" in row.group(1) else [row.group(1)])
            for key in keys:
                current[key] = row.group(2) == "yes"
    return sections


@pytest.mark.parametrize("command", sorted(TABLES))
def test_readme_key_table_matches(command):
    sections = _readme_key_tables()
    listed = dict(sections[command], **sections["Every command"])
    if "params" in TABLES[command]:
        listed.update(sections["Model block"])
    assert listed == _dotted(TABLES[command])
