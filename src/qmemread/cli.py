"""Command-line front end: figure-style sweeps, synthetic-data pipelines.

Subcommands
-----------
wavepacket      sample p_c(t) curves for one or more read intensities
sweep-intensity P_c versus read intensity at fixed detuning
sweep-detuning  P_c versus read detuning at fixed intensity
chi             cooperativity from geometry, three independent estimates
synth           generate a synthetic detection log from the model
stats           correlation summary + binned wavepacket from a log
fit             weighted least squares over datasets listed in the config

Every quantity in the JSON config carries an explicit unit suffix
(delta_mhz, i_r_mw_cm2, tau_ns, ...).  Unknown keys are rejected.  Exit
codes: 0 success, 1 runtime failure, 2 config/validation failure.  Every
run writes a manifest; a failed run removes any partial outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .collective import (EnsembleGeometry, branching_ratio, chi_closed_form,
                         chi_monte_carlo, chi_quadrature, extraction_ceiling)
from .counting import (SynthDesign, conditional_wavepacket, correlations,
                       ingest, probabilities, synthesize_log, write_log)
from .fitting import Dataset, fit
from .params import (DEFAULT_GAMMA_NAT_MHZ, ParamError, ReadoutParams,
                     IntensityModel, angular_to_mhz, mhz_to_angular)
from .wavepacket import pc_curve, saturation_curve, detuning_spectrum


class ConfigError(ValueError):
    """Configuration problem; message carries the path to the field."""


# user-facing fit parameter names -> internal keys
_FIT_KEYS = {"gamma_deph_mhz": "gamma_deph", "i_sat_mw_cm2": "i_sat",
             "chi": "chi", "scale_f": "scale_f"}

_PARAMS_KEYS = {"delta_mhz", "chi", "gamma_deph_mhz", "scale_f",
                "gamma_nat_mhz", "tau_ns", "rabi_mhz", "i_r_mw_cm2"}


def _check_keys(block: dict, allowed, path):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _require(block: dict, keys, path):
    missing = [k for k in keys if k not in block]
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {missing}")


def _config_int(value, key) -> int:
    """An integer config value; an integral float such as JSON 1e6 counts."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    return int(value)


def _config_float(value, key) -> float:
    """A numeric config value; a bool, a string or null is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: must be a number, got {value!r}")
    return float(value)


def _build_params(cfg: dict, path="params", i_r=None) -> ReadoutParams:
    block = cfg.get("params")
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: required object missing")
    _check_keys(block, _PARAMS_KEYS, path)
    _require(block, ["delta_mhz"], path)
    intensity = cfg.get("intensity", {})
    _check_keys(intensity, {"i_sat_mw_cm2"}, "intensity")

    kwargs = dict(delta_mhz=block["delta_mhz"],
                  chi=block.get("chi", 1.0),
                  gamma_deph_mhz=block.get("gamma_deph_mhz", 0.0),
                  scale_f=block.get("scale_f", 1.0),
                  gamma_nat_mhz=block.get("gamma_nat_mhz", DEFAULT_GAMMA_NAT_MHZ),
                  tau_ns=block.get("tau_ns", 50.0))
    i_r_eff = i_r if i_r is not None else block.get("i_r_mw_cm2")
    if "rabi_mhz" in block and i_r_eff is not None:
        raise ConfigError(f"{path}: give rabi_mhz or an intensity, not both")
    if "rabi_mhz" in block:
        kwargs["rabi_mhz"] = block["rabi_mhz"]
    else:
        if i_r_eff is None:
            raise ConfigError(f"{path}: need rabi_mhz or i_r_mw_cm2")
        if "i_sat_mw_cm2" not in intensity:
            raise ConfigError("intensity.i_sat_mw_cm2 is required with i_r_mw_cm2")
        kwargs["i_r_mw_cm2"] = i_r_eff
        kwargs["i_sat_mw_cm2"] = intensity["i_sat_mw_cm2"]
    try:
        return ReadoutParams.from_user_units(**kwargs)
    except ParamError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _intensity_model(cfg) -> IntensityModel:
    block = cfg.get("intensity")
    if not isinstance(block, dict) or "i_sat_mw_cm2" not in block:
        raise ConfigError("intensity.i_sat_mw_cm2: required")
    gamma_nat = mhz_to_angular(cfg.get("params", {}).get(
        "gamma_nat_mhz", DEFAULT_GAMMA_NAT_MHZ))
    return IntensityModel(i_sat=block["i_sat_mw_cm2"], gamma_nat=gamma_nat)


def _horizon_us(block, key="horizon_ns") -> float:
    """``block``'s horizon_ns in us, 160 ns by default; "inf" or null is no
    horizon.  Its sign is checked where the horizon is used."""
    h = block.get("horizon_ns", 160.0)
    if h in ("inf", None):
        return math.inf
    return _config_float(h, key) * 1e-3


class _Run:
    """Tracks declared outputs so a failed run leaves nothing behind."""

    def __init__(self, outdir: Path, quiet: bool):
        self.outdir = outdir
        self.quiet = quiet
        self.outputs = []

    def path(self, name) -> Path:
        self.outdir.mkdir(parents=True, exist_ok=True)
        p = self.outdir / name
        self.outputs.append(p)
        return p

    def note(self, msg):
        if not self.quiet:
            print(msg)

    def cleanup(self):
        for p in self.outputs:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def _slug(value) -> str:
    return f"{value:g}".replace(".", "p").replace("-", "m")


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a dict for the manifest)

def cmd_wavepacket(cfg, run, seed):
    _check_keys(cfg, {"schema_version", "params", "intensity", "i_r_mw_cm2",
                      "window", "seed"}, "config")
    win = cfg.get("window", {})
    _check_keys(win, {"t_start_ns", "t_end_ns", "step_ns"}, "window")
    t0 = float(win.get("t_start_ns", 0.0))
    t1 = float(win.get("t_end_ns", 160.0))
    dt = float(win.get("step_ns", 1.0))
    if not (t1 > t0 >= 0 and dt > 0):
        raise ConfigError("window: need t_end_ns > t_start_ns >= 0, step_ns > 0")
    steps = (t1 - t0) / dt
    if abs(steps - round(steps)) > 1e-9:
        raise ConfigError("window: step_ns must divide t_end_ns - t_start_ns")
    n_points = int(round(steps)) + 1

    i_r_vals = cfg.get("i_r_mw_cm2")
    if i_r_vals is None:
        params = _build_params(cfg)
        curves = [("rabi", params)]
    else:
        if not isinstance(i_r_vals, list):
            i_r_vals = [i_r_vals]
        curves = [(f"ir{_slug(v)}", _build_params(cfg, i_r=float(v)))
                  for v in i_r_vals]
    for tag, params in curves:
        curve = pc_curve(params, t_start=t0 * 1e-3, t_end=t1 * 1e-3,
                         n_points=n_points)
        out = run.path(f"wavepacket_{tag}.csv")
        curve.to_csv(out)
        run.note(f"wrote {out}")
    return {}


def cmd_sweep_intensity(cfg, run, seed):
    _check_keys(cfg, {"schema_version", "params", "intensity",
                      "i_r_grid_mw_cm2", "horizon_ns", "seed"}, "config")
    _require(cfg, ["i_r_grid_mw_cm2"], "config")
    grid = cfg["i_r_grid_mw_cm2"]
    if not isinstance(grid, list) or len(grid) == 0:
        raise ConfigError("i_r_grid_mw_cm2: non-empty list required")
    params = _build_params(cfg, i_r=0.0)
    curve = saturation_curve(params, _intensity_model(cfg),
                             np.asarray(grid, dtype=float),
                             horizon=_horizon_us(cfg))
    out = run.path("sweep_intensity.csv")
    curve.to_csv(out)
    run.note(f"wrote {out}")
    return {}


def cmd_sweep_detuning(cfg, run, seed):
    _check_keys(cfg, {"schema_version", "params", "intensity", "i_r_mw_cm2",
                      "delta_grid_mhz", "horizon_ns", "seed"}, "config")
    _require(cfg, ["i_r_mw_cm2", "delta_grid_mhz"], "config")
    grid = cfg["delta_grid_mhz"]
    if not isinstance(grid, list) or len(grid) == 0:
        raise ConfigError("delta_grid_mhz: non-empty list required")
    params = _build_params(cfg, i_r=float(cfg["i_r_mw_cm2"]))
    curve = detuning_spectrum(params, _intensity_model(cfg),
                              float(cfg["i_r_mw_cm2"]),
                              np.asarray(grid, dtype=float),
                              horizon=_horizon_us(cfg))
    out = run.path("sweep_detuning.csv")
    curve.to_csv(out)
    run.note(f"wrote {out}")
    return {}


def cmd_chi(cfg, run, seed):
    _check_keys(cfg, {"schema_version", "geometry", "n_samples", "n_batches",
                      "seed"}, "config")
    geo = cfg.get("geometry")
    if not isinstance(geo, dict):
        raise ConfigError("geometry: required object missing")
    _check_keys(geo, {"n_atoms", "waist_m", "length_m", "wavenumber_per_m"},
                "geometry")
    _require(geo, ["n_atoms", "waist_m", "length_m", "wavenumber_per_m"],
             "geometry")
    try:
        geom = EnsembleGeometry(**geo)
    except ParamError as exc:
        raise ConfigError(f"geometry: {exc}") from exc
    n_samples = _config_int(cfg.get("n_samples", 1_000_000), "n_samples")
    n_batches = _config_int(cfg.get("n_batches", 30), "n_batches")

    cf = chi_closed_form(geom)
    qd = chi_quadrature(geom)
    mc = chi_monte_carlo(geom, n_samples, seed, n_batches=n_batches)
    report = {
        "closed_form": {"chi": cf.value, "standard_error": cf.standard_error},
        "quadrature": {"chi": qd.value, "standard_error": qd.standard_error},
        "monte_carlo": {"chi": mc.value, "standard_error": mc.standard_error,
                        "n_samples": n_samples, "seed": seed},
        "branching_ratio": branching_ratio(cf.value),
        "extraction_ceiling": extraction_ceiling(cf.value),
        "regime_flags": geom.regime_flags,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    out = run.path("chi.json")
    out.write_text(text + "\n", encoding="utf-8")
    return {}


def cmd_synth(cfg, run, seed):
    _check_keys(cfg, {"schema_version", "params", "intensity", "design",
                      "seed"}, "config")
    design_block = cfg.get("design")
    if not isinstance(design_block, dict):
        raise ConfigError("design: required object missing")
    _check_keys(design_block, {"n_trials", "p1", "window_ns", "herald_t_ns",
                               "read_start_ns", "read_window_ns",
                               "background_per_ns"}, "design")
    _require(design_block, ["n_trials", "p1"], "design")
    params = _build_params(cfg)
    try:
        design = SynthDesign(**design_block)
    except ParamError as exc:
        raise ConfigError(f"design: {exc}") from exc
    store = synthesize_log(params, design, seed)
    out = run.path("synth_log.csv")
    write_log(store, out)
    meta = {"n_trials": design.n_trials, "trial_window_ns": design.window_ns,
            "seed": seed, "n_events": len(store)}
    meta_out = run.path("synth_meta.json")
    meta_out.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    run.note(f"wrote {out} ({len(store)} events)")
    return {}


def cmd_stats(cfg, run, seed):
    _check_keys(cfg, {"schema_version", "log_path", "n_trials",
                      "trial_window_ns", "window1_ns", "window2_ns",
                      "herald_window_ns", "bin_width_ns",
                      "wavepacket_range_ns", "seed"}, "config")
    _require(cfg, ["log_path", "window1_ns", "window2_ns"], "config")

    def _window(key, op="<="):
        w = cfg[key]
        if not isinstance(w, list) or len(w) != 2:
            raise ConfigError(f"{key}: expected [lo, hi] with lo {op} hi")
        lo, hi = (_config_int(v, f"{key}[{i}]") for i, v in enumerate(w))
        if lo > hi or (op == "<" and lo == hi):
            raise ConfigError(f"{key}: expected [lo, hi] with lo {op} hi")
        return lo, hi

    w1, w2 = _window("window1_ns"), _window("window2_ns")
    t_range = None
    if "wavepacket_range_ns" in cfg:
        t_range = _window("wavepacket_range_ns", "<")
    n_trials = cfg.get("n_trials")
    if n_trials is not None:
        n_trials = _config_int(n_trials, "n_trials")
    store = ingest(cfg["log_path"], n_trials=n_trials,
                   trial_window_ns=_config_int(cfg.get("trial_window_ns", 1500),
                                               "trial_window_ns"))
    summary = correlations(probabilities(store, w1, w2))
    herald = _window("herald_window_ns") if "herald_window_ns" in cfg else w1
    binned = conditional_wavepacket(store, herald,
                                    bin_width_ns=_config_int(
                                        cfg.get("bin_width_ns", 1), "bin_width_ns"),
                                    t_range=t_range)
    report = summary.to_json()
    report["ingest"] = {"n_events": len(store),
                        "n_duplicates": store.n_duplicates,
                        "n_rejected_channel": store.n_rejected_channel,
                        "n_parse_errors": len(store.parse_errors),
                        "parse_errors_by_reason": store.parse_errors_by_reason()}
    out = run.path("stats_summary.json")
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    wp_out = run.path("stats_wavepacket.csv")
    binned.to_csv(wp_out)
    run.note(f"wrote {out} and {wp_out}")
    return {}


def cmd_fit(cfg, run, seed):
    _check_keys(cfg, {"schema_version", "gamma_nat_mhz", "tau_ns", "datasets",
                      "free", "init", "bounds", "weighted", "seed"}, "config")
    _require(cfg, ["datasets", "free"], "config")
    weighted = bool(cfg.get("weighted", True))

    free, init, bounds = [], {}, {}
    for name in cfg["free"]:
        if name not in _FIT_KEYS:
            raise ConfigError(f"free: unknown parameter {name!r}")
        free.append(_FIT_KEYS[name])
    for name, val in (cfg.get("init") or {}).items():
        if name not in _FIT_KEYS:
            raise ConfigError(f"init: unknown parameter {name!r}")
        key = _FIT_KEYS[name]
        val = _config_float(val, f"init.{name}")
        init[key] = mhz_to_angular(val) if key == "gamma_deph" else val
    for name, pair in (cfg.get("bounds") or {}).items():
        if name not in _FIT_KEYS:
            raise ConfigError(f"bounds: unknown parameter {name!r}")
        key = _FIT_KEYS[name]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"bounds.{name}: expected [lo, hi], each a "
                              "number or null")
        lo, hi = (None if v is None else _config_float(v, f"bounds.{name}[{j}]")
                  for j, v in enumerate(pair))
        if key == "gamma_deph":
            lo = None if lo is None else mhz_to_angular(lo)
            hi = None if hi is None else mhz_to_angular(hi)
        bounds[key] = (lo, hi)

    datasets = []
    for i, block in enumerate(cfg["datasets"]):
        path = f"datasets[{i}]"
        _check_keys(block, {"kind", "path", "delta_mhz", "i_r_mw_cm2",
                            "horizon_ns", "mask_min", "mask_max", "label"},
                    path)
        _require(block, ["kind", "path"], path)

        def number(key, default=None):
            value = block.get(key)
            return default if value is None else _config_float(
                value, f"{path}.{key}")

        x, y, sig = _read_dataset_csv(block["path"])
        if not weighted:
            sig = np.ones_like(y)
        mask = None
        if "mask_min" in block or "mask_max" in block:
            mask = ((x >= number("mask_min", -math.inf))
                    & (x <= number("mask_max", math.inf)))
        try:
            datasets.append(Dataset(
                kind=block["kind"], x=x, y=y, sigma=sig,
                delta_mhz=number("delta_mhz"), i_r=number("i_r_mw_cm2"),
                horizon_us=_horizon_us(block, f"{path}.horizon_ns"),
                mask=mask, label=block.get("label", "")))
        except ParamError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    result = fit(datasets, free=tuple(free), init=init or None,
                 bounds=bounds or None,
                 gamma_nat=mhz_to_angular(_config_float(
                     cfg.get("gamma_nat_mhz", DEFAULT_GAMMA_NAT_MHZ),
                     "gamma_nat_mhz")),
                 tau=_config_float(cfg.get("tau_ns", 50.0), "tau_ns") * 1e-3)
    payload = result.to_json()
    # mirror values back into user-facing units
    user_values, user_errors = {}, {}
    for uname, key in _FIT_KEYS.items():
        if key in result.values:
            v, e = result.values[key], result.errors[key]
            if key == "gamma_deph":
                v, e = angular_to_mhz(v), angular_to_mhz(e)
            user_values[uname] = v
            user_errors[uname] = e
    payload["values_user_units"] = user_values
    payload["errors_user_units"] = user_errors
    out = run.path("fit_result.json")
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    run.note(f"wrote {out} (converged={result.converged}, "
             f"red_chi2={result.red_chi2:.4g})")
    return {}


def _read_dataset_csv(path):
    """(x, y, sigma): the first three columns of a CSV after its header row.

    Every field must parse as a number; an empty or non-numeric one, a file
    with no data row or one with fewer than 3 columns is a ConfigError
    naming the file.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # "input contained no data"
            raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if raw.shape[0] == 0 or raw.shape[1] < 3:
        raise ConfigError(f"{path}: expected CSV with header and 3 columns "
                          "(abscissa, ordinate, sigma)")
    return raw[:, 0].copy(), raw[:, 1].copy(), raw[:, 2].copy()


_COMMANDS = {
    "wavepacket": cmd_wavepacket,
    "sweep-intensity": cmd_sweep_intensity,
    "sweep-detuning": cmd_sweep_detuning,
    "chi": cmd_chi,
    "synth": cmd_synth,
    "stats": cmd_stats,
    "fit": cmd_fit,
}

_NEED_SEED = {"chi", "synth"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmemread",
        description="Collective quantum-memory readout: wavepackets, sweeps, "
                    "cooperativity, synthetic logs, statistics and fits.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (overrides config)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    started = datetime.now(timezone.utc).isoformat()
    run = _Run(Path(args.out), args.quiet)
    try:
        config_text = Path(args.config).read_text(encoding="utf-8")
        cfg = json.loads(config_text)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if not isinstance(cfg, dict):
            raise ConfigError("config: top level must be an object")
        if cfg.get("schema_version", 1) != 1:
            raise ConfigError("schema_version: only version 1 is supported")
        seed = args.seed if args.seed is not None else cfg.get("seed")
        if seed is not None and (isinstance(seed, bool)
                                 or not isinstance(seed, int)):
            raise ConfigError("seed: must be an integer")
        if seed is None and args.command in _NEED_SEED:
            raise ConfigError("seed: required (use --seed or config 'seed')")
        _COMMANDS[args.command](cfg, run, seed)
    except (ConfigError, ParamError) as exc:
        run.cleanup()
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: leave no partial outputs
        run.cleanup()
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    manifest = {
        "tool": "qmemread",
        "version": __version__,
        "command": args.command,
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "seed": seed,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [p.name for p in run.outputs],
    }
    run.outdir.mkdir(parents=True, exist_ok=True)
    (run.outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if not args.quiet:
        print(f"manifest: {run.outdir / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
