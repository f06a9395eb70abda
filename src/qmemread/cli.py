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
(delta_mhz, i_r_mw_cm2, tau_ns, ...) and is read by the command's table in
``TABLES`` (README.md lists them).  Exit codes: 0 success, 1 a defect,
2 a config/validation failure naming its key.  Every run writes a
manifest; a failed run removes any partial outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .collective import (EnsembleGeometry, branching_ratio, chi_closed_form,
                         chi_monte_carlo, chi_quadrature, extraction_ceiling)
from .counting import (DEFAULT_TRIAL_WINDOW_NS, SynthDesign,
                       conditional_wavepacket, correlations, ingest,
                       probabilities, synthesize_log, write_log)
from .fitting import Dataset, fit
from .params import (DEFAULT_GAMMA_NAT_MHZ, ParamError, ReadoutParams,
                     angular_to_mhz, mhz_to_angular)
from .wavepacket import pc_curve, saturation_curve, detuning_spectrum


class ConfigError(ValueError):
    """Configuration problem; message carries the path to the field."""


_CSV_ROWS = 1 << 14         # CSV rows formatted per block

# user-facing fit parameter names -> internal keys
_FIT_KEYS = {"gamma_deph_mhz": "gamma_deph", "i_sat_mw_cm2": "i_sat",
             "chi": "chi", "scale_f": "scale_f"}


# ---------------------------------------------------------------------------
# config kinds: (value, dotted path) -> typed value, or ConfigError

def _bad(path, what, value) -> ConfigError:
    return ConfigError(f"{path}: must be {what}, got {value!r}")


def _exact(types, what):
    """A JSON value of one of ``types`` exactly; a bool is not an int."""
    def kind(v, path):
        if type(v) not in types:
            raise _bad(path, what, v)
        return v
    return kind


_json_int = _exact((int,), "an integer")
_string = _exact((str,), "a string")


def _int(v, path) -> int:
    """An integer; an integral float such as JSON 1e6 counts."""
    return _json_int(int(v) if type(v) is float and v.is_integer() else v,
                     path)


def _number(v, path) -> float:
    """A finite number; json reads NaN, Infinity and 1e400 (as inf) too."""
    try:
        x = float(_exact((int, float), "a number")(v, path))
    except OverflowError:       # a JSON integer beyond the float range
        raise _bad(path, "a number in the float range", v) from None
    if not math.isfinite(x):
        raise _bad(path, "a finite number", v)
    return x


def _horizon(v, path) -> float:
    """A horizon in ns; "inf" is no horizon."""
    return math.inf if v == "inf" else _number(v, path)


def _version(v, path) -> int:
    if _int(v, path) != 1:
        raise ConfigError(f"{path}: only version 1 is supported")
    return 1


def _numbers(v, path) -> list:
    if not (type(v) is list and v):
        raise _bad(path, "a non-empty list of numbers", v)
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _pair(v, path) -> list:
    if not (type(v) is list and len(v) == 2):
        raise _bad(path, "a pair [lo, hi]", v)
    return v


def _window(v, path) -> tuple:
    """An inclusive integer range [lo, hi] with lo <= hi."""
    lo, hi = (_int(x, f"{path}[{i}]") for i, x in enumerate(_pair(v, path)))
    if lo > hi:
        raise ConfigError(f"{path}: expected [lo, hi] with lo <= hi")
    return lo, hi


def _bound_pair(v, path) -> tuple:
    """[lo, hi], each a number or null for no bound."""
    return tuple(None if x is None else _number(x, f"{path}[{j}]")
                 for j, x in enumerate(_pair(v, path)))


def _free(v, path) -> list:
    """A non-empty list of distinct fit parameter names."""
    if not _exact((list,), "a list of parameter names")(v, path):
        raise ConfigError(f"{path}: name at least one parameter to fit")
    for name in v:
        if not (isinstance(name, str) and name in _FIT_KEYS):
            raise ConfigError(f"{path}: unknown parameter {name!r}")
        if v.count(name) > 1:
            raise ConfigError(f"{path}: {name!r} is listed twice")
    return v


# ---------------------------------------------------------------------------
# one table per command: key -> (kind, default).  A kind is a function as
# above, a nested table (read as {} when absent) or [table], a list of
# objects each read by that table.

REQUIRED = object()


def read_config(table, block, path=""):
    """``block`` read through ``table``: a dict with every key of the table,
    holding the typed value, or the default where the key is absent.

    Unknown keys, missing required keys and ill-typed values raise
    ConfigError naming the dotted path (``params.chi``,
    ``datasets[2].horizon_ns``).  A pure function of its arguments; range
    invariants are left to the library types built from the values.
    """
    where = path or "config"
    _exact((dict,), "an object")(block, where)
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}")
    missing = [k for k, (_, d) in table.items()
               if d is REQUIRED and k not in block]
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {missing}")
    out = {}
    for key, (kind, default) in table.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(kind, dict):
            out[key] = read_config(kind, block.get(key, {}), sub)
        elif isinstance(kind, list):
            items = _exact((list,), "a list of objects")(block.get(key, []), sub)
            out[key] = [read_config(kind[0], b, f"{sub}[{i}]")
                        for i, b in enumerate(items)]
        else:
            out[key] = kind(block[key], sub) if key in block else default
    return out


_COMMON = {"schema_version": (_version, 1)}
_PARAMS = {"delta_mhz": (_number, REQUIRED), "chi": (_number, 1.0),
           "gamma_deph_mhz": (_number, 0.0), "scale_f": (_number, 1.0),
           "gamma_nat_mhz": (_number, DEFAULT_GAMMA_NAT_MHZ),
           "tau_ns": (_number, 50.0)}
# the read drive is an intensity, read from one key per command
_MODEL = {"params": (_PARAMS, REQUIRED),
          "intensity": ({"i_sat_mw_cm2": (_number, REQUIRED)}, REQUIRED)}

TABLES = {
    "wavepacket": {
        **_COMMON, **_MODEL, "i_r_mw_cm2": (_numbers, REQUIRED),
        "window": ({"t_start_ns": (_number, 0.0), "t_end_ns": (_number, 160.0),
                    "step_ns": (_number, 1.0)}, None)},
    "sweep-intensity": {
        **_COMMON, **_MODEL, "i_r_grid_mw_cm2": (_numbers, REQUIRED),
        "horizon_ns": (_horizon, 160.0)},
    "sweep-detuning": {
        **_COMMON, **_MODEL, "i_r_mw_cm2": (_number, REQUIRED),
        "delta_grid_mhz": (_numbers, REQUIRED), "horizon_ns": (_horizon, 160.0)},
    "chi": {
        **_COMMON, "n_samples": (_int, 1_000_000),
        "geometry": (dict.fromkeys(("n_atoms", "waist_m", "length_m",
                                    "wavenumber_per_m"), (_number, REQUIRED)),
                     REQUIRED)},
    "synth": {
        **_COMMON, **_MODEL,
        "params": ({**_PARAMS, "i_r_mw_cm2": (_number, REQUIRED)}, REQUIRED),
        "design": ({"n_trials": (_int, REQUIRED), "p1": (_number, REQUIRED),
                    "window_ns": (_int, SynthDesign.window_ns),
                    "herald_t_ns": (_int, SynthDesign.herald_t_ns),
                    "read_start_ns": (_int, SynthDesign.read_start_ns),
                    "read_window_ns": (_int, SynthDesign.read_window_ns),
                    "background_per_ns": (_number,
                                          SynthDesign.background_per_ns)},
                   REQUIRED)},
    "stats": {
        **_COMMON, "log_path": (_string, REQUIRED), "n_trials": (_int, None),
        "trial_window_ns": (_int, DEFAULT_TRIAL_WINDOW_NS),
        "window1_ns": (_window, REQUIRED), "window2_ns": (_window, REQUIRED),
        "herald_window_ns": (_window, None), "bin_width_ns": (_int, 1),
        "wavepacket_range_ns": (_window, None)},
    "fit": {
        **_COMMON, "gamma_nat_mhz": (_number, DEFAULT_GAMMA_NAT_MHZ),
        "tau_ns": (_number, 50.0), "free": (_free, REQUIRED),
        "init": (dict.fromkeys(_FIT_KEYS, (_number, None)), None),
        "bounds": (dict.fromkeys(_FIT_KEYS, (_bound_pair, None)), None),
        "datasets": ([{
            "kind": (_string, REQUIRED), "path": (_string, REQUIRED),
            "delta_mhz": (_number, None), "i_r_mw_cm2": (_number, None),
            "horizon_ns": (_horizon, 160.0), "mask_min": (_number, -math.inf),
            "mask_max": (_number, math.inf)}],
                     REQUIRED)},
}


# library argument -> the config key that sets it
_ARG_KEYS = {"window1": "window1_ns", "window2": "window2_ns",
             "herald_window": "herald_window_ns",
             "t_range": "wavepacket_range_ns", "horizon": "horizon_ns",
             "i_r": "i_r_grid_mw_cm2", "delta": "delta_grid_mhz",
             "tau": "tau_ns", "gamma_nat": "gamma_nat_mhz",
             **{key: name for name, key in _FIT_KEYS.items()}}
# ReadoutParams field -> the key of the params or intensity block that sets it
_READOUT_KEYS = {"delta": "params.delta_mhz", "chi": "params.chi",
                 "gamma_deph": "params.gamma_deph_mhz",
                 "scale_f": "params.scale_f",
                 "gamma_nat": "params.gamma_nat_mhz", "tau": "params.tau_ns",
                 "i_sat": "intensity.i_sat_mw_cm2"}


@contextlib.contextmanager
def _named(path=None, **keys):
    """Re-raise a library ParamError as a ConfigError naming a config key
    for the first field it names: its key in ``keys``, else the block
    ``path``, else its key in ``_ARG_KEYS``, else the field itself."""
    try:
        yield
    except ParamError as exc:
        field = exc.fields[0]
        key = keys.get(field) or path or _ARG_KEYS.get(field, field)
        raise ConfigError(f"{key}: {exc}") from exc


def _leaves(block, cfg) -> dict:
    """Each key of the config block ``block`` -> its dotted path, for the
    library type whose fields are that block's keys."""
    return {key: f"{block}.{key}" for key in cfg[block]}


def _readout(cfg, i_r, source) -> ReadoutParams:
    """ReadoutParams from the params and intensity blocks at the read
    intensity ``i_r``, which the command reads from its key ``source``."""
    params = dict(cfg["params"], i_r_mw_cm2=i_r,
                  i_sat_mw_cm2=cfg["intensity"]["i_sat_mw_cm2"])
    with _named(**_READOUT_KEYS, i_r=source, omega=source):
        return ReadoutParams.from_user_units(**params)


def _write_json(path, obj) -> str:
    """Write ``obj`` to ``path`` as key-sorted, 2-space-indented JSON and a
    final newline; return the JSON text without that newline.  A value
    that may be undefined is given as None (null); a NaN or infinity left
    in ``obj`` is a ValueError, so none is written."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    return text


class _Run:
    """Writes a command's output files, and tracks them so a failed run
    leaves nothing behind."""

    def __init__(self, outdir: Path, quiet: bool):
        self.outdir = outdir
        self.quiet = quiet
        self.outputs = []

    def path(self, name) -> Path:
        self.outdir.mkdir(parents=True, exist_ok=True)
        p = self.outdir / name
        self.outputs.append(p)
        return p

    def csv(self, name, header, row_format, *columns) -> Path:
        """Write the CSV ``name``: the ``header`` row, then one row per index
        of the equal-length ``columns``, rendered as ``row_format % row``
        ``_CSV_ROWS`` rows at a time, not whole columns of Python floats."""
        out = self.path(name)
        columns = [np.asarray(c) for c in columns]
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for lo in range(0, len(columns[0]), _CSV_ROWS):
                rows = zip(*(c[lo:lo + _CSV_ROWS].tolist() for c in columns))
                fh.writelines(row_format % row + "\n" for row in rows)
        return out

    def json(self, name, obj) -> Path:
        out = self.path(name)
        _write_json(out, obj)
        return out

    def note(self, msg):
        if not self.quiet:
            print(msg)

    def cleanup(self):
        for p in self.outputs:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# subcommand implementations: ``cfg`` is the command's table read by
# read_config; each writes its outputs through ``run``

def cmd_wavepacket(cfg, run, seed):
    win = cfg["window"]
    t0, t1, dt = win["t_start_ns"], win["t_end_ns"], win["step_ns"]
    if not (t1 > t0 >= 0 and dt > 0):
        raise ConfigError("window: need t_end_ns > t_start_ns >= 0, step_ns > 0")
    steps = (t1 - t0) / dt
    if steps == math.inf:
        raise ConfigError("window: (t_end_ns - t_start_ns) / step_ns "
                          "overflows")
    if round(steps) < 1:
        raise ConfigError("window: step_ns must not exceed "
                          "t_end_ns - t_start_ns")
    if abs(steps - round(steps)) > 1e-9:
        raise ConfigError("window: step_ns must divide t_end_ns - t_start_ns")
    n_points = int(round(steps)) + 1

    curves = [(f"ir{v:g}".replace(".", "p").replace("-", "m"),
               _readout(cfg, v, "i_r_mw_cm2")) for v in cfg["i_r_mw_cm2"]]
    if len(dict(curves)) < len(curves):
        raise ConfigError("i_r_mw_cm2: two values give one file name")
    for tag, params in curves:
        with _named("window"):
            curve = pc_curve(params, t_start=t0 * 1e-3, t_end=t1 * 1e-3,
                             n_points=n_points)
        out = run.csv(f"wavepacket_{tag}.csv", "t_ns,pc_per_ns", "%.12g,%.12g",
                      curve.t_ns, curve.pc_per_ns)
        run.note(f"wrote {out}")


def cmd_sweep_intensity(cfg, run, seed):
    params = _readout(cfg, 0.0, "i_r_grid_mw_cm2")
    with _named():
        curve = saturation_curve(params, cfg["intensity"]["i_sat_mw_cm2"],
                                 np.asarray(cfg["i_r_grid_mw_cm2"]),
                                 horizon=cfg["horizon_ns"] * 1e-3)
    out = run.csv("sweep_intensity.csv", "I_mW_cm2,Pc", "%.12g,%.12g",
                  curve.abscissa, curve.ordinate)
    run.note(f"wrote {out}")


def cmd_sweep_detuning(cfg, run, seed):
    params = _readout(cfg, cfg["i_r_mw_cm2"], "i_r_mw_cm2")
    with _named():
        curve = detuning_spectrum(params, np.asarray(cfg["delta_grid_mhz"]),
                                  horizon=cfg["horizon_ns"] * 1e-3)
    out = run.csv("sweep_detuning.csv", "Delta_MHz,Pc", "%.12g,%.12g",
                  curve.abscissa, curve.ordinate)
    run.note(f"wrote {out}")


def cmd_chi(cfg, run, seed):
    with _named(**_leaves("geometry", cfg)):
        geom = EnsembleGeometry(**cfg["geometry"])
    cf = chi_closed_form(geom)
    with _named():
        mc, se = chi_monte_carlo(geom, cfg["n_samples"], seed)
    report = {      # the exact estimates carry no sampling error
        "closed_form": {"chi": cf, "standard_error": 0.0},
        "quadrature": {"chi": chi_quadrature(geom), "standard_error": 0.0},
        "monte_carlo": {"chi": mc, "standard_error": se,
                        "n_samples": cfg["n_samples"], "seed": seed},
        "branching_ratio": branching_ratio(cf),
        "extraction_ceiling": extraction_ceiling(cf),
        "regime_flags": geom.regime_flags,
    }
    run.note(_write_json(run.path("chi.json"), report))


def cmd_synth(cfg, run, seed):
    params = _readout(cfg, cfg["params"]["i_r_mw_cm2"], "params.i_r_mw_cm2")
    with _named(**_leaves("design", cfg)):
        design = SynthDesign(**cfg["design"])
    with _named(**_READOUT_KEYS):     # P_c > 1, found before any draw
        store = synthesize_log(params, design, seed)
    out = run.path("synth_log.csv")
    write_log(store, out)
    run.json("synth_meta.json", {
        "n_trials": design.n_trials, "trial_window_ns": design.window_ns,
        "seed": seed, "n_events": len(store),
        "n_merged": store.n_duplicates})
    run.note(f"wrote {out} ({len(store)} events)")


def cmd_stats(cfg, run, seed):
    w1, herald = cfg["window1_ns"], cfg["herald_window_ns"]
    t_range = cfg["wavepacket_range_ns"]    # the trial window by default
    with _named(herald_window="herald_window_ns" if herald else "window1_ns",
                t_range="wavepacket_range_ns" if t_range else "trial_window_ns"):
        store = ingest(cfg["log_path"], n_trials=cfg["n_trials"],
                       trial_window_ns=cfg["trial_window_ns"])
        summary = correlations(probabilities(store, w1, cfg["window2_ns"]))
        binned = conditional_wavepacket(store, herald or w1,
                                        bin_width_ns=cfg["bin_width_ns"],
                                        t_range=t_range)
    report = summary.to_json()
    report["ingest"] = {"n_records": store.n_records,
                        "n_validated": store.n_validated,
                        "n_events": len(store),
                        "n_duplicates": store.n_duplicates,
                        "n_rejected_channel": store.n_rejected_channel,
                        "n_parse_errors": len(store.parse_errors),
                        "parse_errors_by_reason": store.parse_errors_by_reason()}
    out = run.json("stats_summary.json", report)
    wp_out = run.csv("stats_wavepacket.csv", "t_lo_ns,t_hi_ns,pc,g12,n_coinc",
                     "%d,%d,%.12g,%.12g,%d", binned.t_lo_ns, binned.t_hi_ns,
                     binned.pc, binned.g12, binned.n_coinc)
    run.note(f"wrote {out} and {wp_out}")


def cmd_fit(cfg, run, seed):
    def internal(name, value):      # user units -> the fit's units
        return (mhz_to_angular(value)
                if name == "gamma_deph_mhz" and value is not None else value)

    init = {_FIT_KEYS[n]: internal(n, v) for n, v in cfg["init"].items()
            if v is not None}
    bounds = {_FIT_KEYS[n]: tuple(internal(n, v) for v in pair)
              for n, pair in cfg["bounds"].items() if pair is not None}
    datasets = []
    for i, block in enumerate(cfg["datasets"]):
        x, y, sig = _read_dataset_csv(block["path"])
        keep = (x >= block["mask_min"]) & (x <= block["mask_max"])
        with _named(f"datasets[{i}]"):
            # every row is checked, then the rows inside the window kept
            ds = Dataset(kind=block["kind"], x=x, y=y, sigma=sig,
                         delta_mhz=block["delta_mhz"], i_r=block["i_r_mw_cm2"],
                         horizon_us=block["horizon_ns"] * 1e-3)
            if not keep.all():
                ds = dataclasses.replace(ds, x=x[keep], y=y[keep],
                                         sigma=sig[keep])
        datasets.append(ds)

    with _named():
        result = fit(datasets, free=tuple(_FIT_KEYS[n] for n in cfg["free"]),
                     init=init or None, bounds=bounds or None,
                     gamma_nat=mhz_to_angular(cfg["gamma_nat_mhz"]),
                     tau=cfg["tau_ns"] * 1e-3)
    payload = result.to_json()
    # mirror values back into user-facing units
    for field, got in (("values_user_units", result.values),
                       ("errors_user_units", result.errors)):
        payload[field] = {n: angular_to_mhz(got[k]) if k == "gamma_deph"
                          else got[k] for n, k in _FIT_KEYS.items() if k in got}
    out = run.json("fit_result.json", payload)
    run.note(f"wrote {out} (converged={result.converged}, "
             f"red_chi2={result.red_chi2:.4g})")


def _read_dataset_csv(path):
    """(x, y, sigma): the first three columns of a CSV after its header row.

    The file is opened as named: ``np.loadtxt`` gets the open handle, so
    its ``DataSource`` neither reads a compressed sibling of a missing file
    nor downloads a URL.  Every field must parse as a number; an empty or
    non-numeric one, a file with no data row or one with fewer than 3
    columns is a ConfigError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")   # "input contained no data"
            raw = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
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
                        help="RNG seed (required by chi and synth)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    started = datetime.now(timezone.utc).isoformat()
    run = _Run(Path(args.out), args.quiet)
    try:
        config_text = Path(args.config).read_text(encoding="utf-8")
        cfg = json.loads(config_text)
    except (OSError, ValueError) as exc:
        # ValueError: bytes not UTF-8, text not JSON, or an integer literal
        # past Python's 4300-digit limit
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = read_config(TABLES[args.command], cfg)
        if args.seed is None and args.command in _NEED_SEED:
            raise ConfigError(f"--seed: required by {args.command}")
        _COMMANDS[args.command](cfg, run, args.seed)
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
        "seed": args.seed,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [p.name for p in run.outputs],
        "versions": {"python": "%d.%d.%d" % sys.version_info[:3],
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }
    run.outdir.mkdir(parents=True, exist_ok=True)
    _write_json(run.outdir / "manifest.json", manifest)
    if not args.quiet:
        print(f"manifest: {run.outdir / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
