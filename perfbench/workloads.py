"""The three benchmark workloads and their correctness checks.

Every op goes through ``qmemread.cli.main(argv)`` in-process, the way a
user runs the tool.  Inputs come from the workload seed and the op index
alone, so an op with the same (seed, index) has the same inputs in any
process; the traced run relies on this to compare its output bytes with
the untraced run.

An op is split into timed steps (``clock.timed(name)``) and untimed
preparation between them; the check runs after the op, also untimed.
A check returns a list of failure messages and never raises for a wrong
result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

import qmemread.cli
import qmemread.dynamics
import qmemread.wavepacket
from qmemread.counting import (SynthDesign, correlations, probabilities,
                               synthesize_log)
from qmemread.params import ReadoutParams


class OpError(RuntimeError):
    """A CLI command inside an op exited with a non-zero code."""


def op_seed(seed: int, op: int) -> int:
    """Integer seed of op ``op`` under workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


def op_rng(seed: int, op: int) -> np.random.Generator:
    """Generator for the benchmark's own per-op draws (noise, anomalies)."""
    return np.random.default_rng(np.random.SeedSequence([seed, op, 1]))


def run_cli(*argv) -> None:
    """Run one ``qmemread`` command; stdout (``chi`` prints its report) is
    swallowed so terminal speed stays out of the timing."""
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        # attribute lookup at call time, so a traced run sees its wrapper
        code = qmemread.cli.main(argv)
    if code != 0:
        raise OpError(f"qmemread {argv[0]} exited with code {code}")


def digest_outputs(outdir: Path) -> dict:
    """sha256 of every file under ``outdir`` except the run manifests,
    which carry wall-clock timestamps."""
    out = {}
    for p in sorted(outdir.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            out[str(p.relative_to(outdir))] = hashlib.sha256(
                p.read_bytes()).hexdigest()
    return out


class Clock:
    """Times the named steps of one op; a tracer, when given, records spans
    only while a step runs."""

    def __init__(self, op: int, tracer=None):
        self.op = op
        self.tracer = tracer
        self.times = {}

    @contextlib.contextmanager
    def timed(self, name):
        if self.tracer is not None:
            self.tracer.begin(self.op)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.end()
            self.times[name] = self.times.get(name, 0.0) + dt


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
    return path


def _params(**user):
    """ReadoutParams built exactly as the CLI builds them from a config."""
    return ReadoutParams.from_user_units(
        **{"gamma_nat_mhz": 5.2, "tau_ns": 50.0, "i_sat_mw_cm2": 12.0, **user})


def dense_pc(params: ReadoutParams, horizon_us: float, n: int = 4001) -> float:
    """The benchmark's own P_c over [0, horizon]: Simpson on a dense grid of
    the closed-form density, independent of the program's integrators."""
    grid = np.linspace(0.0, horizon_us, n)
    return float(simpson(qmemread.wavepacket.pc_at(grid, params), x=grid))


# ---------------------------------------------------------------------------
# fit_paper: the criterion-6 global fit

PAPER = {"chi": 2.7, "gamma_deph_mhz": 1.55, "scale_f": 4.1}
PAPER_95 = dict(PAPER, delta_mhz=1.7, i_r_mw_cm2=95.0)   # README wavepacket
TRUTH = dict(PAPER, i_sat_mw_cm2=12.0)
_WAVEPACKETS = ((1.7, (32.0, 68.0, 95.0)), (25.7, (52.0, 80.0, 160.0)))
_SAT_GRID = np.array([5, 10, 20, 30, 45, 60, 80, 100, 125, 150, 175, 200.0])
_T_GRID_NS = np.arange(0.0, 161.0, 2.0)
RECOVERY_TOL = 0.05


class FitPaper:
    """One op = one ``qmemread fit`` of all four parameters, cold start,
    on six wavepackets and two saturation curves with 3 % noise."""

    name = "fit_paper"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir / self.name
        self.out = self.dir / "out"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.clean = []   # (dataset block, x, y_true, sigma)
        for dm, irs in _WAVEPACKETS:
            for ir in irs:
                p = _params(delta_mhz=dm, i_r_mw_cm2=ir, **TRUTH)
                y = qmemread.wavepacket.pc_at(_T_GRID_NS * 1e-3, p) / 1e3
                self.clean.append(({"kind": "wavepacket", "delta_mhz": dm,
                                    "i_r_mw_cm2": ir}, _T_GRID_NS, y))
        for dm, _ in _WAVEPACKETS:
            y = np.array([dense_pc(_params(delta_mhz=dm, i_r_mw_cm2=ir,
                                           **TRUTH), 0.160)
                          for ir in _SAT_GRID])
            self.clean.append(({"kind": "saturation", "delta_mhz": dm},
                               _SAT_GRID, y))
        self.clean = [(blk, x, y, 0.03 * np.maximum(y, 0.02 * y.max()))
                      for blk, x, y in self.clean]

    def inputs(self, op: int):
        """Noisy datasets of op ``op``: list of (block, x, y, sigma)."""
        rng = op_rng(self.seed, op)
        return [(blk, x, y + rng.normal(0.0, s), s)
                for blk, x, y, s in self.clean]

    def run(self, op: int, clock: Clock):
        blocks = []
        for i, (blk, x, y, s) in enumerate(self.inputs(op)):
            path = self.dir / f"data{i}.csv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("x,y,sigma\n")
                for row in zip(x.tolist(), y.tolist(), s.tolist()):
                    fh.write("%r,%r,%r\n" % row)
            blocks.append(dict(blk, path=str(path)))
        cfg = _write_json(self.dir / "fit.json", {
            "schema_version": 1, "datasets": blocks,
            "free": ["gamma_deph_mhz", "i_sat_mw_cm2", "chi", "scale_f"]})
        with clock.timed("fit_s"):
            run_cli("fit", "--config", cfg, "--out", self.out, "--quiet")
        return None

    def check(self, op: int, _state) -> tuple[list, dict]:
        try:
            res = json.loads((self.out / "fit_result.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"fit_result.json unreadable: {exc}"], {}
        if not res.get("converged"):
            return [f"fit did not converge: {res.get('message')}"], {}
        values = res["values_user_units"]
        recovered = all(abs(values[k] - v) / v <= RECOVERY_TOL
                        for k, v in TRUTH.items())
        return [], {"recovered": recovered, "n_iter": res["n_iter"]}


# ---------------------------------------------------------------------------
# log_stats: synth a 1e6-trial log, plant anomalies, compute statistics

LOG_DESIGN = dict(n_trials=1_000_000, p1=0.0036, background_per_ns=3e-4)
WINDOW1 = (20, 20)      # herald time of SynthDesign, inclusive
WINDOW2 = (50, 349)     # read window of SynthDesign
ANOMALY_KINDS = ("wrong_field_count", "non_integer", "outside_window",
                 "unknown_channel", "duplicate")
ANOMALIES_PER_KIND = (24, 48)   # inclusive range of the seeded count
STAT_SIGMAS = 5.0


def plant_anomalies(path: Path, rng: np.random.Generator,
                    window_ns: int = 1500) -> dict:
    """Insert a few dozen anomalous lines of each kind at seeded positions
    of a ``trial,channel,t_ns`` log; returns the count of each kind.

    Each anomaly follows a distinct valid data line and borrows its trial
    and time, so it looks like a local corruption of real data.
    """
    data = path.read_bytes()
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10)
    counts = {k: int(rng.integers(ANOMALIES_PER_KIND[0],
                                  ANOMALIES_PER_KIND[1] + 1))
              for k in ANOMALY_KINDS}
    kinds = np.repeat(np.arange(len(ANOMALY_KINDS)),
                      [counts[k] for k in ANOMALY_KINDS])
    rng.shuffle(kinds)
    # line j (j >= 1 skips the header) spans ends[j-1]+1 .. ends[j]
    lines = np.sort(rng.choice(np.arange(1, ends.size), size=kinds.size,
                               replace=False))
    pieces, prev = [], 0
    for j, kind in zip(lines.tolist(), kinds.tolist()):
        stop = int(ends[j]) + 1
        line = data[int(ends[j - 1]) + 1:stop]
        trial, _ch, t = line.decode("ascii").strip().split(",")
        name = ANOMALY_KINDS[kind]
        if name == "wrong_field_count":
            extra = (f"{trial},{_ch}\n" if rng.random() < 0.5
                     else f"{trial},{_ch},{t},0\n")
        elif name == "non_integer":
            extra = f"{trial}.5,{_ch},{t}\n"
        elif name == "outside_window":
            extra = f"{trial},{_ch},{window_ns + int(rng.integers(0, 500))}\n"
        elif name == "unknown_channel":
            extra = f"{trial},F3A,{t}\n"
        else:
            extra = line.decode("ascii")
        pieces += [data[prev:stop], extra.encode("ascii")]
        prev = stop
    pieces.append(data[prev:])
    path.write_bytes(b"".join(pieces))
    return counts


def expected_ingest(planted: dict) -> dict:
    """The ``ingest`` block of stats_summary.json that the plants imply."""
    return {"n_parse_errors": planted["wrong_field_count"]
            + planted["non_integer"] + planted["outside_window"],
            "n_rejected_channel": planted["unknown_channel"],
            "n_duplicates": planted["duplicate"]}


def expected_p1() -> tuple[float, float]:
    """Mean and binomial SE of p1 in the 1 ns herald window: the planted
    herald rate plus background counts landing in that window on either
    field-1 channel."""
    d = SynthDesign(**LOG_DESIGN)
    width = WINDOW1[1] - WINDOW1[0] + 1
    p_bg = 1.0 - math.exp(-2.0 * d.background_per_ns * width)
    p = 1.0 - (1.0 - d.p1) * (1.0 - p_bg)
    return p, math.sqrt(p * (1.0 - p) / d.n_trials)


_SUMMARY_KEYS = ("n_trials", "p1", "p2", "p11", "p22", "p12", "g11", "g22",
                 "g12", "r_cs", "pc_total")


class LogStats:
    """One op = ``qmemread synth`` (1e6 trials, ~1.8M events) then, after
    untimed anomaly planting, ``qmemread stats`` on the same file."""

    name = "log_stats"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.out = self.dir / "out"
        self.synth_cfg = _write_json(self.dir / "synth.json", {
            "schema_version": 1,
            "params": PAPER_95, "intensity": {"i_sat_mw_cm2": 12.0},
            "design": LOG_DESIGN})
        self.stats_cfg = _write_json(self.dir / "stats.json", {
            "schema_version": 1,
            "log_path": str(self.out / "synth_log.csv"),
            "n_trials": LOG_DESIGN["n_trials"],
            "window1_ns": list(WINDOW1), "window2_ns": list(WINDOW2),
            "wavepacket_range_ns": [50, 350]})

    def run(self, op: int, clock: Clock):
        with clock.timed("synth_s"):
            run_cli("synth", "--config", self.synth_cfg, "--out",
                    self.out, "--seed", op_seed(self.seed, op), "--quiet")
        planted = plant_anomalies(self.out / "synth_log.csv",
                                  op_rng(self.seed, op))
        with clock.timed("stats_s"):
            run_cli("stats", "--config", self.stats_cfg, "--out",
                    self.out, "--quiet")
        return planted

    def check(self, op: int, planted) -> tuple[list, dict]:
        try:
            got = json.loads((self.out / "stats_summary.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"stats_summary.json unreadable: {exc}"], {}
        failures = []
        for key, want in expected_ingest(planted).items():
            if got["ingest"][key] != want:
                failures.append(f"ingest.{key} = {got['ingest'][key]}, "
                                f"planted {want}")
        # reference from the same seed without going through ingest
        store = synthesize_log(_params(**PAPER_95), SynthDesign(**LOG_DESIGN),
                               op_seed(self.seed, op))
        if got["ingest"]["n_events"] != len(store):
            failures.append(f"n_events = {got['ingest']['n_events']}, "
                            f"reference {len(store)}")
        ref = correlations(probabilities(store, WINDOW1, WINDOW2)).to_json()
        for key in _SUMMARY_KEYS:
            if got[key] != ref[key]:
                failures.append(f"{key} = {got[key]!r}, reference {ref[key]!r}")
        mean, se = expected_p1()
        if abs(got["p1"] - mean) > STAT_SIGMAS * se:
            failures.append(f"p1 = {got['p1']:.6g}, expected {mean:.6g} "
                            f"+- {STAT_SIGMAS:g} x {se:.2g}")
        return failures, {}


# ---------------------------------------------------------------------------
# model_sweep: the figure sweeps, the ODE cross-check and the chi estimate

_SPEC_PARAMS = {"chi": 2.7, "scale_f": 4.8}
SAT_DELTAS = (1.7, 25.7)
SPEC_DEPH = (1.55, 0.0)
HORIZONS = (160, "inf")
I_GRID = np.linspace(0.0, 200.0, 41)
D_GRID = np.linspace(-40.0, 40.0, 41)
SPEC_I_R = 127.0
ODE_TOL = 1e-6
GEOMETRY = {"n_atoms": 2e6, "waist_m": 1e-4, "length_m": 1e-3,
            "wavenumber_per_m": 1e7}
CHI_SAMPLES = 1_000_000


class ModelSweep:
    """One op = the sweep set (wavepacket trio, four saturation curves,
    four spectra, one ODE cross-check) then one ``qmemread chi``."""

    name = "model_sweep"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir / self.name
        self.out = self.dir / "out"
        self.dir.mkdir(parents=True, exist_ok=True)
        intensity = {"i_sat_mw_cm2": 12.0}
        self.commands = [("wavepacket", "wavepacket", _write_json(
            self.dir / "wavepacket.json", {
                "schema_version": 1, "intensity": intensity,
                "params": dict(PAPER, delta_mhz=1.7),
                "i_r_mw_cm2": [32, 68, 95],
                "window": {"t_start_ns": 0, "t_end_ns": 160, "step_ns": 1}}))]
        for h in HORIZONS:
            for dm in SAT_DELTAS:
                tag = f"sat_d{dm:g}_h{h}"
                self.commands.append(("sweep-intensity", tag, _write_json(
                    self.dir / f"{tag}.json", {
                        "schema_version": 1, "intensity": intensity,
                        "params": dict(PAPER, delta_mhz=dm),
                        "i_r_grid_mw_cm2": I_GRID.tolist(), "horizon_ns": h})))
            for gd in SPEC_DEPH:
                tag = f"spec_g{gd:g}_h{h}"
                self.commands.append(("sweep-detuning", tag, _write_json(
                    self.dir / f"{tag}.json", {
                        "schema_version": 1, "intensity": intensity,
                        "params": dict(_SPEC_PARAMS, delta_mhz=0.0,
                                       gamma_deph_mhz=gd),
                        "i_r_mw_cm2": SPEC_I_R,
                        "delta_grid_mhz": D_GRID.tolist(), "horizon_ns": h})))
        self.chi_cfg = _write_json(self.dir / "chi.json", {
            "schema_version": 1, "geometry": GEOMETRY,
            "n_samples": CHI_SAMPLES})
        self.ode_params = _params(**PAPER_95)
        # reference P_c at the 160 ns horizon, one dense quadrature per point
        self.dense = {}
        for dm in SAT_DELTAS:
            self.dense[f"sat_d{dm:g}_h160"] = np.array([
                dense_pc(_params(delta_mhz=dm, i_r_mw_cm2=ir, **PAPER),
                         0.160) for ir in I_GRID])
        for gd in SPEC_DEPH:
            self.dense[f"spec_g{gd:g}_h160"] = np.array([
                dense_pc(_params(delta_mhz=d, i_r_mw_cm2=SPEC_I_R,
                                 gamma_deph_mhz=gd, **_SPEC_PARAMS), 0.160)
                for d in D_GRID])

    def run(self, op: int, clock: Clock):
        with clock.timed("sweep_s"):
            for command, tag, cfg in self.commands:
                run_cli(command, "--config", cfg, "--out", self.out / tag,
                        "--quiet")
            traj = qmemread.dynamics.evolve(self.ode_params, t_end=0.160)
        with clock.timed("chi_s"):
            run_cli("chi", "--config", self.chi_cfg, "--out",
                    self.out / "chi", "--seed", op_seed(self.seed, op),
                    "--quiet")
        return traj

    def _pc(self, tag, name):
        return np.loadtxt(self.out / tag / name, delimiter=",", skiprows=1)[:, 1]

    def check(self, op: int, traj) -> tuple[list, dict]:
        failures = []
        curves = {}
        try:
            for command, tag, _cfg in self.commands[1:]:
                name = ("sweep_intensity.csv" if command == "sweep-intensity"
                        else "sweep_detuning.csv")
                curves[tag] = self._pc(tag, name)
            chi = json.loads((self.out / "chi" / "chi.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"sweep output unreadable: {exc}"], {}
        for tag, pc in curves.items():
            if tag.startswith("spec"):
                if np.any(np.abs(pc - pc[::-1]) > 1e-10 * np.abs(pc)):
                    failures.append(f"{tag}: not symmetric under D -> -D")
            elif np.any(np.diff(pc) < 0):
                failures.append(f"{tag}: saturation curve not monotone")
            if tag.endswith("_h160"):
                inf = curves[tag[:-4] + "hinf"]
                if np.any(pc > inf * (1.0 + 1e-9)):
                    failures.append(f"{tag}: P_c(160 ns) > P_c(inf)")
                ref = self.dense[tag]
                if np.any(np.abs(pc - ref) > 1e-6 * np.abs(ref) + 1e-15):
                    failures.append(f"{tag}: P_c differs from dense "
                                    "quadrature by more than 1e-6")
        # the integrated frame rotates by exp(i Delta t); Delta > 0 here
        p = self.ode_params
        rotated = (qmemread.dynamics.reconstruct_B(traj)
                   * np.exp(-1j * p.delta * traj.t))
        ref_b = qmemread.wavepacket.amplitude_B(traj.t, p)
        if np.max(np.abs(rotated - ref_b)) > ODE_TOL * np.max(np.abs(ref_b)):
            failures.append("ODE amplitude differs from the closed form")
        mc, qd = chi["monte_carlo"], chi["quadrature"]
        if abs(mc["chi"] - qd["chi"]) > STAT_SIGMAS * mc["standard_error"]:
            failures.append(f"chi MC {mc['chi']:.4g} +- {mc['standard_error']:.2g}"
                            f" vs quadrature {qd['chi']:.4g}")
        return failures, {"chi_rel_se": mc["standard_error"] / (qd["chi"] - 1.0)}


WORKLOADS = {w.name: w for w in (FitPaper, LogStats, ModelSweep)}
