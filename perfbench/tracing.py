"""Span tracing of the qmemread layers, installed from outside the program.

``Tracer.install`` wraps the public module-level functions of each layer
module and rebinds every name under which a ``qmemread`` module holds the
original, so callers that look a function up in their own globals (for
example ``fitting`` calling ``pc_at``) reach the wrapper.  Spans are kept in
memory as (id, name, parent id, op, start, end, attrs) and recorded only
while an op step is running, so input generation and checks stay out.

``layer_metrics`` turns a list of spans into the per-layer metrics named in
``PER_LAYER``; a layer a workload never reaches reads 0.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

# layer module -> functions wrapped there.  None means every public
# module-level function; ``params`` is O(1) unit conversion and counts
# toward its callers' self time.
LAYERS = {"cli": ("main",), "fitting": None, "wavepacket": None,
          "counting": None, "collective": None, "dynamics": None}

# functions the per-layer metrics read; one that no longer exists is
# reported as absent instead of failing the run
REQUIRED = ("cli.main", "fitting.fit", "fitting.residuals",
            "fitting.model_eval", "wavepacket.pc_integral_fixed",
            "wavepacket.integrate_Pc", "wavepacket.saturation_curve",
            "wavepacket.detuning_spectrum", "wavepacket.pc_curve",
            "wavepacket.pc_at", "wavepacket.alpha_pair",
            "counting.synthesize_log", "counting.write_log", "counting.ingest",
            "counting.probabilities", "counting.correlations",
            "counting.conditional_wavepacket", "collective.chi_monte_carlo",
            "collective.chi_quadrature", "collective.chi_closed_form",
            "dynamics.evolve")

CLI_COMMANDS = ("fit", "synth", "stats", "wavepacket", "sweep-intensity",
                "sweep-detuning", "chi")
MODULES = ("qmemread", "params", "wavepacket", "dynamics", "collective",
           "counting", "fitting", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _size(path):
    try:
        return os.path.getsize(path)
    except (TypeError, OSError):
        return 0


# span attributes read from a call's arguments and result
PROBES = {
    "cli.main": lambda a, k, r: {"command": (_arg(a, k, 0, "argv") or ["?"])[0]},
    "fitting.fit": lambda a, k, r: {"n_iter": r.n_iter,
                                    "accepted": len(r.cost_history) - 1},
    "fitting.model_eval": lambda a, k, r: {"kind": _arg(a, k, 1, "dataset").kind},
    "wavepacket.pc_at": lambda a, k, r: {
        "points": int(getattr(_arg(a, k, 0, "t"), "size", 1))},
    "counting.write_log": lambda a, k, r: {"bytes": _size(_arg(a, k, 1, "path"))},
    "counting.ingest": lambda a, k, r: {
        "bytes": _size(_arg(a, k, 0, "source")), "events": len(r),
        "parse_errors": len(r.parse_errors),
        "unknown_channel": r.n_rejected_channel,
        "duplicates": r.n_duplicates},
    "collective.chi_monte_carlo": lambda a, k, r: {
        "samples": int(_arg(a, k, 1, "n_samples"))},
}


class Tracer:
    """In-memory span recorder over wrapped qmemread functions."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self.op = None
        self._stack = []
        self._next = 0
        self._undo = []

    def begin(self, op):
        self.op = op

    def end(self):
        self.op = None

    def install(self):
        """Wrap the layer functions; returns the names found absent."""
        targets = {}
        for layer, names in LAYERS.items():
            mod = sys.modules.get(f"qmemread.{layer}")
            if mod is None:
                self.absent.append(f"qmemread.{layer}")
                continue
            if names is None:
                names = [n for n, f in vars(mod).items()
                         if not n.startswith("_") and inspect.isfunction(f)
                         and f.__module__ == mod.__name__]
            for n in names:
                fn = getattr(mod, n, None)
                if inspect.isfunction(fn):
                    targets[fn] = f"{layer}.{n}"
        found = set(targets.values())
        self.absent += [r for r in REQUIRED if r not in found]
        owners = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "qmemread"
                                        or name.startswith("qmemread."))]
        for fn, name in targets.items():
            wrapper = self._wrap(name, fn, PROBES.get(name))
            for mod in owners:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, fn))
        return self.absent

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _wrap(self, name, fn, probe):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                t1 = clock()
                tracer._stack.pop()
                tracer.spans.append((sid, name, parent, tracer.op, t0, t1,
                                     {"error": type(exc).__name__}))
                raise
            t1 = clock()
            tracer._stack.pop()
            attrs = probe(args, kwargs, result) if probe else None
            tracer.spans.append((sid, name, parent, tracer.op, t0, t1, attrs))
            return result

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics

def _per_layer_names():
    names = [f"cli.{c}.self_s" for c in CLI_COMMANDS]
    names += ["fitting.fit.s", "fitting.fit.n_iter",
              "fitting.residuals.calls_per_fit", "fitting.residuals.ms",
              "fitting.model_eval.wavepacket.ms",
              "fitting.model_eval.saturation.ms",
              "fitting.model_eval.wavepacket.calls_per_fit",
              "fitting.model_eval.saturation.calls_per_fit",
              "fitting.accept_ratio",
              "wavepacket.pc_integral_fixed.calls_per_op",
              "wavepacket.pc_integral_fixed.us",
              "wavepacket.integrate_Pc.calls_per_op",
              "wavepacket.integrate_Pc.us", "wavepacket.integrate_Pc.errors",
              "wavepacket.saturation_curve.s",
              "wavepacket.detuning_spectrum.s", "wavepacket.pc_curve.s",
              "wavepacket.pc_at.calls_per_op",
              "wavepacket.pc_at.points_per_op",
              "wavepacket.pc_at.ns_per_point",
              "wavepacket.alpha_pair.calls_per_op",
              "counting.synthesize_log.s", "counting.write_log.s",
              "counting.write_log.mb_per_s", "counting.ingest.s",
              "counting.ingest.events_per_s", "counting.ingest.mb_per_s",
              "counting.ingest.rejects.parse_errors",
              "counting.ingest.rejects.unknown_channel",
              "counting.ingest.rejects.duplicates",
              "counting.probabilities.s", "counting.correlations.s",
              "counting.conditional_wavepacket.s",
              "collective.chi_monte_carlo.s",
              "collective.chi_monte_carlo.samples_per_s",
              "collective.chi_quadrature.s", "collective.chi_closed_form.s",
              "dynamics.evolve.s", "dynamics.evolve.calls_per_op"]
    names += [f"import.qmemread.{m}.s" if m != "qmemread" else "import.qmemread.s"
              for m in MODULES]
    names += ["trace.overhead_s"]
    return names


PER_LAYER_NAMES = _per_layer_names()


def per_layer_unit(name):
    """Unit of a per-layer metric, from its suffix."""
    for suffix, unit in (("mb_per_s", "MB/s"), ("events_per_s", "1/s"),
                         ("samples_per_s", "1/s"), (".ms", "ms"),
                         (".us", "us"), (".s", "s"), ("_s", "s"),
                         ("ns_per_point", "ns"), ("accept_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(spans, n_ops):
    """Per-layer metrics from spans of ``n_ops`` traced ops (timings in the
    unit the name says; 0 where the workload never reached the function)."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    parent_of = {}
    for sid, name, parent, _op, t0, t1, attrs in spans:
        by_name[name].append((sid, t1 - t0, attrs or {}))
        parent_of[sid] = (parent, name)
        if parent is not None:
            child_time[parent] += t1 - t0

    def durations(name):
        return [d for _sid, d, _a in by_name[name]]

    def total(name):
        return sum(durations(name))

    def count(name):
        return len(by_name[name])

    def ancestor(sid, name):
        parent = parent_of[sid][0]
        while parent is not None:
            up, pname = parent_of[parent]
            if pname == name:
                return parent
            parent = up
        return None

    def per_fit(name, keep=lambda attrs: True):
        """Median over fits of calls to ``name`` made inside one fit."""
        per = {sid: 0 for sid, _d, _a in by_name["fitting.fit"]}
        for sid, _d, attrs in by_name[name]:
            fit_id = ancestor(sid, "fitting.fit")
            if fit_id in per and keep(attrs):
                per[fit_id] += 1
        return _median(list(per.values()))

    m = {}
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = _median(
            [d - child_time[sid] for sid, d, a in by_name["cli.main"]
             if a.get("command") == cmd])
    fits = by_name["fitting.fit"]
    m["fitting.fit.s"] = _median(durations("fitting.fit"))
    m["fitting.fit.n_iter"] = _median([a["n_iter"] for _s, _d, a in fits
                                       if "n_iter" in a])
    m["fitting.residuals.calls_per_fit"] = per_fit("fitting.residuals")
    m["fitting.residuals.ms"] = 1e3 * _ratio(total("fitting.residuals"),
                                             count("fitting.residuals"))
    for kind in ("wavepacket", "saturation"):
        ds = [d for _s, d, a in by_name["fitting.model_eval"]
              if a.get("kind") == kind]
        m[f"fitting.model_eval.{kind}.ms"] = 1e3 * _ratio(sum(ds), len(ds))
        m[f"fitting.model_eval.{kind}.calls_per_fit"] = per_fit(
            "fitting.model_eval", lambda a, kind=kind: a.get("kind") == kind)
    m["fitting.accept_ratio"] = _ratio(
        sum(a.get("accepted", 0) for _s, _d, a in fits),
        sum(1 for sid, _d, _a in by_name["fitting.residuals"]
            if ancestor(sid, "fitting.fit") is not None))

    for fn in ("pc_integral_fixed", "integrate_Pc"):
        name = f"wavepacket.{fn}"
        m[f"{name}.calls_per_op"] = _ratio(count(name), n_ops)
        m[f"{name}.us"] = 1e6 * _ratio(total(name), count(name))
    m["wavepacket.integrate_Pc.errors"] = float(sum(
        1 for _s, _d, a in by_name["wavepacket.integrate_Pc"] if "error" in a))
    for fn in ("saturation_curve", "detuning_spectrum", "pc_curve"):
        m[f"wavepacket.{fn}.s"] = _median(durations(f"wavepacket.{fn}"))
    points = sum(a.get("points", 0) for _s, _d, a in by_name["wavepacket.pc_at"])
    m["wavepacket.pc_at.calls_per_op"] = _ratio(count("wavepacket.pc_at"), n_ops)
    m["wavepacket.pc_at.points_per_op"] = _ratio(points, n_ops)
    m["wavepacket.pc_at.ns_per_point"] = 1e9 * _ratio(total("wavepacket.pc_at"),
                                                      points)
    m["wavepacket.alpha_pair.calls_per_op"] = _ratio(
        count("wavepacket.alpha_pair"), n_ops)

    for fn in ("synthesize_log", "write_log", "ingest", "probabilities",
               "correlations", "conditional_wavepacket"):
        m[f"counting.{fn}.s"] = _median(durations(f"counting.{fn}"))
    m["counting.write_log.mb_per_s"] = _median(
        [a["bytes"] / 1e6 / d for _s, d, a in by_name["counting.write_log"]
         if d > 0 and "bytes" in a])
    ingests = [(d, a) for _s, d, a in by_name["counting.ingest"] if "events" in a]
    m["counting.ingest.events_per_s"] = _median(
        [a["events"] / d for d, a in ingests if d > 0])
    m["counting.ingest.mb_per_s"] = _median(
        [a["bytes"] / 1e6 / d for d, a in ingests if d > 0])
    for reason in ("parse_errors", "unknown_channel", "duplicates"):
        m[f"counting.ingest.rejects.{reason}"] = _median(
            [a[reason] for _d, a in ingests])

    for fn in ("chi_monte_carlo", "chi_quadrature", "chi_closed_form"):
        m[f"collective.{fn}.s"] = _median(durations(f"collective.{fn}"))
    m["collective.chi_monte_carlo.samples_per_s"] = _median(
        [a["samples"] / d for _s, d, a in by_name["collective.chi_monte_carlo"]
         if d > 0 and "samples" in a])
    m["dynamics.evolve.s"] = _median(durations("dynamics.evolve"))
    m["dynamics.evolve.calls_per_op"] = _ratio(count("dynamics.evolve"), n_ops)
    return m


def parse_importtime(stderr_text):
    """Cumulative import seconds of each qmemread module from the output of
    ``python -X importtime``."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) != 3 or not parts[1].isdigit():
            continue
        name = parts[2]
        if name == "qmemread" or name.startswith("qmemread."):
            out[name] = int(parts[1]) * 1e-6
    return out
