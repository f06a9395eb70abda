"""qmemread benchmark: one seeded workload per run, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload fit_paper --seed 1 --seconds 20 --trace 0

Each op starts after the previous one completes and goes through
``qmemread.cli.main`` in-process.  BLAS/OpenMP threads are pinned to 1.
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the same ops run
once untraced and once in a child process with every layer function
wrapped, and the metrics are the per-layer ones.  Everything the run
measures (ungated fields, environment, import breakdown, per-op records)
is also written to ``.perfbench_out/`` under the repository root.
"""

from __future__ import annotations

import os

# single-threaded baseline; must precede the first numpy import
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (no qmemread import; the sources load in main)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("fit_paper", "log_stats", "model_sweep")
SETUP_SPAWNS = 7
CAL_SHARE = 0.08
IMPORTTIME_SPAWNS = 3
CHILD_TIMEOUT_S = 170.0

# end-to-end metrics gated in BENCHMARK.json, and their units; op_cal is
# op wall time over the calibration kernel's (see calibration.py)
END_TO_END = {"op_cal": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# the workload's own named metrics, reported ungated next to them
NAMED = {"fit_paper": {"fit_p50_s": "fit_s"},
         "log_stats": {"synth_s": "synth_s", "stats_s": "stats_s"},
         "model_sweep": {"sweep_s": "sweep_s", "chi_s": "chi_s"}}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def measure_setup(n=SETUP_SPAWNS):
    """Wall seconds from spawning a fresh interpreter to ``import
    qmemread.cli`` done, one spawn at a time."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        # no timeout: wait() with one polls in steps of up to 50 ms
        code = subprocess.Popen([sys.executable, "-c", "import qmemread.cli"],
                                env=_child_env()).wait()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"import qmemread.cli exited with code {code}")
    return times


def measure_imports(n=IMPORTTIME_SPAWNS):
    """Median cumulative import seconds per qmemread module."""
    runs = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qmemread.cli"],
            env=_child_env(), check=True, timeout=60, capture_output=True,
            text=True)
        runs.append(tracing.parse_importtime(proc.stderr))
    return {name: statistics.median(r.get(name, 0.0) for r in runs)
            for name in runs[0]}


def environment(args, n_ops):
    import numpy
    import scipy
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": _git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "ops_per_run": n_ops,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "loop": "closed, 1 caller"}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_op(workload, op, tracer=None):
    """One op and its untimed, untraced check; never raises."""
    from workloads import Clock, digest_outputs
    clock = Clock(op, tracer)
    rec = {"op": op, "failures": [], "extra": {}}
    try:
        state = workload.run(op, clock)
    except Exception as exc:
        rec["failures"].append(f"raised {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    else:
        rec["digest"] = digest_outputs(workload.out)
        try:
            failures, extra = workload.check(op, state)
        except Exception as exc:
            failures, extra = [f"check raised {type(exc).__name__}: {exc}"], {}
        rec["failures"] += failures
        rec["extra"] = extra
    rec["times"] = clock.times
    rec["op_s"] = sum(clock.times.values())
    for msg in rec["failures"]:
        print(f"op {op} FAILED: {msg}", file=sys.stderr)
    return rec


def calibration_passes(warm_op_s):
    """Kernel passes per calibration, so that calibrating takes about
    CAL_SHARE of an op: long ops get a longer, less noisy calibration."""
    from calibration import calibrate
    calibrate()                     # first pass pays page faults
    return max(1, round(CAL_SHARE * warm_op_s / calibrate()))


def run_loop(workload, first_op, seconds=None, n_ops=None, tracer=None,
             cal_passes=1):
    """Closed loop over ops ``first_op, first_op + 1, ...`` for about
    ``seconds`` of wall time (ops, checks and calibrations), or for exactly
    ``n_ops`` ops.  A timed loop starts a new op only if half a typical op
    still fits, so the run ends near ``seconds`` on average instead of
    overrunning.  The calibration kernel runs before the first op and after
    every op; each op is divided by the mean of the two around it."""
    from calibration import calibrate
    records, cycles = [], []
    t_end = time.perf_counter() + (seconds or 0.0)
    calibrate()                     # first pass pays page faults
    cal = calibrate(cal_passes)
    while (len(records) < n_ops) if n_ops is not None else (
            not records or time.perf_counter()
            + statistics.median(cycles) / 2 < t_end):
        t0 = time.perf_counter()
        rec = run_op(workload, first_op + len(records), tracer)
        after = calibrate(cal_passes)
        rec["cal_s"] = (cal + after) / 2
        rec["op_cal"] = rec["op_s"] / rec["cal_s"]
        cal = after
        records.append(rec)
        cycles.append(time.perf_counter() - t0)
    return records


def spread_fields(values):
    """Median, sample count and the highest percentile with at least ten
    samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99.9, 99.0, 90.0, 75.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out[f"p{pct:g}"] = cuts[int(round(pct * 10)) - 1]
            break
    return out


def summarize(name, records):
    """End-to-end metrics and the ungated named fields of one run."""
    ok = [r for r in records if not r["failures"]]
    timed = ok or records
    fields = {"op_cal": spread_fields([r["op_cal"] for r in timed]),
              "op_s": spread_fields([r["op_s"] for r in timed]),
              "cal_s": spread_fields([r["cal_s"] for r in timed])}
    for label, step in NAMED[name].items():
        fields[label] = spread_fields([r["times"].get(step, 0.0) for r in timed])
    if name == "fit_paper":
        fields["recovered_frac"] = (
            sum(1 for r in ok if r["extra"].get("recovered")) / len(records))
    if name == "model_sweep":
        rel = [r["extra"]["chi_rel_se"] for r in ok if "chi_rel_se" in r["extra"]]
        fields["chi_rel_se"] = statistics.median(rel) if rel else None
    fields["fail_frac"] = (len(records) - len(ok)) / len(records)
    return fields


def traced_child(args):
    """Child process of a ``--trace 1`` run: warm up, then run ops
    1..N with every layer function wrapped; spans go to a file."""
    import qmemread.cli  # noqa: F401  (load every layer before wrapping)
    from workloads import WORKLOADS
    workdir = Path(args.child_out).parent / "work-traced"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    run_op(workload, 0)
    tracer = tracing.Tracer()
    absent = tracer.install()
    records = run_loop(workload, 1, n_ops=args.traced_child, tracer=tracer)
    tracer.uninstall()
    with open(args.child_out, "w", encoding="utf-8") as fh:
        json.dump({"absent": absent, "records": records}, fh)
        fh.write("\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def traced_run(args, records, workdir):
    """Per-layer metrics: re-run the untraced ops in a traced child."""
    n = len(records)
    child_out = workdir / "spans.jsonl"
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1",
           "--traced-child", str(n), "--child-out", str(child_out)]
    subprocess.run(cmd, env=dict(os.environ), check=True,
                   timeout=CHILD_TIMEOUT_S)
    with open(child_out, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    traced = head["records"]
    metrics = tracing.layer_metrics(spans, n)
    mismatched = [t["op"] for u, t in zip(records, traced)
                  if t["failures"] or t.get("digest") != u.get("digest")]
    # compared at the host speed of the untraced ops, so that drift between
    # the two processes does not read as overhead
    metrics["trace.overhead_s"] = (
        statistics.median(t["op_cal"] for t in traced)
        - statistics.median(u["op_cal"] for u in records)) * statistics.median(
            u["cal_s"] for u in records)
    imports = measure_imports()
    for mod in tracing.MODULES:
        key = "qmemread" if mod == "qmemread" else f"qmemread.{mod}"
        metrics[f"import.{key}.s"] = imports.get(key, 0.0)
    extras = {"absent": head["absent"], "traced_ops": len(traced),
              "spans": len(spans), "output_mismatch_ops": mismatched,
              "importtime_s": imports}
    return ({n: metrics[n] for n in tracing.PER_LAYER_NAMES}, extras, traced,
            mismatched)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced-child", type=int, default=None,
                    help=argparse.SUPPRESS)
    ap.add_argument("--child-out", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "qmemread" / "__init__.py").is_file():
        print(f"perfbench: no qmemread sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import qmemread
    if Path(qmemread.__file__).resolve().parent != SRC / "qmemread":
        print(f"perfbench: imported qmemread from {qmemread.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.traced_child is not None:
        return traced_child(args)

    from workloads import WORKLOADS
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return _measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload_cls, workdir):
    import qmemread.cli  # noqa: F401  (warm the bytecode cache first)
    t0 = time.perf_counter()
    setup = measure_setup() if not args.trace else []
    workload = workload_cls(args.seed, workdir)
    warm = run_op(workload, 0)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = calibration_passes(warm["op_s"])
    records = run_loop(workload, 1, seconds=budget, cal_passes=passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fields = summarize(workload_cls.name, records)
    attempted = len(records) + 1
    failed = sum(1 for r in records + [warm] if r["failures"])
    result = {"workload": workload_cls.name, "trace": args.trace,
              "warmup_s": warm["op_s"], "calibration_passes": passes,
              "env": environment(args, len(records))}

    if args.trace:
        metrics, extras, traced, mismatched = traced_run(
            args, records, workdir)
        attempted += len(traced)
        failed += len(mismatched)
        result.update(extras)
        units = {n: tracing.per_layer_unit(n) for n in metrics}
    else:
        metrics = {"op_cal": fields["op_cal"]["median"],
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
        result.update(setup_spawns_s=setup)
    result.update(fields=fields, records=records, warmup=warm,
                  wall_s=time.perf_counter() - t0)
    out_path = OUT / f"{workload_cls.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, default=str) + "\n")

    print(f"perfbench {workload_cls.name} seed={args.seed} trace={args.trace}: "
          f"{len(records)} timed ops + 1 warm-up "
          f"({result['warmup_s']:.4f} s), wall {result['wall_s']:.1f} s")
    env = result["env"]
    print(f"  env: nproc {env['nproc']}, {env['cpu_model']}, Python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"commit {env['git_commit']}, BLAS threads 1")
    for label, val in fields.items():
        print(f"  {label:<16} {json.dumps(val)}")
    if args.trace:
        print(f"  tracing overhead {metrics['trace.overhead_s']:+.4f} s per op; "
              f"outputs identical: {not mismatched}; absent: {result['absent']}")
    print(f"  details: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
