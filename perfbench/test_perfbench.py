"""Self-tests of the benchmark harness (not of qmemread).

Run from the repository root:  python3 -m pytest perfbench -q
"""

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import qmemread.wavepacket  # noqa: E402
from qmemread.counting import SynthDesign, ingest, synthesize_log, write_log  # noqa: E402
from run import run_loop, summarize  # noqa: E402
from tracing import PER_LAYER_NAMES, Tracer, layer_metrics  # noqa: E402
from workloads import (FitPaper, expected_ingest, op_rng, op_seed,  # noqa: E402
                       plant_anomalies, _params, PAPER_95)


def test_seeded_inputs_are_deterministic(tmp_path):
    a = FitPaper(3, tmp_path / "a")
    b = FitPaper(3, tmp_path / "b")
    same = [y for _blk, _x, y, _s in a.inputs(1)]
    again = [y for _blk, _x, y, _s in b.inputs(1)]
    assert all(np.array_equal(u, v) for u, v in zip(same, again))
    other_op = [y for _blk, _x, y, _s in a.inputs(2)]
    other_seed = [y for _blk, _x, y, _s in FitPaper(4, tmp_path / "c").inputs(1)]
    assert not np.array_equal(same[0], other_op[0])
    assert not np.array_equal(same[0], other_seed[0])
    assert op_seed(3, 1) == op_seed(3, 1) != op_seed(3, 2)


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    design = SynthDesign(n_trials=20_000, p1=0.05, background_per_ns=3e-4)
    store = synthesize_log(_params(**PAPER_95), design, seed=11)
    path = tmp_path_factory.mktemp("log") / "log.csv"
    write_log(store, path)
    return path, store


def test_planted_anomalies_are_counted_exactly(small_log, tmp_path):
    src, store = small_log
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    shutil.copy(src, first)
    shutil.copy(src, second)
    planted = plant_anomalies(first, op_rng(5, 1))
    assert plant_anomalies(second, op_rng(5, 1)) == planted
    assert first.read_bytes() == second.read_bytes()
    assert all(24 <= n <= 48 for n in planted.values())

    with pytest.warns(UserWarning, match="duplicate"):
        got = ingest(first, n_trials=20_000)
    want = expected_ingest(planted)
    assert len(got.parse_errors) == want["n_parse_errors"]
    assert got.n_rejected_channel == want["n_rejected_channel"]
    assert got.n_duplicates == want["n_duplicates"]
    assert len(got) == len(store)
    assert np.array_equal(got.t_ns, store.t_ns)


class _Flaky:
    """Op 2 fails its check and op 3 raises; the loop must go on."""

    name = "fit_paper"

    def __init__(self, out):
        self.out = out

    def run(self, op, clock):
        with clock.timed("fit_s"):
            if op == 3:
                raise RuntimeError("boom")
        return op

    def check(self, op, state):
        return (["wrong"] if op == 2 else []), {"recovered": True}


def test_check_failure_raises_fail_frac_without_aborting(tmp_path):
    records = run_loop(_Flaky(tmp_path), 1, n_ops=4)
    assert [r["op"] for r in records] == [1, 2, 3, 4]
    assert [bool(r["failures"]) for r in records] == [False, True, True, False]
    fields = summarize("fit_paper", records)
    assert fields["fail_frac"] == 0.5
    assert fields["recovered_frac"] == 0.5


def test_op_cal_divides_by_the_calibrations_around_the_op(tmp_path,
                                                          monkeypatch):
    import calibration
    # warm-up pass, before op 1, after op 1, after op 2
    seconds = iter([9.0, 1.0, 3.0, 5.0])
    monkeypatch.setattr(calibration, "calibrate",
                        lambda passes=1: next(seconds))
    records = run_loop(_Flaky(tmp_path), 1, n_ops=2)
    assert [r["cal_s"] for r in records] == [2.0, 4.0]
    assert [r["op_cal"] for r in records] == [records[0]["op_s"] / 2.0,
                                              records[1]["op_s"] / 4.0]
    fields = summarize("fit_paper", records)     # op 2 fails its check
    assert fields["op_cal"] == {"median": records[0]["op_cal"], "n": 1}


def test_calibration_kernel_is_timed():
    import calibration
    assert 0.0 < calibration.calibrate() < 10.0
    assert 0.0 < calibration.calibrate(passes=2) < 10.0


def test_missing_layer_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(qmemread.wavepacket, "pc_integral_fixed")
    tracer = Tracer()
    try:
        absent = tracer.install()
        assert absent == ["wavepacket.pc_integral_fixed"]
        tracer.begin(1)
        qmemread.wavepacket.pc_curve(_params(**PAPER_95))
        tracer.end()
    finally:
        tracer.uninstall()
    assert not hasattr(qmemread.wavepacket.pc_curve, "__wrapped__")
    names = [s[1] for s in tracer.spans]
    assert names.count("wavepacket.pc_curve") == 1
    assert "wavepacket.pc_at" in names
    metrics = layer_metrics(tracer.spans, 1)
    assert metrics["wavepacket.pc_integral_fixed.calls_per_op"] == 0.0
    assert metrics["wavepacket.pc_at.calls_per_op"] == 1.0
    assert set(metrics) | {n for n in PER_LAYER_NAMES
                           if n.startswith(("import.", "trace."))} \
        == set(PER_LAYER_NAMES)


def test_self_time_subtracts_child_spans():
    spans = [(0, "cli.main", None, 1, 0.0, 10.0, {"command": "fit"}),
             (1, "fitting.fit", 0, 1, 2.0, 5.0, None),
             (2, "fitting.residuals", 1, 1, 3.0, 4.0, None),
             (3, "counting.ingest", 0, 1, 6.0, 7.0, None)]
    metrics = layer_metrics(spans, 1)
    assert metrics["cli.fit.self_s"] == 6.0
    assert metrics["fitting.fit.s"] == 3.0
    assert metrics["fitting.residuals.calls_per_fit"] == 1.0
