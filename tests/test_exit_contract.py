"""The CLI's exit contract, generated from ``cli.TABLES``: a config of
``wavepacket``, ``sweep-intensity``, ``sweep-detuning`` or ``stats``
exits 0 with finite output numbers, or exits 2 naming a key path of its
table and leaving no output.  Exit 1 would mean a defect.

The configs are drawn by walking each command's table: every number key
draws a finite float (0, negatives, subnormals and 1e+-300 included), a
list key a list of them, a horizon a number or "inf", an integer key a
count (0, -1, 2**63, 2**63 + 1, 1e150 + 1, 1e200 and a 400-digit integer
included) and a window a pair of them; required keys are sometimes
dropped and unknown keys sometimes added.  ``stats`` reads a small drawn
log.
"""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from qmemread import cli
from qmemread.counting import CHANNELS

COMMANDS = ("wavepacket", "sweep-intensity", "sweep-detuning")
LOG = "log.csv"     # the log_path of a stats config, in its run directory

# small whole numbers, in 12 draws of 14, make valid configs common; the
# rest reach every edge
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
          -1e-300, 1e300, -1e300, 1e155, -1e155, 1e20, 1.7, -95.0,
          1.7976931348623157e308]
_number = st.sampled_from(["small"] * 12 + ["edge", "any"]).flatmap(
    lambda pick: {"small": st.integers(1, 200).map(float),
                  "edge": st.sampled_from(_EDGES),
                  "any": st.floats(allow_nan=False,
                                   allow_infinity=False)}[pick])
# counts: small ones keep the log's events in the windows; the edges pass
# int64, the float range and int()'s decimal digit limit on the way
_INT_EDGES = [0, -1, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 10 ** 6,
              1e12, 10 ** 150, 10 ** 150 + 1, 1e200, 10 ** 399 + 7]
_int = st.sampled_from(["small"] * 6 + ["edge"]).flatmap(
    lambda pick: {"small": st.integers(1, 2000),
                  "edge": st.sampled_from(_INT_EDGES)}[pick])
_VALUES = {cli._number: _number,
           cli._numbers: st.sampled_from([4] * 9 + [0]).flatmap(
               lambda n: st.lists(_number, min_size=min(n, 1), max_size=n)),
           cli._horizon: st.one_of(st.just("inf"), _number),
           cli._version: st.sampled_from([1] * 9 + [2]),
           cli._int: _int,
           # mostly windows that hold the log's heralds or emissions
           cli._window: st.sampled_from(["log"] * 3 + ["drawn"]).flatmap(
               lambda pick: {"log": st.sampled_from([[20, 20], [0, 49],
                                                     [50, 349], [0, 1499]]),
                             "drawn": st.tuples(_int, _int).map(sorted)}[pick]),
           cli._string: st.just(LOG)}
# a log of a few trials: field-1 heralds at 20 ns, field-2 counts in the
# read window, and counts anywhere on any channel
_log = st.lists(st.one_of(
    st.tuples(st.just(20), st.sampled_from(CHANNELS[:2])),
    st.tuples(st.integers(50, 349), st.sampled_from(CHANNELS[2:])),
    st.tuples(st.integers(0, 400), st.sampled_from(CHANNELS))).flatmap(
        lambda event: st.tuples(st.integers(0, 5), st.just(event))),
    min_size=1, max_size=12).map(lambda rows: "trial,channel,t_ns\n" + "".join(
        f"{trial},{channel},{t}\n" for trial, (t, channel) in rows))


def _block(table):
    """A strategy of JSON objects for ``table``: each key present or not
    (a required one mostly present), plus sometimes an unknown key."""
    fields = {}
    for key, (kind, default) in table.items():
        value = _block(kind) if isinstance(kind, dict) else _VALUES[kind]
        keep = st.booleans() if default is not cli.REQUIRED else \
            st.sampled_from([True] * 19 + [False])
        fields[key] = st.tuples(keep, value)
    extra = st.sampled_from([{}] * 19 + [{"unknown_key": 1.0}])
    return st.builds(lambda picked, more: {
        **{k: v for k, (kept, v) in picked.items() if kept}, **more},
        st.fixed_dictionaries(fields), extra)


def _is_path(table, path):
    """Whether ``path`` (``config``, ``params.chi``, ``i_r_mw_cm2[2]``)
    names the config or a key of ``table``, at any depth."""
    if path == "config":
        return True
    for part in re.sub(r"\[\d+\]", "", path).split("."):
        if not isinstance(table, dict) or part not in table:
            return False
        table = table[part][0]
    return True


def _run(command, config, log=None):
    """(exit code, stderr, {output name: text}) of ``command`` on
    ``config``, run in this process into a fresh directory, which holds
    ``log`` as the file its ``log_path`` names."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        if "log_path" in config:
            (Path(tmp) / LOG).write_text(log)
            config = dict(config, log_path=str(Path(tmp) / LOG))
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg), "--out", str(out),
                             "--quiet"])
        files = ({p.name: p.read_text() for p in out.iterdir()}
                 if out.exists() else None)
    return code, err.getvalue(), files


def _assert_exit_2_names_a_key(table, err, files):
    assert files is None
    message = err.removeprefix("validation error: ")
    assert message != err and _is_path(table, message.split(": ")[0]), err


def _csv_rows(files):
    """(header, rows) of each CSV output."""
    for name, text in files.items():
        if name.endswith(".csv"):
            header, *rows = csv.reader(io.StringIO(text))
            yield header, rows


@settings(max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from(COMMANDS))
def test_exit_0_with_finite_csv_or_2_naming_a_key(data, command):
    table = cli.TABLES[command]
    config = data.draw(_block(table))
    code, err, files = _run(command, config)
    assert code in (0, 2), err
    if code == 2:
        _assert_exit_2_names_a_key(table, err, files)
        return
    csvs = list(_csv_rows(files))
    assert csvs
    for header, rows in csvs:
        assert rows and all(math.isfinite(float(v)) for row in rows
                            for v in row), header


def _json_numbers(value):
    """Every number in a parsed JSON value; null and booleans are none."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _json_numbers(v)]
    return [value] if type(value) in (int, float) else []


_STATS = {"log_path": LOG, "window1_ns": [20, 20], "window2_ns": [50, 349]}
_STATS_LOG = "trial,channel,t_ns\n0,F1A,20\n0,F2A,60\n1,F1B,20\n"
# every probability 1 or 2 trials in n_trials: the smallest ratios
_PAIRS_LOG = ("trial,channel,t_ns\n0,F1A,20\n0,F1B,20\n0,F2A,60\n0,F2B,60\n"
              "1,F1A,20\n1,F2B,70\n")


@settings(max_examples=200, deadline=None)
@given(config=_block(cli.TABLES["stats"]), log=_log)
@example(config=dict(_STATS, n_trials=1e200), log=_STATS_LOG)
@example(config=dict(_STATS, n_trials=10 ** 399 + 7), log=_STATS_LOG)
@example(config=dict(_STATS, n_trials=10 ** 150), log=_STATS_LOG)
@example(config=dict(_STATS, n_trials=10 ** 150), log=_PAIRS_LOG)
@example(config=dict(_STATS, n_trials=10 ** 150 + 1), log=_PAIRS_LOG)
@example(config=dict(_STATS, trial_window_ns=2 ** 63, bin_width_ns=2 ** 63),
         log=_STATS_LOG)
@example(config=dict(_STATS, trial_window_ns=2 ** 63, bin_width_ns=2 ** 62),
         log=_STATS_LOG)
def test_stats_exit_0_with_finite_numbers_or_2_naming_a_key(config, log):
    # g12 of a bin with no field-2 count is NaN by contract; every other
    # number is finite, an undefined summary value is null, and each bin
    # ends after it starts
    table = cli.TABLES["stats"]
    code, err, files = _run("stats", config, log)
    assert code in (0, 2), err
    if code == 2:
        _assert_exit_2_names_a_key(table, err, files)
        return
    summary = json.loads(files["stats_summary.json"])
    assert all(math.isfinite(x) for x in _json_numbers(summary)), summary
    (header, rows), = _csv_rows(files)
    assert rows
    for row in rows:
        assert all(math.isfinite(float(v)) for key, v in zip(header, row)
                   if key != "g12"), row
        assert int(row[0]) < int(row[1]), row
