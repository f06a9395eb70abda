"""The CLI's exit contract, generated from ``cli.TABLES``: a config of
``wavepacket``, ``sweep-intensity`` or ``sweep-detuning`` exits 0 with
finite CSV numbers, or exits 2 naming a key path of its table and leaving
no output.  Exit 1 would mean a defect.

The configs are drawn by walking each command's table: every number key
draws a finite float (0, negatives, subnormals and 1e+-300 included), a
list key a list of them, a horizon a number or "inf"; required keys are
sometimes dropped and unknown keys sometimes added.
"""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from qmemread import cli

COMMANDS = ("wavepacket", "sweep-intensity", "sweep-detuning")

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
_VALUES = {cli._number: _number,
           cli._numbers: st.sampled_from([4] * 9 + [0]).flatmap(
               lambda n: st.lists(_number, min_size=min(n, 1), max_size=n)),
           cli._horizon: st.one_of(st.just("inf"), _number),
           cli._version: st.sampled_from([1] * 9 + [2])}


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


def _run(command, config):
    """(exit code, stderr, {output name: text}) of ``command`` on
    ``config``, run in this process into a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg), "--out", str(out),
                             "--quiet"])
        files = ({p.name: p.read_text() for p in out.iterdir()}
                 if out.exists() else None)
    return code, err.getvalue(), files


@settings(max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from(COMMANDS))
def test_exit_0_with_finite_csv_or_2_naming_a_key(data, command):
    table = cli.TABLES[command]
    config = data.draw(_block(table))
    code, err, files = _run(command, config)
    assert code in (0, 2), err
    if code == 2:
        assert files is None
        message = err.removeprefix("validation error: ")
        assert message != err and _is_path(table, message.split(": ")[0]), err
        return
    csvs = [text for name, text in files.items() if name.endswith(".csv")]
    assert csvs
    for text in csvs:
        header, *rows = csv.reader(io.StringIO(text))
        assert rows and all(math.isfinite(float(v)) for row in rows
                            for v in row), header
