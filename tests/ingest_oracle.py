"""Reference ingest and writer for detection logs (tests only).

``oracle_ingest`` splits a log file's bytes into lines at ``\n``, drops one
trailing ``\r`` of each, decodes it as UTF-8 (an undecodable byte as
U+FFFD), splits it at every comma and judges it field by field, a regex
per field, then sorts with a three-key ``np.lexsort``: the plain
implementation of the grammar that ``qmemread.counting.ingest`` reads with
a chunked, vectorised parse.  ``oracle_write`` writes one f-string per
row.  Both return plain values so that tests can compare them with ``==``.
``log_file`` writes lines to a temporary log file.
"""

import contextlib
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np

CHANNELS = ("F1A", "F1B", "F2A", "F2B")
_CODE = {name: i for i, name in enumerate(CHANNELS)}
# a trial or a time: 1 to 15 ASCII digits; a sign makes it negative
_INTEGER = re.compile(r"(-?)([0-9]{1,15})")


@contextlib.contextmanager
def log_file(lines):
    """The path of a temporary log file holding ``lines``, each ended by a
    newline; the file is deleted on exit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_bytes("".join(f"{line}\n" for line in lines).encode())
        yield path


def oracle_ingest(path, n_trials=None, trial_window_ns=1500):
    """(trial, channel, t_ns, n_trials, n_duplicates, n_rejected_channel,
    parse_errors, n_records) of the log file at ``path``, with the
    duplicate warning it raises; ``n_records`` counts the lines of the
    file."""
    lines = Path(path).read_bytes().split(b"\n")
    if lines[-1] == b"":            # the file ends with a newline, or is empty
        lines.pop()
    rows = [line.removesuffix(b"\r").decode("utf-8", errors="replace")
            .split(",") for line in lines]

    trials, chans, times = [], [], []
    rejected = 0
    errors = []
    n_records = 0
    for lineno, row in enumerate(rows, start=1):
        n_records = lineno
        if len(row) == 1 and not row[0].strip():
            continue
        if lineno == 1 and row[0].strip().lower() == "trial":
            continue
        if len(row) != 3:
            errors.append((lineno, f"expected 3 fields, got {len(row)}"))
            continue
        tr, ch, t = (_INTEGER.fullmatch(row[0]), row[1],
                     _INTEGER.fullmatch(row[2]))
        if not (tr and t):
            errors.append((lineno, "non-integer trial or time"))
            continue
        if tr[1]:
            errors.append((lineno, "negative trial index"))
            continue
        if t[1] or int(t[0]) >= trial_window_ns:
            errors.append((lineno, f"time {int(t[0])} outside trial window "
                                   f"[0, {trial_window_ns})"))
            continue
        tr, t = int(tr[0]), int(t[0])
        if ch not in _CODE:
            rejected += 1
            continue
        if n_trials is not None and tr >= n_trials:
            errors.append((lineno, f"trial {tr} >= n_trials {n_trials}"))
            continue
        trials.append(tr)
        chans.append(_CODE[ch])
        times.append(t)

    trial = np.array(trials, dtype=np.int64)
    channel = np.array(chans, dtype=np.int8)
    t_ns = np.array(times, dtype=np.int64)
    order = np.lexsort((channel, t_ns, trial))
    trial, channel, t_ns = trial[order], channel[order], t_ns[order]
    keep = np.ones(trial.size, dtype=bool)
    keep[1:] = ((trial[1:] != trial[:-1]) | (t_ns[1:] != t_ns[:-1])
                | (channel[1:] != channel[:-1]))
    dups = int(trial.size - keep.sum())
    if dups:
        warnings.warn(f"collapsed {dups} duplicate detection record(s)")
    trial, channel, t_ns = trial[keep], channel[keep], t_ns[keep]
    if n_trials is None:
        n_trials = int(trial[-1]) + 1 if trial.size else 0
    return (trial, channel, t_ns, int(n_trials), dups, rejected, errors,
            n_records)


def oracle_write(trial, channel, t_ns) -> bytes:
    """The bytes of a ``trial,channel,t_ns`` log, one f-string per row."""
    rows = "".join(f"{tr},{CHANNELS[ch]},{t}\n" for tr, ch, t in
                   zip(trial.tolist(), channel.tolist(), t_ns.tolist()))
    return ("trial,channel,t_ns\n" + rows).encode("utf-8")
