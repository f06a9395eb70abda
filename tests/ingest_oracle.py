"""Reference ingest and writer for detection logs (tests only).

``oracle_ingest`` reads every line through ``csv.reader`` and judges it
field by field, then sorts with a three-key ``np.lexsort``: the plain
implementation that ``qmemread.counting.ingest`` replaced with a chunked,
vectorised parse.  ``oracle_write`` writes one f-string per row.  Both
return plain values so that tests can compare them with ``==``.
"""

import csv
import warnings

import numpy as np

CHANNELS = ("F1A", "F1B", "F2A", "F2B")
_CODE = {name: i for i, name in enumerate(CHANNELS)}


def oracle_ingest(source, n_trials=None, trial_window_ns=1500):
    """(trial, channel, t_ns, n_trials, n_duplicates, n_rejected_channel,
    parse_errors, n_records) of a log, with the duplicate warning it
    raises; ``n_records`` counts the csv records read."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return oracle_ingest(fh, n_trials, trial_window_ns)

    trials, chans, times = [], [], []
    rejected = 0
    errors = []
    n_records = 0
    reader = csv.reader(source)
    for lineno, row in enumerate(reader, start=1):
        n_records = lineno
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if lineno == 1 and row[0].strip().lower() == "trial":
            continue
        if len(row) != 3:
            errors.append((lineno, f"expected 3 fields, got {len(row)}"))
            continue
        ch = row[1].strip()
        try:
            tr = int(row[0])
            t = int(row[2])
        except ValueError:
            errors.append((lineno, "non-integer trial or time"))
            continue
        if tr < 0:
            errors.append((lineno, "negative trial index"))
            continue
        if not (0 <= t < trial_window_ns):
            errors.append((lineno, f"time {t} outside trial window "
                                   f"[0, {trial_window_ns})"))
            continue
        if ch not in _CODE:
            rejected += 1
            continue
        if n_trials is not None and tr >= n_trials:
            errors.append((lineno, f"trial {tr} >= n_trials {n_trials}"))
            continue
        if tr >= 2 ** 63:
            errors.append((lineno, f"trial {tr} beyond the int64 range"))
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
