"""Time-tagged detection logs and coincidence statistics.

Events are rows ``trial,channel,t_ns`` with channels F1A/F1B (the heralding
field behind a fiber beamsplitter) and F2A/F2B (the retrieved field).  From
the sorted trials of the events in each field's window the module counts
the single and joint detection probabilities, the normalized correlations

    g11 = p11 / p1^2 ,   g22 = p22 / p2^2 ,   g12 = p12 / (p1 p2) ,

the Cauchy-Schwarz parameter R = g12^2 / (g11 g22) (R > 1 is nonclassical,
as is g12 > 2), the conditional retrieval probability p_c = p12 / p1, and
time-resolved heralded wavepackets.  A synthetic-log generator driven by the
closed-form wavepacket provides end-to-end pipeline tests.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .params import ParamError, ReadoutParams
from .wavepacket import _BLOCK, _MAX_POINTS, pc_integral

CHANNELS = ("F1A", "F1B", "F2A", "F2B")
_CODE = {name: i for i, name in enumerate(CHANNELS)}
_INTEGER = re.compile(r"-?[0-9]{1,15}")     # a trial or time of a log line

DEFAULT_TRIAL_WINDOW_NS = 1500  # detector-on period per trial

_MAX_BINS = 10 ** 6     # bins of one conditional wavepacket (8 MB an array)
_MAX_BACKGROUND = 1e8   # expected background counts of one synthetic log
# trials of one log: 1/n_trials^2 >= 1e-300 stays a normal float, so no
# product of two probabilities in the statistics rounds to 0
_MAX_TRIALS = 10 ** 150


@dataclass
class EventStore:
    """Columnar store of detection events, sorted by (trial, t, channel).

    ``parse_errors`` lists (line_number, reason) for rejected malformed
    lines; ``n_rejected_channel`` counts well-formed rows with an unknown
    channel; exact duplicate rows are collapsed into ``n_duplicates``.
    ``ingest`` also sets ``n_records``, the lines of the file it read (the
    numbering of ``parse_errors``), and ``n_validated``, the lines that are
    not events, which the vectorised parse left to the per-line validator.

    The columns are read, never written, after construction.
    """

    trial: np.ndarray
    channel: np.ndarray         # int8 codes into CHANNELS
    t_ns: np.ndarray
    n_trials: int
    trial_window_ns: int = DEFAULT_TRIAL_WINDOW_NS
    n_duplicates: int = 0
    n_rejected_channel: int = 0
    parse_errors: list = field(default_factory=list)
    n_records: int = 0
    n_validated: int = 0

    def __len__(self):
        return self.trial.size

    def parse_errors_by_reason(self) -> dict:
        """Count ``parse_errors`` by reason: ``field_count``,
        ``non_integer``, ``negative_trial``, ``outside_window`` and
        ``trial_out_of_range``; every key is present."""
        counts = dict.fromkeys(_ERROR_REASONS.values(), 0)
        for _line, message in self.parse_errors:
            counts[next(reason for start, reason in _ERROR_REASONS.items()
                        if message.startswith(start))] += 1
        return counts


# parse-error reasons, keyed by how their messages in _check_row start
_ERROR_REASONS = {"expected 3 fields": "field_count",
                  "non-integer": "non_integer",
                  "negative trial": "negative_trial",
                  "time ": "outside_window",
                  "trial ": "trial_out_of_range"}

# Work per pool task.  Small tasks keep each worker thread's malloc arena
# small: memory freed on a worker stays resident in its arena.
_CHUNK_BYTES = 1 << 18      # log bytes parsed per vectorised pass
_WRITE_ROWS = 1 << 14       # rows rendered per write


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(fn, tasks):
    """Yield ``fn(*task)`` for each of ``tasks``, in task order, from a
    thread pool of ``_usable_cpus()`` workers, with at most two tasks per
    worker submitted and not yet taken.  ``tasks`` is read lazily on the
    consumer's thread; a task's exception is raised at its position.
    ``fn`` runs on a worker, so it reads no shared state and calls no
    public function (callers may wrap those with thread-unsafe recorders).
    """
    workers = _usable_cpus()
    pending = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for task in tasks:
            pending.append(pool.submit(fn, *task))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _run_starts(*sorted_cols):
    """Mask of the rows that differ from the row before in some column."""
    first, *rest = sorted_cols
    keep = np.ones(first.size, dtype=bool)
    keep[1:] = first[1:] != first[:-1]
    for col in rest:
        keep[1:] |= col[1:] != col[:-1]
    return keep


def _member(values, sorted_set):
    """Mask of the ``values`` that occur in the sorted array ``sorted_set``."""
    at = np.searchsorted(sorted_set, values)
    found = at < sorted_set.size
    found[found] = sorted_set[at[found]] == values[found]
    return found


def _key(trial, t_ns, channel, span):
    """The store's sort key of events with t < ``span``: keys in (trial, t,
    channel) order.  ``ingest`` builds them on its workers and
    ``synthesize_log`` draws them, both with span = the trial window."""
    return (trial * span + t_ns) * 4 + channel


def _store(keys, span, n_trials, window):
    """The store of sorted keys of span ``span``, each key once
    (``n_duplicates`` counts the repeats).  Works in the buffer of
    ``keys``, which it leaves undefined."""
    keep = _run_starts(keys)
    n = int(np.count_nonzero(keep))
    if n < keys.size:
        keys[:n] = keys[keep]
    dups, keys = keys.size - n, keys[:n]
    channel = (keys & 3).astype(np.int8)
    keys >>= 2
    trial, t_ns = np.divmod(keys, span)
    return EventStore(trial=trial, channel=channel, t_ns=t_ns, n_trials=n_trials,
                      trial_window_ns=window, n_duplicates=dups)


def _sorted_store(tally):
    """The store of the events ``ingest`` kept in ``tally``: one column of
    keys, or (trial, code, t) columns where a key could overflow int64."""
    columns = [np.concatenate(c) for c in zip(*tally.columns)]
    tally.columns.clear()           # free the chunks' arrays before sorting
    window = int(tally.window)
    if tally.span:
        keys, = columns
        keys.sort(kind="stable")    # nearly free on a log in store order
        store = _store(keys, tally.span, tally.n_trials, window)
    else:
        trial, channel, t_ns = columns
        order = np.lexsort((channel, t_ns, trial))
        order = order[_run_starts(trial[order], t_ns[order], channel[order])]
        store = EventStore(trial[order], channel[order], t_ns[order],
                           tally.n_trials, window, trial.size - order.size)
    store.n_trials = int(store.trial.max(initial=-1) + 1
                         if tally.n_trials is None else tally.n_trials)
    if store.n_duplicates:
        warnings.warn(f"collapsed {store.n_duplicates} duplicate detection "
                      "record(s)", stacklevel=3)
    store.n_rejected_channel, store.parse_errors = tally.rejected, tally.errors
    store.n_records, store.n_validated = tally.records, tally.validated
    return store


class _Tally:
    """What one ingest has read so far."""

    def __init__(self, n_trials, window, span):
        self.n_trials = n_trials
        self.window = window
        self.span = span        # of the keys, or None: (trial, code, t)
        self.records = 0        # lines read
        self.validated = 0      # lines judged by _check_row
        self.columns = [(np.empty(0, np.int64),) if span else
                        (np.empty(0, np.int64), np.empty(0, np.int8),
                         np.empty(0, np.int64))]    # then one per chunk
        self.errors = []
        self.rejected = 0


def _check_row(tally, lineno, row):
    """Say why line ``lineno`` of a log, split into the fields ``row``, is
    no event (``ingest``'s array parse took every event): a trial or time
    is 1 to 15 ASCII digits, and the channel is compared as written."""
    tally.validated += 1
    if len(row) == 1 and not row[0].strip():
        return
    if lineno == 1 and row[0].strip().lower() == "trial":
        return
    if len(row) != 3:
        error = f"expected 3 fields, got {len(row)}"
    elif not (_INTEGER.fullmatch(row[0]) and _INTEGER.fullmatch(row[2])):
        error = "non-integer trial or time"
    elif row[0].startswith("-"):
        error = "negative trial index"
    elif row[2].startswith("-") or int(row[2]) >= tally.window:
        error = f"time {int(row[2])} outside trial window [0, {tally.window})"
    elif row[1] not in _CODE:
        tally.rejected += 1
        return
    else:                   # the vectorised parse took every other line
        error = f"trial {int(row[0])} >= n_trials {tally.n_trials}"
    tally.errors.append((lineno, error))


def _chunks(path):
    """The bytes of the log file ``path``, read in blocks of
    ``_CHUNK_BYTES`` and cut after ``\\n``, so each chunk holds whole lines;
    only the last chunk may end without one."""
    tail = b""
    with open(path, "rb") as fh:
        while block := fh.read(_CHUNK_BYTES):
            buf = tail + block
            cut = buf.rfind(b"\n") + 1
            if cut:
                yield buf[:cut]
            tail = buf[cut:]
    if tail:
        yield tail


def _digits(a, end, length):
    """Integer value of the ``length`` (1..15) bytes of ``a`` before each
    ``end``, and whether all of them are ASCII digits."""
    value = np.zeros(end.size, dtype=np.int64)
    bad = np.zeros(end.size, dtype=bool)
    pos = end - 1
    for k in range(int(length.max(initial=0))):     # digit k from the right
        live = length > k
        d = a[pos]
        d -= 48                     # uint8: bytes below "0" wrap past 9
        bad |= (d > 9) & live
        d *= live
        value += d * np.int64(10 ** k)
        pos -= 1
    return value, ~bad


def _strict_chunk(chunk, window, n_trials, span):
    """The lines of ``chunk`` (ended by ``\\n``, one ``\\r`` before it
    dropped) parsed and checked as arrays: the lines of the strict grammar
    that pass the window and ``n_trials`` checks as one column of store
    keys of span ``span`` (or, if ``span`` is None, as trial, code and t
    columns), the line count, and the (index, text) of every other line,
    for ``_check_row``.

    Runs on a worker thread, so it reads no state and calls no public
    function of this module (those may be wrapped by callers that are not
    thread-safe)."""
    text = chunk if chunk.endswith(b"\n") else chunk + b"\n"
    a = np.frombuffer(text, dtype=np.uint8)
    marks = np.flatnonzero((a == 44) | (a == 10))   # commas and newlines
    nl = np.flatnonzero(a[marks] == 10)             # line ends, in marks
    ends = marks[nl]
    starts = np.concatenate(([0], ends[:-1] + 1))

    line = np.flatnonzero(np.diff(nl, prepend=-1) == 3)     # two commas
    c1, c2 = marks[nl[line] - 2], marks[nl[line] - 1]
    three = c2 - c1 == 4                            # 3 bytes between them
    line, c1, c2 = line[three], c1[three], c2[three]
    stop = ends[line]
    stop = stop - (a[stop - 1] == 13)               # before a \r\n
    n1, n2 = c1 - starts[line], stop - c2 - 1
    field, side = a[c1 + 2] - 49, a[c1 + 3] - 65    # F[12][AB] -> 0/1, 0/1
    shape = ((a[c1 + 1] == 70) & (field <= 1) & (side <= 1)
             & (n1 >= 1) & (n1 <= 15) & (n2 >= 1) & (n2 <= 15))
    line, c1, stop, n1, n2 = (x[shape] for x in (line, c1, stop, n1, n2))
    trial, ok_trial = _digits(a, c1, n1)
    t, ok_t = _digits(a, stop, n2)
    ok = ok_trial & ok_t & (t < window)
    if n_trials is not None:
        ok &= trial < n_trials
    code = 2 * field[shape] + side[shape]
    columns = ((_key(trial, t, code, span),) if span else
               (trial, code.astype(np.int8), t))

    accepted = np.zeros(ends.size, dtype=bool)
    accepted[line[ok]] = True
    judged = [(i, text[starts[i]:ends[i]].removesuffix(b"\r")
               .decode("utf-8", errors="replace"))
              for i in np.flatnonzero(~accepted).tolist()]
    return [c[ok] for c in columns], ends.size, judged


def _take_chunk(tally, columns, n_lines, judged):
    """Add a chunk parsed by ``_strict_chunk`` to the tally: copies of its
    kept columns, and its other lines, split at every comma, through
    ``_check_row`` in line order, numbered on from the lines read before.
    The copies are made here, on the calling thread: an array allocated on
    a worker and kept to the end would pin that worker's malloc arena
    resident."""
    first = tally.records + 1                       # the chunk's first line
    tally.records += n_lines
    tally.columns.append(tuple(c.copy() for c in columns))
    for i, text in judged:
        _check_row(tally, first + i, text.split(","))


def _short(count):
    """``count`` for an error line: in full up to 20 characters, else as
    the float it equals, else by its digit count."""
    text = str(count)
    if len(text) <= 20:
        return text
    if abs(count) < 1e308 and float(count) == count:
        return f"{float(count):g}"
    return f"a {len(text.lstrip('-'))}-digit integer"


def ingest(path, n_trials=None, trial_window_ns=DEFAULT_TRIAL_WINDOW_NS) -> EventStore:
    """Parse the detection log file at ``path`` into an EventStore.

    Its lines are ``trial,channel,t_ns`` (header row optional), its bytes
    decoded as UTF-8, each undecodable byte as U+FFFD.  A line ends at
    ``\\n`` (one ``\\r`` before it is dropped) and its fields are split at
    every comma, with no quoting: a quote or a lone ``\\r`` is a byte of a
    malformed line.  The events are the lines of the grammar
    ``[0-9]{1,15},F[12][AB],[0-9]{1,15}`` with a time below
    ``trial_window_ns`` and a trial below ``n_trials``.  Other lines but
    blanks and a line-1 header are tallied in ``n_rejected_channel`` (an
    unknown channel) or in ``parse_errors`` (with their line number).
    Duplicate rows are collapsed with a warning.

    The log is read in chunks of 256 KB cut at newlines, so memory grows
    with the events kept, not with the file.  Each chunk is parsed and
    checked as arrays, the one parse that keeps events, on a thread pool
    sized to the CPUs this process may use (``_in_order``).  The calling
    thread takes the chunks in log order and sends each other line to the
    per-line validator, which says why it is no event.  So the results, in
    line order, do not depend on the worker count or scheduling.

    The worker packs each event into its store key (``_key``) with span
    W = ``trial_window_ns``, and the calling thread sorts the keys and
    decodes them (``_store``), as ``synthesize_log`` does.  Where the
    largest admissible key, 4 W min(n_trials, 1e15) - 1 (a trial has at
    most 15 digits), would not fit in int64, the worker keeps (trial,
    channel, t) columns, which a three-key lexsort orders instead.

    ``n_trials`` (when given) below 1 or above ``_MAX_TRIALS`` = 1e150,
    and ``trial_window_ns`` below 1 or above 2**63 (times are int64),
    raise ParamError naming the argument, before the file is read.
    """
    for name, value, most, bound in (
            ("n_trials", n_trials, _MAX_TRIALS, "1e150"),
            ("trial_window_ns", trial_window_ns, 2 ** 63, "2**63")):
        if value is not None and not 1 <= value <= most:
            raise ParamError([name], f"{name} must be in [1, {bound}], "
                             f"got {_short(value)}")
    span = math.ceil(trial_window_ns)       # above every time kept
    trials = 10 ** 15 if n_trials is None else min(math.ceil(n_trials), 10 ** 15)
    tally = _Tally(n_trials, trial_window_ns,
                   span if 4 * span * trials <= 2 ** 63 else None)
    tasks = ((chunk, trial_window_ns, n_trials, tally.span)
             for chunk in _chunks(path))
    for parse in _in_order(_strict_chunk, tasks):
        _take_chunk(tally, *parse)
    return _sorted_store(tally)


# byte rows of the writer: row k holds digit k of 000..999, or letter k of
# each channel name
_DIGITS3 = (np.arange(1000) // np.array([[100], [10], [1]]) % 10
            + 48).astype(np.uint8)
_CHANNEL_BYTES = np.frombuffer("".join(CHANNELS).encode(),
                               dtype=np.uint8).reshape(4, 3).T.copy()


def _decimal(values):
    """Decimal text of int64 ``values`` laid out one byte position per
    row (a sign row, then 3-digit groups from a lookup table), and the
    mask of the bytes to write: a minus sign and the significant digits."""
    values = np.asarray(values, dtype=np.int64)
    mag = np.abs(values).view(np.uint64)    # |-2**63| wraps to 2**63 here
    width = 3 * ((len(str(int(mag.max(initial=0)))) + 2) // 3)
    text = np.empty((1 + width, values.size), dtype=np.uint8)
    keep = np.empty(text.shape, dtype=bool)
    text[0] = 45
    keep[0] = values < 0
    rest = mag
    for row in range(width - 2, 0, -3):
        rest, low = np.divmod(rest, 1000)
        np.take(_DIGITS3, low, axis=1, out=text[row:row + 3], mode="clip")
    for j in range(1, width):               # write digit j iff |v| >= 10**j
        np.greater_equal(mag, 10 ** j, out=keep[width - j])
    keep[width] = True
    return text, keep


def _render(store, rows):
    """The bytes that ``write_log`` writes for the ``rows`` slice of a
    store.  Runs on a worker thread, so it calls no public function."""
    trial, trial_keep = _decimal(store.trial[rows])
    t_ns, t_keep = _decimal(store.t_ns[rows])
    n = t_ns.shape[1]
    middle = np.full((5, n), 44, dtype=np.uint8)    # ",F1A,"
    np.take(_CHANNEL_BYTES, store.channel[rows], axis=1, out=middle[1:4])
    text = np.concatenate([trial, middle, t_ns,
                           np.full((1, n), 10, dtype=np.uint8)])
    keep = np.concatenate([trial_keep, np.ones((5, n), dtype=bool),
                           t_keep, np.ones((1, n), dtype=bool)])
    return text.T[keep.T]


def write_log(store: EventStore, path):
    """Write a store back to ``trial,channel,t_ns`` CSV (with header).

    Rows are rendered as arrays, ``_WRITE_ROWS`` (16 384) at a time, into
    one byte buffer per block, on a thread pool sized to the CPUs this
    process may use (``_in_order``).  The blocks are written in row order
    with at most two per worker in flight, so the memory used does not grow
    with the log and the file does not depend on the worker count.  The
    bytes are those of ``f"{trial},{CHANNELS[channel]},{t_ns}\\n"`` per row.
    """
    blocks = ((store, slice(lo, lo + _WRITE_ROWS))
              for lo in range(0, len(store), _WRITE_ROWS))
    with open(path, "wb") as fh:
        fh.write(b"trial,channel,t_ns\n")
        fh.writelines(_in_order(_render, blocks))


@dataclass
class CorrelationSummary:
    """Per-trial probabilities, normalized correlations and their errors.

    Quantities that are undefined for the data (zero denominators) are None;
    everything else is still computed.  Uncertainties are binomial standard
    errors on probabilities, propagated to first order for the ratios.
    """

    n_trials: int
    p1: float = 0.0
    p2: float = 0.0
    p11: float = 0.0
    p22: float = 0.0
    p12: float = 0.0
    u_p1: float = 0.0
    u_p2: float = 0.0
    u_p11: float = 0.0
    u_p22: float = 0.0
    u_p12: float = 0.0
    g11: float | None = None
    g22: float | None = None
    g12: float | None = None
    r_cs: float | None = None
    pc_total: float | None = None
    u_g11: float | None = None
    u_g22: float | None = None
    u_g12: float | None = None
    u_r_cs: float | None = None
    u_pc_total: float | None = None
    quantum_g12: bool | None = None
    cauchy_schwarz_violated: bool | None = None

    def to_json(self) -> dict:
        return dict(self.__dict__)


def _binom_se(p, n):
    return math.sqrt(p * (1.0 - p) / n)


def probabilities(store: EventStore, window1, window2) -> CorrelationSummary:
    """Single and joint per-trial detection probabilities.

    ``window1``/``window2`` are inclusive (lo, hi) ns ranges applied to the
    heralding and retrieved field respectively.  p11 (p22) is the fraction
    of trials with a count on both detectors of field 1 (2), the
    beamsplitter-pair coincidence.  Trials are counted from the sorted trial
    indices of the events, so memory grows with the events, not n_trials.
    No trials raise ParamError naming ``n_trials``.
    """
    if store.n_trials <= 0:
        raise ParamError(["n_trials"], "no trials: probabilities are undefined")
    for name, (lo, hi) in (("window1", window1), ("window2", window2)):
        if not (0 <= lo <= hi < store.trial_window_ns):
            raise ParamError([name], f"{name} must lie within the trial window")

    trials1, n_pairs1 = _field_trials(store, 1, window1)
    trials2, n_pairs2 = _field_trials(store, 2, window2)
    n = store.n_trials
    s = CorrelationSummary(n_trials=n)
    s.p1, s.p2 = trials1.size / n, trials2.size / n     # int / int rounds
    s.p11, s.p22 = n_pairs1 / n, n_pairs2 / n           # once, for any n
    s.p12 = int(np.count_nonzero(_member(trials1, trials2))) / n
    s.u_p1, s.u_p2 = _binom_se(s.p1, n), _binom_se(s.p2, n)
    s.u_p11, s.u_p22 = _binom_se(s.p11, n), _binom_se(s.p22, n)
    s.u_p12 = _binom_se(s.p12, n)
    return s


def _field_trials(store, which, window):
    """Sorted distinct trials with a count of field ``which`` (1: codes 0-1,
    2: 2-3) in the inclusive ``window``; how many have one on both detectors."""
    lo, hi = window
    t = store.t_ns
    at = np.flatnonzero((store.channel >> 1 == which - 1) & (t >= lo) & (t <= hi))
    trial, channel = store.trial[at], store.channel[at]
    runs = np.flatnonzero(_run_starts(trial))
    both = np.minimum.reduceat(channel, runs) != np.maximum.reduceat(channel, runs)
    return trial[runs], int(np.count_nonzero(both))


def _ratio_err(value, parts):
    """First-order relative-error propagation for a product/ratio."""
    acc = 0.0
    for u, p in parts:
        if p <= 0:
            return None
        acc += (u / p) ** 2
    return abs(value) * math.sqrt(acc)


def correlations(summary: CorrelationSummary) -> CorrelationSummary:
    """Fill the normalized correlations, R, p_c and nonclassicality flags.

    g12 > 2 marks nonclassical cross-correlation; r_cs > 1 violates the
    Cauchy-Schwarz bound for classical fields.  Both comparisons are exact
    (no hidden tolerance).  Undefined quantities stay None.
    """
    s = summary
    if s.p1 > 0:
        s.g11 = s.p11 / s.p1 ** 2
        s.u_g11 = (_ratio_err(s.g11, [(s.u_p11, s.p11), (2 * s.u_p1, s.p1)])
                   if s.p11 > 0 else s.u_p11 / s.p1 ** 2)
        s.pc_total = s.p12 / s.p1
        s.u_pc_total = (_ratio_err(s.pc_total, [(s.u_p12, s.p12), (s.u_p1, s.p1)])
                        if s.p12 > 0 else s.u_p12 / s.p1)
    if s.p2 > 0:
        s.g22 = s.p22 / s.p2 ** 2
        s.u_g22 = (_ratio_err(s.g22, [(s.u_p22, s.p22), (2 * s.u_p2, s.p2)])
                   if s.p22 > 0 else s.u_p22 / s.p2 ** 2)
    if s.p1 > 0 and s.p2 > 0:
        s.g12 = s.p12 / (s.p1 * s.p2)
        s.u_g12 = (_ratio_err(s.g12, [(s.u_p12, s.p12), (s.u_p1, s.p1),
                                      (s.u_p2, s.p2)])
                   if s.p12 > 0 else s.u_p12 / (s.p1 * s.p2))
        s.quantum_g12 = s.g12 > 2
    if s.g12 is not None and s.g11 and s.g22:
        s.r_cs = s.g12 ** 2 / (s.g11 * s.g22)
        # R = p12^2 / (p11 p22): p1 and p2 cancel, and so do their errors
        s.u_r_cs = _ratio_err(s.r_cs, [(2 * s.u_p12, s.p12),
                                       (s.u_p11, s.p11), (s.u_p22, s.p22)])
        s.cauchy_schwarz_violated = s.r_cs > 1
    return s


@dataclass(frozen=True)
class BinnedWavepacket:
    """Heralded wavepacket: per-bin p_c, per-bin g12 and raw counts."""

    t_lo_ns: np.ndarray
    t_hi_ns: np.ndarray
    pc: np.ndarray
    g12: np.ndarray
    n_coinc: np.ndarray
    n_heralds: int
    n_trials: int


def conditional_wavepacket(store: EventStore, herald_window, bin_width_ns=1,
                           t_range=None) -> BinnedWavepacket:
    """Time-resolved p_c(t) and g12(t) conditioned on a field-1 herald.

    p_c per bin counts field-2 detections in heralded trials divided by the
    number of heralds; g12(t) = p_c(t) / p2(t) with p2(t) the unconditional
    per-bin field-2 probability.  ``bin_width_ns`` >= 1 (use 1 ns for
    wavepackets, wider bins for correlation traces).  ``herald_window``
    (inclusive) and ``t_range`` (half-open; 1 to ``_MAX_BINS`` = 1e6 bins,
    the last ending below 2**63 ns) must lie in the trial window.
    ParamError names the argument that does not, ``n_trials`` if there are
    none, and ``herald_window`` if it holds no herald.  Each field-2 event's trial is searched in the sorted herald
    trials, so memory grows with the events and bins, not with n_trials.
    """
    if bin_width_ns < 1:
        raise ParamError(["bin_width_ns"], "bin width must be >= 1 ns")
    if store.n_trials <= 0:
        raise ParamError(["n_trials"], "no trials: wavepacket undefined")
    lo_h, hi_h = herald_window
    lo, hi = t_range if t_range is not None else (0, store.trial_window_ns)
    if not (0 <= lo_h <= hi_h < store.trial_window_ns):
        raise ParamError(["herald_window"], "herald_window must lie within the trial window")
    if not (0 <= lo and hi <= store.trial_window_ns):
        raise ParamError(["t_range"], "t_range must lie within the trial window")
    n_bins = int((hi - lo) // bin_width_ns)
    if not 1 <= n_bins <= _MAX_BINS:
        raise ParamError(["t_range"], f"range of {n_bins} bins; need 1 to "
                         f"{_MAX_BINS}")
    hi = lo + n_bins * bin_width_ns
    if hi >= 2 ** 63:       # the bin edges are int64
        raise ParamError(["t_range"], f"last bin ends at {hi} ns; need "
                         "bins that end below 2**63 ns")
    heralds, _ = _field_trials(store, 1, herald_window)
    if heralds.size == 0:
        raise ParamError(["herald_window"],
                         "empty herald set: conditional wavepacket undefined")

    t = store.t_ns
    at = np.flatnonzero((store.channel >= 2) & (t >= lo) & (t < hi))
    idx = (t[at] - lo) // bin_width_ns
    heralded = _member(store.trial[at], heralds)
    counts_all = np.bincount(idx, minlength=n_bins).astype(np.int64)
    counts_her = np.bincount(idx[heralded], minlength=n_bins).astype(np.int64)

    pc = counts_her / heralds.size
    p2 = counts_all / float(store.n_trials)    # n_trials may exceed int64
    with np.errstate(divide="ignore", invalid="ignore"):
        g12 = np.where(p2 > 0, pc / p2, np.nan)
    edges = lo + bin_width_ns * np.arange(n_bins + 1)
    return BinnedWavepacket(t_lo_ns=edges[:-1], t_hi_ns=edges[1:], pc=pc,
                            g12=g12, n_coinc=counts_her,
                            n_heralds=heralds.size, n_trials=store.n_trials)


@dataclass(frozen=True)
class SynthDesign:
    """Trial structure for the synthetic-log generator.

    Field-1 heralds fire with probability ``p1`` at ``herald_t_ns``; on a
    herald, a field-2 detection is drawn with probability P_c at a time
    sampled from the normalized wavepacket, offset by ``read_start_ns``.
    ``background_per_ns`` adds uncorrelated counts on every channel.  Caps
    bound memory: ``read_ns`` <= 1e6 and 1e8 expected background counts.
    """

    n_trials: int
    p1: float
    window_ns: int = DEFAULT_TRIAL_WINDOW_NS
    herald_t_ns: int = 20
    read_start_ns: int = 50
    read_window_ns: int = 300
    background_per_ns: float = 0.0

    def __post_init__(self):
        bad = []
        if self.n_trials < 1:
            bad.append("n_trials")
        if not (0 < self.p1 <= 1):
            bad.append("p1")
        if not 2 <= self.window_ns <= 2 ** 61 // max(self.n_trials, 1):
            bad.append("window_ns")     # int64 keys for every cell
        if not (0 <= self.herald_t_ns < self.window_ns):
            bad.append("herald_t_ns")
        if not (0 <= self.read_start_ns < self.window_ns):
            bad.append("read_start_ns")
        if self.read_window_ns < 1:
            bad.append("read_window_ns")
        if self.background_per_ns < 0:
            bad.append("background_per_ns")
        if bad:
            raise ParamError(bad)
        counts = 4 * self.background_per_ns * self.window_ns * self.n_trials
        if not counts <= _MAX_BACKGROUND:
            raise ParamError(["background_per_ns"], f"{counts:.4g} expected "
                             f"background counts; need <= {_MAX_BACKGROUND:.0e}")
        if self.read_ns > _MAX_POINTS:
            raise ParamError(["read_window_ns"], f"read window of {self.read_ns}"
                             f" ns in the trial window; need <= {_MAX_POINTS:.0e}")

    @property
    def read_ns(self) -> int:
        """ns of the read window inside the trial window."""
        return min(self.read_window_ns, self.window_ns - self.read_start_ns)


def synthesize_log(params: ReadoutParams, design: SynthDesign, seed) -> EventStore:
    """Generate a detection log from the closed-form wavepacket.

    A heralded emission lands in each 1 ns bin of the read window with the
    model's exact probability (``_emission_cdf``).  The background is one
    Poisson(4 background_per_ns window_ns n_trials) total, uniform over
    the (trial, t, channel) cells: an independent Poisson count per trial
    and channel.  Events are drawn as store keys, sorted once, and a key
    drawn twice is one event (``n_duplicates``).  Deterministic for a fixed
    seed (draw order: heralds, herald channels, emissions, emission times,
    field-2 channels, background total, background keys).  A P_c above 1
    raises ParamError naming ``scale_f``, before any draw.
    """
    rng = np.random.default_rng(seed)
    window = design.window_ns
    cdf = _emission_cdf(params, design.read_ns)
    total_pc = float(cdf[-1])
    if total_pc > 1.0:
        raise ParamError(["scale_f"], f"integrated wavepacket P_c = {total_pc:.4g}"
                         " > 1; reduce scale_f or the sampling window")

    her_trials = np.flatnonzero(rng.random(design.n_trials) < design.p1)
    her_chan = rng.integers(0, 2, her_trials.size)
    sig_trials = her_trials[rng.random(her_trials.size) < total_pc]
    u = rng.random(sig_trials.size) * total_pc
    t2 = design.read_start_ns + np.searchsorted(cdf, u, side="right")
    sig_chan = 2 + rng.integers(0, 2, sig_trials.size)

    cells = 4 * design.n_trials * window     # (trial, t, channel) cells
    keys = np.concatenate([
        _key(her_trials, design.herald_t_ns, her_chan, window),
        _key(sig_trials, t2, sig_chan, window),
        rng.integers(0, cells, rng.poisson(design.background_per_ns * cells))])
    keys.sort()
    return _store(keys, window, design.n_trials, window)


def _emission_cdf(params: ReadoutParams, n_ns):
    """P_c over the first 1, 2, ..., ``n_ns`` ns, made nondecreasing: late
    increments can fall below rounding.  ``pc_integral`` runs on
    ``_BLOCK`` horizons at a time, which bounds its temporaries; each
    point gets the bits of one call over them all."""
    t = np.arange(1, n_ns + 1) * 1e-3
    return np.maximum.accumulate(np.concatenate(
        [pc_integral(params, t[lo:lo + _BLOCK]) for lo in range(0, n_ns, _BLOCK)]))
