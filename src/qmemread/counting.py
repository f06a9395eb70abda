"""Time-tagged detection logs and coincidence statistics.

Events are rows ``trial,channel,t_ns`` with channels F1A/F1B (the heralding
field behind a fiber beamsplitter) and F2A/F2B (the retrieved field).  From
per-trial occupancies the module derives the single and joint detection
probabilities, the normalized correlations

    g11 = p11 / p1^2 ,   g22 = p22 / p2^2 ,   g12 = p12 / (p1 p2) ,

the Cauchy-Schwarz parameter R = g12^2 / (g11 g22) (R > 1 is nonclassical,
as is g12 > 2), the conditional retrieval probability p_c = p12 / p1, and
time-resolved heralded wavepackets.  A synthetic-log generator driven by the
closed-form wavepacket provides end-to-end pipeline tests.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .params import ParamError, ReadoutParams
from .wavepacket import pc_integral

CHANNELS = ("F1A", "F1B", "F2A", "F2B")
_CODE = {name: i for i, name in enumerate(CHANNELS)}
FIELD1_CODES = (0, 1)

DEFAULT_TRIAL_WINDOW_NS = 1500  # detector-on period per trial


class StatsError(ValueError):
    """Statistics are undefined for the requested data (e.g. no trials)."""


class ModelError(ValueError):
    """The synthesis model is inconsistent (e.g. P_c > 1)."""


@dataclass
class EventStore:
    """Columnar store of detection events, sorted by (trial, t, channel).

    ``parse_errors`` lists (line_number, reason) for rejected malformed
    lines; ``n_rejected_channel`` counts well-formed rows with an unknown
    channel; exact duplicate rows are collapsed into ``n_duplicates``.
    ``ingest`` also sets ``n_records``, the csv records it read (the
    numbering of ``parse_errors``), and ``n_validated``, how many of them
    went through the per-line validator rather than the vectorised parse.
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


def _sorted_store(trial, channel, t_ns, n_trials, window, rejected, errors,
                  warn_duplicates=True):
    trial = np.asarray(trial, dtype=np.int64)
    channel = np.asarray(channel, dtype=np.int8)
    t_ns = np.asarray(t_ns, dtype=np.int64)
    # (trial * span + t) * 4 + channel orders rows as (trial, t, channel)
    # when 0 <= t < span and 0 <= channel < 4, and one stable argsort of it
    # is far cheaper than a three-key lexsort; trials whose key could
    # overflow int64 fall back to the lexsort.  Exact duplicate rows are
    # dropped from the sort order, so each column is gathered once.
    span = int(t_ns.max()) + 1 if t_ns.size else 1
    if trial.size and int(trial.max()) >= (1 << 62) // (4 * span):
        order = np.lexsort((channel, t_ns, trial))
        order = order[_run_starts(trial[order], t_ns[order], channel[order])]
    else:
        key = trial * span
        key += t_ns
        key *= 4
        key += channel
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        del key                     # not alive during the gathers below
        order = order[_run_starts(sorted_key)]
        del sorted_key
    dups = trial.size - order.size
    trial, channel, t_ns = trial[order], channel[order], t_ns[order]
    if dups and warn_duplicates:
        warnings.warn(f"collapsed {dups} duplicate detection record(s)",
                      stacklevel=3)
    if n_trials is None:
        n_trials = int(trial[-1]) + 1 if trial.size else 0
    return EventStore(trial=trial, channel=channel, t_ns=t_ns,
                      n_trials=int(n_trials), trial_window_ns=int(window),
                      n_duplicates=dups, n_rejected_channel=rejected,
                      parse_errors=errors)


class _Tally:
    """What one ingest has read so far."""

    def __init__(self, n_trials, window):
        self.n_trials = n_trials
        self.window = window
        self.records = 0        # csv records (lines) read
        self.validated = 0      # records judged by _check_row
        self.columns = []       # (trial, channel, t_ns) arrays of strict lines
        self.rows = []          # (trial, channel, t_ns) from _check_row
        self.errors = []
        self.rejected = 0


def _check_row(tally, lineno, row):
    """Validate one csv record of a log.  Every line that the vectorised
    path of ``ingest`` does not accept is judged, and its error worded,
    here."""
    tally.validated += 1
    if not row or (len(row) == 1 and not row[0].strip()):
        return
    if lineno == 1 and row[0].strip().lower() == "trial":
        return
    if len(row) != 3:
        tally.errors.append((lineno, f"expected 3 fields, got {len(row)}"))
        return
    ch = row[1].strip()
    try:
        tr = int(row[0])
        t = int(row[2])
    except ValueError:
        tally.errors.append((lineno, "non-integer trial or time"))
        return
    if tr < 0:
        tally.errors.append((lineno, "negative trial index"))
        return
    if not (0 <= t < tally.window):
        tally.errors.append((lineno, f"time {t} outside trial window "
                                     f"[0, {tally.window})"))
        return
    if ch not in _CODE:
        tally.rejected += 1
        return
    if tally.n_trials is not None and tr >= tally.n_trials:
        tally.errors.append((lineno,
                             f"trial {tr} >= n_trials {tally.n_trials}"))
        return
    if tr >= 1 << 63:
        tally.errors.append((lineno, f"trial {tr} beyond the int64 range"))
        return
    tally.rows.append((tr, _CODE[ch], t))


def _blocks(source):
    """The log as byte blocks of about ``_CHUNK_BYTES``.  An iterable of
    lines is joined with a newline ending each line that lacks one."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "rb") as fh:
            while block := fh.read(_CHUNK_BYTES):
                yield block
    elif hasattr(source, "read"):
        while block := source.read(_CHUNK_BYTES):
            yield block.encode("utf-8")
    else:
        batch, size = [], 0
        for line in source:
            batch.append(line if line.endswith("\n") else line + "\n")
            size += len(line)
            if size >= _CHUNK_BYTES:
                yield "".join(batch).encode("utf-8")
                batch, size = [], 0
        if batch:
            yield "".join(batch).encode("utf-8")


def _chunks(source):
    """The log's bytes cut after newlines; only the last chunk may end
    without one."""
    tail = b""
    for block in _blocks(source):
        buf = tail + block
        cut = buf.rfind(b"\n") + 1
        if cut:
            yield buf[:cut]
        tail = buf[cut:]
    if tail:
        yield tail


def _csv_records(chunk, tally, final):
    """Read ``chunk`` record by record through ``csv``, which alone knows
    quoting and lone carriage returns.  Unless ``final``, a record whose
    quoted field is still open at the chunk's end is returned unread, to
    be read again with the next chunk."""
    lines = chunk.splitlines(keepends=True)     # at \n, \r\n and lone \r
    ran_out = False

    def feed():
        nonlocal ran_out
        for line in lines:
            yield line.decode("utf-8")
        ran_out = True

    reader = csv.reader(feed())
    done = 0
    for row in reader:
        if ran_out and not final:
            return b"".join(lines[done:])
        done = reader.line_num
        tally.records += 1
        _check_row(tally, tally.records, row)
    return b""


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


def _strict_chunk(chunk, window, n_trials):
    """``(chunk, parse)``: ``parse`` is None if the chunk holds a quote or
    a lone carriage return.  Otherwise its lines of the strict grammar are
    parsed and checked as arrays, and ``parse`` is the (trial, code, t)
    columns of those that pass the window and ``n_trials`` checks, the
    line count, and the (index, text) of every other line, for ``_check_row``.

    Runs on a worker thread, so it reads no state and calls no public
    function of this module (those may be wrapped by callers that are not
    thread-safe)."""
    if b'"' in chunk or (b"\r" in chunk and
                         chunk.count(b"\r") != chunk.count(b"\r\n")):
        return chunk, None
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
    code = (2 * field[shape] + side[shape]).astype(np.int8)

    accepted = np.zeros(ends.size, dtype=bool)
    accepted[line[ok]] = True
    judged = [(i, text[starts[i]:ends[i]].removesuffix(b"\r").decode("utf-8"))
              for i in np.flatnonzero(~accepted).tolist()]
    return chunk, (trial[ok], code[ok], t[ok], ends.size, judged)


def _take_chunk(tally, trial, code, t, n_lines, judged):
    """Add a chunk parsed by ``_strict_chunk`` to the tally: copies of its
    kept columns, and its other lines through ``_check_row`` in line
    order, numbered on from the records read before.  The copies are made
    here, on the calling thread: an array allocated on a worker and kept
    to the end would pin that worker's malloc arena resident."""
    first = tally.records + 1                       # the chunk's first line
    tally.records += n_lines
    tally.columns.append((trial.copy(), code.copy(), t.copy()))
    for i, text in judged:
        _check_row(tally, first + i, next(csv.reader((text,))))


def ingest(source, n_trials=None, trial_window_ns=DEFAULT_TRIAL_WINDOW_NS) -> EventStore:
    """Parse a detection log into an EventStore.

    ``source`` is a file path, an open text stream, or an iterable of lines
    in the format ``trial,channel,t_ns`` (header row optional).  Malformed
    lines are skipped and reported with their line number in
    ``parse_errors``; rows with an unknown channel are tallied; duplicate
    rows are collapsed with a warning.

    The log is read in chunks of 256 KB cut at newlines, so memory grows
    with the events kept, not with the file.  In each chunk, lines of the
    strict grammar ``[0-9]{1,15},F[12][AB],[0-9]{1,15}`` (optionally
    ending in ``\\r``) are parsed and checked as arrays, on a thread pool
    sized to the CPUs this process may use (``_in_order``).  The calling
    thread takes the chunks in log order.  Every other line (the header,
    blanks, signs, spaces, underscores, other digits, unknown channels,
    wrong field counts) is judged by the per-line validator there, and a
    chunk holding a quote or a lone ``\\r``, or any chunk while a quoted
    record cut by a chunk's end is open, is read record by record through
    ``csv`` there.  Both routes give the same events, rejects, duplicate
    count and ``parse_errors`` (in line order, numbered as csv records) as
    reading every line through ``csv``, for any worker count or scheduling.

    ``n_trials`` (when given) and ``trial_window_ns`` below 1 raise
    ParamError naming the argument, before ``source`` is read.
    """
    for name, value in (("n_trials", n_trials),
                        ("trial_window_ns", trial_window_ns)):
        if value is not None and value < 1:
            raise ParamError([name], f"{name} must be >= 1, got {value}")
    tally = _Tally(n_trials, trial_window_ns)
    carry = b""                     # a csv record cut by a chunk's end
    tasks = ((chunk, trial_window_ns, n_trials) for chunk in _chunks(source))
    for chunk, parse in _in_order(_strict_chunk, tasks):
        if parse is None or carry:
            carry = _csv_records(carry + chunk, tally, final=False)
        else:
            _take_chunk(tally, *parse)
    if carry:
        _csv_records(carry, tally, final=True)
    rows = np.array(tally.rows, dtype=np.int64).reshape(-1, 3)
    tally.columns.append((rows[:, 0], rows[:, 1].astype(np.int8), rows[:, 2]))
    columns = [np.concatenate(c) for c in zip(*tally.columns)]
    tally.columns.clear()           # free the chunks' arrays before sorting
    store = _sorted_store(*columns, n_trials, trial_window_ns,
                          tally.rejected, tally.errors)
    store.n_records, store.n_validated = tally.records, tally.validated
    return store


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
    beamsplitter-pair coincidence.
    """
    if store.n_trials <= 0:
        raise StatsError("no trials: probabilities are undefined")
    for name, (lo, hi) in (("window1", window1), ("window2", window2)):
        if not (0 <= lo <= hi < store.trial_window_ns):
            raise ParamError([name], f"{name} must lie within the trial window")

    occ = _occupancy(store, window1, window2)
    f1 = occ[0] | occ[1]
    f2 = occ[2] | occ[3]
    n = store.n_trials
    s = CorrelationSummary(n_trials=n)
    s.p1 = float(np.count_nonzero(f1)) / n
    s.p2 = float(np.count_nonzero(f2)) / n
    s.p11 = float(np.count_nonzero(occ[0] & occ[1])) / n
    s.p22 = float(np.count_nonzero(occ[2] & occ[3])) / n
    s.p12 = float(np.count_nonzero(f1 & f2)) / n
    s.u_p1, s.u_p2 = _binom_se(s.p1, n), _binom_se(s.p2, n)
    s.u_p11, s.u_p22 = _binom_se(s.p11, n), _binom_se(s.p22, n)
    s.u_p12 = _binom_se(s.p12, n)
    return s


def _occupancy(store, window1, window2):
    """Boolean per-trial occupancy for each channel in its field's window."""
    occ = []
    for code in range(4):
        lo, hi = window1 if code in FIELD1_CODES else window2
        mask = (store.channel == code) & (store.t_ns >= lo) & (store.t_ns <= hi)
        flags = np.zeros(store.n_trials, dtype=bool)
        flags[store.trial[mask]] = True
        occ.append(flags)
    return occ


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
        parts = [(2 * (s.u_g12 or 0), s.g12), (s.u_g11, s.g11), (s.u_g22, s.g22)]
        s.u_r_cs = _ratio_err(s.r_cs, parts) if s.g12 > 0 else None
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
    (inclusive) and ``t_range`` (half-open) must lie in the trial window.
    """
    if bin_width_ns < 1:
        raise ParamError(["bin_width_ns"], "bin width must be >= 1 ns")
    if store.n_trials <= 0:
        raise StatsError("no trials")
    lo_h, hi_h = herald_window
    lo, hi = t_range if t_range is not None else (0, store.trial_window_ns)
    if not (0 <= lo_h <= hi_h < store.trial_window_ns):
        raise ParamError(["herald_window"], "herald_window must lie within the trial window")
    if not (0 <= lo and hi <= store.trial_window_ns):
        raise ParamError(["t_range"], "t_range must lie within the trial window")
    herald_mask = np.zeros(store.n_trials, dtype=bool)
    # codes follow the order of CHANNELS: field 1 is 0-1, field 2 is 2-3
    sel = ((store.channel < 2) &
           (store.t_ns >= lo_h) & (store.t_ns <= hi_h))
    herald_mask[store.trial[sel]] = True
    n_heralds = int(np.count_nonzero(herald_mask))
    if n_heralds == 0:
        raise StatsError("empty herald set: conditional wavepacket undefined")

    n_bins = int((hi - lo) // bin_width_ns)
    if n_bins < 1:
        raise ParamError(["t_range"], "range shorter than one bin")
    hi = lo + n_bins * bin_width_ns

    is_f2 = store.channel >= 2
    in_range = (store.t_ns >= lo) & (store.t_ns < hi)
    f2_all = is_f2 & in_range
    f2_her = f2_all & herald_mask[store.trial]

    idx_all = (store.t_ns[f2_all] - lo) // bin_width_ns
    idx_her = (store.t_ns[f2_her] - lo) // bin_width_ns
    counts_all = np.bincount(idx_all, minlength=n_bins).astype(np.int64)
    counts_her = np.bincount(idx_her, minlength=n_bins).astype(np.int64)

    pc = counts_her / n_heralds
    p2 = counts_all / store.n_trials
    with np.errstate(divide="ignore", invalid="ignore"):
        g12 = np.where(p2 > 0, pc / p2, np.nan)
    edges = lo + bin_width_ns * np.arange(n_bins + 1)
    return BinnedWavepacket(t_lo_ns=edges[:-1], t_hi_ns=edges[1:], pc=pc,
                            g12=g12, n_coinc=counts_her,
                            n_heralds=n_heralds, n_trials=store.n_trials)


@dataclass(frozen=True)
class SynthDesign:
    """Trial structure for the synthetic-log generator.

    Field-1 heralds fire with probability ``p1`` at ``herald_t_ns``; on a
    herald, a field-2 detection is drawn with probability P_c at a time
    sampled from the normalized wavepacket, offset by ``read_start_ns``.
    ``background_per_ns`` adds uncorrelated counts on every channel.
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
        if self.window_ns < 2:
            bad.append("window_ns")
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


def synthesize_log(params: ReadoutParams, design: SynthDesign, seed) -> EventStore:
    """Generate a detection log from the closed-form wavepacket.

    A heralded emission lands in each 1 ns bin of the read window with the
    model's exact probability (``_emission_cdf``).  Each channel's
    background is one Poisson(background_per_ns window_ns n_trials) total
    spread uniformly over trials and times: an independent Poisson count
    per trial.  Deterministic for a fixed seed (fixed draw order: heralds,
    herald channels, emissions, emission times, field-2 channels, then
    backgrounds channel by channel).  Raises ModelError if the integrated
    wavepacket exceeds 1, which would make the emission draw inconsistent.
    """
    rng = np.random.default_rng(seed)
    cdf = _emission_cdf(params, min(design.read_window_ns,
                                    design.window_ns - design.read_start_ns))
    total_pc = float(cdf[-1])
    if total_pc > 1.0:
        raise ModelError(f"integrated wavepacket P_c = {total_pc:.4g} > 1; "
                         "reduce scale_f or the sampling window")

    her_trials = np.flatnonzero(rng.random(design.n_trials) < design.p1)
    her_chan = rng.integers(0, 2, her_trials.size).astype(np.int8)
    sig_trials = her_trials[rng.random(her_trials.size) < total_pc]
    u = rng.random(sig_trials.size) * total_pc
    t2 = design.read_start_ns + np.searchsorted(cdf, u, side="right")
    sig_chan = (2 + rng.integers(0, 2, sig_trials.size)).astype(np.int8)

    parts = [(her_trials, her_chan,
               np.full(her_trials.size, design.herald_t_ns, dtype=np.int64)),
             (sig_trials, sig_chan, t2)]
    lam = design.background_per_ns * design.window_ns * design.n_trials
    for code in range(4):
        tot = int(rng.poisson(lam))
        # sorted trials keep the store's argsort on nearly ordered keys
        parts.append((np.sort(rng.integers(0, design.n_trials, tot)),
                      np.full(tot, code, dtype=np.int8),
                      rng.integers(0, design.window_ns, tot)))
    trial, channel, t_ns = (np.concatenate(col) for col in zip(*parts))
    return _sorted_store(trial, channel, t_ns, design.n_trials,
                         design.window_ns, 0, [], warn_duplicates=False)


def _emission_cdf(params: ReadoutParams, n_ns):
    """P_c over the first 1, 2, ..., ``n_ns`` ns, in one ``pc_integral``
    call, made nondecreasing: late increments can fall below rounding."""
    return np.maximum.accumulate(pc_integral(params, np.arange(1, n_ns + 1) * 1e-3))
