"""Chunked ingest and vectorised write against their line-by-line oracles.

``ingest`` parses lines of the strict grammar as arrays, the only parse
that keeps an event, and sends every other line to the per-line validator,
which says why the line is rejected; ``write_log`` renders rows as arrays.
Both run their array work on a thread pool through ``counting._in_order``.
These tests hold both, on pools of one and of three workers, to
``tests/ingest_oracle.py``: a line-by-line reader of the log's grammar and
the f-string writer, and test ``_in_order`` itself.
"""

import tempfile
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ingest_oracle import CHANNELS, log_file, oracle_ingest, oracle_write
from qmemread import (EventStore, ParamError, ReadoutParams, SynthDesign,
                      counting, ingest, synthesize_log, write_log)

WINDOW = 100
# the packed sort key (trial * span + t) * 4 + channel overflows int64 for
# 15-digit trials and span = BIG_WINDOW, so the sort must fall back to lexsort
BIG_TRIAL = 10 ** 14
BIG_WINDOW = 200_000
# pool sizes every result must be the same for
WORKERS = (1, 3)


def _outcome(fn):
    """(result, warning messages), or the exception type raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn()
        except Exception as exc:            # compared, not swallowed
            return type(exc)
    return result, [str(w.message) for w in caught]


def _as_tuple(store):
    return (store.trial, store.channel, store.t_ns, store.n_trials,
            store.n_duplicates, store.n_rejected_channel, store.parse_errors,
            store.n_records, store.parse_errors_by_reason())


def _workers(n):
    """Patch the CPU count that sizes the counting pools to ``n``."""
    return mock.patch.object(counting, "_usable_cpus", lambda: n)


def assert_same_as_oracle(source_for, n_trials, window=WINDOW):
    """Ingest a fresh source from ``source_for()`` with the oracle and with
    the program on each pool size of WORKERS, and compare everything they
    report."""
    want = _outcome(lambda: oracle_ingest(source_for(), n_trials, window))
    for workers in WORKERS:
        with _workers(workers):
            got = _outcome(
                lambda: _as_tuple(ingest(source_for(), n_trials, window)))
        if isinstance(want, type):
            assert got is want
            continue
        (trial, channel, t_ns, *counts), got_warn = got
        (w_trial, w_channel, w_t_ns, *w_counts), want_warn = want
        assert trial.dtype == np.int64 and t_ns.dtype == np.int64
        assert channel.dtype == np.int8
        assert np.array_equal(trial, w_trial)
        assert np.array_equal(channel, w_channel)
        assert np.array_equal(t_ns, w_t_ns)
        # n_trials, duplicates, unknown channels, errors, records, and the
        # errors by reason
        assert counts == w_counts
        assert got_warn == want_warn


def lexsort_calls(path, n_trials, window):
    """The np.lexsort calls of one ingest on each pool size of WORKERS."""
    calls = []
    for workers in WORKERS:
        with _workers(workers), warnings.catch_warnings(), \
                mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            warnings.simplefilter("ignore")
            ingest(path, n_trials, window)
        calls.append(lexsort.call_count)
    return calls


_valid = st.builds(lambda tr, ch, t: f"{tr},{ch},{t}",
                   st.integers(0, 60), st.sampled_from(CHANNELS),
                   st.integers(0, WINDOW - 1))
_zero_padded = st.builds(lambda tr, ch, t: f"{tr:04d},{ch},{t:05d}",
                         st.integers(0, 60), st.sampled_from(CHANNELS),
                         st.integers(0, WINDOW - 1))
_anomaly = st.one_of(
    st.sampled_from(["5,F1A", "5,F1A,3,0", "5", ",,", "5,F1A,"]),   # fields
    st.sampled_from(["5.5,F1A,3", "x,F1A,3", "5,F1A,3e1", "0x5,F1A,3"]),
    st.sampled_from(["+5,F1A,3", "5,F1A,+3", " 12 ,F2B,3", "12, F1B ,3",
                     "12,F1A, 7", "1_000,F1A,3", "1,F1A,1_0"]),
    st.builds(lambda tr: f"-{tr},F1A,3", st.integers(0, 9)),
    st.builds(lambda t: f"5,F2A,{t}", st.integers(WINDOW, 3 * WINDOW)),
    st.sampled_from(["5,F3A,3", "5,f1a,3", "5,F1,3", "5,F1AB,3", "5,XYZ,3"]),
    st.builds(lambda tr: f"{tr},F1B,4", st.integers(60, 99)),  # >= n_trials
    st.sampled_from(["", "   ", "\t"]),
    st.sampled_from(['"5",F1A,3', '5,"F1A",3', '"5,F1A",3', '5,"F1\nA",3',
                     '5,"F2B,3', '"x""y",F1A,3', '5,F1A,"3"']),
    st.builds(lambda tr: f"{tr},F2A,7",                  # 16+ digits
              st.integers(10 ** 15, 10 ** 18)
              | st.sampled_from([2 ** 63 - 1, 2 ** 63,
                                 10 ** 19 - 1, 10 ** 19])),
    st.builds(lambda d, t: f"{d},F1A,{t}",
              st.sampled_from(["٣", "１２"]),       # non-ASCII digits
              st.integers(0, 9)),
)
_line = st.one_of(_valid, _valid, _valid, _zero_padded, _anomaly)
# bytes that are not UTF-8, carried in str as surrogate escapes
_undecodable = st.sampled_from(["2,F1\udcffA,7", "2,F1A,7\udce9", "\udcff",
                                "5,\udcc3,3", "\udce2\udc82,F1A,3",
                                '5,"F1\udcffA",3', "\udcff7,F2B,3"])


@st.composite
def logs(draw):
    """(lines, terminators): line texts, some holding surrogate escapes,
    and the ending of each (a newline, CRLF or a bare CR); the last may
    have none.  Valid rows repeat often enough to make duplicates."""
    lines = draw(st.lists(st.one_of(_line, _undecodable), max_size=40))
    pool = [ln for ln in lines if ln]
    lines += draw(st.lists(st.sampled_from(pool), max_size=6)) if pool else []
    lines = draw(st.permutations(lines))
    if draw(st.booleans()):
        lines = ["trial,channel,t_ns"] + lines
    terms = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if terms and draw(st.booleans()):
        terms[-1] = ""                      # no final newline
    return lines, terms


_CHUNKS = st.sampled_from([1, 2, 3, 5, 8, 13, 21, 64, 1 << 22])
_N_TRIALS = st.sampled_from([None, 50])


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(log=logs(), chunk=_CHUNKS, n_trials=_N_TRIALS)
    def test_file(self, log, chunk, n_trials):
        data = "".join(ln + end for ln, end in zip(*log)).encode(
            "utf-8", "surrogateescape")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.csv"
            path.write_bytes(data)
            with mock.patch.object(counting, "_CHUNK_BYTES", chunk):
                assert_same_as_oracle(lambda: path, n_trials)

    @pytest.mark.parametrize("data", [b"", b"trial,channel,t_ns\n",
                                      b"trial,channel,t_ns"])
    def test_empty_and_header_only(self, tmp_path, data):
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        assert_same_as_oracle(lambda: path, None)
        store = ingest(path)
        assert len(store) == 0 and store.n_trials == 0
        assert store.parse_errors == []

    @pytest.mark.parametrize("n_trials", [None, BIG_TRIAL + 5])
    def test_key_overflow_falls_back_to_lexsort(self, n_trials):
        last = BIG_WINDOW - 1
        lines = [f"{BIG_TRIAL + 1},F1A,0", f"{BIG_TRIAL},F2B,{last}",
                 "3,F1B,7", f"{BIG_TRIAL},F1A,{last}",
                 f"{BIG_TRIAL + 1},F1A,0", f"{BIG_TRIAL},F1A,0"]
        with log_file(lines) as path:
            assert_same_as_oracle(lambda: path, n_trials, BIG_WINDOW)
            with pytest.warns(UserWarning, match="1 duplicate"), \
                    mock.patch.object(np, "lexsort",
                                      wraps=np.lexsort) as lexsort:
                store = ingest(path, n_trials, BIG_WINDOW)
        assert lexsort.call_count == 1
        assert store.trial.tolist() == [3, BIG_TRIAL, BIG_TRIAL, BIG_TRIAL,
                                        BIG_TRIAL + 1]
        assert store.t_ns.tolist() == [7, 0, last, last, 0]
        assert store.channel.tolist() == [1, 0, 0, 3, 0]

    def test_fifteen_digit_trials_pack_at_the_default_window(self):
        # the largest key, 4 * 1500 * 10**15 - 1, fits in int64 without
        # n_trials, so a 15-digit trial takes the packed path
        top = 10 ** 15 - 1
        lines = [f"{top},F2B,1499", "0,F1A,0", f"{top},F1A,1499",
                 f"{top},F2B,1499", f"{top - 1},F2A,20"]
        with log_file(lines) as path:
            assert_same_as_oracle(lambda: path, None, 1500)
            assert lexsort_calls(path, None, 1500) == [0] * len(WORKERS)
            with pytest.warns(UserWarning, match="1 duplicate"):
                store = ingest(path)
        assert store.n_trials == 10 ** 15
        assert store.trial.tolist() == [0, top - 1, top, top]

    @pytest.mark.parametrize("window", [2 ** 18, BIG_WINDOW])
    @pytest.mark.parametrize("past", [0, 1])
    def test_largest_trial_count_that_packs(self, window, past):
        # up to n_trials = 2**61 // window every key 4 * window * n_trials
        # - 1 at most fits in int64 (at 2**18 the last one is 2**63 - 1);
        # one trial more, and the sort falls back to lexsort
        most = 2 ** 61 // window
        lines = [f"{most - 1},F2B,{window - 1}", "0,F1A,0",
                 f"{most},F1A,0", f"{most - 1},F1A,{window - 1}",
                 f"{most - 1},F2B,{window - 1}"]
        with log_file(lines) as path:
            assert_same_as_oracle(lambda: path, most + past, window)
            assert lexsort_calls(path, most + past, window) == [past] * len(
                WORKERS)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_clean_log_sends_only_the_header_to_the_validator(
            self, tmp_path, monkeypatch, newline):
        params = ReadoutParams.from_user_units(
            delta_mhz=1.7, chi=2.7, gamma_deph_mhz=1.55, scale_f=4.1,
            i_r_mw_cm2=95.0, i_sat_mw_cm2=12.0)
        design = SynthDesign(n_trials=20_000, p1=0.05, background_per_ns=2e-4)
        store = synthesize_log(params, design, seed=5)
        path = tmp_path / "log.csv"
        write_log(store, path)
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        seen = []
        check_row = counting._check_row

        def counted(row, lineno, *args):
            seen.append((lineno, row))
            return check_row(row, lineno, *args)

        monkeypatch.setattr(counting, "_check_row", counted)
        back = ingest(path, n_trials=design.n_trials)
        assert seen == [(1, ["trial", "channel", "t_ns"])]
        assert len(back) == len(store) > 10_000
        assert (back.n_records, back.n_validated) == (len(store) + 1, 1)

    def test_validator_runs_on_the_calling_thread(self, monkeypatch):
        # every third line is signed, so the vectorised parse leaves it to
        # the validator, which rejects it; 64-byte chunks spread them over
        # many pool tasks
        lines = [f"+{i},F1B,3" if i % 3 == 0 else f"{i},F2A,{i % WINDOW}"
                 for i in range(300)]
        parsers, validators = set(), set()
        strict_chunk, check_row = counting._strict_chunk, counting._check_row

        def parse(*args):
            parsers.add(threading.current_thread())
            return strict_chunk(*args)

        def judge(*args):
            validators.add(threading.current_thread())
            return check_row(*args)

        monkeypatch.setattr(counting, "_strict_chunk", parse)
        monkeypatch.setattr(counting, "_check_row", judge)
        monkeypatch.setattr(counting, "_CHUNK_BYTES", 64)
        with _workers(3), log_file(lines) as path:
            store = ingest(path, None, WINDOW)
        assert validators == {threading.current_thread()}
        assert parsers and threading.current_thread() not in parsers
        assert (len(store), store.n_records, store.n_validated) == (200, 300,
                                                                    100)
        assert store.parse_errors_by_reason()["non_integer"] == 100

    @pytest.mark.parametrize("n_trials", [None, 50])
    def test_trial_beyond_int64_is_a_parse_error(self, n_trials):
        # a trial of 16 digits or more is not an integer of the grammar
        lines = ["9223372036854775808,F1A,5", "3,F1B,7",
                 f"{10 ** 19},F2A,7", f"{2 ** 63 - 1},F2B,7",
                 f"{10 ** 15},F1A,7", f"{10 ** 15 - 1},F2B,7"]
        with log_file(lines) as path:
            assert_same_as_oracle(lambda: path, n_trials)
            store = ingest(path, n_trials, WINDOW)
        assert store.trial.tolist() == ([3, 10 ** 15 - 1] if n_trials is None
                                        else [3])
        assert store.parse_errors[:4] == [(line, NON_INTEGER)
                                          for line in (1, 3, 4, 5)]
        assert store.parse_errors[4:] == ([] if n_trials is None else
                                          [(6, f"trial {10 ** 15 - 1} >= "
                                               "n_trials 50")])

    @pytest.mark.parametrize("key,value", [
        ("n_trials", 0), ("n_trials", -3),
        ("trial_window_ns", 0), ("trial_window_ns", -5)])
    def test_nonpositive_count_raises_before_reading(self, tmp_path, key,
                                                    value):
        kwargs = {"n_trials": 10, "trial_window_ns": WINDOW, key: value}
        with pytest.raises(ParamError) as info:
            ingest(tmp_path / "missing.csv", **kwargs)
        assert info.value.fields == (key,)

    @pytest.mark.parametrize("n_trials", [10 ** 150 + 1, int(1e200), 10 ** 400])
    def test_trial_count_beyond_1e150_raises_before_reading(self, tmp_path,
                                                            n_trials):
        # past it, p1 = 1/n_trials can square to 0, or n_trials overflow a
        # float, in the statistics
        with pytest.raises(ParamError) as info:
            ingest(tmp_path / "missing.csv", n_trials=n_trials)
        assert info.value.fields == ("n_trials",)

    def test_trial_count_of_1e150_is_read(self):
        with log_file(["0,F1A,20"]) as path:
            assert ingest(path, n_trials=10 ** 150).n_trials == 10 ** 150

    def test_window_beyond_int64_raises_before_reading(self):
        # read, the time >= 2**63 would pass the window check and overflow
        with log_file(["1,F1A,9999999999999999999"]) as path, \
                pytest.raises(ParamError) as info:
            ingest(path, trial_window_ns=10 ** 20)
        assert info.value.fields == ("trial_window_ns",)

    def test_window_of_2_63_keeps_every_int64_time(self):
        # every time of the grammar (15 digits) is an int64 below the window
        lines = [f"1,F1A,{10 ** 15 - 1}", f"1,F1B,{2 ** 63 - 1}",
                 f"1,F2A,{2 ** 63}"]
        with log_file(lines) as path:
            store = ingest(path, trial_window_ns=2 ** 63)
        assert store.t_ns.tolist() == [10 ** 15 - 1]
        assert store.parse_errors == [(2, NON_INTEGER), (3, NON_INTEGER)]


HEADER = b"trial,channel,t_ns\n"
NON_INTEGER = "non-integer trial or time"


# lines whose outcome the grammar decides: a quote is a byte like any
# other and a lone CR does not end a line; after the header at line 1
@pytest.mark.parametrize("body,events,rejected,errors,n_records", [
    (b'"5",F1A,3\n', [], 0, [(2, NON_INTEGER)], 2),
    (b'5,"F1A",3\n', [], 1, [], 2),
    (b'5,F1A,"3"\n', [], 0, [(2, NON_INTEGER)], 2),
    (b'5,"F2B,3\n6,F1A,4\n7,F2A,5\n', [(6, 0, 4), (7, 2, 5)], 1, [], 4),
    (b'5,"F1\nA",3\n', [], 0, [(2, "expected 3 fields, got 2"),
                               (3, "expected 3 fields, got 2")], 3),
    (b"0,F1A,20\r1,F1B,20\n", [], 0, [(2, "expected 3 fields, got 5")], 2),
    (b"2,F2A,7\r\n", [(2, 2, 7)], 0, [], 2)],
    ids=["quoted-trial", "quoted-channel", "quoted-time", "unmatched-quote",
         "quote-spanning-newline", "lone-cr", "crlf"])
def test_line_grammar(tmp_path, body, events, rejected, errors, n_records):
    path = tmp_path / "log.csv"
    path.write_bytes(HEADER + body)
    for workers in WORKERS:
        for chunk in (4, 1 << 22):
            with _workers(workers), \
                    mock.patch.object(counting, "_CHUNK_BYTES", chunk):
                store = ingest(path, None, WINDOW)
            assert list(zip(store.trial.tolist(), store.channel.tolist(),
                            store.t_ns.tolist())) == events
            assert store.n_rejected_channel == rejected
            assert store.parse_errors == errors
            assert store.n_records == n_records


# lines that Python's int() read as events before the grammar had one
# acceptor; at line 2, between the header and an event line
@pytest.mark.parametrize("line,errors,rejected", [
    ("+5,F1A,3", [(2, NON_INTEGER)], 0),
    ("5,F1A,+3", [(2, NON_INTEGER)], 0),
    (" 12 ,F2B,3", [(2, NON_INTEGER)], 0),
    ("12,F1A, 7", [(2, NON_INTEGER)], 0),
    ("1_000,F1A,3", [(2, NON_INTEGER)], 0),
    ("1,F1A,1_0", [(2, NON_INTEGER)], 0),
    ("\u0663,F1A,5", [(2, NON_INTEGER)], 0),
    ("\uff11\uff12,F1A,5", [(2, NON_INTEGER)], 0),
    ("1234567890123456,F1A,3", [(2, NON_INTEGER)], 0),
    ("0000000000000000007,F1A,3", [(2, NON_INTEGER)], 0),
    ("5,F1A,0000000000000000003", [(2, NON_INTEGER)], 0),
    ("12, F1B ,3", [], 1),
    ("-0,F1A,3", [(2, "negative trial index")], 0),
    ("5,F1A,-0", [(2, f"time 0 outside trial window [0, {WINDOW})")], 0)],
    ids=["signed-trial", "signed-time", "spaced-trial", "spaced-time",
         "underscore-trial", "underscore-time", "arabic-indic-digit",
         "fullwidth-digits", "16-digit-trial", "19-digit-padded-trial",
         "19-digit-padded-time", "spaced-channel", "minus-zero-trial",
         "minus-zero-time"])
def test_int_grammar_lines_are_rejected(tmp_path, line, errors, rejected):
    path = tmp_path / "log.csv"
    path.write_bytes(HEADER + f"{line}\n7,F2A,9\n".encode())
    assert_same_as_oracle(lambda: path, None)
    for workers in WORKERS:
        for chunk in (4, 1 << 22):
            with _workers(workers), \
                    mock.patch.object(counting, "_CHUNK_BYTES", chunk):
                store = ingest(path, None, WINDOW)
            assert list(zip(store.trial.tolist(), store.channel.tolist(),
                            store.t_ns.tolist())) == [(7, 2, 9)]
            assert store.n_trials == 8
            assert store.parse_errors == errors
            assert store.n_rejected_channel == rejected
            assert (store.n_records, store.n_validated) == (3, 2)


def test_stray_quote_rejects_its_line_alone(tmp_path):
    # the quote opened a csv record that swallowed the rest of the log:
    # past 128 KB, csv's field limit ended the ingest with an error
    params = ReadoutParams.from_user_units(
        delta_mhz=1.7, chi=2.7, gamma_deph_mhz=1.55, scale_f=4.1,
        i_r_mw_cm2=95.0, i_sat_mw_cm2=12.0)
    store = synthesize_log(params, SynthDesign(n_trials=20_000, p1=0.05,
                                               background_per_ns=2e-4), seed=5)
    path = tmp_path / "log.csv"
    write_log(store, path)
    lines = path.read_bytes().split(b"\n")
    lines[10] = b'"' + lines[10]                # line 11: the 10th event
    path.write_bytes(b"\n".join(lines))
    assert path.stat().st_size >= 200_000
    back = ingest(path, n_trials=store.n_trials)
    for column in ("trial", "channel", "t_ns"):
        assert np.array_equal(getattr(back, column),
                              np.delete(getattr(store, column), 9))
    assert back.parse_errors == [(11, NON_INTEGER)]
    assert back.n_records == len(store) + 1


class TestInOrder:
    """``_in_order`` yields in task order, bounds the tasks in flight and
    raises a task's exception at that task's position."""

    @staticmethod
    def _run(workers, n, fail_at=None):
        """Consume ``_in_order`` over ``n`` tasks that finish out of order;
        return (results, most tasks drawn ahead of the consumer, error)."""
        drawn = 0

        def tasks():
            nonlocal drawn
            for i in range(n):
                drawn += 1
                yield i, 0.004 * ((5 * i) % 7)      # later tasks often faster

        def task(i, delay):
            time.sleep(delay)
            if i == fail_at:
                raise KeyError(i)
            return i * i

        got, ahead, error = [], 0, None
        with _workers(workers):
            try:
                for i, result in enumerate(counting._in_order(task, tasks())):
                    ahead = max(ahead, drawn - i)
                    got.append(result)
            except KeyError as exc:
                error = exc.args[0]
        return got, ahead, error

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_task_order_and_bound(self, workers):
        got, ahead, error = self._run(workers, 20)
        assert got == [i * i for i in range(20)] and error is None
        # the result being taken counts as in flight
        assert ahead == 2 * workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("fail_at", [0, 4, 11])
    def test_exception_at_its_position(self, workers, fail_at):
        got, _ahead, error = self._run(workers, 12, fail_at)
        assert got == [i * i for i in range(fail_at)] and error == fail_at

    def test_empty(self):
        assert list(counting._in_order(pow, iter([]))) == []


_stores = st.lists(
    st.tuples(st.integers(0, 10 ** 14), st.integers(0, 3),
              st.integers(0, WINDOW - 1)), max_size=60)


def _store(rows, window=WINDOW):
    rows = sorted(set(rows), key=lambda r: (r[0], r[2], r[1]))
    cols = np.array(rows, dtype=np.int64).reshape(-1, 3)
    n_trials = int(cols[-1, 0]) + 1 if rows else 0
    return EventStore(trial=cols[:, 0], channel=cols[:, 1].astype(np.int8),
                      t_ns=cols[:, 2], n_trials=n_trials,
                      trial_window_ns=window)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(rows=_stores, chunk=_CHUNKS, block=st.sampled_from([1, 7, 100_000]))
    @example(rows=[], chunk=1 << 22, block=100_000)
    @example(rows=[(0, c, 0) for c in range(4)]
             + [(10 ** 14, c, WINDOW - 1) for c in range(4)],
             chunk=1 << 22, block=100_000)
    def test_write_then_ingest_is_identity(self, rows, chunk, block):
        store = _store(rows)
        want = oracle_write(store.trial, store.channel, store.t_ns)
        for workers in WORKERS:
            with tempfile.TemporaryDirectory() as tmp, _workers(workers):
                path = Path(tmp) / "log.csv"
                with mock.patch.object(counting, "_WRITE_ROWS", block):
                    write_log(store, path)
                assert path.read_bytes() == want
                with mock.patch.object(counting, "_CHUNK_BYTES", chunk):
                    back = ingest(path, n_trials=store.n_trials or None,
                                  trial_window_ns=WINDOW)
            assert np.array_equal(back.trial, store.trial)
            assert np.array_equal(back.channel, store.channel)
            assert np.array_equal(back.t_ns, store.t_ns)
            assert back.n_trials == store.n_trials
            assert (back.parse_errors, back.n_duplicates,
                    back.n_rejected_channel) == ([], 0, 0)
            assert (back.n_records, back.n_validated) == (len(store) + 1, 1)

    def test_writer_signs_and_int64_extremes(self, tmp_path):
        # no program store holds these; the writer still prints them as
        # the f-string did
        trial = np.array([-(2 ** 63), -5, 0, 9, 2 ** 63 - 1], dtype=np.int64)
        t_ns = np.array([0, -1, 10 ** 18, -999, 1000], dtype=np.int64)
        channel = np.array([0, 1, 2, 3, -1], dtype=np.int8)
        store = EventStore(trial=trial, channel=channel, t_ns=t_ns,
                           n_trials=1)
        write_log(store, tmp_path / "log.csv")
        assert ((tmp_path / "log.csv").read_bytes()
                == oracle_write(trial, channel, t_ns))
