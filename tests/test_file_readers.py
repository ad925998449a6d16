"""The file readers and writers against their one-line-at-a-time oracles, and the writers' GC pin.

``read_measurements`` converts a file's lines in one ``np.loadtxt`` call and
reads the whole file again line by line only when numpy rejects it or a value
is off. On every file, valid or not, it must return what the per-line reader
in ``tests/oracles.py`` returns, or raise the same exception with the same
message, and it must not cost more memory. The DB and measurement writers
must write the bytes of their f-string oracles, and neither may set off the
garbage collector.
"""

import gc
import random
import tracemalloc

import numpy as np
import oracles
import pytest
from test_file_fuzz import MODEL, _mutate

from uwbloc import fingerprint, simulator
from uwbloc.config import load_config
from uwbloc.errors import WRITE_LINES
from uwbloc.fingerprint import FingerprintDB, GridSpec, build_db, write_db
from uwbloc.geometry import DEFAULT_ANCHORS, PointMM
from uwbloc.simulator import (
    MEASUREMENT_HEADER, Visits, read_measurements, simulate_campaign, write_measurements,
)

READING = "560.1,1520.7,905.3"


def _outcome(read, path):
    """What ``read`` makes of ``path``, in a form two readers can be compared by."""
    try:
        records = read(path)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    # repr keeps the sign of a zero, which PointMM equality ignores
    return [(repr(r.location.x), repr(r.location.y), r.ranges.shape, r.ranges.tobytes()) for r in records]


def _same_outcome(tmp_path, text):
    path = tmp_path / "measurements.csv"
    # a fresh file each time: ext4 flushes a truncated file to disk on close, tens of ms
    path.unlink(missing_ok=True)
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(read_measurements, str(path))
    assert got == _outcome(oracles.read_measurements, str(path))
    return got


def _failed(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


def _measurement_text(n_rows):
    """``n_rows`` readings from seven locations, interleaved as rows go round them."""
    rng = np.random.default_rng(7)
    rows = [MEASUREMENT_HEADER]
    for i in range(n_rows):
        x, y = 125.0 * (i % 7), 250.0 * (i % 7 % 3)
        rows.append(",".join(repr(v) for v in (x, y, *rng.uniform(100.0, 2000.0, 3).tolist())))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("n_rows", [3, 785], ids=["small", "multi-slice"])
def test_mutated_files_read_as_the_oracle_reads_them(tmp_path, n_rows):
    valid = _measurement_text(n_rows)
    assert not _failed(_same_outcome(tmp_path, valid))
    rng = random.Random(f"differential-measurements-{n_rows}")
    messages = set()
    for _ in range(300):
        outcome = _same_outcome(tmp_path, _mutate(valid, rng))
        if _failed(outcome):
            messages.add(outcome[1].split(": ", 1)[1][:20])
    # the mutations reach more than a few kinds of error
    assert len(messages) >= 4, messages


def _join(lines, end="\n"):
    return end.join(lines) + end


@pytest.mark.parametrize("case", ["interleaved", "zeros", "blank lines", "blank lines, line by line",
                                  "crlf", "unicode digits", "header only", "no trailing newline",
                                  "mixed line breaks"])
def test_measurement_edge_cases(tmp_path, case):
    lines = _measurement_text(517).splitlines()
    if case == "zeros":
        # -0.0 first: the record keeps the first appearance's point
        lines[1:5] = [f"{x},{y},{READING}" for x, y in (("-0.0", "0.0"), ("0.0", "-0.0"),
                                                         ("375.0", "-0.0"), ("375.0", "0.0"))]
    elif case.startswith("blank lines"):
        lines[3:3] = ["", "   ", "\t"]
        lines[257:257] = [" "]
        lines.append("")
        if case.endswith("line by line"):  # a Unicode digit sends the file to the line reader
            lines[2] = "١٢٥.٠,٢٥٠,560.1,١٥٢٠.٧,905.3"
    elif case == "unicode digits":
        lines[2] = "١٢٥.٠,٢٥٠,560.1,١٥٢٠.٧,905.3"
        lines[259] = f"٢٥٠.0,٥٠٠,{READING}"
    elif case == "header only":
        lines = lines[:1]
    text = _join(lines, "\r\n" if case == "crlf" else "\n")
    if case == "no trailing newline":
        text = text.rstrip("\n")
    elif case == "mixed line breaks":
        text = text.replace("\n", "\r", 40).replace("\n", "\u2028", 40)
    records = _same_outcome(tmp_path, text)
    assert len(records) == (0 if case == "header only" else 7)
    if case == "zeros":
        assert [r[:2] for r in records[:2]] == [("-0.0", "0.0"), ("375.0", "-0.0")]


# numbers numpy's reader might read otherwise than float: signs, padding, bare points,
# words, hex, a cut exponent, Unicode digits, the digit separator, and U+001F, which
# numpy strips as whitespace and float does not
SPELLINGS = ["+1", " 1 ", "\t1", "1.", ".5", "Infinity", "-nan", "0x1p3", "1e", "١٢٥", "1_0",
             "\x1f1", "1\x1f"]


@pytest.mark.parametrize("spelling", SPELLINGS, ids=ascii)
@pytest.mark.parametrize("column", range(5))
def test_number_spellings_read_as_the_oracle_reads_them(tmp_path, spelling, column):
    lines = _measurement_text(20).splitlines()
    fields = lines[9].split(",")
    fields[column] = spelling
    lines[9] = ",".join(fields)
    _same_outcome(tmp_path, _join(lines))


# (line edit, the message it raises): each is caught by a different check
MEASUREMENT_ERRORS = {
    "fields": (lambda f: f[:4], "expected 5 fields, got 4"),
    "extra field": (lambda f: f + ["1.0"], "expected 5 fields, got 6"),
    "number": (lambda f: f[:2] + ["abc"] + f[3:], "could not convert string to float: 'abc'"),
    "separator": (lambda f: f[:3] + ["1_0"] + f[4:], "digit separator in number: '1_0'"),
    "coordinate": (lambda f: ["inf"] + f[1:], "coordinates must be finite, got (inf, "),
    "range": (lambda f: f[:4] + ["-1"], "range must be positive, got -1.0"),
    "nan range": (lambda f: f[:2] + ["nan"] + f[3:], "range must be finite, got nan"),
}
def _edit(lines, index, edit):
    lines[index] = ",".join(edit(lines[index].split(",")))


# line index pairs (earlier, later): neighbours, a few lines apart and hundreds apart; the
# keys, which name the tests, recall the 256-line slices an earlier reader converted at once
POSITIONS = {"next line": (5, 6), "one slice": (5, 9), "slice boundary": (256, 257),
             "later slice": (263, 514)}


@pytest.mark.parametrize("where", sorted(POSITIONS))
def test_earlier_of_two_bad_lines_wins(tmp_path, where):
    valid = _measurement_text(785).splitlines()
    early, late = POSITIONS[where]
    for first, (edit1, message) in MEASUREMENT_ERRORS.items():
        for edit2, _ in MEASUREMENT_ERRORS.values():
            lines = list(valid)
            _edit(lines, early, edit1)
            _edit(lines, late, edit2)
            _, text = _same_outcome(tmp_path, _join(lines))
            assert text.startswith(f"{tmp_path / 'measurements.csv'}:{early + 1}: {message}"), (first, text)


def _dense_files(tmp_path):
    """The 20,000-cell DB of a 10 mm grid and the default 5,000-reading campaign, written."""
    db = build_db(MODEL, GridSpec(spacing=10.0), DEFAULT_ANCHORS)
    records = simulate_campaign(load_config(None).campaign())
    assert len(db) == 20_000 and sum(len(r.ranges) for r in records) == 5_000
    return db, records, str(tmp_path / "db.csv"), str(tmp_path / "measurements.csv")


def _same_bytes(write, oracle, path, data):
    write(path, data)
    with open(path, "rb") as fh:
        got = fh.read()
    oracle(path, data)
    with open(path, "rb") as fh:
        assert got == fh.read()


def test_dense_files_match_the_oracle_writers(tmp_path):
    db, records, db_path, m_path = _dense_files(tmp_path)
    # 20 slices of cells, and records of 100 readings that straddle slice ends
    assert len(db) > 10 * WRITE_LINES and WRITE_LINES % len(records[0].ranges)
    _same_bytes(write_db, oracles.write_db, db_path, db)
    _same_bytes(write_measurements, oracles.write_measurements, m_path, records)


# floats that take repr's own path (see errors.float_text), amid ones that do not
FALLBACK_VALUES = [0.5, 1e-5, 2.0**53, 1e300]


@pytest.mark.parametrize("lines", [WRITE_LINES, 3])
def test_files_that_mix_fast_and_fallback_floats_match_the_oracles(tmp_path, monkeypatch, lines):
    monkeypatch.setattr(fingerprint, "WRITE_LINES", lines)
    monkeypatch.setattr(simulator, "WRITE_LINES", lines)
    spec = GridSpec(50.0, 100.0, 25.0)
    vectors = build_db(MODEL, spec, DEFAULT_ANCHORS).vectors
    vectors.ravel()[::2][:len(FALLBACK_VALUES)] = FALLBACK_VALUES
    _same_bytes(write_db, oracles.write_db, str(tmp_path / "db.csv"), FingerprintDB(spec, vectors))
    records = [Visits(PointMM(-0.0, 0.5), vectors[:5]), Visits(PointMM(1e-7, 2.0**60), np.empty((0, 3))),
               Visits(PointMM(12.5, 3.0), vectors[::-1])]
    _same_bytes(write_measurements, oracles.write_measurements, str(tmp_path / "meas.csv"), records)
    _same_bytes(write_measurements, oracles.write_measurements, str(tmp_path / "empty.csv"), [])


def test_writers_set_off_no_garbage_collection(tmp_path):
    db, records, db_path, m_path = _dense_files(tmp_path)
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        write_db(db_path, db)
        write_measurements(m_path, records)
    finally:
        gc.callbacks.remove(count)
    assert collections == []


def _peak_bytes(read, path):
    gc.collect()
    tracemalloc.start()
    try:
        read(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_peaks_no_higher_than_the_oracle(tmp_path):
    _, records, _, path = _dense_files(tmp_path)
    write_measurements(path, records)
    assert _peak_bytes(read_measurements, path) <= _peak_bytes(oracles.read_measurements, path)
