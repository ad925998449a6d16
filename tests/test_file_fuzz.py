"""Seeded fuzzing of the data-file readers.

Each reader gets valid files mutated by truncation, dropped fields and
edge values; it must either parse the result or raise ``FileFormatError``
(which the CLI turns into exit code 3), never any other exception.
"""

import os
import random
import re

import pytest

from uwbloc.calibration import CalibrationModel, LinearRangingEq, ModelKind, read_calibration, write_calibration
from uwbloc.errors import FileFormatError
from uwbloc.evaluation import load_reference_report, read_report, write_report
from uwbloc.fingerprint import GridSpec, build_db, read_db, write_db
from uwbloc.geometry import DEFAULT_ANCHORS, PointMM
from uwbloc.simulator import Visits, read_measurements, write_measurements

EDGE_VALUES = ["nan", "inf", "-1", "0", "1e309", "", "1_0"]

MODEL = CalibrationModel(
    ModelKind.TWO, LinearRangingEq(1.02, 31.5), LinearRangingEq(0.98, 12.25), LinearRangingEq(1.0, 0.0)
)

# kind -> (writer of one valid file, reader)
FILES = {
    "measurements": (
        lambda path: write_measurements(path, [
            Visits(PointMM(250.0, 500.0), [[560.1, 1520.7, 905.3]]),
            Visits(PointMM(750.0, 1500.0), [[1675.2, 900.4, 1580.9]]),
        ]),
        read_measurements,
    ),
    "calibration": (lambda path: write_calibration(path, MODEL), read_calibration),
    "db": (lambda path: write_db(path, build_db(MODEL, GridSpec(50.0, 100.0, 25.0), DEFAULT_ANCHORS)),
           read_db),
    "report": (lambda path: write_report(path, load_reference_report("ml_avg_ratio100")), read_report),
}


def _mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        fields = lines[i].split(",")
        j = rng.randrange(len(fields))
        if rng.random() < 0.3:
            del fields[j]
        else:
            fields[j] = rng.choice(EDGE_VALUES)
        lines[i] = ",".join(fields)
    text = "\n".join(lines) + "\n"
    if rng.random() < 0.3:
        text = text[: rng.randrange(len(text))]
    return text


@pytest.mark.parametrize("kind", sorted(FILES))
def test_fuzzed_files_raise_only_file_format_error(tmp_path, kind):
    write, read = FILES[kind]
    path = str(tmp_path / f"{kind}.csv")
    write(path)
    with open(path, encoding="utf-8") as fh:
        valid = fh.read()
    read(path)
    rng = random.Random(f"fuzz-{kind}")
    for _ in range(300):
        # a fresh file each time: ext4 flushes a truncated file to disk on close, tens of ms
        os.remove(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_mutate(valid, rng))
        try:
            read(path)
        except FileFormatError:
            pass


# a numeric field on the last line of each kind of file; Python's float and int
# read "1_0" there as 10, and each of these fields would take 10 without complaint
SEPARATOR_FIELD = {"calibration": 1, "db": 3, "measurements": 0, "report": 2}


@pytest.mark.parametrize("kind", sorted(FILES))
def test_digit_separator_is_a_file_format_error(tmp_path, kind):
    write, read = FILES[kind]
    path = str(tmp_path / f"{kind}.csv")
    write(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[-1].split(",")
    fields[SEPARATOR_FIELD[kind]] = "1_0"
    lines[-1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=f"{path}:{len(lines)}: .*'1_0'"):
        read(path)


@pytest.mark.parametrize("ranges, message", [
    ("nan,900.4,1580.9", "range must be finite, got nan"),
    ("1675.2,inf,1580.9", "range must be finite, got inf"),
    ("1675.2,900.4,-1", "range must be positive, got -1.0"),
    ("0,nan,1580.9", "range must be positive, got 0.0"),  # the first bad range decides
])
def test_bad_range_mid_file_names_its_line(tmp_path, ranges, message):
    path = str(tmp_path / "measurements.csv")
    write_measurements(path, [Visits(PointMM(250.0 * i, 500.0), [[560.1, 1520.7, 905.3]])
                              for i in range(5)])
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[3] = "750.0,500.0," + ranges
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=re.escape(f"{path}:4: {message}")):
        read_measurements(path)
