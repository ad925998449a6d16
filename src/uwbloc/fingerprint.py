"""The fingerprint grid: cell labels, vertices, and the predicted-range DB.

The test area is cut into square cells. Each cell is identified by the
integer label of its lower-left vertex, counted row-major from the
origin with x varying fastest. The fingerprint of a cell is the triple
of measured distances the calibration model predicts for its vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationModel
from .errors import (
    WRITE_LINES, FileFormatError, at_line, float_text, int_text,
    parse_number, read_text, text_lines,
)
from .geometry import AnchorLayout, PointMM, check_ranges

__all__ = [
    "LabelOutOfRangeError",
    "OutOfAreaError",
    "GridSpec",
    "DEFAULT_GRID",
    "MAX_GRID_CELLS",
    "FingerprintDB",
    "cell_vertex",
    "cell_vertices",
    "build_db",
    "write_db",
    "read_db",
]

# Grid dimensions must divide into whole cells within this tolerance.
_DIVISIBILITY_TOL = 1e-9

# Predicted fingerprints are floored here (mm), mirroring the simulator's
# clamp; a vertex sitting exactly on an anchor would otherwise predict 0.
DB_PREDICTION_FLOOR = 1.0

#: Most cells a grid may have (~100 MB of fingerprints; fits the default area at 1 mm).
MAX_GRID_CELLS = 1 << 22


class LabelOutOfRangeError(ValueError):
    """A cell label does not exist on this grid."""


class OutOfAreaError(ValueError):
    """A point lies outside the test area."""


@dataclass(frozen=True)
class GridSpec:
    """Rectangular test area of ``width`` x ``height`` mm, ``spacing``-mm cells."""

    width: float = 1000.0
    height: float = 2000.0
    spacing: float = 25.0

    def __post_init__(self) -> None:
        for v in (self.width, self.height, self.spacing):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"grid dimensions must be positive, got {v}")
        for name, v in (("width", self.width), ("height", self.height)):
            ratio = v / self.spacing
            if not math.isfinite(ratio):
                raise ValueError(f"{name} {v} over spacing {self.spacing} overflows")
            if round(ratio) < 1 or abs(ratio - round(ratio)) > _DIVISIBILITY_TOL * max(1.0, ratio):
                raise ValueError(
                    f"{name} {v} is not a positive whole multiple of spacing {self.spacing}")
        if self.cell_count > MAX_GRID_CELLS:
            raise ValueError(f"grid has {self.cell_count} cells, more than {MAX_GRID_CELLS}")

    @property
    def cols(self) -> int:
        return round(self.width / self.spacing)

    @property
    def rows(self) -> int:
        return round(self.height / self.spacing)

    @property
    def cell_count(self) -> int:
        return self.cols * self.rows

    def check_inside(self, points: tuple[PointMM, ...]) -> None:
        """Reject the first point outside [0, width] x [0, height] (borders included)."""
        for p in points:
            if not p.is_within(self.width, self.height):
                raise OutOfAreaError(f"point {p.as_tuple()} outside the {self.width} x {self.height} mm area")


#: The 1 m x 2 m area at 25 mm spacing used throughout the reference setup.
DEFAULT_GRID = GridSpec()


def cell_vertex(spec: GridSpec, labels: int | np.ndarray) -> np.ndarray:
    """The lower-left vertex of each cell, i.e. the (x, y) position a label stands for."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise TypeError(f"labels must be integers, got {labels.dtype}")
    off_grid = labels[(labels < 0) | (labels >= spec.cell_count)]  # in row-major order
    if off_grid.size:
        raise LabelOutOfRangeError(f"label {off_grid[0]} outside [0, {spec.cell_count})")
    return np.stack((labels % spec.cols * spec.spacing, labels // spec.cols * spec.spacing), axis=-1)


def _grid_axes(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The x of every grid column and the y of every grid row."""
    return np.arange(spec.cols) * spec.spacing, np.arange(spec.rows) * spec.spacing


def cell_vertices(spec: GridSpec) -> np.ndarray:
    """Every cell's vertex: row ``label`` of a (cell_count, 2) array."""
    xs, ys = _grid_axes(spec)
    v = np.empty((spec.rows, spec.cols, 2))  # filled in place, to keep peak memory down
    v[..., 0] = xs
    v[..., 1] = ys[:, None]
    return v.reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class FingerprintDB:
    """Predicted range triples for every cell vertex, indexed by label."""

    spec: GridSpec
    vectors: np.ndarray  # shape (cell_count, 3), columns = anchors A, B, C

    def __post_init__(self) -> None:
        arr = np.asarray(self.vectors, dtype=float)
        if arr.shape != (self.spec.cell_count, 3):
            raise ValueError(f"expected shape {(self.spec.cell_count, 3)}, got {arr.shape}")
        check_ranges(arr)
        object.__setattr__(self, "vectors", arr)

    def __len__(self) -> int:
        return int(self.vectors.shape[0])


def build_db(model: CalibrationModel, spec: GridSpec, anchors: AnchorLayout) -> FingerprintDB:
    """Predict the measured range triple for every cell vertex.

    Fingerprints are the raw model predictions (the query-time correction
    is applied to live measurements, not to the DB), floored at
    ``DB_PREDICTION_FLOOR`` so every entry stays a valid range.
    """
    d = anchors.true_distances(cell_vertices(spec))
    eqs = (model.eq_a, model.eq_b, model.eq_c)
    d *= [eq.a for eq in eqs]  # in place, to keep peak memory down
    d += [eq.b for eq in eqs]
    return FingerprintDB(spec, np.maximum(d, DB_PREDICTION_FLOOR, out=d))


def write_db(path: str, db: FingerprintDB) -> None:
    """Write a DB file: grid header, then `label,x,y,fa,fb,fc` per cell."""
    s = db.spec
    # a c x r grid has only c + r distinct coordinates: format each once
    xs, ys = (np.array([repr(v).encode() for v in axis.tolist()]) for axis in _grid_axes(s))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{s.spacing!r},{s.width!r},{s.height!r}\n")
        # a slice of cells at a time, which bounds the text held in memory
        for start in range(0, len(db), WRITE_LINES):
            vectors = db.vectors[start:start + WRITE_LINES]
            labels = np.arange(start, start + vectors.shape[0])
            fa, fb, fc = float_text(vectors).reshape(labels.shape[0], 3, -1).transpose(1, 0, 2)
            fh.write(text_lines([int_text(labels), xs[labels % s.cols], ys[labels // s.cols], fa, fb, fc]))


def read_db(path: str) -> FingerprintDB:
    """Parse a DB file, checking labels arrive complete and in order."""
    lines = read_text(path).splitlines()
    if not lines:
        raise FileFormatError(f"{path}: empty DB file")
    head = lines[0].split(",")
    if len(head) != 3:
        raise FileFormatError(f"{path}:1: expected 'spacing,width,height'")
    with at_line(path, 1):
        spacing, width, height = (parse_number(v) for v in head)
        spec = GridSpec(width=width, height=height, spacing=spacing)

    vertices = cell_vertices(spec)
    vectors = np.empty((spec.cell_count, 3), dtype=float)
    seen = 0
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise FileFormatError(f"{path}:{ln}: expected 6 fields, got {len(parts)}")
        with at_line(path, ln):
            label = parse_number(parts[0], int)
            x, y, fa, fb, fc = (parse_number(p) for p in parts[1:])
        if label != seen:
            raise FileFormatError(f"{path}:{ln}: expected label {seen}, got {label}")
        if label >= spec.cell_count:
            raise FileFormatError(f"{path}:{ln}: grid only has {spec.cell_count} cells")
        if [x, y] != vertices[label].tolist():
            raise FileFormatError(f"{path}:{ln}: vertex ({x}, {y}) does not match label {label}")
        vectors[label] = (fa, fb, fc)
        seen += 1
    if seen != spec.cell_count:
        raise FileFormatError(f"{path}: {seen} cells found, grid needs {spec.cell_count}")
    with at_line(path):
        return FingerprintDB(spec, vectors)
