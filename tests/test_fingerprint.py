import numpy as np
import pytest

from uwbloc import fingerprint
from uwbloc.calibration import CalibrationModel, LinearRangingEq, ModelKind
from uwbloc.errors import FileFormatError
from uwbloc.fingerprint import (
    DB_PREDICTION_FLOOR,
    DEFAULT_GRID,
    FingerprintDB,
    GridSpec,
    LabelOutOfRangeError,
    MAX_GRID_CELLS,
    build_db,
    cell_vertex,
    cell_vertices,
    read_db,
    write_db,
)
from uwbloc.geometry import DEFAULT_ANCHORS, NonFiniteRangeError

import oracles


IDENTITY_MODEL = CalibrationModel(
    ModelKind.ONE, LinearRangingEq(1.0, 0.0), LinearRangingEq(1.0, 0.0), LinearRangingEq(1.0, 0.0)
)


def test_default_grid_dimensions():
    assert DEFAULT_GRID.cols == 40
    assert DEFAULT_GRID.rows == 80
    assert DEFAULT_GRID.cell_count == 3200
    assert DEFAULT_GRID.spacing == 25.0


def test_grid_spec_rejects_non_divisible_area():
    with pytest.raises(ValueError):
        GridSpec(width=1010.0, height=2000.0, spacing=25.0)
    with pytest.raises(ValueError):
        GridSpec(width=1000.0, height=2000.0, spacing=-5.0)
    with pytest.raises(ValueError):  # width / spacing overflows to inf
        GridSpec(width=1000.0, height=2000.0, spacing=5e-324)
    with pytest.raises(ValueError, match="more than"):  # 2e9 cells, past MAX_GRID_CELLS
        GridSpec(width=1000.0, height=2000.0, spacing=0.001)
    assert GridSpec(width=1000.0, height=2000.0, spacing=1.0).cell_count <= MAX_GRID_CELLS
    # a side that rounds to 0 cells is within the divisibility tolerance, but no grid
    for width, spacing in ((5e-324, 25.0), (1e-8, 25.0), (1000.0, 1e308)):
        with pytest.raises(ValueError, match="positive whole multiple"):
            GridSpec(width=width, height=2000.0, spacing=spacing)


def test_cell_vertex_known_labels():
    assert cell_vertex(DEFAULT_GRID, 0).tolist() == [0.0, 0.0]
    assert cell_vertex(DEFAULT_GRID, 39).tolist() == [975.0, 0.0]
    # an array of labels keeps its shape; 1180 is col 20, row 29
    labels = np.array([[40, 3199], [39, 1180]])
    assert cell_vertex(DEFAULT_GRID, labels).tolist() == [
        [[0.0, 25.0], [975.0, 1975.0]], [[975.0, 0.0], [500.0, 725.0]],
    ]


def test_cell_vertex_rejects_bad_labels():
    with pytest.raises(LabelOutOfRangeError):
        cell_vertex(DEFAULT_GRID, -1)
    with pytest.raises(LabelOutOfRangeError):
        cell_vertex(DEFAULT_GRID, 3200)
    with pytest.raises(LabelOutOfRangeError, match=r"^label 3200 outside"):
        cell_vertex(DEFAULT_GRID, np.array([[0, 3199], [3200, -1]]))
    for labels in (3.0, [0.5, 1.0], np.array([True, False]), []):
        with pytest.raises(TypeError, match="labels must be integers"):
            cell_vertex(DEFAULT_GRID, labels)


def test_cell_vertices_match_cell_vertex():
    for spec in (DEFAULT_GRID, GridSpec(100.0, 150.0, 50.0), GridSpec(0.3, 0.7, 0.1)):
        want = [oracles.cell_vertex(spec, label).as_tuple() for label in range(spec.cell_count)]
        assert [tuple(v) for v in cell_vertices(spec).tolist()] == want
        labels = np.arange(spec.cell_count)
        assert [tuple(v) for v in cell_vertex(spec, labels).tolist()] == want


@pytest.mark.parametrize("spec", [DEFAULT_GRID, GridSpec(spacing=10.0), GridSpec(spacing=1.0),
                                  GridSpec(30.0, 70.0, 0.1)], ids=lambda s: f"{s.spacing}mm")
def test_cell_vertex_is_cell_vertices_indexed_bit_for_bit(spec):
    want = cell_vertices(spec)
    labels = np.arange(spec.cell_count)
    assert cell_vertex(spec, labels).tobytes() == want.tobytes()
    some = np.random.default_rng(8).integers(0, spec.cell_count, size=(6, 5), dtype=np.int32)
    assert cell_vertex(spec, some).tobytes() == want[some].tobytes()
    assert cell_vertex(spec, int(some[0, 0])).tobytes() == want[some[0, 0]].tobytes()


def test_build_db_applies_each_anchors_line_and_the_floor():
    # A's line gives 0.5 at its own vertex (label 0), which the floor lifts
    model = CalibrationModel(ModelKind.FOUR, LinearRangingEq(1.1, 0.5), LinearRangingEq(0.9, -3.0),
                             LinearRangingEq(1.02, 5.0))
    db = build_db(model, DEFAULT_GRID, DEFAULT_ANCHORS)
    want = [[max(eq.a * oracles.distance(oracles.cell_vertex(DEFAULT_GRID, label), p) + eq.b,
                 DB_PREDICTION_FLOOR)
             for eq, p in zip((model.eq_a, model.eq_b, model.eq_c), DEFAULT_ANCHORS.as_tuple())]
            for label in range(DEFAULT_GRID.cell_count)]
    assert db.vectors.tobytes() == np.array(want).tobytes()
    assert db.vectors[0, 0] == DB_PREDICTION_FLOOR


def test_build_db_rejects_a_distance_that_overflows():
    # the far vertices lie ~2.3e308 from every anchor, which is inf as a float
    spec = GridSpec(1.79e308, 1.79e308, 1.79e307)
    with pytest.raises(NonFiniteRangeError, match=r"^range must be finite, got inf$"):
        build_db(IDENTITY_MODEL, spec, DEFAULT_ANCHORS)


def test_build_db_identity_model_predicts_distances():
    db = build_db(IDENTITY_MODEL, DEFAULT_GRID, DEFAULT_ANCHORS)
    assert len(db) == 3200
    anchor_points = DEFAULT_ANCHORS.as_tuple()
    rng = np.random.default_rng(2)
    for label in rng.integers(0, 3200, size=64):
        v = oracles.cell_vertex(DEFAULT_GRID, int(label))
        got = db.vectors[int(label)]
        for ai in range(3):
            want = max(oracles.distance(v, anchor_points[ai]), DB_PREDICTION_FLOOR)
            assert got[ai] == want


def test_build_db_floors_anchor_coincident_vertices():
    # label 0 sits exactly on anchor A; a raw prediction of 0 would not be
    # a valid range, so the floor applies
    db = build_db(IDENTITY_MODEL, DEFAULT_GRID, DEFAULT_ANCHORS)
    assert db.vectors[0].tolist() == [DB_PREDICTION_FLOOR, 2000.0, 1000.0]


def test_fingerprint_db_validation():
    with pytest.raises(ValueError):
        FingerprintDB(DEFAULT_GRID, np.ones((10, 3)))
    with pytest.raises(ValueError):
        FingerprintDB(GridSpec(50.0, 50.0, 25.0), np.zeros((4, 3)))


def test_db_file_round_trip(tmp_path):
    spec = GridSpec(100.0, 150.0, 50.0)
    db = build_db(IDENTITY_MODEL, spec, DEFAULT_ANCHORS)
    path = tmp_path / "db.csv"
    write_db(str(path), db)
    back = read_db(str(path))
    assert back.spec == spec
    assert np.array_equal(back.vectors, db.vectors)
    # blank and whitespace-only lines are skipped
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2:2] = ["", "  "]
    path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
    assert np.array_equal(read_db(str(path)).vectors, db.vectors)


def test_db_file_bytes_across_write_slices(tmp_path, monkeypatch):
    # 3 x 5 cells written 4 at a time: slices end mid-row and on the last cell;
    # the reference formats every cell's label, vertex and fingerprint in turn
    spec = GridSpec(0.3, 0.5, 0.1)
    db = build_db(IDENTITY_MODEL, spec, DEFAULT_ANCHORS)
    lines = [f"{spec.spacing!r},{spec.width!r},{spec.height!r}"]
    for label, (vertex, vector) in enumerate(zip(cell_vertices(spec), db.vectors)):
        lines.append(",".join(map(repr, [label, *vertex.tolist(), *vector.tolist()])))
    monkeypatch.setattr(fingerprint, "WRITE_LINES", 4)
    path = tmp_path / "db.csv"
    write_db(str(path), db)
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_read_db_rejects_malformed_files(tmp_path):
    path = tmp_path / "db.csv"

    path.write_text("")
    with pytest.raises(FileFormatError):
        read_db(str(path))

    path.write_text("25.0,1000.0\n")
    with pytest.raises(FileFormatError, match="spacing,width,height"):
        read_db(str(path))

    path.write_text("1e-300,1000.0,2000.0\n")
    with pytest.raises(FileFormatError, match="more than"):
        read_db(str(path))

    path.write_bytes(b"25.0,50.0,\xff50.0\n")
    with pytest.raises(FileFormatError, match="not UTF-8 text at byte offset 10"):
        read_db(str(path))

    # labels out of order
    spec = GridSpec(50.0, 50.0, 25.0)
    lines = ["25.0,50.0,50.0"]
    for label in (0, 2, 1, 3):
        v = oracles.cell_vertex(spec, label)
        lines.append(f"{label},{v.x!r},{v.y!r},10.0,10.0,10.0")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="expected label"):
        read_db(str(path))

    # vertex does not match the label
    lines = ["25.0,50.0,50.0", "0,25.0,0.0,10.0,10.0,10.0"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="does not match"):
        read_db(str(path))

    # a row past the last cell
    lines = ["25.0,50.0,50.0"] + [f"{i},{x!r},{y!r},10.0,10.0,10.0"
                                  for i, (x, y) in enumerate(cell_vertices(spec).tolist())]
    path.write_text("\n".join(lines + ["4,0.0,50.0,10.0,10.0,10.0"]) + "\n")
    with pytest.raises(FileFormatError, match=f"^{path}:6: grid only has 4 cells$"):
        read_db(str(path))

    # truncated grid
    lines = ["25.0,50.0,50.0", "0,0.0,0.0,10.0,10.0,10.0"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="cells found"):
        read_db(str(path))

    # a fingerprint that is not a valid range
    for bad in ("nan", "0.0", "-1.0"):
        lines = ["25.0,50.0,50.0"] + [f"{i},{x!r},{y!r},10.0,10.0,{bad if i == 2 else '10.0'}"
                                      for i, (x, y) in enumerate(cell_vertices(spec).tolist())]
        path.write_text("\n".join(lines) + "\n")
        rule = "finite" if bad == "nan" else "positive"
        with pytest.raises(FileFormatError, match=f"{path}: range must be {rule}, got {float(bad)}$"):
            read_db(str(path))
