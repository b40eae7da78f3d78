import itertools
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chordspace import field as field_module
from chordspace.field import (
    ScalarField,
    export_csv,
    export_matrix,
    import_csv,
    interval_grid,
    local_minima,
    make_simplex_field,
    slice_field,
)
from chordspace.pitch import Chord
from chordspace.resolve import TransitiveConfig, transitive_field

import oracles


def _box_field(resolution, origins, counts, values, axis_names, value_name="v"):
    return ScalarField(
        resolution, tuple(map(float, origins)), tuple(counts), False, tuple(axis_names),
        values, value_name,
    )


def _triad_field(resolution=200):
    cells = oracles.interval_cells(3, resolution)
    # values chosen to be fixpoints of 6-decimal formatting
    values = [float(f"{x2 * 0.001 + x3 * 1e-6:.6f}") for x2, x3 in cells]
    return make_simplex_field(2, resolution, values, "value", {})


def test_simplex_cell_count_and_order():
    notes, rows = interval_grid(3, 400)
    assert notes.tolist() == [0.0, 4.0, 8.0, 12.0]
    assert rows.tolist() == [
        [0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 3],
        [0, 1, 1], [0, 1, 2], [0, 1, 3],
        [0, 2, 2], [0, 2, 3], [0, 3, 3],
    ]


def test_resolution_must_divide_octave():
    for n, resolution in ((3, 7), (3, 0), (3, -600), (1, 600), (5, 600)):
        with pytest.raises(ValueError):
            interval_grid(n, resolution)


def test_value_count_must_match_cells():
    with pytest.raises(ValueError):
        make_simplex_field(1, 600, [1.0, 2.0], "value", {})


@pytest.mark.parametrize(
    "resolution, origins, counts, message",
    [
        (0, (0.0,), (3,), "resolution must be a positive number of cents"),
        (-100, (0.0,), (3,), "resolution must be a positive number of cents"),
        (100, (0.0, 0.0), (3,), "origins, counts and axis_names must align"),
        (100, (0.0,), (0,), "every axis needs at least one grid point"),
    ],
)
def test_scalar_field_rejects_malformed_grids(resolution, origins, counts, message):
    with pytest.raises(ValueError, match=message):
        ScalarField(resolution, origins, counts, False, ("a",), np.zeros(3))


def test_dense_symmetric_extension():
    fld = _triad_field(400)
    dense = fld.dense()
    assert dense[2, 1] == fld.value_at((400.0, 800.0))  # mirrored cell


def test_csv_round_trip_simplex():
    fld = _triad_field(100)
    import io, tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "triad.csv")
        export_csv(fld, path)
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == "x2,x3,value"
        back = import_csv(path)
        assert back == fld
        # byte-exact determinism of a second export
        export_csv(back, path + "2")
        assert Path(path).read_text() == Path(path + "2").read_text()


def test_csv_round_trip_box_window():
    fld = _box_field(50, (100.0, 700.0), (9, 9), np.arange(81.0), ("x1", "x2"), "log2_y")
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "win.csv")
        export_csv(fld, path)
        back = import_csv(path)
        assert back == fld


def test_csv_round_trip_dyad():
    fld = make_simplex_field(1, 300, [0.0, 1.25, 2.5, 3.125, 4.0], "log2_periodicity", {})
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dyad.csv")
        export_csv(fld, path)
        back = import_csv(path)
        assert back == fld
        assert back.value_name == "log2_periodicity"


def test_import_rejects_empty_and_malformed(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="line 1"):
        import_csv(empty)

    bad = tmp_path / "bad.csv"
    bad.write_text("x2,value\n0,1.0\n600,notanumber\n")
    with pytest.raises(ValueError, match="line 3"):
        import_csv(bad)

    gap = tmp_path / "gap.csv"
    gap.write_text("x2,v\n0,1.0\n\n600,2.0\n1200,abc\n")
    with pytest.raises(ValueError, match="line 5: malformed number"):
        import_csv(gap)

    # the order error names the physical line, not the data-row index
    unordered = tmp_path / "unordered.csv"
    unordered.write_text("x2,v\n0,1.0\n\n600,2.0\n300,3.0\n")
    with pytest.raises(
        ValueError,
        match=re.escape("line 4: coordinates (600.0,) break lexicographic order"),
    ):
        import_csv(unordered)

    short = tmp_path / "short.csv"
    short.write_text("x2,value\n0,1.0\n100,2.0\n300,3.0\n")
    with pytest.raises(ValueError, match="row count"):
        import_csv(short)


def test_slice_matches_pointwise():
    fld = _triad_field(200)
    cut = slice_field(fld, 1, 800.0)  # pin x3
    assert cut.axis_names == ("x2",)
    assert cut.value_at((400.0,)) == fld.value_at((400.0, 800.0))
    assert cut.counts == (5,)  # x2 <= 800

    cut2 = slice_field(fld, 0, 400.0)  # pin x2; x3 ranges upward from 400
    assert cut2.origins == (400.0,)
    assert cut2.value_at((1200.0,)) == fld.value_at((400.0, 1200.0))


def test_slice_dyad_gives_zero_dim():
    fld = make_simplex_field(1, 600, [1.0, 2.0, 3.0], "value", {})
    cut = slice_field(fld, 0, 600.0)
    assert cut.dims == 0
    assert float(cut.values[0]) == 2.0


def test_slice_constant_stays_constant():
    fld = _triad_field(300).with_values(np.full(len(_triad_field(300).values), 7.0))
    cut = slice_field(fld, 0, 300.0)
    assert np.all(cut.values == 7.0)


def test_slice_requires_on_grid_value():
    with pytest.raises(ValueError):
        slice_field(_triad_field(200), 0, 150.0)
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="not on the grid"):
            slice_field(_triad_field(200), 0, value)
    for axis in (-1, 2):
        with pytest.raises(ValueError, match=f"axis {axis} out of range for 2-d field"):
            slice_field(_triad_field(200), axis, 0.0)


def test_slice_of_simplex_whose_later_axis_starts_above_the_pin():
    # x3 starts at 500 c, above the pinned x2 = 300 c: every x3 cell stays
    cells = [(x2, x3) for x2 in range(0, 1201, 100) for x3 in range(500, 1201, 100) if x2 <= x3]
    fld = ScalarField(
        resolution=100, origins=(0.0, 500.0), counts=(13, 8), simplex=True,
        axis_names=("x2", "x3"), values=np.arange(len(cells), dtype=float),
    )
    cut = slice_field(fld, 0, 300.0)
    assert (cut.origins, cut.counts) == ((500.0,), (8,))
    assert [cut.value_at(c) for c in cut.cells] == [
        fld.value_at((300.0, x3)) for x3 in range(500, 1201, 100)
    ]


def test_slice_of_simplex_field_without_symmetric_extension():
    # x2 up to 1200 c but x3 only up to 200 c: sorted coordinates leave the
    # grid, so dense() fails, yet every cell of the slice x3 = 0 or 200 exists
    fld = ScalarField(100, (0.0, 0.0), (13, 3), True, ("a", "b"), np.arange(6, dtype=float))
    with pytest.raises(ValueError, match="no symmetric extension"):
        fld.dense()
    for at in (0.0, 100.0, 200.0):
        cut = slice_field(fld, 1, at)
        assert [cut.value_at(c) for c in cut.cells] == [fld.value_at(c + (at,)) for c in cut.cells]
    assert slice_field(fld, 1, 0.0).values.tolist() == [0.0]
    assert slice_field(fld, 1, 200.0).values.tolist() == [2.0, 4.0, 5.0]


def test_slice_with_no_cell_names_axis_and_value():
    # x3 stops at 200 c, so no simplex cell has a = 1000 c
    fld = ScalarField(100, (0.0, 0.0), (13, 3), True, ("a", "b"), np.arange(6.0))
    with pytest.raises(ValueError, match="no cell of the field has a = 1000 cents"):
        slice_field(fld, 0, 1000.0)


def test_grid_size_bound_both_sides(tmp_path):
    bound = field_module._MAX_BOX_CELLS
    field_module._check_box((301, 301, 301))  # the 4-cent tetrad grid
    field_module._check_box((bound,))
    for counts in ((bound + 1,), (401, 401, 401)):  # the 3-cent tetrad grid
        with pytest.raises(ValueError, match="larger than"):
            field_module._check_box(counts)
    # every grid builder checks the bound before it allocates a cell
    with pytest.raises(ValueError, match="larger than"):
        interval_grid(4, 3)
    with pytest.raises(ValueError, match="larger than"):
        ScalarField(1, (0.0,), (bound + 1,), False, ("a",), [0.0])
    with pytest.raises(ValueError, match="larger than"):
        transitive_field(Chord((0.0,)), 1, TransitiveConfig(scope_cents=1e11), 1)
    huge = tmp_path / "huge.csv"
    huge.write_text("x2,x3,v\n0,0,1\n1,1000000000,2\n")
    with pytest.raises(ValueError, match="larger than") as exc:
        import_csv(huge)
    assert str(exc.value).startswith(f"{huge}: a grid of") and "row count" not in str(exc.value)
    # both sides on small grids: 13**2 box cells fit, 13**3 do not
    with mock.patch.object(field_module, "_MAX_BOX_CELLS", 13**2):
        assert len(interval_grid(3, 100)[1]) == 91
        with pytest.raises(ValueError, match="larger than"):
            interval_grid(4, 100)
        assert _box_field(100, (0, 0), (13, 13), np.zeros(169), ("a", "b")).n_cells == 169
        with pytest.raises(ValueError, match="larger than"):
            _box_field(100, (0, 0), (13, 14), np.zeros(182), ("a", "b"))


def test_slices_commute_on_tetrad_grid():
    cells = oracles.interval_cells(4, 300)
    values = [x2 * 1.0 + x3 * 0.01 + x4 * 0.0001 for x2, x3, x4 in cells]
    fld = make_simplex_field(3, 300, values, "value", {})
    a = slice_field(slice_field(fld, 0, 300.0), 1, 900.0)  # pin x2 then x4
    b = slice_field(slice_field(fld, 2, 900.0), 0, 300.0)  # pin x4 then x2
    assert a == b


def test_local_minima_constant_field_empty():
    fld = make_simplex_field(1, 100, [2.0] * 13, "value", {})
    assert local_minima(fld) == []


def test_local_minima_single_spike():
    vals = [5.0] * 13
    vals[7] = 1.0
    fld = make_simplex_field(1, 100, vals, "value", {})
    assert local_minima(fld) == [((700.0,), 1.0)]


def test_local_minima_plateau_reported_once():
    vals = [5.0] * 13
    vals[4] = vals[5] = vals[6] = 1.0
    fld = make_simplex_field(1, 100, vals, "value", {})
    assert local_minima(fld, radius=1) == [((400.0,), 1.0)]


def test_local_minima_leaking_plateau_rejected():
    # plateau touching a downhill neighbor is not a minimum
    vals = [5.0, 5.0, 1.0, 1.0, 0.5, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]
    fld = make_simplex_field(1, 100, vals, "value", {})
    assert local_minima(fld) == [((400.0,), 0.5)]


def test_local_minima_radius_validation():
    with pytest.raises(ValueError):
        local_minima(_triad_field(300), radius=0)


def test_local_minima_of_a_point_field_is_empty():
    point = slice_field(make_simplex_field(1, 600, [1.0, 2.0, 3.0], "v", {}), 0, 600.0)
    assert point.dims == 0 and local_minima(point) == []


def test_matrix_export(tmp_path):
    fld = _triad_field(400)
    path = tmp_path / "m.txt"
    export_matrix(fld, path)
    rows = path.read_text().strip().split("\n")
    assert len(rows) == 4
    assert len(rows[0].split()) == 4


def test_matrix_export_requires_two_dims(tmp_path):
    with pytest.raises(ValueError):
        export_matrix(make_simplex_field(1, 600, [1, 2, 3], "v", {}), tmp_path / "x")


def test_interpolation_linear_and_bounds():
    fld = make_simplex_field(1, 100, [float(i) for i in range(13)], "v", {})
    assert fld.interpolate((650.0,)) == pytest.approx(6.5)
    with pytest.raises(ValueError):
        fld.interpolate((1250.0,))
    with pytest.raises(ValueError, match="expected 1 coordinates, got 2"):
        fld.interpolate((650.0, 650.0))


def test_box_normalization_of_vacuous_simplex():
    # a "simplex" whose axes never cross stores as a plain box
    fld = ScalarField(
        resolution=100,
        origins=(0.0, 700.0),
        counts=(2, 2),
        simplex=True,
        axis_names=("x1", "x2"),
        values=np.arange(4.0),
        value_name="v",
    )
    assert not fld.simplex


def test_mask_orders_cells_like_interval_grid():
    fld = _triad_field(300)
    assert fld.mask.shape == fld.counts
    assert fld.mask.sum() == fld.n_cells == len(fld.cells)
    notes, rows = interval_grid(3, 300)
    assert list(fld.cells) == list(map(tuple, (100 * notes[rows[:, 1:]]).tolist()))
    assert list(fld.cells) == oracles.interval_cells(3, 300)
    assert all(fld.index_of(c) == i for i, c in enumerate(fld.cells))
    with pytest.raises(ValueError, match="not a grid cell"):
        fld.index_of((600.0, 300.0))  # outside the simplex
    with pytest.raises(ValueError, match="not a grid cell"):
        fld.index_of((300.0, 650.0))  # off the grid


def test_dense_is_cached_and_read_only():
    simplex = _triad_field(400)
    box = _box_field(50, (0.0, 100.0), (3, 2), np.arange(6.0), ("a", "b"))
    point = slice_field(make_simplex_field(1, 600, [1.0, 2.0, 3.0], "v", {}), 0, 600.0)
    for fld in (simplex, box, point):
        dense = fld.dense()
        assert dense is fld.dense()
        with pytest.raises(ValueError):
            dense[(0,) * fld.dims] = 9.0
    with pytest.raises(ValueError):
        simplex.mask[0, 0] = False


# -- properties ---------------------------------------------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
#: Three levels force plateaus, including plateaus that leak to a lower cell.
LEVELS = st.sampled_from((0.0, 1.0, 2.0))
#: Multiples of 1/1000 survive export_csv's 6-decimal formatting exactly.
CSV_VALUES = st.integers(-10**6, 10**6).map(lambda k: k / 1000)


@st.composite
def simplex_fields(draw, values=LEVELS, min_dims=1):
    dims = draw(st.integers(min_dims, 3))
    res = draw(st.sampled_from((200, 300, 400, 600)))
    n = len(oracles.interval_cells(dims + 1, res))
    vals = draw(st.lists(values, min_size=n, max_size=n))
    return make_simplex_field(dims, res, vals, "v", {})


@st.composite
def box_fields(draw, values=LEVELS):
    dims = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 5), min_size=dims, max_size=dims))
    origins = draw(st.lists(st.integers(-12, 24), min_size=dims, max_size=dims))
    vals = draw(st.lists(values, min_size=int(np.prod(counts)), max_size=int(np.prod(counts))))
    names = [f"n{k + 1}" for k in range(dims)]
    return _box_field(50, [100.0 * o for o in origins], counts, vals, names)


def grid_fields(values=LEVELS):
    return st.one_of(simplex_fields(values), box_fields(values))


@st.composite
def general_simplex_fields(draw, values=LEVELS):
    """Simplex fields whose axes differ in origin or count, origins on or off
    the resolution's multiples; many have no symmetric extension."""
    dims = draw(st.integers(2, 3))
    res = draw(st.sampled_from((50, 100, 300)))
    origin = st.one_of(
        st.integers(-3, 6).map(lambda k: float(k * res)), st.integers(-300, 600).map(float)
    )
    origins = sorted(draw(st.lists(origin, min_size=dims, max_size=dims)))  # no empty grids
    counts = draw(st.lists(st.integers(1, 5), min_size=dims, max_size=dims))
    axes = [[o + res * i for i in range(c)] for o, c in zip(origins, counts)]
    n = sum(all(a <= b for a, b in zip(c, c[1:])) for c in itertools.product(*axes))
    vals = draw(st.lists(values, min_size=n, max_size=n))
    names = tuple(f"x{k + 2}" for k in range(dims))
    return ScalarField(res, tuple(origins), tuple(counts), True, names, vals, "v")


INF = math.inf


@PROPERTY
@given(fld=grid_fields(), radius=st.sampled_from((1, 2)))
@example(fld=make_simplex_field(1, 200, [INF, -INF, -INF, INF, 0.0, -INF, INF], "v", {}),
         radius=1)
@example(fld=_box_field(50, (0, 100), (3, 3), [INF, 0.0, -INF, INF, -INF, INF, 1.0, INF, -INF],
                        ("a", "b")), radius=1)
@example(fld=_box_field(50, (0,), (1,), [-INF], ("a",)), radius=2)
def test_local_minima_equals_per_cell_oracle(fld, radius):
    assert local_minima(fld, radius) == oracles.local_minima(fld, radius)


@PROPERTY
@given(fld=st.one_of(grid_fields(), general_simplex_fields()))
def test_dense_equals_per_cell_symmetric_extension(fld):
    try:
        want = oracles.symmetric_extension(fld)
    except ValueError:  # a sorted cell leaves the grid: dense() must refuse too
        with pytest.raises(ValueError, match="no symmetric extension"):
            fld.dense()
        return
    assert np.array_equal(fld.dense(), want)


@PROPERTY
@given(fld=simplex_fields(min_dims=2))
def test_simplex_dense_invariant_under_axis_permutation(fld):
    dense = fld.dense()
    for perm in itertools.permutations(range(fld.dims)):
        assert np.array_equal(dense, dense.transpose(perm))


@PROPERTY
@given(fld=grid_fields(CSV_VALUES))
def test_csv_round_trip_property(fld):
    # a field whose every axis has one point carries no resolution in CSV
    assume(max(fld.counts) >= 2)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        export_csv(fld, first)
        back = import_csv(first)
        assert back == fld
        export_csv(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


@PROPERTY
@given(fld=grid_fields(CSV_VALUES), data=st.data())
def test_slice_values_equal_parent_values(fld, data):
    axis = data.draw(st.integers(0, fld.dims - 1))
    at = float(data.draw(st.sampled_from(list(fld.axis_coords(axis)))))
    cut = slice_field(fld, axis, at)
    assert cut.n_cells == len(cut.values)
    for coords, value in zip(cut.cells, cut.values):
        assert value == cut.value_at(coords)
        assert value == fld.value_at(coords[:axis] + (at,) + coords[axis:])


#: Every float, with the edge cases export_csv's formatter must keep drawn often.
ANY_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((-0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, 2.5e-310)),
)


@st.composite
def csv_box_fields(draw, values=ANY_FLOATS):
    """Box fields at any resolution whose origins need not be whole cents."""
    dims = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 5), min_size=dims, max_size=dims))
    origin = st.one_of(
        st.integers(-2400, 2400).map(float),
        st.floats(-2400.0, 2400.0),
        st.integers(-2400, 2400).map(lambda c: c + 1e-10),
    )
    origins = draw(st.lists(origin, min_size=dims, max_size=dims))
    res = draw(st.integers(1, 100))
    vals = draw(st.lists(values, min_size=int(np.prod(counts)), max_size=int(np.prod(counts))))
    names = [f"n{k + 1}" for k in range(dims)]
    return _box_field(res, origins, counts, vals, names, draw(st.sampled_from(("v", "höhe"))))


def point_fields(values=ANY_FLOATS):
    """0-d fields: one value, no axes."""
    return values.map(lambda v: ScalarField(
        resolution=1, origins=(), counts=(), simplex=False, axis_names=(), values=[v],
        value_name="v",
    ))


def csv_fields(values=ANY_FLOATS):
    return st.one_of(simplex_fields(values), csv_box_fields(values), point_fields(values))


@PROPERTY
@given(fld=csv_fields())
def test_export_csv_equals_per_cell_oracle(fld):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        export_csv(fld, got)
        oracles.per_cell_export_csv(fld, want)
        assert Path(got).read_bytes() == Path(want).read_bytes()


@PROPERTY
@given(fld=csv_fields(), chunk=st.integers(1, 7))
def test_export_csv_bytes_do_not_depend_on_chunk_size(fld, chunk):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(field_module, "_CSV_CHUNK_ROWS", chunk):
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        export_csv(fld, got)
        oracles.per_cell_export_csv(fld, want)
        assert Path(got).read_bytes() == Path(want).read_bytes()


def _import_outcome(read, path):
    """What reading ``path`` gives: the field's parts with its value bits, or
    the exception's type and message."""
    try:
        fld = read(path)
    except Exception as exc:  # the oracle's overflow errors must match too
        return type(exc), str(exc)
    return (
        fld.resolution, repr(fld.origins), fld.counts, fld.simplex,
        fld.axis_names, fld.value_name, fld.values.tobytes(),
    )


def _oracle_import_outcome(path):
    """``row_import_csv``'s outcome, its order error renumbered to the
    physical line: the oracle counts non-blank lines there, a defect that
    ``import_csv`` mends."""
    outcome = _import_outcome(oracles.row_import_csv, path)
    match = re.search(r": line (\d+): coordinates", str(outcome[1]))
    if outcome[0] is ValueError and match:
        with open(path, encoding="utf-8") as fh:
            physical = [i for i, ln in enumerate(fh, start=1) if ln.strip()]
        line = physical[int(match.group(1)) - 1]
        return ValueError, outcome[1].replace(match.group(0), f": line {line}: coordinates", 1)
    return outcome


def _check_import_against_oracle(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        assert _import_outcome(import_csv, path) == _oracle_import_outcome(path)


BLANK_LINES = ("", "  ", "\t", "\x0c", "\u3000")
#: Tokens that float() and loadtxt disagree on, or that neither reads.
BAD_TOKENS = ("abc", "1_000", "\u0661\u0662", "", "#1")


@PROPERTY
@given(fld=csv_fields(), data=st.data())
def test_import_csv_equals_row_oracle(fld, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        export_csv(fld, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")[:-1]
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(("blank", "token", "column", "swap")))
        i = data.draw(st.integers(0, len(lines) - 1))
        if kind == "blank":
            lines.insert(i, data.draw(st.sampled_from(BLANK_LINES)))
        elif kind == "token":
            parts = lines[i].split(",")
            parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(st.sampled_from(BAD_TOKENS))
            lines[i] = ",".join(parts)
        elif kind == "column":
            j = data.draw(st.integers(0, len(lines[i].split(","))))
            drop = data.draw(st.booleans())
            targets = range(len(lines)) if data.draw(st.booleans()) else [i]
            for t in targets:
                parts = lines[t].split(",")
                if drop and j < len(parts):
                    del parts[j]
                elif not drop:
                    parts.insert(j, "0")
                lines[t] = ",".join(parts)
        else:
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    _check_import_against_oracle("\n".join(lines) + "\n")


@pytest.mark.parametrize("text", [
    "x2,v\n0,1.0\n\n600,2.0\n300,3.0\n",  # order error after a blank line
    "x2,v\n0,\u0661\u0662\n1_000,1.5\n",  # float() reads these, loadtxt does not
    "x2,v\n0,1\n#1,2\n",  # a '#' row is data, not a comment
    "x2,v\n0,1\n \t\n\u3000\n600,2\n",  # whitespace-only lines are blank
    "\n\n x2,v\n0,1\n600,2",  # leading blank lines, no final newline
    "x2,v\r\n0,1\r\n600,2\r\n",  # CRLF line ends
    "x2,v\n0,1\n600\n",  # too few columns
    "x2,v\n",  # no data rows
    "v\n1.5\n2.5\n",  # a 0-d field has one row
    "v\nnan\n",
    "x2,x3,v\n0,0,1\n0,600,2\n600,600,3\n",  # a simplex
])
def test_import_csv_equals_row_oracle_on_hand_written_text(text):
    _check_import_against_oracle(text)
