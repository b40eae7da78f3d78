import hashlib
import itertools
import json
import math
import os
import re
import tempfile
import time
import tracemalloc
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
from chordspace.harmonicity import periodicity_field
from chordspace.pitch import Chord
from chordspace.psychometric import gaussian_smooth
from chordspace.resolve import TransitiveConfig, transitive_field
from chordspace.roughness import RoughnessParams, Spectrum, roughness_field

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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 4), resolution=st.sampled_from([d for d in range(1, 1201) if 1200 % d == 0]))
@example(n=3, resolution=5)
@example(n=2, resolution=1)
@example(n=4, resolution=4)
def test_interval_grid_equals_the_nonzero_construction(n, resolution):
    assume(n < 4 or resolution >= 4)  # a finer tetrad's box is refused
    notes, rows = interval_grid(n, resolution)
    want_notes, want = oracles.nonzero_interval_grid(n, resolution)
    assert np.array_equal(notes, want_notes)
    assert np.array_equal(rows, want)
    assert rows.dtype == (np.uint8 if len(notes) <= 256 else np.uint16)
    assert rows.T.flags.c_contiguous


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 5), m=st.integers(1, 9), dtype=st.sampled_from((np.uint8, np.uint16, np.intp)))
def test_sorted_tuples_equal_the_nonzero_construction(d, m, dtype):
    out = np.full((d, math.comb(m + d - 1, d)), 99, dtype)  # every entry must be written
    assert field_module._sorted_tuples(out, m) is out and out.dtype == dtype
    assert np.array_equal(out, np.nonzero(oracles._sorted_mask(m, d)))  # lexicographic order
    if d >= 2 and m >= 2:  # a simplex field's cell index, in the narrowest unsigned dtype
        fld = ScalarField(1, (0.0,) * d, (m,) * d, True, ("x",) * d, np.zeros(out.shape[1]))
        assert fld._index.dtype == np.uint8 and np.array_equal(fld._index, out)


def test_interval_grid_builds_nothing_but_its_rows():
    rows = interval_grid(4, 10)[1]  # 302,621 cells, 1.15 MiB
    peak = _traced_peak(lambda: interval_grid(4, 10))
    assert peak < 1.5 * rows.nbytes, f"peak {peak / rows.nbytes:.2f} times the rows"


def test_resolution_must_divide_octave():
    for n, resolution in ((3, 7), (3, 0), (3, -600), (1, 600), (5, 600), (3, 600.0)):
        with pytest.raises(ValueError):
            interval_grid(n, resolution)


@pytest.mark.parametrize("resolution, message", [
    (7, "^resolution 7 must be positive and divide 1200$"),  # its axis ended at 1197 c
    (0, "^resolution 0 must be positive and divide 1200$"),
    (-600, "^resolution -600 must be positive and divide 1200$"),
    (600.0, r"^resolution must be an integer, got 600\.0$"),
])
def test_simplex_field_resolution_must_divide_the_octave(resolution, message):
    with pytest.raises(ValueError, match=message):
        make_simplex_field(1, resolution, [0.0] * 172, "v", {})


def test_grid_generators_keep_a_numpy_resolution_as_an_int():
    # the sidecar dumps the meta as JSON, which takes no numpy integer
    window = transitive_field(Chord((3.0, 9.0)), TransitiveConfig(scope_cents=30.0), np.int64(10))
    grids = (periodicity_field(2, np.int64(600)), roughness_field(2, np.int64(600)))
    for fld, res in [(fld, 600) for fld in grids] + [(fld, 10) for fld in window]:
        assert type(fld.resolution) is int and type(fld.meta["resolution_cents"]) is int
        assert json.loads(json.dumps(fld.meta))["resolution_cents"] == res


def test_field_meta_is_json_when_inputs_are_numpy_scalars():
    metas = [
        slice_field(periodicity_field(3, 100), 0, np.float32(300.0)).meta,
        roughness_field(3, 300, f0=np.float32(261.626)).meta,
        roughness_field(3, 300, Spectrum(((1.0, np.float32(1.0)),))).meta,
        roughness_field(3, 300, params=RoughnessParams(scale=np.float32(5.0))).meta,
        *(f.meta for f in transitive_field(Chord((np.float32(3.0), 9.0)), TransitiveConfig(), 10)),
    ]
    for meta in metas:
        assert json.loads(json.dumps(meta)) == meta


def test_value_count_must_match_cells():
    with pytest.raises(ValueError):
        make_simplex_field(1, 600, [1.0, 2.0], "value", {})


def test_field_owns_its_values():
    a = np.zeros(3)
    fld = ScalarField(10, (0.0,), (3,), False, ("a",), a, "v")
    a[0] = 1.0  # the caller's array stays writeable
    assert fld.values.tolist() == [0.0, 0.0, 0.0]
    assert not fld.values.flags.writeable
    assert fld.dense().tolist() == [0.0, 0.0, 0.0]
    view = a[:]
    view.flags.writeable = False
    fld = ScalarField(10, (0.0,), (3,), False, ("a",), view, "v")
    a[1] = 2.0  # writes to the base of a frozen view do not reach the field
    assert fld.values.tolist() == [1.0, 0.0, 0.0]
    assert fld.dense().tolist() == [1.0, 0.0, 0.0]


def test_field_equality_with_a_non_field_is_not_implemented():
    fld = make_simplex_field(1, 600, [1.0, 2.0, 3.0], "value", {})
    assert fld.__eq__(3) is NotImplemented
    assert fld != 3


@pytest.mark.parametrize(
    "resolution, origins, counts, message",
    [
        (0, (0.0,), (3,), "resolution must be a positive number of cents"),
        (-100, (0.0,), (3,), "resolution must be a positive number of cents"),
        (100, (0.0, 0.0), (3,), "origins, counts and axis_names must align"),
        (100, (0.0,), (0,), "every axis needs at least one grid point"),
        (math.nan, (0.0,), (3,), "resolution must be an integer, got nan$"),
        (math.inf, (0.0,), (3,), "resolution must be an integer, got inf$"),
        (1, (math.inf,), (3,), "axis 'a' must have finite coordinates, got origin inf"),
        (1, (math.nan,), (3,), "axis 'a' must have finite coordinates, got origin nan"),
        pytest.param(  # its last point is inf
            10**308, (1e308,), (3,), "axis 'a' must have finite coordinates",
            id="1e+308-origins8-counts8-axis 'a' must have finite coordinates",
        ),
        (7.5, (0.0,), (3,), r"resolution must be an integer, got 7\.5$"),
        (100.0, (0.0,), (3,), r"resolution must be an integer, got 100\.0$"),
        pytest.param(  # a resolution past the float range
            10**400, (0.0,), (3,), "axis 'a' must have finite coordinates, got origin 0.0, 3 points 1000",
            id="10**400-axis 'a' must have finite coordinates",
        ),
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
    for read in (import_csv, oracles.row_import_csv):
        with pytest.raises(
            ValueError,
            match=re.escape("line 4: coordinates (600.0,) break lexicographic order"),
        ):
            read(unordered)

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


def test_slice_of_a_simplex_on_its_middle_axis_is_a_box():
    # pinning x3 = 300 c leaves x2 <= 300 <= x4: the later axis starts at the pin
    fld = make_simplex_field(3, 300, np.arange(35.0), "v", {})
    cut = slice_field(fld, 1, 300.0)
    assert (cut.origins, cut.counts, cut.simplex) == ((0.0, 300.0), (2, 4), False)
    assert cut.values.tolist() == [
        fld.value_at((x2, 300.0, x4)) for x2 in (0.0, 300.0) for x4 in (300.0, 600.0, 900.0, 1200.0)
    ]


@pytest.mark.parametrize("origins, counts", [((0.0, 500.0), (13, 8)), ((0.0, 0.0), (13, 3))])
def test_simplex_over_differing_axes_is_refused(tmp_path, origins, counts):
    # with one axis grid every box cell sorts onto a mask cell; with these it would not
    axes = [[o + 100 * i for i in range(c)] for o, c in zip(origins, counts)]
    cells = [(a, b) for a, b in itertools.product(*axes) if a <= b]
    values = np.arange(float(len(cells)))
    with pytest.raises(ValueError, match="^a simplex field's axes must share one origin and one count$"):
        ScalarField(100, origins, counts, True, ("a", "b"), values)
    path = tmp_path / "f.csv"
    path.write_text("a,b,v\n" + "".join(f"{a:g},{b:g},{k}\n" for k, (a, b) in enumerate(cells)))
    if counts == (13, 8):
        with pytest.raises(ValueError, match="share one origin and one count"):
            import_csv(path)
    else:  # a <= b keeps a <= 200 c: the rows are those of the one-grid (3, 3) simplex
        back = import_csv(path)
        assert (back.origins, back.counts, back.simplex) == ((0.0, 0.0), (3, 3), True)
        assert np.array_equal(back.values, values)
    # a layout whose axes never cross excludes nothing and is still a box
    box = ScalarField(100, (0.0, 500.0), (6, 8), True, ("a", "b"), np.arange(48.0))
    assert not box.simplex
    export_csv(box, path)
    assert import_csv(path) == box


def test_import_csv_names_the_axes_of_a_simplex_that_differ(tmp_path):
    # no row count fits a simplex over these axes: the refusal names the axes, not the count
    path = tmp_path / "f.csv"
    path.write_text("a,b,v\n0,500,1\n0,600,2\n100,500,3\n100,600,4\n600,600,5\n")
    for read in (import_csv, oracles.row_import_csv):
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == f"{path}: a simplex field's axes must share one origin and one count"


def test_every_slice_of_a_simplex_holds_its_diagonal_cell():
    # so no slab of a one-grid simplex is empty; a middle axis of four or more leaves two
    # sorted groups of axes, which no field holds
    for dims in (3, 4, 5):
        fld = make_simplex_field(dims, 300, np.arange(float(math.comb(dims + 4, dims))), "v", {})
        for axis, at in ((k, at) for k in range(dims) for at in fld.axis_coords(k).tolist()):
            if 0 < axis < dims - 1 and dims >= 4:
                with pytest.raises(ValueError, match=(
                    f"^axis {axis} of a {dims}-axis simplex field cannot be sliced: "
                    "it leaves two sorted groups of axes")):
                    slice_field(fld, axis, at)
                continue
            cut = slice_field(fld, axis, at)
            assert cut.value_at((at,) * (dims - 1)) == fld.value_at((at,) * dims)
            want = [(c[:axis] + c[axis + 1:], fld.value_at(c))
                    for c in oracles.interval_cells(dims + 1, 300) if c[axis] == at]
            cells = cut._coords(np.argwhere(oracles.mask_of(cut))).tolist()
            got = zip(map(tuple, cells), cut.values.tolist())
            assert list(got) == want


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
        transitive_field(Chord((0.0,)), TransitiveConfig(scope_cents=1e11), 1)
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
    for radius in (1.5, 2.0):
        with pytest.raises(ValueError, match=f"radius must be an integer, got {radius}"):
            local_minima(_triad_field(300), radius=radius)
    assert local_minima(_triad_field(300), radius=np.int64(2)) == local_minima(_triad_field(300), 2)


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


def test_interpolation_rejects_nan_as_outside_the_axis():
    fld = make_simplex_field(2, 100, np.arange(91.0), "v", {})
    with pytest.raises(ValueError, match="^coordinate nan is outside axis x2$"):
        fld.interpolate((math.nan, 300.0))


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


def test_cell_index_orders_cells_like_interval_grid():
    fld = _triad_field(300)
    want = oracles.mask_of(fld)
    assert np.array_equal(fld._cells, np.flatnonzero(want))
    assert np.array_equal(fld._index, np.argwhere(want).T)  # np.nonzero, 0-d included
    cells = fld._coords(np.argwhere(want)).tolist()
    assert np.count_nonzero(want) == fld.n_cells == len(cells)
    notes, rows = interval_grid(3, 300)
    assert cells == (100 * notes[rows[:, 1:]]).tolist()
    assert list(map(tuple, cells)) == oracles.interval_cells(3, 300)
    assert all(fld.index_of(c) == i for i, c in enumerate(cells))
    with pytest.raises(ValueError, match="not a grid cell"):
        fld.index_of((600.0, 300.0))  # outside the simplex
    with pytest.raises(ValueError, match="not a grid cell"):
        fld.index_of((300.0, 650.0))  # off the grid


def test_dense_is_read_only():
    simplex = _triad_field(400)
    box = _box_field(50, (0.0, 100.0), (3, 2), np.arange(6.0), ("a", "b"))
    point = slice_field(make_simplex_field(1, 600, [1.0, 2.0, 3.0], "v", {}), 0, 600.0)
    for fld in (simplex, box, point):
        dense = fld.dense()
        with pytest.raises(ValueError):
            dense[(0,) * fld.dims] = 9.0
    for fld in (simplex, box):  # a write to the cell index would redirect later lookups
        with pytest.raises(ValueError):
            fld._index[0][...] = 0
        with pytest.raises(ValueError):
            fld._cells[...] = 0


def _tetrad_grid_field():
    """The (4, 10) interval grid: 121**3 box cells, 302,621 of them in the simplex."""
    return make_simplex_field(3, 10, np.arange(float(math.comb(123, 3))), "v", {})


def _traced_peak(call):
    """Peak traced bytes of ``call()``: numpy reports its buffers to tracemalloc, so the
    peak is deterministic."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_peak_memory_is_a_few_box_arrays():
    fld = _tetrad_grid_field()
    peak = _traced_peak(fld.dense)
    dense = fld.dense()
    assert dense.shape == (121,) * 3
    assert peak <= 5 * dense.nbytes, f"peak {peak / dense.nbytes:.1f} box arrays"


@pytest.mark.parametrize("lookup", [
    lambda fld: fld.value_at((100.0, 500.0, 700.0)),
    lambda fld: fld.index_of((100.0, 500.0, 700.0)),
    lambda fld: fld.interpolate((705.0, 103.0, 1200.0)),
    lambda fld: slice_field(fld, 1, 600.0),
], ids=["value_at", "index_of", "interpolate", "slice_field"])
def test_first_lookup_builds_no_box_sized_array(lookup):
    fld = _tetrad_grid_field()
    peak = _traced_peak(lambda: lookup(fld))
    assert peak < 8 * 121**3, f"peak {peak / 2**20:.1f} MiB"  # a box of int64, 13.5 MiB


@pytest.mark.parametrize("origins, message", [
    ((0.0, 1.0), "^a simplex field's axes must share one origin and one count$"),
    ((0.0, 0.0), "^value count 1 does not match cell count 8002000$"),
])
def test_a_refused_simplex_builds_no_box(origins, message):
    # the flag, the axes and the value count are decided before the 16,000,000-cell mask
    def build():
        with pytest.raises(ValueError, match=message):
            ScalarField(1, origins, (4000, 4000), True, ("a", "b"), [0.0])
    peak = _traced_peak(build)
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("resolution", [10, 4])  # 302,621 and 4,590,551 cells
def test_a_simplex_field_and_its_copies_build_no_cell_array(resolution):
    # read-only values are not copied, so a build is its checks alone: the 1.8 MiB and
    # 26 MiB box masks are gone, and the cell index waits for its first reader
    values = np.zeros(math.comb(1200 // resolution + 3, 3))
    values.flags.writeable = False
    fld = make_simplex_field(3, resolution, values, "v", {})
    for build in (lambda: make_simplex_field(3, resolution, values, "v", {}),
                  lambda: fld.with_values(values)):
        peak = _traced_peak(build)
        assert peak < 64 * 2**10, f"peak {peak / 2**10:.0f} KiB"


def test_smoothing_holds_two_box_arrays_and_leaves_none_on_its_input():
    fld = _tetrad_grid_field()
    box = 8 * 121**3  # one float64 box array, 13.5 MiB
    tracemalloc.start()
    try:
        smooth = gaussian_smooth(fld, 6.0)  # radius 3 on every axis
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * box, f"peak {peak / box:.2f} box arrays"
    # the smoothed values and their mask, and no box array cached on the input
    assert held < box, f"held {held / box:.2f} box arrays"
    assert smooth.n_cells == fld.n_cells


def test_import_csv_checks_coordinates_a_chunk_at_a_time(tmp_path):
    path = tmp_path / "r.csv"
    export_csv(gaussian_smooth(roughness_field(3, 5), 6.0), path)
    import_csv(path)
    peak = _traced_peak(lambda: import_csv(path))
    assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"  # 29,161 rows


def test_export_csv_of_the_readme_triad_holds_one_small_chunk(tmp_path):
    fld = gaussian_smooth(periodicity_field(3, 5), 6.0)
    export_csv(fld, tmp_path / "f.csv")  # builds the field's cell index, 0.2 MiB
    peak = _traced_peak(lambda: export_csv(fld, tmp_path / "f.csv"))
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"  # 29,161 rows


def test_export_csv_holds_no_whole_field_index(tmp_path, monkeypatch):
    monkeypatch.setattr(field_module, "_CSV_CHUNK_ROWS", 4096)
    fld = _tetrad_grid_field()
    peak = _traced_peak(lambda: export_csv(fld, tmp_path / "f.csv"))
    assert peak < 8 * 3 * fld.n_cells, f"peak {peak / 2**20:.1f} MiB"  # one int64 per cell and axis


# -- properties ---------------------------------------------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
#: Three levels force plateaus, including plateaus that leak to a lower cell.
LEVELS = st.sampled_from((0.0, 1.0, 2.0))
#: Multiples of 1/1000 survive export_csv's 6-decimal formatting exactly.
CSV_VALUES = st.integers(-10**6, 10**6).map(lambda k: k / 1000)


@st.composite
def simplex_fields(draw, values=LEVELS, min_dims=1, max_dims=5):
    dims = draw(st.integers(min_dims, max_dims))
    res = draw(st.sampled_from((200, 300, 400, 600) if dims <= 3 else (400, 600)))
    n = len(oracles.interval_cells(dims + 1, res))
    vals = draw(st.lists(values, min_size=n, max_size=n))
    return make_simplex_field(dims, res, vals, "v", {})


@st.composite
def axis_layouts(draw):
    """(resolution, origins, counts, simplex) of a one-grid simplex (0 to 5 axes of 1 to 7
    points), a box, a simplex request whose axes never cross, or a simplex request over
    any axes.  Origins stay within 10**6 cents, where every grid coordinate is an exact
    float: past that, rounding merges coordinates, and the index rule is meant to differ."""
    kind = draw(st.sampled_from(("one grid", "box", "apart", "any")))
    dims, res = draw(st.integers(0, 5)), draw(st.integers(1, 1200))
    origin = st.integers(-10**6, 10**6).map(float)
    if kind == "one grid":
        return res, (draw(origin),) * dims, (draw(st.integers(1, 7)),) * dims, True
    counts = draw(st.lists(st.integers(1, 7), min_size=dims, max_size=dims))
    if kind != "apart":
        origins = draw(st.lists(origin, min_size=dims, max_size=dims))
        return res, tuple(origins), tuple(counts), kind == "any"
    origins = [draw(origin)]  # each axis starts at or above the end of the one before
    for c in counts[:-1]:
        origins.append(origins[-1] + res * (c - 1) + draw(st.integers(0, 3)))
    return res, tuple(origins[:dims]), tuple(counts), True


@PROPERTY
@given(layout=axis_layouts())
def test_cell_index_equals_the_coordinate_oracle(layout):
    res, origins, counts, simplex = layout
    want = oracles.coordinate_mask(origins, res, counts, simplex)
    names, values = [f"n{k}" for k in range(len(counts))], np.zeros(np.count_nonzero(want))
    if not want.all() and (len(set(origins)) > 1 or len(set(counts)) > 1):
        with pytest.raises(ValueError, match="share one origin and one count"):
            ScalarField(res, origins, counts, simplex, names, values)
        return
    fld = ScalarField(res, origins, counts, simplex, names, values)
    assert fld.simplex == (not want.all())
    assert np.array_equal(fld._cells, np.flatnonzero(want)) and fld.n_cells == len(values)
    assert np.array_equal(fld._index, np.argwhere(want).T)  # np.nonzero, 0-d included


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
def simplex_slices(draw, values=LEVELS):
    """Slices of 3-d simplex fields on every axis: one-grid simplices and boxes."""
    fld = draw(simplex_fields(values, min_dims=3, max_dims=3))
    axis = draw(st.integers(0, 2))
    return slice_field(fld, axis, draw(st.sampled_from(fld.axis_coords(axis).tolist())))


INF, NAN = math.inf, math.nan
SERPENTINE = [
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
    2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0,
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
    1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0,
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
    2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0,
    0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
]


@PROPERTY
@given(fld=st.one_of(grid_fields(), simplex_slices()),
       radius=st.sampled_from((1, 2, 10**6)))  # 10**6 covers every box
@example(fld=make_simplex_field(1, 200, [INF, -INF, -INF, INF, 0.0, -INF, INF], "v", {}),
         radius=1)
@example(fld=_box_field(50, (0, 100), (3, 3), [INF, 0.0, -INF, INF, -INF, INF, 1.0, INF, -INF],
                        ("a", "b")), radius=1)
# a cell with no neighbor is no minimum: a 1-cell box, a 0-d field
@example(fld=_box_field(50, (0,), (1,), [-INF], ("a",)), radius=2)
@example(fld=_box_field(50, (0, 0), (1, 1), [0.0], ("a", "b")), radius=1)
@example(fld=ScalarField(1, (), (), False, (), [0.0], "v"), radius=1)
# a strict minimum on the diagonal, next to the excluded cell (600, 0)
@example(fld=make_simplex_field(2, 600, [2.0, 1.0, 2.0, 0.0, 1.0, 2.0], "v", {}), radius=1)
# a strict minimum in a box corner, seeing the whole box at radius 2
@example(fld=_box_field(50, (0, 0), (3, 3), [0.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
                        ("a", "b")), radius=2)
# plateaus that take many BFS levels to reach or to leak: a 50-cell run leaking only at its far
# end, and a serpentine leaking only at its tail, (6, 1) next to the 0 at (6, 0)
@example(fld=_box_field(50, (0,), (60,), [2.0] * 5 + [1.0] * 50 + [0.0] + [2.0] * 4, ("a",)),
         radius=1)
@example(fld=_box_field(50, (0, 0), (7, 7), SERPENTINE, ("a", "b")), radius=1)
# NaN equals nothing: the NaN pair is no plateau, and the plateau next to it leaks
@example(fld=_box_field(50, (0,), (10,), [2.0, 1.0, 1.0, 1.0, 2.0, NAN, NAN, 1.0, 1.0, 2.0],
                        ("a",)), radius=1)
# a plateau walled by +inf is a minimum, one next to -inf leaks, and a -inf pair is one minimum
@example(fld=_box_field(50, (0,), (10,), [INF, 1.0, 1.0, 1.0, INF, 2.0, 2.0, -INF, -INF, 3.0],
                        ("a",)), radius=1)
# equal plateaus touching only at a corner are one plateau: reported once, or leaking together
@example(fld=_box_field(50, (0, 0), (3, 3), [0.0, 2.0, 2.0, 2.0, 0.0, 2.0, 2.0, 2.0, 1.0],
                        ("a", "b")), radius=1)
@example(fld=_box_field(50, (0, 0), (5, 5), [0.0] + [2.0] * 11 + [0.0] + [2.0] * 11 + [-1.0],
                        ("a", "b")), radius=2)
# a plateau across the diagonal: the mask cells (300, 600), (600, 600) and the mirrored (600, 300)
@example(fld=make_simplex_field(2, 300, [1.0] * 6 + [0.0] + [1.0] * 2 + [0.0] + [1.0] * 5, "v", {}),
         radius=1)
def test_local_minima_equals_per_cell_oracle(fld, radius):
    assert local_minima(fld, radius) == oracles.local_minima(fld, radius)


def _minima_in_bounded_time(fld, radius):
    # a pass that walks a plateau one neighbour step per level takes seconds on long
    # plateaus; a labelling in a few rounds, however long the plateau, takes milliseconds
    start = time.perf_counter()
    found = local_minima(fld, radius)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{elapsed:.2f} s"
    return found


@pytest.mark.parametrize("radius", [1, 2])
def test_local_minima_of_a_long_leaking_line_take_bounded_time(radius):
    fld = _box_field(1, (0,), (200000,), [1.0] + [0.0] * 199998 + [-1.0], ("a",))
    assert _minima_in_bounded_time(fld, radius) == [((199999.0,), -1.0)]


@pytest.mark.parametrize("radius", [1, 2])
def test_local_minima_of_a_long_chain_take_bounded_time(radius):
    # row 0 is 0, 0, 0, -1, -1, ..., row 1 all 0 and row 2 all 1
    values = [0.0] * 3 + [-1.0] * 99997 + [0.0] * 100000 + [1.0] * 100000
    fld = _box_field(1, (0, 0), (3, 100000), values, ("a", "b"))
    assert _minima_in_bounded_time(fld, radius) == [((0.0, 3.0), -1.0)]


@pytest.mark.parametrize(
    "n, resolution, sigma, radius, count, sha256",
    [
        (3, 5, 0.0, 1, 141, "55e05d3da078d3c76196ff22893b8eae350f347c92b011ed444213179458409b"),
        (3, 5, 0.0, 2, 116, "9245903fbd4d0be69a767f02e573cdc1915c7975a6b835028cdf1ee7b5eda97c"),
        (3, 5, 6.0, 1, 185, "bc29888940087369591b3f8104e6bd555001b509346acdac1fe5453eaecb10a4"),
        (3, 5, 6.0, 2, 176, "7159ca21c7fa8ceee0c2330aa7e4cbf954aa8b901689ec53a3bb64b6f1355628"),
        (4, 10, 0.0, 1, 882, "9f80ee1490ed92577ca8056e219f4f3a9662689229adbaee185ea1307de4fecd"),
        (4, 10, 0.0, 2, 441, "50afac987ad5492de72a02c0e29375b5f1997ef6996ac55ea9be822a4ef18470"),
        (4, 10, 6.0, 1, 1978, "06687349c9d52825a91047842c94e2e0ade395245c64dd736e81c2f544ff5267"),
        (4, 10, 6.0, 2, 1173, "fa1af79766f58e1b2c0f775225003bf8270bf4106ae0539fbfa3c1e7c55477de"),
        (3, 1, 0.0, 1, 166, "e525d62f0d079cdd9205447fb5086ca24fc19b31840a037d6bfd73e8875a1acd"),
    ],
)
def test_local_minima_of_large_fields_keep_their_lists(n, resolution, sigma, radius, count, sha256):
    # recorded from the per-seed plateau flood; 732,535 cells of the raw (3, 1) field lie on
    # plateaus, far more than the property tests draw
    fld = periodicity_field(n, resolution)
    minima = _minima_in_bounded_time(gaussian_smooth(fld, sigma) if sigma else fld, radius)
    assert len(minima) == count
    assert hashlib.sha256(repr(minima).encode()).hexdigest() == sha256


@PROPERTY
@given(fld=st.one_of(grid_fields(), simplex_fields(CSV_VALUES), simplex_slices(CSV_VALUES)))
def test_dense_equals_per_cell_symmetric_extension(fld):
    assert np.array_equal(fld.dense(), oracles.symmetric_extension(fld))


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
@given(fld=st.one_of(grid_fields(CSV_VALUES), simplex_slices(CSV_VALUES)), data=st.data())
def test_slice_values_equal_parent_values(fld, data):
    axis = data.draw(st.integers(0, fld.dims - 1))
    at = float(data.draw(st.sampled_from(list(fld.axis_coords(axis)))))
    if fld.simplex and 0 < axis < fld.dims - 1 and fld.dims >= 4:  # two sorted groups of axes
        with pytest.raises(ValueError, match="cannot be sliced"):
            slice_field(fld, axis, at)
        return
    cut = slice_field(fld, axis, at)
    assert cut.n_cells == len(cut.values)
    for f in (fld, cut):  # every stored cell finds its own index and value
        cells = f._coords(np.argwhere(oracles.mask_of(f))).tolist()
        assert [f.index_of(c) for c in cells] == list(range(len(f.values)))
        assert [f.value_at(c) for c in cells] == f.values.tolist()
    for coords, value in zip(cut._coords(np.argwhere(oracles.mask_of(cut))).tolist(), cut.values):
        assert value == fld.value_at(coords[:axis] + [at] + coords[axis:])


def _around(x):
    """x and its two float neighbors."""
    return st.sampled_from((math.nextafter(x, -INF), x, math.nextafter(x, INF)))


#: Where 6-decimal rounding is hardest: exact ties (odd multiples of 2**-7, such as
#: 0.0078125 -> 0.007812), the floats nearest (n + 1/2) * 1e-6, values around
#: 2**52 / 1e6 (about 4.5036e9), each with its float neighbors; -0.0 and tiny
#: negatives, which print as -0.000000.
ROUNDING_EDGES = st.one_of(
    st.integers(-2**38, 2**38).map(lambda k: (2 * k + 1) / 128).flatmap(_around),
    st.integers(-10**12, 10**12).map(lambda n: (n + 0.5) / 1e6).flatmap(_around),
    st.floats(4503599620.0, 4503599635.0).flatmap(_around),
    st.floats(-5e-7, -0.0),
)
#: Every float, with the edge cases export_csv's formatter must keep drawn often.
ANY_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((-0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, 2.5e-310)),
    ROUNDING_EDGES,
)
#: Each kind of ROUNDING_EDGES, NaN, the infinities and huge and tiny values, in one list.
EDGE_VALUES = [
    0.0078125, -0.0078125, math.nextafter(0.0078125, INF), math.nextafter(0.0078125, -INF),
    1.2421875, 2.5e-6, 1234.0000005, math.nextafter(1234.0000005, INF), 2**52 / 1e6,
    math.nextafter(2**52 / 1e6, INF), math.nextafter(2**52 / 1e6, -INF), 4503599627.5,
    -0.0, -1e-9, -4.999e-7, 0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324,
]


@st.composite
def csv_box_fields(draw, values=ANY_FLOATS, min_dims=1, max_dims=3):
    """Box fields at any resolution whose origins need not be whole cents."""
    dims = draw(st.integers(min_dims, max_dims))
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


EDGE_FIELD = _box_field(1, (0.0,), (len(EDGE_VALUES),), EDGE_VALUES, ("a",))


@PROPERTY
@given(fld=csv_fields())
@example(fld=EDGE_FIELD)
def test_export_csv_equals_per_cell_oracle(fld):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        export_csv(fld, got)
        oracles.per_cell_export_csv(fld, want)
        assert Path(got).read_bytes() == Path(want).read_bytes()


@PROPERTY
@given(fld=csv_fields(), chunk=st.integers(1, 7))
@example(fld=EDGE_FIELD, chunk=5)
def test_export_csv_bytes_do_not_depend_on_chunk_size(fld, chunk):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(field_module, "_CSV_CHUNK_ROWS", chunk):
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        export_csv(fld, got)
        oracles.per_cell_export_csv(fld, want)
        assert Path(got).read_bytes() == Path(want).read_bytes()


@PROPERTY
@given(fld=st.one_of(grid_fields(CSV_VALUES), simplex_slices(CSV_VALUES), point_fields(CSV_VALUES)),
       data=st.data())
def test_interpolate_equals_dense_oracle(fld, data):
    # each axis on a grid point or between, independently: unsorted on a simplex too
    at = [data.draw(st.one_of(st.sampled_from(axis), st.floats(axis[0], axis[-1])))
          for axis in map(fld.axis_coords, range(fld.dims))]
    assert fld.interpolate(at) == oracles.dense_interpolate(fld, at)


def test_export_csv_of_a_smoothed_tetrad_field_equals_per_cell_oracle(tmp_path):
    fld = gaussian_smooth(periodicity_field(4, 10), 6.0)
    assert fld.n_cells > 4 * field_module._CSV_CHUNK_ROWS  # five chunks of real values
    export_csv(fld, tmp_path / "got.csv")
    oracles.per_cell_export_csv(fld, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@PROPERTY
@given(
    fld=st.one_of(simplex_fields(ANY_FLOATS, min_dims=2, max_dims=2),
                  csv_box_fields(ANY_FLOATS, min_dims=2, max_dims=2)),
    chunk=st.sampled_from((1, 2, 7, 65536)),  # values per write, at least one row
)
@example(fld=_box_field(1, (0.0, 0.0), (2, len(EDGE_VALUES) // 2), EDGE_VALUES, ("a", "b")),
         chunk=7)
def test_export_matrix_equals_per_row_oracle(fld, chunk):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(field_module, "_CSV_CHUNK_ROWS", chunk):
        got, want = os.path.join(tmp, "got.txt"), os.path.join(tmp, "want.txt")
        export_matrix(fld, got)
        oracles.per_row_export_matrix(fld, want)
        assert Path(got).read_bytes() == Path(want).read_bytes()


def _import_outcome(read, path):
    """What reading ``path`` gives: the field's parts with its value bits, or
    the exception's type and message."""
    try:
        fld = read(path)
    except Exception as exc:  # the oracle's errors must match too, type and message
        return type(exc), str(exc)
    return (
        fld.resolution, repr(fld.origins), fld.counts, fld.simplex,
        fld.axis_names, fld.value_name, fld.values.tobytes(),
    )


def _check_import_against_oracle(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        assert _import_outcome(import_csv, path) == _import_outcome(oracles.row_import_csv, path)


BLANK_LINES = ("", "  ", "\t", "\x0c", "\u3000")
#: Coordinates that no field of whole-cent steps has.
NO_GRID_TEXTS = (
    "x2,v\n0,1\n0.25,2\n",  # the smallest step rounds to 0 cents
    "x2,v\n0,1\ninf,2\n",
    "x2,v\n-1e308,1\n1e308,2\n",  # the step overflows a float
    "x2,v\n0,1\nnan,2\n",
)
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
    # coordinates are checked a chunk of rows at a time: a bad row may be in any chunk
    with mock.patch.object(field_module, "_CSV_CHUNK_ROWS", data.draw(st.integers(1, 8))):
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
    "v\n",  # a 0-d field without rows
    "v\nnan\n",
    "x2,x3,v\n0,0,1\n0,600,2\n600,600,3\n",  # a simplex
    *NO_GRID_TEXTS,
])
def test_import_csv_equals_row_oracle_on_hand_written_text(text):
    _check_import_against_oracle(text)


@pytest.mark.parametrize("text", NO_GRID_TEXTS)
def test_import_csv_refuses_coordinates_that_form_no_grid(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=r"line 3: non-finite coordinates|no grid of whole cents"):
        import_csv(path)
