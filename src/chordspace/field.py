"""Regular-grid scalar fields over normalized chord domains.

A field stores one real value per grid cell.  Two domain flavors exist:

* interval grids: coordinates are the non-root notes of a chord rooted at 0,
  constrained to ``0 <= x2 <= ... <= xn <= 1200`` cents (simplex storage --
  the rest of the hypercube is redundant under note reordering).  A simplex
  field is one axis grid repeated on every axis, its cells the sorted index
  tuples that :func:`_sorted_tuples` enumerates with no box array; a simplex
  over axes that differ in origin or count is refused;
* note-window grids: a box of candidate chords around a reference chord, one
  axis per note, no simplex constraint.

Cells are ordered lexicographically by coordinates; that order is total,
stable and shared by the CSV export, which makes outputs hashable in CI.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "ScalarField",
    "make_simplex_field",
    "interval_grid",
    "local_minima",
    "slice_field",
    "export_csv",
    "import_csv",
    "export_matrix",
]


def _fmt_coord(c: float) -> str:
    if abs(c - round(c)) < 1e-9:
        return str(int(round(c)))
    return f"{c:.4f}"


#: Most box cells of any grid: the tetrad at 4 cents (301**3) fits, at 3 cents does not.
_MAX_BOX_CELLS = 2**25


def _integer(name: str, value) -> int:
    """``value`` as a Python int: numpy integers pass, and floats fail, even the
    ``100.0`` that a config file's ``config._whole`` accepts."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_box(counts: Sequence[int]) -> None:
    """Refuse a grid whose box exceeds :data:`_MAX_BOX_CELLS` cells."""
    if math.prod(counts) > _MAX_BOX_CELLS:
        raise ValueError(
            f"a grid of {' x '.join(map(str, counts))} cells is larger than the "
            f"{_MAX_BOX_CELLS:,} cells allowed"
        )


def _octave_points(resolution: int) -> int:
    """Grid points of an axis from 0 to 1200 cents; ``resolution`` must divide 1200."""
    resolution = _integer("resolution", resolution)
    if resolution <= 0 or 1200 % resolution != 0:
        raise ValueError(f"resolution {resolution} must be positive and divide 1200")
    return 1200 // resolution + 1


def interval_grid(n: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The one-octave grid of n-note chords rooted at 0: ``(notes, rows)``.

    ``notes[k] = k * resolution / 100`` semitones is axis value k (index 0 is
    the root's 0); ``rows`` is a ``(cells, n)`` array of note indices, one row
    per cell, root first, in the lexicographic order of
    :func:`make_simplex_field`.  It is the transpose of a C-ordered array, so
    ``rows.T[k]`` is note k of every cell, contiguous.  Its dtype is the
    narrowest unsigned one that holds ``len(notes) - 1``: ``uint8`` up to 256
    axis values (every grid at 5 cents or coarser), ``uint16`` on finer grids,
    so arithmetic on rows can wrap; cast before computing with them.  The
    non-root rows are written in place by :func:`_sorted_tuples`, so no array
    but ``rows`` is built.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"interval grids hold 2 to 4 notes, got {n}")
    m = _octave_points(resolution)
    _check_box((m,) * (n - 1))
    cells = np.zeros((n, math.comb(m + n - 2, n - 1)), np.min_scalar_type(m - 1))
    _sorted_tuples(cells[1:], m)
    return np.arange(m) * resolution / 100, cells.T


def _sorted_tuples(out: np.ndarray, m: int) -> np.ndarray:
    """Fill the ``(d, C(m + d - 1, d))`` array ``out`` with the sorted d-tuples of
    ``range(m)``, one per column, in lexicographic order; returns ``out``.

    The sorted (k+1)-tuples are, for each first value v in turn, v followed by the suffix
    of the sorted k-tuples whose first value is at least v.  The k-tuples are the block of
    first value 0, so each level is written in place after them: no other array is built.
    """
    out[-1, :m] = np.arange(m)
    for k in range(1, len(out)):  # rows -k: hold the sorted k-tuples in columns [0, count)
        first, rows = out[-k - 1], list(out[-k:])  # 1-D views slice faster than a 2-D block
        count = at = math.comb(m + k - 1, k)
        first[:count] = 0
        for v in range(1, m):
            size = math.comb(m - v + k - 1, k)  # k-tuples whose first value is >= v
            first[at:at + size] = v
            for row in rows:
                row[at:at + size] = row[count - size:count]
            at += size
    return out


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Dense scalar values on a regular (possibly simplex-constrained) grid.

    ``values`` holds one float per included cell, in lexicographic coordinate order.
    ``_index``, built on first use by enumerations alone, is a read-only ``(dims,
    n_cells)`` array of grid indices, one column per value; a lookup computes a cell's
    position by :meth:`_rank`, and no box mask exists.  A simplex keeps the sorted index
    tuples, and its axes must share one origin and one count: one axis grid, sorted.  A
    requested simplex stays one only if some axis ends above the next axis's origin;
    otherwise it excludes no cell and is stored as a box, whatever its axes.  ``meta``
    carries the generator name and configuration snapshot; it is excluded from equality.
    """

    resolution: int
    origins: tuple[float, ...]
    counts: tuple[int, ...]
    simplex: bool
    axis_names: tuple[str, ...]
    values: np.ndarray
    value_name: str = "value"
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "resolution", _integer("resolution", self.resolution))
        if self.resolution <= 0:
            raise ValueError(f"resolution must be a positive number of cents, got {self.resolution!r}")
        if not (len(self.origins) == len(self.counts) == len(self.axis_names)):
            raise ValueError("origins, counts and axis_names must align")
        if any(c < 1 for c in self.counts):
            raise ValueError("every axis needs at least one grid point")
        ends = []  # each axis's last coordinate, as axis_coords gives it
        for name, o, c in zip(self.axis_names, self.origins, self.counts):
            with contextlib.suppress(OverflowError):  # a resolution past the float range
                if math.isfinite(o) and math.isfinite(e := o + float(self.resolution) * (c - 1)):
                    ends.append(e)
                    continue
            raise ValueError(
                f"axis {name!r} must have finite coordinates, got origin {o!r}, "
                f"{c} points {self.resolution!r} cents apart"
            )
        vals = np.asarray(self.values, dtype=float)
        # the field owns its values: freezing the caller's array would stop the caller's
        # writes, and a frozen view would still follow writes to its base
        if vals.flags.writeable or not vals.flags.owndata:
            vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        _check_box(self.counts)
        # Canonical flag: a simplex whose axes never cross excludes nothing, so is a box.
        simplex = bool(self.simplex) and any(e > o for e, o in zip(ends, self.origins[1:]))
        object.__setattr__(self, "simplex", simplex)
        if simplex and (len(set(self.origins)) > 1 or len(set(self.counts)) > 1):
            raise ValueError("a simplex field's axes must share one origin and one count")
        d = self.dims
        count = math.comb(self.counts[0] + d - 1, d) if simplex else math.prod(self.counts)
        if len(vals) != count:
            raise ValueError(f"value count {len(vals)} does not match cell count {count}")

    # -- geometry ----------------------------------------------------------

    @property
    def dims(self) -> int:
        return len(self.counts)

    def axis_coords(self, k: int) -> np.ndarray:
        return self.origins[k] + self.resolution * np.arange(self.counts[k], dtype=float)

    def _coords(self, idx) -> np.ndarray:
        """Coordinates (cents) of grid indices stacked along the last axis."""
        return np.add(self.origins, self.resolution * np.asarray(idx, dtype=float))

    @cached_property
    def _index(self) -> np.ndarray:
        """Grid indices of each stored value, one row per axis, in the narrowest
        unsigned dtype: the sorted tuples of a simplex, every box cell otherwise."""
        shape, dtype = (self.dims, self.n_cells), np.min_scalar_type(max(self.counts, default=1) - 1)
        index = (_sorted_tuples(np.empty(shape, dtype), self.counts[0]) if self.simplex
                 else np.indices(self.counts, dtype).reshape(shape))
        index.flags.writeable = False
        return index

    def _rank(self, idx: Sequence[int]) -> int:
        """Position in ``values`` of the cell at grid indices ``idx``: a box's flat position, or
        a simplex's sorted-tuple rank, the count of tuples :func:`_sorted_tuples` writes first."""
        if not self.simplex:
            return int(np.ravel_multi_index(idx, self.counts))
        m, d = self.counts[0], self.dims  # index i skips the (d - i)-suffixes from a_{i-1} to a_i - 1
        return sum(math.comb(m - p + d - i - 1, d - i) - math.comb(m - a + d - i - 1, d - i)
                   for i, (p, a) in enumerate(zip((0, *idx), idx)))

    @property
    def n_cells(self) -> int:
        return len(self.values)

    def index_of(self, coords: Sequence[float]) -> int:
        """Position in ``values`` of the grid cell at ``coords`` (cents), by its rank."""
        key = tuple(float(c) for c in coords)
        if len(key) == self.dims:
            t = np.rint((np.asarray(key) - self.origins) / self.resolution)
            if np.all((t >= 0) & (t < self.counts)):
                idx = t.astype(int).tolist()  # a simplex cell's indices are sorted
                if self._coords(idx).tolist() == list(key) and (not self.simplex or idx == sorted(idx)):
                    return self._rank(idx)
        raise ValueError(f"coordinates {key} are not a grid cell")

    def value_at(self, coords: Sequence[float]) -> float:
        return float(self.values[self.index_of(coords)])

    def dense(self) -> np.ndarray:
        """Read-only full box array for smoothing, minima and matrix export, built on each call.

        Simplex fields are extended symmetrically (a cell reads the value of
        its sorted coordinates), which is the natural extension of a function
        on unordered note sets.  The extension is d! plain writes: each
        ordering of the included cells' indices writes their values.  With one
        axis grid, the sorted indices of every box cell are an included cell,
        so every box cell is written.
        """
        if not self.simplex:
            return self.values.reshape(self.counts)  # a view of read-only values
        out = np.empty(self.counts)
        for cells in itertools.permutations(self._index):
            out[cells] = self.values
        out.flags.writeable = False
        return out

    def with_values(
        self, values: np.ndarray, value_name: str | None = None, meta_updates: dict | None = None
    ) -> "ScalarField":
        """The same grid with other values; it shares this field's read-only cell index."""
        meta = {**self.meta, **(meta_updates or {})}
        fld = replace(self, values=values, value_name=value_name or self.value_name, meta=meta)
        fld.__dict__.update((k, v) for k, v in vars(self).items() if k == "_index")
        return fld

    def interpolate(self, coords: Sequence[float]) -> float:
        """Multilinear interpolation at off-grid coordinates (cents)."""
        if len(coords) != self.dims:
            raise ValueError(f"expected {self.dims} coordinates, got {len(coords)}")
        pos = []
        for k, c in enumerate(coords):
            t = (float(c) - self.origins[k]) / self.resolution
            if not -1e-9 <= t <= self.counts[k] - 1 + 1e-9:
                raise ValueError(f"coordinate {c} is outside axis {self.axis_names[k]}")
            pos.append(min(max(t, 0.0), self.counts[k] - 1.0))
        lo = [min(int(math.floor(t)), self.counts[k] - 1) for k, t in enumerate(pos)]
        frac = [t - i for t, i in zip(pos, lo)]
        corners = list(itertools.product((0, 1), repeat=self.dims))
        idx = np.minimum(np.add(lo, np.array(corners, dtype=np.intp)), np.subtract(self.counts, 1))
        if self.simplex:  # the symmetric extension: a corner reads its sorted cell
            idx.sort(axis=1)
        out = 0.0
        for corner, cell in zip(corners, idx.tolist()):
            w = math.prod(f if bit else 1.0 - f for f, bit in zip(frac, corner))
            if w:
                out += w * self.values.item(self._rank(cell))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        key = operator.attrgetter(
            "resolution", "origins", "counts", "simplex", "axis_names", "value_name"
        )
        return key(self) == key(other) and np.array_equal(self.values, other.values)


def make_simplex_field(
    dims: int, resolution: int, values: Sequence[float], value_name: str, meta: dict
) -> ScalarField:
    """The interval grid's field: ``dims`` axes from 0 to 1200 cents, sorted.  Its meta is
    ``meta`` over the grid's own: domain, resolution_cents (a Python int) and sigma_cents 0."""
    resolution = _integer("resolution", resolution)  # JSON takes a Python int, not a numpy one
    names, counts = tuple(f"x{k + 2}" for k in range(dims)), (_octave_points(resolution),) * dims
    meta = {"domain": "intervals", "resolution_cents": resolution, "sigma_cents": 0.0, **meta}
    return ScalarField(resolution, (0.0,) * dims, counts, True, names, values, value_name, meta)


# -- analysis ---------------------------------------------------------------


def local_minima(
    field: ScalarField, radius: int = 1
) -> list[tuple[tuple[float, ...], float]]:
    """Cells strictly below every neighbor within a Chebyshev radius.

    An equal-valued plateau is one minimum, at its lexicographically least
    stored cell, if none of its cells has a smaller neighbor.  One with no greater
    neighbor either is closed under adjacency, so it is the whole connected box:
    a constant box has no minimum.  NaN equals nothing, so no NaN cell and no
    cell next to one is a minimum.  Simplex fields use their symmetric extension.

    Plateaus are labelled on the stored cells alone, by flat position in the extension
    padded by the radius with +inf, where an int32 ``kind`` is -1 on a stored cell (from
    ``_index``), -2 on a seed (one equal to its cube minimum, so with no smaller neighbor),
    then s + 1 on seed s, and 0 elsewhere: sorting coordinates keeps a cell's value and does
    not increase Chebyshev distance, so a box plateau meeting the stored cells sorts onto one
    plateau of them, which lies in it and so is its stored cells, and a smaller neighbor onto
    a smaller neighbor.  Two seeds within the radius are equal: each is its cube's minimum, so
    at most the other, and a NaN is never one; so any two neighboring seeds make an edge.
    Labels live on the seeds, seed s at entry s + 1; seeds next to an equal stored non-seed
    start at label 0, and rounds hook each root onto the least label across its edges, then
    jump each label to its root (Shiloach and Vishkin, 1982).
    """
    radius = _integer("radius", radius)
    if radius < 1:
        raise ValueError("radius must be >= 1")
    radius = min(radius, max(1, max(field.counts, default=0) - 1))  # max(counts) - 1 reaches every cell
    if ((dense := field.dense()) == dense.flat[0]).all():
        return []
    cube_min = padded = np.pad(dense, radius, constant_values=np.inf)
    del dense
    # Each cell's cube minimum, itself included; np.minimum propagates NaN, which fails ==.
    for k, n in enumerate(field.counts):
        lead = (slice(None),) * k
        low = np.minimum(cube_min[lead + (slice(0, n),)], cube_min[lead + (slice(1, n + 1),)])
        for s in range(2, 2 * radius + 1):
            np.minimum(low, cube_min[lead + (slice(s, s + n),)], out=low)
        cube_min, low = low, None  # one name, so that `del cube_min` frees the last pass
    core = (slice(radius, -radius),) * field.dims + (...,)  # the box (a 0-d one stays a view)
    kind = np.zeros(padded.shape, np.int32)  # -1 on a stored cell, -2 on a seed, then s + 1
    kind[core][tuple(field._index)] = -1
    kind[core][(padded[core] == cube_min) & (kind[core] < 0)] = -2  # a mask: no int32 temporary
    del cube_min
    seeds = np.flatnonzero(kind == -2)
    kind.flat[seeds] = ids = np.arange(1, len(seeds) + 1, dtype=np.int32)
    value, strides = padded.take(seeds), [math.prod(kind.shape[k + 1:]) for k in range(kind.ndim)]
    label = np.arange(len(seeds) + 1, dtype=np.int32)  # label 0 is every leak's
    edges = [(ids[:0], ids[:0])]  # each pair of neighboring seeds once, lesser first
    for o in filter(any, itertools.product(range(-radius, radius + 1), repeat=field.dims)):
        nb = seeds + (step := np.dot(o, strides))
        k = kind.take(nb)
        label[ids[(k == -1) & (padded.take(nb) == value)]] = 0
        if step > 0:
            i = np.flatnonzero(k > 0)
            edges.append((ids[i], k[i]))
    u, v = map(np.concatenate, zip(*edges))
    del edges
    while (apart := label[u] != label[v]).any():
        u, v = u[apart], v[apart]  # a pair once joined stays joined
        np.minimum.at(label, label[u], label[v])
        np.minimum.at(label, label[v], label[u])
        while not np.array_equal(root := label[label], label):
            label = root
    report = seeds[np.setdiff1d(label, 0) - 1]  # flat C order is lexicographic
    coords = field._coords(report[:, None] // strides % kind.shape - radius)
    return list(zip(map(tuple, coords.tolist()), padded.take(report).tolist()))


def slice_field(field: ScalarField, axis: int, value_cents: float) -> ScalarField:
    """Pin one axis at an on-grid value; returns a field of one fewer dims.  A simplex
    slice keeps the axes before ``axis`` at or below the pin and those after it at or
    above, so a middle axis of four or more leaves two sorted groups and is refused."""
    d = field.dims
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for {d}-d field")
    if field.simplex and 0 < axis < d - 1 and d >= 4:
        raise ValueError(f"axis {axis} of a {d}-axis simplex field cannot be sliced: it "
                         "leaves two sorted groups of axes, and a field holds one")
    t = (float(value_cents) - field.origins[axis]) / field.resolution
    on_grid = math.isfinite(t) and abs(t - round(t)) <= 1e-9
    if not on_grid or not 0 <= round(t) < field.counts[axis]:
        raise ValueError(f"{value_cents} cents is not on the grid of axis {axis}")

    j = int(round(t))
    rest = [k for k in range(d) if k != axis]
    # a simplex's axes before the pin span [0, j] and those after it [j, m - 1]
    lo = [j if field.simplex and k > axis else 0 for k in rest]
    hi = [j + 1 if field.simplex and k < axis else field.counts[k] for k in rest]
    return replace(
        field,
        origins=tuple(field.origins[k] + field.resolution * a for k, a in zip(rest, lo)),
        counts=tuple(b - a for a, b in zip(lo, hi)),
        axis_names=tuple(field.axis_names[k] for k in rest),
        values=field.values[field._index[axis] == j],  # in lexicographic order of the rest
        meta=dict(field.meta, sliced_axis=field.axis_names[axis], sliced_at=float(value_cents)),
    )


# -- serialization ----------------------------------------------------------


#: Rows per ``export_csv`` write (values per ``export_matrix`` write, at least one row):
#: any size gives the same bytes.  A row holds 90 to 120 traced bytes: a chunk stays under 1 MiB.
_CSV_CHUNK_ROWS = 8192


#: The zero-padded three-digit groups "000" to "999".
_DIGITS = np.array([f"{i:03d}" for i in range(1000)], dtype="S3")


def _value_bytes(values: np.ndarray) -> np.ndarray:
    """The CSV and matrix value format, ``"{:.6f}"``, of every value: one
    NUL-padded fixed-width byte record (a ``V`` item) per value.

    ``N = rint(|v| * 1e6)`` gives the digits: ``divmod(N, 10**6)`` splits it
    into the integer part, its leading zeros blanked, and six fraction
    digits; the sign comes from ``np.signbit``, so ``-0.0`` and tiny
    negatives print as ``-0.000000``, as ``format`` prints them.

    These digits are ``format``'s whenever ``y = |v| * 1e6`` is below 2**52
    and further than ``4 * np.spacing(y)`` from a half-integer.  ``format``
    rounds the exact product ``|v| * 10**6`` to an integer, half to even.
    1e6 is exact in binary, so the float product ``y`` is the exact one
    rounded once and lies within half an ulp, ``np.spacing(y) / 2``, of it.
    Both then lie strictly between the same two half-integers, and ``rint``
    picks the same integer.  Every other value goes through ``format``
    itself: exact ties such as 0.0078125 (odd multiples of 2**-7), near-ties,
    huge values, NaN and the infinities.
    """
    with np.errstate(over="ignore"):  # a huge value's product is infinite: format prints it
        y = np.abs(values) * 1e6
    fast = y < 2.0**52  # False for NaN and the infinities
    y[~fast] = 0.0  # no NaN reaches the int64 cast
    fast &= np.abs(y - np.floor(y) - 0.5) > 4 * np.spacing(y)
    whole, frac = np.divmod(np.rint(y).astype(np.int64), 10**6)
    width = len(str(whole.max(initial=0)))  # integer digits
    out = np.zeros((len(y), width + 8), dtype=np.uint8)
    out[np.signbit(values), 0] = ord("-")
    for k in range(width):
        scale = 10 ** (width - 1 - k)
        digit = whole // scale % 10 + ord("0")
        out[:, 1 + k] = digit if scale == 1 else np.where(whole >= scale, digit, 0)
    out[:, width + 1] = ord(".")
    for k, group in enumerate(np.divmod(frac, 1000)):
        out[:, width + 2 + 3 * k:width + 5 + 3 * k] = _DIGITS[group].view(np.uint8).reshape(-1, 3)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["{:.6f}".format(v) for v in values[slow].tolist()], dtype="S")
        if text.itemsize > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, text.itemsize - out.shape[1])))
        out[slow] = 0
        out[slow, : text.itemsize] = text.view(np.uint8).reshape(slow.size, -1)
    return out.view(f"V{out.shape[1]}")[:, 0]


def _write_rows(fh, fields: list) -> None:
    """Write rows whose fields lie side by side, without their NUL padding.

    A field is a 1-D array with one fixed-width item per row (such as the
    ``S`` or ``V`` records of :func:`_value_bytes`) or one numpy scalar, such
    as a ``uint8`` separator, shared by every row.  The rows are one
    structured array, whose ``uint8`` view is a NUL-padded byte matrix.
    """
    rows = max(np.size(f) for f in fields)
    table = np.empty(rows, [(f"f{k}", f.dtype) for k, f in enumerate(fields)])
    for k, f in enumerate(fields):
        table[f"f{k}"] = f
    data = table.view(np.uint8)
    fh.write(data[data != 0])


def export_csv(field: ScalarField, path) -> None:
    """Write cells as CSV: coordinate columns, then the value at 6 decimals.

    Each axis's coordinates are formatted once into a byte-string table
    that every cell gathers from by grid index, and the values go through
    :func:`_value_bytes`, so no per-cell string is built.  Rows are written
    in chunks of :data:`_CSV_CHUNK_ROWS`, each one NUL-padded byte matrix
    whose grid indices are that chunk of the field's ``_index``, so no more
    than one chunk's bytes are held.
    """
    labels = [np.array([_fmt_coord(c) for c in field.axis_coords(k).tolist()], dtype="S")
              for k in range(field.dims)]
    comma, newline = np.uint8(ord(",")), np.uint8(ord("\n"))
    with open(path, "wb") as fh:
        fh.write((",".join(field.axis_names + (field.value_name,)) + "\n").encode("utf-8"))
        for start in range(0, len(field.values), _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            columns = [f for lab, i in zip(labels, field._index) for f in (lab[i[rows]], comma)]
            _write_rows(fh, columns + [_value_bytes(field.values[rows]), newline])


def _data_lines(path, header_line: int) -> list[tuple[int, str]]:
    """(physical line number, text) of every non-blank line after the header."""
    with open(path, "r", encoding="utf-8") as fh:
        return [
            (i, ln.rstrip("\n"))
            for i, ln in enumerate(fh, start=1)
            if i > header_line and ln.strip()
        ]


def _parse_rows(path, header_line: int, dims: int) -> np.ndarray:
    """The data rows parsed line by line with ``float``; raises at the first
    bad physical line."""
    rows = []
    for lineno, ln in _data_lines(path, header_line):
        parts = ln.split(",")
        if len(parts) != dims + 1:
            raise ValueError(
                f"{path}: line {lineno}: expected {dims + 1} columns, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed number") from None
    return np.array(rows, dtype=float).reshape(len(rows), dims + 1)


def import_csv(path) -> ScalarField:
    """Rebuild a field from :func:`export_csv` output.

    Grid structure (origins, counts, resolution, simplex flag) is inferred
    from the coordinate columns.  The header is the first non-blank line;
    the data rows are parsed in one ``np.loadtxt`` pass.  Malformed rows and
    non-finite coordinates raise ``ValueError`` with the offending physical
    line number; coordinates whose span overflows a float or whose smallest
    step rounds to 0 cents raise ``ValueError`` naming the file.  Only when
    that pass fails, or finds the wrong column count, are the rows parsed
    again line by line with ``float``: that fallback exists only to name the
    bad line (and to read the few spellings, such as ``1_000``, that
    ``float`` accepts and ``loadtxt`` does not).
    """
    with open(path, "r", encoding="utf-8") as fh:
        header, header_line = "", 0
        while not header.strip():
            header = fh.readline()
            header_line += 1
            if not header:
                raise ValueError(f"{path}: line 1: empty file")
    names = header.rstrip("\n").split(",")
    axis_names, value_name, dims = tuple(names[:-1]), names[-1], len(names) - 1

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without data rows
            data = np.loadtxt(
                path, delimiter=",", ndmin=2, comments=None,
                skiprows=header_line, encoding="utf-8",
            )
    except ValueError:
        data = None
    if data is None or data.shape[1] != dims + 1:
        data = _parse_rows(path, header_line, dims)
    rows, values = data[:, :dims], np.ascontiguousarray(data[:, dims])

    if not len(values):
        raise ValueError(f"{path}: line {header_line + 1}: no data rows")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        lineno = _data_lines(path, header_line)[bad[0]][0]
        raise ValueError(f"{path}: line {lineno}: non-finite coordinates {tuple(rows[bad[0]].tolist())}")
    uniques = [np.unique(rows[:, k]) for k in range(dims)]
    with np.errstate(over="ignore"):  # a step or span past the float range is refused below
        steps = [float(np.diff(u).min()) for u in uniques if len(u) >= 2]
        spans = [float(u[-1] - u[0]) for u in uniques]
    step = min(steps, default=1.0)
    if not (step > 0.5 and all(map(math.isfinite, spans))):  # round(0.5) is 0
        raise ValueError(
            f"{path}: the coordinates span {max(spans):g} cents in steps of {step:g}, "
            "no grid of whole cents"
        )
    resolution = int(round(step))
    origins = tuple(float(u[0]) for u in uniques)
    counts = tuple(int(round(span / resolution)) + 1 for span in spans)

    simplex = len(values) < math.prod(counts)
    try:
        fld = ScalarField(resolution, origins, counts, simplex, axis_names, values, value_name)
    except ValueError as exc:  # a grid too large, axes that differ, or a count off the grid
        msg = str(exc)
        if msg.startswith("value count"):
            msg = f"row count {len(values)} does not match the inferred grid ({msg})"
        raise ValueError(f"{path}: {msg}") from None
    for start in range(0, len(values), _CSV_CHUNK_ROWS):  # against its cells' coordinates
        chunk = slice(start, start + _CSV_CHUNK_ROWS)
        bad = np.flatnonzero((np.abs(rows[chunk] - fld._coords(fld._index[:, chunk].T)) > 1e-6).any(axis=1))
        if bad.size:
            at = start + bad[0]
            lineno = _data_lines(path, header_line)[at][0]
            raise ValueError(
                f"{path}: line {lineno}: coordinates {tuple(rows[at].tolist())} "
                "break lexicographic order"
            )
    return fld


def export_matrix(field: ScalarField, path) -> None:
    """Whitespace-separated dense matrix (rows follow the first axis), values
    at 6 decimals as in :func:`export_csv`, written a chunk of rows at a time."""
    if field.dims != 2:
        raise ValueError("matrix export is defined for 2-d fields only")
    dense = field.dense()
    step = max(1, _CSV_CHUNK_ROWS // dense.shape[1])
    with open(path, "wb") as fh:
        for start in range(0, len(dense), step):
            block = dense[start:start + step]
            ends = np.full(block.shape, ord(" "), np.uint8)
            ends[:, -1] = ord("\n")
            _write_rows(fh, [_value_bytes(block.reshape(-1)), ends.reshape(-1)])
