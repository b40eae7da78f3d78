"""Regular-grid scalar fields over normalized chord domains.

A field stores one real value per grid cell.  Two domain flavors exist:

* interval grids: coordinates are the non-root notes of a chord rooted at 0,
  constrained to ``0 <= x2 <= ... <= xn <= 1200`` cents (simplex storage --
  the rest of the hypercube is redundant under note reordering);
* note-window grids: a box of candidate chords around a reference chord, one
  axis per note, no simplex constraint.

Cells are ordered lexicographically by coordinates; that order is total,
stable and shared by the CSV export, which makes outputs hashable in CI.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field as dc_field
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


#: The CSV and matrix value format: 6 decimals.
_fmt_value = "{:.6f}".format


#: Most box cells of any grid: the tetrad at 4 cents (301**3) fits, at 3 cents does not.
_MAX_BOX_CELLS = 2**25


def _check_box(counts: Sequence[int]) -> None:
    """Refuse a grid whose box exceeds :data:`_MAX_BOX_CELLS` cells."""
    if math.prod(counts) > _MAX_BOX_CELLS:
        raise ValueError(
            f"a grid of {' x '.join(map(str, counts))} cells is larger than the "
            f"{_MAX_BOX_CELLS:,} cells allowed"
        )


def _cell_mask(
    origins: Sequence[float], resolution: float, counts: Sequence[int], simplex: bool
) -> np.ndarray:
    """Included cells of the box with these axes; C-order is lexicographic.  A
    simplex keeps the cells whose coordinates never decrease."""
    _check_box(counts)
    mask = np.ones(tuple(counts), dtype=bool)
    if simplex:
        axes = [o + resolution * np.arange(c, dtype=float) for o, c in zip(origins, counts)]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        for a, b in zip(grids, grids[1:]):
            mask &= a <= b
    return mask


def interval_grid(n: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The one-octave grid of n-note chords rooted at 0: ``(notes, rows)``.

    ``notes[k] = k * resolution / 100`` semitones is axis value k (index 0 is
    the root's 0); ``rows`` is a ``(cells, n)`` array of note indices, one row
    per cell, root first, in the lexicographic order of
    :func:`make_simplex_field`.  It is the transpose of a C-ordered array, so
    ``rows.T[k]`` is note k of every cell, contiguous.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"interval grids hold 2 to 4 notes, got {n}")
    if resolution <= 0 or 1200 % resolution != 0:
        raise ValueError(f"resolution {resolution} must be positive and divide 1200")
    m = 1200 // resolution + 1
    cells = np.nonzero(_cell_mask((0.0,) * (n - 1), resolution, (m,) * (n - 1), True))
    return np.arange(m) * resolution / 100, np.stack((np.zeros_like(cells[0]), *cells)).T


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Dense scalar values on a regular (possibly simplex-constrained) grid.

    ``values`` holds one float per included cell, in lexicographic coordinate
    order.  ``mask`` is the read-only ``counts``-shaped boolean array of the
    included cells, built once; every cell lookup derives from it.  ``meta``
    carries the generator name and configuration snapshot; it is excluded
    from equality.
    """

    resolution: int
    origins: tuple[float, ...]
    counts: tuple[int, ...]
    simplex: bool
    axis_names: tuple[str, ...]
    values: np.ndarray
    value_name: str = "value"
    meta: dict = dc_field(default_factory=dict)
    mask: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("resolution must be a positive number of cents")
        if not (len(self.origins) == len(self.counts) == len(self.axis_names)):
            raise ValueError("origins, counts and axis_names must align")
        if any(c < 1 for c in self.counts):
            raise ValueError("every axis needs at least one grid point")
        vals = np.asarray(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        mask = _cell_mask(self.origins, self.resolution, self.counts, self.simplex)
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        # Canonical flag: simplex that excludes nothing is stored as a box.
        object.__setattr__(self, "simplex", not mask.all())
        if len(vals) != self.n_cells:
            raise ValueError(
                f"value count {len(vals)} does not match cell count {self.n_cells}"
            )

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
    def cells(self) -> tuple[tuple[float, ...], ...]:
        """Included cell coordinates (cents), lexicographic order."""
        return tuple(map(tuple, self._coords(np.argwhere(self.mask)).tolist()))

    @cached_property
    def _positions(self) -> np.ndarray:
        """Index into ``values`` of every box cell; -1 where the mask excludes it."""
        return np.where(self.mask, np.cumsum(self.mask).reshape(self.counts) - 1, -1)

    @property
    def n_cells(self) -> int:
        return int(np.count_nonzero(self.mask))

    def index_of(self, coords: Sequence[float]) -> int:
        key = tuple(float(c) for c in coords)
        if len(key) == self.dims:
            t = np.rint((np.asarray(key) - self.origins) / self.resolution)
            if np.all((t >= 0) & (t < self.counts)):
                idx = tuple(t.astype(int))
                if self._coords(idx).tolist() == list(key) and self._positions[idx] >= 0:
                    return int(self._positions[idx])
        raise ValueError(f"coordinates {key} are not a grid cell")

    def value_at(self, coords: Sequence[float]) -> float:
        return float(self.values[self.index_of(coords)])

    def dense(self) -> np.ndarray:
        """Full box array of values, computed once and cached read-only.

        Simplex fields are extended symmetrically (a cell reads the value of
        its sorted coordinates), which is the natural extension of a function
        on unordered note sets.
        """
        return self._dense

    @cached_property
    def _dense(self) -> np.ndarray:
        if not self.simplex:
            return self.values.reshape(self.counts)  # a view of read-only values
        want = np.sort(self._coords(np.moveaxis(np.indices(self.counts), 0, -1)), axis=-1)
        idx = np.rint((want - self.origins) / self.resolution).astype(np.intp)
        inside = np.all((idx >= 0) & (idx < self.counts))
        if not (inside and np.array_equal(self._coords(idx), want)):
            raise ValueError("sorted coordinates leave the grid: no symmetric extension")
        # Sorted coordinates never decrease, so the mask includes every one.
        out = self.values[self._positions[tuple(np.moveaxis(idx, -1, 0))]]
        out.flags.writeable = False
        return out

    def with_values(
        self,
        values: np.ndarray,
        value_name: str | None = None,
        meta_updates: dict | None = None,
    ) -> "ScalarField":
        meta = dict(self.meta)
        if meta_updates:
            meta.update(meta_updates)
        return ScalarField(
            resolution=self.resolution,
            origins=self.origins,
            counts=self.counts,
            simplex=self.simplex,
            axis_names=self.axis_names,
            values=np.asarray(values, dtype=float),
            value_name=value_name or self.value_name,
            meta=meta,
        )

    def interpolate(self, coords: Sequence[float]) -> float:
        """Multilinear interpolation at off-grid coordinates (cents)."""
        if len(coords) != self.dims:
            raise ValueError(f"expected {self.dims} coordinates, got {len(coords)}")
        dense = self.dense()
        pos = []
        for k, c in enumerate(coords):
            t = (float(c) - self.origins[k]) / self.resolution
            if t < -1e-9 or t > self.counts[k] - 1 + 1e-9:
                raise ValueError(
                    f"coordinate {c} is outside axis {self.axis_names[k]}"
                )
            pos.append(min(max(t, 0.0), self.counts[k] - 1.0))
        lo = [min(int(math.floor(t)), self.counts[k] - 1) for k, t in enumerate(pos)]
        out = 0.0
        for corner in itertools.product((0, 1), repeat=self.dims):
            idx = []
            w = 1.0
            for k, bit in enumerate(corner):
                i = min(lo[k] + bit, self.counts[k] - 1)
                frac = pos[k] - lo[k]
                w *= frac if bit else 1.0 - frac
                idx.append(i)
            if w:
                out += w * float(dense[tuple(idx)])
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        return (
            self.resolution == other.resolution
            and self.origins == other.origins
            and self.counts == other.counts
            and self.simplex == other.simplex
            and self.axis_names == other.axis_names
            and self.value_name == other.value_name
            and np.array_equal(self.values, other.values)
        )


def make_simplex_field(
    dims: int,
    resolution: int,
    values: Sequence[float],
    value_name: str,
    meta: dict,
) -> ScalarField:
    n = 1200 // resolution + 1
    return ScalarField(
        resolution=resolution,
        origins=(0.0,) * dims,
        counts=(n,) * dims,
        simplex=dims >= 2,
        axis_names=tuple(f"x{k + 2}" for k in range(dims)),
        values=np.asarray(values, dtype=float),
        value_name=value_name,
        meta=meta,
    )


# -- analysis ---------------------------------------------------------------


def local_minima(
    field: ScalarField, radius: int = 1
) -> list[tuple[tuple[float, ...], float]]:
    """Cells strictly below every neighbor within a Chebyshev radius.

    Equal-valued plateaus count as one minimum, reported at the
    lexicographically smallest member, provided no cell reachable through the
    plateau sees a smaller neighbor.  Neighbor values of simplex fields come
    from the symmetric extension, so cells near the diagonal are compared
    against their mirrored surroundings as well.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if field.dims == 0:
        return []
    dense = field.dense()
    counts = field.counts
    # Lowest neighbor of every cell, by shifted slices of a padded copy;
    # infinite padding makes a missing neighbor never the lowest.
    low = np.pad(dense, radius, constant_values=np.inf)
    nb_min = np.full(counts, np.inf)
    for shift in itertools.product(range(2 * radius + 1), repeat=field.dims):
        if all(s == radius for s in shift):
            continue
        window = tuple(slice(s, s + n) for s, n in zip(shift, counts))
        np.minimum(nb_min, low[window], out=nb_min)
    no_smaller = dense <= nb_min

    # A cell strictly below its neighbors is a one-cell basin; it has a
    # (higher) neighbor exactly when the box holds more than one cell.
    strict = field.mask & (dense < nb_min) & (dense.size > 1)
    reported = [
        (tuple(c), float(v))
        for c, v in zip(field._coords(np.argwhere(strict)).tolist(), dense[strict])
    ]

    def neighbors(idx):
        ranges = [
            range(max(0, i - radius), min(counts[k], i + radius + 1))
            for k, i in enumerate(idx)
        ]
        for nb in itertools.product(*ranges):
            if nb != idx:
                yield nb

    # A cell tying its lowest neighbor may lie on a plateau: flood across
    # equal-valued neighbors; a plateau leaking to a cell with a smaller
    # neighbor is not a minimum.
    seen = set()
    for idx in map(tuple, np.argwhere(field.mask & (dense == nb_min)).tolist()):
        if idx in seen:
            continue
        me = dense[idx]
        component = {idx}
        queue = [idx]
        valid = True
        has_uphill = False
        while queue:
            cur = queue.pop()
            for nb in neighbors(cur):
                if dense[nb] > me:
                    has_uphill = True
                if dense[nb] == me and nb not in component:
                    component.add(nb)
                    valid = valid and no_smaller[nb]
                    queue.append(nb)
        seen |= component
        # A plateau with no strictly greater surroundings (e.g. a constant
        # field) is not a minimum.
        if valid and has_uphill:
            first = min(i for i in component if field.mask[i])
            reported.append((tuple(field._coords(first).tolist()), float(me)))
    reported.sort(key=lambda item: item[0])
    return reported


def slice_field(field: ScalarField, axis: int, value_cents: float) -> ScalarField:
    """Pin one axis at an on-grid value; returns a field of one fewer dims."""
    if not 0 <= axis < field.dims:
        raise ValueError(f"axis {axis} out of range for {field.dims}-d field")
    t = (float(value_cents) - field.origins[axis]) / field.resolution
    on_grid = math.isfinite(t) and abs(t - round(t)) <= 1e-9
    if not on_grid or not 0 <= round(t) < field.counts[axis]:
        raise ValueError(f"{value_cents} cents is not on the grid of axis {axis}")

    at = (slice(None),) * axis + (int(round(t)),)
    positions, kept = field._positions[at], field.mask[at]  # a kept cell's own value
    if not kept.any():
        name = field.axis_names[axis]
        raise ValueError(f"no cell of the field has {name} = {value_cents:g} cents")
    box = np.argwhere(kept)  # nonzero would raise on the 0-d slice of a dyad field
    lo, hi = box.min(axis=0).tolist(), (box.max(axis=0) + 1).tolist()
    window = tuple(map(slice, lo, hi))
    rest = [k for k in range(field.dims) if k != axis]
    return ScalarField(
        resolution=field.resolution,
        origins=tuple(field.origins[k] + field.resolution * a for k, a in zip(rest, lo)),
        counts=tuple(b - a for a, b in zip(lo, hi)),
        simplex=field.simplex,
        axis_names=tuple(field.axis_names[k] for k in rest),
        values=field.values[positions[window][kept[window]]],
        value_name=field.value_name,
        meta=dict(field.meta, sliced_axis=field.axis_names[axis], sliced_at=value_cents),
    )


# -- serialization ----------------------------------------------------------


#: Rows per ``export_csv`` write; any size gives the same bytes.
_CSV_CHUNK_ROWS = 65536


def export_csv(field: ScalarField, path) -> None:
    """Write cells as CSV: coordinate columns, then the value at 6 decimals.

    Each axis's coordinates are formatted once; every cell picks its labels
    by grid index, so no per-cell tuple is built.  Rows are written in chunks
    of :data:`_CSV_CHUNK_ROWS`, so no more than one chunk's strings are held.
    """
    labels = [np.array([_fmt_coord(c) for c in field.axis_coords(k).tolist()], dtype=object)
              for k in range(field.dims)]
    idx = np.argwhere(field.mask)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(field.axis_names + (field.value_name,)) + "\n")
        for start in range(0, len(idx), _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            columns = [lab[idx[rows, k]].tolist() for k, lab in enumerate(labels)]
            values = map(_fmt_value, field.values[rows].tolist())
            fh.write("\n".join(map(",".join, zip(*columns, values))) + "\n")


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
    the data rows are parsed in one ``np.loadtxt`` pass.  Malformed rows
    raise ``ValueError`` with the offending physical line number.  Only when
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

    if dims == 0:
        if len(values) != 1:
            raise ValueError(f"{path}: expected exactly one value row for 0-d field")
        return ScalarField(
            resolution=1, origins=(), counts=(), simplex=False, axis_names=(),
            values=values, value_name=value_name, meta={},
        )

    if not len(values):
        raise ValueError(f"{path}: line {header_line + 1}: no data rows")
    uniques = [np.unique(rows[:, k]) for k in range(dims)]
    steps = [float(np.diff(u).min()) for u in uniques if len(u) >= 2]
    resolution = int(round(min(steps))) if steps else 1
    origins = tuple(float(u[0]) for u in uniques)
    counts = tuple(int(round(float(u[-1] - u[0]) / resolution)) + 1 for u in uniques)

    try:  # a grid too large is refused as such, not as a row-count mismatch
        _check_box(counts)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    simplex = dims >= 2 and len(values) < math.prod(counts)
    try:
        fld = ScalarField(
            resolution=resolution,
            origins=origins,
            counts=counts,
            simplex=simplex,
            axis_names=axis_names,
            values=values,
            value_name=value_name,
            meta={},
        )
    except ValueError as exc:
        raise ValueError(
            f"{path}: row count {len(values)} does not match the inferred grid ({exc})"
        ) from None
    off = np.abs(rows - fld._coords(np.argwhere(fld.mask))) > 1e-6
    bad = np.flatnonzero(off.any(axis=1))
    if bad.size:
        lineno = _data_lines(path, header_line)[bad[0]][0]
        raise ValueError(
            f"{path}: line {lineno}: coordinates {tuple(rows[bad[0]].tolist())} "
            "break lexicographic order"
        )
    return fld


def export_matrix(field: ScalarField, path) -> None:
    """Whitespace-separated dense matrix (rows follow the first axis)."""
    if field.dims != 2:
        raise ValueError("matrix export is defined for 2-d fields only")
    lines = (" ".join(map(_fmt_value, row)) + "\n" for row in field.dense().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(lines))
