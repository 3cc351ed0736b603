"""Marching-squares contour extraction from a sampled scalar grid.

Plain linear-interpolation marching squares on the cell edges (case table of
Lorensen & Cline, SIGGRAPH 1987), with two policies relevant to sweep data:
cells touching a non-finite sample (NaN is the sweep sentinel for per-point
failures) are skipped entirely, and saddle cells are resolved by the
cell-centre average. One numpy pass per level gives every cell its case
index; edge points are computed for the crossing cells only. Segments are
chained into polylines deterministically (row-major cell order, endpoint
matching on a rounded key). `extract_contours` returns a plain dict, each
level to its polylines, and `contour_table` writes it as rows.

`read_grid_file` reads back the grid CSV that `sqom grid` writes: numpy's C
parser, with no Python call per line or per cell, where it reads the file as
csv and int()/float() would, and float() once per axis index on the bytes of
that index's axis cells; the csv module otherwise, an empty value cell (a
NaN) and axis cells of one index that differ in a byte included (the README
gives the rules).
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import re
import warnings

import numpy as np

from .errors import ConfigError
from .sweep import COLUMN_SCHEMA, Table


# Corner k of cell (i, j) is (i, j), (i+1, j), (i+1, j+1), (i, j+1) for
# k = 0..3; edge k runs from corner k to corner k+1 (mod 4). Bit k of the
# case index is set when corner k is >= the level.
_EDGES = {  # case index -> (edge_a, edge_b) segments
    1: [(3, 0)],
    2: [(0, 1)],
    3: [(3, 1)],
    4: [(1, 2)],
    6: [(0, 2)],
    7: [(3, 2)],
    8: [(2, 3)],
    9: [(2, 0)],
    11: [(2, 1)],
    12: [(1, 3)],
    13: [(1, 0)],
    14: [(0, 3)],
}
# Saddles follow the centre average: at or above the level, the centre joins
# the two corners above and the segments cut off the two corners below;
# below it, they cut off the two corners above.
_SADDLES = {  # (case index, centre >= level) -> segments
    (5, True): [(3, 2), (1, 0)],
    (5, False): [(3, 0), (1, 2)],
    (10, True): [(0, 3), (2, 1)],
    (10, False): [(0, 1), (2, 3)],
}


def _segment_table() -> np.ndarray:
    """table[case, centre >= level] holds up to two (edge_a, edge_b) pairs;
    -1 pads the cases with one segment."""
    table = np.full((16, 2, 2, 2), -1)
    for case, pairs in _EDGES.items():
        table[case, :, : len(pairs)] = pairs
    for (case, above), pairs in _SADDLES.items():
        table[case, int(above)] = pairs
    return table


_SEGMENTS = _segment_table()


def _chain(px: np.ndarray, py: np.ndarray) -> list[np.ndarray]:
    """Join segments sharing endpoints into polylines, deterministically.

    Segment k runs from endpoint 2k to endpoint 2k+1 of (px, py). Endpoints
    meet where their coordinates rounded to 12 decimals agree; this is
    numpy's rounding, the one `round` applies to numpy floats. A segment
    whose two ends meet has zero length and is dropped.
    """
    keys = list(zip(np.round(px, 12).tolist(), np.round(py, 12).tolist()))
    segments = [k for k in range(len(keys) // 2) if keys[2 * k] != keys[2 * k + 1]]
    by_end: dict[tuple, list[int]] = {}
    for k in segments:
        by_end.setdefault(keys[2 * k], []).append(k)
        by_end.setdefault(keys[2 * k + 1], []).append(k)

    used = [False] * (len(keys) // 2)
    polylines = []
    for start in segments:
        if used[start]:
            continue
        used[start] = True
        head, line, tail = [], [2 * start, 2 * start + 1], []
        # grow forward from the tail, then backward from the head
        for grow, end in ((tail, 2 * start + 1), (head, 2 * start)):
            while True:
                key = keys[end]
                nxt = next((k for k in by_end[key] if not used[k]), None)
                if nxt is None:
                    break
                used[nxt] = True
                end = 2 * nxt + 1 if keys[2 * nxt] == key else 2 * nxt
                grow.append(end)
        points = head[::-1] + line + tail
        polylines.append(np.column_stack((px[points], py[points])))
    return polylines


def extract_contours(
    x_values: np.ndarray,
    y_values: np.ndarray,
    field: np.ndarray,
    levels: list[float],
) -> dict[float, list[np.ndarray]]:
    """Extract equipotential polylines of `field` sampled on a rectilinear grid.

    Returns each level of `levels`, in their order and as the same objects,
    mapped to its polylines in axis coordinates: a list of (N, 2) float
    arrays of (x, y) vertices, empty for a level that never crosses the field.

    Parameters
    ----------
    x_values, y_values : 1-D arrays of the axis sample positions.
    field : 2-D array indexed as field[y_index, x_index]; NaN marks failed
        sample points, whose surrounding cells are skipped.
    levels : contour levels to extract, finite and distinct (0.0 and -0.0
        are one level).
    """
    xs = np.asarray(x_values, dtype=float)
    ys = np.asarray(y_values, dtype=float)
    f = np.asarray(field, dtype=float)
    if f.shape != (ys.size, xs.size):
        raise ValueError(
            f"field shape {f.shape} does not match (len(y), len(x)) = ({ys.size}, {xs.size})"
        )
    if any(not np.isfinite(lv) for lv in levels):
        raise ValueError("contour levels must be finite")
    repeated = [lv for lv in dict.fromkeys(levels) if levels.count(lv) > 1]  # 0.0 == -0.0
    if repeated:
        raise ValueError(f"repeated contour level(s): {', '.join(f'{lv:g}' for lv in repeated)}")
    corners = (f[:-1, :-1], f[:-1, 1:], f[1:, 1:], f[1:, :-1])
    finite = np.logical_and.reduce([np.isfinite(v) for v in corners])
    result: dict[float, list[np.ndarray]] = {}
    for level in levels:
        # >= : a corner exactly on the level counts as above, so a contour
        # through a grid node yields clean crossings, not zero-length stubs
        case = sum((v >= level).astype(np.intp) << bit for bit, v in enumerate(corners))
        j, i = np.nonzero(finite & (case != 0) & (case != 15))  # row-major cell order
        v = [c[j, i] for c in corners]
        cx = (xs[i], xs[i + 1], xs[i + 1], xs[i])
        cy = (ys[j], ys[j], ys[j + 1], ys[j + 1])
        # the point where the level crosses each edge; only the edges a
        # segment uses straddle the level, the others are never read
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = [(level - v[a]) / (v[(a + 1) % 4] - v[a]) for a in range(4)]
            ex = np.column_stack([cx[a] + t[a] * (cx[(a + 1) % 4] - cx[a]) for a in range(4)])
            ey = np.column_stack([cy[a] + t[a] * (cy[(a + 1) % 4] - cy[a]) for a in range(4)])
            # saddles (cases 5 and 10) follow the cell-centre average
            centre_above = (v[0] + v[1] + v[2] + v[3]) / 4.0 >= level
        pairs = _SEGMENTS[case[j, i], centre_above.astype(np.intp)]  # (cell, segment, end)
        cell, segment = np.nonzero(pairs[:, :, 0] >= 0)
        edge = pairs[cell, segment]  # (segment, end): the edge of each endpoint
        result[level] = _chain(ex[cell[:, None], edge].ravel(), ey[cell[:, None], edge].ravel())
    return result


def contour_table(contours: dict[float, list[np.ndarray]], field: str) -> Table:
    """One row per polyline vertex, in the columns field, level, polyline,
    vertex, x, y; polylines are numbered from 0 within each level, vertices
    from 0 within each polyline."""
    lines = [
        (level, number, line)
        for level, polylines in contours.items()
        for number, line in enumerate(polylines)
    ]
    counts = np.array([len(line) for *_, line in lines], dtype=int)
    xy = np.concatenate([line for *_, line in lines]) if lines else np.empty((0, 2))
    first = np.repeat(np.cumsum(counts) - counts, counts)  # row of each polyline's vertex 0
    return Table(
        {
            "field": np.full(len(xy), field),
            "level": np.repeat(np.array([lv for lv, _, _ in lines], dtype=float), counts),
            "polyline": np.repeat(np.array([k for _, k, _ in lines], dtype=int), counts),
            "vertex": np.arange(len(xy)) - first,
            "x": xy[:, 0],
            "y": xy[:, 1],
        }
    )


# --- grid files --------------------------------------------------------------

def _parsed(path: str, name: str, cells, convert) -> np.ndarray:
    """convert(cell) for each cell of column `name`; the first cell it
    refuses is named with its column and data row."""
    values = []
    for row, cell in enumerate(cells, 1):
        try:
            values.append(convert(cell))
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ConfigError(
                f"grid file {path}: {name} cell {cell!r} in data row {row} is not {kind}"
            ) from None
    return np.array(values)


def _value_cell(cell: str) -> float:
    """A value cell; an empty one (a failed point) is NaN, not an error."""
    return float(cell) if cell else math.nan


_AXIS_BYTES = 25  # an axis cell's field: '%.17g' writes at most 24 characters


def _loadtxt_columns(text: str, usecols: list):
    """The kept columns of a grid file's `text` by numpy's C parser, or None
    for a file it may read otherwise than csv and int()/float(): one that is
    not ASCII (numpy takes some letters for digits), quotes, holds a separator
    \\x1c-\\x1f (numpy strips those from a number) or \\x00 (a bytes field
    drops it), keeps a column twice, or that numpy refuses or warns about (an
    empty value cell, an index beyond int32; numpy < 2 reads '1.0' as the
    integer 1 with a DeprecationWarning).

    numpy reads the axis cells as bytes, and float() converts each axis index
    once, from its cells' bytes. So a file is also refused where the axis
    cells of one index differ in a byte (' 2 ' and '2', '1_0' and '10', a
    non-finite cell a later row overrides), an axis cell is empty or fills
    its field (it may have been cut), or an index is negative or not below
    the row count."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if (not text.isascii() or any(c in text for c in '"\x00\x1c\x1d\x1e\x1f')
                    or len(set(usecols)) < len(usecols)):
                return None
            # csv's rows: a text stream ends lines at \r\n, \r or \n, and its
            # bytes take less memory than a list of the lines
            table = np.loadtxt(
                io.TextIOWrapper(io.BytesIO(text.encode("ascii")), "ascii"),
                dtype=f"i4,i4,S{_AXIS_BYTES},S{_AXIS_BYTES},f8", delimiter=",", comments=None,
                quotechar=None, skiprows=1, usecols=usecols, ndmin=1,
            )
            xi, yi, x_cells, y_cells, values = (table[name] for name in table.dtype.names)
            axes = []
            for index, cells in ((xi, x_cells), (yi, y_cells)):
                if index.min() < 0 or index.max() >= index.size:
                    return None
                last = np.zeros(index.max() + 1, cells.dtype)
                last[index] = cells
                if not (last[index] == cells).all():  # an index's cells differ
                    return None
                last = last.tolist()
                if max(map(len, last)) == _AXIS_BYTES:
                    return None
                # an empty cell, and an index no row has, read b'': float() refuses it
                axes.append(np.array([float(cell) for cell in last])[index])
        except (ValueError, Warning):
            return None
    return [xi.astype(np.int64), yi.astype(np.int64), *axes, values]


def _csv_columns(path: str, names, usecols, rows):
    """The kept columns of csv rows, a short row's missing cells empty; each
    is converted when asked for, so the index checks precede the axis cells'."""
    columns = [[] for _ in usecols]
    kept = list(zip(usecols, columns))
    for row in rows:
        for i, column in kept:
            column.append(row[i] if i < len(row) else "")
    for name, cells, convert in zip(names, columns, (int, int, float, float, _value_cell)):
        yield _parsed(path, name, cells, convert)


def _read_grid_csv(path: str, field: str | None):
    with open(path, newline="") as fh:
        text = fh.read()  # decoded once, for the header, numpy and the csv reader
    # the lines one by one, as the file gives them (io.StringIO would copy the text 4-fold)
    lines = re.finditer(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+", text)
    reader = csv.reader(line.group() for line in lines)
    names = next(reader, None)
    if names is None:
        raise ConfigError(f"grid file {path} is empty")
    required = {"x_index", "y_index"}
    if not required <= set(names):
        raise ConfigError(
            f"grid file {path} lacks x_index/y_index columns; "
            "produce it with the `grid` subcommand"
        )
    rows = (row for row in reader if row)  # blank lines carry no row
    first = next(rows, None)
    if first is None:
        raise ConfigError(f"grid file {path} has no data rows")
    if len(names) < 4:
        missing = " and ".join(("x axis", "y axis")[len(names) - 2:])
        header = ",".join(names)
        raise ConfigError(f"grid file {path} lacks the {missing} column after {header}")
    x_axis, y_axis = names[2], names[3]
    non_numeric = {name for name, kind in COLUMN_SCHEMA if kind != "float"}
    numeric = [n for n in names[4:] if n not in non_numeric]
    if field is None:
        if len(numeric) != 1:
            raise ConfigError(
                f"grid file {path} has {len(numeric)} candidate value columns "
                f"({', '.join(numeric)}); pick one with --field"
            )
        field = numeric[0]
    elif field not in numeric:
        raise ConfigError(
            f"grid file {path}: --field {field!r} not among numeric grid columns {numeric}")

    # of a repeated name, the last column counts
    kept = ("x_index", "y_index", x_axis, y_axis, field)
    position = {name: i for i, name in enumerate(names)}
    usecols = [position[name] for name in kept]
    columns = iter(_loadtxt_columns(text, usecols)
                   or _csv_columns(path, kept, usecols, itertools.chain([first], rows)))
    xi, yi = next(columns), next(columns)
    for name, index in (("x_index", xi), ("y_index", yi)):
        if index.min() < 0:
            raise ConfigError(f"grid file {path} has a negative {name}: {index.min()}")
    x_cells, y_cells, field_cells = columns
    for name, index, cells in ((x_axis, xi, x_cells), (y_axis, yi, y_cells)):
        if not np.isfinite(cells).all():
            # only the last row for an index counts
            last = np.zeros(index.size, bool)
            last[index.size - 1 - np.unique(index[::-1], return_index=True)[1]] = True
            bad = np.flatnonzero(last & ~np.isfinite(cells))
            if bad.size:
                raise ConfigError(f"grid file {path}: {name} value {float(cells[bad[0]])!r} "
                                  f"in data row {bad[0] + 1} is not finite")
    uncovered = ConfigError(f"grid file {path} does not cover the full index range")
    # n rows cover at most n cells: a larger index range (a sparse or diagonal
    # file) is refused before the index-sized arrays below are allocated; the
    # product is taken in Python ints, which do not wrap
    if (int(xi.max()) + 1) * (int(yi.max()) + 1) > xi.size:
        raise uncovered
    xs = np.full(xi.max() + 1, np.nan)
    ys = np.full(yi.max() + 1, np.nan)
    values = np.full((ys.size, xs.size), np.nan)
    covered = np.zeros(values.shape, bool)
    # the last row for an index wins
    xs[xi] = x_cells
    ys[yi] = y_cells
    values[yi, xi] = field_cells
    covered[yi, xi] = True
    # each cell needs a row: a missing one would read NaN, like a failed point
    if not covered.all():
        raise uncovered
    return xs, ys, values, field


def read_grid_file(path: str, field: str | None):
    """The x and y axes, the value grid [y_index, x_index] and the field name
    of a grid CSV that `sqom grid` wrote (`field` None: its one numeric value
    column); a file that is not such a grid is a ConfigError."""
    try:
        return _read_grid_csv(path, field)
    # e.g. a cell past the csv module's field size limit, a byte the encoding refuses
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"grid file {path}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read grid file {path}: {exc}") from exc
