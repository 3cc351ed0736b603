"""Marching-squares contour extraction from a sampled scalar grid.

Plain linear-interpolation marching squares on the cell edges (case table of
Lorensen & Cline, SIGGRAPH 1987), with two policies relevant to sweep data:
cells touching a non-finite sample (NaN is the sweep sentinel for per-point
failures) are skipped entirely, and saddle cells are resolved by the
cell-centre average. One numpy pass per level gives every cell its case
index; edge points are computed for the crossing cells only. Segments are
chained into polylines deterministically (row-major cell order, endpoint
matching on a rounded key).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sweep import Table

CONTOUR_COLUMNS = ("field", "level", "polyline", "vertex", "x", "y")


@dataclass(frozen=True)
class ContourSet:
    """Per-level polylines in axis coordinates.

    polylines maps each requested level to a list of (N, 2) float arrays of
    (x, y) vertices. Levels that never cross the field are present with an
    empty list (informational; nothing to draw).
    """

    levels: tuple[float, ...]
    polylines: dict[float, list[np.ndarray]]

    def empty_levels(self) -> tuple[float, ...]:
        return tuple(lv for lv in self.levels if not self.polylines[lv])


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
) -> ContourSet:
    """Extract equipotential polylines of `field` sampled on a rectilinear grid.

    Parameters
    ----------
    x_values, y_values : 1-D arrays of the axis sample positions.
    field : 2-D array indexed as field[y_index, x_index]; NaN marks failed
        sample points, whose surrounding cells are skipped.
    levels : contour levels to extract.
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
    return ContourSet(levels=tuple(levels), polylines=result)


def contour_table(contour_set: ContourSet, field: str) -> Table:
    """One row per polyline vertex, in CONTOUR_COLUMNS; polylines are
    numbered from 0 within each level, vertices from 0 within each polyline."""
    lines = [
        (level, number, line)
        for level in contour_set.levels
        for number, line in enumerate(contour_set.polylines[level])
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
