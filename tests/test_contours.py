"""Marching-squares extraction: analytic circle, sentinels, fidelity, and
bit-for-bit agreement with a cell-by-cell reference."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqom import extract_contours
from sqom.contours import _chain


def test_constant_grid_has_no_contours():
    xs = np.linspace(0.0, 1.0, 11)
    ys = np.linspace(0.0, 1.0, 9)
    field = np.full((9, 11), 3.0)
    cs = extract_contours(xs, ys, field, [1.0])
    assert cs.polylines[1.0] == []
    assert cs.empty_levels() == (1.0,)


def test_unit_circle_within_cell_diagonal():
    xs = np.linspace(-2.0, 2.0, 81)
    ys = np.linspace(-2.0, 2.0, 81)
    X, Y = np.meshgrid(xs, ys)
    field = X**2 + Y**2
    cs = extract_contours(xs, ys, field, [1.0])
    lines = cs.polylines[1.0]
    assert lines
    cell = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
    verts = np.vstack(lines)
    radii = np.hypot(verts[:, 0], verts[:, 1])
    assert np.max(np.abs(radii - 1.0)) <= cell
    # field re-evaluated at the vertices deviates from the level by at most
    # the local linearization error, bounded by the cell diagonal scale
    assert np.max(np.abs(verts[:, 0] ** 2 + verts[:, 1] ** 2 - 1.0)) <= 2.0 * cell
    # the circle should come back as a single closed chain
    assert len(lines) == 1
    assert np.allclose(lines[0][0], lines[0][-1], atol=1e-9)


def test_vertices_inside_bounding_box():
    rng = np.random.default_rng(7)
    xs = np.linspace(-1.0, 3.0, 20)
    ys = np.linspace(2.0, 5.0, 15)
    field = rng.normal(size=(15, 20))
    cs = extract_contours(xs, ys, field, [0.0, 0.5])
    for level in cs.levels:
        for line in cs.polylines[level]:
            assert np.all(line[:, 0] >= xs[0] - 1e-12)
            assert np.all(line[:, 0] <= xs[-1] + 1e-12)
            assert np.all(line[:, 1] >= ys[0] - 1e-12)
            assert np.all(line[:, 1] <= ys[-1] + 1e-12)


def test_nan_cells_skipped():
    xs = np.linspace(0.0, 1.0, 6)
    ys = np.linspace(0.0, 1.0, 6)
    X, Y = np.meshgrid(xs, ys)
    field = X + Y
    field[2, 2] = np.nan
    cs = extract_contours(xs, ys, field, [0.8])
    for line in cs.polylines[0.8]:
        # no vertex may sit on an edge of a cell touching the NaN sample
        for x, y in line:
            assert not (abs(x - xs[2]) < 0.19 and abs(y - ys[2]) < 0.19)


def test_open_contour_reaches_boundary():
    xs = np.linspace(0.0, 1.0, 11)
    ys = np.linspace(0.0, 1.0, 11)
    X, Y = np.meshgrid(xs, ys)
    cs = extract_contours(xs, ys, X, [0.55])
    lines = cs.polylines[0.55]
    assert len(lines) == 1
    line = lines[0]
    assert np.allclose(line[:, 0], 0.55, atol=1e-12)  # vertical isoline
    ys_covered = sorted([line[0, 1], line[-1, 1]])
    assert ys_covered[0] == pytest.approx(0.0, abs=1e-12)
    assert ys_covered[1] == pytest.approx(1.0, abs=1e-12)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        extract_contours(np.arange(4.0), np.arange(3.0), np.zeros((4, 3)), [0.0])


def test_nonfinite_level_rejected():
    with pytest.raises(ValueError):
        extract_contours(np.arange(4.0), np.arange(3.0), np.zeros((3, 4)), [math.inf])


@pytest.mark.parametrize("level, want", [
    # the centre (0) is at the level: the corners above join through it
    (0.0, [[[0.0, 0.5], [0.5, 1.0]], [[1.0, 0.5], [0.5, 0.0]]]),
    # the centre is below: the corners above are cut off
    (0.5, [[[0.0, 0.25], [0.25, 0.0]], [[1.0, 0.75], [0.75, 1.0]]]),
])
def test_saddle_centre_joins_its_side(level, want):
    cell = np.array([[1.0, -1.0], [-1.0, 1.0]])
    cs = extract_contours(np.arange(2.0), np.arange(2.0), cell, [level])
    assert [line.tolist() for line in cs.polylines[level]] == want


def test_endpoints_meet_by_numpy_rounding():
    # a and the next float up agree to 12 decimals under numpy's rounding
    # (the rounding of `round` on numpy floats), not under Python's
    a = 6.117215e-07
    px = np.array([0.0, a, math.nextafter(a, 1.0), 2e-6])
    lines = _chain(px, np.zeros(4))
    assert len(lines) == 1
    assert lines[0][:, 0].tolist() == [0.0, a, 2e-6]


# The cell-by-cell marching squares that extract_contours must reproduce
# bit for bit: every cell visited in row-major order, its segments chained
# on keys that `round` computes on numpy floats.
_REF_EDGES = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 6: [(0, 2)], 7: [(3, 2)],
    8: [(2, 3)], 9: [(2, 0)], 11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
}


def _ref_cell_segments(xs, ys, field, i, j, level):
    corners = [
        (xs[i], ys[j], field[j, i]),
        (xs[i + 1], ys[j], field[j, i + 1]),
        (xs[i + 1], ys[j + 1], field[j + 1, i + 1]),
        (xs[i], ys[j + 1], field[j + 1, i]),
    ]
    values = [c[2] for c in corners]
    if any(not np.isfinite(v) for v in values):
        return []
    case = sum(1 << bit for bit, v in enumerate(values) if v >= level)
    if case in (0, 15):
        return []

    def point(a):
        (xa, ya, va), (xb, yb, vb) = corners[a], corners[(a + 1) % 4]
        t = (level - va) / (vb - va)
        return (xa + t * (xb - xa), ya + t * (yb - ya))

    if case in (5, 10):
        centre_above = sum(values) / 4.0 >= level
        if case == 5:
            pairs = [(3, 2), (1, 0)] if centre_above else [(3, 0), (1, 2)]
        else:
            pairs = [(0, 3), (2, 1)] if centre_above else [(0, 1), (2, 3)]
    else:
        pairs = _REF_EDGES[case]
    return [(point(a), point(b)) for a, b in pairs]


def _ref_chain(segments):
    def key(pt):
        return (round(pt[0], 12), round(pt[1], 12))

    segments = [(a, b) for a, b in segments if key(a) != key(b)]
    by_end = {}
    for idx, (a, b) in enumerate(segments):
        by_end.setdefault(key(a), []).append(idx)
        by_end.setdefault(key(b), []).append(idx)
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        line = list(segments[start])
        for grow_tail in (True, False):
            while True:
                end = line[-1] if grow_tail else line[0]
                nxt = next((k for k in by_end[key(end)] if not used[k]), None)
                if nxt is None:
                    break
                used[nxt] = True
                sa, sb = segments[nxt]
                new_pt = sb if key(sa) == key(end) else sa
                if grow_tail:
                    line.append(new_pt)
                else:
                    line.insert(0, new_pt)
        polylines.append(np.array(line, dtype=float))
    return polylines


def reference_contours(xs, ys, field, levels):
    result = {}
    for level in levels:
        segments = []
        for j in range(len(ys) - 1):
            for i in range(len(xs) - 1):
                segments.extend(_ref_cell_segments(xs, ys, field, i, j, level))
        result[level] = _ref_chain(segments)
    return result


LEVELS = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(-3.0, 3.0)
# ties with the levels, signed zeros, saddles (two opposite corners above, a
# centre on the level), sums that round, and non-finite corners
VALUES = st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 1e16, -1e16, math.nan, math.inf, -math.inf]
) | st.floats(-4.0, 4.0)
COORDS = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-10.0, 10.0)


@st.composite
def grids(draw):
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    xs = np.array(draw(st.lists(COORDS, min_size=nx, max_size=nx)))
    ys = np.array(draw(st.lists(COORDS, min_size=ny, max_size=ny)))
    field = np.array(draw(st.lists(VALUES, min_size=nx * ny, max_size=nx * ny))).reshape(ny, nx)
    return xs, ys, field, draw(st.lists(LEVELS, min_size=1, max_size=3))


def _hex(line):
    return [(float(x).hex(), float(y).hex()) for x, y in line]


@given(grids())
@example((np.arange(2.0), np.arange(2.0), np.array([[1.0, -1.0], [-1.0, 1.0]]), [0.0]))
@example((np.arange(2.0), np.arange(2.0), np.array([[-1.0, 1.0], [1.0, -1.0]]), [0.0]))
@example((np.arange(2.0), np.arange(2.0), np.array([[2.0, -1.0], [-1.0, 1.0]]), [0.5, 0.25]))
@example((np.arange(3.0), np.arange(3.0), np.array([[0, 1, 0], [1, -0.0, 1], [0, 1, 0.0]]), [0.0]))
# a saddle whose centre is above the level only if summed out of order
@example((np.arange(2.0), np.arange(2.0), np.array([[2.0, -1e16], [-1.0, 1e16]]), [0.3]))
@settings(max_examples=300, deadline=None)
def test_extract_contours_matches_cell_by_cell_reference(grid):
    xs, ys, field, levels = grid
    got = extract_contours(xs, ys, field, levels)
    want = reference_contours(xs, ys, field, levels)
    assert got.levels == tuple(levels)
    for level in levels:
        assert [_hex(line) for line in got.polylines[level]] == [
            _hex(line) for line in want[level]
        ]
