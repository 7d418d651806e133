import errno
import io
import math
import os
import re
import threading
import tracemalloc
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import braggstack as bs
from braggstack import svgplot, tableio
from braggstack.svgplot import Series, render_svg, spectrum_series
from braggstack.tableio import format_float, read_csv, read_spectrum_csv, \
    render_csv, write_blocks, write_csv, write_spectrum_csv


@pytest.fixture()
def table(cfg, geom):
    chain = bs.two_component_lattice(3e17, 0.2, 120, 8, geom)
    return bs.spectrum(chain, bs.detuning_grid(-8, 4, 97), cfg, geom,
                       metadata={"label": "sample run"})


def test_format_float_round_trips():
    rng = np.random.default_rng(2)
    for x in rng.uniform(-1, 1, 200):
        assert float(format_float(x)) == x
    for x in (0.1, 1e-300, 3.141592653589793, 2.0 ** -52):
        assert float(format_float(x)) == x


def test_spectrum_csv_round_trip_exact(tmp_path, table):
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(table, path)
    back = read_spectrum_csv(path)
    np.testing.assert_array_equal(back.delta_over_gamma, table.delta_over_gamma)
    np.testing.assert_array_equal(back.R, table.R)
    np.testing.assert_array_equal(back.T, table.T)
    np.testing.assert_array_equal(back.A, table.A)
    np.testing.assert_array_equal(back.phi, table.phi)
    assert back.metadata["label"] == "sample run"


def test_csv_header_and_line_endings(tmp_path, table):
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(table, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    body = raw.decode("utf-8").splitlines()
    header = [line for line in body if not line.startswith("#")][0]
    assert header == "delta_over_gamma,R,T,A,phi_rad"


def test_csv_zero_density_columns(tmp_path, cfg, geom):
    chain = bs.SlabChain(np.zeros(4), np.zeros(4), np.full(4, geom.lambda_dip / 2))
    t = bs.spectrum(chain, bs.detuning_grid(-2, 2, 5), cfg, geom)
    path = tmp_path / "zero.csv"
    write_spectrum_csv(t, path)
    back = read_spectrum_csv(path)
    np.testing.assert_array_equal(back.R, 0.0)
    np.testing.assert_array_equal(back.T, 1.0)


def test_csv_round_trips_metadata_exactly(tmp_path, table):
    # every key of the table is written, and read back as it was: nothing
    # in the metadata changes from one run to the next
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(table, path)
    assert read_spectrum_csv(path).metadata == table.metadata


def test_csv_bytes_stable(table):
    cols = {"delta_over_gamma": table.delta_over_gamma, "R": table.R}
    assert render_csv(cols, table.metadata) == render_csv(cols, table.metadata)


def test_generic_csv_round_trip(tmp_path):
    cols = {"a": np.array([1.0, 2.5e-17]), "b": np.array([-3.0, 4.0])}
    path = tmp_path / "t.csv"
    write_csv(path, cols, {"k": "v"})
    back_cols, meta = read_csv(path)
    assert meta == {"k": "v"}
    np.testing.assert_array_equal(back_cols["a"], cols["a"])


def test_csv_ragged_columns_rejected():
    with pytest.raises(ValueError):
        render_csv({"a": np.zeros(3), "b": np.zeros(4)})


def test_svg_deterministic(table):
    series = spectrum_series([table])
    one = render_svg(series, "delta / Gamma", "R")
    two = render_svg(series, "delta / Gamma", "R")
    assert one == two
    assert one.startswith("<svg ")
    assert "<polyline" in one


def test_svg_from_reparsed_csv_identical(tmp_path, table):
    # CSV round trip preserves values exactly, so the re-plot is byte-equal
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(table, path)
    back = read_spectrum_csv(path)
    a = render_svg(spectrum_series([table]), "delta / Gamma", "R")
    b = render_svg(spectrum_series([back]), "delta / Gamma", "R")
    assert a == b


def test_svg_legend_and_multi_series(table):
    other = bs.SpectrumTable(table.delta_over_gamma, table.T, table.R,
                             table.A, table.phi, {"label": "swapped"})
    doc = render_svg(spectrum_series([table, other]), "x", "y")
    assert doc.count("<polyline") == 2
    assert "sample run" in doc and "swapped" in doc


def test_svg_rejects_empty():
    with pytest.raises(ValueError):
        render_svg([], "x", "y")


def test_svg_profile_variant(cfg, geom):
    chain = bs.perfect_lattice(3e17, 12, geom)
    z, intensity = bs.field_profile(chain, 0.0, 16, cfg, geom)
    doc = render_svg([Series(z / geom.lambda_dip, intensity, "")],
                     "z / lambda_dip", "I / I_in")
    assert doc.count("<polyline") == 1


def _csv_per_cell(columns, metadata=None):
    # the writer as one float() and one format_float() per cell: the reference
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    lines = [f"# {key} = {metadata[key]}" for key in sorted(metadata or {})]
    lines.append(",".join(names))
    for i in range(arrays[0].size):
        lines.append(",".join(format_float(float(a[i])) for a in arrays))
    return "\n".join(lines) + "\n"


def _ulps_from(base, k):
    # k ulps above base, or -k below it
    v = base
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


def _near_power_of_ten(k, ulps):
    # 10^k rounded to a double, then `ulps` ulps away from it
    return _ulps_from(float(f"1e{k}"), ulps)


# ties of the 17th digit (2^-25 = 2.98023223876953125e-08 rounds down to
# even, 3 * 2^-25 = 8.94069671630859375e-08 up), the last digit rounding up
# to a new decade, and the ends of the fixed form
_HARD_FLOATS = [2.0**-25, -2.0**-25, 3 * 2.0**-25, 7 * 2.0**-25, 2.0**-24, 2.0**56 + 16,
                9.9999999999999999e16, 99999999999999999.0, 1e16, 1e17, 1e-14, 1e98,
                0.0001, 0.00009999999999999999, 1e-5, 123456789012345678.0,
                0.30000000000000004, 2.0**-1074, 2.0**-1022, 1.7976931348623157e308]

_column = st.one_of(
    hnp.arrays(np.float64, st.integers(0, 12), elements=st.floats(
        allow_nan=True, allow_infinity=True, allow_subnormal=True)),
    hnp.arrays(np.float64, st.integers(0, 12),
               elements=st.sampled_from([-0.0, -1e-300, -5e-324, 0.1, -2.5e-17])),
    # raw 64-bit patterns: every sign, exponent and mantissa, NaN payloads
    hnp.arrays(np.int64, st.integers(0, 12)).map(lambda a: a.view(np.float64)),
    st.lists(st.builds(_near_power_of_ten, st.integers(-323, 308),
                       st.integers(-2, 2)), max_size=12).map(np.array),
    hnp.arrays(np.float64, st.integers(0, 12), elements=st.sampled_from(
        _HARD_FLOATS + [0.0, -0.0, math.nan, math.inf, -math.inf])),
    hnp.arrays(np.float32, st.integers(0, 12)),
    hnp.arrays(np.int32, st.integers(0, 12)).map(lambda a: a.view(np.float32)),
    hnp.arrays(np.int64, st.integers(0, 12), elements=st.one_of(
        st.integers(-2**63, 2**63 - 1), st.sampled_from(
            [2**53 + 1, -2**53 - 1, 2**63 - 1, -2**63, 2**62 + 1025]))),
    hnp.arrays(np.uint64, st.integers(0, 12), elements=st.one_of(
        st.integers(0, 2**64 - 1), st.sampled_from([2**64 - 1, 2**63 + 1025, 2**53 + 1]))),
    hnp.arrays(np.bool_, st.integers(0, 12)),
)


@settings(max_examples=200, deadline=None)
@given(cols=st.lists(_column, min_size=1, max_size=4),
       block=st.sampled_from([1, 2, 3, 5, 1 << 15]))
def test_render_csv_equals_per_cell_writer(tmp_path_factory, cols, block):
    # blocks of 1..5 rows give many blocks and one-row tails on short tables
    n = min(c.size for c in cols)
    columns = {f"c{i}": c[:n] for i, c in enumerate(cols)}
    meta = {"b": "2", "a": "1", "created": "now"}
    with mock.patch.object(tableio, "BLOCK_ROWS", block):
        text = render_csv(columns, meta)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, columns, meta)
    assert text == _csv_per_cell(columns, meta)
    assert path.read_bytes() == text.encode("utf-8")


def test_every_binary_exponent_formats_as_per_cell():
    # every exponent of a double, normal and subnormal, with seeded
    # mantissas, both signs, and the ulp neighbours of each power of two
    rng = np.random.default_rng(7)
    bits = (np.arange(2047, dtype=np.int64)[:, None] << 52) | rng.integers(
        0, 1 << 52, (2047, 6), dtype=np.int64)
    bits[:, 0] &= ~((1 << 52) - 1)
    bits[:, 1] |= (1 << 52) - 1
    values = bits.view(np.float64).ravel()
    values = np.concatenate([values, -values, np.nextafter(values, 0.0)])
    columns = {"v": values, "w": values[::-1].copy()}
    assert render_csv(columns) == _csv_per_cell(columns)


def test_powers_of_ten_and_their_neighbours_format_as_per_cell():
    # 1e-14, the double below 10^-14, has 17 digits that round up to 1e-14
    values = np.array([_near_power_of_ten(k, ulps) for k in range(-323, 309)
                       for ulps in range(-2, 3)])
    columns = {"v": values, "neg": -values}
    assert render_csv(columns) == _csv_per_cell(columns)


@pytest.mark.parametrize("values", [
    [2.0**-25, 1.0, 3 * 2.0**-25], [1e300, 2.0**-25], [math.nan, 2.0**-25, 1.5, -0.0],
    # cells where floor(log10) misses the decade (0.09999999999999999, 1e23,
    # 9.999999999999999e-301), blocks of ordinary rows between them
    [_near_power_of_ten(-1, -1), 1.5, 0.25, 2.5, _near_power_of_ten(23, 0),
     -_near_power_of_ten(-300, -1), 3.0, 7.0, _near_power_of_ten(2, 1)]])
def test_rows_of_ties_and_non_finite_cells_keep_their_places(values):
    n = len(values)
    columns = {"a": np.array(values), "b": np.arange(n) * 0.1, "c": np.arange(n) % 2 == 0}
    with mock.patch.object(tableio, "BLOCK_ROWS", 2):
        assert render_csv(columns) == _csv_per_cell(columns)
    assert render_csv(columns) == _csv_per_cell(columns)


def test_csv_blocks_with_one_row_tail(tmp_path):
    n = tableio.BLOCK_ROWS + 1
    z = np.linspace(-1.0, 1.0, n) ** 3
    columns = {"z": z, "neg": -z * 1e-310, "k": np.arange(n) % 3 == 0}
    path = tmp_path / "t.csv"
    write_csv(path, columns)
    assert path.read_bytes() == _csv_per_cell(columns).encode("utf-8")
    assert render_csv(columns) == _csv_per_cell(columns)


_EXTREMES = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                      2.2250738585072014e-308, 1.7976931348623157e+308,
                      -1.7976931348623157e+308, 0.1, -2.5e-17])


@settings(max_examples=200, deadline=None)
@given(cols=st.lists(_column, min_size=1, max_size=4))
@example(cols=[_EXTREMES, np.arange(11) - 5, np.arange(11) % 2 == 0,
               np.full(11, 2**63 - 1, dtype=np.uint64)])
def test_read_csv_round_trips_every_written_value(tmp_path_factory, cols):
    n = min(c.size for c in cols)
    columns = {f"c{i}": c[:n] for i, c in enumerate(cols)}
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, columns, {"k": "v = w"})
    back, meta = read_csv(path)
    assert meta == {"k": "v = w"} and list(back) == list(columns)
    for name, column in columns.items():
        with np.errstate(invalid="ignore"):  # a float32 signalling NaN
            want, got = np.asarray(column, dtype=float), back[name]
        assert got.dtype == np.float64 and got.base is None
        # bit for bit, but for the payload of a NaN, which "nan" drops
        same = got.view(np.int64) == want.view(np.int64)
        assert np.all(same | (np.isnan(got) & np.isnan(want)))


@pytest.mark.parametrize("rows, line, cells", [
    ("1,2,3\n4,5\n", 5, 2),
    ("1,2,3\n4,5,6,7\n8,9\n", 5, 4),  # the cell counts even out
    ("1,2,3\n\n4,5,6\n", 5, 1),
    ("1,2,3\n4,5,6\n7,8,9,10", 6, 4),  # no final newline
])
def test_read_csv_names_the_line_of_a_ragged_row(tmp_path, rows, line, cells):
    path = tmp_path / "t.csv"
    path.write_text("# a = 1\n\nx,y,z\n" + rows, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: line {line} has {cells} cells, not 3")):
        read_csv(path)


def test_read_csv_names_the_file_of_a_bad_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n1,2\n3,four\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: line 3, column 2 (y): 'four' is not a number")):
        read_csv(path)


@pytest.mark.parametrize("rows, line, column, cell", [
    ("1,2\n3,x\n", 5, "2 (y)", "'x'"),
    ("1,2\n3,4\n5,6x", 6, "2 (y)", "'6x'"),  # no final newline
    ("1_0,2\n", 4, "1 (x)", "'1_0'"),
    ("1,2\n3,\n", 5, "2 (y)", "''"),
    ("1,2\n3, \n4,\t\n", 5, "2 (y)", "' '"),  # numpy reads a blank cell as -1
    ("1,2\n3,4\n\t,5\n", 6, "1 (x)", "'\\t'"),
])
def test_read_csv_names_the_line_column_and_text_of_a_bad_cell(
        tmp_path, rows, line, column, cell):
    path = tmp_path / "t.csv"
    path.write_text("# a = 1\n\nx,y\n" + rows, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: line {line}, column {column}: {cell} is not a number")):
        read_csv(path)


@pytest.mark.parametrize("column, dtype", [
    (np.array(["1.5", "2.0", "3"]), "<U3"),
    (np.array([1.5, None, 3.0], dtype=object), "object"),
    (np.array(["2020-01-01", "2020-01-02", "2020-01-03"], dtype="datetime64[D]"),
     "datetime64[D]"),
    (np.array([b"1", b"2", b"3"]), "|S1"),
])
def test_csv_non_numeric_column_rejected_before_writing(tmp_path, column, dtype):
    path = tmp_path / "t.csv"
    columns = {"x": np.zeros(3), "bad": column}
    for write in (render_csv, lambda c: write_csv(path, c)):
        with pytest.raises(TypeError, match=re.escape(f"column 'bad' has dtype {dtype}")):
            write(columns)
    assert not path.exists()


def test_csv_complex_column_rejected_before_writing(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(TypeError, match="complex"):
        write_csv(path, {"x": np.zeros(3), "r": np.array([1, 2, 3 + 1e-9j])})
    assert not path.exists()


def _scaled_per_point(series):
    # the (x, y) pixel coordinates of every series, one point at a time
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float) for s in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B
    return [[(svgplot.MARGIN_L + (float(x) - x_lo) / (x_hi - x_lo) * plot_w,
              svgplot.MARGIN_T + (y_hi - float(y)) / (y_hi - y_lo) * plot_h)
             for x, y in zip(np.asarray(s.x), np.asarray(s.y))] for s in series]


def _polylines_per_point(series):
    # the points of every polyline, scaled and formatted one point at a time
    return [" ".join(f"{x:.3f},{y:.3f}" for x, y in points)
            for points in _scaled_per_point(series)]


def _polyline_points(doc):
    return [line.split('points="')[1].split('"')[0]
            for line in doc.splitlines() if line.startswith("<polyline")]


PLOT_W = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R


_coords = st.one_of(
    st.floats(-1e3, 1e3, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 0.1, 0.2, 0.30000000000000004]))


@settings(max_examples=200, deadline=None)
@given(data=st.lists(st.tuples(
    st.lists(st.tuples(_coords, _coords), min_size=1, max_size=20),
    st.sampled_from([np.float64, np.float32, np.int64])), min_size=1, max_size=3))
def test_render_svg_points_equal_per_point_formatting(data):
    series = [Series(np.asarray([x for x, _ in xy]).astype(dtype),
                     np.asarray([y for _, y in xy]).astype(dtype), f"s{i}")
              for i, (xy, dtype) in enumerate(data)]
    assert _polyline_points(render_svg(series, "x", "y")) == _polylines_per_point(series)



def _monotone_series(n, seed, tie, jump, plateau, levels, integer_x):
    # x non-decreasing with ties (zero steps) and jumps that leave pixel
    # columns empty; y plateaus of a few levels (tied minima and maxima),
    # steps between them, plus a ripple
    rng = np.random.default_rng(seed)
    dx = rng.integers(1, 4, n) * (rng.random(n) >= tie)
    dx = dx * np.where(rng.random(n) < jump, 5 * n, 1)
    x = np.cumsum(dx) if integer_x else np.cumsum(dx * 0.37)
    y = np.repeat(rng.integers(0, levels, n // plateau + 1), plateau)[:n]
    return x, y + (0.25 * np.sin(np.arange(n) / 7.0) if levels > 1 else 0.0)


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(p in rest for p in part)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4 * PLOT_W + 1, 12 * PLOT_W), seed=st.integers(0, 2**32 - 1),
       tie=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
       jump=st.sampled_from([0.0, 1e-3, 1e-2]), plateau=st.integers(1, 500),
       levels=st.integers(1, 40), integer_x=st.booleans())
@example(n=4 * PLOT_W + 1, seed=0, tie=0.0, jump=0.0, plateau=1, levels=40,
         integer_x=False)
def test_long_monotone_series_keep_their_m4_points(n, seed, tie, jump, plateau,
                                                    levels, integer_x):
    x, y = _monotone_series(n, seed, tie, jump, plateau, levels, integer_x)
    series = [Series(x, y)]
    with mock.patch.object(svgplot, "_m4", wraps=svgplot._m4) as m4:
        doc = render_svg(series, "x", "y")
    assert m4.call_count == 1
    # the kept points: the points, scaled one at a time, at _m4's indices
    full = _scaled_per_point(series)[0]
    kept = [full[i] for i in svgplot._m4(*m4.call_args.args).tolist()]
    assert _polyline_points(doc) == [" ".join(f"{a:.3f},{b:.3f}" for a, b in kept)]
    # the kept points are points of the series, in order, at most 4 per column
    assert len(kept) <= len(full) and _is_subsequence(kept, full)
    columns = {}
    for point in full:
        columns.setdefault(math.floor(point[0]), [[], []])[0].append(point)
    for point in kept:
        columns[math.floor(point[0])][1].append(point)
    # per pixel column floor(px): the same first, last, min-y and max-y
    # pixel coordinates, so the same formatted points
    for whole, part in columns.values():
        assert 1 <= len(part) <= 4
        assert part[0] == whole[0] and part[-1] == whole[-1]
        for extreme in (min, max):
            assert extreme(y for _, y in part) == extreme(y for _, y in whole)


@pytest.mark.parametrize("n, order", [(4 * PLOT_W, "increasing"),
                                      (4 * PLOT_W + 1, "decreasing"),
                                      (4 * PLOT_W + 1, "one swap"),
                                      (3 * 2**15, "one swap")])
def test_short_or_non_monotone_series_keep_every_point(n, order):
    x = np.linspace(0.0, 1.0, n)
    if order == "decreasing":
        x = x[::-1]
    elif order == "one swap":
        x[[n // 2, n // 2 + 1]] = x[[n // 2 + 1, n // 2]]
    series = [Series(x, np.cos(40.0 * x), "a"), Series(x[:5], x[:5] ** 2)]
    assert _polyline_points(render_svg(series, "x", "y")) == \
        _polylines_per_point(series)


@settings(max_examples=300, deadline=None)
@given(base=st.one_of(st.floats(-1e300, 1e300, allow_subnormal=True),
                      st.sampled_from([0.0, 1.0, -1.0, 5e-324, 2.0**53, -2.0**53,
                                       2.0**53 - 1.0, 2.0**60, 1e300, -1e300])),
       ulps=st.lists(st.integers(0, 8), min_size=1, max_size=6),
       huge=st.booleans())
def test_render_svg_near_constant_and_huge_series(base, ulps, huge):
    # y spans at most 8 ulps of its base, constant y included; x is the same
    # near-constant series or a plain 0..n range
    y = np.array([_ulps_from(base, k) for k in ulps])
    x = y.copy() if huge else np.arange(y.size, dtype=float)
    doc = render_svg([Series(x, y)], "x", "y")
    assert "nan" not in doc and "inf" not in doc
    lo, hi = float(y.min()), float(y.max())
    pad = 0.05 * (svgplot._widened(lo, hi) - lo)
    lo, hi = lo - pad, svgplot._widened(lo, hi) + pad
    ticks = svgplot._nice_ticks(lo, hi)
    assert 1 <= len(ticks) <= 12
    assert all(a < b for a, b in zip(ticks, ticks[1:]))
    assert all(lo - abs(lo) * 1e-15 <= t <= hi + abs(hi) * 1e-15 for t in ticks)


@pytest.mark.parametrize("value", [2.0**53, -2.0**53, 1e20, 1e300])
def test_constant_axis_above_2_53_widens_relatively(value):
    # lo + 1 rounds back to lo from 2^53 on; the axis still gets a width
    assert svgplot._widened(value, value) > value
    doc = render_svg([Series(np.array([value, value]), np.array([value, value]))],
                     "x", "y")
    assert "nan" not in doc and "inf" not in doc


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_render_svg_rejects_non_finite(tmp_path, bad):
    series = [Series(np.arange(3.0), np.arange(3.0)),
              Series(np.array([0.0, 1.0]), np.array([0.5, bad]))]
    with pytest.raises(ValueError):
        render_svg(series, "x", "y")
    with pytest.raises(ValueError):
        write_blocks(tmp_path / "t.svg", [render_svg(series, "x", "y")])
    assert not (tmp_path / "t.svg").exists()


@pytest.mark.parametrize("series, message", [
    # zip would plot min(len(x), len(y)) points without a word
    ([Series(np.arange(5.0), np.arange(3.0), "short y")],
     "series 'short y': x has 5 points, y has 3"),
    ([Series(np.arange(3.0), np.arange(3.0), "good"),
      Series(np.arange(2.0), np.arange(4.0))],
     "series #1: x has 2 points, y has 4"),
    ([Series(np.array([]), np.array([]))], "series #0 is empty"),
    ([Series(np.array([]), np.array([]), "none")], "series 'none' is empty"),
    ([Series(np.zeros((3, 2)), np.zeros((3, 2)))], "series #0: x and y must be 1-d"),
    ([Series(1.0, 2.0, "point")], "series 'point': x and y must be 1-d"),
])
def test_render_svg_rejects_malformed_series(tmp_path, series, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        render_svg(series, "x", "y")
    # the document is checked before its file is opened
    with pytest.raises(ValueError, match=re.escape(message)):
        write_blocks(tmp_path / "t.svg", [render_svg(series, "x", "y")])
    assert not (tmp_path / "t.svg").exists()


_xml_text = st.text(st.one_of(
    st.sampled_from("&<>;#'\" amp lt"),
    # every character XML 1.0 carries in text content as itself
    st.characters(exclude_categories=("Cs", "Cc"), exclude_characters="\ufffe\uffff")),
    min_size=1)


@settings(max_examples=200, deadline=None)
@given(label=_xml_text, xlabel=_xml_text, ylabel=_xml_text)
@example(label="R < 1 & T", xlabel="x", ylabel="a > b")
def test_svg_text_is_escaped(label, xlabel, ylabel):
    doc = render_svg([Series(np.arange(3.0), np.arange(3.0), label)], xlabel, ylabel)
    texts = [e.text for e in ET.fromstring(doc).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[-3:] == [xlabel, ylabel, label]


@pytest.mark.parametrize("cpus", [1, 2])
def test_streamed_svg_write_holds_no_whole_document(tmp_path, cpus):
    # a monotone series is M4-decimated to at most 4 points per pixel
    # column, so the document holds ~2,500 of its points; undecimated, it
    # would be ~16 B/point, and formatted whole ~100 B/point
    n = 4 * 2**15 + 1
    x = np.linspace(0.0, 1.0, n)
    series = [Series(x, np.sin(40.0 * x) ** 2, "")]
    threads = threading.active_count()
    with _cpus(cpus):
        tracemalloc.start()
        try:
            write_blocks(tmp_path / "t.svg", [render_svg(series, "x", "y")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert threading.active_count() == threads
    assert peak < 64 * n
    assert (tmp_path / "t.svg").read_text(encoding="utf-8") == \
        render_svg(series, "x", "y")


def _cpus(n):
    # the usable CPUs the process sees; the writers start no process or
    # thread on any number of them
    return mock.patch.object(os, "sched_getaffinity", create=True,
                             return_value=set(range(n)))


@pytest.mark.parametrize("columns, message", [
    ({}, "need at least one column"),
    ({"a": np.zeros((3, 2)), "b": np.zeros(6)}, "column 'a' is 2-d"),
    ({"x": np.zeros(1), "s": np.float64(1.0)}, "column 's' is 0-d"),
])
def test_csv_bad_table_rejected_before_writing(tmp_path, columns, message):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=message):
        render_csv(columns)
    with pytest.raises(ValueError, match=message):
        write_csv(path, columns)
    assert not path.exists()


def _mixed_table(rows):
    z = np.linspace(-1.0, 1.0, rows) ** 3
    return {"z": z, "tiny": -z * 1e-310, "f32": (z * 7).astype(np.float32),
            "i": np.arange(rows, dtype=np.int64) - rows // 2, "k": np.arange(rows) % 3 == 0}


class _DiskFullAfterOneBlock(io.FileIO):
    # the header and one block of rows are written, then the disk is full
    writes = 0

    def write(self, b):
        self.writes += 1
        if self.writes > 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(b)


def test_failed_write_names_the_file_and_keeps_the_os_error(tmp_path):
    # the error names the file and keeps the OS error as its cause; the
    # formatter starts no process, so none is left running (conftest checks)
    path = tmp_path / "t.csv"
    with mock.patch.object(tableio, "BLOCK_ROWS", 16), \
            mock.patch.object(tableio, "open", _DiskFullAfterOneBlock, create=True):
        with pytest.raises(OSError, match=re.escape(f"cannot write {path}")) as failure:
            write_csv(path, _mixed_table(1000))
    assert failure.value.__cause__.errno == errno.ENOSPC
