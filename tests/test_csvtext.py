"""The CSV formatter against the Python formatting it replaces: repr for
float cells, %d for integer and boolean cells."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeforge import csvtext


def written(column) -> list:
    """The cells that ``csvtext.table`` writes for one column."""
    text = "".join(csvtext.table(["x"], [column]))
    assert text.startswith("x\n") and text.endswith("\n")
    return text[2:-1].split("\n") if len(text) > 2 else []


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    assert written(values) == [repr(v) for v in values.tolist()]


def fast_share(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    content = np.empty((values.size, csvtext._SLOTS), np.uint8)
    mask = np.empty((values.size, csvtext._SLOTS), bool)
    return float(csvtext._float_slots(values, content, mask).mean())


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)])


def test_random_bit_patterns_match_repr(rng):
    # every exponent, and several blocks of rows
    bits = rng.integers(0, 2 ** 64, 3 * csvtext.BLOCK_ROWS + 7, dtype=np.uint64)
    assert_reprs(bits.view(np.float64))


def test_random_bits_in_the_fast_range_match_repr(rng):
    # exponents that put 1e-12 <= |v| <= 1e18: most cells take the fast path
    n = 20_000
    exponent = rng.integers(1023 - 40, 1023 + 60, n, dtype=np.uint64)
    fraction = rng.integers(0, 2 ** 52, n, dtype=np.uint64)
    sign = rng.integers(0, 2, n, dtype=np.uint64)
    values = ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | fraction).view(np.float64)
    assert_reprs(values)
    assert fast_share(values) > 0.8


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e9, 1e15, 1e18])
def test_scaled_uniform_values_match_repr(rng, scale):
    assert_reprs((rng.random(4000) - 0.5) * scale)


def test_short_decimals_match_repr(rng):
    # values that read back from few digits: many trailing digits to drop
    places = rng.integers(0, 6, 5000)
    values = np.array([round(x, int(d)) for x, d in zip(rng.random(5000) * 1000, places)])
    assert_reprs(values * 10.0 ** rng.integers(-12, 6, 5000))


def test_powers_of_ten_and_their_neighbours_match_repr():
    assert_reprs(neighbours(10.0 ** np.arange(-30, 31)))
    assert_reprs(-neighbours(10.0 ** np.arange(-30, 31)))


def test_powers_of_two_and_their_neighbours_match_repr():
    values = neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    assert_reprs(values)
    assert_reprs(-values)


def test_positional_and_scientific_switches_match_repr():
    switches = neighbours([1e-5, 1e-4, 1e15, 1e16, 9.99995e-5, 9.9999999999999995e15])
    assert_reprs(switches)
    assert_reprs(-switches)
    assert written(np.array([1e-5, 1e-4, 1e15, 1e16])) == [
        "1e-05", "0.0001", "1000000000000000.0", "1e+16"]


def test_special_values_match_repr():
    tiny = np.finfo(np.float64).smallest_subnormal
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, 2.2250738585072014e-308,
              np.finfo(np.float64).max, -np.finfo(np.float64).max, 0.1, 0.5, 1 / 3, 2 / 3]
    assert_reprs(values)


def test_integral_floats_match_repr(rng):
    assert_reprs(np.arange(-5000, 5000, dtype=np.float64) * 7)
    assert_reprs(np.trunc(rng.random(2000) * 10.0 ** rng.integers(0, 17, 2000)))


def test_halfway_cases_match_repr(rng):
    # v = u / 2^shift with u odd puts v 10^p exactly halfway between two
    # integers (shift = p + 1) or on an integer ending in 5 (shift = p):
    # the rounding ties, which go to the even digit
    values, ties = [], 0
    for p in range(1, 28):
        for shift in (p, p + 1):
            low = int(Fraction(10) ** (16 - p) * 2 ** shift) + 1
            high = min(int(Fraction(10) ** (17 - p) * 2 ** shift), 2 ** 53)
            if low >= high:
                continue
            u = rng.integers(low, high, 200, dtype=np.uint64) | np.uint64(1)
            v = u.astype(np.float64) / 2.0 ** shift
            values.append(v)
            ties += sum((Fraction(x) * 10 ** p).denominator <= 2 for x in v.tolist())
    values = np.concatenate(values)
    assert ties > 1000
    assert_reprs(values)
    assert fast_share(values) > 0.9


def test_float32_columns_are_written_as_tolist_widens_them(rng):
    values = np.concatenate([(rng.random(3000) * 10.0 ** rng.integers(-8, 8, 3000)),
                             [0.1, 1e-5, 3.4e38, 1e-40, np.inf]]).astype(np.float32)
    assert written(values) == [repr(v) for v in values.tolist()]
    halves = np.array([0.1, 65504.0, 6e-8], dtype=np.float16)
    assert written(halves) == [repr(v) for v in halves.tolist()]


def test_values_outside_the_fast_range_match_repr():
    values = np.array([1e-12, -9.9e-12, 3.3e-300, 0.5, 123456789012345678.0, 1e300, -2.5e200])
    content = np.empty((values.size, csvtext._SLOTS), np.uint8)
    mask = np.empty((values.size, csvtext._SLOTS), bool)
    assert not csvtext._float_slots(values, content, mask).any()
    assert_reprs(values)


def test_typical_grid_values_all_take_the_fast_path(rng):
    # a KDE grid's values and coordinates: nothing goes to repr
    values = np.exp(-rng.random(5000) * 20) * 0.05
    assert fast_share(values) == 1.0
    assert fast_share(np.linspace(-5.3, 5.1, 256)[1:]) == 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_floats_property_matches_repr(values):
    assert_reprs(values)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8,
                                   np.uint16, np.uint32, np.uint64])
def test_integer_columns_match_percent_d(rng, dtype):
    info = np.iinfo(dtype)
    ends = np.array([info.min, info.min + 1, 0, 1, 9, 10, info.max - 1, info.max], dtype=dtype)
    draws = rng.integers(info.min, info.max, 3000, dtype=dtype, endpoint=True)
    column = np.concatenate([ends, draws, (10 ** np.arange(len(str(info.max)))).astype(dtype)])
    assert written(column) == ["%d" % v for v in column.tolist()]


def test_boolean_columns_match_percent_d():
    column = np.array([True, False, False, True])
    assert written(column) == ["1", "0", "0", "1"]


def test_repeated_columns_match_their_gathered_column(rng):
    axis = np.concatenate([[-0.0, 0.0, -1.5, 1e-20], rng.normal(size=60)])
    index = rng.integers(0, axis.size, 10_000)
    ints = np.arange(-3, 5)
    columns = [csvtext.Repeated(axis, index), csvtext.Repeated(ints, index % ints.size)]
    plain = [axis[index], ints[index % ints.size]]
    assert "".join(csvtext.table(["a", "b"], columns)) == "".join(
        csvtext.table(["a", "b"], plain))
    assert np.array_equal(np.asarray(columns[0]), axis[index])
    assert len(columns[1]) == index.size


def test_rows_stop_at_the_shortest_column():
    text = "".join(csvtext.table(["a", "b"], [np.arange(3), np.array([0.5, 1.5])]))
    assert text == "a,b\n0,0.5\n1,1.5\n"
    assert "".join(csvtext.table(["a"], [])) == "a\n"


def test_writer_temporaries_stay_small(rng):
    # 65 536 rows as the density CSV writes them: beyond the text itself,
    # the blocks hold a few MB
    axis = np.linspace(-5.0, 5.0, 256)
    index = np.unravel_index(np.arange(256 * 256), (256, 256))
    columns = [csvtext.Repeated(axis, index[0]), csvtext.Repeated(axis, index[1]),
               rng.random(256 * 256) * 0.03]
    tracemalloc.start()
    try:
        size = 0
        for piece in csvtext.table(["x0", "x1", "density"], columns):
            size = max(size, len(piece))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - size < 4 * 2 ** 20


def test_cli_import_leaves_the_formatter_unloaded():
    src = os.path.dirname(os.path.dirname(csvtext.__file__))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, kdeforge.cli; print('kdeforge.csvtext' in sys.modules)"],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
