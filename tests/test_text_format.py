"""The bulk formatter against `"%.9g" % v`, value by value.

`matt.textfmt.float_cells` computes 9 significant digits with one scaled
product per value and escapes to `%` where that product could round the
wrong way. Each class below holds values of one kind, a million where there
are that many, and every value's text must equal the `%` text byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matt.textfmt import BLOCK, float_cells, join_rows, text_cells

N = 1_000_000


def assert_formats_like_percent(values):
    """One value per line through the formatter equals one `%.9g` per line;
    a mismatch names the first value that differs."""
    values = np.asarray(values, dtype=np.float64).ravel()
    for i in range(0, len(values), BLOCK):
        block = values[i : i + BLOCK]
        text = join_rows(float_cells(block[:, np.newaxis], b"\n"))
        expected = ("%.9g\n" * len(block) % tuple(block.tolist())).encode()
        if text != expected:
            got, want = text.split(b"\n"), expected.split(b"\n")
            at = next(j for j, (g, w) in enumerate(zip(got, want)) if g != w)
            pytest.fail(f"{block[at]!r}: {got[at]!r} != {want[at]!r}")


def finite(values):
    return values[np.isfinite(values)]


def test_random_bit_patterns():
    # every finite double is equally likely, subnormals included
    bits = np.random.default_rng(1).integers(0, 2**64, N + N // 100, dtype=np.uint64)
    values = finite(bits.view(np.float64))[:N]
    assert len(values) == N
    assert_formats_like_percent(values)


def test_uniform_unit_interval():
    assert_formats_like_percent(np.random.default_rng(2).uniform(size=N))


def test_widened_float32_values():
    # float32 bit patterns span decimal exponents -45..38, subnormals included
    bits = np.random.default_rng(3).integers(0, 2**32, N + N // 100, dtype=np.uint32)
    values = finite(bits.view(np.float32))[:N].astype(np.float64)
    assert len(values) == N
    assert_formats_like_percent(values)


def dyadic_ties(rng, n):
    """Doubles whose 9-digit rounding is an exact tie, so `%` rounds half to
    even: odd multiples of 2**(e - 9) in [10**e, 10**(e + 1)) for e in -4..8,
    then odd multiples of 5 * 10**(e - 9) for e in 9..14."""
    e = rng.integers(-4, 15, n)
    fixed = e <= 8
    j = np.where(fixed, 9 - e, 0)
    low = np.where(fixed, 10.0**e * 2.0**j, 2e8)
    high = np.where(fixed, 10.0 ** (e + 1) * 2.0**j, 2e9)
    odd = 2 * np.floor(rng.uniform(low, high) / 2) + 1
    odd = np.where(odd < low, odd + 2, np.where(odd >= high, odd - 2, odd))
    scaled = odd * 5 * 10.0 ** np.maximum(e - 9, 0)  # exact: below 2**53 or even
    values = np.where(fixed, odd / 2.0**j, scaled)
    assert np.all((values >= 10.0**e) & (values < 10.0 ** (e + 1)))
    return values * rng.choice([-1.0, 1.0], n)


def test_dyadic_ties():
    assert "%.9g" % (103 / 1024) == "0.100585938"
    assert_formats_like_percent([103 / 1024, 999999999.5, 1000000005.0])
    assert_formats_like_percent(dyadic_ties(np.random.default_rng(4), N))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    assert_formats_like_percent(np.concatenate([values, -values]))


def test_zeros_infinities_and_nans():
    nan = float("nan")
    assert_formats_like_percent([0.0, -0.0, np.inf, -np.inf, nan, np.copysign(nan, -1.0)])
    # NaNs with a payload, and a float32 signalling NaN, widened without a warning
    assert_formats_like_percent(np.uint64([0x7FF0000000000001, 0xFFF8000000000123]).view(np.float64))
    signalling = np.uint32([[0x7F800001]]).view(np.float32)
    assert join_rows(float_cells(signalling, b"\n")) == b"nan\n"


def test_round_ups_across_a_decade():
    assert "%.9g" % 9.9999999995e-5 == "0.0001" and "%.9g" % 999999999.5 == "1e+09"
    # just below each power of ten, inside and outside the 9-digit rounding
    k = np.arange(-299, 300)
    below = 10.0**k[:, np.newaxis] * (1 - np.array([4e-10, 4.99999e-10, 5e-10, 5.00001e-10, 6e-10]))
    values = np.concatenate([below.ravel(), [9.9999999995e-5, 999999999.5, 99999.99995]])
    assert_formats_like_percent(np.concatenate([values, -values]))


@pytest.mark.parametrize("switch", [1e-4, 1e-5, 1e9])
def test_both_sides_of_the_fixed_scientific_switch(switch):
    rng = np.random.default_rng(int(-np.log10(switch)) + 10)
    # relative offsets from 1e-16 to 1e-2 either side, and 500 ulps each way
    offsets = rng.choice([-1.0, 1.0], N // 10) * 10.0 ** rng.uniform(-16, -2, N // 10)
    ulps = []
    for direction in (0.0, np.inf):
        ulps.append(switch)
        for _ in range(500):
            ulps.append(np.nextafter(ulps[-1], direction))
    assert_formats_like_percent(np.concatenate([switch * (1 + offsets), ulps]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_double(values):
    assert_formats_like_percent(values)


def test_nearest_doubles_to_half_way_significands():
    n = np.random.default_rng(5).integers(0, 10**9, N)
    values = (2 * n + 1) / 2e9  # the nearest double to (2n + 1) / (2 * 10**9)
    # the class bites: one scaled product picks the wrong last digit for many
    # of them, which only the escape to % gets right
    top = values >= 0.1
    digits = np.array([int(("%.9f" % v)[2:]) for v in values[top][:100_000].tolist()])
    wrong = np.rint(values[top][:100_000] * 1e9) != digits
    assert wrong.mean() > 0.3
    assert_formats_like_percent(values)


def test_cells_hold_the_separator_and_pad_the_rest():
    cells = float_cells([[1.5, -2.0], [np.nan, 1e-300]], b";\n")
    assert cells.shape == (2, 2, 17)
    assert join_rows(cells) == b"1.5;-2\nnan;1e-300\n"
    assert join_rows(float_cells(np.empty((0, 3)), b",,\n")) == b""


def test_text_cells_keep_nul_and_empty_strings():
    ids = ["a\x00", "", "\x00", "é"]
    assert join_rows(text_cells(ids), b"|") == "a\x00||\x00|é|".encode()
    assert text_cells([]).shape == (0, 0)
