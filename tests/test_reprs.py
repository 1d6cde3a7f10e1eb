"""The batch formatter writes `repr`'s bytes.

`reprs.Reprs` is what the log writer formats every trajectory value with,
so a log is right only if each field is `repr(value) + ","` to the byte.
Each test formats its values one to a row and compares the joined text
with `repr`'s, as one byte string, with every warning an error: on the
edges of each path (specials, subnormals, the exponent-form switch
points, the integer fast path), on every power of two and of ten, and on
random bit patterns and hypothesis floats. The opt-in test (set
APIARY_SLOW_TESTS) adds every subnormal below 2^21 and 10^7 more patterns.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apiary.reprs import Reprs

CHUNK = 1 << 15  # values a call formats


@pytest.fixture(scope="module")
def reprs():
    return Reprs()


def joined(reprs, values) -> bytes:
    """The fields of `values`, one to a row, `CHUNK` rows a call."""
    x = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    text = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in range(0, len(x), CHUNK):
            words, lengths = reprs.fields(x, np.arange(a, min(a + CHUNK, len(x))))
            assert (lengths[:, 1] == 0).all()  # the row's free slot
            text.append(reprs.join(words).tobytes())
            assert len(text[-1]) == lengths.sum()
    return b"".join(text)


def want(values) -> bytes:
    return "".join(repr(v) + "," for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def same(reprs, values) -> None:
    got, expected = joined(reprs, values), want(values)
    if got != expected:
        pairs = zip(got.split(b","), expected.split(b","))
        raise AssertionError(f"first mismatches: {[p for p in pairs if p[0] != p[1]][:5]}")


def bit_patterns(seed, n):
    return np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64).view(np.float64)


def test_specials(reprs):
    nan = np.float64(np.nan)
    negative_nan = np.array([nan]).view(np.uint64) | np.uint64(1 << 63)
    payload_nan = np.array([0x7FF0000000000001, 0xFFF8000000000123], dtype=np.uint64)
    values = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, nan],
        negative_nan.view(np.float64),
        payload_nan.view(np.float64),
        [1.0, -1.0, 0.5, -0.5, 12.0, 100.0, 123456.789, 0.1, 0.2, 0.3, 1 / 3, -2.5],
    ])
    assert want(values[:6]) == b"0.0,-0.0,inf,-inf,nan,nan,"
    same(reprs, values)


def test_powers_of_two_and_ten(reprs):
    twos = [2.0**k for k in range(-1074, 1024)]
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    # and the doubles on either side of each power of ten
    beside = np.concatenate([np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    values = np.concatenate([twos, tens, beside])
    same(reprs, np.concatenate([values, -values]))


def test_smallest_subnormals(reprs):
    # 8e-323 printed as 7.9e-323 when the shorter candidate waited for
    # s >= 100; 5e-324 as 4.9e-324 through the tiny-subnormal path
    values = [5e-324, 1e-323, 8e-323, 1e-322]
    assert want(values) == b"5e-324,1e-323,8e-323,1e-322,"
    same(reprs, values + [-v for v in values])
    same(reprs, np.arange(1, 4096, dtype=np.uint64).view(np.float64))


def test_form_switch_points(reprs):
    # exponent form from decpt > 16 and decpt <= -4; the integer fast path
    # ends at 2^53
    edges = [1e16, 9999999999999998.0, 1e-4, 1e-5, 2.0**53]
    beside = np.concatenate([np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    values = np.concatenate([edges, beside, [1e15, 123456789012345.6, 0.001, 0.00012345]])
    assert want(edges) == b"1e+16,9999999999999998.0,0.0001,1e-05,9007199254740992.0,"
    same(reprs, np.concatenate([values, -values]))


def test_random_bit_patterns(reprs):
    same(reprs, bit_patterns(20240611, 1_000_000))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_hypothesis_floats(reprs, values):
    same(reprs, values)


def test_rows_in_order_with_a_free_last_field(reprs):
    table = bit_patterns(7, 12 * 5).reshape(12, 5)
    order = np.array([3, 0, 11, 3, 7])
    words, lengths = reprs.fields(table, order)
    assert words.shape == (5, 6, 4) and lengths.shape == (5, 6)
    assert (words[:, 5] == 0).all() and (lengths[:, 5] == 0).all()
    assert reprs.join(words).tobytes() == want(table[order].ravel())
    assert (lengths.sum(axis=1) == [len(want(row)) for row in table[order]]).all()


@pytest.mark.skipif(
    not os.environ.get("APIARY_SLOW_TESTS"),
    reason="formats about 12M values (about half a minute); set APIARY_SLOW_TESTS=1",
)
def test_every_small_subnormal_and_more_bit_patterns(reprs):
    same(reprs, np.arange(1, 1 << 21, dtype=np.uint64).view(np.float64))
    for seed in range(10):
        same(reprs, bit_patterns(seed, 1_000_000))
