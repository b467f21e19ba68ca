"""The vectorized '%.16e' kernel of the dumps must give the bytes of
Python's own '%.16e' for every float64, and a dump line the bytes of
Python's own '%d' and '%.16e'."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropic_bespoke import io as fmt
from entropic_bespoke.io import (_cell_blocks, _e16_digits, _int_words,
                                  _put_int, _text_blocks)


def assert_matches_percent(values):
    """The kernel's text of each value is `'%.16e' % v`; returns it."""
    values = np.asarray(values, dtype=np.float64)
    text = []
    for start in range(0, len(values), 1 << 16):
        chunk = values[start:start + (1 << 16)]
        got = b"".join(_text_blocks("", (), chunk)).decode().split("\n")[:-1]
        want = ["%.16e" % v for v in chunk.tolist()]
        bad = [(v, g, w) for v, g, w in zip(chunk.tolist(), got, want)
               if g != w]
        assert not bad, bad[:5]
        text += got
    return text


def is_exact_tie(value: float) -> bool:
    """The exact decimal expansion of `value` has 18 significant digits
    and the last is a 5."""
    digits = "".join(map(str, Decimal(value).as_tuple().digits)).rstrip("0")
    return len(digits) == 18 and digits[-1] == "5"


def exact_ties() -> np.ndarray:
    """k * 2**-j whose exact decimal expansion has 18 significant digits,
    the last a 5: exactly halfway between two 17-digit values."""
    ties = []
    for j in range(2, 26):
        low = -(-10**17 // 5**j)
        high = min((10**18 - 1) // 5**j, 2**53)
        ks = np.unique(np.linspace(low, high, 200).astype(np.int64) | 1)
        ties += [float(k) * 2.0**-j for k in ks.tolist() if low <= k <= high]
    return np.array(ties)


def test_every_power_of_two():
    assert_matches_percent(np.ldexp(1.0, np.arange(-1074, 1024)))


def test_powers_of_ten_and_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_matches_percent(np.concatenate([
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
    ]))


def test_carry_and_exponent_edges():
    # the rounding carry into one more digit just below a power of ten,
    # and the exponents of one, two and three digits
    edges = np.array([9.9999999999999995e-05, 1e-4, 1e-5, 1e16, 1e17,
                      99999999999999999.0, 9.9999999999999998e16,
                      0.1, 0.99999999999999989, 9.999999999999999e22,
                      1.0, 10.0, 1e-10, 1e-9, 1e10,
                      1e100, 9.9999999999999997e99, 1e-100, 1e-99])
    assert_matches_percent(np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
    ]))


def test_exact_ties_take_the_fallback():
    ties = exact_ties()
    assert len(ties) > 1000
    assert all(is_exact_tie(t) for t in ties.tolist())
    assert_matches_percent(ties)
    _, _, slow = _e16_digits(ties)
    assert slow.all()


def test_special_values():
    assert_matches_percent([5e-324, 1.0, 0.0, -0.0, -1.0, -2.5e-300,
                            -1.7976931348623157e308, 1.7976931348623157e308,
                            2.2250738585072014e-308, np.nan, np.inf, -np.inf])


def test_random_bit_patterns():
    bits = np.random.default_rng(20240814).integers(
        0, 2**64, 1 << 20, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    text = assert_matches_percent(values)
    finite = np.isfinite(values)
    parsed = np.array([float(s) for s in text])
    np.testing.assert_array_equal(parsed[finite].view(np.uint64),
                                  bits[finite])
    # the fallback took the exact ties and nothing else nonzero and
    # finite, of either sign; a tie k * 2**-j needs k odd and at most
    # 2**53 and 5**j below 1e18, so |v| lies in [2**-25, 2**53]
    _, _, slow = _e16_digits(values)
    magnitude = np.abs(values)
    fast = np.isfinite(values) & (values != 0.0)
    ties = np.zeros_like(slow)
    maybe = np.flatnonzero(fast & (magnitude >= 2.0**-25)
                           & (magnitude <= 2.0**53))
    ties[maybe] = [is_exact_tie(v) for v in magnitude[maybe].tolist()]
    assert ties.sum() > 100
    np.testing.assert_array_equal(slow, ~fast | ties)


@settings(derandomize=True, max_examples=300)
@given(st.lists(st.floats(), max_size=40))
def test_any_float(values):
    assert_matches_percent(values)


@pytest.mark.parametrize("top", [0, 9, 10, 9999, 10000, 123456789])
def test_int_text(top):
    values = np.unique(np.r_[0, 1, 9, 10, 99, 100, 9999, 10000, top,
                             np.arange(top + 1)[-30:]])
    values = values[values <= top]
    words = np.empty((len(values), _int_words(top)), dtype="<u4")
    _put_int(values, words)
    text = words.view(np.uint8)
    rows = [bytes(r).lstrip(b"\0") for r in text]
    assert rows == [b"%d," % v for v in values.tolist()]
    assert (text[:, :4] != 0).any()


# decimal exponents X of three, two and one digits of either sign, and
# the subnormals
EXPONENT_CLASSES = [(-400, -100), (-99, -10), (-9, -1), (0, 9), (10, 99),
                    (100, 400)]
INTEGERS = [0, 9, 10, 999, 1000, 9999, 10000, 10**6]


def reference_lines(prefix, columns, values) -> bytes:
    return "".join("%s%d,%d,%.16e\n" % (prefix, a, b, v) for a, b, v in
                   zip(*(c.tolist() for c in columns), values.tolist())
                   ).encode()


@pytest.mark.parametrize("block", [4096, fmt._BLOCK_ROWS, 1 << 16])
def test_text_blocks_match_percent_over_every_exponent_class(
        monkeypatch, block):
    monkeypatch.setattr(fmt, "_BLOCK_ROWS", block)
    rng = np.random.default_rng(20261018)
    # random positive bit patterns at every binary exponent, 0 the
    # subnormals; then the same negated, and -0.0 and -inf
    biased = np.repeat(np.arange(2047, dtype=np.uint64), 12)
    bits = biased << np.uint64(52) | rng.integers(
        0, 2**52, len(biased), dtype=np.uint64)
    positive = bits.view(np.float64)
    values = np.r_[positive, -positive, -0.0, -np.inf]
    _, exponent, _ = _e16_digits(values)
    for low, high in EXPONENT_CLASSES:
        for sign in (values > 0.0, values < 0.0):
            assert (sign & (exponent >= low) & (exponent <= high)).sum() > 10
    assert (positive < 2.2250738585072014e-308).sum() > 10
    columns = (np.resize(INTEGERS, len(values)),
               rng.integers(0, 10**6 + 1, len(values)))
    got = list(_text_blocks("3,0.25,", columns, values))
    assert len(got) == -(-len(values) // block)
    assert b"".join(got) == reference_lines("3,0.25,", columns, values)


def test_text_blocks_with_small_integers_and_special_values():
    values = np.array([1.0, 1.5, 0.5, 1e-4, 1e-5, 0.0, 5e-324, 1e17, 12.5,
                       1e16 + 2, 0.1, 9.9999999999999995e-05])
    columns = (np.arange(len(values)), np.zeros(len(values), dtype=int))
    # an odd number of words before the value field
    assert b"".join(_text_blocks("7,", columns, values)) == \
        reference_lines("7,", columns, values)
    assert list(_text_blocks("1,", columns, values[:0])) == []


def reference_cells(prefix, array) -> bytes:
    """'%s%d,...,%d,%.16e' of each positive cell of `array`, in C order."""
    return "".join(
        prefix + "".join("%d," % i for i in index) + "%.16e\n" % value
        for index, value in np.ndenumerate(array) if value > 0.0).encode()


@pytest.mark.parametrize("shape", [(24,), (4, 6), (2, 3, 4)])
@pytest.mark.parametrize("cells", ["none", "last", "three-blocks"])
def test_cell_blocks_write_the_positive_cells_in_c_order(monkeypatch, shape,
                                                         cells):
    monkeypatch.setattr(fmt, "_BLOCK_ROWS", 4)
    array = np.zeros(shape)
    if cells == "last":
        array[tuple(n - 1 for n in shape)] = 0.25
    elif cells == "three-blocks":
        rng = np.random.default_rng(20261018)
        array.flat[rng.choice(array.size, 12, replace=False)] = \
            rng.random(12) + 1e-3
    got = list(_cell_blocks("5,0.5,", array))
    assert len(got) == -(-np.count_nonzero(array) // 4)
    assert b"".join(got) == reference_cells("5,0.5,", array)
