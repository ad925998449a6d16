"""``errors.float_text`` and ``errors.int_text`` against ``repr`` and ``str``, and ``text_lines``.

``float_text`` finds the shortest digits of a float in [1, 2**53) with integer
and float arithmetic; a float anywhere else goes through ``repr``. Each set
below holds floats that test one of its steps, and the conversion must give
``repr``'s text for every one of them, on every numpy that pyproject.toml admits.
"""

import numpy as np

from uwbloc.errors import float_text, int_text, text_lines


def _text(rows) -> list[str]:
    return text_lines([rows]).splitlines()


def _assert_repr(values):
    values = np.asarray(values, dtype=float)
    assert _text(float_text(values)) == [repr(v) for v in values.tolist()]


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def test_powers_of_two_and_ten_and_small_integers_with_their_neighbours():
    # a power of two has a narrower range below it; a power of ten's neighbours
    # change the digit count; an integer's repr ends in ".0"
    _assert_repr(_with_neighbours(np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-20, 23),
                                                  np.arange(100_001)])))


def test_both_ends_of_the_range_and_the_largest_float_below_each_power_of_ten():
    # 10**k is a float, so the float below it keeps k integer digits, however many 9s it has
    below = np.nextafter(10.0 ** np.arange(1, 16), 0.0)
    assert repr(float(below[0])) == "9.999999999999998"
    _assert_repr([1.0, 2.0**53 - 1, 2.0**53 - 2, *below])
    assert _text(float_text([1.0, 2.0**53 - 1])) == ["1.0", "9007199254740991.0"]


def test_halfway_cases_take_the_even_digit():
    # above 1e15 a float has 16 integer digits and eighths, quarters or halves
    # after the point; x.25 and x.75 lie halfway between two one-digit fractions
    values = np.concatenate([1e15 + np.arange(800) / 8, 2.0**50 + np.arange(400) / 4, 2.0**52 + np.arange(100) / 2])
    assert repr(1e15 + 0.25) == "1000000000000000.2"
    _assert_repr(values)


def test_floats_outside_the_range_go_through_repr():
    specials = [0.0, -0.0, 0.5, 1e-5, 2.0**53, 1e300, 5e-324, -1.5, -2.0**60, np.inf, -np.inf, np.nan]
    _assert_repr(specials)
    # amid floats in the range, and as the only float
    _assert_repr([1.5, *specials, 1234.5678, 0.1])
    for v in specials:
        _assert_repr([v])
    assert float_text(np.empty(0)).shape[0] == 0


def test_seeded_random_floats():
    rng = np.random.default_rng(20240601)
    n = 100_000
    exponents = rng.integers(0, 53, n) + 1023  # every binary exponent in [1, 2**53)
    mantissas = rng.integers(0, 2**52, n)
    _assert_repr((exponents << 52 | mantissas).view(np.float64))
    _assert_repr(rng.uniform(1.0, 2500.0, n))  # the span of a DB or measurement range
    _assert_repr(np.exp(rng.uniform(0.0, np.log(2.0**53), n)))
    # across and outside the range, any sign
    _assert_repr(rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n))


def test_int_text_matches_str():
    values = np.concatenate([np.arange(20_001), 10 ** np.arange(19), 10 ** np.arange(1, 19) - 1, [2**22, 2**63 - 1]])
    assert _text(int_text(values)) == [str(v) for v in values.tolist()]
    assert _text(int_text([0])) == ["0"]


def test_text_lines_joins_fields_and_drops_nul_bytes():
    ints = int_text([0, 7, 1000, 123456])
    names = np.array([b"a", b"bc", b"", b"d"])
    floats = float_text([0.5, 1.5, 2500.0, 1e300])
    assert text_lines([ints, names, floats]) == "0,a,0.5\n7,bc,1.5\n1000,,2500.0\n123456,d,1e+300\n"
    assert text_lines([ints[:1]]) == "0\n"
