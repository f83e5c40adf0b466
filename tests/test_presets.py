import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uilkit import presets
from uilkit.kneading import fibonacci_q, nu_from_orbit, nu_from_q
from uilkit.presets import _poly_root_enclosure, parse_slope
from uilkit.scalars import Scalar


def _value(coeffs, x):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _fraction_root_enclosure(coeffs, lo, hi, bits):
    """The sign bisection in Fraction arithmetic that _poly_root_enclosure
    replaced: the oracle for the integer version."""
    def p(x):
        return _value(coeffs, x)

    lo, hi = Fraction(lo), Fraction(hi)
    neg_lo = p(lo) < 0
    width = Fraction(1, 1 << bits)
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = p(mid)
        if v == 0:
            return Scalar(mid, mid)
        if (v < 0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return Scalar(lo, hi, bits)


def _same(got, want):
    assert (got.lo, got.hi, got.precision_bits) == \
        (want.lo, want.hi, want.precision_bits)


@st.composite
def poly_and_bracket(draw):
    """A small integer polynomial and a bracket with ends on the grid 2^-e
    on which it changes sign: a sign change found by scanning [-4, 4] in
    steps of 2^-min(e, 4), with the low end then moved onto the finer grid."""
    degree = draw(st.integers(1, 4))
    lead = draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1)))
    coeffs = [lead] + draw(st.lists(st.integers(-9, 9), min_size=degree,
                                    max_size=degree))
    e = draw(st.integers(0, 12))
    step = 1 << min(e, 4)
    grid = [Fraction(j, step) for j in range(-4 * step, 4 * step + 1)]
    signs = [_value(coeffs, x) > 0 for x in grid]
    changes = [j for j in range(len(grid) - 1)
               if signs[j] != signs[j + 1] and _value(coeffs, grid[j]) != 0]
    if not changes:
        # an even-degree polynomial without real roots: use x - 1 instead
        coeffs, changes, grid = [1, -1], [0], [Fraction(1, 2), Fraction(3, 2)]
    j = draw(st.sampled_from(changes))
    # refine the ends onto the finer grid 2^-e without losing the sign change
    unit = Fraction(1, 1 << e)
    lo, hi = grid[j], grid[j + 1]
    lo += unit * draw(st.integers(0, (1 << e) // step - 1))
    if (_value(coeffs, lo) > 0) == (_value(coeffs, hi) > 0) or \
            _value(coeffs, lo) == 0:
        lo = grid[j]
    return coeffs, lo, hi


@settings(max_examples=80)
@given(case=poly_and_bracket(),
       bits=st.one_of(st.integers(4, 24), st.integers(4, 2048)))
def test_root_bisection_matches_fraction_oracle(case, bits):
    coeffs, lo, hi = case
    _same(_poly_root_enclosure(coeffs, lo, hi, bits),
          _fraction_root_enclosure(coeffs, lo, hi, bits))


@pytest.mark.parametrize("coeffs, lo, hi, root", [
    ([2, -3], 1, 2, Fraction(3, 2)),
    ([4, -7], Fraction(3, 2), 2, Fraction(7, 4)),
    ([16, -27], Fraction(3, 2), Fraction(15, 8), Fraction(27, 16)),
])
@pytest.mark.parametrize("bits", [1, 4, 64])
def test_root_bisection_exact_hit(coeffs, lo, hi, root, bits):
    got = _poly_root_enclosure(coeffs, lo, hi, bits)
    _same(got, _fraction_root_enclosure(coeffs, lo, hi, bits))
    if got.is_exact:
        assert got.value == root
    else:
        assert got.lo <= root <= got.hi


def test_root_bisection_bits_below_the_bracket_grid():
    # the bracket is already narrower than 2^-bits: no halving at all
    lo, hi = Fraction(1731, 1024), Fraction(1733, 1024)
    got = _poly_root_enclosure([1, 0, -3], lo, hi, 4)
    _same(got, Scalar(lo, hi, 4))
    _same(got, _fraction_root_enclosure([1, 0, -3], lo, hi, 4))


def test_root_bisection_returns_a_fresh_scalar():
    a = _poly_root_enclosure([1, 0, -3], Fraction(3, 2), Fraction(15, 8), 64)
    b = _poly_root_enclosure([1, 0, -3], Fraction(3, 2), Fraction(15, 8), 64)
    assert a is not b


_PRESET_POLYS = {
    "golden": ([1, -1, -1], Fraction(3, 2), Fraction(7, 4)),
    "tribonacci": ([1, -1, -1, -1], Fraction(7, 4), Fraction(15, 8)),
    "sqrt3": ([1, 0, -3], Fraction(3, 2), Fraction(15, 8)),
    "cbrt6": ([1, 0, 0, -6], Fraction(3, 2), Fraction(15, 8)),
}


@pytest.mark.parametrize("name", sorted(_PRESET_POLYS))
@pytest.mark.parametrize("bits", [128, 192, 1024, 4096])
def test_preset_roots_pinned_to_fraction_oracle(name, bits):
    coeffs, lo, hi = _PRESET_POLYS[name]
    want = _fraction_root_enclosure(coeffs, lo, hi, bits)
    _same(_poly_root_enclosure(coeffs, lo, hi, bits), want)
    # the preset slope and its refinement go through the same bisection
    slope = parse_slope(f"{name}:{bits}")
    _same(slope.s, want)
    _same(slope.at(bits).s, want)


def test_bare_kneading_preset_takes_the_depth():
    # a bare name used to ignore the depth: at 400 the word left the
    # Fibonacci word at index 266
    slope = parse_slope("fib", depth=400)
    assert nu_from_orbit(slope, 400).bits == nu_from_q(fibonacci_q, 400).bits
    assert parse_slope("fib").s.value == parse_slope("fib:200").s.value


# -- Newton to the root cell against the same bisection oracle ------------------

@st.composite
def factored_poly_and_bracket(draw):
    """A polynomial with rational roots, some on the bisection's grid, and
    a bracket around one or more of them: when the Taylor coefficients at
    the low end certify monotonicity, Newton and two sign checks decide."""
    roots = draw(st.lists(st.builds(Fraction, st.integers(-64, 64),
                                    st.sampled_from([1, 2, 3, 4, 5, 16])),
                          min_size=1, max_size=4))
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [x - r * y for x, y in zip(coeffs + [0], [0] + coeffs)]
    den = math.lcm(*(c.denominator for c in coeffs))
    coeffs = [int(c * den) * draw(st.sampled_from([1, -1, 3])) for c in coeffs]
    e = draw(st.integers(0, 6))
    lo = Fraction(draw(st.integers(-70 << e, 70 << e)), 1 << e)
    hi = lo + Fraction(draw(st.integers(1, 8 << e)), 1 << e)
    return coeffs, lo, hi


@settings(max_examples=300)
@given(case=factored_poly_and_bracket(),
       bits=st.sampled_from([1, 3, 8, 20, 64, 300]))
def test_newton_root_cell_matches_fraction_oracle(case, bits):
    coeffs, lo, hi = case
    _same(_poly_root_enclosure(coeffs, lo, hi, bits),
          _fraction_root_enclosure(coeffs, lo, hi, bits))


@pytest.mark.parametrize("name", sorted(_PRESET_POLYS))
def test_preset_brackets_are_certified_for_newton(monkeypatch, name):
    # the four preset polynomials are monotone and convex on their
    # brackets, so a deep enclosure costs a few Newton steps, not one
    # polynomial evaluation per bit (1025 bits: a key no other test caches)
    estimates = []
    real = presets._newton_root

    def spy(*args):
        estimates.append(real(*args))
        return estimates[-1]

    monkeypatch.setattr(presets, "_newton_root", spy)
    coeffs, lo, hi = _PRESET_POLYS[name]
    got = _poly_root_enclosure(coeffs, lo, hi, 1025)
    assert estimates and None not in estimates
    _same(got, _fraction_root_enclosure(coeffs, lo, hi, 1025))
