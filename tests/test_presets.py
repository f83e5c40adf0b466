from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    a.recompute = lambda p: a
    assert b.recompute is None


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
    _same(slope.s.at(bits), want)
