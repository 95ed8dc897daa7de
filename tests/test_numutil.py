"""Tolerant comparisons at their boundaries: one ulp inside and one ulp
outside each named tolerance, for every mix of value types; and the
exact-mode kernel Rational, checked against stdlib Fraction."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagsched.numutil import (
    EVENT_REL, REL_TOL, TIE_REL, Rational, close, coerce, is_exact, leq,
    scaled_tol, tie_leq)

TOLERANCES = [REL_TOL, TIE_REL]


def up(x):
    return math.nextafter(x, math.inf)


def down(x):
    return math.nextafter(x, -math.inf)


@pytest.mark.parametrize("rel", TOLERANCES)
def test_leq_absolute_boundary(rel):
    # near 0 the scale is 1, so a <= 0 holds up to rel itself
    for a, b in ((rel, 0.0), (0.0, -rel), (down(rel), 0.0)):
        assert leq(a, b, rel)
        assert leq(Fraction(a), b, rel) and leq(a, Fraction(b), rel)
    for a, b in ((up(rel), 0.0), (0.0, down(-rel))):
        assert not leq(a, b, rel)
        assert not leq(Fraction(a), b, rel) and not leq(a, Fraction(b), rel)


@pytest.mark.parametrize("rel", TOLERANCES)
def test_leq_relative_boundary(rel):
    # far from 0 the slack is rel times the larger magnitude
    b = -2.0 ** 40
    edge = b + rel * 2.0 ** 40
    assert abs(Fraction(edge) - (Fraction(b) + Fraction(rel) * 2 ** 40)) <= (
        Fraction(up(edge)) - Fraction(edge))
    assert leq(edge, b, rel) and leq(Fraction(edge), b, rel)
    assert not leq(up(edge), b, rel) and not leq(Fraction(up(edge)), b, rel)


@pytest.mark.parametrize("scale", [2.0 ** 40, 1.0, 2.0 ** -20, 2.0 ** -60])
def test_tie_leq_is_relative_at_every_scale(scale):
    # the slack is TIE_REL times the larger magnitude, here |b|, with no
    # floor of 1, so the edge sits at the same relative distance at every
    # scale
    b = -scale
    edge = b + TIE_REL * scale
    assert abs(Fraction(edge) - (Fraction(b) + Fraction(TIE_REL) * Fraction(scale))) <= (
        Fraction(up(edge)) - Fraction(edge))
    assert tie_leq(edge, b) and tie_leq(Fraction(edge), b)
    assert not tie_leq(up(edge), b) and not tie_leq(up(edge), Fraction(b))
    # values 2^-20 apart relative never tie; leq's floor of 1 ties them
    # once their distance is below TIE_REL absolute
    apart = b + scale / 2 ** 20
    assert not tie_leq(apart, b)
    assert leq(apart, b, TIE_REL) == (scale / 2 ** 20 <= TIE_REL)


def test_tie_leq_exact_and_infinite_sides():
    third = Fraction(1, 3)
    assert tie_leq(third, third)
    assert not tie_leq(third + Fraction(1, 10 ** 30), third)
    assert not tie_leq(math.inf, 5.0) and not tie_leq(5.0, -math.inf)
    assert tie_leq(math.inf, math.inf) and not tie_leq(math.nan, 1.0)


def test_leq_default_tolerance_boundary():
    # leq's default slack is REL_TOL, on either side and for exact sides
    assert leq(REL_TOL, 0.0) and leq(REL_TOL, Fraction(0))
    assert not leq(up(REL_TOL), 0.0) and not leq(up(REL_TOL), Fraction(0))
    assert leq(0.0, -REL_TOL) and not leq(0.0, down(-REL_TOL))


@pytest.mark.parametrize("rel", TOLERANCES)
def test_close_boundary(rel):
    for a, b in ((rel, 0.0), (-rel, 0.0), (0.0, rel)):
        assert close(a, b, rel) and close(Fraction(a), b, rel)
    for a, b in ((up(rel), 0.0), (down(-rel), 0.0), (0.0, up(rel))):
        assert not close(a, b, rel) and not close(Fraction(a), b, rel)
    # relative regime: b - a is exact here, so the edge is the smallest a
    # with b - a <= rel * b
    b = 2.0 ** 40
    slack = Fraction(rel * b)
    a = b - rel * b
    while Fraction(b) - Fraction(a) > slack:
        a = up(a)
    while Fraction(b) - Fraction(down(a)) <= slack:
        a = down(a)
    assert close(a, b, rel) and close(b, a, rel) and close(Fraction(a), b, rel)
    assert not close(down(a), b, rel) and not close(b, Fraction(down(a)), rel)


@pytest.mark.parametrize("rel", TOLERANCES)
def test_exact_sides_compare_without_tolerance(rel):
    # both sides exact: no slack at all, even where a float compare at rel
    # would pass
    big = 10 ** 15
    assert leq(big, big, rel) and close(big, big, rel) and leq(big, big)
    assert not leq(big + 1, big, rel)
    assert not close(big + 1, big, rel)
    assert not leq(big + 1, big)
    assert leq(float(big + 1), big, rel)  # one float side: tolerance applies
    b = Fraction(1, 3)
    tiny = Fraction(1, 10 ** 30)
    assert leq(b, b, rel) and close(b, b, rel)
    assert not leq(b + tiny, b, rel) and not close(b - tiny, b, rel)
    assert not leq(Fraction(rel), Fraction(0), rel)
    assert leq(float(b + tiny), b, rel)


def test_leq_at_infinity():
    # equal infinities compare equal: for -inf the slack term alone would be
    # -inf + inf, which is NaN
    assert leq(-math.inf, -math.inf) and leq(math.inf, math.inf)
    assert leq(1.0, math.inf) and not leq(1.0, -math.inf)
    assert not leq(math.nan, 1.0) and not leq(1.0, math.nan)


def test_infinite_side_grants_no_slack():
    # the slack rel * max(|a|, |b|, 1) is itself inf when a side is, so it
    # must not be added: an overflowed lhs fails and infinities are close
    # only to themselves
    assert not leq(math.inf, 5.0) and not leq(math.inf, 5.0, TIE_REL)
    assert not leq(math.inf, Fraction(5)) and not leq(math.inf, 10 ** 300)
    assert not leq(5.0, -math.inf) and not leq(math.inf, -math.inf)
    assert not close(math.inf, 5.0) and not close(5.0, math.inf)
    assert not close(-math.inf, math.inf) and not close(-math.inf, -1e308)
    assert close(math.inf, math.inf) and close(-math.inf, -math.inf)
    assert not close(math.nan, math.nan) and not close(math.nan, 1.0)
    assert not leq(math.inf, 5.0)


@pytest.mark.parametrize("rel", [REL_TOL, EVENT_REL])
def test_scaled_tol_boundaries(rel):
    # an exact scale gets no slack, a float 0 the slack at scale 1, and a
    # float s the slack rel * s, whatever its size
    for exact in (Fraction(0), Fraction(3, 7), 5, 10 ** 400):
        assert scaled_tol(exact, rel) == 0 and type(scaled_tol(exact, rel)) is int
    assert scaled_tol(0.0, rel) == rel and scaled_tol(-0.0, rel) == rel
    for s in (5e-324, 0.75, 3.0, 2.0 ** 900):
        assert scaled_tol(s, rel) == rel * s


# ---------------------------------------------------------------------------
# the exact-mode kernel: Rational against stdlib Fraction
# ---------------------------------------------------------------------------

BIG = 2 ** 760  # the benchmark universe's denominators reach 749 bits

# zero, negatives, whole numbers and denominators beyond 700 bits
exact_values = st.builds(
    Fraction,
    st.integers(-10, 10) | st.integers(-BIG, BIG),
    st.integers(1, 10) | st.integers(2 ** 700, BIG),
)
KINDS = {"Rational": Rational, "Fraction": Fraction, "int": int}
operands = st.builds(lambda v, kind: KINDS[kind](v), exact_values,
                     st.sampled_from(sorted(KINDS)))
ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
COMPARES = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq,
            operator.ne)
WIDE = Fraction(3 ** 470 + 1, 2 ** 748 + 5)


def plain(x):
    """x as stdlib computes with it: a Fraction for any Fraction."""
    return Fraction(x) if isinstance(x, Fraction) else x


def exact_outcome(fn, *args):
    try:
        value = fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError
    return type(value), value.numerator, value.denominator


def float_outcome(fn, *args):
    try:
        value = fn(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)
    return type(value), repr(value)


@settings(max_examples=300, deadline=None)
@given(exact_values, operands)
@example(WIDE, Fraction(0))
@example(WIDE, -WIDE + 1)
def test_kernel_arithmetic_is_fractions(x, y):
    # each operator on either side of an int, a Fraction or a Rational gives
    # Fraction's numerator and denominator, as a Rational; a zero divisor
    # raises ZeroDivisionError as Fraction does
    r = Rational(x)
    for op in ARITHMETIC:
        for got, want in ((exact_outcome(op, r, y), exact_outcome(op, x, plain(y))),
                          (exact_outcome(op, y, r), exact_outcome(op, plain(y), x))):
            if want is ZeroDivisionError:
                assert got is ZeroDivisionError
            else:
                assert got == (Rational,) + want[1:]


@settings(max_examples=300, deadline=None)
@given(exact_values, operands | st.floats())
@example(Fraction(1, 3), math.inf)
@example(Fraction(-1, 3), -math.inf)
@example(Fraction(0), math.nan)
@example(Fraction(5), 5)
@example(WIDE, float(WIDE))
def test_kernel_compares_are_fractions(x, y):
    # against a Rational, a Fraction, an int and a float (inf and NaN too)
    r = Rational(x)
    for op in COMPARES:
        assert op(r, y) is op(x, plain(y))
        assert op(y, r) is op(plain(y), x)


@settings(max_examples=200, deadline=None)
@given(exact_values, st.floats())
@example(Fraction(10 ** 400, 3), 1.0)
@example(Fraction(1, 3), 0.0)
def test_kernel_float_operands_give_fractions_float(x, f):
    r = Rational(x)
    for op in ARITHMETIC:
        assert float_outcome(op, r, f) == float_outcome(op, x, f)
        assert float_outcome(op, f, r) == float_outcome(op, f, x)


@settings(max_examples=200, deadline=None)
@given(exact_values)
@example(Fraction(10 ** 400, 3))
@example(Fraction(-1, 2 ** 1100))
def test_kernel_looks_like_a_fraction(x):
    r = Rational(x)
    assert (hash(r), repr(r), str(r)) == (hash(x), repr(x), str(x))
    assert float_outcome(float, r) == float_outcome(float, x)
    for op in (operator.neg, abs):
        assert exact_outcome(op, r) == (Rational,) + exact_outcome(op, x)[1:]


def test_coerce_builds_a_rational_for_every_exact_input():
    for x in (3, 0.75, Fraction(3, 4), Rational(3, 4)):
        got = coerce(x, True)
        assert type(got) is Rational and got == x and is_exact(got)
    third = Rational(1, 3)
    assert coerce(third, True) is third
    assert type(coerce(third, False)) is float
