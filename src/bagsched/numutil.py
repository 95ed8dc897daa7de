"""Numeric helpers, the exact-mode number type and the package's float
tolerances.

Two value modes coexist: plain floats for speed, and Rational for exact
arithmetic. Rational is a fractions.Fraction whose arithmetic and compares
with a Fraction or an int read the slots directly; coerce builds every exact
number, so every value derived from an exact instance is one. Its values,
str and repr are Fraction's, so exact outputs are unchanged. Every routine
here is duck-typed so both modes pass through unchanged; nothing calls
math.* on scheduling values.

Every float tolerance of the package is named here, once. Exact-mode values
compare exactly wherever a tolerance would apply.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, nan
from operator import ge, gt, le, lt

# Default slack of close/leq and of every certificate, rate-feasibility,
# realization and primal check: absorbs the rounding that accumulates in the
# float sums and quotients of one run.
REL_TOL = 1e-9

# Batching of simultaneous events: completions and releases this close to the
# next event time, and realization quotas this close to drained or to each
# other, are one event; a release and a slice's end are tested relative to
# the time, with no absolute floor. Absorbs the rounding of a single
# quotient.
EVENT_REL = 1e-12

# Argmin ties: water levels of run ends in assign_rates (compared by
# tie_leq, relative to the larger level with no absolute floor, so a tie
# means the same at every weight scale), and log-scale gaps to class speeds
# in blocks.nearest_class, this close count as tied. Absorbs the rounding
# of a single quotient, so the tie-break rule decides.
TIE_REL = 1e-12

# A speedup meets a certificate family's threshold when it is below it by at
# most this share: absorbs the rounding of log2 in the threshold formula.
THRESHOLD_REL = 1e-12

# Per-job work that `simulate --realize` accepts from a realized slice,
# relative to the fluid work: absorbs the rounding summed over the slice's
# segments.
WORK_REL = 1e-6

# Constraint slack granted to an ingested LP solution: absorbs the feasibility
# tolerance of the external solver that produced it.
SOLVER_REL = 1e-6

# Float screen of exact rate-cover checks (dualcheck.check_dual). It
# evaluates (b + d) * r / s from the screen_floats of exact b, d >= 0,
# r >= 0 and s > 0. Each read and each of the three operations is within a
# relative u = 2**-53 of its exact value, and the reads of b and d together
# too, as both are >= 0; so the float is at most (1 + u)**5 / (1 - u) times
# the exact value, and the least float over the classes at most that times
# the least exact value. Times SCREEN_MARGIN, with one more rounding, it is
# at most float(exact) >= exact * (1 - u) for any factor up to
# (1 - u)**2 / (1 + u)**6, about 1 - 8u; SCREEN_MARGIN is 1 - 32u.
SCREEN_MARGIN = 1 - 2 ** -48

# The floats the screen reads are 0.0 for an exact zero or lie in this
# window: there each read is within u, and (b + d) * r / s is 0 or inside
# [2**-900, 2**901], in the normal range where each operation is too.
SCREEN_WINDOW = (2.0 ** -300, 2.0 ** 300)


_new = object.__new__


def _rational(n: int, d: int):
    """The Rational n/d of n and d > 0 in lowest terms, built on the slots."""
    r = _new(Rational)
    r._numerator = n
    r._denominator = d
    return r


# Fraction's gcd-reduced algorithms (Knuth, TAOCP 4.5.1) on the slots of
# a = na/da and b = nb/db in lowest terms with positive denominators; each
# result is in lowest terms with a positive denominator, the one form of its
# value, so it is the (numerator, denominator) Fraction computes.

def _add(na, da, nb, db):
    g = gcd(da, db)
    if g == 1:
        return _rational(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _rational(t, s * db)
    return _rational(t // g2, s * (db // g2))


def _sub(na, da, nb, db):
    return _add(na, da, -nb, db)


def _mul(na, da, nb, db):
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _rational(na * nb, db * da)


def _div(na, da, nb, db):
    if nb > 0:
        return _mul(na, da, db, nb)
    if nb < 0:
        return _mul(-na, da, db, -nb)
    raise ZeroDivisionError(f"Fraction({na}, 0)")


def _arithmetic(op, forward, reverse):
    """Rational's operator and its reflection: op on the slots when the
    other operand is an int or a Fraction, else Fraction's own method."""
    def fast(a, b):
        t = type(b)
        if t is int:
            return op(a._numerator, a._denominator, b, 1)
        if t is Rational or isinstance(b, Fraction):
            return op(a._numerator, a._denominator, b._numerator, b._denominator)
        return forward(a, b)

    def reflected(a, b):
        t = type(b)
        if t is int:
            return op(b, 1, a._numerator, a._denominator)
        if isinstance(b, Fraction):
            return op(b._numerator, b._denominator, a._numerator, a._denominator)
        return reverse(a, b)

    return fast, reflected


def _comparison(op, slow):
    """Rational's compare: na * db op nb * da when the other operand is an
    int or a Fraction, else Fraction's own method."""
    def compare(a, b):
        t = type(b)
        if t is int:
            return op(a._numerator, b * a._denominator)
        if t is Rational or isinstance(b, Fraction):
            return op(a._numerator * b._denominator, b._numerator * a._denominator)
        return slow(a, b)

    return compare


class Rational(Fraction):
    """The exact-mode number: a Fraction whose + - * /, compares, unary
    minus, abs and float with an int or a Fraction read the slots and give a
    Rational. Any other operand, and every other operation, is Fraction's.
    Hash and str are Fraction's, and repr reads as Fraction's.

    >>> x = Rational(1, 3) + 1
    >>> x, type(x).__name__, x == Fraction(4, 3), str(-x)
    (Fraction(4, 3), 'Rational', True, '-4/3')
    """

    __slots__ = ()

    __add__, __radd__ = _arithmetic(_add, Fraction.__add__, Fraction.__radd__)
    __sub__, __rsub__ = _arithmetic(_sub, Fraction.__sub__, Fraction.__rsub__)
    __mul__, __rmul__ = _arithmetic(_mul, Fraction.__mul__, Fraction.__rmul__)
    __truediv__, __rtruediv__ = _arithmetic(
        _div, Fraction.__truediv__, Fraction.__rtruediv__)
    __lt__ = _comparison(lt, Fraction.__lt__)
    __le__ = _comparison(le, Fraction.__le__)
    __gt__ = _comparison(gt, Fraction.__gt__)
    __ge__ = _comparison(ge, Fraction.__ge__)
    __hash__ = Fraction.__hash__  # a class that defines __eq__ loses it

    def __eq__(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if t is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    def __neg__(a):
        return _rational(-a._numerator, a._denominator)

    def __abs__(a):
        return _rational(abs(a._numerator), a._denominator)

    def __float__(a):
        return a._numerator / a._denominator  # correctly rounded

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"


def is_exact(x) -> bool:
    if type(x) is float:  # the common case; skips the slow ABC check
        return False
    return type(x) is Rational or isinstance(x, (int, Fraction))


def coerce(x, exact: bool):
    """Normalize a JSON-ish number into the requested mode: a Rational when
    exact, the one way the package builds an exact number.

    >>> coerce(0.5, True), type(coerce(Fraction(1, 2), True)).__name__
    (Fraction(1, 2), 'Rational')
    >>> coerce(3, False)
    3.0
    """
    if exact:
        return x if type(x) is Rational else Rational(x)
    return float(x)


def close(a, b, rel: float = REL_TOL) -> bool:
    """Equality up to relative slack; exact compare if both sides are exact.

    An infinite side grants no slack: it is close only to itself.
    """
    if type(a) is not float or type(b) is not float:
        if is_exact(a) and is_exact(b):
            return a == b
        a, b = float(a), float(b)
    scale = max(abs(a), abs(b), 1.0)
    return a == b if scale == inf else abs(a - b) <= rel * scale


def leq(a, b, rel: float = REL_TOL) -> bool:
    """a <= b up to relative slack; plain <= when both sides are exact.

    Two floats (the common case) skip the mode test and the conversions, and
    a plain a <= b skips the slack, which can only widen it. An infinite
    side grants no slack, so inf <= 5.0 is false.
    """
    if type(a) is not float or type(b) is not float:
        if is_exact(a) and is_exact(b):
            return a <= b
        a, b = float(a), float(b)
    if a <= b:
        return True
    scale = max(abs(a), abs(b), 1.0)
    return scale != inf and a <= b + rel * scale


def tie_leq(a, b, rel: float = TIE_REL) -> bool:
    """a <= b up to rel of the larger side, with no absolute floor.

    leq's floor of 1 would make values below 1 tie when they are far apart
    relative to their size; here the slack shrinks with the values. Exact
    sides compare exactly, and an infinite side grants no slack.
    """
    if type(a) is not float or type(b) is not float:
        if is_exact(a) and is_exact(b):
            return a <= b
        a, b = float(a), float(b)
    if a <= b:
        return True
    scale = max(abs(a), abs(b))
    return scale != inf and a <= b + rel * scale


def scaled_tol(scale, rel: float):
    """The absolute slack of `rel` at `scale`: 0 for an exact scale, else
    rel * float(scale), with a zero scale read as 1.

    >>> scaled_tol(Fraction(3), REL_TOL), scaled_tol(0.0, 0.5), scaled_tol(3.0, 0.5)
    (0, 0.5, 1.5)
    """
    return 0 if is_exact(scale) else rel * float(scale or 1)


def to_float(x) -> float:
    """float(x), with a value too large for a float read as +-inf.

    >>> to_float(Fraction(10) ** 400)
    inf
    """
    try:
        return float(x)
    except OverflowError:
        return inf if x > 0 else -inf


def screen_float(x):
    """float(x) for an exact x that the screen may read: 0, or a value
    whose float lies in SCREEN_WINDOW; NaN for any other x, negative, a
    float or out of the window, as a NaN bound settles nothing. float of
    an int or a Fraction is correctly rounded, as CPython's int / int is.

    >>> screen_float(Fraction(1, 4)), screen_float(0.25), screen_float(Fraction(-1, 4))
    (0.25, nan, nan)
    >>> screen_float(Fraction(0)), screen_float(Fraction(1, 2 ** 1100)), screen_float(10 ** 400)
    (0.0, nan, nan)
    """
    if not is_exact(x):
        return nan
    try:
        f = float(x)
    except OverflowError:
        return nan
    lo, hi = SCREEN_WINDOW
    return f if lo <= f <= hi or not x else nan


def json_number(x):
    """Representation for JSON output that round-trips exact values.

    >>> json_number(Rational(3, 4)), json_number(Rational(2)), json_number(Fraction(3, 4))
    ({'num': 3, 'den': 4}, 2, {'num': 3, 'den': 4})
    """
    t = type(x)
    if t is float or t is int:  # skips the slow ABC check
        return x
    if t is Rational or isinstance(x, Fraction):  # Rational skips the ABC check
        if x._denominator == 1:
            return x._numerator
        return {"num": x._numerator, "den": x._denominator}
    return x

