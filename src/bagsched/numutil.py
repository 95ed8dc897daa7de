"""Numeric helpers and the package's float tolerances.

Two value modes coexist: plain floats for speed, and fractions.Fraction for
exact arithmetic. Every routine here is duck-typed so both modes pass through
unchanged; nothing calls math.* on scheduling values.

Every float tolerance of the package is named here, once. Exact-mode values
compare exactly wherever a tolerance would apply.
"""
from __future__ import annotations

from fractions import Fraction
from math import inf, nan

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


def is_exact(x) -> bool:
    if type(x) is float:  # the common case; skips the slow ABC check
        return False
    return isinstance(x, (int, Fraction))


def coerce(x, exact: bool):
    """Normalize a JSON-ish number into the requested mode.

    >>> coerce(0.5, True)
    Fraction(1, 2)
    >>> coerce(3, False)
    3.0
    """
    if exact:
        return x if isinstance(x, Fraction) else Fraction(x)
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
    """Representation for JSON output that round-trips exact values."""
    if type(x) is float or type(x) is int:  # skips the slow ABC check
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
        return {"num": x.numerator, "den": x.denominator}
    return x

