"""Wigner 3-j and 6-j symbols from the Racah closed-form sums.

Factorials are kept as exact integers (``fractions.Fraction`` for the
rational parts), with a single float square root at the end, so values
are exact to machine precision for the small angular momenta used here.
Condon-Shortley phases throughout.

``wigner3j`` and ``wigner6j`` are memoized (``functools.lru_cache``,
unbounded): they are pure functions of hashable arguments, so a level
scheme built again in the same process reuses its symbols instead of
redoing the Racah sums.  Arguments that raise are not cached and raise on
every call.  The undecorated functions are ``wigner3j.__wrapped__`` and
``wigner6j.__wrapped__``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, sqrt
from numbers import Real


def _twice(x) -> int:
    """Twice a half-integral real number, as an int: 2*x in the number's own
    arithmetic, so an int or Fraction stays exact."""
    if not isinstance(x, Real):
        raise TypeError(f"cannot interpret {x!r} as a half-integer")
    twice = 2 * x
    t = int(twice)
    if t != twice:
        raise ValueError(f"{x} is not half-integral")
    return t


def _triangle_ok(tj1: int, tj2: int, tj3: int) -> bool:
    # arguments are doubled j's; parity must allow an integer perimeter
    if (tj1 + tj2 + tj3) % 2 != 0:
        return False
    return abs(tj1 - tj2) <= tj3 <= tj1 + tj2


def _fac2(twice_n: int) -> int:
    """factorial(n) for a doubled argument known to be an even non-negative int."""
    if twice_n % 2 != 0 or twice_n < 0:
        raise ValueError(f"factorial of non-integer or negative half-argument {twice_n}/2")
    return factorial(twice_n // 2)


def _triangle_coeff_sq(tj1: int, tj2: int, tj3: int) -> Fraction:
    """Squared triangle coefficient Delta(j1 j2 j3)^2 as an exact rational."""
    return Fraction(
        _fac2(tj1 + tj2 - tj3) * _fac2(tj1 - tj2 + tj3) * _fac2(-tj1 + tj2 + tj3),
        _fac2(tj1 + tj2 + tj3 + 2),
    )


@lru_cache(maxsize=None)
def wigner3j(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3-j symbol; 0 when any selection rule fails.

    Arguments may be any half-integral real numbers (ints, Fractions,
    floats); non-half-integral arguments raise ValueError and non-real ones
    TypeError.
    """
    tj1, tj2, tj3 = _twice(j1), _twice(j2), _twice(j3)
    tm1, tm2, tm3 = _twice(m1), _twice(m2), _twice(m3)
    if tj1 < 0 or tj2 < 0 or tj3 < 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
        # m not half-integral consistently with its j
        return 0.0
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if not _triangle_ok(tj1, tj2, tj3):
        return 0.0

    # Racah sum over k, with all factorial arguments doubled
    kmin = max(0, tj2 - tj3 - tm1, tj1 - tj3 + tm2)
    kmax = min(tj1 + tj2 - tj3, tj1 - tm1, tj2 + tm2)
    total = Fraction(0)
    for tk in range(kmin, kmax + 1, 2):
        term = Fraction(
            1,
            _fac2(tk)
            * _fac2(tj1 + tj2 - tj3 - tk)
            * _fac2(tj1 - tm1 - tk)
            * _fac2(tj2 + tm2 - tk)
            * _fac2(tj3 - tj2 + tm1 + tk)
            * _fac2(tj3 - tj1 - tm2 + tk),
        )
        if (tk // 2) % 2:
            term = -term
        total += term
    if total == 0:
        return 0.0

    norm_sq = _triangle_coeff_sq(tj1, tj2, tj3) * (
        _fac2(tj1 + tm1) * _fac2(tj1 - tm1)
        * _fac2(tj2 + tm2) * _fac2(tj2 - tm2)
        * _fac2(tj3 + tm3) * _fac2(tj3 - tm3)
    )
    sign = -1 if ((tj1 - tj2 - tm3) // 2) % 2 else 1
    return sign * float(total) * sqrt(float(norm_sq))


@lru_cache(maxsize=None)
def wigner6j(j1, j2, j3, j4, j5, j6) -> float:
    """Wigner 6-j symbol {j1 j2 j3; j4 j5 j6}; 0 when any triad fails the triangle rule."""
    t = [_twice(j) for j in (j1, j2, j3, j4, j5, j6)]
    tj1, tj2, tj3, tj4, tj5, tj6 = t
    if any(x < 0 for x in t):
        return 0.0
    triads = (
        (tj1, tj2, tj3),
        (tj1, tj5, tj6),
        (tj4, tj2, tj6),
        (tj4, tj5, tj3),
    )
    if not all(_triangle_ok(*tr) for tr in triads):
        return 0.0

    norm_sq = Fraction(1)
    for tr in triads:
        norm_sq *= _triangle_coeff_sq(*tr)

    kmin = max(
        tj1 + tj2 + tj3,
        tj1 + tj5 + tj6,
        tj4 + tj2 + tj6,
        tj4 + tj5 + tj3,
    )
    kmax = min(
        tj1 + tj2 + tj4 + tj5,
        tj2 + tj3 + tj5 + tj6,
        tj3 + tj1 + tj6 + tj4,
    )
    total = Fraction(0)
    for tk in range(kmin, kmax + 1, 2):
        num = _fac2(tk + 2)
        den = (
            _fac2(tk - tj1 - tj2 - tj3)
            * _fac2(tk - tj1 - tj5 - tj6)
            * _fac2(tk - tj4 - tj2 - tj6)
            * _fac2(tk - tj4 - tj5 - tj3)
            * _fac2(tj1 + tj2 + tj4 + tj5 - tk)
            * _fac2(tj2 + tj3 + tj5 + tj6 - tk)
            * _fac2(tj3 + tj1 + tj6 + tj4 - tk)
        )
        term = Fraction(num, den)
        if (tk // 2) % 2:
            term = -term
        total += term
    if total == 0:
        return 0.0
    return float(total) * sqrt(float(norm_sq))
