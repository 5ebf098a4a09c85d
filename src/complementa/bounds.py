"""Numeric bound formulas: n(m), the zeta(n) estimate, derived-length bounds,
and the exact order bound for elementary abelian minimal normal subgroups.

The bracketed expressions are exact floors.  m·log2(m) is irrational unless m
is a power of two, so it is evaluated in decimal arithmetic at a precision
raised until its error bound clears the nearest integer, and powers of two
take an exact integer shortcut.  The base-9 logarithm floor is computed by
exact big-integer comparison because (n-2)/8 can be an exact power of
9^(1/5) (n = 74 gives exactly 15), where any tolerance band around the
boundary would be wrong.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from typing import NamedTuple

from ._primes import is_prime
from .groups import PreconditionError


class BoundReport(NamedTuple):
    """Bounds attached to a supercomplemented cyclic p-subgroup of order m."""

    m: int
    n: int
    zeta_n: int
    d_bound: float
    d_bound_floor: int
    d_bound_general: int
    factorial_bound: int
    q: int | None = None
    prop1: int | None = None

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "zeta": self.zeta_n,
            "d_bound": self.d_bound,
            "d_bound_floor": self.d_bound_floor,
            "d_bound_general": self.d_bound_general,
            "factorial_bound": self.factorial_bound,
            "q": self.q,
            "prop1_bound": self.prop1,
        }


def _floor_m_log2_m(m: int) -> int:
    """floor(m·log2(m)) for m >= 2 not a power of two, where the value is
    irrational.  Decimal ``ln`` is correctly rounded and each product or
    quotient adds at most half a unit in the last place, so the computed
    value is within a relative 10^(2-prec) of the true one; the precision
    doubles until that band holds no integer."""
    prec = 2 * len(str(m)) + 20
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            value = Decimal(m) * Decimal(m).ln() / Decimal(2).ln()
            err = value.scaleb(2 - prec)
            whole = int(value)
            if whole < value - err and value + err < whole + 1:
                return whole
        prec *= 2


def n_of_m(m: int) -> int:
    """floor(m(m-1) + m·log2(m)); 1 when m = 1."""
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if m == 1:
        return 1
    if m & (m - 1) == 0:
        return m * (m - 1) + (m.bit_length() - 1) * m
    return m * (m - 1) + _floor_m_log2_m(m)


def floor_5log9(num: int, den: int) -> int:
    """floor(5·log9(num/den)) by exact integer comparison: the result k is
    the largest integer with 9^k · den^5 <= num^5.  Requires num >= den so
    the search stays in nonnegative exponents."""
    if num <= 0 or den <= 0 or num < den:
        raise PreconditionError("need num >= den > 0")
    k = int(5 * (math.log(num, 9) - math.log(den, 9)))
    num5, den5 = num ** 5, den ** 5
    while 9 ** (k + 1) * den5 <= num5:
        k += 1
    while 9 ** k * den5 > num5:
        k -= 1
    return k


def zeta_bound(n: int) -> int:
    """Piecewise upper estimate for the derived length of solvable linear
    groups of degree <= n: 2n for n <= 6, 14 for 7 <= n <= 73, and
    floor(5·log9((n-2)/8) + 10) beyond."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if n <= 6:
        return 2 * n
    if n <= 73:
        return 14
    return floor_5log9(n - 2, 8) + 10


def derived_length_bound(m: int) -> float:
    """Derived-length bound for a group with a supercomplemented cyclic
    p-subgroup of order m: 2, 11, 18 for m = 1, m = 2, 2 < m < 8, and the
    real value 5·log9((n-2)/8) + 13 for m >= 8."""
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if m == 1:
        return 2
    if m == 2:
        return 11
    if m < 8:
        return 18
    n = n_of_m(m)
    try:
        ratio = (n - 2) / 8
    except OverflowError:
        raise PreconditionError("(n - 2)/8 exceeds a float; "
                                "derived_length_bound_floor gives the exact floor") from None
    return 5 * math.log(ratio, 9) + 13


def derived_length_bound_floor(m: int) -> int:
    if m < 8:
        return int(derived_length_bound(m))
    return floor_5log9(n_of_m(m) - 2, 8) + 13


def derived_length_bound_general(m: int) -> int:
    """The general form zeta(n) + 3 with n = 1 for m = 1."""
    return zeta_bound(n_of_m(m)) + 3


def _refuse_unprintable(name: str, log10_value: float) -> None:
    """Refuse a bound before computing it when its decimal form is certain to
    exceed the interpreter's limit on integer-to-string conversion
    (``sys.get_int_max_str_digits()``, 0 for no limit).  The float estimate
    of log10 must pass twice the limit, far beyond its rounding error, so a
    value near the limit is still computed and the conversion decides."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and log10_value > 2 * limit:
        raise PreconditionError(f"{name} has about {log10_value:.3g} digits, "
                                f"over the {limit}-digit limit for integer strings")


def prop1_bound(q: int, m: int) -> int:
    """Exact order bound q^((m-1)m) · m^m for an elementary abelian minimal
    normal q-subgroup; exactly q when m = 1."""
    if not is_prime(q):
        raise PreconditionError(f"{q} is not prime")
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if m == 1:
        return q
    _refuse_unprintable("q^((m-1)m)·m^m", (m - 1) * m * math.log10(q) + m * math.log10(m))
    return q ** ((m - 1) * m) * m ** m


def factorial_index_bound(m: int) -> int:
    """m! — index bound for the normal elementary abelian subgroup of a
    p-subgroup."""
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if m > sys.maxsize:
        raise PreconditionError(f"m! is not computed for m above {sys.maxsize}")
    _refuse_unprintable("m!", math.lgamma(m + 1) / math.log(10))
    return math.factorial(m)


def bound_report(m: int, q: int | None = None) -> BoundReport:
    """All bounds for m (and q).  m! goes first: it refuses every m above
    ``sys.maxsize``, before the float in ``derived_length_bound`` overflows
    for m beyond about 1.2·10¹⁵⁴."""
    factorial = factorial_index_bound(m)
    return BoundReport(
        m=m,
        n=n_of_m(m),
        zeta_n=zeta_bound(n_of_m(m)),
        d_bound=derived_length_bound(m),
        d_bound_floor=derived_length_bound_floor(m),
        d_bound_general=derived_length_bound_general(m),
        factorial_bound=factorial,
        q=q,
        prop1=prop1_bound(q, m) if q is not None else None,
    )
