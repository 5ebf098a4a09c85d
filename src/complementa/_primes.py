"""Small number-theory helpers: primality, factorization, divisors."""

from __future__ import annotations

import math


def is_prime(n: int) -> bool:
    """Trial-division primality test, sufficient for the orders handled here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    factors = []
    if n % 2 == 0:
        factors.append(2)
        while n % 2 == 0:
            n //= 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 2
    if n > 1:
        factors.append(n)
    return factors


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    part = 1
    while n % p == 0:
        part *= p
        n //= p
    return part


def is_p_power(n: int, p: int) -> bool:
    """Whether n is a power of p (1 counts as p**0)."""
    while n % p == 0:
        n //= p
    return n == 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def lcm(values) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, v)
    return out
