"""Small number-theory helpers: primality, factorization, divisors."""

from __future__ import annotations


# Miller–Rabin with the first 13 primes as bases is exact below
# MR_EXACT_BELOW (Sorenson and Webster, Math. Comp. 86, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin; ValueError for n >= MR_EXACT_BELOW."""
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"primality is decided only below {MR_EXACT_BELOW}, got {n}")
    if n < 2 or any(n % p == 0 for p in MR_BASES):
        return n in MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d·2^s with d odd
    d = (n - 1) >> s
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


def primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod the prime p: the
    least r with r^((p-1)/q) ≠ 1 mod p for every prime q dividing p − 1."""
    qs = prime_factors(p - 1)
    return next(r for r in range(1, p)
                if all(pow(r, (p - 1) // q, p) != 1 for q in qs))
