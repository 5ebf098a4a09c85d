"""Exact bound formulas and their floor arithmetic."""

import math

import pytest

import complementa as ca
from complementa._primes import MR_EXACT_BELOW, is_prime
from complementa.bounds import floor_5log9
from complementa.groups import PreconditionError


def n_oracle(m):
    """floor(m(m-1) + m·log2(m)) via exact bit-length arithmetic:
    floor(m·log2 m) = floor(log2(m^m)) = bit_length(m^m) - 1."""
    if m == 1:
        return 1
    return m * (m - 1) + (m ** m).bit_length() - 1


def test_n_of_m_paper_values():
    assert ca.n_of_m(2) == 4
    assert ca.n_of_m(8) == 80
    assert ca.n_of_m(1) == 1


def test_n_of_m_matches_bitlength_oracle():
    for m in range(2, 700):
        assert ca.n_of_m(m) == n_oracle(m), m


def test_n_of_m_exact_just_above_a_power_of_two():
    # m·log2(m) = 70·2^70 + 70 + m·log2(1 + 2^-70), and the last term is
    # 1/ln 2 = 1.44... to within 2^-70, far below any float's resolution
    m = 2 ** 70 + 1
    assert ca.n_of_m(m) == m * (m - 1) + 70 * 2 ** 70 + 71


def test_zeta_bound_piecewise():
    assert ca.zeta_bound(1) == 2
    assert ca.zeta_bound(4) == 8
    assert ca.zeta_bound(6) == 12
    assert ca.zeta_bound(7) == 14
    assert ca.zeta_bound(73) == 14
    assert ca.zeta_bound(80) == 15


def test_zeta_bound_exact_boundary():
    # (74-2)/8 = 9 exactly, so the floor argument is the integer 15
    assert ca.zeta_bound(74) == 15


def test_zeta_bound_monotone_prefix():
    values = [ca.zeta_bound(n) for n in range(1, 3000)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_floor_5log9_against_float():
    for num in range(9, 4000, 7):
        exact = floor_5log9(num, 8)
        approx = 5 * math.log(num / 8, 9)
        assert exact <= approx < exact + 1 + 1e-9


def test_derived_length_bound_pieces():
    assert ca.derived_length_bound(1) == 2
    assert ca.derived_length_bound(2) == 11
    for m in range(3, 8):
        assert ca.derived_length_bound(m) == 18
    assert ca.derived_length_bound_floor(8) == 18
    assert 18 < ca.derived_length_bound(8) < 19


def test_derived_length_bound_floor_consistent_with_zeta():
    for m in (8, 9, 16, 27, 100):
        n = ca.n_of_m(m)
        assert ca.derived_length_bound_floor(m) == ca.zeta_bound(n) + 3


def test_derived_length_bound_general():
    assert ca.derived_length_bound_general(1) == ca.zeta_bound(1) + 3 == 5
    assert ca.derived_length_bound_general(2) == 11


def test_bounds_beyond_float_range():
    """(n - 2)/8 exceeds a float here: the floors stay exact, and the
    real-valued bound refuses instead of raising OverflowError."""
    k = floor_5log9(10**400, 8)
    assert 9 ** k * 8 ** 5 <= 10**2000 < 9 ** (k + 1) * 8 ** 5
    assert ca.zeta_bound(10**400) == 2101
    m = 10**155
    assert ca.derived_length_bound_floor(m) == ca.derived_length_bound_general(m) == 1632
    with pytest.raises(PreconditionError):
        ca.derived_length_bound(m)
    assert ca.derived_length_bound_floor(10**154) == int(ca.derived_length_bound(10**154))


def test_prop1_bound():
    for q in (2, 3, 5, 7, 11):
        assert ca.prop1_bound(q, 1) == q
    assert ca.prop1_bound(3, 2) == 36
    assert ca.prop1_bound(2, 2) == 16
    assert ca.prop1_bound(2, 8) == 2 ** 56 * 8 ** 8


def test_prop1_bound_exact_digit_count():
    value = ca.prop1_bound(2, 8)
    digits = math.floor(56 * math.log10(2) + 8 * math.log10(8)) + 1
    assert len(str(value)) == digits
    assert value == 2 ** 80


def test_prop1_bound_rejects_nonprime():
    with pytest.raises(PreconditionError):
        ca.prop1_bound(4, 2)


def test_factorial_index_bound():
    assert ca.factorial_index_bound(1) == 1
    assert ca.factorial_index_bound(2) == 2
    assert ca.factorial_index_bound(8) == 40320
    with pytest.raises(PreconditionError):
        ca.factorial_index_bound(2 ** 70 + 1)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial(n) for n in range(-2, 20000))


@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
    318665857834031151167461,  # strong pseudoprime to the first 12 prime bases
    (2 ** 31 - 1) * (2 ** 19 - 1),
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_is_exact_up_to_its_bound_and_refuses_beyond():
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert not is_prime(MR_EXACT_BELOW - 1)  # even
    for n in (MR_EXACT_BELOW, 2 ** 89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


def test_bound_report_dict():
    rep = ca.bound_report(2, q=3)
    data = rep.to_dict()
    assert data["n"] == 4
    assert data["zeta"] == 8
    assert data["d_bound"] == 11
    assert data["prop1_bound"] == 3 ** 2 * 2 ** 2
    assert data["factorial_bound"] == 2


def test_bound_report_invariants():
    for m in (1, 2, 3, 8, 20):
        rep = ca.bound_report(m)
        assert rep.n >= 1
        assert rep.d_bound >= 2


def test_domain_errors():
    for fn in (ca.n_of_m, ca.derived_length_bound, ca.factorial_index_bound):
        with pytest.raises(PreconditionError):
            fn(0)
    with pytest.raises(PreconditionError):
        ca.zeta_bound(0)
