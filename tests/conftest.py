import pytest

import complementa as ca


@pytest.fixture(scope="session")
def catalog_reports():
    """The full catalog property suite, run once per session, with its runtime."""
    import time
    t0 = time.perf_counter()
    reports = ca.run_catalog_suite()
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def hol8():
    return ca.holomorph8()


@pytest.fixture(scope="session")
def s3():
    return ca.symmetric3().group


# A loop of order 5 (Latin square, identity 0) that is not
# associative: (1·1)·2 = 2 but 1·(1·2) = 4.
LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


@pytest.fixture(scope="session")
def loop5():
    return [list(row) for row in LOOP5]


@pytest.fixture(scope="session")
def loop640():
    """LOOP5 × C128 on pairs (a, b) encoded as 128·a + b, with generators."""
    m = 128
    mult = [[LOOP5[a1][a2] * m + (b1 + b2) % m for a2 in range(5) for b2 in range(m)]
            for a1 in range(5) for b1 in range(m)]
    return mult, [128, 256, 384, 512, 1]
