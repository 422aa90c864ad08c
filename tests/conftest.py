from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, settings

from coslie.lie_core import LieAlgebra

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    # without the explain phase, which formats a traceback for every variant
    # of a failing example and can take minutes before a failure is reported
    phases=[p for p in Phase if p is not Phase.explain],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def g21():
    return LieAlgebra.from_table(3, {(1, 2): {1: 1}})


@pytest.fixture(scope="session")
def g31():
    return LieAlgebra.from_table(3, {(2, 3): {1: 1}})


@pytest.fixture(scope="session")
def g34():
    return LieAlgebra.from_table(3, {(1, 3): {1: 1}, (2, 3): {2: -1}})


@pytest.fixture(scope="session")
def g35():
    return LieAlgebra.from_table(3, {(1, 3): {2: -1}, (2, 3): {1: 1}})


@pytest.fixture(scope="session")
def sl2():
    return LieAlgebra.from_table(
        3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}}
    )


@pytest.fixture(scope="session")
def catalog_report():
    from coslie.verify import verify_all

    return verify_all()


def rat(n, d=1) -> Fraction:
    return Fraction(n, d)
