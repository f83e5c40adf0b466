import pytest
from hypothesis import settings

from uilkit.kneading import (cutting_data, fibonacci_q, nonrecurrent_example_nu,
                             nu_from_orbit, nu_from_q)
from uilkit.scalars import slope_for_prefix

# big-rational examples take unpredictable time on a shared host, so property
# tests run without a deadline; a failure prints the blob that replays it
settings.register_profile("uilkit", deadline=None, print_blob=True)
settings.load_profile("uilkit")


@pytest.fixture(scope="session")
def fib_slope():
    return slope_for_prefix(nu_from_q(fibonacci_q, 220).bits, name="fib")


@pytest.fixture(scope="session")
def fib_nu(fib_slope):
    return nu_from_orbit(fib_slope, 220)


@pytest.fixture(scope="session")
def fib_kd(fib_nu):
    return cutting_data(fib_nu)


@pytest.fixture(scope="session")
def nonrec_slope():
    return slope_for_prefix(nonrecurrent_example_nu(180).bits, name="nonrec41")


@pytest.fixture(scope="session")
def nonrec_nu(nonrec_slope):
    return nu_from_orbit(nonrec_slope, 180)


@pytest.fixture(scope="session")
def nonrec_kd(nonrec_nu):
    return cutting_data(nonrec_nu)
