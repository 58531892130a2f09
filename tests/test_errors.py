"""Tests for the exception hierarchy contract."""

import pytest

from repro.errors import (
    ConfigurationError,
    ModelError,
    RegistryError,
    ReplicationError,
    ReproError,
    SchedulingError,
    SimulationError,
    StatisticsError,
)

ALL_ERRORS = [
    ConfigurationError,
    ModelError,
    SimulationError,
    SchedulingError,
    RegistryError,
    StatisticsError,
    ReplicationError,
]


@pytest.mark.parametrize("error", ALL_ERRORS)
def test_every_error_derives_from_repro_error(error):
    assert issubclass(error, ReproError)
    assert issubclass(error, Exception)


def test_one_except_clause_catches_everything():
    for error in ALL_ERRORS:
        try:
            raise error("boom")
        except ReproError as caught:
            assert "boom" in str(caught)


def test_errors_are_distinct_types():
    # Catching ModelError must not swallow SchedulingError etc.
    with pytest.raises(SchedulingError):
        try:
            raise SchedulingError("x")
        except (ConfigurationError, ModelError, SimulationError):
            pytest.fail("wrong handler caught the error")
