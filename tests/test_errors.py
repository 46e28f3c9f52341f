"""The exception hierarchy: everything derives from ReproError."""

import pytest

from repro import errors


@pytest.mark.parametrize("exc", [
    errors.ConfigError, errors.FlashError, errors.ProgramError,
    errors.EraseError, errors.OutOfSpaceError, errors.ReadError,
    errors.DeviceWornOutError, errors.PowerLossError, errors.CacheError,
    errors.CacheCapacityError, errors.FTLError, errors.TranslationError,
    errors.WorkloadError, errors.ExperimentError, errors.RunnerError,
    errors.CellTimeoutError, errors.WorkerCrashError,
])
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, errors.ReproError)


def test_flash_sub_hierarchy():
    assert issubclass(errors.ProgramError, errors.FlashError)
    assert issubclass(errors.EraseError, errors.FlashError)
    assert issubclass(errors.OutOfSpaceError, errors.FlashError)
    assert issubclass(errors.ReadError, errors.FlashError)
    assert issubclass(errors.DeviceWornOutError, errors.FlashError)
    assert issubclass(errors.PowerLossError, errors.FlashError)


def test_reliability_errors_catchable_as_flash_errors():
    """Callers that guard flash operations with ``except FlashError``
    must see the fault-injection errors too."""
    for exc in (errors.ReadError, errors.DeviceWornOutError,
                errors.PowerLossError):
        with pytest.raises(errors.FlashError):
            raise exc("x")


def test_cache_sub_hierarchy():
    assert issubclass(errors.CacheCapacityError, errors.CacheError)


def test_translation_is_ftl_error():
    assert issubclass(errors.TranslationError, errors.FTLError)


def test_runner_sub_hierarchy():
    """Supervision failures must stay catchable as ExperimentError, so
    pre-supervision callers keep working unchanged."""
    assert issubclass(errors.RunnerError, errors.ExperimentError)
    assert issubclass(errors.CellTimeoutError, errors.RunnerError)
    assert issubclass(errors.WorkerCrashError, errors.RunnerError)
    assert issubclass(errors.MatrixFailureError, errors.RunnerError)


def test_matrix_failure_message_and_payload_round_trip():
    failure = errors.CellFailure(
        key="deadbeef", label="financial1:dftl",
        error_type="OSError", message="disk on fire",
        traceback="Traceback ...", attempts=3, elapsed_s=1.25,
        transient=True)
    assert errors.CellFailure(**failure.to_payload()) == failure
    exc = errors.MatrixFailureError([failure])
    assert exc.failures == [failure]
    assert "1 cell quarantined" in str(exc)
    assert "financial1:dftl" in str(exc)
    with pytest.raises(errors.ExperimentError):
        raise exc


def test_catching_base_catches_all():
    with pytest.raises(errors.ReproError):
        raise errors.ProgramError("x")
