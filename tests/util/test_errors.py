"""The error hierarchy: ingest failures stay catchable as transport errors."""

import pytest

from repro.util.errors import (
    IngestError,
    ReproError,
    TransportError,
)


class TestHierarchy:
    def test_ingest_errors_are_transport_errors(self):
        # Split out of TransportError without breaking existing handlers:
        # every `except TransportError` keeps catching ingest failures.
        assert issubclass(IngestError, TransportError)
        assert issubclass(TransportError, ReproError)

    def test_existing_excepts_keep_working(self):
        with pytest.raises(TransportError):
            raise IngestError("store retry budget exhausted")
        with pytest.raises(ReproError):
            raise IngestError("pool closed")

    def test_messages_round_trip(self):
        error = IngestError("store retry budget of 4 exhausted")
        assert "budget of 4" in str(error)
