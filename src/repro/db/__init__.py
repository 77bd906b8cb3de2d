"""SQLite storage for SIREN messages and consolidated process records.

The gold rollups (:mod:`repro.db.tiered`) are imported from their module:
they build on :mod:`repro.analysis`, which itself reads records from here.
"""

from repro.db.schema import MESSAGES_SCHEMA, PROCESSES_SCHEMA
from repro.db.store import MessageStore

__all__ = [
    "MessageStore",
    "MESSAGES_SCHEMA",
    "PROCESSES_SCHEMA",
]
