"""Post-pass consolidation: records regrouped from a raw ``messages`` table.

Ingest consolidates messages as they arrive
(:class:`~repro.ingest.incremental.IncrementalConsolidator`).  This is the
other way to get records from what a store kept: regroup the whole
``messages`` table by process key and hand each group to the record builder
as first written (``tests/oracles/records.py``), sharing no grouping,
closing, flushing or assembly code with the streaming path.  It only reads
the store.
"""

from __future__ import annotations

from collections import defaultdict

from repro.db.store import MessageStore, ProcessKey, ProcessRecord
from repro.transport.messages import MessageRow

from oracles.records import build_process_record, regroup


def raw_messages(store: MessageStore) -> list[MessageRow]:
    """Every row of the raw ``messages`` table, in process order."""
    return store.connection.execute(
        "SELECT jobid, stepid, pid, hash, host, time, layer, type, chunk_index,"
        " chunk_total, content FROM messages"
        " ORDER BY jobid, stepid, pid, hash, time, type, chunk_index").fetchall()


def records_from_messages(store: MessageStore) -> list[ProcessRecord]:
    """Regroup the raw ``messages`` table into records, in process-key order."""
    by_key: dict[ProcessKey, list[MessageRow]] = defaultdict(list)
    for row in raw_messages(store):
        by_key[row[:6]].append(row)
    return [build_process_record(key, regroup(rows)) for key, rows in sorted(by_key.items())]
