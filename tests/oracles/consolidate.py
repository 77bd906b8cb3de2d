"""Post-pass consolidation: the oracle the streaming consolidator is pinned to.

Ingest consolidates messages as they arrive
(:class:`~repro.ingest.incremental.IncrementalConsolidator`).  This is the
other way to get the same records: persist every raw message, then regroup
the whole ``messages`` table by process key and hand each group to the
record builder as first written (``tests/oracles/records.py``).  It shares
no grouping, closing, flushing or assembly code with the streaming path,
which is what makes it an oracle; the dual-ingest harness in
``tests/conftest.py`` feeds both from one datagram stream.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.db.store import MessageStore, ProcessKey, ProcessRecord
from repro.ingest.records import GroupKey, MessageGroup

from oracles.records import build_process_record


def records_from_messages(store: MessageStore) -> list[ProcessRecord]:
    """Regroup the raw ``messages`` table into records, in process-key order.

    Reads only: nothing is written to ``store``.
    """
    grouped: dict[ProcessKey, dict[GroupKey, MessageGroup]] = defaultdict(dict)
    for row in store.iter_messages():
        jobid, stepid, pid, path_hash, host, time, layer, info_type, idx, total, content = row
        key: ProcessKey = (jobid, stepid, pid, path_hash, host, time)
        group = grouped[key].setdefault((layer, info_type), MessageGroup())
        group.add(idx, total, content)
    return [build_process_record(key, groups) for key, groups in sorted(grouped.items())]


@dataclass
class Consolidator:
    """Turns the raw ``messages`` table into consolidated ``processes`` rows."""

    store: MessageStore
    records_built: int = 0
    incomplete_records: int = 0

    def run(self, *, clear_messages: bool = False) -> list[ProcessRecord]:
        """Consolidate everything currently in the store.

        The resulting records are inserted into the ``processes`` table and
        returned in process-key order.  ``clear_messages=True`` drops the raw
        messages afterwards.
        """
        records = records_from_messages(self.store)
        self.store.insert_processes(records)
        self.records_built += len(records)
        self.incomplete_records += sum(record.incomplete for record in records)
        if clear_messages:
            self.store.clear_messages()
        return records


def consolidate_store(store: MessageStore, *, clear_messages: bool = False) -> list[ProcessRecord]:
    """Convenience wrapper: consolidate ``store`` and return the records."""
    return Consolidator(store).run(clear_messages=clear_messages)
