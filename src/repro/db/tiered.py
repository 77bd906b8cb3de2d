"""Gold rollups over the ``processes`` table.

``processes`` (:class:`~repro.db.store.MessageStore`) is the one record
table.  :class:`TieredStore` keeps one
:class:`~repro.analysis.stats.TableRollup` -- the accumulator
:class:`~repro.analysis.live.LiveAnalysis` also folds into -- in step with
it: the store hands over each batch its first-close-wins insert wrote in
full, and refolds gold from the whole table after any other write.  The four
paper tables (Tables 2, 3, 4 and 8) are then answered in O(answer), never
O(records), with rows byte-identical to a fresh fold of the whole table.
"""

from __future__ import annotations

from repro.analysis.stats import (
    PythonInterpreterRow,
    SharedObjectVariantRow,
    SystemExecutableRow,
    TableRollup,
    UserActivityRow,
)
from repro.db.store import ProcessRecord
from repro.util.errors import StoreError


class TieredStore:
    """Gold: Tables 2/3/4/8 of the records in ``processes``, in O(answer).

    ``user_names`` maps UID to the anonymised label baked into the user
    dimensions; it must not change once a record has been folded.
    """

    def __init__(self, user_names: dict[int, str] | None = None) -> None:
        self.user_names = dict(user_names or {})
        self.rollup_rebuilds = 0
        self.rollup_records_applied = 0
        self.rollup_syncs = 0
        self._gold = TableRollup(self.user_names)
        #: ``processes`` rows the rollup reflects
        self._rows = 0

    def fold(self, records: list[ProcessRecord]) -> None:
        """Fold a batch of records new to ``processes`` into gold."""
        fold = self._gold.fold
        for record in records:
            fold(record)
        self._rows += len(records)
        self.rollup_records_applied += len(records)
        self.rollup_syncs += 1

    def rebuild(self, records: list[ProcessRecord]) -> None:
        """Replace gold with a fold of ``records``: the whole ``processes``
        table.  A refold of a non-empty table counts in ``rollup_rebuilds``."""
        gold = TableRollup(self.user_names)
        for record in records:
            gold.fold(record)
        self._gold, self._rows = gold, len(records)
        if records:
            self.rollup_rebuilds += 1

    def user_activity(self) -> list[UserActivityRow]:
        """Table 2 of the records in ``processes``."""
        return self._gold.user_activity()

    def system_executables(self, top: int | None = 10) -> list[SystemExecutableRow]:
        """Table 3 of the records in ``processes``."""
        return self._gold.system_executables(top)

    def shared_object_variants(
        self, executable_name: str, distinguish: tuple[str, ...] = ("libtinfo", "libm"),
    ) -> list[SharedObjectVariantRow]:
        """Table 4 of the records in ``processes``."""
        return self._gold.shared_object_variants(executable_name, distinguish)

    def python_interpreters(self) -> list[PythonInterpreterRow]:
        """Table 8 of the records in ``processes``."""
        return self._gold.python_interpreters()

    def statistics(self) -> dict[str, int]:
        """Operational counters (all registry-declared).  ``silver_rows`` is
        the number of ``processes`` rows gold reflects; the name is the one
        the pipeline benchmark reads."""
        return {
            "silver_rows": self._rows,
            "rollup_rebuilds": self.rollup_rebuilds,
            "rollup_records_applied": self.rollup_records_applied,
            "rollup_syncs": self.rollup_syncs,
        }


def build_tiered_store(backend_name: str, *,
                       user_names: dict[int, str] | None = None) -> TieredStore:
    """A :class:`TieredStore`, for callers that still name a storage backend.

    Kept only for the pipeline benchmark, which builds its receiving side
    through it; a ``[benchmark]`` PR removes it.  There is no backend any
    more: ``"sqlite"`` and ``"memory"`` both build the same store, and any
    other name is still refused.
    """
    if backend_name not in ("sqlite", "memory"):
        raise StoreError(
            f"unknown store_backend {backend_name!r} "
            "(expected 'sqlite' or 'memory')")
    return TieredStore(user_names)
