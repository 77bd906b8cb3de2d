"""The launch ledger: what SIREN owes for every process the simulator ran.

:class:`GroundTruthLedger` wraps a cluster's live ``runtime.run_process`` and,
at each launch, notes whether SIREN's hook ran (not static, ``siren.so``
preloaded: the runtime's rule, restated), whether it collects (the rank
rule) and the record ingest owes for the sections ``TABLE_1`` lists: the
wire's path hash in the key, every other field from the process context and
the executable's and script's bytes and ``stat`` at launch, every digest
from :class:`~oracles.ctph.ReferenceHasher`.  Table 1, the rank rule and the
ELF extractors are all it shares with the collector; nothing of the
collector, artifact hasher, sender, channel, ingest or store.
"""

from __future__ import annotations

from collections import Counter
from contextlib import suppress
from dataclasses import fields

from repro.collector.classify import ExecutableCategory, classify_executable, is_python_interpreter
from repro.collector.policy import TABLE_1, should_collect_rank
from repro.collector.records import InfoType, Layer
from repro.db.store import ProcessKey, ProcessRecord
from repro.elf.reader import ELFFile, is_elf
from repro.elf.strings import strings_blob
from repro.elf.symbols import nm_listing
from repro.hashing.xxhash import xxh128_hex
from repro.hpcsim.cluster import Cluster
from repro.hpcsim.process import ProcessContext
from repro.util.errors import ELFError

from oracles.ctph import ReferenceHasher

#: The contract's clauses, as :meth:`GroundTruthLedger.violations` names them.
KEYS, VALUES, FLAGGED = "keys", "values", "losses flagged"
#: The record fields a collected process fills in: all but the key and the flag.
_CONTENT = tuple(f.name for f in fields(ProcessRecord))[6:-1]


class GroundTruthLedger:
    """Every launch on ``cluster`` from now on, and the records SIREN owes."""

    def __init__(self, cluster: Cluster, library_path: str) -> None:
        self.filesystem, self.library_path = cluster.filesystem, library_path
        self.launches = self.hooked = 0
        #: collected process key -> the record ingest owes for it
        self.expected: dict[ProcessKey, ProcessRecord] = {}
        self._digests: dict[bytes, str] = {}
        run_process = cluster.runtime.run_process

        def run_and_record(**launch) -> ProcessContext:
            context = run_process(**launch)
            self._record(context)
            return context

        cluster.runtime.run_process = run_and_record

    def records(self) -> list[ProcessRecord]:
        """The owed records, in process-key order (ingest's output order)."""
        return [self.expected[key] for key in sorted(self.expected)]

    def _record(self, context: ProcessContext) -> None:
        self.launches += 1
        link = context.link_result
        if link.static or self.library_path not in link.preloaded:
            return
        self.hooked += 1
        if not should_collect_rank(context.slurm_procid):
            return
        executable = context.executable
        category = classify_executable(executable)
        sends = TABLE_1[category]
        content = self.filesystem.read(executable)
        elf = ELFFile(content) if is_elf(content) else None
        owed: dict[str, object] = dict(
            uid=context.uid, gid=context.gid, ppid=context.ppid,
            executable=executable, category=category.value)
        if InfoType.FILEMETA in sends:
            owed["file_metadata"] = self._metadata(executable)
        compilers = None if elf is None else ";".join(elf.comment_strings())
        for info_type, hash_type, text in (
                (InfoType.OBJECTS, InfoType.OBJECTS_H, "\n".join(context.loaded_objects)),
                (InfoType.MODULES, InfoType.MODULES_H, context.loaded_modules),
                (InfoType.COMPILERS, InfoType.COMPILERS_H, compilers),
                (InfoType.MAPS, InfoType.MAPS_H, context.maps_text())):
            if text is None:        # compiler strings: an ELF executable's only
                continue
            if info_type in sends:
                owed[info_type.value.lower()] = text
            if hash_type in sends:
                owed[hash_type.value.lower()] = self._digest(text.encode())
        if InfoType.FILE_H in sends:
            owed["file_h"] = self._digest(content)
        if InfoType.STRINGS_H in sends:
            owed["strings_h"] = self._digest(strings_blob(content).encode())
        if InfoType.SYMBOLS_H in sends:
            with suppress(ELFError):    # an unparseable symbol table loses SYMBOLS_H alone
                owed["symbols_h"] = self._digest(b"" if elf is None else nm_listing(elf).encode())
        script = context.python_script
        if (is_python_interpreter(executable) and script and script.startswith("/")
                and self.filesystem.exists(script)):
            owed["script_path"] = script
            if InfoType.FILEMETA in TABLE_1[Layer.SCRIPT]:
                owed["script_meta"] = self._metadata(script)
            if InfoType.FILE_H in TABLE_1[Layer.SCRIPT]:
                owed["script_h"] = self._digest(self.filesystem.read(script))
        if InfoType.MAPS in sends and (category is ExecutableCategory.PYTHON
                                       or "script_path" in owed):
            owed["python_packages"] = ",".join(sorted(set(context.imported_packages)))
        key = (context.slurm_job_id, context.slurm_step_id, context.pid,
               xxh128_hex(executable), context.hostname, context.start_time)
        self.expected[key] = ProcessRecord(*key, **owed)

    def _metadata(self, path: str) -> str:
        return "|".join(f"{name}={value}"
                        for name, value in self.filesystem.stat(path).as_dict().items())

    def _digest(self, data: bytes) -> str:
        if data not in self._digests:
            self._digests[data] = ReferenceHasher().hash(data)
        return self._digests[data]

    def violations(self, records: list[ProcessRecord], *, lossless: bool) -> list[str]:
        """One line per clause ``records`` break: :data:`KEYS` (each was
        collected, none twice, all there when ``lossless``), :data:`VALUES` (a
        present field is the owed one) and :data:`FLAGGED` (a field empty
        where the owed one is not); the last two excuse a record flagged incomplete."""
        counts = Counter(record.key for record in records)
        phantom = len(counts.keys() - self.expected.keys())
        twice = sum(count > 1 for count in counts.values())
        missing = len(self.expected.keys() - counts.keys()) if lossless else 0
        wrong: Counter[str] = Counter()
        unflagged: Counter[str] = Counter()
        for record in records:
            owed = self.expected.get(record.key)
            if owed is None or record.incomplete:
                continue
            for name in _CONTENT:
                value, owed_value = getattr(record, name), getattr(owed, name)
                if value in ("", None):
                    unflagged[name] += owed_value not in ("", None)
                else:
                    wrong[name] += value != owed_value
        found = [f"{clause}: {dict(+count)}" for clause, count
                 in ((VALUES, wrong), (FLAGGED, unflagged)) if +count]
        if phantom or twice or missing:
            found.insert(0, f"{KEYS}: {phantom} phantom, {twice} twice, {missing} missing")
        return found
