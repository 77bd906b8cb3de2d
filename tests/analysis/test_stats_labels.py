"""Tests for usage statistics (Tables 2-4, 8) and label derivation (Table 5).

The table cases read their rows through :class:`AnalysisPipeline`, the
production path; the count of distinct system executables is checked
against the batch oracle too.
"""

from repro.analysis.labels import (
    UNKNOWN_LABEL,
    derive_label,
    label_by_executable,
    user_application_table,
)
from repro.core import AnalysisPipeline
from repro.db.store import ProcessRecord

from oracles.tables import activity_totals, system_executable_count


def _record(executable: str, category: str, *, uid: int = 1000, jobid: str = "1",
            objects: str = "", objects_h: str = "", file_h: str = "",
            script_h: str = "", compilers: str = "") -> ProcessRecord:
    return ProcessRecord(jobid=jobid, stepid="0", pid=1, hash="h", host="n1", time=0,
                         uid=uid, executable=executable, category=category,
                         objects=objects, objects_h=objects_h, file_h=file_h,
                         script_h=script_h, compilers=compilers)


USERS = {1000: "user_1", 1001: "user_2"}


class TestDeriveLabel:
    def test_known_software_names(self):
        assert derive_label("/project/p/u/lammps/bin-a/lmp") == "LAMMPS"
        assert derive_label("/appl/local/csc/soft/bio/gromacs/2024.1/gmx_mpi") == "GROMACS"
        assert derive_label("/project/p/u/miniconda3/bin/python3.10") == "miniconda"
        assert derive_label("/project/p/u/icon-model/bin-x/icon_ocean") == "icon"
        assert derive_label("/project/p/u/amber22/pmemd.hip") == "amber"
        assert derive_label("/users/u/tools/gzip-1.13/bin/gzip") == "gzip"
        assert derive_label("/project/p/u/RadRad/RadRad") == "RadRad"
        assert derive_label("/project/p/u/janko/bin-prod/janko") == "janko"
        assert derive_label("/project/p/u/alexandria/bin-v1/alexandria") == "alexandria"

    def test_nondescript_names_are_unknown(self):
        assert derive_label("/scratch/p/u/run_tmp/exp_042/a.out") == UNKNOWN_LABEL
        assert derive_label("/scratch/p/u/run_tmp/exp_043/model.x") == UNKNOWN_LABEL

    def test_case_insensitive(self):
        assert derive_label("/project/p/u/LAMMPS-stable/lmp_gpu") == "LAMMPS"

    def test_first_rule_wins(self):
        # A path mentioning both lammps and gromacs matches the earlier rule.
        assert derive_label("/project/p/u/lammps-vs-gromacs/lmp") == "LAMMPS"


class TestUserActivityTable:
    def test_counts_and_sorting(self):
        records = [
            _record("/usr/bin/bash", "system", uid=1000, jobid="1"),
            _record("/usr/bin/rm", "system", uid=1000, jobid="2"),
            _record("/project/p/u/lmp", "user", uid=1001, jobid="3"),
            _record("/usr/bin/python3.10", "python", uid=1001, jobid="3"),
        ]
        rows = AnalysisPipeline(records, USERS).table2_user_activity()
        assert rows[0].user == "user_1"
        assert rows[0].job_count == 2 and rows[0].system_processes == 2
        assert rows[1].user == "user_2"
        assert rows[1].user_processes == 1 and rows[1].python_processes == 1

    def test_totals(self):
        records = [
            _record("/usr/bin/bash", "system", uid=1000, jobid="1"),
            _record("/project/p/u/lmp", "user", uid=1001, jobid="2"),
        ]
        total = activity_totals(AnalysisPipeline(records, USERS).table2_user_activity())
        assert total.user == "Total"
        assert total.job_count == 2
        assert total.total_processes == 2

    def test_unmapped_uid_fallback(self):
        rows = AnalysisPipeline([_record("/usr/bin/ls", "system", uid=4242)],
                                {}).table2_user_activity()
        assert rows[0].user == "uid_4242"


class TestSystemExecutableTable:
    def test_aggregation_and_top(self):
        records = [
            _record("/usr/bin/bash", "system", uid=1000, jobid="1", objects_h="3:a:b"),
            _record("/usr/bin/bash", "system", uid=1001, jobid="2", objects_h="3:c:d"),
            _record("/usr/bin/rm", "system", uid=1000, jobid="1", objects_h="3:a:b"),
            _record("/project/p/u/lmp", "user", uid=1000, jobid="1"),
        ]
        pipeline = AnalysisPipeline(records, USERS)
        rows = pipeline.table3_system_executables(top=1)
        assert len(rows) == 1
        assert rows[0].executable == "/usr/bin/bash"
        assert rows[0].unique_users == 2
        assert rows[0].process_count == 2
        assert rows[0].unique_objects_h == 2
        assert len(pipeline.table3_system_executables(top=None)) == \
            system_executable_count(records) == 2

    def test_user_records_excluded(self):
        rows = AnalysisPipeline([_record("/project/p/u/lmp", "user")],
                                USERS).table3_system_executables()
        assert rows == []


class TestSharedObjectVariants:
    def test_groups_by_object_set(self):
        default_set = "/lib64/libtinfo.so.6\n/lib64/libc.so.6"
        alt_set = "/appl/spack/ncurses/libtinfo.so.6\n/lib64/libc.so.6\n/lib64/libm.so.6"
        records = [
            _record("/usr/bin/bash", "system", objects=default_set),
            _record("/usr/bin/bash", "system", objects=default_set),
            _record("/usr/bin/bash", "system", objects=alt_set),
            _record("/usr/bin/ls", "system", objects="/lib64/libc.so.6"),
        ]
        rows = AnalysisPipeline(records).table4_shared_object_variants("bash")
        assert len(rows) == 2
        assert rows[0].process_count == 2
        assert rows[0].distinguishing["libtinfo"] == "/lib64/libtinfo.so.6"
        assert rows[0].distinguishing["libm"] == ""
        assert rows[1].distinguishing["libm"] == "/lib64/libm.so.6"

    def test_unknown_executable_empty(self):
        assert AnalysisPipeline([]).table4_shared_object_variants("bash") == []


class TestPythonInterpreterTable:
    def test_aggregation(self):
        records = [
            _record("/usr/bin/python3.10", "python", uid=1000, jobid="1", script_h="3:s1:x"),
            _record("/usr/bin/python3.10", "python", uid=1001, jobid="2", script_h="3:s2:x"),
            _record("/usr/bin/python3.6", "python", uid=1000, jobid="3", script_h="3:s3:x"),
            _record("/project/p/u/miniconda3/bin/python3.10", "user", uid=1000, jobid="4"),
        ]
        rows = AnalysisPipeline(records, USERS).table8_python_interpreters()
        assert rows[0].interpreter == "python3.10"
        assert rows[0].unique_users == 2
        assert rows[0].unique_script_h == 2
        assert rows[1].interpreter == "python3.6"
        # user-directory interpreters are not part of the PYTHON category table
        assert all(row.interpreter != "python3.10" or row.process_count == 2 for row in rows)


class TestUserApplicationTable:
    def test_label_aggregation(self):
        records = [
            _record("/project/p/a/lammps/lmp", "user", uid=1000, jobid="1", file_h="3:f1:x"),
            _record("/project/p/b/lammps/lmp", "user", uid=1001, jobid="2", file_h="3:f2:x"),
            _record("/scratch/p/u/exp/a.out", "user", uid=1000, jobid="3", file_h="3:f3:x"),
            _record("/usr/bin/bash", "system", uid=1000, jobid="1"),
        ]
        rows = user_application_table(records, USERS)
        assert rows[0].label == "LAMMPS"
        assert rows[0].unique_users == 2 and rows[0].unique_file_h == 2
        assert any(row.label == UNKNOWN_LABEL for row in rows)

    def test_label_by_executable(self):
        records = [_record("/project/p/a/lammps/lmp", "user"),
                   _record("/usr/bin/bash", "system")]
        mapping = label_by_executable(records)
        assert mapping == {"/project/p/a/lammps/lmp": "LAMMPS"}
