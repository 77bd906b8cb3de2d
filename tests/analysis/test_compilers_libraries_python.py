"""Tests for compiler combinations (Table 6), library tags (Figure 2), Python
packages (Figure 3) and the usage matrices (Figures 4-5)."""

from repro.analysis.compilers import compiler_combination_table, record_compiler_labels
from repro.analysis.labels import user_application_table
from repro.analysis.libfilter import library_usage_table, record_library_tags
from repro.analysis.matrices import compiler_label_matrix, library_label_matrix
from repro.analysis.pythonpkgs import audit_python_packages, python_package_table
from repro.corpus.toolchains import TOOLCHAINS
from repro.db.store import ProcessRecord

USERS = {1000: "user_1", 1001: "user_2"}

_SUSE = TOOLCHAINS["GCC [SUSE]"].comment
_CRAY = TOOLCHAINS["clang [Cray]"].comment
_LLD = TOOLCHAINS["LLD [AMD]"].comment


def _record(executable: str, *, category: str = "user", uid: int | None = 1000,
            jobid: str = "1",
            compilers: str = "", objects: str = "", file_h: str = "3:f:x",
            python_packages: str = "", script_h: str = "") -> ProcessRecord:
    return ProcessRecord(jobid=jobid, stepid="0", pid=1, hash="h", host="n", time=0,
                         uid=uid, executable=executable, category=category,
                         compilers=compilers, objects=objects, file_h=file_h,
                         python_packages=python_packages, script_h=script_h)


class TestCompilerAnalysis:
    def test_record_labels(self):
        record = _record("/p/lmp", compilers=f"{_SUSE};{_CRAY}")
        assert record_compiler_labels(record) == ("GCC [SUSE]", "clang [Cray]")

    def test_combination_table(self):
        records = [
            _record("/p/u1/icon-model/icon", uid=1000, jobid="1",
                    compilers=f"{_SUSE};{_CRAY}", file_h="3:a:x"),
            _record("/p/u2/icon-model/icon", uid=1001, jobid="2",
                    compilers=f"{_SUSE};{_CRAY}", file_h="3:b:x"),
            _record("/p/u1/gromacs/gmx_mpi", uid=1000, jobid="3",
                    compilers=_LLD, file_h="3:c:x"),
            _record("/usr/bin/bash", category="system", compilers=_SUSE),
        ]
        rows = compiler_combination_table(records, USERS)
        assert rows[0].compilers == ("GCC [SUSE]", "clang [Cray]")
        assert rows[0].unique_users == 2
        assert rows[0].unique_file_h == 2
        assert rows[0].display == "GCC [SUSE], clang [Cray]"
        assert rows[1].compilers == ("LLD [AMD]",)

    def test_records_without_compilers_skipped(self):
        assert compiler_combination_table([_record("/p/x", compilers="")], USERS) == []


class TestLibraryUsage:
    def test_record_library_tags(self):
        record = _record("/p/lmp", objects="\n".join([
            "/appl/local/siren/lib/siren.so",
            "/lib64/libpthread.so.0",
            "/opt/rocm-6.0.3/lib/librocblas.so.4",
            "/lib64/libc.so.6",
        ]))
        assert record_library_tags(record) == ["siren", "pthread", "rocm-blas"]

    def test_usage_table(self):
        records = [
            _record("/p/u1/lmp", uid=1000, jobid="1", file_h="3:a:x",
                    objects="/lib64/libpthread.so.0\n/opt/rocm-6.0.3/lib/libamdhip64.so.6"),
            _record("/p/u2/gmx", uid=1001, jobid="2", file_h="3:b:x",
                    objects="/lib64/libpthread.so.0"),
            _record("/usr/bin/bash", category="system",
                    objects="/lib64/libpthread.so.0"),
        ]
        rows = library_usage_table(records, USERS)
        by_tag = {row.tag: row for row in rows}
        assert by_tag["pthread"].unique_users == 2
        assert by_tag["pthread"].unique_executables == 2
        assert by_tag["rocm"].process_count == 1
        # system processes are not part of Figure 2
        assert by_tag["pthread"].process_count == 2


class TestPythonPackageAnalysis:
    def test_package_table(self):
        records = [
            _record("/usr/bin/python3.10", category="python", uid=1000, jobid="1",
                    python_packages="heapq,numpy", script_h="3:s1:x"),
            _record("/usr/bin/python3.10", category="python", uid=1001, jobid="2",
                    python_packages="heapq", script_h="3:s2:x"),
        ]
        rows = python_package_table(records, USERS)
        by_package = {row.package: row for row in rows}
        assert by_package["heapq"].unique_users == 2
        assert by_package["heapq"].unique_scripts == 2
        assert by_package["numpy"].unique_users == 1

    def test_audit_flags_unknown_and_insecure(self):
        records = [
            _record("/usr/bin/python3.11", category="python", uid=1000,
                    python_packages="numpy,reqeusts,insecure-lib", script_h="3:s:x"),
        ]
        findings = audit_python_packages(
            records, known_packages={"numpy", "insecure-lib"},
            insecure_packages={"insecure-lib"}, user_names=USERS,
        )
        flagged = {finding.package: finding for finding in findings}
        assert "reqeusts" in flagged            # unknown -> potential slopsquatting
        assert "insecure-lib" in flagged        # known insecure
        assert "numpy" not in flagged
        assert flagged["reqeusts"].users == ("user_1",)


class TestUserLabelling:
    """Every per-user dimension labels users the way Tables 2/3/8 do.

    A mapped uid 0 is that user (not ``uid_0``) and a record without a uid is
    ``unknown`` (not ``uid_None``).  Two uids mapped to one label make the
    difference visible in the distinct-user counts.
    """

    NAMES = {0: "user_root", 1000: "user_root", 1001: "unknown"}

    def _records(self, **fields):
        return [_record("/p/u/icon-model/icon", uid=uid, jobid=str(index), **fields)
                for index, uid in enumerate((0, 1000, None, 1001))]

    def test_user_tables_and_figures_count_two_users(self):
        user = self._records(compilers=_SUSE, objects="/lib64/libpthread.so.0")
        python = self._records(category="python", python_packages="numpy")
        (table5,) = user_application_table(user, self.NAMES)
        (table6,) = compiler_combination_table(user, self.NAMES)
        (figure2,) = library_usage_table(user, self.NAMES)
        (figure3,) = python_package_table(python, self.NAMES)
        assert [row.unique_users for row in (table5, table6, figure2, figure3)] == [2] * 4

    def test_audit_names_the_mapped_and_the_unknown_user(self):
        python = self._records(category="python", python_packages="reqeusts")
        (finding,) = audit_python_packages(python, known_packages=set(),
                                           user_names=self.NAMES)
        assert finding.users == ("unknown", "user_root")


class TestMatrices:
    def _records(self):
        return [
            _record("/p/u/icon-model/icon", uid=1000, compilers=f"{_SUSE};{_CRAY}",
                    objects="/opt/cray/pe/libsci/23.12/lib/libsci_cray.so.6"),
            _record("/p/u/gromacs/gmx_mpi", uid=1001, compilers=_LLD,
                    objects="/project/project_465000200/gromacs/2024.1/lib/libgromacs_mpi.so.8"),
        ]

    def test_compiler_matrix(self):
        matrix = compiler_label_matrix(self._records())
        assert matrix.value("icon", "GCC [SUSE]") == 1
        assert matrix.value("icon", "LLD [AMD]") == 0
        assert matrix.value("GROMACS", "LLD [AMD]") == 1

    def test_library_matrix(self):
        matrix = library_label_matrix(self._records())
        assert matrix.value("icon", "libsci-cray") == 1
        assert matrix.value("GROMACS", "gromacs") == 1
        assert matrix.value("GROMACS", "libsci-cray") == 0

    def test_row_helper(self):
        matrix = compiler_label_matrix(self._records())
        row = matrix.row("icon")
        assert row["clang [Cray]"] == 1

    def test_explicit_column_order(self):
        matrix = compiler_label_matrix(self._records(),
                                       column_order=("LLD [AMD]", "GCC [SUSE]"))
        assert matrix.column_labels == ("LLD [AMD]", "GCC [SUSE]")
