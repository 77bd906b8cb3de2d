"""Tests for process classification and the Table 1 collection policy."""

import pytest

from repro.collector.classify import (
    ExecutableCategory,
    classify_executable,
    classify_process,
    extract_script_path,
    is_python_interpreter,
)
from repro.collector.policy import TABLE_1, should_collect_rank
from repro.collector.records import InfoType, Layer


class TestClassification:
    @pytest.mark.parametrize("path", ["/usr/bin/bash", "/usr/bin/srun", "/bin/ls",
                                      "/opt/cray/pe/bin/cc"])
    def test_system(self, path):
        assert classify_executable(path) is ExecutableCategory.SYSTEM

    @pytest.mark.parametrize("path", ["/project/p/u/lammps/bin/lmp", "/users/alice/a.out",
                                      "/scratch/p/model.x", "/appl/local/tool/bin/x"])
    def test_user(self, path):
        assert classify_executable(path) is ExecutableCategory.USER

    @pytest.mark.parametrize("path", ["/usr/bin/python3.10", "/usr/bin/python3",
                                      "/usr/bin/python", "/opt/python/3.11.5/bin/python3.11"])
    def test_python_in_system_dir(self, path):
        assert classify_executable(path) is ExecutableCategory.PYTHON

    def test_python_in_user_dir_counts_as_user(self):
        """A user-installed interpreter (e.g. miniconda) is a USER executable."""
        assert classify_executable("/project/p/u/miniconda3/bin/python3.10") \
            is ExecutableCategory.USER

    def test_python_lookalike_not_interpreter(self):
        assert not is_python_interpreter("/usr/bin/python-config")
        assert not is_python_interpreter("/usr/bin/pythonista2")
        assert is_python_interpreter("/usr/bin/python3.6")

    def test_classify_process_ignores_argv(self):
        assert classify_process("/usr/bin/bash", ("/usr/bin/bash", "script.py")) \
            is ExecutableCategory.SYSTEM


class TestExtractScriptPath:
    def test_simple_invocation(self):
        argv = ("/usr/bin/python3.10", "/users/a/run.py")
        assert extract_script_path(argv) == "/users/a/run.py"

    def test_skips_options(self):
        argv = ("/usr/bin/python3.10", "-u", "-X", "dev", "/users/a/run.py", "--arg")
        assert extract_script_path(argv) == "/users/a/run.py"

    def test_minus_c_has_no_script(self):
        assert extract_script_path(("/usr/bin/python3", "-c", "print(1)")) is None

    def test_module_invocation_has_no_script(self):
        assert extract_script_path(("/usr/bin/python3", "-m", "json.tool")) is None

    def test_no_arguments(self):
        assert extract_script_path(("/usr/bin/python3",)) is None


#: Table 1 of the paper: which scopes collect each row's information, and
#: the wire sections the row is sent as.
PAPER_TABLE_1 = [
    # (system, user, interpreter, script), sections
    ((1, 1, 1, 1), (InfoType.FILEMETA,)),
    ((1, 1, 1, 0), (InfoType.OBJECTS, InfoType.OBJECTS_H)),        # libraries
    ((0, 1, 0, 0), (InfoType.MODULES, InfoType.MODULES_H)),
    ((0, 1, 0, 0), (InfoType.COMPILERS, InfoType.COMPILERS_H)),
    ((0, 1, 1, 0), (InfoType.MAPS, InfoType.MAPS_H)),              # memory map
    ((0, 1, 0, 1), (InfoType.FILE_H,)),
    ((0, 1, 0, 0), (InfoType.STRINGS_H,)),
    ((0, 1, 0, 0), (InfoType.SYMBOLS_H,)),
]
SCOPES = (ExecutableCategory.SYSTEM, ExecutableCategory.USER, ExecutableCategory.PYTHON,
          Layer.SCRIPT)


class TestTable1:
    """``TABLE_1`` is Table 1 of the paper, row by row, in wire order."""

    @pytest.mark.parametrize("column, scope", enumerate(SCOPES), ids=str)
    def test_scope_sends_the_rows_it_collects(self, column, scope):
        assert TABLE_1[scope] == tuple(section for collected, sections in PAPER_TABLE_1
                                       if collected[column] for section in sections)

    def test_the_table_has_the_four_scopes(self):
        assert set(TABLE_1) == set(SCOPES)

    def test_rank_zero_only(self):
        assert should_collect_rank("0")
        assert should_collect_rank(0)
        assert not should_collect_rank("3")
        assert should_collect_rank("")      # outside a Slurm step
        assert should_collect_rank(None)
