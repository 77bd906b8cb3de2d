"""Integration tests asserting the paper's qualitative claims on campaign data.

These tests check the *shape* of the paper's evaluation results (orderings,
who-uses-what relationships, similarity patterns), not absolute LUMI counts:
the shared fixture runs the campaign at a small scale.
"""

from repro.analysis.labels import UNKNOWN_LABEL
from repro.analysis.similarity import HASH_COLUMNS
from repro.analysis.stats import activity_totals
from repro.collector.classify import ExecutableCategory


class TestTable2Claims:
    def test_user1_dominates_jobs_and_runs_only_system_executables(self, pipeline):
        rows = pipeline.table2_user_activity()
        by_user = {row.user: row for row in rows}
        top = rows[0]
        assert top.user == "user_1"
        assert by_user["user_1"].user_processes == 0
        assert by_user["user_1"].python_processes == 0

    def test_user6_has_no_system_processes(self, pipeline):
        by_user = {row.user: row for row in pipeline.table2_user_activity()}
        assert by_user["user_6"].system_processes == 0
        assert by_user["user_6"].user_processes > 0

    def test_user4_mixes_python_and_user_executables(self, pipeline):
        by_user = {row.user: row for row in pipeline.table2_user_activity()}
        assert by_user["user_4"].python_processes > 0
        assert by_user["user_4"].user_processes > 0

    def test_system_processes_dominate_overall(self, pipeline):
        totals = activity_totals(pipeline.table2_user_activity())
        assert totals.system_processes > totals.user_processes
        assert totals.system_processes > totals.python_processes


class TestTable3Claims:
    def test_srun_used_by_most_but_not_all_users(self, pipeline, campaign_result):
        rows = pipeline.table3_system_executables(top=None)
        by_name = {row.executable.rsplit('/', 1)[-1]: row for row in rows}
        total_users = len(campaign_result.user_names)
        assert by_name["srun"].unique_users < total_users
        assert by_name["srun"].unique_users >= total_users // 2

    def test_mkdir_and_rm_have_highest_process_counts(self, pipeline):
        rows = pipeline.table3_system_executables(top=None)
        by_name = {row.executable.rsplit('/', 1)[-1]: row for row in rows}
        max_processes = max(row.process_count for row in rows)
        assert max(by_name["mkdir"].process_count, by_name["rm"].process_count) == max_processes

    def test_bash_has_multiple_library_variants(self, pipeline):
        rows = pipeline.table3_system_executables(top=None)
        bash = next(row for row in rows if row.executable.endswith("/bash"))
        assert bash.unique_objects_h >= 2


class TestTable4Claims:
    def test_bash_variants_differ_in_libtinfo_and_libm(self, pipeline):
        rows = pipeline.table4_shared_object_variants("bash")
        assert len(rows) >= 2
        # The dominant variant uses the system libtinfo and no libm.
        assert rows[0].distinguishing["libtinfo"].startswith("/lib64/")
        assert rows[0].distinguishing["libm"] == ""
        # Some variant resolves libtinfo from a non-default install.
        alternative_paths = {row.distinguishing["libtinfo"] for row in rows[1:]}
        assert any(not path.startswith("/lib64/") for path in alternative_paths if path)


class TestTable5Claims:
    def test_lammps_and_gromacs_shared_by_two_users(self, pipeline):
        by_label = {row.label: row for row in pipeline.table5_user_applications()}
        assert by_label["LAMMPS"].unique_users == 2
        assert by_label["GROMACS"].unique_users == 2

    def test_gromacs_single_executable_icon_many(self, pipeline):
        by_label = {row.label: row for row in pipeline.table5_user_applications()}
        assert by_label["GROMACS"].unique_file_h == 1
        assert by_label["icon"].unique_file_h > by_label["GROMACS"].unique_file_h
        assert by_label["icon"].unique_users == 1

    def test_unknown_label_exists_with_single_user(self, pipeline):
        by_label = {row.label: row for row in pipeline.table5_user_applications()}
        assert UNKNOWN_LABEL in by_label
        assert by_label[UNKNOWN_LABEL].unique_users == 1


class TestTable6Claims:
    def test_compiler_combinations_match_software(self, pipeline):
        combos = {row.compilers for row in pipeline.table6_compilers()}
        assert ("GCC [SUSE]", "clang [Cray]") in combos            # icon / RadRad
        assert ("GCC [Red Hat]", "GCC [conda]", "rustc") in combos  # miniconda solver
        assert any("LLD [AMD]" in combo for combo in combos)        # GROMACS / LAMMPS / gzip

    def test_multi_compiler_binaries_exist(self, pipeline):
        assert any(len(row.compilers) >= 2 for row in pipeline.table6_compilers())


class TestTable7Claims:
    def test_unknown_identified_as_icon_with_perfect_match(self, pipeline):
        searches = pipeline.table7_similarity_search(top=10)
        aout = next(path for path in searches if path.endswith("a.out"))
        results = searches[aout]
        assert results[0].label == "icon"
        assert results[0].average == 100.0
        assert all(results[0].scores[column] == 100 for column in HASH_COLUMNS)

    def test_similarity_decreases_down_the_ranking(self, pipeline):
        searches = pipeline.table7_similarity_search(top=10)
        for results in searches.values():
            averages = [result.average for result in results]
            assert averages == sorted(averages, reverse=True)

    def test_top_candidates_are_all_icon(self, pipeline):
        searches = pipeline.table7_similarity_search(top=4)
        for results in searches.values():
            assert {result.label for result in results} == {"icon"}

    def test_symbol_hash_is_most_stable_column(self, pipeline):
        """The paper argues global symbols are the most stable identifier."""
        searches = pipeline.table7_similarity_search(top=8)
        for results in searches.values():
            icon_results = [r for r in results if r.label == "icon"]
            mean_sy = sum(r.scores["SY_H"] for r in icon_results) / len(icon_results)
            mean_fi = sum(r.scores["FI_H"] for r in icon_results) / len(icon_results)
            assert mean_sy >= mean_fi


class TestTable8AndFigure3Claims:
    def test_python310_has_most_users_and_script_diversity(self, pipeline):
        rows = {row.interpreter: row for row in pipeline.table8_python_interpreters()}
        assert rows["python3.10"].unique_users == 2
        assert rows["python3.6"].unique_users == 1
        assert rows["python3.11"].unique_users == 1
        assert rows["python3.6"].process_count > rows["python3.10"].process_count

    def test_common_packages_imported_by_all_python_users(self, pipeline):
        rows = {row.package: row for row in pipeline.figure3_python_packages()}
        python_users = max(row.unique_users for row in rows.values())
        for package in ("heapq", "struct", "math"):
            assert rows[package].unique_users == python_users
        for package in ("mpi4py", "pandas", "scipy"):
            assert rows[package].unique_users < python_users


class TestFigure2And5Claims:
    def test_siren_loaded_by_every_user_executable(self, pipeline):
        matrix = pipeline.figure5_library_matrix()
        assert all(matrix.value(label, "siren") == 1 for label in matrix.row_labels)

    def test_climate_libraries_identify_icon(self, pipeline):
        matrix = pipeline.figure5_library_matrix()
        assert matrix.value("icon", "climatedt") == 1
        # The UNKNOWN instances are icon copies, so they legitimately load
        # climatedt too -- that is exactly the "verifying functionality" step
        # of Section 4.3.  No other software label uses the climate stack.
        for label in matrix.row_labels:
            if label not in ("icon", UNKNOWN_LABEL):
                assert matrix.value(label, "climatedt") == 0
        assert matrix.value(UNKNOWN_LABEL, "climatedt") == 1

    def test_rocm_stack_points_to_gpu_applications(self, pipeline):
        matrix = pipeline.figure5_library_matrix()
        assert matrix.value("LAMMPS", "rocfft-rocm-fft") == 1
        assert matrix.value("miniconda", "rocm") == 0

    def test_figure4_matches_package_definitions(self, pipeline):
        matrix = pipeline.figure4_compiler_matrix()
        assert matrix.value("GROMACS", "LLD [AMD]") == 1
        assert matrix.value("icon", "clang [Cray]") == 1
        assert matrix.value("gzip", "GCC [SUSE]") == 0


class TestOperationalClaims:
    def test_loss_fraction_is_tiny(self, campaign_result):
        """Section 3.1 reports ~0.02% of jobs with missing fields."""
        assert campaign_result.incomplete_fraction < 0.02

    def test_rank_zero_selectivity(self, campaign_result):
        skipped = campaign_result.collector.processes_skipped
        collected = campaign_result.collector.processes_collected
        assert skipped > 0
        assert collected + skipped == campaign_result.processes_run

    def test_hashing_cache_effective(self, campaign_result):
        hasher = campaign_result.collector.hasher
        assert hasher.cache_hits > hasher.hashes_computed

    def test_categories_cover_all_records(self, campaign_result):
        complete = [r for r in campaign_result.records if not r.incomplete]
        assert all(r.category in {c.value for c in ExecutableCategory} for r in complete)
