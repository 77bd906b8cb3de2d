"""Tests for the SirenFramework facade and the AnalysisPipeline."""

import random
from operator import attrgetter

import pytest

from repro.analysis.similarity import SimilaritySearch
from repro.analysis.stats import activity_totals
from repro.core import AnalysisPipeline, SirenConfig, SirenFramework
from repro.hpcsim.slurm import JobScript, ProcessSpec, StepSpec
from repro.util.errors import CollectionError
from repro.workload import CampaignConfig, DeploymentCampaign

from oracles.consolidate import records_from_messages
from oracles.search import on_brute_force
from oracles.tables import user_activity_table
from oracles.wire import burst


class TestSirenFramework:
    def test_deploy_and_collect(self, app_cluster):
        cluster, manifest = app_cluster
        framework = SirenFramework(SirenConfig(loss_rate=0.0))
        collector = framework.deploy(cluster, siren_library_path=manifest.siren_library)
        try:
            icon = manifest.find_executable("icon", "cray-r1", "alice")
            script = JobScript(name="t", modules=("siren", *icon.required_modules),
                               steps=(StepSpec(processes=(
                                   ProcessSpec(executable=icon.path),
                                   ProcessSpec(executable=manifest.tool("bash")),)),))
            cluster.run_job("alice", script)
        finally:
            cluster.runtime.unregister_hook(manifest.siren_library)
        records = framework.snapshot()
        assert len(records) == 2
        stats = framework.statistics()
        assert stats["processes_collected"] == 2
        assert stats["messages_received"] > 0
        assert collector.section_errors == 0

    def test_double_deploy_rejected(self, app_cluster):
        cluster, manifest = app_cluster
        framework = SirenFramework(SirenConfig(loss_rate=0.0))
        framework.deploy(cluster, siren_library_path=manifest.siren_library)
        try:
            with pytest.raises(CollectionError):
                framework.deploy(cluster, siren_library_path=manifest.siren_library)
        finally:
            cluster.runtime.unregister_hook(manifest.siren_library)

    def _run_job(self, cluster, manifest) -> None:
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        cluster.run_job("alice", JobScript(
            name="t", modules=("siren", *icon.required_modules),
            steps=(StepSpec(processes=(ProcessSpec(executable=icon.path),)),)))

    def test_user_names_label_the_gold_user_dimension(self, app_cluster):
        cluster, manifest = app_cluster
        names = {user.uid: f"label-{user.username}" for user in cluster.users.all()}
        rows = {}
        for given in (names, None):
            framework = SirenFramework(SirenConfig(loss_rate=0.0, rollups=True),
                                       user_names=given)
            framework.deploy(cluster, siren_library_path=manifest.siren_library)
            try:
                self._run_job(cluster, manifest)
            finally:
                cluster.runtime.unregister_hook(manifest.siren_library)
            records = framework.finalize()
            rows[given is None] = framework.tiered.user_activity()
            assert rows[given is None] == user_activity_table(records, given)
        assert [row.user for row in rows[False]] == ["label-alice"]
        assert [row.user for row in rows[True]] == [f"uid_{records[0].uid}"]

    def test_lossy_channel_statistics(self, app_cluster):
        cluster, manifest = app_cluster
        framework = SirenFramework(SirenConfig(loss_rate=0.5, seed=1))
        framework.deploy(cluster, siren_library_path=manifest.siren_library)
        try:
            script = JobScript(name="t", modules=("siren",), steps=(StepSpec(processes=(
                ProcessSpec(executable=manifest.tool("bash"), count=20),)),))
            cluster.run_job("alice", script)
        finally:
            cluster.runtime.unregister_hook(manifest.siren_library)
        stats = framework.statistics()
        assert stats["datagrams_dropped"] > 0
        assert 0.3 < stats["observed_loss_rate"] < 0.7


class TestStreamingFramework:
    def _run_job(self, cluster, manifest) -> None:
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        script = JobScript(name="t", modules=("siren", *icon.required_modules),
                           steps=(StepSpec(processes=(
                               ProcessSpec(executable=icon.path),
                               ProcessSpec(executable=manifest.tool("bash")),)),))
        cluster.run_job("alice", script)

    def test_consolidate_matches_post_pass_oracle(self, app_cluster):
        """The records consolidated while messages arrive equal the ones the
        post-pass oracle regroups from the kept raw messages."""
        cluster, manifest = app_cluster
        framework = SirenFramework(SirenConfig(loss_rate=0.0))
        framework.deploy(cluster, siren_library_path=manifest.siren_library)
        try:
            self._run_job(cluster, manifest)
        finally:
            cluster.runtime.unregister_hook(manifest.siren_library)
        live = sorted(framework.snapshot(), key=lambda record: record.key)
        assert live == records_from_messages(framework.store)
        assert len(live) == 2

    def test_streaming_snapshot_and_statistics(self, app_cluster):
        cluster, manifest = app_cluster
        framework = SirenFramework(SirenConfig(loss_rate=0.0))
        framework.deploy(cluster, siren_library_path=manifest.siren_library)
        try:
            self._run_job(cluster, manifest)
            snapshot = framework.snapshot()
            assert len(snapshot) == 2
            # Snapshots are non-destructive: collection continues afterwards.
            self._run_job(cluster, manifest)
        finally:
            cluster.runtime.unregister_hook(manifest.siren_library)
        assert len(framework.snapshot()) == 4
        stats = framework.statistics()
        assert stats["messages_received"] > 0
        assert stats["decode_errors"] == 0
        assert stats["ingest_records_built"] >= 2
        assert stats["ingest_peak_open_processes"] >= 1

    def test_streaming_consolidate_persists_partial_batches(self, app_cluster):
        """consolidate() must flush pending records to the processes table
        even when fewer than flush_batch_size have been finalized."""
        cluster, manifest = app_cluster
        framework = SirenFramework(SirenConfig(loss_rate=0.0))
        framework.deploy(cluster, siren_library_path=manifest.siren_library)
        try:
            self._run_job(cluster, manifest)
        finally:
            cluster.runtime.unregister_hook(manifest.siren_library)
        records = framework.snapshot()
        assert framework.store.process_count() == len(records) == 2

    @pytest.mark.parametrize("keep_raw", [True, False])
    def test_keep_raw_messages_decides_the_raw_table(self, app_cluster, keep_raw):
        """``keep_raw_messages`` decides whether raw messages are persisted
        beside live consolidation, and finalize() leaves them in place.

        Regression test: the ingest front was once constructed without
        ``persist_raw``, silently never persisting raw messages no matter
        what the configuration asked for.
        """
        cluster, manifest = app_cluster
        framework = SirenFramework(SirenConfig(loss_rate=0.0, keep_raw_messages=keep_raw))
        framework.deploy(cluster, siren_library_path=manifest.siren_library)
        try:
            self._run_job(cluster, manifest)
        finally:
            cluster.runtime.unregister_hook(manifest.siren_library)
        assert len(framework.finalize()) == 2
        assert (framework.store.message_count() > 0) is keep_raw

    def test_finalize_persists_groups_whose_procend_was_lost(self):
        from repro.collector.records import InfoType, Layer
        from repro.transport.messages import UDPMessage

        framework = SirenFramework(SirenConfig(loss_rate=0.0))
        framework.sender.send(*burst(UDPMessage(
            jobid="9", stepid="0", pid=1, path_hash="a" * 32, host="n1", time=5,
            layer=Layer.SELF, info_type=InfoType.PROCINFO,
            content="pid=1|exe=/usr/bin/x|category=")))
        # No PROCEND ever arrives: the group stays open, visible to
        # snapshots but not yet persisted.
        assert len(framework.snapshot()) == 1
        assert framework.store.process_count() == 0
        records = framework.finalize()
        assert len(records) == 1
        assert framework.store.process_count() == 1

    def test_invalid_ingest_mode_rejected(self):
        with pytest.raises(CollectionError):
            SirenFramework(SirenConfig(ingest_mode="sideways"))

    def test_invalid_transport_rejected(self):
        with pytest.raises(CollectionError):
            SirenFramework(SirenConfig(transport="carrier-pigeon"))

    def test_socket_transport_end_to_end(self, app_cluster):
        """Framework deployments over real loopback UDP match the memory channel.

        Regression test: ``SirenConfig`` had no ``transport`` knob at all --
        only campaigns could exercise the socket path.
        """
        cluster, manifest = app_cluster
        results = {}
        for transport in ("memory", "socket"):
            framework = SirenFramework(SirenConfig(
                loss_rate=0.0, transport=transport, keep_raw_messages=False))
            framework.deploy(cluster, siren_library_path=manifest.siren_library)
            try:
                self._run_job(cluster, manifest)
            finally:
                cluster.runtime.unregister_hook(manifest.siren_library)
            try:
                results[transport] = sorted(
                    (r.executable, r.category, r.file_h, r.objects, r.incomplete)
                    for r in framework.finalize())
                stats = framework.statistics()
                assert stats["decode_errors"] == 0
            finally:
                framework.close()  # drains and releases the loopback sockets
            # close() is idempotent, and late observers (snapshot, live
            # analysis views) keep working on the already-drained data
            # instead of crashing on the dead socket.
            framework.close()
            assert len(framework.snapshot()) == 2
        assert results["socket"] == results["memory"]
        assert len(results["socket"]) == 2


class TestFrameworkLiveAnalysis:
    def test_default_framework_is_live_and_its_mid_run_keys_are_final(self, app_cluster):
        """A default ``SirenFramework()`` serves live views mid-run, and what
        ``consolidate()`` returns mid-run is the key set ``finalize()`` keeps."""
        cluster, manifest = app_cluster
        framework = SirenFramework()
        framework.deploy(cluster, siren_library_path=manifest.siren_library)
        try:
            icon = manifest.find_executable("icon", "cray-r1", "alice")
            cluster.run_job("alice", JobScript(
                name="t", modules=("siren", *icon.required_modules),
                steps=(StepSpec(processes=(
                    ProcessSpec(executable=icon.path),
                    ProcessSpec(executable=manifest.tool("bash"), count=3),)),)))
        finally:
            cluster.runtime.unregister_hook(manifest.siren_library)
        keys = lambda records: {record.key for record in records}
        mid_run = framework.snapshot()
        delta = framework.snapshot_delta()
        assert keys(delta.new_records) | keys(delta.open_records) == keys(mid_run)
        live = framework.live_analysis()
        assert activity_totals(live.table2_user_activity()).total_processes == len(mid_run)
        assert keys(framework.finalize()) == keys(mid_run)
        assert len(mid_run) == 4

    def test_live_analysis_tracks_the_stream(self, app_cluster):
        cluster, manifest = app_cluster
        framework = SirenFramework(SirenConfig(loss_rate=0.0))
        framework.deploy(cluster, siren_library_path=manifest.siren_library)
        live = framework.live_analysis()
        try:
            icon = manifest.find_executable("icon", "cray-r1", "alice")
            script = JobScript(name="t", modules=("siren", *icon.required_modules),
                               steps=(StepSpec(processes=(
                                   ProcessSpec(executable=icon.path),
                                   ProcessSpec(executable=manifest.tool("bash")),)),))
            cluster.run_job("alice", script)
            first = activity_totals(live.table2_user_activity())
            assert first.total_processes == 2
            cluster.run_job("alice", script)
            second = activity_totals(live.table2_user_activity())
            assert second.total_processes == 4
        finally:
            cluster.runtime.unregister_hook(manifest.siren_library)
        # Each view pulled only the delta, never the whole record set again.
        assert live.statistics()["records_committed"] == 4

    def test_snapshot_delta_is_disjoint_and_complete(self, app_cluster):
        cluster, manifest = app_cluster
        framework = SirenFramework(SirenConfig(loss_rate=0.0))
        framework.deploy(cluster, siren_library_path=manifest.siren_library)
        try:
            icon = manifest.find_executable("icon", "cray-r1", "alice")
            script = JobScript(name="t", modules=("siren", *icon.required_modules),
                               steps=(StepSpec(processes=(
                                   ProcessSpec(executable=icon.path),)),))
            cluster.run_job("alice", script)
            first = framework.snapshot_delta()
            cluster.run_job("alice", script)
            second = framework.snapshot_delta(first.cursor)
        finally:
            cluster.runtime.unregister_hook(manifest.siren_library)
        keys = lambda records: {(r.jobid, r.stepid, r.pid, r.hash, r.host, r.time)
                                for r in records}
        assert len(first.new_records) == len(second.new_records) == 1
        assert keys(first.new_records).isdisjoint(keys(second.new_records))
        assert second.cursor > first.cursor
        assert keys(first.new_records) | keys(second.new_records) == \
            keys(framework.snapshot())


class TestFrameworkAnalysisFacade:
    def _run_identification_job(self, cluster, manifest) -> None:
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        unknown = manifest.find_executable("icon", "unknown-copy", "alice")
        script = JobScript(name="t", modules=("siren", *icon.required_modules),
                           steps=(StepSpec(processes=(
                               ProcessSpec(executable=icon.path),
                               ProcessSpec(executable=unknown.path),)),))
        cluster.run_job("alice", script)

    def test_analysis_pipeline_over_collected_records(self, deployed_framework):
        cluster, manifest, framework, _ = deployed_framework
        self._run_identification_job(cluster, manifest)
        pipeline = AnalysisPipeline(framework.snapshot(), {})
        labels = {row.label for row in pipeline.table5_user_applications()}
        assert {"icon", "UNKNOWN"} <= labels

    def test_identify_unknown_equals_brute_force(self, deployed_framework):
        cluster, manifest, framework, _ = deployed_framework
        self._run_identification_job(cluster, manifest)
        records = framework.snapshot()
        identified = AnalysisPipeline(records, {}).table7_similarity_search(top=5)
        brute = SimilaritySearch(records)
        assert identified == on_brute_force(brute.identify_unknown, top=5)
        (results,) = identified.values()
        assert results[0].label == "icon"
        assert results[0].average == 100.0


class TestAnalysisPipeline:
    def test_tables_present_and_consistent(self, pipeline, campaign_result):
        table2 = pipeline.table2_user_activity()
        assert {row.user for row in table2} >= {"user_1", "user_4", "user_8"}
        totals = activity_totals(pipeline.table2_user_activity())
        assert totals.job_count == sum(row.job_count for row in table2)

        table3 = pipeline.table3_system_executables(top=10)
        assert len(table3) == 10
        assert all(row.process_count >= 1 for row in table3)

        table5 = pipeline.table5_user_applications()
        labels = {row.label for row in table5}
        assert {"LAMMPS", "GROMACS", "icon", "UNKNOWN"} <= labels

        table6 = pipeline.table6_compilers()
        assert any("GCC [SUSE]" in row.compilers for row in table6)

        table8 = pipeline.table8_python_interpreters()
        assert {row.interpreter for row in table8} == {"python3.6", "python3.10", "python3.11"}

    def test_figures_present(self, pipeline):
        figure2 = pipeline.figure2_library_usage()
        assert {row.tag for row in figure2} >= {"siren", "pthread", "cray"}
        figure3 = pipeline.figure3_python_packages()
        assert {row.package for row in figure3} >= {"heapq", "struct", "numpy"}
        figure4 = pipeline.figure4_compiler_matrix()
        assert "icon" in figure4.row_labels
        figure5 = pipeline.figure5_library_matrix()
        assert figure5.value("icon", "climatedt") == 1

    def test_table7_identifies_unknown_as_icon(self, pipeline):
        searches = pipeline.table7_similarity_search(top=5)
        assert searches
        for results in searches.values():
            assert results[0].label == "icon"

    def test_render_all_contains_every_section(self, pipeline):
        rendered = pipeline.render_all()
        for section in ("Table 2", "Table 3", "Table 4", "Table 5", "Table 6", "Table 7",
                        "Table 8", "Figure 2", "Figure 3", "Figure 4", "Figure 5"):
            assert section in rendered

    def test_render_all_skips_table7_without_unknowns(self, pipeline):
        known = [record for record in pipeline.records
                 if not record.executable.endswith(("a.out", "model.x"))]
        rendered = AnalysisPipeline(known, pipeline.user_names).render_all()
        assert "Table 7" not in rendered
        assert "Table 5" in rendered

    def test_render_all_propagates_unexpected_errors(self, pipeline, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("broken similarity backend")

        patched = AnalysisPipeline(pipeline.records, pipeline.user_names)
        monkeypatch.setattr(patched, "table7_similarity_search", boom)
        with pytest.raises(RuntimeError):
            patched.render_all()

    def test_similarity_search_accessor(self, pipeline):
        search = pipeline.similarity_search()
        assert search.unknown_instances()
        assert search.index_stats() is None or search.indexed

    def test_answers_do_not_depend_on_record_order(self):
        """Regression test: the batch tables followed the order the records
        were passed in, so a shuffled list gave another bash Table 4 and
        another report than the key-sorted one -- and than gold, which (like
        ``LiveAnalysis``) answers in process-key order."""
        result = DeploymentCampaign(CampaignConfig(
            scale=0.0, seed=7, loss_rate=0.0, keep_raw_messages=False,
            rollups=True)).run()
        ordered = sorted(result.records, key=attrgetter("key"))
        shuffled = list(ordered)
        random.Random(1).shuffle(shuffled)
        pipelines = [AnalysisPipeline(records, result.user_names)
                     for records in (shuffled, ordered)]
        gold = result.tiered
        expected = [gold.user_activity(), gold.system_executables(),
                    gold.python_interpreters(), gold.shared_object_variants("bash"),
                    gold.shared_object_variants("srun")]
        for pipeline in pipelines:
            assert [pipeline.table2_user_activity(),
                    pipeline.table3_system_executables(),
                    pipeline.table8_python_interpreters(),
                    pipeline.table4_shared_object_variants("bash"),
                    pipeline.table4_shared_object_variants("srun")] == expected
        assert pipelines[0].render_all() == pipelines[1].render_all()
