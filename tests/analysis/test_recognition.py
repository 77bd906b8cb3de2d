"""Tests for similarity clustering and repeated-execution recognition."""

import pytest

from repro.analysis.labels import UNKNOWN_LABEL
from repro.analysis.recognition import (
    cluster_instances,
    propagate_labels,
    recognize_repeated_executions,
    similarity_graph,
)
from repro.analysis.similarity import SimilaritySearch
from repro.db.store import ProcessRecord
from repro.hashing.ssdeep import fuzzy_hash_text


def _record(executable: str, *, content_tag: str = "", content: str | None = None,
            jobid: str = "1", time: int = 100, uid: int = 1000) -> ProcessRecord:
    content = content if content is not None else f"{content_tag} " * 150
    return ProcessRecord(
        jobid=jobid, stepid="0", pid=1, hash="h", host="n", time=time, uid=uid,
        executable=executable, category="user",
        modules_h=fuzzy_hash_text(content + "modules"),
        compilers_h=fuzzy_hash_text(content + "compilers"),
        objects_h=fuzzy_hash_text(content + "objects"),
        file_h=fuzzy_hash_text(content + "file"),
        strings_h=fuzzy_hash_text(content + "strings"),
        symbols_h=fuzzy_hash_text(content + "symbols"),
    )


def _edge_count(graph) -> int:
    """Each edge is stored under both of its ends."""
    return sum(map(len, graph.values())) // 2


@pytest.fixture()
def records() -> list[ProcessRecord]:
    icon_sections = [f"icon payload alpha section {index} routine nh_{index % 9}"
                     for index in range(120)]
    icon_base = "\n".join(icon_sections)
    # A lightly patched variant: a handful of sections rewritten.
    patched_sections = list(icon_sections)
    for index in (10, 40, 80):
        patched_sections[index] = f"icon payload alpha section {index} PATCHED r2"
    icon_variant = "\n".join(patched_sections)
    return [
        _record("/p/u/icon-model/bin-a/icon", content=icon_base, jobid="1"),
        _record("/p/u/icon-model/bin-b/icon", content=icon_variant, jobid="2", time=200),
        _record("/scratch/p/u/exp/a.out", content=icon_base, jobid="3", time=300),
        _record("/p/u/lammps/bin/lmp", content_tag="totally different lammps bits", jobid="4"),
    ]


class TestSimilarityGraph:
    def test_nodes_and_edges(self, records):
        search = SimilaritySearch(records)
        graph = similarity_graph(search, threshold=60)
        assert len(graph) == 4
        # icon variants and the a.out copy are linked; lammps is isolated.
        assert _edge_count(graph) >= 2
        lammps_key = next(i.key for i in search.instances if "lmp" in i.executable)
        assert len(graph[lammps_key]) == 0

    def test_threshold_validation(self, records):
        with pytest.raises(ValueError):
            similarity_graph(SimilaritySearch(records), threshold=150)

    def test_high_threshold_removes_edges(self, records):
        search = SimilaritySearch(records)
        loose = similarity_graph(search, threshold=40)
        strict = similarity_graph(search, threshold=100)
        assert _edge_count(strict) <= _edge_count(loose)


class TestClustering:
    def test_families_and_label_propagation(self, records):
        families = cluster_instances(SimilaritySearch(records), threshold=60)
        assert families[0].size == 3
        assert families[0].label == "icon"
        assert families[0].unknown_members == 1
        labels = propagate_labels(families)
        assert labels["/scratch/p/u/exp/a.out"] == "icon"
        assert labels["/p/u/lammps/bin/lmp"] == "LAMMPS"

    def test_unknown_only_family_stays_unknown(self):
        lonely = [_record("/scratch/p/u/x/a.out", content_tag="mystery payload")]
        families = cluster_instances(SimilaritySearch(lonely), threshold=60)
        assert families[0].label == UNKNOWN_LABEL

    def test_family_ids_follow_the_first_instance_of_each_family(self, records):
        """``family_id`` numbers components in the order of their earliest
        instance in ``search.instances``; the size sort keeps that order
        among equal sizes."""
        reordered = [records[3], records[2], records[0], _record(
            "/p/u/other/bin/tool", content_tag="another unrelated payload", jobid="5"),
            records[1]]
        search = SimilaritySearch(reordered)
        families = cluster_instances(search, threshold=60)
        assert [(family.family_id, family.size) for family in families] == [
            (1, 3), (0, 1), (2, 1)]
        position = {instance.key: index for index, instance in enumerate(search.instances)}
        firsts = [min(position[instance.key] for instance in family.instances)
                  for family in sorted(families, key=lambda family: family.family_id)]
        assert firsts == sorted(firsts)

    def test_family_ids_on_campaign_data(self, campaign_records):
        search = SimilaritySearch(campaign_records)
        families = cluster_instances(search, threshold=55)
        position = {instance.key: index for index, instance in enumerate(search.instances)}
        by_id = sorted(families, key=lambda family: family.family_id)
        assert [family.family_id for family in by_id] == list(range(len(families)))
        firsts = [min(position[instance.key] for instance in family.instances)
                  for family in by_id]
        assert firsts == sorted(firsts) and len(families) > 3
        sizes = [family.size for family in families]
        assert all(families[i].family_id < families[i + 1].family_id
                   for i in range(len(families) - 1) if sizes[i] == sizes[i + 1])

    def test_families_sorted_by_size(self, records):
        families = cluster_instances(SimilaritySearch(records), threshold=60)
        sizes = [family.size for family in families]
        assert sizes == sorted(sizes, reverse=True)


class TestRepeatedExecutionRecognition:
    def test_repeated_family_detected(self, records):
        report = recognize_repeated_executions(records, threshold=60)
        by_label = {row.label: row for row in report.rows}
        assert by_label["icon"].job_count == 3
        assert by_label["icon"].repeated
        assert by_label["icon"].distinct_executables == 3
        assert by_label["icon"].first_seen == 100
        assert by_label["icon"].last_seen == 300
        assert not by_label["LAMMPS"].repeated
        assert report.repeated_families() == [by_label["icon"]]

    def test_on_campaign_data(self, campaign_records):
        """On real campaign data the unknown a.out joins the icon family."""
        report = recognize_repeated_executions(campaign_records, threshold=55)
        by_label = {row.label: row for row in report.rows}
        assert "icon" in by_label
        assert by_label["icon"].repeated
        search = SimilaritySearch(campaign_records)
        families = cluster_instances(search, threshold=55)
        labels = propagate_labels(families)
        aout = next(path for path in labels if path.endswith("a.out"))
        assert labels[aout] == "icon"
