"""Tests for similarity clustering and repeated-execution recognition."""

import hashlib
from dataclasses import replace

import pytest

from repro.analysis.labels import UNKNOWN_LABEL
from repro.analysis.recognition import (
    cluster_instances,
    propagate_labels,
    recognize_repeated_executions,
    similarity_graph,
)
from repro.analysis.similarity import HASH_COLUMNS, SimilaritySearch, instance_key
from repro.db.store import ProcessRecord
from repro.hashing.ssdeep import FuzzyHasher

from oracles.search import reference_matrix

_HASHER = FuzzyHasher()


def _record(executable: str, *, content_tag: str = "", content: str | None = None,
            jobid: str = "1", time: int = 100, uid: int = 1000) -> ProcessRecord:
    content = content if content is not None else f"{content_tag} " * 150
    return ProcessRecord(
        jobid=jobid, stepid="0", pid=1, hash="h", host="n", time=time, uid=uid,
        executable=executable, category="user",
        modules_h=_HASHER.hash((content + "modules").encode()),
        compilers_h=_HASHER.hash((content + "compilers").encode()),
        objects_h=_HASHER.hash((content + "objects").encode()),
        file_h=_HASHER.hash((content + "file").encode()),
        strings_h=_HASHER.hash((content + "strings").encode()),
        symbols_h=_HASHER.hash((content + "symbols").encode()),
    )


def _edge_count(graph) -> int:
    """Each edge is stored under both of its ends."""
    return sum(map(len, graph.values())) // 2


def _key(path: str, records: list[ProcessRecord]) -> tuple[str, ...]:
    """The instance key of the first record at ``path``."""
    return next(instance_key(record) for record in records if record.executable == path)


def _payloads(name: str) -> tuple[str, str]:
    """A payload of 120 sections and a variant with three of them rewritten."""
    sections = [f"{name} payload alpha section {index} routine nh_{index % 9}"
                for index in range(120)]
    patched = list(sections)
    for index in (10, 40, 80):
        patched[index] = f"{name} payload alpha section {index} PATCHED r2"
    return "\n".join(sections), "\n".join(patched)


@pytest.fixture()
def records() -> list[ProcessRecord]:
    icon_base, icon_variant = _payloads("icon")
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
        assert labels[_key("/scratch/p/u/exp/a.out", records)] == "icon"
        assert labels[_key("/p/u/lammps/bin/lmp", records)] == "LAMMPS"

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
        aout = next(key for key in labels if key[0].endswith("a.out"))
        assert labels[aout] == "icon"

    def test_a_path_rebuilt_as_other_software_counts_in_each_family(self):
        """One ``a.out`` path holds an ICON variant in job 2 and a LAMMPS
        variant in jobs 4-5: each run counts in its own family, not in the
        family the path happened to be labelled with last."""
        icon, icon_variant = _payloads("icon")
        lammps, lammps_variant = _payloads("lammps")
        records = [
            _record("/p/u/icon-model/bin/icon", content=icon, jobid="1", time=100),
            _record("/scratch/p/u/exp/a.out", content=icon_variant, jobid="2", time=200),
            _record("/p/u/lammps/bin/lmp", content=lammps, jobid="3", time=300),
            _record("/scratch/p/u/exp/a.out", content=lammps_variant, jobid="4", time=400),
            _record("/scratch/p/u/exp/a.out", content=lammps_variant, jobid="5", time=500),
        ]
        by_label = {row.label: row for row in
                    recognize_repeated_executions(records, threshold=60).rows}
        assert {label: (row.job_count, row.process_count, row.first_seen, row.last_seen)
                for label, row in by_label.items()} == {
            "icon": (2, 2, 100, 200), "LAMMPS": (3, 3, 300, 500)}
        assert by_label["icon"].distinct_executables == 2
        assert by_label["LAMMPS"].distinct_executables == 2


#: threshold -> (edge count, SHA-256 of the sorted ``(node, neighbour,
#: weight)`` list) of the recorded campaign's similarity graph, recorded when
#: the graph compared every pair of instances one at a time.
_RECORDED_EDGES = {
    40: (68, "e6d8534dbc5464a80a8d96db2ee7cb3ccf324ec06b1940b4fd1e3f756556080b"),
    55: (59, "65da3389d8c9060b79afd8ffab4b90504b07e4792a23386406a3b477fa8ac28b"),
    60: (49, "e398b68b8cbd41be3863853cd2a9ec2170b9df751912120b3dcdba7a1125c6df"),
    100: (1, "cd571e61f91938b715ad14caee5dfd5175e4cfc4b9e8cc20a8f0598ae1e7999f"),
}


class _AllPairsSearch(SimilaritySearch):
    """A search whose matrices are the all-pairs reference's."""

    def pairwise_average_matrix(self, column: str = "FI_H") -> list[list[int]]:
        return reference_matrix(self.instances, column)


class TestGraphOfTheRecordedCampaign:
    """The graph is the per-column matrices averaged: the same edges whether
    the matrices prune through the n-gram gate or compare every pair."""

    @pytest.mark.parametrize("threshold", sorted(_RECORDED_EDGES))
    @pytest.mark.parametrize("search_type", [SimilaritySearch, _AllPairsSearch],
                             ids=["gated", "all-pairs"])
    def test_recorded_campaign_edges(self, recorded_campaign, threshold, search_type):
        search = search_type(recorded_campaign.result.records)
        graph = similarity_graph(search, threshold=threshold)
        assert list(graph) == [instance.key for instance in search.instances]
        edges = sorted((node, neighbour, weight) for node, neighbours in graph.items()
                       for neighbour, weight in neighbours.items())
        assert (len(edges) // 2, hashlib.sha256(repr(edges).encode()).hexdigest()) == \
            _RECORDED_EDGES[threshold]

    def test_the_gate_prunes_comparisons(self, recorded_campaign):
        search = SimilaritySearch(recorded_campaign.result.records)
        similarity_graph(search, threshold=55)
        size = len(search.instances)
        assert 0 < search.comparisons < size * (size - 1) // 2 * len(HASH_COLUMNS)

    def test_repeated_columns_count_once(self, records):
        """A column named twice weighs once, as in ``SimilaritySearch.query``."""
        records[1] = replace(records[1], strings_h="")
        search = SimilaritySearch(records)
        graph = similarity_graph(search, threshold=0, columns=("FI_H", "ST_H", "FI_H"))
        assert graph == similarity_graph(search, threshold=0, columns=("FI_H", "ST_H"))
        first, second = (instance.key for instance in search.instances[:2])
        assert graph[first][second] == 94 / 2

    def test_no_columns_is_refused(self, records):
        with pytest.raises(ValueError, match="column"):
            similarity_graph(SimilaritySearch(records), columns=())
