"""Recognition of repeated executions and similarity clustering.

Beyond the one-baseline similarity search of Table 7, the paper motivates
SIREN with the *recognition of repeated executions of known applications* and
with future plans to analyse software usage at scale.  This module provides
that layer:

* :func:`similarity_graph` builds a graph -- an adjacency dict -- whose nodes
  are executable instances and whose edges connect instances with average
  fuzzy-hash similarity above a threshold,
* :class:`SoftwareFamily` / :func:`cluster_instances` extract connected
  components ("software families") from that graph, label each family from its
  known members, and therefore propagate labels to unknown instances in bulk,
* :func:`recognize_repeated_executions` reports, per family, how often the
  same software was executed across jobs — the paper's "repeated execution"
  use case (performance-variability studies need exactly this grouping).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.labels import UNKNOWN_LABEL
from repro.analysis.similarity import (
    HASH_COLUMNS,
    ExecutableInstance,
    SimilaritySearch,
    instance_key,
)
from repro.db.store import ProcessRecord


InstanceKey = tuple[str, ...]
#: An undirected weighted graph: node -> {neighbour: edge weight}, each
#: edge stored under both of its ends.
Graph = dict[InstanceKey, dict[InstanceKey, float]]


def similarity_graph(
    search: SimilaritySearch,
    *,
    threshold: int = 60,
    columns: tuple[str, ...] = HASH_COLUMNS,
) -> Graph:
    """Build the instance-similarity graph.

    Nodes are instance keys, in ``search.instances`` order; an edge joins two
    instances when the average similarity over the distinct ``columns`` is
    at least ``threshold``, weighted by that average.  The scores are one
    :meth:`~repro.analysis.similarity.SimilaritySearch.pairwise_average_matrix`
    per column, so only the pairs sharing an n-gram are compared, each
    distinct digest pair once.
    """
    if not 0 <= threshold <= 100:
        raise ValueError("threshold must be between 0 and 100")
    columns = tuple(dict.fromkeys(columns))
    if not columns:
        raise ValueError("columns must name at least one hash column")
    matrices = [search.pairwise_average_matrix(column) for column in columns]
    keys = [instance.key for instance in search.instances]
    graph: Graph = {key: {} for key in keys}
    for i, first in enumerate(keys):
        for j in range(i + 1, len(keys)):
            average = sum(matrix[i][j] for matrix in matrices) / len(columns)
            if average >= threshold:
                graph[first][keys[j]] = graph[keys[j]][first] = average
    return graph


def _components(graph: Graph) -> list[list[InstanceKey]]:
    """The graph's connected components, by union-find over its edges.

    Components come in the order of their first node, and each lists its
    nodes in graph order.
    """
    parent = {node: node for node in graph}

    def root(node: InstanceKey) -> InstanceKey:
        while parent[node] != node:
            parent[node] = parent[parent[node]]      # path halving
            node = parent[node]
        return node

    for node, neighbours in graph.items():
        for neighbour in neighbours:
            parent[root(neighbour)] = root(node)
    components: dict[InstanceKey, list[InstanceKey]] = {}
    for node in graph:
        components.setdefault(root(node), []).append(node)
    return list(components.values())


@dataclass(frozen=True)
class SoftwareFamily:
    """One cluster of mutually similar executable instances."""

    family_id: int
    label: str
    instances: tuple[ExecutableInstance, ...]
    labelled_members: int
    unknown_members: int

    @property
    def executables(self) -> tuple[str, ...]:
        """Paths of the member instances."""
        return tuple(instance.executable for instance in self.instances)

    @property
    def size(self) -> int:
        """Number of member instances."""
        return len(self.instances)


def cluster_instances(
    search: SimilaritySearch,
    *,
    threshold: int = 60,
    columns: tuple[str, ...] = HASH_COLUMNS,
) -> list[SoftwareFamily]:
    """Group instances into software families by similarity.

    Each connected component of the similarity graph becomes a family; the
    family label is the most common non-UNKNOWN derived label among its
    members (so unknown instances inherit the label of the known instances
    they cluster with), or ``UNKNOWN`` for components with no known member.
    Families are returned largest first.
    """
    graph = similarity_graph(search, threshold=threshold, columns=columns)
    instance_of = {instance.key: instance for instance in search.instances}
    families: list[SoftwareFamily] = []
    for family_id, component in enumerate(_components(graph)):
        members = tuple(instance_of[node] for node in sorted(component))
        label_counts = Counter(instance.label for instance in members
                               if instance.label != UNKNOWN_LABEL)
        label = label_counts.most_common(1)[0][0] if label_counts else UNKNOWN_LABEL
        unknown_members = sum(1 for instance in members if instance.label == UNKNOWN_LABEL)
        families.append(SoftwareFamily(
            family_id=family_id,
            label=label,
            instances=members,
            labelled_members=len(members) - unknown_members,
            unknown_members=unknown_members,
        ))
    families.sort(key=lambda family: family.size, reverse=True)
    return families


def propagate_labels(families: list[SoftwareFamily]) -> dict[InstanceKey, str]:
    """Instance key -> family label, including previously UNKNOWN instances.

    Keyed by instance, not by path: one path can hold different software
    over a campaign (a rebuilt ``a.out``), each in its own family.
    """
    return {instance.key: family.label
            for family in families for instance in family.instances}


@dataclass(frozen=True)
class RepeatedExecutionRow:
    """Recognition summary for one software family."""

    label: str
    distinct_executables: int
    job_count: int
    process_count: int
    first_seen: int
    last_seen: int

    @property
    def repeated(self) -> bool:
        """True if the same software executed in more than one job."""
        return self.job_count > 1


@dataclass
class RecognitionReport:
    """Repeated-execution recognition over a set of records."""

    rows: list[RepeatedExecutionRow] = field(default_factory=list)

    def repeated_families(self) -> list[RepeatedExecutionRow]:
        """Families executed across more than one job."""
        return [row for row in self.rows if row.repeated]


def recognize_repeated_executions(
    records: list[ProcessRecord],
    *,
    threshold: int = 60,
    columns: tuple[str, ...] = HASH_COLUMNS,
) -> RecognitionReport:
    """Recognise repeated executions of the same software across jobs.

    Instances are clustered into families; every user-directory process record
    is then attributed to its family (via its instance key) and per-family
    job/process counts and first/last execution times are reported.
    """
    search = SimilaritySearch(records)
    families = cluster_instances(search, threshold=threshold, columns=columns)
    label_of = propagate_labels(families)

    jobs: dict[str, set[str]] = {}
    processes: dict[str, int] = {}
    executables: dict[str, set[str]] = {}
    first_seen: dict[str, int] = {}
    last_seen: dict[str, int] = {}
    for record in records:
        key = instance_key(record)
        if key is None:
            continue
        label = label_of[key]
        jobs.setdefault(label, set())
        if record.jobid:
            jobs[label].add(record.jobid)
        processes[label] = processes.get(label, 0) + 1
        executables.setdefault(label, set()).add(record.executable)
        first_seen[label] = min(first_seen.get(label, record.time), record.time)
        last_seen[label] = max(last_seen.get(label, record.time), record.time)

    rows = [
        RepeatedExecutionRow(
            label=label,
            distinct_executables=len(executables[label]),
            job_count=len(jobs[label]),
            process_count=processes[label],
            first_seen=first_seen[label],
            last_seen=last_seen[label],
        )
        for label in processes
    ]
    rows.sort(key=lambda row: (row.job_count, row.process_count), reverse=True)
    return RecognitionReport(rows=rows)
