#!/usr/bin/env python3
"""Identify an unknown application from a full opt-in campaign (Table 7 workflow).

This example reproduces the paper's headline analysis end-to-end: it runs a
scaled version of the 12-user opt-in deployment campaign, derives software
labels from file/path names, finds the instances whose names are nondescript
(``a.out``, ``model.x``), and identifies them by comparing their fuzzy hashes
(modules, compilers, shared objects, raw file, printable strings, symbols)
against every known instance.  It finishes with the "verify functionality"
step of Section 4.3: inspecting the matched instance's derived libraries to
confirm the scientific domain.

Run with::

    python examples/identify_unknown_application.py [scale]

where ``scale`` (default 0.01) is the fraction of the paper's job counts to
simulate.
"""

from __future__ import annotations

import sys

from repro.analysis import report
from repro.analysis.libfilter import record_library_tags
from repro.analysis.similarity import HASH_COLUMNS
from repro.core import AnalysisPipeline
from repro.hashing.ssdeep import FuzzyHasher
from repro.workload import CampaignConfig, DeploymentCampaign


def main(scale: float = 0.01) -> None:
    print(f"Running the opt-in deployment campaign at scale {scale} ...")
    result = DeploymentCampaign(CampaignConfig(scale=scale, seed=7)).run()
    print(f"  jobs: {result.jobs_run:,d}   processes: {result.processes_run:,d}   "
          f"consolidated records: {len(result.records):,d}")
    print(f"  incomplete records (UDP loss): {result.incomplete_fraction:.4%}\n")

    pipeline = AnalysisPipeline(result.records, result.user_names)

    # Step 1: derive labels from file/path names (Table 5).
    labels = pipeline.table5_user_applications()
    print(report.render_labels(labels, title="Step 1 -- derived software labels"))
    unknown_rows = [row for row in labels if row.label == "UNKNOWN"]
    if not unknown_rows:
        print("\nNo UNKNOWN instances in this campaign -- increase the scale.")
        return
    print(f"\n{unknown_rows[0].process_count} process(es) could not be labelled "
          f"from their file or path names.\n")

    # Step 2: similarity search against all known instances (Table 7).  Each
    # column's UNKNOWN digests go into an n-gram gate that passes only the
    # pairs able to score above 0; the answers equal comparing every pair.
    search = pipeline.similarity_search()
    hasher = FuzzyHasher()
    labelled = search.labelled_instances()
    for unknown in search.unknown_instances():
        results = search.query(unknown, top=10)
        print(report.render_similarity(
            results, title=f"Step 2 -- similarity search for {unknown.executable}"))
        best = results[0]
        print(f"-> identified as {best.label} "
              f"(average similarity {best.average:.1f}, "
              f"raw-file similarity {best.scores['FI_H']})")
        # The check the gate must pass: every pair compared, one at a time.
        every_pair = max(sum(hasher.compare(unknown.hashes[column], other.hashes[column])
                             for column in HASH_COLUMNS) / len(HASH_COLUMNS)
                         for other in labelled)
        assert every_pair == best.average, (every_pair, best.average)
        print(f"   (the best average over all {len(labelled)} known instances, "
              f"compared pair by pair, is the same {every_pair:.1f})\n")
    stats = search.index_stats()
    print(f"n-gram gate: {search.comparisons} digest comparisons of "
          f"{stats.candidates_returned + stats.pairs_pruned} (baseline, candidate) "
          f"column pairs; {stats.pairs_pruned} pruned without comparison.")
    print(f"  {stats.digests} baseline digests registered, {stats.queries} "
          f"candidate digests probed.\n")

    # Step 3: verify the functionality via the loaded scientific libraries.
    unknown_records = [record for record in result.records
                       if record.executable.endswith(("a.out", "model.x"))]
    tags = sorted({tag for record in unknown_records for tag in record_library_tags(record)})
    print("Step 3 -- derived libraries of the unknown instances:")
    print("  " + ", ".join(tags))
    climate_markers = [tag for tag in tags if "climatedt" in tag or "netcdf" in tag
                       or "hdf5" in tag]
    if climate_markers:
        print(f"  -> {', '.join(climate_markers)} indicate climate/weather simulation "
              f"(consistent with ICON).")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.01)
