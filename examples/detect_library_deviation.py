#!/usr/bin/env python3
"""Detect deviating shared-library environments for a system executable.

Section 4.2 of the paper shows that the same ``/usr/bin/bash`` appears with
three distinct sets of loaded shared objects, caused by user environments that
prepend alternative ``libtinfo`` installs (and transitively drag in ``libm``).
Detecting such deviations helps support teams troubleshoot "standard tool
behaves unexpectedly" tickets.

This example runs a small campaign, groups every system executable by its
exact set of loaded objects, and reports the executables whose minority
variants deviate from the dominant environment -- including which library
paths differ.

Run with::

    python examples/detect_library_deviation.py [scale]
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.analysis import report
from repro.analysis.stats import TableRollup
from repro.collector.classify import ExecutableCategory
from repro.core import AnalysisPipeline
from repro.workload import CampaignConfig, DeploymentCampaign


def main(scale: float = 0.01) -> None:
    print(f"Running the opt-in deployment campaign at scale {scale} ...")
    result = DeploymentCampaign(CampaignConfig(scale=scale, seed=11)).run()
    pipeline = AnalysisPipeline(result.records, result.user_names)

    # Which system executables show more than one library environment?
    variant_counts: Counter[str] = Counter()
    for record in result.records:
        if record.category == ExecutableCategory.SYSTEM.value and record.objects_h:
            variant_counts[(record.executable, record.objects_h)] += 0  # touch key
    per_executable: dict[str, set[str]] = {}
    for record in result.records:
        if record.category == ExecutableCategory.SYSTEM.value and record.objects_h:
            per_executable.setdefault(record.executable, set()).add(record.objects_h)

    deviating = sorted((path for path, variants in per_executable.items()
                        if len(variants) > 1),
                       key=lambda path: len(per_executable[path]), reverse=True)
    print(f"\n{len(per_executable)} distinct system executables observed; "
          f"{len(deviating)} show more than one library environment:\n")
    for path in deviating:
        print(f"  {path}: {len(per_executable[path])} distinct OBJECTS_H")

    # Zoom into bash, the paper's Table 4 case.
    print()
    rows = pipeline.table4_shared_object_variants("bash")
    print(report.render_shared_object_variants(rows, title="bash library variants (Table 4)"))
    if len(rows) > 1:
        dominant = set(rows[0].objects)
        print("\nDeviations from the dominant bash environment:")
        for index, row in enumerate(rows[1:], start=2):
            extra = sorted(set(row.objects) - dominant)
            missing = sorted(dominant - set(row.objects))
            print(f"  variant {index} ({row.process_count} processes):")
            for path in extra:
                print(f"    + {path}")
            for path in missing:
                print(f"    - {path}")

    # The same grouping works for any executable; show srun for contrast.
    rollup = TableRollup(result.user_names)
    for record in result.records:
        rollup.fold(record)
    srun_rows = rollup.shared_object_variants("srun", distinguish=("libslurm", "libmunge"))
    print()
    print(report.render_shared_object_variants(srun_rows, title="srun library variants"))


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.01)
