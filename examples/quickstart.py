#!/usr/bin/env python3
"""Quickstart: deploy SIREN on a simulated cluster and identify what ran.

This example walks through the whole pipeline on a tiny, fully deterministic
setup:

1. build a simulated HPC cluster and install the synthetic software corpus
   (system tools, shared libraries, Python environments, the ICON climate
   model and LAMMPS for one user, and the ``siren.so`` collection library),
2. deploy the SIREN framework (collector + UDP transport + SQLite store),
3. run a couple of batch jobs -- one of which executes a byte-identical copy
   of an ICON executable under the nondescript name ``a.out``,
4. consolidate the collected UDP messages into per-process records, and
5. analyse them: software labels, compiler usage, and the fuzzy-hash
   similarity search that identifies the unknown ``a.out`` as ICON.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis import report
from repro.core import AnalysisPipeline, SirenConfig, SirenFramework
from repro.corpus.builder import CorpusBuilder
from repro.corpus.packages import ICON, LAMMPS
from repro.hpcsim.cluster import Cluster
from repro.hpcsim.slurm import JobScript, ProcessSpec, StepSpec


def build_cluster() -> tuple[Cluster, "CorpusBuilder", object]:
    """Create the simulated system and install the software corpus."""
    cluster = Cluster()
    corpus = CorpusBuilder(cluster)
    manifest = corpus.install_base_system()

    user = cluster.add_user("erin")
    corpus.install_package(ICON, user)
    corpus.install_package(LAMMPS, user)
    return cluster, corpus, manifest


def run_jobs(cluster: Cluster, manifest) -> None:
    """Submit two opt-in jobs (they load the ``siren`` module) and one that does not."""
    icon = manifest.find_executable("icon", "cray-r1", "erin")
    unknown = manifest.find_executable("icon", "unknown-copy", "erin")
    lammps = manifest.find_executable("LAMMPS", "gpu-2023", "erin")

    climate_job = JobScript(
        name="climate-production",
        modules=("siren", "PrgEnv-cray", "cray-netcdf", *icon.required_modules),
        steps=(StepSpec(processes=(
            ProcessSpec(executable=manifest.tool("bash"), count=3),
            ProcessSpec(executable=manifest.tool("srun")),
            ProcessSpec(executable=icon.path, ranks=4),
            # The "mystery" executable: a copy of icon under a nondescript name.
            ProcessSpec(executable=unknown.path, ranks=2),
        )),),
    )

    md_job = JobScript(
        name="lammps-run",
        modules=("siren", "rocm", *lammps.required_modules),
        steps=(StepSpec(processes=(
            ProcessSpec(executable=manifest.tool("bash"), count=2),
            ProcessSpec(executable=manifest.tool("srun")),
            ProcessSpec(executable=lammps.path, ranks=4),
        )),),
    )

    # A job that does not opt in: SIREN never sees it.
    invisible_job = JobScript(
        name="not-opted-in",
        modules=tuple(icon.required_modules),
        steps=(StepSpec(processes=(ProcessSpec(executable=icon.path, ranks=2),)),),
    )

    for job in (climate_job, md_job, invisible_job):
        cluster.run_job("erin", job)


def main() -> None:
    cluster, _corpus, manifest = build_cluster()

    framework = SirenFramework(SirenConfig())
    framework.deploy(cluster, siren_library_path=manifest.siren_library)

    run_jobs(cluster, manifest)

    records = framework.snapshot()
    pipeline = AnalysisPipeline(records, cluster.users.anonymize())

    print(f"Collected {len(records)} process records "
          f"from {cluster.scheduler.job_count} jobs\n")

    print(report.render_labels(pipeline.table5_user_applications(),
                               title="Derived software labels (Table 5 style)"))
    print()
    print(report.render_compiler_combinations(pipeline.table6_compilers(),
                                              title="Compiler usage (Table 6 style)"))
    print()

    searches = pipeline.table7_similarity_search(top=5)
    for baseline, results in searches.items():
        print(report.render_similarity(
            results, title=f"Similarity search for unknown executable {baseline}"))
        best = results[0]
        print(f"-> best match: {best.label} (average similarity {best.average:.1f})\n")

    print("Deployment statistics:", framework.statistics())


if __name__ == "__main__":
    main()
