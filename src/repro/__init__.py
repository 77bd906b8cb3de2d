"""Reproduction of "SIREN: Software Identification and Recognition in HPC Systems".

The package is organised as the paper's system plus every substrate it needs:

* :mod:`repro.hashing`   -- SSDeep-style fuzzy hashing (CTPH) and xxHash,
* :mod:`repro.elf`       -- ELF64 builder/parser (strings, symbols, .comment, DT_NEEDED),
* :mod:`repro.hpcsim`    -- simulated HPC system (filesystem, modules, ld.so, Slurm,
  network and store faults),
* :mod:`repro.corpus`    -- synthetic software corpus (system tools, scientific packages,
  Python environments, toolchains, shared libraries),
* :mod:`repro.collector` -- the SIREN ``LD_PRELOAD`` collector (the core contribution),
* :mod:`repro.transport` -- chunked UDP-style messaging over in-memory or socket channels,
* :mod:`repro.db`        -- SQLite storage,
* :mod:`repro.ingest`    -- streaming ingest (one object decodes and consolidates datagrams)
  and the per-process record builder,
* :mod:`repro.analysis`  -- all evaluation analyses (Tables 2-8, Figures 2-5),
* :mod:`repro.workload`  -- the opt-in deployment-campaign generator,
* :mod:`repro.core`      -- the ``SirenFramework`` deployment and ``AnalysisPipeline``.

Quickstart
----------
>>> from repro.workload import CampaignConfig, DeploymentCampaign
>>> from repro.core import AnalysisPipeline
>>> result = DeploymentCampaign(CampaignConfig(scale=0.002)).run()
>>> pipeline = AnalysisPipeline(result.records, result.user_names)
>>> rows = pipeline.table5_user_applications()
"""

from repro.analysis.live import LiveAnalysis
from repro.core import AnalysisPipeline, SirenConfig, SirenFramework
from repro.workload import CampaignConfig, CampaignResult, DeploymentCampaign

__version__ = "1.0.0"

__all__ = [
    "AnalysisPipeline",
    "LiveAnalysis",
    "SirenConfig",
    "SirenFramework",
    "CampaignConfig",
    "CampaignResult",
    "DeploymentCampaign",
    "__version__",
]
