"""Core facade: the SIREN framework object and the analysis pipeline.

:class:`~repro.core.framework.SirenFramework` wires the moving parts of a
SIREN deployment (collector, transport, streaming ingest, database) from one
:class:`~repro.core.config.SirenConfig` and deploys them onto a simulated
cluster, and
:class:`~repro.core.pipeline.AnalysisPipeline` exposes every table and figure
of the paper's evaluation as a method over the consolidated records.
"""

from repro.core.config import SirenConfig
from repro.core.framework import SirenFramework
from repro.core.pipeline import AnalysisPipeline

__all__ = ["SirenConfig", "SirenFramework", "AnalysisPipeline"]
