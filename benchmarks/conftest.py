"""Shared fixtures for the benchmark harness.

One scaled deployment campaign is executed per benchmark session, for the
similarity bench's largest scale; the scale can be overridden with the
``REPRO_BENCH_SCALE`` environment variable (1.0 reproduces the paper's job
counts, the default keeps the harness laptop-friendly).  The paper's tables
and figures are checked in the tier-1 suite (``tests/integration/``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.workload import CampaignConfig, CampaignResult, DeploymentCampaign

# The similarity bench checks the search against the all-pairs Table 7
# reference of the test suite's oracles (``tests/oracles/search.py``).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

#: Default fraction of the paper's job counts executed by the benchmark campaign.
DEFAULT_BENCH_SCALE = 0.01


def bench_scale() -> float:
    """Benchmark campaign scale (override with REPRO_BENCH_SCALE)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_BENCH_SCALE))


@pytest.fixture(scope="session", name="bench_scale_value")
def bench_scale_fixture() -> float:
    """The campaign scale as a fixture, so bench modules need not import conftest."""
    return bench_scale()


@pytest.fixture(scope="session")
def bench_campaign() -> CampaignResult:
    """The benchmark campaign, analysed by the similarity bench."""
    config = CampaignConfig(scale=bench_scale(), seed=2025, loss_rate=0.0002)
    return DeploymentCampaign(config=config).run()
