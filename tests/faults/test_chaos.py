"""Whole campaigns under deterministic fault plans seeded with :data:`CHAOS_SEED`.

A campaign survives a mixed-hostility plan end to end, reproducibly; what its
records must be is the record contract's (``tests/integration/test_record_contract.py``).
"""

import pytest

from repro.hpcsim.faults import ChannelFaultProfile, FaultPlan, StoreFaultProfile
from repro.workload import CampaignConfig, DeploymentCampaign

from oracles.conservation import check_invariants

pytestmark = pytest.mark.chaos

#: The seed of every fault plan here.
CHAOS_SEED = 7


class TestCampaignUnderChaos:
    def test_campaign_survives_mixed_hostility_end_to_end(self):
        plan = FaultPlan(
            seed=CHAOS_SEED,
            channel=ChannelFaultProfile(drop_rate=0.03, duplicate_rate=0.03,
                                        corrupt_rate=0.01, truncate_rate=0.01),
            store=StoreFaultProfile(error_rate=0.01, error_burst=2),
        )
        config = CampaignConfig(scale=0.005, seed=CHAOS_SEED, loss_rate=0.0,
                                fault_plan=plan)
        result = DeploymentCampaign(config=config).run()

        assert result.records                      # the campaign produced output
        assert result.fault_counters["dropped"] > 0
        assert check_invariants(result) == []
        assert result.store_fault_injector is not None
        if result.store_fault_injector.transient_raised:
            assert result.store.write_retries >= 1

    def test_campaign_chaos_run_is_reproducible(self):
        def run():
            plan = FaultPlan(seed=CHAOS_SEED,
                             channel=ChannelFaultProfile(drop_rate=0.05))
            config = CampaignConfig(scale=0.005, seed=CHAOS_SEED, loss_rate=0.0,
                                    fault_plan=plan)
            result = DeploymentCampaign(config=config).run()
            assert check_invariants(result) == []
            return result.records, result.fault_counters

        assert run() == run()
