"""The runtime side of the counter registry: keys checked as they are emitted."""

from __future__ import annotations

import pytest

from repro.util.counters import (COUNTER_PREFIXES, COUNTERS, assert_registered_counters,
                                 is_registered_counter)


@pytest.mark.parametrize("key, registered", [
    ("records_built", True),
    ("ingest_records_built", True),
    ("fault_dropped", True),
    ("ingest_", False),
    ("made_up_counter", False),
    ("ingest_made_up_counter", False),
], ids=["direct", "ingest-prefixed", "fault-prefixed", "bare-prefix", "unknown",
        "prefixed-unknown"])
def test_direct_and_prefixed_keys_are_registered(key, registered):
    assert is_registered_counter(key) is registered


def test_assert_registered_counters_names_every_offender():
    assert_registered_counters({"records_built": 3, "fault_corrupted": 1}, context="test")
    with pytest.raises(AssertionError, match=r"CTX surfaced .*\['a_bogus', 'z_bogus'\]"):
        assert_registered_counters({"z_bogus": 1, "records": 2, "a_bogus": 1},
                                   context="CTX")


def test_live_campaign_statistics_are_all_registered(campaign_result):
    assert_registered_counters(campaign_result.statistics(),
                               context="CampaignResult.statistics()")


def test_registry_documents_every_key():
    assert all(isinstance(doc, str) and doc for doc in COUNTERS.values())
    assert all(prefix.endswith("_") and doc for prefix, doc in COUNTER_PREFIXES.items())
