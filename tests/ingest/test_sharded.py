"""``ShardedIngest``: the name the pipeline benchmark builds the ingest object by."""

import inspect

import pytest

from repro.db.store import MessageStore
from repro.ingest import IncrementalConsolidator
from repro.ingest.sharded import ShardedIngest
from repro.util.errors import TransportError


class TestShardCount:
    @pytest.mark.parametrize("shards", [0, -1])
    def test_at_least_one_shard_required(self, shards):
        with pytest.raises(TransportError):
            ShardedIngest(MessageStore(), shards=shards)

    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_more_than_one_shard_is_refused(self, shards):
        with pytest.raises(TransportError,
                           match="Parallelism: measured and removed"):
            ShardedIngest(MessageStore(), shards=shards)


class TestBenchmarkFacingName:
    def test_builds_the_one_ingest_object(self):
        store = MessageStore()
        ingest = ShardedIngest(store, shards=1, persist_raw=True)
        assert type(ingest) is IncrementalConsolidator
        assert ingest.store is store and ingest.persist_raw

    def test_takes_only_what_the_benchmark_passes(self):
        assert list(inspect.signature(ShardedIngest).parameters) == [
            "store", "shards", "persist_raw"]
