"""Section 2.1's case for fuzzy hashing, on the corpus's ICON executables.

Unlike a cryptographic hash, a fuzzy digest still recognises a slightly
modified executable; it does not match unrelated bytes; and it is a small
fraction of the file it summarises, so comparing digests replaces comparing
files byte by byte.
"""

import hashlib

import pytest

from repro.corpus.builder import CorpusBuilder
from repro.corpus.packages import ICON
from repro.hashing.ssdeep import FuzzyHasher
from repro.hpcsim.cluster import Cluster
from repro.util.rng import SeededRNG

_HASHER = FuzzyHasher()


@pytest.fixture(scope="module")
def icon_variants() -> list[bytes]:
    """The raw bytes of every installed ICON variant."""
    cluster = Cluster()
    builder = CorpusBuilder(cluster)
    builder.install_base_system()
    records = builder.install_package(ICON, cluster.add_user("alice"))
    return [cluster.filesystem.read(record.path) for record in records]


@pytest.fixture(scope="module")
def icon_digests(icon_variants) -> list[str]:
    return _HASHER.hash_many(icon_variants)


def test_a_one_byte_change_defeats_sha256_but_not_the_fuzzy_digest(icon_variants):
    original = icon_variants[0]
    mutated = bytearray(original)
    mutated[len(mutated) // 2] ^= 0xFF
    assert hashlib.sha256(original).digest() != hashlib.sha256(mutated).digest()
    assert _HASHER.compare(_HASHER.hash(original), _HASHER.hash(bytes(mutated))) >= 90


def test_most_icon_variants_recognise_each_other(icon_digests):
    scores = [_HASHER.compare(first, second)
              for index, first in enumerate(icon_digests)
              for second in icon_digests[index + 1:]]
    assert len(scores) > 1
    assert sum(score > 0 for score in scores) / len(scores) > 0.5


def test_unrelated_payloads_are_not_recognised():
    rng = SeededRNG(5)
    first, second = _HASHER.hash_many([rng.bytes(16384), rng.bytes(16384)])
    assert _HASHER.compare(first, second) == 0


def test_digests_are_under_a_hundredth_of_the_bytes(icon_variants, icon_digests):
    assert sum(map(len, icon_digests)) < sum(map(len, icon_variants)) / 100
