"""Property-based tests (hypothesis) for the hashing substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.rolling import ROLLING_WINDOW
from repro.hashing.ssdeep import FuzzyHash, FuzzyHasher
from repro.hashing.xxhash import xxh32, xxh64

from oracles.compare import (
    compare_reference,
    damerau_levenshtein,
    levenshtein,
    weighted_edit_distance,
)
from oracles.ctph import roll_sequence

_HASHER = FuzzyHasher()

short_text = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40)
payloads = st.binary(min_size=0, max_size=4096)


class TestEditDistanceProperties:
    @given(short_text, short_text)
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text)
    @settings(max_examples=100, deadline=None)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0
        assert damerau_levenshtein(a, a) == 0

    @given(short_text, short_text)
    @settings(max_examples=150, deadline=None)
    def test_damerau_never_exceeds_levenshtein(self, a, b):
        assert damerau_levenshtein(a, b) <= levenshtein(a, b)

    @given(short_text, short_text)
    @settings(max_examples=150, deadline=None)
    def test_bounded_by_longer_length(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))

    @given(short_text, short_text, short_text)
    @settings(max_examples=75, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_text, short_text)
    @settings(max_examples=100, deadline=None)
    def test_weighted_distance_nonnegative(self, a, b):
        assert weighted_edit_distance(a, b) >= 0


class TestCompareEngineProperties:
    """The bit-parallel engine against the scalar oracle, hypothesis-driven."""

    signatures = st.text(
        alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
        max_size=64)
    block_sizes = st.sampled_from([3, 6, 12, 24, 48, 96, 192])

    @given(short_text, short_text)
    @settings(max_examples=150, deadline=None)
    def test_lcs_reduction_equals_weighted_dp(self, a, b):
        from repro.hashing.compare_engine import default_cost_distance

        assert default_cost_distance(a, b) == weighted_edit_distance(a, b)

    @given(signatures, signatures, signatures, signatures,
           block_sizes, block_sizes, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_engine_scores_byte_identical_to_reference(self, s1a, s1b, s2a, s2b,
                                                       block1, block2, require_gram):
        hasher = FuzzyHasher(require_common_substring=require_gram)
        a = str(FuzzyHash(block_size=block1, sig1=s1a, sig2=s1b))
        b = str(FuzzyHash(block_size=block2, sig1=s2a, sig2=s2b))
        assert hasher.compare(a, b) == compare_reference(hasher, a, b)

    @given(st.lists(st.tuples(signatures, signatures, block_sizes),
                    min_size=0, max_size=12),
           signatures, signatures, block_sizes)
    @settings(max_examples=60, deadline=None)
    def test_compare_many_equals_scalar_reference_loop(self, candidates, sig1, sig2, block):
        hasher = FuzzyHasher()
        baseline = str(FuzzyHash(block_size=block, sig1=sig1, sig2=sig2))
        digests = [str(FuzzyHash(block_size=b, sig1=a, sig2=c))
                   for a, c, b in candidates]
        assert hasher.compare_many(baseline, digests) == \
            [compare_reference(hasher, baseline, digest) for digest in digests]


class TestRollingHashProperties:
    @given(payloads)
    @settings(max_examples=50, deadline=None)
    def test_window_locality(self, data):
        """Appending the same suffix to different prefixes converges after 7 bytes."""
        suffix = b"ABCDEFGHIJKLMNOP"
        a = roll_sequence(b"\x01" * 20 + data[:10] + suffix)
        b = roll_sequence(b"\x02" * 20 + data[:10] + suffix)
        assert a[-(len(suffix) - ROLLING_WINDOW + 1):] == b[-(len(suffix) - ROLLING_WINDOW + 1):]

    @given(payloads)
    @settings(max_examples=50, deadline=None)
    def test_values_32_bit(self, data):
        assert all(0 <= value < 2 ** 32 for value in roll_sequence(data))


class TestFuzzyHashProperties:
    @given(payloads)
    @settings(max_examples=40, deadline=None)
    def test_self_similarity_of_nonempty_input(self, data):
        digest = _HASHER.hash(data)
        if digest.sig1:  # empty input has an empty signature, which never matches
            assert _HASHER.compare(digest, digest) == 100

    @given(payloads)
    @settings(max_examples=40, deadline=None)
    def test_digest_parses_back(self, data):
        digest = _HASHER.hash(data)
        assert FuzzyHash.parse(str(digest)) == digest

    @given(payloads, payloads)
    @settings(max_examples=40, deadline=None)
    def test_score_is_bounded_and_symmetric(self, a, b):
        ha, hb = _HASHER.hash(a), _HASHER.hash(b)
        score = _HASHER.compare(ha, hb)
        assert 0 <= score <= 100
        assert score == _HASHER.compare(hb, ha)

    @given(payloads)
    @settings(max_examples=40, deadline=None)
    def test_signature_length_bounds(self, data):
        digest = _HASHER.hash(data)
        assert len(digest.sig1) <= 64
        assert len(digest.sig2) <= 32


class TestXXHashProperties:
    @given(payloads)
    @settings(max_examples=100, deadline=None)
    def test_ranges(self, data):
        assert 0 <= xxh32(data) < 2 ** 32
        assert 0 <= xxh64(data) < 2 ** 64

    @given(payloads)
    @settings(max_examples=100, deadline=None)
    def test_determinism(self, data):
        assert xxh64(data) == xxh64(data)

    @given(payloads, st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_seed_dependency(self, data, seed):
        # Different seeds should essentially never collide on the same data.
        if data:
            assert xxh64(data, seed) != xxh64(data, seed ^ 0xDEADBEEF) or len(data) == 0
