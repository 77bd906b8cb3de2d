"""Golden and property tests for the single-pass CTPH engine.

The engine (:mod:`repro.hashing.engine`) must be *byte-identical* to the
reference per-byte implementation (:meth:`FuzzyHasher.hash_reference`) for
every input and knob combination -- the digests below are pinned literals
computed from the seed implementation, so neither side can drift.
"""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.hashing.engine as engine_module
from repro.hashing.engine import (
    B64_ALPHABET,
    FuzzyState,
    _fnv_piece,
    _signature,
    scan_backend,
)
from repro.hashing.ssdeep import FuzzyHash, FuzzyHasher
from repro.util.rng import SeededRNG


def golden_corpus() -> list[tuple[str, bytes]]:
    """Deterministic payloads covering the tricky CTPH regimes."""
    return [
        ("empty", b""),
        ("one-byte", b"\x00"),
        ("seven-bytes", b"SIREN!!"),
        ("tiny-random", SeededRNG(11).bytes(50)),
        ("all-zeros", b"\x00" * 4096),                    # no triggers at all
        ("repetitive-ab", b"ab" * 5000),                  # halves to min blocksize
        ("single-value-run", b"x" * 65536),
        ("halving-trigger", bytes([7, 7, 7, 250]) * 3000),  # long min-blocksize sig
        ("byte-ramp", bytes(range(256)) * 100),
        ("random-192", SeededRNG(12).bytes(192)),         # initial_block_size edge
        ("random-193", SeededRNG(12).bytes(193)),         # one byte past the edge
        ("random-64k", SeededRNG(13).bytes(65536)),
        ("random-1mib-plus", SeededRNG(14).bytes(1048577)),
    ]


#: Digests computed with the seed (reference) implementation -- frozen.
GOLDEN_DIGESTS = {
    "empty": "3::",
    "one-byte": "3:l:l",
    "seven-bytes": "3:8Rn:c",
    "tiny-random": "3:VM4MRMwa2YVM9iJ4xUY:m4MeZK",
    "all-zeros": "3:n:n",
    "repetitive-ab": "3:uy:uy",
    "single-value-run": "3:n:n",
    "halving-trigger": "3:1izMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMA:n",
    "byte-ramp": "192:znnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnb:n",
    "random-192": "3:h55tjzp7XO8cvdByM0lhhZwHOzuAiaw3lNrljrx//AVCV18J+9cNOJzyU4Cq7oBx:v5ttXFcFAlDZyOzRiB3lNrljrx/Nww9x",
    "random-193": "6:v5ttXFcFAlDZyOzRiB3lNrljrx/Nww9HH8Jf5:TcFA1ZyOzI7rljV+w98Jh",
    "random-64k": "1536:l2E6qzfwQuH7nPoaKPvROkxSxsmONUwdiUUsA/mUQqG:gEBEPPcYksjOCoiUUvu",
    "random-1mib-plus": "24576:idDK8igwCFVszei7diNTYA/qMUZ1RlPS8I/:iBigezeOdKTT/qMUZ13PSv/",
}


@pytest.fixture(params=["native", "python"])
def scan_kernel(request, monkeypatch):
    """Run the test on the default scan kernel AND the pure-Python fallback."""
    if request.param == "python":
        monkeypatch.setattr(engine_module, "_np", None)
    return request.param


class TestGoldenDigests:
    @pytest.mark.parametrize("name,payload", golden_corpus())
    def test_engine_matches_pinned_digest(self, name, payload, scan_kernel):
        if scan_kernel == "python" and len(payload) > 262144:
            pytest.skip("pure-Python kernel golden check capped at 256 KiB")
        assert str(FuzzyHasher().hash(payload)) == GOLDEN_DIGESTS[name]

    @pytest.mark.parametrize("name,payload",
                             [case for case in golden_corpus()
                              if len(case[1]) <= 65536])
    def test_reference_still_matches_pinned_digest(self, name, payload):
        """The oracle itself must not drift (large payloads skipped for speed)."""
        assert str(FuzzyHasher().hash_reference(payload)) == GOLDEN_DIGESTS[name]

    def test_corpus_has_all_golden_entries(self):
        assert {name for name, _ in golden_corpus()} == set(GOLDEN_DIGESTS)


class TestEngineEquivalence:
    """Randomised engine-vs-reference equality, across the hasher knobs."""

    @pytest.mark.parametrize("min_block_size,signature_length",
                             [(3, 64), (1, 64), (5, 64), (3, 32), (2, 16), (7, 8)])
    def test_engine_equals_reference(self, min_block_size, signature_length):
        hasher = FuzzyHasher(min_block_size=min_block_size,
                             signature_length=signature_length)
        rng = random.Random(min_block_size * 1000 + signature_length)
        for trial in range(10):
            size = rng.choice([0, 1, 6, 7, 8, 100, 1000, 5000, 30000])
            if trial % 3 == 0:
                payload = bytes([trial % 5] * size)
            else:
                payload = SeededRNG(trial * 37 + size).bytes(size)
            assert hasher.hash(payload) == hasher.hash_reference(payload)

    def test_python_scan_kernel_matches(self, monkeypatch):
        """The no-numpy fallback kernel produces the same digests."""
        payloads = [b"", b"ab" * 700, SeededRNG(21).bytes(9001), b"\xff" * 500]
        expected = [str(FuzzyHasher().hash(p)) for p in payloads]
        monkeypatch.setattr(engine_module, "_np", None)
        assert scan_backend() == "python"
        assert [str(FuzzyHasher().hash(p)) for p in payloads] == expected

    def test_vectorised_scan_slicing_is_seamless(self, monkeypatch):
        """Pins the multi-slice window/rebase arithmetic of the numpy scan
        (production _SCAN_SLICE is 4 MiB, far above test payload sizes)."""
        if engine_module._np is None:
            pytest.skip("numpy kernel not available")
        payloads = [SeededRNG(51).bytes(size) for size in (4095, 4096, 4097, 20000)]
        expected = [str(FuzzyHasher().hash(p)) for p in payloads]
        monkeypatch.setattr(engine_module, "_SCAN_SLICE", 4096)
        assert [str(FuzzyHasher().hash(p)) for p in payloads] == expected
        monkeypatch.setattr(engine_module, "_SCAN_SLICE", 7)  # degenerate slices
        assert str(FuzzyHasher().hash(payloads[0])) == expected[0]


def scalar_signature(data: bytes, ends: list[int], cap: int) -> str:
    """The ``_fnv_piece`` loop, spelled out: the oracle of the numpy kernel."""
    hashes, start = [], 0
    for end in ends[:cap]:
        hashes.append(_fnv_piece(data, start, end + 1))
        start = end + 1
    hashes.append(_fnv_piece(data, start, len(data)))
    return "".join(B64_ALPHABET[h & 63] for h in hashes)


@st.composite
def payload_and_ends(draw):
    payload = draw(st.binary(max_size=400))
    ends = draw(st.sets(st.integers(0, max(len(payload) - 1, 0)),
                        max_size=min(len(payload), 80)))
    return payload, sorted(ends) if payload else []


class TestPieceHashKernel:
    """The vectorised 6-bit piece-hash kernel against the scalar loop."""

    @settings(max_examples=200, deadline=None)
    @given(payload_and_ends(), st.sampled_from([3, 7, 31, 63]))
    @example((b"\x00", []), 63)                       # one piece, one byte
    @example((b"abcdefgh", [0, 1, 2, 3, 4, 5, 6]), 63)  # 1-byte pieces
    @example((b"abcdefgh", [3, 7]), 63)                # empty final piece
    @example((b"abcdefgh", [0, 1, 2, 3, 4, 5, 6, 7]), 3)  # more ends than cap
    @example((bytes(range(256)) * 2, [63, 64, 127, 128, 511]), 7)  # word edges
    def test_kernel_equals_scalar_loop(self, case, cap):
        payload, ends = case
        with mock.patch.object(engine_module, "_KERNEL_MIN_BYTES", 0):
            assert _signature(payload, ends, cap) == scalar_signature(payload, ends, cap)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 255), max_size=300))
    def test_prefix_parity_equals_accumulate(self, values):
        np = engine_module._np
        flags = np.zeros(-(-len(values) // 64) * 64, dtype=np.uint8)
        flags[:len(values)] = values
        expected = np.bitwise_xor.accumulate((flags != 0).astype(np.uint8))
        assert engine_module._prefix_parity(flags).tolist() == expected.tolist()

    @pytest.mark.parametrize("min_block_size,signature_length",
                             [(3, 64), (1, 64), (5, 64), (3, 32), (2, 16), (7, 8)])
    def test_digests_equal_reference_around_the_crossover(self, min_block_size,
                                                          signature_length):
        hasher = FuzzyHasher(min_block_size=min_block_size,
                             signature_length=signature_length)
        crossover = engine_module._KERNEL_MIN_BYTES
        for size in (crossover - 1, crossover, crossover + 1):
            for payload in (SeededRNG(size + signature_length).bytes(size),
                            bytes([7, 7, 7, 250]) * (size // 4) + b"\x07" * (size % 4)):
                assert hasher.hash(payload) == hasher.hash_reference(payload)

    def test_piece_state_is_carried_across_slices(self, monkeypatch):
        """Pins the slice loop of the kernel (production ``_SCAN_SLICE`` is
        4 MiB): pieces ending on, before and after a slice edge, a piece
        spanning several slices, and the open state handed to the next slice."""
        payload = SeededRNG(71).bytes(5000)
        ends = [0, 510, 511, 512, 513, 1023, 1024, 3071, 3072, 3073, 4999]
        monkeypatch.setattr(engine_module, "_KERNEL_MIN_BYTES", 0)
        monkeypatch.setattr(engine_module, "_SCAN_SLICE", 512)
        for cut in range(len(ends) + 1):
            assert _signature(payload, ends[:cut], 63) == \
                scalar_signature(payload, ends[:cut], 63)
        monkeypatch.setattr(engine_module, "_SCAN_SLICE", 1)  # degenerate slices
        assert _signature(payload[:300], [10, 11, 299], 63) == \
            scalar_signature(payload[:300], [10, 11, 299], 63)

    def test_large_payload_never_takes_the_scalar_loop(self, monkeypatch):
        """Count guard: no per-byte Python in hashing a 32 KiB payload."""
        calls = []
        monkeypatch.setattr(engine_module, "_fnv_piece",
                            lambda *args: calls.append(args) or 0)
        payload = SeededRNG(72).bytes(32768)
        digest = FuzzyHasher().hash(payload)
        assert calls == []
        monkeypatch.undo()
        assert digest == FuzzyHasher().hash_reference(payload)

    def test_short_payload_takes_the_scalar_loop(self, monkeypatch):
        calls = []
        monkeypatch.setattr(engine_module, "_hash_slice_numpy",
                            lambda *args: calls.append(args))
        payload = SeededRNG(73).bytes(engine_module._KERNEL_MIN_BYTES - 1)
        assert FuzzyHasher().hash(payload) == FuzzyHasher().hash_reference(payload)
        assert calls == []

    def test_streamed_chunks_equal_one_shot_and_reference(self):
        payload = SeededRNG(74).bytes(3 * engine_module._KERNEL_MIN_BYTES)
        state = FuzzyState()
        for index in range(0, len(payload), 1000):
            state.update(payload[index:index + 1000])
        assert state.digest() == FuzzyState().update(payload).digest() \
            == FuzzyHasher().hash_reference(payload)


class TestFuzzyState:
    def test_streaming_chunks_equal_one_shot(self):
        payload = SeededRNG(31).bytes(40000)
        one_shot = FuzzyState().update(payload).digest()
        rng = random.Random(7)
        for _ in range(5):
            state = FuzzyState()
            index = 0
            while index < len(payload):
                step = rng.choice([1, 3, 6, 7, 8, 100, 4096])
                state.update(payload[index:index + step])
                index += step
            assert state.digest() == one_shot

    def test_streaming_never_rescans(self):
        """Consumed bytes stay consumed: updates only grow the length."""
        state = FuzzyState()
        state.update(b"abc").update(b"").update(bytes(10))
        assert state.length == 13

    def test_digest_is_a_fuzzy_hash(self):
        digest = FuzzyState().update(b"hello world" * 100).digest()
        assert isinstance(digest, FuzzyHash)
        assert FuzzyHash.parse(str(digest)) == digest

    def test_digest_then_update_then_digest(self):
        payload = SeededRNG(33).bytes(5000)
        state = FuzzyState()
        state.update(payload[:2000])
        intermediate = state.digest()
        assert intermediate == FuzzyState().update(payload[:2000]).digest()
        state.update(payload[2000:])
        assert state.digest() == FuzzyState().update(payload).digest()

    def test_empty_stream(self):
        assert str(FuzzyState().digest()) == "3::"

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            FuzzyState().update("text")  # type: ignore[arg-type]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FuzzyState(min_block_size=0)
        with pytest.raises(ValueError):
            FuzzyState(signature_length=4)

    def test_accepts_memoryview_and_bytearray(self):
        payload = SeededRNG(34).bytes(3000)
        via_views = FuzzyState().update(memoryview(payload[:1500]))
        via_views.update(bytearray(payload[1500:]))
        assert via_views.digest() == FuzzyState().update(payload).digest()


class TestOneHashPath:
    """Every payload goes through ``FuzzyHasher.hash``, one call each."""

    @pytest.mark.parametrize("size", [0, 17, 333, 1000, 20000])
    def test_hash_matches_reference(self, size):
        payload = SeededRNG(41).bytes(size)
        hasher = FuzzyHasher()
        assert hasher.hash(payload) == hasher.hash_reference(payload)

    def test_rejects_non_bytes_payloads(self):
        with pytest.raises(TypeError):
            FuzzyHasher().hash("not bytes")  # type: ignore[arg-type]

    def test_knobs_reach_the_engine(self):
        payload = SeededRNG(42).bytes(4000)
        hasher = FuzzyHasher(min_block_size=5, signature_length=32)
        state = FuzzyState(min_block_size=5, signature_length=32).update(payload)
        assert hasher.hash(payload) == state.digest()
        assert hasher.hash(payload) != FuzzyHasher().hash(payload)
