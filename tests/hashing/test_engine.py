"""Golden and property tests for the one-shot CTPH engine.

The engine (:mod:`repro.hashing.engine`) must be *byte-identical* to the
reference per-byte implementation (``tests/oracles/ctph.py``) for every input
and CTPH geometry -- the digests below are pinned literals computed from
the seed implementation, so neither side can drift.
"""

import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.hashing.engine as engine_module
from repro.hashing.engine import _piece_hashes, _piece_hashes_numpy, fuzzy_digests
from repro.hashing.ssdeep import MIN_BLOCKSIZE, SPAMSUM_LENGTH, FuzzyHasher
from repro.util.rng import SeededRNG

from oracles.ctph import ReferenceHasher, roll_sequence, sum_hash_bytes


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


#: Executable-sized payloads of seeded bytes, one whole scan slice and four,
#: parametrized by name so that their test ids are not their bytes.
LARGE_PAYLOADS = {
    "random-4mib": lambda: SeededRNG(19).bytes(4 << 20),
    "random-16mib": lambda: SeededRNG(20).bytes(16 << 20),
}


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
    # computed with the per-byte oracle (tests/oracles/ctph.py), 5 s and 21 s
    "random-4mib": "98304:dGJrP4Z2FhdK6/pC9Zs7zWwtXQ2VD5kwUpt3y8:MbIh6RWsPWkLVopR",
    "random-16mib": "393216:xY2b2oMLECHEAkzn8By6CQ2dhXiG9HhQKx12ywQz:j2o8HUn8By6CQFshZ12ynz",
}


#: Piece-hash paths a digest can take: the size-based default, the scalar
#: table loop at every size, and the stacked-row kernel at every size.
PIECE_PATHS = {
    "default": {"_KERNEL_MIN_BYTES": engine_module._KERNEL_MIN_BYTES},
    "table-loop": {"_KERNEL_MIN_BYTES": sys.maxsize},
    "kernel": {"_KERNEL_MIN_BYTES": 1},
}


class TestGoldenDigests:
    @pytest.mark.parametrize("path", PIECE_PATHS)
    @pytest.mark.parametrize("name,payload", golden_corpus())
    def test_engine_matches_pinned_digest(self, name, payload, path):
        with mock.patch.multiple(engine_module, **PIECE_PATHS[path]):
            assert FuzzyHasher().hash(payload) == GOLDEN_DIGESTS[name]

    @pytest.mark.parametrize("name,payload",
                             [case for case in golden_corpus()
                              if len(case[1]) <= 65536])
    def test_reference_still_matches_pinned_digest(self, name, payload):
        """The oracle itself must not drift (large payloads skipped for speed)."""
        assert ReferenceHasher().hash(payload) == GOLDEN_DIGESTS[name]

    @pytest.mark.parametrize("path", PIECE_PATHS)
    @pytest.mark.parametrize("name", LARGE_PAYLOADS)
    def test_large_payload_matches_pinned_digest(self, name, path):
        payload = LARGE_PAYLOADS[name]()
        with mock.patch.multiple(engine_module, **PIECE_PATHS[path]):
            assert FuzzyHasher().hash(payload) == GOLDEN_DIGESTS[name]

    def test_corpus_has_all_golden_entries(self):
        assert {name for name, _ in golden_corpus()} | set(LARGE_PAYLOADS) == \
            set(GOLDEN_DIGESTS)


def digest_of(payload: bytes, min_block_size: int, signature_length: int) -> str:
    """The engine's digest of ``payload`` in one CTPH geometry."""
    return "%d:%s:%s" % fuzzy_digests([payload], min_block_size, signature_length)[0]


class TestEngineEquivalence:
    """Randomised engine-vs-reference equality, across CTPH geometries.

    :class:`FuzzyHasher` runs ssdeep's geometry only; the engine takes the
    geometry as arguments, so the sweep runs through :func:`fuzzy_digest`.
    """

    @pytest.mark.parametrize("min_block_size,signature_length",
                             [(3, 64), (1, 64), (5, 64), (3, 32), (2, 16), (7, 8)])
    def test_engine_equals_reference(self, min_block_size, signature_length):
        reference = ReferenceHasher(min_block_size, signature_length)
        rng = random.Random(min_block_size * 1000 + signature_length)
        for trial in range(10):
            size = rng.choice([0, 1, 6, 7, 8, 100, 1000, 5000, 30000])
            if trial % 3 == 0:
                payload = bytes([trial % 5] * size)
            else:
                payload = SeededRNG(trial * 37 + size).bytes(size)
            assert digest_of(payload, min_block_size, signature_length) == \
                reference.hash(payload)

    def test_vectorised_scan_slicing_is_seamless(self, monkeypatch):
        """Pins the multi-slice window/rebase arithmetic of the numpy scan
        (production _SCAN_SLICE is 4 MiB, far above test payload sizes)."""
        payloads = [SeededRNG(51).bytes(size) for size in (4095, 4096, 4097, 20000)]
        expected = [FuzzyHasher().hash(p) for p in payloads]
        monkeypatch.setattr(engine_module, "_SCAN_SLICE", 4096)
        assert [FuzzyHasher().hash(p) for p in payloads] == expected
        monkeypatch.setattr(engine_module, "_SCAN_SLICE", 7)  # degenerate slices
        assert FuzzyHasher().hash(payloads[0]) == expected[0]


#: Engine modes the equivalence property runs under: each piece-hash path,
#: and the default one with slices so short that every payload spans many.
ENGINE_MODES = {**PIECE_PATHS, "sliced": {"_SCAN_SLICE": 512}}


class TestEngineEqualsOracle:
    @settings(max_examples=40, deadline=None)
    @given(payload=st.binary(max_size=20_000),
           min_block_size=st.sampled_from([1, 2, 3, 5, 7]),
           signature_length=st.sampled_from([8, 16, 64]))
    @example(payload=b"", min_block_size=3, signature_length=64)
    @example(payload=bytes([7, 7, 7, 250]) * 1000, min_block_size=3, signature_length=64)
    @example(payload=b"ab" * 2000, min_block_size=2, signature_length=16)
    @example(payload=b"\xff" * 5000, min_block_size=1, signature_length=8)
    @example(payload=SeededRNG(81).bytes(20_000), min_block_size=5, signature_length=16)
    @example(payload=SeededRNG(82).bytes(20_000), min_block_size=3, signature_length=64)
    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_engine_equals_oracle(self, mode, payload, min_block_size, signature_length):
        with mock.patch.multiple(engine_module, **ENGINE_MODES[mode]):
            digest = digest_of(payload, min_block_size, signature_length)
        assert digest == ReferenceHasher(min_block_size, signature_length).hash(payload)


def fnv_pieces(data: bytes, ends: list[int]) -> list[int]:
    """The piece hashes spelled out with ``sum_hash``: the table loop's and
    the kernel's oracle."""
    bounds = [0] + [end + 1 for end in ends] + [len(data)]
    return [sum_hash_bytes(data[start:stop]) & 63
            for start, stop in zip(bounds, bounds[1:])]


@st.composite
def payload_and_ends(draw):
    payload = draw(st.binary(max_size=400))
    ends = draw(st.sets(st.integers(0, max(len(payload) - 1, 0)),
                        max_size=min(len(payload), 80)))
    return payload, sorted(ends) if payload else []


class TestPieceHashKernel:
    """The 6-bit table loop and the stacked-row kernel against ``sum_hash``."""

    @settings(max_examples=200, deadline=None)
    @given(payload_and_ends())
    @example((b"\x00", []))                            # one piece, one byte
    @example((b"abcdefgh", [0, 1, 2, 3, 4, 5, 6]))      # 1-byte pieces
    @example((b"abcdefgh", [3, 7]))                     # empty final piece
    @example((bytes(range(256)) * 2, [63, 64, 127, 128, 511]))  # word edges
    def test_table_loop_equals_sum_hash(self, case):
        payload, ends = case
        assert _piece_hashes(payload, ends) == fnv_pieces(payload, ends)

    @settings(max_examples=200, deadline=None)
    @given(payload_and_ends(), payload_and_ends())
    @example((b"\x00", []), (b"", []))
    @example((b"abcdefgh", [0, 1, 2, 3, 4, 5, 6]), (b"", [3, 7]))
    @example((bytes(range(256)) * 2, [63, 64, 127, 128, 511]), (b"", [511]))
    def test_kernel_rows_equal_the_table_loop(self, case, other):
        """Two rows over one payload are two independent signatures: the
        second row's first piece restarts however the first row ends."""
        payload, ends = case
        second = [end for end in other[1] if end < len(payload)]
        assert _piece_hashes_numpy(payload, [ends, second]) == \
            [fnv_pieces(payload, ends), fnv_pieces(payload, second)]
        assert _piece_hashes_numpy(payload, [ends]) == [fnv_pieces(payload, ends)]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 255), max_size=300))
    def test_prefix_parity_equals_accumulate(self, values):
        flags = np.zeros(-(-len(values) // 64) * 64, dtype=np.uint8)
        flags[:len(values)] = values
        expected = np.bitwise_xor.accumulate((flags != 0).astype(np.uint8))
        assert engine_module._prefix_parity(flags).tolist() == expected.tolist()

    @pytest.mark.parametrize("min_block_size,signature_length",
                             [(3, 64), (1, 64), (5, 64), (3, 32), (2, 16), (7, 8)])
    def test_digests_equal_reference_around_the_crossover(self, min_block_size,
                                                          signature_length):
        reference = ReferenceHasher(min_block_size, signature_length)
        crossover = engine_module._KERNEL_MIN_BYTES
        for size in (crossover - 1, crossover, crossover + 1):
            for payload in (SeededRNG(size + signature_length).bytes(size),
                            bytes([7, 7, 7, 250]) * (size // 4) + b"\x07" * (size % 4)):
                assert digest_of(payload, min_block_size, signature_length) == \
                    reference.hash(payload)

    def test_piece_state_is_carried_across_slices(self, monkeypatch):
        """Pins the slice loop of the kernel (production ``_SCAN_SLICE`` is
        4 MiB): pieces ending on, before and after a slice edge, a piece
        spanning several slices, and each row's open state handed to the
        next slice."""
        payload = SeededRNG(71).bytes(5000)
        ends = [0, 510, 511, 512, 513, 1023, 1024, 3071, 3072, 3073, 4999]
        monkeypatch.setattr(engine_module, "_SCAN_SLICE", 512)
        for cut in range(len(ends) + 1):
            rows = [ends[:cut], ends[cut:]]
            assert _piece_hashes_numpy(payload, rows) == \
                [fnv_pieces(payload, row) for row in rows]
        monkeypatch.setattr(engine_module, "_SCAN_SLICE", 1)  # degenerate slices
        assert _piece_hashes_numpy(payload[:300], [[10, 11, 299], [40]]) == \
            [fnv_pieces(payload[:300], [10, 11, 299]), fnv_pieces(payload[:300], [40])]

    def test_one_kernel_call_hashes_both_signatures(self, monkeypatch):
        """Count guard: a 32 KiB payload is one kernel call (both signatures
        stacked), and no per-byte Python."""
        kernel_calls, loop_calls = [], []
        kernel, loop = engine_module._hash_slice_numpy, engine_module._piece_hashes
        monkeypatch.setattr(engine_module, "_hash_slice_numpy",
                            lambda *args: kernel_calls.append(args[1]) or kernel(*args))
        monkeypatch.setattr(engine_module, "_piece_hashes",
                            lambda *args: loop_calls.append(args) or loop(*args))
        payload = SeededRNG(72).bytes(32768)
        digest = FuzzyHasher().hash(payload)
        assert loop_calls == []
        assert len(kernel_calls) == 1 and len(kernel_calls[0]) == 2
        monkeypatch.undo()
        assert digest == ReferenceHasher().hash(payload)

    def test_one_kernel_call_hashes_a_whole_batch(self, monkeypatch):
        """Count guard: a batch is one kernel call of two rows -- every
        payload's primary and secondary signature -- however many payloads."""
        kernel_calls = []
        kernel = engine_module._hash_slice_numpy
        monkeypatch.setattr(engine_module, "_hash_slice_numpy",
                            lambda *args: kernel_calls.append(args[1]) or kernel(*args))
        batch = [SeededRNG(74 + index).bytes(size)
                 for index, size in enumerate((37_900, 4_600, 0, 3_800, 800, 5))]
        digests = FuzzyHasher().hash_many(batch)
        assert len(kernel_calls) == 1 and len(kernel_calls[0]) == 2
        monkeypatch.undo()
        assert digests == [ReferenceHasher().hash(payload) for payload in batch]

    @pytest.mark.parametrize("last", [1071, 1072])
    def test_the_crossover_reads_the_batch_total(self, monkeypatch, last):
        """Three payloads under the crossover each take the kernel once
        their total reaches it."""
        calls = []
        kernel = engine_module._hash_slice_numpy
        monkeypatch.setattr(engine_module, "_hash_slice_numpy",
                            lambda *args: calls.append(args) or kernel(*args))
        batch = [SeededRNG(75).bytes(1000), SeededRNG(76).bytes(1000), SeededRNG(77).bytes(last)]
        assert sum(map(len, batch)) - engine_module._KERNEL_MIN_BYTES == last - 1072
        digests = FuzzyHasher().hash_many(batch)
        assert len(calls) == (last == 1072)
        monkeypatch.undo()
        assert digests == [ReferenceHasher().hash(payload) for payload in batch]

    def test_short_payload_takes_the_table_loop(self, monkeypatch):
        calls = []
        monkeypatch.setattr(engine_module, "_hash_slice_numpy",
                            lambda *args: calls.append(args))
        payload = SeededRNG(73).bytes(engine_module._KERNEL_MIN_BYTES - 1)
        assert FuzzyHasher().hash(payload) == ReferenceHasher().hash(payload)
        assert calls == []


class TestTriggerLevels:
    """The scan's level queries against the rolling hash, position by position."""

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=3000), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12]))
    @example(b"", 3)
    @example(b"ab" * 400, 2)
    @pytest.mark.parametrize("slice_bytes", [engine_module._SCAN_SLICE, 512])
    def test_counts_and_positions_equal_the_rolling_hash(self, slice_bytes, payload, min_bs):
        rolling = roll_sequence(payload)
        with mock.patch.object(engine_module, "_SCAN_SLICE", slice_bytes):
            keys, at_level = engine_module._trigger_keys(bytes(6) + payload, min_bs)
        assert len(keys) == len(payload)
        for level in range(6):
            block = min_bs << level
            expected = [index for index, value in enumerate(rolling)
                        if value % block == block - 1]
            assert np.flatnonzero(at_level(keys, level)).tolist() == expected


#: Payloads a batch is drawn from: empty, shorter than the rolling window,
#: repetitive (halving block sizes) and random, up to a few KiB.
_PAYLOADS = st.one_of(st.binary(max_size=6), st.binary(max_size=2500),
                      st.builds(lambda unit, count: unit * count,
                                st.binary(min_size=1, max_size=4), st.integers(0, 1500)))


class TestBatchEqualsOracle:
    """``hash_many`` is the one engine entry: each digest of a batch equals
    the per-byte oracle's digest of that payload alone."""

    @settings(max_examples=40, deadline=None)
    @given(batch=st.lists(_PAYLOADS, max_size=6))
    @example(batch=[])
    @example(batch=[b""])
    @example(batch=[b"", b"SIREN", b"", b"\x00" * 6, b""])
    @example(batch=[SeededRNG(91).bytes(1000), b"", SeededRNG(92).bytes(2071)])  # 3071 bytes
    @example(batch=[SeededRNG(91).bytes(1000), b"", SeededRNG(92).bytes(2072)])  # 3072 bytes
    @example(batch=[bytes([7, 7, 7, 250]) * 600, b"ab" * 900, SeededRNG(93).bytes(7)])
    @example(batch=[SeededRNG(94).bytes(2500), SeededRNG(95).bytes(2500)])
    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_hash_many_equals_oracle(self, mode, batch):
        with mock.patch.multiple(engine_module, **ENGINE_MODES[mode]):
            digests = FuzzyHasher().hash_many(batch)
        assert digests == [ReferenceHasher().hash(payload) for payload in batch]

    def test_a_joined_batch_crosses_the_scan_slice(self, monkeypatch):
        """Payloads each shorter than the slice whose stream is several
        slices long, with slice edges inside payloads and inside the zero
        bytes between them."""
        batch = [SeededRNG(96 + size).bytes(size) for size in (500, 7, 0, 509, 1030, 3)]
        expected = [ReferenceHasher().hash(payload) for payload in batch]
        monkeypatch.setattr(engine_module, "_SCAN_SLICE", 512)
        assert FuzzyHasher().hash_many(batch) == expected


class TestOneHashPath:
    """Every payload goes through ``FuzzyHasher.hash_many``; ``hash`` is its
    one-payload case."""

    def test_hash_is_hash_many_of_one(self, monkeypatch):
        calls = []
        hasher = FuzzyHasher()
        hash_many = hasher.hash_many
        monkeypatch.setattr(hasher, "hash_many",
                            lambda payloads: calls.append(payloads) or hash_many(payloads))
        payload = SeededRNG(43).bytes(900)
        assert hasher.hash(payload) == ReferenceHasher().hash(payload)
        assert calls == [[payload]]

    def test_an_empty_batch_has_no_digests(self):
        assert FuzzyHasher().hash_many([]) == []

    def test_rejects_a_batch_with_one_non_bytes_payload(self):
        with pytest.raises(TypeError):
            FuzzyHasher().hash_many([b"fine", "not bytes"])  # type: ignore[list-item]

    @pytest.mark.parametrize("size", [0, 17, 333, 1000, 20000])
    def test_hash_matches_reference(self, size):
        payload = SeededRNG(41).bytes(size)
        assert FuzzyHasher().hash(payload) == ReferenceHasher().hash(payload)

    def test_rejects_non_bytes_payloads(self):
        with pytest.raises(TypeError):
            FuzzyHasher().hash("not bytes")  # type: ignore[arg-type]

    def test_the_hasher_is_the_engine_in_ssdeep_geometry(self):
        payload = SeededRNG(42).bytes(4000)
        assert FuzzyHasher().hash(payload) == \
            digest_of(payload, MIN_BLOCKSIZE, SPAMSUM_LENGTH)
        assert FuzzyHasher().hash(payload) != digest_of(payload, 5, 32)

    def test_accepts_memoryview_and_bytearray(self):
        payload = SeededRNG(34).bytes(3000)
        hasher = FuzzyHasher()
        assert hasher.hash(memoryview(payload)) == hasher.hash(bytearray(payload)) \
            == hasher.hash(payload)
