"""Tests for printable-string extraction and nm-style symbol listings."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.elf.builder import ELFBuilder
from repro.elf.reader import ELFFile
from repro.elf.strings import strings_blob
from repro.elf.symbols import nm_listing


class TestStringsBlob:
    def test_finds_ascii_runs(self):
        data = b"\x00\x01LAMMPS version 2024\x00\xffgmx_mdrun\x02"
        assert strings_blob(data) == "LAMMPS version 2024\ngmx_mdrun"

    def test_min_length_filter(self):
        data = b"ab\x00abcd\x00abcdef"
        assert strings_blob(data, min_length=4) == "abcd\nabcdef"
        assert strings_blob(data, min_length=2) == "ab\nabcd\nabcdef"

    def test_trailing_run_included(self):
        assert strings_blob(b"\x00ends with text") == "ends with text"

    def test_tabs_count_as_printable(self):
        assert strings_blob(b"col1\tcol2\x00") == "col1\tcol2"

    def test_invalid_min_length(self):
        with pytest.raises(ValueError):
            strings_blob(b"abc", min_length=0)

    def test_empty_input(self):
        assert strings_blob(b"") == ""

    def test_blob_joins_with_newlines(self):
        data = b"first string\x00\x01second string\x00"
        assert strings_blob(data) == "first string\nsecond string"


def _extract_strings_reference(data: bytes, min_length: int = 4) -> list[str]:
    """The seed per-byte loop, kept verbatim as the oracle for the scan."""
    printable = frozenset(range(0x20, 0x7F)) | {0x09}
    results: list[str] = []
    current: list[int] = []
    for byte in data:
        if byte in printable:
            current.append(byte)
        else:
            if len(current) >= min_length:
                results.append(bytes(current).decode("ascii"))
            current.clear()
    if len(current) >= min_length:
        results.append(bytes(current).decode("ascii"))
    return results


#: Bytes that sit at the edges of the printable set, weighted so runs of
#: every length and every kind of boundary turn up.
EDGE_BYTES = st.sampled_from(b"\x00\x08\t\n\x1f \x20a~\x7e\x7f\x80\xff")


class TestScanEqualsTheLoop:
    """The vectorised scan must match the per-byte reference exactly."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=600),
                     st.lists(EDGE_BYTES, max_size=200).map(bytes)),
           st.integers(1, 8))
    @example(b"", 1)
    @example(b"\t\t\tx\x7f", 4)                         # tabs count, 0x7F ends
    @example(b"head run\x00\x01tail run", 4)             # runs touch both ends
    @example(b"abc\x00abcd\x00", 4)                       # one short of min_length
    @example(b"\x7f" * 9, 1)
    def test_scan_equals_the_loop(self, data, min_length):
        expected = _extract_strings_reference(data, min_length)
        assert strings_blob(data, min_length) == "\n".join(expected)

    @pytest.mark.parametrize("min_length", [1, 2, 4, 10])
    def test_random_blobs(self, min_length):
        from repro.util.rng import SeededRNG

        for seed in range(8):
            blob = SeededRNG(seed).bytes(2048)
            assert strings_blob(blob, min_length) == \
                "\n".join(_extract_strings_reference(blob, min_length))

    def test_boundary_bytes(self):
        # 0x1F / 0x7F sit just outside the printable range, 0x20 / 0x7E inside.
        blob = b"\x1f" + b" ~" * 3 + b"\x7f" + b"\t\t\t\t" + b"\x00" + b"abcd"
        assert strings_blob(blob) == "\n".join(_extract_strings_reference(blob))
        assert strings_blob(blob, 2) == "\n".join(_extract_strings_reference(blob, 2))

    def test_all_printable_and_all_binary(self):
        printable = bytes(range(0x20, 0x7F)) * 4
        binary = bytes(range(0x00, 0x09)) * 50
        assert strings_blob(printable) == "\n".join(_extract_strings_reference(printable))
        assert strings_blob(binary) == ""


class TestNmListing:
    def _elf(self, functions, objects=()):
        builder = ELFBuilder()
        builder.set_text_from_source("x", size=256)
        builder.add_global_functions(list(functions))
        builder.add_global_objects(list(objects))
        return ELFFile(builder.build())

    def test_listing_format(self):
        listing = nm_listing(self._elf(["zeta", "alpha"], objects=["data_obj"]))
        lines = listing.splitlines()
        assert "D data_obj" in lines
        assert "T alpha" in lines and "T zeta" in lines

    def test_listing_is_sorted_and_order_independent(self):
        a = nm_listing(self._elf(["b_func", "a_func"]))
        b = nm_listing(self._elf(["a_func", "b_func"]))
        assert a == b
        assert a.splitlines() == sorted(a.splitlines())

    def test_empty_symbol_table(self):
        builder = ELFBuilder().set_text_from_source("x", size=128)
        assert nm_listing(ELFFile(builder.build())) == ""

