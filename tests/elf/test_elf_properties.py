"""Property-based tests for the ELF builder/reader round trip."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elf.builder import ELFBuilder
from repro.elf.reader import ELFFile
from repro.elf.strings import strings_blob

identifier = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=20)
soname = st.builds(lambda stem, major: f"lib{stem}.so.{major}", identifier,
                   st.integers(min_value=0, max_value=99))


class TestBuilderReaderProperties:
    @given(st.lists(soname, max_size=8, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_needed_roundtrip(self, libraries):
        builder = ELFBuilder().set_text_from_source("t", size=256)
        builder.add_needed_many(libraries)
        parsed = ELFFile(builder.build()).needed_libraries()
        assert parsed == libraries

    @given(st.lists(identifier, min_size=1, max_size=12, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_global_symbols_roundtrip(self, names):
        builder = ELFBuilder().set_text_from_source("t", size=256)
        builder.add_global_functions(names)
        assert sorted({symbol.name for symbol in ELFFile(builder.build()).global_symbols()}) \
            == sorted(set(names))

    @given(st.lists(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                            min_size=4, max_size=30), max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_rodata_strings_recoverable(self, strings):
        builder = ELFBuilder().set_text_from_source("t", size=256)
        builder.add_strings(strings)
        rodata = ELFFile(builder.build()).section_data(".rodata")
        extracted = strings_blob(rodata, min_length=4).split("\n")
        for text in strings:
            assert text in extracted

    @given(st.integers(min_value=1, max_value=32768))
    @settings(max_examples=25, deadline=None)
    def test_any_text_size_parses(self, size):
        image = ELFBuilder().set_text_from_source("src", size=size).build()
        elf = ELFFile(image)
        assert elf.get_section(".text").sh_size == size
