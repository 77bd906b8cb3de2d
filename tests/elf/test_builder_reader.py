"""Round-trip tests for the ELF builder and reader."""

import pytest

from repro.elf.builder import ELFBuilder
from repro.elf.constants import ET_DYN, ET_EXEC, STB_GLOBAL, STB_LOCAL, STT_OBJECT
from repro.elf.reader import ELFFile, is_elf
from repro.elf.structures import Symbol
from repro.util.errors import ELFError


@pytest.fixture()
def rich_image() -> bytes:
    builder = ELFBuilder()
    builder.set_text_from_source("line one\nline two\nline three", size=4096, seed=1)
    builder.add_strings(["ICON atmosphere model", "namelist parser"])
    builder.add_comment("GCC: (SUSE Linux) 12.3.0")
    builder.add_comment("clang version 17.0.1 (Cray PE 24.03)")
    builder.add_needed_many(["libc.so.6", "libnetcdf.so.19"])
    builder.add_global_functions(["icon_run", "icon_init"])
    builder.add_global_objects(["icon_version_tag"])
    builder.add_local_symbols(["helper_static"])
    return builder.build()


class TestBuilder:
    def test_output_is_elf(self, rich_image):
        assert is_elf(rich_image)

    def test_text_size_respected(self):
        image = ELFBuilder().set_text_from_source("x", size=2048).build()
        assert ELFFile(image).get_section(".text").sh_size == 2048

    def test_text_from_source_deterministic(self):
        a = ELFBuilder().set_text_from_source("src", size=1024, seed=2).build()
        b = ELFBuilder().set_text_from_source("src", size=1024, seed=2).build()
        assert a == b

    def test_text_from_source_localised_changes(self):
        """Editing one source line changes only a fraction of the text bytes."""
        lines = [f"line {i}" for i in range(16)]
        base = ELFBuilder().set_text_from_source("\n".join(lines), size=4096, seed=0).build()
        lines[3] = "line 3 patched"
        patched = ELFBuilder().set_text_from_source("\n".join(lines), size=4096, seed=0).build()
        differing = sum(1 for a, b in zip(base, patched) if a != b)
        assert 0 < differing < len(base) // 2

    def test_invalid_text_size(self):
        with pytest.raises(ELFError):
            ELFBuilder().set_text_from_source("x", size=0)

    def test_shared_object_type(self):
        image = ELFBuilder(file_type=ET_DYN, soname="libfoo.so.1").build()
        elf = ELFFile(image)
        assert elf.header.e_type == ET_DYN
        assert elf.soname() == "libfoo.so.1"


class TestReader:
    def test_section_names(self, rich_image):
        names = {section.name for section in ELFFile(rich_image).sections}
        for expected in (".text", ".rodata", ".comment", ".dynamic", ".dynstr",
                         ".symtab", ".dynsym", ".strtab", ".shstrtab"):
            assert expected in names

    def test_comments(self, rich_image):
        assert ELFFile(rich_image).comment_strings() == [
            "GCC: (SUSE Linux) 12.3.0", "clang version 17.0.1 (Cray PE 24.03)",
        ]

    def test_needed_libraries_in_order(self, rich_image):
        assert ELFFile(rich_image).needed_libraries() == ["libc.so.6", "libnetcdf.so.19"]

    def test_dynamically_linked(self, rich_image):
        assert ELFFile(rich_image).is_dynamically_linked

    def test_static_binary_detection(self):
        image = ELFBuilder().set_text_from_source("static tool", size=512).build()
        assert not ELFFile(image).is_dynamically_linked

    def test_global_symbols_exclude_locals(self, rich_image):
        names = {symbol.name for symbol in ELFFile(rich_image).global_symbols()}
        assert "icon_run" in names and "icon_version_tag" in names
        assert "helper_static" not in names

    def test_each_symbol_entry_is_unpacked_once(self, rich_image, monkeypatch):
        unpacked = []
        unpack = Symbol.unpack.__func__
        monkeypatch.setattr(Symbol, "unpack", classmethod(
            lambda cls, *args, **kwargs: unpacked.append(1) or unpack(cls, *args, **kwargs)))
        symbols = ELFFile(rich_image).symbols()
        assert len(unpacked) == len(symbols) > 0
        assert {"icon_run", "icon_version_tag", "helper_static"} <= \
            {symbol.name for symbol in symbols}

    def test_symbol_types(self, rich_image):
        symbols = {s.name: s for s in ELFFile(rich_image).global_symbols()}
        assert symbols["icon_version_tag"].symbol_type == STT_OBJECT
        assert all(s.binding == STB_GLOBAL for s in symbols.values())

    def test_missing_section_returns_empty(self, rich_image):
        assert ELFFile(rich_image).section_data(".debug_info") == b""
        assert ELFFile(rich_image).get_section(".debug_info") is None

    def test_not_elf_raises(self):
        with pytest.raises(ELFError):
            ELFFile(b"#!/bin/bash\necho hi\n")

    def test_is_elf_helper(self, rich_image):
        assert is_elf(rich_image)
        assert not is_elf(b"plain text")
        assert not is_elf(b"")

    def test_executable_without_symbols(self):
        image = ELFBuilder(file_type=ET_EXEC).set_text_from_source("x", size=256).build()
        assert ELFFile(image).global_symbols() == []

    def test_missing_dynamic_means_no_needed(self):
        image = ELFBuilder().set_text_from_source("x", size=256).build()
        assert ELFFile(image).needed_libraries() == []
