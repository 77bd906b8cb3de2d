"""SIREN's readers on real ELF files: the interpreter and what it has mapped.

Every other test reads bytes the repository's own substrate wrote, so the
ELF reader is checked against the builder it was written with and the maps
parser against ``hpcsim.memmap``.  Here they read the files this very test
process has mapped after ``import numpy`` and ``sys.executable``, so the test
runs wherever the suite runs.  It asserts properties, never a host's digests.
"""

import os
import shutil
import sys

import numpy  # noqa: F401 - its extension modules must be mapped
import pytest

from repro.analysis.compilers import provenance_label
from repro.collector.fuzzy import ArtifactHasher
from repro.elf.reader import ELFFile, is_elf
from repro.hashing.ssdeep import FuzzyHasher
from repro.hpcsim.filesystem import VirtualFilesystem
from repro.ingest.records import extract_python_packages, parse_mapped_paths

_PAGE = 4096


@pytest.fixture(scope="module")
def maps() -> str:
    with open("/proc/self/maps", encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def mapped_elfs(maps) -> dict[str, bytes]:
    """The bytes of every ELF file mapped into this process."""
    images = {}
    for path in parse_mapped_paths(maps):
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                data = handle.read()
            if is_elf(data):
                images[path] = data
    assert len(images) >= 5
    return images


def test_every_mapped_elf_parses(mapped_elfs):
    for path, data in mapped_elfs.items():
        image = ELFFile(data)
        assert image.sections, path
        image.comment_strings()
        image.global_symbols()


def test_every_needed_library_is_the_soname_of_a_mapped_one(mapped_elfs):
    images = [ELFFile(data) for data in mapped_elfs.values()]
    sonames = {image.soname() for image in images}
    needed = [name for image in images for name in image.needed_libraries()]
    assert needed
    assert [name for name in needed if name not in sonames] == []


def test_every_gcc_comment_reads_as_a_gcc_label(mapped_elfs):
    comments = {comment for data in mapped_elfs.values()
                for comment in ELFFile(data).comment_strings()}
    assert comments
    for comment in comments:
        if comment.startswith("GCC: ("):
            assert provenance_label(comment).startswith("GCC"), comment


def test_the_interpreter_maps_numpy_and_no_libs_directory(maps):
    packages = extract_python_packages(maps)
    assert "numpy" in packages
    assert not [name for name in packages if name.endswith(".libs")]


def test_a_renamed_copy_of_the_interpreter_hashes_the_same(tmp_path):
    original = os.path.realpath(sys.executable)
    renamed = tmp_path / "a.out"
    shutil.copy(original, renamed)
    filesystem = VirtualFilesystem()
    for path in (original, str(renamed)):
        with open(path, "rb") as handle:
            filesystem.add_file(path, handle.read(), executable=True)
    first, second = (ArtifactHasher(filesystem).executable_hashes(path)
                     for path in (original, str(renamed)))
    assert first.symbols_hash is not None
    assert first == second


def test_a_libc_with_one_page_zeroed_is_still_recognised(mapped_elfs):
    (libc,) = [data for data in mapped_elfs.values()
               if (ELFFile(data).soname() or "").startswith("libc.so")]
    patched = bytearray(libc)
    middle = len(libc) // 2 // _PAGE * _PAGE
    patched[middle:middle + _PAGE] = bytes(_PAGE)
    hasher = FuzzyHasher()
    first, second = hasher.hash_many([libc, bytes(patched)])
    assert first != second
    assert first.split(":")[0] == second.split(":")[0]
    assert hasher.compare(first, second) > 0
